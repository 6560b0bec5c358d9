//! Structured tracing: typed events and the sinks they fan out to.
//!
//! Events are stamped with **virtual** time ([`Instant`]) at the emission
//! site, never with wall-clock time, so a trace is a pure function of the
//! world seed: byte-identical across runs, machines, and worker counts.
//! The [`Tracer`] handle is cheap to clone and cheap to ignore — a disabled
//! tracer is one `Option` discriminant check per call site. Sinks that
//! render or analyze events first condense them into a
//! [`crate::binfmt::Frame`], the one decoded form every trace format and
//! the analyzer share.

use std::sync::{Arc, Mutex};

use blap_types::{BdAddr, Instant};

use crate::binfmt::Frame;
use crate::span::{SpanId, SpanState};

/// One typed trace event.
///
/// Variants mirror the seams the BLAP attacks are diagnosed from: the
/// scheduler, the baseband page/scan machinery, the LMP channel, the HCI
/// transport, the bond store, and the attack drivers themselves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// The world scheduler dispatched one queued event.
    SchedulerDispatch {
        /// Virtual dispatch time.
        time: Instant,
        /// Scheduling sequence number (tiebreaker order).
        seq: u64,
        /// Event kind name.
        kind: &'static str,
    },
    /// A device started paging a target address.
    PageStarted {
        /// Virtual time.
        time: Instant,
        /// Paged (claimed) address.
        target: BdAddr,
    },
    /// A page resolved to a responder.
    PageConnected {
        /// Virtual time of resolution.
        time: Instant,
        /// Paged address.
        target: BdAddr,
        /// Winning responder's device index.
        responder: u32,
        /// Sampled page latency in microseconds.
        latency_us: u64,
        /// Whether two listeners raced for the page.
        raced: bool,
    },
    /// A page found no responder and will time out.
    PageTimeout {
        /// Virtual time.
        time: Instant,
        /// Paged address.
        target: BdAddr,
    },
    /// Outcome of a two-listener page race (the Table II baseline event).
    RaceOutcome {
        /// Virtual time.
        time: Instant,
        /// Raced address.
        target: BdAddr,
        /// Whether the spoofing attacker won.
        attacker_won: bool,
    },
    /// A controller's scan state changed.
    ScanTransition {
        /// Virtual time.
        time: Instant,
        /// New page-scan state.
        page_scan: bool,
        /// New inquiry-scan state.
        inquiry_scan: bool,
    },
    /// An LMP PDU was queued for the peer.
    LmpSend {
        /// Virtual time.
        time: Instant,
        /// Claimed peer address.
        peer: BdAddr,
        /// PDU name.
        pdu: &'static str,
    },
    /// An LMP PDU arrived from the peer.
    LmpRecv {
        /// Virtual time.
        time: Instant,
        /// Claimed peer address.
        peer: BdAddr,
        /// PDU name.
        pdu: &'static str,
    },
    /// An LMP procedure died by response timeout (the §IV-C extraction
    /// primitive: disconnect *without* authentication failure).
    LmpTimeout {
        /// Virtual time.
        time: Instant,
        /// Claimed peer address.
        peer: BdAddr,
    },
    /// A packet crossed the HCI seam of a device.
    HciSeam {
        /// Virtual time.
        time: Instant,
        /// `"sent"` (host→controller) or `"received"`.
        direction: &'static str,
        /// Packet kind: `"command"`, `"event"` or `"acl"`.
        kind: &'static str,
        /// Command/event name (`"acl"` packets carry the handle instead).
        name: &'static str,
    },
    /// A link died (supervision timeout, detach).
    LinkDropped {
        /// Virtual time.
        time: Instant,
        /// Why the link dropped.
        reason: &'static str,
    },
    /// The bond store changed.
    KeystoreMutation {
        /// Virtual time.
        time: Instant,
        /// Peer whose bond changed.
        peer: BdAddr,
        /// `"store"`, `"remove"` or `"install"` (attacker-planted).
        action: &'static str,
    },
    /// An attack driver crossed a phase boundary.
    AttackPhase {
        /// Virtual time.
        time: Instant,
        /// Phase label (e.g. `"ploc_hold"`, `"fig9_drop_link_key_request"`).
        label: &'static str,
    },
    /// A non-fatal configuration or runtime warning.
    Warning {
        /// Virtual time (EPOCH for pre-simulation warnings).
        time: Instant,
        /// Human-readable message.
        message: String,
    },
    /// Marks the start of one experiment unit in a concatenated trace.
    UnitStart {
        /// Unit index within the experiment.
        unit: u64,
        /// Condition label (e.g. `"baseline"`, `"blocking"`).
        label: &'static str,
    },
    /// A causal span opened (see [`crate::span`]).
    SpanOpen {
        /// Virtual open time.
        time: Instant,
        /// Span identifier (unique within one unit's trace).
        span: SpanId,
        /// Enclosing span ([`SpanId::NONE`] for a root span).
        parent: SpanId,
        /// Span kind (`"trial"`, `"page"`, `"lmp_auth"`, `"host_pairing"`,
        /// `"ploc"`, `"hci_cmd"`).
        name: &'static str,
        /// Free-form qualifier (peer address, trial condition, command
        /// name); empty when the kind says it all.
        detail: String,
    },
    /// A causal span closed.
    SpanClose {
        /// Virtual close time.
        time: Instant,
        /// The span being closed.
        span: SpanId,
        /// Outcome (`"ok"`, `"timeout"`, `"failed"`, ...).
        status: &'static str,
    },
}

impl TraceEvent {
    /// The event's virtual timestamp ([`Instant::EPOCH`] for unit markers).
    pub fn time(&self) -> Instant {
        match self {
            TraceEvent::SchedulerDispatch { time, .. }
            | TraceEvent::PageStarted { time, .. }
            | TraceEvent::PageConnected { time, .. }
            | TraceEvent::PageTimeout { time, .. }
            | TraceEvent::RaceOutcome { time, .. }
            | TraceEvent::ScanTransition { time, .. }
            | TraceEvent::LmpSend { time, .. }
            | TraceEvent::LmpRecv { time, .. }
            | TraceEvent::LmpTimeout { time, .. }
            | TraceEvent::HciSeam { time, .. }
            | TraceEvent::LinkDropped { time, .. }
            | TraceEvent::KeystoreMutation { time, .. }
            | TraceEvent::AttackPhase { time, .. }
            | TraceEvent::Warning { time, .. }
            | TraceEvent::SpanOpen { time, .. }
            | TraceEvent::SpanClose { time, .. } => *time,
            TraceEvent::UnitStart { .. } => Instant::EPOCH,
        }
    }
}

/// A consumer of trace events.
///
/// Sinks run under the tracer's lock, so implementations should be quick;
/// both provided sinks just append to an in-memory buffer.
pub trait TraceSink: Send {
    /// Records one event. `device` is the emitting device's world index
    /// when the tracer handle was scoped with [`Tracer::scoped`].
    fn record(&mut self, device: Option<u32>, event: &TraceEvent);
}

struct TracerShared {
    sinks: Mutex<Vec<Box<dyn TraceSink>>>,
    spans: Mutex<SpanState>,
}

/// A cloneable handle that fans events out to attached sinks.
///
/// The default handle is **disabled**: [`Tracer::emit`] is one `Option`
/// check and call sites guard event construction behind
/// [`Tracer::enabled`], so instrumented hot paths cost nothing measurable
/// when observability is off.
#[derive(Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<TracerShared>>,
    device: Option<u32>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .field("device", &self.device)
            .finish()
    }
}

impl Tracer {
    /// An enabled tracer with no sinks yet (attach with [`Tracer::attach`]).
    pub fn new() -> Tracer {
        Tracer {
            shared: Some(Arc::new(TracerShared {
                sinks: Mutex::new(Vec::new()),
                spans: Mutex::new(SpanState::new()),
            })),
            device: None,
        }
    }

    /// The disabled tracer (same as `Tracer::default()`).
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// Whether events will reach any sink.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Attaches a sink; all clones of this tracer feed it from now on.
    ///
    /// No-op on a disabled tracer.
    pub fn attach<S: TraceSink + 'static>(&self, sink: S) {
        if let Some(shared) = &self.shared {
            shared
                .sinks
                .lock()
                .expect("tracer lock")
                .push(Box::new(sink));
        }
    }

    /// A clone scoped to one device index: events it emits are attributed
    /// to that device in rendered output.
    pub fn scoped(&self, device: usize) -> Tracer {
        Tracer {
            shared: self.shared.clone(),
            device: Some(device as u32),
        }
    }

    /// Emits one event to every attached sink.
    #[inline]
    pub fn emit(&self, event: TraceEvent) {
        if let Some(shared) = &self.shared {
            let mut sinks = shared.sinks.lock().expect("tracer lock");
            for sink in sinks.iter_mut() {
                sink.record(self.device, &event);
            }
        }
    }

    /// Opens a **root** span (a trial boundary): subsequent non-root spans
    /// opened through any clone of this tracer get it as their parent,
    /// until it is closed. Returns [`SpanId::NONE`] when disabled.
    pub fn open_root_span(&self, time: Instant, name: &'static str, detail: &str) -> SpanId {
        let Some(shared) = &self.shared else {
            return SpanId::NONE;
        };
        let span = {
            let mut spans = shared.spans.lock().expect("span lock");
            let span = spans.alloc();
            spans.set_root(span);
            span
        };
        self.emit(TraceEvent::SpanOpen {
            time,
            span,
            parent: SpanId::NONE,
            name,
            detail: detail.to_owned(),
        });
        span
    }

    /// Opens a span parented to the current root (or parentless when no
    /// root is open). Returns [`SpanId::NONE`] when disabled.
    pub fn open_span(&self, time: Instant, name: &'static str, detail: &str) -> SpanId {
        let Some(shared) = &self.shared else {
            return SpanId::NONE;
        };
        let (span, parent) = {
            let mut spans = shared.spans.lock().expect("span lock");
            (spans.alloc(), spans.root())
        };
        self.emit(TraceEvent::SpanOpen {
            time,
            span,
            parent,
            name,
            detail: detail.to_owned(),
        });
        span
    }

    /// Closes a span with an outcome status. No-op for [`SpanId::NONE`]
    /// (the disabled-tracer return value), so call sites need no guards.
    pub fn close_span(&self, time: Instant, span: SpanId, status: &'static str) {
        if span.is_none() {
            return;
        }
        if let Some(shared) = &self.shared {
            shared.spans.lock().expect("span lock").clear_root_if(span);
        }
        self.emit(TraceEvent::SpanClose { time, span, status });
    }
}

/// A sink that appends rendered events as JSONL into a shared string
/// buffer. Clone it before attaching to keep a read handle.
#[derive(Clone, Default)]
pub struct JsonlBuffer {
    inner: Arc<Mutex<String>>,
}

impl JsonlBuffer {
    /// An empty buffer.
    pub fn new() -> JsonlBuffer {
        JsonlBuffer::default()
    }

    /// The accumulated JSONL text (one event per line).
    pub fn contents(&self) -> String {
        self.inner.lock().expect("jsonl lock").clone()
    }

    /// Whether any event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().expect("jsonl lock").is_empty()
    }
}

impl TraceSink for JsonlBuffer {
    fn record(&mut self, device: Option<u32>, event: &TraceEvent) {
        let frame = Frame::from_event(device, event);
        let mut buf = self.inner.lock().expect("jsonl lock");
        frame.render_jsonl(&mut buf);
        buf.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr() -> BdAddr {
        "cc:cc:cc:cc:cc:cc".parse().expect("valid address")
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let tracer = Tracer::disabled();
        assert!(!tracer.enabled());
        tracer.emit(TraceEvent::AttackPhase {
            time: Instant::EPOCH,
            label: "noop",
        });
        // Attaching to a disabled tracer is a no-op, not a panic.
        tracer.attach(JsonlBuffer::new());
    }

    #[test]
    fn jsonl_buffer_renders_fixed_key_order() {
        let tracer = Tracer::new();
        let buf = JsonlBuffer::new();
        tracer.attach(buf.clone());
        tracer.scoped(2).emit(TraceEvent::LmpSend {
            time: Instant::from_micros(1250),
            peer: addr(),
            pdu: "LMP_au_rand",
        });
        assert_eq!(
            buf.contents(),
            "{\"t\":1250,\"dev\":2,\"ev\":\"lmp_send\",\"peer\":\"cc:cc:cc:cc:cc:cc\",\"pdu\":\"LMP_au_rand\"}\n"
        );
    }

    /// Renders one event the way [`JsonlBuffer`] does, without the
    /// trailing newline.
    fn render(device: Option<u32>, event: &TraceEvent) -> String {
        let mut out = String::new();
        Frame::from_event(device, event).render_jsonl(&mut out);
        out
    }

    #[test]
    fn warning_messages_are_escaped() {
        let out = render(
            None,
            &TraceEvent::Warning {
                time: Instant::EPOCH,
                message: "quote \" slash \\ newline \n".to_owned(),
            },
        );
        assert_eq!(
            out,
            "{\"t\":0,\"ev\":\"warning\",\"message\":\"quote \\\" slash \\\\ newline \\n\"}"
        );
    }

    #[test]
    fn scoped_tracers_share_sinks() {
        let tracer = Tracer::new();
        let buf = JsonlBuffer::new();
        tracer.attach(buf.clone());
        let scoped = tracer.scoped(5);
        scoped.emit(TraceEvent::PageTimeout {
            time: Instant::from_micros(100),
            target: addr(),
        });
        tracer.emit(TraceEvent::PageStarted {
            time: Instant::from_micros(200),
            target: addr(),
        });
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"dev\":5"));
        assert!(
            !lines[1].contains("\"dev\""),
            "unscoped line has no dev key"
        );
    }

    #[test]
    fn hostile_labels_cannot_break_jsonl_syntax() {
        // Regression: label fields used to be interpolated raw. A hostile
        // PDU/kind label must render as valid JSON that parses back to the
        // original string.
        let hostile = "pdu\",\"ev\":\"forged\u{1}\\";
        let out = render(
            Some(3),
            &TraceEvent::LmpSend {
                time: Instant::from_micros(625),
                peer: addr(),
                pdu: hostile,
            },
        );
        let parsed = crate::json::parse(&out).expect("hostile label stays valid JSON");
        assert_eq!(parsed.get("ev").and_then(|v| v.as_str()), Some("lmp_send"));
        assert_eq!(parsed.get("pdu").and_then(|v| v.as_str()), Some(hostile));

        let out = render(
            None,
            &TraceEvent::HciSeam {
                time: Instant::EPOCH,
                direction: "sent",
                kind: "command\"",
                name: "a\\b",
            },
        );
        let parsed = crate::json::parse(&out).expect("hostile hci labels stay valid JSON");
        assert_eq!(
            parsed.get("kind").and_then(|v| v.as_str()),
            Some("command\"")
        );
        assert_eq!(parsed.get("name").and_then(|v| v.as_str()), Some("a\\b"));
    }

    #[test]
    fn span_open_close_renders_fixed_key_order() {
        let tracer = Tracer::new();
        let buf = JsonlBuffer::new();
        tracer.attach(buf.clone());
        let trial = tracer.open_root_span(Instant::EPOCH, "trial", "baseline");
        let page =
            tracer
                .scoped(1)
                .open_span(Instant::from_micros(625), "page", "cc:cc:cc:cc:cc:cc");
        tracer
            .scoped(1)
            .close_span(Instant::from_micros(2500), page, "connected");
        tracer.close_span(Instant::from_micros(5000), trial, "done");
        assert_eq!(
            buf.contents(),
            "{\"t\":0,\"ev\":\"span_open\",\"span\":1,\"name\":\"trial\",\"detail\":\"baseline\"}\n\
             {\"t\":625,\"dev\":1,\"ev\":\"span_open\",\"span\":2,\"parent\":1,\"name\":\"page\",\"detail\":\"cc:cc:cc:cc:cc:cc\"}\n\
             {\"t\":2500,\"dev\":1,\"ev\":\"span_close\",\"span\":2,\"status\":\"connected\"}\n\
             {\"t\":5000,\"ev\":\"span_close\",\"span\":1,\"status\":\"done\"}\n"
        );
    }

    #[test]
    fn span_parenting_follows_the_root() {
        let tracer = Tracer::new();
        let buf = JsonlBuffer::new();
        tracer.attach(buf.clone());
        let t1 = tracer.open_root_span(Instant::EPOCH, "trial", "baseline");
        tracer.close_span(Instant::from_micros(10), t1, "done");
        // After the root closes, a new span is parentless.
        let orphan = tracer.open_span(Instant::from_micros(20), "page", "");
        tracer.close_span(Instant::from_micros(30), orphan, "timeout");
        let t2 = tracer.open_root_span(Instant::from_micros(40), "trial", "blocking");
        let child = tracer.open_span(Instant::from_micros(50), "lmp_auth", "");
        tracer.close_span(Instant::from_micros(60), child, "ok");
        tracer.close_span(Instant::from_micros(70), t2, "done");
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines[2].contains("parent"), "orphan has no parent: {text}");
        assert!(
            lines[5].contains(&format!("\"parent\":{}", t2.raw())),
            "child parented to second trial: {text}"
        );
    }

    #[test]
    fn disabled_tracer_spans_are_inert() {
        let tracer = Tracer::disabled();
        let span = tracer.open_root_span(Instant::EPOCH, "trial", "x");
        assert!(span.is_none());
        assert!(tracer.open_span(Instant::EPOCH, "page", "").is_none());
        tracer.close_span(Instant::EPOCH, span, "done"); // no panic
    }
}
