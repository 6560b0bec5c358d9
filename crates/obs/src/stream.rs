//! Single-pass streaming trace analysis: the constant-memory core behind
//! every trace check, from `blap-trace check` to the campaign engine.
//!
//! [`StreamAnalyzer`] consumes a trace one event at a time and keeps
//! state **per in-flight trial only**: a segment's span table, its LMP
//! send/recv ledgers, link drops and keystore mutations. The moment a
//! segment boundary arrives — a `unit_start` marker, or a root `trial`
//! span opening while a trial is already open — the finished segment is
//! *retired*: its invariant checks run, its spans fold into the phase
//! profile, and every byte of its buffered state is dropped. Memory is
//! therefore bounded by the largest single trial, never by the artifact
//! length, which is what lets `blap-trace check` walk a campaign-scale
//! trace and lets invariant checking run *inside* `blap::campaign` while
//! trials execute.
//!
//! The analysis is deferred to retirement rather than run eagerly per
//! event: the checks are whole-segment (an `lmp_recv` may match a send
//! that appears later in line order, and `keystore-after-auth` consults
//! the segment's full span table). Unmatched `lmp_send` violations are
//! emitted in artifact line order.
//!
//! Every event reaches the state machine as a [`Frame`], through one
//! entry point, [`StreamAnalyzer::push_frame`]. The other two are thin
//! decoders in front of it, pinned equivalent in tests:
//!
//! * [`StreamAnalyzer::push_line`] — decodes one JSONL artifact line.
//! * [`StreamAnalyzer::push_event`] — condenses a typed [`TraceEvent`]
//!   (the campaign path); the [`StreamSink`] adapter attaches it to a
//!   [`crate::trace::Tracer`].
//!
//! `blap-trace` hands decoded BLAPTRC1 frames to `push_frame` directly.
//!
//! [`ViolationSummary`] is the bounded-memory aggregate the campaign
//! engine merges in shard order: per-invariant counts plus a capped list
//! of example violations, with a deterministic JSON form for checkpoints.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::analyze::{AnalyzeError, PhaseProfile, TraceAnalysis, Violation, LMP_LATENCY_US};
use crate::binfmt::{Decoded, Frame, FrameKind};
use crate::json::{self, escape, Value};
use crate::trace::{TraceEvent, TraceSink};

/// A reconstructed span within the in-flight segment.
#[derive(Clone, Debug)]
struct SpanRec {
    name: String,
    dev: Option<u32>,
    open_t: u64,
    open_line: usize,
    /// The `detail` qualifier from the open line (`None` when absent).
    detail: Option<String>,
    close: Option<(u64, String)>,
    close_line: Option<usize>,
}

/// One keystore mutation, condensed to what the checks consume.
#[derive(Clone, Debug)]
struct KeystoreRec {
    action: String,
    dev: Option<u32>,
    t: u64,
    line_no: usize,
}

/// Buffered state for the one in-flight segment — everything the
/// whole-segment checks need, and nothing else (scheduler dispatch and
/// HCI seam lines, the bulk of a trace, contribute only to `last_t`).
#[derive(Debug, Default)]
struct SegState {
    /// Whether any line landed in this segment yet.
    non_empty: bool,
    spans: BTreeMap<u64, SpanRec>,
    /// Pending `lmp_send` multiset: `(pdu, t)` → artifact lines.
    sends: HashMap<(String, u64), Vec<usize>>,
    /// `lmp_recv` ledger in artifact order: `(pdu, t, line_no)`.
    recvs: Vec<(String, u64, usize)>,
    /// `link_drop` timestamps.
    drops: Vec<u64>,
    /// Whether any page race in this segment went to the attacker — the
    /// second win path `blocking-implies-win` accepts (a user whose
    /// pairing delay undercuts the attacker's PLOC page can still lose
    /// the page race itself).
    race_won: bool,
    /// `page_connect` ledger: `(responder device, link-registration
    /// time)`. The registration time is the event's `t` plus its page
    /// latency — `page_connect` is stamped when the page *resolves*, but
    /// the link only exists once delivery lands.
    page_connects: Vec<(u64, u64)>,
    /// Keystore mutations in artifact order.
    keystores: Vec<KeystoreRec>,
    /// Max timestamp over every line in the segment (the world deadline).
    last_t: u64,
}

impl SegState {
    /// Marks the segment non-empty and advances its clock to `t`.
    fn touch(&mut self, t: u64) {
        self.non_empty = true;
        self.last_t = self.last_t.max(t);
    }
}

/// Single-pass streaming trace analyzer with constant memory per
/// in-flight trial. See the [module docs](self) for the memory model and
/// retirement rule.
#[derive(Debug, Default)]
pub struct StreamAnalyzer {
    /// 1-based number of raw lines seen (blank lines included), so
    /// [`AnalyzeError`]/[`Violation`] line numbers match the artifact.
    next_line_no: usize,
    /// Parsed (non-blank) lines consumed.
    line_count: usize,
    /// Segments already retired.
    segment_count: usize,
    /// Whether a root trial span opened in the current segment.
    trial_open_in_current: bool,
    seg: SegState,
    profile: PhaseProfile,
    violations: Vec<Violation>,
    notes: Vec<String>,
}

impl StreamAnalyzer {
    /// A fresh analyzer with no state.
    pub fn new() -> StreamAnalyzer {
        StreamAnalyzer::default()
    }

    /// Parsed (non-blank) lines consumed so far.
    pub fn lines_seen(&self) -> usize {
        self.line_count
    }

    /// Consumes one raw artifact line (blank lines are counted and
    /// skipped). The line decodes through the same [`Frame`] decoder
    /// `blap-trace convert` uses, then takes the [`StreamAnalyzer::push_frame`]
    /// path. A line whose `ev` is not a known kind is accepted as opaque:
    /// it only advances the segment's clock and the line count.
    ///
    /// Returns the error for a malformed line — unparseable JSON, a
    /// missing `t`/`ev`, or a known kind with a missing or mistyped
    /// field. Analyzer state is unchanged by a failed push except for the
    /// line counter, so a caller may report and stop.
    pub fn push_line(&mut self, raw: &str) -> Result<(), AnalyzeError> {
        if raw.trim().is_empty() {
            self.next_line_no += 1;
            return Ok(());
        }
        let decoded = json::parse(raw)
            .map_err(|e| e.to_string())
            .and_then(Frame::from_value);
        match decoded {
            Ok(Decoded::Event(frame)) => self.push_frame(&frame),
            Ok(Decoded::Opaque { t, .. }) => {
                self.next_line();
                self.seg.touch(t);
            }
            Err(message) => {
                self.next_line_no += 1;
                return Err(AnalyzeError {
                    line: self.next_line_no,
                    message,
                });
            }
        }
        Ok(())
    }

    /// Consumes one typed event — the campaign engine's path, via
    /// [`StreamSink`]. Equivalent to rendering the event as JSONL and
    /// calling [`StreamAnalyzer::push_line`] (pinned in tests), but it
    /// cannot fail: typed events are well-formed by construction.
    pub fn push_event(&mut self, device: Option<u32>, event: &TraceEvent) {
        self.push_frame(&Frame::from_event(device, event));
    }

    /// Consumes one decoded trace event: the single entry point every
    /// ingestion path — JSONL lines, BLAPTRC1 frames, typed events —
    /// ends in.
    pub fn push_frame(&mut self, frame: &Frame) {
        let line = self.next_line();
        // Segment boundaries: a `unit_start` marker, or a root `trial`
        // span opening while a trial is already open in this segment.
        let unit = matches!(frame.kind, FrameKind::UnitStart { .. });
        let root_trial = matches!(
            &frame.kind,
            FrameKind::SpanOpen { parent: None, name, .. } if name == "trial"
        );
        if unit || (root_trial && self.trial_open_in_current) {
            self.retire();
        }
        if unit || root_trial {
            self.trial_open_in_current = root_trial;
        }
        self.seg.touch(frame.t);
        self.absorb(line, frame);
    }

    /// Retires the final segment and returns the completed analysis.
    pub fn finish(mut self) -> TraceAnalysis {
        self.retire();
        TraceAnalysis {
            line_count: self.line_count,
            segment_count: self.segment_count,
            profile: self.profile,
            violations: self.violations,
            notes: self.notes,
        }
    }

    /// Counts one consumed line and returns its 1-based line number.
    fn next_line(&mut self) -> usize {
        self.next_line_no += 1;
        self.line_count += 1;
        self.next_line_no
    }

    /// Folds one event into the in-flight segment's condensed state.
    fn absorb(&mut self, line: usize, frame: &Frame) {
        let seg = &mut self.seg;
        let (t, dev) = (frame.t, frame.dev);
        match &frame.kind {
            FrameKind::SpanOpen {
                span, name, detail, ..
            } => {
                if seg.spans.contains_key(span) {
                    self.violations.push(Violation {
                        invariant: "span-structure",
                        segment: self.segment_count,
                        line: Some(line),
                        message: format!("span {span} opened twice"),
                    });
                } else {
                    seg.spans.insert(
                        *span,
                        SpanRec {
                            name: name.clone(),
                            dev,
                            open_t: t,
                            open_line: line,
                            detail: detail.clone(),
                            close: None,
                            close_line: None,
                        },
                    );
                }
            }
            FrameKind::SpanClose { span, status } => match seg.spans.get_mut(span) {
                None => self.violations.push(Violation {
                    invariant: "span-structure",
                    segment: self.segment_count,
                    line: Some(line),
                    message: format!("span {span} closed but never opened in this segment"),
                }),
                Some(rec) if rec.close.is_some() => self.violations.push(Violation {
                    invariant: "span-structure",
                    segment: self.segment_count,
                    line: Some(line),
                    message: format!("span {span} closed twice"),
                }),
                Some(rec) => {
                    rec.close = Some((t, status.clone()));
                    rec.close_line = Some(line);
                }
            },
            FrameKind::LmpSend { pdu, .. } if pdu != "LMP_detach" => {
                seg.sends.entry((pdu.clone(), t)).or_default().push(line);
            }
            FrameKind::LmpRecv { pdu, .. } if pdu != "LMP_detach" => {
                seg.recvs.push((pdu.clone(), t, line));
            }
            FrameKind::LinkDrop { .. } => seg.drops.push(t),
            FrameKind::Race { attacker_won, .. } => seg.race_won |= attacker_won,
            FrameKind::PageConnect {
                responder,
                latency_us,
                ..
            } => seg
                .page_connects
                .push((*responder, t.saturating_add(*latency_us))),
            FrameKind::Keystore { action, .. } => seg.keystores.push(KeystoreRec {
                action: action.clone(),
                dev,
                t,
                line_no: line,
            }),
            _ => {}
        }
    }

    /// Retires the in-flight segment: folds its spans into the profile
    /// and runs the whole-segment invariant checks, in the same order the
    /// batch analyzer did, then drops all buffered state.
    fn retire(&mut self) {
        if !self.seg.non_empty {
            return;
        }
        let mut seg = std::mem::take(&mut self.seg);
        let seg_idx = self.segment_count;
        self.segment_count += 1;

        for span in seg.spans.values() {
            let stats = self.profile.stats_mut(&span.name);
            match &span.close {
                Some((close_t, _)) => stats.durations.observe(close_t.saturating_sub(span.open_t)),
                None => stats.unclosed += 1,
            }
        }
        let unclosed = seg.spans.values().filter(|s| s.close.is_none()).count();
        if unclosed > 0 {
            self.notes.push(format!(
                "segment {seg_idx}: {unclosed} span(s) still open at segment end (world deadline)"
            ));
        }
        check_lmp_matching(seg_idx, &mut seg, &mut self.violations);
        check_ploc_no_pairing(seg_idx, &seg.spans, &mut self.violations);
        check_keystore_after_auth(seg_idx, &seg, &mut self.violations);
        check_blocking_implies_win(seg_idx, &seg, &mut self.violations);
    }
}

fn check_lmp_matching(seg_idx: usize, seg: &mut SegState, violations: &mut Vec<Violation>) {
    // Multiset matching: sends at (pdu, t) pair with recvs at
    // (pdu, t + LMP_LATENCY_US); LMP_detach was already filtered at
    // ingest (supervision timeouts inject it on both ends).
    for (pdu, t, line_no) in &seg.recvs {
        let matched = t
            .checked_sub(LMP_LATENCY_US)
            .and_then(|sent_t| seg.sends.get_mut(&(pdu.clone(), sent_t)))
            .and_then(Vec::pop)
            .is_some();
        if !matched {
            violations.push(Violation {
                invariant: "lmp-matching",
                segment: seg_idx,
                line: Some(*line_no),
                message: format!(
                    "lmp_recv of {pdu} at t={t} has no matching lmp_send at t={}",
                    t.saturating_sub(LMP_LATENCY_US)
                ),
            });
        }
    }
    // Unmatched sends, in artifact line order (each line number is
    // unique, so the sort is total and deterministic).
    let mut unmatched: Vec<(usize, &str, u64)> = Vec::new();
    for ((pdu, sent_t), line_nos) in &seg.sends {
        for line_no in line_nos {
            unmatched.push((*line_no, pdu, *sent_t));
        }
    }
    unmatched.sort_unstable();
    for (line_no, pdu, sent_t) in unmatched {
        let in_flight_at_deadline = sent_t + LMP_LATENCY_US > seg.last_t;
        let link_died = seg.drops.iter().any(|&drop_t| drop_t >= sent_t);
        if !in_flight_at_deadline && !link_died {
            violations.push(Violation {
                invariant: "lmp-matching",
                segment: seg_idx,
                line: Some(line_no),
                message: format!(
                    "lmp_send of {pdu} at t={sent_t} was never received, \
                     yet no link died and the world outlived the delivery"
                ),
            });
        }
    }
}

fn check_ploc_no_pairing(
    seg_idx: usize,
    spans: &BTreeMap<u64, SpanRec>,
    violations: &mut Vec<Violation>,
) {
    for span in spans.values() {
        if span.name != "host_pairing" {
            continue;
        }
        // A PLOC hold is "active" at the pairing span's open if it opened
        // earlier and had not closed yet — line order is event order within
        // a trial's single-threaded tracer.
        let held_during = spans.values().any(|p| {
            p.name == "ploc"
                && p.dev == span.dev
                && p.open_line < span.open_line
                && p.close_line.is_none_or(|cl| cl > span.open_line)
        });
        if held_during {
            violations.push(Violation {
                invariant: "ploc-no-pairing",
                segment: seg_idx,
                line: Some(span.open_line),
                message: format!(
                    "device {:?} holds a PLOC link but opened a host_pairing span",
                    span.dev
                ),
            });
        }
    }
}

fn check_keystore_after_auth(seg_idx: usize, seg: &SegState, violations: &mut Vec<Violation>) {
    for ks in &seg.keystores {
        if ks.action != "store" && ks.action != "remove" {
            continue; // "install" is the Fig. 10 attack: exempt by design.
        }
        let authed = seg
            .spans
            .values()
            .any(|s| s.name == "lmp_auth" && s.dev == ks.dev && s.open_t <= ks.t);
        if !authed {
            violations.push(Violation {
                invariant: "keystore-after-auth",
                segment: seg_idx,
                line: Some(ks.line_no),
                message: format!(
                    "keystore {} on device {:?} at t={} without a preceding lmp_auth span",
                    ks.action, ks.dev, ks.t
                ),
            });
        }
    }
}

fn check_blocking_implies_win(seg_idx: usize, seg: &SegState, violations: &mut Vec<Violation>) {
    let spans = &seg.spans;
    let Some(trial) = spans
        .values()
        .find(|s| s.name == "trial")
        .filter(|s| s.detail.as_deref() == Some("blocking"))
    else {
        return;
    };
    let trial_status = trial.close.as_ref().map(|(_, s)| s.as_str());
    // The attacker's PLOC link, and the victim pairing spans it overlaps.
    let plocs: Vec<&SpanRec> = spans.values().filter(|s| s.name == "ploc").collect();
    let blocked_pairing = |ploc: &SpanRec| {
        spans.values().any(|s| {
            s.name == "host_pairing"
                && s.dev != ploc.dev
                && s.open_t > ploc.open_t
                && ploc.close.as_ref().is_none_or(|(t, _)| *t >= s.open_t)
        })
    };
    let attacker_stole_key = |ploc: &SpanRec| {
        seg.keystores
            .iter()
            .any(|ks| ks.action == "store" && ks.dev == ploc.dev)
    };
    for ploc in &plocs {
        if blocked_pairing(ploc) && attacker_stole_key(ploc) && trial_status != Some("attacker_won")
        {
            violations.push(Violation {
                invariant: "blocking-implies-win",
                segment: seg_idx,
                line: Some(ploc.open_line),
                message: format!(
                    "PLOC link predates the victim's pairing and the attacker captured a \
                     link key, but the trial closed {trial_status:?} instead of attacker_won"
                ),
            });
        }
    }
    // The converse: an attacker_won verdict needs a mechanism — one of
    //  (a) a PLOC link blocking the victim's pairing (the classic attack);
    //  (b) an outright page-race win (a pairing delay shorter than the
    //      attacker's PLOC page leaves no PLOC to block with, yet the
    //      race can still go to the attacker);
    //  (c) a "late PLOC": a page that connects *onto* the victim device
    //      after its honest pairing already finished. The spoofed
    //      address routes the attacker's Connection_Complete to the real
    //      peer, so no `ploc` span ever opens — but the raw link is
    //      registered and, with no drop after its registration time,
    //      still stands at judgment.
    let victim = spans
        .values()
        .find(|s| s.name == "host_pairing")
        .and_then(|s| s.dev)
        .map(u64::from);
    let trial_close_t = trial.close.as_ref().map(|(t, _)| *t).unwrap_or(u64::MAX);
    let late_link_stands = seg.page_connects.iter().any(|&(responder, connect_t)| {
        Some(responder) == victim
            && connect_t <= trial_close_t
            && seg.drops.iter().all(|&drop_t| drop_t < connect_t)
    });
    if trial_status == Some("attacker_won")
        && !seg.race_won
        && !late_link_stands
        && !plocs.iter().any(|p| blocked_pairing(p))
    {
        violations.push(Violation {
            invariant: "blocking-implies-win",
            segment: seg_idx,
            line: Some(trial.open_line),
            message: "trial closed attacker_won but no PLOC link predates the victim's pairing, \
                      the attacker won no page race, and no surviving link onto the victim was \
                      established"
                .to_owned(),
        });
    }
}

/// A [`TraceSink`] adapter that feeds a [`StreamAnalyzer`] typed events
/// as they are emitted. Clone it before attaching to keep a handle for
/// [`StreamSink::finish`].
#[derive(Clone, Default)]
pub struct StreamSink {
    inner: Arc<Mutex<StreamAnalyzer>>,
}

impl StreamSink {
    /// A sink over a fresh analyzer.
    pub fn new() -> StreamSink {
        StreamSink::default()
    }

    /// Retires the final segment and returns the analysis, resetting the
    /// shared analyzer to a fresh one.
    pub fn finish(&self) -> TraceAnalysis {
        std::mem::take(&mut *self.inner.lock().expect("stream sink lock")).finish()
    }
}

impl TraceSink for StreamSink {
    fn record(&mut self, device: Option<u32>, event: &TraceEvent) {
        self.inner
            .lock()
            .expect("stream sink lock")
            .push_event(device, event);
    }
}

/// How many example violations a [`ViolationSummary`] retains. The cap
/// keeps campaign memory bounded; truncation keeps the earliest examples
/// (shard-merge order), so summaries are split-invariant.
pub const MAX_SUMMARY_EXAMPLES: usize = 16;

/// Bounded-memory aggregate of per-trial invariant checks — the
/// campaign-engine counterpart of a [`crate::metrics::Metrics`] bag:
/// per-shard summaries merge in shard-index order, so the result is
/// byte-identical at any worker count and across checkpoint/resume
/// splits.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ViolationSummary {
    /// Trials whose traces were checked.
    pub trials_checked: u64,
    /// Total violations across all checked trials.
    pub violations: u64,
    /// Violation counts keyed by invariant name.
    pub by_invariant: BTreeMap<String, u64>,
    /// Up to [`MAX_SUMMARY_EXAMPLES`] example violations, earliest first.
    pub examples: Vec<String>,
}

impl ViolationSummary {
    /// An empty summary.
    pub fn new() -> ViolationSummary {
        ViolationSummary::default()
    }

    /// Whether every checked trial passed every invariant.
    pub fn is_clean(&self) -> bool {
        self.violations == 0
    }

    /// Folds one checked trial in. `label` identifies the trial in
    /// example lines (e.g. `"trial 1234"`).
    pub fn record(&mut self, label: &str, analysis: &TraceAnalysis) {
        self.trials_checked += 1;
        for v in &analysis.violations {
            self.violations += 1;
            *self.by_invariant.entry(v.invariant.to_owned()).or_insert(0) += 1;
            if self.examples.len() < MAX_SUMMARY_EXAMPLES {
                self.examples.push(format!("{label}: {v}"));
            }
        }
    }

    /// Merges another summary in (commutative on the counts; the example
    /// list keeps the first [`MAX_SUMMARY_EXAMPLES`] in merge order, so
    /// merge summaries in shard-index order for determinism).
    pub fn merge(&mut self, other: &ViolationSummary) {
        self.trials_checked += other.trials_checked;
        self.violations += other.violations;
        for (inv, n) in &other.by_invariant {
            *self.by_invariant.entry(inv.clone()).or_insert(0) += n;
        }
        for example in &other.examples {
            if self.examples.len() >= MAX_SUMMARY_EXAMPLES {
                break;
            }
            self.examples.push(example.clone());
        }
    }

    /// Renders the deterministic human-readable report section.
    pub fn render(&self) -> String {
        if self.is_clean() {
            return format!(
                "invariants: clean — 0 violations across {} checked trial(s)\n",
                self.trials_checked
            );
        }
        let mut out = format!(
            "invariants: {} violation(s) across {} checked trial(s)\n",
            self.violations, self.trials_checked
        );
        for (inv, n) in &self.by_invariant {
            let _ = writeln!(out, "  {inv}: {n}");
        }
        for example in &self.examples {
            let _ = writeln!(out, "  example {example}");
        }
        if self.violations > self.examples.len() as u64 {
            let _ = writeln!(
                out,
                "  ... {} more violation(s) not shown",
                self.violations - self.examples.len() as u64
            );
        }
        out
    }

    /// Renders the summary as a deterministic JSON object (fixed key
    /// order, sorted invariant names) for checkpoint embedding.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        let _ = write!(
            out,
            "{{\"trials_checked\":{},\"violations\":{},\"by_invariant\":{{",
            self.trials_checked, self.violations
        );
        for (i, (inv, n)) in self.by_invariant.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{n}", escape(inv));
        }
        out.push_str("},\"examples\":[");
        for (i, example) in self.examples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", escape(example));
        }
        out.push_str("]}");
        out
    }

    /// Reconstructs a summary from the object [`ViolationSummary::to_json`]
    /// produced — the checkpoint/resume reload path. Exact inverse:
    /// re-rendering the result reproduces the input bytes.
    pub fn from_value(value: &Value) -> Result<ViolationSummary, String> {
        let uint = |key: &str| {
            value
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing u64 {key:?} field"))
        };
        let mut summary = ViolationSummary {
            trials_checked: uint("trials_checked")?,
            violations: uint("violations")?,
            ..ViolationSummary::default()
        };
        let Some(Value::Object(members)) = value.get("by_invariant") else {
            return Err("missing \"by_invariant\" object".to_owned());
        };
        for (inv, n) in members {
            let n = n
                .as_u64()
                .ok_or_else(|| format!("invariant {inv:?}: count is not a u64"))?;
            summary.by_invariant.insert(inv.clone(), n);
        }
        let Some(Value::Array(items)) = value.get("examples") else {
            return Err("missing \"examples\" array".to_owned());
        };
        for item in items {
            let s = item
                .as_str()
                .ok_or_else(|| "example is not a string".to_owned())?;
            summary.examples.push(s.to_owned());
        }
        if summary.examples.len() > MAX_SUMMARY_EXAMPLES {
            return Err(format!(
                "{} examples exceed the cap of {MAX_SUMMARY_EXAMPLES}",
                summary.examples.len()
            ));
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze_trace;
    use crate::trace::Tracer;
    use blap_types::Instant;

    fn addr() -> blap_types::BdAddr {
        "cc:cc:cc:cc:cc:cc".parse().expect("valid address")
    }

    /// Emits a representative multi-trial event stream through a tracer
    /// wired to both a JSONL buffer and a stream sink.
    fn emit_sample(tracer: &Tracer) {
        for unit in 0..3u64 {
            tracer.emit(TraceEvent::UnitStart {
                unit,
                label: "trial_pair",
            });
            let trial = tracer.open_root_span(Instant::EPOCH, "trial", "blocking");
            let scoped = tracer.scoped(2);
            scoped.emit(TraceEvent::LmpSend {
                time: Instant::from_micros(100),
                peer: addr(),
                pdu: "LMP_au_rand",
            });
            scoped.emit(TraceEvent::LmpRecv {
                time: Instant::from_micros(1350),
                peer: addr(),
                pdu: "LMP_au_rand",
            });
            let auth = scoped.open_span(Instant::from_micros(1500), "lmp_auth", "");
            scoped.emit(TraceEvent::KeystoreMutation {
                time: Instant::from_micros(1600),
                peer: addr(),
                action: "store",
            });
            scoped.close_span(Instant::from_micros(1700), auth, "ok");
            tracer.close_span(Instant::from_micros(5000), trial, "attacker_lost");
        }
    }

    #[test]
    fn push_event_matches_push_line() {
        let tracer = Tracer::new();
        let jsonl = crate::trace::JsonlBuffer::new();
        let sink = StreamSink::new();
        tracer.attach(jsonl.clone());
        tracer.attach(sink.clone());
        emit_sample(&tracer);
        let from_events = sink.finish();
        let from_lines = analyze_trace(&jsonl.contents()).expect("rendered trace parses");
        assert_eq!(from_events.report(), from_lines.report());
        assert_eq!(from_events.profile.render(), from_lines.profile.render());
        assert_eq!(from_events.line_count, from_lines.line_count);
        assert_eq!(from_events.segment_count, from_lines.segment_count);
        assert_eq!(from_events.violations, from_lines.violations);
    }

    #[test]
    fn stream_sink_finish_resets() {
        let tracer = Tracer::new();
        let sink = StreamSink::new();
        tracer.attach(sink.clone());
        emit_sample(&tracer);
        let first = sink.finish();
        assert_eq!(first.segment_count, 3);
        let empty = sink.finish();
        assert_eq!(empty.line_count, 0);
        assert_eq!(empty.segment_count, 0);
    }

    #[test]
    fn incremental_pushes_match_batch_analysis() {
        // A torn-up trace pushed line by line must equal the batch result,
        // including a violation (recv with no send) in the middle trial.
        let text = "\
{\"t\":0,\"ev\":\"unit_start\",\"unit\":0,\"label\":\"x\"}\n\
{\"t\":0,\"ev\":\"span_open\",\"span\":1,\"name\":\"trial\",\"detail\":\"baseline\"}\n\
{\"t\":5000,\"ev\":\"span_close\",\"span\":1,\"status\":\"attacker_lost\"}\n\
{\"t\":0,\"ev\":\"unit_start\",\"unit\":1,\"label\":\"x\"}\n\
{\"t\":1350,\"dev\":1,\"ev\":\"lmp_recv\",\"peer\":\"aa:aa:aa:aa:aa:aa\",\"pdu\":\"LMP_au_rand\"}\n\
\n\
{\"t\":0,\"ev\":\"unit_start\",\"unit\":2,\"label\":\"x\"}\n\
{\"t\":9,\"dev\":0,\"ev\":\"span_open\",\"span\":7,\"name\":\"page\"}\n";
        let batch = analyze_trace(text).expect("parses");
        let mut streaming = StreamAnalyzer::new();
        for line in text.lines() {
            streaming.push_line(line).expect("parses");
        }
        let streaming = streaming.finish();
        assert_eq!(streaming.report(), batch.report());
        assert_eq!(streaming.violations, batch.violations);
        assert_eq!(streaming.notes, batch.notes);
        assert_eq!(streaming.segment_count, 3);
        assert_eq!(streaming.violations.len(), 1);
    }

    #[test]
    fn unmatched_sends_report_in_line_order() {
        // Two unmatched sends with different (pdu, t) keys land in one
        // HashMap; the violations must still come out in artifact order.
        let text = "\
{\"t\":100,\"dev\":0,\"ev\":\"lmp_send\",\"peer\":\"aa:aa:aa:aa:aa:aa\",\"pdu\":\"LMP_zulu\"}\n\
{\"t\":200,\"dev\":0,\"ev\":\"lmp_send\",\"peer\":\"aa:aa:aa:aa:aa:aa\",\"pdu\":\"LMP_alpha\"}\n\
{\"t\":300,\"dev\":0,\"ev\":\"lmp_send\",\"peer\":\"aa:aa:aa:aa:aa:aa\",\"pdu\":\"LMP_mike\"}\n\
{\"t\":99999,\"ev\":\"attack_phase\",\"label\":\"end\"}\n";
        for _ in 0..16 {
            let a = analyze_trace(text).expect("parses");
            let lines: Vec<usize> = a.violations.iter().map(|v| v.line.unwrap()).collect();
            assert_eq!(lines, vec![1, 2, 3], "{}", a.report());
        }
    }

    #[test]
    fn failed_push_does_not_corrupt_state() {
        let mut s = StreamAnalyzer::new();
        s.push_line(
            "{\"t\":0,\"ev\":\"span_open\",\"span\":1,\"name\":\"trial\",\"detail\":\"baseline\"}",
        )
        .expect("valid line");
        let err = s.push_line("{torn").expect_err("malformed line errors");
        assert_eq!(err.line, 2);
        // The analyzer is still usable and line numbering still advances.
        s.push_line("{\"t\":10,\"ev\":\"span_close\",\"span\":1,\"status\":\"done\"}")
            .expect("valid line");
        let a = s.finish();
        assert_eq!(a.line_count, 2);
        assert!(a.ok(), "{}", a.report());
    }

    #[test]
    fn violation_summary_records_and_renders() {
        let clean = analyze_trace("").expect("parses");
        let dirty = analyze_trace(
            "{\"t\":500,\"dev\":0,\"ev\":\"keystore\",\"peer\":\"aa:aa:aa:aa:aa:aa\",\"action\":\"store\"}\n",
        )
        .expect("parses");
        let mut summary = ViolationSummary::new();
        summary.record("trial 0", &clean);
        assert!(summary.is_clean());
        assert!(summary.render().starts_with("invariants: clean"));
        summary.record("trial 1", &dirty);
        assert!(!summary.is_clean());
        assert_eq!(summary.trials_checked, 2);
        assert_eq!(summary.violations, 1);
        assert_eq!(summary.by_invariant.get("keystore-after-auth"), Some(&1));
        let text = summary.render();
        assert!(text.contains("keystore-after-auth: 1"), "{text}");
        assert!(text.contains("example trial 1: "), "{text}");
    }

    #[test]
    fn violation_summary_merge_caps_examples_prefix_stable() {
        let dirty = analyze_trace(
            "{\"t\":500,\"dev\":0,\"ev\":\"keystore\",\"peer\":\"aa:aa:aa:aa:aa:aa\",\"action\":\"store\"}\n",
        )
        .expect("parses");
        // 3 shards × 10 violating trials: a straight fold and a split
        // merge must produce identical summaries (prefix-stable cap).
        let shard = |base: u64| {
            let mut s = ViolationSummary::new();
            for i in 0..10 {
                s.record(&format!("trial {}", base + i), &dirty);
            }
            s
        };
        let mut straight = ViolationSummary::new();
        straight.merge(&shard(0));
        straight.merge(&shard(10));
        straight.merge(&shard(20));
        let mut split = shard(0);
        let mut rest = shard(10);
        rest.merge(&shard(20));
        split.merge(&rest);
        assert_eq!(straight, split);
        assert_eq!(straight.examples.len(), MAX_SUMMARY_EXAMPLES);
        assert_eq!(straight.violations, 30);
        assert!(straight.render().contains("14 more violation(s)"));
    }

    #[test]
    fn violation_summary_json_round_trips() {
        let dirty = analyze_trace(
            "{\"t\":1350,\"dev\":1,\"ev\":\"lmp_recv\",\"peer\":\"bb:bb:bb:bb:bb:bb\",\"pdu\":\"LMP\\\"quote\"}\n",
        )
        .expect("parses");
        let mut summary = ViolationSummary::new();
        summary.record("trial \"7\"", &dirty);
        let json = summary.to_json();
        let value = crate::json::parse(&json).expect("own rendering parses");
        let reloaded = ViolationSummary::from_value(&value).expect("round trips");
        assert_eq!(reloaded, summary);
        assert_eq!(reloaded.to_json(), json, "byte-exact round trip");
        // Empty summaries round-trip too.
        let empty = ViolationSummary::new();
        let value = crate::json::parse(&empty.to_json()).expect("parses");
        assert_eq!(ViolationSummary::from_value(&value).expect("parses"), empty);
    }
}
