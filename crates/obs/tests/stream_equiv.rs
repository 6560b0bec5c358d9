//! Streaming ≡ batch analyzer equivalence properties.
//!
//! `analyze_trace` is a thin wrapper over `StreamAnalyzer`, and the
//! analyzer's three ingestion paths all end in `push_frame`, but each
//! decodes its input its own way: whole-artifact text, incremental
//! `push_line`, and the typed `push_event` path the campaign engine
//! drives. The properties here generate interleaved multi-trial traces
//! — matched and orphaned LMP exchanges, nested spans, keystore
//! mutations, races, page connects, link drops — and pin all three
//! paths to the same violations, phase profile, and counts. A
//! composition property checks that segment retirement is history-free
//! (analyzing two traces back-to-back equals analyzing each alone), and
//! a fault-injection property checks that a torn final line fails the
//! push without corrupting everything already analyzed.

use blap_obs::trace::TraceEvent;
use blap_obs::{analyze_trace, Frame, SpanId, StreamAnalyzer, TraceAnalysis};
use blap_types::{BdAddr, Instant};
use proptest::collection::vec;
use proptest::prelude::*;

/// Fixed vocabularies for the `&'static str` event fields. Hostile
/// strings are the binary-codec round-trip suite's territory; here the
/// point is structural interleaving.
const PDUS: &[&str] = &[
    "LMP_au_rand",
    "LMP_sres",
    "LMP_detach",
    "LMP_host_connection_req",
];
const SPAN_NAMES: &[&str] = &["page", "lmp_auth", "host_pairing", "ploc", "hci_cmd"];
const STATUSES: &[&str] = &["ok", "connected", "timeout", "status"];
const TRIAL_STATUSES: &[&str] = &["attacker_won", "attacker_lost"];
const ACTIONS: &[&str] = &["store", "remove", "install"];

fn addr(i: u8) -> BdAddr {
    format!("00:11:22:33:44:{i:02x}")
        .parse()
        .expect("valid address")
}

/// One generated instruction; the builder expands these into timed,
/// span-id-allocated trace events.
#[derive(Clone, Debug)]
enum Op {
    /// `lmp_send`, optionally matched by an `lmp_recv` one LMP latency
    /// later (an unmatched send exercises the lmp-matching checker).
    Lmp {
        dev: u32,
        pdu: usize,
        matched: bool,
    },
    /// Child span open (and optional close) under the current trial.
    Span {
        dev: u32,
        name: usize,
        status: Option<usize>,
    },
    Keystore {
        dev: u32,
        action: usize,
    },
    Race {
        dev: u32,
        attacker_won: bool,
    },
    PageConnect {
        dev: u32,
        responder: u32,
        latency_us: u64,
    },
    LinkDrop,
    Hci {
        dev: u32,
    },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..3u32, 0..PDUS.len(), any::<bool>()).prop_map(|(dev, pdu, matched)| Op::Lmp {
            dev,
            pdu,
            matched
        }),
        (
            0..3u32,
            0..SPAN_NAMES.len(),
            any::<bool>(),
            0..STATUSES.len()
        )
            .prop_map(|(dev, name, close, status)| Op::Span {
                dev,
                name,
                status: close.then_some(status),
            }),
        (0..3u32, 0..ACTIONS.len()).prop_map(|(dev, action)| Op::Keystore { dev, action }),
        (0..3u32, any::<bool>()).prop_map(|(dev, attacker_won)| Op::Race { dev, attacker_won }),
        (0..3u32, 0..3u32, 0..2_000_000u64).prop_map(|(dev, responder, latency_us)| {
            Op::PageConnect {
                dev,
                responder,
                latency_us,
            }
        }),
        Just(Op::LinkDrop),
        (0..3u32).prop_map(|dev| Op::Hci { dev }),
    ]
}

/// One trial segment: an optional `unit_start` marker, a root trial
/// span, interleaved ops, and an optional trial close.
#[derive(Clone, Debug)]
struct SegPlan {
    unit_marker: bool,
    blocking: bool,
    ops: Vec<Op>,
    close: Option<usize>,
}

fn seg_plan() -> impl Strategy<Value = SegPlan> {
    (
        any::<bool>(),
        any::<bool>(),
        vec(op(), 0..10),
        any::<bool>(),
        0..TRIAL_STATUSES.len(),
    )
        .prop_map(|(unit_marker, blocking, ops, closes, close)| SegPlan {
            unit_marker,
            blocking,
            ops,
            close: closes.then_some(close),
        })
}

/// Expands segment plans into a `(device, event)` stream with strictly
/// scheduled times and per-trace-unique span ids. `unit` and `span`
/// counters seed from the caller so two traces can be concatenated
/// without colliding ids (the analyzer must not care either way).
fn build(plans: &[SegPlan], mut unit: u64, mut span: u64) -> Vec<(Option<u32>, TraceEvent)> {
    let mut events = Vec::new();
    let mut t = 0u64;
    for plan in plans {
        if plan.unit_marker {
            unit += 1;
            events.push((
                None,
                TraceEvent::UnitStart {
                    unit,
                    label: "trial_pair",
                },
            ));
        }
        span += 1;
        let trial = span;
        t += 1000;
        events.push((
            None,
            TraceEvent::SpanOpen {
                time: Instant::from_micros(t),
                span: SpanId::from_raw(trial),
                parent: SpanId::from_raw(0),
                name: "trial",
                detail: if plan.blocking {
                    "blocking"
                } else {
                    "baseline"
                }
                .to_owned(),
            },
        ));
        for op in &plan.ops {
            t += 625;
            match *op {
                Op::Lmp { dev, pdu, matched } => {
                    events.push((
                        Some(dev),
                        TraceEvent::LmpSend {
                            time: Instant::from_micros(t),
                            peer: addr(dev as u8 + 1),
                            pdu: PDUS[pdu],
                        },
                    ));
                    if matched {
                        events.push((
                            Some((dev + 1) % 3),
                            TraceEvent::LmpRecv {
                                time: Instant::from_micros(t + 1250),
                                peer: addr(dev as u8),
                                pdu: PDUS[pdu],
                            },
                        ));
                    }
                }
                Op::Span { dev, name, status } => {
                    span += 1;
                    events.push((
                        Some(dev),
                        TraceEvent::SpanOpen {
                            time: Instant::from_micros(t),
                            span: SpanId::from_raw(span),
                            parent: SpanId::from_raw(trial),
                            name: SPAN_NAMES[name],
                            detail: addr(dev as u8).to_string(),
                        },
                    ));
                    if let Some(status) = status {
                        events.push((
                            Some(dev),
                            TraceEvent::SpanClose {
                                time: Instant::from_micros(t + 625),
                                span: SpanId::from_raw(span),
                                status: STATUSES[status],
                            },
                        ));
                    }
                }
                Op::Keystore { dev, action } => events.push((
                    Some(dev),
                    TraceEvent::KeystoreMutation {
                        time: Instant::from_micros(t),
                        peer: addr(dev as u8 + 1),
                        action: ACTIONS[action],
                    },
                )),
                Op::Race { dev, attacker_won } => events.push((
                    Some(dev),
                    TraceEvent::RaceOutcome {
                        time: Instant::from_micros(t),
                        target: addr(dev as u8 + 1),
                        attacker_won,
                    },
                )),
                Op::PageConnect {
                    dev,
                    responder,
                    latency_us,
                } => events.push((
                    Some(dev),
                    TraceEvent::PageConnected {
                        time: Instant::from_micros(t),
                        target: addr(responder as u8),
                        responder,
                        latency_us,
                        raced: responder != dev,
                    },
                )),
                Op::LinkDrop => events.push((
                    None,
                    TraceEvent::LinkDropped {
                        time: Instant::from_micros(t),
                        reason: "supervision_timeout",
                    },
                )),
                Op::Hci { dev } => events.push((
                    Some(dev),
                    TraceEvent::HciSeam {
                        time: Instant::from_micros(t),
                        direction: "sent",
                        kind: "command",
                        name: "HCI_Create_Connection",
                    },
                )),
            }
        }
        if let Some(status) = plan.close {
            t += 625;
            events.push((
                None,
                TraceEvent::SpanClose {
                    time: Instant::from_micros(t),
                    span: SpanId::from_raw(trial),
                    status: TRIAL_STATUSES[status],
                },
            ));
        }
    }
    events
}

fn render(events: &[(Option<u32>, TraceEvent)]) -> String {
    let mut text = String::new();
    for (dev, event) in events {
        Frame::from_event(*dev, event).render_jsonl(&mut text);
        text.push('\n');
    }
    text
}

/// Full equality over everything `TraceAnalysis` reports.
fn assert_same(a: &TraceAnalysis, b: &TraceAnalysis) {
    assert_eq!(a.line_count, b.line_count);
    assert_eq!(a.segment_count, b.segment_count);
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.notes, b.notes);
    assert_eq!(a.profile.render(), b.profile.render());
    assert_eq!(a.report(), b.report());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batch text, per-line pushes, and typed events all yield the same
    /// analysis for arbitrary interleaved multi-trial traces.
    #[test]
    fn three_ingestion_paths_agree(plans in vec(seg_plan(), 1..5)) {
        let events = build(&plans, 0, 0);
        let text = render(&events);
        let batch = analyze_trace(&text).expect("canonical lines parse");

        let mut by_line = StreamAnalyzer::new();
        for line in text.lines() {
            by_line.push_line(line).expect("canonical line pushes");
        }
        assert_same(&batch, &by_line.finish());

        let mut by_event = StreamAnalyzer::new();
        for (dev, event) in &events {
            by_event.push_event(*dev, event);
        }
        assert_same(&batch, &by_event.finish());
    }

    /// Retirement is history-free: a trace analyzed after another trace
    /// (second one opening with a `unit_start` boundary) reports exactly
    /// the sum of the two independent analyses, with segment indices and
    /// line numbers shifted.
    #[test]
    fn segment_retirement_is_compositional(
        first in vec(seg_plan(), 1..4),
        second in vec(seg_plan(), 1..4),
    ) {
        let a = build(&first, 0, 0);
        // Force a boundary so the concatenation point is deterministic,
        // and seed counters past `a`'s so ids stay unique.
        let mut second = second;
        second[0].unit_marker = true;
        let b = build(&second, 100, 1000);

        let solo_a = analyze_trace(&render(&a)).expect("parses");
        let solo_b = analyze_trace(&render(&b)).expect("parses");
        let joint = analyze_trace(&format!("{}{}", render(&a), render(&b))).expect("parses");

        prop_assert_eq!(joint.line_count, solo_a.line_count + solo_b.line_count);
        prop_assert_eq!(joint.segment_count, solo_a.segment_count + solo_b.segment_count);
        prop_assert_eq!(
            joint.violations.len(),
            solo_a.violations.len() + solo_b.violations.len()
        );
        // The joint suffix must be `b`'s violations with reindexed
        // segments/lines; the prefix must be `a`'s verbatim.
        for (joint_v, solo_v) in joint.violations.iter().zip(&solo_a.violations) {
            prop_assert_eq!(joint_v, solo_v);
        }
        for (joint_v, solo_v) in joint.violations[solo_a.violations.len()..]
            .iter()
            .zip(&solo_b.violations)
        {
            prop_assert_eq!(joint_v.invariant, solo_v.invariant);
            prop_assert_eq!(joint_v.segment, solo_v.segment + solo_a.segment_count);
            prop_assert_eq!(joint_v.line, solo_v.line.map(|l| l + solo_a.line_count));
            prop_assert_eq!(&joint_v.message, &solo_v.message);
        }
        prop_assert_eq!(joint.profile.render(), {
            let mut merged = solo_a.profile.clone();
            merged.merge(&solo_b.profile);
            merged.render()
        });
    }

    /// A torn final line (the crash-truncation shape) errors instead of
    /// being half-absorbed: the analyzer still reports exactly what the
    /// intact prefix contained.
    #[test]
    fn torn_final_line_fails_without_corrupting_state(
        plans in vec(seg_plan(), 1..4),
        cut in 1usize..64,
    ) {
        let text = render(&build(&plans, 0, 0));
        let lines: Vec<&str> = text.lines().collect();
        let (intact, last) = lines.split_at(lines.len() - 1);
        let last = last[0];
        // A strict proper prefix of a canonical JSON object line is
        // always unbalanced, hence unparseable.
        prop_assume!(cut < last.len());
        let torn = &last[..cut];

        let mut analyzer = StreamAnalyzer::new();
        for line in intact {
            analyzer.push_line(line).expect("intact line pushes");
        }
        prop_assert!(analyzer.push_line(torn).is_err(), "torn line must fail");

        let mut clean = StreamAnalyzer::new();
        for line in intact {
            clean.push_line(line).expect("intact line pushes");
        }
        assert_same(&clean.finish(), &analyzer.finish());
    }
}
