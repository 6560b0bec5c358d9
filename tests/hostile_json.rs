//! Hostile JSON must give a typed error: deep nesting never overflows
//! the stack, and a trace line of a known kind with a bad field is never
//! silently skipped.
//!
//! `blap_obs::json::parse` reads every JSON input the tools accept: trace
//! lines for `blap-trace check`/`diff`, metrics documents, campaign
//! checkpoints, telemetry snapshots for `blap-top` and the BENCH files. It
//! recurses once per `[`/`{`, so without a depth cap a single line of
//! 200 000 `[` overflows the stack and aborts the process (exit 134)
//! instead of failing with exit code 2.

use blap_obs::json::{self, MAX_DEPTH};
use blap_obs::telemetry::parse_snapshot_line;
use blap_obs::{diff_metrics, Frame, Metrics, StreamAnalyzer};

const HOSTILE_DEPTH: usize = 200_000;

fn deep_arrays(depth: usize) -> String {
    format!("{}{}", "[".repeat(depth), "]".repeat(depth))
}

fn deep_objects(depth: usize) -> String {
    format!("{}1{}", r#"{"k":"#.repeat(depth), "}".repeat(depth))
}

#[test]
fn parse_rejects_hostile_nesting_with_a_typed_error() {
    for text in [
        "[".repeat(HOSTILE_DEPTH),
        deep_arrays(HOSTILE_DEPTH),
        deep_objects(HOSTILE_DEPTH),
    ] {
        let err = json::parse(&text).expect_err("hostile nesting must not parse");
        assert!(err.message.contains("nesting"), "{err}");
        assert!(err.offset <= 5 * (MAX_DEPTH + 1), "fails at the cap: {err}");
    }
}

#[test]
fn nesting_up_to_the_cap_still_parses() {
    assert!(json::parse(&deep_arrays(MAX_DEPTH)).is_ok());
    assert!(json::parse(&deep_objects(MAX_DEPTH)).is_ok());
    assert!(json::parse(&deep_arrays(MAX_DEPTH + 1)).is_err());
    assert!(json::parse(&deep_objects(MAX_DEPTH + 1)).is_err());
    // Depth is nesting, not a count of containers: long flat arrays of
    // shallow values are unaffected.
    let wide = format!("[{}[]]", "[1],".repeat(10 * MAX_DEPTH));
    assert!(json::parse(&wide).is_ok());
}

#[test]
fn every_json_reader_surfaces_the_error() {
    let hostile = "[".repeat(HOSTILE_DEPTH);
    // blap-trace check: the streaming analyzer.
    assert!(StreamAnalyzer::new().push_line(&hostile).is_err());
    // blap-trace diff on metrics documents.
    assert!(diff_metrics(&hostile, "{}").is_err());
    assert!(diff_metrics("{}", &hostile).is_err());
    // blap-top: telemetry snapshots.
    assert!(parse_snapshot_line(&hostile).is_err());
    // Metrics documents and campaign checkpoint bags.
    assert!(Metrics::parse_json(&hostile).is_err());
    // blap-trace convert: JSONL to BLAPTRC1.
    assert!(Frame::from_jsonl(&hostile).is_err());
}

#[test]
fn known_event_with_a_missing_or_mistyped_field_is_an_error() {
    // These lines used to be absorbed as if the event had not happened,
    // so `blap-trace check` passed a trace it had not really checked.
    for (line, field) in [
        (r#"{"t":0,"ev":"span_open","span":1}"#, "\"name\""),
        (
            r#"{"t":0,"ev":"span_open","span":"1","name":"trial"}"#,
            "\"span\"",
        ),
        (
            r#"{"t":0,"ev":"span_open","span":1,"parent":"0","name":"page"}"#,
            "\"parent\"",
        ),
        (
            r#"{"t":0,"ev":"lmp_send","peer":"aa:aa:aa:aa:aa:aa"}"#,
            "\"pdu\"",
        ),
        (
            r#"{"t":0,"ev":"race","target":"aa:aa:aa:aa:aa:aa","attacker_won":"yes"}"#,
            "\"attacker_won\"",
        ),
        (
            r#"{"t":0,"dev":"1","ev":"link_drop","reason":"detach"}"#,
            "\"dev\"",
        ),
    ] {
        let mut analyzer = StreamAnalyzer::new();
        analyzer
            .push_line(r#"{"t":0,"ev":"attack_phase","label":"start"}"#)
            .expect("well-formed line");
        let err = analyzer.push_line(line).expect_err(line);
        assert_eq!(err.line, 2, "{err}");
        assert!(err.message.contains(field), "{line}: {err}");
    }
    // An unknown kind is still an opaque, accepted line.
    let mut analyzer = StreamAnalyzer::new();
    analyzer
        .push_line(r#"{"t":1,"ev":"x"}"#)
        .expect("unknown kinds are opaque");
    assert_eq!(analyzer.finish().line_count, 1);
}
