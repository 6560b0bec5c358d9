//! Deeply nested JSON must give a typed parse error, never a stack
//! overflow.
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
