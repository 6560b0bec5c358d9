//! Exit codes of the JSON-reading CLIs on hostile input: a line of
//! 200 000 `[` is a typed parse error that ends in exit code 2, not a
//! stack overflow that aborts with 134, and a trace line of a known kind
//! with a missing field exits 2 instead of passing the check.

use std::path::PathBuf;
use std::process::Command;

fn temp_file(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("blap-hostile-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write input");
    path
}

fn exit_code(command: &mut Command) -> Option<i32> {
    command
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn")
        .code()
}

#[test]
fn deep_nesting_exits_2_in_every_reader() {
    let hostile = format!("{}\n", "[".repeat(200_000));
    let trace = temp_file("deep.jsonl", &hostile);
    let metrics = temp_file("deep.json", &hostile);
    let clean = temp_file("clean.json", "{}\n");
    let blap_trace = || Command::new(env!("CARGO_BIN_EXE_blap-trace"));

    assert_eq!(
        exit_code(blap_trace().arg("check").arg(&trace)),
        Some(2),
        "blap-trace check"
    );
    assert_eq!(
        exit_code(blap_trace().arg("diff").arg(&metrics).arg(&clean)),
        Some(2),
        "blap-trace diff"
    );
    assert_eq!(
        exit_code(
            Command::new(env!("CARGO_BIN_EXE_blap-top"))
                .arg(&trace)
                .arg("--once")
        ),
        Some(2),
        "blap-top --once"
    );
}

#[test]
fn known_event_with_a_missing_field_exits_2() {
    let missing = temp_file(
        "missing-field.jsonl",
        "{\"t\":0,\"ev\":\"span_open\",\"span\":1}\n",
    );
    let opaque = temp_file("unknown-kind.jsonl", "{\"t\":1,\"ev\":\"x\"}\n");
    let blap_trace = || Command::new(env!("CARGO_BIN_EXE_blap-trace"));
    for cmd in ["check", "timeline"] {
        assert_eq!(
            exit_code(blap_trace().arg(cmd).arg(&missing)),
            Some(2),
            "blap-trace {cmd} on a span_open without a name"
        );
        assert_eq!(
            exit_code(blap_trace().arg(cmd).arg(&opaque)),
            Some(0),
            "blap-trace {cmd} on an unknown event kind"
        );
    }
}
