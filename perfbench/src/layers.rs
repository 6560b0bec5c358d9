//! Per-layer measurements for the traced run: direct timings of single
//! layer calls, the profiler's scope tree folded into layers, and the
//! deterministic work counters of the campaign's metrics bag.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use blap::eavesdrop::decrypt_capture_batched;
use blap::legacy_pin::PinCracker;
use blap::page_blocking::PageBlockingScenario;
use blap::runner::{parallel_map, Jobs};
use blap_crypto::batch::{Batch16, LANES};
use blap_crypto::ccm::{Ccm, OpenBatch, SealedFrame};
use blap_crypto::e1::AugmentedPin;
use blap_crypto::p256::KeyPair;
use blap_hci::HciPacket;
use blap_obs::binfmt::{Frame, FrameReader, FrameWriter};
use blap_obs::prof::Report;
use blap_obs::{json, Metrics, StreamAnalyzer, Tracer};
use blap_sim::profiles;
use blap_snoop::btsnoop;
use blap_snoop::hexconv::scan_link_key_replies;

use crate::families::Inputs;
use crate::inputs::{self, Rng};

/// A measured per-layer value: name, value, unit.
pub type LayerMetric = (&'static str, f64, &'static str);

/// Repeats `f` until `budget` has passed (at least `min_reps` times) and
/// returns nanoseconds per call.
fn ns_per_call(budget: Duration, min_reps: u64, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut reps = 0u64;
    while reps < min_reps || started.elapsed() < budget {
        f();
        reps += 1;
    }
    started.elapsed().as_nanos() as f64 / reps as f64
}

/// Direct timings of single layer calls, each for about `budget`. Also
/// returns whether every probe's output was right.
pub fn probes(inputs: &Inputs, seed: u64, budget: Duration) -> (Vec<LayerMetric>, bool) {
    let mut out = Vec::new();
    let mut rng = Rng::new(seed, 4);

    // crypto: P-256 key generation (fixed-base) and ECDH (variable-base).
    let peer = KeyPair::from_rng_bytes(rng.filler()).expect("valid scalar");
    let keygen = ns_per_call(budget, 3, || {
        black_box(KeyPair::from_rng_bytes(black_box([7u8; 32])).expect("valid scalar"));
    });
    let ours = KeyPair::from_rng_bytes(rng.filler()).expect("valid scalar");
    let ecdh = ns_per_call(budget, 3, || {
        black_box(
            ours.diffie_hellman(black_box(&peer.public()))
                .expect("valid point"),
        );
    });
    out.push(("crypto.p256_keygen_us", keygen / 1e3, "us"));
    out.push(("crypto.p256_ecdh_us", ecdh / 1e3, "us"));

    // crypto: one 16-lane SAFER+ verdict batch of the PIN cracker.
    let case = &inputs.pins[0];
    let cracker = PinCracker::new(&case.capture);
    let aug = AugmentedPin::new(&case.pin, case.capture.responder);
    let e22_y = Batch16::splat(&aug.e22_input(&case.capture.in_rand));
    let lanes: [[u8; 16]; LANES] = core::array::from_fn(|_| rng.filler());
    let keys = Batch16::from_lanes(&lanes);
    let batch16 = ns_per_call(budget, 10, || {
        black_box(cracker.check_batch(black_box(&e22_y), black_box(&keys)));
    });
    out.push(("crypto.saferplus_batch16_ns", batch16, "ns"));

    // crypto: batched CCM open of 256 B frames.
    let ccm = Ccm::new(&rng.filler());
    let sealed: Vec<(Vec<u8>, [u8; 13])> = (0..256u64)
        .map(|i| {
            let nonce = blap_crypto::ccm::acl_nonce(i, case.capture.initiator);
            let plain: Vec<u8> = (0..256).map(|_| rng.next() as u8).collect();
            (ccm.seal(&nonce, b"\x01\x00", &plain).expect("fits"), nonce)
        })
        .collect();
    let frames: Vec<SealedFrame<'_>> = sealed
        .iter()
        .map(|(data, nonce)| SealedFrame {
            nonce: *nonce,
            aad: b"\x01\x00",
            ciphertext_and_tag: data,
        })
        .collect();
    let mut batch = OpenBatch::new();
    let open_many = ns_per_call(budget, 3, || {
        ccm.open_many_into(black_box(&frames), &mut batch);
    });
    let mut right = batch.len() == frames.len() && batch.iter().all(|r| r.is_ok());
    out.push((
        "crypto.ccm_open_ns_per_frame",
        open_many / frames.len() as f64,
        "ns",
    ));

    // core.eavesdrop: key-schedule replay dominates a one-frame capture.
    let one = inputs::eavesdrop_case(seed, 1, inputs::EAVESDROP_FRAME_LEN);
    let replay = ns_per_call(budget, 3, || {
        black_box(decrypt_capture_batched(
            black_box(&one.capture),
            one.link_key,
            one.verifier,
            one.prover,
        ));
    });
    out.push(("eavesdrop.schedule_replay_us", replay / 1e3, "us"));

    // obs: folding one trial's metrics bag into a shard bag.
    let scenario = PageBlockingScenario::new(profiles::galaxy_s21(), seed);
    let (_, trial_bag) = scenario.run_blocking_trial_observed(0, &Tracer::disabled());
    let mut shard_bag = Metrics::new();
    let merge = ns_per_call(budget, 10, || shard_bag.merge(black_box(&trial_bag)));
    out.push(("obs.metrics_merge_us", merge / 1e3, "us"));

    // core.runner: scheduling cost per trivial unit at one and two workers.
    const UNITS: usize = 4096;
    for (name, workers) in [
        ("runner.map_ns_per_unit_1w", 1),
        ("runner.map_ns_per_unit_2w", 2),
    ] {
        let per_map = ns_per_call(budget, 3, || {
            black_box(parallel_map(Jobs::new(workers), UNITS, black_box));
        });
        out.push((name, per_map / UNITS as f64, "ns"));
    }

    // snoop/hci: container parse, pattern scan, packet decode.
    let dump = &inputs.dump;
    let parse = ns_per_call(budget, 3, || {
        black_box(btsnoop::read_file(black_box(&dump.btsnoop)).expect("valid dump"));
    });
    out.push((
        "snoop.btsnoop_parse_mb_per_s",
        dump.btsnoop.len() as f64 / parse * 1e3,
        "MB/s",
    ));
    let scan = ns_per_call(budget, 3, || {
        black_box(scan_link_key_replies(black_box(&dump.usb)));
    });
    out.push((
        "snoop.usb_scan_mb_per_s",
        dump.usb.len() as f64 / scan * 1e3,
        "MB/s",
    ));
    let records = btsnoop::read_file(&dump.btsnoop).expect("valid dump");
    let decode = ns_per_call(budget, 3, || {
        for r in &records {
            black_box(HciPacket::decode(black_box(&r.data)).is_ok());
        }
    });
    out.push((
        "hci.decode_ns_per_packet",
        decode / records.len() as f64,
        "ns",
    ));

    // obs: JSON parse alone, then the whole checker per line.
    let lines = inputs.trace_lines as f64;
    let parse_lines = ns_per_call(budget, 2, || {
        for line in inputs.trace.lines() {
            black_box(json::parse(black_box(line)).is_ok());
        }
    });
    out.push(("obs.json_parse_ns_per_line", parse_lines / lines, "ns"));
    let check = ns_per_call(budget, 2, || {
        let mut analyzer = StreamAnalyzer::new();
        for line in inputs.trace.lines() {
            black_box(analyzer.push_line(line).is_ok());
        }
        black_box(analyzer.finish());
    });
    out.push(("obs.check_ns_per_line", check / lines, "ns"));
    right &= records.len() == dump.packets;
    (out, right)
}

/// The BLAPTRC1 codec on the run's trace: encode and decode cost per
/// frame and both encodings' size per line. Also returns whether the
/// JSONL → BLAPTRC1 → JSONL round trip reproduced the trace byte for byte.
pub fn codec(trace: &str) -> (Vec<LayerMetric>, bool) {
    let lines: Vec<&str> = trace.lines().collect();
    let started = Instant::now();
    let mut writer = FrameWriter::new(Vec::with_capacity(trace.len() / 2)).expect("in memory");
    let mut encoded_all = true;
    for line in &lines {
        match Frame::from_jsonl(line) {
            Ok(frame) => writer.write_frame(&frame).expect("in memory"),
            Err(_) => encoded_all = false,
        }
    }
    let binary = writer.finish().expect("in memory");
    let encode_ns = started.elapsed().as_nanos() as f64;

    let started = Instant::now();
    let mut frames = Vec::with_capacity(lines.len());
    let mut reader = FrameReader::new(&binary[..]).expect("magic just written");
    let mut decoded_all = true;
    loop {
        match reader.next_frame() {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => break,
            Err(_) => {
                decoded_all = false;
                break;
            }
        }
    }
    let decode_ns = started.elapsed().as_nanos() as f64;

    let mut back = String::with_capacity(trace.len());
    for frame in &frames {
        frame.render_jsonl(&mut back);
        back.push('\n');
    }
    let identical = encoded_all && decoded_all && back == trace;
    let n = lines.len().max(1) as f64;
    let metrics = vec![
        ("obs.binfmt_encode_ns_per_frame", encode_ns / n, "ns"),
        ("obs.binfmt_decode_ns_per_frame", decode_ns / n, "ns"),
        ("obs.jsonl_bytes_per_line", trace.len() as f64 / n, "count"),
        (
            "obs.binary_bytes_per_line",
            binary.len() as f64 / n,
            "count",
        ),
    ];
    (metrics, identical)
}

/// Deterministic work counters of a campaign metrics bag, summed over
/// its trials. The same trials give the same counts whatever the shard
/// shape, worker count or tracing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Trials in the bag.
    pub trials: u64,
    /// Scheduler events dispatched.
    pub events: u64,
    /// Baseband slots of virtual time.
    pub slots: u64,
    /// Pages started.
    pub pages: u64,
    /// LMP PDUs sent by every device.
    pub lmp_pdus: u64,
    /// HCI packets every device's snoop log captured.
    pub snoop_packets: u64,
    /// Page races the attacker won.
    pub races_attacker: u64,
    /// Page races the legitimate device won.
    pub races_legitimate: u64,
    /// Trials that ended with the attacker as MITM.
    pub mitm: u64,
}

/// Devices a trial world holds at most (`M`, `C`, `A`).
const MAX_DEVICES: usize = 3;

impl WorkCounts {
    /// Reads the counters out of a campaign bag.
    pub fn of(bag: &Metrics) -> WorkCounts {
        let per_device = |what: &str| {
            (0..MAX_DEVICES)
                .map(|i| bag.counter(&format!("dev{i}.{what}")))
                .sum()
        };
        WorkCounts {
            trials: bag.counter("campaign.trials"),
            events: bag.counter("events_dispatched"),
            slots: bag.counter("slots_simulated"),
            pages: bag.counter("pages_started"),
            lmp_pdus: per_device("lmp_sent"),
            snoop_packets: per_device("snoop_packets"),
            races_attacker: bag.counter("race.attacker_wins"),
            races_legitimate: bag.counter("race.legitimate_wins"),
            mitm: bag.counter("campaign.mitm_established"),
        }
    }

    /// The counters as per-trial layer metrics.
    pub fn metrics(&self) -> Vec<LayerMetric> {
        let per_trial = |n: u64| n as f64 / self.trials.max(1) as f64;
        let races = (self.races_attacker + self.races_legitimate).max(1) as f64;
        vec![
            ("sim.events_per_trial", per_trial(self.events), "count"),
            ("baseband.slots_per_trial", per_trial(self.slots), "count"),
            ("baseband.pages_per_trial", per_trial(self.pages), "count"),
            (
                "controller.lmp_pdus_per_trial",
                per_trial(self.lmp_pdus),
                "count",
            ),
            (
                "hci.snoop_packets_per_trial",
                per_trial(self.snoop_packets),
                "count",
            ),
            (
                "baseband.race_attacker_share",
                self.races_attacker as f64 / races,
                "ratio",
            ),
            ("campaign.mitm_share", per_trial(self.mitm), "ratio"),
        ]
    }

    /// One-line rendering for the run's diagnostics.
    pub fn render(&self) -> String {
        format!(
            "trials={} events={} slots={} pages={} lmp_pdus={} snoop_packets={} \
             races_attacker={} races_legitimate={} mitm={}",
            self.trials,
            self.events,
            self.slots,
            self.pages,
            self.lmp_pdus,
            self.snoop_packets,
            self.races_attacker,
            self.races_legitimate,
            self.mitm
        )
    }
}

/// The layer a profiler scope's self time belongs to.
fn layer_of(scope: &str) -> &'static str {
    match scope {
        "trial" => "core.trial",
        "crypto.p256" => "crypto.p256",
        s if s.starts_with("crypto.") => "crypto.other",
        "lmp_auth" => "controller.lmp_auth",
        "hci_cmd" => "hci.cmd",
        "host_pairing" | "ploc" => "host.pairing",
        "page" => "baseband.page",
        _ => "sim.dispatch",
    }
}

/// Self time and calls per layer under the profiler's `trial` scopes.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    /// Self nanoseconds per layer.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// `crypto.p256` scope entries.
    pub p256_calls: u64,
}

/// Folds a profiler report's `trial` subtrees into layers.
pub fn fold_profile(report: &Report) -> LayerTimes {
    let mut out = LayerTimes::default();
    for (path, node) in report.walk() {
        if !(path == "trial" || path.starts_with("trial;")) {
            continue;
        }
        if node.name == "crypto.p256" {
            out.p256_calls += node.calls;
        }
        *out.self_ns.entry(layer_of(&node.name)).or_default() += node.self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_map_to_the_stack_layers() {
        assert_eq!(layer_of("crypto.p256"), "crypto.p256");
        assert_eq!(layer_of("crypto.e1"), "crypto.other");
        assert_eq!(layer_of("ploc"), "host.pairing");
        assert_eq!(layer_of("lmp_deliver"), "sim.dispatch");
        assert_eq!(layer_of("page"), "baseband.page");
    }

    #[test]
    fn codec_round_trip_is_byte_identical_on_a_real_trace() {
        let trace = inputs::trace_jsonl(2, 0..2);
        let (metrics, identical) = codec(&trace);
        assert!(identical);
        let size = |name: &str| metrics.iter().find(|m| m.0 == name).expect(name).1;
        assert!(size("obs.binary_bytes_per_line") < size("obs.jsonl_bytes_per_line"));
    }

    #[test]
    fn work_counts_are_per_trial() {
        let mut bag = Metrics::new();
        bag.add("campaign.trials", 4);
        bag.add("events_dispatched", 100);
        bag.add("dev0.lmp_sent", 6);
        bag.add("dev2.lmp_sent", 2);
        bag.add("race.attacker_wins", 1);
        bag.add("race.legitimate_wins", 3);
        let counts = WorkCounts::of(&bag);
        assert_eq!(counts.lmp_pdus, 8);
        let m = counts.metrics();
        let get = |name: &str| m.iter().find(|x| x.0 == name).expect(name).1;
        assert_eq!(get("sim.events_per_trial"), 25.0);
        assert_eq!(get("controller.lmp_pdus_per_trial"), 2.0);
        assert_eq!(get("baseband.race_attacker_share"), 0.25);
    }
}
