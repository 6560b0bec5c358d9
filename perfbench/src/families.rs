//! The five kinds of timed batch, each a call into a crate's public API
//! whose output is checked against what the inputs planted.
//!
//! A batch times only the program's call. Checks run after the clock
//! stops, and every wrong answer counts as a failed operation.

use std::hint::black_box;
use std::time::Instant;

use blap::campaign::{Campaign, Population};
use blap::eavesdrop::decrypt_capture_batched;
use blap::legacy_pin::crack_numeric_pin_with;
use blap::runner::Jobs;
use blap_obs::{Metrics, StreamAnalyzer};
use blap_snoop::hexconv::scan_link_key_replies;
use blap_snoop::log::HciTrace;
use blap_types::{BdAddr, LinkKey};

use crate::inputs::{self, DumpCase, EavesdropCase, PinCase};
use crate::spans::Recorder;

/// A kind of timed batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// One fleet-campaign shard (`Campaign::run_shard`).
    Campaign,
    /// Two 5-digit PIN sweeps (`crack_numeric_pin_with`).
    Pin,
    /// Decrypt passes over a 256 B-frame capture
    /// (`decrypt_capture_batched`).
    Decrypt,
    /// Link-key extraction from a btsnoop dump and a USB stream.
    Dump,
    /// One `StreamAnalyzer` pass over the JSONL trace.
    Trace,
}

impl Family {
    /// Every family, in report order.
    pub const ALL: [Family; 5] = [
        Family::Campaign,
        Family::Pin,
        Family::Decrypt,
        Family::Dump,
        Family::Trace,
    ];

    /// The end-to-end metric this family's rate is reported as, and its
    /// unit.
    pub fn metric(self) -> (&'static str, &'static str) {
        match self {
            Family::Campaign => ("trials_per_s", "1/s"),
            Family::Pin => ("pin_candidates_per_s", "1/s"),
            Family::Decrypt => ("decrypt_bytes_per_s", "B/s"),
            Family::Dump => ("dump_bytes_per_s", "B/s"),
            Family::Trace => ("trace_lines_per_s", "1/s"),
        }
    }

    /// Span name of one batch in a traced run.
    fn span_name(self) -> &'static str {
        match self {
            Family::Campaign => "campaign.shard",
            Family::Pin => "legacy_pin.sweep",
            Family::Decrypt => "eavesdrop.decrypt_pass",
            Family::Dump => "snoop.extract_pass",
            Family::Trace => "obs.check_pass",
        }
    }
}

/// What one batch did.
#[derive(Clone, Copy, Debug, Default)]
pub struct Batch {
    /// Work done, in the family's metric unit (trials, candidates, bytes,
    /// lines).
    pub units: f64,
    /// Wall time of the program's calls alone.
    pub secs: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or answered wrong.
    pub failed: u64,
}

/// Decrypt passes per batch: ~0.1 s of work on the reference host.
const DECRYPT_PASSES: usize = 6;
/// Extraction passes per batch.
const DUMP_PASSES: usize = 3;

/// Every input a run needs, built from its seed.
pub struct Inputs {
    /// The fleet campaign, in 64-trial shards.
    pub campaign: Campaign,
    /// Planted-PIN captures.
    pub pins: Vec<PinCase>,
    /// The 256 B-frame eavesdrop capture.
    pub eavesdrop: EavesdropCase,
    /// The btsnoop/USB dumps.
    pub dump: DumpCase,
    /// The JSONL trace.
    pub trace: String,
    /// Lines in [`Inputs::trace`].
    pub trace_lines: usize,
}

/// Runs one step of a set-up. The set-up timer calibrates each step on
/// its own, so host drift within a set-up is tracked step by step.
pub trait Step {
    /// Runs `f` as one timed step.
    fn step<R>(&mut self, f: impl FnOnce() -> R) -> R;
}

/// Trace generation steps: the trace is built in this many chunks.
const TRACE_STEPS: usize = 8;

impl Inputs {
    /// Builds every input for `seed`, one step at a time.
    pub fn build(seed: u64, timer: &mut impl Step) -> Inputs {
        let mut trace = String::new();
        let per_step = inputs::TRACE_PAIRS.div_ceil(TRACE_STEPS);
        for start in (0..inputs::TRACE_PAIRS).step_by(per_step) {
            let units = start..inputs::TRACE_PAIRS.min(start + per_step);
            timer.step(|| trace.push_str(&inputs::trace_jsonl(seed, units)));
        }
        let trace_lines = timer.step(|| trace.lines().count());
        Inputs {
            campaign: inputs::campaign(seed),
            pins: timer.step(|| inputs::pin_cases(seed)),
            eavesdrop: timer.step(|| {
                inputs::eavesdrop_case(seed, inputs::EAVESDROP_FRAMES, inputs::EAVESDROP_FRAME_LEN)
            }),
            dump: timer.step(|| inputs::dump_case(seed, inputs::DUMP_SESSIONS)),
            trace,
            trace_lines,
        }
    }
}

/// Campaign verdict totals over every shard a run executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CampaignTally {
    /// Trials run.
    pub trials: u64,
    /// Blocking-mode trials.
    pub blocking: u64,
    /// Blocking-mode trials that established MITM.
    pub blocking_wins: u64,
    /// Baseline-mode trials.
    pub baseline: u64,
    /// Baseline-mode trials the attacker won anyway.
    pub baseline_wins: u64,
}

impl CampaignTally {
    /// Folds one shard's metrics bag in.
    pub fn add(&mut self, bag: &Metrics) {
        self.trials += bag.counter("campaign.trials");
        for (profile, _) in Population::fleet().pool {
            let key = |what: &str| format!("campaign.device.{}.{what}", profile.name);
            self.blocking += bag.counter(&key("blocking_trials"));
            self.blocking_wins += bag.counter(&key("blocking_wins"));
            self.baseline += bag.counter(&key("baseline_trials"));
            self.baseline_wins += bag.counter(&key("baseline_wins"));
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: &CampaignTally) {
        self.trials += other.trials;
        self.blocking += other.blocking;
        self.blocking_wins += other.blocking_wins;
        self.baseline += other.baseline;
        self.baseline_wins += other.baseline_wins;
    }

    /// Pooled baseline win share.
    pub fn baseline_share(&self) -> f64 {
        self.baseline_wins as f64 / self.baseline.max(1) as f64
    }
}

/// Runs batches of every family over one set of inputs and keeps the
/// run's cursors and tallies.
pub struct Runner<'a> {
    /// The inputs.
    pub inputs: &'a Inputs,
    next_shard: u64,
    /// Campaign verdicts so far.
    pub tally: CampaignTally,
    /// Work counters of the first shard, the run's deterministic
    /// fingerprint (same seed, same bag).
    pub first_shard: Option<Metrics>,
}

impl<'a> Runner<'a> {
    /// A runner at the start of every input.
    pub fn new(inputs: &'a Inputs) -> Runner<'a> {
        Runner {
            inputs,
            next_shard: 0,
            tally: CampaignTally::default(),
            first_shard: None,
        }
    }

    /// Runs one batch of `family`, recording a span per batch (and per
    /// layer call inside it) when `rec` records.
    pub fn batch(&mut self, family: Family, rec: &mut Recorder, group: u64) -> Batch {
        rec.span(family.span_name(), group, |rec| match family {
            Family::Campaign => self.campaign_batch(),
            Family::Pin => self.pin_batch(group),
            Family::Decrypt => self.decrypt_batch(),
            Family::Dump => self.dump_batch(rec, group),
            Family::Trace => self.trace_batch(),
        })
    }

    fn campaign_batch(&mut self) -> Batch {
        let shard = self.next_shard;
        self.next_shard += 1;
        let (start, end) = self.inputs.campaign.shard_range(shard);
        let started = Instant::now();
        let bag = self.inputs.campaign.run_shard(shard);
        let secs = started.elapsed().as_secs_f64();
        let mut shard_tally = CampaignTally::default();
        shard_tally.add(&bag);
        let requested = end - start;
        // A blocking trial that did not end in MITM is a failed attack;
        // a trial the bag does not account for is a lost one.
        let failed = (shard_tally.blocking - shard_tally.blocking_wins)
            + requested.abs_diff(shard_tally.trials);
        self.tally.merge(&shard_tally);
        if self.first_shard.is_none() {
            self.first_shard = Some(bag);
        }
        Batch {
            units: requested as f64,
            secs,
            attempted: requested,
            failed,
        }
    }

    /// Sweeps PIN cases `k` and `11 - k` for `k = group mod 6`: a short
    /// and a long search, so every batch tests about the same number of
    /// candidates (~0.12 M). A traced twin repeats exactly the untraced
    /// batch's sweeps.
    fn pin_batch(&mut self, group: u64) -> Batch {
        let pins = &self.inputs.pins;
        let k = group as usize % (pins.len() / 2);
        let mut batch = Batch::default();
        for case in [&pins[k], &pins[pins.len() - 1 - k]] {
            let started = Instant::now();
            let found = crack_numeric_pin_with(
                black_box(&case.capture),
                inputs::PIN_DIGITS,
                Jobs::serial(),
            );
            batch.secs += started.elapsed().as_secs_f64();
            let right = found
                .as_ref()
                .is_some_and(|r| r.pin == case.pin && r.attempts == case.attempts);
            batch.units += case.attempts as f64;
            batch.attempted += 1;
            batch.failed += u64::from(!right);
        }
        batch
    }

    fn decrypt_batch(&mut self) -> Batch {
        let case = &self.inputs.eavesdrop;
        let mut secs = 0.0;
        let mut failed = 0;
        for _ in 0..DECRYPT_PASSES {
            let started = Instant::now();
            let plain = decrypt_capture_batched(
                black_box(&case.capture),
                case.link_key,
                case.verifier,
                case.prover,
            );
            secs += started.elapsed().as_secs_f64();
            failed += frames_wrong(&plain, &case.plaintexts);
        }
        Batch {
            units: (case.payload_bytes() * DECRYPT_PASSES) as f64,
            secs,
            attempted: (case.plaintexts.len() * DECRYPT_PASSES) as u64,
            failed,
        }
    }

    fn dump_batch(&mut self, rec: &mut Recorder, group: u64) -> Batch {
        let dump = &self.inputs.dump;
        let mut secs = 0.0;
        let mut failed = 0;
        for _ in 0..DUMP_PASSES {
            let started = Instant::now();
            let parsed = rec.span("snoop.btsnoop_parse", group, |_| {
                HciTrace::from_btsnoop_bytes(black_box(&dump.btsnoop))
            });
            let keys = rec.span("snoop.extract_keys", group, |_| {
                parsed.as_ref().map(HciTrace::extract_link_keys)
            });
            let usb = rec.span("snoop.usb_scan", group, |_| {
                scan_link_key_replies(black_box(&dump.usb))
            });
            secs += started.elapsed().as_secs_f64();
            failed += u64::from(keys.as_ref().ok() != Some(&dump.keys));
            let usb_keys: Vec<(BdAddr, LinkKey)> = usb
                .iter()
                .map(|m| {
                    (
                        BdAddr::from_le_bytes(m.addr_le),
                        LinkKey::from_le_bytes(m.key_le),
                    )
                })
                .collect();
            failed += u64::from(usb_keys != dump.reply_keys);
        }
        Batch {
            units: (dump.bytes() * DUMP_PASSES) as f64,
            secs,
            attempted: 2 * DUMP_PASSES as u64,
            failed,
        }
    }

    fn trace_batch(&mut self) -> Batch {
        let started = Instant::now();
        let mut analyzer = StreamAnalyzer::new();
        let mut parse_failed = false;
        for line in black_box(&self.inputs.trace).lines() {
            parse_failed |= analyzer.push_line(line).is_err();
        }
        let analysis = analyzer.finish();
        let secs = started.elapsed().as_secs_f64();
        let right = !parse_failed
            && analysis.violations.is_empty()
            && analysis.line_count == self.inputs.trace_lines;
        Batch {
            units: self.inputs.trace_lines as f64,
            secs,
            attempted: 1,
            failed: u64::from(!right),
        }
    }
}

/// Frames whose recovered plaintext is missing or differs.
fn frames_wrong(got: &[Vec<u8>], want: &[Vec<u8>]) -> u64 {
    let mismatched = got.iter().zip(want).filter(|(g, w)| g != w).count();
    (mismatched + want.len().abs_diff(got.len())) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_wrong_counts_missing_and_differing_frames() {
        let want = vec![vec![1u8], vec![2], vec![3]];
        assert_eq!(frames_wrong(&want, &want), 0);
        assert_eq!(frames_wrong(&want[..2], &want), 1);
        assert_eq!(frames_wrong(&[vec![1], vec![9], vec![3]], &want), 1);
    }
}
