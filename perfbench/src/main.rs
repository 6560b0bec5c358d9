//! `blap-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <campaign-fleet|offline-attack|trace-check> \
//!     --seed <n> --seconds <n> --trace <0|1> [--spans-out <path>]
//! ```
//!
//! One process runs every tool in-process through the crates' public
//! APIs on one thread, builds its inputs from `--seed`, checks every
//! output, and prints one JSON result line last on standard output. With
//! `--trace 0` the line holds the end-to-end metrics; with `--trace 1`
//! the per-layer metrics of a traced run. Diagnostics go to standard
//! error. `perfbench/README.md` explains the workloads, the metrics and
//! the host calibration.

mod calib;
mod families;
mod heap;
mod inputs;
mod layers;
mod report;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use blap_obs::{prof, Metrics};

use calib::{Kernel, Kernels};
use families::{Batch, CampaignTally, Family, Inputs, Runner, Step as _};
use layers::{LayerMetric, WorkCounts};
use report::{Metric, Outcome};
use spans::Recorder;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

const USAGE: &str = "usage: blap-perfbench --workload <campaign-fleet|offline-attack|trace-check> \
                     --seed <n> --seconds <n> --trace <0|1> [--spans-out <path>]";

/// How many times a run builds its inputs; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// The kernel every rate and `setup_s` is calibrated with. Over the
/// stability runs in `perfbench/README.md` it tracked every family, the
/// P-256-bound campaign included, at least as well as the ALU kernel.
const CALIBRATION_KERNEL: Kernel = Kernel::Mem;
/// Trials per chunk of the traced campaign section.
const TRACED_CHUNK_TRIALS: u64 = 64;
/// Chunks of the traced campaign section: 1024 one-trial shards traced,
/// enough for a p99 with ten samples beyond it.
const TRACED_CHUNKS: u64 = 16;
/// Share of measured time each family gets on a workload that is not its
/// home.
const AWAY_SHARE: f64 = 0.15;
/// Batches of each home family the heap working set is taken over.
const HEAP_BATCHES: u64 = 3;
/// Bytes in a MiB.
const MIB: f64 = 1024.0 * 1024.0;
/// Pooled baseline win share Table II's baseline column spans.
const BASELINE_BAND: (f64, f64) = (0.42, 0.60);
/// Kernel sets run back to back before any input is built: the kernels'
/// standalone rates.
const STANDALONE_SETS: usize = 32;
/// How far a kernel's interleaved rate may stray from its standalone
/// rate once the host's speed is divided out. The standalone sets and
/// the run are up to a minute apart, and the host's speed drifts 1.3–1.8×
/// in that time, so each kernel is compared after dividing its ratio by
/// the other kernel's: drift moves both, a footprint moves one. The two
/// kernels do not drift exactly alike: over 120 runs of 30 s on a shared
/// 2-vCPU Xeon host the quotient stayed within 0.76–1.22, so the bound
/// leaves room for that.
const STANDALONE_TOLERANCE: f64 = 0.4;
/// The largest factor by which a kernel's interleaved rate may differ
/// from its standalone rate before the host's speed is divided out: only
/// a broken kernel or clock gets there.
const DRIFT_LIMIT: f64 = 3.0;

/// A named set of inputs and the share of measured time each batch
/// family gets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    CampaignFleet,
    OfflineAttack,
    TraceCheck,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::CampaignFleet,
        Workload::OfflineAttack,
        Workload::TraceCheck,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::CampaignFleet => "campaign-fleet",
            Workload::OfflineAttack => "offline-attack",
            Workload::TraceCheck => "trace-check",
        }
    }

    /// The families this workload exists to measure.
    fn home(self) -> &'static [Family] {
        match self {
            Workload::CampaignFleet => &[Family::Campaign],
            Workload::OfflineAttack => &[Family::Pin, Family::Decrypt, Family::Dump],
            Workload::TraceCheck => &[Family::Trace],
        }
    }

    /// Share of the measured time `family` gets: every family away from
    /// home gets [`AWAY_SHARE`], so each run reports every end-to-end
    /// metric, and the home families split the rest (40–70 %).
    fn share(self, family: Family) -> f64 {
        let home = self.home();
        if home.contains(&family) {
            (1.0 - AWAY_SHARE * (Family::ALL.len() - home.len()) as f64) / home.len() as f64
        } else {
            AWAY_SHARE
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_out: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    while let Some(flag) = args.next() {
        if !matches!(
            flag.as_str(),
            "--workload" | "--seed" | "--seconds" | "--trace" | "--spans-out"
        ) {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flags.insert(flag.clone(), value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let take = |flag: &str| flags.get(flag).ok_or_else(|| format!("missing {flag}"));
    let number = |flag: &str| {
        take(flag)?
            .parse::<u64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let workload = take("--workload")?;
    let seconds = number("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".to_owned());
    }
    Ok(Args {
        workload: Workload::ALL
            .into_iter()
            .find(|w| w.name() == workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: number("--seed")?,
        seconds,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        spans_out: flags.get("--spans-out").map(PathBuf::from),
    })
}

// --- calibration bookkeeping ------------------------------------------------

/// Kernel slices between two batches: each kernel twice, the set's
/// first slice right after program work, the rest after other slices.
#[derive(Clone, Copy, Debug)]
struct KernelSet {
    /// `[first, second]` slice rate of each kernel, indexed by kernel.
    rates: [[f64; 2]; 2],
    /// The kernel that ran first, right after program work.
    first: Kernel,
}

impl KernelSet {
    /// The kernel's rate for calibration: its second slice, which runs
    /// after other kernel slices and so away from the program's cache
    /// and allocator footprint. The first slices serve the self-check
    /// ([`Clock::cache_ratio`]).
    fn rate(&self, kernel: Kernel) -> f64 {
        self.rates[kernel as usize][1]
    }
}

/// Runs kernel sets and keeps every one for the run's diagnostics.
struct Clock {
    kernels: Kernels,
    sets: Vec<KernelSet>,
    /// Each kernel's median rate over [`STANDALONE_SETS`] sets run before
    /// any input existed.
    standalone: [f64; 2],
    checksums_ok: bool,
}

impl Clock {
    /// A clock whose standalone rates are taken now, so call it before
    /// building any input.
    fn new() -> Clock {
        let mut clock = Clock {
            kernels: Kernels::new(),
            sets: Vec::new(),
            standalone: [f64::NAN; 2],
            checksums_ok: true,
        };
        for _ in 0..STANDALONE_SETS {
            clock.measure();
        }
        clock.standalone = Kernel::ALL.map(|k| clock.median_rate(k));
        clock.sets.clear();
        clock
    }

    /// Runs one set, alternating which kernel goes first.
    fn measure(&mut self) -> KernelSet {
        let first = Kernel::ALL[self.sets.len() % 2];
        let second = Kernel::ALL[(self.sets.len() + 1) % 2];
        let mut rates = [[0.0; 2]; 2];
        for (round, kernel) in [(0, first), (0, second), (1, first), (1, second)] {
            let slice = self.kernels.slice(kernel);
            self.checksums_ok &= slice.checksum_ok;
            rates[kernel as usize][round] = slice.ops_per_s;
        }
        let set = KernelSet { rates, first };
        self.sets.push(set);
        set
    }

    fn median_rate(&self, kernel: Kernel) -> f64 {
        let all: Vec<f64> = self.sets.iter().map(|s| s.rate(kernel)).collect();
        stats::median(&all).unwrap_or(f64::NAN)
    }

    /// A kernel's median rate right after program work.
    fn after_work_rate(&self, kernel: Kernel) -> f64 {
        let after_work: Vec<f64> = self
            .sets
            .iter()
            .filter(|s| s.first == kernel)
            .map(|s| s.rates[kernel as usize][0])
            .collect();
        stats::median(&after_work).unwrap_or(f64::NAN)
    }

    /// A kernel's rate right after program work over its rate after
    /// other kernel slices: 1 when the program's cache footprint does
    /// not move the calibration.
    fn cache_ratio(&self, kernel: Kernel) -> f64 {
        self.after_work_rate(kernel) / self.median_rate(kernel)
    }

    /// A kernel's calibration rate, interleaved with the workload, over
    /// its standalone rate: 1 when the program's footprint (its caches,
    /// its allocator state) does not move the calibration.
    fn standalone_ratio(&self, kernel: Kernel) -> f64 {
        self.median_rate(kernel) / self.standalone[kernel as usize]
    }

    /// A kernel's rate right after program work over its standalone
    /// rate.
    fn after_work_standalone_ratio(&self, kernel: Kernel) -> f64 {
        self.after_work_rate(kernel) / self.standalone[kernel as usize]
    }

    /// The calibration self-check: each kernel's rate after program work
    /// and its calibration-slice rate agree with its standalone rate, the
    /// host's drift divided out.
    fn self_check(&self, tally: &mut Tally) {
        let near = |ratio: f64, tolerance: f64| (ratio - 1.0).abs() <= tolerance;
        for kernel in Kernel::ALL {
            let host = self.standalone_ratio(kernel.other());
            let interleaved = self.standalone_ratio(kernel);
            tally.check(
                "kernel rate after program work agrees with its standalone rate",
                near(
                    self.after_work_standalone_ratio(kernel) / host,
                    STANDALONE_TOLERANCE,
                ),
            );
            tally.check(
                "kernel calibration rate agrees with its standalone rate",
                near(interleaved / host, STANDALONE_TOLERANCE)
                    && (1.0 / DRIFT_LIMIT..=DRIFT_LIMIT).contains(&interleaved),
            );
        }
    }
}

/// One batch's raw rate and the kernels' rates around it.
#[derive(Clone, Copy, Debug)]
struct Sample {
    raw: f64,
    kernel: [f64; 2],
}

impl Sample {
    fn new(batch: &Batch, before: &KernelSet, after: &KernelSet) -> Sample {
        let around = |k: Kernel| (before.rate(k) + after.rate(k)) / 2.0;
        Sample {
            raw: batch.units / batch.secs.max(1e-12),
            kernel: Kernel::ALL.map(around),
        }
    }

    fn calibrated(&self, kernel: Kernel) -> f64 {
        calib::calibrate_rate(
            self.raw,
            self.kernel[kernel as usize],
            kernel.reference_ops_per_s(),
        )
    }
}

type Samples = BTreeMap<Family, Vec<Sample>>;

/// `family`'s samples (none if it never ran).
fn of(samples: &Samples, family: Family) -> &[Sample] {
    samples.get(&family).map_or(&[], Vec::as_slice)
}

fn median_of(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    let values: Vec<f64> = samples.iter().map(f).collect();
    stats::median(&values).unwrap_or(f64::NAN)
}

/// The reported rate: the median batch rate, calibrated.
fn calibrated_median(samples: &[Sample]) -> f64 {
    median_of(samples, |x| x.calibrated(CALIBRATION_KERNEL))
}

// --- the run ------------------------------------------------------------------

/// Operations attempted and failed, by what failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: BTreeMap<&'static str, u64>,
}

impl Tally {
    /// Counts a batch's operations under its family's metric name.
    fn add(&mut self, family: Family, batch: &Batch) {
        self.count(family.metric().0, batch.attempted, batch.failed);
    }

    /// Counts one whole-output check.
    fn check(&mut self, name: &'static str, ok: bool) {
        self.count(name, 1, u64::from(!ok));
    }

    fn count(&mut self, what: &'static str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            *self.failures.entry(what).or_default() += failed;
        }
    }

    fn render_failures(&self) -> String {
        let parts: Vec<String> = self
            .failures
            .iter()
            .map(|(what, n)| format!("{what}: {n}"))
            .collect();
        parts.join("; ")
    }
}

/// One batch of every family, each a set-up step: fills lazy tables
/// (P-256 generator table, SAFER+ bias columns) and caches before timing.
fn warm_up(inputs: &Inputs, timer: &mut StepTimer<'_>, tally: &mut Tally) {
    let mut runner = Runner::new(inputs);
    let mut off = Recorder::disabled();
    for family in Family::ALL {
        if family == Family::Campaign {
            // One trial, not a whole shard.
            let bag = timer.step(|| inputs::campaign_single_trials(0).run_shard(0));
            tally.check("warm-up trial ran", bag.counter("campaign.trials") == 1);
        } else {
            let batch = timer.step(|| runner.batch(family, &mut off, 0));
            tally.add(family, &batch);
        }
    }
}

/// Times a set-up step by step, each step between kernel sets.
struct StepTimer<'c> {
    clock: &'c mut Clock,
    before: KernelSet,
    raw_secs: f64,
    /// Calibrated seconds under each kernel.
    calibrated_secs: [f64; 2],
}

impl<'c> StepTimer<'c> {
    fn new(clock: &'c mut Clock) -> StepTimer<'c> {
        let before = clock.measure();
        StepTimer {
            clock,
            before,
            raw_secs: 0.0,
            calibrated_secs: [0.0; 2],
        }
    }
}

impl families::Step for StepTimer<'_> {
    fn step<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        let secs = started.elapsed().as_secs_f64();
        let after = self.clock.measure();
        for kernel in Kernel::ALL {
            let rate = (self.before.rate(kernel) + after.rate(kernel)) / 2.0;
            self.calibrated_secs[kernel as usize] +=
                calib::calibrate_secs(secs, rate, kernel.reference_ops_per_s());
        }
        self.raw_secs += secs;
        self.before = after;
        out
    }
}

struct Setup {
    inputs: Inputs,
    /// `(raw seconds, calibrated seconds per kernel)` per repeat.
    samples: Vec<(f64, [f64; 2])>,
}

fn set_up(seed: u64, clock: &mut Clock, tally: &mut Tally) -> Setup {
    let mut samples = Vec::with_capacity(SETUP_REPEATS);
    let mut built: Option<Inputs> = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let mut timer = StepTimer::new(clock);
        let inputs = Inputs::build(seed, &mut timer);
        tally.check(
            "every simulated session leaked its bond key on both taps",
            inputs.dump.leaked,
        );
        warm_up(&inputs, &mut timer, tally);
        samples.push((timer.raw_secs, timer.calibrated_secs));
        built = Some(inputs);
    }
    Setup {
        inputs: built.expect("at least one set-up"),
        samples,
    }
}

impl Setup {
    fn raw_secs(&self) -> f64 {
        let v: Vec<f64> = self.samples.iter().map(|s| s.0).collect();
        stats::median(&v).unwrap_or(f64::NAN)
    }

    fn calibrated_secs(&self, kernel: Kernel) -> f64 {
        let v: Vec<f64> = self.samples.iter().map(|s| s.1[kernel as usize]).collect();
        stats::median(&v).unwrap_or(f64::NAN)
    }
}

/// Picks the family furthest behind its share of measured time.
struct Scheduler {
    workload: Workload,
    spent: BTreeMap<Family, f64>,
    total: f64,
}

impl Scheduler {
    fn new(workload: Workload) -> Scheduler {
        Scheduler {
            workload,
            spent: Family::ALL.iter().map(|&f| (f, 0.0)).collect(),
            total: 0.0,
        }
    }

    fn next(&self) -> Family {
        let deficit = |f: Family| self.workload.share(f) * self.total - self.spent[&f];
        let mut best = Family::ALL[0];
        for f in Family::ALL {
            let (d, b) = (deficit(f), deficit(best));
            if d > b || (d == b && self.workload.share(f) > self.workload.share(best)) {
                best = f;
            }
        }
        best
    }

    fn charge(&mut self, family: Family, secs: f64) {
        *self.spent.get_mut(&family).expect("every family") += secs;
        self.total += secs;
    }
}

/// What the measured loop timed.
struct LoopResult {
    untraced: Samples,
    traced: Samples,
}

/// The measured loop: batches by share until `seconds` have passed,
/// each between two kernel sets. With `traced`, every batch except
/// campaign shards also runs a traced twin (profiler on, spans
/// recorded) on the same input, in alternating order.
fn measured_loop(
    workload: Workload,
    seconds: f64,
    runner: &mut Runner<'_>,
    clock: &mut Clock,
    tally: &mut Tally,
    traced: Option<&mut Recorder>,
) -> LoopResult {
    let mut untraced_samples = Samples::new();
    let mut traced_samples = Samples::new();
    let mut off = Recorder::disabled();
    let mut traced = traced;
    let mut scheduler = Scheduler::new(workload);
    let mut count: BTreeMap<Family, u64> = BTreeMap::new();
    let mut before = clock.measure();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        let family = scheduler.next();
        let group = *count.entry(family).and_modify(|n| *n += 1).or_insert(0);
        let twin = family != Family::Campaign && traced.is_some();
        // Alternate which of the pair runs first, so neither always
        // follows the other's cache footprint.
        let order: &[bool] = match (twin, group.is_multiple_of(2)) {
            (false, _) => &[false],
            (true, true) => &[false, true],
            (true, false) => &[true, false],
        };
        for &with_trace in order {
            let batch = if with_trace {
                let rec = traced.as_deref_mut().expect("twin implies a recorder");
                prof::set_enabled(true);
                let batch = runner.batch(family, rec, group);
                prof::set_enabled(false);
                batch
            } else {
                runner.batch(family, &mut off, group)
            };
            let after = clock.measure();
            tally.add(family, &batch);
            let sample = Sample::new(&batch, &before, &after);
            let into = if with_trace {
                &mut traced_samples
            } else {
                scheduler.charge(family, batch.secs);
                &mut untraced_samples
            };
            into.entry(family).or_default().push(sample);
            before = after;
        }
    }
    LoopResult {
        untraced: untraced_samples,
        traced: traced_samples,
    }
}

/// What the traced campaign section measured.
struct CampaignTrace {
    untraced: Vec<Sample>,
    traced: Vec<Sample>,
    trial_ns: Vec<u64>,
    layers: layers::LayerTimes,
    counts_untraced: WorkCounts,
    counts_traced: WorkCounts,
    /// Counts of the first untraced chunk: the run's fingerprint.
    first_chunk: WorkCounts,
    tally: CampaignTally,
}

/// Runs the first [`TRACED_CHUNKS`] × 64 trials as one-trial shards
/// twice — once plain, once with the profiler on and a span around each
/// trial — chunk by chunk in alternating order.
fn traced_campaign(seed: u64, rec: &mut Recorder, clock: &mut Clock) -> CampaignTrace {
    let single = inputs::campaign_single_trials(seed);
    let mut out = CampaignTrace {
        untraced: Vec::new(),
        traced: Vec::new(),
        trial_ns: Vec::new(),
        layers: layers::LayerTimes::default(),
        counts_untraced: WorkCounts::default(),
        counts_traced: WorkCounts::default(),
        first_chunk: WorkCounts::default(),
        tally: CampaignTally::default(),
    };
    let mut bag_untraced = Metrics::new();
    let mut bag_traced = Metrics::new();
    let mut off = Recorder::disabled();
    prof::reset();
    let mut before = clock.measure();
    for chunk in 0..TRACED_CHUNKS {
        let trials = chunk * TRACED_CHUNK_TRIALS..(chunk + 1) * TRACED_CHUNK_TRIALS;
        let order = if chunk % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for with_trace in order {
            prof::set_enabled(with_trace);
            let r: &mut Recorder = if with_trace { rec } else { &mut off };
            let bag = if with_trace {
                &mut bag_traced
            } else {
                &mut bag_untraced
            };
            let mut secs = 0.0;
            for trial in trials.clone() {
                let started = Instant::now();
                let shard = r.span("campaign.trial", trial, |_| single.run_shard(trial));
                secs += started.elapsed().as_secs_f64();
                bag.merge(&shard);
            }
            prof::set_enabled(false);
            if chunk == 0 && !with_trace {
                out.first_chunk = WorkCounts::of(bag);
            }
            let batch = Batch {
                units: TRACED_CHUNK_TRIALS as f64,
                secs,
                ..Batch::default()
            };
            let after = clock.measure();
            let sample = Sample::new(&batch, &before, &after);
            if with_trace {
                out.traced.push(sample);
            } else {
                out.untraced.push(sample);
            }
            before = after;
        }
    }
    out.layers = layers::fold_profile(&prof::report());
    out.trial_ns = rec.durations_ns("campaign.trial");
    out.counts_untraced = WorkCounts::of(&bag_untraced);
    out.counts_traced = WorkCounts::of(&bag_traced);
    out.tally.add(&bag_untraced);
    out.tally.add(&bag_traced);
    out
}

/// The largest heap working set among the workload's home families:
/// [`HEAP_BATCHES`] batches of each run, each inside a counting window
/// ([`heap`]), and the peak of the live heap bytes a batch adds is read.
/// The inputs and whatever earlier batches left on the heap are outside
/// the window, so the figure is the memory the program's calls hold at
/// once, and it repeats exactly for the same inputs.
fn peak_heap_mib(workload: Workload, runner: &mut Runner<'_>, tally: &mut Tally) -> f64 {
    let mut off = Recorder::disabled();
    let mut largest = 0usize;
    for &family in workload.home() {
        for group in 0..HEAP_BATCHES {
            let (batch, peak) = heap::peak_growth(|| runner.batch(family, &mut off, group));
            tally.add(family, &batch);
            eprintln!(
                "heap: {} batch {group} peaks at {:.4} MiB",
                family.metric().0,
                peak as f64 / MIB
            );
            largest = largest.max(peak);
        }
    }
    largest as f64 / MIB
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Diagnostics for standard error: one JSON object of the figures the
/// stability script and the README's tables are made from.
fn diagnostics(
    args: &Args,
    setup: &Setup,
    samples: &Samples,
    clock: &Clock,
    fingerprint: Option<WorkCounts>,
    tally: &Tally,
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"setup_s.raw\": {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        setup.raw_secs(),
    );
    for kernel in Kernel::ALL {
        let _ = write!(
            out,
            ", \"setup_s.{0}\": {1}, \"calib.{0}_ops_per_s\": {2}, \"calib.{0}_cache_ratio\": {3}, \
             \"calib.{0}_standalone_ratio\": {4}, \"calib.{0}_after_work_standalone_ratio\": {5}",
            kernel.name(),
            setup.calibrated_secs(kernel),
            clock.median_rate(kernel),
            clock.cache_ratio(kernel),
            clock.standalone_ratio(kernel),
            clock.after_work_standalone_ratio(kernel),
        );
    }
    for (family, s) in samples {
        let (name, _) = family.metric();
        let _ = write!(
            out,
            ", \"{name}.batches\": {}, \"{name}.raw\": {}",
            s.len(),
            median_of(s, |x| x.raw),
        );
        for kernel in Kernel::ALL {
            let _ = write!(
                out,
                ", \"{name}.{}\": {}",
                kernel.name(),
                median_of(s, |x| x.calibrated(kernel))
            );
        }
    }
    if let Some(counts) = fingerprint {
        let _ = write!(out, ", \"fingerprint\": \"{}\"", counts.render());
    }
    let _ = write!(out, ", \"failures\": \"{}\"}}", tally.render_failures());
    out
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut clock = Clock::new();
    let mut tally = Tally::default();
    let setup = set_up(args.seed, &mut clock, &mut tally);
    let inputs = &setup.inputs;
    eprintln!(
        "dump: {} simulated sessions x {} copies, btsnoop {} B ({} packets), usb {} B",
        inputs::DUMP_SESSIONS,
        inputs::DUMP_COPIES,
        inputs.dump.btsnoop.len(),
        inputs.dump.packets,
        inputs.dump.usb.len()
    );
    let mut runner = Runner::new(inputs);
    let mut metrics = Vec::new();

    let (samples, fingerprint) = if args.trace {
        traced_run(
            args,
            &setup,
            &mut runner,
            &mut clock,
            &mut tally,
            &mut metrics,
        )?
    } else {
        let result = measured_loop(
            args.workload,
            args.seconds as f64,
            &mut runner,
            &mut clock,
            &mut tally,
            None,
        );
        for family in Family::ALL {
            let (name, unit) = family.metric();
            let rate = calibrated_median(of(&result.untraced, family));
            metrics.push(metric(name, rate, unit));
        }
        let setup_s = setup.calibrated_secs(CALIBRATION_KERNEL);
        metrics.push(metric("setup_s", setup_s, "s"));
        let peak_heap = peak_heap_mib(args.workload, &mut runner, &mut tally);
        metrics.push(metric("peak_heap_mib", peak_heap, "MiB"));
        let fingerprint = runner.first_shard.as_ref().map(WorkCounts::of);
        (result.untraced, fingerprint)
    };
    let t = runner.tally;
    tally.check(
        "every blocking trial established MITM",
        t.blocking > 0 && t.blocking_wins == t.blocking,
    );
    let share = t.baseline_share();
    tally.check(
        "pooled baseline win share in the Table II band",
        (BASELINE_BAND.0..=BASELINE_BAND.1).contains(&share),
    );
    tally.check("calibration kernels deterministic", clock.checksums_ok);
    clock.self_check(&mut tally);
    eprintln!(
        "campaign: {} trials, blocking {}/{} won, baseline {}/{} won ({:.3})",
        t.trials, t.blocking_wins, t.blocking, t.baseline_wins, t.baseline, share
    );
    eprintln!(
        "perfbench-diag {}",
        diagnostics(args, &setup, &samples, &clock, fingerprint, &tally)
    );
    if tally.failed > 0 {
        eprintln!("FAILED: {}", tally.render_failures());
    }
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// The traced run: the measured loop with traced twins for half of
/// `--seconds`, the traced campaign section, the layer probes and the
/// codec, reported as per-layer metrics. Writes the spans file.
fn traced_run(
    args: &Args,
    setup: &Setup,
    runner: &mut Runner<'_>,
    clock: &mut Clock,
    tally: &mut Tally,
    metrics: &mut Vec<Metric>,
) -> Result<(Samples, Option<WorkCounts>), String> {
    let seconds = args.seconds as f64;
    let mut rec = Recorder::new();
    let result = measured_loop(
        args.workload,
        seconds / 2.0,
        runner,
        clock,
        tally,
        Some(&mut rec),
    );
    let campaign = traced_campaign(args.seed, &mut rec, clock);
    let probe_budget = Duration::from_secs_f64((seconds * 0.01).clamp(0.05, 0.3));
    let (probes, probes_right) = layers::probes(&setup.inputs, args.seed, probe_budget);
    tally.check("layer probes answered right", probes_right);
    let (codec, round_trip) = layers::codec(&setup.inputs.trace);
    tally.check("JSONL -> BLAPTRC1 -> JSONL is byte-identical", round_trip);
    tally.check(
        "work counts identical traced and untraced",
        campaign.counts_traced == campaign.counts_untraced,
    );
    let c = campaign.tally;
    tally.check(
        "traced campaign ran every trial twice",
        c.trials == 2 * TRACED_CHUNKS * TRACED_CHUNK_TRIALS,
    );
    tally.count("trials_per_s", c.trials, c.blocking - c.blocking_wins);
    runner.tally.merge(&c);

    let mut out: Vec<LayerMetric> = Vec::new();
    out.extend(probes);
    out.extend(codec);
    out.extend(traced_layer_metrics(&campaign));
    out.extend(campaign.counts_traced.metrics());
    for kernel in Kernel::ALL {
        let (rate, cache, standalone) = kernel.metric_names();
        out.push((rate, clock.median_rate(kernel), "1/s"));
        out.push((cache, clock.cache_ratio(kernel), "ratio"));
        out.push((standalone, clock.standalone_ratio(kernel), "ratio"));
    }
    let overhead = tracing_overhead(args.workload, &result, &campaign);
    out.push(("tracing.rate_ratio", overhead, "ratio"));
    metrics.extend(out.into_iter().map(|(n, v, u)| metric(n, v, u)));
    for family in Family::ALL {
        let (name, unit) = family.metric();
        let raw = median_of(of(&result.untraced, family), |x| x.raw);
        metrics.push(metric(format!("{name}_raw"), raw, unit));
    }
    metrics.push(metric("setup_s_raw", setup.raw_secs(), "s"));

    let path = args.spans_out.clone().unwrap_or_else(|| {
        PathBuf::from(format!(
            ".bench_build/perfbench/spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ))
    });
    rec.write_jsonl(&path)
        .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
    eprintln!("spans: {} written to {}", rec.spans().len(), path.display());
    for (name, t) in rec.totals() {
        eprintln!(
            "span {name}: {} × {:.1} us, self {:.1} us",
            t.count,
            t.total_ns as f64 / 1e3 / t.count as f64,
            t.self_ns as f64 / 1e3 / t.count as f64
        );
    }
    Ok((result.untraced, Some(campaign.first_chunk)))
}

/// The layers whose self time the traced run reports; together with
/// `campaign.unattributed_share` they account for the trial wall time.
const REPORTED_LAYERS: [&str; 7] = [
    "crypto.p256",
    "core.trial",
    "controller.lmp_auth",
    "sim.dispatch",
    "hci.cmd",
    "host.pairing",
    "baseband.page",
];

/// Per-layer figures of the traced campaign section.
fn traced_layer_metrics(c: &CampaignTrace) -> Vec<LayerMetric> {
    let trials = c.trial_ns.len().max(1) as f64;
    let wall_ns: u64 = c.trial_ns.iter().sum();
    let self_us =
        |layer: &str| c.layers.self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e3 / trials;
    let ms: Vec<f64> = c.trial_ns.iter().map(|&n| n as f64 / 1e6).collect();
    let p50 = stats::median(&ms).unwrap_or(f64::NAN);
    let tail = stats::tail(&ms);
    if let Some(t) = tail {
        eprintln!(
            "campaign.trial tail: p{} of {} one-trial shards = {:.3} ms",
            t.percentile, t.samples, t.value
        );
    }
    let p256_self = c.layers.self_ns.get("crypto.p256").copied().unwrap_or(0) as f64;
    // Wall time no reported layer accounts for: outside the profiler's
    // trial scope, or in a scope no layer below names.
    let attributed: u64 = REPORTED_LAYERS
        .iter()
        .map(|l| c.layers.self_ns.get(l).copied().unwrap_or(0))
        .sum();
    eprintln!(
        "crypto.p256_share base: {:.0} ns P-256 self over {} ns trial wall ({} trials)",
        p256_self,
        wall_ns,
        c.trial_ns.len()
    );
    vec![
        (
            "crypto.p256_calls_per_trial",
            c.layers.p256_calls as f64 / trials,
            "count",
        ),
        (
            "crypto.p256_share",
            p256_self / wall_ns.max(1) as f64,
            "ratio",
        ),
        (
            "crypto.p256_self_us_per_trial",
            p256_self / 1e3 / trials,
            "us",
        ),
        (
            "campaign.trial_wall_us_mean",
            wall_ns as f64 / 1e3 / trials,
            "us",
        ),
        ("campaign.trial_p50_ms", p50, "ms"),
        (
            "campaign.trial_p99_ms",
            tail.map_or(f64::NAN, |t| t.value),
            "ms",
        ),
        (
            "campaign.unattributed_share",
            wall_ns.saturating_sub(attributed) as f64 / wall_ns.max(1) as f64,
            "ratio",
        ),
        ("core.trial_self_us", self_us("core.trial"), "us"),
        (
            "controller.lmp_auth_self_us",
            self_us("controller.lmp_auth"),
            "us",
        ),
        ("sim.dispatch_self_us", self_us("sim.dispatch"), "us"),
        ("hci.cmd_self_us", self_us("hci.cmd"), "us"),
        ("host.pairing_self_us", self_us("host.pairing"), "us"),
        ("baseband.page_self_us", self_us("baseband.page"), "us"),
    ]
}

/// Traced over untraced rate of the workload's home families, each side
/// calibrated: 1.0 means tracing costs nothing.
fn tracing_overhead(workload: Workload, l: &LoopResult, c: &CampaignTrace) -> f64 {
    let ratios: Vec<f64> = workload
        .home()
        .iter()
        .map(|&family| match family {
            Family::Campaign => calibrated_median(&c.traced) / calibrated_median(&c.untraced),
            _ => {
                calibrated_median(of(&l.traced, family))
                    / calibrated_median(of(&l.untraced, family))
            }
        })
        .collect();
    ratios.iter().sum::<f64>() / ratios.len() as f64
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    match outcome.render() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload trace-check --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::TraceCheck);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert_eq!(a.spans_out, None);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload trace-check --seed x --seconds 1 --trace 0",
            "--workload trace-check --seed 1 --seconds 0 --trace 0",
            "--workload trace-check --seed 1 --seconds 1 --trace 2",
            "--workload trace-check --seed 1 --seed 2 --seconds 1 --trace 0",
            "--workload trace-check --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload trace-check --seed 1 --seconds 1 --trace",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn shares_sum_to_one_and_favour_home_families() {
        for w in Workload::ALL {
            let total: f64 = Family::ALL.iter().map(|&f| w.share(f)).sum();
            assert!((total - 1.0).abs() < 1e-9, "{w:?}");
            for &home in w.home() {
                assert!(w.share(home) > AWAY_SHARE, "{w:?} {home:?}");
            }
        }
    }

    #[test]
    fn scheduler_follows_the_shares() {
        let mut s = Scheduler::new(Workload::CampaignFleet);
        for _ in 0..1000 {
            let f = s.next();
            s.charge(f, 0.01);
        }
        let campaign = s.spent[&Family::Campaign] / s.total;
        assert!((campaign - 0.4).abs() < 0.02, "{campaign}");
    }

    #[test]
    fn self_check_divides_out_drift_but_not_a_moved_kernel() {
        // Standalone rates 1.0 (ALU) and 2.0 (mem); during the run the
        // host is 1.5x faster, so both kernels read 1.5x their standalone
        // rate, and `mem_after_work` is the mem kernel right after work.
        let failed = |mem_after_work: f64, mem_calibration: f64| {
            let set = |first| KernelSet {
                rates: [[1.5, 1.5], [mem_after_work, mem_calibration]],
                first,
            };
            let clock = Clock {
                kernels: Kernels::new(),
                sets: vec![set(Kernel::Alu), set(Kernel::Mem)],
                standalone: [1.0, 2.0],
                checksums_ok: true,
            };
            let mut tally = Tally::default();
            clock.self_check(&mut tally);
            assert_eq!(tally.attempted, 4);
            tally.failed
        };
        assert_eq!(failed(3.0, 3.0), 0);
        // The program's footprint slows the mem kernel right after work
        // by half: its after-work check fails, its calibration slices
        // still agree.
        assert_eq!(failed(1.5, 3.0), 1);
        // A kernel moved in its calibration slices fails every check
        // whose host speed it supplies.
        assert_eq!(failed(1.5, 1.5), 4);
    }

    #[test]
    fn calibrated_sample_uses_the_mean_of_the_surrounding_sets() {
        let alu = Kernel::Alu.reference_ops_per_s();
        let mem = Kernel::Mem.reference_ops_per_s();
        let set = |alu_rate: f64| KernelSet {
            rates: [[0.0, alu_rate], [0.0, mem]],
            first: Kernel::Alu,
        };
        let batch = Batch {
            units: 100.0,
            secs: 0.5,
            ..Batch::default()
        };
        // The ALU kernel ran at 0.4 and 0.6 of its reference rate around
        // the batch: half speed on average, so the calibrated rate doubles.
        let s = Sample::new(&batch, &set(0.4 * alu), &set(0.6 * alu));
        assert_eq!(s.raw, 200.0);
        assert!((s.calibrated(Kernel::Alu) - 400.0).abs() < 1e-9);
        assert!((s.calibrated(Kernel::Mem) - 200.0).abs() < 1e-9);
    }
}
