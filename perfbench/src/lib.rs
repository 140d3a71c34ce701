//! Host-time benchmark of the Kelp reproduction.
//!
//! Two workloads load different layers of the simulator:
//!
//! | workload | what runs | layers it loads |
//! |---|---|---|
//! | `paper_cold` | the `repro_all` figure set through a fresh `Runner` and empty cache | runner (writes), driver, host, fold, emit |
//! | `fleet_steady` | `FleetSim` at 4,096 machines, `churn` + `step_batched_into` | host::batch, solver, fleet |
//!
//! The traced `paper_cold` run also reruns the figure set against a warm
//! cache (runner cache reads, `serde_json` parse), and the traced
//! `fleet_steady` run probes `workloads::resilient` with one pass of the
//! 12-cell machine-fault matrix.
//!
//! Each run sets up, makes one untimed pass that measures the heap and
//! renders the reference output, then repeats timed iterations until
//! `--seconds` have passed (at least three), checks every output, and
//! reports medians. With
//! tracing on, iterations alternate untraced and traced; spans recorded
//! around the calls into each layer give the per-layer metrics, the
//! self-time waterfall and the tracing overhead. See `README.md`.

#![deny(unsafe_code)]

pub mod env;
pub mod fleet;
pub mod heap;
pub mod metrics;
pub mod paper;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use trace::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `repro_all` figure set, empty cache.
    PaperCold,
    /// Steady-state batched fleet stepping.
    FleetSteady,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::PaperCold, Workload::FleetSteady];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCold => "paper_cold",
            Workload::FleetSteady => "fleet_steady",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's `Full` size, or `Tiny` for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark defines.
    Full,
    /// Seconds-scale inputs for tests.
    Tiny,
}

impl Size {
    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// Input seed; 0 is the paper's calibrated setting.
    pub seed: u64,
    /// Target length of the timed section.
    pub seconds: f64,
    /// Alternate untraced and traced iterations and report layer metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Worker threads.
    pub workers: usize,
}

/// Maps a nonzero workload seed onto a derived seed (splitmix64 finalizer
/// of `base ^ seed`); 0 keeps `base`.
pub fn derive_seed(base: u64, seed: u64) -> u64 {
    if seed == 0 {
        return base;
    }
    let mut z = (base ^ seed).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Set-up durations (seconds), one per set-up performed.
    pub setup_s: Vec<f64>,
    /// Untraced iteration wall times (seconds).
    pub wall_s: Vec<f64>,
    /// Traced iteration wall times (seconds).
    pub traced_wall_s: Vec<f64>,
    /// Machine-ticks simulated per iteration.
    pub steps_per_iter: f64,
    /// Peak live-heap growth of the heap pass, bytes (0 unless the binary
    /// installed [`heap::Counting`]).
    pub peak_heap_bytes: usize,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// Correctness violations; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Deterministic per-iteration counts, identical across iterations and
    /// runs of one build at one seed.
    pub counts: BTreeMap<&'static str, f64>,
    /// Per-layer metrics of the traced iterations.
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable input size.
    pub size_label: String,
    /// Per-layer self time of the traced iterations, largest first.
    pub waterfall: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records the deterministic counts of one iteration: the first
    /// iteration's counts become the run's, later ones must equal them.
    pub fn record_counts(&mut self, iteration: usize, counts: BTreeMap<&'static str, f64>) {
        if iteration == 0 {
            self.counts = counts;
            return;
        }
        for (name, value) in &counts {
            let first = self.counts.get(name).copied();
            if first != Some(*value) {
                self.errors.push(format!(
                    "count drift: {name} = {value} in iteration {iteration}, {first:?} in iteration 0"
                ));
            }
        }
    }

    /// Stores per-layer metrics as the median over traced iterations.
    pub fn set_layers_from(&mut self, per_iteration: &[BTreeMap<&'static str, f64>]) {
        let names: std::collections::BTreeSet<&'static str> = per_iteration
            .iter()
            .flat_map(|m| m.keys().copied())
            .collect();
        for name in names {
            let values: Vec<f64> = per_iteration
                .iter()
                .filter_map(|m| m.get(name).copied())
                .collect();
            self.layers.insert(name, stats::median(&values));
        }
    }

    /// Stores the median, the p99 (by the tail rule) and the sample count
    /// of pooled tick durations under the three given metric names.
    pub fn insert_tick_percentiles(&mut self, names: [&'static str; 3], ticks_ms: &[f64]) {
        let [p50, p99, samples] = names;
        self.layers.insert(p50, stats::percentile(ticks_ms, 50.0));
        self.layers
            .insert(p99, stats::admitted_percentile(ticks_ms, 99.0).1);
        self.layers.insert(samples, ticks_ms.len() as f64);
    }

    /// Fills the tracing metrics from the traced spans: span coverage of
    /// the `root` iterations, the overhead against the untraced
    /// iterations, and the self-time waterfall.
    pub fn finish_trace(&mut self, spans: &[trace::Span], root: &str) {
        self.layers
            .insert("trace.span_coverage", trace::coverage(spans, root));
        self.layers.insert(
            "trace.overhead_s",
            stats::median(&self.traced_wall_s) - stats::median(&self.wall_s),
        );
        self.layers
            .insert("trace.iterations", self.traced_wall_s.len() as f64);
        self.waterfall = trace::waterfall(spans);
    }
}

/// One pass of a run's loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// The untimed first pass, run under [`heap::measure`]: it gives
    /// `peak_heap_mb` and the reference every timed pass must reproduce.
    Heap,
    /// A timed iteration without spans.
    Untraced,
    /// A timed iteration recording spans.
    Traced,
}

/// Decides the passes of a run: the heap pass, then timed iterations until
/// the timed ones have taken `--seconds` (at least [`MIN_ITERATIONS`]).
#[derive(Debug)]
pub struct Schedule {
    start: Option<Instant>,
    seconds: f64,
    trace: bool,
    done: usize,
}

/// Fewest timed iterations a run makes, whatever `--seconds` says. Three
/// lets the median drop one iteration the host slowed down, which matters
/// for `paper_cold`'s 7-second iterations; a traced run gets two
/// untraced iterations and one traced.
pub const MIN_ITERATIONS: usize = 3;

impl Schedule {
    /// A schedule for `opts`; the clock starts with the first timed
    /// iteration.
    pub fn new(opts: &Opts) -> Self {
        Schedule {
            start: None,
            seconds: opts.seconds,
            trace: opts.trace,
            done: 0,
        }
    }

    /// The next pass, or `None` when the run has measured long enough.
    /// Timed iterations of a traced run alternate, starting untraced.
    pub fn next_pass(&mut self) -> Option<Pass> {
        let timed = self.done.saturating_sub(1);
        let start = match self.start {
            None if self.done == 0 => {
                self.done = 1;
                return Some(Pass::Heap);
            }
            None => *self.start.insert(Instant::now()),
            Some(start) => start,
        };
        if timed >= MIN_ITERATIONS && start.elapsed().as_secs_f64() >= self.seconds {
            return None;
        }
        self.done += 1;
        Some(if self.trace && timed % 2 == 1 {
            Pass::Traced
        } else {
            Pass::Untraced
        })
    }
}

/// Writes the traced run's spans to
/// `SCRATCH_ROOT/trace-<workload>-<size>-seed<n>.json`.
pub fn write_spans(opts: &Opts, tracer: &Tracer) {
    let path = Path::new(env::SCRATCH_ROOT).join(format!(
        "trace-{}-{}-seed{}.json",
        opts.workload.name(),
        opts.size.name(),
        opts.seed
    ));
    let doc = tracer.to_chrome(&[
        ("workload", opts.workload.name().to_string()),
        ("host", env::host_fingerprint()),
        ("commit", env::commit()),
        ("workers", opts.workers.to_string()),
    ]);
    if let Err(e) = std::fs::write(&path, doc) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// Runs one workload.
pub fn run(opts: &Opts) -> Outcome {
    match opts.workload {
        Workload::PaperCold => paper::run(opts),
        Workload::FleetSteady => fleet::run_steady(opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_keeps_the_calibrated_seed() {
        assert_eq!(derive_seed(0xF1EE7, 0), 0xF1EE7);
        assert_ne!(derive_seed(0xF1EE7, 1), 0xF1EE7);
        assert_ne!(derive_seed(0xF1EE7, 1), derive_seed(0xF1EE7, 2));
    }

    #[test]
    fn count_drift_is_an_error() {
        let mut o = Outcome::default();
        o.record_counts(0, BTreeMap::from([("mem.iterations", 5.0)]));
        o.record_counts(1, BTreeMap::from([("mem.iterations", 5.0)]));
        assert!(o.errors.is_empty());
        o.record_counts(2, BTreeMap::from([("mem.iterations", 6.0)]));
        assert_eq!(o.errors.len(), 1);
    }

    #[test]
    fn schedule_starts_with_the_heap_pass_and_alternates_when_traced() {
        let opts = Opts {
            workload: Workload::FleetSteady,
            seed: 0,
            seconds: 0.0,
            trace: true,
            size: Size::Tiny,
            workers: 1,
        };
        let mut s = Schedule::new(&opts);
        assert_eq!(s.next_pass(), Some(Pass::Heap));
        assert_eq!(s.next_pass(), Some(Pass::Untraced));
        assert_eq!(s.next_pass(), Some(Pass::Traced));
        assert_eq!(s.next_pass(), Some(Pass::Untraced));
        assert_eq!(s.next_pass(), None);
    }
}
