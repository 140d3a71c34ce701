//! Fleet memory-bandwidth model (Figure 2).
//!
//! Figure 2 plots, for one server generation over one day of production, the
//! distribution of each machine's 99 %-ile memory bandwidth as a fraction of
//! peak; the paper's headline is that **16 % of machines exceed 70 % of peak
//! bandwidth**, i.e. memory-bandwidth saturation is widespread.
//!
//! We model each machine's daily bandwidth trace as a lognormal base load
//! plus a probability of being a "hot" machine that spends part of the day
//! near saturation, and compute each machine's 99 %-ile over its samples.

use kelp_host::placement::FleetPlacer;
use kelp_host::{
    CpuAllocation, HostBatch, HostBatchStats, HostMachine, HostTaskId, MachineReport, Priority,
    TaskSpec, ThreadProfile,
};
use kelp_mem::topology::{DomainId, MachineSpec, SncMode};
use kelp_simcore::rng::SimRng;
use kelp_simcore::stats::SampleSet;
use serde::{Deserialize, Serialize};

/// Parameters of the fleet bandwidth model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetModel {
    /// Number of machines profiled.
    pub machines: usize,
    /// Bandwidth samples per machine over the day.
    pub samples_per_machine: usize,
    /// Median base utilization (fraction of peak).
    pub base_median: f64,
    /// Lognormal sigma of the base load.
    pub base_sigma: f64,
    /// Probability a machine hosts a bandwidth-heavy job mix.
    pub hot_probability: f64,
    /// Peak-region utilization for hot machines' busy samples.
    pub hot_level: f64,
    /// Fraction of a hot machine's day spent in the busy region.
    pub hot_duty: f64,
}

impl Default for FleetModel {
    /// Tuned so ~16 % of machines show a 99 %-ile above 70 % of peak, as in
    /// the paper.
    fn default() -> Self {
        FleetModel {
            machines: 2000,
            samples_per_machine: 288, // 5-minute samples over a day
            base_median: 0.22,
            base_sigma: 0.28,
            hot_probability: 0.16,
            hot_level: 0.82,
            hot_duty: 0.08,
        }
    }
}

/// Result of a fleet simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetResult {
    /// Each machine's 99 %-ile bandwidth as a fraction of peak, sorted
    /// ascending.
    pub p99_per_machine: Vec<f64>,
}

impl FleetResult {
    /// Fraction of machines whose 99 %-ile *strictly* exceeds `threshold`:
    /// a machine sitting exactly at the threshold does not count (so
    /// `fraction_above(max_p99)` is 0, never 1/n), and an empty fleet
    /// reports 0.
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        if self.p99_per_machine.is_empty() {
            return 0.0;
        }
        let above = self
            .p99_per_machine
            .iter()
            .filter(|&&x| x > threshold)
            .count();
        above as f64 / self.p99_per_machine.len() as f64
    }

    /// Complementary CDF sampled at the given thresholds: for each threshold
    /// `t`, the percentage of machines with 99 %-ile above `t`.
    pub fn ccdf(&self, thresholds: &[f64]) -> Vec<(f64, f64)> {
        thresholds
            .iter()
            .map(|&t| (t, self.fraction_above(t)))
            .collect()
    }
}

impl FleetModel {
    /// Simulates the fleet with the given seed.
    pub fn simulate(&self, seed: u64) -> FleetResult {
        let mut rng = SimRng::seed_from(seed);
        let mu = self.base_median.ln();
        let mut p99s = Vec::with_capacity(self.machines);
        for _ in 0..self.machines {
            let hot = rng.chance(self.hot_probability);
            let mut samples = SampleSet::new();
            let mut mrng = rng.fork(0);
            for _ in 0..self.samples_per_machine {
                let base = mrng.log_normal(mu, self.base_sigma).min(0.98);
                let v = if hot && mrng.chance(self.hot_duty) {
                    (self.hot_level + mrng.normal(0.0, 0.05)).clamp(base, 0.99)
                } else {
                    base
                };
                samples.record(v);
            }
            p99s.push(samples.p99());
        }
        p99s.sort_by(|a, b| a.total_cmp(b));
        FleetResult {
            p99_per_machine: p99s,
        }
    }
}

/// Configuration for a stepped host fleet ([`FleetSim`], ISSUE 6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetSimConfig {
    /// Number of simulated hosts.
    pub machines: usize,
    /// RNG seed for population build and churn.
    pub seed: u64,
    /// Per-machine, per-tick probability of a workload phase change.
    pub churn_probability: f64,
    /// Low-priority batch tasks placed across the fleet per machine (the
    /// Borg-like placement loop: tasks go wherever [`FleetPlacer`] best-fits
    /// them, not necessarily on their "own" machine).
    pub batch_tasks_per_machine: usize,
}

impl Default for FleetSimConfig {
    fn default() -> Self {
        FleetSimConfig {
            machines: 64,
            seed: 0x0F1EE7,
            churn_probability: 0.05,
            batch_tasks_per_machine: 2,
        }
    }
}

/// A stepped fleet of [`HostMachine`]s under a Borg-like placement loop.
///
/// Each host runs one high-priority ML task plus its share of a fleet-wide
/// pool of low-priority batch tasks, placed by a deterministic
/// [`FleetPlacer`]. Per tick, [`FleetSim::churn`] flips a seeded ~5 % of
/// machines to a different workload phase, then either
/// [`FleetSim::step_serial`] (the scalar baseline: one
/// [`HostMachine::solve`] per machine) or [`FleetSim::step_batched`] (the
/// SoA path: machines sharded over worker threads, each worker driving one
/// [`HostBatch`]) advances every machine one tick. The two step paths are
/// bit-identical, and `step_batched` results are invariant in the worker
/// count — machines are solved against their own scratch state regardless
/// of how they shard.
#[derive(Debug)]
pub struct FleetSim {
    machines: Vec<HostMachine>,
    /// The ML task on each machine (churn target).
    ml_tasks: Vec<HostTaskId>,
    /// Fleet-wide batch-task registry: (machine index, task id).
    batch_tasks: Vec<(usize, HostTaskId)>,
    placer: FleetPlacer,
    rng: SimRng,
    churn_probability: f64,
    /// One batch workspace per worker slot, reused across ticks.
    workers: Vec<HostBatch>,
}

/// Workload-phase intensity alphabet: a small set so phases revisit earlier
/// configurations and the steady-state memoization pays off, as in
/// production diurnal load.
const PHASE_LEVELS: [f64; 3] = [0.25, 0.5, 1.0];

/// Spawn threshold for the batched fleet paths: a shard must carry at least
/// this many machines before it earns its own thread. A steady-state tick
/// over memo-warm machines costs well under a microsecond per machine, so
/// below roughly this many machines per shard the per-tick spawn/join of
/// `std::thread::scope` costs more than the shard saves.
const MIN_MACHINES_PER_SHARD: usize = 2048;

/// Steps `machines` into `reports` (one slot per machine) through
/// persistent per-shard [`HostBatch`] workers — the one sharding policy of
/// [`FleetSim::step_batched_into`] and
/// [`crate::ResilientFleet::tick_batched`]. `jobs` is a ceiling, not a
/// mandate: every shard must clear [`MIN_MACHINES_PER_SHARD`], so a small
/// fleet runs single-shard with zero thread machinery. Shard assignment is
/// deterministic in fleet size alone, and the batch path is bit-identical
/// to serial stepping for any shard count.
pub(crate) fn step_batched_sharded(
    workers: &mut Vec<HostBatch>,
    machines: &mut [HostMachine],
    reports: &mut [MachineReport],
    jobs: usize,
) {
    let shards = jobs
        .min(machines.len().div_ceil(MIN_MACHINES_PER_SHARD))
        .max(1);
    step_shards(workers, machines, reports, shards);
}

/// [`step_batched_sharded`] at an explicit shard count: contiguous chunks,
/// one scoped thread per shard when there is more than one.
fn step_shards(
    workers: &mut Vec<HostBatch>,
    machines: &mut [HostMachine],
    reports: &mut [MachineReport],
    shards: usize,
) {
    if machines.is_empty() {
        return;
    }
    if workers.len() < shards {
        workers.resize_with(shards, HostBatch::new);
    }
    if shards == 1 {
        workers[0].step_into(machines, reports);
        return;
    }
    let chunk = machines.len().div_ceil(shards);
    std::thread::scope(|scope| {
        for ((mchunk, ochunk), worker) in machines
            .chunks_mut(chunk)
            .zip(reports.chunks_mut(chunk))
            .zip(workers.iter_mut())
        {
            scope.spawn(move || worker.step_into(mchunk, ochunk));
        }
    });
}

impl FleetSim {
    /// Builds a fleet: per machine one high-priority ML task (4 cores on
    /// domain (0,0)), then `batch_tasks_per_machine × machines` low-priority
    /// batch tasks best-fit placed across the whole fleet's remaining cores.
    pub fn new(config: FleetSimConfig) -> Self {
        let mut rng = SimRng::seed_from(config.seed);
        let mut machines: Vec<HostMachine> = Vec::with_capacity(config.machines);
        let mut ml_tasks = Vec::with_capacity(config.machines);
        for _ in 0..config.machines {
            let mut m = HostMachine::new(MachineSpec::dual_socket(), SncMode::Disabled);
            let ws = rng.uniform(1e9, 3e9);
            let id = m.add_task(
                TaskSpec::new("ml", Priority::High, ThreadProfile::streaming(ws), 4),
                vec![CpuAllocation::local(DomainId::new(0, 0), 4)],
            );
            ml_tasks.push(id);
            machines.push(m);
        }
        // Remaining capacity: socket 1 is entirely free for batch work.
        let mut placer = FleetPlacer::new(vec![24; config.machines]);
        let mut batch_tasks = Vec::new();
        for i in 0..config.machines * config.batch_tasks_per_machine {
            let cores = 4 + 2 * (rng.below(3) as usize);
            let Some((_, machine)) = placer.place(cores) else {
                continue;
            };
            let ws = rng.uniform(5e8, 2e9);
            let id = machines[machine].add_task(
                TaskSpec::new(
                    format!("batch-{i}"),
                    Priority::Low,
                    ThreadProfile::streaming(ws),
                    cores,
                ),
                vec![CpuAllocation::local(DomainId::new(1, 0), cores)],
            );
            batch_tasks.push((machine, id));
        }
        FleetSim {
            machines,
            ml_tasks,
            batch_tasks,
            placer,
            rng,
            churn_probability: config.churn_probability,
            workers: Vec::new(),
        }
    }

    /// The fleet's machines.
    pub fn machines(&self) -> &[HostMachine] {
        &self.machines
    }

    /// The placement bookkeeping.
    pub fn placer(&self) -> &FleetPlacer {
        &self.placer
    }

    /// One seeded churn round: each machine's ML task changes phase with
    /// the configured probability (drawn from the small phase alphabet, so
    /// configurations revisit and memoization applies); occasionally a
    /// batch task flips too. Serial and deterministic — churn order never
    /// depends on how a later step call shards machines over workers.
    pub fn churn(&mut self) {
        for (i, &ml) in self.ml_tasks.iter().enumerate() {
            if self.rng.chance(self.churn_probability) {
                let level = PHASE_LEVELS[self.rng.below(PHASE_LEVELS.len() as u64) as usize];
                self.machines[i].set_intensity(ml, level);
            }
        }
        if !self.batch_tasks.is_empty() && self.rng.chance(self.churn_probability) {
            let k = self.rng.below(self.batch_tasks.len() as u64) as usize;
            let (machine, id) = self.batch_tasks[k];
            let level = PHASE_LEVELS[self.rng.below(PHASE_LEVELS.len() as u64) as usize];
            self.machines[machine].set_intensity(id, level);
        }
    }

    /// The scalar baseline: one [`HostMachine::solve`] per machine, in
    /// order.
    pub fn step_serial(&self) -> Vec<MachineReport> {
        self.machines.iter().map(|m| m.solve()).collect()
    }

    /// The batched path: machines shard into `jobs` contiguous chunks, each
    /// stepped by its own persistent [`HostBatch`] (on its own thread when
    /// `jobs > 1`). Reports come back in machine order and are bit-identical
    /// to [`FleetSim::step_serial`] on the same fleet state, for any `jobs`.
    pub fn step_batched(&mut self, jobs: usize) -> Vec<MachineReport> {
        let mut out = Vec::new();
        self.step_batched_into(jobs, &mut out);
        out
    }

    /// [`FleetSim::step_batched`] refreshing a caller-owned report vector
    /// in place: `out` is resized to one slot per machine and every slot is
    /// fully overwritten. Passing the same vector every tick keeps the
    /// steady-state adaptive-skip refresh off the allocator, which is where
    /// the batch path's fleet-scale throughput comes from.
    ///
    /// `jobs` is a ceiling, not a mandate: the fleet shards onto threads
    /// only when every shard clears [`MIN_MACHINES_PER_SHARD`], so a small
    /// fleet at `jobs = 8` runs single-shard with zero thread machinery —
    /// per-tick spawn cost cannot exceed what the parallelism returns.
    /// Shard assignment is deterministic in fleet size alone, and each
    /// shard's persistent [`HostBatch`] is reused across ticks.
    pub fn step_batched_into(&mut self, jobs: usize, out: &mut Vec<MachineReport>) {
        let n = self.machines.len();
        if out.len() != n {
            out.clear();
            out.resize_with(n, MachineReport::empty);
        }
        step_batched_sharded(&mut self.workers, &mut self.machines, out, jobs);
    }

    /// Aggregate batch-path counters over all worker slots (saturating).
    pub fn batch_stats(&self) -> HostBatchStats {
        let mut total = HostBatchStats::default();
        for w in &self.workers {
            let s = w.stats();
            total.machines_stepped = total.machines_stepped.saturating_add(s.machines_stepped);
            total.adaptive_skips = total.adaptive_skips.saturating_add(s.adaptive_skips);
            total.memo_hits = total.memo_hits.saturating_add(s.memo_hits);
            total.lanes_solved = total.lanes_solved.saturating_add(s.lanes_solved);
            total.lanes_converged = total.lanes_converged.saturating_add(s.lanes_converged);
            total.down_steps = total.down_steps.saturating_add(s.down_steps);
            total.lane_fallbacks = total.lane_fallbacks.saturating_add(s.lane_fallbacks);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_fraction_matches_paper() {
        let result = FleetModel::default().simulate(2);
        let frac = result.fraction_above(0.70);
        assert!(
            (0.12..=0.20).contains(&frac),
            "fraction above 70% peak: {frac}"
        );
    }

    #[test]
    fn ccdf_of_no_thresholds_is_empty() {
        let result = FleetModel::default().simulate(9);
        assert_eq!(result.ccdf(&[]), vec![]);
    }

    #[test]
    fn fraction_above_is_strict_at_the_sample() {
        // All-equal p99s: a threshold exactly at the common value excludes
        // every machine (strict `>`), anything below includes all of them.
        let result = FleetResult {
            p99_per_machine: vec![0.5; 4],
        };
        assert_eq!(result.fraction_above(0.5), 0.0);
        assert_eq!(result.fraction_above(0.5 - 1e-12), 1.0);
        assert_eq!(result.fraction_above(0.6), 0.0);
        assert_eq!(
            result.ccdf(&[0.4, 0.5, 0.6]),
            vec![(0.4, 1.0), (0.5, 0.0), (0.6, 0.0)]
        );
    }

    #[test]
    fn fraction_above_of_an_empty_fleet_is_zero() {
        let result = FleetResult {
            p99_per_machine: vec![],
        };
        assert_eq!(result.fraction_above(0.0), 0.0);
        assert_eq!(result.ccdf(&[0.0, 1.0]), vec![(0.0, 0.0), (1.0, 0.0)]);
    }

    #[test]
    fn ccdf_is_monotonically_decreasing() {
        let result = FleetModel::default().simulate(3);
        let thresholds: Vec<f64> = (0..10).map(|i| i as f64 / 10.0).collect();
        let ccdf = result.ccdf(&thresholds);
        for pair in ccdf.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
        assert!(ccdf[0].1 > 0.9, "nearly all machines above 0");
    }

    #[test]
    fn p99s_are_valid_fractions() {
        let result = FleetModel::default().simulate(4);
        assert_eq!(result.p99_per_machine.len(), 2000);
        assert!(result
            .p99_per_machine
            .iter()
            .all(|&x| (0.0..=1.0).contains(&x)));
        // Sorted ascending.
        assert!(result.p99_per_machine.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = FleetModel::default().simulate(9);
        let b = FleetModel::default().simulate(9);
        assert_eq!(a, b);
        let c = FleetModel::default().simulate(10);
        assert_ne!(a, c);
    }

    fn small_sim() -> FleetSim {
        FleetSim::new(FleetSimConfig {
            machines: 7,
            churn_probability: 0.35,
            ..FleetSimConfig::default()
        })
    }

    #[test]
    fn small_fleets_step_single_shard_at_any_jobs() {
        let mut sim = small_sim();
        let mut out = Vec::new();
        sim.step_batched_into(8, &mut out);
        assert_eq!(out.len(), 7);
        assert_eq!(sim.workers.len(), 1, "7 machines must not shard");
    }

    #[test]
    fn threaded_shards_match_serial_stepping() {
        // Below the spawn threshold the public paths never thread, so drive
        // the shard stepper at explicit counts to pin its threaded branch.
        for shards in [2, 3, 7] {
            let mut serial = small_sim();
            let mut sharded = small_sim();
            let mut workers = Vec::new();
            let mut out = vec![MachineReport::empty(); 7];
            for tick in 0..4 {
                serial.churn();
                sharded.churn();
                let reference = serial.step_serial();
                step_shards(&mut workers, &mut sharded.machines, &mut out, shards);
                assert_eq!(out, reference, "{shards} shards diverged @ {tick}");
            }
            assert_eq!(workers.len(), shards);
        }
    }

    #[test]
    fn empty_fleet_is_harmless() {
        let m = FleetModel {
            machines: 0,
            ..FleetModel::default()
        };
        let r = m.simulate(1);
        assert_eq!(r.fraction_above(0.5), 0.0);
    }
}
