//! `fleet_steady`: batched stepping of a 4,096-machine fleet with 2
//! workers, and the fault-matrix probe of its traced run.
//!
//! One iteration (a *pass*) starts from a freshly built fleet — the build
//! is the set-up — and steps it a fixed number of ticks, so every pass
//! does identical work and its counters repeat exactly. The first pass,
//! untimed, measures the heap (fleet build included). After the timed
//! passes, one more pass runs in lockstep with an identical fleet stepped
//! through the serial path (`step_serial` / `tick_serial`): each
//! machine-step whose batched report differs from the serial one counts
//! as failed. Every pass must end in the same reports.

use crate::trace::{self, Tracer};
use crate::{derive_seed, heap, Opts, Outcome, Pass, Schedule, Size};
use kelp::experiments::faults::Intensity;
use kelp::experiments::fleet_faults::FleetFaultsConfig;
use kelp_host::{HostMachine, MachineReport};
use kelp_mem::solver::SolveStats;
use kelp_simcore::fault::FaultKind;
use kelp_workloads::fleet::{FleetSim, FleetSimConfig};
use kelp_workloads::resilient::{ResilientFleet, ResilientFleetConfig, ResilientRunMetrics};
use std::collections::BTreeMap;
use std::time::Instant;

/// Ticks per `fleet_steady` pass.
const STEADY_TICKS: u64 = 256;

/// Machines of the `fleet_steady` fleet: the smallest fleet that shards
/// over 2 workers (`FleetSim` gives a shard at least 2,048 machines).
const STEADY_MACHINES: usize = 4096;

/// Machines per fault-matrix cell.
const FAULTS_MACHINES: usize = 512;

/// Adds the solver's deterministic counters to `counts`.
pub fn insert_solve_counts(counts: &mut BTreeMap<&'static str, f64>, s: &SolveStats) {
    let computed = s.solves.saturating_sub(s.memo_hits);
    counts.insert("host.steps", s.solves as f64);
    counts.insert("mem.computed_solves", computed as f64);
    counts.insert("mem.iterations", s.iterations as f64);
    counts.insert("mem.evaluations", s.evaluations as f64);
    counts.insert(
        "mem.evals_per_solve",
        if computed == 0 {
            0.0
        } else {
            s.evaluations as f64 / computed as f64
        },
    );
    counts.insert("mem.warm_hits", s.warm_hits as f64);
    counts.insert("mem.non_converged", s.non_converged as f64);
    counts.insert("mem.rescues", s.rescues as f64);
    counts.insert("mem.safe_states", s.safe_states as f64);
}

/// Summed solve counters of a fleet's machines.
fn fleet_solve_stats(machines: &[HostMachine]) -> SolveStats {
    let mut total = SolveStats::default();
    for m in machines {
        total.absorb(&m.solve_stats());
    }
    total
}

/// Number of machine reports in `a` that differ from `b` (length
/// differences count every unmatched slot).
fn mismatches(a: &[MachineReport], b: &[MachineReport]) -> u64 {
    let common = a.iter().zip(b).filter(|(x, y)| x != y).count();
    (common + a.len().abs_diff(b.len())) as u64
}

fn steady_config(opts: &Opts) -> FleetSimConfig {
    let base = FleetSimConfig::default();
    FleetSimConfig {
        machines: match opts.size {
            Size::Full => STEADY_MACHINES,
            Size::Tiny => 64,
        },
        seed: derive_seed(base.seed, opts.seed),
        ..base
    }
}

/// Runs `fleet_steady`.
pub fn run_steady(opts: &Opts) -> Outcome {
    let config = steady_config(opts);
    let ticks = match opts.size {
        Size::Full => STEADY_TICKS,
        Size::Tiny => 16,
    };
    let mut out = Outcome {
        size_label: format!(
            "{} machines x {ticks} ticks per pass, churn {}",
            config.machines, config.churn_probability
        ),
        steps_per_iter: (config.machines as u64 * ticks) as f64,
        ..Outcome::default()
    };
    let mut tracer = Tracer::new(false);
    let mut schedule = Schedule::new(opts);
    let mut traced_layers = Vec::new();
    let mut final_reports: Option<Vec<MachineReport>> = None;
    let mut reports = Vec::new();
    let mut pass = 0usize;
    let step_pass = |fleet: &mut FleetSim, tracer: &mut Tracer, reports: &mut Vec<_>, pass| {
        let root = tracer.begin("pass", pass);
        for tick in 0..ticks {
            let span = tracer.begin("tick", tick);
            tracer.span("fleet.churn", tick, || fleet.churn());
            tracer.span("fleet.step", tick, || {
                fleet.step_batched_into(opts.workers, reports)
            });
            tracer.end(span);
        }
        tracer.end(root);
    };
    while let Some(kind) = schedule.next_pass() {
        let fleet = if kind == Pass::Heap {
            let (fleet, peak) = heap::measure(|| {
                let mut fleet = FleetSim::new(config);
                step_pass(&mut fleet, &mut tracer, &mut reports, pass as u64);
                fleet
            });
            out.peak_heap_bytes = peak;
            fleet
        } else {
            let t = Instant::now();
            let mut fleet = FleetSim::new(config);
            out.setup_s.push(t.elapsed().as_secs_f64());

            let traced = kind == Pass::Traced;
            tracer.set_enabled(traced);
            let span_start = tracer.spans().len();
            let t = Instant::now();
            step_pass(&mut fleet, &mut tracer, &mut reports, pass as u64);
            let wall = t.elapsed().as_secs_f64();
            tracer.set_enabled(false);
            if traced {
                let spans = &tracer.spans()[span_start..];
                traced_layers.push(BTreeMap::from([
                    ("fleet.churn_s", trace::total_s(spans, "fleet.churn")),
                    ("fleet.step_s", trace::total_s(spans, "fleet.step")),
                ]));
                out.traced_wall_s.push(wall);
            } else {
                out.wall_s.push(wall);
            }
            fleet
        };

        out.record_counts(pass, steady_counts(&fleet));
        out.attempted += reports.len() as u64;
        match &final_reports {
            Some(expected) => out.failed += mismatches(&reports, expected),
            None => final_reports = Some(reports.clone()),
        }
        pass += 1;
    }

    // Lockstep check against the serial path on an identical fleet.
    let mut batched = FleetSim::new(config);
    let mut serial = FleetSim::new(config);
    for _ in 0..ticks {
        batched.churn();
        batched.step_batched_into(opts.workers, &mut reports);
        serial.churn();
        let expected = serial.step_serial();
        out.attempted += expected.len() as u64;
        out.failed += mismatches(&reports, &expected);
    }
    if fleet_solve_stats(batched.machines()) != fleet_solve_stats(serial.machines()) {
        out.errors
            .push("batched and serial fleets disagree on solve counters".into());
    }
    out.record_counts(pass, steady_counts(&batched));
    if let Some(expected) = &final_reports {
        out.attempted += reports.len() as u64;
        out.failed += mismatches(&reports, expected);
    }

    if opts.trace {
        let ticks_ms = trace::durations_ms(tracer.spans(), "tick");
        out.set_layers_from(&traced_layers);
        out.insert_tick_percentiles(
            [
                "fleet.tick_ms_p50",
                "fleet.tick_ms_p99",
                "fleet.tick_samples",
            ],
            &ticks_ms,
        );
        faults_probe(opts, &mut tracer, &mut out);
        out.finish_trace(tracer.spans(), "pass");
        crate::write_spans(opts, &tracer);
    }
    out
}

/// Deterministic counters of one `fleet_steady` pass.
fn steady_counts(fleet: &FleetSim) -> BTreeMap<&'static str, f64> {
    let b = fleet.batch_stats();
    let mut counts = BTreeMap::from([
        ("batch.adaptive_skips", b.adaptive_skips as f64),
        (
            "batch.skip_ratio",
            if b.machines_stepped == 0 {
                0.0
            } else {
                b.adaptive_skips as f64 / b.machines_stepped as f64
            },
        ),
        ("batch.memo_hits", b.memo_hits as f64),
        ("batch.lanes_solved", b.lanes_solved as f64),
        ("batch.lanes_converged", b.lanes_converged as f64),
        ("batch.lane_fallbacks", b.lane_fallbacks as f64),
        ("batch.down_steps", b.down_steps as f64),
    ]);
    insert_solve_counts(&mut counts, &fleet_solve_stats(fleet.machines()));
    counts
}

/// The 12 cells of the machine-level fault matrix (every fault kind ×
/// intensity, self-healing then static) at 512 machines.
fn fault_cells(opts: &Opts) -> Vec<ResilientFleetConfig> {
    let base = FleetFaultsConfig::default();
    let matrix = match opts.size {
        Size::Full => FleetFaultsConfig {
            machines: FAULTS_MACHINES,
            ..base
        },
        Size::Tiny => FleetFaultsConfig::quick(),
    };
    let matrix = FleetFaultsConfig {
        seed: derive_seed(base.seed, opts.seed),
        jobs: opts.workers,
        ..matrix
    };
    let mut cells = Vec::new();
    for kind in FaultKind::machine_level() {
        for intensity in Intensity::all() {
            for healing in [true, false] {
                cells.push(matrix.cell(kind, intensity, healing));
            }
        }
    }
    cells
}

/// The `workloads::resilient` probe of the traced `fleet_steady` run: one
/// pass of the fault matrix through `ResilientFleet::tick_batched` with the
/// run's workers, every tick a `resilient.tick` span under a `probe` root,
/// in lockstep with identical fleets stepped by `tick_serial` (a differing
/// machine-step is a failed operation). It stands in for a `fleet_faults`
/// workload: `tick_batched` spawns a thread per shard on every tick, and
/// the pass time of that workload swung between runs beyond any usable
/// bound.
fn faults_probe(opts: &Opts, tracer: &mut Tracer, out: &mut Outcome) {
    let cells = fault_cells(opts);
    let mut metrics = Vec::with_capacity(cells.len());
    tracer.set_enabled(true);
    let root = tracer.begin("probe", 0);
    for (c, &cell) in cells.iter().enumerate() {
        let mut batched = ResilientFleet::new(cell);
        let mut serial = ResilientFleet::new(cell);
        for tick in 0..cell.ticks {
            let req = c as u64 * cell.ticks + tick;
            let got = tracer.span("resilient.tick", req, || batched.tick_batched(opts.workers));
            let expected = tracer.span("check.tick_serial", req, || serial.tick_serial());
            out.attempted += expected.len() as u64;
            out.failed += mismatches(&got, &expected);
        }
        if batched.metrics() != serial.metrics() {
            out.errors.push(format!(
                "fault cell {c}: batched and serial fleets disagree on run metrics"
            ));
        }
        metrics.push(batched.metrics());
    }
    tracer.end(root);
    tracer.set_enabled(false);

    let sum = |f: fn(&ResilientRunMetrics) -> u64| metrics.iter().map(f).sum::<u64>() as f64;
    out.layers
        .insert("resilient.safe_state_steps", sum(|m| m.safe_state_steps));
    out.layers
        .insert("resilient.rescued_steps", sum(|m| m.rescued_steps));
    out.layers
        .insert("resilient.reschedules", sum(|m| m.reschedules));
    out.layers
        .insert("resilient.displaced_jobs", sum(|m| m.displaced_jobs));
    let ticks_ms = trace::durations_ms(tracer.spans(), "resilient.tick");
    out.insert_tick_percentiles(
        [
            "resilient.tick_ms_p50",
            "resilient.tick_ms_p99",
            "resilient.tick_samples",
        ],
        &ticks_ms,
    );
}
