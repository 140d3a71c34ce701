//! The benchmark's metric catalog: every end-to-end and per-layer metric
//! with its unit, direction and layer. `BENCHMARK.json` lists the same
//! names, units and directions (a test keeps the two in step); `README.md`
//! gives, per layer, the end-to-end metric and workload each per-layer
//! metric is predicted to move.

/// One metric of the catalog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The repository module the metric measures.
    pub layer: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer,
    }
}

/// End-to-end metrics, reported per workload with tracing off.
pub const END_TO_END: [Metric; 4] = [
    m("setup_s", "s", "lower", "end-to-end"),
    m("wall_s", "s", "lower", "end-to-end"),
    m("host_steps_per_s", "1/s", "higher", "end-to-end"),
    m("peak_heap_mb", "MB", "lower", "end-to-end"),
];

const RUNNER: &str = "core::runner";
const DRIVER: &str = "core::driver";
const HOST: &str = "host::machine";
const MEM: &str = "mem::solver";
const BATCH: &str = "host::batch";
const FLEET: &str = "workloads::fleet";
const RESILIENT: &str = "workloads::resilient";
const EXPERIMENTS: &str = "core::experiments";
const JSON: &str = "core::report+serde_json";
const TRACE: &str = "tracing";

/// Per-layer metrics, reported by the traced run (`--trace 1`). Every
/// workload reports all of them; a layer the workload leaves idle reads 0.
pub const PER_LAYER: [Metric; 55] = [
    m("runner.batch_s", "s", "lower", RUNNER),
    m("runner.worker_idle_s", "s", "lower", RUNNER),
    m("runner.hash_us_per_spec", "us", "lower", RUNNER),
    m("runner.cache_hits", "count", "higher", RUNNER),
    m("runner.cache_misses", "count", "lower", RUNNER),
    m("runner.cache_hit_ratio", "ratio", "higher", RUNNER),
    m("runner.cache_bytes", "B", "lower", RUNNER),
    m("runner.warm_rerun_s", "s", "lower", RUNNER),
    m("runner.warm_hit_ratio", "ratio", "higher", RUNNER),
    m("driver.exec_s", "s", "lower", DRIVER),
    m("driver.ticks", "count", "lower", DRIVER),
    m("driver.ns_per_tick", "ns", "lower", DRIVER),
    m("driver.self_s", "s", "lower", DRIVER),
    m("driver.spec_ms_p50", "ms", "lower", DRIVER),
    m("driver.spec_ms_p90", "ms", "lower", DRIVER),
    m("driver.spec_samples", "count", "higher", DRIVER),
    m("host.step_s", "s", "lower", HOST),
    m("host.steps", "count", "lower", HOST),
    m("host.memo_hit_ratio", "ratio", "higher", HOST),
    m("mem.computed_solves", "count", "lower", MEM),
    m("mem.iterations", "count", "lower", MEM),
    m("mem.evaluations", "count", "lower", MEM),
    m("mem.evals_per_solve", "ratio", "lower", MEM),
    m("mem.warm_hits", "count", "higher", MEM),
    m("mem.non_converged", "count", "lower", MEM),
    m("mem.rescues", "count", "lower", MEM),
    m("mem.safe_states", "count", "lower", MEM),
    m("batch.adaptive_skips", "count", "higher", BATCH),
    m("batch.skip_ratio", "ratio", "higher", BATCH),
    m("batch.memo_hits", "count", "higher", BATCH),
    m("batch.lanes_solved", "count", "lower", BATCH),
    m("batch.lanes_converged", "count", "higher", BATCH),
    m("batch.lane_fallbacks", "count", "lower", BATCH),
    m("batch.down_steps", "count", "lower", BATCH),
    m("fleet.churn_s", "s", "lower", FLEET),
    m("fleet.step_s", "s", "lower", FLEET),
    m("fleet.tick_ms_p50", "ms", "lower", FLEET),
    m("fleet.tick_ms_p99", "ms", "lower", FLEET),
    m("fleet.tick_samples", "count", "higher", FLEET),
    m("resilient.tick_ms_p50", "ms", "lower", RESILIENT),
    m("resilient.tick_ms_p99", "ms", "lower", RESILIENT),
    m("resilient.tick_samples", "count", "higher", RESILIENT),
    m("resilient.safe_state_steps", "count", "lower", RESILIENT),
    m("resilient.rescued_steps", "count", "lower", RESILIENT),
    m("resilient.reschedules", "count", "lower", RESILIENT),
    m("resilient.displaced_jobs", "count", "lower", RESILIENT),
    m("experiments.fold_s", "s", "lower", EXPERIMENTS),
    m("json.emit_s", "s", "lower", JSON),
    m("json.emit_bytes", "B", "lower", JSON),
    m("json.parse_s", "s", "lower", JSON),
    m("json.parse_bytes", "B", "lower", JSON),
    m("json.parse_mb_per_s", "MB/s", "higher", JSON),
    m("trace.overhead_s", "s", "lower", TRACE),
    m("trace.span_coverage", "ratio", "higher", TRACE),
    m("trace.iterations", "count", "higher", TRACE),
];

/// Catalog entry for `name`, end-to-end or per-layer.
pub fn lookup(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}
