//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <paper_cold|fleet_steady>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. Prints one row per metric (with host
//! fingerprint, commit, worker count and workload size), the per-layer
//! self-time waterfall when tracing, the quartile spread of the timed
//! samples, and as the last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Exits 1 when
//! an output check fails (golden or serial/batched mismatch, count drift)
//! and 2 on a usage error.

use perfbench::env::{self, SCRATCH_ROOT};
use perfbench::metrics::{self, Metric};
use perfbench::{stats, Opts, Outcome, Size, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

#[global_allocator]
static HEAP: perfbench::heap::Counting = perfbench::heap::Counting;

const USAGE: &str = "usage: perfbench --workload <paper_cold|fleet_steady> \
[--seed N] [--seconds S] [--trace 0|1]";

struct Cli {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0, 30.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The metric values a run reports: end-to-end or per-layer.
fn report(outcome: &Outcome, trace: bool) -> Vec<(&'static Metric, f64)> {
    if trace {
        return metrics::PER_LAYER
            .iter()
            .map(|m| {
                let v = outcome
                    .layers
                    .get(m.name)
                    .or_else(|| outcome.counts.get(m.name))
                    .copied()
                    .unwrap_or(0.0);
                (m, v)
            })
            .collect();
    }
    let wall = stats::median(&outcome.wall_s);
    let values = [
        stats::median(&outcome.setup_s),
        wall,
        if wall > 0.0 {
            outcome.steps_per_iter / wall
        } else {
            0.0
        },
        outcome.peak_heap_bytes as f64 / (1024.0 * 1024.0),
    ];
    metrics::END_TO_END.iter().zip(values).collect()
}

/// Compares this run's deterministic counts with an earlier run of the
/// same build, workload, size and seed (recorded under `SCRATCH_ROOT`), or
/// records them when there is none.
fn check_counts_across_runs(opts: &Opts, counts: &BTreeMap<&'static str, f64>) -> Vec<String> {
    let dir = Path::new(SCRATCH_ROOT).join("counts");
    let path = dir.join(format!(
        "{}-{}-seed{}-{}.txt",
        opts.workload.name(),
        opts.size.name(),
        opts.seed,
        env::exe_digest()
    ));
    let mut text = String::new();
    for (name, value) in counts {
        let _ = writeln!(text, "{name} {value}");
    }
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous == text => Vec::new(),
        Ok(previous) => {
            let now: Vec<&str> = text.lines().collect();
            previous
                .lines()
                .filter(|line| !now.contains(line))
                .map(|line| format!("count drift across runs: was {line}, now differs"))
                .collect()
        }
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text));
            Vec::new()
        }
    }
}

/// Prints the traced run's self-time waterfall, the split of the worker
/// time inside `Runner::run_batch` that `RunMeta` reports, the tracing
/// overhead and the span coverage.
fn print_waterfall(workload: Workload, outcome: &Outcome) {
    let layer = |name: &str| outcome.layers.get(name).copied().unwrap_or(0.0);
    let total: f64 = outcome.waterfall.iter().map(|r| r.1).sum();
    println!(
        "# {} self-time waterfall (traced iterations)",
        workload.name()
    );
    for (name, secs) in &outcome.waterfall {
        let share = if total > 0.0 {
            100.0 * secs / total
        } else {
            0.0
        };
        println!("#   {name:<22} {secs:>10.4} s {share:>6.1}%");
    }
    if layer("driver.exec_s") > 0.0 {
        println!(
            "#   inside runner.run_batch, per RunMeta: host.step {:.4} s, driver self {:.4} s, worker idle {:.4} s (worker-seconds)",
            layer("host.step_s"),
            layer("driver.self_s"),
            layer("runner.worker_idle_s")
        );
    }
    println!(
        "# tracing overhead {:+.4} s per iteration; spans cover {:.1}% of traced wall time",
        layer("trace.overhead_s"),
        100.0 * layer("trace.span_coverage")
    );
}

/// Prints a run's samples of one time with their median and quartile
/// spread, the figure its end-to-end metric is judged by across runs.
fn print_samples(name: &str, samples: &[f64]) {
    let list: Vec<String> = samples.iter().map(|x| format!("{x:.6}")).collect();
    println!(
        "# {name}: median {:.6} s, quartile spread {:.1}% over {} samples: {}",
        stats::median(samples),
        100.0 * stats::spread(samples),
        samples.len(),
        list.join(" ")
    );
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(SCRATCH_ROOT) {
        eprintln!("perfbench: cannot create {SCRATCH_ROOT}: {e}");
        std::process::exit(2);
    }
    let workload = cli.workload;
    let host = env::host_fingerprint();
    let commit = env::commit();
    let opts = Opts {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        size: Size::Full,
        workers: env::workers(),
    };

    let mut outcome = perfbench::run(&opts);
    let drift = check_counts_across_runs(&opts, &outcome.counts);
    outcome.errors.extend(drift);
    for e in &outcome.errors {
        eprintln!("perfbench: {}: CHECK FAILED: {e}", workload.name());
    }
    let correct = outcome.errors.is_empty() && outcome.failed == 0 && outcome.attempted > 0;

    let mut json_metrics = Vec::new();
    println!("workload\tmetric\tvalue\tunit\tlayer\thost\tcommit\tworkers\tseed\tsize");
    for (m, v) in report(&outcome, cli.trace) {
        println!(
            "{}\t{}\t{v}\t{}\t{}\t{host}\t{commit}\t{}\t{}\t{}",
            workload.name(),
            m.name,
            m.unit,
            m.layer,
            opts.workers,
            cli.seed,
            outcome.size_label
        );
        json_metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(v),
            m.unit
        ));
    }
    if cli.trace {
        print_waterfall(workload, &outcome);
    }
    print_samples("setup_s", &outcome.setup_s);
    print_samples("wall_s", &outcome.wall_s);
    if cli.trace {
        print_samples("traced wall_s", &outcome.traced_wall_s);
    }
    println!(
        "# {}: {} timed iterations, {} set-ups, {} checked operations, {} failed, VmHWM {:.1} MB, {}",
        workload.name(),
        outcome.wall_s.len() + outcome.traced_wall_s.len(),
        outcome.setup_s.len(),
        outcome.attempted,
        outcome.failed,
        env::peak_rss_mb(),
        if outcome.errors.is_empty() {
            "outputs verified"
        } else {
            "OUTPUT CHECK FAILED"
        }
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        json_metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
