//! `paper_cold`: the `repro_all` figure set through a [`Runner`] with 2
//! workers and an empty cache.
//!
//! One iteration mirrors `repro_all`: per figure one `Runner::run_batch`,
//! one fold and one emit (`write_json`/`write_csv` into a scratch
//! directory). Every iteration gets a fresh empty cache. The first pass of
//! the loop is untimed and measures the heap. The traced run ends with a
//! warm rerun against the cache of its traced iteration, which measures
//! the runner's cache reads and `serde_json` parsing.
//!
//! Checks: every pass's rendered files, and the warm rerun's, must equal
//! the first pass's byte for byte. At seed 0 and full size that first
//! rendering must equal `results/*`, the checked-in goldens. At any other
//! seed or size it is compared with a 1-worker run on its own empty cache
//! instead. A record carrying an error counts as a failed operation.

use crate::env::{dir_bytes, TempDir};
use crate::trace::{self, Tracer};
use crate::{heap, stats, Opts, Outcome, Pass, Schedule, Size};
use kelp::driver::ExperimentConfig;
use kelp::experiments::{
    backpressure, faults, fleet, knee, mix, overall, remote, sensitivity, timeline,
};
use kelp::report::{write_csv, write_json};
use kelp::runner::{RunRecord, RunSpec, Runner};
use kelp_workloads::{BatchKind, MlWorkloadKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Writes one figure's files into a directory.
type Emitter = Box<dyn FnOnce(&Path) -> io::Result<()>>;

/// Folds a figure's records into the emitter of its result.
type Fold = Box<dyn Fn(&[RunRecord]) -> Emitter>;

/// One figure of the set: its specs and its fold, which returns the
/// emitter for the folded result.
pub struct Figure {
    /// The batch handed to `Runner::run_batch` (empty for Figure 2, which
    /// is computed without the runner).
    pub specs: Vec<RunSpec>,
    fold: Fold,
}

fn json<T: Serialize + 'static>(name: &'static str, value: T) -> Emitter {
    Box::new(move |dir| write_json(dir, name, &value).map(drop))
}

/// Each `paper_cold` set-up sample repeats the figure-set enumeration for
/// at least this long. One enumeration takes tens of microseconds, and on
/// a shared 2-CPU host its time switches between two levels about 1.6x
/// apart for seconds at a time; a sample this long, taken after every
/// pass, averages over those levels instead of landing on one of them.
/// (Taken after the passes, every sample meets the heap a pass leaves
/// behind; enumeration runs faster on the fresh heap before the first.)
const COLD_SETUP_SAMPLE_S: f64 = 0.5;

/// The `repro_all` figure set at `config`, in `repro_all`'s order, with
/// `seed` applied to every spec (`RunSpec::with_seed`; 0 leaves the specs
/// as the paper runs them).
pub fn figure_set(config: &ExperimentConfig, seed: u64) -> Vec<Figure> {
    use BatchKind::{DramAggressor, LlcAggressor, RemoteDramAggressor};
    use MlWorkloadKind::{Cnn1, Cnn2, Rnn1};
    let seeded = |specs: Vec<RunSpec>| -> Vec<RunSpec> {
        if seed == 0 {
            specs
        } else {
            specs.into_iter().map(|s| s.with_seed(seed)).collect()
        }
    };
    let fig5 = [LlcAggressor, DramAggressor];
    let fig15 = [LlcAggressor, DramAggressor, RemoteDramAggressor];
    let offered: Vec<f64> = (0..10).map(|i| 100.0 + 40.0 * f64::from(i)).collect();
    let remote_set = [Cnn1, Cnn2];
    let timeline_config = config.clone();
    let knee_offered = offered.clone();
    let figure = |specs, fold| Figure { specs, fold };
    vec![
        figure(
            Vec::new(),
            Box::new(|_| json("fig02_fleet_bw", fleet::figure2(2019))),
        ),
        figure(
            seeded(timeline::specs(config)),
            Box::new(move |r| json("fig03_timeline", timeline::fold(&timeline_config, r))),
        ),
        figure(
            seeded(sensitivity::specs(&fig5, config)),
            Box::new(move |r| {
                let result = sensitivity::fold(&fig5, r);
                Box::new(move |dir| {
                    write_json(dir, "fig05_sensitivity", &result)?;
                    write_csv(dir, "fig05_sensitivity", &result.table("Figure 5")).map(drop)
                })
            }),
        ),
        figure(
            seeded(backpressure::specs(config)),
            Box::new(|r| json("fig07_backpressure", backpressure::fold(r))),
        ),
        figure(
            seeded(mix::specs(
                Cnn1,
                BatchKind::Stitch,
                &[1, 2, 3, 4, 5, 6],
                config,
            )),
            Box::new(|r| {
                let result = mix::fold(Cnn1, BatchKind::Stitch, &[1, 2, 3, 4, 5, 6], r);
                Box::new(move |dir| {
                    write_json(dir, "fig09_cnn1_stitch", &result)?;
                    write_json(dir, "fig11_params_cnn1_stitch", &result).map(drop)
                })
            }),
        ),
        figure(
            seeded(mix::specs(
                Rnn1,
                BatchKind::CpuMl,
                &[2, 4, 6, 8, 10, 12, 14, 16],
                config,
            )),
            Box::new(|r| {
                let result = mix::fold(Rnn1, BatchKind::CpuMl, &[2, 4, 6, 8, 10, 12, 14, 16], r);
                Box::new(move |dir| {
                    write_json(dir, "fig10_rnn1_cpuml", &result)?;
                    write_json(dir, "fig12_params_rnn1_cpuml", &result).map(drop)
                })
            }),
        ),
        figure(
            seeded(overall::specs(config)),
            Box::new(|r| {
                let result = overall::fold(r);
                Box::new(move |dir| {
                    write_json(dir, "fig13_overall", &result)?;
                    write_csv(dir, "fig13_overall", &result.figure13_table())?;
                    write_csv(dir, "fig14_efficiency", &result.figure14_table()).map(drop)
                })
            }),
        ),
        figure(
            seeded(knee::specs(&offered, config)),
            Box::new(move |r| json("knee_sweep", knee::fold(&knee_offered, r))),
        ),
        figure(
            seeded(sensitivity::specs(&fig15, config)),
            Box::new(move |r| json("fig15_remote_sensitivity", sensitivity::fold(&fig15, r))),
        ),
        figure(
            seeded(remote::specs(&remote_set, config)),
            Box::new(move |r| json("fig16_remote_sweep", remote::fold(&remote_set, r))),
        ),
        figure(
            seeded(faults::specs(config)),
            Box::new(|r| json("ext_fault_matrix", faults::fold(r))),
        ),
    ]
}

/// Which specs count once. `batch` marks the first of each value within
/// its figure's batch (the runner executes duplicates once and clones the
/// record; the rest are cache lookups). `set` marks the first of each value
/// in the whole figure set (the distinct specs whose ticks the set
/// delivers).
struct Firsts {
    batch: Vec<Vec<bool>>,
    set: Vec<Vec<bool>>,
}

impl Firsts {
    fn of(figs: &[Figure]) -> Self {
        let mut seen: Vec<&RunSpec> = Vec::new();
        let mut set = Vec::with_capacity(figs.len());
        let mut batch = Vec::with_capacity(figs.len());
        for f in figs {
            batch.push(
                f.specs
                    .iter()
                    .enumerate()
                    .map(|(i, s)| !f.specs[..i].contains(s))
                    .collect(),
            );
            set.push(
                f.specs
                    .iter()
                    .map(|s| {
                        let first = !seen.contains(&s);
                        if first {
                            seen.push(s);
                        }
                        first
                    })
                    .collect(),
            );
        }
        Firsts { batch, set }
    }

    fn distinct(&self) -> usize {
        self.set.iter().flatten().filter(|&&f| f).count()
    }
}

/// Runs the figure set once through `runner`, rendering into `out`. Spans:
/// `iteration` > `figure` > `runner.run_batch` / `experiments.fold` /
/// `report.emit`, with the figure index as request id.
fn run_set(
    runner: &Runner,
    figs: &[Figure],
    out: &Path,
    tracer: &mut Tracer,
    iteration: u64,
) -> io::Result<Vec<Vec<RunRecord>>> {
    let root = tracer.begin("iteration", iteration);
    let mut all = Vec::with_capacity(figs.len());
    for (k, fig) in figs.iter().enumerate() {
        let req = k as u64;
        let span = tracer.begin("figure", req);
        let records = if fig.specs.is_empty() {
            Vec::new()
        } else {
            tracer.span("runner.run_batch", req, || runner.run_batch(&fig.specs))
        };
        let emit = tracer.span("experiments.fold", req, || (fig.fold)(&records));
        tracer.span("report.emit", req, || emit(out))?;
        tracer.end(span);
        all.push(records);
    }
    tracer.end(root);
    Ok(all)
}

/// Deterministic counts and record-derived layer metrics of one iteration,
/// and the simulated ticks the figure set delivers.
fn record_metrics(
    records: &[Vec<RunRecord>],
    firsts: &Firsts,
) -> (
    BTreeMap<&'static str, f64>,
    BTreeMap<&'static str, f64>,
    f64,
) {
    let (mut hits, mut misses, mut delivered) = (0u64, 0u64, 0u64);
    let mut spec_ms = Vec::new();
    let mut solve = kelp_mem::solver::SolveStats::default();
    let (mut exec_ms, mut ticks) = (0.0, 0u64);
    let flags = firsts
        .batch
        .iter()
        .flatten()
        .zip(firsts.set.iter().flatten());
    for (r, (&batch_first, &set_first)) in records.iter().flatten().zip(flags) {
        if set_first {
            delivered += r.meta.sim_steps;
        }
        if !batch_first {
            continue;
        }
        if r.meta.cached {
            hits += 1;
            continue;
        }
        misses += 1;
        if r.is_error() {
            continue;
        }
        exec_ms += r.meta.wall_ms;
        ticks += r.meta.sim_steps;
        spec_ms.push(r.meta.wall_ms);
        solve.absorb(&r.meta.solve);
    }
    let mut counts = BTreeMap::new();
    counts.insert("runner.cache_hits", hits as f64);
    counts.insert("runner.cache_misses", misses as f64);
    counts.insert("driver.ticks", ticks as f64);
    crate::fleet::insert_solve_counts(&mut counts, &solve);

    let mut layers = BTreeMap::new();
    let lookups = hits + misses;
    layers.insert(
        "runner.cache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
    );
    let exec_s = exec_ms / 1e3;
    let step_s = solve.solve_ns as f64 / 1e9;
    layers.insert("driver.exec_s", exec_s);
    layers.insert(
        "driver.ns_per_tick",
        if ticks == 0 {
            0.0
        } else {
            exec_s * 1e9 / ticks as f64
        },
    );
    layers.insert("host.step_s", step_s);
    layers.insert("driver.self_s", exec_s - step_s);
    layers.insert(
        "host.memo_hit_ratio",
        if solve.solves == 0 {
            0.0
        } else {
            solve.memo_hits as f64 / solve.solves as f64
        },
    );
    layers.insert("driver.spec_ms_p50", stats::percentile(&spec_ms, 50.0));
    layers.insert(
        "driver.spec_ms_p90",
        stats::admitted_percentile(&spec_ms, 90.0).1,
    );
    layers.insert("driver.spec_samples", spec_ms.len() as f64);
    (counts, layers, delivered as f64)
}

/// Byte-for-byte comparison of every file in `actual` against the file of
/// the same name in `expected`; one message per difference.
pub fn compare_dirs(actual: &Path, expected: &Path, what: &str) -> Vec<String> {
    let mut names: Vec<_> = match std::fs::read_dir(actual) {
        Ok(entries) => entries.flatten().map(|e| e.file_name()).collect(),
        Err(e) => return vec![format!("cannot list {}: {e}", actual.display())],
    };
    names.sort();
    if names.is_empty() {
        return vec![format!("no files rendered in {}", actual.display())];
    }
    names
        .iter()
        .filter_map(|name| {
            let a = std::fs::read(actual.join(name)).ok();
            let b = std::fs::read(expected.join(name)).ok();
            match (a, b) {
                (Some(a), Some(b)) if a == b => None,
                (_, None) => Some(format!(
                    "{what}: {} has no counterpart",
                    name.to_string_lossy()
                )),
                _ => Some(format!("{what}: {} differs", name.to_string_lossy())),
            }
        })
        .collect()
}

/// The on-disk cache entry layout (`{spec, record}`), parsed by the
/// `json.parse` probe exactly as the runner parses it.
#[derive(Deserialize)]
struct CacheEntry {
    #[allow(dead_code)]
    spec: RunSpec,
    #[allow(dead_code)]
    record: RunRecord,
}

/// `json.parse_*`: `serde_json::from_str` timed over every cache entry.
fn parse_probe(cache: &Path, layers: &mut BTreeMap<&'static str, f64>) -> Vec<String> {
    let mut errors = Vec::new();
    let (mut secs, mut bytes) = (0.0, 0usize);
    let mut paths: Vec<_> = std::fs::read_dir(cache)
        .map(|entries| entries.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    paths.sort();
    for path in paths {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let t = Instant::now();
        let parsed = serde_json::from_str::<CacheEntry>(black_box(&text));
        secs += t.elapsed().as_secs_f64();
        bytes += text.len();
        if parsed.is_err() {
            errors.push(format!("cache entry {} does not parse", path.display()));
        }
    }
    layers.insert("json.parse_s", secs);
    layers.insert("json.parse_bytes", bytes as f64);
    layers.insert(
        "json.parse_mb_per_s",
        if secs > 0.0 {
            bytes as f64 / secs / 1e6
        } else {
            0.0
        },
    );
    errors
}

/// `runner.hash_us_per_spec`: `RunSpec::hash` over every spec of the set,
/// repeated for at least 50 ms.
fn hash_probe(figs: &[Figure]) -> f64 {
    let specs: Vec<&RunSpec> = figs.iter().flat_map(|f| &f.specs).collect();
    if specs.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || t.elapsed().as_secs_f64() < 0.05 {
        for s in &specs {
            black_box(black_box(*s).hash());
        }
        calls += specs.len();
    }
    t.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// One `paper_cold` set-up sample: seconds per `figure_set` enumeration,
/// averaged over repeats lasting at least [`COLD_SETUP_SAMPLE_S`].
fn enumeration_s(config: &ExperimentConfig, seed: u64) -> f64 {
    let t = Instant::now();
    let mut n = 0u32;
    while n == 0 || t.elapsed().as_secs_f64() < COLD_SETUP_SAMPLE_S {
        black_box(figure_set(config, seed));
        n += 1;
    }
    t.elapsed().as_secs_f64() / f64::from(n)
}

/// Counts a set's records as checked operations, those carrying an error
/// as failed.
fn tally(out: &mut Outcome, records: &[Vec<RunRecord>]) {
    for r in records.iter().flatten() {
        out.attempted += 1;
        out.failed += u64::from(r.is_error());
    }
}

/// The warm-rerun probe of the traced run: the figure set once more,
/// untraced, through a fresh `Runner` on `cache`, the cache the traced
/// iteration filled. Every spec must be a cache hit and the rendering must
/// equal `reference`. It gives `runner.warm_rerun_s` and
/// `runner.warm_hit_ratio`, and stands in for a `paper_warm` workload,
/// whose `serde_json`-bound iterations swung between runs beyond any usable
/// bound.
fn warm_probe(
    opts: &Opts,
    config: &ExperimentConfig,
    firsts: &Firsts,
    cache: &Path,
    reference: &Path,
    out: &mut Outcome,
) -> io::Result<()> {
    let figs = figure_set(config, opts.seed);
    let render = TempDir::new("warm")?;
    let runner = Runner::new(opts.workers).with_cache(cache);
    let t = Instant::now();
    let records = run_set(&runner, &figs, render.path(), &mut Tracer::new(false), 0)?;
    let wall = t.elapsed().as_secs_f64();
    drop(runner);
    tally(out, &records);
    let (counts, layers, _) = record_metrics(&records, firsts);
    if counts["runner.cache_misses"] > 0.0 {
        out.errors.push(format!(
            "warm rerun missed the cache {} times",
            counts["runner.cache_misses"]
        ));
    }
    out.errors.extend(compare_dirs(
        render.path(),
        reference,
        "warm rerun vs pass 0",
    ));
    out.layers.insert("runner.warm_rerun_s", wall);
    out.layers
        .insert("runner.warm_hit_ratio", layers["runner.cache_hit_ratio"]);
    Ok(())
}

/// Runs `paper_cold`.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(opts, &mut out) {
        out.errors.push(format!("i/o error: {e}"));
    }
    out
}

fn run_inner(opts: &Opts, out: &mut Outcome) -> io::Result<()> {
    let config = match opts.size {
        Size::Full => ExperimentConfig::default(),
        Size::Tiny => ExperimentConfig::quick(),
    };
    let golden = opts.seed == 0 && opts.size == Size::Full;
    let mut tracer = Tracer::new(false);
    let reference_figs = figure_set(&config, opts.seed);
    let firsts = Firsts::of(&reference_figs);

    // Set-up is enumerating the figure set (the runner creates its empty
    // cache directory itself), sampled after each pass. The traced
    // iteration's cache is kept for the warm-rerun probe.
    let caches = TempDir::new("cache")?;
    let mut first_out: Option<TempDir> = None;
    let mut warm_cache = None;
    let mut schedule = Schedule::new(opts);
    let mut traced_layers = Vec::new();
    let mut iteration = 0usize;
    while let Some(pass) = schedule.next_pass() {
        let figs = figure_set(&config, opts.seed);
        let cache_path = caches.path().join(format!("cold-{iteration}"));
        let render = TempDir::new("out")?;
        let traced = pass == Pass::Traced;
        tracer.set_enabled(traced);
        let span_start = tracer.spans().len();

        let run = |tracer: &mut Tracer| {
            let runner = Runner::new(opts.workers).with_cache(&cache_path);
            let records = run_set(&runner, &figs, render.path(), tracer, iteration as u64);
            (records, runner)
        };
        let t = Instant::now();
        let (records, runner) = if pass == Pass::Heap {
            let (result, peak) = heap::measure(|| run(&mut tracer));
            out.peak_heap_bytes = peak;
            result
        } else {
            run(&mut tracer)
        };
        let wall = t.elapsed().as_secs_f64();
        tracer.set_enabled(false);
        drop(runner);
        let records = records?;

        tally(out, &records);
        let (counts, mut layers, delivered) = record_metrics(&records, &firsts);
        out.steps_per_iter = delivered;
        out.record_counts(iteration, counts);
        if let Some(reference) = &first_out {
            out.errors.extend(compare_dirs(
                render.path(),
                reference.path(),
                &format!("pass {iteration} vs pass 0"),
            ));
        }
        match pass {
            Pass::Heap => {}
            Pass::Untraced => out.wall_s.push(wall),
            Pass::Traced => {
                let spans = &tracer.spans()[span_start..];
                let batch_s = trace::total_s(spans, "runner.run_batch");
                layers.insert("runner.batch_s", batch_s);
                layers.insert(
                    "runner.worker_idle_s",
                    opts.workers as f64 * batch_s - layers["driver.exec_s"],
                );
                layers.insert(
                    "experiments.fold_s",
                    trace::total_s(spans, "experiments.fold"),
                );
                layers.insert("json.emit_s", trace::total_s(spans, "report.emit"));
                layers.insert("json.emit_bytes", dir_bytes(render.path()) as f64);
                layers.insert("runner.cache_bytes", dir_bytes(&cache_path) as f64);
                traced_layers.push(layers);
                out.traced_wall_s.push(wall);
            }
        }
        if first_out.is_none() {
            first_out = Some(render);
        }
        if traced && warm_cache.is_none() {
            warm_cache = Some(cache_path);
        } else {
            std::fs::remove_dir_all(&cache_path)?;
        }
        out.setup_s.push(enumeration_s(&config, opts.seed));
        iteration += 1;
    }

    // Reference check of the first rendering.
    let Some(rendered) = first_out else {
        return Ok(());
    };
    if golden {
        out.errors.extend(compare_dirs(
            rendered.path(),
            Path::new("results"),
            "golden results/",
        ));
    } else {
        let serial_out = TempDir::new("serial")?;
        let figs = figure_set(&config, opts.seed);
        let serial = Runner::new(1).with_cache(caches.path().join("serial"));
        let records = run_set(&serial, &figs, serial_out.path(), &mut tracer, 0)?;
        tally(out, &records);
        out.errors.extend(compare_dirs(
            rendered.path(),
            serial_out.path(),
            &format!("{} workers vs 1 worker", opts.workers),
        ));
    }

    out.size_label = format!(
        "{} config: {} figures, {} distinct specs, {:.1}M simulated ticks",
        opts.size.name(),
        reference_figs.len(),
        firsts.distinct(),
        out.steps_per_iter / 1e6
    );
    if opts.trace {
        out.set_layers_from(&traced_layers);
        out.layers
            .insert("runner.hash_us_per_spec", hash_probe(&reference_figs));
        if let Some(cache) = &warm_cache {
            warm_probe(opts, &config, &firsts, cache, rendered.path(), out)?;
            let errors = parse_probe(cache, &mut out.layers);
            out.errors.extend(errors);
        }
        out.finish_trace(tracer.spans(), "iteration");
        crate::write_spans(opts, &tracer);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_dirs_reports_differences_and_missing_files() {
        let a = TempDir::new("cmp-a").expect("scratch dir");
        let b = TempDir::new("cmp-b").expect("scratch dir");
        std::fs::write(a.path().join("same.json"), "1").expect("write");
        std::fs::write(b.path().join("same.json"), "1").expect("write");
        assert!(compare_dirs(a.path(), b.path(), "t").is_empty());
        std::fs::write(a.path().join("other.json"), "2").expect("write");
        std::fs::write(b.path().join("other.json"), "3").expect("write");
        std::fs::write(a.path().join("extra.json"), "4").expect("write");
        let diffs = compare_dirs(a.path(), b.path(), "t");
        assert_eq!(
            diffs,
            vec!["t: extra.json has no counterpart", "t: other.json differs"]
        );
        let empty = TempDir::new("cmp-empty").expect("scratch dir");
        assert_eq!(compare_dirs(empty.path(), b.path(), "t").len(), 1);
    }

    #[test]
    fn firsts_separate_batch_duplicates_from_cross_figure_repeats() {
        let config = ExperimentConfig::quick();
        let figs = figure_set(&config, 0);
        let firsts = Firsts::of(&figs);
        let batch: usize = firsts.batch.iter().flatten().filter(|&&f| f).count();
        let total: usize = figs.iter().map(|f| f.specs.len()).sum();
        // Figures 5 and 15 share specs, so the set has fewer distinct specs
        // than batch-level lookups, and duplicates within a batch exist.
        assert!(firsts.distinct() < batch);
        assert!(batch < total);
        assert_eq!(figure_set(&config, 7).len(), figs.len());
        assert!(figure_set(&config, 7)
            .iter()
            .flat_map(|f| &f.specs)
            .all(|s| s.seed == 7));
    }
}
