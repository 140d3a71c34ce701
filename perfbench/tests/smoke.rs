//! Tiny-size smoke runs of every workload, traced, through the library.

use perfbench::{metrics, run, Opts, Outcome, Size, Workload};

fn smoke(workload: Workload) -> Outcome {
    let out = run(&Opts {
        workload,
        seed: 0,
        seconds: 0.0,
        trace: true,
        size: Size::Tiny,
        workers: 2,
    });
    assert!(
        out.errors.is_empty(),
        "{}: {:?}",
        workload.name(),
        out.errors
    );
    assert_eq!(out.failed, 0, "{}", workload.name());
    assert!(out.attempted > 0);
    assert_eq!(out.wall_s.len(), 2, "two untraced iterations");
    assert_eq!(out.traced_wall_s.len(), 1, "one traced iteration");
    assert!(!out.setup_s.is_empty());
    assert!(out.steps_per_iter > 0.0);
    assert!(
        out.layers["trace.span_coverage"] >= 0.95,
        "{}: spans cover {}",
        workload.name(),
        out.layers["trace.span_coverage"]
    );
    assert!(!out.waterfall.is_empty());
    for name in out.layers.keys().chain(out.counts.keys()) {
        assert!(
            metrics::lookup(name).is_some(),
            "{name} is not in the catalog"
        );
    }
    out
}

#[test]
fn paper_cold_smoke() {
    let out = smoke(Workload::PaperCold);
    assert!(out.counts["runner.cache_misses"] > 0.0);
    assert!(out.counts["driver.ticks"] > 0.0);
    assert!(out.layers["runner.batch_s"] > 0.0);
    assert!(out.layers["json.emit_bytes"] > 0.0);
    // The traced run's warm rerun covers the cache-read path.
    assert_eq!(out.layers["runner.warm_hit_ratio"], 1.0);
    assert!(out.layers["runner.warm_rerun_s"] > 0.0);
    assert!(out.layers["json.parse_bytes"] > 0.0);
}

#[test]
fn fleet_steady_smoke() {
    let out = smoke(Workload::FleetSteady);
    assert!(out.counts["batch.adaptive_skips"] > 0.0);
    assert!(out.layers["fleet.step_s"] > 0.0);
    assert!(out.layers["fleet.tick_samples"] > 0.0);
    // The traced run's fault-matrix probe covers workloads::resilient.
    assert!(out.layers["resilient.tick_samples"] > 0.0);
    assert!(out.layers["resilient.displaced_jobs"] > 0.0);
}

#[test]
fn catalog_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<(String, String, String)> {
        let serde::Value::Map(top) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let Some((_, serde::Value::Seq(items))) = top.iter().find(|(k, _)| k == key) else {
            panic!("BENCHMARK.json has no {key} list")
        };
        items
            .iter()
            .map(|item| {
                let serde::Value::Map(fields) = item else {
                    panic!("{key} entry is not an object")
                };
                let get = |f: &str| match fields.iter().find(|(k, _)| k == f) {
                    Some((_, serde::Value::Str(s))) => s.clone(),
                    _ => panic!("{key} entry lacks {f}"),
                };
                (get("name"), get("unit"), get("better"))
            })
            .collect()
    };
    let catalog = |ms: &[metrics::Metric]| -> Vec<(String, String, String)> {
        ms.iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect()
    };
    assert_eq!(list("end_to_end"), catalog(&metrics::END_TO_END));
    assert_eq!(list("per_layer"), catalog(&metrics::PER_LAYER));
}
