//! Runs `raven-bench all --quick` (1–2 k-row tables, 1 s runs) twice
//! and checks the contract between the binary and `BENCHMARK.json`:
//! the same names on both sides, within the limits, zero failed
//! operations, each workload inside the result-cache band that makes it
//! isolate its layers, and the counts that must repeat exactly.

use raven_perfbench::compare::Benchmark;
use raven_perfbench::json::Json;
use raven_perfbench::spec;
use std::path::Path;
use std::process::Command;

fn benchmark() -> Benchmark {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Benchmark::parse(&std::fs::read_to_string(&path).expect("read BENCHMARK.json"))
        .expect("parse BENCHMARK.json")
}

fn quick_all(tag: &str) -> Json {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("quick-{tag}.json"));
    let status = Command::new(env!("CARGO_BIN_EXE_raven-bench"))
        .args(["all", "--quick", "--seed", "7", "--out"])
        .arg(&out)
        .status()
        .expect("run raven-bench");
    assert!(status.success(), "raven-bench all --quick failed: {status}");
    Json::parse(&std::fs::read_to_string(&out).expect("read results")).expect("parse results")
}

/// The single value a one-run result file holds for a metric.
fn value(results: &Json, workload: &str, section: &str, metric: &str) -> f64 {
    results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(section))
        .and_then(|s| s.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Json::as_arr)
        .and_then(|v| v.first())
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{workload}/{section}/{metric} missing"))
}

fn names(results: &Json, workload: &str, section: &str) -> Vec<String> {
    results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(section))
        .and_then(Json::as_obj)
        .unwrap_or_else(|| panic!("{workload}/{section} missing"))
        .iter()
        .map(|(name, _)| name.clone())
        .collect()
}

fn counts(results: &Json, workload: &str, key: &str) -> Vec<f64> {
    results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(key))
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{workload}/{key} missing"))
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

#[test]
fn benchmark_json_and_spec_name_the_same_things() {
    let b = benchmark();
    assert_eq!(b.workloads, spec::WORKLOADS);
    let declared: Vec<(&str, &str)> = b
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    assert_eq!(declared, spec::END_TO_END);
    let per_layer: Vec<(String, String)> = spec::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(b.per_layer, per_layer);
    assert!(b.workloads.len() <= 8 && b.end_to_end.len() <= 16 && b.per_layer.len() <= 128);
    assert!(b
        .end_to_end
        .iter()
        .all(|m| m.bound > 0.0 && m.bound <= 0.25));
    let setup = b
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert!(!setup.higher_is_better && setup.unit == "s");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs the benchmark, which measures optimized builds only: cargo test --release"
)]
fn quick_run_emits_every_named_metric_correctly_and_repeatably() {
    let b = benchmark();
    let first = quick_all("first");
    for workload in &b.workloads {
        // Every name of BENCHMARK.json is emitted, and nothing else.
        let declared: Vec<String> = b.end_to_end.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names(&first, workload, "end_to_end"), declared);
        let declared: Vec<String> = b.per_layer.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(names(&first, workload, "per_layer"), declared);
        // End-to-end metrics are never zero; nothing failed.
        for metric in &b.end_to_end {
            let v = value(&first, workload, "end_to_end", &metric.name);
            assert!(v > 0.0, "{workload}/{} = {v}", metric.name);
        }
        assert!(counts(&first, workload, "attempted")
            .iter()
            .all(|&n| n >= 1.0));
        assert!(
            counts(&first, workload, "failed").iter().all(|&n| n == 0.0),
            "{workload} had failed operations"
        );
        let missed = value(&first, workload, "per_layer", "loadgen.slo_miss_share");
        assert!(
            missed <= 0.01,
            "{workload} missed its latency limit on {missed}"
        );
    }

    // The result-cache bands that make the workloads isolate their
    // layers. (serve_churn's committed band is 0.88–0.92; a 0.35 s window
    // holds only a handful of writes, so the quick check is wider.)
    let hit_share = |w| value(&first, w, "per_layer", "server.result_cache.hit_share");
    let plan_share = |w| value(&first, w, "per_layer", "server.cache.plan_hit_share");
    assert!(
        hit_share(spec::SERVE_HOT) >= 0.99,
        "{}",
        hit_share(spec::SERVE_HOT)
    );
    assert!(
        hit_share(spec::SERVE_EXEC) <= 0.10,
        "{}",
        hit_share(spec::SERVE_EXEC)
    );
    assert!(
        plan_share(spec::SERVE_EXEC) >= 0.99,
        "{}",
        plan_share(spec::SERVE_EXEC)
    );
    let churn = hit_share(spec::SERVE_CHURN);
    assert!(
        (0.75..=0.97).contains(&churn),
        "serve_churn hit share {churn}"
    );
    assert!(value(&first, spec::SERVE_CHURN, "per_layer", "loadgen.writes") >= 1.0);
    assert!(
        value(
            &first,
            spec::SERVE_CHURN,
            "per_layer",
            "server.result_cache.invalidations"
        ) >= 1.0
    );
    for quiet in [spec::SERVE_EXEC, spec::SERVE_HOT] {
        assert_eq!(value(&first, quiet, "per_layer", "loadgen.writes"), 0.0);
    }
    // rel_only is the control without a scorer.
    assert_eq!(
        value(
            &first,
            spec::BATCH_INFER,
            "per_layer",
            "runtime.scorer_us.rel_only"
        ),
        0.0
    );
    assert!(
        value(
            &first,
            spec::BATCH_INFER,
            "per_layer",
            "runtime.scorer_us.forest_kernel"
        ) > 0.0
    );
    // The reactor's inline fast path records no spans: all of a hot
    // request's latency is unattributed today.
    assert!(
        value(
            &first,
            spec::SERVE_HOT,
            "per_layer",
            "server.stage.unattributed_share"
        ) > 0.9
    );

    // Same seed, second invocation: the counts that depend only on the
    // generated inputs repeat exactly.
    let second = quick_all("second");
    let prepared = |r| {
        value(
            r,
            spec::SERVE_EXEC,
            "per_layer",
            "server.cache.preparations",
        )
    };
    assert_eq!(
        prepared(&first),
        4.0,
        "one preparation per serve_exec template"
    );
    assert_eq!(prepared(&first), prepared(&second));
    assert_eq!(
        counts(&first, spec::POINT_SCORE, "attempted"),
        counts(&second, spec::POINT_SCORE, "attempted"),
        "the Poisson schedule is a function of the seed"
    );
    for exact in ["opt.rules_fired_literal", "opt.rules_fired_param"] {
        assert_eq!(
            value(&first, spec::SERVE_EXEC, "per_layer", exact),
            value(&second, spec::SERVE_EXEC, "per_layer", exact)
        );
    }
}

/// FNV-1a over the SQL text of the first `n` requests connection `conn`
/// would send.
fn request_sequence_hash(seed: u64, conn: usize, n: usize) -> u64 {
    use raven_perfbench::loadgen::RequestStream;
    use raven_perfbench::workloads::{Scale, ServeFixture, ServeKind};
    let fixture = ServeFixture::build(ServeKind::Exec, seed, Scale::QUICK, false);
    let mut stream = RequestStream::new(seed, conn, fixture.pool.len());
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..n {
        for byte in fixture.pool[stream.next_index()].sql.bytes() {
            hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn the_request_sequence_is_a_function_of_the_seed() {
    assert_eq!(
        request_sequence_hash(7, 0, 2_000),
        request_sequence_hash(7, 0, 2_000)
    );
    assert_ne!(
        request_sequence_hash(7, 0, 2_000),
        request_sequence_hash(8, 0, 2_000)
    );
    assert_ne!(
        request_sequence_hash(7, 0, 2_000),
        request_sequence_hash(7, 1, 2_000)
    );
}
