//! Figure-by-figure reproduction of the Raven paper's evaluation.
//!
//! Run with `cargo bench -p raven-bench --bench figures`. Each section
//! prints the series of one paper figure (or in-text number); the
//! measured record lives in `perfbench/README.md`.
//!
//! Default sweeps cap at 1M rows; set `RAVEN_BENCH_FULL=1` for the paper's
//! full 10M-row Fig. 3 sweep.

use raven_bench::{full_scale, ms, sweep_sizes, time_mean, time_mean_cold};
use raven_core::{RavenSession, SessionConfig};
use raven_datagen::{flights, hospital, train};
use raven_ir::{Device, ExecutionMode, Plan};
use raven_ml::translate::{translate_pipeline, INPUT_NAME};
use raven_ml::{Estimator, Pipeline};
use raven_opt::rules::clustering::{specialize_per_cluster, ClusteredModel};
use raven_opt::rules::model_utils::shrink_pipeline;
use raven_opt::RuleSet;
use raven_tensor::{
    serialize as graph_serialize, Device as TensorDevice, InferenceSession, SessionOptions, Tensor,
};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    println!("=== raven-rs: reproduction of the paper's evaluation ===");
    println!(
        "mode: {} (set RAVEN_BENCH_FULL=1 for paper-scale sweeps)\n",
        if full_scale() { "FULL" } else { "default" }
    );
    fig2a_model_projection_pushdown();
    fig2b_model_clustering();
    fig2c_model_inlining();
    fig2d_nn_translation();
    fig3_raven_vs_ort();
    text_static_analysis();
    text_predicate_pruning();
    text_categorical_pruning();
    text_batching();
    println!("\n=== done; the measured record lives in perfbench/README.md ===");
}

/// Paper Fig. 2(a): model-projection pushdown on the flight-delay
/// logistic regression at two L1-induced sparsity levels
/// (paper: 41.75% → ~1.7×, 80.96% → ~5.3×).
fn fig2a_model_projection_pushdown() {
    println!("--- Fig 2(a): model-projection pushdown (flight delay, LR) ---");
    let n = if full_scale() { 1_000_000 } else { 300_000 };
    let data = flights::generate(n, &flights::FlightParams::default());
    let train_data = flights::generate(30_000, &flights::FlightParams::default());
    for (label, l1) in [("moderate-L1", 0.004f64), ("strong-L1", 0.02)] {
        let model = train::flight_logistic(&train_data, l1, 250).expect("train");
        let sparsity = match model.estimator() {
            Estimator::Linear(m) => m.sparsity() * 100.0,
            _ => unreachable!(),
        };
        let shrunk = shrink_pipeline(&model)
            .expect("shrink")
            .unwrap_or_else(|| model.clone());
        let batch = data.flights.batch();
        let baseline = time_mean(3, || model.predict(batch).expect("predict"));
        let pushed = time_mean(3, || shrunk.predict(batch).expect("predict"));
        println!(
            "{label:<12} sparsity {sparsity:>5.1}%  features {}->{}  \
             baseline {:>9} ms  pushdown {:>9} ms  speedup {:.2}x",
            model.n_features(),
            shrunk.n_features(),
            ms(baseline),
            ms(pushed),
            baseline.as_secs_f64() / pushed.as_secs_f64()
        );
    }
    println!();
}

/// Paper Fig. 2(b): model clustering on flight delay (gains up to 54%,
/// growing with cluster count; compile time negligible) plus the hospital
/// counter-example (no benefit: categoricals already binary).
fn fig2b_model_clustering() {
    println!("--- Fig 2(b): model clustering ---");
    let n = if full_scale() { 700_000 } else { 200_000 };
    let data = flights::generate(n, &flights::FlightParams::default());
    let train_data = flights::generate(30_000, &flights::FlightParams::default());
    let model = train::flight_logistic(&train_data, 0.002, 250).expect("train");
    let batch = data.flights.batch();
    let sample = batch.slice(0, 20_000.min(n)).expect("sample");

    let baseline = time_mean(3, || model.predict(batch).expect("predict"));
    println!("flight delay ({n} tuples): baseline {} ms", ms(baseline));
    for k in [1usize, 2, 4, 8, 16, 32] {
        let clustered = specialize_per_cluster(
            &model,
            &sample,
            k,
            42,
            &["origin".to_string(), "dest".to_string()],
        )
        .expect("cluster");
        let t = time_mean(3, || score_clustered(&model, &clustered, batch));
        println!(
            "  k={k:<3} inference {:>9} ms ({:+.1}% vs baseline)  compile {:>8} ms",
            ms(t),
            (t.as_secs_f64() / baseline.as_secs_f64() - 1.0) * 100.0,
            ms(clustered.compile_time)
        );
    }

    let hdata = hospital::generate(100_000, 42);
    let hmodel = train::hospital_tree(&hospital::generate(20_000, 42), 8).expect("train");
    let hbatch = hdata.joined_batch();
    let hsample = hbatch.slice(0, 10_000).expect("sample");
    let hbase = time_mean(3, || hmodel.predict(&hbatch).expect("predict"));
    let hcluster = specialize_per_cluster(
        &hmodel,
        &hsample,
        8,
        42,
        &["gender".to_string(), "pregnant".to_string()],
    )
    .expect("cluster");
    let ht = time_mean(3, || score_clustered(&hmodel, &hcluster, &hbatch));
    println!(
        "hospital (100K tuples): baseline {} ms, clustered k=8 {} ms \
         ({:+.1}%; paper predicts no benefit)\n",
        ms(hbase),
        ms(ht),
        (ht.as_secs_f64() / hbase.as_secs_f64() - 1.0) * 100.0
    );
}

/// Clustered scoring: route rows by cluster, score with specialized models.
fn score_clustered(
    original: &Pipeline,
    clustered: &ClusteredModel,
    batch: &raven_data::RecordBatch,
) -> Vec<f64> {
    let rows = batch.num_rows();
    let routing =
        raven_opt::rules::clustering::routing_matrix(original, batch, &clustered.route_columns)
            .expect("routing");
    let assignment = clustered
        .kmeans
        .assign_batch(&routing, rows)
        .expect("assign");
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); clustered.models.len()];
    for (r, &c) in assignment.iter().enumerate() {
        groups[c].push(r);
    }
    let mut out = vec![0.0; rows];
    for (c, group) in groups.iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        if group.len() == rows {
            return clustered.models[c].predict(batch).expect("predict");
        }
        let sub = batch.take(group).expect("take");
        let preds = clustered.models[c].predict(&sub).expect("predict");
        for (&r, p) in group.iter().zip(preds) {
            out[r] = p;
        }
    }
    out
}

/// Paper Fig. 2(c): model inlining — decision tree as SQL CASE vs external
/// scoring (paper: ~17× at 300K tuples; +29% with predicate pruning,
/// 24.5× total).
fn fig2c_model_inlining() {
    println!("--- Fig 2(c): model inlining (hospital, decision tree) ---");
    let n = 300_000;
    let data = hospital::generate(n, 42);
    let model = train::hospital_tree(&hospital::generate(20_000, 42), 8).expect("train");

    let base_sql = "\
        WITH data AS (\
          SELECT * FROM patient_info AS pi \
          JOIN blood_tests AS bt ON pi.id = bt.id \
          JOIN prenatal_tests AS pt ON bt.id = pt.id)\
        SELECT d.id, p.stay FROM PREDICT(MODEL = 'm', DATA = data AS d) \
        WITH (stay FLOAT) AS p";
    let filtered_sql = &format!("{base_sql} WHERE d.pregnant = 1");

    // External baseline: no cross optimizations, out-of-process scoring
    // with the paper's ~0.5 s runtime-startup cost.
    let external = {
        let config = SessionConfig {
            rules: RuleSet::none(),
            ..Default::default()
        };
        let session = RavenSession::with_config(config);
        data.register(session.catalog()).expect("register");
        session.store_model("m", model.clone()).expect("store");
        let plan = to_mode(
            session.plan(base_sql).expect("plan"),
            ExecutionMode::OutOfProcess,
        );
        time_mean_cold(2, || session.execute_plan(&plan).expect("exec"))
    };

    let session = RavenSession::with_config(SessionConfig::default());
    data.register(session.catalog()).expect("register");
    session.store_model("m", model).expect("store");
    let (inlined_plan, _) = session
        .optimize(session.plan(base_sql).expect("plan"))
        .expect("optimize");
    let inlined = time_mean(3, || session.execute_plan(&inlined_plan).expect("exec"));
    let (pruned_plan, _) = session
        .optimize(session.plan(filtered_sql).expect("plan"))
        .expect("optimize");
    let inlined_pruned = time_mean(3, || session.execute_plan(&pruned_plan).expect("exec"));

    println!("external scoring (0.5s startup): {:>9} ms", ms(external));
    println!(
        "inlined CASE:                    {:>9} ms  ({:.1}x)",
        ms(inlined),
        external.as_secs_f64() / inlined.as_secs_f64()
    );
    println!(
        "inlined + predicate pruning:     {:>9} ms  ({:.1}x total)\n",
        ms(inlined_pruned),
        external.as_secs_f64() / inlined_pruned.as_secs_f64()
    );
}

fn to_mode(plan: Plan, mode: ExecutionMode) -> Plan {
    plan.transform_up(&|node| match node {
        Plan::Predict {
            input,
            model,
            output,
            ..
        } => Plan::Predict {
            input,
            model,
            output,
            mode,
        },
        other => other,
    })
}

/// Paper Fig. 2(d): NN translation of a random forest — classical scoring
/// vs the GEMM translation on CPU and (simulated) GPU, across dataset
/// sizes (paper: GPU latency-bound at 1K, ~15× at 1M).
fn fig2d_nn_translation() {
    println!("--- Fig 2(d): NN translation (hospital, random forest) ---");
    let model = train::hospital_forest(&hospital::generate(20_000, 42), 10, 5).expect("train");
    let graph = translate_pipeline(&model).expect("translate");
    let cpu = InferenceSession::new(
        graph.clone(),
        SessionOptions {
            device: TensorDevice::cpu_single(),
            ..Default::default()
        },
    )
    .expect("cpu");
    let gpu = InferenceSession::new(
        graph,
        SessionOptions {
            device: TensorDevice::simulated_gpu(),
            ..Default::default()
        },
    )
    .expect("gpu");

    println!(
        "{:>10}  {:>14}  {:>14}  {:>18}",
        "rows", "RF classical", "RF-NN (CPU)", "RF-NN (GPU, sim)"
    );
    for n in sweep_sizes(1_000_000) {
        let data = hospital::generate(n, 42);
        let batch = data.joined_batch();
        let raw = model.encode_inputs(&batch).expect("encode");
        let runs = if n >= 1_000_000 { 1 } else { 3 };

        let classical = time_mean(runs, || model.predict(&batch).expect("predict"));
        let input = Tensor::matrix(
            n,
            model.steps().len(),
            raw.iter().map(|&v| v as f32).collect(),
        )
        .expect("tensor");
        let nn_cpu = time_mean(runs, || cpu.run_batched(INPUT_NAME, &input).expect("run"));
        // The simulated GPU reports analytic (device-model) time.
        let (_, gpu_stats) = gpu.run_batched(INPUT_NAME, &input).expect("run");
        println!(
            "{n:>10}  {:>11} ms  {:>11} ms  {:>15} ms",
            ms(classical),
            ms(nn_cpu),
            ms(gpu_stats.simulated)
        );
    }
    println!();
}

/// Paper Fig. 3: total inference time — Raven (in-process, session-cached,
/// morsel-parallel) vs standalone ONNX Runtime (cold session per query,
/// single-threaded) vs Raven Ext (out-of-process, ~0.5 s startup) — for
/// RF and MLP pipelines across dataset sizes.
fn fig3_raven_vs_ort() {
    println!("--- Fig 3: Raven vs ORT vs Raven Ext ---");
    let train_data = hospital::generate(20_000, 42);
    let models: Vec<(&str, Pipeline)> = vec![
        (
            "Random Forest",
            train::hospital_forest(&train_data, 10, 5).expect("rf"),
        ),
        (
            "MLP",
            train::hospital_mlp(&train_data, vec![16], 20).expect("mlp"),
        ),
    ];
    for (label, model) in models {
        println!("{label}:");
        println!(
            "{:>10}  {:>12}  {:>12}  {:>12}",
            "rows", "ORT", "Raven", "Raven Ext"
        );
        let graph = translate_pipeline(&model).expect("translate");
        let graph_bytes = graph_serialize::to_bytes(&graph);

        let mut sizes = vec![100usize];
        sizes.extend(sweep_sizes(1_000_000));
        for n in sizes {
            let data = hospital::generate(n, 42);
            let batch = data.joined_batch();
            let raw = model.encode_inputs(&batch).expect("encode");
            let input = Tensor::matrix(
                n,
                model.steps().len(),
                raw.iter().map(|&v| v as f32).collect(),
            )
            .expect("tensor");
            let runs = if n >= 1_000_000 { 1 } else { 3 };

            // Standalone ORT: per query, load the model from bytes, build
            // a fresh session, score single-threaded.
            let ort = time_mean_cold(runs, || {
                let g = graph_serialize::from_bytes(&graph_bytes).expect("load");
                let session = InferenceSession::new(
                    g,
                    SessionOptions {
                        device: TensorDevice::cpu_single(),
                        ..Default::default()
                    },
                )
                .expect("session");
                session.run_batched(INPUT_NAME, &input).expect("run")
            });

            // Raven: warm cached session, morsel-parallel scan + predict
            // through the relational executor.
            let raven = raven_query_time(&model, &data, runs);

            // Raven Ext: out-of-process classical pipeline with the
            // paper's 0.5 s startup and real serialization.
            let ext_config = raven_runtime::external::ExternalConfig::default();
            let ext = time_mean_cold(1, || {
                raven_runtime::external::score_out_of_process(
                    &model,
                    &batch,
                    &ext_config,
                    &raven_core::relational::CancelToken::new(),
                )
                .expect("external")
            });

            println!(
                "{n:>10}  {:>9} ms  {:>9} ms  {:>9} ms",
                ms(ort),
                ms(raven),
                ms(ext)
            );
        }
        println!();
    }
}

/// Warm in-database execution over a wide (pre-joined) table.
fn raven_query_time(model: &Pipeline, data: &hospital::HospitalData, runs: usize) -> Duration {
    let session = RavenSession::with_config(SessionConfig::default());
    session
        .register_table("wide", raven_data::Table::from_batch(data.joined_batch()))
        .expect("register");
    session.store_model("m", model.clone()).expect("store");
    let plan = Plan::TensorPredict {
        input: Box::new(Plan::Scan {
            table: "wide".into(),
            schema: session.catalog().table("wide").expect("t").schema().clone(),
        }),
        model: raven_ir::ModelRef {
            name: "m".into(),
            pipeline: Arc::new(model.clone()),
        },
        graph: Arc::new(translate_pipeline(model).expect("translate")),
        output: "score".into(),
        device: Device::CpuParallel,
    };
    time_mean(runs, || session.execute_plan(&plan).expect("exec"))
}

/// Paper §3.2: "In most practical cases we tested, static analysis takes
/// less than 10msec."
fn text_static_analysis() {
    println!("--- §3.2: static-analysis latency ---");
    let session = RavenSession::with_config(SessionConfig::default());
    hospital::generate(100, 1)
        .register(session.catalog())
        .expect("register");
    let script = r#"
import pandas as pd
from sklearn.pipeline import Pipeline
from sklearn.preprocessing import StandardScaler
from sklearn.tree import DecisionTreeClassifier
pi = pd.read_sql("patient_info")
bt = pd.read_sql("blood_tests")
pt = pd.read_sql("prenatal_tests")
joined = pi.merge(bt, on="id")
full = joined.merge(pt, on="id")
preg = full[full.pregnant == 1]
features = preg[["age", "bp", "fetal_hr"]]
model = Pipeline([("s", StandardScaler()), ("c", DecisionTreeClassifier(max_depth=5))])
out = model.predict(features)
"#;
    let t = time_mean(100, || {
        raven_pyanalysis::analyze(script, session.catalog()).expect("analyze")
    });
    println!(
        "static analysis: {} ms per script (paper: < 10 ms)\n",
        ms(t)
    );
}

/// Paper §4.1 running example: predicate-based pruning improves tree
/// prediction time (~29% in the paper).
fn text_predicate_pruning() {
    println!("--- §4.1: predicate-based model pruning (tree) ---");
    let data = hospital::generate(200_000, 42);
    let model = train::hospital_tree(&hospital::generate(20_000, 42), 8).expect("train");
    let batch = data.joined_batch();
    let mask: Vec<bool> = batch
        .column_by_name("pregnant")
        .expect("col")
        .i64_values()
        .expect("i64")
        .iter()
        .map(|&p| p == 1)
        .collect();
    let pregnant_batch = batch.filter(&mask).expect("filter");

    let bounds = model
        .feature_bounds(&[("pregnant".to_string(), raven_ml::tree::Interval::point(1.0))])
        .expect("bounds");
    let Estimator::Tree(tree) = model.estimator() else {
        unreachable!()
    };
    let pruned_tree = tree.prune(&bounds).expect("prune");
    let pruned = model
        .with_estimator(Estimator::Tree(pruned_tree.clone()))
        .expect("pipeline");

    let before = time_mean(5, || model.predict(&pregnant_batch).expect("predict"));
    let after = time_mean(5, || pruned.predict(&pregnant_batch).expect("predict"));
    println!(
        "tree nodes {} -> {}; prediction {} ms -> {} ms ({:.0}% faster; paper: 29%)\n",
        tree.n_nodes(),
        pruned_tree.n_nodes(),
        ms(before),
        ms(after),
        (1.0 - after.as_secs_f64() / before.as_secs_f64()) * 100.0
    );
}

/// Paper §4.1: categorical predicate pruning gives ~2.1× on the flight LR
/// regardless of the filter's selectivity.
fn text_categorical_pruning() {
    println!("--- §4.1: categorical predicate-based pruning (flight LR) ---");
    let data = flights::generate(300_000, &flights::FlightParams::default());
    let model = train::flight_logistic(
        &flights::generate(30_000, &flights::FlightParams::default()),
        0.002,
        250,
    )
    .expect("train");
    for airport_idx in [0usize, 7, 19] {
        let dest = data.airports[airport_idx].clone();
        let mask: Vec<bool> = data
            .flights
            .column_by_name("dest")
            .expect("col")
            .utf8_values()
            .expect("utf8")
            .iter()
            .map(|d| d == &dest)
            .collect();
        let filtered = data.flights.batch().filter(&mask).expect("filter");
        // Pin the destination; fold its indicators; drop unused features.
        let (specialized, _) = raven_opt::rules::clustering::specialize_with_bounds(
            &model,
            &[(
                "dest".to_string(),
                raven_ml::tree::Interval::point(airport_idx as f64),
            )],
        )
        .expect("specialize");
        let before = time_mean(5, || model.predict(&filtered).expect("predict"));
        let after = time_mean(5, || specialized.predict(&filtered).expect("predict"));
        println!(
            "dest={dest} (selectivity {:.3}): {} ms -> {} ms ({:.2}x; paper: ~2.1x)",
            filtered.num_rows() as f64 / data.len() as f64,
            ms(before),
            ms(after),
            before.as_secs_f64() / after.as_secs_f64()
        );
    }
    println!();
}

/// Paper §5 observation (v): batch inference gains ~an order of magnitude
/// over per-tuple scoring.
fn text_batching() {
    println!("--- §5(v): batch inference vs per-tuple scoring ---");
    let model = train::hospital_mlp(&hospital::generate(5_000, 42), vec![16], 15).expect("mlp");
    let graph = translate_pipeline(&model).expect("translate");
    let data = hospital::generate(50_000, 42);
    let batch = data.joined_batch();
    let raw = model.encode_inputs(&batch).expect("encode");
    let input = Tensor::matrix(
        batch.num_rows(),
        model.steps().len(),
        raw.iter().map(|&v| v as f32).collect(),
    )
    .expect("tensor");
    for batch_size in [1usize, 10, 100, 1_000, 0] {
        let session = InferenceSession::new(
            graph.clone(),
            SessionOptions {
                batch_size,
                device: TensorDevice::cpu_single(),
                ..Default::default()
            },
        )
        .expect("session");
        let t = time_mean(1, || session.run_batched(INPUT_NAME, &input).expect("run"));
        let label = if batch_size == 0 {
            "whole input".to_string()
        } else {
            format!("{batch_size}")
        };
        println!("batch size {label:>12}: {:>10} ms", ms(t));
    }
    println!();
}
