//! Criterion micro-benchmarks: individual rules, substrates, and rule
//! on/off ablations (the design-choice studies behind the simulated
//! substrates listed under "Substitutions" in `ARCHITECTURE.md`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use raven_core::{RavenSession, SessionConfig};
use raven_datagen::{flights, hospital, train};
use raven_ml::translate::{translate_pipeline, INPUT_NAME};
use raven_ml::tree::Interval;
use raven_ml::Estimator;
use raven_opt::{OptimizerContext, RuleSet};
use raven_tensor::{Device, InferenceSession, SessionOptions, Tensor};

/// Tree pruning under an equality constraint (the §4.1 transformation
/// itself, not the scoring).
fn bench_predicate_pruning(c: &mut Criterion) {
    let model = train::hospital_tree(&hospital::generate(20_000, 42), 10).unwrap();
    let Estimator::Tree(tree) = model.estimator().clone() else {
        unreachable!()
    };
    let bounds = model
        .feature_bounds(&[("pregnant".to_string(), Interval::point(1.0))])
        .unwrap();
    c.bench_function("rule/tree_prune", |b| {
        b.iter(|| tree.prune(std::hint::black_box(&bounds)).unwrap())
    });
}

/// Model shrinking (projection pushdown's model half) on a sparse LR.
fn bench_projection_pushdown(c: &mut Criterion) {
    let data = flights::generate(30_000, &flights::FlightParams::default());
    let model = train::flight_logistic(&data, 0.02, 150).unwrap();
    c.bench_function("rule/shrink_pipeline", |b| {
        b.iter(|| {
            raven_opt::rules::model_utils::shrink_pipeline(std::hint::black_box(&model)).unwrap()
        })
    });
}

/// Static analysis of the running-example script (paper: < 10 ms).
fn bench_static_analysis(c: &mut Criterion) {
    let session = RavenSession::with_config(SessionConfig::for_tests());
    hospital::generate(100, 1)
        .register(session.catalog())
        .unwrap();
    let script = r#"
import pandas as pd
from sklearn.pipeline import Pipeline
from sklearn.preprocessing import StandardScaler
from sklearn.tree import DecisionTreeClassifier
pi = pd.read_sql("patient_info")
bt = pd.read_sql("blood_tests")
joined = pi.merge(bt, on="id")
features = joined[["age", "bp"]]
model = Pipeline([("s", StandardScaler()), ("c", DecisionTreeClassifier(max_depth=5))])
out = model.predict(features)
"#;
    c.bench_function("static_analysis/running_example", |b| {
        b.iter(|| {
            raven_pyanalysis::analyze(std::hint::black_box(script), session.catalog()).unwrap()
        })
    });
}

/// SQL parse+bind+optimize latency for the running example.
fn bench_planning(c: &mut Criterion) {
    let session = RavenSession::with_config(SessionConfig::for_tests());
    let data = hospital::generate(1_000, 42);
    data.register(session.catalog()).unwrap();
    session
        .store_model("duration_of_stay", train::hospital_tree(&data, 6).unwrap())
        .unwrap();
    let sql = "\
        WITH data AS (\
          SELECT * FROM patient_info AS pi \
          JOIN blood_tests AS bt ON pi.id = bt.id \
          JOIN prenatal_tests AS pt ON bt.id = pt.id)\
        SELECT d.id, p.stay FROM PREDICT(MODEL = 'duration_of_stay', DATA = data AS d) \
        WITH (stay FLOAT) AS p WHERE d.pregnant = 1 AND p.stay > 6";
    c.bench_function("planning/parse_bind", |b| {
        b.iter(|| session.plan(std::hint::black_box(sql)).unwrap())
    });
    let plan = session.plan(sql).unwrap();
    c.bench_function("planning/cross_optimize", |b| {
        b.iter(|| {
            session
                .optimize(std::hint::black_box(plan.clone()))
                .unwrap()
        })
    });
}

/// Tensor-runtime batch-size sensitivity (paper §5 observation v).
fn bench_batching(c: &mut Criterion) {
    let model = train::hospital_mlp(&hospital::generate(5_000, 42), vec![16], 10).unwrap();
    let graph = translate_pipeline(&model).unwrap();
    let data = hospital::generate(10_000, 42);
    let batch = data.joined_batch();
    let raw = model.encode_inputs(&batch).unwrap();
    let input = Tensor::matrix(
        batch.num_rows(),
        model.steps().len(),
        raw.iter().map(|&v| v as f32).collect(),
    )
    .unwrap();
    let mut group = c.benchmark_group("tensor_batching");
    group.sample_size(10);
    for batch_size in [1usize, 100, 0] {
        let session = InferenceSession::new(
            graph.clone(),
            SessionOptions {
                batch_size,
                device: Device::cpu_single(),
                ..Default::default()
            },
        )
        .unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(if batch_size == 0 {
                "whole".to_string()
            } else {
                batch_size.to_string()
            }),
            &session,
            |b, s| b.iter(|| s.run_batched(INPUT_NAME, &input).unwrap()),
        );
    }
    group.finish();
}

/// Ablation: end-to-end running-example latency with each rule family
/// toggled (the design-choice study).
fn bench_ablation(c: &mut Criterion) {
    let data = hospital::generate(50_000, 42);
    let model = train::hospital_tree(&hospital::generate(20_000, 42), 8).unwrap();
    let sql = "\
        WITH data AS (\
          SELECT * FROM patient_info AS pi \
          JOIN blood_tests AS bt ON pi.id = bt.id \
          JOIN prenatal_tests AS pt ON bt.id = pt.id)\
        SELECT d.id, p.stay FROM PREDICT(MODEL = 'm', DATA = data AS d) \
        WITH (stay FLOAT) AS p WHERE d.pregnant = 1 AND p.stay > 6";
    let configs: Vec<(&str, RuleSet)> = vec![
        ("none", RuleSet::none()),
        ("relational_only", RuleSet::relational_only()),
        (
            "no_pruning",
            RuleSet {
                predicate_model_pruning: false,
                stats_derived_predicates: false,
                ..RuleSet::all()
            },
        ),
        (
            "no_inlining",
            RuleSet {
                model_inlining: false,
                ..RuleSet::all()
            },
        ),
        ("full", RuleSet::all()),
    ];
    let mut group = c.benchmark_group("ablation/running_example_50k");
    group.sample_size(10);
    for (label, rules) in configs {
        let config = SessionConfig {
            rules,
            ..Default::default()
        };
        let session = RavenSession::with_config(config);
        data.register(session.catalog()).unwrap();
        session.store_model("m", model.clone()).unwrap();
        let (plan, _) = session.optimize(session.plan(sql).unwrap()).unwrap();
        group.bench_function(label, |b| b.iter(|| session.execute_plan(&plan).unwrap()));
    }
    group.finish();
}

/// Relational substrate: hash join and filter throughput.
fn bench_relational(c: &mut Criterion) {
    let session = RavenSession::with_config(SessionConfig::default());
    let data = hospital::generate(100_000, 42);
    data.register(session.catalog()).unwrap();
    let join_plan = session
        .plan("SELECT * FROM patient_info AS pi JOIN blood_tests AS bt ON pi.id = bt.id")
        .unwrap();
    let filter_plan = session
        .plan("SELECT * FROM patient_info WHERE age > 50 AND pregnant = 1")
        .unwrap();
    let mut group = c.benchmark_group("relational_100k");
    group.sample_size(10);
    group.bench_function("hash_join", |b| {
        b.iter(|| session.execute_plan(&join_plan).unwrap())
    });
    group.bench_function("filter", |b| {
        b.iter(|| session.execute_plan(&filter_plan).unwrap())
    });
    group.finish();
}

/// Cost model evaluation speed (must stay trivial vs execution).
fn bench_cost_model(c: &mut Criterion) {
    let session = RavenSession::with_config(SessionConfig::for_tests());
    let data = hospital::generate(1_000, 42);
    data.register(session.catalog()).unwrap();
    session
        .store_model("m", train::hospital_tree(&data, 6).unwrap())
        .unwrap();
    let plan = session
        .plan(
            "SELECT p.s FROM PREDICT(MODEL = 'm', DATA = \
             (SELECT * FROM patient_info AS pi JOIN blood_tests AS bt \
              ON pi.id = bt.id JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d) \
             WITH (s FLOAT) AS p",
        )
        .unwrap();
    let params = raven_opt::cost::CostParams::default();
    c.bench_function("cost_model/estimate", |b| {
        b.iter(|| {
            raven_opt::cost::estimate(std::hint::black_box(&plan), session.catalog(), &params)
        })
    });
    let ctx = OptimizerContext::new(session.catalog());
    let _ = ctx;
}

criterion_group!(
    benches,
    bench_predicate_pruning,
    bench_projection_pushdown,
    bench_static_analysis,
    bench_planning,
    bench_batching,
    bench_ablation,
    bench_relational,
    bench_cost_model
);
criterion_main!(benches);
