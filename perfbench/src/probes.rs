//! The probe pass: each layer's public function, called in a loop on
//! the workload's own generated inputs and timed from outside. Nothing
//! here touches the program's source; a probe is a caller like any
//! other.

use crate::loadgen::BenchSpan;
use crate::samples::Samples;
use crate::spec::MetricSet;
use crate::stages::{self_times, sum_self_times};
use raven_core::RavenSession;
use raven_data::{RecordBatch, Table, Value};
use raven_ir::{FingerprintBuilder, Plan};
use raven_ml::translate::{translate_pipeline, INPUT_NAME};
use raven_ml::{FlatForest, Pipeline};
use raven_obs::{Span, SpanRecorder};
use raven_relational::{CancelToken, SharedExecutor};
use raven_server::proto::{self, Request, Response};
use raven_server::{normalize, PreparedQuery, ServerState};
use raven_tensor::{InferenceSession, SessionOptions, Tensor};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows of the batch `Pipeline::predict` and the kernels are timed on
/// (or the whole table, when it is smaller).
pub const ML_BATCH_ROWS: usize = 20_000;
/// Rows of the micro-batches `point_score` models are timed on: the
/// sizes the batcher actually forms behind an 8-thread executor pool.
pub const SMALL_BATCH_ROWS: usize = 8;

/// One timed batch of calls should last at least this long, so reading
/// the clock stays under a percent of what is measured.
const MIN_TIMED_BATCH: Duration = Duration::from_micros(20);

/// Times probes against one time budget each and keeps a span per probe
/// for the trace file.
pub struct Prober {
    budget: Duration,
    origin: Instant,
    pub spans: Vec<BenchSpan>,
}

impl Prober {
    pub fn new(budget: Duration, origin: Instant) -> Prober {
        Prober {
            budget,
            origin,
            spans: Vec::new(),
        }
    }

    /// The instant probe span offsets count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Call `f` in a loop for the budget (at least five timed batches);
    /// per-call nanoseconds, one sample per batch.
    pub fn time(&mut self, name: &'static str, mut f: impl FnMut()) -> Samples {
        let started = Instant::now();
        f();
        let once = started.elapsed().max(Duration::from_nanos(1));
        let per_batch = (MIN_TIMED_BATCH.as_nanos() / once.as_nanos()).clamp(1, 10_000) as u32;
        let mut samples = Vec::new();
        while samples.len() < 5 || started.elapsed() < self.budget {
            let batch_started = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            samples.push(batch_started.elapsed().as_nanos() as f64 / per_batch as f64);
        }
        self.spans.push(BenchSpan {
            name,
            lane: 0,
            start_us: (started - self.origin).as_micros() as u64,
            duration_us: started.elapsed().as_micros() as u64,
        });
        Samples::new(samples)
    }

    /// Median per-call nanoseconds of [`Prober::time`].
    pub fn median_ns(&mut self, name: &'static str, f: impl FnMut()) -> f64 {
        self.time(name, f).median().expect("at least five samples")
    }
}

/// `sql.plan_us`, `opt.optimize_us`: parse + bind, then the cross
/// optimizer, rotating over `texts`.
pub fn planning(
    prober: &mut Prober,
    session: &RavenSession,
    texts: &[String],
    out: &mut MetricSet,
) {
    let mut i = 0;
    let plan_ns = prober.median_ns("sql.plan", || {
        black_box(session.plan(&texts[i % texts.len()]).expect("plan"));
        i += 1;
    });
    let plans: Vec<Plan> = texts
        .iter()
        .map(|t| session.plan(t).expect("plan"))
        .collect();
    let mut i = 0;
    let optimize_ns = prober.median_ns("opt.optimize", || {
        black_box(
            session
                .optimize(plans[i % plans.len()].clone())
                .expect("optimize"),
        );
        i += 1;
    });
    out.set("sql.plan_us", plan_ns / 1e3);
    out.set("opt.optimize_us", optimize_ns / 1e3);
}

/// Rule applications the optimizer reports over `texts` (exact counts).
pub fn rules_fired(session: &RavenSession, texts: &[String]) -> f64 {
    texts
        .iter()
        .map(|t| {
            let (_, report) = session
                .optimize(session.plan(t).expect("plan"))
                .expect("optimize");
            report
                .rule_applications
                .iter()
                .map(|(_, n)| *n)
                .sum::<usize>()
        })
        .sum::<usize>() as f64
}

/// A prepared template with one request's parameter values.
pub struct Bound {
    pub prepared: Arc<PreparedQuery>,
    pub params: Vec<Value>,
}

/// Prepare `sql` the way the serving path does (normalize → template →
/// plan cache) and keep this instance's extracted constants.
pub fn bind(state: &ServerState, sql: &str) -> Bound {
    let (prepared, _) = state.prepare(sql).expect("prepare");
    let params = normalize(sql)
        .filter(|n| n.params.len() == prepared.param_count)
        .map(|n| n.params)
        .unwrap_or_default();
    Bound { prepared, params }
}

/// `ir.fingerprint_ns`, `ir.bind_params_ns`: the per-request work on a
/// prepared plan — fold parameters and dependency versions into the
/// memoized plan hash; clone the plan with the parameters substituted.
pub fn fingerprint_and_bind(prober: &mut Prober, bounds: &[Bound], out: &mut MetricSet) {
    let bases: Vec<FingerprintBuilder> = bounds
        .iter()
        .map(|b| {
            FingerprintBuilder::new()
                .tenant(raven_server::DEFAULT_TENANT)
                .plan(&b.prepared.plan)
        })
        .collect();
    let mut i = 0;
    let fingerprint_ns = prober.median_ns("ir.fingerprint", || {
        let b = &bounds[i % bounds.len()];
        let mut builder = bases[i % bounds.len()].clone().params(&b.params);
        for model in &b.prepared.model_deps {
            builder = builder.dependency("model", model, 1);
        }
        for table in &b.prepared.table_deps {
            builder = builder.dependency("table", table, 1);
        }
        black_box(builder.finish());
        i += 1;
    });
    out.set("ir.fingerprint_ns", fingerprint_ns);
    let parameterized: Vec<&Bound> = bounds.iter().filter(|b| !b.params.is_empty()).collect();
    if !parameterized.is_empty() {
        let mut i = 0;
        let bind_ns = prober.median_ns("ir.bind_params", || {
            let b = parameterized[i % parameterized.len()];
            black_box(b.prepared.plan.bind_parameters(&b.params).expect("bind"));
            i += 1;
        });
        out.set("ir.bind_params_ns", bind_ns);
    }
}

/// Wall time of one traced execution (its root spans) and the self time
/// of its scorer invocations, in µs.
pub fn exec_and_scorer_us(spans: &[Span]) -> (f64, f64) {
    let exec: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_us)
        .sum();
    let scorer: u64 = spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.name.starts_with("scorer-invocation"))
        .map(|(_, own)| own)
        .sum();
    (exec as f64, scorer as f64)
}

/// `relational.exec_us.<name>`, `runtime.scorer_us.<name>`: execute each
/// bound plan through `SharedExecutor::execute_traced` with a live
/// recorder; medians over the calls that fit the budget.
pub fn execution(
    prober: &mut Prober,
    executor: &SharedExecutor,
    named: &[(&str, &Bound)],
    out: &mut MetricSet,
) {
    for (name, bound) in named {
        let (mut execs, mut scorers) = (Vec::new(), Vec::new());
        prober.time("relational.execute_traced", || {
            let recorder = SpanRecorder::enabled();
            black_box(
                executor
                    .execute_traced(
                        &bound.prepared.plan,
                        &bound.params,
                        &CancelToken::new(),
                        &recorder,
                    )
                    .expect("execute"),
            );
            let (exec, scorer) = exec_and_scorer_us(&recorder.into_spans());
            execs.push(exec);
            scorers.push(scorer);
        });
        out.set(
            &format!("relational.exec_us.{name}"),
            Samples::new(execs).median().expect("executed"),
        );
        out.set(
            &format!("runtime.scorer_us.{name}"),
            Samples::new(scorers).median().expect("executed"),
        );
    }
}

/// `relational.op.<group>.self_us`: mean self time per execution of each
/// operator group, over the given executor span trees.
pub fn operator_self_times(trees: &[&[Span]], out: &mut MetricSet) {
    if trees.is_empty() {
        return;
    }
    for (group, total) in sum_self_times(trees.iter().copied(), crate::stages::op_group_of) {
        out.set(
            &format!("relational.op.{group}.self_us"),
            total as f64 / trees.len() as f64,
        );
    }
}

fn head(batch: &RecordBatch, rows: usize) -> RecordBatch {
    batch
        .slice(0, rows.min(batch.num_rows()))
        .expect("slice batch")
}

/// `ml.predict_ns_per_row.<family>`: `Pipeline::predict` (encode →
/// featurize → estimator) per row of a `rows`-row batch.
pub fn predict(
    prober: &mut Prober,
    family: &str,
    model: &Pipeline,
    batch: &RecordBatch,
    rows: usize,
    out: &mut MetricSet,
) {
    let batch = head(batch, rows);
    let ns = prober.median_ns("ml.predict", || {
        black_box(model.predict(&batch).expect("predict"));
    });
    out.set(
        &format!("ml.predict_ns_per_row.{family}"),
        ns / batch.num_rows() as f64,
    );
}

/// `ml.kernel_*`: compile the forest to a `FlatForest`, then score the
/// batch through it; a node visit is one trip of the kernel's per-tree
/// depth loop.
pub fn kernel(prober: &mut Prober, forest: &Pipeline, batch: &RecordBatch, out: &mut MetricSet) {
    let build_ns = prober.median_ns("ml.kernel_build", || {
        black_box(FlatForest::from_pipeline(forest).expect("flatten"));
    });
    out.set("ml.kernel_build_us", build_ns / 1e3);
    let flat = FlatForest::from_pipeline(forest).expect("flatten");
    let batch = head(batch, ML_BATCH_ROWS);
    let rows = batch.num_rows();
    let raw = forest.encode_inputs(&batch).expect("encode");
    let score_ns = prober.median_ns("ml.kernel_score", || {
        black_box(flat.score_raw(&raw, rows).expect("kernel score"));
    });
    out.set("ml.kernel_ns_per_row", score_ns / rows as f64);
    out.set(
        "ml.kernel_ns_per_node_visit",
        score_ns / (rows * flat.total_depth()) as f64,
    );
}

/// `tensor.run_ns_per_row`: the NN-translated MLP on the tensor runtime.
pub fn tensor(prober: &mut Prober, mlp: &Pipeline, batch: &RecordBatch, out: &mut MetricSet) {
    let graph = translate_pipeline(mlp).expect("translate");
    let session = InferenceSession::new(graph, SessionOptions::default()).expect("session");
    let batch = head(batch, ML_BATCH_ROWS);
    let rows = batch.num_rows();
    let raw = mlp.encode_inputs(&batch).expect("encode");
    let input = Tensor::matrix(
        rows,
        mlp.steps().len(),
        raw.iter().map(|&v| v as f32).collect(),
    )
    .expect("input tensor");
    let ns = prober.median_ns("tensor.run_batched", || {
        black_box(session.run_batched(INPUT_NAME, &input).expect("run"));
    });
    out.set("tensor.run_ns_per_row", ns / rows as f64);
}

/// `server.normalize.ns`: literal SQL → template + constants.
pub fn normalize_sql(prober: &mut Prober, sqls: &[&str], out: &mut MetricSet) {
    let mut i = 0;
    let ns = prober.median_ns("server.normalize", || {
        black_box(normalize(sqls[i % sqls.len()]));
        i += 1;
    });
    out.set("server.normalize.ns", ns);
}

/// `server.proto.req_{encode,decode}_ns` over the workload's own request
/// frames.
pub fn proto_requests(prober: &mut Prober, requests: &[Request], out: &mut MetricSet) {
    let mut i = 0;
    let encode_ns = prober.median_ns("server.proto.req_encode", || {
        black_box(
            requests[i % requests.len()].encode_for_version(proto::PROTOCOL_VERSION, i as u32),
        );
        i += 1;
    });
    let frames: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| r.encode_for_version(proto::PROTOCOL_VERSION, 7))
        .collect();
    let mut i = 0;
    let decode_ns = prober.median_ns("server.proto.req_decode", || {
        // A frame is a 4-byte length prefix followed by the body.
        black_box(Request::decode_framed(&frames[i % frames.len()][4..]).expect("decode"));
        i += 1;
    });
    out.set("server.proto.req_encode_ns", encode_ns);
    out.set("server.proto.req_decode_ns", decode_ns);
}

/// `server.proto.rows_{encode,decode}_ns_per_row`: one `RowsChunk` frame
/// of (up to) `chunk_rows` rows of a reply the workload produces.
pub fn proto_rows(prober: &mut Prober, table: &Table, chunk_rows: usize, out: &mut MetricSet) {
    let rows = table.num_rows().min(chunk_rows);
    if rows == 0 {
        return;
    }
    let version = proto::PROTOCOL_VERSION;
    let encode_ns = prober.median_ns("server.proto.rows_encode", || {
        black_box(Response::rows_chunk_frame(version, 7, table, 0, rows).expect("encode chunk"));
    });
    let frame = Response::rows_chunk_frame(version, 7, table, 0, rows).expect("encode chunk");
    let decode_ns = prober.median_ns("server.proto.rows_decode", || {
        black_box(Response::decode_framed(&frame[4..]).expect("decode chunk"));
    });
    out.set(
        "server.proto.rows_encode_ns_per_row",
        encode_ns / rows as f64,
    );
    out.set(
        "server.proto.rows_decode_ns_per_row",
        decode_ns / rows as f64,
    );
}

/// `server.state.serve_hit_ns`: `ServerState::serve` in-process (no
/// socket) on queries whose results are cached.
pub fn serve_hit(prober: &mut Prober, state: &ServerState, sqls: &[&str], out: &mut MetricSet) {
    for sql in sqls {
        state.serve(sql, None).expect("populate the result cache");
    }
    let mut i = 0;
    let ns = prober.median_ns("server.state.serve_hit", || {
        let result = state.serve(sqls[i % sqls.len()], None).expect("serve");
        assert!(result.result_cache_hit, "probe expects a warm result cache");
        i += 1;
    });
    out.set("server.state.serve_hit_ns", ns);
}

/// `server.state.serve_miss_us`: the same call on queries never seen
/// before (`fresh(i)` must return a new constant every time), so each
/// one hits the plan cache, misses the result cache, and executes.
pub fn serve_miss(
    prober: &mut Prober,
    state: &ServerState,
    mut fresh: impl FnMut(usize) -> String,
    out: &mut MetricSet,
) {
    let mut i = 0;
    let ns = prober.median_ns("server.state.serve_miss", || {
        let result = state.serve(&fresh(i), None).expect("serve");
        assert!(!result.result_cache_hit, "probe expects a cold result");
        i += 1;
    });
    out.set("server.state.serve_miss_us", ns / 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_probe_runs_for_its_budget_and_keeps_a_span() {
        let mut prober = Prober::new(Duration::from_millis(20), Instant::now());
        let mut calls = 0u64;
        let samples = prober.time("spin", || {
            calls += 1;
            black_box((0..100u64).sum::<u64>());
        });
        assert!(samples.count() >= 5);
        assert!(calls as usize > samples.count(), "cheap calls are batched");
        assert!(samples.median().unwrap() > 0.0);
        assert_eq!(prober.spans.len(), 1);
        assert!(prober.spans[0].duration_us >= 20_000);
    }
}
