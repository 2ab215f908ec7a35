//! One benchmark run: set up, warm up, measure, check, report.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off (and
//! sets up several times, reporting the median set-up time).
//! `--trace 1` measures the per-layer metrics: an untraced window for
//! the program's own counters, the probe pass, then a window with every
//! request traced, whose span trees become the `server.stage.*` /
//! `relational.op.*` tables and the trace file.

use crate::json::Json;
use crate::loadgen::{
    batch_worker, executor_of, open_loop, poisson_schedule, wire_worker, BenchSpan, Clock,
    Recording, Tally, WorkerLog, SLICES,
};
use crate::probes::{self, Bound, Prober};
use crate::procstat;
use crate::samples::Samples;
use crate::spec::{self, MetricSet};
use crate::stages::{stage_of, sum_self_times};
use crate::workloads::{
    exec_query, BatchFixture, Scale, ScoreFixture, ServeFixture, ServeKind, EXEC_AGE_RANGES,
    EXEC_BP_RANGE, FOREST, LINEAR, MLP, SCORE_MODELS, TREE,
};
use raven_obs::{Span, Trace};
use raven_server::proto::Request;
use raven_server::{AdmissionStats, NetConfig, ServerState, StatsSnapshot, DEFAULT_TENANT};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Times the whole set-up is repeated in a `--trace 0` run; `setup_s`
/// is the median.
pub const SETUP_REPEATS: usize = 3;

/// `serve_churn`: connection 0 issues one write after every this many
/// replies it receives. Tuned once on the reference box (2 cores) so
/// that `server.result_cache.hit_share` sits at about 0.90 (60 → 0.889,
/// 68 → 0.892): see README.md.
pub const CHURN_WRITE_EVERY: u64 = 74;

/// `point_score`: total arrival rate. About half of the rate at which
/// the reference box (2 cores) stops keeping up (the backlog grows
/// without bound between 30 000/s and 40 000/s), and the swept rate at
/// which latency depended least on the host's idle-wake-up behaviour:
/// see README.md.
pub const POINT_SCORE_RATE_HZ: f64 = 15_000.0;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 1–2 k-row tables and short phases: the schema test's mode.
    pub quick: bool,
    /// Where `trace-<workload>.json` goes.
    pub trace_dir: PathBuf,
}

#[derive(Debug)]
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: MetricSet,
}

impl RunOutput {
    /// The result line the contract asks for.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

/// Fixed per-workload latency limit: an operation slower than this
/// misses its SLO even when its answer is right.
pub fn latency_limit(workload: &str) -> Duration {
    Duration::from_millis(match workload {
        spec::BATCH_INFER => 500,
        spec::SERVE_EXEC => 100,
        spec::SERVE_CHURN => 50,
        spec::SERVE_HOT | spec::POINT_SCORE => 5,
        other => panic!("unknown workload {other}"),
    })
}

/// Requests each wire connection keeps in flight.
fn wire_window(kind: ServeKind) -> usize {
    match kind {
        ServeKind::Exec => 4,
        ServeKind::Hot | ServeKind::Churn => 16,
    }
}

const WIRE_CONNS: usize = 2;

enum Fixture {
    Batch(Box<BatchFixture>),
    Serve(ServeKind, Box<ServeFixture>),
    Score(Box<ScoreFixture>),
}

impl Fixture {
    /// Data generation + model training + registration + server start +
    /// oracle computation: everything `setup_s` covers.
    fn build(workload: &str, seed: u64, scale: Scale, traced: bool) -> Result<Fixture, String> {
        let serve = |kind| {
            Fixture::Serve(
                kind,
                Box::new(ServeFixture::build(kind, seed, scale, traced)),
            )
        };
        Ok(match workload {
            spec::BATCH_INFER => Fixture::Batch(Box::new(BatchFixture::build(seed, scale))),
            spec::SERVE_EXEC => serve(ServeKind::Exec),
            spec::SERVE_HOT => serve(ServeKind::Hot),
            spec::SERVE_CHURN => serve(ServeKind::Churn),
            spec::POINT_SCORE => Fixture::Score(Box::new(ScoreFixture::build(seed, scale, traced))),
            other => {
                return Err(format!(
                    "unknown workload {other:?}; expected one of {:?}",
                    spec::WORKLOADS
                ))
            }
        })
    }

    fn state(&self) -> Option<&Arc<ServerState>> {
        match self {
            Fixture::Batch(_) => None,
            Fixture::Serve(_, f) => Some(&f.state),
            Fixture::Score(f) => Some(&f.state),
        }
    }
}

/// The program's own counters at one instant.
#[derive(Clone)]
struct Counters {
    tenant: Option<StatsSnapshot>,
    global_admission: AdmissionStats,
    session_cache: (u64, u64),
}

impl Counters {
    fn read(fix: &Fixture) -> Counters {
        match fix {
            Fixture::Batch(f) => Counters {
                tenant: None,
                global_admission: AdmissionStats::default(),
                session_cache: f.session.session_cache_stats(),
            },
            _ => {
                let state = fix.state().expect("wire fixture");
                let tenant = state.tenant_stats(DEFAULT_TENANT).expect("default tenant");
                Counters {
                    session_cache: tenant.session_cache,
                    tenant: Some(tenant),
                    global_admission: state.admission_stats(),
                }
            }
        }
    }
}

/// Everything one warm-up + measured window produced.
struct WindowLog {
    clock: Clock,
    /// Operations per slice of the measured window, all threads merged.
    slices: Vec<Tally>,
    /// Process CPU time per slice.
    cpu: Vec<Duration>,
    spans: Vec<BenchSpan>,
    exec_traces: Vec<(u8, Vec<Span>)>,
    server_traces: Vec<Arc<Trace>>,
    writes: u64,
    before: Counters,
    after: Counters,
}

impl WindowLog {
    fn total(&self) -> Tally {
        let mut total = Tally::default();
        for slice in &self.slices {
            total.absorb(slice.clone());
        }
        total
    }

    /// Correct replies per second: the quiet quartile over slices.
    fn ok_per_s(&self) -> f64 {
        let slice_s = self.clock.slice_len().as_secs_f64();
        let per_slice = self
            .slices
            .iter()
            .map(|t| t.succeeded() as f64 / slice_s)
            .collect();
        quiet_quartile(per_slice, Quiet::High).expect("SLICES > 0")
    }

    /// Process CPU milliseconds per correct reply: the quiet quartile
    /// over the slices that completed any.
    fn cpu_ms_per_op(&self) -> Option<f64> {
        let per_slice = self
            .slices
            .iter()
            .zip(&self.cpu)
            .filter(|(t, _)| t.succeeded() > 0)
            .map(|(t, cpu)| cpu.as_secs_f64() * 1e3 / t.succeeded() as f64)
            .collect();
        quiet_quartile(per_slice, Quiet::Low)
    }

    /// Percentile `p` of the operation latency, µs: the quiet quartile
    /// over the finest grouping of adjacent slices (12, 6, 4, 3, 2 or 1
    /// groups) in which every group has enough samples to support `p`.
    fn latency_percentile(&self, p: f64) -> Option<f64> {
        (1..=SLICES)
            .filter(|per_group| SLICES.is_multiple_of(*per_group))
            .find_map(|per_group| {
                self.slices
                    .chunks(per_group)
                    .map(|group| {
                        let pooled = group
                            .iter()
                            .flat_map(|t| &t.latency_us)
                            .map(|&v| v as f64)
                            .collect();
                        Samples::new(pooled).percentile(p)
                    })
                    .collect::<Option<Vec<f64>>>()
            })
            .and_then(|per_group| quiet_quartile(per_group, Quiet::Low))
    }
}

/// Which end of a metric's range an undisturbed slice sits at.
#[derive(Clone, Copy)]
enum Quiet {
    Low,
    High,
}

/// One run's value of a timing metric from its per-slice values: the
/// quartile on the quiet side (the first for a time, the third for a
/// rate). The shared two-core box disturbs a run in bursts of a few
/// seconds, and a burst only ever makes a slice slower; the quiet
/// quartile stays put until bursts cover three quarters of the window,
/// where a median gives way at half — and, unlike the best slice, it
/// does not rest on one value.
fn quiet_quartile(per_slice: Vec<f64>, quiet: Quiet) -> Option<f64> {
    let samples = Samples::new(per_slice);
    match (samples.quartiles(), quiet) {
        (Some((q1, _, _)), Quiet::Low) => Some(q1),
        (Some((_, _, q3)), Quiet::High) => Some(q3),
        // A single group of slices: its own value.
        (None, _) => samples.median(),
    }
}

fn sleep_until(at: Instant) {
    if let Some(wait) = at.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// How often the traced window drains the server's trace ring (128
/// entries by default) so that it keeps more than the last 128 requests.
const TRACE_POLL: Duration = Duration::from_millis(5);
/// Traces kept from one traced window.
const MAX_TRACES: usize = 20_000;

/// Newly captured traces since `last_seq`, oldest first.
fn drain_traces(state: &ServerState, last_seq: &mut Option<u64>, into: &mut Vec<Arc<Trace>>) {
    let recent = state
        .recent_traces(DEFAULT_TENANT, 128)
        .expect("default tenant");
    let fresh = recent
        .into_iter()
        .take_while(|t| last_seq.is_none_or(|seen| t.seq > seen))
        .collect::<Vec<_>>();
    if let Some(newest) = fresh.first() {
        *last_seq = Some(newest.seq);
    }
    if into.len() < MAX_TRACES {
        into.extend(fresh.into_iter().rev());
    }
}

/// Warm the caches the workload is defined to run warm on: `serve_hot`
/// and `serve_churn` execute every pooled query once.
fn prewarm(fix: &Fixture) {
    if let Fixture::Serve(ServeKind::Hot | ServeKind::Churn, f) = fix {
        for query in &f.pool {
            f.state.execute(&query.sql).expect("prewarm query");
        }
    }
}

fn run_window(
    fix: &Fixture,
    cfg: &RunConfig,
    warmup: Duration,
    measure: Duration,
    traced: bool,
) -> WindowLog {
    prewarm(fix);
    let schedule = match fix {
        Fixture::Score(f) => poisson_schedule(
            cfg.seed,
            POINT_SCORE_RATE_HZ,
            warmup + measure,
            f.rows.len(),
        ),
        _ => Vec::new(),
    };
    let recording = Recording {
        limit: latency_limit(&cfg.workload),
        server_times: false,
        lateness: matches!(fix, Fixture::Score(_)),
        spans: traced,
    };
    let clock = Clock::starting_now(warmup, measure);
    let (clock, schedule, recording) = (&clock, &schedule, &recording);
    std::thread::scope(|scope| {
        let workers: Vec<std::thread::ScopedJoinHandle<'_, WorkerLog>> = match fix {
            Fixture::Batch(f) => {
                vec![scope.spawn(move || batch_worker(f, clock, recording, traced))]
            }
            Fixture::Serve(kind, f) => (0..WIRE_CONNS)
                .map(|conn| {
                    let write_every =
                        (*kind == ServeKind::Churn && conn == 0).then_some(CHURN_WRITE_EVERY);
                    let window = wire_window(*kind);
                    scope.spawn(move || {
                        wire_worker(f, conn, window, cfg.seed, clock, recording, write_every)
                    })
                })
                .collect(),
            Fixture::Score(f) => {
                vec![scope.spawn(move || open_loop(f, schedule, clock, recording))]
            }
        };
        sleep_until(clock.t0);
        let before = Counters::read(fix);
        let mut server_traces = Vec::new();
        let mut last_seq = None;
        if let (true, Some(state)) = (traced, fix.state()) {
            // Whatever the ring holds now was captured during warm-up.
            drain_traces(state, &mut last_seq, &mut Vec::new());
        }
        let mut cpu = Vec::with_capacity(SLICES);
        let mut cpu_before = procstat::cpu_time();
        for slice in 1..=SLICES as u32 {
            let boundary = clock.t0 + clock.slice_len() * slice;
            match (traced, fix.state()) {
                (true, Some(state)) => {
                    while Instant::now() < boundary {
                        std::thread::sleep(TRACE_POLL);
                        drain_traces(state, &mut last_seq, &mut server_traces);
                    }
                }
                _ => sleep_until(boundary),
            }
            let cpu_now = procstat::cpu_time();
            cpu.push(cpu_now - cpu_before);
            cpu_before = cpu_now;
        }
        let after = Counters::read(fix);
        let mut log = WindowLog {
            clock: *clock,
            slices: vec![Tally::default(); SLICES],
            cpu,
            spans: Vec::new(),
            exec_traces: Vec::new(),
            server_traces,
            writes: 0,
            before,
            after,
        };
        for worker in workers {
            let part = worker.join().expect("generator thread");
            for (into, slice) in log.slices.iter_mut().zip(part.slices) {
                into.absorb(slice);
            }
            log.spans.extend(part.spans);
            log.exec_traces.extend(part.exec_traces);
            log.writes += part.writes;
        }
        log
    })
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn phases(cfg: &RunConfig) -> (Duration, Scale) {
    if cfg.quick {
        (Duration::from_millis(200), Scale::QUICK)
    } else {
        (Duration::from_secs(1), Scale::FULL)
    }
}

pub fn run(cfg: &RunConfig) -> Result<RunOutput, String> {
    if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {}", cfg.seconds));
    }
    if cfg.trace {
        run_per_layer(cfg)
    } else {
        run_end_to_end(cfg)
    }
}

fn run_end_to_end(cfg: &RunConfig) -> Result<RunOutput, String> {
    let (warmup, scale) = phases(cfg);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut fixture = None;
    for _ in 0..SETUP_REPEATS {
        // One fixture alive at a time: the previous server is shut down
        // and its tables freed before the next set-up starts.
        drop(fixture.take());
        let started = Instant::now();
        fixture = Some(Fixture::build(&cfg.workload, cfg.seed, scale, false)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let fixture = fixture.expect("SETUP_REPEATS > 0");
    let log = run_window(
        &fixture,
        cfg,
        warmup,
        Duration::from_secs_f64(cfg.seconds),
        false,
    );
    drop(fixture);
    let total = log.total();
    let too_few = || {
        format!(
            "{} latency samples cannot support p95 (needs {} beyond it); lengthen --seconds",
            total.latency_us.len(),
            crate::samples::MIN_TAIL_SAMPLES
        )
    };
    let mut metrics = MetricSet::end_to_end();
    metrics.set("ops_per_s", log.ok_per_s());
    metrics.set(
        "latency_p50_us",
        log.latency_percentile(50.0).ok_or_else(too_few)?,
    );
    metrics.set(
        "latency_p95_us",
        log.latency_percentile(95.0).ok_or_else(too_few)?,
    );
    metrics.set(
        "slo_ok_share",
        1.0 - share(total.slo_missed, total.attempted),
    );
    metrics.set(
        "cpu_ms_per_op",
        log.cpu_ms_per_op()
            .ok_or("no operation completed correctly in the measured window")?,
    );
    metrics.set("setup_s", Samples::new(setups).median().expect("setups"));
    metrics.set("peak_rss_mb", procstat::peak_rss_mib());
    eprintln!(
        "{}: {} attempted, {} succeeded, {} failed, {} latency samples",
        cfg.workload,
        total.attempted,
        total.succeeded(),
        total.failed,
        total.latency_us.len()
    );
    Ok(RunOutput {
        attempted: total.attempted,
        failed: total.failed,
        metrics,
    })
}

fn run_per_layer(cfg: &RunConfig) -> Result<RunOutput, String> {
    let (warmup, scale) = phases(cfg);
    let warmup = warmup / 2;
    // The run's seconds split three ways: untraced window, probe pass,
    // traced window.
    let window = Duration::from_secs_f64(cfg.seconds * 0.35);
    let probe_budget = Duration::from_secs_f64(cfg.seconds * 0.012);
    let origin = Instant::now();
    let mut out = MetricSet::per_layer();

    let fixture = Fixture::build(&cfg.workload, cfg.seed, scale, false)?;
    let untraced = run_window(&fixture, cfg, warmup, window, false);
    let untraced_total = untraced.total();
    counters_metrics(&untraced, &untraced_total, &mut out);
    let mut prober = Prober::new(probe_budget, origin);
    probe_pass(&fixture, cfg, &mut prober, &mut out);

    // batch_infer traces from outside (a live recorder handed to the
    // executor); the wire workloads need a server that samples every
    // request, which is a second set-up.
    let traced_fixture = match fixture {
        Fixture::Batch(_) => fixture,
        _ => {
            drop(fixture);
            Fixture::build(&cfg.workload, cfg.seed, scale, true)?
        }
    };
    let traced = run_window(&traced_fixture, cfg, warmup, window, true);
    drop(traced_fixture);
    let traced_total = traced.total();
    let stage_table = traced_metrics(&traced, &traced_total, &mut out);
    let (untraced_rate, traced_rate) = (untraced.ok_per_s(), traced.ok_per_s());
    out.set("loadgen.untraced_ops_per_s", untraced_rate);
    out.set("loadgen.traced_ops_per_s", traced_rate);
    if untraced_rate > 0.0 {
        out.set(
            "trace.overhead_share",
            (untraced_rate - traced_rate) / untraced_rate,
        );
    }
    write_trace_file(cfg, &traced, &prober.spans, &stage_table)?;

    let attempted = untraced_total.attempted + traced_total.attempted;
    let failed = untraced_total.failed + traced_total.failed;
    eprintln!(
        "{}: {attempted} attempted, {} succeeded, {failed} failed (untraced + traced windows)",
        cfg.workload,
        attempted - failed
    );
    if attempted == 0 {
        return Err("no operation completed in the measured windows".into());
    }
    Ok(RunOutput {
        attempted,
        failed,
        metrics: out,
    })
}

/// Metrics read off the program's own counters (as deltas over the
/// untraced measured window) and off the generator.
fn counters_metrics(log: &WindowLog, total: &Tally, out: &mut MetricSet) {
    let samples = |values: &[f32]| Samples::new(values.iter().map(|&v| v as f64).collect());
    out.set("loadgen.samples", total.latency_us.len() as f64);
    out.set(
        "loadgen.slo_miss_share",
        share(total.slo_missed, total.attempted),
    );
    out.set("loadgen.writes", log.writes as f64);
    // A tail the window's samples cannot support is left unmeasured (0,
    // like a metric of a layer the workload never touches) and said so:
    // p99 needs 1 000 operations, more than `batch_infer` completes.
    match samples(&total.latency_us).percentile(99.0) {
        Some(p99) => out.set("loadgen.latency_p99_us", p99),
        None => eprintln!(
            "loadgen.latency_p99_us not measured: {} samples",
            total.latency_us.len()
        ),
    }
    // Only the open loop records lateness.
    if let Some(late) = samples(&total.late_us).percentile(95.0) {
        out.set("loadgen.lateness_p95_us", late);
    }

    let (hits, misses) = (
        log.after.session_cache.0 - log.before.session_cache.0,
        log.after.session_cache.1 - log.before.session_cache.1,
    );
    out.set(
        "runtime.session_cache_hit_share",
        share(hits, hits + misses),
    );

    let (Some(before), Some(after)) = (&log.before.tenant, &log.after.tenant) else {
        return;
    };
    let plan_hits = after.plan_cache.hits - before.plan_cache.hits;
    let plan_misses = after.plan_cache.misses - before.plan_cache.misses;
    out.set(
        "server.cache.plan_hit_share",
        share(plan_hits, plan_hits + plan_misses),
    );
    // Since server start, so that it reads "templates prepared so far".
    out.set(
        "server.cache.preparations",
        after.plan_cache.preparations as f64,
    );
    let (rb, ra) = (&before.result_cache, &after.result_cache);
    let (result_hits, result_misses) = (ra.hits - rb.hits, ra.misses - rb.misses);
    out.set(
        "server.result_cache.hit_share",
        share(result_hits, result_hits + result_misses),
    );
    out.set(
        "server.result_cache.executions",
        (ra.executions - rb.executions) as f64,
    );
    out.set(
        "server.result_cache.evictions",
        (ra.evictions - rb.evictions) as f64,
    );
    out.set(
        "server.result_cache.invalidations",
        (ra.invalidations - rb.invalidations) as f64,
    );

    // Per-request outcomes (tenant ring + global ring) of this tenant.
    let (ab, aa) = (&before.admission, &after.admission);
    let rejected = (aa.rejected_overloaded - ab.rejected_overloaded)
        + (aa.rejected_deadline - ab.rejected_deadline)
        + (log.after.global_admission.rejected_overloaded
            - log.before.global_admission.rejected_overloaded);
    let admitted = aa.admitted - ab.admitted;
    out.set(
        "server.admission.rejected_share",
        share(rejected, admitted + rejected),
    );

    let (bb, ba) = (&before.batcher, &after.batcher);
    let requests = ba.requests - bb.requests;
    let batches = ba.batches - bb.batches;
    let rows = ba.batched_rows - bb.batched_rows;
    out.set("server.batcher.scorer_calls", batches as f64);
    out.set("server.batcher.mean_batch", share(rows, batches));
    out.set(
        "server.batcher.shed_share",
        share(ba.shed - bb.shed, requests),
    );
    out.set(
        "server.batcher.expired_share",
        share(ba.expired - bb.expired, requests),
    );
    out.set(
        "server.batcher.score_us_per_row",
        share(ba.score_micros - bb.score_micros, rows),
    );
}

/// Mean self time per traced request of every stage, plus the client's
/// mean latency over the same window: `(stage, self_us)` rows whose sum,
/// with the unattributed remainder, is the client-observed latency.
struct StageTable {
    rows: Vec<(&'static str, f64)>,
    client_latency_us: f64,
    requests: usize,
}

fn traced_metrics(log: &WindowLog, total: &Tally, out: &mut MetricSet) -> StageTable {
    // batch_infer's span trees come from the generator (one per query
    // execution); the wire workloads' from the server's trace ring.
    let in_process = !log.exec_traces.is_empty();
    let trees: Vec<&[Span]> = if in_process {
        log.exec_traces.iter().map(|(_, s)| s.as_slice()).collect()
    } else {
        log.server_traces
            .iter()
            .map(|t| t.spans.as_slice())
            .collect()
    };
    out.set("trace.requests_traced", trees.len() as f64);
    out.set(
        "trace.spans",
        trees.iter().map(|t| t.len()).sum::<usize>() as f64,
    );
    let client_latency_us = mean(total.latency_us.iter().map(|&v| v as f64));
    let mut table = StageTable {
        rows: Vec::new(),
        client_latency_us,
        requests: trees.len(),
    };
    if trees.is_empty() {
        return table;
    }
    if in_process {
        probes::operator_self_times(&trees, out);
        for (kind, name) in spec::BATCH_QUERIES.iter().enumerate() {
            let (execs, scorers): (Vec<f64>, Vec<f64>) = log
                .exec_traces
                .iter()
                .filter(|(k, _)| *k as usize == kind)
                .map(|(_, spans)| probes::exec_and_scorer_us(spans))
                .unzip();
            if let Some(exec) = Samples::new(execs).median() {
                out.set(&format!("relational.exec_us.{name}"), exec);
                out.set(
                    &format!("runtime.scorer_us.{name}"),
                    Samples::new(scorers).median().expect("same count"),
                );
            }
        }
        return table;
    }
    let n = trees.len() as f64;
    let totals = sum_self_times(trees.iter().copied(), stage_of);
    let mut attributed = 0.0;
    for stage in spec::STAGES {
        let self_us = totals
            .iter()
            .find(|(s, _)| *s == stage)
            .map_or(0.0, |(_, total)| *total as f64 / n);
        out.set(&format!("server.stage.{stage}.self_us"), self_us);
        table.rows.push((stage, self_us));
        attributed += self_us;
    }
    if client_latency_us > 0.0 {
        out.set(
            "server.stage.unattributed_share",
            1.0 - attributed / client_latency_us,
        );
    }
    let stage = |name: &str| {
        table
            .rows
            .iter()
            .find(|(s, _)| *s == name)
            .map_or(0.0, |r| r.1)
    };
    out.set(
        "server.admission.wait_us",
        stage("tenant-quota-wait") + stage("global-admission-wait"),
    );
    let queue_total: u64 = trees
        .iter()
        .flat_map(|t| t.iter())
        .filter(|s| s.name == "batcher-queue")
        .map(|s| s.duration_us)
        .sum();
    out.set("server.batcher.queue_wait_us", queue_total as f64 / n);
    table
}

/// The `n`-th never-seen age constant of a `serve_exec` template: three
/// decimals, the last one never 0. The server keys its result cache on
/// the constant's value, and every pooled constant has two decimals, so
/// `27.530` would be a hit on the pool's `27.53`.
fn fresh_age(template: usize, n: usize) -> String {
    let (lo, hi) = EXEC_AGE_RANGES[template];
    let whole = lo + (n / 900) as i64 % (hi - lo);
    format!("{whole}.{:02}{}", n / 9 % 100, 1 + n % 9)
}

/// A `serve_exec` query the result cache has never seen, a new one for
/// every `i`, while its template is already prepared.
fn fresh_exec_sql(i: usize) -> String {
    let template = i % spec::EXEC_TEMPLATES.len();
    let age = fresh_age(template, i / spec::EXEC_TEMPLATES.len());
    let bp = format!("{}.5", (EXEC_BP_RANGE.0 + EXEC_BP_RANGE.1) / 2);
    exec_query(template, &age, &bp).0
}

fn probe_pass(fix: &Fixture, cfg: &RunConfig, prober: &mut Prober, out: &mut MetricSet) {
    match fix {
        Fixture::Batch(f) => {
            let texts: Vec<String> = f.queries.iter().map(|q| q.sql.clone()).collect();
            probes::planning(prober, &f.session, &texts, out);
            let model = |name| f.session.store().get(name).expect("stored model");
            let hospital = f.hospital.joined_batch();
            let rows = probes::ML_BATCH_ROWS;
            probes::predict(prober, "tree", &model(TREE), &hospital, rows, out);
            probes::predict(prober, "forest", &model(FOREST), &hospital, rows, out);
            probes::predict(prober, "mlp", &model(MLP), &hospital, rows, out);
            probes::predict(
                prober,
                "linear",
                &model(LINEAR),
                f.flights.flights.batch(),
                rows,
                out,
            );
            probes::kernel(prober, &model(FOREST), &hospital, out);
            probes::tensor(prober, &model(MLP), &hospital, out);
        }
        Fixture::Serve(kind, f) => {
            let session = f.state.session();
            let sqls: Vec<&str> = f.pool.iter().map(|q| q.sql.as_str()).collect();
            // One instance per template / shape.
            let firsts: Vec<&str> = (0..4)
                .map(|t| {
                    f.pool
                        .iter()
                        .find(|q| q.template == t)
                        .expect("every template is pooled")
                        .sql
                        .as_str()
                })
                .collect();
            let bounds: Vec<Bound> = firsts.iter().map(|s| probes::bind(&f.state, s)).collect();
            let literal: Vec<String> = firsts.iter().map(|s| s.to_string()).collect();
            let templates: Vec<String> = bounds.iter().map(|b| b.prepared.sql.clone()).collect();
            probes::normalize_sql(prober, &sqls, out);
            probes::fingerprint_and_bind(prober, &bounds, out);
            let requests: Vec<Request> = sqls
                .iter()
                .take(256)
                .map(|sql| Request::Query {
                    sql: sql.to_string(),
                    tenant: DEFAULT_TENANT.to_string(),
                    deadline: None,
                })
                .collect();
            probes::proto_requests(prober, &requests, out);
            // The largest reply among the instances: the forest-range
            // template on serve_exec, a ≤64-row reply elsewhere.
            let reply = firsts
                .iter()
                .map(|s| f.state.execute(s).expect("execute").table)
                .max_by_key(|t| t.num_rows())
                .expect("four instances");
            probes::proto_rows(prober, &reply, NetConfig::default().chunk_rows, out);
            probes::serve_hit(prober, &f.state, &firsts, out);
            if *kind != ServeKind::Hot {
                probes::planning(prober, &session, &templates, out);
            }
            if *kind == ServeKind::Exec {
                out.set(
                    "opt.rules_fired_literal",
                    probes::rules_fired(&session, &literal),
                );
                out.set(
                    "opt.rules_fired_param",
                    probes::rules_fired(&session, &templates),
                );
                let named: Vec<(&str, &Bound)> =
                    spec::EXEC_TEMPLATES.iter().copied().zip(&bounds).collect();
                probes::execution(prober, &executor_of(&session), &named, out);
                probes::serve_miss(prober, &f.state, fresh_exec_sql, out);
            }
            if *kind == ServeKind::Churn {
                probes::kernel(prober, &f.forest, &f.hospital.joined_batch(), out);
            }
            wire_overhead(f, cfg, prober, out);
        }
        Fixture::Score(f) => {
            let small = probes::SMALL_BATCH_ROWS;
            probes::predict(prober, "tree", &f.models[0], &f.batch, small, out);
            probes::predict(prober, "mlp", &f.models[1], &f.batch, small, out);
            let requests: Vec<Request> = f
                .rows
                .iter()
                .take(256)
                .enumerate()
                .map(|(i, row)| Request::Score {
                    model: SCORE_MODELS[(i % 4 == 3) as usize].to_string(),
                    tenant: DEFAULT_TENANT.to_string(),
                    row: row.clone(),
                })
                .collect();
            probes::proto_requests(prober, &requests, out);
        }
    }
}

/// `server.net.wire_overhead_us`: one connection, one request in flight
/// — the client's median round trip minus the median of what the server
/// itself reports (`RowsEnd.total_micros`) for the same requests. What
/// is left is reactor, framing, hand-off and write-queue time, none of
/// which the program traces today.
fn wire_overhead(fix: &ServeFixture, cfg: &RunConfig, prober: &mut Prober, out: &mut MetricSet) {
    let window = Duration::from_secs_f64(cfg.seconds * 0.03);
    let clock = Clock::starting_now(Duration::ZERO, window);
    let recording = Recording {
        limit: latency_limit(&cfg.workload),
        server_times: true,
        lateness: false,
        spans: false,
    };
    // Stream 7: a request sequence of its own, unlike connections 0/1.
    let log = wire_worker(fix, 7, 1, cfg.seed, &clock, &recording, None);
    prober.spans.push(BenchSpan {
        name: "server.net.window1",
        lane: 0,
        start_us: (clock.start - prober.origin()).as_micros() as u64,
        duration_us: clock.start.elapsed().as_micros() as u64,
    });
    let median = |pick: fn(&Tally) -> &Vec<f32>| {
        Samples::new(
            log.slices
                .iter()
                .flat_map(pick)
                .map(|&v| v as f64)
                .collect(),
        )
        .median()
    };
    if let (Some(client), Some(server)) = (median(|t| &t.latency_us), median(|t| &t.server_us)) {
        out.set("server.net.wire_overhead_us", client - server);
    }
}

fn span_json(name: &str, lane: u8, start_us: u64, duration_us: u64) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("lane", Json::Num(lane as f64)),
        ("start_us", Json::Num(start_us as f64)),
        ("duration_us", Json::Num(duration_us as f64)),
    ])
}

fn tree_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name.clone())),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("start_us", Json::Num(s.start_us as f64)),
                    ("duration_us", Json::Num(s.duration_us as f64)),
                ])
            })
            .collect(),
    )
}

/// Request span trees written to the trace file (the aggregate table
/// covers all of them; the file keeps the first few hundred to read).
const TRACE_FILE_REQUESTS: usize = 400;

/// Everything recorded in memory during the traced window, written once.
fn write_trace_file(
    cfg: &RunConfig,
    log: &WindowLog,
    probe_spans: &[BenchSpan],
    table: &StageTable,
) -> Result<(), String> {
    let requests: Vec<Json> = if log.exec_traces.is_empty() {
        log.server_traces
            .iter()
            .take(TRACE_FILE_REQUESTS)
            .map(|t| {
                Json::obj([
                    ("seq", Json::Num(t.seq as f64)),
                    ("sql", Json::str(t.sql.clone())),
                    ("total_us", Json::Num(t.total_us as f64)),
                    ("spans", tree_json(&t.spans)),
                ])
            })
            .collect()
    } else {
        log.exec_traces
            .iter()
            .take(TRACE_FILE_REQUESTS)
            .map(|(kind, spans)| {
                Json::obj([
                    ("query", Json::str(spec::BATCH_QUERIES[*kind as usize])),
                    ("spans", tree_json(spans)),
                ])
            })
            .collect()
    };
    let bench_spans = |spans: &[BenchSpan]| {
        Json::Arr(
            spans
                .iter()
                .map(|s| span_json(s.name, s.lane, s.start_us, s.duration_us))
                .collect(),
        )
    };
    let doc = Json::obj([
        ("workload", Json::str(cfg.workload.clone())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("traced_requests", Json::Num(table.requests as f64)),
        ("client_latency_us_mean", Json::Num(table.client_latency_us)),
        (
            "stage_self_us_mean",
            Json::Obj(
                table
                    .rows
                    .iter()
                    .map(|(stage, us)| (stage.to_string(), Json::Num(*us)))
                    .collect(),
            ),
        ),
        ("requests", Json::Arr(requests)),
        ("loadgen_spans", bench_spans(&log.spans)),
        ("probe_spans", bench_spans(probe_spans)),
    ]);
    std::fs::create_dir_all(&cfg.trace_dir)
        .map_err(|e| format!("create {}: {e}", cfg.trace_dir.display()))?;
    let path = cfg.trace_dir.join(format!("trace-{}.json", cfg.workload));
    std::fs::write(&path, doc.render()).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_quiet_quartile_ignores_bursts_that_cover_under_three_quarters() {
        // Eight of twelve slices slowed by a burst.
        let mut latency = vec![100.0; 12];
        latency[2..10].fill(180.0);
        assert_eq!(quiet_quartile(latency, Quiet::Low), Some(100.0));
        let mut rate = vec![50.0; 12];
        rate[2..10].fill(30.0);
        assert_eq!(quiet_quartile(rate, Quiet::High), Some(50.0));
        assert_eq!(quiet_quartile(vec![7.0], Quiet::Low), Some(7.0));
        assert_eq!(quiet_quartile(Vec::new(), Quiet::Low), None);
    }

    #[test]
    fn fresh_constants_are_distinct_and_never_equal_a_two_decimal_value() {
        for (template, (lo, hi)) in EXEC_AGE_RANGES.into_iter().enumerate() {
            let mut seen = std::collections::HashSet::new();
            for n in 0..10_000 {
                let text = fresh_age(template, n);
                let value: f64 = text.parse().expect("numeric literal");
                assert!((lo as f64..hi as f64).contains(&value), "{text}");
                // A pooled constant is a whole number of hundredths.
                let thousandths = (value * 1000.0).round() as i64;
                assert!((value * 1000.0 - thousandths as f64).abs() < 1e-6, "{text}");
                assert_ne!(thousandths % 10, 0, "{text} equals a pooled constant");
                assert!(seen.insert(thousandths), "{text} repeats");
            }
        }
    }
}
