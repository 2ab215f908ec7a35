//! The load generators: one process, at most two generator threads.
//!
//! * closed loop, in-process — one caller of `RavenSession::query`;
//! * closed loop, wire — two `PipelinedClient` connections, each kept at
//!   a fixed window of requests in flight;
//! * open loop, wire — a seeded Poisson schedule of v6 `Score` frames
//!   over two connections, one thread pacing the sends and one reading
//!   the replies, latency counted from each request's *due* time.
//!
//! Every reply is checked against the oracle on the generator thread.
//! The generators also record their own spans (submit / flush / recv /
//! check) when asked to, for the trace file.

use crate::workloads::{
    exp_gap, stream_rng, BatchFixture, ScoreFixture, ServeFixture, SCORE_MODELS,
};
use polling::{Event, Poller};
use rand::{Rng, StdRng};
use raven_core::RavenSession;
use raven_obs::{Span, SpanRecorder};
use raven_relational::{CancelToken, Scorer, SharedExecutor};
use raven_server::proto::{self, Request, Response};
use raven_server::PipelinedClient;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Equal time slices the measured window is cut into. A metric is the
/// median over slices (or over groups of adjacent slices), so a stall
/// that covers less than half of the window does not move it.
pub const SLICES: usize = 12;

/// One run's phases: warm-up `[start, t0)`, measured window `[t0, t1)`.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    pub start: Instant,
    pub t0: Instant,
    pub t1: Instant,
}

impl Clock {
    pub fn starting_now(warmup: Duration, measure: Duration) -> Clock {
        let start = Instant::now();
        Clock {
            start,
            t0: start + warmup,
            t1: start + warmup + measure,
        }
    }

    pub fn window(&self) -> Duration {
        self.t1 - self.t0
    }

    pub fn slice_len(&self) -> Duration {
        self.window() / SLICES as u32
    }

    /// The slice of the measured window `at` falls into, if any.
    pub fn slice_of(&self, at: Instant) -> Option<usize> {
        if at < self.t0 || at >= self.t1 {
            return None;
        }
        let index = (at - self.t0).as_nanos() * SLICES as u128 / self.window().as_nanos();
        Some((index as usize).min(SLICES - 1))
    }
}

/// One operation as the generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// The instant that places the op in a phase and slice: completion
    /// (closed loop) or due time (open loop).
    pub at: Instant,
    /// Closed loop: submit → reply. Open loop: due → reply.
    pub latency_us: f64,
    /// A reply arrived, without error, and matched the oracle.
    pub ok: bool,
    /// The server's own `total_micros` for the request (0 if none).
    pub server_us: f64,
    /// Open loop: how long after its due time the request was sent.
    pub late_us: f64,
}

/// The operations of one slice of the measured window. Latencies are
/// kept as `f32` µs (exact to the microsecond below 16 s) so that the
/// generator's own memory stays small beside the program's.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failed, or slower than the workload's latency limit.
    pub slo_missed: u64,
    pub latency_us: Vec<f32>,
    pub server_us: Vec<f32>,
    pub late_us: Vec<f32>,
}

impl Tally {
    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.slo_missed += other.slo_missed;
        self.latency_us.extend(other.latency_us);
        self.server_us.extend(other.server_us);
        self.late_us.extend(other.late_us);
    }
}

/// What a generator records per operation.
#[derive(Debug, Clone, Copy)]
pub struct Recording {
    /// An operation slower than this misses its SLO.
    pub limit: Duration,
    /// Keep the server-reported time of each reply (wire-overhead probe).
    pub server_times: bool,
    /// Keep each request's send lateness (open loop).
    pub lateness: bool,
    /// Keep the generator's own spans (traced window).
    pub spans: bool,
}

/// A span recorded by the generator itself.
#[derive(Debug, Clone, Copy)]
pub struct BenchSpan {
    pub name: &'static str,
    /// Generator thread (connection) number.
    pub lane: u8,
    pub start_us: u64,
    pub duration_us: u64,
}

/// Cap on generator spans kept per thread (memory, not time, is the
/// limit: a hot run completes >100k operations).
const MAX_BENCH_SPANS: usize = 20_000;

struct SpanLog {
    origin: Instant,
    lane: u8,
    spans: Vec<BenchSpan>,
    enabled: bool,
}

impl SpanLog {
    fn new(origin: Instant, lane: u8, enabled: bool) -> SpanLog {
        SpanLog {
            origin,
            lane,
            spans: Vec::new(),
            enabled,
        }
    }

    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled || self.spans.len() >= MAX_BENCH_SPANS {
            return f();
        }
        let started = Instant::now();
        let out = f();
        self.spans.push(BenchSpan {
            name,
            lane: self.lane,
            start_us: (started - self.origin).as_micros() as u64,
            duration_us: started.elapsed().as_micros() as u64,
        });
        out
    }
}

/// What one generator thread hands back.
#[derive(Debug)]
pub struct WorkerLog {
    /// One tally per slice of the measured window.
    pub slices: Vec<Tally>,
    pub spans: Vec<BenchSpan>,
    /// In-process traced execution only: `(query index, executor spans)`
    /// of the queries completed inside the measured window.
    pub exec_traces: Vec<(u8, Vec<Span>)>,
    /// Writes issued beside the reads (`serve_churn`).
    pub writes: u64,
}

impl WorkerLog {
    fn new() -> WorkerLog {
        WorkerLog {
            slices: vec![Tally::default(); SLICES],
            spans: Vec::new(),
            exec_traces: Vec::new(),
            writes: 0,
        }
    }

    /// File `op` under its slice; `false` when it lies outside the
    /// measured window (warm-up, or in flight at the end).
    fn record(&mut self, clock: &Clock, recording: &Recording, op: Op) -> bool {
        let Some(slice) = clock.slice_of(op.at) else {
            return false;
        };
        let tally = &mut self.slices[slice];
        tally.attempted += 1;
        tally.failed += !op.ok as u64;
        tally.slo_missed += (!op.ok || op.latency_us > micros(recording.limit)) as u64;
        tally.latency_us.push(op.latency_us as f32);
        if recording.server_times {
            tally.server_us.push(op.server_us as f32);
        }
        if recording.lateness {
            tally.late_us.push(op.late_us as f32);
        }
        true
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

// ---------------------------------------------------------------------
// Closed loop, in-process.

/// The executor a session (or a tenant's session) runs plans on.
pub fn executor_of(session: &RavenSession) -> SharedExecutor {
    SharedExecutor::new(
        session.catalog_shared(),
        session.scorer_shared() as Arc<dyn Scorer>,
        session.config().exec,
    )
}

/// Round-robin over the fixture's queries until `clock.t1`, each one a
/// full parse → optimize → execute. With `traced`, execution goes
/// through `SharedExecutor::execute_traced` with a live recorder and the
/// operator span tree of every query is kept.
pub fn batch_worker(
    fix: &BatchFixture,
    clock: &Clock,
    recording: &Recording,
    traced: bool,
) -> WorkerLog {
    let session = &fix.session;
    let executor = executor_of(session);
    let mut log = WorkerLog::new();
    let mut spans = SpanLog::new(clock.start, 0, recording.spans);
    for i in 0.. {
        let kind = i % fix.queries.len();
        let query = &fix.queries[kind];
        let started = Instant::now();
        let mut trace = None;
        let table = if traced {
            let plan = spans.timed("sql.plan", || session.plan(&query.sql));
            let optimized = spans.timed("opt.optimize", || {
                plan.and_then(|p| session.optimize(p)).map(|(p, _)| p)
            });
            let recorder = SpanRecorder::enabled();
            let table = spans.timed("relational.execute", || {
                optimized.ok().and_then(|p| {
                    executor
                        .execute_traced(&p, &[], &CancelToken::new(), &recorder)
                        .ok()
                })
            });
            trace = Some(recorder.into_spans());
            table
        } else {
            session.query(&query.sql).ok().map(|r| r.table)
        };
        let done = Instant::now();
        let ok = spans.timed("loadgen.check", || {
            table.is_some_and(|t| query.expected.matches(&t))
        });
        let op = Op {
            at: done,
            latency_us: micros(done - started),
            ok,
            server_us: 0.0,
            late_us: 0.0,
        };
        if let (true, Some(trace)) = (log.record(clock, recording, op), trace) {
            log.exec_traces.push((kind as u8, trace));
        }
        if done >= clock.t1 {
            break;
        }
    }
    log.spans = spans.spans;
    log
}

// ---------------------------------------------------------------------
// Closed loop, wire.

/// One `PipelinedClient` connection kept at `window` requests in flight
/// until `clock.t1`: literal SQL drawn uniformly from the fixture's pool
/// by a generator seeded with `(seed, conn)`. With `write_every = k`,
/// every k-th reply this connection receives is followed by one
/// in-process write ([`ServeFixture::churn_write`]) — a count, never a
/// timer.
pub fn wire_worker(
    fix: &ServeFixture,
    conn: usize,
    window: usize,
    seed: u64,
    clock: &Clock,
    recording: &Recording,
    write_every: Option<u64>,
) -> WorkerLog {
    let mut client = PipelinedClient::connect(fix.addr).expect("connect to loopback server");
    let mut picks = RequestStream::new(seed, conn, fix.pool.len());
    let mut inflight: HashMap<u32, (Instant, usize)> = HashMap::with_capacity(window);
    let mut log = WorkerLog::new();
    let mut spans = SpanLog::new(clock.start, conn as u8, recording.spans);
    let mut submit = |client: &mut PipelinedClient,
                      inflight: &mut HashMap<u32, (Instant, usize)>,
                      spans: &mut SpanLog| {
        let index = picks.next_index();
        let sent = Instant::now();
        let id = spans
            .timed("loadgen.submit", || {
                client.submit(&fix.pool[index].sql, None)
            })
            .expect("submit");
        inflight.insert(id, (sent, index));
    };
    for _ in 0..window {
        submit(&mut client, &mut inflight, &mut spans);
    }
    let mut replies = 0u64;
    loop {
        spans
            .timed("loadgen.flush", || client.flush())
            .expect("flush");
        let (id, reply) = spans
            .timed("loadgen.recv", || client.recv())
            .expect("connection stays usable");
        let done = Instant::now();
        let (sent, index) = inflight.remove(&id).expect("reply to a request in flight");
        let (ok, server_us) = match reply {
            Ok(reply) => (
                spans.timed("loadgen.check", || fix.verify(index, &reply.table)),
                micros(reply.server_time),
            ),
            Err(_) => (false, 0.0),
        };
        let op = Op {
            at: done,
            latency_us: micros(done - sent),
            ok,
            server_us,
            late_us: 0.0,
        };
        log.record(clock, recording, op);
        replies += 1;
        if write_every.is_some_and(|k| replies.is_multiple_of(k)) {
            spans.timed("loadgen.write", || fix.churn_write(log.writes));
            log.writes += 1;
        }
        if done >= clock.t1 {
            break;
        }
        submit(&mut client, &mut inflight, &mut spans);
    }
    while client.in_flight() > 0 {
        if client.recv().is_err() {
            break;
        }
    }
    log.spans = spans.spans;
    log
}

/// The seeded sequence of pool indices one connection sends.
pub struct RequestStream {
    rng: StdRng,
    pool: usize,
}

impl RequestStream {
    pub fn new(seed: u64, conn: usize, pool: usize) -> RequestStream {
        RequestStream {
            rng: stream_rng(seed, 100 + conn as u64),
            pool,
        }
    }

    pub fn next_index(&mut self) -> usize {
        self.rng.gen_range(0..self.pool)
    }
}

// ---------------------------------------------------------------------
// Open loop, wire.

/// One scheduled `Score` request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Due time, from the start of the run.
    pub due: Duration,
    pub conn: u8,
    /// Index into [`SCORE_MODELS`].
    pub model: u8,
    /// Index into the fixture's row pool.
    pub row: u32,
}

pub const SCORE_CONNS: usize = 2;

/// A Poisson process at `rate_hz` over `[0, span)`, each arrival sent on
/// a uniformly chosen connection (so each connection carries a Poisson
/// process at half the rate), 3 tree requests to 1 MLP.
pub fn poisson_schedule(seed: u64, rate_hz: f64, span: Duration, rows: usize) -> Vec<Arrival> {
    let mut rng = stream_rng(seed, 3);
    let mut schedule = Vec::with_capacity((rate_hz * span.as_secs_f64() * 1.1) as usize);
    let mut due = exp_gap(&mut rng, rate_hz);
    while due < span {
        schedule.push(Arrival {
            due,
            conn: rng.gen_range(0..SCORE_CONNS) as u8,
            model: (rng.gen_range(0..4) == 3) as u8,
            row: rng.gen_range(0..rows) as u32,
        });
        due += exp_gap(&mut rng, rate_hz);
    }
    schedule
}

/// How long after the last due time the receiver keeps waiting for
/// outstanding replies; a request unanswered by then has failed.
const REPLY_GRACE: Duration = Duration::from_secs(2);

/// Run `schedule` against the fixture's server: the calling thread paces
/// and sends, a second thread receives. Every arrival due inside the
/// measured window is one operation, filed under its due instant; an
/// arrival with no reply has failed, with the grace period as its
/// latency.
pub fn open_loop(
    fix: &ScoreFixture,
    schedule: &[Arrival],
    clock: &Clock,
    recording: &Recording,
) -> WorkerLog {
    let senders: Vec<TcpStream> = (0..SCORE_CONNS)
        .map(|_| {
            let stream = TcpStream::connect(fix.addr).expect("connect to loopback server");
            stream.set_nodelay(true).expect("nodelay");
            stream
        })
        .collect();
    let receivers: Vec<TcpStream> = senders
        .iter()
        .map(|s| s.try_clone().expect("clone socket"))
        .collect();
    // Request ids are per-connection sequence numbers; this maps them
    // back to the schedule without any cross-thread bookkeeping.
    let mut by_conn: Vec<Vec<usize>> = vec![Vec::new(); SCORE_CONNS];
    for (i, a) in schedule.iter().enumerate() {
        by_conn[a.conn as usize].push(i);
    }
    let last_due = schedule.last().map_or(clock.start, |a| clock.start + a.due);
    let give_up = last_due + REPLY_GRACE;

    let (sent_at, mut log, replied) = std::thread::scope(|scope| {
        let by_conn = &by_conn;
        let receiver = scope.spawn(move || receive_scores(receivers, by_conn, give_up));
        let mut spans = SpanLog::new(clock.start, 0, recording.spans);
        let mut next_id = [0u32; SCORE_CONNS];
        let mut senders = senders;
        let mut sent_at = Vec::with_capacity(schedule.len());
        for arrival in schedule {
            let due = clock.start + arrival.due;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let conn = arrival.conn as usize;
            let frame = Request::Score {
                model: SCORE_MODELS[arrival.model as usize].to_string(),
                tenant: raven_server::DEFAULT_TENANT.to_string(),
                row: fix.rows[arrival.row as usize].clone(),
            }
            .encode_for_version(proto::PROTOCOL_VERSION, next_id[conn]);
            next_id[conn] += 1;
            sent_at.push(Instant::now());
            spans
                .timed("loadgen.submit", || senders[conn].write_all(&frame))
                .expect("send score frame");
        }
        let replied = receiver.join().expect("receiver thread");
        let mut log = WorkerLog::new();
        log.spans = spans.spans;
        (sent_at, log, replied)
    });

    for (i, arrival) in schedule.iter().enumerate() {
        let due = clock.start + arrival.due;
        let (latency, ok) = match replied[i] {
            Some((at, value)) => (
                at.saturating_duration_since(due),
                value.is_some_and(|v| fix.verify(arrival.model as usize, arrival.row as usize, v)),
            ),
            None => (REPLY_GRACE, false),
        };
        let op = Op {
            at: due,
            latency_us: micros(latency),
            ok,
            server_us: 0.0,
            late_us: micros(sent_at[i].saturating_duration_since(due)),
        };
        log.record(clock, recording, op);
    }
    log
}

/// Read `Score` replies from every connection until each scheduled
/// request is answered or `give_up` passes. Per arrival: when its reply
/// arrived and the score it carried (`None` for an error frame).
fn receive_scores(
    mut streams: Vec<TcpStream>,
    by_conn: &[Vec<usize>],
    give_up: Instant,
) -> Vec<Option<(Instant, Option<f64>)>> {
    let total: usize = by_conn.iter().map(Vec::len).sum();
    let mut replied = vec![None; total];
    let mut outstanding = total;
    let poller = Poller::new().expect("poller");
    for (key, stream) in streams.iter().enumerate() {
        poller
            .add(stream.as_raw_fd(), key, true, false)
            .expect("register socket");
    }
    let mut buffers: Vec<Vec<u8>> = vec![Vec::new(); streams.len()];
    let mut chunk = vec![0u8; 64 * 1024];
    let mut events: Vec<Event> = Vec::new();
    while outstanding > 0 {
        let Some(left) = give_up.checked_duration_since(Instant::now()) else {
            break;
        };
        poller.wait(&mut events, Some(left)).expect("poll");
        let now = Instant::now();
        for event in events.iter().filter(|e| e.readable) {
            // Level-triggered readiness: this read returns what is
            // there without blocking.
            let n = streams[event.key].read(&mut chunk).expect("read replies");
            assert!(n > 0, "server closed the connection mid-run");
            let buffer = &mut buffers[event.key];
            buffer.extend_from_slice(&chunk[..n]);
            let mut consumed = 0;
            while let Some(len) = buffer[consumed..]
                .first_chunk::<4>()
                .map(|l| u32::from_le_bytes(*l) as usize)
            {
                let Some(body) = buffer.get(consumed + 4..consumed + 4 + len) else {
                    break;
                };
                let (response, _version, id) =
                    Response::decode_framed(body).expect("well-formed reply frame");
                let value = match response {
                    Response::Score { value } => Some(value),
                    _ => None,
                };
                if let Some(slot) = by_conn[event.key]
                    .get(id as usize)
                    .map(|&arrival| &mut replied[arrival])
                    .filter(|slot| slot.is_none())
                {
                    *slot = Some((now, value));
                    outstanding -= 1;
                }
                consumed += 4 + len;
            }
            buffer.drain(..consumed);
        }
    }
    for stream in &mut streams {
        let _ = poller.delete(stream.as_raw_fd());
    }
    replied
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_is_a_function_of_the_seed_with_the_asked_rate_and_mix() {
        let span = Duration::from_secs(10);
        let a = poisson_schedule(11, 2_000.0, span, 512);
        assert_eq!(a, poisson_schedule(11, 2_000.0, span, 512));
        assert_ne!(a, poisson_schedule(12, 2_000.0, span, 512));
        assert!(
            (a.len() as f64 - 20_000.0).abs() < 600.0,
            "{} arrivals",
            a.len()
        );
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.iter().all(|x| x.due < span && (x.row as usize) < 512));
        let mlp = a.iter().filter(|x| x.model == 1).count() as f64 / a.len() as f64;
        assert!((mlp - 0.25).abs() < 0.02, "MLP share {mlp}");
        let conn0 = a.iter().filter(|x| x.conn == 0).count() as f64 / a.len() as f64;
        assert!((conn0 - 0.5).abs() < 0.02, "connection-0 share {conn0}");
    }

    #[test]
    fn slices_tile_the_measured_window() {
        let clock = Clock::starting_now(Duration::from_secs(1), Duration::from_secs(12));
        assert_eq!(clock.slice_len(), Duration::from_secs(1));
        assert_eq!(clock.slice_of(clock.start), None);
        assert_eq!(clock.slice_of(clock.t0), Some(0));
        assert_eq!(
            clock.slice_of(clock.t0 + Duration::from_millis(999)),
            Some(0)
        );
        assert_eq!(
            clock.slice_of(clock.t0 + Duration::from_millis(1000)),
            Some(1)
        );
        assert_eq!(
            clock.slice_of(clock.t1 - Duration::from_nanos(1)),
            Some(SLICES - 1)
        );
        assert_eq!(clock.slice_of(clock.t1), None);
    }

    #[test]
    fn a_connection_request_sequence_is_a_function_of_seed_and_connection() {
        let take = |seed, conn| {
            let mut s = RequestStream::new(seed, conn, 4096);
            (0..64).map(|_| s.next_index()).collect::<Vec<_>>()
        };
        assert_eq!(take(5, 0), take(5, 0));
        assert_ne!(take(5, 0), take(5, 1));
        assert_ne!(take(5, 0), take(6, 0));
    }
}
