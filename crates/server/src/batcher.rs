//! Micro-batched point scoring with SLO-aware flushing, and the
//! caller-runs shortcut for models too cheap to be worth a queue.
//!
//! Serving workloads are dominated by single-row "score this one entity"
//! requests. The paper's §5 observation v (batch inference gains ~an
//! order of magnitude) is about a *per-invocation* overhead — crossing
//! into an ML runtime — that batching amortizes. The micro-batcher does
//! that amortizing: concurrent single-row requests are queued, coalesced
//! for up to a flush window (or until a batch fills), grouped by model,
//! and scored with **one** pipeline invocation per model per flush.
//!
//! Coalescing itself costs two thread hand-offs (caller → worker →
//! caller), each a wake-up of some tens of µs. It pays only when the
//! invocation it amortizes costs much more than that. So the batcher
//! keeps, next to the tenant-wide cost EWMAs, one pair per **(model,
//! version)** — recorded by every invocation, whichever path made it —
//! and offers [`MicroBatcher::try_score_inline`]: when the model's
//! current version has been measured and one row of it is predicted to
//! cost at most [`INLINE_SCORE_BUDGET_US`], the row is scored on the
//! calling thread, recorded exactly as a flush of one row, and never
//! touches the queue. The reactor calls it for wire `Score` frames;
//! everything it declines (unmeasured, expensive, unknown, wrong arity,
//! no deadline slack) takes [`MicroBatcher::score`], which still owns
//! coalescing and every typed error. Both paths run the same
//! `score_and_record`.
//!
//! The flush window is deadline-aware. Each request may carry a deadline;
//! the worker sheds requests whose deadline expired while they queued
//! (typed [`ServerError::DeadlineExceeded`], before the scoring batch is
//! built — an expired row never reaches the scorer), and under the
//! [`BatchPolicy::Adaptive`] policy the window itself is computed each
//! loop iteration from the observed cost EWMAs versus the oldest queued
//! request's remaining slack:
//!
//! ```text
//! predicted_us = ewma_invocation_us + pending × ewma_row_us
//! window       = clamp(min(oldest_slack − predicted, predicted), min_wait, max_wait)
//! ```
//!
//! The `predicted` term alone bounds how long a wait is *worth* (waiting
//! longer than the invocation it amortizes is pure latency); the slack
//! term bounds how long a wait is *affordable* before the predicted
//! invocation cost eats the oldest request's deadline. Enqueue is guarded
//! the same way: when even an immediate flush is predicted to miss the
//! request's deadline, `score` rejects typed instead of queueing a doomed
//! request ([admit-or-shed]); every shed/expired outcome lands in the
//! registry (`batcher_shed_total`, `batcher_expired_total`) so the
//! counters reconcile exactly:
//! `requests == rows scored + bad_arity + shed + expired + failed`
//! (`batcher_inline_total` counts how many of the rows scored took the
//! caller-runs path).
//!
//! [admit-or-shed]: MicroBatcher::score

use crate::error::{Result, ServerError};
use parking_lot::{Mutex, RwLock};
use raven_core::ModelStore;
use raven_ml::Pipeline;
use raven_obs::{Counter, Gauge, Histogram, MetricsRegistry, SpanRecorder};
use raven_relational::CancelToken;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a partial batch's flush window is sized.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchPolicy {
    /// Flush a partial batch a fixed interval after its first request
    /// arrived — the pre-adaptive behavior, kept for predictable-latency
    /// deployments and benchmarks.
    Fixed {
        /// Wait this long after a batch's first request before flushing.
        flush_interval: Duration,
    },
    /// Recompute the window every loop iteration from the registry cost
    /// EWMAs versus the oldest queued deadline (see the module docs for
    /// the formula), clamped to `[min_wait, max_wait]`. A batch never
    /// waits longer than `max_wait` in total.
    Adaptive {
        /// Floor: always willing to wait at least this long (coalescing
        /// opportunity even when the scorer measures near-free).
        min_wait: Duration,
        /// Ceiling: never hold a partial batch longer than this.
        max_wait: Duration,
    },
}

/// Micro-batching knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchConfig {
    /// Flush as soon as this many requests are pending.
    pub max_batch: usize,
    /// How the partial-batch flush window is sized.
    pub policy: BatchPolicy,
}

impl BatchConfig {
    /// A fixed flush window (the pre-adaptive configuration shape).
    pub fn fixed(max_batch: usize, flush_interval: Duration) -> Self {
        BatchConfig {
            max_batch,
            policy: BatchPolicy::Fixed { flush_interval },
        }
    }

    /// An adaptive window clamped to `[min_wait, max_wait]`.
    pub fn adaptive(max_batch: usize, min_wait: Duration, max_wait: Duration) -> Self {
        BatchConfig {
            max_batch,
            policy: BatchPolicy::Adaptive { min_wait, max_wait },
        }
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        // Adaptive by default: the old fixed 1 ms becomes the ceiling,
        // so a measured-cheap scorer flushes almost immediately while an
        // expensive one may still hold the full window.
        BatchConfig::adaptive(64, Duration::ZERO, Duration::from_millis(1))
    }
}

/// Counters exposed by [`MicroBatcher::stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BatcherStats {
    /// Single-row requests accepted (every `score` call, counted before
    /// the outcome is known).
    pub requests: u64,
    /// Scorer invocations issued (per model per flush).
    pub batches: u64,
    /// Rows scored across all batches.
    pub batched_rows: u64,
    /// Of those rows (and invocations), how many
    /// [`MicroBatcher::try_score_inline`] scored on the caller's thread.
    pub inline: u64,
    /// Largest single scorer invocation.
    pub max_batch_seen: u64,
    /// Requests rejected at enqueue: the cost model predicted a deadline
    /// miss even for an immediate flush.
    pub shed: u64,
    /// Requests whose deadline expired while queued, shed at flush time
    /// before the scoring batch was built.
    pub expired: u64,
    /// Requests rejected for a feature-count mismatch.
    pub bad_arity: u64,
    /// Requests that failed before scoring (model not in the store).
    pub failed: u64,
    /// Total wall time spent inside scorer invocations (µs).
    pub score_micros: u64,
    /// Exponentially-weighted observed cost of one scorer *invocation*
    /// (µs) — the fixed overhead adaptive batching amortizes.
    pub ewma_invocation_micros: f64,
    /// Exponentially-weighted observed cost per scored *row* (µs) — the
    /// marginal cost that bounds how long a flush window is worth
    /// holding. Together with `ewma_invocation_micros` this is the input
    /// the adaptive flush policy sizes its window from.
    pub ewma_row_micros: f64,
    /// The adaptive policy's most recently chosen window (µs); zero
    /// until the first adaptive sizing decision.
    pub window_micros: f64,
}

impl BatcherStats {
    /// Mean rows per scorer invocation (1.0 = no coalescing happened).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_rows as f64 / self.batches as f64
        }
    }

    /// Fold another batcher's counters into this one (the cross-tenant
    /// aggregate). EWMA costs merge weighted by work done, so an idle
    /// tenant's zeros do not drag the estimate toward zero; high-water
    /// marks and the live window take the max.
    pub fn absorb(&mut self, other: &BatcherStats) {
        let (self_rows, other_rows) = (self.batched_rows as f64, other.batched_rows as f64);
        if self_rows + other_rows > 0.0 {
            self.ewma_row_micros = (self.ewma_row_micros * self_rows
                + other.ewma_row_micros * other_rows)
                / (self_rows + other_rows);
        }
        let (self_batches, other_batches) = (self.batches as f64, other.batches as f64);
        if self_batches + other_batches > 0.0 {
            self.ewma_invocation_micros = (self.ewma_invocation_micros * self_batches
                + other.ewma_invocation_micros * other_batches)
                / (self_batches + other_batches);
        }
        self.requests += other.requests;
        self.batches += other.batches;
        self.batched_rows += other.batched_rows;
        self.inline += other.inline;
        self.max_batch_seen = self.max_batch_seen.max(other.max_batch_seen);
        self.shed += other.shed;
        self.expired += other.expired;
        self.bad_arity += other.bad_arity;
        self.failed += other.failed;
        self.score_micros += other.score_micros;
        self.window_micros = self.window_micros.max(other.window_micros);
    }
}

/// EWMA smoothing factor for observed scorer cost: ~the last 10
/// invocations dominate. The cost estimate itself — "how long does a
/// batch of N take?" ≈ `invocation + N × row` — is what the adaptive
/// flush policy and the enqueue-time shed decision size against.
const COST_EWMA_ALPHA: f64 = 0.2;

/// Cost predictions are capped at one hour: the EWMAs are observed
/// wall-clock micros and should never be near this, but a cap keeps the
/// arithmetic safe to convert into a `Duration`.
const MAX_PREDICTED_US: f64 = 3.6e9;

/// The most one row may be predicted to cost (µs) for
/// [`MicroBatcher::try_score_inline`] to score it on the caller's thread:
/// half of one of the four thread wake-ups the caller-runs path saves
/// (reactor → executor → batcher → executor → reactor, ~40 µs each on
/// the benchmark host). A constant, not a setting: below it queueing can
/// only add latency, above it the pooled path behaves as it always has.
pub const INLINE_SCORE_BUDGET_US: f64 = 20.0;

/// How often a deadline- or cancel-aware caller wakes to poll its token
/// while waiting for the batched reply.
const CANCEL_POLL: Duration = Duration::from_millis(10);

/// Predicted wall cost (µs) of flushing `rows` rows right now, from the
/// observed EWMAs. Unseeded (zero) or degenerate gauges predict zero, so
/// a cold batcher never sheds a request with any slack at all.
fn predicted_cost_us(ewma_invocation_us: f64, ewma_row_us: f64, rows: u64) -> f64 {
    let sane = |v: f64| if v.is_finite() && v > 0.0 { v } else { 0.0 };
    (sane(ewma_invocation_us) + rows as f64 * sane(ewma_row_us)).clamp(0.0, MAX_PREDICTED_US)
}

/// The adaptive policy's window decision, pure so it can be property-
/// tested: how long a partial batch of `pending` rows may keep waiting,
/// given the oldest queued request's remaining slack (`None` when no
/// queued request carries a deadline) and the observed cost EWMAs.
///
/// `min(slack − predicted, predicted)` — a wait is *affordable* only
/// while the predicted invocation cost still fits inside the oldest
/// deadline's slack, and *worthwhile* only up to about the invocation
/// cost it amortizes — then clamped to the configured `[min, max]`.
pub fn adaptive_flush_window(
    min_wait: Duration,
    max_wait: Duration,
    pending: usize,
    oldest_slack: Option<Duration>,
    ewma_invocation_us: f64,
    ewma_row_us: f64,
) -> Duration {
    let max_wait = max_wait.max(min_wait);
    let predicted_us = predicted_cost_us(ewma_invocation_us, ewma_row_us, pending as u64);
    let predicted = Duration::from_secs_f64(predicted_us / 1e6);
    let worthwhile = predicted;
    let affordable = match oldest_slack {
        Some(slack) => slack.saturating_sub(predicted),
        None => Duration::MAX,
    };
    worthwhile.min(affordable).clamp(min_wait, max_wait)
}

/// Observed scoring cost of one model version.
struct ModelCost {
    version: u32,
    invocation_us: Gauge,
    row_us: Gauge,
}

/// Registry-backed batcher instrumentation. Every handle is an `Arc`
/// over atomics obtained once at construction, so the flush loop records
/// lock-free; the same series are readable from the tenant's metrics
/// surface (`raven_batcher_*`).
struct Counters {
    requests: Arc<Counter>,
    batches: Arc<Counter>,
    batched_rows: Arc<Counter>,
    /// Invocations made by the caller-runs path (a subset of `batches`).
    inline: Arc<Counter>,
    /// Wall time inside scorer invocations, in nanoseconds: an inline
    /// tree score takes well under 1 µs and must not truncate to zero.
    score_nanos: Arc<Counter>,
    /// Enqueue-time rejections: predicted deadline miss.
    shed: Arc<Counter>,
    /// Flush-time rejections: deadline expired while queued.
    expired: Arc<Counter>,
    /// Feature-count mismatches (individually rejected, rest batch).
    bad_arity: Arc<Counter>,
    /// Requests that failed before scoring (model not found).
    failed: Arc<Counter>,
    /// Rows per scorer invocation (mean/percentiles of coalescing).
    batch_size: Arc<Histogram>,
    /// Wall micros per scorer invocation.
    invocation_us: Arc<Histogram>,
    /// EWMA of per-invocation / per-row cost in µs (fractional: fast
    /// in-process invocations finish in well under 1 µs and must not
    /// round to a zero cost).
    ewma_invocation_us: Arc<Gauge>,
    ewma_row_us: Arc<Gauge>,
    /// The same two EWMAs per model, for the version last scored: the
    /// tenant-wide pair blends a 0.3 µs tree with whatever else the
    /// tenant owns, which is no basis for deciding whether *this* model
    /// is worth a queue. One entry per model name (a newer version
    /// replaces it), so the map is bounded by the models stored. Not
    /// registry series: registry names are static.
    model_costs: RwLock<HashMap<String, ModelCost>>,
    /// Largest single invocation — an exact high-water mark (updated via
    /// [`Gauge::set_max`]), which a log2 histogram cannot recover.
    max_batch: Arc<Gauge>,
    /// The adaptive policy's most recently chosen window (µs).
    window_us: Arc<Gauge>,
    /// Requests sitting in the channel right now — the `N` the
    /// enqueue-time shed decision prices an immediate flush at. Not a
    /// registry series: it is transient scheduling state, not telemetry.
    queue_depth: AtomicU64,
}

impl Counters {
    fn from_registry(registry: &MetricsRegistry) -> Self {
        Counters {
            requests: registry.counter("batcher_requests_total"),
            batches: registry.counter("batcher_batches_total"),
            batched_rows: registry.counter("batcher_rows_total"),
            inline: registry.counter("batcher_inline_total"),
            score_nanos: registry.counter("batcher_score_nanos_total"),
            shed: registry.counter("batcher_shed_total"),
            expired: registry.counter("batcher_expired_total"),
            bad_arity: registry.counter("batcher_bad_arity_total"),
            failed: registry.counter("batcher_failed_total"),
            batch_size: registry.histogram("batcher_batch_size"),
            invocation_us: registry.histogram("batcher_invocation_us"),
            ewma_invocation_us: registry.gauge("batcher_ewma_invocation_us"),
            ewma_row_us: registry.gauge("batcher_ewma_row_us"),
            model_costs: RwLock::new(HashMap::new()),
            max_batch: registry.gauge("batcher_max_batch"),
            window_us: registry.gauge("batcher_window_us"),
            queue_depth: AtomicU64::new(0),
        }
    }

    /// Predicted cost (µs) of scoring one row of `model` at `version`
    /// alone, or `None` while that version has never been scored.
    fn predicted_row_cost_us(&self, model: &str, version: u32) -> Option<f64> {
        let costs = self.model_costs.read();
        let cost = costs.get(model).filter(|c| c.version == version)?;
        Some(predicted_cost_us(
            cost.invocation_us.get(),
            cost.row_us.get(),
            1,
        ))
    }

    /// Account the wall time of one scorer invocation of `rows` rows.
    fn record_score_time(&self, model: &str, version: u32, rows: usize, elapsed: Duration) {
        self.score_nanos
            .add(elapsed.as_nanos().min(u64::MAX as u128) as u64);
        self.invocation_us.observe_micros(elapsed);
        self.observe_cost(model, version, elapsed.as_secs_f64() * 1e6, rows);
    }

    /// Fold one invocation into the tenant-wide EWMAs and the model's.
    fn observe_cost(&self, model: &str, version: u32, micros: f64, rows: usize) {
        let row_micros = micros / rows as f64;
        self.ewma_invocation_us.ewma(micros, COST_EWMA_ALPHA);
        self.ewma_row_us.ewma(row_micros, COST_EWMA_ALPHA);
        if let Some(cost) = self.model_costs.read().get(model) {
            if cost.version >= version {
                // A flush that resolved the model before an update may
                // report after it: the old version's cost is of no use.
                if cost.version == version {
                    cost.invocation_us.ewma(micros, COST_EWMA_ALPHA);
                    cost.row_us.ewma(row_micros, COST_EWMA_ALPHA);
                }
                return;
            }
        }
        // First invocation of this version: seed the entry before it is
        // visible, so no reader prices a measured model at zero.
        let seeded = ModelCost {
            version,
            invocation_us: Gauge::new(),
            row_us: Gauge::new(),
        };
        seeded.invocation_us.set(micros);
        seeded.row_us.set(row_micros);
        let mut costs = self.model_costs.write();
        if costs.get(model).is_none_or(|c| c.version < version) {
            costs.insert(model.to_string(), seeded);
        }
    }
}

impl Default for Counters {
    fn default() -> Self {
        Counters::from_registry(&MetricsRegistry::new())
    }
}

struct Request {
    model: String,
    row: Vec<f64>,
    reply: mpsc::Sender<Result<f64>>,
    /// When the request entered the queue — the worker turns this into a
    /// `batcher-queue` span on the request's trace.
    enqueued: Instant,
    /// Absolute SLO deadline: the worker sheds this request at flush
    /// time if it has already passed, and the adaptive window never
    /// holds a batch past the oldest queued deadline's slack.
    deadline: Option<Instant>,
    trace: SpanRecorder,
}

/// A background coalescing loop over a shared [`ModelStore`].
///
/// `score` blocks the calling thread until its row's prediction comes
/// back from a batched scorer invocation; any number of threads may call
/// it concurrently. Dropping the batcher drains the queue and joins the
/// worker.
pub struct MicroBatcher {
    tx: Mutex<Option<mpsc::Sender<Request>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
    store: Arc<ModelStore>,
    counters: Arc<Counters>,
}

impl MicroBatcher {
    /// A batcher with a private metrics registry (tests, standalone use).
    pub fn new(store: Arc<ModelStore>, config: BatchConfig) -> Self {
        MicroBatcher::with_registry(store, config, &MetricsRegistry::new())
    }

    /// A batcher whose instrumentation lands in `registry` — the serving
    /// layer passes each tenant's registry so batcher cost observations
    /// are readable from the tenant's metrics surface.
    pub fn with_registry(
        store: Arc<ModelStore>,
        config: BatchConfig,
        registry: &MetricsRegistry,
    ) -> Self {
        let (tx, rx) = mpsc::channel::<Request>();
        let counters = Arc::new(Counters::from_registry(registry));
        let (worker_store, worker_counters) = (store.clone(), counters.clone());
        let worker = std::thread::Builder::new()
            .name("raven-microbatcher".into())
            .spawn(move || batch_loop(rx, worker_store, config, worker_counters))
            .expect("spawn micro-batcher worker");
        MicroBatcher {
            tx: Mutex::new(Some(tx)),
            worker: Mutex::new(Some(worker)),
            store,
            counters,
        }
    }

    /// Score one raw feature row (values in the model pipeline's step
    /// order) against the latest version of `model`. Blocks until the
    /// batched invocation containing this row completes.
    ///
    /// With a `deadline`, the request is admitted only if the cost model
    /// predicts it can be scored in time, is shed typed at flush time if
    /// the deadline expires while it queues, and the caller waits with a
    /// timeout instead of indefinitely. A `cancel` token lets the caller
    /// abandon the wait early (the row may still be scored; its reply is
    /// dropped). A live `trace` gets `batcher-queue` (time from enqueue
    /// to flush) and `batcher-score` (its share of the batched
    /// invocation) spans, recorded by the worker thread.
    pub fn score(
        &self,
        model: &str,
        row: Vec<f64>,
        deadline: Option<Instant>,
        cancel: Option<&CancelToken>,
        trace: &SpanRecorder,
    ) -> Result<f64> {
        // Counted before the enqueue: the worker can flush a row and bump
        // `batched_rows` the instant it is sent, and no metrics snapshot
        // may ever observe `batched_rows > requests`.
        self.counters.requests.inc();
        // Admit-or-shed: if even an immediate flush of everything queued
        // (plus this row) is predicted to blow the deadline, reject now —
        // a doomed request must not occupy queue slots and scorer time.
        if let Some(at) = deadline {
            let slack = at.saturating_duration_since(Instant::now());
            let depth = self.counters.queue_depth.load(Ordering::Relaxed);
            let predicted_us = predicted_cost_us(
                self.counters.ewma_invocation_us.get(),
                self.counters.ewma_row_us.get(),
                depth + 1,
            );
            if slack.as_secs_f64() * 1e6 <= predicted_us {
                self.counters.shed.inc();
                return Err(ServerError::DeadlineExceeded(format!(
                    "shed at enqueue: predicted batch cost {predicted_us:.0} µs \
                     exceeds remaining deadline slack {:.0} µs ({depth} queued)",
                    slack.as_secs_f64() * 1e6,
                )));
            }
        }
        let (reply_tx, reply_rx) = mpsc::channel();
        {
            let tx = self.tx.lock();
            let tx = tx.as_ref().ok_or(ServerError::ShuttingDown)?;
            self.counters.queue_depth.fetch_add(1, Ordering::Relaxed);
            tx.send(Request {
                model: model.to_string(),
                row,
                reply: reply_tx,
                enqueued: Instant::now(),
                deadline,
                trace: trace.clone(),
            })
            .map_err(|_| ServerError::ShuttingDown)?;
        }
        if deadline.is_none() && cancel.is_none() {
            return reply_rx.recv().map_err(|_| ServerError::ShuttingDown)?;
        }
        // Deadline- or cancel-aware wait: sliced `recv_timeout` so a
        // cancelled token is noticed within CANCEL_POLL even when the
        // deadline is far (or absent). The worker's flush-time shed is
        // the authoritative `expired` accounting; returning here merely
        // stops the caller from waiting on a reply it can no longer use.
        loop {
            if let Some(token) = cancel {
                if token.is_cancelled() {
                    return Err(ServerError::DeadlineExceeded(
                        "request cancelled while waiting for its batched score".into(),
                    ));
                }
            }
            let mut slice = CANCEL_POLL;
            if let Some(at) = deadline {
                let now = Instant::now();
                if now >= at {
                    return Err(ServerError::DeadlineExceeded(format!(
                        "deadline exceeded by {:?} waiting for the batched score",
                        now.saturating_duration_since(at)
                    )));
                }
                slice = slice.min(at - now);
            }
            match reply_rx.recv_timeout(slice) {
                Ok(outcome) => return outcome,
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => return Err(ServerError::ShuttingDown),
            }
        }
    }

    /// Score `row` **on the calling thread**, or decline — the
    /// non-blocking, caller-runs twin of [`Self::score`] for callers
    /// that must not wait (the reactor). Commits only when
    /// the latest version of `model` has an observed cost, one row of it
    /// is predicted within [`INLINE_SCORE_BUDGET_US`], the arity matches
    /// and `deadline` (if any) leaves more slack than the prediction.
    /// `None` means nothing was counted: the caller takes the queued
    /// path, which repeats the lookups and owns every typed rejection.
    ///
    /// A committed call is recorded exactly as a flush of one row, plus
    /// `batcher_inline_total`. `begin_trace` runs only on commit (a
    /// declined probe must not consume a sampling slot) and its recorder
    /// comes back carrying the `batcher-score` span.
    pub fn try_score_inline(
        &self,
        model: &str,
        row: &[f64],
        deadline: Option<Instant>,
        begin_trace: impl FnOnce() -> SpanRecorder,
    ) -> Option<(Result<f64>, SpanRecorder)> {
        let (version, pipeline) = self.store.get_latest(model).ok()?;
        if pipeline.steps().len() != row.len() {
            return None;
        }
        let predicted_us = self.counters.predicted_row_cost_us(model, version)?;
        if predicted_us > INLINE_SCORE_BUDGET_US {
            return None;
        }
        if let Some(at) = deadline {
            let slack = at.saturating_duration_since(Instant::now());
            if slack.as_secs_f64() * 1e6 <= predicted_us {
                return None;
            }
        }
        self.counters.requests.inc();
        self.counters.inline.inc();
        let trace = begin_trace();
        let scored = score_and_record(model, version, &pipeline, row, 1, &self.counters);
        trace.record("batcher-score", scored.started, scored.elapsed);
        let outcome = scored.outcome.map(|scores| scores[0]);
        Some((outcome, trace))
    }

    pub fn stats(&self) -> BatcherStats {
        BatcherStats {
            requests: self.counters.requests.get(),
            batches: self.counters.batches.get(),
            batched_rows: self.counters.batched_rows.get(),
            inline: self.counters.inline.get(),
            max_batch_seen: self.counters.max_batch.get() as u64,
            shed: self.counters.shed.get(),
            expired: self.counters.expired.get(),
            bad_arity: self.counters.bad_arity.get(),
            failed: self.counters.failed.get(),
            score_micros: self.counters.score_nanos.get() / 1_000,
            ewma_invocation_micros: self.counters.ewma_invocation_us.get(),
            ewma_row_micros: self.counters.ewma_row_us.get(),
            window_micros: self.counters.window_us.get(),
        }
    }
}

impl Drop for MicroBatcher {
    fn drop(&mut self) {
        *self.tx.lock() = None; // disconnect → worker drains and exits
        if let Some(handle) = self.worker.lock().take() {
            let _ = handle.join();
        }
    }
}

/// When the current partial batch should flush, per the policy. Called
/// every coalescing iteration so the adaptive window tracks the queue as
/// it grows: more pending rows → larger predicted cost → tighter
/// affordable wait against the oldest deadline.
fn flush_at(
    policy: &BatchPolicy,
    pending: &[Request],
    batch_started: Instant,
    now: Instant,
    counters: &Counters,
) -> Instant {
    match policy {
        BatchPolicy::Fixed { flush_interval } => batch_started + *flush_interval,
        BatchPolicy::Adaptive { min_wait, max_wait } => {
            let oldest_slack = pending
                .iter()
                .filter_map(|r| r.deadline)
                .min()
                .map(|at| at.saturating_duration_since(now));
            let window = adaptive_flush_window(
                *min_wait,
                *max_wait,
                pending.len(),
                oldest_slack,
                counters.ewma_invocation_us.get(),
                counters.ewma_row_us.get(),
            );
            counters.window_us.set(window.as_secs_f64() * 1e6);
            // However the window slides as requests arrive, a batch never
            // waits more than max_wait in total.
            (now + window).min(batch_started + *max_wait)
        }
    }
}

fn batch_loop(
    rx: mpsc::Receiver<Request>,
    store: Arc<ModelStore>,
    config: BatchConfig,
    counters: Arc<Counters>,
) {
    let max_batch = config.max_batch.max(1);
    let take = |req: Request| {
        counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
        req
    };
    // The residue of a saturated drain, carried back as the next batch's
    // seed so it still gets a (policy-sized) coalescing window instead of
    // flushing alone.
    let mut seed: Vec<Request> = Vec::new();
    loop {
        let mut pending = std::mem::take(&mut seed);
        if pending.is_empty() {
            match rx.recv() {
                Ok(first) => pending.push(take(first)),
                Err(_) => break,
            }
        }
        // Greedily soak up whatever is already queued: requests that were
        // waiting while we flushed join the batch without spending any of
        // its window.
        while pending.len() < max_batch {
            match rx.try_recv() {
                Ok(req) => pending.push(take(req)),
                Err(_) => break,
            }
        }
        let batch_started = Instant::now();
        while pending.len() < max_batch {
            let now = Instant::now();
            let until = flush_at(&config.policy, &pending, batch_started, now, &counters);
            if now >= until {
                break;
            }
            match rx.recv_timeout(until - now) {
                Ok(req) => pending.push(take(req)),
                Err(mpsc::RecvTimeoutError::Timeout) => break,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        let filled = pending.len() >= max_batch;
        flush(pending, &store, &counters);
        if !filled {
            continue;
        }
        // The batch filled before its window closed, so the queue may
        // hold a backlog. Drain full batches back to back; a partial
        // residue becomes the next iteration's seed — it re-enters the
        // timed coalescing loop above, where the policy decides how long
        // it may keep waiting.
        loop {
            let mut backlog = Vec::new();
            while backlog.len() < max_batch {
                match rx.try_recv() {
                    Ok(req) => backlog.push(take(req)),
                    Err(_) => break,
                }
            }
            if backlog.len() < max_batch {
                seed = backlog;
                break;
            }
            flush(backlog, &store, &counters);
        }
    }
}

/// Score a flush's worth of requests: shed the already-expired, then one
/// scorer invocation per model. The expiry check happens *before* the
/// scoring batch is built, so a row whose deadline passed while it
/// queued never reaches the scorer.
fn flush(pending: Vec<Request>, store: &ModelStore, counters: &Counters) {
    let now = Instant::now();
    let (live, dead): (Vec<Request>, Vec<Request>) = pending
        .into_iter()
        .partition(|r| r.deadline.is_none_or(|at| now < at));
    for req in dead {
        counters.expired.inc();
        req.trace.record(
            "batcher-queue",
            req.enqueued,
            now.saturating_duration_since(req.enqueued),
        );
        let _ = req.reply.send(Err(ServerError::DeadlineExceeded(format!(
            "deadline expired after {:?} in the batch queue",
            now.saturating_duration_since(req.enqueued)
        ))));
    }
    // Group by model, preserving arrival order within each group.
    let mut groups: Vec<(String, Vec<Request>)> = Vec::new();
    for req in live {
        match groups.iter_mut().find(|(m, _)| *m == req.model) {
            Some((_, g)) => g.push(req),
            None => groups.push((req.model.clone(), vec![req])),
        }
    }
    for (model, group) in groups {
        score_group(&model, group, store, counters);
    }
}

fn score_group(model: &str, group: Vec<Request>, store: &ModelStore, counters: &Counters) {
    // Queue time ends here: the flush has picked this request up. A
    // disabled recorder makes `record` a no-op, so untraced requests
    // (the overwhelming majority under 1-in-N sampling) pay nothing.
    let dequeued = Instant::now();
    for req in &group {
        req.trace.record(
            "batcher-queue",
            req.enqueued,
            dequeued.saturating_duration_since(req.enqueued),
        );
    }
    let (version, pipeline) = match store.get_latest(model) {
        Ok(latest) => latest,
        Err(e) => {
            let err = ServerError::Store(e.to_string());
            for req in group {
                counters.failed.inc();
                let _ = req.reply.send(Err(err.clone()));
            }
            return;
        }
    };
    let width = pipeline.steps().len();
    // Rows with the wrong arity get individual errors; the rest batch.
    let (good, bad): (Vec<Request>, Vec<Request>) =
        group.into_iter().partition(|r| r.row.len() == width);
    for req in bad {
        counters.bad_arity.inc();
        let _ = req.reply.send(Err(ServerError::BadRequest(format!(
            "model '{model}' takes {width} features, request has {}",
            req.row.len()
        ))));
    }
    if good.is_empty() {
        return;
    }
    let rows = good.len();
    let mut flat = Vec::with_capacity(rows * width);
    for req in &good {
        flat.extend_from_slice(&req.row);
    }
    let scored = score_and_record(model, version, &pipeline, &flat, rows, counters);
    for req in &good {
        req.trace
            .record("batcher-score", scored.started, scored.elapsed);
    }
    match scored.outcome {
        Ok(scores) => {
            for (req, score) in good.into_iter().zip(scores) {
                let _ = req.reply.send(Ok(score));
            }
        }
        Err(err) => {
            for req in good {
                let _ = req.reply.send(Err(err.clone()));
            }
        }
    }
}

/// One scorer invocation and when it ran.
struct Scored {
    started: Instant,
    elapsed: Duration,
    outcome: Result<Vec<f64>>,
}

/// Score `rows` rows (`flat`, row-major) of `model` at `version` and
/// record the invocation: the one place rows meet a pipeline, shared by
/// the worker's flush and [`MicroBatcher::try_score_inline`], so the two
/// cannot account differently.
fn score_and_record(
    model: &str,
    version: u32,
    pipeline: &Pipeline,
    flat: &[f64],
    rows: usize,
    counters: &Counters,
) -> Scored {
    counters.batches.inc();
    counters.batched_rows.add(rows as u64);
    counters.max_batch.set_max(rows as f64);
    counters.batch_size.observe(rows as u64);
    let started = Instant::now();
    let outcome = pipeline.predict_raw(flat, rows);
    let elapsed = started.elapsed();
    counters.record_score_time(model, version, rows, elapsed);
    Scored {
        started,
        elapsed,
        outcome: outcome.map_err(|e| ServerError::Scoring(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_ml::featurize::Transform;
    use raven_ml::{Estimator, FeatureStep, LinearKind, LinearModel, Pipeline};

    fn linear(w: &[f64], b: f64) -> Pipeline {
        let steps = (0..w.len())
            .map(|i| FeatureStep::new(format!("f{i}"), Transform::Identity))
            .collect();
        Pipeline::new(
            steps,
            Estimator::Linear(LinearModel::new(w.to_vec(), b, LinearKind::Regression).unwrap()),
        )
        .unwrap()
    }

    /// A plain blocking score: no deadline, no token, no trace.
    fn score(batcher: &MicroBatcher, model: &str, row: Vec<f64>) -> Result<f64> {
        batcher.score(model, row, None, None, &SpanRecorder::disabled())
    }

    fn store_with_linear(name: &str, w: &[f64], b: f64) -> Arc<ModelStore> {
        let store = Arc::new(ModelStore::new());
        store.store(name, linear(w, b));
        store
    }

    fn raw_request(
        model: &str,
        row: Vec<f64>,
        deadline: Option<Instant>,
    ) -> (Request, mpsc::Receiver<Result<f64>>) {
        let (reply_tx, reply_rx) = mpsc::channel();
        (
            Request {
                model: model.into(),
                row,
                reply: reply_tx,
                enqueued: Instant::now(),
                deadline,
                trace: SpanRecorder::disabled(),
            },
            reply_rx,
        )
    }

    #[test]
    fn scores_match_direct_pipeline() {
        let store = store_with_linear("m", &[2.0, -1.0], 0.5);
        let batcher = MicroBatcher::new(store, BatchConfig::default());
        assert_eq!(score(&batcher, "m", vec![3.0, 1.0]).unwrap(), 5.5);
        assert_eq!(score(&batcher, "m", vec![0.0, 0.0]).unwrap(), 0.5);
    }

    #[test]
    fn concurrent_requests_coalesce() {
        let store = store_with_linear("m", &[1.0], 0.0);
        let batcher = Arc::new(MicroBatcher::new(
            store,
            // Wide fixed window: all threads' rows land in very few
            // flushes regardless of measured cost.
            BatchConfig::fixed(64, Duration::from_millis(50)),
        ));
        let n = 24;
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let b = batcher.clone();
                std::thread::spawn(move || score(&b, "m", vec![i as f64]).unwrap())
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), i as f64);
        }
        let stats = batcher.stats();
        assert_eq!(stats.requests, n as u64);
        assert_eq!(stats.batched_rows, n as u64);
        assert!(
            stats.batches < n as u64,
            "no coalescing: {} batches for {n} requests",
            stats.batches
        );
        assert!(stats.mean_batch_size() > 1.0);
        assert!(stats.max_batch_seen >= 2);
    }

    #[test]
    fn bad_requests_fail_individually() {
        let store = store_with_linear("m", &[1.0, 1.0], 0.0);
        let batcher = MicroBatcher::new(store, BatchConfig::default());
        assert!(matches!(
            score(&batcher, "m", vec![1.0]),
            Err(ServerError::BadRequest(_))
        ));
        assert!(matches!(
            score(&batcher, "ghost", vec![1.0, 2.0]),
            Err(ServerError::Store(_))
        ));
        // The queue still works afterwards.
        assert_eq!(score(&batcher, "m", vec![1.0, 2.0]).unwrap(), 3.0);
        // Every outcome landed in exactly one bucket.
        let stats = batcher.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.bad_arity, 1);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.batched_rows, 1);
    }

    #[test]
    fn backlog_beyond_one_batch_drains_without_waiting_the_timer() {
        // Regression: a queue holding more than `max_batch` requests used
        // to flush one batch and leave the residue waiting out a fresh
        // flush window. Pre-fill the queue before the worker runs so the
        // scenario is deterministic, with a window ceiling (5 s) far
        // beyond what the test tolerates (1 s per reply) — the adaptive
        // policy must size the residue's actual wait from the measured
        // (tiny) scorer cost, not the ceiling.
        let store = store_with_linear("m", &[1.0], 0.0);
        let (tx, rx) = mpsc::channel::<Request>();
        let mut replies = Vec::new();
        for i in 0..6 {
            let (req, reply_rx) = raw_request("m", vec![i as f64], None);
            tx.send(req).unwrap();
            replies.push(reply_rx);
        }
        let counters = Arc::new(Counters::default());
        let worker_counters = counters.clone();
        let worker = std::thread::spawn(move || {
            batch_loop(
                rx,
                store,
                BatchConfig::adaptive(4, Duration::ZERO, Duration::from_secs(5)),
                worker_counters,
            )
        });
        for (i, reply) in replies.iter().enumerate() {
            let scored = reply
                .recv_timeout(Duration::from_secs(1))
                .expect("residue must flush promptly, not at the window ceiling")
                .unwrap();
            assert_eq!(scored, i as f64);
        }
        drop(tx);
        worker.join().unwrap();
        // One full batch of 4, one drained residue of 2.
        assert_eq!(counters.batches.get(), 2);
        assert_eq!(counters.batched_rows.get(), 6);
        assert_eq!(counters.max_batch.get(), 4.0);
    }

    #[test]
    fn expired_while_queued_shed_before_scoring() {
        // Two requests whose deadline already passed and two live ones,
        // pre-filled so one flush sees all four: the expired pair must
        // come back DeadlineExceeded without their rows ever entering
        // the scoring batch.
        let store = store_with_linear("m", &[1.0], 0.0);
        let (tx, rx) = mpsc::channel::<Request>();
        let long_dead = Instant::now() - Duration::from_millis(5);
        let (dead_a, dead_a_rx) = raw_request("m", vec![1.0], Some(long_dead));
        let (dead_b, dead_b_rx) = raw_request("m", vec![2.0], Some(long_dead));
        let (live_a, live_a_rx) = raw_request("m", vec![3.0], None);
        let (live_b, live_b_rx) = raw_request(
            "m",
            vec![4.0],
            Some(Instant::now() + Duration::from_secs(60)),
        );
        for req in [dead_a, live_a, dead_b, live_b] {
            tx.send(req).unwrap();
        }
        drop(tx);
        let counters = Arc::new(Counters::default());
        let worker_counters = counters.clone();
        batch_loop(
            rx,
            store,
            BatchConfig::adaptive(64, Duration::ZERO, Duration::from_millis(1)),
            worker_counters,
        );
        for dead_rx in [dead_a_rx, dead_b_rx] {
            assert!(matches!(
                dead_rx.recv().unwrap(),
                Err(ServerError::DeadlineExceeded(_))
            ));
        }
        assert_eq!(live_a_rx.recv().unwrap().unwrap(), 3.0);
        assert_eq!(live_b_rx.recv().unwrap().unwrap(), 4.0);
        // The expired rows never reached the scorer: the one invocation
        // held exactly the two live rows.
        assert_eq!(counters.expired.get(), 2);
        assert_eq!(counters.batched_rows.get(), 2);
        assert_eq!(counters.max_batch.get(), 2.0);
    }

    #[test]
    fn enqueue_shed_fires_on_predicted_miss_and_never_without_deadline() {
        let store = store_with_linear("m", &[1.0], 0.0);
        let registry = MetricsRegistry::new();
        let batcher = MicroBatcher::with_registry(store, BatchConfig::default(), &registry);
        // Teach the cost model that an invocation takes 50 ms: any
        // deadline with less slack than that is a predicted miss.
        registry.gauge("batcher_ewma_invocation_us").set(50_000.0);
        registry.gauge("batcher_ewma_row_us").set(10.0);
        let tight = Instant::now() + Duration::from_millis(1);
        let err = batcher
            .score("m", vec![1.0], Some(tight), None, &SpanRecorder::disabled())
            .unwrap_err();
        assert!(
            matches!(err, ServerError::DeadlineExceeded(ref msg) if msg.contains("shed at enqueue")),
            "expected an enqueue shed, got {err:?}"
        );
        // With no deadline the same predicted cost never sheds.
        assert_eq!(score(&batcher, "m", vec![2.0]).unwrap(), 2.0);
        // A deadline with slack beyond the prediction is admitted too.
        let roomy = Instant::now() + Duration::from_secs(60);
        assert_eq!(
            batcher
                .score("m", vec![3.0], Some(roomy), None, &SpanRecorder::disabled())
                .unwrap(),
            3.0
        );
        let stats = batcher.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.batched_rows, 2);
        // The shed is visible on the metrics surface.
        assert_eq!(registry.snapshot().counters["batcher_shed_total"], 1);
    }

    #[test]
    fn cancel_token_abandons_the_wait() {
        let store = store_with_linear("m", &[1.0], 0.0);
        // A long fixed window so the request sits queued while we cancel.
        let batcher = Arc::new(MicroBatcher::new(
            store,
            BatchConfig::fixed(64, Duration::from_secs(5)),
        ));
        let token = CancelToken::new();
        let waiter = {
            let batcher = batcher.clone();
            let token = token.clone();
            std::thread::spawn(move || {
                batcher.score(
                    "m",
                    vec![1.0],
                    None,
                    Some(&token),
                    &SpanRecorder::disabled(),
                )
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        token.cancel();
        let outcome = waiter.join().unwrap();
        assert!(
            matches!(outcome, Err(ServerError::DeadlineExceeded(_))),
            "cancel must abandon the wait, got {outcome:?}"
        );
    }

    #[test]
    fn requests_never_lag_batched_rows() {
        // Regression for the enqueue/count race: `requests` used to be
        // incremented after the send, so a flush could bump
        // `batched_rows` first and a snapshot could observe
        // requests < batched_rows. Hammer scores from several threads
        // while a reader asserts the invariant on every snapshot.
        let store = store_with_linear("m", &[1.0], 0.0);
        let batcher = Arc::new(MicroBatcher::new(
            store,
            BatchConfig::adaptive(8, Duration::ZERO, Duration::from_micros(200)),
        ));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let b = batcher.clone();
                std::thread::spawn(move || {
                    for i in 0..500 {
                        score(&b, "m", vec![(t * 500 + i) as f64]).unwrap();
                    }
                })
            })
            .collect();
        let reader = {
            let b = batcher.clone();
            std::thread::spawn(move || {
                for _ in 0..2_000 {
                    let s = b.stats();
                    assert!(
                        s.requests >= s.batched_rows,
                        "snapshot saw batched_rows {} > requests {}",
                        s.batched_rows,
                        s.requests
                    );
                    std::hint::spin_loop();
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        let s = batcher.stats();
        assert_eq!(s.requests, 2_000);
        assert_eq!(s.batched_rows, 2_000);
    }

    #[test]
    fn adaptive_window_formula() {
        let min = Duration::ZERO;
        let max = Duration::from_millis(4);
        // Cold gauges: no evidence a wait is worthwhile → the floor.
        assert_eq!(adaptive_flush_window(min, max, 1, None, 0.0, 0.0), min);
        // Cheap rows, no deadlines: the window is about the invocation
        // cost being amortized (here 500 µs + 2×10 µs), inside [min, max].
        let w = adaptive_flush_window(min, max, 2, None, 500.0, 10.0);
        assert_eq!(w, Duration::from_micros(520));
        // Expensive invocations without deadlines hit the ceiling.
        assert_eq!(adaptive_flush_window(min, max, 2, None, 1e6, 10.0), max);
        // A near deadline tightens the window below the worthwhile bound:
        // slack 1 ms − predicted 520 µs = 480 µs affordable.
        let w = adaptive_flush_window(min, max, 2, Some(Duration::from_millis(1)), 500.0, 10.0);
        assert_eq!(w, Duration::from_micros(480));
        // Slack already consumed by the predicted cost → flush now.
        let w = adaptive_flush_window(min, max, 2, Some(Duration::from_micros(100)), 500.0, 10.0);
        assert_eq!(w, min);
        // Degenerate gauges (NaN/negative) are treated as unseeded.
        let w = adaptive_flush_window(min, max, 4, None, f64::NAN, -3.0);
        assert_eq!(w, min);
        // min > max is tolerated: the floor wins.
        let w = adaptive_flush_window(
            Duration::from_millis(2),
            Duration::from_millis(1),
            1,
            None,
            1e6,
            0.0,
        );
        assert_eq!(w, Duration::from_millis(2));
    }

    #[test]
    fn ewma_cost_gauges_converge_and_track_shifts() {
        // The old bespoke CostEstimator's contract, now carried by the
        // registry gauges the flush loop feeds.
        let c = Counters::default();
        let record = |rows: u64, elapsed: Duration| {
            let micros = elapsed.as_secs_f64() * 1e6;
            c.ewma_invocation_us.ewma(micros, COST_EWMA_ALPHA);
            c.ewma_row_us.ewma(micros / rows as f64, COST_EWMA_ALPHA);
        };
        // First sample seeds directly — no warm-up bias from zero.
        record(10, Duration::from_micros(1_000));
        assert_eq!(c.ewma_row_us.get(), 100.0);
        assert_eq!(c.ewma_invocation_us.get(), 1_000.0);
        // A steady workload keeps the estimate steady.
        for _ in 0..50 {
            record(10, Duration::from_micros(1_000));
        }
        assert!((c.ewma_row_us.get() - 100.0).abs() < 1e-9);
        // The scorer gets 4x slower (model swap, cold cache): the EWMA
        // converges to the new cost within a few dozen invocations.
        for _ in 0..50 {
            record(10, Duration::from_micros(4_000));
        }
        assert!(
            (c.ewma_row_us.get() - 400.0).abs() < 5.0,
            "row cost must track the shift, got {}",
            c.ewma_row_us.get()
        );
        assert!((c.ewma_invocation_us.get() - 4_000.0).abs() < 50.0);
    }

    #[test]
    fn scorer_cost_lands_in_stats_and_registry() {
        let store = store_with_linear("m", &[1.0], 0.0);
        let registry = MetricsRegistry::new();
        let batcher = MicroBatcher::with_registry(store, BatchConfig::default(), &registry);
        for i in 0..8 {
            score(&batcher, "m", vec![i as f64]).unwrap();
        }
        let stats = batcher.stats();
        assert!(
            stats.ewma_row_micros > 0.0,
            "observed per-row cost must be exposed: {stats:?}"
        );
        assert!(stats.ewma_invocation_micros >= stats.ewma_row_micros);
        // Aggregation: merging with an idle batcher's zeros must not
        // drag the cost estimate down.
        let mut merged = stats;
        merged.absorb(&BatcherStats::default());
        assert_eq!(merged.ewma_row_micros, stats.ewma_row_micros);
        assert_eq!(merged.requests, stats.requests);
        assert_eq!(merged.max_batch_seen, stats.max_batch_seen);
        // The same observations are readable from the metrics surface —
        // including the high-water batch size, which used to be a raw
        // atomic invisible to the registry.
        let snap = registry.snapshot();
        assert_eq!(snap.counters["batcher_requests_total"], 8);
        assert_eq!(snap.counters["batcher_rows_total"], stats.batched_rows);
        let sizes = &snap.histograms["batcher_batch_size"];
        assert_eq!(sizes.sum, stats.batched_rows);
        assert_eq!(sizes.count, stats.batches);
        assert_eq!(snap.gauges["batcher_ewma_row_us"], stats.ewma_row_micros);
        assert_eq!(
            snap.gauges["batcher_max_batch"],
            stats.max_batch_seen as f64
        );
    }

    #[test]
    fn traced_point_score_records_queue_and_invocation_spans() {
        let store = store_with_linear("m", &[1.0], 0.0);
        let batcher = MicroBatcher::new(store, BatchConfig::default());
        let trace = SpanRecorder::enabled();
        assert_eq!(
            batcher.score("m", vec![2.0], None, None, &trace).unwrap(),
            2.0
        );
        let spans = trace.into_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["batcher-queue", "batcher-score"]);
    }

    /// Make `model` at `version` measured-cheap whatever was observed so
    /// far: a debug build under a parallel test run can measure anything.
    fn seed_cheap(batcher: &MicroBatcher, model: &str, version: u32) {
        batcher.counters.model_costs.write().remove(model);
        batcher.counters.observe_cost(model, version, 1.0, 1);
    }

    fn inline(batcher: &MicroBatcher, model: &str, row: &[f64]) -> Option<Result<f64>> {
        batcher
            .try_score_inline(model, row, None, SpanRecorder::disabled)
            .map(|(outcome, _)| outcome)
    }

    #[test]
    fn inline_is_chosen_from_the_measured_cost_of_the_current_version() {
        let store = store_with_linear("m", &[2.0, -1.0], 0.5);
        let batcher = MicroBatcher::new(store.clone(), BatchConfig::default());
        // Unmeasured: declines, and a declined probe counts nothing.
        assert!(inline(&batcher, "m", &[3.0, 1.0]).is_none());
        assert!(inline(&batcher, "ghost", &[3.0, 1.0]).is_none());
        assert_eq!(batcher.stats().requests, 0);
        // The pooled path measures it ...
        assert_eq!(score(&batcher, "m", vec![3.0, 1.0]).unwrap(), 5.5);
        assert!(batcher.counters.predicted_row_cost_us("m", 1).is_some());
        seed_cheap(&batcher, "m", 1);
        // ... after which it scores inline, but never on a bad arity or
        // with less deadline slack than the predicted cost.
        assert_eq!(inline(&batcher, "m", &[3.0, 1.0]).unwrap().unwrap(), 5.5);
        assert!(inline(&batcher, "m", &[3.0]).is_none());
        let expired = Some(Instant::now());
        assert!(batcher
            .try_score_inline("m", &[3.0, 1.0], expired, SpanRecorder::disabled)
            .is_none());
        let roomy = Some(Instant::now() + Duration::from_secs(60));
        seed_cheap(&batcher, "m", 1);
        assert!(batcher
            .try_score_inline("m", &[3.0, 1.0], roomy, SpanRecorder::disabled)
            .is_some());
        // Over the budget: pooled, however often it is asked.
        batcher
            .counters
            .observe_cost("m", 1, 100.0 * INLINE_SCORE_BUDGET_US, 1);
        assert!(inline(&batcher, "m", &[3.0, 1.0]).is_none());
        // A new version is unmeasured again, and an observation of the
        // old one arriving late neither revives nor overwrites anything.
        let v2 = store.store("m", linear(&[1.0, 1.0], 0.0));
        assert!(inline(&batcher, "m", &[3.0, 1.0]).is_none());
        seed_cheap(&batcher, "m", v2);
        batcher.counters.observe_cost("m", 1, 500.0, 1);
        assert_eq!(batcher.counters.predicted_row_cost_us("m", v2), Some(2.0));
        assert!(batcher.counters.predicted_row_cost_us("m", 1).is_none());
        assert!(inline(&batcher, "m", &[3.0, 1.0]).is_some());
        let stats = batcher.stats();
        assert_eq!(stats.inline, 3);
        assert_eq!(stats.requests, 4, "one pooled, three inline: {stats:?}");
    }

    /// Sub-microsecond invocations (an inline tree score) still add up:
    /// the total is kept in nanoseconds and only reported in µs.
    #[test]
    fn sub_microsecond_score_time_is_not_truncated() {
        let batcher =
            MicroBatcher::new(store_with_linear("m", &[1.0], 0.0), BatchConfig::default());
        for _ in 0..1_000 {
            batcher
                .counters
                .record_score_time("m", 1, 1, Duration::from_nanos(400));
        }
        assert_eq!(batcher.stats().score_micros, 400);
    }

    #[test]
    fn an_inline_score_is_recorded_as_a_flush_of_one_row() {
        // Two batchers over the same store, one scoring through the
        // queue and one inline: every counter and histogram they share
        // must move identically, and only `inline` may tell them apart.
        let store = store_with_linear("m", &[1.0], 0.0);
        let registries = [MetricsRegistry::new(), MetricsRegistry::new()];
        let [pooled, inlined] = [0, 1].map(|i| {
            MicroBatcher::with_registry(store.clone(), BatchConfig::default(), &registries[i])
        });
        let trace = SpanRecorder::enabled();
        for i in 0..5 {
            assert_eq!(score(&pooled, "m", vec![i as f64]).unwrap(), i as f64);
            seed_cheap(&inlined, "m", 1);
            let (outcome, _) = inlined
                .try_score_inline("m", &[i as f64], None, || trace.clone())
                .unwrap();
            assert_eq!(outcome.unwrap(), i as f64);
        }
        let [p, i] = [&registries[0], &registries[1]].map(MetricsRegistry::snapshot);
        for name in [
            "batcher_requests_total",
            "batcher_batches_total",
            "batcher_rows_total",
            "batcher_shed_total",
            "batcher_expired_total",
            "batcher_bad_arity_total",
            "batcher_failed_total",
        ] {
            assert_eq!(p.counters[name], i.counters[name], "{name}");
        }
        for name in ["batcher_batch_size", "batcher_invocation_us"] {
            assert_eq!(p.histograms[name].count, i.histograms[name].count, "{name}");
        }
        assert_eq!(p.histograms["batcher_batch_size"].sum, 5);
        assert_eq!(i.histograms["batcher_batch_size"].sum, 5);
        assert_eq!(i.gauges["batcher_max_batch"], 1.0);
        assert!(i.gauges["batcher_ewma_row_us"] > 0.0);
        assert_eq!(
            (
                p.counters["batcher_inline_total"],
                i.counters["batcher_inline_total"]
            ),
            (0, 5)
        );
        // The trace of an inline score has its invocation and no queue.
        let names: Vec<String> = trace.into_spans().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["batcher-score"; 5]);
    }

    #[test]
    fn model_update_visible_to_next_flush() {
        let store = store_with_linear("m", &[1.0], 0.0);
        let batcher = MicroBatcher::new(store.clone(), BatchConfig::default());
        assert_eq!(score(&batcher, "m", vec![4.0]).unwrap(), 4.0);
        // v2 doubles the weight; the batcher resolves latest-per-flush.
        let pipeline = Pipeline::new(
            vec![FeatureStep::new("f0", Transform::Identity)],
            Estimator::Linear(LinearModel::new(vec![2.0], 0.0, LinearKind::Regression).unwrap()),
        )
        .unwrap();
        store.store("m", pipeline);
        assert_eq!(score(&batcher, "m", vec![4.0]).unwrap(), 8.0);
    }
}
