//! Server-wide observability: throughput, latency percentiles, and the
//! cache hit rates that explain them — kept **per tenant** since the
//! multi-tenant refactor (each [`crate::tenant::Tenant`] owns one
//! [`ServerStats`]), with [`StatsSnapshot::absorb`] folding tenant
//! snapshots into the server-wide aggregate.
//!
//! Counters live behind **one** mutex, not a bag of independent atomics.
//! That is a correctness decision, not a style one: a snapshot assembled
//! field-by-field from separate atomics can observe a request half
//! recorded — `queries` incremented but its `rows` not yet — so derived
//! invariants (`rows` vs `queries`, hits + misses vs totals) wobble under
//! load and every consumer needs slack. Recording a query already took
//! this lock for the latency window, so the consolidation adds no
//! acquisition to the hot path; snapshots now read one consistent state.
//!
//! Admission is reported as **per-request outcomes**: a request either
//! ends up `admitted` (cleared the tenant quota ring *and* the global
//! ring) or in exactly one rejection bucket, whichever ring turned it
//! away — so `admitted + rejected_* ` reconciles against requests sent,
//! which the raw per-controller permit counters (two rings, each counting
//! its own grants) cannot do.

use std::fmt;
use std::time::{Duration, Instant};

use crate::admission::AdmissionStats;
use crate::batcher::BatcherStats;
use crate::cache::PlanCacheStats;
use crate::error::ServerError;
use crate::result_cache::ResultCacheStats;
use parking_lot::Mutex;
use raven_obs::{Counter, Histogram, MetricsRegistry};
use std::sync::Arc;

/// How many recent query latencies the percentile window keeps.
const LATENCY_WINDOW: usize = 4096;

/// Latency percentiles over the recent-query window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    pub p50: Duration,
    pub p95: Duration,
    pub p99: Duration,
    pub max: Duration,
    pub mean: Duration,
}

impl LatencySummary {
    /// Percentiles over an explicit sample set (microseconds) — how the
    /// aggregate snapshot merges several tenants' windows exactly,
    /// instead of averaging their already-computed percentiles (which is
    /// not a percentile of anything).
    pub fn from_samples(mut samples: Vec<u64>) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        let at = |q: f64| {
            let idx = ((samples.len() as f64 - 1.0) * q).round() as usize;
            Duration::from_micros(samples[idx])
        };
        let total: u64 = samples.iter().sum();
        LatencySummary {
            p50: at(0.50),
            p95: at(0.95),
            p99: at(0.99),
            max: Duration::from_micros(*samples.last().unwrap()),
            mean: Duration::from_micros(total / samples.len() as u64),
        }
    }
}

#[derive(Default)]
struct LatencyWindow {
    ring: Vec<u64>, // microseconds
    next: usize,
}

impl LatencyWindow {
    fn record(&mut self, micros: u64) {
        if self.ring.len() < LATENCY_WINDOW {
            self.ring.push(micros);
        } else {
            self.ring[self.next] = micros;
            self.next = (self.next + 1) % LATENCY_WINDOW;
        }
    }
}

/// Everything one request mutates, updated and read atomically together.
#[derive(Default)]
struct Counters {
    queries: u64,
    errors: u64,
    rows: u64,
    /// Queries whose SQL normalized to a template with ≥ 1 extracted
    /// constant (the parameterized-prepared-statement path).
    normalized: u64,
    /// Normalized queries whose template hit the plan cache — repeated
    /// query *shapes* served without re-optimization, even though the
    /// literal SQL text had never been seen before.
    template_hits: u64,
    /// Per-request admission outcomes (see the module docs): cleared
    /// both rings / rejected overloaded at either ring / rejected
    /// because the deadline expired before execution began.
    admitted: u64,
    rejected_overloaded: u64,
    rejected_deadline: u64,
    latencies: LatencyWindow,
}

/// Registry-backed mirrors of the request-path counters: the same
/// increments the mutex-guarded [`Counters`] receive, replayed onto
/// [`raven_obs`] handles so the unified metrics surface (Prometheus
/// exposition, cross-tenant merges) sees them without taking the lock.
/// The mutex remains the source of truth for torn-proof snapshots; the
/// mirror trades that consistency for lock-free reads.
struct RegistryMirror {
    queries: Arc<Counter>,
    errors: Arc<Counter>,
    rows: Arc<Counter>,
    normalized: Arc<Counter>,
    template_hits: Arc<Counter>,
    admitted: Arc<Counter>,
    rejected_overloaded: Arc<Counter>,
    rejected_deadline: Arc<Counter>,
    /// Log2 latency histogram — unlike the bounded percentile window it
    /// never forgets, and merges exactly across tenants.
    latency_us: Arc<Histogram>,
}

impl RegistryMirror {
    fn from_registry(registry: &MetricsRegistry) -> Self {
        RegistryMirror {
            queries: registry.counter("queries_total"),
            errors: registry.counter("errors_total"),
            rows: registry.counter("rows_total"),
            normalized: registry.counter("normalized_total"),
            template_hits: registry.counter("template_hits_total"),
            admitted: registry.counter("admitted_total"),
            rejected_overloaded: registry.counter("rejected_overloaded_total"),
            rejected_deadline: registry.counter("rejected_deadline_total"),
            latency_us: registry.histogram("query_latency_us"),
        }
    }
}

/// Live counters updated on every query of one tenant.
pub struct ServerStats {
    started: Instant,
    counters: Mutex<Counters>,
    mirror: RegistryMirror,
}

impl Default for ServerStats {
    fn default() -> Self {
        // A private registry: the mirror writes land somewhere harmless
        // when the caller doesn't care about the unified surface.
        ServerStats::with_registry(&MetricsRegistry::new())
    }
}

impl ServerStats {
    pub fn new() -> Self {
        ServerStats::default()
    }

    /// A recorder whose counters are additionally mirrored into
    /// `registry` (cheap relaxed atomics on the already-locked path), so
    /// one tenant's [`MetricsRegistry`] carries its request outcomes and
    /// latency histogram alongside the batcher's metrics.
    pub fn with_registry(registry: &MetricsRegistry) -> Self {
        ServerStats {
            started: Instant::now(),
            counters: Mutex::new(Counters::default()),
            mirror: RegistryMirror::from_registry(registry),
        }
    }

    /// Record one served query — count, row total, and latency land in
    /// one critical section, so no snapshot can see a torn request.
    pub fn record_query(&self, latency: Duration, rows: usize) {
        let micros = latency.as_micros().min(u64::MAX as u128) as u64;
        {
            let mut counters = self.counters.lock();
            counters.queries += 1;
            counters.rows += rows as u64;
            counters.latencies.record(micros);
        }
        self.mirror.queries.inc();
        self.mirror.rows.add(rows as u64);
        self.mirror.latency_us.observe(micros);
    }

    pub fn record_error(&self) {
        self.counters.lock().errors += 1;
        self.mirror.errors.inc();
    }

    /// The request cleared both admission rings and will execute.
    pub fn record_admitted(&self) {
        self.counters.lock().admitted += 1;
        self.mirror.admitted.inc();
    }

    /// The request was turned away before execution — by either ring.
    /// Deadline expiries land in `rejected_deadline`; everything else
    /// (queue full, wait timed out) in `rejected_overloaded`.
    pub fn record_rejection(&self, error: &ServerError) {
        let mut counters = self.counters.lock();
        match error {
            ServerError::DeadlineExceeded(_) => {
                counters.rejected_deadline += 1;
                self.mirror.rejected_deadline.inc();
            }
            _ => {
                counters.rejected_overloaded += 1;
                self.mirror.rejected_overloaded.inc();
            }
        }
    }

    /// A query was rewritten to a parameterized template; `cache_hit`
    /// says whether that template was already prepared.
    pub fn record_normalized(&self, cache_hit: bool) {
        let mut counters = self.counters.lock();
        counters.normalized += 1;
        self.mirror.normalized.inc();
        if cache_hit {
            counters.template_hits += 1;
            self.mirror.template_hits.inc();
        }
    }

    /// The recent-latency window's raw samples (microseconds) — what the
    /// cross-tenant aggregate merges before recomputing percentiles.
    pub fn latency_samples(&self) -> Vec<u64> {
        self.counters.lock().latencies.ring.clone()
    }

    pub fn snapshot(
        &self,
        plan_cache: PlanCacheStats,
        result_cache: ResultCacheStats,
        session_cache: (u64, u64),
        batcher: BatcherStats,
    ) -> StatsSnapshot {
        let (mut snapshot, samples) =
            self.snapshot_with_samples(plan_cache, result_cache, session_cache, batcher);
        snapshot.latency = LatencySummary::from_samples(samples);
        snapshot
    }

    /// The counters plus the raw latency samples, read under the
    /// **same** lock acquisition — so a cross-tenant aggregate merging
    /// many windows sees each tenant's counters and samples mutually
    /// consistent (a query recorded between two separate reads would
    /// desynchronize them). The returned snapshot's `latency` field is
    /// left at its default: summarizing is a sort of up to the full
    /// window, and the aggregate path recomputes percentiles over the
    /// *merged* samples anyway — callers that want this one window's
    /// percentiles use [`ServerStats::snapshot`].
    pub fn snapshot_with_samples(
        &self,
        plan_cache: PlanCacheStats,
        result_cache: ResultCacheStats,
        session_cache: (u64, u64),
        batcher: BatcherStats,
    ) -> (StatsSnapshot, Vec<u64>) {
        let uptime = self.started.elapsed();
        // One lock acquisition for every request-path counter: the
        // snapshot is internally consistent by construction.
        let counters = self.counters.lock();
        let samples = counters.latencies.ring.clone();
        let snapshot = StatsSnapshot {
            uptime,
            queries: counters.queries,
            errors: counters.errors,
            rows: counters.rows,
            queries_per_sec: if uptime.as_secs_f64() > 0.0 {
                counters.queries as f64 / uptime.as_secs_f64()
            } else {
                0.0
            },
            normalized: counters.normalized,
            template_hits: counters.template_hits,
            latency: LatencySummary::default(),
            plan_cache,
            result_cache,
            session_cache,
            batcher,
            admission: AdmissionStats {
                admitted: counters.admitted,
                rejected_overloaded: counters.rejected_overloaded,
                rejected_deadline: counters.rejected_deadline,
            },
        };
        (snapshot, samples)
    }
}

/// A point-in-time view of everything one tenant (or, after
/// [`StatsSnapshot::absorb`], the whole server) measures.
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    pub uptime: Duration,
    pub queries: u64,
    pub errors: u64,
    pub rows: u64,
    pub queries_per_sec: f64,
    /// Queries rewritten to a parameterized template (≥ 1 constant
    /// extracted by [`mod@crate::normalize`]).
    pub normalized: u64,
    /// Normalized queries that hit an already-prepared template plan.
    pub template_hits: u64,
    pub latency: LatencySummary,
    pub plan_cache: PlanCacheStats,
    /// Deterministic result memoization (execution skipped on hits).
    pub result_cache: ResultCacheStats,
    /// Inference-session cache `(hits, misses)` from the scorer.
    pub session_cache: (u64, u64),
    pub batcher: BatcherStats,
    /// Per-request admission outcomes (admitted / typed rejections) —
    /// tenant-ring and global-ring rejections both land here, attributed
    /// to the tenant that sent the request.
    pub admission: AdmissionStats,
}

impl StatsSnapshot {
    /// Fold another tenant's snapshot into this one: counters summed,
    /// uptime maxed. The caller recomputes `latency` from the merged
    /// sample windows and `queries_per_sec` afterwards — both are
    /// nonlinear and cannot be summed fieldwise.
    pub fn absorb(&mut self, other: &StatsSnapshot) {
        self.uptime = self.uptime.max(other.uptime);
        self.queries += other.queries;
        self.errors += other.errors;
        self.rows += other.rows;
        self.normalized += other.normalized;
        self.template_hits += other.template_hits;
        self.plan_cache += other.plan_cache;
        self.result_cache += other.result_cache;
        self.session_cache.0 += other.session_cache.0;
        self.session_cache.1 += other.session_cache.1;
        self.batcher.absorb(&other.batcher);
        self.admission += other.admission;
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "queries: {} ({} errors), rows: {}, {:.1} q/s over {:.1?}",
            self.queries, self.errors, self.rows, self.queries_per_sec, self.uptime
        )?;
        writeln!(
            f,
            "latency: p50 {:?}, p95 {:?}, p99 {:?}, max {:?}",
            self.latency.p50, self.latency.p95, self.latency.p99, self.latency.max
        )?;
        writeln!(f, "plan cache: {}", self.plan_cache)?;
        writeln!(f, "result cache: {}", self.result_cache)?;
        writeln!(
            f,
            "parameterized templates: {} normalized queries, {} template hits",
            self.normalized, self.template_hits
        )?;
        writeln!(
            f,
            "inference-session cache: {} hits / {} misses",
            self.session_cache.0, self.session_cache.1
        )?;
        writeln!(
            f,
            "micro-batcher: {} requests in {} batches ({} inline, mean {:.1} rows, max {}, \
             ~{:.0} µs/row scorer cost, {} shed, {} expired)",
            self.batcher.requests,
            self.batcher.batches,
            self.batcher.inline,
            self.batcher.mean_batch_size(),
            self.batcher.max_batch_seen,
            self.batcher.ewma_row_micros,
            self.batcher.shed,
            self.batcher.expired,
        )?;
        write!(
            f,
            "admission: {} admitted, {} rejected overloaded, {} rejected past deadline",
            self.admission.admitted,
            self.admission.rejected_overloaded,
            self.admission.rejected_deadline
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(stats: &ServerStats) -> StatsSnapshot {
        stats.snapshot(
            PlanCacheStats::default(),
            ResultCacheStats::default(),
            (0, 0),
            BatcherStats::default(),
        )
    }

    #[test]
    fn percentiles_over_window() {
        let stats = ServerStats::new();
        for i in 1..=100u64 {
            stats.record_query(Duration::from_micros(i * 10), 1);
        }
        let snap = snap(&stats);
        assert_eq!(snap.queries, 100);
        assert_eq!(snap.rows, 100);
        assert_eq!(snap.latency.max, Duration::from_micros(1000));
        assert!(snap.latency.p50 >= Duration::from_micros(400));
        assert!(snap.latency.p50 <= Duration::from_micros(600));
        assert!(snap.latency.p99 >= snap.latency.p95);
        assert!(snap.latency.p95 >= snap.latency.p50);
        let shown = snap.to_string();
        assert!(shown.contains("plan cache"));
        assert!(shown.contains("result cache"));
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut w = LatencyWindow::default();
        for i in 0..(LATENCY_WINDOW as u64 + 10) {
            w.record(i);
        }
        assert_eq!(w.ring.len(), LATENCY_WINDOW);
        // The first 10 samples were overwritten.
        assert!(!w.ring.contains(&5));
    }

    #[test]
    fn admission_outcomes_are_exclusive_buckets() {
        let stats = ServerStats::new();
        stats.record_admitted();
        stats.record_admitted();
        stats.record_rejection(&ServerError::Overloaded("full".into()));
        stats.record_rejection(&ServerError::DeadlineExceeded("late".into()));
        let s = snap(&stats);
        assert_eq!(s.admission.admitted, 2);
        assert_eq!(s.admission.rejected_overloaded, 1);
        assert_eq!(s.admission.rejected_deadline, 1);
    }

    #[test]
    fn absorb_sums_counters_and_from_samples_merges_windows() {
        let a = ServerStats::new();
        let b = ServerStats::new();
        a.record_query(Duration::from_micros(100), 2);
        a.record_admitted();
        b.record_query(Duration::from_micros(300), 3);
        b.record_admitted();
        b.record_error();
        let mut merged = snap(&a);
        merged.absorb(&snap(&b));
        assert_eq!(merged.queries, 2);
        assert_eq!(merged.rows, 5);
        assert_eq!(merged.errors, 1);
        assert_eq!(merged.admission.admitted, 2);
        let mut samples = a.latency_samples();
        samples.extend(b.latency_samples());
        let latency = LatencySummary::from_samples(samples);
        assert_eq!(latency.max, Duration::from_micros(300));
        assert_eq!(latency.mean, Duration::from_micros(200));
        assert_eq!(
            LatencySummary::from_samples(Vec::new()),
            LatencySummary::default()
        );
    }

    #[test]
    fn registry_mirror_tracks_the_counters() {
        let registry = MetricsRegistry::new();
        let stats = ServerStats::with_registry(&registry);
        stats.record_query(Duration::from_micros(250), 3);
        stats.record_query(Duration::from_micros(90), 2);
        stats.record_error();
        stats.record_admitted();
        stats.record_rejection(&ServerError::DeadlineExceeded("late".into()));
        stats.record_normalized(true);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["queries_total"], 2);
        assert_eq!(snap.counters["rows_total"], 5);
        assert_eq!(snap.counters["errors_total"], 1);
        assert_eq!(snap.counters["admitted_total"], 1);
        assert_eq!(snap.counters["rejected_deadline_total"], 1);
        assert_eq!(snap.counters["normalized_total"], 1);
        assert_eq!(snap.counters["template_hits_total"], 1);
        let hist = &snap.histograms["query_latency_us"];
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 340);
    }

    /// Regression: a snapshot racing `record_query` must never observe a
    /// half-recorded request. Each recorded query adds exactly one row,
    /// so `queries == rows` is an invariant of every consistent state —
    /// the old field-by-field atomic snapshot could be caught between
    /// the two increments and break it.
    #[test]
    fn snapshot_is_consistent_under_concurrent_recording() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let stats = Arc::new(ServerStats::new());
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let stats = stats.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        stats.record_query(Duration::from_micros(1), 1);
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        for _ in 0..2_000 {
            let s = snap(&stats);
            assert_eq!(
                s.queries, s.rows,
                "snapshot observed a torn request: {} queries vs {} rows",
                s.queries, s.rows
            );
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
        let final_snap = snap(&stats);
        assert_eq!(final_snap.queries, total, "no recorded query lost");
        assert_eq!(final_snap.rows, total);
    }
}
