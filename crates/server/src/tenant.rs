//! First-class tenants: isolated model/table namespaces served by one
//! engine.
//!
//! A [`TenantId`] names a namespace; a [`Tenant`] is that namespace's
//! slice of the serving stack — its own [`Catalog`], [`ModelStore`],
//! scorer (with its inference-session cache), executor, prepared-plan
//! cache, result cache, micro-batcher, admission quota, and stats. The
//! isolation is structural: nothing a request resolves inside one tenant
//! can touch another tenant's objects, so `alpha`'s `store_model("m")`
//! invalidates exactly `alpha`'s plans and memoized results and zero of
//! `beta`'s — even when both tenants hold a model named `m`.
//!
//! Defense in depth on cache keys: although every cache is per-tenant
//! (collisions across tenants are impossible by construction), the
//! tenant also lands in both key spaces — [`crate::cache::PlanKey`]
//! carries the tenant name, and result fingerprints are computed through
//! [`raven_ir::FingerprintBuilder::tenant`] — so a future refactor that
//! consolidated the maps could not silently lose the dimension.
//!
//! Quotas: each tenant carries its own [`AdmissionController`] sized by
//! [`TenantQuotaConfig`], acquired *before* the server-wide controller
//! (see `ServerState::serve_in`). Ordering matters for fairness: a noisy
//! tenant exhausts its own quota and is rejected with a typed
//! [`ServerError::Overloaded`] before it can occupy global execution
//! slots or queue positions that other tenants need.

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionStats};
use crate::batcher::{BatcherStats, MicroBatcher};
use crate::cache::{PlanCache, PlanCacheStats, PlanKey, PreparedQuery};
use crate::error::{Result, ServerError};
use crate::result_cache::{ResultCache, ResultCacheStats, ResultDeps};
use crate::state::{ServerConfig, ServerQueryResult};
use crate::stats::{ServerStats, StatsSnapshot};
use raven_core::{ModelStore, RavenSession};
use raven_data::{Catalog, Table, Value};
use raven_ir::{FingerprintBuilder, PlanFingerprint};
use raven_ml::Pipeline;
use raven_obs::{MetricsRegistry, RegistrySnapshot, SpanRecorder, TraceConfig, TraceSink};
use raven_relational::{CancelToken, ExecError, SharedExecutor};
use raven_runtime::RavenScorer;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The namespace requests land in when they name no tenant — the one
/// tenant that always exists, and the one every `ServerState`
/// convenience method serves.
pub const DEFAULT_TENANT: &str = "default";

/// Longest accepted tenant name.
pub const MAX_TENANT_NAME_LEN: usize = 64;

/// A validated tenant name: 1–64 ASCII alphanumerics, `_`, `-`, or `.`.
///
/// Validation keeps tenant names safe to embed anywhere a name travels —
/// cache keys, fingerprints, log lines, stats displays — with no quoting
/// concerns, and rejects the empty string (which the wire protocol
/// reserves for "aggregate across tenants" in `Stats` frames).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(String);

impl TenantId {
    /// Validate and wrap a tenant name.
    pub fn new(name: impl Into<String>) -> Result<TenantId> {
        let name = name.into();
        if name.is_empty() || name.len() > MAX_TENANT_NAME_LEN {
            return Err(ServerError::BadRequest(format!(
                "tenant name must be 1..={MAX_TENANT_NAME_LEN} bytes, got {}",
                name.len()
            )));
        }
        if let Some(bad) = name
            .chars()
            .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.')))
        {
            return Err(ServerError::BadRequest(format!(
                "tenant name {name:?} contains {bad:?}; allowed: ASCII alphanumerics, '_', '-', '.'"
            )));
        }
        Ok(TenantId(name))
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Default for TenantId {
    fn default() -> Self {
        TenantId(DEFAULT_TENANT.to_string())
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl AsRef<str> for TenantId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// Per-tenant admission quota, layered *inside* the server-wide
/// [`AdmissionConfig`]: a tenant's requests must clear both rings. The
/// defaults (unlimited concurrency, a short bounded queue) keep
/// single-tenant deployments byte-for-byte compatible with the
/// pre-tenancy behavior; set `max_concurrent` to bound how much of the
/// engine one tenant can hold at once.
#[derive(Debug, Clone)]
pub struct TenantQuotaConfig {
    /// Maximum queries one tenant executes concurrently (0 = unlimited).
    pub max_concurrent: usize,
    /// Maximum requests one tenant may have waiting for its quota;
    /// arrivals beyond this are rejected `Overloaded` immediately.
    pub max_queued: usize,
    /// Longest a request waits for tenant quota before rejection.
    pub queue_timeout: Duration,
}

impl Default for TenantQuotaConfig {
    fn default() -> Self {
        TenantQuotaConfig {
            max_concurrent: 0,
            max_queued: 64,
            queue_timeout: Duration::from_millis(100),
        }
    }
}

impl TenantQuotaConfig {
    /// A strict quota: at most `max_concurrent` executions, no waiting
    /// room — everything beyond rejects immediately.
    pub fn strict(max_concurrent: usize) -> Self {
        TenantQuotaConfig {
            max_concurrent,
            max_queued: 0,
            queue_timeout: Duration::ZERO,
        }
    }

    pub(crate) fn admission(&self) -> AdmissionConfig {
        AdmissionConfig {
            max_concurrent: self.max_concurrent,
            max_queued: self.max_queued,
            queue_timeout: self.queue_timeout,
            // Deadlines are a request/server property, not a quota one;
            // the serve path resolves the default before admission.
            default_deadline: None,
        }
    }
}

/// One tenant's slice of the serving stack. Shared behind an `Arc`; all
/// methods take `&self`.
pub struct Tenant {
    id: TenantId,
    catalog: Arc<Catalog>,
    store: Arc<ModelStore>,
    scorer: Arc<RavenScorer>,
    executor: SharedExecutor,
    plan_cache: PlanCache,
    result_cache: ResultCache,
    batcher: MicroBatcher,
    quota: AdmissionController,
    stats: ServerStats,
    /// Unified metric registry: the batcher's counters/histograms, the
    /// stats recorder's mirrored request counters, and the latency
    /// histogram all register here. Cache counters are folded in at
    /// snapshot time ([`Tenant::metrics_snapshot`]) — they keep their own
    /// consistent accounting.
    metrics: Arc<MetricsRegistry>,
    /// Per-tenant trace capture: head sampling plus the slow-query ring.
    trace_sink: Arc<TraceSink>,
    /// Memoized [`crate::normalize::normalize`] results keyed on the raw
    /// request text. Normalization is a pure function of the text but
    /// re-tokenizes the whole query; on a warm point-query workload that
    /// was the single largest per-request cost. Bounded FIFO eviction.
    normalize_memo: Mutex<NormalizeMemo>,
    config: ServerConfig,
}

/// See [`Tenant::normalize_memo`].
#[derive(Default)]
struct NormalizeMemo {
    map: HashMap<String, Option<crate::normalize::NormalizedQuery>>,
    order: VecDeque<String>,
}

const NORMALIZE_MEMO_CAP: usize = 512;

impl NormalizeMemo {
    fn get_or_compute(&mut self, sql: &str) -> Option<crate::normalize::NormalizedQuery> {
        if let Some(hit) = self.map.get(sql) {
            return hit.clone();
        }
        let computed = crate::normalize::normalize(sql);
        if self.map.len() >= NORMALIZE_MEMO_CAP {
            if let Some(evict) = self.order.pop_front() {
                self.map.remove(&evict);
            }
        }
        self.map.insert(sql.to_string(), computed.clone());
        self.order.push_back(sql.to_string());
        computed
    }
}

impl Tenant {
    /// Assemble a tenant from its shared parts (the catalog typically
    /// comes from the server's [`raven_data::CatalogShards`]) plus the
    /// serving configuration whose cache/batch budgets it applies
    /// per-tenant. `trace_seq` is the server-wide trace sequence counter,
    /// shared so aggregate trace views interleave tenants in capture
    /// order.
    pub(crate) fn from_parts(
        id: TenantId,
        catalog: Arc<Catalog>,
        store: Arc<ModelStore>,
        scorer: Arc<RavenScorer>,
        quota: TenantQuotaConfig,
        config: ServerConfig,
        trace_seq: Arc<AtomicU64>,
    ) -> Self {
        let executor = SharedExecutor::new(
            catalog.clone(),
            scorer.clone() as Arc<dyn raven_relational::Scorer>,
            config.session.exec,
        );
        let metrics = Arc::new(MetricsRegistry::new());
        let batcher = MicroBatcher::with_registry(store.clone(), config.batch.clone(), &metrics);
        let trace_sink = Arc::new(TraceSink::new(
            TraceConfig {
                sample_every: config.trace_sample_rate,
                slow_threshold: config.slow_query_threshold,
                ring_capacity: config.trace_ring_capacity,
            },
            trace_seq,
        ));
        let stats = ServerStats::with_registry(&metrics);
        Tenant {
            id,
            catalog,
            store,
            scorer,
            executor,
            plan_cache: PlanCache::new(config.plan_cache_capacity.max(1)),
            result_cache: ResultCache::new(
                config.result_cache_capacity.max(1),
                config.result_cache_max_bytes,
            ),
            batcher,
            quota: AdmissionController::new(quota.admission()),
            stats,
            metrics,
            trace_sink,
            normalize_memo: Mutex::new(NormalizeMemo::default()),
            config,
        }
    }

    /// This tenant's name.
    pub fn id(&self) -> &TenantId {
        &self.id
    }

    /// This tenant's table catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// This tenant's model store.
    pub fn store(&self) -> &ModelStore {
        &self.store
    }

    /// This tenant's quota controller (acquired before the global ring).
    /// Public so operators and tests can hold or inspect quota permits
    /// directly; the serve path acquires it automatically.
    pub fn quota(&self) -> &AdmissionController {
        &self.quota
    }

    /// Raw quota-controller counters (permits at the tenant ring only;
    /// the per-request outcome counters live in [`Tenant::snapshot`]).
    pub fn quota_stats(&self) -> AdmissionStats {
        self.quota.stats()
    }

    pub(crate) fn stats_recorder(&self) -> &ServerStats {
        &self.stats
    }

    /// A session over this tenant's shared state (training flows,
    /// EXPLAIN, ad-hoc work); queries through it bypass the plan cache.
    pub fn session(&self) -> RavenSession {
        RavenSession::from_shared(
            self.catalog.clone(),
            self.store.clone(),
            self.scorer.clone(),
            self.config.session.clone(),
        )
    }

    /// Register a table in this tenant. Errors if the name is taken.
    pub fn register_table(&self, name: &str, table: Table) -> Result<()> {
        self.catalog
            .register(name, table)
            .map_err(|e| ServerError::Data(e.to_string()))
    }

    /// Replace (or insert) a table in this tenant, invalidating every
    /// cached plan that scans it and every memoized result computed from
    /// it — in this tenant only.
    pub fn replace_table(&self, name: &str, table: Table) {
        self.catalog.register_or_replace(name, table);
        self.plan_cache.invalidate_table(name);
        self.result_cache.invalidate_table(name);
    }

    /// Store a model in this tenant (new version if the name exists),
    /// invalidating this tenant's dependent plans, inference sessions,
    /// and memoized results. Other tenants' caches are untouched even if
    /// they hold a model with the same name.
    pub fn store_model(&self, name: &str, pipeline: Pipeline) -> Result<u32> {
        let version = self.store.store(name, pipeline);
        self.scorer.invalidate(name);
        self.plan_cache.invalidate_model(name);
        self.result_cache.invalidate_model(name);
        Ok(version)
    }

    /// Prepare `sql` through this tenant's plan cache; returns the
    /// prepared plan and whether it was a cache hit.
    pub fn prepare(&self, sql: &str) -> Result<(Arc<PreparedQuery>, bool)> {
        let (prepared, cache_hit, _params) =
            self.prepare_normalized(sql, &SpanRecorder::disabled())?;
        Ok((prepared, cache_hit))
    }

    /// Normalize (when enabled) and prepare: the prepared template plan,
    /// whether it was a cache hit, and the parameter values extracted
    /// from `sql` (empty on the exact-text path).
    fn prepare_normalized(
        &self,
        sql: &str,
        trace: &SpanRecorder,
    ) -> Result<(Arc<PreparedQuery>, bool, Vec<Value>)> {
        if self.config.normalize_parameters {
            let normalized = {
                let _span = trace.span("normalize");
                self.normalize_memo.lock().unwrap().get_or_compute(sql)
            };
            if let Some(n) = normalized {
                match self.prepare_text(&n.template, trace) {
                    Ok((prepared, cache_hit)) if prepared.param_count == n.params.len() => {
                        if n.has_params() {
                            self.stats.record_normalized(cache_hit);
                        }
                        return Ok((prepared, cache_hit, n.params));
                    }
                    // The template didn't prepare (e.g. a literal whose
                    // placeholder type is uninferable, like a bare
                    // `SELECT 5`) or its arity surprised us: fall back to
                    // the exact literal text below.
                    _ => {}
                }
            }
            let canonical = crate::normalize::canonicalize(sql).unwrap_or_else(|| sql.to_string());
            let (prepared, cache_hit) = self.prepare_text(&canonical, trace)?;
            return Ok((prepared, cache_hit, Vec::new()));
        }
        let (prepared, cache_hit) = self.prepare_text(sql, trace)?;
        Ok((prepared, cache_hit, Vec::new()))
    }

    /// Prepare exactly this text (template or literal SQL), consulting
    /// this tenant's plan cache keyed on (tenant, text, optimizer config).
    pub(crate) fn prepare_text(
        &self,
        sql: &str,
        trace: &SpanRecorder,
    ) -> Result<(Arc<PreparedQuery>, bool)> {
        let _span = trace.span("plan-cache-lookup");
        let key = PlanKey {
            tenant: self.id.as_str().to_string(),
            sql: sql.to_string(),
            rules: self.config.session.rules,
            mode: self.config.session.optimizer_mode,
        };
        if self.config.plan_cache_capacity == 0 {
            let prepared = self.prepare_uncached(sql, trace)?;
            self.plan_cache.note_uncached_preparation();
            return Ok((Arc::new(prepared), false));
        }
        self.plan_cache
            .get_or_prepare(key, || self.prepare_uncached(sql, trace))
    }

    fn prepare_uncached(&self, sql: &str, trace: &SpanRecorder) -> Result<PreparedQuery> {
        let start = Instant::now();
        let session = self.session();
        let bound = {
            let _span = trace.span("parse-bind");
            session.plan(sql)?
        };
        // Feedback loop into planning: the micro-batcher's EWMA of
        // observed per-row scoring cost (µs, 0 until the first batch)
        // becomes the optimizer's observed classical cost (≈ns units),
        // so kernel placement prices the classical path at what this
        // tenant actually measured rather than the static estimate.
        let observed_row_us = self.metrics.gauge("batcher_ewma_row_us").get();
        let observed = raven_opt::ObservedCosts {
            classical_row_ns: (observed_row_us > 0.0).then_some(observed_row_us * 1_000.0),
        };
        let (optimized, report) = {
            let _span = trace.span("optimize");
            session.optimize_with_observed(bound.clone(), observed)?
        };
        // Placement accounting: where each surviving model operator landed.
        optimized.visit(&mut |p| match p {
            raven_ir::Plan::KernelPredict { .. } => {
                self.metrics.counter("placement_kernel_total").inc()
            }
            raven_ir::Plan::TensorPredict { .. } => {
                self.metrics.counter("placement_tensor_total").inc()
            }
            raven_ir::Plan::Predict { .. } | raven_ir::Plan::ClusteredPredict { .. } => {
                self.metrics.counter("placement_classical_total").inc()
            }
            _ => {}
        });
        Ok(PreparedQuery::from_stages(
            sql,
            &bound,
            optimized,
            report,
            start.elapsed(),
        ))
    }

    /// Snapshot this tenant's result-cache epoch. Must happen **before**
    /// the plan this request will execute is resolved; see
    /// [`ResultCache::epoch`].
    pub(crate) fn result_epoch(&self) -> u64 {
        self.result_cache.epoch()
    }

    /// The body of a literal-SQL request, called with permits held.
    pub(crate) fn execute_inner(
        &self,
        sql: &str,
        start: Instant,
        deadline_at: Option<Instant>,
        trace: &SpanRecorder,
    ) -> Result<ServerQueryResult> {
        let result_epoch = self.result_epoch();
        let (prepared, cache_hit, params) = self.prepare_normalized(sql, trace)?;
        self.run_prepared(
            prepared,
            cache_hit,
            &params,
            start,
            deadline_at,
            result_epoch,
            trace,
        )
    }

    /// The body of a pre-parameterized request, called with permits held.
    pub(crate) fn execute_params_inner(
        &self,
        template: &str,
        params: &[Value],
        start: Instant,
        deadline_at: Option<Instant>,
        trace: &SpanRecorder,
    ) -> Result<ServerQueryResult> {
        let result_epoch = self.result_epoch();
        // Canonicalize spacing so a hand-written template and the
        // normalizer's rendering of the equivalent literal query share
        // one cache entry.
        let canonical =
            crate::normalize::canonicalize(template).unwrap_or_else(|| template.to_string());
        let (prepared, cache_hit) = self.prepare_text(&canonical, trace)?;
        if prepared.param_count != params.len() {
            return Err(ServerError::BadRequest(format!(
                "statement expects {} parameter(s), got {}",
                prepared.param_count,
                params.len()
            )));
        }
        self.run_prepared(
            prepared,
            cache_hit,
            params,
            start,
            deadline_at,
            result_epoch,
            trace,
        )
    }

    /// The result-cache key for one request: the tenant, the optimized
    /// plan's structure, this request's bound parameter values, and the
    /// current version of every model and table the plan depends on —
    /// resolved against *this tenant's* store and catalog. The tenant
    /// dimension makes cross-tenant key collisions structurally
    /// impossible even though each tenant already has its own cache.
    fn result_fingerprint(&self, prepared: &PreparedQuery, params: &[Value]) -> PlanFingerprint {
        // The (tenant, plan-structure) prefix is a pure function of this
        // plan-cache entry: hash it once, fold per-request inputs in on
        // top of a clone. On a large inference plan this takes the warm
        // path from "hash the whole tree" to two u64 copies.
        let base = prepared.fingerprint_base.get_or_init(|| {
            FingerprintBuilder::new()
                .tenant(self.id.as_str())
                .plan(&prepared.plan)
        });
        let mut builder = base.clone().params(params);
        for model in &prepared.model_deps {
            builder = builder.dependency("model", model, self.store.latest_version(model) as u64);
        }
        for table in &prepared.table_deps {
            builder =
                builder.dependency("table", table, self.catalog.generation(table).unwrap_or(0));
        }
        builder.finish()
    }

    /// Plan-cache lookup without counting or preparing: the probe phase
    /// of the reactor's cached-result fast path. `None` means cold (or
    /// caching disabled) — fall back to the pooled path, which does its
    /// own counted lookup.
    fn peek_prepared(&self, text: &str) -> Option<Arc<PreparedQuery>> {
        if self.config.plan_cache_capacity == 0 {
            return None;
        }
        let key = PlanKey {
            tenant: self.id.as_str().to_string(),
            sql: text.to_string(),
            rules: self.config.session.rules,
            mode: self.config.session.optimizer_mode,
        };
        self.plan_cache.peek(&key)
    }

    /// Serve a literal-SQL request **entirely from warm caches**, or
    /// decline. This is the reactor's inline fast path: it runs on the
    /// event-loop thread, so it must never block (both admission rings
    /// are probed with `try_admit`), never execute a plan, and never
    /// mutate a cache. Any cold step — normalize memo miss is tolerated,
    /// but a plan-cache or result-cache miss, an arity surprise, a
    /// saturated ring, a reply larger than `max_bytes` (the connection's
    /// remaining backlog room) — returns `None` and the request takes
    /// the pooled path, which repeats the probes with full accounting.
    ///
    /// Accounting parity is the contract here: a committed fast-path
    /// query is indistinguishable in every counter from a pooled
    /// result-cache hit (admitted, plan hit, normalized, result hit,
    /// query latency/rows, trace begin/finish) — the equivalence and
    /// stress suites assert these reconcile exactly.
    pub(crate) fn serve_cached_fast(
        &self,
        sql: &str,
        start: Instant,
        deadline_at: Option<Instant>,
        max_bytes: usize,
        global: &AdmissionController,
    ) -> Option<ServerQueryResult> {
        if self.config.result_cache_capacity == 0 {
            return None;
        }
        let (prepared, params, normalized) = if self.config.normalize_parameters {
            match self.normalize_memo.lock().unwrap().get_or_compute(sql) {
                Some(n) => {
                    let prepared = self.peek_prepared(&n.template)?;
                    if prepared.param_count != n.params.len() {
                        // Arity surprise: the pooled path falls back to
                        // the literal text; let it.
                        return None;
                    }
                    let has_params = n.has_params();
                    (prepared, n.params, has_params)
                }
                None => {
                    let canonical =
                        crate::normalize::canonicalize(sql).unwrap_or_else(|| sql.to_string());
                    (self.peek_prepared(&canonical)?, Vec::new(), false)
                }
            }
        } else {
            (self.peek_prepared(sql)?, Vec::new(), false)
        };
        self.commit_cached_fast(
            prepared,
            params,
            normalized,
            sql,
            start,
            deadline_at,
            max_bytes,
            global,
        )
    }

    /// [`Tenant::serve_cached_fast`] for the pre-parameterized wire path.
    pub(crate) fn serve_cached_fast_params(
        &self,
        template: &str,
        params: &[Value],
        start: Instant,
        deadline_at: Option<Instant>,
        max_bytes: usize,
        global: &AdmissionController,
    ) -> Option<ServerQueryResult> {
        if self.config.result_cache_capacity == 0 {
            return None;
        }
        let canonical =
            crate::normalize::canonicalize(template).unwrap_or_else(|| template.to_string());
        let prepared = self.peek_prepared(&canonical)?;
        if prepared.param_count != params.len() {
            // Let the pooled path produce the typed BadRequest.
            return None;
        }
        self.commit_cached_fast(
            prepared,
            params.to_vec(),
            false,
            template,
            start,
            deadline_at,
            max_bytes,
            global,
        )
    }

    /// Shared tail of the fast path: result-cache peek, both admission
    /// rings (non-blocking), then commit every counter the pooled
    /// result-cache-hit path would have recorded.
    #[allow(clippy::too_many_arguments)]
    fn commit_cached_fast(
        &self,
        prepared: Arc<PreparedQuery>,
        params: Vec<Value>,
        normalized: bool,
        trace_sql: &str,
        start: Instant,
        deadline_at: Option<Instant>,
        max_bytes: usize,
        global: &AdmissionController,
    ) -> Option<ServerQueryResult> {
        if !prepared.determinism.cacheable {
            return None;
        }
        let fingerprint = self.result_fingerprint(&prepared, &params);
        let (table, bytes) = self.result_cache.peek(&fingerprint)?;
        if bytes > max_bytes {
            // The reply may not fit the connection's backlog budget;
            // the pooled path's streaming backpressure handles it.
            return None;
        }
        if let Some(at) = deadline_at {
            if Instant::now() >= at {
                // Expired on arrival: the pooled path records the typed
                // rejection.
                return None;
            }
        }
        // Ring 1 (tenant quota) before ring 2 (global), same order as the
        // pooled path; nothing is counted until both are held.
        let _tenant_permit = self.quota.try_admit()?;
        let _global_permit = global.try_admit()?;
        self.quota.note_admitted();
        global.note_admitted();
        // Commit: from here the request *is* served, and every counter
        // mirrors a pooled result-cache hit.
        let trace = self.trace_sink.begin();
        self.stats.record_admitted();
        self.plan_cache.note_hit();
        if normalized {
            self.stats.record_normalized(true);
        }
        self.result_cache.note_hit();
        let total_time = start.elapsed();
        self.stats.record_query(total_time, table.num_rows());
        self.trace_sink
            .finish(trace, self.id.as_str(), trace_sql, total_time);
        Some(ServerQueryResult {
            table,
            total_time,
            exec_time: total_time,
            cache_hit: true,
            result_cache_hit: true,
            prepared,
        })
    }

    /// Execute a prepared (possibly parameterized) plan under the
    /// deadline's cancellation token, routing deterministic plans through
    /// this tenant's result cache. See the pre-tenancy contract on
    /// [`ResultCache::get_or_execute`] — unchanged, now per tenant.
    #[allow(clippy::too_many_arguments)]
    fn run_prepared(
        &self,
        prepared: Arc<PreparedQuery>,
        cache_hit: bool,
        params: &[Value],
        start: Instant,
        deadline_at: Option<Instant>,
        result_epoch: u64,
        trace: &SpanRecorder,
    ) -> Result<ServerQueryResult> {
        let exec_start = Instant::now();
        let cancel = match deadline_at {
            Some(at) => CancelToken::with_deadline(at),
            None => CancelToken::new(),
        };
        let map_exec_err = |e: ExecError| match e {
            ExecError::Cancelled => ServerError::DeadlineExceeded(format!(
                "query exceeded its deadline after {:?}",
                start.elapsed()
            )),
            e => ServerError::Execution(e.to_string()),
        };
        let caching = self.config.result_cache_capacity > 0;
        let (table, result_cache_hit) = if caching && prepared.determinism.cacheable {
            let fingerprint = {
                let _span = trace.span("fingerprint");
                self.result_fingerprint(&prepared, params)
            };
            let deps = ResultDeps {
                models: prepared.model_deps.clone(),
                tables: prepared.table_deps.clone(),
            };
            // The lookup span covers the whole get_or_execute: on a hit
            // it is the replay cost, on a miss the per-operator spans of
            // the execution nest inside it.
            let _span = trace.span("result-cache-lookup");
            self.result_cache
                .get_or_execute(
                    fingerprint,
                    result_epoch,
                    deps,
                    // Polled while waiting on another thread's in-flight
                    // execution of the same fingerprint: this request's
                    // deadline keeps firing even though it runs no plan.
                    || cancel.check(),
                    || {
                        self.executor
                            .execute_traced(&prepared.plan, params, &cancel, trace)
                    },
                )
                .map_err(map_exec_err)?
        } else {
            if caching {
                self.result_cache.note_uncacheable();
            }
            let table = self
                .executor
                .execute_traced(&prepared.plan, params, &cancel, trace)
                .map_err(map_exec_err)?;
            (Arc::new(table), false)
        };
        let exec_time = exec_start.elapsed();
        let total_time = start.elapsed();
        self.stats.record_query(total_time, table.num_rows());
        Ok(ServerQueryResult {
            table,
            total_time,
            exec_time,
            cache_hit,
            result_cache_hit,
            prepared,
        })
    }

    /// Score one raw feature row against `model` via this tenant's
    /// micro-batcher (blocks until the coalesced batch completes). The
    /// request participates in tracing like a query: sampled scores get
    /// a span tree (queue wait + scorer invocation) and slow ones land
    /// in the slow-query ring under the synthetic SQL `score:<model>`.
    pub fn score_row(&self, model: &str, row: Vec<f64>) -> Result<f64> {
        self.score_row_with_deadline(model, row, None)
    }

    /// [`Tenant::score_row`] under an SLO: `deadline` (or, when `None`,
    /// the server's `admission.default_deadline`) bounds the whole
    /// batched round-trip. The batcher sheds the request typed — at
    /// enqueue when the cost model predicts a miss, at flush when the
    /// deadline expired while queued — and the wait itself times out
    /// instead of blocking past the deadline.
    pub fn score_row_with_deadline(
        &self,
        model: &str,
        row: Vec<f64>,
        deadline: Option<Duration>,
    ) -> Result<f64> {
        let start = Instant::now();
        let deadline_at = deadline
            .or(self.config.admission.default_deadline)
            .map(|d| start + d);
        if self.trace_sink.config().sample_every == 0 {
            // Tracing off: the plain path, no per-request allocation.
            return self.batcher.score_with_deadline(
                model,
                row,
                deadline_at,
                None,
                &SpanRecorder::disabled(),
            );
        }
        let trace = self.trace_sink.begin();
        let outcome = self
            .batcher
            .score_with_deadline(model, row, deadline_at, None, &trace);
        self.trace_sink.finish(
            trace,
            self.id.as_str(),
            &format!("score:{model}"),
            start.elapsed(),
        );
        outcome
    }

    /// Score one row of a wire `Score` frame **on the calling thread**,
    /// or decline — the reactor's point-scoring fast path, the `Score`
    /// twin of [`Tenant::serve_cached_fast`]. Never blocks and never
    /// queues; the micro-batcher decides from the model's measured cost
    /// ([`MicroBatcher::try_score_inline`]) under the same effective
    /// deadline [`Tenant::score_row`] would apply, and a declined probe
    /// has counted nothing. A committed score is traced like a pooled
    /// one (`score:<model>`, a `batcher-score` span), minus the queue.
    pub(crate) fn try_score_inline(&self, model: &str, row: &[f64]) -> Option<Result<f64>> {
        let start = Instant::now();
        let deadline_at = self.config.admission.default_deadline.map(|d| start + d);
        let (outcome, trace) = self
            .batcher
            .try_score_inline(model, row, deadline_at, || self.trace_sink.begin())?;
        if self.trace_sink.config().sample_every != 0 {
            self.trace_sink.finish(
                trace,
                self.id.as_str(),
                &format!("score:{model}"),
                start.elapsed(),
            );
        }
        Some(outcome)
    }

    /// This tenant's plan-cache counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// This tenant's result-cache counters.
    pub fn result_cache_stats(&self) -> ResultCacheStats {
        self.result_cache.stats()
    }

    /// This tenant's micro-batcher counters.
    pub fn batcher_stats(&self) -> BatcherStats {
        self.batcher.stats()
    }

    /// This tenant's unified metric registry (live handles).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// This tenant's trace capture: head-sampled span trees plus the
    /// slow-query ring.
    pub fn trace_sink(&self) -> &TraceSink {
        &self.trace_sink
    }

    /// A point-in-time metric snapshot: the live registry (request
    /// counters, latency histogram, batcher metrics) plus the cache and
    /// quota counters that keep their own consistent accounting, folded
    /// in under stable names. Snapshots merge exactly across tenants —
    /// see [`RegistrySnapshot::merge`].
    pub fn metrics_snapshot(&self) -> RegistrySnapshot {
        let mut snap = self.metrics.snapshot();
        let plans = self.plan_cache.stats();
        snap.add_counter("plan_cache_hits_total", plans.hits);
        snap.add_counter("plan_cache_misses_total", plans.misses);
        snap.add_counter("plan_cache_preparations_total", plans.preparations);
        snap.add_counter("plan_cache_evictions_total", plans.evictions);
        snap.add_counter("plan_cache_invalidations_total", plans.invalidations);
        let results = self.result_cache.stats();
        snap.add_counter("result_cache_hits_total", results.hits);
        snap.add_counter("result_cache_misses_total", results.misses);
        snap.add_counter("result_cache_executions_total", results.executions);
        snap.add_counter("result_cache_evictions_total", results.evictions);
        snap.add_counter("result_cache_invalidations_total", results.invalidations);
        snap.add_counter("result_cache_uncacheable_total", results.uncacheable);
        let (session_hits, session_misses) = self.scorer.cache_stats();
        snap.add_counter("session_cache_hits_total", session_hits);
        snap.add_counter("session_cache_misses_total", session_misses);
        let quota = self.quota.stats();
        snap.add_counter("quota_permits_total", quota.admitted);
        snap
    }

    /// Full observability snapshot for this tenant: throughput, latency
    /// percentiles, cache counters, and per-request admission outcomes.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.stats.snapshot(
            self.plan_cache.stats(),
            self.result_cache.stats(),
            self.scorer.cache_stats(),
            self.batcher.stats(),
        )
    }

    /// This tenant's counters plus its raw latency window (µs), read
    /// under one lock — the consistent unit the cross-tenant aggregate
    /// merges. The snapshot's `latency` summary is deliberately left
    /// unset (the aggregate recomputes it over the merged windows);
    /// use [`Tenant::snapshot`] for a self-contained view.
    pub(crate) fn snapshot_with_samples(&self) -> (StatsSnapshot, Vec<u64>) {
        self.stats.snapshot_with_samples(
            self.plan_cache.stats(),
            self.result_cache.stats(),
            self.scorer.cache_stats(),
            self.batcher.stats(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_ids_validate() {
        for good in ["default", "team-a", "a", "v1.2_x", &"x".repeat(64)] {
            assert!(TenantId::new(good).is_ok(), "{good:?} must validate");
        }
        for bad in ["", " ", "a b", "a/b", "a\nb", "héllo", &"x".repeat(65)] {
            assert!(
                matches!(TenantId::new(bad), Err(ServerError::BadRequest(_))),
                "{bad:?} must be rejected"
            );
        }
        assert_eq!(TenantId::default().as_str(), DEFAULT_TENANT);
        assert_eq!(TenantId::new("acme").unwrap().to_string(), "acme");
    }

    #[test]
    fn strict_quota_config_maps_to_admission() {
        let quota = TenantQuotaConfig::strict(2).admission();
        assert_eq!(quota.max_concurrent, 2);
        assert_eq!(quota.max_queued, 0);
        assert_eq!(quota.queue_timeout, Duration::ZERO);
        assert!(quota.default_deadline.is_none());
        // Defaults keep single-tenant behavior: unlimited concurrency.
        assert_eq!(TenantQuotaConfig::default().max_concurrent, 0);
    }
}
