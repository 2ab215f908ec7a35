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
//! [`TenantQuotaConfig`], acquired *before* the server-wide controller it
//! shares with every other tenant (see [`Tenant::serve`]). Ordering
//! matters for fairness: a noisy tenant exhausts its own quota and is
//! rejected with a typed [`ServerError::Overloaded`] before it can occupy
//! global execution slots or queue positions that other tenants need.
//!
//! Every tenant verb exists once, here: [`Tenant::serve`] (and its
//! non-blocking probe [`Tenant::try_serve_cached`]) for a [`Statement`]
//! — literal SQL or a `?` template with its values — and
//! [`Tenant::score`] (probe: [`Tenant::try_score_inline`]) for one
//! feature row. `ServerState` only resolves the tenant.

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::batcher::{BatcherStats, MicroBatcher};
use crate::cache::{PlanCache, PlanCacheStats, PlanKey, PreparedQuery};
use crate::error::{Result, ServerError};
use crate::result_cache::{ResultCache, ResultCacheStats};
use crate::state::{ServerConfig, ServerQueryResult};
use crate::stats::{ServerStats, StatsSnapshot};
use raven_core::{ModelStore, RavenSession};
use raven_data::{Catalog, Table, Value};
use raven_ir::{FingerprintBuilder, PlanFingerprint};
use raven_ml::Pipeline;
use raven_obs::{MetricsRegistry, RegistrySnapshot, SpanRecorder, TraceConfig, TraceSink};
use raven_relational::{CancelToken, ExecError, SharedExecutor};
use raven_runtime::RavenScorer;
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The namespace requests land in when they name no tenant — the one
/// tenant that always exists, and the one the few `ServerState`
/// convenience methods serve.
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
    /// The server-wide admission ring, shared by every tenant and
    /// acquired after [`Tenant::quota`].
    global: Arc<AdmissionController>,
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

    /// Remember that `sql`'s template does not serve it, so repeats go
    /// straight to the literal text. A no-op once `sql` was evicted.
    fn demote(&mut self, sql: &str) {
        if let Some(entry) = self.map.get_mut(sql) {
            *entry = None;
        }
    }
}

/// One request's statement, borrowed from whatever carries it (a wire
/// frame, a caller's string).
#[derive(Debug, Clone, Copy)]
pub enum Statement<'a> {
    /// Literal SQL. With [`ServerConfig::normalize_parameters`] on, its
    /// constants are extracted so every constant variant shares one
    /// prepared template.
    Sql(&'a str),
    /// A template with `?` placeholders plus one value per placeholder
    /// (the [`crate::proto::Request::QueryParams`] wire path).
    Template { text: &'a str, params: &'a [Value] },
}

impl<'a> Statement<'a> {
    /// The text traces and the slow-query ring record for this request.
    pub fn text(&self) -> &'a str {
        match *self {
            Statement::Sql(sql) => sql,
            Statement::Template { text, .. } => text,
        }
    }
}

/// A [`Statement`] resolved against the plan cache.
struct Resolved<'a> {
    prepared: Arc<PreparedQuery>,
    /// Whether the plan-cache lookup hit.
    cache_hit: bool,
    /// The values the plan binds: extracted from a literal, or the
    /// template's own.
    params: Cow<'a, [Value]>,
    /// A literal whose constants were normalized into a template.
    normalized: bool,
}

impl<'a> Resolved<'a> {
    fn new(
        prepared: Arc<PreparedQuery>,
        cache_hit: bool,
        params: Cow<'a, [Value]>,
        normalized: bool,
    ) -> Self {
        Resolved {
            prepared,
            cache_hit,
            params,
            normalized,
        }
    }

    /// A plan prepared from the literal text itself: nothing to bind.
    fn literal((prepared, cache_hit): (Arc<PreparedQuery>, bool)) -> Self {
        Resolved::new(prepared, cache_hit, Cow::Borrowed(&[]), false)
    }
}

impl Tenant {
    /// Assemble a tenant from its shared parts (the catalog typically
    /// comes from the server's [`raven_data::CatalogShards`]) plus the
    /// serving configuration whose cache/batch budgets and quota it
    /// applies per-tenant. `global` is the server-wide admission ring and
    /// `trace_seq` the server-wide trace sequence counter, shared so
    /// aggregate trace views interleave tenants in capture order.
    pub(crate) fn from_parts(
        id: TenantId,
        catalog: Arc<Catalog>,
        store: Arc<ModelStore>,
        scorer: Arc<RavenScorer>,
        config: ServerConfig,
        global: Arc<AdmissionController>,
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
            plan_cache: PlanCache::new(config.plan_cache_capacity, 0),
            result_cache: ResultCache::new(
                config.result_cache_capacity,
                config.result_cache_max_bytes,
            ),
            batcher,
            quota: AdmissionController::new(config.tenant_quota.admission()),
            global,
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
        let untraced = SpanRecorder::disabled();
        let resolved = self.prepare_statement(Statement::Sql(sql), None, &untraced)?;
        Ok((resolved.prepared, resolved.cache_hit))
    }

    /// The one statement resolver behind [`Tenant::serve`],
    /// [`Tenant::try_serve_cached`] and [`Tenant::prepare`]; they differ
    /// only in `lookup`, their plan-cache access. A lookup returning
    /// `Ok(None)` (the inline probe's uncounted peek at a cold entry)
    /// ends resolution at once, so the probe never commits to a later
    /// candidate text than the counted path would use.
    ///
    /// A literal goes through the normalize memo: its template first,
    /// then — when the template fails to prepare or its arity surprises —
    /// the canonical literal text. Once that fallback prepares, the memo
    /// entry is demoted so repeats skip the doomed template. A template
    /// is canonicalized (so a hand-written one shares the normalizer's
    /// cache entry) and arity-checked into a typed `BadRequest`.
    fn resolve<'a>(
        &self,
        stmt: Statement<'a>,
        trace: &SpanRecorder,
        lookup: impl Fn(&str) -> Result<Option<(Arc<PreparedQuery>, bool)>>,
    ) -> Result<Option<Resolved<'a>>> {
        let canonical =
            |text: &str| crate::normalize::canonicalize(text).unwrap_or_else(|| text.to_string());
        let sql = match stmt {
            Statement::Template { text, params } => {
                let Some((prepared, cache_hit)) = lookup(&canonical(text))? else {
                    return Ok(None);
                };
                if prepared.param_count != params.len() {
                    return Err(ServerError::BadRequest(format!(
                        "statement expects {} parameter(s), got {}",
                        prepared.param_count,
                        params.len()
                    )));
                }
                let params = params.into();
                return Ok(Some(Resolved::new(prepared, cache_hit, params, false)));
            }
            Statement::Sql(sql) if !self.config.normalize_parameters => {
                return Ok(lookup(sql)?.map(Resolved::literal));
            }
            Statement::Sql(sql) => sql,
        };
        let template = {
            let _span = trace.span("normalize");
            self.memo().get_or_compute(sql)
        };
        let had_template = template.is_some();
        if let Some(n) = template {
            match lookup(&n.template) {
                Ok(None) => return Ok(None),
                Ok(Some((prepared, cache_hit))) if prepared.param_count == n.params.len() => {
                    let normalized = n.has_params();
                    let params = n.params.into();
                    return Ok(Some(Resolved::new(prepared, cache_hit, params, normalized)));
                }
                // The template didn't prepare (a literal whose placeholder
                // type is uninferable, like `SELECT id, 5`) or its arity
                // surprised us: fall back to the literal text.
                _ => {}
            }
        }
        let fallback = lookup(&canonical(sql))?;
        if had_template && fallback.is_some() {
            self.memo().demote(sql);
        }
        Ok(fallback.map(Resolved::literal))
    }

    fn memo(&self) -> std::sync::MutexGuard<'_, NormalizeMemo> {
        self.normalize_memo
            .lock()
            .expect("no thread panics while holding the normalize memo")
    }

    /// [`Tenant::resolve`] through the counted plan cache, preparing on a
    /// miss. A wait on another thread's preparation ends at `deadline_at`.
    fn prepare_statement<'a>(
        &self,
        stmt: Statement<'a>,
        deadline_at: Option<Instant>,
        trace: &SpanRecorder,
    ) -> Result<Resolved<'a>> {
        let lookup = |text: &str| self.prepare_text(text, deadline_at, trace).map(Some);
        let resolved = self
            .resolve(stmt, trace, lookup)?
            .expect("a preparing lookup never declines");
        if resolved.normalized {
            self.stats.record_normalized(resolved.cache_hit);
        }
        Ok(resolved)
    }

    /// Prepare exactly this text (template or literal SQL), consulting
    /// this tenant's plan cache keyed on (tenant, text, optimizer config).
    fn prepare_text(
        &self,
        sql: &str,
        deadline_at: Option<Instant>,
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
            self.plan_cache.note_uncached_fill();
            return Ok((Arc::new(prepared), false));
        }
        let abort = || match deadline_at {
            Some(at) if Instant::now() >= at => Err(ServerError::DeadlineExceeded(
                "deadline passed while another request prepared the same plan".into(),
            )),
            _ => Ok(()),
        };
        self.plan_cache
            .get_or_prepare(key, abort, || self.prepare_uncached(sql, trace))
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
        self.plan_cache.peek(&key).map(|(prepared, _)| prepared)
    }

    /// The absolute deadline of a request that arrived at `start`: its
    /// own, else the server's `admission.default_deadline`.
    fn deadline_at(&self, start: Instant, deadline: Option<Duration>) -> Option<Instant> {
        deadline
            .or(self.config.admission.default_deadline)
            .map(|d| start + d)
    }

    /// Serve one statement under both admission rings and an optional
    /// deadline (falling back to `admission.default_deadline`).
    ///
    /// The request first acquires this tenant's **quota** permit — so a
    /// tenant saturating its own allowance is rejected with a typed
    /// [`ServerError::Overloaded`] before it can consume server-wide
    /// capacity — then the **global** permit, then executes with a
    /// cancellation token carrying the deadline. Each request lands as
    /// `admitted` or in exactly one rejection bucket (the invariant the
    /// stats reconcile on), and its trace is finished here whatever the
    /// outcome: rejected and failed requests are captured (sampled or
    /// slow) with whatever spans they accumulated before the error.
    pub fn serve(
        &self,
        stmt: Statement<'_>,
        deadline: Option<Duration>,
    ) -> Result<ServerQueryResult> {
        let start = Instant::now();
        let deadline_at = self.deadline_at(start, deadline);
        let trace = self.trace_sink.begin();
        // Ring 1 (tenant quota) before ring 2 (global): a permit held at
        // the global ring while blocked on a tenant quota would let a
        // saturated tenant occupy server-wide capacity. Admission
        // rejections are recorded as per-tenant outcomes, not query
        // errors: the request was never executed.
        let rings = {
            let _span = trace.span("tenant-quota-wait");
            self.quota.admit(deadline_at)
        }
        .and_then(|tenant_permit| {
            let _span = trace.span("global-admission-wait");
            Ok((tenant_permit, self.global.admit(deadline_at)?))
        });
        let _permits = match rings {
            Ok(permits) => permits,
            Err(e) => {
                self.stats.record_rejection(&e);
                let total = start.elapsed();
                self.trace_sink
                    .finish(trace, self.id.as_str(), stmt.text(), total);
                return Err(e);
            }
        };
        self.stats.record_admitted();
        // The result-cache epoch is snapshotted before the plan this
        // request executes is resolved: the epoch guard of
        // [`crate::bounded_cache`].
        let result_epoch = self.result_cache.epoch();
        let outcome = self
            .prepare_statement(stmt, deadline_at, &trace)
            .and_then(|resolved| {
                self.run_prepared(resolved, start, deadline_at, result_epoch, &trace)
            });
        let total = match &outcome {
            Ok(result) => result.total_time,
            Err(_) => {
                self.stats.record_error();
                start.elapsed()
            }
        };
        self.trace_sink
            .finish(trace, self.id.as_str(), stmt.text(), total);
        outcome
    }

    /// Serve a statement **entirely from warm caches**, or decline. This
    /// is the reactor's inline fast path: it runs on the event-loop
    /// thread, so it must never block (both admission rings are probed
    /// with `try_admit`), never execute a plan, and never prepare one.
    /// It resolves `stmt` like [`Tenant::serve`], peeking where serve
    /// would prepare; any cold step — a plan-cache or result-cache miss,
    /// an arity surprise, a saturated ring, an expired deadline, a reply
    /// larger than `max_bytes` (the connection's remaining backlog room)
    /// — returns `None` and the request takes the pooled path, which
    /// repeats the probes with full accounting.
    ///
    /// Accounting parity is the contract here: a committed fast-path
    /// query is indistinguishable in every counter from a pooled
    /// result-cache hit (admitted, plan hit, normalized, result hit,
    /// query latency/rows, trace begin/finish) — the equivalence and
    /// stress suites assert these reconcile exactly.
    pub fn try_serve_cached(
        &self,
        stmt: Statement<'_>,
        deadline: Option<Duration>,
        max_bytes: usize,
    ) -> Option<ServerQueryResult> {
        if self.config.result_cache_capacity == 0 {
            return None;
        }
        let start = Instant::now();
        let deadline_at = self.deadline_at(start, deadline);
        let peek = |text: &str| Ok(self.peek_prepared(text).map(|prepared| (prepared, true)));
        // A typed error (a template's arity) declines too: the pooled
        // path reports it.
        let resolved = self.resolve(stmt, &SpanRecorder::disabled(), peek).ok()??;
        if !resolved.prepared.determinism.cacheable {
            return None;
        }
        let fingerprint = self.result_fingerprint(&resolved.prepared, &resolved.params);
        let (cached, bytes) = self.result_cache.peek(&fingerprint)?;
        if bytes > max_bytes {
            // The reply may not fit the connection's backlog budget;
            // the pooled path's streaming backpressure handles it.
            return None;
        }
        if deadline_at.is_some_and(|at| Instant::now() >= at) {
            // Expired on arrival: the pooled path records the typed
            // rejection.
            return None;
        }
        // Ring 1 (tenant quota) before ring 2 (global), same order as the
        // pooled path; nothing is counted until both are held.
        let _tenant_permit = self.quota.try_admit()?;
        let _global_permit = self.global.try_admit()?;
        self.quota.note_admitted();
        self.global.note_admitted();
        // Commit: from here the request *is* served, and every counter
        // mirrors a pooled result-cache hit.
        let trace = self.trace_sink.begin();
        self.stats.record_admitted();
        self.plan_cache.note_hit();
        if resolved.normalized {
            self.stats.record_normalized(true);
        }
        self.result_cache.note_hit();
        let total_time = start.elapsed();
        self.stats.record_query(total_time, cached.table.num_rows());
        self.trace_sink
            .finish(trace, self.id.as_str(), stmt.text(), total_time);
        Some(ServerQueryResult {
            table: cached.table,
            total_time,
            exec_time: total_time,
            cache_hit: true,
            result_cache_hit: true,
            prepared: resolved.prepared,
        })
    }

    /// Execute a prepared (possibly parameterized) plan under the
    /// deadline's cancellation token, routing deterministic plans through
    /// this tenant's result cache ([`ResultCache::get_or_execute`]).
    fn run_prepared(
        &self,
        resolved: Resolved<'_>,
        start: Instant,
        deadline_at: Option<Instant>,
        result_epoch: u64,
        trace: &SpanRecorder,
    ) -> Result<ServerQueryResult> {
        let Resolved {
            prepared,
            cache_hit,
            params,
            ..
        } = resolved;
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
                self.result_fingerprint(&prepared, &params)
            };
            // The lookup span covers the whole get_or_execute: on a hit
            // it is the replay cost, on a miss the per-operator spans of
            // the execution nest inside it.
            let _span = trace.span("result-cache-lookup");
            self.result_cache
                .get_or_execute(
                    fingerprint,
                    result_epoch,
                    &prepared,
                    // Polled while waiting on another thread's in-flight
                    // execution of the same fingerprint: this request's
                    // deadline keeps firing even though it runs no plan.
                    || cancel.check(),
                    || {
                        self.executor
                            .execute_traced(&prepared.plan, &params, &cancel, trace)
                    },
                )
                .map_err(map_exec_err)?
        } else {
            if caching {
                self.result_cache.note_bypass();
            }
            let table = self
                .executor
                .execute_traced(&prepared.plan, &params, &cancel, trace)
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
    /// micro-batcher, blocking until the coalesced batch completes.
    /// `deadline` (or, when `None`, the server's
    /// `admission.default_deadline`) bounds the whole batched round-trip:
    /// the batcher sheds the request typed — at enqueue when the cost
    /// model predicts a miss, at flush when the deadline expired while
    /// queued — and the wait itself times out instead of blocking past
    /// the deadline. The request is traced like a query: sampled scores
    /// get a span tree (queue wait + scorer invocation) and slow ones
    /// land in the slow-query ring under the synthetic SQL
    /// `score:<model>`.
    pub fn score(&self, model: &str, row: Vec<f64>, deadline: Option<Duration>) -> Result<f64> {
        let start = Instant::now();
        let deadline_at = self.deadline_at(start, deadline);
        if self.trace_sink.config().sample_every == 0 {
            // Tracing off: the plain path, no per-request allocation.
            let untraced = SpanRecorder::disabled();
            return self.batcher.score(model, row, deadline_at, None, &untraced);
        }
        let trace = self.trace_sink.begin();
        let outcome = self.batcher.score(model, row, deadline_at, None, &trace);
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
    /// twin of [`Tenant::try_serve_cached`]. Never blocks and never
    /// queues; the micro-batcher decides from the model's measured cost
    /// ([`MicroBatcher::try_score_inline`]) under the same effective
    /// deadline [`Tenant::score`] would apply, and a declined probe has
    /// counted nothing. A committed score is traced like a pooled one
    /// (`score:<model>`, a `batcher-score` span), minus the queue.
    pub fn try_score_inline(&self, model: &str, row: &[f64]) -> Option<Result<f64>> {
        let start = Instant::now();
        let deadline_at = self.deadline_at(start, None);
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

    #[test]
    fn normalize_memo_is_a_bounded_fifo() {
        const CAP: usize = NORMALIZE_MEMO_CAP;
        let mut memo = NormalizeMemo::default();
        let text = |i: usize| format!("SELECT a FROM t WHERE a > {i}");
        for i in 0..2 * CAP {
            memo.get_or_compute(&text(i));
        }
        assert_eq!((memo.map.len(), memo.order.len()), (CAP, CAP));
        // First in, first out: the first CAP texts are gone, the rest stay.
        assert!((0..CAP).all(|i| !memo.map.contains_key(&text(i))));
        assert!((CAP..2 * CAP).all(|i| memo.map.contains_key(&text(i))));
        // Demoting a resident entry changes its value, not the bound.
        let resident = text(2 * CAP - 1);
        assert!(memo.map[&resident].is_some());
        memo.demote(&resident);
        assert!(memo.map[&resident].is_none());
        assert_eq!((memo.map.len(), memo.order.len()), (CAP, CAP));
    }
}
