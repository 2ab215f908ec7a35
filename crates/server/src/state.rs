//! `ServerState`: the shared, thread-safe heart of the serving layer —
//! now a multi-tenant one.
//!
//! A `ServerState` is a sharded registry of [`Tenant`]s plus the
//! server-wide admission controller. Each tenant owns its slice of the
//! stack (catalog, model store, scorer, plan/result caches, batcher,
//! quota, stats — see [`crate::tenant`]); the registry maps tenant names
//! to shards behind an `RwLock` *per registry shard*, not one global
//! lock, so resolving different tenants never serializes.
//!
//! Requests are served by the tenant itself:
//! `state.tenant(name)?.serve(stmt, deadline)` resolves (creating on first
//! use, bounded by [`ServerConfig::max_tenants`]) and serves, while the
//! reactor's non-blocking probes go through [`ServerState::try_tenant`],
//! which never creates one. What stays here is the registry, the
//! server-wide views (stats, metrics, traces, the global admission ring),
//! and a handful of default-tenant conveniences ([`ServerState::serve`],
//! [`ServerState::execute`], …) for single-namespace callers.

use crate::admission::{AdmissionController, AdmissionStats};
use crate::batcher::BatchConfig;
use crate::cache::PreparedQuery;
use crate::error::{Result, ServerError};
use crate::stats::{LatencySummary, StatsSnapshot};
use crate::tenant::{Statement, Tenant, TenantId, TenantQuotaConfig, DEFAULT_TENANT};
use crate::AdmissionConfig;
use raven_core::{ModelStore, RavenSession, SessionConfig};
use raven_data::{Catalog, CatalogShards, NamespaceMap, Table};
use raven_ml::Pipeline;
use raven_obs::{RegistrySnapshot, Trace};
use raven_runtime::RavenScorer;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Registry shards for the tenant map (and the backing catalog
/// namespaces). Tenant resolution takes a read lock on exactly one.
const TENANT_MAP_SHARDS: usize = 16;

/// Serving configuration: a [`SessionConfig`] (optimizer + engines) plus
/// the serving-only knobs. Cache and batch budgets apply **per tenant**:
/// every tenant gets its own plan cache of `plan_cache_capacity`
/// entries, its own result cache of `result_cache_capacity` entries and
/// `result_cache_max_bytes` bytes, and its own micro-batcher.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Optimizer/executor/scorer configuration shared by every request.
    pub session: SessionConfig,
    /// Maximum prepared plans kept per tenant (LRU beyond this). 0
    /// disables the cache: every request re-optimizes (the bench
    /// ablation baseline).
    pub plan_cache_capacity: usize,
    /// Maximum memoized result tables kept per tenant (LRU beyond this).
    /// 0 disables result caching: every request executes. Results are
    /// cached only for plans the determinism analysis marks pure, keyed
    /// on a [`raven_ir::PlanFingerprint`] over (tenant, optimized plan,
    /// bound parameter values, model/table versions), and invalidated by
    /// that tenant's `store_model` / `replace_table`.
    pub result_cache_capacity: usize,
    /// Byte budget across one tenant's memoized result tables
    /// (approximate payload bytes; 0 = unbounded).
    pub result_cache_max_bytes: usize,
    /// Micro-batching knobs for point-scoring requests (per tenant).
    pub batch: BatchConfig,
    /// Server-wide admission control: concurrent-execution limit, queue
    /// bound, wait timeout, default deadline. This is the outer ring
    /// every request must clear *after* its tenant quota.
    pub admission: AdmissionConfig,
    /// Per-tenant admission quota — the inner ring, acquired first, so a
    /// noisy tenant is rejected at its own boundary before it can occupy
    /// global execution slots. Defaults to unlimited concurrency (quotas
    /// off).
    pub tenant_quota: TenantQuotaConfig,
    /// Maximum live tenants, the always-present `default` included
    /// (0 = unlimited) — so `max_tenants: 4` allows three tenants beyond
    /// the default. Tenants are created on first use — including over
    /// the wire — so a cap keeps a misbehaving client from minting
    /// unbounded namespaces.
    pub max_tenants: usize,
    /// Normalize incoming SQL before the plan-cache lookup
    /// ([`mod@crate::normalize`]): literals become `?` placeholders, so
    /// queries differing only in constants share one prepared plan.
    pub normalize_parameters: bool,
    /// Head-sampling rate for request tracing: every Nth request per
    /// tenant records a full span tree (1 = every request, 0 = tracing
    /// off entirely — no per-request allocation, no slow-query capture).
    /// Unsampled requests still land in the slow-query ring when they
    /// cross [`ServerConfig::slow_query_threshold`], but without spans
    /// (the breakdown costs recording; the detection costs one compare).
    pub trace_sample_rate: u32,
    /// End-to-end latency at or above which a request is captured in the
    /// slow-query ring regardless of sampling.
    pub slow_query_threshold: Duration,
    /// Capacity of each per-tenant trace ring (sampled and slow rings
    /// are bounded separately, so fast traffic cannot evict slow traces).
    pub trace_ring_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            session: SessionConfig::default(),
            plan_cache_capacity: 128,
            result_cache_capacity: 256,
            result_cache_max_bytes: 64 * 1024 * 1024,
            batch: BatchConfig::default(),
            admission: AdmissionConfig::default(),
            tenant_quota: TenantQuotaConfig::default(),
            max_tenants: 0,
            normalize_parameters: true,
            trace_sample_rate: 64,
            slow_query_threshold: Duration::from_millis(100),
            trace_ring_capacity: 128,
        }
    }
}

impl ServerConfig {
    /// Serial engines, zero external latency — unit tests.
    pub fn for_tests() -> Self {
        ServerConfig {
            session: SessionConfig::for_tests(),
            ..Default::default()
        }
    }
}

/// The result of one served query.
#[derive(Debug)]
pub struct ServerQueryResult {
    /// The result rows. Shared (`Arc`) so a result-cache hit replays the
    /// stored table without a deep copy.
    pub table: Arc<Table>,
    /// End-to-end latency of this request (cache lookup + execution).
    pub total_time: Duration,
    /// Execution-only latency (a result-cache hit pays only the lookup).
    pub exec_time: Duration,
    /// Whether the plan came from the prepared-plan cache.
    pub cache_hit: bool,
    /// Whether the *rows* came from the result cache (execution skipped).
    pub result_cache_hit: bool,
    /// The prepared plan this request executed (report included).
    pub prepared: Arc<PreparedQuery>,
}

/// Sharded tenant registry: the data layer's generic
/// [`raven_data::NamespaceMap`] (same shard layout that backs
/// [`CatalogShards`]) plus the slot accounting [`ServerConfig::max_tenants`]
/// needs.
struct TenantRegistry {
    map: NamespaceMap<Arc<Tenant>>,
    /// Live tenant count (the always-present default included), reserved
    /// *before* a creation commits so `max_tenants` is a hard bound even
    /// under races.
    count: AtomicUsize,
}

impl TenantRegistry {
    fn new() -> Self {
        TenantRegistry {
            map: NamespaceMap::new(TENANT_MAP_SHARDS),
            count: AtomicUsize::new(0),
        }
    }

    fn get(&self, id: &TenantId) -> Option<Arc<Tenant>> {
        self.map.get(id.as_str())
    }

    fn len(&self) -> usize {
        self.count.load(Ordering::SeqCst)
    }

    /// All tenants, sorted by name.
    fn all(&self) -> Vec<Arc<Tenant>> {
        self.map.values()
    }

    /// Get `id`, or build-and-insert via `make`. The build runs outside
    /// the shard lock (it spawns the tenant's batcher thread); losers of
    /// a creation race drop their build, release their slot reservation,
    /// and adopt the winner's.
    fn get_or_insert_with(
        &self,
        id: &TenantId,
        max_tenants: usize,
        make: impl FnOnce() -> Tenant,
    ) -> Result<Arc<Tenant>> {
        if let Some(found) = self.get(id) {
            return Ok(found);
        }
        // Reserve a slot first: max_tenants is a hard bound, not a hint.
        if max_tenants > 0 {
            let reserved = self
                .count
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| {
                    (c < max_tenants).then_some(c + 1)
                });
            if reserved.is_err() {
                // Re-check under the race: the tenant may exist already
                // (its creator holds the slot), which is not an error.
                if let Some(found) = self.get(id) {
                    return Ok(found);
                }
                return Err(ServerError::Overloaded(format!(
                    "tenant limit reached ({max_tenants}); tenant {id} not created"
                )));
            }
        } else {
            self.count.fetch_add(1, Ordering::SeqCst);
        }
        match self.map.try_insert(id.as_str(), Arc::new(make())) {
            Ok(fresh) => Ok(fresh),
            Err(existing) => {
                // Lost the race: release our reservation, adopt the winner.
                self.count.fetch_sub(1, Ordering::SeqCst);
                Ok(existing)
            }
        }
    }
}

/// Shared serving state: a registry of per-tenant shards plus the
/// server-wide admission ring.
///
/// One `ServerState` (wrapped in an `Arc`) is shared by any number of
/// worker/client threads; all methods take `&self`. Per the paper's
/// north star — inference "serving heavy traffic" inside the DBMS — the
/// throughput levers (prepared-plan cache, deterministic result cache,
/// micro-batching) now apply per tenant, so many model namespaces share
/// one engine without sharing fate: a mutation in one tenant invalidates
/// nothing elsewhere, and a tenant that exhausts its quota is rejected
/// at its own boundary.
pub struct ServerState {
    tenants: TenantRegistry,
    /// Namespaced catalogs backing the tenants — the data-layer view of
    /// the same namespaces ([`raven_data::CatalogShards`]).
    catalogs: CatalogShards,
    /// Always-present default tenant, resolved without a registry lookup.
    default_tenant: Arc<Tenant>,
    /// The global admission ring; every tenant holds a handle to it.
    admission: Arc<AdmissionController>,
    /// Server-wide trace sequence counter, shared by every tenant's
    /// [`raven_obs::TraceSink`] so aggregate trace views interleave
    /// tenants in capture order.
    trace_seq: Arc<AtomicU64>,
    config: ServerConfig,
}

impl ServerState {
    /// Fresh server: empty catalog, empty model store (default tenant).
    pub fn new(config: ServerConfig) -> Self {
        let scorer = Arc::new(RavenScorer::new(config.session.scorer.clone()));
        ServerState::from_parts(
            Arc::new(Catalog::new()),
            Arc::new(ModelStore::new()),
            scorer,
            config,
        )
    }

    /// A server whose default tenant wraps an existing session's catalog,
    /// models, and warm scorer caches (e.g. train interactively, then
    /// serve).
    pub fn from_session(session: &RavenSession, config: ServerConfig) -> Self {
        ServerState::from_parts(
            session.catalog_shared(),
            session.store_shared(),
            session.scorer_shared(),
            config,
        )
    }

    /// A server whose default tenant is assembled from explicit shared
    /// parts.
    fn from_parts(
        catalog: Arc<Catalog>,
        store: Arc<ModelStore>,
        scorer: Arc<RavenScorer>,
        config: ServerConfig,
    ) -> Self {
        let catalogs = CatalogShards::new(TENANT_MAP_SHARDS);
        let default_id = TenantId::default();
        let default_catalog = catalogs.get_or_insert_with(default_id.as_str(), || catalog.clone());
        let trace_seq = Arc::new(AtomicU64::new(0));
        let admission = Arc::new(AdmissionController::new(config.admission.clone()));
        let default_tenant = Arc::new(Tenant::from_parts(
            default_id.clone(),
            default_catalog,
            store,
            scorer,
            config.clone(),
            admission.clone(),
            trace_seq.clone(),
        ));
        let tenants = TenantRegistry::new();
        // Seed the always-present default tenant. It occupies a slot like
        // any other tenant — `max_tenants` caps *live tenants total*, so
        // `max_tenants: 4` means the default plus three more.
        tenants
            .map
            .try_insert(default_id.as_str(), default_tenant.clone())
            .ok();
        tenants.count.fetch_add(1, Ordering::SeqCst);
        ServerState {
            tenants,
            catalogs,
            default_tenant,
            admission,
            trace_seq,
            config,
        }
    }

    // -----------------------------------------------------------------
    // Tenant resolution.

    /// The always-present default tenant.
    pub fn default_tenant(&self) -> &Arc<Tenant> {
        &self.default_tenant
    }

    /// Resolve `tenant`, creating its shard on first use (empty catalog,
    /// empty model store, fresh caches, its own quota). Fails typed on an
    /// invalid name ([`ServerError::BadRequest`]) or when
    /// [`ServerConfig::max_tenants`] is reached
    /// ([`ServerError::Overloaded`]).
    pub fn tenant(&self, tenant: &str) -> Result<Arc<Tenant>> {
        self.tenant_with_config(tenant, self.config.clone())
    }

    /// [`ServerState::tenant`], but a tenant created by *this* call gets
    /// `quota` instead of the configured default. If the tenant already
    /// exists its quota is unchanged.
    pub fn tenant_with_quota(&self, tenant: &str, quota: TenantQuotaConfig) -> Result<Arc<Tenant>> {
        let mut config = self.config.clone();
        config.tenant_quota = quota;
        self.tenant_with_config(tenant, config)
    }

    /// [`ServerState::tenant`], but a tenant created by *this* call gets
    /// `batch` as its micro-batching policy instead of the configured
    /// default — hot tenants with measured-cheap models can run a wider
    /// adaptive window while a latency-critical tenant keeps a tight
    /// fixed one. If the tenant already exists its policy is unchanged.
    pub fn tenant_with_batch(&self, tenant: &str, batch: BatchConfig) -> Result<Arc<Tenant>> {
        let mut config = self.config.clone();
        config.batch = batch;
        self.tenant_with_config(tenant, config)
    }

    fn tenant_with_config(&self, tenant: &str, config: ServerConfig) -> Result<Arc<Tenant>> {
        if tenant == DEFAULT_TENANT {
            return Ok(self.default_tenant.clone());
        }
        let id = TenantId::new(tenant)?;
        if let Some(found) = self.tenants.get(&id) {
            return Ok(found);
        }
        self.tenants
            .get_or_insert_with(&id, self.config.max_tenants, || {
                // Everything the tenant owns — including its catalog's
                // registration in the shared namespace map — is created
                // only *after* the max_tenants reservation succeeded, so
                // a rejected creation leaks nothing: a client spraying
                // fresh names past the cap must not grow CatalogShards
                // (or anything else) unboundedly.
                Tenant::from_parts(
                    id.clone(),
                    self.catalogs.get_or_create(id.as_str()),
                    Arc::new(ModelStore::new()),
                    Arc::new(RavenScorer::new(config.session.scorer.clone())),
                    config,
                    self.admission.clone(),
                    self.trace_seq.clone(),
                )
            })
    }

    /// Resolve `tenant` without creating it.
    pub fn try_tenant(&self, tenant: &str) -> Option<Arc<Tenant>> {
        if tenant == DEFAULT_TENANT {
            return Some(self.default_tenant.clone());
        }
        self.tenants.get(&TenantId::new(tenant).ok()?)
    }

    /// All live tenant names, sorted.
    pub fn tenants(&self) -> Vec<String> {
        self.tenants
            .all()
            .iter()
            .map(|t| t.id().as_str().to_string())
            .collect()
    }

    /// Number of live tenants (≥ 1: the default tenant always exists).
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The data-layer view of the tenant namespaces.
    pub fn catalog_shards(&self) -> &CatalogShards {
        &self.catalogs
    }

    // -----------------------------------------------------------------
    // Default-tenant conveniences, for single-namespace callers. Every
    // other verb is `state.tenant(name)?.verb(..)`.

    /// The default tenant's table catalog.
    pub fn catalog(&self) -> &Catalog {
        self.default_tenant.catalog()
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// A session over the default tenant's shared state (for training
    /// flows, EXPLAIN, ad-hoc work); queries through it bypass the plan
    /// cache.
    pub fn session(&self) -> RavenSession {
        self.default_tenant.session()
    }

    /// Replace (or insert) a table in the default tenant, invalidating
    /// its dependent plans and memoized results.
    pub fn replace_table(&self, name: &str, table: Table) {
        self.default_tenant.replace_table(name, table);
    }

    /// Store a model in the default tenant (new version if the name
    /// exists), invalidating its dependent plans, inference sessions,
    /// and memoized results.
    pub fn store_model(&self, name: &str, pipeline: Pipeline) -> Result<u32> {
        self.default_tenant.store_model(name, pipeline)
    }

    /// Prepare `sql` in the default tenant (parse → bind → optimize),
    /// consulting its plan cache. Returns the prepared plan and whether
    /// it was a cache hit.
    pub fn prepare(&self, sql: &str) -> Result<(Arc<PreparedQuery>, bool)> {
        self.default_tenant.prepare(sql)
    }

    /// Serve one SQL query in the default tenant (no explicit deadline;
    /// both admission rings still apply).
    pub fn execute(&self, sql: &str) -> Result<ServerQueryResult> {
        self.serve(sql, None)
    }

    /// Serve one SQL query in the default tenant under both admission
    /// rings and an optional deadline — see [`Tenant::serve`].
    pub fn serve(&self, sql: &str, deadline: Option<Duration>) -> Result<ServerQueryResult> {
        self.default_tenant.serve(Statement::Sql(sql), deadline)
    }

    // -----------------------------------------------------------------
    // Observability.

    /// Raw counters of the server-wide (global-ring) admission
    /// controller. Per-request outcomes — which include tenant-ring
    /// rejections — live in each tenant's snapshot.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.stats()
    }

    /// One tenant's full observability snapshot (`None` if the tenant
    /// does not exist; never creates it).
    pub fn tenant_stats(&self, tenant: &str) -> Option<StatsSnapshot> {
        self.try_tenant(tenant).map(|t| t.snapshot())
    }

    /// One tenant's unified metric snapshot, or — with `tenant` empty —
    /// the cross-tenant aggregate: counters and log2 histograms merge
    /// exactly (bucket-wise sums), unlike averaged percentiles. `None`
    /// if a named tenant does not exist (never creates it).
    pub fn metrics_snapshot(&self, tenant: &str) -> Option<RegistrySnapshot> {
        if tenant.is_empty() {
            let mut merged = RegistrySnapshot::default();
            for shard in self.tenants.all() {
                merged.merge(&shard.metrics_snapshot());
            }
            return Some(merged);
        }
        self.try_tenant(tenant).map(|t| t.metrics_snapshot())
    }

    /// Prometheus-style text exposition of [`ServerState::metrics_snapshot`]
    /// — the body of the `Metrics` wire frame. A named tenant's series
    /// carry a `tenant` label; the aggregate (empty `tenant`) carries
    /// none.
    pub fn metrics_text(&self, tenant: &str) -> Option<String> {
        self.metrics_snapshot(tenant).map(|s| s.render(tenant))
    }

    /// The most recently captured slow queries, newest first: one
    /// tenant's slow ring, or (empty `tenant`) every tenant's rings
    /// interleaved in capture order via the shared trace sequence.
    pub fn slow_queries(&self, tenant: &str, limit: usize) -> Option<Vec<Arc<Trace>>> {
        self.collect_traces(tenant, limit, |t, n| t.trace_sink().recent_slow(n))
    }

    /// The most recently head-sampled request traces, newest first.
    pub fn recent_traces(&self, tenant: &str, limit: usize) -> Option<Vec<Arc<Trace>>> {
        self.collect_traces(tenant, limit, |t, n| t.trace_sink().recent(n))
    }

    fn collect_traces(
        &self,
        tenant: &str,
        limit: usize,
        pick: impl Fn(&Tenant, usize) -> Vec<Arc<Trace>>,
    ) -> Option<Vec<Arc<Trace>>> {
        if tenant.is_empty() {
            let mut all: Vec<Arc<Trace>> = Vec::new();
            for shard in self.tenants.all() {
                all.extend(pick(&shard, limit));
            }
            all.sort_by_key(|t| std::cmp::Reverse(t.seq));
            all.truncate(limit);
            return Some(all);
        }
        self.try_tenant(tenant).map(|t| pick(&t, limit))
    }

    /// Aggregate observability snapshot across every tenant: counters
    /// summed, latency percentiles recomputed over the merged recent
    /// windows. With only the default tenant live this equals its own
    /// snapshot (modulo window timing).
    pub fn stats(&self) -> StatsSnapshot {
        let tenants = self.tenants.all();
        let mut samples: Vec<u64> = Vec::new();
        let mut merged: Option<StatsSnapshot> = None;
        for tenant in &tenants {
            // One lock per tenant: its counters and its latency samples
            // are read together, so they stay mutually consistent.
            let (snap, tenant_samples) = tenant.snapshot_with_samples();
            samples.extend(tenant_samples);
            merged = Some(match merged.take() {
                None => snap,
                Some(mut acc) => {
                    acc.absorb(&snap);
                    acc
                }
            });
        }
        let mut merged = merged.unwrap_or_else(|| self.default_tenant.snapshot());
        merged.latency = LatencySummary::from_samples(samples);
        merged.queries_per_sec = if merged.uptime.as_secs_f64() > 0.0 {
            merged.queries as f64 / merged.uptime.as_secs_f64()
        } else {
            0.0
        };
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_data::{Column, DataType, Schema, Value};
    use raven_ml::featurize::Transform;
    use raven_ml::{Estimator, FeatureStep, LinearKind, LinearModel};

    fn linear(w: Vec<f64>, b: f64) -> Pipeline {
        let steps = (0..w.len())
            .map(|i| FeatureStep::new(format!("x{i}"), Transform::Identity))
            .collect();
        Pipeline::new(
            steps,
            Estimator::Linear(LinearModel::new(w, b, LinearKind::Regression).unwrap()),
        )
        .unwrap()
    }

    fn table_of(n: i64) -> Table {
        Table::try_new(
            Schema::from_pairs(&[("x0", DataType::Float64)]).into_shared(),
            vec![Column::Float64((0..n).map(|i| i as f64).collect())],
        )
        .unwrap()
    }

    /// Give `tenant` the table `t` of `rows` rows and the model `m = w·x0`.
    fn populate(tenant: &Tenant, rows: i64, w: f64) {
        tenant.register_table("t", table_of(rows)).unwrap();
        tenant.store_model("m", linear(vec![w], 0.0)).unwrap();
    }

    fn server_with_table() -> ServerState {
        let server = ServerState::new(ServerConfig::for_tests());
        populate(server.default_tenant(), 100, 1.0);
        server
    }

    const SQL: &str = "SELECT p.s FROM PREDICT(MODEL = 'm', DATA = t AS d) \
                       WITH (s FLOAT) AS p WHERE p.s > 49";

    /// Every row of `t`, scored.
    const ALL: &str = "SELECT p.s FROM PREDICT(MODEL = 'm', DATA = t AS d) WITH (s FLOAT) AS p";

    /// Serve `sql` in `tenant`, with no deadline.
    fn serve(tenant: &Tenant, sql: &str) -> ServerQueryResult {
        tenant.serve(Statement::Sql(sql), None).unwrap()
    }

    #[test]
    fn prepare_once_execute_many() {
        let server = server_with_table();
        let first = server.execute(SQL).unwrap();
        assert!(!first.cache_hit);
        assert!(!first.result_cache_hit, "first execution must run");
        assert_eq!(first.table.num_rows(), 50);
        for _ in 0..4 {
            let again = server.execute(SQL).unwrap();
            assert!(again.cache_hit, "repeat execution must hit the plan cache");
            assert!(
                again.result_cache_hit,
                "identical deterministic repeat must hit the result cache"
            );
            assert_eq!(again.table.num_rows(), 50);
            assert!(
                Arc::ptr_eq(&first.table, &again.table),
                "a result hit replays the stored table, no copy"
            );
        }
        let stats = server.default_tenant().plan_cache_stats();
        assert_eq!(stats.preparations, 1, "optimization ran once");
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 4);
        let results = server.default_tenant().result_cache_stats();
        assert_eq!(results.executions, 1, "execution ran once: {results}");
        assert_eq!((results.hits, results.misses), (4, 1));
        let snap = server.stats();
        assert_eq!(snap.queries, 5);
        assert_eq!(snap.result_cache.hits, 4);
        assert_eq!(snap.admission.admitted, 5, "every request was admitted");
        assert!(snap.latency.max >= snap.latency.p50);
    }

    #[test]
    fn model_update_invalidates_dependent_plans() {
        let server = server_with_table();
        let v1 = server.execute(SQL).unwrap();
        assert_eq!(v1.table.num_rows(), 50);
        // New model scores every row at 100: the filter keeps all rows.
        server.store_model("m", linear(vec![0.0], 100.0)).unwrap();
        let v2 = server.execute(SQL).unwrap();
        assert!(!v2.cache_hit, "model update must invalidate the plan");
        assert!(
            !v2.result_cache_hit,
            "model update must invalidate the memoized result"
        );
        assert_eq!(v2.table.num_rows(), 100);
        let tenant = server.default_tenant();
        assert_eq!(tenant.plan_cache_stats().invalidations, 1);
        assert_eq!(tenant.result_cache_stats().invalidations, 1);
    }

    #[test]
    fn table_replacement_invalidates_dependent_plans() {
        let server = server_with_table();
        server.execute(SQL).unwrap();
        server.replace_table("t", table_of(200));
        let result = server.execute(SQL).unwrap();
        assert!(!result.cache_hit);
        assert!(!result.result_cache_hit);
        assert_eq!(result.table.num_rows(), 150);
        assert_eq!(
            server.default_tenant().result_cache_stats().invalidations,
            1
        );
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut config = ServerConfig::for_tests();
        config.plan_cache_capacity = 0;
        config.result_cache_capacity = 0;
        let server = ServerState::new(config);
        populate(server.default_tenant(), 2, 1.0);
        assert!(!server.execute(ALL).unwrap().cache_hit);
        let second = server.execute(ALL).unwrap();
        assert!(!second.cache_hit);
        assert!(
            !second.result_cache_hit,
            "capacity 0 must disable result caching"
        );
        let results = server.default_tenant().result_cache_stats();
        assert_eq!(
            (results.hits, results.misses, results.executions),
            (0, 0, 0)
        );
    }

    #[test]
    fn distinct_parameter_values_are_distinct_result_entries() {
        // 1 template plan, N constants: the plan cache shares one entry,
        // the result cache keys each bound-parameter variant separately —
        // and each repeat of the same constant hits.
        let server = server_with_table();
        for threshold in [10, 20, 30] {
            let sql = format!(
                "SELECT p.s FROM PREDICT(MODEL = 'm', DATA = t AS d) \
                 WITH (s FLOAT) AS p WHERE p.s > {threshold}"
            );
            let first = server.execute(&sql).unwrap();
            assert!(!first.result_cache_hit);
            assert_eq!(first.table.num_rows(), (99 - threshold) as usize);
            let again = server.execute(&sql).unwrap();
            assert!(again.result_cache_hit, "repeat of threshold {threshold}");
            assert_eq!(again.table.num_rows(), (99 - threshold) as usize);
        }
        assert_eq!(server.default_tenant().plan_cache_stats().preparations, 1);
        let results = server.default_tenant().result_cache_stats();
        assert_eq!(results.executions, 3, "one execution per distinct constant");
        assert_eq!(results.hits, 3);
    }

    #[test]
    fn serve_with_params_rides_the_result_cache() {
        let server = server_with_table();
        let stmt = Statement::Template {
            text: "SELECT p.s FROM PREDICT(MODEL = 'm', DATA = t AS d) \
                   WITH (s FLOAT) AS p WHERE p.s > ?",
            params: &[Value::Float64(49.0)],
        };
        let first = server.default_tenant().serve(stmt, None).unwrap();
        assert!(!first.result_cache_hit);
        let again = server.default_tenant().serve(stmt, None).unwrap();
        assert!(again.result_cache_hit);
        assert_eq!(first.table.num_rows(), again.table.num_rows());
        // And the literal spelling of the same request shares the entry:
        // normalization binds the same template to the same values.
        let literal = server
            .execute(
                "SELECT p.s FROM PREDICT(MODEL = 'm', DATA = t AS d) \
                 WITH (s FLOAT) AS p WHERE p.s > 49.0",
            )
            .unwrap();
        assert!(
            literal.result_cache_hit,
            "literal spelling must reuse the parameterized result"
        );
        assert_eq!(server.default_tenant().result_cache_stats().executions, 1);
    }

    #[test]
    fn errors_are_counted_and_typed() {
        let server = server_with_table();
        assert!(matches!(
            server.execute("SELECT * FROM missing"),
            Err(ServerError::Sql(_))
        ));
        assert_eq!(server.stats().errors, 1);
    }

    #[test]
    fn zero_deadline_is_rejected_typed() {
        let server = server_with_table();
        // An already-expired deadline never reaches execution; the
        // rejection lands in the tenant's per-request outcome counters.
        assert!(matches!(
            server.serve(SQL, Some(Duration::ZERO)),
            Err(ServerError::DeadlineExceeded(_))
        ));
        assert_eq!(server.stats().admission.rejected_deadline, 1);
        // A generous deadline serves normally, clearing both rings.
        let ok = server.serve(SQL, Some(Duration::from_secs(60))).unwrap();
        assert_eq!(ok.table.num_rows(), 50);
        assert_eq!(server.stats().admission.admitted, 1);
        assert_eq!(
            server.admission_stats().admitted,
            1,
            "the global ring granted exactly one permit"
        );
    }

    #[test]
    fn session_view_shares_state() {
        let server = server_with_table();
        let session = server.session();
        let result = session.query("SELECT x0 FROM t WHERE x0 > 97").unwrap();
        assert_eq!(result.table.num_rows(), 2);
    }

    // -----------------------------------------------------------------
    // Tracing and metrics.

    #[test]
    fn sampled_requests_record_stage_breakdowns() {
        let mut config = ServerConfig::for_tests();
        config.trace_sample_rate = 1; // sample every request
        config.slow_query_threshold = Duration::ZERO; // everything is "slow"
        let server = ServerState::new(config);
        populate(server.default_tenant(), 100, 1.0);
        server.execute(SQL).unwrap();
        server.execute(SQL).unwrap();
        let traces = server.recent_traces(DEFAULT_TENANT, 8).unwrap();
        assert_eq!(traces.len(), 2, "both requests were sampled");
        // Newest first: [0] is the warm repeat, [1] the cold request.
        let cold = &traces[1];
        let names: Vec<&str> = cold.spans.iter().map(|s| s.name.as_str()).collect();
        for stage in [
            "tenant-quota-wait",
            "global-admission-wait",
            "normalize",
            "plan-cache-lookup",
            "parse-bind",
            "optimize",
            "fingerprint",
            "result-cache-lookup",
            "op:scan",
        ] {
            assert!(names.contains(&stage), "missing {stage} in {names:?}");
        }
        assert!(cold.stage_total_us() <= cold.total_us);
        // The warm repeat hits both caches: no parse, no execution.
        let warm = &traces[0];
        let warm_names: Vec<&str> = warm.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(!warm_names.contains(&"parse-bind"), "{warm_names:?}");
        assert!(
            !warm_names.iter().any(|n| n.starts_with("op:")),
            "result-cache hit must skip execution: {warm_names:?}"
        );
        assert!(warm_names.contains(&"result-cache-lookup"));
        // A zero slow threshold lands every request in the slow ring;
        // the aggregate view interleaves tenants newest-first.
        let slow = server.slow_queries("", 8).unwrap();
        assert_eq!(slow.len(), 2);
        assert!(slow[0].seq > slow[1].seq, "newest first");
        assert!(slow[0].slow && slow[0].sql == SQL);
        assert!(slow[0].render().contains("result-cache-lookup"));
        // And the unified metrics carry the request counters.
        let text = server.metrics_text("").unwrap();
        assert!(text.contains("raven_queries_total 2"), "{text}");
        assert!(
            server.metrics_text("ghost").is_none(),
            "metrics must not create tenants"
        );
    }

    #[test]
    fn tracing_disabled_captures_nothing() {
        let mut config = ServerConfig::for_tests();
        config.trace_sample_rate = 0;
        config.slow_query_threshold = Duration::ZERO;
        let server = ServerState::new(config);
        populate(server.default_tenant(), 10, 1.0);
        server.execute(SQL).unwrap();
        assert!(server.recent_traces("", 8).unwrap().is_empty());
        assert!(server.slow_queries("", 8).unwrap().is_empty());
    }

    // -----------------------------------------------------------------
    // Tenancy.

    #[test]
    fn default_tenant_always_exists_and_names_are_validated() {
        let server = ServerState::new(ServerConfig::for_tests());
        assert_eq!(server.tenants(), vec![DEFAULT_TENANT.to_string()]);
        assert_eq!(server.tenant_count(), 1);
        assert!(server.try_tenant("ghost").is_none());
        assert!(matches!(
            server.tenant("no spaces allowed"),
            Err(ServerError::BadRequest(_))
        ));
        server.tenant("acme").unwrap();
        assert_eq!(
            server.tenants(),
            vec!["acme".to_string(), DEFAULT_TENANT.to_string()]
        );
        // Resolution is idempotent: one shard per name.
        let a = server.tenant("acme").unwrap();
        let b = server.tenant("acme").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(server.tenant_count(), 2);
        // The data layer sees the same namespaces.
        assert!(server.catalog_shards().contains("acme"));
    }

    #[test]
    fn same_named_objects_in_two_tenants_stay_isolated() {
        let server = ServerState::new(ServerConfig::for_tests());
        let [alpha, beta] = ["alpha", "beta"].map(|t| server.tenant(t).unwrap());
        // alpha: identity over 100 rows; beta: doubled over 50 rows.
        populate(&alpha, 100, 1.0);
        populate(&beta, 50, 2.0);
        assert_eq!(serve(&alpha, ALL).table.num_rows(), 100);
        assert_eq!(serve(&beta, ALL).table.num_rows(), 50);
        // Warm both result caches, then swap alpha's model: beta's
        // caches are untouched and its repeat still hits.
        assert!(serve(&beta, ALL).result_cache_hit);
        alpha.store_model("m", linear(vec![0.0], 7.0)).unwrap();
        let alpha = server.tenant_stats("alpha").unwrap();
        let beta_stats = server.tenant_stats("beta").unwrap();
        assert_eq!(alpha.plan_cache.invalidations, 1);
        assert_eq!(alpha.result_cache.invalidations, 1);
        assert_eq!(beta_stats.plan_cache.invalidations, 0, "cross-tenant leak");
        assert_eq!(
            beta_stats.result_cache.invalidations, 0,
            "cross-tenant leak"
        );
        let beta_again = serve(&beta, ALL);
        assert!(beta_again.cache_hit && beta_again.result_cache_hit);
        // The default tenant never saw any of it.
        assert_eq!(server.stats().errors, 0);
        assert!(server
            .try_tenant(DEFAULT_TENANT)
            .unwrap()
            .catalog()
            .table_names()
            .is_empty());
    }

    #[test]
    fn tenant_quota_rejects_only_the_saturating_tenant() {
        let mut config = ServerConfig::for_tests();
        config.tenant_quota = TenantQuotaConfig::strict(1);
        let server = Arc::new(ServerState::new(config));
        let [noisy, quiet] = ["noisy", "quiet"].map(|t| server.tenant(t).unwrap());
        for tenant in [&noisy, &quiet] {
            populate(tenant, 100, 1.0);
        }
        // Hold `noisy`'s single slot at the tenant ring.
        let held = noisy.quota().admit(None).unwrap();
        assert!(matches!(
            noisy.serve(Statement::Sql(ALL), None),
            Err(ServerError::Overloaded(_))
        ));
        // `quiet` is admitted and served while `noisy` is saturated.
        assert_eq!(serve(&quiet, ALL).table.num_rows(), 100);
        drop(held);
        assert_eq!(serve(&noisy, ALL).table.num_rows(), 100);
        let noisy_stats = server.tenant_stats("noisy").unwrap();
        let quiet_stats = server.tenant_stats("quiet").unwrap();
        assert_eq!(noisy_stats.admission.rejected_overloaded, 1);
        assert_eq!(quiet_stats.admission.rejected_overloaded, 0);
        assert_eq!(quiet_stats.admission.admitted, 1);
    }

    #[test]
    fn max_tenants_is_a_hard_bound() {
        let mut config = ServerConfig::for_tests();
        config.max_tenants = 2; // default + one more
        let server = ServerState::new(config);
        server.tenant("a").unwrap();
        assert!(matches!(
            server.tenant("b"),
            Err(ServerError::Overloaded(_))
        ));
        // Existing tenants still resolve.
        assert!(server.tenant("a").is_ok());
        assert!(server.tenant(DEFAULT_TENANT).is_ok());
        assert_eq!(server.tenant_count(), 2);
    }

    #[test]
    fn aggregate_stats_sum_across_tenants() {
        let server = ServerState::new(ServerConfig::for_tests());
        for (tenant, queries) in [("a", 3), ("b", 2)] {
            let tenant = server.tenant(tenant).unwrap();
            populate(&tenant, 10, 1.0);
            for _ in 0..queries {
                serve(&tenant, ALL);
            }
        }
        let aggregate = server.stats();
        assert_eq!(aggregate.queries, 5);
        assert_eq!(aggregate.rows, 50);
        assert_eq!(aggregate.admission.admitted, 5);
        assert_eq!(aggregate.plan_cache.preparations, 2, "one per tenant");
        assert_eq!(server.tenant_stats("a").unwrap().queries, 3);
        assert_eq!(server.tenant_stats("b").unwrap().queries, 2);
        assert!(aggregate.latency.max >= aggregate.latency.p50);
    }
}
