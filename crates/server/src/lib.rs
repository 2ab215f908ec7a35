//! # raven-server
//!
//! The concurrent prediction-serving layer over the Raven engine — the
//! step from "a session that can run one inference query" toward the
//! paper's deployment story: models served *inside* the data engine, at
//! application traffic rates.
//!
//! A [`ServerState`] is a sharded registry of **tenants** — isolated
//! model/table namespaces served by one engine ([`tenant`]): each
//! [`Tenant`] owns its catalog, model store, scorer (with its
//! inference-session cache), admission quota, stats, and its own copy of
//! the classic inference-serving levers:
//!
//! * a **prepared-plan cache** ([`PlanCache`]): parse → bind → optimize
//!   runs once per distinct (SQL, [`raven_opt::RuleSet`], optimizer mode)
//!   key;
//! * a **deterministic result cache** ([`ResultCache`]): for plans the
//!   determinism analysis ([`raven_opt::determinism`]) proves pure,
//!   execution itself is memoized keyed on a [`raven_ir::PlanFingerprint`]
//!   (optimized plan × bound parameter values × model/table versions) —
//!   the hot repeat path becomes a hash lookup. Both caches are
//!   instances of one [`BoundedCache`]: LRU eviction under an entry
//!   (and, for results, byte) bound, single-flight fills whose waiters
//!   honour their deadline, an epoch guard, and precise invalidation
//!   when a model or table changes;
//! * a **micro-batcher** ([`MicroBatcher`]): concurrent single-row
//!   scoring requests coalesce into one batched pipeline invocation per
//!   flush window (the paper's §5 "batch inference" observation, applied
//!   to point lookups). The window is SLO-aware ([`BatchPolicy`]):
//!   per-request deadlines admit-or-shed at enqueue, expired requests
//!   are shed before the scoring batch is built, and the adaptive
//!   policy sizes each wait from the observed cost EWMAs versus the
//!   oldest queued deadline's slack.
//!
//! Each request verb exists once, on [`Tenant`]: [`Tenant::serve`] takes
//! a [`Statement`] — literal SQL or a `?` template with its values — and
//! [`Tenant::score`] one feature row; the reactor's non-blocking probes
//! are [`Tenant::try_serve_cached`] and [`Tenant::try_score_inline`].
//! `ServerState` resolves the tenant (`state.tenant(name)?`, or
//! [`ServerState::try_tenant`] for probes that must not create one) and
//! keeps the server-wide views.
//!
//! Around that state sits the network front end: a length-prefixed
//! framed-TCP protocol ([`proto`], version 6 only — frames carry the
//! tenant and a request id) served by
//! a readiness-polling reactor over a small executor pool
//! ([`net::RavenServer`]) and spoken by two clients — the blocking
//! [`client::RavenClient`] (rebindable per namespace via
//! [`RavenClient::for_tenant`]) and the pipelined
//! [`client::PipelinedClient`], which keeps up to
//! [`net::NetConfig::max_inflight_per_conn`] requests in flight on one
//! connection and reassembles streamed, out-of-order replies by
//! request id — with two-ring admission control and
//! backpressure ([`admission`], [`TenantQuotaConfig`]) — a per-tenant
//! quota inside a server-wide bounded concurrent-execution semaphore,
//! a bounded wait queue, and per-request deadlines enforced through the
//! executor's cancellation token — rejecting overload with typed
//! [`ServerError::Overloaded`] / [`ServerError::DeadlineExceeded`]
//! frames instead of stalling the socket. A noisy tenant exhausts its
//! own quota at its own boundary; everyone else keeps their latency.
//!
//! Threaded through all of it is the observability layer
//! ([`raven_obs`]): every tenant owns a lock-cheap [`MetricsRegistry`]
//! (exact cross-tenant aggregation via snapshot [`RegistrySnapshot`]
//! merge, Prometheus-style text over the `Metrics` frame) and a
//! [`raven_obs::TraceSink`] capturing head-sampled per-request span
//! trees — normalize → plan-cache lookup → parse/bind → optimize →
//! fingerprint → result-cache lookup → admission waits → per-operator
//! execution — with slow requests always kept for forensics and served
//! as [`Trace`]s over the `Traces` frame
//! ([`RavenClient::slow_queries`]).
//!
//! Every method takes `&self`; wrap the state in an `Arc` and share it
//! across as many worker threads as the machine offers:
//!
//! ```
//! use raven_server::{ServerConfig, ServerState, Statement};
//! use raven_data::{Column, DataType, Schema, Table};
//! use raven_ml::featurize::Transform;
//! use raven_ml::{Estimator, FeatureStep, LinearKind, LinearModel, Pipeline};
//! use std::sync::Arc;
//!
//! let server = Arc::new(ServerState::new(ServerConfig::for_tests()));
//! let table = Table::try_new(
//!     Schema::from_pairs(&[("age", DataType::Float64)]).into_shared(),
//!     vec![Column::from(vec![30.0, 60.0])],
//! ).unwrap();
//! server.catalog().register("patients", table).unwrap();
//! let model = Pipeline::new(
//!     vec![FeatureStep::new("age", Transform::Identity)],
//!     Estimator::Linear(LinearModel::new(vec![0.1], 0.0, LinearKind::Regression).unwrap()),
//! ).unwrap();
//! server.store_model("risk", model).unwrap();
//!
//! let sql = "SELECT p.score FROM PREDICT(MODEL = 'risk', DATA = patients AS d) \
//!            WITH (score FLOAT) AS p";
//! let threads: Vec<_> = (0..4).map(|_| {
//!     let tenant = server.default_tenant().clone();
//!     std::thread::spawn(move || {
//!         tenant.serve(Statement::Sql(sql), None).unwrap().table.num_rows()
//!     })
//! }).collect();
//! for t in threads {
//!     assert_eq!(t.join().unwrap(), 2);
//! }
//! // 4 requests, 1 optimization: the plan cache absorbed the rest.
//! assert_eq!(server.default_tenant().plan_cache_stats().preparations, 1);
//! ```

pub mod admission;
pub mod batcher;
pub mod bounded_cache;
pub mod cache;
pub mod client;
pub mod error;
pub mod net;
pub mod normalize;
pub mod proto;
pub mod result_cache;
pub mod state;
pub mod stats;
pub mod tenant;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionPermit, AdmissionStats};
pub use batcher::{adaptive_flush_window, BatchConfig, BatchPolicy, BatcherStats, MicroBatcher};
pub use bounded_cache::{BoundedCache, CacheCounters, CacheValue};
pub use cache::{PlanCache, PlanCacheStats, PlanKey, PreparedQuery};
pub use client::{ClientQueryReply, PipelinedClient, RavenClient};
pub use error::{Result, ServerError};
pub use net::{NetConfig, RavenServer};
pub use normalize::{normalize, NormalizedQuery};
pub use proto::{ErrorCode, ProtoError, Request, Response, WireStats};
pub use result_cache::{CachedResult, ResultCache, ResultCacheStats};
pub use state::{ServerConfig, ServerQueryResult, ServerState};
pub use stats::{LatencySummary, ServerStats, StatsSnapshot};
pub use tenant::{Statement, Tenant, TenantId, TenantQuotaConfig, DEFAULT_TENANT};

pub use raven_obs::{MetricsRegistry, RegistrySnapshot, Span, Trace};
