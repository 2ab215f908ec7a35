//! The prepared-plan cache: parse → bind → optimize once, execute many.
//!
//! Keyed by the *exact SQL text* plus the optimizer configuration
//! ([`RuleSet`] and [`OptimizerMode`]): the same query optimized under
//! different rule toggles is a different plan and must not collide.
//! With parameter normalization on (the default) the text is the
//! *template* — `WHERE age > ?` — so requests differing only in
//! constants share one entry ([`mod@crate::normalize`]). Model-store and
//! catalog mutations invalidate exactly the plans bound to what they
//! changed, the serving-layer counterpart of the paper's transactional
//! model updates.
//!
//! [`PlanCache`] is a [`BoundedCache`] bounded by entry count alone
//! (`plan_cache_capacity`, default 128).
//!
//! ```
//! use raven_server::cache::{PlanCache, PlanKey, PreparedQuery};
//! use raven_opt::{OptimizationReport, OptimizerMode, RuleSet};
//! use raven_ir::Plan;
//! use raven_data::{DataType, Schema};
//! use std::time::Duration;
//!
//! let cache = PlanCache::new(8, 0);
//! let sql = "SELECT x FROM t WHERE x > ?";
//! let key = PlanKey {
//!     tenant: "default".into(),
//!     sql: sql.into(),
//!     rules: RuleSet::all(),
//!     mode: OptimizerMode::Heuristic,
//! };
//! let schema = Schema::from_pairs(&[("x", DataType::Float64)]).into_shared();
//! let plan = Plan::Scan { table: "t".into(), schema };
//! let report = OptimizationReport::default();
//! let prepare = || Ok::<_, ()>(PreparedQuery::new(sql, plan, report, Duration::ZERO));
//! // The second argument is polled only while another thread prepares.
//! let (_, hit) = cache.get_or_prepare(key.clone(), || Ok(()), prepare).unwrap();
//! assert!(!hit, "first request prepares");
//! let (_, hit) = cache.get_or_prepare(key, || Ok::<_, ()>(()), || unreachable!()).unwrap();
//! assert!(hit, "second request reuses the plan");
//! assert_eq!(cache.stats().preparations, 1);
//! ```

use crate::bounded_cache::{hit_rate, BoundedCache, CacheValue};
use raven_ir::{FingerprintBuilder, Plan};
use raven_opt::{determinism, DeterminismReport, OptimizationReport, OptimizerMode, RuleSet};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Cache key: tenant + SQL text + everything that changes the optimized
/// plan. The tenant dimension is defense in depth — each tenant owns its
/// own `PlanCache`, so entries cannot collide across tenants today, but
/// the key carries the namespace anyway so a future consolidation of the
/// maps could not silently lose it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    pub tenant: String,
    pub sql: String,
    pub rules: RuleSet,
    pub mode: OptimizerMode,
}

/// A query prepared once and executable many times.
#[derive(Debug)]
pub struct PreparedQuery {
    /// The SQL text this plan was prepared from.
    pub sql: String,
    /// The fully optimized plan.
    pub plan: Plan,
    /// What the cross optimizer did while preparing.
    pub report: OptimizationReport,
    /// Models the plan's operators are bound to (by name).
    pub model_deps: Vec<String>,
    /// Tables the plan scans.
    pub table_deps: Vec<String>,
    /// Wall time of the parse + bind + optimize work this cache amortizes.
    pub prepare_time: Duration,
    /// Positional parameters (`?`) the template expects; execution must
    /// supply exactly this many values.
    pub param_count: usize,
    /// Whether the *optimized* plan is a pure function of its versioned
    /// inputs — the admission ticket to the result cache — plus the
    /// reasons when it is not (see [`raven_opt::determinism`]).
    pub determinism: DeterminismReport,
    /// Lazily memoized result-cache fingerprint prefix (tenant + plan
    /// structure). Hashing the full plan tree costs microseconds on a
    /// large inference plan; it is a pure function of this (per-tenant)
    /// cache entry, so the serving path computes it once and then only
    /// folds in the per-request parameters and dependency versions.
    pub fingerprint_base: OnceLock<FingerprintBuilder>,
}

impl PreparedQuery {
    /// Build a prepared query, extracting table/model dependencies from
    /// the optimized plan.
    pub fn new(
        sql: impl Into<String>,
        plan: Plan,
        report: OptimizationReport,
        prepare_time: Duration,
    ) -> Self {
        let (model_deps, table_deps) = collect_deps(&[&plan]);
        let param_count = plan.parameter_count();
        // Determinism is a property of the plan that executes (the
        // optimized one): inlining can purify a volatile bound plan.
        let determinism = determinism::analyze(&plan);
        PreparedQuery {
            sql: sql.into(),
            plan,
            report,
            model_deps,
            table_deps,
            prepare_time,
            param_count,
            determinism,
            fingerprint_base: OnceLock::new(),
        }
    }

    /// Build a prepared query whose dependency sets are the union of the
    /// *bound* and *optimized* plans. The bound plan matters: cross
    /// optimizations can erase the evidence — model inlining replaces a
    /// `Predict` node with CASE arithmetic and join elimination drops
    /// scans — yet the cached plan still embeds that model's (now stale
    /// after an update) parameters.
    pub fn from_stages(
        sql: impl Into<String>,
        bound: &Plan,
        optimized: Plan,
        report: OptimizationReport,
        prepare_time: Duration,
    ) -> Self {
        let mut prepared = PreparedQuery::new(sql, optimized, report, prepare_time);
        (prepared.model_deps, prepared.table_deps) = collect_deps(&[bound, &prepared.plan]);
        // The caller-facing arity is the template's: use the bound plan
        // in case an (aggressive) optimization rewrote a parameter away.
        prepared.param_count = prepared.param_count.max(bound.parameter_count());
        prepared
    }
}

/// The sorted, distinct model and table names `plans` reference.
fn collect_deps(plans: &[&Plan]) -> (Vec<String>, Vec<String>) {
    let (mut models, mut tables) = (BTreeSet::new(), BTreeSet::new());
    for plan in plans {
        plan.visit(&mut |node| match node {
            Plan::Scan { table, .. } => {
                tables.insert(table.clone());
            }
            Plan::Predict { model, .. }
            | Plan::TensorPredict { model, .. }
            | Plan::KernelPredict { model, .. }
            | Plan::ClusteredPredict { model, .. } => {
                models.insert(model.name.clone());
            }
            _ => {}
        });
    }
    (models.into_iter().collect(), tables.into_iter().collect())
}

/// Counters exposed by [`PlanCache::stats`], under the accounting
/// contract of [`crate::bounded_cache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Parse → bind → optimize passes run, failed ones included: the
    /// work the cache exists to amortize.
    pub preparations: u64,
    pub evictions: u64,
    pub invalidations: u64,
}

impl std::ops::AddAssign for PlanCacheStats {
    fn add_assign(&mut self, other: Self) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.preparations += other.preparations;
        self.evictions += other.evictions;
        self.invalidations += other.invalidations;
    }
}

impl PlanCacheStats {
    /// Hit fraction in `[0, 1]` (0 when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        hit_rate(self.hits, self.misses)
    }
}

impl fmt::Display for PlanCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate), {} preparations, \
             {} evictions, {} invalidations",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.preparations,
            self.evictions,
            self.invalidations
        )
    }
}

impl CacheValue for Arc<PreparedQuery> {
    fn weight(&self) -> usize {
        0
    }

    fn deps(&self) -> (&[String], &[String]) {
        (&self.model_deps, &self.table_deps)
    }
}

/// A tenant's cache of [`PreparedQuery`]s; see the [module docs](self).
pub type PlanCache = BoundedCache<PlanKey, Arc<PreparedQuery>>;

impl PlanCache {
    pub fn stats(&self) -> PlanCacheStats {
        let c = self.counters();
        PlanCacheStats {
            hits: c.hits,
            misses: c.misses,
            preparations: c.fills,
            evictions: c.evictions,
            invalidations: c.invalidations,
        }
    }

    /// [`BoundedCache::get_or_fill`] under the epoch read as this call
    /// starts: a plan prepared across an invalidation may be bound to
    /// state that no longer exists, so it is served but not cached.
    pub fn get_or_prepare<E>(
        &self,
        key: PlanKey,
        abort: impl Fn() -> Result<(), E>,
        prepare: impl FnOnce() -> Result<PreparedQuery, E>,
    ) -> Result<(Arc<PreparedQuery>, bool), E> {
        let epoch = self.epoch();
        self.get_or_fill(key, epoch, abort, || prepare().map(Arc::new))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_data::{DataType, Schema};

    fn key(sql: &str, rules: RuleSet) -> PlanKey {
        PlanKey {
            tenant: "default".to_string(),
            sql: sql.to_string(),
            rules,
            mode: OptimizerMode::Heuristic,
        }
    }

    fn prepared(sql: &str, table: &str) -> PreparedQuery {
        let plan = Plan::Scan {
            table: table.to_string(),
            schema: Schema::from_pairs(&[("x", DataType::Float64)]).into_shared(),
        };
        PreparedQuery::new(sql, plan, OptimizationReport::default(), Duration::ZERO)
    }

    /// Look `k` up, preparing a scan of `table` on a miss; returns
    /// whether it hit.
    fn lookup(cache: &PlanCache, k: &PlanKey, table: &str) -> bool {
        let prepare = || Ok::<_, ()>(prepared(&k.sql, table));
        cache
            .get_or_prepare(k.clone(), || Ok(()), prepare)
            .unwrap()
            .1
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = PlanCache::new(4, 0);
        let k = key("q1", RuleSet::all());
        assert!(!lookup(&cache, &k, "t"));
        assert!(lookup(&cache, &k, "t"));
        assert!(lookup(&cache, &k, "t"));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.preparations), (2, 1, 1));
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn key_is_sensitive_to_rules_mode_and_tenant() {
        let cache = PlanCache::new(8, 0);
        assert!(!lookup(&cache, &key("q", RuleSet::all()), "t"));
        // Same SQL, different rules → different entry.
        assert!(!cache.contains(&key("q", RuleSet::none())));
        // Same SQL + rules, different driver → different entry.
        let cost_based = PlanKey {
            mode: OptimizerMode::CostBased,
            ..key("q", RuleSet::all())
        };
        assert!(!cache.contains(&cost_based));
        // Same everything, different tenant → different entry.
        let other_tenant = PlanKey {
            tenant: "acme".into(),
            ..key("q", RuleSet::all())
        };
        assert!(!cache.contains(&other_tenant));
        assert!(cache.contains(&key("q", RuleSet::all())));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let cache = PlanCache::new(2, 0);
        let [a, b, c] = ["a", "b", "c"].map(|sql| key(sql, RuleSet::all()));
        lookup(&cache, &a, "t");
        lookup(&cache, &b, "t");
        // Touch `a` so `b` becomes the LRU victim.
        assert!(lookup(&cache, &a, "t"));
        lookup(&cache, &c, "t");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.contains(&a), "recently-used entry survived");
        assert!(cache.contains(&c), "new entry present");
        assert!(!cache.contains(&b), "LRU entry evicted");
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        // A resident key is a hit: nothing is prepared or evicted.
        let cache = PlanCache::new(2, 0);
        let [a, b] = ["a", "b"].map(|sql| key(sql, RuleSet::all()));
        lookup(&cache, &a, "t");
        lookup(&cache, &b, "t");
        assert!(lookup(&cache, &a, "t2"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().preparations, 2);
    }

    #[test]
    fn dependency_invalidation() {
        let cache = PlanCache::new(8, 0);
        let k1 = key("scan t1", RuleSet::all());
        let k2 = key("scan t2", RuleSet::all());
        lookup(&cache, &k1, "t1");
        lookup(&cache, &k2, "t2");
        assert_eq!(cache.invalidate_table("t1"), 1);
        assert!(!cache.contains(&k1));
        assert!(cache.contains(&k2));
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.invalidate_model("nope"), 0);
        assert_eq!(cache.clear(), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn single_flight_prepares_once_under_contention() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = Arc::new(PlanCache::new(8, 0));
        let prepares = Arc::new(AtomicUsize::new(0));
        let k = key("hot", RuleSet::all());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (cache, prepares, k) = (cache.clone(), prepares.clone(), k.clone());
                std::thread::spawn(move || {
                    let prepare = || {
                        prepares.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(10));
                        Ok::<_, ()>(prepared("hot", "t"))
                    };
                    let (p, _) = cache.get_or_prepare(k, || Ok(()), prepare).unwrap();
                    assert_eq!(p.sql, "hot");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(prepares.load(Ordering::SeqCst), 1, "optimized exactly once");
        let stats = cache.stats();
        assert_eq!(stats.preparations, 1);
        // One miss (the preparing leader), seven hits (waiters and late
        // arrivals): each served request counts once.
        assert_eq!((stats.hits, stats.misses), (7, 1), "{stats}");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn panicking_preparation_releases_the_claim() {
        let cache = Arc::new(PlanCache::new(4, 0));
        let k = key("boom", RuleSet::all());
        let panicked = {
            let cache = cache.clone();
            let k = k.clone();
            std::thread::spawn(move || {
                let _ = cache.get_or_prepare::<()>(k, || Ok(()), || panic!("bad statement"));
            })
        };
        assert!(panicked.join().is_err(), "prepare panicked");
        // The claim must be free: the same key prepares fine afterwards
        // instead of deadlocking in the single-flight wait.
        let (p, hit) = cache
            .get_or_prepare::<()>(k, || Ok(()), || Ok(prepared("boom", "t")))
            .unwrap();
        assert!(!hit);
        assert_eq!(p.sql, "boom");
    }

    #[test]
    fn invalidation_during_preparation_is_not_cached() {
        let cache = PlanCache::new(4, 0);
        let k = key("racy", RuleSet::all());
        // The "model update" lands while the preparation is in flight.
        let prepare = || {
            cache.invalidate_model("m");
            Ok::<_, ()>(prepared("racy", "t"))
        };
        let (p, hit) = cache.get_or_prepare(k.clone(), || Ok(()), prepare).unwrap();
        assert!(!hit);
        assert_eq!(p.sql, "racy", "the request itself is still served");
        assert!(
            cache.is_empty(),
            "a plan prepared across an invalidation must not be cached"
        );
        // The next request simply prepares again (and caches).
        assert!(!lookup(&cache, &k, "t"));
        assert_eq!(cache.len(), 1);
        assert!(lookup(&cache, &k, "t"));
    }
}
