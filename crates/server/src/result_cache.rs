//! The deterministic result cache: execute a pure query once, replay its
//! table for every identical repeat.
//!
//! The plan cache ([`crate::cache`]) amortizes parse → bind → optimize
//! per query *shape*; this cache amortizes execution per (shape,
//! parameter values, dependency versions), the [`PlanFingerprint`]
//! [`crate::Tenant`] computes for each request whose optimized plan the
//! determinism analysis ([`raven_opt::determinism`]) marks pure.
//!
//! [`ResultCache`] is a [`BoundedCache`] bounded by entry count
//! (`result_cache_capacity`, default 256) and by its tables' summed
//! approximate bytes (`result_cache_max_bytes`, default 64 MiB; 0 =
//! unbounded). Entries are invalidated through the [`PreparedQuery`]
//! they were computed from.

use crate::bounded_cache::{hit_rate, BoundedCache, CacheValue};
use crate::cache::PreparedQuery;
use raven_data::{Column, Table};
use raven_ir::PlanFingerprint;
use std::fmt;
use std::sync::Arc;

/// Counters exposed by [`ResultCache::stats`], under the accounting
/// contract of [`crate::bounded_cache`]: `hits + misses` reconciles
/// against the served cacheable requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Executions run, failed ones included.
    pub executions: u64,
    pub evictions: u64,
    pub invalidations: u64,
    /// Requests whose plan the determinism analysis refused — the
    /// denominator a low hit rate should be read against.
    pub uncacheable: u64,
    /// Results served but not cached: larger than the whole byte budget.
    pub too_large: u64,
}

impl std::ops::AddAssign for ResultCacheStats {
    fn add_assign(&mut self, other: Self) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.executions += other.executions;
        self.evictions += other.evictions;
        self.invalidations += other.invalidations;
        self.uncacheable += other.uncacheable;
        self.too_large += other.too_large;
    }
}

impl ResultCacheStats {
    /// Hit fraction in `[0, 1]` over cacheable lookups (0 before any).
    pub fn hit_rate(&self) -> f64 {
        hit_rate(self.hits, self.misses)
    }
}

impl fmt::Display for ResultCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate), {} executions, \
             {} evictions, {} invalidations, {} uncacheable, {} too large",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.executions,
            self.evictions,
            self.invalidations,
            self.uncacheable,
            self.too_large
        )
    }
}

/// Approximate resident bytes of a materialized table — the weight the
/// byte budget evicts against. Column payloads dominate; per-string and
/// per-column overheads are estimated, not measured.
fn table_bytes(table: &Table) -> usize {
    table
        .batch()
        .columns()
        .iter()
        .map(|col| match col.as_ref() {
            Column::Int64(v) => v.len() * 8,
            Column::Float64(v) => v.len() * 8,
            Column::Bool(v) => v.len(),
            Column::Utf8(v) => v.iter().map(|s| s.len() + 24).sum(),
        })
        .sum()
}

/// A memoized result: the table, and the prepared plan it was executed
/// from, whose model and table names invalidate it.
#[derive(Clone)]
pub struct CachedResult {
    pub table: Arc<Table>,
    prepared: Arc<PreparedQuery>,
}

impl CacheValue for CachedResult {
    fn weight(&self) -> usize {
        table_bytes(&self.table)
    }

    fn deps(&self) -> (&[String], &[String]) {
        self.prepared.deps()
    }
}

/// A tenant's cache of result tables; see the [module docs](self).
pub type ResultCache = BoundedCache<PlanFingerprint, CachedResult>;

impl ResultCache {
    pub fn stats(&self) -> ResultCacheStats {
        let c = self.counters();
        ResultCacheStats {
            hits: c.hits,
            misses: c.misses,
            executions: c.fills,
            evictions: c.evictions,
            invalidations: c.invalidations,
            uncacheable: c.bypassed,
            too_large: c.too_large,
        }
    }

    /// [`BoundedCache::get_or_fill`] with `execute` as the fill; `epoch`
    /// must be read before `prepared` was resolved.
    pub fn get_or_execute<E>(
        &self,
        key: PlanFingerprint,
        epoch: u64,
        prepared: &Arc<PreparedQuery>,
        abort: impl Fn() -> Result<(), E>,
        execute: impl FnOnce() -> Result<Table, E>,
    ) -> Result<(Arc<Table>, bool), E> {
        let fill = || {
            let table = Arc::new(execute()?);
            let prepared = prepared.clone();
            Ok(CachedResult { table, prepared })
        };
        let (result, hit) = self.get_or_fill(key, epoch, abort, fill)?;
        Ok((result.table, hit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_data::{DataType, Schema};
    use raven_ir::Plan;
    use raven_opt::OptimizationReport;
    use std::time::Duration;

    fn key(n: u64) -> PlanFingerprint {
        PlanFingerprint(n, n.wrapping_mul(31))
    }

    fn table(rows: i64) -> Table {
        Table::try_new(
            Schema::from_pairs(&[("x", DataType::Int64)]).into_shared(),
            vec![Column::Int64((0..rows).collect())],
        )
        .unwrap()
    }

    /// A prepared scan of `table` that also depends on `model`.
    fn prepared(model: &str, table: &str) -> Arc<PreparedQuery> {
        let plan = Plan::Scan {
            table: table.to_string(),
            schema: Schema::from_pairs(&[("x", DataType::Int64)]).into_shared(),
        };
        let mut p = PreparedQuery::new("q", plan, OptimizationReport::default(), Duration::ZERO);
        p.model_deps = vec![model.to_string()];
        Arc::new(p)
    }

    /// Serve `key(k)` at the current epoch, executing a `rows`-row table
    /// on a miss; returns whether it hit.
    fn run(cache: &ResultCache, k: u64, rows: i64) -> bool {
        let epoch = cache.epoch();
        let execute = || Ok::<_, ()>(table(rows));
        let p = prepared("m", "t");
        cache
            .get_or_execute(key(k), epoch, &p, || Ok(()), execute)
            .unwrap()
            .1
    }

    #[test]
    fn hit_miss_and_execute_once() {
        let cache = ResultCache::new(4, 0);
        let (epoch, p) = (cache.epoch(), prepared("m", "t"));
        let (first, hit) = cache
            .get_or_execute::<()>(key(1), epoch, &p, || Ok(()), || Ok(table(3)))
            .unwrap();
        assert!(!hit);
        assert_eq!(first.num_rows(), 3);
        let must_not_run = || panic!("must not re-execute");
        let (again, hit) = cache
            .get_or_execute::<()>(key(1), epoch, &p, || Ok(()), must_not_run)
            .unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &again), "replays the same table");
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.executions),
            (1, 1, 1),
            "{stats}"
        );
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn execution_errors_are_not_cached() {
        let cache = ResultCache::new(4, 0);
        let (epoch, p) = (cache.epoch(), prepared("m", "t"));
        let err = cache.get_or_execute(key(1), epoch, &p, || Ok(()), || Err("boom"));
        assert_eq!(err.unwrap_err(), "boom");
        assert!(cache.is_empty());
        // The next caller executes (claim released, nothing cached).
        assert!(!run(&cache, 1, 1));
        let stats = cache.stats();
        assert_eq!(stats.executions, 2, "the failed attempt was real work");
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 1),
            "only the served request counts: {stats}"
        );
    }

    #[test]
    fn lru_eviction_order() {
        let cache = ResultCache::new(2, 0);
        run(&cache, 1, 1);
        run(&cache, 2, 1);
        run(&cache, 1, 1); // touch 1 so 2 becomes the victim
        run(&cache, 3, 1);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(!run(&cache, 2, 1), "2 was evicted: it re-executes");
        assert_eq!(cache.stats().executions, 4);
    }

    #[test]
    fn dependency_invalidation_is_precise() {
        let cache = ResultCache::new(8, 0);
        let epoch = cache.epoch();
        for (k, (m, t)) in [(1, ("m1", "t1")), (2, ("m2", "t2"))] {
            let p = prepared(m, t);
            cache
                .get_or_execute::<()>(key(k), epoch, &p, || Ok(()), || Ok(table(1)))
                .unwrap();
        }
        assert_eq!(cache.invalidate_model("m1"), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.invalidate_table("t2"), 1);
        assert!(cache.is_empty());
        assert_eq!(cache.invalidate_model("ghost"), 0);
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn invalidation_during_execution_is_not_cached() {
        let cache = ResultCache::new(4, 0);
        // Epoch snapshotted before "plan resolution"; the model update
        // lands while execution is in flight.
        let (epoch, p) = (cache.epoch(), prepared("m", "t"));
        let execute = || {
            cache.invalidate_model("m");
            Ok::<_, ()>(table(5))
        };
        let (result, hit) = cache
            .get_or_execute(key(1), epoch, &p, || Ok(()), execute)
            .unwrap();
        assert!(!hit);
        assert_eq!(result.num_rows(), 5, "the request itself is still served");
        assert!(
            cache.is_empty(),
            "a result executed across an invalidation must not be cached"
        );
        // A fresh request (post-invalidation epoch) executes and caches.
        assert!(!run(&cache, 1, 6));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn panicking_execution_releases_the_claim() {
        let cache = Arc::new(ResultCache::new(4, 0));
        let (epoch, p) = (cache.epoch(), prepared("m", "t"));
        let panicked = {
            let (cache, p) = (cache.clone(), p.clone());
            std::thread::spawn(move || {
                let _ = cache.get_or_execute::<()>(
                    key(9),
                    epoch,
                    &p,
                    || Ok(()),
                    || panic!("bad execution"),
                );
            })
        };
        assert!(panicked.join().is_err(), "execution panicked");
        // The claim must be free: the same key executes fine afterwards
        // instead of deadlocking in the single-flight wait.
        let (t, hit) = cache
            .get_or_execute::<()>(key(9), epoch, &p, || Ok(()), || Ok(table(2)))
            .unwrap();
        assert!(!hit);
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn stale_epoch_from_before_claim_is_not_cached() {
        // The race the epoch guard exists for: the caller resolved its
        // plan, THEN an invalidation ran, THEN it executed. Its epoch is
        // stale even though nothing happened during `execute` itself.
        let cache = ResultCache::new(4, 0);
        let (epoch, p) = (cache.epoch(), prepared("m", "t"));
        cache.invalidate_model("m"); // supersedes the caller's inputs
        let (result, hit) = cache
            .get_or_execute::<()>(key(1), epoch, &p, || Ok(()), || Ok(table(2)))
            .unwrap();
        assert!(!hit);
        assert_eq!(result.num_rows(), 2);
        assert!(cache.is_empty(), "stale-epoch result must not be published");
    }

    #[test]
    fn byte_budget_evicts_lru_until_fit() {
        // Each 100-row Int64 table weighs ~800 bytes; budget fits two.
        let cache = ResultCache::new(64, 1700);
        run(&cache, 1, 100);
        run(&cache, 2, 100);
        assert_eq!((cache.len(), cache.weight()), (2, 1600));
        run(&cache, 3, 100); // over budget: the LRU entry (1) must go
        assert_eq!((cache.len(), cache.weight()), (2, 1600));
        assert_eq!(cache.stats().evictions, 1);
        assert!(!run(&cache, 1, 100), "1 was evicted: it re-executes");
    }

    #[test]
    fn single_result_larger_than_budget_is_served_not_cached() {
        let cache = ResultCache::new(64, 100);
        let (epoch, p) = (cache.epoch(), prepared("m", "t"));
        // ~8000 bytes >> 100-byte budget.
        let (t, hit) = cache
            .get_or_execute::<()>(key(1), epoch, &p, || Ok(()), || Ok(table(1000)))
            .unwrap();
        assert!(!hit);
        assert_eq!(t.num_rows(), 1000, "the request itself is served");
        assert!(cache.is_empty(), "an oversized result must not be cached");
        assert_eq!(cache.weight(), 0);
        assert_eq!(cache.stats().too_large, 1, "the skip is visible");
        // The repeat executes again (and is again not cached).
        assert!(!run(&cache, 1, 1000));
        assert_eq!(cache.stats().executions, 2);
    }
}
