//! The one cache mechanism under both serving caches.
//! [`crate::cache::PlanCache`] and [`crate::result_cache::ResultCache`]
//! are instances of [`BoundedCache`]; each tenant owns one of each.
//!
//! **Bound.** At most `capacity` entries (≥ 1) and, when `budget` is
//! non-zero, at most `budget` summed [`CacheValue::weight`]: one loop
//! evicts least-recently-used entries until both hold. A value heavier
//! than the whole budget is served but not cached (`too_large`). The
//! LRU victim is found by one `min_by_key` scan: ~0.2 µs at 256 entries.
//!
//! **Accounting.** Every [`BoundedCache::get_or_fill`] call that returns
//! `Ok` counts one hit (single-flight waiters included) or one miss
//! (served by its own fill), so `hits + misses` equals the requests
//! served; a failed or aborted call counts neither. Every fill that runs
//! counts in `fills`, failed and panicking ones included.
//!
//! **Correctness** rests on three mechanisms, each with a test:
//!
//! * **dependency invalidation** — [`BoundedCache::invalidate_model`] /
//!   [`BoundedCache::invalidate_table`] drop every entry whose value
//!   names that model or table ([`CacheValue::deps`]);
//! * **epoch guard** — the caller reads [`BoundedCache::epoch`] *before*
//!   resolving the inputs it fills from, and the fill's value is cached
//!   only if no invalidation has run since, checked under the lock
//!   invalidations take: a fill that overlaps one may have read
//!   superseded state;
//! * **single flight** — of N threads missing on one key, the first
//!   claims it under the lookup's own lock and fills; the rest wait,
//!   polling their `abort` check, and then hit. The claim is released
//!   on every exit path, a panicking fill included.
//!
//! The result cache adds a fourth: its keys carry every dependency's
//! version, so no request after an update can hit an entry computed
//! before it, even one that survived invalidation.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How often a single-flight waiter wakes to poll its abort check
/// (deadline or cancellation) while another thread fills the entry.
const WAIT_TICK: Duration = Duration::from_millis(10);

/// What the cache needs to know about a value.
pub trait CacheValue: Clone {
    /// Weight charged against the budget (ignored when there is none).
    fn weight(&self) -> usize;

    /// The models and the tables the value was derived from: a change
    /// to any of them invalidates it.
    fn deps(&self) -> (&[String], &[String]);
}

/// Counters kept under the cache lock; see the [module docs](self).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub fills: u64,
    pub evictions: u64,
    /// Entries dropped by dependency invalidation or `clear`.
    pub invalidations: u64,
    pub too_large: u64,
    /// Requests that went around the cache ([`BoundedCache::note_bypass`]).
    pub bypassed: u64,
}

/// Hit fraction in `[0, 1]` (0 before any lookup).
pub(crate) fn hit_rate(hits: u64, misses: u64) -> f64 {
    match hits + misses {
        0 => 0.0,
        total => hits as f64 / total as f64,
    }
}

struct Entry<V> {
    value: V,
    weight: usize,
    last_used: u64,
}

struct Inner<K, V> {
    capacity: usize,
    budget: usize,
    map: HashMap<K, Entry<V>>,
    /// Keys claimed by a running fill.
    inflight: HashSet<K>,
    tick: u64,
    /// Bumped by every invalidation; see the epoch guard.
    epoch: u64,
    /// Sum of the entries' weights.
    weight: usize,
    counters: CacheCounters,
}

/// A bounded, single-flight LRU cache; see the [module docs](self).
pub struct BoundedCache<K, V> {
    inner: Mutex<Inner<K, V>>,
    /// Signalled whenever a claim is released.
    released: Condvar,
}

/// Releases a single-flight claim on drop, so waiters always wake.
struct Claim<'a, K: Hash + Eq + Clone, V: CacheValue>(&'a BoundedCache<K, V>, &'a K);

impl<K: Hash + Eq + Clone, V: CacheValue> Drop for Claim<'_, K, V> {
    fn drop(&mut self) {
        self.0.lock().inflight.remove(self.1);
        self.0.released.notify_all();
    }
}

impl<K: Hash + Eq + Clone, V: CacheValue> BoundedCache<K, V> {
    /// At most `capacity` entries (clamped to ≥ 1) and, unless `budget`
    /// is 0, at most `budget` summed weight.
    pub fn new(capacity: usize, budget: usize) -> Self {
        let inner = Inner {
            capacity: capacity.max(1),
            budget,
            map: HashMap::new(),
            inflight: HashSet::new(),
            tick: 0,
            epoch: 0,
            weight: 0,
            counters: CacheCounters::default(),
        };
        BoundedCache {
            inner: Mutex::new(inner),
            released: Condvar::new(),
        }
    }

    /// Recovers a poisoned lock: the caller code run under it (`Clone`,
    /// `Hash`, `Eq`, [`CacheValue::deps`]) must not panic.
    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Summed weight of the resident entries.
    pub fn weight(&self) -> usize {
        self.lock().weight
    }

    /// Whether `key` is resident; touches neither recency nor counters.
    pub fn contains(&self, key: &K) -> bool {
        self.lock().map.contains_key(key)
    }

    pub fn counters(&self) -> CacheCounters {
        self.lock().counters
    }

    /// The invalidation epoch to pass to [`Self::get_or_fill`]; read it
    /// before resolving the inputs the fill will use.
    pub fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Look up `key` and its weight, refreshing its recency but counting
    /// nothing: a probe counts through [`Self::note_hit`] only once it
    /// commits, so an abandoned probe leaves the accounting intact.
    pub fn peek(&self, key: &K) -> Option<(V, usize)> {
        self.lock().touch(key)
    }

    /// Count a hit observed through [`Self::peek`].
    pub fn note_hit(&self) {
        self.lock().counters.hits += 1;
    }

    /// Count a fill run outside the cache (caching disabled).
    pub fn note_uncached_fill(&self) {
        self.lock().counters.fills += 1;
    }

    /// Count a request that could not use the cache.
    pub fn note_bypass(&self) {
        self.lock().counters.bypassed += 1;
    }

    /// The cached value for `key` and `true`, or the value of `fill` —
    /// run outside the lock by one caller at a time per key, and cached
    /// if it succeeds while `epoch` is current — and `false`. A caller
    /// waiting on another's fill polls `abort` every `WAIT_TICK` (10 ms)
    /// and returns its error, so a deadline fires mid-wait.
    pub fn get_or_fill<E>(
        &self,
        key: K,
        epoch: u64,
        abort: impl Fn() -> Result<(), E>,
        fill: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        let mut inner = self.lock();
        loop {
            if let Some((value, _)) = inner.touch(&key) {
                inner.counters.hits += 1;
                return Ok((value, true));
            }
            if inner.inflight.insert(key.clone()) {
                break;
            }
            drop(inner);
            abort()?;
            inner = self.lock();
            if inner.inflight.contains(&key) {
                let waited = self.released.wait_timeout(inner, WAIT_TICK);
                inner = waited.unwrap_or_else(PoisonError::into_inner).0;
            }
        }
        inner.counters.fills += 1;
        drop(inner);
        let claim = Claim(self, &key);
        let value = fill()?;
        let weight = value.weight();
        // Insert before the claim is released, so the woken waiters hit.
        let mut inner = self.lock();
        inner.counters.misses += 1;
        if inner.epoch == epoch {
            inner.insert(key.clone(), value.clone(), weight);
        }
        drop(inner);
        drop(claim);
        Ok((value, false))
    }

    /// Drop every entry derived from `model`; returns how many.
    pub fn invalidate_model(&self, model: &str) -> usize {
        self.invalidate_where(|v| v.deps().0.iter().any(|m| m == model))
    }

    /// Drop every entry derived from `table`; returns how many.
    pub fn invalidate_table(&self, table: &str) -> usize {
        self.invalidate_where(|v| v.deps().1.iter().any(|t| t == table))
    }

    /// Drop every entry; returns how many.
    pub fn clear(&self) -> usize {
        self.invalidate_where(|_| true)
    }

    fn invalidate_where(&self, stale: impl Fn(&V) -> bool) -> usize {
        let mut inner = self.lock();
        // Bump even when nothing matches: a running fill may be reading
        // the state this invalidation supersedes, and the bump is what
        // stops it from caching its value.
        inner.epoch += 1;
        let before = inner.map.len();
        let mut freed = 0;
        inner.map.retain(|_, e| {
            let drop_it = stale(&e.value);
            freed += if drop_it { e.weight } else { 0 };
            !drop_it
        });
        let dropped = before - inner.map.len();
        inner.weight -= freed;
        inner.counters.invalidations += dropped as u64;
        dropped
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Inner<K, V> {
    fn touch(&mut self, key: &K) -> Option<(V, usize)> {
        self.tick += 1;
        let entry = self.map.get_mut(key)?;
        entry.last_used = self.tick;
        Some((entry.value.clone(), entry.weight))
    }

    /// Insert `key`, which is claimed and so not resident.
    fn insert(&mut self, key: K, value: V, weight: usize) {
        let budget = self.budget;
        if budget > 0 && weight > budget {
            // It would evict everything and still not fit durably.
            self.counters.too_large += 1;
            return;
        }
        while self.map.len() >= self.capacity || (budget > 0 && self.weight + weight > budget) {
            let lru = self.map.iter().min_by_key(|(_, e)| e.last_used);
            let victim = lru.map(|(k, _)| k.clone());
            let Some(evicted) = victim.and_then(|k| self.map.remove(&k)) else {
                break;
            };
            self.weight -= evicted.weight;
            self.counters.evictions += 1;
        }
        self.tick += 1;
        self.weight += weight;
        let entry = Entry {
            value,
            weight,
            last_used: self.tick,
        };
        self.map.insert(key, entry);
    }
}
