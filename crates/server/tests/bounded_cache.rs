//! The shared cache under the plan and result caches: random operation
//! sequences checked step by step against a plain reference LRU, plus
//! the single-flight contracts that need threads — one fill under
//! contention, a panicking fill releasing its claim, and a waiter
//! honouring its abort while the leader fills (also through the plan
//! cache, whose waiters poll the request deadline).

use proptest::prelude::*;
use raven_data::{DataType, Schema};
use raven_ir::Plan;
use raven_opt::{OptimizationReport, OptimizerMode, RuleSet};
use raven_server::{BoundedCache, CacheCounters, CacheValue, PlanCache, PlanKey, PreparedQuery};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A cached value: which fill produced it, its weight, and one model
/// and one table it depends on.
#[derive(Clone, Debug)]
struct Val {
    id: usize,
    weight: usize,
    models: Vec<String>,
    tables: Vec<String>,
}

impl CacheValue for Val {
    fn weight(&self) -> usize {
        self.weight
    }

    fn deps(&self) -> (&[String], &[String]) {
        (&self.models, &self.tables)
    }
}

fn val(id: usize, weight: usize, dep: u8) -> Val {
    Val {
        id,
        weight,
        models: vec![format!("m{dep}")],
        tables: vec![format!("t{dep}")],
    }
}

const KEYS: u64 = 6;

/// The reference: entries in recency order, least recent first.
#[derive(Default)]
struct Reference {
    entries: Vec<(u64, Val)>,
    counters: CacheCounters,
}

impl Reference {
    fn touch(&mut self, key: u64) -> Option<Val> {
        let at = self.entries.iter().position(|(k, _)| *k == key)?;
        let entry = self.entries.remove(at);
        self.entries.push(entry);
        self.entries.last().map(|(_, v)| v.clone())
    }

    fn weight(&self) -> usize {
        self.entries.iter().map(|(_, v)| v.weight).sum()
    }

    fn insert(&mut self, key: u64, value: Val, capacity: usize, budget: usize) {
        if budget > 0 && value.weight > budget {
            self.counters.too_large += 1;
            return;
        }
        self.entries.retain(|(k, _)| *k != key);
        while self.entries.len() >= capacity
            || (budget > 0 && self.weight() + value.weight > budget)
        {
            self.entries.remove(0);
            self.counters.evictions += 1;
        }
        self.entries.push((key, value));
    }

    fn invalidate(&mut self, stale: impl Fn(&Val) -> bool) {
        let before = self.entries.len();
        self.entries.retain(|(_, v)| !stale(v));
        self.counters.invalidations += (before - self.entries.len()) as u64;
    }
}

#[derive(Debug)]
enum Outcome {
    Ok,
    Err,
    Panic,
}

/// No claim can be held by another thread in the single-threaded
/// sequences, so a fill call that has to wait is a leaked claim.
fn no_wait() -> Result<(), &'static str> {
    Err("waited on a leaked claim")
}

/// A fill of `key` ending in `outcome`; returns what the cache returned,
/// `None` for an error or a panic. `during` runs inside the fill, and
/// `stale_epoch` replaces the current epoch.
fn fill(
    cache: &BoundedCache<u64, Val>,
    key: u64,
    value: Val,
    outcome: Outcome,
    stale_epoch: Option<u64>,
    during: impl FnOnce(),
) -> Option<(Val, bool)> {
    let epoch = stale_epoch.unwrap_or_else(|| cache.epoch());
    let run = AssertUnwindSafe(|| {
        cache.get_or_fill(key, epoch, no_wait, || {
            during();
            match outcome {
                Outcome::Ok => Ok(value.clone()),
                Outcome::Err => Err("fill failed"),
                // Unwinds without the panic hook, so 2 000 cases stay quiet.
                Outcome::Panic => resume_unwind(Box::new("fill panicked")),
            }
        })
    });
    match catch_unwind(run) {
        Ok(Ok(got)) => Some(got),
        Ok(Err(e)) => {
            assert_eq!(e, "fill failed");
            None
        }
        Err(_) => None,
    }
}

/// One generated operation: `(kind, key, weight, dependency)`.
type Op = (u8, u64, usize, u8);

/// Run `ops` against a cache and the reference, asserting after every
/// operation that the bounds hold and that both agree on the entries,
/// the weight and every counter.
fn check_sequence(capacity: usize, budget: usize, ops: Vec<Op>) {
    let cache = BoundedCache::<u64, Val>::new(capacity, budget);
    let mut reference = Reference::default();
    let mut served = 0u64;
    for (id, (kind, key, weight, dep)) in ops.into_iter().enumerate() {
        let value = val(id, weight, dep);
        let (model, table) = (format!("m{dep}"), format!("t{dep}"));
        // Fills that succeed, fail or panic; under a stale epoch or
        // invalidated mid-fill; heavier than any budget.
        let (outcome, stale, bumped_during, heavy) = match kind {
            0 | 1 => (Outcome::Ok, false, false, false),
            2 => (Outcome::Err, false, false, false),
            3 => (Outcome::Panic, false, false, false),
            4 => (Outcome::Ok, true, false, false),
            5 => (Outcome::Ok, false, true, false),
            6 => (Outcome::Ok, false, false, true),
            _ => (Outcome::Ok, false, false, false),
        };
        let invalidations = reference.counters.invalidations;
        let dropped = match kind {
            0..=6 => {
                let value = Val {
                    weight: if heavy { budget + 1 + weight } else { weight },
                    ..value
                };
                let stale_epoch = stale.then(|| {
                    let epoch = cache.epoch();
                    cache.invalidate_model("ghost");
                    epoch
                });
                let ok = matches!(outcome, Outcome::Ok);
                let during = || {
                    if bumped_during {
                        cache.invalidate_table("ghost");
                    }
                };
                let got = fill(&cache, key, value.clone(), outcome, stale_epoch, during);
                if let Some(hit) = reference.touch(key) {
                    let (v, was_hit) = got.expect("a hit is served");
                    assert!(was_hit);
                    assert_eq!(v.id, hit.id);
                    reference.counters.hits += 1;
                    served += 1;
                } else {
                    reference.counters.fills += 1;
                    assert_eq!(
                        got.as_ref().map(|(v, hit)| (v.id, *hit)),
                        ok.then_some((id, false))
                    );
                    if ok {
                        served += 1;
                        reference.counters.misses += 1;
                        if stale || bumped_during {
                            assert!(!cache.contains(&key), "filled across an epoch bump");
                        } else {
                            reference.insert(key, value, capacity, budget);
                        }
                    }
                }
                0
            }
            7 => {
                let got = cache.peek(&key).map(|(v, w)| (v.id, w));
                let want = reference.touch(key).map(|v| (v.id, v.weight));
                assert_eq!(got, want);
                0
            }
            8 => {
                cache.note_hit();
                reference.counters.hits += 1;
                served += 1;
                0
            }
            9 => {
                reference.invalidate(|v| v.models.contains(&model));
                cache.invalidate_model(&model)
            }
            10 => {
                reference.invalidate(|v| v.tables.contains(&table));
                cache.invalidate_table(&table)
            }
            _ => {
                reference.invalidate(|_| true);
                cache.clear()
            }
        };
        let context = format!("op {id} {kind}, capacity {capacity}, budget {budget}");
        assert_eq!(
            dropped as u64,
            reference.counters.invalidations - invalidations,
            "{context}"
        );
        assert!(cache.len() <= capacity, "{context}");
        assert!(budget == 0 || cache.weight() <= budget, "{context}");
        assert_eq!(cache.weight(), reference.weight(), "{context}");
        assert_eq!(cache.len(), reference.entries.len(), "{context}");
        for k in 0..KEYS {
            let resident = reference.entries.iter().any(|(r, _)| *r == k);
            assert_eq!(cache.contains(&k), resident, "key {k}, {context}");
        }
        let counters = cache.counters();
        assert_eq!(counters, reference.counters, "{context}");
        assert_eq!(counters.hits + counters.misses, served, "{context}");
    }
}

proptest! {
    #[test]
    fn random_sequences_match_a_reference_lru(
        capacity in 1..5usize,
        budget in prop_oneof![Just(0usize), Just(20), Just(40)],
        ops in proptest::collection::vec((0..12u8, 0..KEYS, 0..16usize, 0..3u8), 1..80),
    ) {
        check_sequence(capacity, budget, ops);
    }
}

#[test]
fn single_flight_fills_once_under_contention() {
    let cache = BoundedCache::<u64, Val>::new(8, 0);
    let start = Barrier::new(8);
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                start.wait();
                let slow_fill = || {
                    std::thread::sleep(Duration::from_millis(20));
                    Ok::<_, ()>(val(7, 1, 0))
                };
                let (v, _) = cache.get_or_fill(7, 0, || Ok(()), slow_fill).unwrap();
                assert_eq!(v.id, 7);
            });
        }
    });
    let c = cache.counters();
    assert_eq!(c.fills, 1, "filled exactly once");
    // 8 served requests = 1 miss (the filling leader) + 7 hits.
    assert_eq!((c.hits, c.misses), (7, 1), "{c:?}");
    assert_eq!(cache.len(), 1);
}

#[test]
fn panicking_fill_releases_the_claim() {
    let cache = BoundedCache::<u64, Val>::new(4, 0);
    let filling = Barrier::new(2);
    std::thread::scope(|s| {
        let leader = s.spawn(|| {
            cache.get_or_fill::<()>(
                9,
                0,
                || Ok(()),
                || {
                    filling.wait();
                    std::thread::sleep(Duration::from_millis(50));
                    panic!("bad fill");
                },
            )
        });
        filling.wait();
        // Waits on the panicking leader's claim, then claims and fills
        // itself instead of waiting forever.
        let (v, hit) = cache
            .get_or_fill::<()>(9, 0, || Ok(()), || Ok(val(2, 1, 0)))
            .unwrap();
        assert!(!hit);
        assert_eq!(v.id, 2);
        assert!(leader.join().is_err(), "the leader's fill panicked");
    });
    let c = cache.counters();
    assert_eq!((c.fills, c.hits, c.misses), (2, 0, 1), "{c:?}");
    assert!(cache.contains(&9));
}

/// `lead` fills one key and calls its `hold` argument inside the fill,
/// which holds the claim for 300 ms; `wait` then asks for the same key
/// with an abort check whose deadline is 40 ms away and returns the
/// error it got. It must fail at that deadline, not when the leader
/// finishes.
fn assert_waiter_aborts(
    lead: impl FnOnce(&dyn Fn()) + Send,
    wait: impl FnOnce(&dyn Fn() -> Result<(), String>) -> String,
) {
    let started = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            lead(&|| {
                started.wait();
                std::thread::sleep(Duration::from_millis(300));
            })
        });
        started.wait();
        let begin = Instant::now();
        let deadline = begin + Duration::from_millis(40);
        let abort = || match Instant::now() >= deadline {
            true => Err("deadline exceeded".to_string()),
            false => Ok(()),
        };
        assert_eq!(wait(&abort), "deadline exceeded");
        assert!(
            begin.elapsed() < Duration::from_millis(200),
            "waiter must abort promptly, waited {:?}",
            begin.elapsed()
        );
    });
}

#[test]
fn waiter_abort_is_honored_while_leader_fills() {
    let cache = BoundedCache::<u64, Val>::new(8, 0);
    assert_waiter_aborts(
        |hold| {
            let fill = || {
                hold();
                Ok(val(5, 1, 0))
            };
            cache.get_or_fill::<String>(5, 0, || Ok(()), fill).unwrap();
        },
        |abort| {
            let fill = || Ok(val(6, 1, 0));
            cache.get_or_fill(5, 0, abort, fill).unwrap_err()
        },
    );
    // The abandoned request counted neither a hit nor a miss.
    let c = cache.counters();
    assert_eq!((c.hits, c.misses, c.fills), (0, 1, 1), "{c:?}");
}

#[test]
fn plan_cache_waiter_honors_its_deadline() {
    let cache = PlanCache::new(8, 0);
    let key = PlanKey {
        tenant: "default".into(),
        sql: "SELECT x FROM t".into(),
        rules: RuleSet::all(),
        mode: OptimizerMode::Heuristic,
    };
    let prepared = || {
        let plan = Plan::Scan {
            table: "t".into(),
            schema: Schema::from_pairs(&[("x", DataType::Float64)]).into_shared(),
        };
        PreparedQuery::new(
            "SELECT x FROM t",
            plan,
            OptimizationReport::default(),
            Duration::ZERO,
        )
    };
    assert_waiter_aborts(
        |hold| {
            let prepare = || {
                hold();
                Ok(prepared())
            };
            cache
                .get_or_prepare::<String>(key.clone(), || Ok(()), prepare)
                .unwrap();
        },
        |abort| {
            let prepare = || Ok(prepared());
            cache
                .get_or_prepare(key.clone(), abort, prepare)
                .unwrap_err()
        },
    );
    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.preparations),
        (0, 1, 1),
        "{stats}"
    );
}
