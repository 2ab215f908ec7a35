//! Result-cache equivalence suite: a server with the deterministic
//! result cache enabled must be **observationally indistinguishable**
//! from one without it — byte-identical tables for every query, across
//! random constants, repeats, and interleaved table/model mutations.
//!
//! The method is lockstep differential testing: two `ServerState`s built
//! identically (same data, same model, same serial engines so execution
//! itself is deterministic) differ in exactly one knob,
//! `result_cache_capacity`. A randomized workload of queries and
//! mutations is applied to both, and every reply is compared with full
//! `Table` equality (schema, column types, values, row order — not a
//! sorted or quantized projection). Any stale, torn, or misordered
//! cached result fails the run.

use proptest::prelude::*;
use raven_datagen::{hospital, train};
use raven_server::{ServerConfig, ServerState};

const SEED: u64 = 42;

fn build_server(result_cache_capacity: usize) -> ServerState {
    let config = ServerConfig {
        result_cache_capacity,
        ..ServerConfig::for_tests()
    };
    let server = ServerState::new(config);
    let data = hospital::generate(300, SEED);
    data.register(server.catalog()).unwrap();
    let model = train::hospital_tree(&data, 6).unwrap();
    server.store_model("duration_of_stay", model).unwrap();
    server
}

/// One step of the lockstep workload.
#[derive(Clone, Debug)]
enum Op {
    /// An inference query over the 3-way join, parameterized by (age
    /// threshold, predicted-stay threshold).
    Predict(i64, f64),
    /// A pure relational query parameterized by a bp threshold.
    Relational(f64),
    /// An aggregate whose result shape differs from the others.
    Aggregate,
    /// Swap the model for one trained at a different depth.
    SwapModel(usize),
    /// Replace `blood_tests` with a regenerated (different-seed) table.
    SwapTable(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Narrow value pools on purpose: repeats must actually happen
        // for the cache to be exercised, not just populated.
        (20i64..26, 0..4usize).prop_map(|(age, s)| Op::Predict(age, [2.0, 4.0, 6.0, 8.0][s])),
        (0..3usize).prop_map(|i| Op::Relational([120.0, 140.0, 160.0][i])),
        Just(Op::Aggregate),
        (4..7usize).prop_map(Op::SwapModel),
        (1u64..5).prop_map(Op::SwapTable),
    ]
}

fn sql_for(op: &Op) -> Option<String> {
    match op {
        Op::Predict(age, stay) => Some(format!(
            "WITH data AS (\
               SELECT * FROM patient_info AS pi \
               JOIN blood_tests AS bt ON pi.id = bt.id \
               JOIN prenatal_tests AS pt ON bt.id = pt.id)\
             SELECT d.id, p.stay \
             FROM PREDICT(MODEL = 'duration_of_stay', DATA = data AS d) \
             WITH (stay FLOAT) AS p \
             WHERE d.age > {age} AND p.stay > {stay}"
        )),
        Op::Relational(bp) => Some(format!("SELECT id, bp FROM blood_tests WHERE bp > {bp}")),
        Op::Aggregate => Some(
            "SELECT pregnant, COUNT(*) AS n, AVG(age) AS mean_age \
             FROM patient_info GROUP BY pregnant"
                .to_string(),
        ),
        Op::SwapModel(_) | Op::SwapTable(_) => None,
    }
}

/// Apply one op to a server; queries return their table for comparison.
fn apply(server: &ServerState, op: &Op) -> Option<raven_data::Table> {
    match op {
        Op::SwapModel(depth) => {
            let data = hospital::generate(300, SEED);
            let model = train::hospital_tree(&data, *depth).unwrap();
            server.store_model("duration_of_stay", model).unwrap();
            None
        }
        Op::SwapTable(seed) => {
            let data = hospital::generate(300, SEED + seed);
            server.replace_table("blood_tests", data.blood_tests.clone());
            None
        }
        query => {
            let sql = sql_for(query).unwrap();
            let result = server.execute(&sql).unwrap();
            Some(result.table.as_ref().clone())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The acceptance property: for every generated workload —
    /// queries, params, and interleaved table/model mutations — the
    /// cache-on server's replies are byte-identical to the cache-off
    /// server's, including immediately after invalidations.
    #[test]
    fn cached_results_are_byte_identical_to_uncached(
        ops in proptest::collection::vec(op_strategy(), 20..40),
    ) {
        let cached = build_server(256);
        let uncached = build_server(0);
        for (step, op) in ops.iter().enumerate() {
            let a = apply(&cached, op);
            let b = apply(&uncached, op);
            prop_assert_eq!(
                &a, &b,
                "step {} diverged on {:?} (cache-on vs cache-off)", step, op
            );
        }
        // The differential run only proves something if the cached
        // server actually served from the cache.
        let stats = cached.default_tenant().result_cache_stats();
        prop_assert_eq!(uncached.default_tenant().result_cache_stats().executions, 0);
        prop_assert!(
            stats.executions > 0,
            "workload never executed anything: {}", stats
        );
    }
}

/// The hot-path acceptance number: a pure repeat workload (one query
/// shape, few constants, many repetitions) must hit ≥ 90% once warm, and
/// replay the exact table each time.
#[test]
fn repeat_workload_hits_at_least_ninety_percent() {
    let server = build_server(256);
    let constants = [20i64, 30, 40, 50];
    const ROUNDS: usize = 25;
    for round in 0..ROUNDS {
        for age in constants {
            let sql = format!(
                "WITH data AS (\
                   SELECT * FROM patient_info AS pi \
                   JOIN blood_tests AS bt ON pi.id = bt.id \
                   JOIN prenatal_tests AS pt ON bt.id = pt.id)\
                 SELECT d.id, p.stay \
                 FROM PREDICT(MODEL = 'duration_of_stay', DATA = data AS d) \
                 WITH (stay FLOAT) AS p WHERE d.age > {age}"
            );
            let result = server.execute(&sql).unwrap();
            assert_eq!(
                result.result_cache_hit,
                round > 0,
                "round {round}, age {age}"
            );
        }
    }
    let stats = server.default_tenant().result_cache_stats();
    assert_eq!(stats.executions, constants.len() as u64);
    assert_eq!(stats.hits, (constants.len() * (ROUNDS - 1)) as u64);
    assert!(
        stats.hit_rate() >= 0.9,
        "repeat workload must hit ≥ 90%: {stats}"
    );
    // One preparation too: the template plan cache composes underneath.
    assert_eq!(server.default_tenant().plan_cache_stats().preparations, 1);
}

/// A mutation between two identical queries must be visible immediately:
/// the canonical stale-read scenario, asserted on values rather than
/// only on counters.
#[test]
fn invalidation_is_immediately_visible() {
    let cached = build_server(256);
    let uncached = build_server(0);
    let op = Op::Predict(22, 4.0);
    // Warm the cache and verify agreement.
    assert_eq!(apply(&cached, &op), apply(&uncached, &op));
    assert_eq!(apply(&cached, &op), apply(&uncached, &op));
    // Mutate: the very next repeat must re-execute and still agree.
    let swap = Op::SwapModel(4);
    apply(&cached, &swap);
    apply(&uncached, &swap);
    assert_eq!(apply(&cached, &op), apply(&uncached, &op));
    // Same for a table replacement.
    let swap = Op::SwapTable(3);
    apply(&cached, &swap);
    apply(&uncached, &swap);
    assert_eq!(apply(&cached, &op), apply(&uncached, &op));
    let stats = cached.default_tenant().result_cache_stats();
    assert!(
        stats.invalidations > 0,
        "mutations must invalidate: {stats}"
    );
    assert!(
        stats.hits > 0,
        "repeats between mutations must hit: {stats}"
    );
}
