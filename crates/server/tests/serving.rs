//! Integration tests: one shared `ServerState` serving many concurrent
//! client threads over the paper's hospital workload — the acceptance
//! scenario for the serving layer (optimize once, execute many).

use raven_datagen::{hospital, train};
use raven_server::{BatchConfig, ServerConfig, ServerError, ServerState};
use std::sync::Arc;
use std::time::Duration;

const HOSPITAL_SQL: &str = "\
    WITH data AS (\
      SELECT * FROM patient_info AS pi \
      JOIN blood_tests AS bt ON pi.id = bt.id \
      JOIN prenatal_tests AS pt ON bt.id = pt.id)\
    SELECT d.id, p.length_of_stay \
    FROM PREDICT(MODEL = 'duration_of_stay', DATA = data AS d) \
    WITH (length_of_stay FLOAT) AS p \
    WHERE d.pregnant = 1 AND p.length_of_stay > 6";

fn hospital_server(rows: usize) -> ServerState {
    let server = ServerState::new(ServerConfig::for_tests());
    let data = hospital::generate(rows, 42);
    data.register(server.catalog()).unwrap();
    let model = train::hospital_tree(&data, 6).unwrap();
    server.store_model("duration_of_stay", model).unwrap();
    server
}

/// ≥ 4 concurrent client threads through one shared `ServerState`:
/// every thread gets identical results, and the plan cache reports that
/// parse → bind → optimize ran exactly once for N executions.
#[test]
fn concurrent_clients_share_one_prepared_plan() {
    const CLIENTS: usize = 8;
    const QUERIES_PER_CLIENT: usize = 5;

    let server = Arc::new(hospital_server(800));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let server = server.clone();
            std::thread::spawn(move || {
                let mut row_counts = Vec::new();
                for _ in 0..QUERIES_PER_CLIENT {
                    let result = server.execute(HOSPITAL_SQL).unwrap();
                    row_counts.push(result.table.num_rows());
                }
                row_counts
            })
        })
        .collect();

    let mut all_counts = Vec::new();
    for h in handles {
        all_counts.extend(h.join().unwrap());
    }
    assert_eq!(all_counts.len(), CLIENTS * QUERIES_PER_CLIENT);
    assert!(all_counts[0] > 0, "query must return rows");
    assert!(
        all_counts.iter().all(|&n| n == all_counts[0]),
        "every client sees identical results: {all_counts:?}"
    );

    let cache = server.default_tenant().plan_cache_stats();
    assert_eq!(cache.preparations, 1, "optimization ran exactly once");
    // Every client can miss at most once (its very first lookup, while
    // the single preparation is in flight); everything else hits.
    assert!(
        cache.hits >= (CLIENTS * (QUERIES_PER_CLIENT - 1)) as u64,
        "cache stats: {cache}"
    );

    let snap = server.stats();
    assert_eq!(snap.queries, (CLIENTS * QUERIES_PER_CLIENT) as u64);
    assert_eq!(snap.errors, 0);
    assert!(snap.latency.p99 >= snap.latency.p50);
}

/// Re-executing the same SQL on one thread reports a cache hit and skips
/// re-optimization (the single-session acceptance check).
#[test]
fn repeat_execution_reports_cache_hit() {
    let server = hospital_server(400);
    let first = server.execute(HOSPITAL_SQL).unwrap();
    assert!(!first.cache_hit);
    assert!(first.prepared.prepare_time > Duration::ZERO);
    let second = server.execute(HOSPITAL_SQL).unwrap();
    assert!(second.cache_hit, "second execution must reuse the plan");
    assert!(Arc::ptr_eq(&first.prepared, &second.prepared));
    assert_eq!(first.table.num_rows(), second.table.num_rows());
}

/// A mixed workload across distinct queries and clients: the cache holds
/// one plan per distinct statement, and results stay consistent while a
/// writer hot-swaps the model mid-flight.
#[test]
fn stress_mixed_workload_with_model_updates() {
    const CLIENTS: usize = 6;
    const ROUNDS: usize = 10;

    let server = Arc::new(hospital_server(500));
    let queries: Vec<String> = vec![
        HOSPITAL_SQL.to_string(),
        "SELECT pregnant, COUNT(*) AS n FROM patient_info GROUP BY pregnant".into(),
        "SELECT d.id, p.s FROM PREDICT(MODEL = 'duration_of_stay', DATA = \
         (SELECT * FROM patient_info AS pi JOIN blood_tests AS bt ON pi.id = bt.id \
          JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d) \
         WITH (s FLOAT) AS p ORDER BY s DESC LIMIT 10"
            .into(),
    ];

    let writer = {
        let server = server.clone();
        std::thread::spawn(move || {
            // Two transactional model updates racing the readers.
            for depth in [4usize, 5] {
                std::thread::sleep(Duration::from_millis(5));
                let data = hospital::generate(500, 42);
                let model = train::hospital_tree(&data, depth).unwrap();
                server.store_model("duration_of_stay", model).unwrap();
            }
        })
    };

    let readers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let server = server.clone();
            let queries = queries.clone();
            std::thread::spawn(move || {
                for r in 0..ROUNDS {
                    let sql = &queries[(c + r) % queries.len()];
                    let result = server.execute(sql).unwrap();
                    assert!(result.table.num_rows() > 0);
                }
            })
        })
        .collect();
    for h in readers {
        h.join().unwrap();
    }
    writer.join().unwrap();

    let snap = server.stats();
    assert_eq!(snap.queries, (CLIENTS * ROUNDS) as u64);
    assert_eq!(snap.errors, 0);
    // Baseline: 3 distinct statements + 2 model updates invalidating the
    // 2 PREDICT statements = 7 optimizer passes. Two effects can add a
    // few more: a preparation that straddles an invalidation is served
    // but deliberately not cached (the next execution prepares again),
    // and counted lookups can exceed the 60 executions (a client blocked
    // on single-flight counts a miss, then a hit once the plan lands).
    // The invariant worth asserting is that re-optimization stays rare.
    assert!(
        snap.plan_cache.preparations <= 7 + 2 * 2,
        "too much re-optimization: {}",
        snap.plan_cache
    );
    assert!(
        snap.plan_cache.hits >= (CLIENTS * ROUNDS) as u64 * 3 / 4,
        "cache absorbed too little: {}",
        snap.plan_cache
    );
}

/// Point-scoring through the micro-batcher from many threads agrees with
/// a served SQL PREDICT over the same rows.
#[test]
fn micro_batched_point_scores_agree_with_sql() {
    let mut config = ServerConfig::for_tests();
    config.batch = BatchConfig::fixed(32, Duration::from_millis(20));
    let server = Arc::new(ServerState::new(config));
    let data = hospital::generate(64, 7);
    data.register(server.catalog()).unwrap();
    let model = train::hospital_tree(&data, 5).unwrap();
    // Raw feature rows in step order, encoded the way the pipeline's own
    // transforms encode raw inputs (categoricals become indices).
    let joined = data.joined_batch();
    let columns: Vec<Vec<f64>> = model
        .steps()
        .iter()
        .map(|step| {
            let col = joined.column_by_name(&step.column).unwrap();
            step.transform.encode_raw(col).unwrap()
        })
        .collect();
    server.store_model("duration_of_stay", model).unwrap();

    // SQL-side reference scores over the joined rows.
    let sql_result = server
        .execute(
            "SELECT d.id, p.s FROM PREDICT(MODEL = 'duration_of_stay', DATA = \
             (SELECT * FROM patient_info AS pi JOIN blood_tests AS bt ON pi.id = bt.id \
              JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d) WITH (s FLOAT) AS p",
        )
        .unwrap();
    let ids = sql_result
        .table
        .column_by_name("d.id")
        .unwrap()
        .i64_values()
        .unwrap()
        .to_vec();
    let reference = sql_result
        .table
        .column_by_name("p.s")
        .unwrap()
        .f64_values()
        .unwrap()
        .to_vec();

    let handles: Vec<_> = ids
        .iter()
        .map(|&id| {
            let server = server.clone();
            let row: Vec<f64> = columns.iter().map(|c| c[id as usize]).collect();
            std::thread::spawn(move || {
                let tenant = server.default_tenant();
                tenant.score("duration_of_stay", row, None).unwrap()
            })
        })
        .collect();
    for (h, &expected) in handles.into_iter().zip(&reference) {
        let got = h.join().unwrap();
        assert!(
            (got - expected).abs() < 1e-9,
            "point score {got} != SQL score {expected}"
        );
    }

    let stats = server.default_tenant().batcher_stats();
    assert_eq!(stats.requests, ids.len() as u64);
    assert!(
        stats.batches < stats.requests,
        "requests must coalesce: {} batches for {} requests",
        stats.batches,
        stats.requests
    );
}

/// Server errors surface per-request without poisoning shared state.
#[test]
fn errors_do_not_poison_the_server() {
    let server = Arc::new(hospital_server(500));
    let bad: Vec<_> = (0..4)
        .map(|_| {
            let server = server.clone();
            std::thread::spawn(move || {
                assert!(matches!(
                    server.execute("SELECT * FROM no_such_table"),
                    Err(ServerError::Sql(_))
                ));
            })
        })
        .collect();
    for h in bad {
        h.join().unwrap();
    }
    // Healthy traffic still flows.
    let result = server.execute(HOSPITAL_SQL).unwrap();
    assert!(result.table.num_rows() > 0);
    assert_eq!(server.stats().errors, 4);
}
