//! Result-cache stress test over the wire: 8 TCP clients hammer one hot
//! deterministic query while a writer swaps the model mid-stream.
//!
//! The freshness assertion is linearizability-shaped: the writer raises
//! a flag only *after* `store_model` has returned, and any request a
//! client **starts after observing that flag** must see the new model's
//! rows — a stale memoized result served past the invalidation fails
//! loudly. Per-connection monotonicity is asserted too (requests on one
//! connection are sequential, so once a client has seen v2 it can never
//! see v1 again). Afterwards the wire-visible counters must reconcile:
//! every served request was either a result-cache hit or a miss.

use raven_data::{Column, DataType, Schema, Table};
use raven_ml::featurize::Transform;
use raven_ml::{Estimator, FeatureStep, LinearKind, LinearModel, Pipeline};
use raven_server::{NetConfig, RavenClient, RavenServer, ServerConfig, ServerState};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// v1 scores identity (50 of 100 rows pass the filter); v2 scores a
/// constant 100 (all rows pass) — row counts distinguish the versions.
const SQL: &str = "SELECT p.s FROM PREDICT(MODEL = 'm', DATA = t AS d) \
                   WITH (s FLOAT) AS p WHERE p.s > 49";
const V1_ROWS: usize = 50;
const V2_ROWS: usize = 100;

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

#[test]
fn hot_query_with_mid_stream_model_swap_never_serves_stale() {
    const CLIENTS: usize = 8;
    const QUERIES_PER_CLIENT: usize = 30;

    let state = Arc::new(ServerState::new(ServerConfig::for_tests()));
    let table = Table::try_new(
        Schema::from_pairs(&[("x0", DataType::Float64)]).into_shared(),
        vec![Column::Float64((0..100).map(|i| i as f64).collect())],
    )
    .unwrap();
    state.catalog().register("t", table).unwrap();
    state.store_model("m", linear(vec![1.0], 0.0)).unwrap();

    let server = RavenServer::bind(
        state.clone(),
        NetConfig {
            addr: "127.0.0.1:0".into(),
            workers: CLIENTS + 2,
            max_connections: 64,
            poll_interval: Duration::from_millis(20),
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let swapped = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));

    let writer = {
        let state = state.clone();
        let swapped = swapped.clone();
        let barrier = barrier.clone();
        std::thread::spawn(move || {
            barrier.wait();
            // Let the readers get the hot entry warm, then swap.
            std::thread::sleep(Duration::from_millis(15));
            state.store_model("m", linear(vec![0.0], 100.0)).unwrap();
            // Only now may readers rely on v2: the store (and its
            // invalidations) has completed.
            swapped.store(true, Ordering::SeqCst);
            // The writer's own post-swap read must be fresh too.
            let check = state.execute(SQL).unwrap();
            assert_eq!(
                check.table.num_rows(),
                V2_ROWS,
                "writer read its own write stale"
            );
        })
    };

    let readers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let swapped = swapped.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let mut client = RavenClient::connect(addr).unwrap();
                barrier.wait();
                let mut seen_v2 = false;
                let mut sent = 0u64;
                // Run at least the quota, and always past the swap —
                // result-cache hits are microseconds, so a fixed count
                // could complete before the writer even wakes.
                while !seen_v2 || sent < QUERIES_PER_CLIENT as u64 {
                    // Order matters: sample the flag BEFORE sending. If
                    // the swap completed before this request started,
                    // v1 rows would be a stale read.
                    let swap_completed_before_send = swapped.load(Ordering::SeqCst);
                    let rows = client.query(SQL).unwrap().table.num_rows();
                    sent += 1;
                    assert!(
                        rows == V1_ROWS || rows == V2_ROWS,
                        "request {sent} saw {rows} rows"
                    );
                    if swap_completed_before_send {
                        assert_eq!(
                            rows, V2_ROWS,
                            "request {sent} started after the swap but saw v1 \
                             (stale cached result)"
                        );
                    }
                    if seen_v2 {
                        assert_eq!(
                            rows, V2_ROWS,
                            "request {sent} regressed to v1 after this connection saw v2"
                        );
                    }
                    seen_v2 |= rows == V2_ROWS;
                }
                sent
            })
        })
        .collect();

    let mut total = 0u64;
    for h in readers {
        total += h.join().expect("reader must not fail or deadlock");
    }
    writer.join().expect("writer must not fail");
    total += 1; // the writer's own post-swap check

    // Counter reconciliation: every served request went through the
    // result cache — a hit or a miss, nothing unaccounted.
    let mut observer = RavenClient::connect(addr).unwrap();
    let stats = observer.stats().unwrap();
    assert_eq!(stats.queries, total);
    assert_eq!(stats.errors, 0);
    assert_eq!(
        stats.result_hits + stats.result_misses,
        total,
        "hits + misses must equal requests: {stats:?}"
    );
    assert!(
        stats.result_hits > 0,
        "a hot repeated query must hit: {stats:?}"
    );
    assert!(
        stats.result_invalidations >= 1,
        "the swap must drop the memoized result: {stats:?}"
    );
    assert!(stats.result_hit_rate() > 0.0);
    server.shutdown();

    // In-process cross-check: the hot path really did skip execution —
    // far fewer executions than requests.
    let cache = state.default_tenant().result_cache_stats();
    assert!(
        cache.executions < total / 2,
        "single-flight + memoization should absorb most executions: {cache}"
    );
    assert_eq!(cache.uncacheable, 0, "this plan is deterministic: {cache}");
}
