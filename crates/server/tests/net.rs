//! End-to-end tests for the framed-TCP front end: a real listener on an
//! ephemeral port, driven by many client threads — the serving test
//! harness this PR exists for.
//!
//! Covered here: the N×M concurrency stress (results + `Stats` totals),
//! the admission-control acceptance scenario (execution limit 1 under
//! saturating load → typed `Overloaded` while in-flight work completes),
//! per-request deadlines, plan-cache invalidation observed over the
//! wire, connection-level backpressure, and wire-initiated shutdown.

use raven_data::{Column, DataType, Schema, Table};
use raven_datagen::{hospital, train};
use raven_ml::featurize::Transform;
use raven_ml::{Estimator, FeatureStep, LinearKind, LinearModel, Pipeline};
use raven_server::{
    AdmissionConfig, NetConfig, RavenClient, RavenServer, ServerConfig, ServerError, ServerState,
};
use std::sync::{Arc, Barrier};
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

fn hospital_state(rows: usize, config: ServerConfig) -> Arc<ServerState> {
    let state = Arc::new(ServerState::new(config));
    let data = hospital::generate(rows, 42);
    data.register(state.catalog()).unwrap();
    let model = train::hospital_tree(&data, 6).unwrap();
    state.store_model("duration_of_stay", model).unwrap();
    state
}

fn spawn(state: Arc<ServerState>, workers: usize, max_connections: usize) -> RavenServer {
    RavenServer::bind(
        state,
        NetConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            max_connections,
            poll_interval: Duration::from_millis(20),
            ..NetConfig::default()
        },
    )
    .expect("bind ephemeral listener")
}

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

/// Concurrency stress: N client threads × M requests against a live
/// listener — no deadlocks, per-request results all agree, and the
/// `Stats` frame's totals equal the requests sent.
#[test]
fn stress_many_clients_over_tcp() {
    const CLIENTS: usize = 8;
    const QUERIES_PER_CLIENT: usize = 10;

    // workers > CLIENTS: the post-run stats observer needs a free slot
    // even if a client handler hasn't noticed its peer's close yet.
    let server = spawn(
        hospital_state(500, ServerConfig::for_tests()),
        CLIENTS + 2,
        64,
    );
    let addr = server.local_addr();
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let mut client = RavenClient::connect(addr).unwrap();
                barrier.wait();
                let mut counts = Vec::new();
                for _ in 0..QUERIES_PER_CLIENT {
                    let reply = client.query(HOSPITAL_SQL).unwrap();
                    counts.push(reply.table.num_rows());
                }
                counts
            })
        })
        .collect();
    let mut all = Vec::new();
    for h in handles {
        all.extend(h.join().expect("client thread must not deadlock"));
    }
    assert_eq!(all.len(), CLIENTS * QUERIES_PER_CLIENT);
    assert!(all[0] > 0, "prediction query must return rows");
    assert!(
        all.iter().all(|&n| n == all[0]),
        "every request sees identical results: {all:?}"
    );

    let mut observer = RavenClient::connect(addr).unwrap();
    let stats = observer.stats().unwrap();
    assert_eq!(
        stats.queries,
        (CLIENTS * QUERIES_PER_CLIENT) as u64,
        "Stats totals must equal requests sent"
    );
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.admitted, stats.queries);
    assert_eq!(stats.preparations, 1, "one optimizer pass for all clients");
    assert!(stats.plan_hits >= (CLIENTS * (QUERIES_PER_CLIENT - 1)) as u64);
    server.shutdown();
}

/// The acceptance scenario: execution limit 1, no waiting room, 8 client
/// threads of saturating load. At least one request is rejected with a
/// typed `Overloaded` frame; everything admitted completes correctly.
#[test]
fn admission_control_rejects_overload_with_typed_frames() {
    const CLIENTS: usize = 8;
    const QUERIES_PER_CLIENT: usize = 6;

    let mut config = ServerConfig::for_tests();
    config.admission = AdmissionConfig::strict(1);
    // Result caching off: a warm repeat served from the result cache
    // holds its execution permit for microseconds, and on a fast release
    // build 48 such requests can serialize without ever overlapping —
    // no overload, nothing to test. Every request must really execute.
    config.result_cache_capacity = 0;
    let server = spawn(hospital_state(2_000, config), CLIENTS + 2, 64);
    let addr = server.local_addr();
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let mut client = RavenClient::connect(addr).unwrap();
                barrier.wait();
                let mut served = Vec::new();
                let mut overloaded = 0usize;
                for _ in 0..QUERIES_PER_CLIENT {
                    match client.query(HOSPITAL_SQL) {
                        Ok(reply) => served.push(reply.table.num_rows()),
                        Err(ServerError::Overloaded(_)) => overloaded += 1,
                        Err(other) => panic!("unexpected failure under load: {other}"),
                    }
                }
                (served, overloaded)
            })
        })
        .collect();
    let mut served = Vec::new();
    let mut overloaded = 0usize;
    for h in handles {
        let (s, o) = h.join().expect("client thread must not deadlock");
        served.extend(s);
        overloaded += o;
    }
    assert!(
        !served.is_empty(),
        "admitted requests must complete under overload"
    );
    assert!(
        overloaded > 0,
        "a saturating load against limit 1 must see a typed Overloaded response"
    );
    assert!(
        served.iter().all(|&n| n == served[0] && n > 0),
        "in-flight requests complete correctly while others are rejected: {served:?}"
    );

    let mut observer = RavenClient::connect(addr).unwrap();
    let stats = observer.stats().unwrap();
    assert_eq!(stats.queries, served.len() as u64);
    assert_eq!(stats.rejected_overloaded, overloaded as u64);
    assert_eq!(
        stats.admitted + stats.rejected_overloaded,
        (CLIENTS * QUERIES_PER_CLIENT) as u64
    );
    server.shutdown();
}

/// Per-request deadlines reject with a typed frame — both an
/// already-expired deadline and one generous enough to succeed.
#[test]
fn deadlines_are_enforced_over_the_wire() {
    let server = spawn(hospital_state(500, ServerConfig::for_tests()), 2, 8);
    let addr = server.local_addr();
    let mut client = RavenClient::connect(addr).unwrap();
    let err = client
        .query_with_deadline(HOSPITAL_SQL, Some(Duration::from_micros(1)))
        .unwrap_err();
    assert!(
        matches!(err, ServerError::DeadlineExceeded(_)),
        "expired deadline must be typed, got: {err}"
    );
    let ok = client
        .query_with_deadline(HOSPITAL_SQL, Some(Duration::from_secs(60)))
        .unwrap();
    assert!(ok.table.num_rows() > 0);
    // The expiry is typed either way it fires: rejected at admission
    // (rejected_deadline) or cancelled mid-execution (a query error).
    let stats = client.stats().unwrap();
    assert_eq!(stats.rejected_deadline + stats.errors, 1);
    server.shutdown();
}

/// Plan-cache invalidation observed over the wire: re-register the model
/// mid-stream and the very next `Query` must reflect the new version —
/// no stale cached plan served.
#[test]
fn model_swap_mid_stream_is_visible_to_the_next_query() {
    let state = Arc::new(ServerState::new(ServerConfig::for_tests()));
    let table = Table::try_new(
        Schema::from_pairs(&[("x0", DataType::Float64)]).into_shared(),
        vec![Column::Float64((0..100).map(|i| i as f64).collect())],
    )
    .unwrap();
    state.catalog().register("t", table).unwrap();
    state.store_model("m", linear(vec![1.0], 0.0)).unwrap();
    let sql = "SELECT p.s FROM PREDICT(MODEL = 'm', DATA = t AS d) \
               WITH (s FLOAT) AS p WHERE p.s > 49";

    let server = spawn(state.clone(), 2, 8);
    let mut client = RavenClient::connect(server.local_addr()).unwrap();

    // v1 scores identity: half the rows pass the filter. Run it twice so
    // the plan is demonstrably cached.
    assert_eq!(client.query(sql).unwrap().table.num_rows(), 50);
    let cached = client.query(sql).unwrap();
    assert!(cached.cache_hit, "second query must be served from cache");
    assert_eq!(cached.table.num_rows(), 50);

    // Mid-stream model swap: v2 scores every row at 100.
    state.store_model("m", linear(vec![0.0], 100.0)).unwrap();

    let after = client.query(sql).unwrap();
    assert!(
        !after.cache_hit,
        "model update must invalidate the cached plan"
    );
    assert_eq!(
        after.table.num_rows(),
        100,
        "stale plan served after model swap"
    );
    server.shutdown();
}

/// The connection cap answers with a typed `Overloaded` frame instead of
/// letting the socket queue silently.
#[test]
fn connection_limit_turns_arrivals_away_typed() {
    let server = spawn(hospital_state(200, ServerConfig::for_tests()), 1, 1);
    let addr = server.local_addr();
    let mut first = RavenClient::connect(addr).unwrap();
    assert!(first.query(HOSPITAL_SQL).unwrap().table.num_rows() > 0);
    // The first connection is still open: the second is turned away.
    let mut second = RavenClient::connect(addr).unwrap();
    let err = second.query(HOSPITAL_SQL).unwrap_err();
    assert!(
        matches!(err, ServerError::Overloaded(_)),
        "connection overflow must be typed, got: {err}"
    );
    // The established connection keeps working.
    assert!(first.query(HOSPITAL_SQL).unwrap().table.num_rows() > 0);
    server.shutdown();
}

/// Point scoring and statement preparation work over the wire, and a
/// `Shutdown` frame stops the server (joining must not hang).
#[test]
fn score_prepare_and_shutdown_over_the_wire() {
    let state = Arc::new(ServerState::new(ServerConfig::for_tests()));
    let table = Table::try_new(
        Schema::from_pairs(&[("x0", DataType::Float64)]).into_shared(),
        vec![Column::Float64(vec![1.0, 2.0])],
    )
    .unwrap();
    state.catalog().register("t", table).unwrap();
    state.store_model("m", linear(vec![2.0], 0.5)).unwrap();
    let server = spawn(state, 2, 8);
    let addr = server.local_addr();
    let mut client = RavenClient::connect(addr).unwrap();

    assert_eq!(client.score("m", vec![3.0]).unwrap(), 6.5);
    assert!(matches!(
        client.score("ghost", vec![1.0]),
        Err(ServerError::Store(_))
    ));
    let sql = "SELECT p.s FROM PREDICT(MODEL = 'm', DATA = t AS d) WITH (s FLOAT) AS p";
    let (hit, _) = client.prepare(sql).unwrap();
    assert!(!hit);
    let reply = client.query(sql).unwrap();
    assert!(reply.cache_hit, "prepared statement must hit the cache");
    assert_eq!(reply.table.num_rows(), 2);
    // SQL errors come back typed without poisoning the connection.
    assert!(matches!(
        client.query("SELECT * FROM nope"),
        Err(ServerError::Sql(_))
    ));
    assert_eq!(client.score("m", vec![0.0]).unwrap(), 0.5);

    client.shutdown_server().unwrap();
    server.shutdown(); // must join, not hang
                       // The connection is gone: the next round-trip fails.
    assert!(client.query(sql).is_err());
}
