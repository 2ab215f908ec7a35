//! Differential equivalence: results served over a live listener —
//! serially and pipelined, streamed back as bounded `RowsChunk` frames —
//! against an in-process oracle.
//!
//! The oracle is a twin `ServerState` built from the same seed and
//! queried directly: no socket, framing or streaming in between. The
//! candidates are a serial client (one request in flight) and a
//! pipelined one (interleaved requests, out-of-order completion). For
//! every workload the reassembled tables must be identical to the
//! oracle's, request/reply counts must reconcile, and the server's own
//! counters must agree with what the clients saw.

use raven_data::{Table, Value};
use raven_datagen::{hospital, train};
use raven_server::{
    NetConfig, PipelinedClient, RavenClient, RavenServer, ServerConfig, ServerState, Statement,
};
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

const PARAM_SQL: &str = "\
    WITH data AS (\
      SELECT * FROM patient_info AS pi \
      JOIN blood_tests AS bt ON pi.id = bt.id \
      JOIN prenatal_tests AS pt ON bt.id = pt.id)\
    SELECT d.id, p.length_of_stay \
    FROM PREDICT(MODEL = 'duration_of_stay', DATA = data AS d) \
    WITH (length_of_stay FLOAT) AS p \
    WHERE p.length_of_stay > ?";

fn hospital_state(rows: usize) -> Arc<ServerState> {
    let state = Arc::new(ServerState::new(ServerConfig::for_tests()));
    let data = hospital::generate(rows, 42);
    data.register(state.catalog()).unwrap();
    let model = train::hospital_tree(&data, 6).unwrap();
    state.store_model("duration_of_stay", model).unwrap();
    state
}

/// The tables the twin state answers in process for `PARAM_SQL` at each
/// threshold.
fn oracle(twin: &ServerState, thresholds: &[f64]) -> Vec<Table> {
    thresholds
        .iter()
        .map(|&t| {
            let result = twin.default_tenant().serve(
                Statement::Template {
                    text: PARAM_SQL,
                    params: &[Value::Float64(t)],
                },
                None,
            );
            result.unwrap().table.as_ref().clone()
        })
        .collect()
}

/// A listener with deliberately small chunks so streamed results span
/// several `RowsChunk` frames even on modest tables.
fn spawn(state: Arc<ServerState>, chunk_rows: usize) -> RavenServer {
    RavenServer::bind(
        state,
        NetConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            max_connections: 32,
            poll_interval: Duration::from_millis(10),
            max_inflight_per_conn: 16,
            chunk_rows,
            ..NetConfig::default()
        },
    )
    .expect("bind ephemeral listener")
}

/// The tentpole differential: K parameterized queries with distinct
/// results, run three ways — in process on the twin (the oracle), over
/// the wire serially, and pipelined (interleaved, out-of-order
/// completion). All three must produce identical tables, and the
/// reply-to-request matching must hold even though the pipelined
/// replies interleave.
#[test]
fn pipelined_results_match_the_in_process_oracle() {
    const K: usize = 12;

    let server = spawn(hospital_state(600), 7);
    let addr = server.local_addr();
    let thresholds: Vec<f64> = (0..K).map(|i| 3.0 + i as f64 * 0.5).collect();
    let oracle = oracle(&hospital_state(600), &thresholds);
    // The workload is non-trivial and the thresholds genuinely
    // differentiate results, or the differential proves nothing.
    assert!(oracle[0].num_rows() > 0);
    assert!(oracle.windows(2).any(|w| w[0] != w[1]));

    // Serial: one request in flight, streamed replies.
    let mut serial = RavenClient::connect(addr).unwrap();
    for (i, &t) in thresholds.iter().enumerate() {
        let reply = serial
            .query_params(PARAM_SQL, vec![Value::Float64(t)], None)
            .unwrap();
        assert_eq!(
            reply.table, oracle[i],
            "serial result diverged from the oracle at threshold {t}"
        );
        let rows = reply.table.num_rows();
        assert_eq!(
            reply.chunks,
            rows.div_ceil(7).max(1),
            "chunk count must cover {rows} rows at 7 rows per chunk"
        );
    }

    // Pipelined: all K in flight on one connection, replies in
    // whatever order the pool finishes them.
    let mut pipelined = PipelinedClient::connect(addr).unwrap();
    let ids: Vec<u32> = thresholds
        .iter()
        .map(|&t| {
            pipelined
                .submit_params(PARAM_SQL, vec![Value::Float64(t)], None)
                .unwrap()
        })
        .collect();
    assert_eq!(pipelined.in_flight(), K);
    let replies = pipelined.drain().unwrap();
    assert_eq!(pipelined.in_flight(), 0);
    assert_eq!(replies.len(), K, "every request must get exactly one reply");
    for (i, (id, reply)) in replies.into_iter().enumerate() {
        assert_eq!(id, ids[i], "drain returns replies keyed by request id");
        let reply = reply.unwrap();
        assert_eq!(
            reply.table, oracle[i],
            "pipelined result diverged from the oracle"
        );
        assert!(reply.chunks >= 1, "replies always stream");
    }

    // The server's counters reconcile with what the clients saw:
    // 2 × K queries, no errors, every admission accounted for.
    let stats = RavenClient::connect(addr).unwrap().stats().unwrap();
    assert_eq!(stats.queries, (2 * K) as u64);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.admitted, stats.queries);
    server.shutdown();
}

/// The PR-4 `Arc::try_unwrap` regression, streamed: a result-cache hit
/// serves a table shared between the cache and any concurrent readers,
/// so the server must encode chunks straight from the shared table (no
/// exclusive-ownership assumption) and the client must reassemble into
/// a fresh single-owner table. Several pipelined connections hitting
/// the same cached result concurrently make the sharing real.
#[test]
fn result_cache_hits_stream_shared_tables_correctly() {
    const CONNS: usize = 4;
    const REPEATS: usize = 6;

    let server = spawn(hospital_state(500), 5);
    let addr = server.local_addr();

    // Warm the result cache (first execution is the miss).
    let warm = RavenClient::connect(addr)
        .unwrap()
        .query(HOSPITAL_SQL)
        .unwrap();
    assert!(warm.chunks >= 1);
    let expected = warm.table;

    // Hammer the cached entry from several pipelined connections at
    // once: every streamed reply reassembles to the same table.
    let handles: Vec<_> = (0..CONNS)
        .map(|_| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = PipelinedClient::connect(addr).unwrap();
                for _ in 0..REPEATS {
                    client.submit(HOSPITAL_SQL, None).unwrap();
                }
                for (_, reply) in client.drain().unwrap() {
                    let reply = reply.unwrap();
                    assert_eq!(
                        reply.table, expected,
                        "shared cached table must stream chunk-exact"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("pipelined reader must not deadlock");
    }

    let stats = RavenClient::connect(addr).unwrap().stats().unwrap();
    assert_eq!(stats.queries, (1 + CONNS * REPEATS) as u64);
    assert!(
        stats.result_hits >= (CONNS * REPEATS) as u64,
        "repeats must be served from the shared result cache \
         (hits: {})",
        stats.result_hits
    );
    assert_eq!(stats.errors, 0);
    server.shutdown();
}

/// An empty result still streams — one schema-bearing empty chunk plus
/// the trailer — and reassembles into the same empty table the oracle
/// returns.
#[test]
fn empty_results_stream_a_schema_bearing_chunk() {
    let server = spawn(hospital_state(300), 8);
    let addr = server.local_addr();
    // A threshold beyond any prediction: zero rows pass.
    let expected = oracle(&hospital_state(300), &[1.0e9]).remove(0);
    assert_eq!(expected.num_rows(), 0);

    let mut client = RavenClient::connect(addr).unwrap();
    let reply = client
        .query_params(PARAM_SQL, vec![Value::Float64(1.0e9)], None)
        .unwrap();
    assert_eq!(reply.chunks, 1, "empty result = exactly one empty chunk");
    assert_eq!(reply.table, expected, "schema must survive the stream");
    server.shutdown();
}
