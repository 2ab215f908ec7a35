//! Release-mode pipelined stress: 32 connections, each keeping the
//! full 16-request in-flight budget occupied, against a warm cached
//! workload. Run ignored by default (CI runs it explicitly, in release,
//! under a generous timeout):
//!
//! ```text
//! cargo test --release -p raven-server --test pipelined_stress -- --ignored
//! ```

use raven_data::Value;
use raven_datagen::{hospital, train};
use raven_server::{
    NetConfig, PipelinedClient, RavenClient, RavenServer, ServerConfig, ServerState, Statement,
};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const PARAM_SQL: &str = "\
    WITH data AS (\
      SELECT * FROM patient_info AS pi \
      JOIN blood_tests AS bt ON pi.id = bt.id \
      JOIN prenatal_tests AS pt ON bt.id = pt.id)\
    SELECT d.id, p.length_of_stay \
    FROM PREDICT(MODEL = 'duration_of_stay', DATA = data AS d) \
    WITH (length_of_stay FLOAT) AS p \
    WHERE p.length_of_stay > ?";

/// 32 connections × 16 in-flight × 8 waves: every reply reassembles to
/// the table its parameter predicts, out-of-order completion
/// notwithstanding, and the server's counters reconcile exactly.
#[test]
#[ignore = "stress dimensions are sized for release mode; CI runs it explicitly"]
fn pipelined_fleet_stays_correct_at_full_budget() {
    const CONNS: usize = 32;
    const INFLIGHT: usize = 16;
    const WAVES: usize = 8;
    // A small parameter space on purpose: heavy result-cache sharing is
    // the hard case (many streams over the same shared tables).
    const THRESHOLDS: [f64; 4] = [3.0, 5.0, 6.0, 7.0];

    let build = || {
        let state = Arc::new(ServerState::new(ServerConfig::for_tests()));
        let data = hospital::generate(2_000, 42);
        data.register(state.catalog()).unwrap();
        let model = train::hospital_tree(&data, 6).unwrap();
        state.store_model("duration_of_stay", model).unwrap();
        state
    };
    let server = RavenServer::bind(
        build(),
        NetConfig {
            addr: "127.0.0.1:0".into(),
            workers: 8,
            max_connections: CONNS + 4,
            poll_interval: Duration::from_millis(10),
            max_inflight_per_conn: INFLIGHT,
            chunk_rows: 64,
            ..NetConfig::default()
        },
    )
    .expect("bind ephemeral listener");
    let addr = server.local_addr();

    // Oracle tables, one per threshold, served in process by a twin
    // state built from the same seed.
    let twin = build();
    let oracle: Vec<_> = THRESHOLDS
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
        .collect();
    assert!(oracle.iter().any(|t| t.num_rows() > 0));

    let barrier = Arc::new(Barrier::new(CONNS));
    let handles: Vec<_> = (0..CONNS)
        .map(|conn_idx| {
            let barrier = barrier.clone();
            let oracle = oracle.clone();
            std::thread::spawn(move || {
                let mut client = PipelinedClient::connect(addr).unwrap();
                client
                    .set_reply_timeout(Some(Duration::from_secs(120)))
                    .unwrap();
                barrier.wait();
                let mut served = 0usize;
                for wave in 0..WAVES {
                    // Fill the budget, remembering which threshold each
                    // id asked for.
                    let mut asked = std::collections::HashMap::new();
                    for k in 0..INFLIGHT {
                        let which = (conn_idx + wave + k) % THRESHOLDS.len();
                        let id = client
                            .submit_params(PARAM_SQL, vec![Value::Float64(THRESHOLDS[which])], None)
                            .unwrap();
                        asked.insert(id, which);
                    }
                    for (id, reply) in client.drain().unwrap() {
                        let which = asked.remove(&id).expect("reply to an unknown id");
                        let reply = reply.unwrap();
                        assert_eq!(
                            reply.table, oracle[which],
                            "conn {conn_idx} wave {wave}: wrong result for its id"
                        );
                        served += 1;
                    }
                    assert!(asked.is_empty(), "every submitted id must be answered");
                }
                served
            })
        })
        .collect();
    let total: usize = handles
        .into_iter()
        .map(|h| h.join().expect("stress connection must not deadlock"))
        .sum();
    assert_eq!(total, CONNS * INFLIGHT * WAVES);

    let stats = RavenClient::connect(addr).unwrap().stats().unwrap();
    assert_eq!(stats.queries, total as u64);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.admitted, stats.queries);
    assert!(
        stats.result_hits > 0,
        "a 4-template workload at this volume must share results"
    );
    server.shutdown();
}
