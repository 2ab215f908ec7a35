//! Observability over the wire: the `Metrics` frame returns per-tenant
//! and exactly-merged aggregate Prometheus text, the `Traces` frame
//! returns slow-query span trees whose per-stage durations reconcile
//! with the end-to-end latency, and a peer asking for either under an
//! older protocol version gets a typed protocol error, not a hang or a
//! misparse.
//!
//! The acceptance assertion from the ISSUE lives here: a slow query
//! fetched via the `Traces` frame shows a span tree whose stage
//! durations sum to within 10% of the end-to-end latency.

use raven_data::{Column, DataType, Schema, Table};
use raven_ml::featurize::Transform;
use raven_ml::{Estimator, FeatureStep, LinearKind, LinearModel, Pipeline};
use raven_server::proto::{read_frame, write_frame};
use raven_server::{
    ErrorCode, NetConfig, RavenClient, RavenServer, Request, Response, ServerConfig, ServerState,
    Trace,
};
use std::sync::Arc;
use std::time::Duration;

const SQL: &str = "SELECT p.s FROM PREDICT(MODEL = 'm', DATA = t AS d) \
                   WITH (s FLOAT) AS p WHERE p.s > 49";

fn linear(w: f64) -> Pipeline {
    Pipeline::new(
        vec![FeatureStep::new("x0", Transform::Identity)],
        Estimator::Linear(LinearModel::new(vec![w], 0.0, LinearKind::Regression).unwrap()),
    )
    .unwrap()
}

fn table_of(n: i64) -> Table {
    Table::try_new(
        Schema::from_pairs(&[("x0", DataType::Float64)]).into_shared(),
        vec![Column::Float64((0..n).map(|i| i as f64).collect())],
    )
    .unwrap()
}

/// Sample everything and call everything slow, so the forensics path is
/// deterministic under test.
fn observability_config() -> ServerConfig {
    let mut config = ServerConfig::for_tests();
    config.trace_sample_rate = 1;
    config.slow_query_threshold = Duration::ZERO;
    config
}

fn spawn(state: Arc<ServerState>) -> RavenServer {
    RavenServer::bind(
        state,
        NetConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            max_connections: 16,
            poll_interval: Duration::from_millis(20),
            ..NetConfig::default()
        },
    )
    .expect("bind ephemeral listener")
}

fn span_names(trace: &Trace) -> Vec<&str> {
    trace.spans.iter().map(|s| s.name.as_str()).collect()
}

/// The ISSUE's acceptance assertion: the slow-query span tree's stage
/// durations sum to within 10% of the end-to-end latency — over a real
/// socket, not an in-process shortcut.
#[test]
fn slow_query_trace_stages_reconcile_with_total_latency() {
    let state = Arc::new(ServerState::new(observability_config()));
    // Enough rows that execution dominates and fixed per-request
    // overhead (frame decode, span bookkeeping) stays under the 10%.
    state.catalog().register("t", table_of(200_000)).unwrap();
    state.store_model("m", linear(1.0)).unwrap();
    let server = spawn(state.clone());
    let addr = server.local_addr();

    let mut client = RavenClient::connect(addr).unwrap();
    let cold = client.query(SQL).unwrap();
    let warm = client.query(SQL).unwrap();
    assert!(!cold.cache_hit && warm.cache_hit);

    let slow = client.slow_queries(10).unwrap();
    assert!(slow.len() >= 2, "both requests cross a zero threshold");
    // Newest first: the warm replay leads, the cold execution follows.
    let warm_trace = &slow[0];
    let cold_trace = slow
        .iter()
        .max_by_key(|t| t.total_us)
        .expect("at least one trace");
    assert!(cold_trace.slow);
    assert_eq!(cold_trace.sql, SQL);

    // The cold request carries the full pipeline: preparation stages,
    // then per-operator execution under the result-cache lookup.
    let names = span_names(cold_trace);
    for stage in [
        "tenant-quota-wait",
        "global-admission-wait",
        "normalize",
        "plan-cache-lookup",
        "parse-bind",
        "optimize",
        "fingerprint",
        "result-cache-lookup",
        "op:scan",
    ] {
        assert!(
            names.contains(&stage),
            "cold trace missing {stage}: {names:?}"
        );
    }
    // The warm replay skipped preparation and execution entirely.
    let warm_names = span_names(warm_trace);
    assert!(!warm_names.contains(&"parse-bind"), "{warm_names:?}");
    assert!(
        !warm_names.iter().any(|n| n.starts_with("op:")),
        "cached replay must not execute operators: {warm_names:?}"
    );

    // Acceptance: stage durations reconcile with end-to-end latency.
    let total = cold_trace.total_us;
    let staged = cold_trace.stage_total_us();
    assert!(
        staged <= total,
        "sequential root stages cannot exceed the total: {staged} > {total}"
    );
    assert!(
        (total - staged) * 10 <= total,
        "stages sum to {staged}µs of {total}µs — more than 10% unaccounted:\n{}",
        cold_trace.render()
    );
    server.shutdown();
}

/// Per-tenant `Metrics` frames carry tenant-labeled series; the empty
/// tenant returns the exactly-merged aggregate; a tenant nobody created
/// renders empty and is not created by being observed.
#[test]
fn metrics_frames_serve_tenant_and_aggregate_views() {
    let state = Arc::new(ServerState::new(observability_config()));
    for tenant in ["tenant-a", "tenant-b"] {
        let tenant = state.tenant(tenant).unwrap();
        tenant.register_table("t", table_of(100)).unwrap();
        tenant.store_model("m", linear(1.0)).unwrap();
    }
    let server = spawn(state.clone());
    let addr = server.local_addr();

    let mut a = RavenClient::connect(addr).unwrap().for_tenant("tenant-a");
    let mut b = RavenClient::connect(addr).unwrap().for_tenant("tenant-b");
    for _ in 0..3 {
        a.query(SQL).unwrap();
    }
    for _ in 0..2 {
        b.query(SQL).unwrap();
    }

    // A client reads its own tenant's series by default…
    let text_a = a.metrics().unwrap();
    assert!(
        text_a.contains("raven_queries_total{tenant=\"tenant-a\"} 3"),
        "{text_a}"
    );
    assert!(text_a.contains("# TYPE raven_queries_total counter"));
    assert!(text_a.contains("raven_query_latency_us_bucket{tenant=\"tenant-a\",le="));
    // …and can observe a sibling or the merged whole from one socket.
    let text_b = a.metrics_for("tenant-b").unwrap();
    assert!(
        text_b.contains("raven_queries_total{tenant=\"tenant-b\"} 2"),
        "{text_b}"
    );
    let aggregate = a.metrics_aggregate().unwrap();
    assert!(aggregate.contains("raven_queries_total 5"), "{aggregate}");
    assert!(
        aggregate.contains("raven_query_latency_us_count 5"),
        "histogram buckets merge exactly across tenants: {aggregate}"
    );
    assert!(
        !aggregate.contains("tenant=\"tenant-a\""),
        "the aggregate renders unlabeled"
    );

    // Ghost tenants render empty — and still do not exist afterwards.
    assert_eq!(a.metrics_for("ghost").unwrap(), "");
    assert!(a.slow_queries_for("ghost", 10).unwrap().is_empty());
    assert!(
        state.try_tenant("ghost").is_none(),
        "observing must not create"
    );

    // The aggregate trace view interleaves both tenants, newest first.
    let merged = a.slow_queries_for("", 16).unwrap();
    assert_eq!(merged.len(), 5);
    assert!(merged.windows(2).all(|w| w[0].seq > w[1].seq));
    assert!(merged.iter().any(|t| t.tenant == "tenant-a"));
    assert!(merged.iter().any(|t| t.tenant == "tenant-b"));
    server.shutdown();
}

/// A pre-v5 peer sending the observability kinds gets the typed
/// protocol error every stale version gets — the server never tries to
/// parse a payload the peer's version cannot have meant — and nothing
/// it sent is counted or served.
#[test]
fn pre_v5_peers_cannot_reach_observability_kinds() {
    let state = Arc::new(ServerState::new(observability_config()));
    state.catalog().register("t", table_of(10)).unwrap();
    state.store_model("m", linear(1.0)).unwrap();
    let server = spawn(state.clone());
    let addr = server.local_addr();

    for request in [
        Request::Metrics {
            tenant: String::new(),
        },
        Request::Traces {
            tenant: String::new(),
            limit: 4,
        },
    ] {
        let wire = request.encode_for_version(4, 0);
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write_frame(&mut stream, &wire).unwrap();
        let reply = read_frame(&mut stream).unwrap();
        match Response::decode(&reply).unwrap() {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::Protocol);
                assert!(message.contains("version 4"), "{message}");
            }
            other => panic!("v4 peer reached an observability kind: {other:?}"),
        }
    }

    // The same requests at the current version are served normally,
    // and see only the one query made here.
    let mut client = RavenClient::connect(addr).unwrap();
    client.query(SQL).unwrap();
    assert!(client
        .metrics_aggregate()
        .unwrap()
        .contains("raven_queries_total 1"));
    assert_eq!(client.slow_queries(10).unwrap().len(), 1);
    server.shutdown();
}
