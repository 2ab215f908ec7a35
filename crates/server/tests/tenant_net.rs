//! Multi-tenant serving over the wire: cross-tenant
//! invalidation isolation under TCP stress, per-tenant quotas bounding a
//! noisy neighbor, and per-tenant / aggregate `Stats` frames.
//!
//! The acceptance assertions from the ISSUE live here:
//! * tenant A's mid-stream model swap invalidates **zero** of tenant B's
//!   plan- or result-cache entries, proven via the per-tenant
//!   invalidation counters fetched over TCP;
//! * with tenant A saturating its quota, tenant B's requests still
//!   complete within their deadline.

use raven_data::{Column, DataType, Schema, Table};
use raven_ml::featurize::Transform;
use raven_ml::{Estimator, FeatureStep, LinearKind, LinearModel, Pipeline};
use raven_server::{
    NetConfig, RavenClient, RavenServer, ServerConfig, ServerError, ServerState, TenantQuotaConfig,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const SQL: &str = "SELECT p.s FROM PREDICT(MODEL = 'm', DATA = t AS d) \
                   WITH (s FLOAT) AS p WHERE p.s > 49";

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

fn table_of(n: i64) -> Table {
    Table::try_new(
        Schema::from_pairs(&[("x0", DataType::Float64)]).into_shared(),
        vec![Column::Float64((0..n).map(|i| i as f64).collect())],
    )
    .unwrap()
}

fn two_tenant_state(config: ServerConfig) -> Arc<ServerState> {
    let state = Arc::new(ServerState::new(config));
    for tenant in ["tenant-a", "tenant-b"] {
        let tenant = state.tenant(tenant).unwrap();
        tenant.register_table("t", table_of(100)).unwrap();
        tenant.store_model("m", linear(vec![1.0], 0.0)).unwrap();
    }
    state
}

fn spawn(state: Arc<ServerState>, workers: usize) -> RavenServer {
    RavenServer::bind(
        state,
        NetConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            max_connections: 64,
            poll_interval: Duration::from_millis(20),
            ..NetConfig::default()
        },
    )
    .expect("bind ephemeral listener")
}

/// TCP stress with a mid-stream model swap in tenant A: B's readers see
/// constant results throughout, and the per-tenant counters fetched over
/// the wire prove B lost zero cache entries while A lost its own.
#[test]
fn tenant_a_swap_invalidates_zero_of_tenant_b() {
    const CLIENTS_PER_TENANT: usize = 4;
    const MIN_QUERIES: usize = 25;
    const A_V1_ROWS: usize = 50;
    const A_V2_ROWS: usize = 100;
    const B_ROWS: usize = 50;

    let state = two_tenant_state(ServerConfig::for_tests());
    let server = spawn(state.clone(), 2 * CLIENTS_PER_TENANT + 2);
    let addr = server.local_addr();
    let swapped = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(2 * CLIENTS_PER_TENANT + 1));

    // Tenant A readers: rows flip from v1 to v2 after the swap; any
    // request started after the swap completed must see v2.
    let a_readers: Vec<_> = (0..CLIENTS_PER_TENANT)
        .map(|_| {
            let barrier = barrier.clone();
            let swapped = swapped.clone();
            std::thread::spawn(move || {
                let mut client = RavenClient::connect(addr).unwrap().for_tenant("tenant-a");
                barrier.wait();
                let mut sent = 0usize;
                let mut seen_v2 = false;
                while !seen_v2 || sent < MIN_QUERIES {
                    let swap_before_send = swapped.load(Ordering::SeqCst);
                    let rows = client.query(SQL).unwrap().table.num_rows();
                    sent += 1;
                    assert!(rows == A_V1_ROWS || rows == A_V2_ROWS, "A saw {rows} rows");
                    if swap_before_send {
                        assert_eq!(rows, A_V2_ROWS, "stale read after the swap");
                    }
                    seen_v2 |= rows == A_V2_ROWS;
                }
                sent
            })
        })
        .collect();
    // Tenant B readers: the swap must be invisible — same-named model,
    // same rows, before and after.
    let b_readers: Vec<_> = (0..CLIENTS_PER_TENANT)
        .map(|_| {
            let barrier = barrier.clone();
            let swapped = swapped.clone();
            std::thread::spawn(move || {
                let mut client = RavenClient::connect(addr).unwrap().for_tenant("tenant-b");
                barrier.wait();
                let mut sent = 0usize;
                while !swapped.load(Ordering::SeqCst) || sent < MIN_QUERIES {
                    let rows = client.query(SQL).unwrap().table.num_rows();
                    sent += 1;
                    assert_eq!(rows, B_ROWS, "tenant B's results moved on A's swap");
                }
                sent
            })
        })
        .collect();

    barrier.wait();
    std::thread::sleep(Duration::from_millis(15));
    // v2 scores every row at 100: all 100 rows pass A's filter.
    state
        .tenant("tenant-a")
        .unwrap()
        .store_model("m", linear(vec![0.0], 100.0))
        .unwrap();
    swapped.store(true, Ordering::SeqCst);

    let a_total: usize = a_readers.into_iter().map(|h| h.join().unwrap()).sum();
    let b_total: usize = b_readers.into_iter().map(|h| h.join().unwrap()).sum();

    // The acceptance assertion, over TCP: per-tenant invalidation
    // counters — A lost entries to its own swap, B lost exactly zero.
    let mut observer = RavenClient::connect(addr).unwrap();
    let a = observer.stats_for("tenant-a").unwrap();
    let b = observer.stats_for("tenant-b").unwrap();
    assert!(
        a.invalidations >= 1 && a.result_invalidations >= 1,
        "A's swap must invalidate its own plan + result entries: {a:?}"
    );
    assert_eq!(b.invalidations, 0, "B lost plan entries to A's swap: {b:?}");
    assert_eq!(
        b.result_invalidations, 0,
        "B lost memoized results to A's swap: {b:?}"
    );
    assert_eq!(a.queries, a_total as u64);
    assert_eq!(b.queries, b_total as u64);
    assert_eq!(b.errors, 0);
    // B stayed hot the whole time: exactly one execution, rest replays.
    assert_eq!(b.result_misses, 1, "{b:?}");
    assert_eq!(b.result_hits, b_total as u64 - 1);
    // The stats frame carries the tenant's latency percentiles.
    assert!(a.latency_p99_micros >= a.latency_p50_micros);
    // And the aggregate frame sums both tenants.
    let aggregate = observer.stats_aggregate().unwrap();
    assert_eq!(aggregate.queries, (a_total + b_total) as u64);
    assert!(aggregate.result_hits >= b.result_hits);
    // A tenant nobody created reports zeros, and still does not exist.
    let ghost = observer.stats_for("ghost").unwrap();
    assert_eq!(ghost.queries, 0);
    server.shutdown();
    assert!(
        state.try_tenant("ghost").is_none(),
        "observing must not create"
    );
}

/// The noisy-neighbor acceptance scenario: tenant A's strict quota is
/// saturated (its one execution slot held, with more A-clients piling on
/// over TCP); every tenant B request still completes within its deadline
/// through B's own untouched quota ring. A sees typed `Overloaded`
/// rejections; B sees none. Holding the slot in-process makes the
/// saturation deterministic — on a fast release build, organic traffic
/// alone can serialize through a microsecond-fast query and never
/// actually collide.
#[test]
fn quota_bounds_noisy_tenant_so_quiet_tenant_meets_deadlines() {
    const NOISY_CLIENTS: usize = 4;
    const NOISY_QUERIES: usize = 10;
    const QUIET_QUERIES: usize = 30;
    const QUIET_DEADLINE: Duration = Duration::from_secs(10);

    let mut config = ServerConfig::for_tests();
    // One execution at a time per tenant, no waiting room: requests
    // beyond the saturated ring reject immediately, typed.
    config.tenant_quota = TenantQuotaConfig::strict(1);
    let state = two_tenant_state(config);
    let server = spawn(state.clone(), NOISY_CLIENTS + 4);
    let addr = server.local_addr();

    // Saturate tenant A: its single quota slot is held for the whole
    // measurement window.
    let tenant_a = state.tenant("tenant-a").unwrap();
    let held = tenant_a.quota().admit(None).unwrap();

    let noisy: Vec<_> = (0..NOISY_CLIENTS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = RavenClient::connect(addr).unwrap().for_tenant("tenant-a");
                let mut overloaded = 0usize;
                for q in 0..NOISY_QUERIES {
                    match client.query(SQL) {
                        Ok(_) => panic!("request {q} served through a saturated quota"),
                        Err(ServerError::Overloaded(_)) => overloaded += 1,
                        Err(other) => panic!("noisy tenant saw unexpected error: {other}"),
                    }
                }
                overloaded
            })
        })
        .collect();

    let quiet = std::thread::spawn(move || {
        let mut client = RavenClient::connect(addr).unwrap().for_tenant("tenant-b");
        let mut worst = Duration::ZERO;
        for q in 0..QUIET_QUERIES {
            let begin = Instant::now();
            let reply = client
                .query_with_deadline(SQL, Some(QUIET_DEADLINE))
                .unwrap_or_else(|e| {
                    panic!("quiet tenant request {q} failed under noisy load: {e}")
                });
            worst = worst.max(begin.elapsed());
            assert_eq!(reply.table.num_rows(), 50);
        }
        worst
    });

    let quiet_worst = quiet.join().expect("quiet tenant must not fail");
    let noisy_overloaded: usize = noisy.into_iter().map(|h| h.join().unwrap()).sum();

    assert!(
        quiet_worst < QUIET_DEADLINE,
        "quiet tenant's worst request took {quiet_worst:?}"
    );
    assert_eq!(
        noisy_overloaded,
        NOISY_CLIENTS * NOISY_QUERIES,
        "every request into the saturated quota must reject typed"
    );

    // Releasing the slot lets tenant A serve again — rejection was
    // quota pressure, not a wedged tenant.
    drop(held);
    let mut recovered = RavenClient::connect(addr).unwrap().for_tenant("tenant-a");
    assert_eq!(recovered.query(SQL).unwrap().table.num_rows(), 50);

    let mut observer = RavenClient::connect(addr).unwrap();
    let a = observer.stats_for("tenant-a").unwrap();
    let b = observer.stats_for("tenant-b").unwrap();
    assert_eq!(a.rejected_overloaded, noisy_overloaded as u64);
    assert_eq!(a.admitted, 1, "only the post-release request got through");
    assert_eq!(
        b.rejected_overloaded, 0,
        "the noisy tenant's saturation leaked into B's admission: {b:?}"
    );
    assert_eq!(b.admitted, QUIET_QUERIES as u64);
    assert_eq!(b.errors, 0);
    // B's quota ring never even queued: its latency stayed flat. The
    // wire-visible p99 gives a bound (well under the deadline).
    assert!(
        Duration::from_micros(b.latency_p99_micros) < QUIET_DEADLINE,
        "quiet tenant p99 {}µs",
        b.latency_p99_micros
    );
    server.shutdown();
}

/// Tenants are minted over the wire on first use, bounded by
/// `max_tenants`, and invalid names are rejected typed — all through
/// `Query` frames.
#[test]
fn wire_tenants_are_bounded_and_validated() {
    let mut config = ServerConfig::for_tests();
    config.max_tenants = 2; // default + one
    let state = Arc::new(ServerState::new(config));
    state.catalog().register("t", table_of(10)).unwrap();
    let server = spawn(state.clone(), 4);
    let addr = server.local_addr();

    // First unseen tenant fits under the cap (query fails on its empty
    // catalog, but the tenant itself is created).
    let mut first = RavenClient::connect(addr)
        .unwrap()
        .for_tenant("room-for-one");
    assert!(matches!(
        first.query("SELECT x0 FROM t"),
        Err(ServerError::Sql(_))
    ));
    assert!(state.try_tenant("room-for-one").is_some());
    // Second unseen tenant overflows the cap, typed.
    let mut second = RavenClient::connect(addr)
        .unwrap()
        .for_tenant("one-too-many");
    assert!(matches!(
        second.query("SELECT x0 FROM t"),
        Err(ServerError::Overloaded(_))
    ));
    assert!(state.try_tenant("one-too-many").is_none());
    // A rejected creation leaks nothing: spraying names past the cap
    // must not grow the shared catalog namespace map either.
    assert!(
        !state.catalog_shards().contains("one-too-many"),
        "rejected tenant left a catalog namespace behind"
    );
    // Invalid tenant names are a BadRequest, not a namespace.
    let mut invalid = RavenClient::connect(addr).unwrap().for_tenant("no spaces");
    assert!(matches!(
        invalid.query("SELECT x0 FROM t"),
        Err(ServerError::BadRequest(_))
    ));
    // The default tenant is untouched by all of it.
    let mut default = RavenClient::connect(addr).unwrap();
    assert_eq!(
        default.query("SELECT x0 FROM t").unwrap().table.num_rows(),
        10
    );
    server.shutdown();
}
