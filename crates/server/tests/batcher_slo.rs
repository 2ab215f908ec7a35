//! SLO-aware micro-batching through the public serving surface:
//! per-request deadlines, admit-or-shed at enqueue, expired-while-queued
//! shedding, per-tenant batch policies, and the exact reconciliation of
//! every request into one outcome bucket
//! (`requests == scored + bad_arity + shed + expired`).

use proptest::prelude::*;
use raven_server::{
    adaptive_flush_window, BatchConfig, BatcherStats, ServerConfig, ServerError, ServerState,
    Tenant,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn linear_model(weights: &[f64]) -> raven_ml::Pipeline {
    use raven_ml::featurize::Transform;
    use raven_ml::{Estimator, FeatureStep, LinearKind, LinearModel, Pipeline};
    let steps = (0..weights.len())
        .map(|i| FeatureStep::new(format!("f{i}"), Transform::Identity))
        .collect();
    Pipeline::new(
        steps,
        Estimator::Linear(LinearModel::new(weights.to_vec(), 0.0, LinearKind::Regression).unwrap()),
    )
    .unwrap()
}

/// Poll a tenant's batcher stats until `predicate` holds — the worker
/// sheds expired requests at its next flush, shortly after the caller's
/// own wait already timed out — or fail after 5 s.
fn wait_for_stats(tenant: &Tenant, predicate: impl Fn(&BatcherStats) -> bool) -> BatcherStats {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = tenant.batcher_stats();
        if predicate(&stats) {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "batcher stats never converged: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn deadline_outcomes_reconcile_exactly() {
    let server = Arc::new(ServerState::new(ServerConfig::for_tests()));
    // A deliberately long fixed window so a tight-deadline request
    // reliably expires *while queued* rather than being scored.
    let tenant = "slo";
    let shard = server
        .tenant_with_batch(tenant, BatchConfig::fixed(64, Duration::from_millis(100)))
        .unwrap();
    shard.store_model("m", linear_model(&[2.0])).unwrap();

    // Scored: no deadline, waits out the window, succeeds.
    assert_eq!(shard.score("m", vec![3.0], None).unwrap(), 6.0);
    // Bad arity: individually rejected, typed.
    assert!(matches!(
        shard.score("m", vec![1.0, 2.0], None),
        Err(ServerError::BadRequest(_))
    ));
    // Expired while queued: 5 ms of slack against a 100 ms window. The
    // cold-start cost prediction is tiny (one warm flush), so the
    // request is admitted — then sheds typed at flush time, after the
    // caller's own recv_timeout already returned typed.
    let err = shard
        .score("m", vec![1.0], Some(Duration::from_millis(5)))
        .unwrap_err();
    assert!(
        matches!(err, ServerError::DeadlineExceeded(_)),
        "queued-past-deadline must reject typed, got {err:?}"
    );
    let stats = wait_for_stats(&shard, |s| s.expired == 1);
    assert_eq!(
        stats.batched_rows, 1,
        "the expired row must never reach the scorer"
    );

    // Shed at enqueue: teach the cost model that an invocation takes
    // 50 ms, then offer 1 ms of slack — a predicted miss, rejected
    // before it can occupy a queue slot.
    shard
        .metrics()
        .gauge("batcher_ewma_invocation_us")
        .set(50_000.0);
    let err = shard
        .score("m", vec![1.0], Some(Duration::from_millis(1)))
        .unwrap_err();
    assert!(
        matches!(err, ServerError::DeadlineExceeded(ref m) if m.contains("shed at enqueue")),
        "predicted miss must shed at enqueue, got {err:?}"
    );

    // Exact reconciliation: every request landed in exactly one bucket.
    let stats = wait_for_stats(&shard, |s| {
        s.requests == s.batched_rows + s.bad_arity + s.shed + s.expired + s.failed
    });
    assert_eq!(stats.requests, 4);
    assert_eq!(
        (
            stats.batched_rows,
            stats.bad_arity,
            stats.shed,
            stats.expired,
            stats.failed
        ),
        (1, 1, 1, 1, 0)
    );

    // The outcomes are visible on the metrics surface, per tenant and in
    // the cross-tenant aggregate.
    let per_tenant = server.metrics_snapshot(tenant).unwrap();
    assert_eq!(per_tenant.counters["batcher_shed_total"], 1);
    assert_eq!(per_tenant.counters["batcher_expired_total"], 1);
    assert_eq!(per_tenant.counters["batcher_bad_arity_total"], 1);
    assert_eq!(per_tenant.gauges["batcher_max_batch"], 1.0);
    let aggregate = server.metrics_snapshot("").unwrap();
    assert_eq!(aggregate.counters["batcher_shed_total"], 1);
    assert_eq!(aggregate.counters["batcher_expired_total"], 1);
    let text = server.metrics_text(tenant).unwrap();
    assert!(
        text.contains("raven_batcher_shed_total{tenant=\"slo\"} 1"),
        "Prometheus rendering must carry the shed counter: {text}"
    );
    // The stats display carries the new outcome buckets too.
    let rendered = shard.snapshot().to_string();
    assert!(rendered.contains("1 shed, 1 expired"), "{rendered}");
}

#[test]
fn per_tenant_batch_policies_coexist() {
    let server = Arc::new(ServerState::new(ServerConfig::for_tests()));
    // One latency-critical tenant on a tight fixed window, one
    // throughput tenant on an adaptive window with a 100 µs floor.
    let rt = server
        .tenant_with_batch("rt", BatchConfig::fixed(8, Duration::from_micros(50)))
        .unwrap();
    let bulk = server
        .tenant_with_batch(
            "bulk",
            BatchConfig::adaptive(64, Duration::from_micros(100), Duration::from_millis(2)),
        )
        .unwrap();
    for tenant in [&rt, &bulk] {
        tenant.store_model("m", linear_model(&[1.0])).unwrap();
        for i in 0..4 {
            assert_eq!(tenant.score("m", vec![i as f64], None).unwrap(), i as f64);
        }
    }
    let (rt, bulk) = (rt.batcher_stats(), bulk.batcher_stats());
    // Only the adaptive tenant makes window-sizing decisions; its chosen
    // window respects the configured floor.
    assert_eq!(rt.window_micros, 0.0);
    assert!(
        bulk.window_micros >= 100.0,
        "adaptive window must respect its floor: {bulk:?}"
    );
    // The live decision is a registry series (`batcher_window_us`).
    let snap = server.metrics_snapshot("bulk").unwrap();
    assert!(snap.gauges["batcher_window_us"] >= 100.0);
    // And both tenants reconcile: everything scored, nothing shed.
    for stats in [rt, bulk] {
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.batched_rows, 4);
        assert_eq!(
            stats.shed + stats.expired + stats.bad_arity + stats.failed,
            0
        );
    }
}

#[test]
fn default_deadline_applies_to_point_scores() {
    // With admission.default_deadline configured, a plain score call is
    // deadline-bound even though the caller named none.
    let mut config = ServerConfig::for_tests();
    config.admission.default_deadline = Some(Duration::from_secs(30));
    config.batch = BatchConfig::default();
    let server = Arc::new(ServerState::new(config));
    server.store_model("m", linear_model(&[1.0])).unwrap();
    let tenant = server.default_tenant();
    // A roomy default deadline scores normally...
    assert_eq!(tenant.score("m", vec![5.0], None).unwrap(), 5.0);
    // ...while an explicit zero-slack deadline sheds immediately.
    let err = tenant
        .score("m", vec![5.0], Some(Duration::ZERO))
        .unwrap_err();
    assert!(matches!(err, ServerError::DeadlineExceeded(_)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The adaptive window never escapes its configured clamp, for any
    /// EWMA cost readings (including degenerate NaN/negative/huge ones),
    /// any queue depth, and any deadline slack.
    #[test]
    fn adaptive_window_stays_within_clamp(
        min_us in 0u64..5_000,
        span_us in 0u64..10_000,
        pending in 0usize..512,
        has_deadline in 0u8..2,
        slack_us in 0u64..1_000_000,
        ewma_invocation in prop_oneof![
            Just(0.0),
            Just(f64::NAN),
            Just(-7.0),
            Just(f64::INFINITY),
            0.0..1e9,
        ],
        ewma_row in prop_oneof![Just(0.0), Just(f64::NAN), Just(-1.0), 0.0..1e6],
    ) {
        let min = Duration::from_micros(min_us);
        let max = Duration::from_micros(min_us + span_us);
        let slack = (has_deadline == 1).then(|| Duration::from_micros(slack_us));
        let window = adaptive_flush_window(min, max, pending, slack, ewma_invocation, ewma_row);
        prop_assert!(window >= min, "window {window:?} below floor {min:?}");
        prop_assert!(window <= max, "window {window:?} above ceiling {max:?}");
    }
}
