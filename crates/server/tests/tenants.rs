//! Differential cross-tenant isolation: two tenants holding same-named
//! models and tables with *different contents* must always get their own
//! results — under interleaving, caching, and mutation — and a mutation
//! in one tenant must invalidate zero cache entries in the other.
//!
//! The test is differential: every tenant query is checked against an
//! isolated single-tenant oracle server built from the same data, so a
//! cross-tenant leak (wrong model bound, wrong table scanned, wrong
//! cached result replayed) shows up as a row-level mismatch, not just a
//! counter drift.

use raven_data::{Column, DataType, Schema, Table};
use raven_ml::featurize::Transform;
use raven_ml::{Estimator, FeatureStep, LinearKind, LinearModel, Pipeline};
use raven_server::{
    ServerConfig, ServerQueryResult, ServerState, Statement, Tenant, TenantQuotaConfig,
};
use std::sync::Arc;

/// Give `tenant` the table `t` of `rows` rows and the model `m`.
fn populate(tenant: &Tenant, rows: i64, model: Pipeline) {
    tenant.register_table("t", table_of(rows)).unwrap();
    tenant.store_model("m", model).unwrap();
}

/// Serve [`SQL`] in `tenant`, with no deadline.
fn serve(tenant: &Tenant) -> ServerQueryResult {
    tenant.serve(Statement::Sql(SQL), None).unwrap()
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

fn table_of(n: i64) -> Table {
    Table::try_new(
        Schema::from_pairs(&[("x0", DataType::Float64)]).into_shared(),
        vec![Column::Float64((0..n).map(|i| i as f64).collect())],
    )
    .unwrap()
}

/// One tenant's ground truth: its own single-tenant server over the same
/// data. If the multi-tenant server ever crosses a wire, it diverges
/// from this oracle.
struct Oracle {
    server: ServerState,
}

impl Oracle {
    fn new(rows: i64, weight: f64, bias: f64) -> Oracle {
        let server = ServerState::new(ServerConfig::for_tests());
        populate(server.default_tenant(), rows, linear(vec![weight], bias));
        Oracle { server }
    }
}

const SQL: &str =
    "SELECT p.s FROM PREDICT(MODEL = 'm', DATA = t AS d) WITH (s FLOAT) AS p WHERE p.s > 10";

/// The acceptance scenario: same-named models/tables of different
/// contents in two tenants, interleaved hot queries, always the tenant's
/// own results — byte-compared against per-tenant oracles.
#[test]
fn same_named_objects_always_get_their_own_results() {
    let server = ServerState::new(ServerConfig::for_tests());
    // alpha: identity over 100 rows; beta: ×3 over 40 rows. Same names.
    let specs = [("alpha", 100i64, 1.0, 0.0), ("beta", 40, 3.0, 0.0)];
    let mut oracles = Vec::new();
    for (tenant, rows, w, b) in specs {
        populate(&server.tenant(tenant).unwrap(), rows, linear(vec![w], b));
        oracles.push((tenant, Oracle::new(rows, w, b)));
    }
    // Interleave repeatedly so both plan and result caches are hot in
    // both tenants while the other tenant keeps querying.
    for round in 0..6 {
        for (tenant, oracle) in &oracles {
            let ours = serve(&server.tenant(tenant).unwrap());
            let truth = oracle.server.execute(SQL).unwrap();
            assert_eq!(
                ours.table, truth.table,
                "round {round}: tenant {tenant} diverged from its oracle"
            );
            if round > 0 {
                assert!(ours.cache_hit, "round {round}: plan must be cached");
                assert!(
                    ours.result_cache_hit,
                    "round {round}: result must be memoized per tenant"
                );
            }
        }
    }
    // One optimizer pass and one execution per tenant, not per request.
    for (tenant, _) in &oracles {
        let stats = server.tenant_stats(tenant).unwrap();
        assert_eq!(stats.plan_cache.preparations, 1, "tenant {tenant}");
        assert_eq!(stats.result_cache.executions, 1, "tenant {tenant}");
        assert_eq!(stats.queries, 6, "tenant {tenant}");
    }
}

/// Mutation isolation: swapping a model (and replacing a table) in one
/// tenant invalidates zero entries in the other tenant, whose repeats
/// keep hitting — and both tenants remain oracle-correct afterwards.
#[test]
fn mutations_in_one_tenant_invalidate_nothing_elsewhere() {
    let server = ServerState::new(ServerConfig::for_tests());
    let [alpha, beta] = ["alpha", "beta"].map(|t| server.tenant(t).unwrap());
    for tenant in [&alpha, &beta] {
        populate(tenant, 100, linear(vec![1.0], 0.0));
    }
    // Warm both tenants' caches.
    assert_eq!(serve(&alpha).table.num_rows(), 89);
    assert_eq!(serve(&beta).table.num_rows(), 89);

    // Swap alpha's model (+100 to every score) and replace alpha's table.
    alpha.store_model("m", linear(vec![1.0], 100.0)).unwrap();
    alpha.replace_table("t", table_of(30));

    // Alpha re-prepares and re-executes with the new objects…
    let alpha = serve(&alpha);
    assert!(!alpha.cache_hit && !alpha.result_cache_hit);
    assert_eq!(alpha.table.num_rows(), 30, "every biased score passes");
    // …while beta's entries survived untouched and still hit.
    let beta = serve(&beta);
    assert!(beta.cache_hit, "beta's plan must survive alpha's mutations");
    assert!(
        beta.result_cache_hit,
        "beta's memoized result must survive alpha's mutations"
    );
    assert_eq!(beta.table.num_rows(), 89);

    let alpha_stats = server.tenant_stats("alpha").unwrap();
    let beta_stats = server.tenant_stats("beta").unwrap();
    // Counters count dropped *entries*: the model swap drops alpha's one
    // plan and one memoized result; the table replace then finds nothing
    // left to drop.
    assert_eq!(alpha_stats.plan_cache.invalidations, 1);
    assert_eq!(alpha_stats.result_cache.invalidations, 1);
    assert_eq!(beta_stats.plan_cache.invalidations, 0, "cross-tenant leak");
    assert_eq!(
        beta_stats.result_cache.invalidations, 0,
        "cross-tenant leak"
    );
}

/// Concurrent hot traffic in N tenants with a writer hammering one of
/// them: reader tenants never see an invalidation, a miss after warm-up,
/// or a wrong row count.
#[test]
fn concurrent_tenants_do_not_share_fate() {
    const READER_TENANTS: [&str; 3] = ["r0", "r1", "r2"];
    const QUERIES: usize = 40;
    let server = Arc::new(ServerState::new(ServerConfig::for_tests()));
    for (i, tenant) in READER_TENANTS.iter().enumerate() {
        let rows = 20 + 10 * i as i64;
        populate(
            &server.tenant(tenant).unwrap(),
            rows,
            linear(vec![1.0], 0.0),
        );
    }
    let writer = server.tenant("writer").unwrap();
    populate(&writer, 100, linear(vec![1.0], 0.0));

    let readers: Vec<_> = READER_TENANTS
        .iter()
        .enumerate()
        .map(|(i, tenant)| {
            let server = server.clone();
            std::thread::spawn(move || {
                let expect = (20 + 10 * i as i64 - 11).max(0) as usize;
                let tenant_shard = server.tenant(tenant).unwrap();
                for q in 0..QUERIES {
                    let result = serve(&tenant_shard);
                    assert_eq!(
                        result.table.num_rows(),
                        expect,
                        "tenant {tenant} query {q} saw foreign data"
                    );
                }
            })
        })
        .collect();
    let writer = std::thread::spawn(move || {
        for i in 0..10 {
            writer
                .store_model("m", linear(vec![1.0], i as f64))
                .unwrap();
            serve(&writer);
        }
    });
    for handle in readers {
        handle.join().expect("reader tenant failed");
    }
    writer.join().expect("writer tenant failed");
    for tenant in READER_TENANTS {
        let stats = server.tenant_stats(tenant).unwrap();
        assert_eq!(
            stats.result_cache.invalidations, 0,
            "writer's swaps leaked into {tenant}"
        );
        assert_eq!(stats.plan_cache.preparations, 1, "{tenant} re-prepared");
        assert_eq!(stats.errors, 0);
    }
    // The writer's first swap found an empty cache; each of the other 9
    // dropped the result its preceding execution memoized.
    assert_eq!(
        server
            .tenant_stats("writer")
            .unwrap()
            .result_cache
            .invalidations,
        9,
        "each writer swap invalidates its own entry"
    );
}

/// Quotas bound the noisy tenant in-process too (the TCP version lives
/// in `tenant_net.rs`): with `noisy` holding its whole strict quota,
/// `quiet` keeps being admitted; nothing in `quiet`'s outcome counters
/// ever shows a rejection.
#[test]
fn per_tenant_quota_only_rejects_its_own_tenant() {
    let mut config = ServerConfig::for_tests();
    config.tenant_quota = TenantQuotaConfig::strict(1);
    let server = ServerState::new(config);
    let [noisy, quiet] = ["noisy", "quiet"].map(|t| server.tenant(t).unwrap());
    for tenant in [&noisy, &quiet] {
        populate(tenant, 50, linear(vec![1.0], 0.0));
    }
    let _held = noisy.quota().admit(None).unwrap(); // saturate noisy's quota
    for _ in 0..5 {
        assert!(noisy.serve(Statement::Sql(SQL), None).is_err());
        assert!(quiet.serve(Statement::Sql(SQL), None).is_ok());
    }
    let noisy_stats = server.tenant_stats("noisy").unwrap();
    let quiet_stats = server.tenant_stats("quiet").unwrap();
    assert_eq!(noisy_stats.admission.rejected_overloaded, 5);
    assert_eq!(noisy_stats.admission.admitted, 0);
    assert_eq!(quiet_stats.admission.admitted, 5);
    assert_eq!(quiet_stats.admission.rejected_overloaded, 0);
    assert_eq!(quiet_stats.queries, 5);
}
