//! The reactor's cached-result fast path ([`Tenant::try_serve_cached`]):
//! when it declines, when it commits, and — the contract the wire-level
//! equivalence and stress suites lean on — that a committed fast-path
//! query is counter-for-counter identical to a pooled result-cache hit.

use raven_data::Value;
use raven_datagen::hospital;
use raven_server::{ServerConfig, ServerQueryResult, ServerState, Statement, Tenant};

const POINT_SQL: &str = "SELECT id, age FROM patient_info WHERE id < 16";

fn warm_state() -> ServerState {
    let state = ServerState::new(ServerConfig::default());
    let data = hospital::generate(1_000, 42);
    data.register(state.catalog()).unwrap();
    state
}

/// The inline probe with no deadline and room for any reply.
fn probe(tenant: &Tenant, stmt: Statement<'_>) -> Option<ServerQueryResult> {
    tenant.try_serve_cached(stmt, None, usize::MAX)
}

/// Cold caches decline; a warm result cache commits with the same table
/// the pooled path served, flagged as a double (plan + result) hit.
#[test]
fn fast_path_declines_cold_and_commits_warm() {
    let state = warm_state();
    let tenant = state.default_tenant();
    assert!(
        probe(tenant, Statement::Sql(POINT_SQL)).is_none(),
        "cold caches must decline"
    );
    let warm = tenant.serve(Statement::Sql(POINT_SQL), None).unwrap();
    assert!(!warm.result_cache_hit);
    let fast = probe(tenant, Statement::Sql(POINT_SQL)).expect("warm caches must commit");
    assert!(fast.cache_hit && fast.result_cache_hit);
    assert_eq!(fast.table, warm.table);
}

/// Every counter a pooled result-cache hit would touch moves by exactly
/// the same amount for a committed fast-path query: queries, admitted
/// (both rings), plan hits, result hits. An abandoned probe (here: a
/// reply-size budget of zero bytes) moves nothing.
#[test]
fn fast_path_accounting_matches_pooled_hit() {
    let state = warm_state();
    let tenant = state.default_tenant();
    tenant.serve(Statement::Sql(POINT_SQL), None).unwrap();

    let before = state.stats();
    let quota_before = tenant.quota().stats();
    // Declined probe: max_bytes = 0 can never fit the reply.
    assert!(tenant
        .try_serve_cached(Statement::Sql(POINT_SQL), None, 0)
        .is_none());
    let mid = state.stats();
    assert_eq!(
        mid.queries, before.queries,
        "an abandoned probe must count nothing"
    );
    assert_eq!(mid.admission.admitted, before.admission.admitted);
    assert_eq!(mid.plan_cache.hits, before.plan_cache.hits);
    assert_eq!(mid.result_cache.hits, before.result_cache.hits);

    probe(tenant, Statement::Sql(POINT_SQL)).expect("warm commit");
    let after = state.stats();
    let quota_after = tenant.quota().stats();
    assert_eq!(after.queries, before.queries + 1);
    assert_eq!(after.admission.admitted, before.admission.admitted + 1);
    assert_eq!(after.plan_cache.hits, before.plan_cache.hits + 1);
    assert_eq!(after.result_cache.hits, before.result_cache.hits + 1);
    assert_eq!(after.errors, before.errors);
    assert_eq!(
        quota_after.admitted,
        quota_before.admitted + 1,
        "the tenant ring's admitted counter moves too"
    );
    // Both permits were released: a full pooled serve still succeeds.
    tenant.serve(Statement::Sql(POINT_SQL), None).unwrap();
}

/// The parameterized probe matches templates against the same canonical
/// plan-cache entry the pooled path uses, and declines on an arity
/// mismatch instead of masking the typed error.
#[test]
fn fast_path_params_share_the_pooled_cache_entry() {
    let state = warm_state();
    let tenant = state.default_tenant();
    let template = |params| Statement::Template {
        text: "SELECT id, age FROM patient_info WHERE id < ?",
        params,
    };
    let params = [Value::Int64(16)];
    assert!(probe(tenant, template(&params)).is_none());
    let warm = tenant.serve(template(&params), None).unwrap();
    let fast = probe(tenant, template(&params)).expect("warm params commit");
    assert_eq!(fast.table, warm.table);
    // Wrong arity: decline, so the pooled path can reject it typed.
    assert!(probe(tenant, template(&[])).is_none());
}

/// A literal whose template cannot bind (a `?` in the select list has no
/// inferable type) is served from its literal text: after the first
/// serve the probe commits, and repeats neither miss the plan cache nor
/// re-prepare the doomed template.
#[test]
fn unbindable_template_falls_back_to_the_literal_once() {
    let state = warm_state();
    let tenant = state.default_tenant();
    for sql in [
        "SELECT id, 5 FROM patient_info WHERE id < 16",
        "SELECT id, 'x' AS tag FROM patient_info WHERE id < 16",
    ] {
        let first = tenant.serve(Statement::Sql(sql), None).unwrap();
        let fast = probe(tenant, Statement::Sql(sql)).expect("the literal's entry commits");
        assert_eq!(fast.table, first.table);
        let before = tenant.plan_cache_stats();
        for _ in 0..10 {
            let again = tenant.serve(Statement::Sql(sql), None).unwrap();
            assert!(again.cache_hit && again.result_cache_hit, "{sql}");
        }
        let after = tenant.plan_cache_stats();
        assert_eq!(after.preparations, before.preparations, "{sql}");
        assert_eq!(after.misses, before.misses, "{sql}");
        assert_eq!(after.hits, before.hits + 10, "{sql}");
    }
}

/// An unknown tenant declines rather than being created: probing must
/// never allocate a shard.
#[test]
fn fast_path_never_creates_a_tenant() {
    let state = warm_state();
    assert!(state.try_tenant("ghost").is_none());
    assert!(
        !state.tenants().iter().any(|t| t == "ghost"),
        "a fast-path probe must not create the tenant it probed"
    );
}
