//! Integration tests for parameterized prepared statements: the
//! end-to-end acceptance scenario (a workload of queries differing only
//! in literal constants pays parse → bind → optimize exactly once), the
//! `QueryParams` wire path, and a property test that normalization is
//! result-preserving.

use proptest::prelude::*;
use raven_data::Value;
use raven_datagen::{hospital, train};
use raven_server::{
    NetConfig, RavenClient, RavenServer, Result, ServerConfig, ServerError, ServerQueryResult,
    ServerState, Statement,
};
use std::sync::Arc;
use std::time::Duration;

fn hospital_state(rows: usize, config: ServerConfig) -> Arc<ServerState> {
    let state = Arc::new(ServerState::new(config));
    let data = hospital::generate(rows, 42);
    data.register(state.catalog()).unwrap();
    let model = train::hospital_tree(&data, 6).unwrap();
    state.store_model("duration_of_stay", model).unwrap();
    state
}

fn literal_sql(age: i64, stay: f64) -> String {
    format!(
        "WITH data AS (\
           SELECT * FROM patient_info AS pi \
           JOIN blood_tests AS bt ON pi.id = bt.id \
           JOIN prenatal_tests AS pt ON bt.id = pt.id)\
         SELECT d.id, p.length_of_stay \
         FROM PREDICT(MODEL = 'duration_of_stay', DATA = data AS d) \
         WITH (length_of_stay FLOAT) AS p \
         WHERE d.age > {age} AND p.length_of_stay > {stay}"
    )
}

const TEMPLATE: &str = "\
    WITH data AS (\
      SELECT * FROM patient_info AS pi \
      JOIN blood_tests AS bt ON pi.id = bt.id \
      JOIN prenatal_tests AS pt ON bt.id = pt.id)\
    SELECT d.id, p.length_of_stay \
    FROM PREDICT(MODEL = 'duration_of_stay', DATA = data AS d) \
    WITH (length_of_stay FLOAT) AS p \
    WHERE d.age > ? AND p.length_of_stay > ?";

/// Serve [`TEMPLATE`] with `params` in the default tenant.
fn serve_template(state: &ServerState, params: &[Value]) -> Result<ServerQueryResult> {
    let stmt = Statement::Template {
        text: TEMPLATE,
        params,
    };
    state.default_tenant().serve(stmt, None)
}

fn sorted_ids(table: &raven_data::Table) -> Vec<i64> {
    let mut ids = table
        .column_by_name("d.id")
        .unwrap()
        .i64_values()
        .unwrap()
        .to_vec();
    ids.sort_unstable();
    ids
}

/// The acceptance criterion: N queries that differ ONLY in their literal
/// constants run through one parse → bind → optimize, asserted on the
/// plan-cache counters — and each still sees its own constants.
#[test]
fn constant_workload_optimizes_once() {
    const N: i64 = 40;
    let state = hospital_state(500, ServerConfig::for_tests());
    let mut rows_seen = Vec::new();
    for i in 0..N {
        let sql = literal_sql(20 + i, 4.0 + (i % 7) as f64);
        let result = state.execute(&sql).unwrap();
        rows_seen.push(result.table.num_rows());
    }
    let stats = state.default_tenant().plan_cache_stats();
    assert_eq!(
        stats.preparations, 1,
        "one optimization for {N} constant variants: {stats}"
    );
    assert_eq!(stats.hits, (N - 1) as u64);
    // The template counters tell the same story.
    let snap = state.stats();
    assert_eq!(snap.normalized, N as u64);
    assert_eq!(snap.template_hits, (N - 1) as u64);
    // The constants were not baked in: tighter predicates → fewer rows.
    let loose = state.execute(&literal_sql(20, 0.0)).unwrap();
    let tight = state.execute(&literal_sql(90, 50.0)).unwrap();
    assert!(loose.table.num_rows() > 0);
    assert_eq!(tight.table.num_rows(), 0);
    assert!(loose.table.num_rows() >= rows_seen.iter().copied().max().unwrap());
}

/// Normalization must be result-preserving: the same literal query on a
/// normalizing server and on an exact-text server returns identical
/// rows.
#[test]
fn normalized_results_match_exact_text_results() {
    let normalizing = hospital_state(300, ServerConfig::for_tests());
    let exact = hospital_state(
        300,
        ServerConfig {
            normalize_parameters: false,
            ..ServerConfig::for_tests()
        },
    );
    for (age, stay) in [(20, 4.0), (45, 6.5), (70, 2.0), (30, 7.25)] {
        let sql = literal_sql(age, stay);
        let a = normalizing.execute(&sql).unwrap();
        let b = exact.execute(&sql).unwrap();
        assert_eq!(sorted_ids(&a.table), sorted_ids(&b.table), "{sql}");
    }
    // The exact-text server prepared every distinct text; the
    // normalizing one prepared a single template.
    assert_eq!(
        normalizing.default_tenant().plan_cache_stats().preparations,
        1
    );
    assert_eq!(exact.default_tenant().plan_cache_stats().preparations, 4);
}

/// A fractional literal compared against an Int64 column must survive
/// normalization: the binder types the placeholder Int64 (from the
/// column), the extracted constant is Float64, and substitution keeps
/// the Float64 — identical rows to the literal query.
#[test]
fn fractional_literal_against_int_column_normalizes() {
    let state = hospital_state(300, ServerConfig::for_tests());
    // `pregnant` is Int64; 0.5 and 1 must both work and agree with the
    // non-normalizing baseline.
    for predicate in ["pregnant > 0.5", "pregnant = 1", "pregnant < 0.5"] {
        let sql = format!("SELECT id FROM patient_info WHERE {predicate}");
        let served = state.execute(&sql).unwrap();
        let baseline = state.session().query(&sql).unwrap();
        assert_eq!(
            served.table.num_rows(),
            baseline.table.num_rows(),
            "{predicate}"
        );
        assert!(served.table.num_rows() > 0, "{predicate} matched no rows");
    }
}

/// SQL that already carries `?` placeholders is not re-normalized (the
/// positional indices would scramble against extracted constants), and
/// `prepare` on a hand-written template warms exactly the cache entry a
/// `Statement::Template` serve hits — one preparation total.
#[test]
fn prepare_template_then_query_params_shares_one_entry() {
    let state = hospital_state(300, ServerConfig::for_tests());
    let (hit, _) = {
        let (prepared, hit) = state.prepare(TEMPLATE).unwrap();
        assert_eq!(prepared.param_count, 2);
        (hit, prepared)
    };
    assert!(!hit, "first prepare misses");
    assert_eq!(state.default_tenant().plan_cache_stats().preparations, 1);
    let reply = serve_template(&state, &[Value::Int64(30), Value::Float64(5.0)]).unwrap();
    assert!(reply.cache_hit, "QueryParams hits the prepared entry");
    assert_eq!(
        state.default_tenant().plan_cache_stats().preparations,
        1,
        "no second optimization"
    );
}

/// A `Statement::Template` serve (the `QueryParams` path, minus the
/// socket): template + typed values, with typed arity/type errors.
#[test]
fn serve_with_params_validates_arity_and_types() {
    let state = hospital_state(300, ServerConfig::for_tests());
    let ok = serve_template(&state, &[Value::Int64(30), Value::Float64(5.0)]).unwrap();
    let literal = state.execute(&literal_sql(30, 5.0)).unwrap();
    assert_eq!(sorted_ids(&ok.table), sorted_ids(&literal.table));

    // Wrong arity: typed BadRequest, counted as an error.
    let err = serve_template(&state, &[Value::Int64(30)]).unwrap_err();
    assert!(
        matches!(&err, ServerError::BadRequest(m) if m.contains("2 parameter")),
        "{err}"
    );
    // Wrong type: Utf8 into a Float64 slot.
    let err = serve_template(&state, &[Value::Utf8("x".into()), Value::Float64(5.0)]).unwrap_err();
    assert!(matches!(err, ServerError::Execution(_)), "{err}");
}

/// The full wire path: `QueryParams` over TCP returns results identical
/// to the equivalent literal query, sharing one prepared template.
#[test]
fn query_params_over_tcp_matches_literal_query() {
    let state = hospital_state(400, ServerConfig::for_tests());
    let server = RavenServer::bind(
        state,
        NetConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            max_connections: 8,
            poll_interval: Duration::from_millis(20),
            ..NetConfig::default()
        },
    )
    .unwrap();
    let mut client = RavenClient::connect(server.local_addr()).unwrap();

    for (age, stay) in [(25i64, 4.0f64), (40, 6.0), (65, 3.5)] {
        let literal = client.query(&literal_sql(age, stay)).unwrap();
        let parameterized = client
            .query_params(
                TEMPLATE,
                vec![Value::Int64(age), Value::Float64(stay)],
                Some(Duration::from_secs(30)),
            )
            .unwrap();
        assert_eq!(
            sorted_ids(&literal.table),
            sorted_ids(&parameterized.table),
            "age > {age}, stay > {stay}"
        );
    }
    // Everything after the very first request rode the same template.
    let stats = client.stats().unwrap();
    assert_eq!(stats.preparations, 1, "{stats:?}");
    assert_eq!(stats.normalized, 3, "one per literal query");
    // Arity errors arrive as typed BadRequest frames.
    let err = client
        .query_params(TEMPLATE, vec![Value::Int64(30)], None)
        .unwrap_err();
    assert!(matches!(err, ServerError::BadRequest(_)), "{err}");
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: for random constants, the normalized (template +
    /// params) execution returns exactly the rows of the original
    /// constant query executed without any normalization or caching.
    #[test]
    fn normalization_roundtrips_to_literal_results(
        age in 15i64..90,
        stay in 0.0f64..10.0,
    ) {
        let state = hospital_state(200, ServerConfig::for_tests());
        let sql = literal_sql(age, stay);
        // Baseline: the plain session path (no cache, no normalization).
        let baseline = state.session().query(&sql).unwrap();
        // Normalized serving path.
        let served = state.execute(&sql).unwrap();
        prop_assert_eq!(sorted_ids(&baseline.table), sorted_ids(&served.table));
        // Explicit template path.
        let explicit = serve_template(&state, &[Value::Int64(age), Value::Float64(stay)])
            .unwrap();
        prop_assert_eq!(sorted_ids(&baseline.table), sorted_ids(&explicit.table));
    }
}
