//! Prediction serving: one shared `ServerState`, many client threads.
//!
//! Run with `cargo run --release --example serving`. Builds the paper's
//! hospital workload, trains a length-of-stay model, then serves it two
//! ways at once:
//!
//! * SQL inference queries from 4 concurrent analyst threads — the
//!   prepared-plan cache makes parse → bind → optimize a one-time cost;
//! * single-row point lookups from 4 concurrent application threads —
//!   the micro-batcher coalesces them into batched scorer calls;
//! * the same state behind the framed-TCP front end, queried over a real
//!   socket by `RavenClient` (with a deliberately overloaded request to
//!   show the typed admission-control rejection);
//! * template-shaped traffic: queries differing only in their constants
//!   share one prepared plan (transparently via normalization, and
//!   explicitly via `query_params`);
//! * multi-tenant namespaces: two tenants holding a model with the
//!   *same name* but different parameters, each served its own results
//!   over the same socket (`RavenClient::for_tenant`), with
//!   a model swap in one tenant invalidating nothing in the other;
//! * deterministic result caching: an exact repeat (same plan, same
//!   constants, same model/table versions) skips execution entirely, and
//!   a model update invalidates the memoized rows;
//! * observability over the wire: Prometheus-style metrics and the
//!   slow-query log (the `Metrics` / `Traces` frames), with the
//!   slowest request's per-stage span-tree breakdown printed the way an
//!   operator would read it during an incident.

use raven_data::Value;
use raven_datagen::{hospital, train};
use raven_server::{BatchConfig, NetConfig, RavenClient, RavenServer, ServerConfig, ServerState};
use std::sync::Arc;
use std::time::Duration;

/// A one-feature linear model `score = w · x0` — enough to make two
/// tenants' same-named models visibly different.
fn linear_model(w: f64) -> raven_ml::Pipeline {
    use raven_ml::featurize::Transform;
    use raven_ml::{Estimator, FeatureStep, LinearKind, LinearModel, Pipeline};
    Pipeline::new(
        vec![FeatureStep::new("x0", Transform::Identity)],
        Estimator::Linear(LinearModel::new(vec![w], 0.0, LinearKind::Regression).unwrap()),
    )
    .unwrap()
}

const SQL: &str = "\
    WITH data AS (\
      SELECT * FROM patient_info AS pi \
      JOIN blood_tests AS bt ON pi.id = bt.id \
      JOIN prenatal_tests AS pt ON bt.id = pt.id)\
    SELECT d.id, p.length_of_stay \
    FROM PREDICT(MODEL = 'duration_of_stay', DATA = data AS d) \
    WITH (length_of_stay FLOAT) AS p \
    WHERE d.pregnant = 1 AND p.length_of_stay > 6";

fn main() {
    // 1. Stand up the server: catalog + model store behind one Arc.
    // Trace every request (instead of the production 1-in-64 default)
    // and call anything over 2 ms slow, so the forensics section below
    // has a guaranteed span tree to show.
    let config = ServerConfig {
        trace_sample_rate: 1,
        slow_query_threshold: std::time::Duration::from_millis(2),
        ..ServerConfig::default()
    };
    let server = Arc::new(ServerState::new(config));
    let data = hospital::generate(20_000, 42);
    data.register(server.catalog()).expect("register tables");
    let model = train::hospital_tree(&data, 6).expect("train model");

    // Keep the encoded feature columns around for point lookups.
    let joined = data.joined_batch();
    let columns: Vec<Vec<f64>> = model
        .steps()
        .iter()
        .map(|step| {
            let col = joined.column_by_name(&step.column).expect("column");
            step.transform.encode_raw(col).expect("encode")
        })
        .collect();
    server
        .store_model("duration_of_stay", model)
        .expect("store model");

    // 2. Four analyst threads running the same SQL inference query.
    let analysts: Vec<_> = (0..4)
        .map(|t| {
            let server = server.clone();
            std::thread::spawn(move || {
                for i in 0..10 {
                    let result = server.execute(SQL).expect("query");
                    if t == 0 && i == 0 {
                        println!(
                            "first query: {} rows in {:.2} ms (prepared in {:.2} ms, \
                             cache hit: {})",
                            result.table.num_rows(),
                            result.total_time.as_secs_f64() * 1e3,
                            result.prepared.prepare_time.as_secs_f64() * 1e3,
                            result.cache_hit,
                        );
                    }
                }
            })
        })
        .collect();

    // 3. Four application threads scoring individual patients.
    let apps: Vec<_> = (0..4)
        .map(|t| {
            let server = server.clone();
            let columns = columns.clone();
            std::thread::spawn(move || {
                for i in 0..50 {
                    let patient = (t * 1_000 + i * 37) % 20_000;
                    let row: Vec<f64> = columns.iter().map(|c| c[patient]).collect();
                    let stay = server
                        .default_tenant()
                        .score("duration_of_stay", row, None)
                        .expect("point score");
                    assert!(stay.is_finite());
                }
            })
        })
        .collect();

    for h in analysts.into_iter().chain(apps) {
        h.join().expect("client thread");
    }

    // 4. The same state over the wire: framed TCP on an ephemeral port.
    let net = RavenServer::bind(server.clone(), NetConfig::default()).expect("bind listener");
    let addr = net.local_addr();
    let mut client = RavenClient::connect(addr).expect("connect");
    let reply = client.query(SQL).expect("network query");
    println!(
        "\nover TCP ({addr}): {} rows, cache hit: {}, server time {:.2} ms",
        reply.table.num_rows(),
        reply.cache_hit,
        reply.server_time.as_secs_f64() * 1e3,
    );
    // A query that cannot meet its deadline comes back typed, not stuck.
    match client.query_with_deadline(SQL, Some(std::time::Duration::from_micros(1))) {
        Err(e) => println!("1 µs deadline: {e}"),
        Ok(_) => println!("1 µs deadline: served (machine faster than the example expected)"),
    }
    // 5. Parameterized prepared statements: production traffic differs
    // only in constants, and all of it rides one prepared template plan.
    let before = server.default_tenant().plan_cache_stats().preparations;
    for stay in [2.0, 4.0, 6.0, 8.0] {
        let reply = client
            .query_params(
                "WITH data AS (\
                   SELECT * FROM patient_info AS pi \
                   JOIN blood_tests AS bt ON pi.id = bt.id \
                   JOIN prenatal_tests AS pt ON bt.id = pt.id)\
                 SELECT d.id, p.length_of_stay \
                 FROM PREDICT(MODEL = 'duration_of_stay', DATA = data AS d) \
                 WITH (length_of_stay FLOAT) AS p \
                 WHERE d.pregnant = 1 AND p.length_of_stay > ?",
                vec![Value::Float64(stay)],
                None,
            )
            .expect("parameterized query");
        println!(
            "stay > {stay}: {} rows (cache hit: {})",
            reply.table.num_rows(),
            reply.cache_hit
        );
    }
    let after = server.default_tenant().plan_cache_stats().preparations;
    println!(
        "4 distinct constants cost {} optimization(s)",
        after - before
    );

    // 6. Multi-tenant serving over the same socket: two teams, one
    // model *name*, different parameters — every frame carries the
    // tenant, and each team reads only its own namespace.
    for (tenant, weight) in [("team-a", 1.0), ("team-b", 100.0)] {
        let team = server.tenant(tenant).expect("tenant");
        team.register_table(
            "readings",
            raven_data::Table::try_new(
                raven_data::Schema::from_pairs(&[("x0", raven_data::DataType::Float64)])
                    .into_shared(),
                vec![raven_data::Column::Float64(vec![1.0, 2.0, 3.0])],
            )
            .expect("tenant table"),
        )
        .expect("register tenant table");
        team.store_model("scorer", linear_model(weight))
            .expect("store tenant model");
    }
    let tenant_sql =
        "SELECT p.s FROM PREDICT(MODEL = 'scorer', DATA = readings AS d) WITH (s FLOAT) AS p";
    println!();
    for tenant in ["team-a", "team-b"] {
        let mut tenant_client = RavenClient::connect(addr)
            .expect("connect")
            .for_tenant(tenant);
        let reply = tenant_client.query(tenant_sql).expect("tenant query");
        let first = reply
            .table
            .batch()
            .columns()
            .first()
            .and_then(|c| match c.as_ref() {
                raven_data::Column::Float64(v) => v.first().copied(),
                _ => None,
            })
            .unwrap_or(f64::NAN);
        println!("tenant {tenant}: model 'scorer' scores row 0 at {first}");
    }
    // A swap in team-a invalidates nothing in team-b (per-tenant
    // counters over the wire prove it).
    server
        .tenant("team-a")
        .and_then(|team| team.store_model("scorer", linear_model(7.0)))
        .expect("swap team-a");
    let mut observer = RavenClient::connect(addr).expect("connect");
    let a = observer.stats_for("team-a").expect("stats team-a");
    let b = observer.stats_for("team-b").expect("stats team-b");
    println!(
        "after team-a's swap: team-a invalidations = {}, team-b invalidations = {}",
        a.result_invalidations, b.result_invalidations,
    );

    // 7. Observability over the wire: the unified metrics
    // registry as Prometheus-style text, and the slow-query log with its
    // per-stage latency breakdown.
    let metrics = observer.metrics_aggregate().expect("metrics frame");
    println!("\n-- metrics (aggregate, selected series) --");
    for line in metrics.lines().filter(|l| {
        l.starts_with("raven_queries_total")
            || l.starts_with("raven_template_hits_total")
            || l.starts_with("raven_plan_cache_hits_total")
            || l.starts_with("raven_result_cache_hits_total")
            || l.starts_with("raven_batcher_batches_total")
    }) {
        println!("{line}");
    }
    let slow = observer.slow_queries_for("", 16).expect("slow-query frame");
    println!(
        "\n-- slow-query log: {} request(s) over 2 ms --",
        slow.len()
    );
    if let Some(worst) = slow.iter().max_by_key(|t| t.total_us) {
        let staged: u64 = worst.stage_total_us();
        println!(
            "slowest request ({} µs total, {} µs across {} recorded stages):",
            worst.total_us,
            staged,
            worst.spans.len(),
        );
        println!("{}", worst.render());
    }
    net.shutdown();

    // 8. Deterministic result caching: the repeat path is a hash lookup.
    // A constant not used above, so the first execution is genuinely cold.
    let cold_sql = SQL.replace("> 6", "> 7.5");
    let cold = server.execute(&cold_sql).expect("cold query");
    let warm = server.execute(&cold_sql).expect("warm repeat");
    assert!(!cold.result_cache_hit && warm.result_cache_hit);
    println!(
        "\nresult cache: cold execution {:.3} ms, exact repeat {:.3} ms \
         (result hit: {})",
        cold.total_time.as_secs_f64() * 1e3,
        warm.total_time.as_secs_f64() * 1e3,
        warm.result_cache_hit,
    );
    // A model update retires the memoized rows — the next query executes.
    let retrained = train::hospital_tree(&data, 5).expect("retrain");
    server
        .store_model("duration_of_stay", retrained)
        .expect("transactional update");
    let fresh = server.execute(SQL).expect("post-update query");
    println!(
        "after a model update the repeat re-executes (result hit: {}), {}",
        fresh.result_cache_hit,
        server.default_tenant().result_cache_stats(),
    );

    // 9. SLO-aware micro-batching: a dedicated tenant on the adaptive
    // policy. Each point score carries a deadline; the batcher admits
    // or sheds against its measured cost EWMAs and re-sizes the flush
    // window live — printed here straight from the policy's own
    // `batcher_window_us` gauge.
    let edge = server
        .tenant_with_batch(
            "edge",
            BatchConfig::adaptive(64, Duration::ZERO, Duration::from_millis(2)),
        )
        .expect("edge tenant");
    edge.store_model("risk", linear_model(3.0))
        .expect("edge model");
    println!("\n-- adaptive micro-batching (tenant 'edge', window chosen live) --");
    for (label, deadline) in [
        ("no deadline     ", None),
        ("roomy 20 ms SLO ", Some(Duration::from_millis(20))),
        ("hopeless 0 ns SLO", Some(Duration::ZERO)),
    ] {
        let burst: Vec<_> = (0..8)
            .map(|t| {
                let edge = edge.clone();
                std::thread::spawn(move || {
                    let mut ok = 0usize;
                    let mut rejected = 0usize;
                    for i in 0..8 {
                        match edge.score("risk", vec![(t * 8 + i) as f64], deadline) {
                            Ok(_) => ok += 1,
                            Err(_) => rejected += 1,
                        }
                    }
                    (ok, rejected)
                })
            })
            .collect();
        let (mut ok, mut rejected) = (0, 0);
        for h in burst {
            let (o, r) = h.join().expect("edge scorer");
            ok += o;
            rejected += r;
        }
        let stats = edge.batcher_stats();
        println!(
            "{label}: {ok} scored / {rejected} rejected typed; \
             chosen window {:.1} µs (EWMA cost: invocation {:.1} µs, row {:.2} µs); \
             totals: {} shed, {} expired",
            stats.window_micros,
            stats.ewma_invocation_micros,
            stats.ewma_row_micros,
            stats.shed,
            stats.expired,
        );
    }

    // 10. What the server measured.
    println!("\n-- server stats --\n{}", server.stats());
}
