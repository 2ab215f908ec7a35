//! Regression suite for the tensor-session cache: every optimizer-made
//! variant of a stored model must score with its own inference session.
//!
//! Predicate-based pruning turns `delay_lr … WHERE d.dest = '<X>'` into a
//! different translated graph for every airport `X`, and each query's
//! plan — its graph included — is dropped once the query returns. The
//! next query's graph is then often allocated where the last one lived,
//! so a session cache that identified graphs by address would serve one
//! airport's variant for another and return wrong scores. A default
//! session (all rules) must agree with a rules-off session on every
//! airport, round after round.

use raven_core::{RavenSession, SessionConfig};
use raven_datagen::{flights, train};
use raven_opt::RuleSet;

const ROUNDS: usize = 3;
const AIRPORTS: usize = 8;

fn scores(session: &RavenSession, dest: &str) -> Vec<(i64, f64)> {
    let sql = format!(
        "SELECT d.id, p.delayed FROM PREDICT(MODEL = 'delay_lr', DATA = flights AS d) \
         WITH (delayed FLOAT) AS p WHERE d.dest = '{dest}'"
    );
    let table = session.query(&sql).unwrap().table;
    let ids = table.column_by_name("d.id").unwrap().i64_values().unwrap();
    let scores = table
        .column_by_name("p.delayed")
        .unwrap()
        .f64_values()
        .unwrap();
    let mut rows: Vec<(i64, f64)> = ids.iter().copied().zip(scores.iter().copied()).collect();
    rows.sort_by_key(|&(id, _)| id);
    rows
}

#[test]
fn pruned_variants_never_share_a_session() {
    let data = flights::generate(3_000, &flights::FlightParams::default());
    let model = train::flight_logistic(&data, 0.004, 100).unwrap();
    let optimized = RavenSession::new();
    let reference = RavenSession::with_config(SessionConfig {
        rules: RuleSet::none(),
        ..SessionConfig::default()
    });
    for session in [&optimized, &reference] {
        data.register(session.catalog()).unwrap();
        session.store_model("delay_lr", model.clone()).unwrap();
    }
    let airports = &data.airports[..AIRPORTS.min(data.airports.len())];
    let mut wrong = Vec::new();
    for round in 0..ROUNDS {
        for dest in airports {
            let got = scores(&optimized, dest);
            let want = scores(&reference, dest);
            assert_eq!(got.len(), want.len(), "{dest}: row count");
            // The tensor runtime computes in f32, classical scoring in
            // f64: equal up to the last f32 ulp, never by a wrong model.
            let worst = got
                .iter()
                .zip(&want)
                .map(|(&(gi, g), &(wi, w))| {
                    assert_eq!(gi, wi, "{dest}: row ids");
                    (g - w).abs()
                })
                .fold(0.0f64, f64::max);
            if worst > 1e-4 {
                wrong.push(format!("round {round}, {dest}: off by {worst:.4}"));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "{} of {} queries scored with another variant's session:\n{}",
        wrong.len(),
        ROUNDS * airports.len(),
        wrong.join("\n")
    );
    // Every airport's variant got a session of its own.
    let (_, misses) = optimized.scorer_shared().cache_stats();
    assert_eq!(misses as usize, airports.len());
}
