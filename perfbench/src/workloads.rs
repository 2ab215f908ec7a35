//! What each workload sets up and sends: seeded data, trained models,
//! the hosted program (a `RavenSession`, or a `ServerState` behind a
//! `RavenServer` on loopback, both at their default configuration), the
//! request pool, and the oracle every reply is checked against.
//!
//! Everything here is a function of `(workload, seed, scale)`; the
//! program only ever sees generated inputs.

use crate::oracle::{
    oracle_session, score_all, ExecCheck, Expected, HospitalOracle, APPROX_TOL, HOSPITAL_CTE, TOP_K,
};
use crate::spec;
use rand::{Rng, SeedableRng, StdRng};
use raven_core::{RavenSession, SessionConfig};
use raven_data::{RecordBatch, Table};
use raven_datagen::flights::{self, FlightData, FlightParams};
use raven_datagen::hospital::{self, HospitalData};
use raven_datagen::train;
use raven_ml::Pipeline;
use raven_server::{NetConfig, RavenServer, ServerConfig, ServerState};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// The generator behind stream `stream` of `seed`, so a request
/// sequence depends on nothing but the seed. Seed and stream are each
/// scrambled before they are combined: `StdRng` (SplitMix64) walks its
/// state in equal steps, so states that differ by a small sum or xor
/// would yield the same sequence, shifted.
pub fn stream_rng(seed: u64, stream: u64) -> StdRng {
    let scramble = |x: u64| StdRng::seed_from_u64(x).next_u64();
    StdRng::seed_from_u64(scramble(seed) ^ scramble(!stream).rotate_left(32))
}

/// Exponential inter-arrival gap of a Poisson process at `rate_hz`.
pub fn exp_gap(rng: &mut StdRng, rate_hz: f64) -> Duration {
    // `gen` is uniform in [0, 1); the logarithm wants (0, 1].
    Duration::from_secs_f64(-(1.0 - rng.gen::<f64>()).ln() / rate_hz)
}

/// `count` distinct integers of `lo..hi`, in seeded order.
fn distinct(rng: &mut StdRng, lo: i64, hi: i64, count: usize) -> Vec<i64> {
    let mut all: Vec<i64> = (lo..hi).collect();
    assert!(
        count <= all.len(),
        "range too small for {count} distinct values"
    );
    for i in 0..count {
        let j = rng.gen_range(i..all.len());
        all.swap(i, j);
    }
    all.truncate(count);
    all
}

/// Table sizes. The committed sizes are `full`; `quick` exists so the
/// schema test finishes in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rows of each `batch_infer` table (hospital ×3, flights).
    pub batch_rows: usize,
    /// Rows of the hospital tables behind the wire workloads.
    pub serve_rows: usize,
    /// Rows models are trained on (same generator, [`TRAIN_SEED`]).
    pub train_rows: usize,
    /// Distinct feature rows `point_score` draws from.
    pub score_rows: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        batch_rows: 30_000,
        serve_rows: 10_000,
        train_rows: 5_000,
        score_rows: 4_096,
    };
    pub const QUICK: Scale = Scale {
        batch_rows: 1_000,
        serve_rows: 2_000,
        train_rows: 1_000,
        score_rows: 512,
    };
}

/// Seed of the data every model is trained on. Fixed, so that `--seed`
/// varies what the models are asked (tables, constants, order, arrival
/// times) but not the models themselves: a tree's shape decides how
/// much work a query is, and ten seeds should measure one program.
pub const TRAIN_SEED: u64 = 42;

pub const TREE: &str = "stay_tree";
pub const FOREST: &str = "stay_forest";
pub const MLP: &str = "long_stay_mlp";
pub const LINEAR: &str = "delay_lr";

fn predict_sql(model: &str, tail: &str) -> String {
    format!(
        "{HOSPITAL_CTE}SELECT d.id, p.stay FROM PREDICT(MODEL = '{model}', DATA = data AS d) \
         WITH (stay FLOAT) AS p {tail}"
    )
}

fn rel_agg_sql(age: &str) -> String {
    format!(
        "SELECT pi.gender, COUNT(*) AS n, AVG(bt.glucose) AS g FROM patient_info AS pi \
         JOIN blood_tests AS bt ON pi.id = bt.id WHERE pi.age > {age} GROUP BY pi.gender"
    )
}

/// Two-decimal constant in `[lo, hi)`, as the text the SQL carries and
/// the value that text parses to.
fn two_decimals(rng: &mut StdRng, lo: i64, hi: i64) -> (String, f64) {
    let text = cents(rng.gen_range(lo * 100..hi * 100));
    let value = text.parse().expect("two-decimal literal");
    (text, value)
}

// ---------------------------------------------------------------------
// batch_infer

/// One named ad-hoc analytical query with its oracle result.
pub struct BatchQuery {
    pub name: &'static str,
    pub sql: String,
    pub expected: Expected,
}

pub struct BatchFixture {
    /// Default `SessionConfig`: all rules, morsel-parallel.
    pub session: RavenSession,
    pub queries: Vec<BatchQuery>,
    pub hospital: HospitalData,
    pub flights: FlightData,
}

impl BatchFixture {
    pub fn build(seed: u64, scale: Scale) -> BatchFixture {
        let mut rng = stream_rng(seed, 1);
        let hospital = hospital::generate(scale.batch_rows, seed);
        let flight_params = |seed| FlightParams {
            seed,
            ..FlightParams::default()
        };
        let flights = flights::generate(scale.batch_rows, &flight_params(seed));
        let session = RavenSession::with_config(SessionConfig::default());
        hospital
            .register(session.catalog())
            .expect("register hospital");
        flights
            .register(session.catalog())
            .expect("register flights");

        let train_h = hospital::generate(scale.train_rows, TRAIN_SEED);
        let train_f = flights::generate(scale.train_rows, &flight_params(TRAIN_SEED));
        let store = |name, model: raven_ml::Result<Pipeline>| {
            session
                .store_model(name, model.expect("train"))
                .expect("store model");
        };
        store(TREE, train::hospital_tree(&train_h, 8));
        store(FOREST, train::hospital_forest(&train_h, 48, 8));
        store(MLP, train::hospital_mlp(&train_h, vec![32, 16], 5));
        store(LINEAR, train::flight_logistic(&train_f, 0.004, 100));

        let dest = &flights.airports[rng.gen_range(0..flights.airports.len())];
        let (mlp_age, _) = two_decimals(&mut rng, 48, 52);
        let (rel_age, _) = two_decimals(&mut rng, 38, 42);
        let sqls: [(&str, String, f64); 5] = [
            (
                spec::BATCH_QUERIES[0],
                predict_sql(TREE, "WHERE d.pregnant = 1 AND p.stay > 6"),
                0.0,
            ),
            (
                spec::BATCH_QUERIES[1],
                predict_sql(FOREST, "WHERE p.stay > 4"),
                0.0,
            ),
            (
                spec::BATCH_QUERIES[2],
                predict_sql(MLP, &format!("WHERE d.age > {mlp_age}")),
                APPROX_TOL,
            ),
            (
                spec::BATCH_QUERIES[3],
                format!(
                    "SELECT d.id, p.delayed FROM PREDICT(MODEL = '{LINEAR}', DATA = flights AS d) \
                     WITH (delayed FLOAT) AS p WHERE d.dest = '{dest}'"
                ),
                APPROX_TOL,
            ),
            (spec::BATCH_QUERIES[4], rel_agg_sql(&rel_age), APPROX_TOL),
        ];
        let oracle = oracle_session(session.catalog_shared(), session.store_shared());
        let queries = sqls
            .into_iter()
            .map(|(name, sql, tol)| {
                let table = oracle.query(&sql).expect("oracle query").table;
                BatchQuery {
                    name,
                    expected: Expected::from_table(&table, tol),
                    sql,
                }
            })
            .collect();
        BatchFixture {
            session,
            queries,
            hospital,
            flights,
        }
    }
}

// ---------------------------------------------------------------------
// serve_exec / serve_hot / serve_churn

/// How a reply to a pooled query is judged.
pub enum Check {
    /// The oracle session executed this exact query before warm-up.
    Fixed(Expected),
    /// A `serve_exec` template instance, re-evaluated per reply.
    Exec(ExecCheck),
}

pub struct PoolQuery {
    pub sql: String,
    pub check: Check,
    /// Index into [`spec::EXEC_TEMPLATES`] (`serve_exec`) or the hot
    /// shape number.
    pub template: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    Exec,
    Hot,
    Churn,
}

/// Distinct `serve_exec` queries per template: 4 × 2 048 = 32× the
/// default `result_cache_capacity` of 256.
pub const EXEC_POOL_PER_TEMPLATE: usize = 2048;
/// Distinct queries of `serve_hot` / `serve_churn`: 4 shapes × 8.
pub const HOT_POOL_PER_SHAPE: usize = 8;

/// A server on loopback plus what the load generator sends to it.
pub struct ServeFixture {
    pub state: Arc<ServerState>,
    /// Shuts down and joins its threads when the fixture drops.
    _server: RavenServer,
    pub addr: SocketAddr,
    pub pool: Vec<PoolQuery>,
    pub oracle: HospitalOracle,
    pub hospital: HospitalData,
    pub tree: Pipeline,
    pub forest: Pipeline,
}

/// `ServerConfig::default()` but for the one switch the method needs:
/// end-to-end numbers are taken with tracing off, per-stage numbers from
/// a separate run that traces every request.
pub fn server_config(traced: bool) -> ServerConfig {
    ServerConfig {
        trace_sample_rate: traced as u32,
        ..ServerConfig::default()
    }
}

fn start_server(state: &Arc<ServerState>) -> (RavenServer, SocketAddr) {
    let server = RavenServer::bind(state.clone(), NetConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    (server, addr)
}

impl ServeFixture {
    pub fn build(kind: ServeKind, seed: u64, scale: Scale, traced: bool) -> ServeFixture {
        let mut rng = stream_rng(seed, 2);
        let hospital = hospital::generate(scale.serve_rows, seed);
        let train_h = hospital::generate(scale.train_rows, TRAIN_SEED);
        let tree = train::hospital_tree(&train_h, 8).expect("train tree");
        let forest = train::hospital_forest(&train_h, 16, 6).expect("train forest");
        let state = Arc::new(ServerState::new(server_config(traced)));
        hospital
            .register(state.catalog())
            .expect("register hospital");
        state.store_model(TREE, tree.clone()).expect("store tree");
        state
            .store_model(FOREST, forest.clone())
            .expect("store forest");

        let oracle_sess = tenant_oracle(&state);
        let oracle = HospitalOracle::build(&hospital, &oracle_sess, TREE, FOREST);
        let pool = match kind {
            ServeKind::Exec => exec_pool(&mut rng, &oracle, &oracle_sess),
            ServeKind::Hot | ServeKind::Churn => hot_pool(&mut rng, scale, &oracle_sess),
        };
        let (server, addr) = start_server(&state);
        ServeFixture {
            state,
            _server: server,
            addr,
            pool,
            oracle,
            hospital,
            tree,
            forest,
        }
    }

    /// Whether `table` is a correct reply to pool entry `index`.
    pub fn verify(&self, index: usize, table: &Table) -> bool {
        match &self.pool[index].check {
            Check::Fixed(expected) => expected.matches(table),
            Check::Exec(check) => self.oracle.verify(*check, table),
        }
    }

    /// The `n`-th write `serve_churn` issues beside its reads: the same
    /// pipeline stored again (a new version — dependent plans, kernels
    /// and results are dropped), tree and forest alternating, every 8th
    /// write replacing `patient_info` with the same rows instead.
    pub fn churn_write(&self, n: u64) {
        if n % 8 == 7 {
            self.state
                .replace_table("patient_info", self.hospital.patient_info.clone());
        } else if n.is_multiple_of(2) {
            self.state
                .store_model(TREE, self.tree.clone())
                .expect("store tree");
        } else {
            self.state
                .store_model(FOREST, self.forest.clone())
                .expect("store forest");
        }
    }
}

/// The oracle session over the server's default tenant.
fn tenant_oracle(state: &ServerState) -> RavenSession {
    let session = state.session();
    oracle_session(session.catalog_shared(), session.store_shared())
}

/// One `serve_exec` query: template number (index into
/// [`spec::EXEC_TEMPLATES`]), its age constant and — for the forest-range
/// template only — its blood-pressure constant, as SQL text.
pub fn exec_query(template: usize, age: &str, bp: &str) -> (String, ExecCheck) {
    let value = |text: &str| -> f64 { text.parse().expect("numeric literal") };
    match template {
        0 => (
            predict_sql(TREE, &format!("WHERE d.pregnant = 1 AND d.age > {age}")),
            ExecCheck::TreeFilter { age: value(age) },
        ),
        1 => (
            predict_sql(FOREST, &format!("WHERE d.age > {age} AND d.bp < {bp}")),
            ExecCheck::ForestRange {
                age: value(age),
                bp: value(bp),
            },
        ),
        2 => (
            predict_sql(
                TREE,
                &format!("WHERE d.age > {age} ORDER BY p.stay DESC LIMIT {TOP_K}"),
            ),
            ExecCheck::TreeTopK { age: value(age) },
        ),
        3 => (rel_agg_sql(age), ExecCheck::RelAgg { age: value(age) }),
        other => panic!("serve_exec has four templates, not {other}"),
    }
}

/// Constant ranges `[lo, hi)` of each template's age (and the forest
/// template's blood pressure). They keep the tree-filter and
/// forest-range replies large — the forest one above
/// `NetConfig::chunk_rows` = 1 024 rows at the committed table size, so
/// it streams in several chunks — and the other two at ≤ 10 rows.
pub const EXEC_AGE_RANGES: [(i64, i64); 4] = [(18, 40), (40, 60), (18, 78), (18, 78)];
pub const EXEC_BP_RANGE: (i64, i64) = (130, 160);

fn cents(value: i64) -> String {
    format!("{}.{:02}", value / 100, value % 100)
}

fn exec_pool(
    rng: &mut StdRng,
    oracle: &HospitalOracle,
    oracle_sess: &RavenSession,
) -> Vec<PoolQuery> {
    let n = EXEC_POOL_PER_TEMPLATE;
    let mut per_template = Vec::with_capacity(4);
    for (template, (lo, hi)) in EXEC_AGE_RANGES.into_iter().enumerate() {
        // Every query of a template is distinct: the forest template by
        // its blood-pressure constant, the others by their age.
        let queries: Vec<(String, ExecCheck)> = if template == 1 {
            distinct(rng, EXEC_BP_RANGE.0 * 100, EXEC_BP_RANGE.1 * 100, n)
                .into_iter()
                .map(|bp| exec_query(template, &two_decimals(rng, lo, hi).0, &cents(bp)))
                .collect()
        } else {
            distinct(rng, lo * 100, hi * 100, n)
                .into_iter()
                .map(|age| exec_query(template, &cents(age), ""))
                .collect()
        };
        // The re-evaluated oracle is itself checked against the oracle
        // session on the first instance of every template.
        let (sql, check) = &queries[0];
        let table = oracle_sess.query(sql).expect("oracle query").table;
        assert!(
            oracle.verify(*check, &table),
            "derived oracle disagrees with the oracle session on {sql}"
        );
        per_template.push(queries);
    }
    // Interleaved, so any stretch of the pool mixes the four templates.
    let mut pool = Vec::with_capacity(4 * n);
    for i in 0..n {
        for (template, queries) in per_template.iter().enumerate() {
            let (sql, check) = queries[i].clone();
            pool.push(PoolQuery {
                sql,
                check: Check::Exec(check),
                template,
            });
        }
    }
    pool
}

/// One integer from each of `count` equal strata of `lo..hi`: seeded,
/// distinct, and with a sum that hardly varies from seed to seed.
fn stratified(rng: &mut StdRng, lo: i64, hi: i64, count: usize) -> Vec<i64> {
    let width = (hi - lo) / count as i64;
    assert!(width >= 1, "range too small for {count} strata");
    (0..count as i64)
        .map(|i| rng.gen_range(lo + i * width..lo + (i + 1) * width))
        .collect()
}

fn hot_pool(rng: &mut StdRng, scale: Scale, oracle_sess: &RavenSession) -> Vec<PoolQuery> {
    let n = HOT_POOL_PER_SHAPE;
    // Every reply carries at most 64 rows. `id < k` replies with k rows,
    // so k is stratified: the bytes a hit moves (and with them the hit
    // latency, ±10 % when k was drawn freely) are the same for every seed.
    let max_id = 65.min(scale.serve_rows as i64);
    let mut pool = Vec::with_capacity(4 * n);
    let shapes: [(Vec<String>, f64); 4] = [
        (
            stratified(rng, 8, max_id, n)
                .iter()
                .map(|k| format!("SELECT id, age FROM patient_info WHERE id < {k}"))
                .collect(),
            0.0,
        ),
        (
            stratified(rng, 8, max_id, n)
                .iter()
                .map(|k| predict_sql(TREE, &format!("WHERE d.id < {k}")))
                .collect(),
            0.0,
        ),
        (
            stratified(rng, 8, max_id, n)
                .iter()
                .map(|k| predict_sql(FOREST, &format!("WHERE d.id < {k}")))
                .collect(),
            0.0,
        ),
        (
            distinct(rng, 1800, 7800, n)
                .iter()
                .map(|c| rel_agg_sql(&cents(*c)))
                .collect(),
            APPROX_TOL,
        ),
    ];
    for (template, (sqls, tol)) in shapes.into_iter().enumerate() {
        for sql in sqls {
            let table = oracle_sess.query(&sql).expect("oracle query").table;
            pool.push(PoolQuery {
                check: Check::Fixed(Expected::from_table(&table, tol)),
                sql,
                template,
            });
        }
    }
    pool
}

// ---------------------------------------------------------------------
// point_score

/// Models `point_score` mixes, 3 cheap tree requests to 1 MLP.
pub const SCORE_MODELS: [&str; 2] = [TREE, MLP];

pub struct ScoreFixture {
    pub state: Arc<ServerState>,
    /// Shuts down and joins its threads when the fixture drops.
    _server: RavenServer,
    pub addr: SocketAddr,
    /// Raw (encoded) feature rows, one per pooled patient.
    pub rows: Vec<Vec<f64>>,
    /// Oracle score of every pooled row, per model of [`SCORE_MODELS`].
    pub expected: [Vec<f64>; 2],
    pub models: [Pipeline; 2],
    /// The pooled patients as one batch (what the rows were encoded from).
    pub batch: RecordBatch,
}

impl ScoreFixture {
    pub fn build(seed: u64, scale: Scale, traced: bool) -> ScoreFixture {
        let hospital = hospital::generate(scale.score_rows, seed);
        let train_h = hospital::generate(scale.train_rows, TRAIN_SEED);
        let tree = train::hospital_tree(&train_h, 8).expect("train tree");
        let mlp = train::hospital_mlp(&train_h, vec![32, 16], 5).expect("train mlp");
        let state = Arc::new(ServerState::new(server_config(traced)));
        hospital
            .register(state.catalog())
            .expect("register hospital");
        state.store_model(TREE, tree.clone()).expect("store tree");
        state.store_model(MLP, mlp.clone()).expect("store mlp");

        let joined = hospital.joined_batch();
        let width = tree.steps().len();
        let raw = tree.encode_inputs(&joined).expect("encode rows");
        let rows = raw.chunks(width).map(<[f64]>::to_vec).collect();
        let oracle_sess = tenant_oracle(&state);
        let expected = [TREE, MLP].map(|model| score_all(&oracle_sess, model, hospital.len()));
        let (server, addr) = start_server(&state);
        ScoreFixture {
            state,
            _server: server,
            addr,
            rows,
            expected,
            models: [tree, mlp],
            batch: joined,
        }
    }

    /// Whether `value` is the right score of pooled row `row` under
    /// model `model` (bitwise for the tree; the MLP within tolerance).
    pub fn verify(&self, model: usize, row: usize, value: f64) -> bool {
        let want = self.expected[model][row];
        if model == 0 {
            want.to_bits() == value.to_bits()
        } else {
            (want - value).abs() <= APPROX_TOL * want.abs().max(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stream_is_a_function_of_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = stream_rng(seed, stream);
            (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        // Neighbouring streams and seeds share no values at all (they
        // are not one sequence at different offsets).
        for (a, b) in [(draw(2, 100), draw(2, 101)), (draw(2, 100), draw(3, 100))] {
            assert!(a.iter().all(|x| !b.contains(x)));
        }
    }

    #[test]
    fn distinct_draws_are_distinct_and_in_range() {
        let mut v = distinct(&mut stream_rng(3, 0), 8, 65, 8);
        assert!(v.iter().all(|k| (8..65).contains(k)));
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), 8);
    }

    #[test]
    fn stratified_draws_cover_the_range_with_a_steady_sum() {
        let sums: Vec<i64> = (0..20)
            .map(|seed| {
                let v = stratified(&mut stream_rng(seed, 0), 8, 65, 8);
                assert!(v.windows(2).all(|w| w[0] < w[1]) && (8..65).contains(&v[7]));
                v.iter().sum()
            })
            .collect();
        let (min, max) = (sums.iter().min().unwrap(), sums.iter().max().unwrap());
        assert!(max - min <= 8 * 7, "sums range over {min}..{max}");
    }

    #[test]
    fn two_decimal_constants_parse_to_their_text() {
        let mut rng = stream_rng(1, 0);
        for _ in 0..100 {
            let (text, value) = two_decimals(&mut rng, 18, 30);
            assert_eq!(text.len(), 5);
            assert!((18.0..30.0).contains(&value));
            assert_eq!(format!("{value:.2}"), text);
        }
    }

    #[test]
    fn exponential_gaps_average_the_inverse_rate() {
        let mut rng = stream_rng(5, 0);
        let total: f64 = (0..20_000)
            .map(|_| exp_gap(&mut rng, 1000.0).as_secs_f64())
            .sum();
        assert!((total / 20_000.0 - 1e-3).abs() < 5e-5);
    }
}
