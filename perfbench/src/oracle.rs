//! The correctness oracle: what a reply must contain, computed before
//! warm-up by a path that shares no optimizer rule, no cache, no kernel
//! and no thread pool with the one being measured.
//!
//! * [`oracle_session`] — a `RuleSet::none()`, serial, cache-free
//!   in-process session over the same catalog and model store.
//! * [`Expected`] — a result table in canonical form (rows keyed and
//!   sorted by the first column) compared bitwise or within a tolerance.
//! * [`HospitalOracle`] — for `serve_exec`, whose 8 192 distinct
//!   constants make one oracle execution per query unaffordable inside
//!   set-up: the oracle session scores every row once per model, and the
//!   relational part of each template (a filter, a top-k, a grouped
//!   aggregate) is re-evaluated here in plain Rust per reply.

use raven_core::{ModelStore, RavenSession, SessionConfig};
use raven_data::{Catalog, Column, Table};
use raven_datagen::hospital::HospitalData;
use raven_opt::RuleSet;
use raven_relational::ExecOptions;
use raven_runtime::{RavenScorer, ScorerConfig};
use std::sync::Arc;

/// Relative tolerance for scores that cross the f32 tensor runtime
/// (NN-translated MLP / linear models) and for `AVG`, whose summation
/// order follows the join order. f32 carries ~7 significant digits; the
/// largest difference seen against the f64 oracle is ~3e-7.
pub const APPROX_TOL: f64 = 1e-5;

/// An unoptimized, serial, cache-free session over shared state.
pub fn oracle_session(catalog: Arc<Catalog>, store: Arc<ModelStore>) -> RavenSession {
    let config = SessionConfig {
        rules: RuleSet::none(),
        exec: ExecOptions::serial(),
        ..SessionConfig::default()
    };
    let scorer = Arc::new(RavenScorer::new(ScorerConfig::default()));
    RavenSession::from_shared(catalog, store, scorer, config)
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Int(i64),
    Text(String),
}

/// A result in canonical form: rows sorted by their first column (the
/// key — an id or a group label), every other column as `f64`.
#[derive(Debug, Clone)]
pub struct Expected {
    keys: Vec<Key>,
    cols: Vec<Vec<f64>>,
    /// 0 = bitwise; otherwise relative to `max(1, |expected|)`.
    tol: f64,
}

fn column_keys(col: &Column) -> Option<Vec<Key>> {
    match col {
        Column::Int64(v) => Some(v.iter().map(|&i| Key::Int(i)).collect()),
        Column::Utf8(v) => Some(v.iter().cloned().map(Key::Text).collect()),
        _ => None,
    }
}

fn column_f64(col: &Column) -> Option<Vec<f64>> {
    match col {
        Column::Float64(v) => Some(v.clone()),
        Column::Int64(v) => Some(v.iter().map(|&i| i as f64).collect()),
        Column::Bool(v) => Some(v.iter().map(|&b| b as u8 as f64).collect()),
        Column::Utf8(_) => None,
    }
}

/// `(keys, value columns)` of `table`, rows sorted by key. `None` when
/// the table's shape cannot be canonicalized (a float key, a text
/// value) — no query of the benchmark produces one, so a reply that
/// does is wrong.
fn canonical(table: &Table) -> Option<(Vec<Key>, Vec<Vec<f64>>)> {
    let columns = table.batch().columns();
    let (first, rest) = columns.split_first()?;
    let mut keys = column_keys(first)?;
    let mut cols: Vec<Vec<f64>> = rest.iter().map(|c| column_f64(c)).collect::<Option<_>>()?;
    if !keys.is_sorted() {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
        keys = order.iter().map(|&i| keys[i].clone()).collect();
        for col in &mut cols {
            *col = order.iter().map(|&i| col[i]).collect();
        }
    }
    Some((keys, cols))
}

fn close(expected: f64, got: f64, tol: f64) -> bool {
    if tol == 0.0 {
        expected.to_bits() == got.to_bits()
    } else {
        (expected - got).abs() <= tol * expected.abs().max(1.0)
    }
}

impl Expected {
    /// Canonicalize an oracle result.
    pub fn from_table(table: &Table, tol: f64) -> Expected {
        let (keys, cols) = canonical(table).expect("oracle result has a key column");
        Expected { keys, cols, tol }
    }

    fn from_id_rows(rows: Vec<(i64, f64)>, tol: f64) -> Expected {
        let (keys, col) = rows.into_iter().map(|(id, v)| (Key::Int(id), v)).unzip();
        Expected {
            keys,
            cols: vec![col],
            tol,
        }
    }

    /// Same row count, same keys, every value bitwise equal (or within
    /// the tolerance), in any row order.
    pub fn matches(&self, table: &Table) -> bool {
        let Some((keys, cols)) = canonical(table) else {
            return false;
        };
        keys == self.keys
            && cols.len() == self.cols.len()
            && cols
                .iter()
                .zip(&self.cols)
                .all(|(got, want)| got.iter().zip(want).all(|(&g, &w)| close(w, g, self.tol)))
    }
}

/// The `serve_exec` templates, by what the benchmark re-evaluates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecCheck {
    /// `stay_tree`, `WHERE d.pregnant = 1 AND d.age > a` → `(id, stay)`.
    TreeFilter { age: f64 },
    /// `stay_forest`, `WHERE d.age > a AND d.bp < b` → `(id, stay)`.
    ForestRange { age: f64, bp: f64 },
    /// `stay_tree`, `WHERE d.age > a ORDER BY p.stay DESC LIMIT 10`.
    TreeTopK { age: f64 },
    /// `gender, COUNT(*), AVG(glucose) … WHERE pi.age > a GROUP BY gender`.
    RelAgg { age: f64 },
}

pub const TOP_K: usize = 10;

/// Per-row columns and oracle scores of one hospital dataset (row index
/// = patient id, by construction of the generator).
pub struct HospitalOracle {
    age: Vec<f64>,
    pregnant: Vec<i64>,
    bp: Vec<f64>,
    glucose: Vec<f64>,
    gender: Vec<String>,
    tree: Vec<f64>,
    forest: Vec<f64>,
}

/// The FROM clause every hospital inference query shares.
pub const HOSPITAL_CTE: &str = "WITH data AS (SELECT * FROM patient_info AS pi \
     JOIN blood_tests AS bt ON pi.id = bt.id \
     JOIN prenatal_tests AS pt ON bt.id = pt.id) ";

/// `model`'s score of each of the `patients` hospital rows, by patient
/// id, from one unfiltered `PREDICT` query on `oracle`.
pub fn score_all(oracle: &RavenSession, model: &str, patients: usize) -> Vec<f64> {
    let sql = format!(
        "{HOSPITAL_CTE}SELECT d.id, p.stay FROM PREDICT(MODEL = '{model}', \
         DATA = data AS d) WITH (stay FLOAT) AS p"
    );
    let table = oracle.query(&sql).expect("oracle scoring query").table;
    let ids = table.batch().columns()[0].i64_values().expect("id column");
    let stay = table.batch().columns()[1]
        .f64_values()
        .expect("score column");
    assert_eq!(ids.len(), patients, "the oracle scores every patient");
    let mut by_id = vec![f64::NAN; patients];
    for (&id, &score) in ids.iter().zip(stay) {
        by_id[id as usize] = score;
    }
    by_id
}

impl HospitalOracle {
    /// Score every patient with `tree_model` and `forest_model` through
    /// the oracle session (unfiltered, unoptimized, serial).
    pub fn build(
        data: &HospitalData,
        oracle: &RavenSession,
        tree_model: &str,
        forest_model: &str,
    ) -> HospitalOracle {
        let f64s = |t: &Table, c: &str| t.column_by_name(c).unwrap().f64_values().unwrap().to_vec();
        HospitalOracle {
            age: f64s(&data.patient_info, "age"),
            pregnant: data
                .patient_info
                .column_by_name("pregnant")
                .unwrap()
                .i64_values()
                .unwrap()
                .to_vec(),
            gender: data
                .patient_info
                .column_by_name("gender")
                .unwrap()
                .utf8_values()
                .unwrap()
                .to_vec(),
            bp: f64s(&data.blood_tests, "bp"),
            glucose: f64s(&data.blood_tests, "glucose"),
            tree: score_all(oracle, tree_model, data.len()),
            forest: score_all(oracle, forest_model, data.len()),
        }
    }

    fn filtered(&self, scores: &[f64], keep: impl Fn(usize) -> bool) -> Expected {
        let rows = (0..scores.len())
            .filter(|&i| keep(i))
            .map(|i| (i as i64, scores[i]))
            .collect();
        Expected::from_id_rows(rows, 0.0)
    }

    /// Whether `table` is a correct reply to the template instance.
    pub fn verify(&self, check: ExecCheck, table: &Table) -> bool {
        match check {
            ExecCheck::TreeFilter { age } => self
                .filtered(&self.tree, |i| self.pregnant[i] == 1 && self.age[i] > age)
                .matches(table),
            ExecCheck::ForestRange { age, bp } => self
                .filtered(&self.forest, |i| self.age[i] > age && self.bp[i] < bp)
                .matches(table),
            ExecCheck::TreeTopK { age } => self.verify_top_k(age, table),
            ExecCheck::RelAgg { age } => self.rel_agg(age).matches(table),
        }
    }

    /// Tree scores tie (one value per leaf), so which ids fill the last
    /// places is the engine's choice. Correct means: the score sequence
    /// equals the k largest qualifying scores in descending order, and
    /// every returned id is distinct, qualifies, and carries its own
    /// oracle score.
    fn verify_top_k(&self, age: f64, table: &Table) -> bool {
        let columns = table.batch().columns();
        let (Some(ids), Some(stay)) = (
            columns.first().and_then(|c| c.i64_values().ok()),
            columns.get(1).and_then(|c| c.f64_values().ok()),
        ) else {
            return false;
        };
        let mut best: Vec<f64> = (0..self.age.len())
            .filter(|&i| self.age[i] > age)
            .map(|i| self.tree[i])
            .collect();
        best.sort_by(|a, b| b.total_cmp(a));
        best.truncate(TOP_K);
        let mut seen: Vec<i64> = ids.to_vec();
        seen.sort_unstable();
        seen.dedup();
        seen.len() == ids.len()
            && stay.len() == best.len()
            && stay
                .iter()
                .zip(&best)
                .all(|(g, w)| g.to_bits() == w.to_bits())
            && ids.iter().zip(stay).all(|(&id, &s)| {
                usize::try_from(id).is_ok_and(|i| {
                    i < self.age.len() && self.age[i] > age && self.tree[i].to_bits() == s.to_bits()
                })
            })
    }

    fn rel_agg(&self, age: f64) -> Expected {
        let mut groups: Vec<(&str, f64, f64)> = Vec::new();
        for i in (0..self.age.len()).filter(|&i| self.age[i] > age) {
            match groups.iter_mut().find(|(g, _, _)| *g == self.gender[i]) {
                Some(group) => {
                    group.1 += 1.0;
                    group.2 += self.glucose[i];
                }
                None => groups.push((&self.gender[i], 1.0, self.glucose[i])),
            }
        }
        groups.sort_by(|a, b| a.0.cmp(b.0));
        Expected {
            keys: groups.iter().map(|g| Key::Text(g.0.to_string())).collect(),
            cols: vec![
                groups.iter().map(|g| g.1).collect(),
                groups.iter().map(|g| g.2 / g.1).collect(),
            ],
            tol: APPROX_TOL,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_data::{DataType, Schema};

    fn table(ids: Vec<i64>, scores: Vec<f64>) -> Table {
        Table::try_new(
            Schema::from_pairs(&[("id", DataType::Int64), ("s", DataType::Float64)]).into_shared(),
            vec![Column::Int64(ids), Column::Float64(scores)],
        )
        .unwrap()
    }

    #[test]
    fn matching_ignores_row_order_and_is_bitwise_at_zero_tolerance() {
        let expected = Expected::from_table(&table(vec![1, 2, 3], vec![0.1, 0.2, 0.3]), 0.0);
        assert!(expected.matches(&table(vec![3, 1, 2], vec![0.3, 0.1, 0.2])));
        assert!(!expected.matches(&table(vec![1, 2, 3], vec![0.1, 0.2, 0.3 + 1e-16])));
        assert!(!expected.matches(&table(vec![1, 2], vec![0.1, 0.2])));
        assert!(!expected.matches(&table(vec![1, 2, 4], vec![0.1, 0.2, 0.3])));
    }

    #[test]
    fn a_tolerance_admits_last_digit_noise_and_nothing_more() {
        let expected = Expected::from_table(&table(vec![1], vec![0.5]), APPROX_TOL);
        assert!(expected.matches(&table(vec![1], vec![0.5 + 1e-7])));
        assert!(!expected.matches(&table(vec![1], vec![0.5 + 1e-4])));
    }
}
