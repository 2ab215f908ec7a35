//! Executor differential suite: random Filter, Project, Aggregate and
//! Join plans over random batches — NaN, ±∞, −0.0, empty and one-row
//! inputs included — run serially and with a morsel edge between every
//! few rows (`parallelism: 3, parallel_threshold: 1`), and both must equal
//! a row-at-a-time reference evaluator written here: the same schema, the
//! same row order, and the same values bit for bit.

use proptest::prelude::*;
use raven_data::{Catalog, Column, DataType, Field, RecordBatch, Schema, Table, Value};
use raven_ir::{AggFunc, BinOp, Expr, JoinKind, Plan};
use raven_relational::{ExecOptions, Executor, NoopScorer};
use std::cmp::Ordering;

/// SplitMix64: the proptest shim supplies one seed per case, and the
/// table and plan generators draw from this stream.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }
}

const INTS: [&str; 2] = ["i0", "i1"];
const FLOATS: [&str; 2] = ["f0", "f1"];
const STRS: [&str; 2] = ["s0", "s1"];
const FLOAT_VALUES: [f64; 9] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    1.5,
    -2.25,
    3.0,
    1e300,
];
const STR_VALUES: [&str; 5] = ["", "a", "b", "ab", "B"];
const CMP_OPS: [BinOp; 6] = [
    BinOp::Eq,
    BinOp::NotEq,
    BinOp::Lt,
    BinOp::LtEq,
    BinOp::Gt,
    BinOp::GtEq,
];
const ARITH_OPS: [BinOp; 4] = [BinOp::Plus, BinOp::Minus, BinOp::Multiply, BinOp::Divide];

/// Small domains, so keys collide, comparisons tie and groups repeat.
fn random_table(g: &mut Gen, rows: usize) -> Table {
    let schema = Schema::from_pairs(&[
        ("i0", DataType::Int64),
        ("i1", DataType::Int64),
        ("f0", DataType::Float64),
        ("f1", DataType::Float64),
        ("b0", DataType::Bool),
        ("s0", DataType::Utf8),
        ("s1", DataType::Utf8),
    ])
    .into_shared();
    let ints = |g: &mut Gen| Column::Int64((0..rows).map(|_| g.below(11) as i64 - 5).collect());
    let floats = |g: &mut Gen| Column::Float64((0..rows).map(|_| *g.pick(&FLOAT_VALUES)).collect());
    let strs =
        |g: &mut Gen| Column::Utf8((0..rows).map(|_| g.pick(&STR_VALUES).to_string()).collect());
    let columns = vec![
        ints(g),
        ints(g),
        floats(g),
        floats(g),
        Column::Bool((0..rows).map(|_| g.chance(2)).collect()),
        strs(g),
        strs(g),
    ];
    Table::try_new(schema, columns).unwrap()
}

fn num_literal(g: &mut Gen) -> Expr {
    if g.chance(2) {
        Expr::lit(g.below(7) as i64 - 3)
    } else {
        Expr::lit(*g.pick(&FLOAT_VALUES))
    }
}

/// A numeric expression: Int64/Float64 columns and literals, arithmetic
/// and numeric CASE.
fn num_expr(g: &mut Gen, depth: usize) -> Expr {
    match if depth == 0 { g.below(3) } else { g.below(6) } {
        0 => Expr::col(*g.pick(&INTS)),
        1 => Expr::col(*g.pick(&FLOATS)),
        2 => num_literal(g),
        3 | 4 => Expr::binary(
            *g.pick(&ARITH_OPS),
            num_expr(g, depth - 1),
            num_expr(g, depth - 1),
        ),
        _ => case_expr(g, depth, num_expr),
    }
}

fn str_expr(g: &mut Gen, depth: usize) -> Expr {
    match if depth == 0 { g.below(2) } else { g.below(3) } {
        0 => Expr::col(*g.pick(&STRS)),
        1 => Expr::lit(*g.pick(&STR_VALUES)),
        _ => case_expr(g, depth, str_expr),
    }
}

fn case_expr(g: &mut Gen, depth: usize, value: fn(&mut Gen, usize) -> Expr) -> Expr {
    let branches = (0..1 + g.below(2))
        .map(|_| (predicate(g, depth - 1), value(g, depth - 1)))
        .collect();
    Expr::Case {
        branches,
        else_expr: Box::new(value(g, depth - 1)),
    }
}

/// A comparison operand of the numeric family, Bool included.
fn cmp_num_operand(g: &mut Gen, depth: usize) -> Expr {
    match g.below(4) {
        0 => Expr::col("b0"),
        1 => Expr::lit(g.chance(2)),
        _ => num_expr(g, depth),
    }
}

/// A boolean expression: comparisons (column vs literal, column vs
/// column, literal vs literal), a Bool column, AND/OR/NOT and CASE.
fn predicate(g: &mut Gen, depth: usize) -> Expr {
    match if depth == 0 { g.below(3) } else { g.below(7) } {
        0 => Expr::binary(
            *g.pick(&CMP_OPS),
            cmp_num_operand(g, depth.saturating_sub(1)),
            cmp_num_operand(g, depth.saturating_sub(1)),
        ),
        1 => Expr::binary(
            *g.pick(&CMP_OPS),
            str_expr(g, depth.saturating_sub(1)),
            str_expr(g, depth.saturating_sub(1)),
        ),
        2 => Expr::col("b0"),
        3 => predicate(g, depth - 1).and(predicate(g, depth - 1)),
        4 => predicate(g, depth - 1).or(predicate(g, depth - 1)),
        5 => Expr::Not(Box::new(predicate(g, depth - 1))),
        _ => Expr::binary(
            *g.pick(&CMP_OPS),
            case_expr(g, depth, num_expr),
            num_literal(g),
        ),
    }
}

/// A mixed projection: bare column references (some renamed) beside
/// computed numeric, string and boolean expressions.
fn projection(g: &mut Gen) -> Vec<(Expr, String)> {
    let names = ["i0", "i1", "f0", "f1", "b0", "s0", "s1"];
    (0..1 + g.below(5))
        .map(|k| {
            let expr = match g.below(5) {
                0 | 1 => Expr::col(*g.pick(&names)),
                2 => num_expr(g, 3),
                3 => str_expr(g, 2),
                _ => predicate(g, 2),
            };
            (expr, format!("p{k}"))
        })
        .collect()
}

/// The same table with every column name prefixed, so a join's two
/// sides carry distinct names.
fn prefixed(table: &Table, prefix: &str) -> Table {
    let fields = table
        .schema()
        .fields()
        .iter()
        .map(|f| Field::new(format!("{prefix}{}", f.name), f.dtype))
        .collect();
    let columns = table
        .batch()
        .columns()
        .iter()
        .map(|c| (**c).clone())
        .collect();
    Table::try_new(Schema::new(fields).into_shared(), columns).unwrap()
}

/// `table` with the named column replaced by Int64 `values`.
fn with_ints(table: &Table, name: &str, values: Vec<i64>) -> Table {
    let idx = table.schema().index_of(name).unwrap();
    let mut columns: Vec<Column> = table
        .batch()
        .columns()
        .iter()
        .map(|c| (**c).clone())
        .collect();
    columns[idx] = Column::Int64(values);
    Table::try_new(table.schema().clone(), columns).unwrap()
}

/// The shapes of join keys. The executor builds an array over the right
/// keys' `[min, max]` when they span at most 2 values per right row
/// (`DENSE_SPAN_FACTOR`), and hashes otherwise; a side whose matched
/// rows come out as exactly `0..n` is shared instead of gathered.
#[derive(Clone, Copy, PartialEq, Debug)]
enum KeyShape {
    /// The tables' own small-domain keys, of every type, and mixed pairs
    /// of types that never match.
    Small,
    /// Int64 keys over about one value per right row, so they repeat and
    /// some left keys fall outside the right keys' range.
    Dense,
    /// Int64 keys 1 000 apart: far past the cutoff.
    Sparse,
    /// Right keys that span exactly 2 values per right row.
    AtCutoff,
    /// Right keys that span one value past the cutoff.
    PastCutoff,
    /// `i64::MIN`, `i64::MAX` and their neighbours, both extremes in the
    /// right column, so the span overflows an `i64`.
    Extremes,
    /// Unique ascending keys, the same on both sides: row `i` joins row
    /// `i`, so both sides come out in order.
    Aligned,
    /// The aligned keys shuffled on the right: a 1:1 join whose right
    /// rows come out as a permutation of the same length.
    Shuffled,
}

const KEY_SHAPES: [KeyShape; 8] = [
    KeyShape::Small,
    KeyShape::Dense,
    KeyShape::Sparse,
    KeyShape::AtCutoff,
    KeyShape::PastCutoff,
    KeyShape::Extremes,
    KeyShape::Aligned,
    KeyShape::Shuffled,
];

const EXTREMES: [i64; 7] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];

/// Left and right Int64 keys of `shape`, from a base that may be
/// negative.
fn int_keys(g: &mut Gen, shape: KeyShape, left: usize, right: usize) -> (Vec<i64>, Vec<i64>) {
    let base = g.below(2001) as i64 - 1000;
    let draw = |g: &mut Gen, rows: usize, f: &dyn Fn(&mut Gen) -> i64| -> Vec<i64> {
        (0..rows).map(|_| f(g)).collect()
    };
    // Places `lo` and `hi` at two distinct random rows, when there are two.
    let pin = |g: &mut Gen, keys: &mut Vec<i64>, lo: i64, hi: i64| {
        if keys.len() >= 2 {
            let i = g.below(keys.len());
            let j = (i + 1 + g.below(keys.len() - 1)) % keys.len();
            keys[i] = lo;
            keys[j] = hi;
        }
    };
    match shape {
        KeyShape::Small => unreachable!("small keys come with the tables"),
        KeyShape::Dense => {
            let n = right.max(1);
            let r = draw(g, right, &|g| base + g.below(n) as i64);
            let l = draw(g, left, &|g| base - 2 + g.below(n + 4) as i64);
            (l, r)
        }
        KeyShape::Sparse => {
            let n = right.max(1);
            let key = |g: &mut Gen| base + 1000 * g.below(n) as i64;
            let r = draw(g, right, &key);
            let l = draw(g, left, &|g| key(g) + i64::from(g.chance(4)));
            (l, r)
        }
        KeyShape::AtCutoff | KeyShape::PastCutoff => {
            let span = 2 * right + usize::from(shape == KeyShape::PastCutoff);
            let mut r = draw(g, right, &|g| base + g.below(span) as i64);
            pin(g, &mut r, base, base + span as i64 - 1);
            let l = draw(g, left, &|g| base - 1 + g.below(span + 2) as i64);
            (l, r)
        }
        KeyShape::Extremes => {
            let mut r = draw(g, right, &|g| *g.pick(&EXTREMES));
            pin(g, &mut r, i64::MIN, i64::MAX);
            (draw(g, left, &|g| *g.pick(&EXTREMES)), r)
        }
        KeyShape::Aligned | KeyShape::Shuffled => {
            let keys = |rows: usize| (0..rows as i64).map(|k| base + k).collect::<Vec<_>>();
            let mut r = keys(right);
            if shape == KeyShape::Shuffled {
                for i in (1..r.len()).rev() {
                    r.swap(i, g.below(i + 1));
                }
            }
            (keys(left), r)
        }
    }
}

fn scan(table: &Table) -> Plan {
    scan_named("t", table)
}

fn scan_named(name: &str, table: &Table) -> Plan {
    Plan::Scan {
        table: name.into(),
        schema: table.schema().clone(),
    }
}

// ---------------------------------------------------------------------
// The row-at-a-time reference.

fn number(v: &Value) -> f64 {
    v.as_f64().expect("numeric-family value")
}

fn holds(op: BinOp, a: &Value, b: &Value) -> bool {
    if let (Value::Utf8(x), Value::Utf8(y)) = (a, b) {
        let ord = x.cmp(y);
        return match op {
            BinOp::Eq => ord == Ordering::Equal,
            BinOp::NotEq => ord != Ordering::Equal,
            BinOp::Lt => ord == Ordering::Less,
            BinOp::LtEq => ord != Ordering::Greater,
            BinOp::Gt => ord == Ordering::Greater,
            BinOp::GtEq => ord != Ordering::Less,
            _ => unreachable!(),
        };
    }
    let (x, y) = (number(a), number(b));
    match op {
        BinOp::Eq => x == y,
        BinOp::NotEq => x != y,
        BinOp::Lt => x < y,
        BinOp::LtEq => x <= y,
        BinOp::Gt => x > y,
        BinOp::GtEq => x >= y,
        _ => unreachable!(),
    }
}

/// One row's value of `expr`. Arithmetic runs in f64: the generated
/// integers are small, so it agrees with the executor's Int64 path.
fn eval_row(expr: &Expr, batch: &RecordBatch, row: usize) -> Value {
    match expr {
        Expr::Column(name) => batch.column_by_name(name).unwrap().get(row).unwrap(),
        Expr::Literal(v) => v.clone(),
        Expr::Binary { op, left, right } => {
            let (a, b) = (eval_row(left, batch, row), eval_row(right, batch, row));
            match op {
                BinOp::And => Value::Bool(a.as_bool().unwrap() && b.as_bool().unwrap()),
                BinOp::Or => Value::Bool(a.as_bool().unwrap() || b.as_bool().unwrap()),
                op if op.is_comparison() => Value::Bool(holds(*op, &a, &b)),
                BinOp::Plus => Value::Float64(number(&a) + number(&b)),
                BinOp::Minus => Value::Float64(number(&a) - number(&b)),
                BinOp::Multiply => Value::Float64(number(&a) * number(&b)),
                BinOp::Divide => Value::Float64(number(&a) / number(&b)),
                other => panic!("unexpected operator {other:?}"),
            }
        }
        Expr::Not(inner) => Value::Bool(!eval_row(inner, batch, row).as_bool().unwrap()),
        Expr::Case {
            branches,
            else_expr,
        } => {
            let value = branches
                .iter()
                .find(|(cond, _)| eval_row(cond, batch, row) == Value::Bool(true))
                .map_or(&**else_expr, |(_, value)| value);
            eval_row(value, batch, row)
        }
        Expr::Parameter { .. } => panic!("no parameters are generated"),
    }
}

/// A reference value in the column type the plan's schema declares.
fn cast(v: Value, want: DataType) -> Value {
    match (v, want) {
        (Value::Float64(x), DataType::Int64) => Value::Int64(x as i64),
        (Value::Int64(x), DataType::Float64) => Value::Float64(x as f64),
        (v, _) => v,
    }
}

fn column_of(values: Vec<Value>, dtype: DataType) -> Column {
    let mut col = Column::with_capacity(dtype, values.len());
    for v in values {
        col.push(cast(v, dtype)).unwrap();
    }
    col
}

fn reference_filter(batch: &RecordBatch, predicate: &Expr) -> RecordBatch {
    let keep: Vec<usize> = (0..batch.num_rows())
        .filter(|&r| eval_row(predicate, batch, r) == Value::Bool(true))
        .collect();
    batch.take(&keep).unwrap()
}

fn reference_project(batch: &RecordBatch, plan: &Plan) -> RecordBatch {
    let Plan::Project { exprs, .. } = plan else {
        unreachable!()
    };
    let schema = plan.schema().unwrap();
    let columns = exprs
        .iter()
        .zip(schema.fields())
        .map(|((expr, _), field)| {
            let values = (0..batch.num_rows())
                .map(|r| eval_row(expr, batch, r))
                .collect();
            column_of(values, field.dtype)
        })
        .collect();
    RecordBatch::try_new(schema, columns).unwrap()
}

/// Group-by key of one value: floats by bit pattern.
#[derive(PartialEq)]
enum Key {
    Int(i64),
    Bits(u64),
    Bool(bool),
    Str(String),
}

fn key_of(v: Value) -> Key {
    match v {
        Value::Int64(x) => Key::Int(x),
        Value::Float64(x) => Key::Bits(x.to_bits()),
        Value::Bool(x) => Key::Bool(x),
        Value::Utf8(x) => Key::Str(x),
    }
}

/// `None` where the executor must fail: MIN/MAX of a non-Float64 column
/// over an empty input without groups has no value to report.
fn reference_aggregate(batch: &RecordBatch, plan: &Plan) -> Option<RecordBatch> {
    let Plan::Aggregate {
        group_by,
        aggregates,
        ..
    } = plan
    else {
        unreachable!()
    };
    let schema = plan.schema().unwrap();
    // Groups in first-seen order, each with its member rows.
    let mut keys: Vec<Vec<Key>> = Vec::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    for r in 0..batch.num_rows() {
        let key: Vec<Key> = group_by
            .iter()
            .map(|g| key_of(batch.column_by_name(g).unwrap().get(r).unwrap()))
            .collect();
        match keys.iter().position(|k| *k == key) {
            Some(i) => members[i].push(r),
            None => {
                keys.push(key);
                members.push(vec![r]);
            }
        }
    }
    if group_by.is_empty() && members.is_empty() {
        members.push(Vec::new());
    }
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for rows_of_group in &members {
        let mut out: Vec<Value> = group_by
            .iter()
            .map(|g| {
                let col = batch.column_by_name(g).unwrap();
                col.get(rows_of_group[0]).unwrap()
            })
            .collect();
        for (func, name, _) in aggregates {
            let col = batch.column_by_name(name).unwrap();
            let values: Vec<Value> = rows_of_group.iter().map(|&r| col.get(r).unwrap()).collect();
            // Left to right from 0.0: the order the executor must match.
            let sum = || values.iter().fold(0.0, |acc, v| acc + number(v));
            out.push(match func {
                AggFunc::Count => Value::Int64(values.len() as i64),
                AggFunc::Sum if col.data_type() == DataType::Int64 => Value::Int64(sum() as i64),
                AggFunc::Sum => Value::Float64(sum()),
                AggFunc::Avg if values.is_empty() => Value::Float64(0.0),
                AggFunc::Avg => Value::Float64(sum() / values.len() as f64),
                AggFunc::Min | AggFunc::Max => {
                    let wanted = if *func == AggFunc::Min {
                        Ordering::Less
                    } else {
                        Ordering::Greater
                    };
                    let mut best: Option<Value> = None;
                    for v in values {
                        let replace = match &best {
                            None => true,
                            Some(b) => v.partial_cmp_value(b) == Some(wanted),
                        };
                        if replace {
                            best = Some(v);
                        }
                    }
                    match best {
                        Some(v) => v,
                        None if col.data_type() == DataType::Float64 => Value::Float64(f64::NAN),
                        None => return None,
                    }
                }
            });
        }
        rows.push(out);
    }
    let columns = schema
        .fields()
        .iter()
        .enumerate()
        .map(|(c, field)| column_of(rows.iter().map(|r| r[c].clone()).collect(), field.dtype))
        .collect();
    Some(RecordBatch::try_new(schema, columns).unwrap())
}

/// Nested loops: every left row in order, each with its matching right
/// rows ascending. Keys match by `Key`, so floats match by bit pattern
/// and values of different types never match.
fn reference_join(left: &RecordBatch, right: &RecordBatch, plan: &Plan) -> RecordBatch {
    let Plan::Join {
        left_key,
        right_key,
        ..
    } = plan
    else {
        unreachable!()
    };
    let (lcol, rcol) = (
        left.column_by_name(left_key).unwrap(),
        right.column_by_name(right_key).unwrap(),
    );
    let (mut lrows, mut rrows) = (Vec::new(), Vec::new());
    for l in 0..left.num_rows() {
        let key = key_of(lcol.get(l).unwrap());
        for r in 0..right.num_rows() {
            if key_of(rcol.get(r).unwrap()) == key {
                lrows.push(l);
                rrows.push(r);
            }
        }
    }
    let mut columns: Vec<Column> = Vec::new();
    for (batch, rows) in [(left, &lrows), (right, &rrows)] {
        columns.extend(batch.columns().iter().map(|c| c.take(rows).unwrap()));
    }
    RecordBatch::try_new(plan.schema().unwrap(), columns).unwrap()
}

// ---------------------------------------------------------------------
// Running both executions against the reference.

fn options() -> [(&'static str, ExecOptions); 2] {
    [
        ("serial", ExecOptions::serial()),
        (
            "morsels",
            ExecOptions {
                parallelism: 3,
                parallel_threshold: 1,
            },
        ),
    ]
}

/// Equal bit patterns, except that any NaN matches any NaN: Rust leaves
/// the sign and payload of a NaN that arithmetic produces unspecified,
/// so `inf - inf` may come out as either sign from one build to the next.
fn same_bits(x: f64, y: f64) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

fn assert_same(label: &str, got: &RecordBatch, want: &RecordBatch) {
    assert_eq!(
        got.schema().fields(),
        want.schema().fields(),
        "{label}: schema"
    );
    assert_eq!(got.num_rows(), want.num_rows(), "{label}: row count");
    for (c, (g, w)) in got.columns().iter().zip(want.columns()).enumerate() {
        let same = match (g.as_ref(), w.as_ref()) {
            (Column::Float64(a), Column::Float64(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_bits(*x, *y))
            }
            (a, b) => a == b,
        };
        assert!(same, "{label}: column {c}: got {g:?}, want {w:?}");
    }
}

fn check(table: &Table, plan: &Plan, want: Option<&RecordBatch>) {
    check_over(&[("t", table)], plan, want);
}

fn check_over(tables: &[(&str, &Table)], plan: &Plan, want: Option<&RecordBatch>) {
    let catalog = Catalog::new();
    for (name, table) in tables {
        catalog.register(name, (*table).clone()).unwrap();
    }
    let sizes: Vec<usize> = tables.iter().map(|(_, t)| t.num_rows()).collect();
    for (name, opts) in options() {
        let got = Executor::new(&catalog, &NoopScorer, opts).execute(plan);
        let label = format!("{name} over {sizes:?} rows: {plan}");
        match want {
            Some(want) => assert_same(&label, got.unwrap().batch(), want),
            None => assert!(got.is_err(), "{label}: expected an error"),
        }
    }
}

fn rows() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), Just(1usize), 2..48usize]
}

proptest! {
    #[test]
    fn filter_matches_row_at_a_time(seed in 0..u64::MAX, rows in rows()) {
        let mut g = Gen(seed);
        let table = random_table(&mut g, rows);
        let predicate = predicate(&mut g, 3);
        let want = reference_filter(table.batch(), &predicate);
        let plan = Plan::Filter { input: Box::new(scan(&table)), predicate };
        check(&table, &plan, Some(&want));
    }

    #[test]
    fn project_matches_row_at_a_time(seed in 0..u64::MAX, rows in rows()) {
        let mut g = Gen(seed);
        let table = random_table(&mut g, rows);
        let predicate = predicate(&mut g, 2);
        let filtered = reference_filter(table.batch(), &predicate);
        let plan = Plan::Project {
            input: Box::new(Plan::Filter { input: Box::new(scan(&table)), predicate }),
            exprs: projection(&mut g),
        };
        let want = reference_project(&filtered, &plan);
        check(&table, &plan, Some(&want));
    }

    #[test]
    fn aggregate_matches_row_at_a_time(seed in 0..u64::MAX, rows in rows()) {
        let mut g = Gen(seed);
        let table = random_table(&mut g, rows);
        let predicate = predicate(&mut g, 1);
        let filtered = reference_filter(table.batch(), &predicate);
        let keys = ["i0", "f0", "b0", "s0", "s1"];
        let group_by: Vec<String> = (0..g.below(3)).map(|_| g.pick(&keys).to_string()).collect();
        let funcs = [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max];
        let aggregates = (0..1 + g.below(4))
            .map(|k| {
                let func = *g.pick(&funcs);
                let column = match func {
                    AggFunc::Sum | AggFunc::Avg => g.pick(&["i0", "i1", "f0", "f1"]),
                    _ => g.pick(&["i0", "f0", "f1", "b0", "s0"]),
                };
                (func, column.to_string(), format!("a{k}"))
            })
            .collect();
        let plan = Plan::Aggregate {
            input: Box::new(Plan::Filter { input: Box::new(scan(&table)), predicate }),
            group_by,
            aggregates,
        };
        let want = reference_aggregate(&filtered, &plan);
        check(&table, &plan, want.as_ref());
    }

    #[test]
    fn join_matches_row_at_a_time(seed in 0..u64::MAX, left_rows in rows(), right_rows in rows()) {
        let mut g = Gen(seed);
        let shape = *g.pick(&KEY_SHAPES);
        let one_to_one = matches!(shape, KeyShape::Aligned | KeyShape::Shuffled);
        let right_rows = if one_to_one { left_rows } else { right_rows };
        let mut left = random_table(&mut g, left_rows);
        let mut right = prefixed(&random_table(&mut g, right_rows), "r_");
        // Every key type against itself — floats with NaN, -0.0 and 0.0
        // among their few values — plus mixed pairs that never match.
        let pairs = [
            ("i0", "r_i1"),
            ("f0", "r_f1"),
            ("b0", "r_b0"),
            ("s0", "r_s1"),
            ("i0", "r_f0"),
            ("f1", "r_i0"),
            ("b0", "r_i1"),
        ];
        let (left_key, right_key) = if shape == KeyShape::Small {
            *g.pick(&pairs)
        } else {
            let (l, r) = int_keys(&mut g, shape, left_rows, right_rows);
            left = with_ints(&left, "i0", l);
            right = with_ints(&right, "r_i1", r);
            ("i0", "r_i1")
        };
        // Half the time a filter thins the left side first, as pushdown
        // does; over aligned keys its rows still come out in order.
        let mut left_plan = scan_named("l", &left);
        let mut left_in = left.batch().clone();
        if g.chance(2) {
            let predicate = predicate(&mut g, 1);
            left_in = reference_filter(&left_in, &predicate);
            left_plan = Plan::Filter { input: Box::new(left_plan), predicate };
        }
        let plan = Plan::Join {
            left: Box::new(left_plan),
            right: Box::new(scan_named("r", &right)),
            left_key: left_key.into(),
            right_key: right_key.into(),
            kind: JoinKind::Inner,
        };
        let want = reference_join(&left_in, right.batch(), &plan);
        check_over(&[("l", &left), ("r", &right)], &plan, Some(&want));
    }
}

#[test]
fn empty_inputs_keep_their_schema() {
    // A CASE over zero rows cannot tell which type it yields; the
    // projection still reports the schema's type.
    let table = random_table(&mut Gen(7), 0);
    let plan = Plan::Project {
        input: Box::new(scan(&table)),
        exprs: vec![(
            Expr::Case {
                branches: vec![(Expr::col("b0"), Expr::col("s0"))],
                else_expr: Box::new(Expr::lit("x")),
            },
            "label".into(),
        )],
    };
    let want = RecordBatch::empty(plan.schema().unwrap());
    check(&table, &plan, Some(&want));
}
