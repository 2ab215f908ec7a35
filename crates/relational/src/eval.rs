//! Columnar expression evaluation.
//!
//! Evaluation borrows its input: a column reference reads a row range of
//! the batch in place ([`ColumnRef`]), a literal stays a scalar until an
//! operator needs it, and only what an expression computes is allocated.

use crate::error::ExecError;
use crate::Result;
use raven_data::{Column, ColumnRef, DataError, DataType, RecordBatch, Value};
use raven_ir::{BinOp, Expr};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::iter::repeat;

/// Evaluate an expression over a batch, producing one column.
pub fn evaluate(expr: &Expr, batch: &RecordBatch) -> Result<Column> {
    evaluate_range(expr, batch, 0, batch.num_rows())
}

/// Evaluate a boolean predicate into a selection mask.
pub fn evaluate_predicate(expr: &Expr, batch: &RecordBatch) -> Result<Vec<bool>> {
    evaluate_predicate_range(expr, batch, 0, batch.num_rows())
}

/// [`evaluate`] over rows `[start, end)` of `batch`, read in place.
pub(crate) fn evaluate_range(
    expr: &Expr,
    batch: &RecordBatch,
    start: usize,
    end: usize,
) -> Result<Column> {
    let rows = Rows { batch, start, end };
    Ok(eval_inner(expr, rows)?.into_column(rows.len()))
}

/// [`evaluate_predicate`] over rows `[start, end)` of `batch`.
pub(crate) fn evaluate_predicate_range(
    expr: &Expr,
    batch: &RecordBatch,
    start: usize,
    end: usize,
) -> Result<Vec<bool>> {
    let rows = Rows { batch, start, end };
    Ok(predicate(expr, rows)?.into_owned())
}

/// The row range `[start, end)` of a batch an expression reads.
#[derive(Clone, Copy)]
struct Rows<'a> {
    batch: &'a RecordBatch,
    start: usize,
    end: usize,
}

impl<'a> Rows<'a> {
    fn len(&self) -> usize {
        self.end - self.start
    }

    fn column(&self, name: &str) -> Result<ColumnRef<'a>> {
        Ok(self
            .batch
            .column_by_name(name)?
            .range(self.start, self.end)?)
    }
}

/// Lazy evaluation result: literals stay scalar until forced, so
/// `bp > 140` over a million rows never materializes a constant column,
/// and column references borrow the input instead of copying it.
enum Ev<'a> {
    /// Rows of an input column, read in place.
    Borrowed(ColumnRef<'a>),
    /// A column this evaluation computed.
    Owned(Column),
    Scalar(Value),
}

/// An evaluated operand as an operator reads it.
enum Operand<'b> {
    Column(ColumnRef<'b>),
    Scalar(&'b Value),
}

impl<'a> Ev<'a> {
    fn data_type(&self) -> DataType {
        match self {
            Ev::Borrowed(c) => c.data_type(),
            Ev::Owned(c) => c.data_type(),
            Ev::Scalar(v) => v.data_type(),
        }
    }

    fn operand(&self) -> Operand<'_> {
        match self {
            Ev::Borrowed(c) => Operand::Column(*c),
            Ev::Owned(c) => Operand::Column(c.view()),
            Ev::Scalar(v) => Operand::Scalar(v),
        }
    }

    fn into_column(self, rows: usize) -> Column {
        match self {
            Ev::Borrowed(c) => c.to_column(),
            Ev::Owned(c) => c,
            Ev::Scalar(v) => scalar_column(&v, rows),
        }
    }

    /// The value as a boolean mask over `rows` rows; `context` names the
    /// consumer in the error for a non-boolean value.
    fn into_mask(self, rows: usize, context: &str) -> Result<Cow<'a, [bool]>> {
        match self {
            Ev::Borrowed(ColumnRef::Bool(mask)) => Ok(Cow::Borrowed(mask)),
            Ev::Owned(Column::Bool(mask)) => Ok(Cow::Owned(mask)),
            Ev::Scalar(Value::Bool(b)) => Ok(Cow::Owned(vec![b; rows])),
            other => Err(ExecError::Eval(format!(
                "{context} {:?}",
                other.data_type()
            ))),
        }
    }
}

fn scalar_column(v: &Value, rows: usize) -> Column {
    match v {
        Value::Int64(x) => Column::Int64(vec![*x; rows]),
        Value::Float64(x) => Column::Float64(vec![*x; rows]),
        Value::Bool(x) => Column::Bool(vec![*x; rows]),
        Value::Utf8(s) => Column::Utf8(vec![s.clone(); rows]),
    }
}

fn predicate<'a>(expr: &Expr, rows: Rows<'a>) -> Result<Cow<'a, [bool]>> {
    eval_inner(expr, rows)?.into_mask(rows.len(), "predicate evaluated to non-boolean")
}

fn eval_inner<'a>(expr: &Expr, rows: Rows<'a>) -> Result<Ev<'a>> {
    match expr {
        Expr::Column(name) => Ok(Ev::Borrowed(rows.column(name)?)),
        Expr::Literal(v) => Ok(Ev::Scalar(v.clone())),
        // Template plans must be bound (`Plan::bind_parameters`) before
        // execution; reaching the evaluator with a placeholder is a bug
        // in the caller, reported rather than panicked.
        Expr::Parameter { index, .. } => Err(ExecError::Eval(format!(
            "unbound parameter ?{}: execute the plan with parameter values",
            index + 1
        ))),
        Expr::Binary { op, left, right } => {
            let l = eval_inner(left, rows)?;
            let r = eval_inner(right, rows)?;
            eval_binary(*op, l, r, rows.len())
        }
        Expr::Not(inner) => match eval_inner(inner, rows)? {
            Ev::Scalar(Value::Bool(b)) => Ok(Ev::Scalar(Value::Bool(!b))),
            other => {
                let mut mask = other.into_mask(rows.len(), "NOT over")?.into_owned();
                for b in &mut mask {
                    *b = !*b;
                }
                Ok(Ev::Owned(Column::Bool(mask)))
            }
        },
        Expr::Case {
            branches,
            else_expr,
        } => eval_case(branches, else_expr, rows),
    }
}

/// CASE evaluation is *short-circuited per partition*: each branch's value
/// expression is evaluated only over the rows its condition claimed, then
/// results scatter back. Without this, a deeply nested CASE (an inlined
/// decision tree!) would evaluate every subtree for every row —
/// O(nodes × rows) instead of O(depth × rows).
fn eval_case<'a>(branches: &[(Expr, Expr)], else_expr: &Expr, rows: Rows<'a>) -> Result<Ev<'a>> {
    let n = rows.len();
    // Decide the branch per row (conditions still evaluate over all
    // undecided rows; for inlined trees there is exactly one condition).
    let mut chosen: Vec<usize> = vec![usize::MAX; n]; // MAX = else
    for (bi, (cond, _)) in branches.iter().enumerate() {
        let mask = predicate(cond, rows)?;
        for (c, &m) in chosen.iter_mut().zip(mask.iter()) {
            if m && *c == usize::MAX {
                *c = bi;
            }
        }
    }
    // Partition rows (as batch row numbers) by chosen branch.
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); branches.len() + 1];
    for (r, &c) in chosen.iter().enumerate() {
        let slot = if c == usize::MAX { branches.len() } else { c };
        groups[slot].push(rows.start + r);
    }
    // Narrow the batch to the columns each value expression needs before
    // `take`, so partitioning does not clone unrelated columns.
    let mut out_f64: Vec<f64> = vec![0.0; n];
    let mut out_utf8: Option<Vec<String>> = None;
    let mut is_utf8 = false;
    for (slot, group) in groups.iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        let value_expr = if slot == branches.len() {
            else_expr
        } else {
            &branches[slot].1
        };
        let sub = project_and_take(rows.batch, value_expr, group)?;
        let col = evaluate(value_expr, &sub)?;
        match col {
            Column::Utf8(vals) => {
                is_utf8 = true;
                let out = out_utf8.get_or_insert_with(|| vec![String::new(); n]);
                for (&r, v) in group.iter().zip(vals) {
                    out[r - rows.start] = v;
                }
            }
            other => {
                let vals = other.to_f64_vec()?;
                for (&r, v) in group.iter().zip(vals) {
                    out_f64[r - rows.start] = v;
                }
            }
        }
    }
    if is_utf8 {
        Ok(Ev::Owned(Column::Utf8(out_utf8.unwrap_or_default())))
    } else {
        Ok(Ev::Owned(Column::Float64(out_f64)))
    }
}

/// Take `rows` from `batch`, restricted to the columns `expr` references.
fn project_and_take(batch: &RecordBatch, expr: &Expr, rows: &[usize]) -> Result<RecordBatch> {
    let needed = expr.referenced_columns();
    if needed.is_empty() {
        // Pure literal subtree: keep one column so the sub-batch carries
        // the row count (literals broadcast over it at evaluation).
        let first = batch.project(&[0])?;
        return Ok(first.take(rows)?);
    }
    let schema = batch.schema();
    let mut indices = Vec::with_capacity(needed.len());
    for name in needed {
        indices.push(schema.index_of(&name)?);
    }
    indices.sort_unstable();
    indices.dedup();
    Ok(batch.project(&indices)?.take(rows)?)
}

fn eval_binary<'a>(op: BinOp, l: Ev<'a>, r: Ev<'a>, rows: usize) -> Result<Ev<'a>> {
    if op.is_logical() {
        return eval_logical(op, l, r, rows);
    }
    if op.is_comparison() {
        let mask = compare(op, l.operand(), r.operand(), rows)?;
        return Ok(Ev::Owned(Column::Bool(mask)));
    }
    eval_arithmetic(op, l.operand(), r.operand())
}

fn eval_logical<'a>(op: BinOp, l: Ev<'a>, r: Ev<'a>, rows: usize) -> Result<Ev<'a>> {
    let mut a = l.into_mask(rows, "logical op over")?.into_owned();
    let b = r.into_mask(rows, "logical op over")?;
    match op {
        BinOp::And => a.iter_mut().zip(b.iter()).for_each(|(x, &y)| *x = *x && y),
        BinOp::Or => a.iter_mut().zip(b.iter()).for_each(|(x, &y)| *x = *x || y),
        _ => unreachable!(),
    }
    Ok(Ev::Owned(Column::Bool(a)))
}

fn cmp_matches(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::NotEq => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::LtEq => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::GtEq => ord != Ordering::Less,
        _ => unreachable!(),
    }
}

/// Compare two operands row by row. Strings compare lexicographically
/// with strings; every other pair compares as `f64` under IEEE rules
/// (Int64 and Bool widen), so an ordered comparison involving NaN is
/// false and `<>` is true whether the other side is a column or a
/// literal. A string against a number is a typed error over a non-empty
/// input.
fn compare(op: BinOp, l: Operand<'_>, r: Operand<'_>, rows: usize) -> Result<Vec<bool>> {
    match (l, r) {
        (Operand::Column(ColumnRef::Utf8(a)), Operand::Column(ColumnRef::Utf8(b))) => Ok(cmp_strs(
            op,
            a.iter().map(String::as_str),
            b.iter().map(String::as_str),
        )),
        (Operand::Column(ColumnRef::Utf8(a)), Operand::Scalar(Value::Utf8(s))) => Ok(cmp_strs(
            op,
            a.iter().map(String::as_str),
            repeat(s.as_str()),
        )),
        // Past the two arms above, a string on either side meets a number.
        (Operand::Column(a), Operand::Column(b)) => {
            if a.is_empty() {
                return Ok(Vec::new());
            }
            check_comparable(a.data_type(), b.data_type())?;
            let (a, b) = (widen(a)?, widen(b)?);
            Ok(cmp_f64(op, a.iter().copied(), b.iter().copied()))
        }
        (Operand::Column(col), Operand::Scalar(s)) => {
            if col.is_empty() {
                return Ok(Vec::new());
            }
            check_comparable(col.data_type(), s.data_type())?;
            let t = s.as_f64()?;
            Ok(match col {
                ColumnRef::Float64(v) => cmp_f64(op, v.iter().copied(), repeat(t)),
                ColumnRef::Int64(v) => cmp_f64(op, v.iter().map(|&x| x as f64), repeat(t)),
                ColumnRef::Bool(v) => {
                    cmp_f64(op, v.iter().map(|&b| f64::from(u8::from(b))), repeat(t))
                }
                ColumnRef::Utf8(_) => unreachable!("checked comparable"),
            })
        }
        (Operand::Scalar(s), Operand::Column(col)) => {
            compare(flip_cmp(op), Operand::Column(col), Operand::Scalar(s), rows)
        }
        (Operand::Scalar(a), Operand::Scalar(b)) => {
            if rows == 0 {
                return Ok(Vec::new());
            }
            let one = scalar_column(a, 1);
            let m = compare(op, Operand::Column(one.view()), Operand::Scalar(b), 1)?;
            Ok(vec![m[0]; rows])
        }
    }
}

/// A typed error for a string compared with a number.
fn check_comparable(a: DataType, b: DataType) -> Result<()> {
    if a == DataType::Utf8 || b == DataType::Utf8 {
        return Err(ExecError::Eval(format!("cannot compare {a:?} with {b:?}")));
    }
    Ok(())
}

/// A numeric column's values as `f64` (Bool as 0.0/1.0), borrowed when
/// already Float64.
pub(crate) fn widen(col: ColumnRef<'_>) -> Result<Cow<'_, [f64]>> {
    Ok(match col {
        ColumnRef::Float64(v) => Cow::Borrowed(v),
        ColumnRef::Int64(v) => Cow::Owned(v.iter().map(|&x| x as f64).collect()),
        ColumnRef::Bool(v) => Cow::Owned(v.iter().map(|&b| f64::from(u8::from(b))).collect()),
        ColumnRef::Utf8(_) => {
            return Err(DataError::TypeMismatch {
                expected: "numeric".into(),
                actual: "Utf8".into(),
            }
            .into())
        }
    })
}

fn flip_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        other => other,
    }
}

fn cmp_f64(op: BinOp, a: impl Iterator<Item = f64>, b: impl Iterator<Item = f64>) -> Vec<bool> {
    let pairs = a.zip(b);
    match op {
        BinOp::Eq => pairs.map(|(x, y)| x == y).collect(),
        BinOp::NotEq => pairs.map(|(x, y)| x != y).collect(),
        BinOp::Lt => pairs.map(|(x, y)| x < y).collect(),
        BinOp::LtEq => pairs.map(|(x, y)| x <= y).collect(),
        BinOp::Gt => pairs.map(|(x, y)| x > y).collect(),
        BinOp::GtEq => pairs.map(|(x, y)| x >= y).collect(),
        _ => unreachable!(),
    }
}

fn cmp_strs<'s>(
    op: BinOp,
    a: impl Iterator<Item = &'s str>,
    b: impl Iterator<Item = &'s str>,
) -> Vec<bool> {
    let pairs = a.zip(b);
    match op {
        BinOp::Eq => pairs.map(|(x, y)| x == y).collect(),
        BinOp::NotEq => pairs.map(|(x, y)| x != y).collect(),
        _ => pairs.map(|(x, y)| cmp_matches(op, x.cmp(y))).collect(),
    }
}

fn eval_arithmetic<'a>(op: BinOp, l: Operand<'_>, r: Operand<'_>) -> Result<Ev<'a>> {
    let out: Vec<f64> = match (l, r) {
        // Scalar ∘ scalar folds immediately.
        (Operand::Scalar(a), Operand::Scalar(b)) => {
            return Ok(Ev::Scalar(Value::Float64(apply_arith(
                op,
                a.as_f64()?,
                b.as_f64()?,
            ))));
        }
        // Integer column ∘ integer scalar keeps Int64 for +,-,*.
        (Operand::Column(ColumnRef::Int64(v)), Operand::Scalar(Value::Int64(s)))
            if matches!(op, BinOp::Plus | BinOp::Minus | BinOp::Multiply) =>
        {
            let out = v
                .iter()
                .map(|&x| match op {
                    BinOp::Plus => x + s,
                    BinOp::Minus => x - s,
                    BinOp::Multiply => x * s,
                    _ => unreachable!(),
                })
                .collect();
            return Ok(Ev::Owned(Column::Int64(out)));
        }
        (Operand::Column(a), Operand::Column(b)) => {
            let (a, b) = (widen(a)?, widen(b)?);
            a.iter()
                .zip(b.iter())
                .map(|(&x, &y)| apply_arith(op, x, y))
                .collect()
        }
        (Operand::Column(a), Operand::Scalar(s)) => {
            let (a, y) = (widen(a)?, s.as_f64()?);
            a.iter().map(|&x| apply_arith(op, x, y)).collect()
        }
        (Operand::Scalar(s), Operand::Column(b)) => {
            let (x, b) = (s.as_f64()?, widen(b)?);
            b.iter().map(|&y| apply_arith(op, x, y)).collect()
        }
    };
    Ok(Ev::Owned(Column::Float64(out)))
}

fn apply_arith(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Plus => a + b,
        BinOp::Minus => a - b,
        BinOp::Multiply => a * b,
        BinOp::Divide => a / b,
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_data::Schema;

    fn batch() -> RecordBatch {
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int64),
            ("bp", DataType::Float64),
            ("dest", DataType::Utf8),
            ("pregnant", DataType::Bool),
        ])
        .into_shared();
        RecordBatch::try_new(
            schema,
            vec![
                Column::from(vec![1i64, 2, 3]),
                Column::from(vec![120.0, 150.0, 140.0]),
                Column::from(vec!["JFK", "LAX", "JFK"]),
                Column::from(vec![true, false, true]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn column_and_literal() {
        let b = batch();
        let c = evaluate(&Expr::col("bp"), &b).unwrap();
        assert_eq!(c.f64_values().unwrap(), &[120.0, 150.0, 140.0]);
        let c = evaluate(&Expr::lit(7i64), &b).unwrap();
        assert_eq!(c.i64_values().unwrap(), &[7, 7, 7]);
    }

    #[test]
    fn numeric_comparisons() {
        let b = batch();
        let mask = evaluate_predicate(&Expr::col("bp").gt(Expr::lit(140i64)), &b).unwrap();
        assert_eq!(mask, vec![false, true, false]);
        let mask = evaluate_predicate(&Expr::col("bp").gt_eq(Expr::lit(140i64)), &b).unwrap();
        assert_eq!(mask, vec![false, true, true]);
        // literal on the left
        let mask = evaluate_predicate(
            &Expr::binary(BinOp::Lt, Expr::lit(140i64), Expr::col("bp")),
            &b,
        )
        .unwrap();
        assert_eq!(mask, vec![false, true, false]);
    }

    #[test]
    fn string_equality() {
        let b = batch();
        let mask = evaluate_predicate(&Expr::col("dest").eq(Expr::lit("JFK")), &b).unwrap();
        assert_eq!(mask, vec![true, false, true]);
        let mask = evaluate_predicate(
            &Expr::binary(BinOp::NotEq, Expr::col("dest"), Expr::lit("JFK")),
            &b,
        )
        .unwrap();
        assert_eq!(mask, vec![false, true, false]);
    }

    #[test]
    fn nan_compares_alike_against_a_column_or_a_literal() {
        let schema = Schema::from_pairs(&[
            ("a", DataType::Float64),
            ("b", DataType::Float64),
            ("i", DataType::Int64),
            ("s", DataType::Utf8),
            ("t", DataType::Utf8),
        ])
        .into_shared();
        let b = RecordBatch::try_new(
            schema,
            vec![
                Column::from(vec![f64::NAN, 2.0]),
                Column::from(vec![1.0, 1.0]),
                Column::from(vec![1i64, 3]),
                Column::from(vec!["b", "a"]),
                Column::from(vec!["a", "a"]),
            ],
        )
        .unwrap();
        let mask = |op, l: &str, r: Expr| {
            evaluate_predicate(&Expr::binary(op, Expr::col(l), r), &b).unwrap()
        };
        // Column vs literal and column vs column agree: an ordered
        // comparison with NaN is false, `<>` is true.
        assert_eq!(mask(BinOp::Gt, "a", Expr::lit(1.0f64)), [false, true]);
        assert_eq!(mask(BinOp::Gt, "a", Expr::col("b")), [false, true]);
        assert_eq!(mask(BinOp::LtEq, "a", Expr::col("b")), [false, false]);
        assert_eq!(mask(BinOp::Eq, "a", Expr::col("b")), [false, false]);
        assert_eq!(mask(BinOp::NotEq, "a", Expr::col("b")), [true, true]);
        // Int64 widens to f64 against a float column.
        assert_eq!(mask(BinOp::Lt, "a", Expr::col("i")), [false, true]);
        // Strings compare lexicographically with strings only.
        assert_eq!(mask(BinOp::Gt, "s", Expr::col("t")), [true, false]);
        let err = evaluate_predicate(&Expr::col("s").gt(Expr::col("a")), &b);
        assert!(matches!(err, Err(ExecError::Eval(_))), "{err:?}");
    }

    #[test]
    fn logical_ops() {
        let b = batch();
        let e = Expr::col("pregnant")
            .eq(Expr::lit(true))
            .and(Expr::col("bp").gt(Expr::lit(130i64)));
        assert_eq!(
            evaluate_predicate(&e, &b).unwrap(),
            vec![false, false, true]
        );
        let e = Expr::col("dest")
            .eq(Expr::lit("LAX"))
            .or(Expr::col("id").eq(Expr::lit(1i64)));
        assert_eq!(evaluate_predicate(&e, &b).unwrap(), vec![true, true, false]);
        let e = Expr::Not(Box::new(Expr::col("pregnant").eq(Expr::lit(true))));
        assert_eq!(
            evaluate_predicate(&e, &b).unwrap(),
            vec![false, true, false]
        );
    }

    #[test]
    fn bool_column_as_predicate() {
        let b = batch();
        let mask = evaluate_predicate(&Expr::col("pregnant"), &b).unwrap();
        assert_eq!(mask, vec![true, false, true]);
    }

    #[test]
    fn arithmetic() {
        let b = batch();
        let c = evaluate(
            &Expr::binary(BinOp::Plus, Expr::col("bp"), Expr::lit(10i64)),
            &b,
        )
        .unwrap();
        assert_eq!(c.f64_values().unwrap(), &[130.0, 160.0, 150.0]);
        // Int column + int literal stays Int64.
        let c = evaluate(
            &Expr::binary(BinOp::Multiply, Expr::col("id"), Expr::lit(3i64)),
            &b,
        )
        .unwrap();
        assert_eq!(c.i64_values().unwrap(), &[3, 6, 9]);
        // Column / column.
        let c = evaluate(
            &Expr::binary(BinOp::Divide, Expr::col("bp"), Expr::col("id")),
            &b,
        )
        .unwrap();
        assert_eq!(c.f64_values().unwrap(), &[120.0, 75.0, 140.0 / 3.0]);
    }

    #[test]
    fn case_expression() {
        let b = batch();
        // The shape of an inlined decision stump.
        let e = Expr::Case {
            branches: vec![
                (Expr::col("bp").gt(Expr::lit(140i64)), Expr::lit(7.0f64)),
                (Expr::col("bp").gt(Expr::lit(120i64)), Expr::lit(4.0f64)),
            ],
            else_expr: Box::new(Expr::lit(2.0f64)),
        };
        let c = evaluate(&e, &b).unwrap();
        assert_eq!(c.f64_values().unwrap(), &[2.0, 7.0, 4.0]);
    }

    #[test]
    fn case_first_match_wins() {
        let b = batch();
        let e = Expr::Case {
            branches: vec![
                (Expr::lit(true), Expr::lit(1.0f64)),
                (Expr::lit(true), Expr::lit(2.0f64)),
            ],
            else_expr: Box::new(Expr::lit(3.0f64)),
        };
        let c = evaluate(&e, &b).unwrap();
        assert_eq!(c.f64_values().unwrap(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn case_string_branches() {
        let b = batch();
        let e = Expr::Case {
            branches: vec![(Expr::col("bp").gt(Expr::lit(130i64)), Expr::lit("high"))],
            else_expr: Box::new(Expr::lit("ok")),
        };
        let c = evaluate(&e, &b).unwrap();
        assert_eq!(c.utf8_values().unwrap(), &["ok", "high", "high"]);
    }

    #[test]
    fn errors() {
        let b = batch();
        // Non-boolean predicate.
        assert!(evaluate_predicate(&Expr::col("bp"), &b).is_err());
        // Unknown column.
        assert!(evaluate(&Expr::col("ghost"), &b).is_err());
        // Cross-type comparison (string vs number).
        assert!(evaluate_predicate(&Expr::col("dest").gt(Expr::lit(1i64)), &b).is_err());
        // NOT over non-bool.
        assert!(evaluate(&Expr::Not(Box::new(Expr::col("bp"))), &b).is_err());
        // Arithmetic over strings.
        assert!(evaluate(
            &Expr::binary(BinOp::Plus, Expr::col("dest"), Expr::lit(1i64)),
            &b
        )
        .is_err());
    }
}
