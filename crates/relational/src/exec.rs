//! The morsel-parallel plan executor.

use crate::error::ExecError;
use crate::eval::{evaluate, evaluate_predicate};
use crate::Result;
use raven_data::{Catalog, Column, RecordBatch, Schema, Table, Value};
use raven_ir::{AggFunc, Expr, Plan};
use raven_obs::SpanRecorder;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
#[allow(unused_imports)]
use std::sync::Arc;
use std::time::Instant;

/// A cooperative cancellation token threaded through plan execution.
///
/// The serving layer's deadline story hangs off this: a token carries an
/// optional wall-clock deadline and a shared flag, and the executor (plus
/// any cancellation-aware [`Scorer`]) polls it between operators and
/// morsels, aborting with [`ExecError::Cancelled`] instead of finishing
/// work whose requester has already given up. Checks are cooperative —
/// a long single scorer invocation still runs to completion — which
/// bounds over-run to one operator/morsel rather than one query.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that additionally cancels once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// Request cancellation (visible to every clone of this token).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the token was cancelled or its deadline has expired.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.deadline.is_some_and(|at| Instant::now() >= at)
    }

    /// `Err(ExecError::Cancelled)` once cancelled, `Ok(())` before.
    pub fn check(&self) -> Result<()> {
        if self.is_cancelled() {
            Err(ExecError::Cancelled)
        } else {
            Ok(())
        }
    }
}

/// Scoring hook for model operators.
///
/// The relational engine executes RA operators itself and hands `Predict`,
/// `TensorPredict`, `ClusteredPredict` and `Udf` nodes to a `Scorer` — the
/// seam where the paper plugs ONNX Runtime (in-process), external language
/// runtimes (out-of-process) and containers into SQL Server's executor.
pub trait Scorer: Send + Sync {
    /// Score `node` (a model operator) over `batch`, returning one
    /// prediction per row. The executor checks `cancel` before every
    /// call; scorers with internally long invocations (simulated
    /// external runtimes, chunked REST calls) poll it between chunks.
    fn score(&self, node: &Plan, batch: &RecordBatch, cancel: &CancelToken) -> Result<Vec<f64>>;

    /// Whether the engine may split the input into morsels and call
    /// [`Scorer::score`] from multiple worker threads. Out-of-process
    /// scorers typically serialize on one external runtime and return
    /// `false`.
    fn parallelizable(&self, node: &Plan) -> bool {
        let _ = node;
        true
    }
}

/// Static span name for an operator, used for per-operator execution
/// spans. `op:` prefixed so trace renderings read unambiguously next to
/// request-level stages.
fn op_span_name(plan: &Plan) -> &'static str {
    match plan {
        Plan::Scan { .. } => "op:scan",
        Plan::Filter { .. } => "op:filter",
        Plan::Project { .. } => "op:project",
        Plan::Join { .. } => "op:join",
        Plan::Aggregate { .. } => "op:aggregate",
        Plan::Union { .. } => "op:union",
        Plan::Sort { .. } => "op:sort",
        Plan::Limit { .. } => "op:limit",
        Plan::Predict { .. } => "op:predict",
        Plan::TensorPredict { .. } => "op:tensor-predict",
        Plan::KernelPredict { .. } => "op:kernel-predict",
        Plan::ClusteredPredict { .. } => "op:clustered-predict",
        Plan::Udf { .. } => "op:udf",
    }
}

/// The label of a model operator's `scorer-invocation` span: the model
/// (or UDF) it scores.
fn scorer_label(plan: &Plan) -> String {
    match plan {
        Plan::Predict { model, .. }
        | Plan::TensorPredict { model, .. }
        | Plan::KernelPredict { model, .. }
        | Plan::ClusteredPredict { model, .. } => model.name.clone(),
        Plan::Udf { name, .. } => name.clone(),
        other => other.label(),
    }
}

/// A scorer that rejects every model operator (pure-relational execution).
#[derive(Debug, Default)]
pub struct NoopScorer;

impl Scorer for NoopScorer {
    fn score(&self, node: &Plan, _batch: &RecordBatch, _cancel: &CancelToken) -> Result<Vec<f64>> {
        Err(ExecError::NoScorer(node.label()))
    }
}

/// Executor knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Worker threads for morsel-parallel operators (0 = all cores).
    pub parallelism: usize,
    /// Row-count threshold below which execution stays single-threaded —
    /// mirrors SQL Server choosing serial plans for small inputs.
    pub parallel_threshold: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            parallelism: 0,
            parallel_threshold: 20_000,
        }
    }
}

impl ExecOptions {
    /// Fully serial execution.
    pub fn serial() -> Self {
        ExecOptions {
            parallelism: 1,
            parallel_threshold: usize::MAX,
        }
    }

    fn workers(&self) -> usize {
        if self.parallelism == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.parallelism
        }
    }
}

/// Executes plans against a catalog.
pub struct Executor<'a> {
    catalog: &'a Catalog,
    scorer: &'a dyn Scorer,
    options: ExecOptions,
    cancel: CancelToken,
    trace: SpanRecorder,
}

/// An executor that *owns* its catalog and scorer behind `Arc`s, so it can
/// be held by long-lived, multi-threaded components (the serving layer)
/// without borrow plumbing. `Send + Sync`: one instance may execute plans
/// from many worker threads concurrently.
pub struct SharedExecutor {
    catalog: Arc<Catalog>,
    scorer: Arc<dyn Scorer>,
    options: ExecOptions,
}

impl SharedExecutor {
    pub fn new(catalog: Arc<Catalog>, scorer: Arc<dyn Scorer>, options: ExecOptions) -> Self {
        SharedExecutor {
            catalog,
            scorer,
            options,
        }
    }

    /// Execute a (possibly parameterized) plan to a materialized table.
    ///
    /// Placeholders are substituted into a throwaway copy of the plan
    /// ([`Plan::bind_parameters`] — arity and types validated there); the
    /// cached template itself is never mutated, and an empty parameter
    /// list over a parameter-free plan skips the copy. The executor polls
    /// `cancel` between operators and morsels and aborts with
    /// [`ExecError::Cancelled`] once it fires (or its deadline passes).
    /// With a live `trace`, every operator and scorer invocation lands in
    /// its span tree; a disabled recorder adds one branch per operator.
    pub fn execute_traced(
        &self,
        plan: &Plan,
        params: &[raven_data::Value],
        cancel: &CancelToken,
        trace: &SpanRecorder,
    ) -> Result<Table> {
        let run = |plan: &Plan| {
            Executor::new(&self.catalog, self.scorer.as_ref(), self.options)
                .with_cancel(cancel.clone())
                .with_trace(trace.clone())
                .execute(plan)
        };
        if params.is_empty() && plan.parameter_count() == 0 {
            return run(plan);
        }
        let bound = plan
            .bind_parameters(params)
            .map_err(|e| ExecError::Eval(e.to_string()))?;
        run(&bound)
    }
}

impl<'a> Executor<'a> {
    pub fn new(catalog: &'a Catalog, scorer: &'a dyn Scorer, options: ExecOptions) -> Self {
        Executor {
            catalog,
            scorer,
            options,
            cancel: CancelToken::new(),
            trace: SpanRecorder::disabled(),
        }
    }

    /// Attach a cancellation token (checked between operators/morsels).
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Attach a span recorder (per-operator and scorer spans).
    pub fn with_trace(mut self, trace: SpanRecorder) -> Self {
        self.trace = trace;
        self
    }

    /// Execute a plan to a materialized table.
    pub fn execute(&self, plan: &Plan) -> Result<Table> {
        Ok(Table::from_batch(self.exec(plan)?))
    }

    fn exec(&self, plan: &Plan) -> Result<RecordBatch> {
        self.cancel.check()?;
        // Recursive descent means child operators open their spans while
        // this guard is live, so the span tree mirrors the plan tree.
        let _op = self.trace.span(op_span_name(plan));
        match plan {
            Plan::Scan { table, schema } => {
                let t = self.catalog.table(table)?;
                if t.schema().fields() != schema.fields() {
                    return Err(ExecError::Internal(format!(
                        "scan schema for {table} does not match catalog"
                    )));
                }
                Ok(t.batch().clone())
            }
            Plan::Filter { input, predicate } => {
                let batch = self.exec(input)?;
                let filtered = self.morsel_map(&batch, true, |morsel| {
                    let mask = evaluate_predicate(predicate, morsel)?;
                    Ok(morsel.filter(&mask)?)
                })?;
                Ok(RecordBatch::concat(&filtered)?)
            }
            Plan::Project { input, exprs } => {
                let batch = self.exec(input)?;
                let schema = plan.schema()?;
                // Pure column references (renames, reorders — the shape
                // alias binding produces) pass columns through by shared
                // handle: no copy, no per-morsel work.
                let all_columns = exprs.iter().all(|(e, _)| matches!(e, Expr::Column(_)));
                if all_columns {
                    let columns = exprs
                        .iter()
                        .map(|(e, _)| {
                            let Expr::Column(name) = e else {
                                unreachable!()
                            };
                            let idx = batch.schema().index_of(name)?;
                            Ok(batch.column_arc(idx)?.clone())
                        })
                        .collect::<Result<Vec<_>>>()?;
                    return Ok(RecordBatch::try_new_shared(schema, columns)?);
                }
                let parts = self.morsel_map(&batch, true, |morsel| {
                    let columns = exprs
                        .iter()
                        .map(|(e, _)| coerce_to(evaluate(e, morsel)?, &schema, exprs, e))
                        .collect::<Result<Vec<_>>>()?;
                    Ok(RecordBatch::try_new(schema.clone(), columns)?)
                })?;
                Ok(RecordBatch::concat(&parts)?)
            }
            Plan::Join {
                left,
                right,
                left_key,
                right_key,
                ..
            } => {
                let lb = self.exec(left)?;
                let rb = self.exec(right)?;
                self.hash_join(&lb, &rb, left_key, right_key)
            }
            Plan::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                let batch = self.exec(input)?;
                let schema = plan.schema()?;
                hash_aggregate(&batch, group_by, aggregates, schema)
            }
            Plan::Union { inputs } => {
                let batches = inputs
                    .iter()
                    .map(|p| self.exec(p))
                    .collect::<Result<Vec<_>>>()?;
                // Align to the first input's schema (names may differ).
                let schema = batches[0].schema().clone();
                let aligned = batches
                    .into_iter()
                    .map(|b| {
                        RecordBatch::try_new_shared(schema.clone(), b.columns().to_vec())
                            .map_err(ExecError::from)
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok(RecordBatch::concat(&aligned)?)
            }
            Plan::Sort {
                input,
                column,
                descending,
            } => {
                let batch = self.exec(input)?;
                let col = batch.column_by_name(column)?;
                let mut indices: Vec<usize> = (0..batch.num_rows()).collect();
                sort_indices(&mut indices, col, *descending)?;
                Ok(batch.take(&indices)?)
            }
            Plan::Limit { input, fetch } => {
                let batch = self.exec(input)?;
                let end = (*fetch).min(batch.num_rows());
                Ok(batch.slice(0, end)?)
            }
            Plan::Predict { input, output, .. }
            | Plan::TensorPredict { input, output, .. }
            | Plan::KernelPredict { input, output, .. }
            | Plan::ClusteredPredict { input, output, .. }
            | Plan::Udf { input, output, .. } => {
                let batch = self.exec(input)?;
                let allow_parallel = self.scorer.parallelizable(plan);
                // `morsel_map` checks the token before every morsel, so a
                // cancelled request never reaches the scorer.
                let scores = self.morsel_map(&batch, allow_parallel, |morsel| {
                    // The label closure only runs when the recorder is live.
                    let _span = self
                        .trace
                        .span_labeled("scorer-invocation", || scorer_label(plan));
                    let s = self.scorer.score(plan, morsel, &self.cancel)?;
                    if s.len() != morsel.num_rows() {
                        return Err(ExecError::Scoring(format!(
                            "scorer returned {} predictions for {} rows",
                            s.len(),
                            morsel.num_rows()
                        )));
                    }
                    Ok(s)
                })?;
                let predictions: Vec<f64> = scores.into_iter().flatten().collect();
                let schema = plan.schema()?;
                let mut columns = batch.columns().to_vec();
                columns.push(std::sync::Arc::new(Column::Float64(predictions)));
                let _ = output;
                Ok(RecordBatch::try_new_shared(schema, columns)?)
            }
        }
    }

    /// Split `batch` into per-worker morsels and map `f` over them (in
    /// parallel when the batch is large enough and `allow_parallel`).
    /// Results come back in row order.
    fn morsel_map<T: Send>(
        &self,
        batch: &RecordBatch,
        allow_parallel: bool,
        f: impl Fn(&RecordBatch) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        let rows = batch.num_rows();
        let workers = self.options.workers();
        self.cancel.check()?;
        if !allow_parallel
            || workers <= 1
            || rows < self.options.parallel_threshold
            || rows < workers
        {
            return Ok(vec![f(batch)?]);
        }
        // Near-equal contiguous ranges, one per worker.
        let base = rows / workers;
        let extra = rows % workers;
        let mut ranges = Vec::with_capacity(workers);
        let mut start = 0;
        for i in 0..workers {
            let len = base + usize::from(i < extra);
            ranges.push((start, start + len));
            start += len;
        }
        let mut results: Vec<Option<Result<T>>> = Vec::new();
        results.resize_with(ranges.len(), || None);
        crossbeam::thread::scope(|scope| {
            for (slot, &(lo, hi)) in results.iter_mut().zip(&ranges) {
                let f = &f;
                let cancel = &self.cancel;
                scope.spawn(move |_| {
                    if let Err(e) = cancel.check() {
                        *slot = Some(Err(e));
                        return;
                    }
                    let morsel = match batch.slice(lo, hi) {
                        Ok(m) => m,
                        Err(e) => {
                            *slot = Some(Err(e.into()));
                            return;
                        }
                    };
                    *slot = Some(f(&morsel));
                });
            }
        })
        .map_err(|_| ExecError::Internal("worker panicked".into()))?;
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|| Err(ExecError::Internal("missing morsel".into()))))
            .collect()
    }

    fn hash_join(
        &self,
        left: &RecordBatch,
        right: &RecordBatch,
        left_key: &str,
        right_key: &str,
    ) -> Result<RecordBatch> {
        let lcol = left.column_by_name(left_key)?;
        let rcol = right.column_by_name(right_key)?;
        // Build on the right side.
        let mut build: HashMap<JoinKey, Vec<usize>> = HashMap::with_capacity(right.num_rows());
        for i in 0..rcol.len() {
            build
                .entry(JoinKey::from_value(&rcol.get(i)?)?)
                .or_default()
                .push(i);
        }
        let mut left_idx = Vec::new();
        let mut right_idx = Vec::new();
        for i in 0..lcol.len() {
            if let Some(matches) = build.get(&JoinKey::from_value(&lcol.get(i)?)?) {
                for &j in matches {
                    left_idx.push(i);
                    right_idx.push(j);
                }
            }
        }
        let lout = left.take(&left_idx)?;
        let rout = right.take(&right_idx)?;
        let schema = Arc::new(lout.schema().join(rout.schema()));
        let mut columns = lout.columns().to_vec();
        columns.extend(rout.columns().iter().cloned());
        Ok(RecordBatch::try_new_shared(schema, columns)?)
    }
}

/// Hashable join/group key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum JoinKey {
    Int(i64),
    Str(String),
    Bool(bool),
    /// f64 keys hashed by bit pattern (exact-match equi-join semantics).
    Bits(u64),
}

impl JoinKey {
    fn from_value(v: &Value) -> Result<JoinKey> {
        Ok(match v {
            Value::Int64(x) => JoinKey::Int(*x),
            Value::Utf8(s) => JoinKey::Str(s.clone()),
            Value::Bool(b) => JoinKey::Bool(*b),
            Value::Float64(f) => JoinKey::Bits(f.to_bits()),
        })
    }
}

/// Coerce an evaluated column to the type the projected schema expects
/// (Int64 expression results may need widening to Float64, e.g. when a
/// CASE branch mixes literals).
fn coerce_to(
    col: Column,
    schema: &Arc<Schema>,
    exprs: &[(Expr, String)],
    expr: &Expr,
) -> Result<Column> {
    let idx = exprs
        .iter()
        .position(|(e, _)| e == expr)
        .ok_or_else(|| ExecError::Internal("expression not in projection".into()))?;
    let want = schema.field(idx)?.dtype;
    if col.data_type() == want {
        return Ok(col);
    }
    match (col, want) {
        (Column::Int64(v), raven_data::DataType::Float64) => {
            Ok(Column::Float64(v.into_iter().map(|x| x as f64).collect()))
        }
        (Column::Float64(v), raven_data::DataType::Int64) => {
            Ok(Column::Int64(v.into_iter().map(|x| x as i64).collect()))
        }
        (col, want) => Err(ExecError::Eval(format!(
            "cannot coerce {} to {}",
            col.data_type(),
            want
        ))),
    }
}

fn sort_indices(indices: &mut [usize], col: &Column, descending: bool) -> Result<()> {
    match col {
        Column::Int64(v) => indices.sort_by_key(|&i| v[i]),
        Column::Bool(v) => indices.sort_by_key(|&i| v[i]),
        Column::Utf8(v) => indices.sort_by(|&a, &b| v[a].cmp(&v[b])),
        Column::Float64(v) => {
            indices.sort_by(|&a, &b| v[a].partial_cmp(&v[b]).unwrap_or(std::cmp::Ordering::Equal))
        }
    }
    if descending {
        indices.reverse();
    }
    Ok(())
}

/// Aggregate accumulator.
enum Acc {
    Count(i64),
    Sum(f64),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, n: usize },
}

impl Acc {
    fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum(0.0),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
        }
    }

    fn update(&mut self, v: &Value) -> Result<()> {
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum(s) => *s += v.as_f64().map_err(ExecError::from)?,
            Acc::Avg { sum, n } => {
                *sum += v.as_f64().map_err(ExecError::from)?;
                *n += 1;
            }
            Acc::Min(cur) => {
                let replace = match cur {
                    None => true,
                    Some(c) => v
                        .partial_cmp_value(c)
                        .map(|o| o == std::cmp::Ordering::Less)
                        .unwrap_or(false),
                };
                if replace {
                    *cur = Some(v.clone());
                }
            }
            Acc::Max(cur) => {
                let replace = match cur {
                    None => true,
                    Some(c) => v
                        .partial_cmp_value(c)
                        .map(|o| o == std::cmp::Ordering::Greater)
                        .unwrap_or(false),
                };
                if replace {
                    *cur = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    fn finish(&self, want: raven_data::DataType) -> Value {
        match self {
            Acc::Count(n) => Value::Int64(*n),
            Acc::Sum(s) => match want {
                raven_data::DataType::Int64 => Value::Int64(*s as i64),
                _ => Value::Float64(*s),
            },
            Acc::Avg { sum, n } => Value::Float64(if *n == 0 { 0.0 } else { sum / *n as f64 }),
            Acc::Min(v) | Acc::Max(v) => v.clone().unwrap_or(Value::Float64(f64::NAN)),
        }
    }
}

fn hash_aggregate(
    batch: &RecordBatch,
    group_by: &[String],
    aggregates: &[(AggFunc, String, String)],
    schema: Arc<Schema>,
) -> Result<RecordBatch> {
    let group_cols: Vec<&Column> = group_by
        .iter()
        .map(|g| batch.column_by_name(g))
        .collect::<std::result::Result<_, _>>()?;
    let agg_cols: Vec<&Column> = aggregates
        .iter()
        .map(|(_, c, _)| batch.column_by_name(c))
        .collect::<std::result::Result<_, _>>()?;

    // Group index: key → slot, preserving first-seen order.
    let mut slots: HashMap<Vec<JoinKey>, usize> = HashMap::new();
    let mut group_values: Vec<Vec<Value>> = Vec::new();
    let mut accs: Vec<Vec<Acc>> = Vec::new();
    for r in 0..batch.num_rows() {
        let mut key = Vec::with_capacity(group_cols.len());
        for col in &group_cols {
            key.push(JoinKey::from_value(&col.get(r)?)?);
        }
        let slot = match slots.get(&key) {
            Some(&s) => s,
            None => {
                let s = group_values.len();
                slots.insert(key, s);
                group_values.push(
                    group_cols
                        .iter()
                        .map(|c| c.get(r))
                        .collect::<std::result::Result<_, _>>()?,
                );
                accs.push(aggregates.iter().map(|(f, _, _)| Acc::new(*f)).collect());
                s
            }
        };
        for (acc, col) in accs[slot].iter_mut().zip(&agg_cols) {
            acc.update(&col.get(r)?)?;
        }
    }
    // Global aggregate with no groups over an empty input: one row of
    // zero-ish accumulators, matching SQL semantics for COUNT.
    if group_by.is_empty() && group_values.is_empty() {
        group_values.push(vec![]);
        accs.push(aggregates.iter().map(|(f, _, _)| Acc::new(*f)).collect());
    }

    let mut columns: Vec<Column> = schema
        .fields()
        .iter()
        .map(|f| Column::with_capacity(f.dtype, group_values.len()))
        .collect();
    for (gv, acc_row) in group_values.iter().zip(&accs) {
        for (c, v) in columns.iter_mut().zip(gv.iter().cloned()) {
            c.push(v)?;
        }
        for (i, acc) in acc_row.iter().enumerate() {
            let field = schema.field(group_by.len() + i)?;
            columns[group_by.len() + i].push(acc.finish(field.dtype))?;
        }
    }
    Ok(RecordBatch::try_new(schema, columns)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_data::DataType;
    use raven_ir::{JoinKind, ModelRef};
    use raven_ml::{Estimator, FeatureStep, LinearKind, LinearModel, Pipeline, Transform};

    /// Scorer that runs the classical pipeline in-process (test double for
    /// the runtime layer).
    struct PipelineScorer;

    impl Scorer for PipelineScorer {
        fn score(&self, node: &Plan, batch: &RecordBatch, _: &CancelToken) -> Result<Vec<f64>> {
            match node {
                Plan::Predict { model, .. } => model
                    .pipeline
                    .predict(batch)
                    .map_err(|e| ExecError::Scoring(e.to_string())),
                other => Err(ExecError::NoScorer(other.label())),
            }
        }
    }

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int64),
            ("age", DataType::Float64),
            ("dest", DataType::Utf8),
        ])
        .into_shared();
        let t = Table::try_new(
            schema,
            vec![
                Column::from(vec![1i64, 2, 3, 4]),
                Column::from(vec![30.0, 40.0, 50.0, 60.0]),
                Column::from(vec!["JFK", "LAX", "JFK", "SEA"]),
            ],
        )
        .unwrap();
        cat.register("people", t).unwrap();

        let schema2 = Schema::from_pairs(&[("pid", DataType::Int64), ("bp", DataType::Float64)])
            .into_shared();
        let t2 = Table::try_new(
            schema2,
            vec![
                Column::from(vec![1i64, 2, 2, 5]),
                Column::from(vec![120.0, 130.0, 150.0, 110.0]),
            ],
        )
        .unwrap();
        cat.register("vitals", t2).unwrap();
        cat
    }

    fn scan(cat: &Catalog, name: &str) -> Plan {
        Plan::Scan {
            table: name.into(),
            schema: cat.table(name).unwrap().schema().clone(),
        }
    }

    fn exec(cat: &Catalog, plan: &Plan) -> Table {
        Executor::new(cat, &PipelineScorer, ExecOptions::serial())
            .execute(plan)
            .unwrap()
    }

    #[test]
    fn scan_and_filter() {
        let cat = catalog();
        let plan = Plan::Filter {
            input: Box::new(scan(&cat, "people")),
            predicate: Expr::col("age").gt(Expr::lit(35i64)),
        };
        let t = exec(&cat, &plan);
        assert_eq!(t.num_rows(), 3);
        assert_eq!(
            t.column_by_name("id").unwrap().i64_values().unwrap(),
            &[2, 3, 4]
        );
    }

    #[test]
    fn project_with_expressions() {
        let cat = catalog();
        let plan = Plan::Project {
            input: Box::new(scan(&cat, "people")),
            exprs: vec![
                (Expr::col("id"), "id".into()),
                (
                    Expr::binary(raven_ir::BinOp::Multiply, Expr::col("age"), Expr::lit(2i64)),
                    "age2".into(),
                ),
            ],
        };
        let t = exec(&cat, &plan);
        assert_eq!(t.schema().names(), vec!["id", "age2"]);
        assert_eq!(
            t.column_by_name("age2").unwrap().f64_values().unwrap(),
            &[60.0, 80.0, 100.0, 120.0]
        );
    }

    #[test]
    fn hash_join_inner() {
        let cat = catalog();
        let plan = Plan::Join {
            left: Box::new(scan(&cat, "people")),
            right: Box::new(scan(&cat, "vitals")),
            left_key: "id".into(),
            right_key: "pid".into(),
            kind: JoinKind::Inner,
        };
        let t = exec(&cat, &plan);
        // id=1 matches once, id=2 matches twice; 3,4 don't match.
        assert_eq!(t.num_rows(), 3);
        assert_eq!(
            t.column_by_name("bp").unwrap().f64_values().unwrap(),
            &[120.0, 130.0, 150.0]
        );
        assert_eq!(t.schema().names().len(), 5);
    }

    #[test]
    fn aggregate_grouped() {
        let cat = catalog();
        let plan = Plan::Aggregate {
            input: Box::new(scan(&cat, "people")),
            group_by: vec!["dest".into()],
            aggregates: vec![
                (AggFunc::Count, "id".into(), "n".into()),
                (AggFunc::Avg, "age".into(), "avg_age".into()),
                (AggFunc::Max, "age".into(), "max_age".into()),
            ],
        };
        let t = exec(&cat, &plan);
        assert_eq!(t.num_rows(), 3);
        // First-seen order: JFK, LAX, SEA.
        assert_eq!(
            t.column_by_name("dest").unwrap().utf8_values().unwrap(),
            &["JFK", "LAX", "SEA"]
        );
        assert_eq!(
            t.column_by_name("n").unwrap().i64_values().unwrap(),
            &[2, 1, 1]
        );
        assert_eq!(
            t.column_by_name("avg_age").unwrap().f64_values().unwrap(),
            &[40.0, 40.0, 60.0]
        );
        assert_eq!(
            t.column_by_name("max_age").unwrap().f64_values().unwrap(),
            &[50.0, 40.0, 60.0]
        );
    }

    #[test]
    fn aggregate_global() {
        let cat = catalog();
        let plan = Plan::Aggregate {
            input: Box::new(scan(&cat, "people")),
            group_by: vec![],
            aggregates: vec![
                (AggFunc::Count, "id".into(), "n".into()),
                (AggFunc::Sum, "id".into(), "s".into()),
            ],
        };
        let t = exec(&cat, &plan);
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.column_by_name("n").unwrap().i64_values().unwrap(), &[4]);
        assert_eq!(t.column_by_name("s").unwrap().i64_values().unwrap(), &[10]);
    }

    #[test]
    fn aggregate_global_empty_input() {
        let cat = catalog();
        let plan = Plan::Aggregate {
            input: Box::new(Plan::Filter {
                input: Box::new(scan(&cat, "people")),
                predicate: Expr::col("age").gt(Expr::lit(1000i64)),
            }),
            group_by: vec![],
            aggregates: vec![(AggFunc::Count, "id".into(), "n".into())],
        };
        let t = exec(&cat, &plan);
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.column_by_name("n").unwrap().i64_values().unwrap(), &[0]);
    }

    #[test]
    fn sort_and_limit() {
        let cat = catalog();
        let plan = Plan::Limit {
            input: Box::new(Plan::Sort {
                input: Box::new(scan(&cat, "people")),
                column: "age".into(),
                descending: true,
            }),
            fetch: 2,
        };
        let t = exec(&cat, &plan);
        assert_eq!(
            t.column_by_name("age").unwrap().f64_values().unwrap(),
            &[60.0, 50.0]
        );
    }

    #[test]
    fn union_concatenates() {
        let cat = catalog();
        let a = scan(&cat, "people");
        let plan = Plan::Union {
            inputs: vec![a.clone(), a],
        };
        let t = exec(&cat, &plan);
        assert_eq!(t.num_rows(), 8);
    }

    #[test]
    fn predict_appends_scores() {
        let cat = catalog();
        let pipeline = Pipeline::new(
            vec![FeatureStep::new("age", Transform::Identity)],
            Estimator::Linear(LinearModel::new(vec![0.1], 1.0, LinearKind::Regression).unwrap()),
        )
        .unwrap();
        let plan = Plan::Predict {
            input: Box::new(scan(&cat, "people")),
            model: ModelRef {
                name: "m".into(),
                pipeline: Arc::new(pipeline),
            },
            output: "score".into(),
            mode: raven_ir::ExecutionMode::InProcess,
        };
        let t = exec(&cat, &plan);
        assert_eq!(
            t.column_by_name("score").unwrap().f64_values().unwrap(),
            &[4.0, 5.0, 6.0, 7.0]
        );
    }

    #[test]
    fn parallel_execution_matches_serial() {
        // Large synthetic table to cross the parallel threshold.
        let cat = Catalog::new();
        let n = 50_000;
        let schema = Schema::from_pairs(&[("x", DataType::Float64)]).into_shared();
        let t = Table::try_new(
            schema,
            vec![Column::Float64((0..n).map(|i| (i % 997) as f64).collect())],
        )
        .unwrap();
        cat.register("big", t).unwrap();
        let plan = Plan::Filter {
            input: Box::new(scan(&cat, "big")),
            predicate: Expr::col("x").gt(Expr::lit(500i64)),
        };
        let serial = Executor::new(&cat, &NoopScorer, ExecOptions::serial())
            .execute(&plan)
            .unwrap();
        let parallel = Executor::new(
            &cat,
            &NoopScorer,
            ExecOptions {
                parallelism: 4,
                parallel_threshold: 1000,
            },
        )
        .execute(&plan)
        .unwrap();
        assert_eq!(serial.num_rows(), parallel.num_rows());
        assert_eq!(serial.batch(), parallel.batch());
    }

    #[test]
    fn parameterized_template_executes_per_request() {
        let cat = catalog();
        let template = Plan::Filter {
            input: Box::new(scan(&cat, "people")),
            predicate: Expr::col("age").gt(Expr::typed_param(0, DataType::Float64)),
        };
        let shared = SharedExecutor::new(
            Arc::new(catalog()),
            Arc::new(NoopScorer) as Arc<dyn Scorer>,
            ExecOptions::serial(),
        );
        let run = |params: &[Value]| {
            shared.execute_traced(
                &template,
                params,
                &CancelToken::new(),
                &SpanRecorder::disabled(),
            )
        };
        // One template, three requests with different constants.
        for (threshold, expect) in [(35i64, 3usize), (45, 2), (55, 1)] {
            let t = run(&[Value::Int64(threshold)]).unwrap();
            assert_eq!(t.num_rows(), expect, "age > {threshold}");
        }
        // Unbound execution of a template is a typed error, not a panic.
        let err = run(&[]);
        assert!(matches!(err, Err(ExecError::Eval(_))), "{err:?}");
        let direct = Executor::new(&cat, &NoopScorer, ExecOptions::serial()).execute(&template);
        assert!(matches!(direct, Err(ExecError::Eval(_))));
        // Wrong type: string into a Float64 slot.
        let err = run(&[Value::Utf8("x".into())]);
        assert!(matches!(err, Err(ExecError::Eval(_))));
    }

    #[test]
    fn noop_scorer_rejects_models() {
        let cat = catalog();
        let pipeline = Pipeline::new(
            vec![FeatureStep::new("age", Transform::Identity)],
            Estimator::Linear(LinearModel::new(vec![1.0], 0.0, LinearKind::Regression).unwrap()),
        )
        .unwrap();
        let plan = Plan::Predict {
            input: Box::new(scan(&cat, "people")),
            model: ModelRef {
                name: "m".into(),
                pipeline: Arc::new(pipeline),
            },
            output: "score".into(),
            mode: raven_ir::ExecutionMode::InProcess,
        };
        let err = Executor::new(&cat, &NoopScorer, ExecOptions::serial()).execute(&plan);
        assert!(matches!(err, Err(ExecError::NoScorer(_))));
    }

    #[test]
    fn cancelled_token_aborts_before_execution() {
        let cat = catalog();
        let plan = scan(&cat, "people");
        let token = CancelToken::new();
        token.cancel();
        let err = Executor::new(&cat, &NoopScorer, ExecOptions::serial())
            .with_cancel(token)
            .execute(&plan);
        assert!(matches!(err, Err(ExecError::Cancelled)));
    }

    #[test]
    fn expired_deadline_cancels_execution() {
        let cat = catalog();
        let plan = Plan::Filter {
            input: Box::new(scan(&cat, "people")),
            predicate: Expr::col("age").gt(Expr::lit(0i64)),
        };
        let token = CancelToken::with_deadline(std::time::Instant::now());
        let err = Executor::new(&cat, &NoopScorer, ExecOptions::serial())
            .with_cancel(token)
            .execute(&plan);
        assert!(matches!(err, Err(ExecError::Cancelled)));
        // A generous deadline does not interfere.
        let token = CancelToken::with_deadline(
            std::time::Instant::now() + std::time::Duration::from_secs(60),
        );
        let ok = Executor::new(&cat, &NoopScorer, ExecOptions::serial())
            .with_cancel(token)
            .execute(&plan);
        assert_eq!(ok.unwrap().num_rows(), 4);
    }

    #[test]
    fn cancellation_fires_between_scorer_morsels() {
        // A scorer that cancels the shared token from inside its first
        // invocation: the next morsel (or operator) must observe it.
        struct CancellingScorer(CancelToken);
        impl Scorer for CancellingScorer {
            fn score(&self, _: &Plan, batch: &RecordBatch, _: &CancelToken) -> Result<Vec<f64>> {
                self.0.cancel();
                Ok(vec![0.0; batch.num_rows()])
            }
        }
        let cat = catalog();
        let token = CancelToken::new();
        let inner = Plan::Predict {
            input: Box::new(scan(&cat, "people")),
            model: ModelRef {
                name: "m".into(),
                pipeline: Arc::new(
                    Pipeline::new(
                        vec![FeatureStep::new("age", Transform::Identity)],
                        Estimator::Linear(
                            LinearModel::new(vec![1.0], 0.0, LinearKind::Regression).unwrap(),
                        ),
                    )
                    .unwrap(),
                ),
            },
            output: "s1".into(),
            mode: raven_ir::ExecutionMode::InProcess,
        };
        // Two stacked Predicts: the first invocation cancels, the second
        // operator's pre-check aborts the plan.
        let plan = Plan::Predict {
            input: Box::new(inner),
            model: ModelRef {
                name: "m2".into(),
                pipeline: Arc::new(
                    Pipeline::new(
                        vec![FeatureStep::new("age", Transform::Identity)],
                        Estimator::Linear(
                            LinearModel::new(vec![1.0], 0.0, LinearKind::Regression).unwrap(),
                        ),
                    )
                    .unwrap(),
                ),
            },
            output: "s2".into(),
            mode: raven_ir::ExecutionMode::InProcess,
        };
        let scorer = CancellingScorer(token.clone());
        let err = Executor::new(&cat, &scorer, ExecOptions::serial())
            .with_cancel(token)
            .execute(&plan);
        assert!(matches!(err, Err(ExecError::Cancelled)));
    }

    #[test]
    fn traced_execution_mirrors_the_plan_tree() {
        let cat = catalog();
        let pipeline = Pipeline::new(
            vec![FeatureStep::new("age", Transform::Identity)],
            Estimator::Linear(LinearModel::new(vec![0.1], 1.0, LinearKind::Regression).unwrap()),
        )
        .unwrap();
        let plan = Plan::Predict {
            input: Box::new(Plan::Filter {
                input: Box::new(scan(&cat, "people")),
                predicate: Expr::col("age").gt(Expr::lit(35i64)),
            }),
            model: ModelRef {
                name: "m".into(),
                pipeline: Arc::new(pipeline),
            },
            output: "score".into(),
            mode: raven_ir::ExecutionMode::InProcess,
        };
        let trace = SpanRecorder::enabled();
        let t = Executor::new(&cat, &PipelineScorer, ExecOptions::serial())
            .with_trace(trace.clone())
            .execute(&plan)
            .unwrap();
        assert_eq!(t.num_rows(), 3);
        let spans = trace.into_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["op:predict", "op:filter", "op:scan", "scorer-invocation:m"]
        );
        // Parent links mirror the plan: filter under predict, scan under
        // filter, the scorer invocation under predict.
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        // An untraced executor records nothing and still works.
        let t2 = Executor::new(&cat, &PipelineScorer, ExecOptions::serial())
            .execute(&plan)
            .unwrap();
        assert_eq!(t2.num_rows(), 3);
    }

    #[test]
    fn scorer_span_carries_the_model_and_cancel_skips_the_scorer() {
        // Counts its invocations and scores every row 1.0.
        struct CountingScorer(std::sync::atomic::AtomicUsize);
        impl Scorer for CountingScorer {
            fn score(&self, _: &Plan, batch: &RecordBatch, _: &CancelToken) -> Result<Vec<f64>> {
                self.0.fetch_add(1, Ordering::SeqCst);
                Ok(vec![1.0; batch.num_rows()])
            }
        }
        let cat = catalog();
        let pipeline = Pipeline::new(
            vec![FeatureStep::new("age", Transform::Identity)],
            Estimator::Linear(LinearModel::new(vec![1.0], 0.0, LinearKind::Regression).unwrap()),
        )
        .unwrap();
        let plan = Plan::Predict {
            input: Box::new(scan(&cat, "people")),
            model: ModelRef {
                name: "risk".into(),
                pipeline: Arc::new(pipeline),
            },
            output: "score".into(),
            mode: raven_ir::ExecutionMode::InProcess,
        };
        let scorer = CountingScorer(Default::default());
        let run = |cancel: CancelToken, trace: &SpanRecorder| {
            Executor::new(&cat, &scorer, ExecOptions::serial())
                .with_cancel(cancel)
                .with_trace(trace.clone())
                .execute(&plan)
        };
        let trace = SpanRecorder::enabled();
        assert_eq!(run(CancelToken::new(), &trace).unwrap().num_rows(), 4);
        let spans = trace.into_spans();
        let predict = spans.iter().position(|s| s.name == "op:predict").unwrap();
        let invocation = spans
            .iter()
            .find(|s| s.name.starts_with("scorer-invocation"))
            .expect("a scorer span");
        assert_eq!(invocation.name, "scorer-invocation:risk");
        assert_eq!(invocation.parent, Some(predict as u32));
        assert_eq!(scorer.0.load(Ordering::SeqCst), 1);
        // A token cancelled before execution: the scorer is never called
        // and no invocation span is opened.
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let trace = SpanRecorder::enabled();
        assert!(matches!(run(cancelled, &trace), Err(ExecError::Cancelled)));
        assert_eq!(scorer.0.load(Ordering::SeqCst), 1);
        assert!(!trace
            .into_spans()
            .iter()
            .any(|s| s.name.starts_with("scorer-invocation")));
    }

    #[test]
    fn case_projection_inlined_tree() {
        // Model inlining shape: CASE over bp, evaluated by the engine.
        let cat = catalog();
        let case = Expr::Case {
            branches: vec![(Expr::col("bp").gt(Expr::lit(140i64)), Expr::lit(7.0f64))],
            else_expr: Box::new(Expr::lit(2.0f64)),
        };
        let plan = Plan::Project {
            input: Box::new(scan(&cat, "vitals")),
            exprs: vec![(Expr::col("pid"), "pid".into()), (case, "stay".into())],
        };
        let t = exec(&cat, &plan);
        assert_eq!(
            t.column_by_name("stay").unwrap().f64_values().unwrap(),
            &[2.0, 2.0, 7.0, 2.0]
        );
    }
}
