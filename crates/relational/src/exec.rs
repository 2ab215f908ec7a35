//! The morsel-parallel plan executor.

use crate::error::ExecError;
use crate::eval::{evaluate_predicate_range, evaluate_range, widen};
use crate::Result;
use raven_data::{Catalog, Column, ColumnRef, DataType, RecordBatch, Schema, Table, Value};
use raven_ir::{AggFunc, Expr, Plan};
use raven_obs::SpanRecorder;
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
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

    /// Worker threads; `parallelism: 0` reads the core count once per
    /// process (the read goes to cgroup files and costs microseconds).
    fn workers(&self) -> usize {
        static CORES: OnceLock<usize> = OnceLock::new();
        match self.parallelism {
            0 => *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
            n => n,
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
                // One mask over the whole input (built per morsel over
                // borrowed row ranges), then one gather per column.
                let masks = self.morsel_map(batch.num_rows(), true, |lo, hi| {
                    evaluate_predicate_range(predicate, &batch, lo, hi)
                })?;
                Ok(batch.take(&selection(&concat_parts(masks)))?)
            }
            Plan::Project { input, exprs } => {
                let batch = self.exec(input)?;
                let schema = plan.schema()?;
                // Column references (renames, reorders, the passthrough
                // beside an inlined model's score) share the input column
                // by handle; only computed expressions are evaluated, over
                // borrowed row ranges.
                let computed: Vec<(&Expr, DataType)> = exprs
                    .iter()
                    .zip(schema.fields())
                    .filter(|((e, _), _)| !matches!(e, Expr::Column(_)))
                    .map(|((e, _), field)| (e, field.dtype))
                    .collect();
                let mut values = if computed.is_empty() {
                    Vec::new()
                } else {
                    concat_columns(self.morsel_map(batch.num_rows(), true, |lo, hi| {
                        computed
                            .iter()
                            .map(|&(e, want)| coerce_to(evaluate_range(e, &batch, lo, hi)?, want))
                            .collect::<Result<Vec<_>>>()
                    })?)?
                }
                .into_iter();
                let columns = exprs
                    .iter()
                    .map(|(e, _)| match e {
                        Expr::Column(name) => {
                            let idx = batch.schema().index_of(name)?;
                            Ok(batch.column_arc(idx)?.clone())
                        }
                        _ => values.next().map(Arc::new).ok_or_else(|| {
                            ExecError::Internal("projection lost a computed column".into())
                        }),
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok(RecordBatch::try_new_shared(schema, columns)?)
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
                if *fetch >= batch.num_rows() {
                    return Ok(batch);
                }
                Ok(batch.slice(0, *fetch)?)
            }
            Plan::Predict { input, .. }
            | Plan::TensorPredict { input, .. }
            | Plan::KernelPredict { input, .. }
            | Plan::ClusteredPredict { input, .. }
            | Plan::Udf { input, .. } => {
                let batch = self.exec(input)?;
                let rows = batch.num_rows();
                let allow_parallel = self.scorer.parallelizable(plan);
                // The columns the scorer reads, shared from the input;
                // built by the first morsel that needs them.
                let scored: OnceLock<Option<RecordBatch>> = OnceLock::new();
                // `morsel_map` checks the token before every morsel, so a
                // cancelled request never reaches the scorer.
                let scores = self.morsel_map(rows, allow_parallel, |lo, hi| {
                    // Scorers take a batch, so a morsel short of the whole
                    // input is copied out: only the scorer's columns.
                    let morsel = if (lo, hi) == (0, rows) {
                        Cow::Borrowed(&batch)
                    } else {
                        let scored = scored.get_or_init(|| {
                            let columns = scorer_columns(plan, batch.schema())?;
                            batch.project(&columns).ok()
                        });
                        Cow::Owned(scored.as_ref().unwrap_or(&batch).slice(lo, hi)?)
                    };
                    // The label closure only runs when the recorder is live.
                    let _span = self
                        .trace
                        .span_labeled("scorer-invocation", || scorer_label(plan));
                    let s = self.scorer.score(plan, &morsel, &self.cancel)?;
                    if s.len() != morsel.num_rows() {
                        return Err(ExecError::Scoring(format!(
                            "scorer returned {} predictions for {} rows",
                            s.len(),
                            morsel.num_rows()
                        )));
                    }
                    Ok(s)
                })?;
                let schema = plan.schema()?;
                let mut columns = batch.columns().to_vec();
                columns.push(Arc::new(Column::Float64(concat_parts(scores))));
                Ok(RecordBatch::try_new_shared(schema, columns)?)
            }
        }
    }

    /// Split `rows` input rows into per-worker morsels — contiguous row
    /// ranges `[lo, hi)` — and map `f` over them (in parallel when the
    /// input is large enough and `allow_parallel`). Results come back in
    /// row order.
    fn morsel_map<T: Send>(
        &self,
        rows: usize,
        allow_parallel: bool,
        f: impl Fn(usize, usize) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        self.cancel.check()?;
        // The row threshold first: a serial input never asks for workers.
        let workers = if allow_parallel && rows >= self.options.parallel_threshold {
            self.options.workers()
        } else {
            1
        };
        if workers <= 1 || rows < workers {
            return Ok(vec![f(0, rows)?]);
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
                    *slot = Some(cancel.check().and_then(|()| f(lo, hi)));
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
        let lcol = left.column_by_name(left_key)?.view();
        let rcol = right.column_by_name(right_key)?.view();
        // Dense Int64 keys index an array; every other key hashes in
        // place, typed: Float64 by bit pattern, so a NaN joins a NaN of
        // the same bits and -0.0 does not join 0.0.
        let (left_idx, right_idx) = match (lcol, rcol) {
            (ColumnRef::Int64(l), ColumnRef::Int64(r)) => match DenseHeads::over(r) {
                Some(dense) => join_rows(dense, l, r, |&x| x),
                None => join_rows(HashMap::with_capacity(r.len()), l, r, |&x| x),
            },
            (ColumnRef::Float64(l), ColumnRef::Float64(r)) => {
                join_rows(HashMap::with_capacity(r.len()), l, r, |x| x.to_bits())
            }
            (ColumnRef::Bool(l), ColumnRef::Bool(r)) => {
                join_rows(HashMap::with_capacity(r.len()), l, r, |&x| x)
            }
            (ColumnRef::Utf8(l), ColumnRef::Utf8(r)) => {
                join_rows(HashMap::with_capacity(r.len()), l, r, String::as_str)
            }
            // Keys of different types never match.
            _ => (Vec::new(), Vec::new()),
        };
        // A side whose rows come out exactly in order is shared, not
        // gathered (`take` checks).
        let lout = left.take(&left_idx)?;
        let rout = right.take(&right_idx)?;
        let schema = Arc::new(lout.schema().join(rout.schema()));
        let mut columns = lout.columns().to_vec();
        columns.extend(rout.columns().iter().cloned());
        Ok(RecordBatch::try_new_shared(schema, columns)?)
    }
}

/// The end of a chain of right rows, and an empty slot of [`DenseHeads`].
const END: usize = usize::MAX;

/// The largest span of right key values, per right row, that gets an
/// array build. A slot is one `usize`, 8 bytes, so the array takes at most
/// `8 × 2 = 16` bytes per right row. The `HashMap<i64, usize>` it replaces
/// holds a 16-byte entry and a control byte in each bucket, with at least
/// 8 buckets per 7 rows: more than `17 × 8 / 7 ≈ 19.4` bytes per right
/// row. So at 2 the array is never bigger than the map.
const DENSE_SPAN_FACTOR: usize = 2;

/// A join's build table: the first right row of each key's chain.
trait Heads<K> {
    /// Make `row` the head of `key`'s chain; returns the old head, or
    /// [`END`].
    fn push(&mut self, key: K, row: usize) -> usize;
    /// The head of `key`'s chain, or [`END`].
    fn head(&self, key: &K) -> usize;
}

impl<K: Hash + Eq> Heads<K> for HashMap<K, usize> {
    fn push(&mut self, key: K, row: usize) -> usize {
        self.insert(key, row).unwrap_or(END)
    }

    fn head(&self, key: &K) -> usize {
        self.get(key).copied().unwrap_or(END)
    }
}

/// Heads for Int64 keys over a dense domain: one slot per value in
/// `[min, max]`, indexed by `key − min`, with no hashing.
struct DenseHeads {
    min: i64,
    max: i64,
    slots: Vec<usize>,
}

impl DenseHeads {
    /// Empty heads over the right keys' `[min, max]`, or `None` when
    /// there are no keys or they span more than [`DENSE_SPAN_FACTOR`]
    /// values per key. The span is counted in `i128`, so `i64::MIN` and
    /// `i64::MAX` in one column fall back instead of overflowing.
    fn over(keys: &[i64]) -> Option<Self> {
        let &first = keys.first()?;
        let (min, max) = keys
            .iter()
            .fold((first, first), |(lo, hi), &k| (lo.min(k), hi.max(k)));
        let span = i128::from(max) - i128::from(min) + 1;
        if span > (DENSE_SPAN_FACTOR * keys.len()) as i128 {
            return None;
        }
        Some(DenseHeads {
            min,
            max,
            slots: vec![END; span as usize],
        })
    }

    /// The slot of a key in `[min, max]`; the span fits, so `key − min`
    /// cannot overflow.
    fn slot(&self, key: i64) -> usize {
        (key - self.min) as usize
    }
}

impl Heads<i64> for DenseHeads {
    fn push(&mut self, key: i64, row: usize) -> usize {
        let slot = self.slot(key);
        std::mem::replace(&mut self.slots[slot], row)
    }

    fn head(&self, &key: &i64) -> usize {
        if key < self.min || key > self.max {
            return END;
        }
        self.slots[self.slot(key)]
    }
}

/// The matching `(left, right)` row pairs of an equi-join on `key`, left
/// rows in order, each with its right matches ascending. The right side
/// builds one chained table: `heads` maps a key to its first right row,
/// and `next` links each right row to the following one with that key.
fn join_rows<'a, T, K>(
    mut heads: impl Heads<K>,
    left: &'a [T],
    right: &'a [T],
    key: impl Fn(&'a T) -> K,
) -> (Vec<usize>, Vec<usize>) {
    let mut next = vec![END; right.len()];
    // Built back to front, so each chain walks its rows ascending.
    for (row, v) in right.iter().enumerate().rev() {
        next[row] = heads.push(key(v), row);
    }
    let mut left_rows = Vec::with_capacity(left.len());
    let mut right_rows = Vec::with_capacity(left.len());
    for (row, v) in left.iter().enumerate() {
        let mut r = heads.head(&key(v));
        while r != END {
            left_rows.push(row);
            right_rows.push(r);
            r = next[r];
        }
    }
    (left_rows, right_rows)
}

/// The rows `mask` keeps, in order. Branch-free: every row is written
/// to the next slot, which only a kept row advances, so a mask that is
/// true at random costs no mispredictions.
fn selection(mask: &[bool]) -> Vec<usize> {
    let mut rows = vec![0; mask.len()];
    let mut kept = 0;
    for (row, &keep) in mask.iter().enumerate() {
        rows[kept] = row;
        kept += usize::from(keep);
    }
    rows.truncate(kept);
    rows
}

/// Input columns a model operator's scorer reads, as ascending indices
/// into `schema` (so names resolve in the projection exactly as in the
/// whole batch). `None` when that set is not known — a UDF — or some
/// name does not resolve here; the scorer then gets every column and
/// reports the bad name itself.
fn scorer_columns(plan: &Plan, schema: &Schema) -> Option<Vec<usize>> {
    let pipelines: Vec<&raven_ml::Pipeline> = match plan {
        Plan::Predict { model, .. }
        | Plan::TensorPredict { model, .. }
        | Plan::KernelPredict { model, .. } => vec![&model.pipeline],
        Plan::ClusteredPredict {
            model,
            cluster_models,
            ..
        } => std::iter::once(&model.pipeline)
            .chain(cluster_models)
            .map(|p| p.as_ref())
            .collect(),
        _ => return None,
    };
    let route_columns = match plan {
        Plan::ClusteredPredict { route_columns, .. } => route_columns.as_slice(),
        _ => &[],
    };
    let mut indices = pipelines
        .iter()
        .flat_map(|p| p.steps().iter().map(|s| s.column.as_str()))
        .chain(route_columns.iter().map(String::as_str))
        .map(|name| schema.index_of(name).ok())
        .collect::<Option<Vec<usize>>>()?;
    indices.sort_unstable();
    indices.dedup();
    Some(indices)
}

/// Join per-morsel results in row order; a single morsel moves through.
fn concat_parts<T>(parts: Vec<Vec<T>>) -> Vec<T> {
    let mut parts = parts.into_iter();
    let mut out = parts.next().unwrap_or_default();
    for part in parts {
        out.extend(part);
    }
    out
}

/// Join per-morsel column lists (morsel × column) into one column each.
fn concat_columns(parts: Vec<Vec<Column>>) -> Result<Vec<Column>> {
    let mut parts = parts.into_iter();
    let mut out = parts.next().unwrap_or_default();
    for part in parts {
        for (acc, col) in out.iter_mut().zip(&part) {
            acc.extend_from(col)?;
        }
    }
    Ok(out)
}

/// Coerce an evaluated column to the type the projected schema expects
/// (Int64 expression results may need widening to Float64, e.g. when a
/// CASE branch mixes literals). An empty column takes the wanted type
/// as it is: over zero rows a CASE cannot tell which type it yields.
fn coerce_to(col: Column, want: DataType) -> Result<Column> {
    if col.data_type() == want {
        return Ok(col);
    }
    match (col, want) {
        (col, want) if col.is_empty() => Ok(Column::empty(want)),
        (Column::Int64(v), DataType::Float64) => {
            Ok(Column::Float64(v.into_iter().map(|x| x as f64).collect()))
        }
        (Column::Float64(v), DataType::Int64) => {
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
        // NaN sorts after every number and ties with NaN; -0.0 and 0.0
        // tie. A comparator that is not a total order may panic.
        Column::Float64(v) => indices.sort_by(|&a, &b| {
            v[a].partial_cmp(&v[b])
                .unwrap_or_else(|| v[a].is_nan().cmp(&v[b].is_nan()))
        }),
    }
    if descending {
        indices.reverse();
    }
    Ok(())
}

/// One row's group-by key, read in place from borrowed key columns:
/// hashing and equality go by typed value, so grouping copies no key.
/// Float64 keys match by bit pattern, as join keys do. Keys compared
/// with each other must read the same columns.
#[derive(Clone, Copy)]
struct GroupKey<'a> {
    columns: &'a [ColumnRef<'a>],
    row: usize,
}

impl Hash for GroupKey<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let r = self.row;
        for col in self.columns {
            match col {
                ColumnRef::Int64(v) => v[r].hash(state),
                ColumnRef::Float64(v) => v[r].to_bits().hash(state),
                ColumnRef::Bool(v) => v[r].hash(state),
                ColumnRef::Utf8(v) => v[r].hash(state),
            }
        }
    }
}

impl PartialEq for GroupKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.row, other.row);
        self.columns.iter().all(|col| match col {
            ColumnRef::Int64(v) => v[a] == v[b],
            ColumnRef::Float64(v) => v[a].to_bits() == v[b].to_bits(),
            ColumnRef::Bool(v) => v[a] == v[b],
            ColumnRef::Utf8(v) => v[a] == v[b],
        })
    }
}

impl Eq for GroupKey<'_> {}

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
    let keys: Vec<ColumnRef<'_>> = group_cols.iter().map(|c| c.view()).collect();

    // Group of every row, numbered in first-seen order; `firsts` holds
    // each group's first row, whose key values the output carries.
    let mut slots: HashMap<GroupKey<'_>, usize> = HashMap::new();
    let mut firsts: Vec<usize> = Vec::new();
    let mut group_of: Vec<usize> = Vec::with_capacity(batch.num_rows());
    for row in 0..batch.num_rows() {
        let next = firsts.len();
        let g = *slots
            .entry(GroupKey {
                columns: &keys,
                row,
            })
            .or_insert(next);
        if g == next {
            firsts.push(row);
        }
        group_of.push(g);
    }
    // Global aggregate with no groups over an empty input: one row of
    // zero-ish accumulators, matching SQL semantics for COUNT.
    let groups = if group_by.is_empty() { 1 } else { firsts.len() };

    let mut columns = Vec::with_capacity(schema.len());
    for col in &group_cols {
        columns.push(col.take(&firsts)?);
    }
    for ((func, name, _), field) in aggregates.iter().zip(&schema.fields()[group_by.len()..]) {
        let col = batch.column_by_name(name)?;
        columns.push(aggregate(*func, col, &group_of, groups, field.dtype)?);
    }
    Ok(RecordBatch::try_new(schema, columns)?)
}

/// One aggregate over `col`, per group: rows are visited in row order, so
/// sums add in row order and MIN/MAX keep the first of equal values.
fn aggregate(
    func: AggFunc,
    col: &Column,
    group_of: &[usize],
    groups: usize,
    want: DataType,
) -> Result<Column> {
    Ok(match func {
        AggFunc::Count => {
            let mut n = vec![0i64; groups];
            for &g in group_of {
                n[g] += 1;
            }
            Column::Int64(n)
        }
        AggFunc::Sum | AggFunc::Avg => {
            let values = if group_of.is_empty() {
                Cow::Borrowed(&[][..])
            } else {
                widen(col.view())?
            };
            let mut sum = vec![0.0f64; groups];
            let mut n = vec![0usize; groups];
            for (&g, &v) in group_of.iter().zip(values.iter()) {
                sum[g] += v;
                n[g] += 1;
            }
            match (func, want) {
                (AggFunc::Sum, DataType::Int64) => {
                    Column::Int64(sum.into_iter().map(|s| s as i64).collect())
                }
                (AggFunc::Sum, _) => Column::Float64(sum),
                _ => Column::Float64(
                    sum.iter()
                        .zip(&n)
                        .map(|(&s, &n)| if n == 0 { 0.0 } else { s / n as f64 })
                        .collect(),
                ),
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let min = func == AggFunc::Min;
            // Whether `a` replaces the current best `b`: never for NaN on
            // either side, never for an equal value.
            fn beats<T: PartialOrd>(min: bool, a: T, b: T) -> bool {
                if min {
                    a < b
                } else {
                    a > b
                }
            }
            let best = match col.view() {
                ColumnRef::Int64(v) => {
                    best_rows(v, group_of, groups, |&a, &b| beats(min, a as f64, b as f64))
                }
                ColumnRef::Float64(v) => best_rows(v, group_of, groups, |&a, &b| beats(min, a, b)),
                ColumnRef::Bool(v) => best_rows(v, group_of, groups, |&a, &b| {
                    beats(min, u8::from(a), u8::from(b))
                }),
                ColumnRef::Utf8(v) => best_rows(v, group_of, groups, |a, b| beats(min, a, b)),
            };
            match best.into_iter().collect::<Option<Vec<usize>>>() {
                Some(rows) => col.take(&rows)?,
                // The empty global aggregate has no row to keep and
                // reports NaN, which a non-Float64 column cannot hold.
                None => {
                    let mut out = Column::with_capacity(want, 1);
                    out.push(Value::Float64(f64::NAN))?;
                    out
                }
            }
        }
    })
}

/// Per group, the row holding its best value: the first row, replaced by
/// each later row that `beats` the current best.
fn best_rows<T>(
    values: &[T],
    group_of: &[usize],
    groups: usize,
    beats: impl Fn(&T, &T) -> bool,
) -> Vec<Option<usize>> {
    let mut best: Vec<Option<usize>> = vec![None; groups];
    for (row, (&g, v)) in group_of.iter().zip(values).enumerate() {
        match best[g] {
            Some(b) if !beats(v, &values[b]) => {}
            _ => best[g] = Some(row),
        }
    }
    best
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

    /// For each output column, whether it is the very column (by `Arc`)
    /// that the catalog's tables hold, in order.
    fn shared_with(out: &Table, cat: &Catalog, tables: &[&str]) -> Vec<bool> {
        let inputs: Vec<Arc<Column>> = tables
            .iter()
            .flat_map(|name| cat.table(name).unwrap().batch().columns().to_vec())
            .collect();
        let pairs = out.batch().columns().iter().zip(&inputs);
        pairs.map(|(o, i)| Arc::ptr_eq(o, i)).collect()
    }

    #[test]
    fn join_shares_the_sides_whose_rows_come_out_in_order() {
        let cat = Catalog::new();
        for (name, keys) in [
            ("a", vec![1i64, 2, 3]),
            ("aligned", vec![1, 2, 3]),
            ("permuted", vec![3, 2, 1]),
            ("repeated", vec![1, 1, 2, 3]),
        ] {
            let schema = Schema::from_pairs(&[
                (&format!("{name}_id") as &str, DataType::Int64),
                (&format!("{name}_x"), DataType::Float64),
            ]);
            let x = keys.iter().map(|&k| k as f64).collect::<Vec<_>>();
            let t = Table::try_new(schema.into_shared(), vec![keys.into(), x.into()]).unwrap();
            cat.register(name, t).unwrap();
        }
        let join = |right: &str| {
            let plan = Plan::Join {
                left: Box::new(scan(&cat, "a")),
                right: Box::new(scan(&cat, right)),
                left_key: "a_id".into(),
                right_key: format!("{right}_id"),
                kind: JoinKind::Inner,
            };
            let t = exec(&cat, &plan);
            (t.num_rows(), shared_with(&t, &cat, &["a", right]))
        };
        // A 1:1 join in order copies nothing; a permuted right side and a
        // repeated left row are gathered, and the other side shared.
        assert_eq!(join("aligned"), (3, vec![true; 4]));
        assert_eq!(join("permuted"), (3, vec![true, true, false, false]));
        assert_eq!(join("repeated"), (4, vec![false, false, true, true]));
    }

    #[test]
    fn operators_pass_input_in_order_through() {
        let cat = catalog();
        let people = || Box::new(scan(&cat, "people"));
        let shared = |plan: Plan| shared_with(&exec(&cat, &plan), &cat, &["people"]);
        let keep_all = Plan::Filter {
            input: people(),
            predicate: Expr::col("age").gt(Expr::lit(0i64)),
        };
        let sorted = |descending| Plan::Sort {
            input: people(),
            column: "id".into(),
            descending,
        };
        let limit = |fetch| Plan::Limit {
            input: people(),
            fetch,
        };
        assert_eq!(shared(keep_all), [true; 3]);
        assert_eq!(shared(sorted(false)), [true; 3]);
        assert_eq!(shared(sorted(true)), [false; 3]);
        assert_eq!(shared(limit(4)), [true; 3]);
        assert_eq!(shared(limit(5)), [true; 3]);
        assert_eq!(shared(limit(3)), [false; 3]);
        assert_eq!(exec(&cat, &limit(5)).num_rows(), 4);
    }

    #[test]
    fn array_build_takes_spans_up_to_the_cutoff() {
        // Two keys may span 2 × 2 = 4 values.
        assert!(DenseHeads::over(&[-7, -4]).is_some());
        assert!(DenseHeads::over(&[-7, -3]).is_none());
        assert!(DenseHeads::over(&[i64::MIN, i64::MAX]).is_none());
        assert!(DenseHeads::over(&[]).is_none());
        let mut heads = DenseHeads::over(&[5, 6]).unwrap();
        assert_eq!(heads.push(6, 1), END);
        assert_eq!(heads.push(6, 0), 1);
        assert_eq!(heads.head(&6), 0);
        let misses = [4, 5, 7, i64::MIN, i64::MAX].map(|k| heads.head(&k));
        assert_eq!(misses, [END; 5]);
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
    fn min_max_keep_the_first_of_equal_values_and_skip_nan() {
        let cat = Catalog::new();
        let schema =
            Schema::from_pairs(&[("g", DataType::Int64), ("x", DataType::Float64)]).into_shared();
        let t = Table::try_new(
            schema,
            vec![
                Column::from(vec![1i64, 1, 2, 2, 3, 3]),
                Column::from(vec![0.0, -0.0, 1.0, f64::NAN, f64::NAN, 1.0]),
            ],
        )
        .unwrap();
        cat.register("t", t).unwrap();
        let plan = Plan::Aggregate {
            input: Box::new(scan(&cat, "t")),
            group_by: vec!["g".into()],
            aggregates: vec![
                (AggFunc::Min, "x".into(), "lo".into()),
                (AggFunc::Max, "x".into(), "hi".into()),
            ],
        };
        let t = exec(&cat, &plan);
        let bits = |name: &str| -> Vec<u64> {
            let col = t.column_by_name(name).unwrap().f64_values().unwrap();
            col.iter().map(|v| v.to_bits()).collect()
        };
        // 0.0 and -0.0 tie, so the first stays; a later NaN never
        // replaces a value, and a first NaN is never replaced.
        let want = [0.0f64.to_bits(), 1.0f64.to_bits(), f64::NAN.to_bits()];
        assert_eq!(bits("lo"), want);
        assert_eq!(bits("hi"), want);
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
    fn sort_puts_nan_last_without_panicking() {
        // The sort's comparator must be a total order: on this column,
        // treating NaN as equal to everything makes `sort_by` panic.
        let nan = f64::NAN;
        let x = vec![
            94.0, nan, nan, 33.0, 86.0, 90.0, 94.0, 31.0, nan, 42.0, nan, 50.0, 35.0, 77.0, 43.0,
            nan, 8.0, nan, 12.0, 79.0, 57.0,
        ];
        let cat = Catalog::new();
        let schema =
            Schema::from_pairs(&[("id", DataType::Int64), ("x", DataType::Float64)]).into_shared();
        let ids = (0..x.len() as i64).collect::<Vec<_>>();
        let t = Table::try_new(schema, vec![Column::from(ids), Column::from(x)]).unwrap();
        cat.register("t", t).unwrap();
        let sorted_ids = |descending| {
            let plan = Plan::Sort {
                input: Box::new(scan(&cat, "t")),
                column: "x".into(),
                descending,
            };
            let t = exec(&cat, &plan);
            t.column_by_name("id")
                .unwrap()
                .i64_values()
                .unwrap()
                .to_vec()
        };
        // Numbers ascending, ties in input order (the two 94.0s), then
        // every NaN in input order; descending is the exact reverse.
        let mut want = vec![
            16, 18, 7, 3, 12, 9, 14, 11, 20, 13, 19, 4, 5, 0, 6, 1, 2, 8, 10, 15, 17,
        ];
        assert_eq!(sorted_ids(false), want);
        want.reverse();
        assert_eq!(sorted_ids(true), want);
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
    fn predict_morsels_carry_only_the_scorer_columns() {
        // Records the width of every batch it scores.
        struct WidthScorer(std::sync::Mutex<Vec<(usize, usize)>>);
        impl Scorer for WidthScorer {
            fn score(&self, node: &Plan, batch: &RecordBatch, c: &CancelToken) -> Result<Vec<f64>> {
                let mut seen = self.0.lock().unwrap();
                seen.push((batch.num_rows(), batch.num_columns()));
                PipelineScorer.score(node, batch, c)
            }
        }
        let cat = catalog();
        let plan = Plan::Predict {
            input: Box::new(scan(&cat, "people")),
            model: ModelRef {
                name: "m".into(),
                pipeline: Arc::new(
                    Pipeline::new(
                        vec![FeatureStep::new("age", Transform::Identity)],
                        Estimator::Linear(
                            LinearModel::new(vec![2.0], 1.0, LinearKind::Regression).unwrap(),
                        ),
                    )
                    .unwrap(),
                ),
            },
            output: "s".into(),
            mode: raven_ir::ExecutionMode::InProcess,
        };
        let run = |options| {
            let scorer = WidthScorer(std::sync::Mutex::new(Vec::new()));
            let out = Executor::new(&cat, &scorer, options)
                .execute(&plan)
                .unwrap();
            (out, scorer.0.into_inner().unwrap())
        };
        let (whole, seen) = run(ExecOptions::serial());
        // One morsel: the input batch itself, every column.
        assert_eq!(seen, vec![(4, 3)]);
        let (split, mut seen) = run(ExecOptions {
            parallelism: 2,
            parallel_threshold: 1,
        });
        seen.sort_unstable();
        // Two morsels of the model's one input column each.
        assert_eq!(seen, vec![(2, 1), (2, 1)]);
        assert_eq!(split, whole);
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
