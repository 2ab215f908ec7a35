//! # raven-relational
//!
//! A parallel in-memory relational execution engine: the stand-in for SQL
//! Server's relational runtime in the raven-rs reproduction of *"Extending
//! Relational Query Processing with ML Inference"* (CIDR 2020).
//!
//! The engine executes the relational subset of [`raven_ir::Plan`]
//! (scan/filter/project/hash-join/aggregate/sort/union/limit) over
//! [`raven_data`] tables, and delegates model operators (`Predict`,
//! `TensorPredict`, `ClusteredPredict`, `Udf`) to a [`exec::Scorer`]
//! implementation supplied by the runtime layer — mirroring how the paper
//! plugs ONNX Runtime (and external runtimes) into SQL Server's executor.
//!
//! Two properties of the paper's engine are reproduced because its
//! results depend on them:
//!
//! * **automatic intra-query parallelism** — filters and model scoring
//!   are evaluated morsel-parallel across worker threads, the effect
//!   behind Raven beating standalone ONNX Runtime by ~5× at 1M+ rows
//!   (Fig. 3, observation iii);
//! * **vectorized (columnar) expression evaluation** ([`eval`]), including
//!   `CASE` expressions, which is what makes *model inlining* (paper §4.2)
//!   profitable.
//!
//! Evaluation borrows its input: column references read row ranges of
//! the batch in place, and each operator copies only what it outputs,
//! once — `Filter` gathers each column once through one selection
//! vector, `Project` shares bare column references by handle, and
//! `Aggregate` and `Join` hash borrowed typed keys. Around a cheap model
//! this copying, not the model, decides what a query costs.

pub mod error;
pub mod eval;
pub mod exec;

pub use error::ExecError;
pub use eval::{evaluate, evaluate_predicate};
pub use exec::{CancelToken, ExecOptions, Executor, NoopScorer, Scorer, SharedExecutor};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ExecError>;
