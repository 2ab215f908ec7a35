//! # raven-core
//!
//! The public facade of **raven-rs**, a from-scratch Rust reproduction of
//! *"Extending Relational Query Processing with ML Inference"* (Karanasos
//! et al., CIDR 2020) — the **Raven** system: in-database ML inference
//! with a unified relational+ML IR and cross optimizations.
//!
//! ## Quickstart
//!
//! ```
//! use raven_core::RavenSession;
//! use raven_data::{Column, DataType, Schema, Table};
//! use raven_ml::featurize::Transform;
//! use raven_ml::{Estimator, FeatureStep, LinearKind, LinearModel, Pipeline};
//!
//! let mut session = RavenSession::new();
//!
//! // 1. Register data (the DBMS side).
//! let table = Table::try_new(
//!     Schema::from_pairs(&[("age", DataType::Float64)]).into_shared(),
//!     vec![Column::from(vec![30.0, 60.0])],
//! ).unwrap();
//! session.register_table("patients", table).unwrap();
//!
//! // 2. Store a model pipeline (the data-scientist side).
//! let pipeline = Pipeline::new(
//!     vec![FeatureStep::new("age", Transform::Identity)],
//!     Estimator::Linear(LinearModel::new(vec![0.1], 0.0, LinearKind::Regression).unwrap()),
//! ).unwrap();
//! session.store_model("risk", pipeline).unwrap();
//!
//! // 3. Run an inference query (the analyst side).
//! let result = session.query(
//!     "SELECT p.score FROM PREDICT(MODEL = 'risk', DATA = patients AS d) \
//!      WITH (score FLOAT) AS p WHERE p.score > 4",
//! ).unwrap();
//! assert_eq!(result.table.num_rows(), 1);
//! ```
//!
//! The session wires together every subsystem of the reproduction:
//! [`raven_sql`] parses inference queries (including SQL Server's
//! `PREDICT`), [`raven_pyanalysis`] statically analyzes Python pipeline
//! scripts, [`raven_opt`] runs the cross optimizer over the unified
//! [`raven_ir`] plan, and [`raven_runtime`] executes with the integrated
//! [`raven_tensor`] runtime (or external/containerized runtimes).

pub mod session;
pub mod store;

pub use session::{ExplainOutput, QueryResult, RavenSession, SessionConfig};
pub use store::{AuditEntry, ModelStore, StoreError, RETAINED_VERSIONS};

// Re-export the subsystem crates so downstream users need one dependency.
pub use raven_data as data;
pub use raven_ir as ir;
pub use raven_ml as ml;
pub use raven_opt as opt;
pub use raven_pyanalysis as pyanalysis;
pub use raven_relational as relational;
pub use raven_runtime as runtime;
pub use raven_sql as sql;
pub use raven_tensor as tensor;
