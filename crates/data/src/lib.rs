//! # raven-data
//!
//! Columnar in-memory data substrate for the raven-rs reproduction of
//! *"Extending Relational Query Processing with ML Inference"* (CIDR 2020).
//!
//! This crate plays the role of SQL Server's storage layer in the paper: it
//! provides the typed values, columns, record batches, tables, table
//! statistics and the catalog that every other crate builds on.
//!
//! Design notes:
//! * Columns are dense (no null bitmap). The paper's workloads — hospital
//!   length-of-stay and flight delay — are fully materialized feature
//!   tables, so nullability is out of scope; see "Substitutions" in
//!   `ARCHITECTURE.md`.
//! * `Table` owns a single contiguous chunk per column. Execution reads
//!   row ranges of it in place as [`ColumnRef`] slices (the morsels of
//!   parallel operators) and copies only the rows an operator outputs.
//! * Statistics ([`stats`]) power the paper's "derived predicates from data
//!   properties" optimization (§4.1 of the paper).

pub mod batch;
pub mod catalog;
pub mod column;
pub mod error;
pub mod namespace;
pub mod schema;
pub mod stats;
pub mod table;
pub mod types;

pub use batch::RecordBatch;
pub use catalog::Catalog;
pub use column::{Column, ColumnRef};
pub use error::DataError;
pub use namespace::{CatalogShards, NamespaceMap};
pub use schema::{Field, Schema};
pub use stats::{ColumnStats, TableStats};
pub use table::Table;
pub use types::{DataType, Value};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DataError>;
