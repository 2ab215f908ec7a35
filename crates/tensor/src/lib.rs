//! # raven-tensor
//!
//! A from-scratch tensor-graph inference runtime: the stand-in for ONNX
//! Runtime in the raven-rs reproduction of *"Extending Relational Query
//! Processing with ML Inference"* (CIDR 2020).
//!
//! The paper integrates ONNX Runtime inside SQL Server and relies on three
//! of its properties, all reproduced here:
//!
//! 1. **An operator graph over dense `f32` tensors** ([`graph::Graph`],
//!    [`ops::Op`]) covering the linear-algebra operators that classical ML
//!    models translate into (GEMM-based tree scoring, logistic regression,
//!    MLPs, featurizers).
//! 2. **Compiler-style graph optimizations** ([`optimize`]): constant
//!    folding (the paper's §4.1 "compiler optimizations ... such as
//!    constant-folding within ONNX Runtime"), dead-code elimination, and
//!    MatMul+Add → Gemm fusion.
//! 3. **Inference sessions with caching and batch execution**
//!    ([`session`]): sessions own an optimized graph, lowered once into a
//!    fixed schedule — row-separable graphs run in cache-sized row blocks
//!    ([`BLOCK_ROWS`]) and constant weights feed a packed, branch-free
//!    GEMM — bit-identical to the reference [`Graph::run`]; a
//!    [`session::SessionCache`] reproduces SQL Server's
//!    model/inference-session caching that makes warm small-batch queries
//!    fast (Fig. 3, observation ii); batched and multi-threaded execution
//!    reproduce observations (iii) and (v).
//!
//! Hardware note: the paper's Fig. 2(d) uses an Nvidia K80. This crate has
//! no GPU; [`device::Device`] `SimulatedGpu` runs the *same kernels*
//! (results are bit-identical to CPU) and reports an analytic *simulated*
//! execution time from a calibrated launch-latency + throughput model. See
//! "Substitutions" in `ARCHITECTURE.md`.

mod compiled;
pub mod device;
pub mod error;
pub mod graph;
pub mod ops;
pub mod optimize;
pub mod serialize;
pub mod session;
pub mod tensor;

pub use device::{Device, RunStats};
pub use error::TensorError;
pub use graph::{Graph, GraphBuilder, Node};
pub use ops::Op;
pub use session::{InferenceSession, SessionCache, SessionOptions, BLOCK_ROWS};
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
