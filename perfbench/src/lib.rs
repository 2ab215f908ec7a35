//! # raven-bench
//!
//! The benchmark `BENCHMARK.json` points at: five named workloads over
//! the hosted program (a `RavenSession`, or a `ServerState` behind a
//! `RavenServer` on loopback), seven end-to-end metrics, and a per-layer
//! trace taken from outside — by timing calls into each layer's public
//! functions and by reading the counters and span trees the program
//! already exposes. See `README.md` beside this crate for the workloads,
//! the metric glossary and the layer → end-to-end predictions.

pub mod compare;
pub mod json;
pub mod loadgen;
pub mod oracle;
pub mod probes;
pub mod procstat;
pub mod run;
pub mod samples;
pub mod spec;
pub mod stages;
pub mod workloads;

pub use samples::Samples;
