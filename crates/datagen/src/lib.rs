//! # raven-datagen
//!
//! Deterministic synthetic workloads standing in for the paper's two
//! datasets (real patient data and the Kaggle flight-delay dataset are not
//! available in this environment — see "Substitutions" in
//! `ARCHITECTURE.md`):
//!
//! * [`hospital`] — the running example's schema: `patient_info ⋈
//!   blood_tests ⋈ prenatal_tests`, with a length-of-stay label generated
//!   by the same kind of rule structure the paper's Fig. 1 decision tree
//!   encodes (pregnancy/blood-pressure/age interactions plus noise), so
//!   trained trees develop the branch shape the optimizations exploit;
//! * [`flights`] — a flight table with high-cardinality categorical
//!   features (origin/destination airports, carrier) whose one-hot
//!   encodings give L1-regularized models realistic sparsity, plus a
//!   delay label correlated with carrier, airport, hour and distance.
//!
//! Everything is seeded and reproducible; row counts scale to the paper's
//! 1K–10M sweep.

pub mod flights;
pub mod hospital;
pub mod train;

pub use flights::FlightData;
pub use hospital::HospitalData;
