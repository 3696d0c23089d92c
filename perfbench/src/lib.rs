//! End-to-end and per-layer benchmark of the Deep Note simulator.
//!
//! `src/main.rs` is the command; see `README.md` for the workloads, the
//! metrics and which layer should move which metric.

pub mod compose;
pub mod host;
pub mod json;
pub mod probe;
pub mod stats;
pub mod traced;
pub mod workloads;
