//! End-to-end and per-layer benchmark of the sortsynth synthesis service.
//!
//! See `README.md` in this directory for the workloads, the metrics, and
//! how to run them.

pub mod bench;
pub mod check;
pub mod gen;
pub mod host;
pub mod report;
pub mod service;
pub mod stats;
pub mod trace;
