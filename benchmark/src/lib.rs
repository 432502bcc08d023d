//! The repo's one end-to-end + per-layer benchmark.
//!
//! Four workloads (`serve-local`, `serve-open`, `serve-remote`,
//! `batch-job`) drive the public API of the commit under test, check
//! every answer against the centralized oracle, and report client-observed
//! end-to-end metrics (tracing off) or per-layer metrics from
//! harness-side spans (`--trace 1`). `README.md` has the metric
//! definitions, the layer → end-to-end interaction table and the data
//! the regression bounds were derived from.

pub mod agree;
pub mod cli;
pub mod corpus;
pub mod layers;
pub mod procstat;
pub mod report;
pub mod schedule;
pub mod spans;
pub mod workers;
pub mod workloads;
