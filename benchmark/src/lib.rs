//! The repository's benchmark: four workloads, end-to-end metrics with
//! regression bounds, and an outside-in per-layer trace.
//!
//! The crate only *calls* public functions of the workspace crates; the
//! layer names in metric names (`particles.*`, `fields.*`, `core.*`,
//! `runtime.*`, `device.*`, `telemetry.*`, `serve.*`) are those crates'
//! directory names. `README.md` explains every workload and metric;
//! `/BENCHMARK.json` is the contract the numbers are judged against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod cli;
pub mod jobs;
pub mod layers;
pub mod procfs;
pub mod report;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod sweep;
pub mod trace;
pub mod wire;
