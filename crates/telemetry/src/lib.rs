//! Observability layer for the benchmark harness.
//!
//! The paper's entire contribution is one number — NSPS, nanoseconds per
//! particle per step — measured across layouts, precisions and schedules
//! (Table 2, Fig. 1). This crate is the instrument that captures that
//! number *with provenance*, so a perf claim in a PR can point at an
//! artifact instead of a console scroll-back:
//!
//! * [`record`] — the versioned [`BenchRecord`](record::BenchRecord)
//!   schema: one JSON object per measured configuration (per-iteration
//!   NSPS series with the warmup/steady split, per-thread totals,
//!   imbalance, flop/byte tallies, model reconciliation), written as
//!   JSON-lines `BENCH_<label>.json` files.
//! * [`regress`] — the comparator behind the `regress` binary: loads two
//!   record files and flags configurations whose steady-state NSPS
//!   worsened beyond a threshold. This is the regression gate that future
//!   performance PRs cite as evidence.
//! * [`json`] — the dependency-free JSON reader/writer the schema rides
//!   on (the workspace builds offline; serde is not available).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod record;
pub mod regress;

pub use record::{read_records, write_records, BenchRecord, ThreadStat, SCHEMA_VERSION};
pub use regress::{compare, Comparison, RegressReport};
