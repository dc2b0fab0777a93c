//! `pic-serve`: an admission-controlled simulation job service.
//!
//! The paper's observation — pusher throughput is governed by how work
//! is laid out and scheduled across workers — extends directly to a
//! serving layer. This crate runs the benchmark physics as a
//! multi-tenant service, std-only and offline-safe; a worker executes
//! one job at a time, over one store, in the job's own particle order,
//! through `pic-sim`'s runner ([`pic_sim::run_mdipole_steps`],
//! [`pic_sim::run_device_steps`]) — the one the paper harness times,
//! which the service does not link:
//!
//! * [`job`] — the typed job API: a [`JobSpec`](job::JobSpec) names a
//!   benchmark scenario, layout, precision, particle count, step count,
//!   priority and deadline; a terminal [`Outcome`](job::Outcome) is
//!   guaranteed exactly once per admitted job.
//! * [`scheduler`] — the [`Server`](scheduler::Server) handle, its
//!   [`ServeConfig`](scheduler::ServeConfig) and the state its threads
//!   share. The protocol around it is split along its seams, one module
//!   each (DESIGN.md §3.2 has the map, the transition table and the
//!   ordered effect list of a completion):
//!   `admission` (`submit`, the submit-time cache hit, the explicit
//!   shed, `cancel`), `completion` (what the one winner of a job's
//!   `→ Done` transition does: outcome, record, depth release; the cache
//!   fill of a completed run; the requeue of a dead worker's job),
//!   `queue` (the one ordered, blocking queue between `submit` and a
//!   worker: a free worker takes the first waiting job in (priority,
//!   deadline, id) order), `dispatch`
//!   (the worker pool with panic isolation, and the supervisor that
//!   replaces a dead worker),
//!   `stats` (the counter table behind `stats`, the per-submission
//!   record) and `state` (one job's shared state, the ticket on it).
//! * [`lifecycle`] — the protocol's two shared types, atoms private:
//!   [`Phase`](lifecycle::Phase), a job's `Queued → Running → Done`
//!   state with its one transition table, and
//!   [`Admission`](lifecycle::Admission), the bounded queue's depth and
//!   drain flag. Everything above calls these and nothing else touches
//!   the atoms; the interleave suites in `crates/check` model-check
//!   these very types.
//! * [`cache`] — the deterministic result cache: completed jobs are
//!   memoized under a canonical content hash of their physics identity
//!   (seeded runs are pure functions of their spec), so repeat
//!   submissions cost a lookup (`queue_wait_ns = 0`) instead of a
//!   sweep, at submit or, for a duplicate queued behind its twin, when
//!   a worker claims it. An entry
//!   keeps the run's column segments, and a dump is rendered from them
//!   only for a requester that asks.
//! * [`checkpoint`] — in-memory checkpoints (typed column segments)
//!   captured at step-segment boundaries, plus the deterministic
//!   [`KillPlan`] fault hook; a job whose worker dies resumes from its
//!   last snapshot with a bitwise-identical trajectory.
//! * [`shard`] — domain decomposition: an over-threshold job is split
//!   along a deterministic [`ShardPlan`](shard::ShardPlan) into shard
//!   sub-jobs flowing through the ordinary queue (`fan_out`), and a
//!   scatter-gather barrier takes the shards' typed column segments (and
//!   the dump pieces they rendered, if asked for) in plan order and
//!   merges diagnostics into one completed response that is bitwise
//!   shard-count-invariant. Any free worker takes any shard.
//! * [`proto`] — the versioned line-delimited JSON wire protocol.
//! * [`frontend`] — pumps requests from any `BufRead` into the server
//!   and responses back out, a dump streamed escaped from its pieces;
//!   the `pic-serve` binary wires it to stdin/stdout or a Unix-domain
//!   socket.
//! * [`clock`] — the service's single wall-clock read point (the
//!   `pic-analyze` `instant-outside-telemetry` allowlist names this module
//!   and nothing else in the crate).
//!
//! Every job — including shed ones — emits a `pic-telemetry`
//! [`pic_telemetry::BenchRecord`] carrying queue wait, NSPS and
//! outcome, so the `regress` gate can watch the service path the
//! same way it watches the bench path.

#![warn(missing_docs)]

mod admission;
pub mod cache;
pub mod checkpoint;
pub mod clock;
mod completion;
mod dispatch;
pub mod exec;
pub mod frontend;
pub mod job;
pub mod lifecycle;
pub mod proto;
mod queue;
pub mod scheduler;
pub mod shard;
mod state;
mod stats;

pub use cache::{CacheKey, CachedResult, ResultCache, CACHE_SCHEMA};
pub use checkpoint::{CheckpointStore, KillPlan, Snapshot};
pub use job::{JobReport, JobSpec, Outcome, Priority, RejectReason};
pub use scheduler::{CancelResult, JobTicket, ServeConfig, ServeStats, Server, ShutdownReport};
pub use shard::{merge_segments, shard_kill_key, Piece, ShardPlan};
