//! In-memory checkpoint store and the fault-injection kill plan.
//!
//! Jobs are integrated in segments of `checkpoint_interval` steps; after
//! each segment the worker captures the job's store as a
//! [`ColumnSegment`] and parks it here, tagged with the absolute step
//! count reached. When a worker dies mid-job (panic, injected fault),
//! the scheduler requeues the victim instead of rejecting it, and the
//! next worker splices its latest segment over its freshly seeded
//! store. A segment holds the store's values at the store's own width,
//! so a resumed trajectory is bit-identical to an uninterrupted one.
//! Snapshots are shared by `Arc`: reading one for a
//! resume copies no particle data under the store's lock.
//!
//! [`KillPlan`] is the test-only half: a deterministic, seeded schedule
//! of `(job seed, step)` kill-points. Workers consult it at step
//! boundaries and panic when a point fires, which lets the
//! fault-injection harness kill workers at exactly chosen moments with
//! zero timing dependence. Production servers run with no plan
//! (`ServeConfig::kill_plan = None`) and pay one `Option` check.

use pic_particles::ColumnSegment;
use pic_runtime::sync::lock;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// One parked snapshot: the absolute step the job has reached and its
/// span's columns at that step.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Steps integrated so far (resume continues from here).
    pub step: usize,
    /// The job's particles in original order.
    pub segment: Arc<ColumnSegment>,
}

/// Per-job checkpoint snapshots, keyed by job id.
///
/// Entries live from the first segment boundary until the job reaches a
/// terminal outcome (the scheduler removes them in its finish path), so
/// the store never outgrows the set of in-flight jobs.
#[derive(Default)]
pub struct CheckpointStore {
    snapshots: Mutex<HashMap<u64, Snapshot>>,
}

impl CheckpointStore {
    /// An empty store.
    pub fn new() -> CheckpointStore {
        CheckpointStore::default()
    }

    /// The full snapshot for `id`, if one is parked.
    pub fn snapshot(&self, id: u64) -> Option<Snapshot> {
        lock(&self.snapshots).get(&id).cloned()
    }

    /// Parks (or replaces) the snapshot for `id`.
    pub fn put(&self, id: u64, step: usize, segment: ColumnSegment) {
        let segment = Arc::new(segment);
        lock(&self.snapshots).insert(id, Snapshot { step, segment });
    }

    /// Drops the snapshot for `id` (job reached a terminal outcome, or
    /// its snapshot does not fit the job, which restarts from step 0).
    pub fn remove(&self, id: u64) {
        lock(&self.snapshots).remove(&id);
    }

    /// Snapshots currently parked.
    pub fn len(&self) -> usize {
        lock(&self.snapshots).len()
    }

    /// True when no snapshots are parked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A deterministic schedule of kill-points for fault-injection tests.
///
/// Each point is `(job seed, absolute step)`: when a worker finishes
/// that step of a job with that seed and the point is armed, [`fire`]
/// disarms it and the worker panics. One-shot semantics (remove-and-
/// return) guarantee the retried job does not die at the same point
/// again unless the schedule armed it twice at different steps.
///
/// Points are keyed by job *seed*, not job id, so a harness can script
/// kills before submitting (ids are allocated at admission).
///
/// Cloning shares the underlying schedule (`Arc`), letting the harness
/// keep a handle while the server consults the same plan.
///
/// [`fire`]: KillPlan::fire
#[derive(Clone, Debug, Default)]
pub struct KillPlan {
    points: Arc<Mutex<HashSet<(u64, usize)>>>,
}

impl KillPlan {
    /// An empty plan (nothing ever fires).
    pub fn new() -> KillPlan {
        KillPlan::default()
    }

    /// Arms a kill-point: the first worker to complete `step` of a job
    /// seeded with `seed` will panic.
    pub fn arm(&self, seed: u64, step: usize) {
        lock(&self.points).insert((seed, step));
    }

    /// Arms a kill-point for one shard of a sharded job: the worker
    /// running shard `shard_id` (0-based) of a job seeded with `seed`
    /// will panic after completing `step`. Sibling shards and the
    /// monolithic run of the same seed are unaffected — shard workers
    /// consult the plan under [`shard_kill_key`], which separates each
    /// shard from every other and from the parent seed.
    ///
    /// [`shard_kill_key`]: crate::shard::shard_kill_key
    pub fn arm_shard(&self, seed: u64, shard_id: usize, step: usize) {
        self.arm(crate::shard::shard_kill_key(seed, shard_id), step);
    }

    /// Consumes the kill-point for `(seed, step)` if armed; `true` means
    /// the caller must panic now.
    pub fn fire(&self, seed: u64, step: usize) -> bool {
        lock(&self.points).remove(&(seed, step))
    }

    /// Kill-points still armed (a clean harness run drains to 0).
    pub fn armed(&self) -> usize {
        lock(&self.points).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_round_trips_and_reports_step() {
        let store = CheckpointStore::new();
        assert!(store.snapshot(7).is_none());
        let segment = ColumnSegment::with_capacity(3);
        store.put(7, 25, segment.clone());
        assert_eq!(
            store.snapshot(7),
            Some(Snapshot {
                step: 25,
                segment: Arc::new(segment.clone())
            })
        );
        store.put(7, 50, segment);
        assert_eq!(
            store.snapshot(7).map(|s| s.step),
            Some(50),
            "replace keeps the latest"
        );
        assert_eq!(store.len(), 1);
        store.remove(7);
        assert!(store.is_empty());
        assert!(store.snapshot(7).is_none());
    }

    #[test]
    fn kill_points_are_one_shot() {
        let plan = KillPlan::new();
        plan.arm(42, 10);
        assert_eq!(plan.armed(), 1);
        assert!(!plan.fire(42, 9), "wrong step does not fire");
        assert!(!plan.fire(41, 10), "wrong seed does not fire");
        assert!(plan.fire(42, 10));
        assert!(!plan.fire(42, 10), "second fire is disarmed");
        assert_eq!(plan.armed(), 0);
    }

    #[test]
    fn clones_share_the_schedule() {
        let plan = KillPlan::new();
        let handle = plan.clone();
        handle.arm(1, 5);
        assert!(plan.fire(1, 5), "server sees the harness's points");
    }
}
