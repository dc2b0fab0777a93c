//! Shard-to-execution-unit affinity: the pinning seam between a domain
//! decomposition and the workers/queues that execute it.
//!
//! A `ShardPlan` (in the serve layer) names *what* each shard covers;
//! this module decides *where* each shard runs and remembers per-shard
//! tuning state across repeated executions of the same decomposition:
//!
//! * [`slot_of`] — the deterministic shard→slot binding (a stable
//!   modulo map, so shard `k` of a K-way decomposition always lands on
//!   the same worker or device queue for a given slot count);
//! * [`AffinityMap`] — a registry of bound shards, each carrying its
//!   own [`GrainTuner`] so the scheduler grain adapts per shard instead
//!   of globally (shards see different field-gradient populations, so
//!   their best grains differ).
//!
//! The map is shared behind the serve scheduler's `Arc` and locked per
//! shard dispatch — never inside a sweep, so the hot kernels stay
//! lock-free (enforced by the `pic-analyze` purity proof, whose
//! lock-order pass also scans this file).

use crate::schedule::Schedule;
use crate::sweep::SweepReport;
use crate::sync::lock;
use crate::tune::GrainTuner;
use std::collections::HashMap;
use std::sync::Mutex;

/// The slot (worker index or device queue index) shard `shard_id` is
/// pinned to, out of `slots` execution units. Deterministic and total:
/// a zero `slots` is treated as one slot, so the binding never panics.
pub fn slot_of(shard_id: usize, slots: usize) -> usize {
    shard_id % slots.max(1)
}

/// Per-shard affinity and tuning state for one decomposition family.
///
/// Keyed by shard id; each binding records the pinned slot plus a
/// [`GrainTuner`] seeded with the shard's own particle count, so probe
/// schedules and settled grains never leak across shards.
#[derive(Debug)]
pub struct AffinityMap {
    slots: usize,
    bindings: Mutex<HashMap<usize, Binding>>,
}

#[derive(Debug)]
struct Binding {
    slot: usize,
    tuner: GrainTuner,
}

impl AffinityMap {
    /// A map over `slots` execution units (clamped to at least one).
    pub fn new(slots: usize) -> AffinityMap {
        AffinityMap {
            slots: slots.max(1),
            bindings: Mutex::new(HashMap::new()),
        }
    }

    /// Number of execution units the map pins onto.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Binds `shard_id` (idempotently) to its slot, seeding a fresh
    /// [`GrainTuner`] for `items` particles over `threads` on first
    /// binding, and returns the pinned slot.
    pub fn bind(&self, shard_id: usize, items: usize, threads: usize) -> usize {
        let mut map = lock(&self.bindings);
        map.entry(shard_id)
            .or_insert_with(|| Binding {
                slot: slot_of(shard_id, self.slots),
                tuner: GrainTuner::new(items, threads),
            })
            .slot
    }

    /// The slot a bound shard is pinned to, `None` before [`bind`](Self::bind).
    pub fn slot(&self, shard_id: usize) -> Option<usize> {
        lock(&self.bindings).get(&shard_id).map(|b| b.slot)
    }

    /// The schedule the shard's tuner currently recommends (its pending
    /// probe grain, or its best settled grain). `None` for unbound shards.
    pub fn schedule_for(&self, shard_id: usize) -> Option<Schedule> {
        lock(&self.bindings)
            .get(&shard_id)
            .map(|b| b.tuner.schedule())
    }

    /// Feeds one sweep's report back into the shard's tuner (no-op for
    /// unbound shards or settled tuners).
    pub fn observe(&self, shard_id: usize, report: &SweepReport) {
        if let Some(b) = lock(&self.bindings).get_mut(&shard_id) {
            b.tuner.observe(report);
        }
    }

    /// `true` once the shard's tuner has finished probing.
    pub fn is_settled(&self, shard_id: usize) -> bool {
        lock(&self.bindings)
            .get(&shard_id)
            .is_some_and(|b| b.tuner.is_settled())
    }

    /// Number of shards bound so far.
    pub fn bound(&self) -> usize {
        lock(&self.bindings).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::ThreadReport;

    fn report(busy_ns: &[u64]) -> SweepReport {
        SweepReport {
            threads: busy_ns
                .iter()
                .enumerate()
                .map(|(i, &ns)| ThreadReport {
                    thread: i,
                    domain: 0,
                    chunks: 1,
                    particles: 100,
                    busy_ns: ns,
                })
                .collect(),
        }
    }

    #[test]
    fn slot_binding_is_deterministic_and_total() {
        for shard in 0..32 {
            assert_eq!(slot_of(shard, 4), shard % 4);
            assert_eq!(slot_of(shard, 4), slot_of(shard, 4));
        }
        // Zero slots clamps instead of dividing by zero.
        assert_eq!(slot_of(7, 0), 0);
    }

    #[test]
    fn shards_bind_once_and_keep_their_slot() {
        let map = AffinityMap::new(3);
        assert_eq!(map.slots(), 3);
        assert_eq!(map.slot(1), None);
        assert_eq!(map.bind(1, 1000, 2), 1);
        assert_eq!(map.bind(4, 1000, 2), 1); // 4 % 3
        assert_eq!(map.bind(1, 9999, 8), 1); // idempotent: tuner not reseeded
        assert_eq!(map.bound(), 2);
        assert_eq!(map.slot(1), Some(1));
        assert_eq!(map.slot(2), None);
    }

    #[test]
    fn per_shard_tuners_probe_independently() {
        let map = AffinityMap::new(2);
        map.bind(0, 10_000, 2);
        map.bind(1, 10_000, 2);
        assert!(!map.is_settled(0));
        // Drive shard 0's tuner through all its probes; shard 1 stays
        // un-probed the whole time.
        let mut guard = 0;
        while !map.is_settled(0) {
            let s = map.schedule_for(0).expect("bound shard has a schedule");
            assert!(matches!(s, Schedule::Dynamic { .. }));
            map.observe(0, &report(&[500, 700]));
            guard += 1;
            assert!(guard < 16, "tuner never settles");
        }
        assert!(map.is_settled(0));
        assert!(!map.is_settled(1));
        // Unbound shards have no schedule and ignore observations.
        assert_eq!(map.schedule_for(9), None);
        map.observe(9, &report(&[1]));
        assert!(!map.is_settled(9));
    }

    #[test]
    fn zero_slot_map_clamps_to_one() {
        let map = AffinityMap::new(0);
        assert_eq!(map.slots(), 1);
        assert_eq!(map.bind(5, 10, 1), 0);
    }
}
