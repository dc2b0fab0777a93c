//! Shard-to-execution-unit affinity: the pinning seam between a domain
//! decomposition and the workers/queues that execute it.
//!
//! A `ShardPlan` (in the serve layer) names *what* each shard covers;
//! this module decides *where* each shard runs:
//!
//! * [`slot_of`] — the deterministic shard→slot binding (a stable
//!   modulo map, so shard `k` of a K-way decomposition always lands on
//!   the same worker or device queue for a given slot count);
//! * [`AffinityMap`] — the registry of bound shards and their slots.
//!
//! The map is shared behind the serve scheduler's `Arc` and locked per
//! shard dispatch — never inside a sweep, so the hot kernels stay
//! lock-free (enforced by the `pic-analyze` purity proof, whose
//! lock-order pass also scans this file).

use crate::sync::lock;
use std::collections::HashMap;
use std::sync::Mutex;

/// The slot (worker index or device queue index) shard `shard_id` is
/// pinned to, out of `slots` execution units. Deterministic and total:
/// a zero `slots` is treated as one slot, so the binding never panics.
pub fn slot_of(shard_id: usize, slots: usize) -> usize {
    shard_id % slots.max(1)
}

/// Per-shard affinity for one decomposition family: shard id → the
/// pinned slot.
#[derive(Debug)]
pub struct AffinityMap {
    slots: usize,
    bindings: Mutex<HashMap<usize, usize>>,
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

    /// Binds `shard_id` (idempotently) to its slot and returns the slot.
    pub fn bind(&self, shard_id: usize) -> usize {
        *lock(&self.bindings)
            .entry(shard_id)
            .or_insert_with(|| slot_of(shard_id, self.slots))
    }

    /// The slot a bound shard is pinned to, `None` before [`bind`](Self::bind).
    pub fn slot(&self, shard_id: usize) -> Option<usize> {
        lock(&self.bindings).get(&shard_id).copied()
    }

    /// Number of shards bound so far.
    pub fn bound(&self) -> usize {
        lock(&self.bindings).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(map.bind(1), 1);
        assert_eq!(map.bind(4), 1); // 4 % 3
        assert_eq!(map.bind(1), 1); // idempotent
        assert_eq!(map.bound(), 2);
        assert_eq!(map.slot(1), Some(1));
        assert_eq!(map.slot(2), None);
    }

    #[test]
    fn zero_slot_map_clamps_to_one() {
        let map = AffinityMap::new(0);
        assert_eq!(map.slots(), 1);
        assert_eq!(map.bind(5), 0);
    }
}
