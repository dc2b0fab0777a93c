//! The deterministic result cache: completed jobs, memoized by content.
//!
//! Seeded simulations are bitwise-deterministic (the parity and
//! determinism suites prove it), so a [`JobSpec`] is a *pure function*
//! of its physics identity — scenario, layout, precision, seed,
//! particle count, step count, pusher. Two submissions that agree on
//! those fields must produce bit-identical results, which makes the
//! completed-job cache the single cheapest lever for repeat traffic:
//! a hit costs a hash lookup instead of a sweep and is served with
//! `queue_wait_ns = 0`.
//!
//! The key is a canonical FNV-1a hash over the identity fields in a
//! fixed order, so it is independent of JSON field order on the wire
//! and of any per-process hasher randomization (`RandomState` never
//! touches it) — the same spec hashes identically across two process
//! runs, which the golden test below pins down. [`CACHE_SCHEMA`] is
//! folded into every key: bumping it on a result-format change
//! invalidates the whole cache by construction, mirroring the
//! `BenchRecord` schema-gate policy. Capacity is bounded with
//! least-recently-used eviction.
//!
//! An entry keeps the producing run's final particle state as the
//! column segments it was captured in, shared and never copied; the
//! text dump is rendered from them per requester that asks, outside
//! the cache lock.

use crate::job::{scenario_wire, JobReport, JobSpec};
use crate::shard::render_rows;
use pic_particles::io::RowEnd;
use pic_particles::ColumnSegment;
use std::collections::HashMap;
use std::sync::Arc;

/// Version of the cached results: their format, and the bits a build
/// computes for a given spec. Folded into every [`CacheKey`], so bumping
/// it orphans (and thereby invalidates) every entry written by earlier
/// builds. The cache lives in one process, so it never holds another
/// build's entries.
///
/// 2: the m-dipole field moved to polynomial sin/cos and fixed-length
/// series, which changes trajectories in their last bits.
///
/// 3: the position step became `x += u·(cΔt/γ)` (one division, fused)
/// in every pusher and the blocked kernel; last bits again.
///
/// 4: the initial sphere is drawn counter-based, per particle index;
/// every ensemble's positions changed.
pub const CACHE_SCHEMA: u64 = 4;

/// Name of the pusher the service executes. Part of the cache identity:
/// should another pusher ever reach the serving layer (the parked
/// candidate is the analytic Boris pusher), its results must never
/// alias Boris results.
pub const PUSHER_NAME: &str = "boris";

/// Canonical content hash of a job's physics identity.
#[derive(Clone, Copy, Debug, Eq, Hash, PartialEq)]
pub struct CacheKey(u64);

impl CacheKey {
    /// Derives the key from the identity fields of `spec` — scenario,
    /// layout, precision, seed, particles, steps, pusher — plus
    /// [`CACHE_SCHEMA`]. Serving knobs (priority, timeout, deadline,
    /// `return_particles`) are deliberately excluded: they change how a
    /// job is *served*, never what it *computes*.
    pub fn of(spec: &JobSpec) -> CacheKey {
        let mut h = Fnv1a::new();
        h.write(scenario_wire(spec.scenario).as_bytes());
        h.write(spec.layout.name().as_bytes());
        h.write(spec.precision.name().as_bytes());
        h.write_u64(spec.seed);
        h.write_u64(spec.particles as u64);
        h.write_u64(spec.steps as u64);
        h.write(PUSHER_NAME.as_bytes());
        h.write_u64(CACHE_SCHEMA);
        // Additive: host jobs (the only kind that existed before the
        // device backend) keep their exact pre-device hash, while a
        // device job — even though its trajectories are bitwise equal —
        // must not serve a host job's measurements or vice versa.
        if spec.device != "host" {
            h.write(spec.device.as_bytes());
        }
        CacheKey(h.finish())
    }

    /// The raw 64-bit hash value.
    pub fn hash(self) -> u64 {
        self.0
    }
}

/// FNV-1a, 64-bit: tiny, dependency-free, and — critically — free of
/// per-process seeding, unlike `std`'s `RandomState`-backed hashers.
/// Each field is terminated with a `0x1f` unit separator so adjacent
/// fields can never alias (`"ab" + "c"` vs `"a" + "bc"`).
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Fnv1a {
        Fnv1a(Self::OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
        self.0 = (self.0 ^ 0x1f).wrapping_mul(Self::PRIME);
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The memoized outcome of one completed job, stripped of the fields
/// that belong to the *serving* of the original run rather than its
/// result.
#[derive(Clone, Debug, PartialEq)]
pub struct CachedResult {
    /// NSPS of the producing run.
    pub nsps: f64,
    /// Wall time of the producing sweep, ns.
    pub run_ns: u64,
    /// Steps integrated (always the spec's full step count).
    pub steps_done: usize,
    /// Load imbalance of the producing sweep.
    pub imbalance: f64,
    /// Busy-time imbalance of the producing sweep.
    pub time_imbalance: f64,
    /// Final particle state of the producing run, in particle order: a
    /// monolithic run's one captured segment, or a merged parent's
    /// shard segments in plan order. The run's own `Arc`s — the cache
    /// copies no columns and keeps no text, so a hit can serve
    /// `return_particles` even when the producing spec did not ask,
    /// at the cost of a render.
    pub columns: Vec<Arc<ColumnSegment>>,
    /// Shards the producing run was decomposed into (0 = monolithic).
    /// The key is identical either way — sharding changes how a spec is
    /// *executed*, never what it computes — so a hit may be served from
    /// a sharded producer to an unsharded requester and vice versa.
    pub shards: usize,
}

impl CachedResult {
    /// The producing run's particle dump, rendered from its columns as
    /// one [`JobReport::dump`] piece — bitwise what it would have
    /// returned itself.
    pub(crate) fn render(&self) -> Vec<Arc<String>> {
        let segments: Vec<&ColumnSegment> = self.columns.iter().map(|s| &**s).collect();
        vec![Arc::new(render_rows(&segments, true, RowEnd::Escaped))]
    }

    /// Builds the report a cache hit hands to `requester`: the
    /// memoized measurements, `queue_wait_ns = 0`, and the particle
    /// dump as one `dump` piece — rendered here, so call it outside the
    /// cache lock — only when the requester asked for it.
    pub fn to_report(&self, requester: &JobSpec) -> JobReport {
        JobReport {
            nsps: self.nsps,
            run_ns: self.run_ns,
            batch_size: 1,
            steps_done: self.steps_done,
            imbalance: self.imbalance,
            time_imbalance: self.time_imbalance,
            dump: if requester.return_particles {
                self.render()
            } else {
                Vec::new()
            },
            cache_hit: true,
            shards: self.shards,
            // Everything that belongs to the serving of the producing
            // run — queue wait, setup, resumes, gather — stays zero.
            ..JobReport::default()
        }
    }
}

struct Entry {
    result: CachedResult,
    /// LRU clock tick of the last lookup/insert touching this entry.
    used: u64,
}

/// Bounded, LRU-evicting map from [`CacheKey`] to [`CachedResult`].
///
/// Not internally synchronized — the scheduler wraps it in its own
/// mutex (one lock, short critical sections: a lookup raises reference
/// counts, an insert moves `Arc`s in).
pub struct ResultCache {
    capacity: usize,
    entries: HashMap<u64, Entry>,
    tick: u64,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` results (0 disables
    /// storage: every lookup misses, every insert is dropped).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity,
            entries: HashMap::new(),
            tick: 0,
        }
    }

    /// Looks `key` up, refreshing its recency on a hit. The result
    /// shares the entry's columns.
    pub fn lookup(&mut self, key: CacheKey) -> Option<CachedResult> {
        self.tick += 1;
        let entry = self.entries.get_mut(&key.hash())?;
        entry.used = self.tick;
        Some(entry.result.clone())
    }

    /// Stores `result` under `key`, evicting the least-recently-used
    /// entry when full. Inserting an existing key refreshes it.
    pub fn insert(&mut self, key: CacheKey, result: CachedResult) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.entries.contains_key(&key.hash()) && self.entries.len() >= self.capacity {
            if let Some(&coldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| k)
            {
                self.entries.remove(&coldest);
            }
        }
        self.entries.insert(
            key.hash(),
            Entry {
                result,
                used: self.tick,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::merge_segments;
    use pic_particles::{Layout, SoaEnsemble};
    use pic_perfmodel::{Precision, Scenario};

    /// A real three-particle segment, as a monolithic run captures it.
    fn segment() -> Arc<ColumnSegment> {
        let store: SoaEnsemble<f64> = pic_bench::build_ensemble(3, 7);
        Arc::new(ColumnSegment::from_store(&store, 0, 3))
    }

    fn result(tag: f64) -> CachedResult {
        CachedResult {
            nsps: tag,
            run_ns: 1_000,
            steps_done: 10,
            imbalance: 0.0,
            time_imbalance: 0.0,
            columns: vec![segment()],
            shards: 0,
        }
    }

    fn key_n(seed: u64) -> CacheKey {
        CacheKey::of(&JobSpec {
            seed,
            ..JobSpec::default()
        })
    }

    #[test]
    fn key_covers_identity_fields_and_ignores_serving_knobs() {
        let base = JobSpec::default();
        let same_physics = JobSpec {
            priority: crate::job::Priority::High,
            timeout_ms: Some(5),
            deadline_ms: Some(9),
            return_particles: true,
            ..JobSpec::default()
        };
        assert_eq!(CacheKey::of(&base), CacheKey::of(&same_physics));
        for different in [
            JobSpec {
                scenario: Scenario::Precalculated,
                ..JobSpec::default()
            },
            JobSpec {
                layout: Layout::Aos,
                ..JobSpec::default()
            },
            JobSpec {
                precision: Precision::F64,
                ..JobSpec::default()
            },
            JobSpec {
                seed: 43,
                ..JobSpec::default()
            },
            JobSpec {
                particles: 1_001,
                ..JobSpec::default()
            },
            JobSpec {
                steps: 11,
                ..JobSpec::default()
            },
            JobSpec {
                device: "iris-xe-max".to_string(),
                ..JobSpec::default()
            },
        ] {
            assert_ne!(
                CacheKey::of(&base),
                CacheKey::of(&different),
                "{different:?}"
            );
        }
    }

    #[test]
    fn field_boundaries_cannot_alias() {
        // The 0x1f terminator keeps adjacent numeric fields apart even
        // when their concatenated bytes would agree.
        let a = JobSpec {
            particles: 256,
            steps: 1,
            ..JobSpec::default()
        };
        let b = JobSpec {
            particles: 1,
            steps: 256,
            ..JobSpec::default()
        };
        assert_ne!(CacheKey::of(&a), CacheKey::of(&b));
    }

    #[test]
    fn hit_serves_particles_only_on_request() {
        let mut cache = ResultCache::new(4);
        let stored = result(1.0);
        let expect = merge_segments(&[&*stored.columns[0]]);
        cache.insert(key_n(1), stored);
        let hit = cache.lookup(key_n(1)).expect("hit");
        let mut plain = hit.to_report(&JobSpec::default());
        plain.join_dump();
        assert!(plain.cache_hit);
        assert_eq!(plain.queue_wait_ns, 0);
        assert!(plain.particles.is_none());
        let wants = JobSpec {
            return_particles: true,
            ..JobSpec::default()
        };
        let mut report = hit.to_report(&wants);
        assert_eq!(report.dump.len(), 1, "one piece");
        report.join_dump();
        let dump = report.particles;
        assert!(expect.is_some());
        assert_eq!(dump, expect, "rendered from the cached columns");
    }

    #[test]
    fn lookup_shares_the_columns_it_was_given() {
        let mut cache = ResultCache::new(4);
        let (a, b) = (segment(), segment());
        cache.insert(
            key_n(1),
            CachedResult {
                columns: vec![a.clone(), b.clone()],
                ..result(1.0)
            },
        );
        assert_eq!(
            Arc::strong_count(&a),
            2,
            "the entry holds the producer's Arc"
        );
        let hit = cache.lookup(key_n(1)).expect("hit");
        assert_eq!(hit.columns.len(), 2);
        assert!(Arc::ptr_eq(&hit.columns[0], &a) && Arc::ptr_eq(&hit.columns[1], &b));
        assert_eq!(Arc::strong_count(&a), 3, "a lookup only raises the count");
        drop(hit);
        assert_eq!(Arc::strong_count(&a), 2);
    }

    #[test]
    fn lru_evicts_the_coldest_entry_at_capacity() {
        let mut cache = ResultCache::new(2);
        cache.insert(key_n(1), result(1.0));
        cache.insert(key_n(2), result(2.0));
        // Touch 1 so 2 becomes the coldest.
        assert!(cache.lookup(key_n(1)).is_some());
        cache.insert(key_n(3), result(3.0));
        assert!(cache.lookup(key_n(2)).is_none(), "2 was evicted");
        assert!(cache.lookup(key_n(1)).is_some());
        assert!(cache.lookup(key_n(3)).is_some());
        assert_eq!(cache.entries.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut cache = ResultCache::new(0);
        cache.insert(key_n(1), result(1.0));
        assert!(cache.lookup(key_n(1)).is_none());
        assert!(cache.entries.is_empty());
    }
}
