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

use crate::job::{scenario_wire, JobReport, JobSpec};
use std::collections::HashMap;

/// Version of the cached results: their format, and the bits a build
/// computes for a given spec. Folded into every [`CacheKey`], so bumping
/// it orphans (and thereby invalidates) every entry written by earlier
/// builds; [`ResultCache::ensure_schema`] additionally drops stored
/// entries eagerly.
///
/// 2: the m-dipole field moved to polynomial sin/cos and fixed-length
/// series, which changes trajectories in their last bits.
///
/// 3: the position step became `x += u·(cΔt/γ)` (one division, fused)
/// in every pusher and the blocked kernel; last bits again.
pub const CACHE_SCHEMA: u64 = 3;

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
    /// Final particle state (`pic_particles::io` text), kept so a hit
    /// can serve `return_particles` even when the producing spec did
    /// not ask for it.
    pub particles: Option<String>,
    /// Shards the producing run was decomposed into (0 = monolithic).
    /// The key is identical either way — sharding changes how a spec is
    /// *executed*, never what it computes — so a hit may be served from
    /// a sharded producer to an unsharded requester and vice versa.
    pub shards: usize,
}

impl CachedResult {
    /// Builds the report a cache hit hands to `requester`: the
    /// memoized measurements, `queue_wait_ns = 0`, and the particle
    /// dump only when the requester asked for it.
    pub fn to_report(&self, requester: &JobSpec) -> JobReport {
        JobReport {
            nsps: self.nsps,
            run_ns: self.run_ns,
            batch_size: 1,
            steps_done: self.steps_done,
            imbalance: self.imbalance,
            time_imbalance: self.time_imbalance,
            particles: if requester.return_particles {
                self.particles.clone()
            } else {
                None
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
/// mutex (one lock, short critical sections).
pub struct ResultCache {
    capacity: usize,
    schema: u64,
    entries: HashMap<u64, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
}

/// Counter snapshot of a [`ResultCache`].
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub struct CacheStats {
    /// Entries currently stored.
    pub entries: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped by LRU pressure.
    pub evictions: u64,
    /// Entries dropped by schema invalidation.
    pub invalidations: u64,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` results (0 disables
    /// storage: every lookup misses, every insert is dropped).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity,
            schema: CACHE_SCHEMA,
            entries: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            invalidations: 0,
        }
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn lookup(&mut self, key: CacheKey) -> Option<CachedResult> {
        self.tick += 1;
        match self.entries.get_mut(&key.hash()) {
            Some(entry) => {
                entry.used = self.tick;
                self.hits += 1;
                Some(entry.result.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
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
                self.evictions += 1;
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

    /// Explicit schema gate: when the result format version moves past
    /// the one this cache was filled under, every stored entry is
    /// dropped — stale-format results are never served.
    pub fn ensure_schema(&mut self, schema: u64) {
        if schema != self.schema {
            self.invalidations += self.entries.len() as u64;
            self.entries.clear();
            self.schema = schema;
        }
    }

    /// Fraction of lookups served from the cache. Degenerate-input
    /// hygiene: an untouched cache reports `0.0`, never `NaN` (the
    /// `SweepReport::imbalance` policy).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.entries.len(),
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            invalidations: self.invalidations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_particles::Layout;
    use pic_perfmodel::{Precision, Scenario};

    fn result(tag: f64) -> CachedResult {
        CachedResult {
            nsps: tag,
            run_ns: 1_000,
            steps_done: 10,
            imbalance: 0.0,
            time_imbalance: 0.0,
            particles: Some("# dump\n".to_string()),
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
        cache.insert(key_n(1), result(1.0));
        let hit = cache.lookup(key_n(1)).expect("hit");
        let plain = hit.to_report(&JobSpec::default());
        assert!(plain.cache_hit);
        assert_eq!(plain.queue_wait_ns, 0);
        assert!(plain.particles.is_none());
        let wants = JobSpec {
            return_particles: true,
            ..JobSpec::default()
        };
        assert!(hit.to_report(&wants).particles.is_some());
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
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut cache = ResultCache::new(0);
        cache.insert(key_n(1), result(1.0));
        assert!(cache.lookup(key_n(1)).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn schema_bump_invalidates_everything() {
        let mut cache = ResultCache::new(4);
        cache.insert(key_n(1), result(1.0));
        cache.insert(key_n(2), result(2.0));
        cache.ensure_schema(CACHE_SCHEMA);
        assert_eq!(cache.stats().entries, 2, "same schema keeps entries");
        cache.ensure_schema(CACHE_SCHEMA + 1);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().invalidations, 2);
        assert!(cache.lookup(key_n(1)).is_none());
    }

    #[test]
    fn hit_rate_of_an_untouched_cache_is_zero_not_nan() {
        let cache = ResultCache::new(4);
        let rate = cache.hit_rate();
        assert_eq!(rate, 0.0);
        assert!(!rate.is_nan());
    }

    #[test]
    fn hit_rate_counts_hits_over_lookups() {
        let mut cache = ResultCache::new(4);
        cache.insert(key_n(1), result(1.0));
        assert!(cache.lookup(key_n(1)).is_some());
        assert!(cache.lookup(key_n(9)).is_none());
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }
}
