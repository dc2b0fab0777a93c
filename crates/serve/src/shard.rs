//! Domain decomposition of one job into shard sub-jobs, and the
//! scatter-gather collector that reassembles their results.
//!
//! The paper's strong-scaling story (Fig. 1) is about one big ensemble
//! spread over many workers. The serving layer reproduces it by
//! *sharding*: an over-threshold [`JobSpec`](crate::job::JobSpec) is
//! split along a [`ShardPlan`] — contiguous, seed-stable index ranges
//! over the initial seeded ensemble — into sub-jobs that flow through
//! the ordinary queue, one particle store per shard. Because the Boris
//! pusher is particle-independent (no particle-particle interaction in
//! either benchmark scenario) and the seeded fill is index-stable, the
//! concatenation of the shard results is bitwise-identical to the
//! monolithic run — the shard-count-invariance suite
//! (`tests/shard_invariance.rs`) proves it for K ∈ {1, 2, 3, 8} in both
//! layouts and precisions.
//!
//! [`Gather`] is the barrier on the way back: every shard reports its
//! terminal outcome exactly once (the scheduler's exactly-once finish
//! guarantees this), the last reporter wins the merge, and a shard that
//! crashes and resumes from its checkpoint reports only on its final
//! terminality — so a double-merge is impossible by construction. The
//! protocol is model-checked exhaustively in
//! `crates/check/tests/interleave_shard.rs`.

use crate::job::{JobReport, JobSpec, Outcome};
use crate::lifecycle::State;
use crate::scheduler::{ServeConfig, Shared};
use crate::state::{JobState, Notifier};
use crate::stats::Counter;
use pic_math::splitmix::{mix64, GOLDEN_GAMMA};
use pic_particles::io::{RowEnd, HEADER};
use pic_particles::ColumnSegment;
use pic_runtime::sync::lock;
use pic_runtime::{ExecTarget, SweepReport};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Deterministic partition of `particles` into contiguous shard ranges.
///
/// The plan is a pure function of `(particles, shards)`: re-planning the
/// same inputs yields the same ranges, ranges are disjoint, cover
/// `0..particles` exactly, and — for `particles > 0` — no shard is ever
/// empty (the shard count is clamped to the particle count). The first
/// `particles % shards` shards carry one extra particle.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct ShardPlan {
    particles: usize,
    ranges: Vec<(usize, usize)>,
}

impl ShardPlan {
    /// Plans `shards` contiguous ranges over `0..particles`. `shards`
    /// is clamped to `1..=particles`; `particles == 0` yields an empty
    /// plan.
    pub fn new(particles: usize, shards: usize) -> ShardPlan {
        if particles == 0 {
            return ShardPlan {
                particles,
                ranges: Vec::new(),
            };
        }
        let k = shards.clamp(1, particles);
        let base = particles / k;
        let extra = particles % k;
        let mut ranges = Vec::with_capacity(k);
        let mut offset = 0;
        for i in 0..k {
            let len = base + usize::from(i < extra);
            ranges.push((offset, len));
            offset += len;
        }
        ShardPlan { particles, ranges }
    }

    /// The planned `(offset, len)` ranges, in shard order.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// Number of shards actually planned (after clamping).
    pub fn shards(&self) -> usize {
        self.ranges.len()
    }

    /// Total particles covered by the plan.
    pub fn particles(&self) -> usize {
        self.particles
    }
}

/// Derives the [`KillPlan`](crate::checkpoint::KillPlan) key for one
/// shard of a sharded job: a SplitMix64-style mix of the parent seed and
/// the shard index, so a fault-injection harness can kill exactly one
/// shard's worker while its siblings run untouched.
pub fn shard_kill_key(seed: u64, shard_id: usize) -> u64 {
    mix64(seed ^ (shard_id as u64 + 1).wrapping_mul(GOLDEN_GAMMA))
}

/// Renders spliced shard [`ColumnSegment`]s into the text dump the
/// monolithic run would have produced: the `pic_particles::io` header
/// once, then every segment's rows in shard order — typed columns
/// straight to text, with no per-shard re-parsing. Returns `None` for an
/// empty segment set.
pub fn merge_segments(segments: &[&ColumnSegment]) -> Option<String> {
    if segments.is_empty() {
        return None;
    }
    let pieces = render_rows(segments, true, RowEnd::Newline);
    Some(pieces.iter().map(|piece| piece.as_str()).collect())
}

/// Room reserved for one piece of a render: under glibc's default
/// 128 KiB mmap threshold, so a piece comes from the heap.
pub const PIECE_BYTES: usize = 64 * 1024;

/// Most piece buffers kept for the next render (32 MiB): a 125 000-row
/// dump takes about 180.
const SPARE_PIECES: usize = 512;

/// Buffers of dropped [`Piece`]s, empty, for the next render to fill.
///
/// A shard's text reserved in one block (8.4 MB for 62 500 f32 rows)
/// was mapped afresh on every render and faulted in page by page: the
/// allocator's mmap threshold rises only to the size of a freed mapping,
/// which the rows never filled. Pieces from the heap alone do not keep
/// their pages either: freed together, they merge into the heap's top,
/// which the allocator trims. A render that refills the buffers the
/// last dump's pieces held touches pages already in place.
static SPARE: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

/// One piece of a rendered dump: text that ends on a row boundary,
/// with room for [`PIECE_BYTES`]. Dropping the last handle to it gives
/// its buffer to the next render.
#[derive(Debug, PartialEq)]
pub struct Piece(String);

impl Piece {
    /// The text of the piece.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<String> for Piece {
    fn from(text: String) -> Piece {
        Piece(text)
    }
}

impl Drop for Piece {
    fn drop(&mut self) {
        let mut buffer = std::mem::take(&mut self.0).into_bytes();
        if buffer.capacity() == PIECE_BYTES {
            buffer.clear();
            let mut spare = lock(&SPARE);
            if spare.len() < SPARE_PIECES {
                spare.push(buffer);
            }
        }
    }
}

/// `segments`' rows as text, in order, each ending in `end`, led by the
/// `pic_particles::io` header when `header` is set: the whole dump, or
/// one shard's part of it (shard 0's with the header). With
/// [`RowEnd::Escaped`] the text is the body of a JSON string, as the
/// wire writes it: the only producer of
/// [`JobReport::dump`](crate::job::JobReport::dump) pieces. The text
/// comes in [`Piece`]s, to be read one after another. Rendering into
/// memory cannot fail, so every segment's rows are always there.
pub fn render_rows(segments: &[&ColumnSegment], header: bool, end: RowEnd) -> Vec<Arc<Piece>> {
    let mut out = Pieces {
        done: Vec::new(),
        open: Vec::new(),
    };
    if header {
        out.push_bytes(HEADER.as_bytes());
        out.push_bytes(end.bytes());
    }
    for seg in segments {
        #[expect(clippy::expect_used, reason = "writing to memory cannot fail")]
        seg.write_text(&mut out, end)
            .expect("the pieces take every write");
    }
    out.finish_piece();
    out.done
}

/// The pieces of one render: the finished ones, and the one being
/// filled. A write goes whole into one piece, so a piece ends where a
/// write of the row writer does — on a row boundary.
struct Pieces {
    done: Vec<Arc<Piece>>,
    open: Vec<u8>,
}

impl Pieces {
    /// Appends `bytes` to the open piece, after closing it if they would
    /// not fit; a new piece is a spare buffer or a fresh one.
    fn push_bytes(&mut self, bytes: &[u8]) {
        if self.open.len() + bytes.len() > PIECE_BYTES {
            self.finish_piece();
        }
        if self.open.capacity() == 0 {
            let spare = lock(&SPARE).pop();
            self.open = spare.unwrap_or_else(|| Vec::with_capacity(PIECE_BYTES));
        }
        self.open.extend_from_slice(bytes);
    }

    /// Moves the open piece, unless it is empty, to the finished ones.
    fn finish_piece(&mut self) {
        if !self.open.is_empty() {
            let piece = std::mem::take(&mut self.open);
            #[expect(clippy::expect_used, reason = "the header and the rows are ASCII")]
            let piece = String::from_utf8(piece).expect("a dump is ASCII");
            self.done.push(Arc::new(Piece(piece)));
        }
    }
}

impl std::io::Write for Pieces {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.push_bytes(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Execution context attached to one shard sub-job.
pub(crate) struct ShardCtx {
    /// Shard index, `0..shards`.
    pub shard_id: usize,
    /// Total shards of the parent job.
    pub shards: usize,
    /// First parent-ensemble index owned by this shard.
    pub offset: usize,
    /// Particle count of the parent's full ensemble (the seeded fill
    /// the shard's range is extracted from). The shard's reporting path
    /// is its notifier, which owns the [`Gather`] handle.
    pub parent_particles: usize,
}

/// The scatter-gather barrier of one sharded job.
///
/// Each shard's terminal outcome lands in its slot exactly once (the
/// report rides the scheduler's exactly-once notifier); the reporter
/// that takes `remaining` to zero — and only that one — receives the
/// full outcome vector to merge. A shard that dies and requeues has not
/// terminated, so it cannot report early, and a slot can never be
/// filled twice.
pub(crate) struct Gather {
    /// The parent job the merged result completes.
    pub parent: Arc<JobState>,
    /// The plan's `(offset, len)` ranges, for particle-count weighting.
    pub ranges: Vec<(usize, usize)>,
    slots: Mutex<Vec<Option<Outcome>>>,
    remaining: AtomicUsize,
}

impl Gather {
    /// A collector expecting one report per range of `ranges`.
    pub fn new(parent: Arc<JobState>, ranges: Vec<(usize, usize)>) -> Gather {
        let shards = ranges.len();
        Gather {
            parent,
            ranges,
            slots: Mutex::new(vec![None; shards]),
            remaining: AtomicUsize::new(shards),
        }
    }

    /// Records shard `shard_id`'s terminal outcome. Returns the full
    /// outcome vector (in shard order) exactly once — to the caller
    /// whose report completed the set; every other call returns `None`.
    pub fn report(&self, shard_id: usize, outcome: &Outcome) -> Option<Vec<Outcome>> {
        {
            let mut slots = lock(&self.slots);
            let slot = slots.get_mut(shard_id)?;
            if slot.is_some() {
                // A double report would double-decrement `remaining`;
                // the exactly-once finish makes this unreachable, but
                // the barrier stays safe even if it were not.
                return None;
            }
            // A shard's outcome carries its columns and its piece of the
            // dump behind `Arc`s: this copies a report's numbers.
            *slot = Some(outcome.clone());
        }
        // ordering: SeqCst — the slot write above must be visible to
        // the final reporter before its decrement observes zero
        // remaining; total order makes exactly one caller see the
        // 1 → 0 transition.
        if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            // The set is complete and released once: hand the slots'
            // contents over instead of copying them.
            return std::mem::take(&mut *lock(&self.slots))
                .into_iter()
                .collect();
        }
        None
    }
}

/// Fans an admitted over-threshold job out into shard sub-jobs: one
/// child per [`ShardPlan`] range, each with its own depth slot, index
/// entry and a gather-reporting notifier, queued at the parent's
/// priority. The parent never enters the queue — the last shard's
/// report completes it via `Shared::finish_sharded`.
pub(crate) fn fan_out(shared: &Arc<Shared>, parent: &Arc<JobState>, shards: usize) {
    let plan = ShardPlan::new(parent.spec.particles, shards);
    let gather = Arc::new(Gather::new(parent.clone(), plan.ranges().to_vec()));
    let mut children: Vec<Arc<JobState>> = Vec::with_capacity(plan.shards());
    for (shard_id, &(offset, len)) in plan.ranges().iter().enumerate() {
        let id = shared.next_id();
        // The child keeps the parent's `return_particles`: it always hands
        // its columns to the gather (for the cache), and renders its piece
        // of the dump only for a requester that asked.
        let mut spec = parent.spec.clone();
        spec.particles = len;
        let report_into = shared.clone();
        let g = gather.clone();
        let notifier: Notifier = Box::new(move |_, outcome| {
            if let Some(all) = g.report(shard_id, outcome) {
                report_into.finish_sharded(&g, all);
            }
        });
        let ctx = ShardCtx {
            shard_id,
            shards: plan.shards(),
            offset,
            parent_particles: parent.spec.particles,
        };
        let child = Arc::new(JobState::new(
            id,
            spec,
            parent.submitted_ns,
            State::Queued,
            Some(ctx),
            Some(notifier),
        ));
        shared.admission.admit_derived();
        lock(&shared.index).insert(id, child.clone());
        children.push(child);
    }
    // Publish the children on the parent *before* any shard can run:
    // a fast child's finish path reads `shard_meta` off the parent.
    *lock(&parent.children) = children.clone();
    shared.counters.bump(Counter::Sharded);
    for child in children {
        shared.enqueue(child);
    }
}

/// Shards an admitted spec splits into: 1 (monolithic) unless sharding
/// is enabled and the job is over the threshold.
pub(crate) fn shard_count(cfg: &ServeConfig, spec: &JobSpec) -> usize {
    if cfg.shard_threshold == 0 || spec.particles <= cfg.shard_threshold {
        return 1;
    }
    let k = if cfg.shards == 0 {
        cfg.workers.max(1)
    } else {
        cfg.shards
    };
    k.clamp(1, spec.particles)
}

impl Shared {
    /// Merges the outcomes of every shard sub-job into the parent's one
    /// terminal outcome. Runs exactly once per sharded job — the last
    /// shard to report through `Gather::report` calls it.
    ///
    /// A shard that failed fails the whole job with the first
    /// non-completed outcome in shard order (deterministic). Otherwise
    /// the parent completes with the shards' own segments and, if asked
    /// for, their own dump pieces, both in plan order and never joined
    /// (the pieces in a row are the header plus the rows — bitwise what
    /// the monolithic run would have produced), and the merged
    /// measurements reconcile against the per-shard records:
    /// `setup_ns`/`run_ns`/`steps_done` are the critical path (max), as
    /// is the shard render billed to `gather_ns`; `resumes` is the sum,
    /// imbalance the particle-weighted mean. `nsps` is `run_ns` over the
    /// work on the host, and the shards' summed modeled kernel time over
    /// the work on a device.
    pub(crate) fn finish_sharded(&self, gather: &Gather, outcomes: Vec<Outcome>) {
        let parent = &gather.parent;
        if let Some(bad) = outcomes
            .iter()
            .find(|o| !matches!(o, Outcome::Completed(_)))
        {
            self.finish(parent, bad.clone());
            lock(&parent.children).clear();
            return;
        }
        let reports: Vec<&JobReport> = outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Completed(r) => Some(r),
                _ => None,
            })
            .collect();
        // Columnar gather: shards return typed column segments and, for a
        // requester that asked, the text they rendered on their own
        // workers; both are taken in plan order and shared. The slowest
        // render is on the job's critical path, so it is billed here.
        let gather_start = self.clock.now_ns();
        let columns: Vec<Arc<ColumnSegment>> =
            reports.iter().filter_map(|r| r.columns.clone()).collect();
        let dump: Vec<Arc<Piece>> = reports.iter().flat_map(|r| r.dump.clone()).collect();
        let render_ns = reports.iter().map(|r| r.render_ns).max().unwrap_or(0);
        let gather_ns = self.clock.now_ns().saturating_sub(gather_start) + render_ns;
        let run_ns = reports.iter().map(|r| r.run_ns).max().unwrap_or(0);
        let steps_done = reports.iter().map(|r| r.steps_done).max().unwrap_or(0);
        let queue_wait_ns = reports.iter().map(|r| r.queue_wait_ns).min().unwrap_or(0);
        let setup_ns = reports.iter().map(|r| r.setup_ns).max().unwrap_or(0);
        let weigh = |field: fn(&JobReport) -> f64| -> f64 {
            let per_shard: Vec<(usize, f64)> = reports
                .iter()
                .zip(&gather.ranges)
                .map(|(r, &(_, len))| (len, field(r)))
                .collect();
            SweepReport::merge_shard_imbalance(&per_shard)
        };
        let imbalance = weigh(|r| r.imbalance);
        let time_imbalance = weigh(|r| r.time_imbalance);
        let work = parent.spec.particles as f64 * steps_done as f64;
        // A device job's NSPS is modeled kernel time, as in a monolithic
        // run (exec.rs): here its shards' kernels, one after another on
        // the device's one in-order queue. Wall time stays in `run_ns`.
        let target = ExecTarget::parse(&parent.spec.device).unwrap_or_default();
        let busy_ns = if target.is_host() {
            run_ns as f64
        } else {
            reports
                .iter()
                .zip(&gather.ranges)
                .map(|(r, &(_, len))| r.nsps * len as f64 * r.steps_done as f64)
                .sum()
        };
        let nsps = if work > 0.0 { busy_ns / work } else { 0.0 };
        let report = JobReport {
            nsps,
            queue_wait_ns,
            setup_ns,
            run_ns,
            batch_size: 1,
            steps_done,
            imbalance,
            time_imbalance,
            resumes: reports.iter().map(|r| r.resumes).sum(),
            resumed_from_step: reports
                .iter()
                .map(|r| r.resumed_from_step)
                .max()
                .unwrap_or(0),
            shards: reports.len(),
            dump,
            gather_ns,
            ..JobReport::default()
        };
        self.complete(parent, report, columns);
        lock(&parent.children).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use crate::state::test_job;
    use pic_telemetry::json::str_body;

    #[test]
    fn plan_covers_disjointly_without_empty_shards() {
        for (n, k) in [(10, 3), (7, 7), (100, 8), (5, 1), (3, 9)] {
            let plan = ShardPlan::new(n, k);
            assert!(plan.shards() >= 1 && plan.shards() <= n.min(k.max(1)));
            let mut next = 0;
            for &(offset, len) in plan.ranges() {
                assert_eq!(offset, next, "contiguous and disjoint");
                assert!(len > 0, "no empty shard for n={n} k={k}");
                next = offset + len;
            }
            assert_eq!(next, n, "covers 0..{n}");
            assert_eq!(plan, ShardPlan::new(n, k), "stable under re-planning");
        }
    }

    #[test]
    fn plan_of_zero_particles_is_empty() {
        let plan = ShardPlan::new(0, 4);
        assert_eq!(plan.shards(), 0);
        assert!(plan.ranges().is_empty());
    }

    #[test]
    fn remainder_particles_go_to_the_leading_shards() {
        let plan = ShardPlan::new(10, 3);
        assert_eq!(plan.ranges(), &[(0, 4), (4, 3), (7, 3)]);
    }

    #[test]
    fn kill_keys_separate_shards_and_parent() {
        let seed = 42;
        let keys: Vec<u64> = (0..4).map(|i| shard_kill_key(seed, i)).collect();
        for (i, &a) in keys.iter().enumerate() {
            assert_ne!(a, seed, "shard key must not alias the parent seed");
            for &b in &keys[i + 1..] {
                assert_ne!(a, b, "shard keys must be distinct");
            }
        }
        assert_eq!(
            shard_kill_key(seed, 2),
            shard_kill_key(seed, 2),
            "deterministic"
        );
    }

    #[test]
    fn segment_merge_matches_the_monolithic_dump() {
        use pic_particles::SoaEnsemble;

        // The monolithic exit renders a single whole-store segment; the
        // shards render a piece each, the first with the header.
        let whole: SoaEnsemble<f64> = pic_sim::build_ensemble(25, 7);
        let expect = merge_segments(&[&ColumnSegment::from_store(&whole, 0, 25)]);
        let segs: Vec<ColumnSegment> = [(0usize, 10usize), (10, 9), (19, 6)]
            .iter()
            .map(|&(off, len)| ColumnSegment::from_store(&whole, off, len))
            .collect();
        let refs: Vec<&ColumnSegment> = segs.iter().collect();
        assert!(expect.is_some());
        assert_eq!(merge_segments(&refs), expect, "bitwise the monolithic dump");
        let pieces: String = segs
            .iter()
            .enumerate()
            .flat_map(|(i, seg)| render_rows(&[seg], i == 0, RowEnd::Escaped))
            .map(|piece| piece.as_str().to_string())
            .collect();
        assert_eq!(
            Some(pieces),
            expect.as_deref().map(str_body),
            "the shards' pieces, in plan order, as the body of a JSON string"
        );
        assert_eq!(merge_segments(&[]), None, "empty set is explicit");
    }

    #[test]
    fn a_long_render_comes_in_pieces_of_whole_rows() {
        use pic_particles::SoaEnsemble;

        let store: SoaEnsemble<f64> = pic_sim::build_ensemble(3_000, 7);
        let seg = ColumnSegment::from_store(&store, 0, 3_000);
        let pieces = render_rows(&[&seg], true, RowEnd::Newline);
        assert!(pieces.len() > 2, "{} pieces", pieces.len());
        for piece in &pieces {
            assert!(
                piece.as_str().len() <= PIECE_BYTES,
                "{} bytes",
                piece.as_str().len()
            );
            assert!(
                piece.as_str().ends_with('\n'),
                "a piece ends with its last row"
            );
        }
        let mut text = Vec::new();
        pic_particles::io::write_ensemble(&store, &mut text).expect("a Vec takes every write");
        let joined: String = pieces.iter().map(|p| p.as_str()).collect();
        assert_eq!(joined.as_bytes(), text, "the pieces are the dump, in order");
    }

    #[test]
    fn gather_releases_the_outcomes_exactly_once() {
        let parent = test_job(1, JobSpec::default());
        let gather = Gather::new(parent, vec![(0, 2), (2, 2), (4, 1)]);
        let done = Outcome::Cancelled;
        assert!(gather.report(0, &done).is_none());
        assert!(gather.report(0, &done).is_none(), "double report is inert");
        assert!(gather.report(2, &done).is_none());
        let all = gather.report(1, &done).expect("last report merges");
        assert_eq!(all.len(), 3);
        assert!(gather.report(1, &done).is_none(), "merge happens once");
    }

    /// One real of a proptest particle from a random word: every third
    /// or so a class `{:e}` spells out — ±0, a subnormal, NaN, ±inf —
    /// otherwise any bit pattern of the width.
    fn special_f64(word: u64) -> f64 {
        let sign = word & 1 << 63;
        f64::from_bits(match word % 12 {
            0 => sign,
            1 => sign | (word >> 4) & ((1 << 52) - 1),
            2 => sign | f64::NAN.to_bits(),
            3 => sign | f64::INFINITY.to_bits(),
            _ => word,
        })
    }

    /// [`special_f64`] at `f32`'s width.
    fn special_f32(word: u64) -> f32 {
        let sign = (word >> 32) as u32 & 1 << 31;
        f32::from_bits(match word % 12 {
            0 => sign,
            1 => sign | (word >> 4) as u32 & ((1 << 23) - 1),
            2 => sign | f32::NAN.to_bits(),
            3 => sign | f32::INFINITY.to_bits(),
            _ => (word >> 32) as u32,
        })
    }

    /// A store of one particle per nine words (eight reals and a species
    /// each), cut at `cuts` into contiguous shard ranges: the pieces
    /// `render_rows` renders are the JSON string body of
    /// `write_ensemble`'s bytes, and `join_dump` gives those bytes back.
    fn pieces_are_the_escaped_dump<R, S>(
        words: &[u64],
        cuts: &[usize],
        real: fn(u64) -> R,
    ) -> Result<(), proptest::TestCaseError>
    where
        R: pic_math::Real,
        S: pic_particles::ParticleStore<R>,
    {
        use pic_math::Vec3;
        use pic_particles::io::write_ensemble;
        use pic_particles::{Particle, SpeciesId};
        use proptest::prelude::*;

        let store = S::from_particles(words.chunks_exact(9).map(|w| Particle {
            position: Vec3::new(real(w[0]), real(w[1]), real(w[2])),
            momentum: Vec3::new(real(w[3]), real(w[4]), real(w[5])),
            weight: real(w[6]),
            gamma: real(w[7]),
            species: SpeciesId(w[8] as u16),
        }));
        let mut text = Vec::new();
        write_ensemble(&store, &mut text).expect("a Vec takes every write");
        let text = String::from_utf8(text).expect("a dump is ASCII");
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (store.len() + 1)).collect();
        bounds.extend([0, store.len()]);
        bounds.sort_unstable();
        let segments: Vec<ColumnSegment> = bounds
            .windows(2)
            .map(|w| ColumnSegment::from_store(&store, w[0], w[1] - w[0]))
            .collect();
        let pieces: Vec<Arc<Piece>> = segments
            .iter()
            .enumerate()
            .flat_map(|(i, seg)| render_rows(&[seg], i == 0, RowEnd::Escaped))
            .collect();
        let body = str_body(&text);
        let joined = |pieces: &[Arc<Piece>]| pieces.iter().map(|p| p.as_str()).collect::<String>();
        prop_assert_eq!(joined(&pieces), body.clone());
        let refs: Vec<&ColumnSegment> = segments.iter().collect();
        prop_assert_eq!(joined(&render_rows(&refs, true, RowEnd::Escaped)), body);
        let mut report = JobReport {
            dump: pieces,
            ..JobReport::default()
        };
        report.join_dump();
        prop_assert_eq!(report.particles, Some(text));
        Ok(())
    }

    proptest::proptest! {
        #[test]
        fn rendered_pieces_are_the_escaped_dump_and_join_back_to_it(
            words in proptest::collection::vec(proptest::any::<u64>(), 0..9 * 40),
            cuts in proptest::collection::vec(proptest::any::<usize>(), 0..6),
        ) {
            use pic_particles::{AosEnsemble, SoaEnsemble};
            pieces_are_the_escaped_dump::<f32, SoaEnsemble<f32>>(&words, &cuts, special_f32)?;
            pieces_are_the_escaped_dump::<f32, AosEnsemble<f32>>(&words, &cuts, special_f32)?;
            pieces_are_the_escaped_dump::<f64, SoaEnsemble<f64>>(&words, &cuts, special_f64)?;
            pieces_are_the_escaped_dump::<f64, AosEnsemble<f64>>(&words, &cuts, special_f64)?;
        }
    }
}
