//! A dump render reuses the memory the last one freed.
//!
//! A shard of 62 500 f32 rows renders 4–6 MB of text. Reserved in one
//! block, that text was mapped afresh by glibc on every render and
//! faulted in page by page (≈ 1 000–1 400 minor faults a render). It is
//! now rendered in pieces under the allocator's mmap threshold, and a
//! dropped piece hands its buffer to the next render, so a render
//! touches pages already in place. The spare buffers and the
//! allocator's thresholds are process-wide, and any other render or
//! freed mapping moves them, so this binary holds this one test and
//! nothing else.

use pic_particles::io::RowEnd;
use pic_particles::{ColumnSegment, SoaEnsemble};
use pic_serve::shard::render_rows;

/// Rows of one shard of the benchmark's 125 000-particle sharded job.
const ROWS: usize = 62_500;

/// Minor page faults this thread has taken so far (field 10 of
/// `/proc/thread-self/stat`, counted after the parenthesised name).
#[cfg(target_os = "linux")]
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("thread stat readable");
    let after_name = stat.rsplit_once(')').expect("stat has a name").1;
    let field = after_name.split_whitespace().nth(7).expect("minflt field");
    field.parse().expect("minflt is a count")
}

#[cfg(target_os = "linux")]
#[test]
fn a_second_render_of_a_shard_maps_no_fresh_pages() {
    let store: SoaEnsemble<f32> = pic_sim::build_ensemble(ROWS, 11);
    let segment = ColumnSegment::from_store(&store, 0, ROWS);
    drop(render_rows(&[&segment], true, RowEnd::Escaped));
    let before = minor_faults();
    let pieces = render_rows(&[&segment], true, RowEnd::Escaped);
    let faults = minor_faults() - before;
    let bytes: usize = pieces.iter().map(|p| p.as_str().len()).sum();
    assert!(bytes > ROWS * 50, "a full shard's text: {bytes} bytes");
    assert!(
        faults < 64,
        "the second render took {faults} minor faults for {bytes} bytes in {} pieces",
        pieces.len()
    );
}
