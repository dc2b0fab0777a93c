//! Ensemble snapshots: plain-text export/import, and the typed
//! [`ColumnSegment`] that carries the same columns without text.
//!
//! Hi-Chi's Python layer handles I/O in the original project; downstream
//! users of this library still need to move ensembles in and out (seeding
//! from external tools, checkpointing long runs, plotting). The format is
//! deliberately trivial: one header line, then one whitespace-separated
//! line per particle — readable by `numpy.loadtxt` and by this module's
//! [`read_ensemble`]. The rows of a dump headed for a JSON line end in
//! the two bytes `\` `n` instead ([`RowEnd`]): that is the whole escape.
//!
//! Every real is printed at the store's own precision: the shortest
//! digits that read back as that `f32` or `f64` (what `{:e}` prints for
//! it, by [`pic_math::decimal`]). [`read_ensemble`] parses them at that
//! precision too; an `f32` dump parsed as `f64` and then narrowed can land
//! one step off (see [`pic_math::decimal`]).
//!
//! Text is rendered the way the kernel pushes: a block of
//! [`EXP_BLOCK`] rows at a time, from one block of each column. Each
//! column block's texts are computed as lane code
//! ([`Real::exp_block`], [`uint_block`]), and the row pass only copies
//! finished texts into a line buffer for the block. A column block with
//! the bits of that column's previous block reuses its text, so columns
//! that never change (weight, species, a field component that is zero at
//! t = 0) are rendered once. `write_rows` is the
//! one row writer; [`write_ensemble`] renders through a captured
//! [`ColumnSegment`].
//!
//! The column list is [`crate::columns`]' and appears here only as text:
//! [`HEADER`] (held equal to the schema's name table by a test) and
//! `write_rows`' field order. `row_of`/`particle_of` are the schema's
//! particle ↔ row mapping at a given width; the segment capture, the text
//! reader and every `ColumnSegment` operation go through those.

use crate::columns::{ParticleColumns, Row, REAL_COLUMNS};
use crate::particle::Particle;
use crate::species::SpeciesId;
use crate::view::{ParticleAccess, ParticleStore};
use pic_math::decimal::{uint_block, ExpBlock, EXP_BLOCK};
use pic_math::Real;
use std::io::{self, BufRead, Write};

/// The header line written before the particle records.
pub const HEADER: &str = "# x y z px py pz weight gamma species";

/// Writes an ensemble as text, every real at the store's precision
/// (round-trip safe: [`read_ensemble`] at that precision reads back the
/// same bits).
///
/// # Errors
///
/// Propagates any I/O error from `out`.
///
/// # Example
///
/// ```
/// use pic_particles::io::{read_ensemble, write_ensemble};
/// use pic_particles::{AosEnsemble, Particle, ParticleStore};
///
/// # fn main() -> std::io::Result<()> {
/// let ens = AosEnsemble::<f64>::from_particles(
///     (0..3).map(|_| Particle::default()));
/// let mut buf = Vec::new();
/// write_ensemble(&ens, &mut buf)?;
/// let back: AosEnsemble<f64> = read_ensemble(buf.as_slice())?;
/// assert_eq!(ens, back);
/// # Ok(())
/// # }
/// ```
pub fn write_ensemble<R, A, W>(store: &A, out: &mut W) -> io::Result<()>
where
    R: Real,
    A: ParticleAccess<R>,
    W: Write,
{
    writeln!(out, "{HEADER}")?;
    for offset in (0..store.len()).step_by(CAPTURE_ROWS) {
        let len = (store.len() - offset).min(CAPTURE_ROWS);
        ColumnSegment::from_store(store, offset, len).write_text(out, RowEnd::Newline)?;
    }
    Ok(())
}

/// Rows [`write_ensemble`] captures into one segment at a time: whole
/// blocks, so only a store's last block is short, and a bounded copy.
const CAPTURE_ROWS: usize = 256 * EXP_BLOCK;

/// How each text row ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowEnd {
    /// A newline: the text as a file holds it.
    Newline,
    /// The two bytes `\` `n`: the text as the body of a JSON string. A
    /// row holds digits, `.`, `e`, `-`, spaces, `NaN` and `inf`, none of
    /// which JSON escapes, so its newline is all there is to escape.
    Escaped,
}

impl RowEnd {
    /// The bytes that end a row.
    pub const fn bytes(self) -> &'static [u8] {
        match self {
            RowEnd::Newline => b"\n",
            RowEnd::Escaped => b"\\n",
        }
    }
}

/// `v` at width `W`: exact when widening, and when narrowing a value
/// that was widened from `W` (an `f32` → `f32` cast folds away).
#[inline(always)]
fn cast<R: Real, W: Real>(v: R) -> W {
    W::from_f64(v.to_f64())
}

/// A particle's row with its reals at width `W` and its species as a
/// plain `u16`, in [`HEADER`] order.
fn row_of<R: Real, W: Real>(p: &Particle<R>) -> Row<W, u16> {
    let (reals, species) = p.to_row();
    (reals.map(cast), species.0)
}

/// The inverse of [`row_of`]: exact for a row taken at `R`'s width or
/// wider.
fn particle_of<W: Real, R: Real>((reals, species): Row<W, u16>) -> Particle<R> {
    Particle::from_row((reals.map(cast), SpeciesId(species)))
}

/// Longest particle line at precision `R` ending in `end`: every real
/// at its longest and a separator each, five species digits, the row end
/// (134 bytes for `f32`, 206 for `f64`, one more escaped).
const fn row_len<R: Real>(end: RowEnd) -> usize {
    REAL_COLUMNS * (R::MAX_EXP_LEN + 1) + 5 + end.bytes().len()
}

/// Longest particle line of either precision (an `f64` one).
pub const MAX_ROW_LEN: usize = row_len::<f64>(RowEnd::Newline);

/// The line buffer `write_rows` lays a block out in: a block of the
/// longest lines with either end, and room for the whole words the last
/// text of a block writes past its end.
const LINE_LEN: usize = EXP_BLOCK * row_len::<f64>(RowEnd::Escaped) + ExpBlock::PUT_LEN;

/// Reads an ensemble written by [`write_ensemble`], each real parsed at
/// precision `R` (correctly rounded). Lines starting with `#` and blank
/// lines are skipped.
///
/// # Errors
///
/// Returns `InvalidData` for malformed records, otherwise propagates I/O
/// errors.
pub fn read_ensemble<R, S, I>(input: I) -> io::Result<S>
where
    R: Real,
    S: ParticleStore<R>,
    I: io::Read,
{
    let mut store = S::default();
    let reader = io::BufReader::new(input);
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split_whitespace().collect();
        if fields.len() != REAL_COLUMNS + 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "line {}: expected {} fields, got {}",
                    lineno + 1,
                    REAL_COLUMNS + 1,
                    fields.len()
                ),
            ));
        }
        let mut reals = [R::ZERO; REAL_COLUMNS];
        for (value, text) in reals.iter_mut().zip(&fields) {
            *value = text.parse().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: bad number {text:?}: {e}", lineno + 1),
                )
            })?;
        }
        let species: u16 = fields[REAL_COLUMNS].parse().map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: bad species id: {e}", lineno + 1),
            )
        })?;
        store.push(particle_of::<R, R>((reals, species)));
    }
    Ok(store)
}

/// A segment's columns at one width.
type Columns<W> = ParticleColumns<Vec<W>, Vec<u16>>;

/// The columns at the width of the store they were captured from.
#[derive(Clone, Debug, PartialEq)]
enum Width {
    F32(Columns<f32>),
    F64(Columns<f64>),
}

/// A contiguous range of particles as typed columns — the one form in
/// which particle state waits outside a store: the gather payload of
/// domain-decomposed runs and the checkpoint of a running job.
///
/// Columns keep the width of the store they were captured from (`f32` or
/// `f64`), exactly the values [`write_ensemble`] would print, so a
/// segment can reproduce the text dump of its range bitwise via
/// [`write_text`](Self::write_text) without the producer serializing
/// anything. Segments go back into a store by range
/// ([`splice_into`](Self::splice_into)) or are concatenated
/// ([`append`](Self::append)) — both are plain column copies, no
/// parsing, no float formatting.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnSegment {
    cols: Width,
}

impl Default for ColumnSegment {
    fn default() -> ColumnSegment {
        ColumnSegment {
            cols: Width::F64(Columns::default()),
        }
    }
}

/// Magic tag leading the binary encoding of a [`ColumnSegment`].
const SEGMENT_MAGIC: [u8; 8] = *b"PICSEG02";

/// Bytes before the payload: the magic, the count, the width.
const SEGMENT_HEADER_LEN: usize = SEGMENT_MAGIC.len() + 8 + 1;

/// Panics unless `offset + len` fits `store_len`.
fn check_range(offset: usize, len: usize, store_len: usize) {
    assert!(
        offset.checked_add(len).is_some_and(|end| end <= store_len),
        "segment range {offset}+{len} out of bounds for store of {store_len}"
    );
}

/// `len` particles of `store` from `offset`, as columns at width `W`.
fn capture<R, A, W>(store: &A, offset: usize, len: usize) -> Columns<W>
where
    R: Real,
    A: ParticleAccess<R>,
    W: Real,
{
    let mut cols = Columns::default();
    cols.reserve_rows(len);
    match store.columns() {
        // A column-backed store is copied column by column.
        Some(src) => {
            for (col, from) in cols.reals.iter_mut().zip(src.reals) {
                col.extend(from[offset..offset + len].iter().map(|&v| cast::<R, W>(v)));
            }
            let species = &src.species[offset..offset + len];
            cols.species.extend(species.iter().map(|s| s.0));
        }
        None => {
            for i in offset..offset + len {
                cols.push_row(row_of(&store.get(i)));
            }
        }
    }
    cols
}

/// Writes `cols` into `store` from `offset` on, at the store's width.
fn splice<W, R, A>(cols: &Columns<W>, store: &mut A, offset: usize)
where
    W: Real,
    R: Real,
    A: ParticleAccess<R>,
{
    let end = offset + cols.len();
    match store.columns_mut() {
        // A column-backed store is written column by column.
        Some(dst) => {
            for (col, from) in dst.reals.into_iter().zip(&cols.reals) {
                for (v, &w) in col[offset..end].iter_mut().zip(from) {
                    *v = cast(w);
                }
            }
            for (s, &id) in dst.species[offset..end].iter_mut().zip(&cols.species) {
                *s = SpeciesId(id);
            }
        }
        None => {
            for i in 0..cols.len() {
                store.set(offset + i, &particle_of(cols.row_at(i)));
            }
        }
    }
}

/// Appends `more`'s rows to `cols`, with room for at least `room` rows
/// beyond the current ones.
fn extend<W: Copy>(cols: &mut Columns<W>, more: &Columns<W>, room: usize) {
    cols.reserve_rows(room);
    for (col, more) in cols.reals.iter_mut().zip(&more.reals) {
        col.extend_from_slice(more);
    }
    cols.species.extend_from_slice(&more.species);
}

/// `cols`' rows as text, each ending in `end`: the one row writer. Rows
/// go [`EXP_BLOCK`] at a time; a block of each column is rendered by lane
/// code ([`Real::exp_block`], [`uint_block`]), then the rows are laid out
/// in one line buffer by copying the finished texts, and the buffer is
/// handed to `out` in one piece. A last block of fewer rows is padded
/// with zeros, of which no row is laid out. A column block whose values
/// have the bits (`bits`) of that column's previous block reuses its text
/// ([`Memo`]): a dump's constant columns render once.
fn write_rows<W, K, O>(
    cols: &Columns<W>,
    out: &mut O,
    end: RowEnd,
    bits: fn(W) -> K,
) -> io::Result<()>
where
    W: Real,
    K: Copy + Default + PartialEq,
    O: Write,
{
    let end = end.bytes();
    let mut line = [0u8; LINE_LEN];
    let mut texts: [Memo<K>; REAL_COLUMNS] = Default::default();
    let mut species = Memo::<u16>::default();
    for start in (0..cols.len()).step_by(EXP_BLOCK) {
        let rows = (cols.len() - start).min(EXP_BLOCK);
        for (text, col) in texts.iter_mut().zip(&cols.reals) {
            let block = block_of(col, start, W::ZERO);
            text.render(block.map(bits), || W::exp_block(&block));
        }
        let ids = block_of(&cols.species, start, 0);
        species.render(ids, || uint_block(&ids));
        let mut at = 0;
        for row in 0..rows {
            for text in &texts {
                at += text.text.put(row, &mut line[at..]);
                line[at] = b' ';
                at += 1;
            }
            at += species.text.put(row, &mut line[at..]);
            line[at..at + end.len()].copy_from_slice(end);
            at += end.len();
        }
        out.write_all(&line[..at])?;
    }
    Ok(())
}

/// One column's last rendered block: the exact bits it was rendered
/// from, padding included, and its text. Keyed on bits, so `-0` and `+0`
/// and NaNs of different payloads never share a text.
#[derive(Default)]
struct Memo<K> {
    bits: Option<[K; EXP_BLOCK]>,
    text: ExpBlock,
}

impl<K: Copy + PartialEq> Memo<K> {
    /// Makes `text` the text of the block with these `bits`, calling
    /// `text_of` only when they differ from the last block's.
    #[inline(always)]
    fn render(&mut self, bits: [K; EXP_BLOCK], text_of: impl FnOnce() -> ExpBlock) {
        if self.bits != Some(bits) {
            self.text = text_of();
            self.bits = Some(bits);
        }
    }
}

/// The block of `col` from `start`: its next [`EXP_BLOCK`] values, the
/// last block padded with `pad`.
#[inline(always)]
fn block_of<T: Copy>(col: &[T], start: usize, pad: T) -> [T; EXP_BLOCK] {
    let rest = &col[start..col.len().min(start + EXP_BLOCK)];
    let mut block = [pad; EXP_BLOCK];
    block[..rest.len()].copy_from_slice(rest);
    block
}

/// The real columns little-endian, one after another, then the species.
fn encode<W: Copy, const N: usize>(cols: &Columns<W>, to_le: fn(W) -> [u8; N], out: &mut Vec<u8>) {
    for &v in cols.reals.iter().flatten() {
        out.extend_from_slice(&to_le(v));
    }
    for s in &cols.species {
        out.extend_from_slice(&s.to_le_bytes());
    }
}

/// The inverse of [`encode`] for `n` rows; `payload` holds exactly them.
fn decode<W, const N: usize>(payload: &[u8], n: usize, from_le: fn([u8; N]) -> W) -> Columns<W> {
    let mut cols = Columns::default();
    cols.reserve_rows(n);
    let mut rest = payload;
    for col in &mut cols.reals {
        let (raw, tail) = rest.split_at(n * N);
        rest = tail;
        // unwrap-free: chunks_exact(N) yields exactly N bytes.
        col.extend(
            raw.chunks_exact(N)
                .map(|c| from_le(c.try_into().unwrap_or([0; N]))),
        );
    }
    cols.species.extend(
        rest.chunks_exact(2)
            .map(|c| u16::from_le_bytes(c.try_into().unwrap_or([0; 2]))),
    );
    cols
}

impl ColumnSegment {
    /// Captures `len` particles of `store` starting at `offset` as
    /// columns at the store's width, in store order.
    ///
    /// # Panics
    ///
    /// Panics when `offset + len` exceeds `store.len()`.
    pub fn from_store<R, A>(store: &A, offset: usize, len: usize) -> ColumnSegment
    where
        R: Real,
        A: ParticleAccess<R>,
    {
        check_range(offset, len, store.len());
        let cols = if R::BYTES == 4 {
            Width::F32(capture(store, offset, len))
        } else {
            Width::F64(capture(store, offset, len))
        };
        ColumnSegment { cols }
    }

    /// An empty segment with room for `len` particles. Its real columns
    /// take their width, and this room, from the first segment
    /// [`append`](Self::append)ed to it.
    pub fn with_capacity(len: usize) -> ColumnSegment {
        let mut cols = Columns::default();
        cols.species.reserve(len);
        ColumnSegment {
            cols: Width::F64(cols),
        }
    }

    fn species(&self) -> &Vec<u16> {
        match &self.cols {
            Width::F32(cols) => &cols.species,
            Width::F64(cols) => &cols.species,
        }
    }

    /// Number of particles in the segment.
    pub fn len(&self) -> usize {
        self.species().len()
    }

    /// `true` when the segment holds no particles.
    pub fn is_empty(&self) -> bool {
        self.species().is_empty()
    }

    /// Bytes per real: 4 for columns captured from an `f32` store, 8 for
    /// `f64`.
    fn width(&self) -> usize {
        match self.cols {
            Width::F32(_) => 4,
            Width::F64(_) => 8,
        }
    }

    /// Approximate payload size in bytes (the splice cost unit):
    /// `8 × width + 2` per particle, 34 at `f32`, 66 at `f64`.
    pub fn byte_len(&self) -> usize {
        self.len() * (REAL_COLUMNS * self.width() + 2)
    }

    /// Most bytes one line of [`write_text`](Self::write_text) ending in
    /// `end` takes at this segment's width: the text of `n` rows fits `n`
    /// times this.
    pub fn max_row_len(&self, end: RowEnd) -> usize {
        match self.cols {
            Width::F32(_) => row_len::<f32>(end),
            Width::F64(_) => row_len::<f64>(end),
        }
    }

    /// Splices the segment's particles into `store` starting at
    /// `offset`, at the store's precision (exact for the store the
    /// segment was captured from): store particle `offset + i` becomes
    /// segment row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `offset + self.len()` exceeds `store.len()`.
    pub fn splice_into<R, A>(&self, store: &mut A, offset: usize)
    where
        R: Real,
        A: ParticleAccess<R>,
    {
        check_range(offset, self.len(), store.len());
        match &self.cols {
            Width::F32(cols) => splice(cols, store, offset),
            Width::F64(cols) => splice(cols, store, offset),
        }
    }

    /// Appends every particle of `other` after this segment's — the
    /// in-order gather splice (column `extend`s, no per-field work). An
    /// empty segment takes `other`'s width.
    ///
    /// # Panics
    ///
    /// Panics when both segments hold particles, at different widths: a
    /// job never mixes precisions.
    pub fn append(&mut self, other: &ColumnSegment) {
        if other.is_empty() {
            return;
        }
        let room = (self.species().capacity() - self.len()).max(other.len());
        if self.is_empty() {
            self.cols = match other.cols {
                Width::F32(_) => Width::F32(Columns::default()),
                Width::F64(_) => Width::F64(Columns::default()),
            };
        }
        match (&mut self.cols, &other.cols) {
            (Width::F32(cols), Width::F32(more)) => extend(cols, more, room),
            (Width::F64(cols), Width::F64(more)) => extend(cols, more, room),
            _ => panic!("cannot append f32 and f64 columns into one segment"),
        }
    }

    /// Writes the particle lines (no header) in exactly the format of
    /// [`write_ensemble`], each ending in `end`: with
    /// [`RowEnd::Newline`], a segment captured from a store reproduces
    /// that store range's dump bytes verbatim; with [`RowEnd::Escaped`],
    /// those bytes as the body of a JSON string.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from `out`.
    pub fn write_text<O: Write>(&self, out: &mut O, end: RowEnd) -> io::Result<()> {
        match &self.cols {
            Width::F32(cols) => write_rows(cols, out, end, f32::to_bits),
            Width::F64(cols) => write_rows(cols, out, end, f64::to_bits),
        }
    }

    /// Encodes the segment as a self-describing little-endian byte
    /// stream: magic, count, width (4 or 8), eight real columns at that
    /// width, the species column.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SEGMENT_HEADER_LEN + self.byte_len());
        out.extend_from_slice(&SEGMENT_MAGIC);
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        out.push(self.width() as u8);
        match &self.cols {
            Width::F32(cols) => encode(cols, f32::to_le_bytes, &mut out),
            Width::F64(cols) => encode(cols, f64::to_le_bytes, &mut out),
        }
        out
    }

    /// Decodes a segment written by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a bad magic tag, a width other than 4 or
    /// 8, a truncated stream, or trailing bytes — a mangled shard payload
    /// must fail loudly, never splice garbage.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<ColumnSegment> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        if bytes.len() < SEGMENT_HEADER_LEN {
            return Err(bad(format!(
                "segment header truncated: {} bytes",
                bytes.len()
            )));
        }
        let (magic, rest) = bytes.split_at(SEGMENT_MAGIC.len());
        if magic != SEGMENT_MAGIC {
            return Err(bad("bad segment magic".to_string()));
        }
        let (count, rest) = rest.split_at(8);
        let (width, payload) = rest.split_at(1);
        // unwrap-free: split_at(8) guarantees exactly 8 bytes.
        let n64 = u64::from_le_bytes(count.try_into().unwrap_or([0; 8]));
        let n = usize::try_from(n64).map_err(|_| bad(format!("segment count {n64} overflows")))?;
        let width = usize::from(width[0]);
        if width != 4 && width != 8 {
            return Err(bad(format!("segment width {width} is neither 4 nor 8")));
        }
        let expect = n
            .checked_mul(REAL_COLUMNS * width + 2)
            .ok_or_else(|| bad(format!("segment count {n64} overflows")))?;
        if payload.len() != expect {
            return Err(bad(format!(
                "segment of {n} particles needs {expect} payload bytes, got {}",
                payload.len()
            )));
        }
        let cols = if width == 4 {
            Width::F32(decode(payload, n, f32::from_le_bytes))
        } else {
            Width::F64(decode(payload, n, f64::from_le_bytes))
        };
        Ok(ColumnSegment { cols })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aos::AosEnsemble;
    use crate::soa::SoaEnsemble;
    use pic_math::constants::{ELECTRON_MASS, LIGHT_VELOCITY};
    use pic_math::Vec3;

    fn sample() -> AosEnsemble<f64> {
        (0..25)
            .map(|i| {
                Particle::new(
                    Vec3::new(i as f64 * 1.7e-5, -3.3e-4, 2.0e-6 * i as f64),
                    Vec3::splat((i as f64 - 12.0) * 1e-18),
                    1.0 + i as f64,
                    SpeciesId((i % 3) as u16),
                    ELECTRON_MASS,
                )
            })
            .collect()
    }

    /// `write_ensemble` as it was before `pic_math::decimal`: every real
    /// through `core::fmt`'s `{:e}` at the store's precision. Kept as the
    /// oracle of the row writer, as `{:e}` is the oracle of the digits.
    fn write_ensemble_fmt<R: Real, A: ParticleAccess<R>>(store: &A) -> Vec<u8> {
        let mut out = format!("{HEADER}\n").into_bytes();
        for i in 0..store.len() {
            let (r, species) = row_of::<R, R>(&store.get(i));
            writeln!(
                out,
                "{:e} {:e} {:e} {:e} {:e} {:e} {:e} {:e} {}",
                r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7], species
            )
            .unwrap();
        }
        out
    }

    /// A seeded ensemble after 20 steps of a stand-in pusher (the real
    /// one lives above this crate): a kick, γ, a drift, all in `R`, so
    /// every column carries full-width mantissas at the store's precision.
    fn pushed<R: Real, S: ParticleStore<R>>() -> S {
        let mut store = S::default();
        let sphere = crate::init::SphereDist {
            center: Vec3::zero(),
            radius: 5.4e-5,
        };
        crate::init::fill_sphere_at_rest(&mut store, 400, &sphere, 1.0, SpeciesId(0), 24);
        let mc = R::from_f64(ELECTRON_MASS * LIGHT_VELOCITY);
        let step = R::from_f64(LIGHT_VELOCITY * 1.0e-16);
        for _ in 0..20 {
            for i in 0..store.len() {
                let mut p = store.get(i);
                let x = p.position;
                p.momentum += Vec3::new(x.y, -x.z, x.x) * R::from_f64(3.0e-13);
                p.gamma = (R::ONE + (p.momentum / mc).norm2()).sqrt();
                p.position += p.momentum / mc * (step / p.gamma);
                p.species = SpeciesId((i % 7) as u16 * 9_999);
                store.set(i, &p);
            }
        }
        store
    }

    #[test]
    fn dump_bytes_are_what_the_fmt_row_writer_wrote() {
        fn check<R: Real, S: ParticleStore<R>>(bytes_per_row: usize) {
            let store: S = pushed();
            let mut dump = Vec::new();
            write_ensemble(&store, &mut dump).unwrap();
            let expect = write_ensemble_fmt(&store);
            assert!(
                dump == expect,
                "first differing line: {:?}",
                std::str::from_utf8(&dump)
                    .unwrap()
                    .lines()
                    .zip(std::str::from_utf8(&expect).unwrap().lines())
                    .find(|(got, want)| got != want)
            );
            // The pushed state is not trivially short: most reals need
            // all of their precision's digits (9 for f32, 17 for f64).
            assert!(dump.len() > store.len() * bytes_per_row, "{}", dump.len());
        }
        check::<f32, SoaEnsemble<f32>>(80);
        check::<f32, AosEnsemble<f32>>(80);
        check::<f64, SoaEnsemble<f64>>(100);
        check::<f64, AosEnsemble<f64>>(100);
    }

    #[test]
    fn the_longest_row_fits_the_row_buffer() {
        // Every real at 24 bytes, the widest species id.
        let worst = Particle {
            position: Vec3::splat(-1.234_567_890_123_456_7e-308),
            momentum: Vec3::splat(-f64::MAX),
            weight: -2.225_073_858_507_201_4e-308,
            gamma: -1.797_693_134_862_315_7e-300,
            species: SpeciesId(u16::MAX),
        };
        let store = AosEnsemble::<f64>::from_particles([worst]);
        let mut dump = Vec::new();
        write_ensemble(&store, &mut dump).unwrap();
        assert_eq!(dump, write_ensemble_fmt(&store));
        assert!(
            dump.len() - HEADER.len() - 1 > MAX_ROW_LEN - 6,
            "{}",
            dump.len()
        );
        // A whole block of them, escaped, fits the block's line buffer
        // with room for the words the last text writes past its end.
        let block = AosEnsemble::<f64>::from_particles([worst; EXP_BLOCK + 1]);
        let mut text = Vec::new();
        ColumnSegment::from_store(&block, 0, EXP_BLOCK + 1)
            .write_text(&mut text, RowEnd::Escaped)
            .unwrap();
        let row = &dump[HEADER.len() + 1..dump.len() - 1];
        assert_eq!(text.len(), (EXP_BLOCK + 1) * (row.len() + 2));
        assert!(EXP_BLOCK * (row.len() + 2) + ExpBlock::PUT_LEN <= LINE_LEN);
        // Every f32 real at 15 bytes (`-1.00000075e-36`): exactly an f32
        // segment's bound.
        let x = -f32::from_bits(0x03aa_242d);
        let worst_f32 = Particle {
            position: Vec3::splat(x),
            momentum: Vec3::splat(x),
            weight: x,
            gamma: x,
            species: SpeciesId(u16::MAX),
        };
        let store = AosEnsemble::<f32>::from_particles([worst_f32]);
        let mut dump = Vec::new();
        write_ensemble(&store, &mut dump).unwrap();
        assert_eq!(dump, write_ensemble_fmt(&store));
        let seg = ColumnSegment::from_store(&store, 0, 1);
        assert_eq!(
            dump.len() - HEADER.len() - 1,
            seg.max_row_len(RowEnd::Newline)
        );
        // Non-finite reals have no digits; they print as `{:e}` names them.
        let odd = Particle {
            position: Vec3::new(f64::NAN, f64::INFINITY, f64::NEG_INFINITY),
            ..worst
        };
        let store = AosEnsemble::<f64>::from_particles([odd]);
        let mut dump = Vec::new();
        write_ensemble(&store, &mut dump).unwrap();
        assert_eq!(dump, write_ensemble_fmt(&store));
    }

    #[test]
    fn roundtrip_is_exact_f64() {
        let ens = sample();
        let mut buf = Vec::new();
        write_ensemble(&ens, &mut buf).unwrap();
        let back: AosEnsemble<f64> = read_ensemble(buf.as_slice()).unwrap();
        assert_eq!(ens, back);
    }

    #[test]
    fn roundtrip_across_layouts() {
        let ens = sample();
        let mut buf = Vec::new();
        write_ensemble(&ens, &mut buf).unwrap();
        let soa: SoaEnsemble<f64> = read_ensemble(buf.as_slice()).unwrap();
        for i in 0..ens.len() {
            assert_eq!(ens.get(i), soa.get(i));
        }
    }

    #[test]
    fn header_and_comments_are_skipped() {
        let text = format!("{HEADER}\n\n# a comment\n1 2 3 4e-18 5e-18 6e-18 2.5 1.0 1\n");
        let ens: AosEnsemble<f64> = read_ensemble(text.as_bytes()).unwrap();
        assert_eq!(ens.len(), 1);
        let p = ens.get(0);
        assert_eq!(p.position, Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(p.weight, 2.5);
        assert_eq!(p.species, SpeciesId(1));
    }

    #[test]
    fn malformed_line_is_invalid_data() {
        let err = read_ensemble::<f64, AosEnsemble<f64>, _>("1 2 3\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err2 =
            read_ensemble::<f64, AosEnsemble<f64>, _>("1 2 3 4 5 6 7 8 not-a-species\n".as_bytes())
                .unwrap_err();
        assert_eq!(err2.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn segment_text_matches_write_ensemble_bytes() {
        let ens = sample();
        let mut whole = Vec::new();
        write_ensemble(&ens, &mut whole).unwrap();
        // Header + the two range segments, spliced in order.
        let mut spliced = format!("{HEADER}\n").into_bytes();
        for (offset, len) in [(0usize, 10usize), (10, 15)] {
            let seg = ColumnSegment::from_store(&ens, offset, len);
            assert_eq!(seg.len(), len);
            seg.write_text(&mut spliced, RowEnd::Newline).unwrap();
        }
        assert_eq!(whole, spliced, "segment text must be dump bytes verbatim");
    }

    #[test]
    fn segment_splice_round_trips_both_layouts() {
        let ens = sample();
        let seg = ColumnSegment::from_store(&ens, 5, 12);
        let mut back: AosEnsemble<f64> = sample();
        let mut soa: SoaEnsemble<f64> = (0..ens.len()).map(|i| ens.get(i)).collect();
        seg.splice_into(&mut back, 5);
        seg.splice_into(&mut soa, 5);
        for i in 0..ens.len() {
            assert_eq!(back.get(i), ens.get(i));
            assert_eq!(soa.get(i), ens.get(i));
        }
    }

    #[test]
    fn segment_append_concatenates_ranges() {
        let ens = sample();
        let mut merged = ColumnSegment::from_store(&ens, 0, 10);
        merged.append(&ColumnSegment::from_store(&ens, 10, 15));
        assert_eq!(merged, ColumnSegment::from_store(&ens, 0, 25));
        assert_eq!(merged.byte_len(), 25 * (8 * 8 + 2));
    }

    #[test]
    fn an_empty_segment_takes_the_width_of_what_is_appended() {
        let ens: SoaEnsemble<f32> = pushed();
        let seg = ColumnSegment::from_store(&ens, 0, ens.len());
        assert_eq!(seg.byte_len(), ens.len() * (8 * 4 + 2));
        for mut merged in [ColumnSegment::default(), ColumnSegment::with_capacity(9)] {
            merged.append(&seg);
            assert_eq!(merged, seg);
            assert_eq!(merged.to_bytes(), seg.to_bytes());
        }
        let mut appended = seg.clone();
        appended.append(&ColumnSegment::default());
        assert_eq!(appended, seg, "an empty segment adds nothing");
    }

    #[test]
    #[should_panic(expected = "cannot append f32 and f64 columns")]
    fn appending_across_widths_panics() {
        let narrow: SoaEnsemble<f32> = pushed();
        let mut seg = ColumnSegment::from_store(&narrow, 0, 3);
        seg.append(&ColumnSegment::from_store(&sample(), 0, 3));
    }

    #[test]
    fn segment_binary_codec_round_trips() {
        let ens = sample();
        let seg = ColumnSegment::from_store(&ens, 0, ens.len());
        let back = ColumnSegment::from_bytes(&seg.to_bytes()).unwrap();
        assert_eq!(back, seg);
        let narrow: AosEnsemble<f32> = pushed();
        let seg = ColumnSegment::from_store(&narrow, 0, narrow.len());
        let bytes = seg.to_bytes();
        assert_eq!(bytes.len(), SEGMENT_HEADER_LEN + narrow.len() * 34);
        assert_eq!(ColumnSegment::from_bytes(&bytes).unwrap(), seg);
        let empty = ColumnSegment::default();
        assert!(empty.is_empty());
        assert_eq!(ColumnSegment::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn truncated_or_mangled_segment_is_invalid_data() {
        let ens = sample();
        let bytes = ColumnSegment::from_bytes(&ColumnSegment::from_store(&ens, 0, 4).to_bytes())
            .unwrap()
            .to_bytes();
        // Truncated payload, truncated header, bad magic, trailing junk,
        // a width that is neither 4 nor 8, the f32 width over an f64
        // payload: all must surface as InvalidData, never a panic or
        // silent data.
        let with_width = |width: u8| {
            let mut b = bytes.clone();
            b[SEGMENT_HEADER_LEN - 1] = width;
            b
        };
        let cases: Vec<Vec<u8>> = vec![
            bytes[..bytes.len() - 3].to_vec(),
            bytes[..7].to_vec(),
            {
                let mut b = bytes.clone();
                b[0] ^= 0xff;
                b
            },
            {
                let mut b = bytes.clone();
                b.push(0);
                b
            },
            with_width(0),
            with_width(2),
            with_width(16),
            with_width(4),
        ];
        for (i, case) in cases.iter().enumerate() {
            let err = ColumnSegment::from_bytes(case).expect_err("case must fail");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "case {i}");
        }
    }

    #[test]
    fn f32_segment_keeps_f32_width() {
        let ens: SoaEnsemble<f32> = (0..8)
            .map(|i| {
                Particle::new(
                    Vec3::new(i as f32 * 0.37, -1.5, 0.25 * i as f32),
                    Vec3::splat(1.0e-19_f32),
                    1.0 + i as f32,
                    SpeciesId(i as u16 % 2),
                    ELECTRON_MASS as f32,
                )
            })
            .collect();
        let seg = ColumnSegment::from_store(&ens, 0, 8);
        assert_eq!(seg.byte_len(), 8 * 34);
        let mut back: SoaEnsemble<f32> = (0..8).map(|_| Particle::default()).collect();
        seg.splice_into(&mut back, 0);
        for i in 0..8 {
            assert_eq!(back.get(i), ens.get(i), "an f32 segment must round-trip");
        }
        // Spliced into an f64 store, it widens exactly.
        let mut wide: AosEnsemble<f64> = (0..8).map(|_| Particle::default()).collect();
        seg.splice_into(&mut wide, 0);
        for i in 0..8 {
            assert_eq!(wide.get(i).position.x, f64::from(ens.get(i).position.x));
        }
        // And the text path matches write_ensemble on the f32 store too.
        let mut whole = Vec::new();
        write_ensemble(&ens, &mut whole).unwrap();
        let mut text = format!("{HEADER}\n").into_bytes();
        seg.write_text(&mut text, RowEnd::Newline).unwrap();
        assert_eq!(whole, text);
        assert!(std::str::from_utf8(&text).unwrap().contains(" 1e-19 "));
    }

    #[test]
    fn f32_roundtrip_is_bitwise() {
        let mc = (ELECTRON_MASS * LIGHT_VELOCITY) as f32;
        let ens: SoaEnsemble<f32> = (0..5)
            .map(|i| {
                Particle::new(
                    Vec3::new(i as f32 * 0.1, 0.0, 0.0),
                    Vec3::new(mc, 0.0, 0.0),
                    1.0,
                    SpeciesId(0),
                    ELECTRON_MASS as f32,
                )
            })
            .collect();
        let mut buf = Vec::new();
        write_ensemble(&ens, &mut buf).unwrap();
        let back: SoaEnsemble<f32> = read_ensemble(buf.as_slice()).unwrap();
        for i in 0..ens.len() {
            let (a, b) = (ens.get(i).to_row(), back.get(i).to_row());
            assert_eq!(a.0.map(f32::to_bits), b.0.map(f32::to_bits), "particle {i}");
            assert_eq!(a.1, b.1);
        }
    }

    #[test]
    fn f32_text_is_read_at_f32_width() {
        // `7.038531e-26` is the shortest text of f32 bits 0x15ae43fd; read
        // as f64 and narrowed it would be 0x15ae43fe.
        fn check<S: ParticleStore<f32>>() {
            let x = f32::from_bits(0x15ae_43fd);
            let p = Particle {
                position: Vec3::new(x, -x, 1.0),
                momentum: Vec3::splat(-x),
                weight: x,
                gamma: 1.0,
                species: SpeciesId(3),
            };
            let store = S::from_particles([p]);
            let mut buf = Vec::new();
            write_ensemble(&store, &mut buf).unwrap();
            let text = String::from_utf8(buf).unwrap();
            assert!(text.contains("7.038531e-26 -7.038531e-26 1e0 "), "{text}");
            let back: S = read_ensemble(text.as_bytes()).unwrap();
            let bits = |s: &S| s.get(0).to_row().0.map(f32::to_bits);
            assert_eq!(bits(&back), bits(&store));
        }
        check::<AosEnsemble<f32>>();
        check::<SoaEnsemble<f32>>();
    }
}
