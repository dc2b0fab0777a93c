//! Ensemble snapshots: plain-text export/import, and the typed
//! [`ColumnSegment`] that carries the same columns without text.
//!
//! Hi-Chi's Python layer handles I/O in the original project; downstream
//! users of this library still need to move ensembles in and out (seeding
//! from external tools, checkpointing long runs, plotting). The format is
//! deliberately trivial: one header line, then one whitespace-separated
//! line per particle — readable by `numpy.loadtxt` and by this module's
//! [`read_ensemble`].
//!
//! The column list is [`crate::columns`]' and appears here only as text:
//! [`HEADER`] (held equal to the schema's name table by a test) and
//! `write_row`'s field order. `widen`/`narrow` are the schema's
//! particle ↔ row mapping at `f64` width; the text writer, the text
//! reader and every `ColumnSegment` operation go through those.

use crate::columns::{ParticleColumns, Row, REAL_COLUMNS};
use crate::particle::Particle;
use crate::species::SpeciesId;
use crate::view::{ParticleAccess, ParticleStore};
use pic_math::decimal::{write_exp, write_uint, MAX_EXP_LEN};
use pic_math::Real;
use std::io::{self, BufRead, Write};

/// The header line written before the particle records.
pub const HEADER: &str = "# x y z px py pz weight gamma species";

/// Writes an ensemble as text (full `f64` precision, round-trip safe).
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
    for i in 0..store.len() {
        write_row(out, &widen(&store.get(i)))?;
    }
    Ok(())
}

/// A particle's row widened to `f64` / `u16` (lossless for both
/// supported precisions), in [`HEADER`] order.
fn widen<R: Real>(p: &Particle<R>) -> Row<f64, u16> {
    let (reals, species) = p.to_row();
    (reals.map(R::to_f64), species.0)
}

/// The inverse of [`widen`]: exact for values that were widened from `R`.
fn narrow<R: Real>((reals, species): Row<f64, u16>) -> Particle<R> {
    Particle::from_row((reals.map(R::from_f64), SpeciesId(species)))
}

/// Longest particle line: every real at its longest and a separator
/// each, five species digits, the newline.
pub const MAX_ROW_LEN: usize = REAL_COLUMNS * (MAX_EXP_LEN + 1) + 5 + 1;

/// Writes one particle line — the only place the text row is formatted:
/// the reals as `{:e}` prints them (by [`pic_math::decimal`], which is
/// held to those bytes), the species in decimal, assembled on the stack
/// and handed to `out` in one piece.
fn write_row<W: Write>(out: &mut W, (reals, species): &Row<f64, u16>) -> io::Result<()> {
    let mut line = [0u8; MAX_ROW_LEN];
    let mut at = 0;
    for &value in reals {
        at += write_exp(value, &mut line[at..]);
        line[at] = b' ';
        at += 1;
    }
    at += write_uint(u64::from(*species), &mut line[at..]);
    line[at] = b'\n';
    out.write_all(&line[..=at])
}

/// Reads an ensemble written by [`write_ensemble`]. Lines starting with
/// `#` and blank lines are skipped.
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
        let mut reals = [0.0; REAL_COLUMNS];
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
        store.push(narrow((reals, species)));
    }
    Ok(store)
}

/// A contiguous range of particles as typed columns — the one form in
/// which particle state waits outside a store: the gather payload of
/// domain-decomposed runs and the checkpoint of a running job.
///
/// Columns are stored widened to `f64` (lossless for both supported
/// precisions), exactly the values [`write_ensemble`] would print, so a
/// segment can reproduce the text dump of its range bitwise via
/// [`write_text`](Self::write_text) without the producer serializing
/// anything. Segments go back into a store by range
/// ([`splice_into`](Self::splice_into)) or are concatenated
/// ([`append`](Self::append)) — both are plain column copies, no
/// parsing, no float formatting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ColumnSegment {
    cols: ParticleColumns<Vec<f64>, Vec<u16>>,
}

/// Magic tag leading the binary encoding of a [`ColumnSegment`].
const SEGMENT_MAGIC: [u8; 8] = *b"PICSEG01";

/// Encoded payload bytes per particle.
const ROW_BYTES: usize = REAL_COLUMNS * std::mem::size_of::<f64>() + std::mem::size_of::<u16>();

/// Panics unless `offset + len` fits `store_len`.
fn check_range(offset: usize, len: usize, store_len: usize) {
    assert!(
        offset.checked_add(len).is_some_and(|end| end <= store_len),
        "segment range {offset}+{len} out of bounds for store of {store_len}"
    );
}

impl ColumnSegment {
    /// Captures `len` particles of `store` starting at `offset` as
    /// widened columns, in store order.
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
        let mut seg = ColumnSegment::with_capacity(len);
        match store.columns() {
            // A column-backed store widens column by column.
            Some(cols) => {
                for (wide, col) in seg.cols.reals.iter_mut().zip(cols.reals) {
                    wide.extend(col[offset..offset + len].iter().map(|v| v.to_f64()));
                }
                let species = &cols.species[offset..offset + len];
                seg.cols.species.extend(species.iter().map(|s| s.0));
            }
            None => {
                for i in offset..offset + len {
                    seg.cols.push_row(widen(&store.get(i)));
                }
            }
        }
        seg
    }

    /// An empty segment with room for `len` particles per column.
    pub fn with_capacity(len: usize) -> ColumnSegment {
        let mut seg = ColumnSegment::default();
        seg.cols.reserve_rows(len);
        seg
    }

    /// Number of particles in the segment.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// `true` when the segment holds no particles.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Approximate payload size in bytes (the splice cost unit).
    pub fn byte_len(&self) -> usize {
        self.len() * ROW_BYTES
    }

    /// Splices the segment's particles into `store` starting at
    /// `offset`, narrowing back to the store's precision (exact for
    /// values that were widened from it): store particle `offset + i`
    /// becomes segment row `i`.
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
        let end = offset + self.len();
        match store.columns_mut() {
            // A column-backed store narrows column by column.
            Some(cols) => {
                for (col, wide) in cols.reals.into_iter().zip(&self.cols.reals) {
                    for (v, w) in col[offset..end].iter_mut().zip(wide) {
                        *v = R::from_f64(*w);
                    }
                }
                for (s, id) in cols.species[offset..end].iter_mut().zip(&self.cols.species) {
                    *s = SpeciesId(*id);
                }
            }
            None => {
                for i in 0..self.len() {
                    store.set(offset + i, &narrow(self.cols.row_at(i)));
                }
            }
        }
    }

    /// Appends every particle of `other` after this segment's — the
    /// in-order gather splice (column `extend`s, no per-field work).
    pub fn append(&mut self, other: &ColumnSegment) {
        for (col, more) in self.cols.reals.iter_mut().zip(&other.cols.reals) {
            col.extend_from_slice(more);
        }
        self.cols.species.extend_from_slice(&other.cols.species);
    }

    /// Writes the particle lines (no header) in exactly the format of
    /// [`write_ensemble`]: a segment captured from a store reproduces
    /// that store range's dump bytes verbatim.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from `out`.
    pub fn write_text<W: Write>(&self, out: &mut W) -> io::Result<()> {
        for i in 0..self.len() {
            write_row(out, &self.cols.row_at(i))?;
        }
        Ok(())
    }

    /// Encodes the segment as a self-describing little-endian byte
    /// stream (magic, count, eight `f64` columns, species column).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SEGMENT_MAGIC.len() + 8 + self.byte_len());
        out.extend_from_slice(&SEGMENT_MAGIC);
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for v in self.cols.reals.iter().flatten() {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for s in &self.cols.species {
            out.extend_from_slice(&s.to_le_bytes());
        }
        out
    }

    /// Decodes a segment written by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a bad magic tag, a truncated stream, or
    /// trailing bytes — a mangled shard payload must fail loudly, never
    /// splice garbage.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<ColumnSegment> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        if bytes.len() < SEGMENT_MAGIC.len() + 8 {
            return Err(bad(format!(
                "segment header truncated: {} bytes",
                bytes.len()
            )));
        }
        let (magic, rest) = bytes.split_at(SEGMENT_MAGIC.len());
        if magic != SEGMENT_MAGIC {
            return Err(bad("bad segment magic".to_string()));
        }
        let (count, mut rest) = rest.split_at(8);
        // unwrap-free: split_at(8) guarantees exactly 8 bytes.
        let n64 = u64::from_le_bytes(count.try_into().unwrap_or([0; 8]));
        let n = usize::try_from(n64).map_err(|_| bad(format!("segment count {n64} overflows")))?;
        let expect = n
            .checked_mul(ROW_BYTES)
            .ok_or_else(|| bad(format!("segment count {n64} overflows")))?;
        if rest.len() != expect {
            return Err(bad(format!(
                "segment of {n} particles needs {expect} payload bytes, got {}",
                rest.len()
            )));
        }
        let mut seg = ColumnSegment::with_capacity(n);
        for col in &mut seg.cols.reals {
            let (raw, tail) = rest.split_at(n * 8);
            rest = tail;
            col.extend(
                raw.chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().unwrap_or([0; 8]))),
            );
        }
        seg.cols.species.extend(
            rest.chunks_exact(2)
                .map(|c| u16::from_le_bytes(c.try_into().unwrap_or([0; 2]))),
        );
        Ok(seg)
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
    /// through `core::fmt`'s `{:e}`. Kept as the oracle of the row
    /// writer, as `{:e}` is the oracle of the digits.
    fn write_ensemble_fmt<R: Real, A: ParticleAccess<R>>(store: &A) -> Vec<u8> {
        let mut out = format!("{HEADER}\n").into_bytes();
        for i in 0..store.len() {
            let (r, species) = widen(&store.get(i));
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
        fn check<R: Real, S: ParticleStore<R>>() {
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
            // all of f64's 17 digits.
            assert!(dump.len() > store.len() * 100, "{}", dump.len());
        }
        check::<f32, SoaEnsemble<f32>>();
        check::<f32, AosEnsemble<f32>>();
        check::<f64, SoaEnsemble<f64>>();
        check::<f64, AosEnsemble<f64>>();
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
            seg.write_text(&mut spliced).unwrap();
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
    fn segment_binary_codec_round_trips() {
        let ens = sample();
        let seg = ColumnSegment::from_store(&ens, 0, ens.len());
        let back = ColumnSegment::from_bytes(&seg.to_bytes()).unwrap();
        assert_eq!(back, seg);
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
        // Truncated payload, truncated header, bad magic, trailing junk:
        // all must surface as InvalidData, never a panic or silent data.
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
        ];
        for (i, case) in cases.iter().enumerate() {
            let err = ColumnSegment::from_bytes(case).expect_err("case must fail");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "case {i}");
        }
    }

    #[test]
    fn f32_segment_widening_is_lossless() {
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
        let mut back: SoaEnsemble<f32> = (0..8).map(|_| Particle::default()).collect();
        seg.splice_into(&mut back, 0);
        for i in 0..8 {
            assert_eq!(back.get(i), ens.get(i), "f64 widening must round-trip");
        }
        // And the text path matches write_ensemble on the f32 store too.
        let mut whole = Vec::new();
        write_ensemble(&ens, &mut whole).unwrap();
        let mut text = format!("{HEADER}\n").into_bytes();
        seg.write_text(&mut text).unwrap();
        assert_eq!(whole, text);
    }

    #[test]
    fn f32_roundtrip_within_precision() {
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
            let a = ens.get(i);
            let b = back.get(i);
            assert!((a.momentum - b.momentum).norm() <= 1e-6 * a.momentum.norm());
        }
    }
}
