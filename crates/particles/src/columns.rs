//! The particle column schema: the one declaration of which attributes a
//! particle has in column form, and the one mapping between a
//! [`Particle`] record and a row of those columns.
//!
//! [`ParticleColumns<C, S>`] is eight real columns held as an array plus
//! a species column, generic over the *container*. Every column-shaped
//! type in the workspace is an instantiation of it:
//!
//! | container `C` | what it is |
//! |---|---|
//! | `Vec<R>` | the SoA ensemble ([`crate::SoaEnsemble`]) and, at its store's width, the [`crate::ColumnSegment`] |
//! | `&mut [R]` / `&[R]` | a chunk or whole-store view ([`ColumnsMut`], [`ColumnsRef`], [`crate::SoaChunkMut`]) |
//! | `&mut [[R; LANES]]`, `&mut [R; LANES]` | the blocked kernel's view of a chunk as whole blocks of `pic_fields::LANES` (16 rows: one 512-bit register of `f32`), and of one block |
//! | `[R; FIELD_BLOCKS * LANES]` | the block-local columns of the kernel's gathered (AoS) arm (256 rows) |
//! | `&mut R` | the single-particle proxy ([`SoaRefMut`]) |
//! | `UsmBuffer<R>` | the device backend's staged ensemble |
//!
//! Adding an attribute is two steps: extend the index table below
//! (`REAL_COLUMNS`, a named index, its name) together with
//! [`Particle::to_row`]/[`Particle::from_row`] (the arity pattern in
//! `map_reals` stops compiling until it follows), and add the field to
//! [`Particle`] and the text row in [`crate::io`]. Nothing that merely
//! moves columns around — splitting, staging, capturing, gathering —
//! names a column, so none of it changes.
//!
//! The schema is an indexed array and not a `macro_rules!` table because
//! `pic-analyze` cannot see into macro bodies: these accessors sit under
//! the purity-proved kernel entries and must stay visible to the proof.

use crate::particle::Particle;
use crate::species::SpeciesId;
use crate::view::ParticleView;
use pic_math::{Real, Vec3};
use std::ops::{Deref, DerefMut};

/// Number of real-valued columns; the species column follows them.
pub const REAL_COLUMNS: usize = 8;
/// Index of the position x column.
pub const X: usize = 0;
/// Index of the position y column.
pub const Y: usize = 1;
/// Index of the position z column.
pub const Z: usize = 2;
/// Index of the momentum x column.
pub const PX: usize = 3;
/// Index of the momentum y column.
pub const PY: usize = 4;
/// Index of the momentum z column.
pub const PZ: usize = 5;
/// Index of the macroparticle-weight column.
pub const WEIGHT: usize = 6;
/// Index of the cached Lorentz-factor column.
pub const GAMMA: usize = 7;
/// Column names in index order — the tokens of [`crate::io::HEADER`],
/// which ends with `species`.
pub const REAL_COLUMN_NAMES: [&str; REAL_COLUMNS] =
    ["x", "y", "z", "px", "py", "pz", "weight", "gamma"];

/// One particle's values in column order: the reals, then the species.
pub type Row<T, U> = ([T; REAL_COLUMNS], U);

/// Eight real columns and a species column over containers `C` and `S`
/// (see the module docs for the instantiations).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParticleColumns<C, S> {
    /// The real columns, indexed by [`X`] … [`GAMMA`].
    pub reals: [C; REAL_COLUMNS],
    /// The species column.
    pub species: S,
}

/// Shared slices of every column of a store or chunk.
pub type ColumnsRef<'a, R> = ParticleColumns<&'a [R], &'a [SpeciesId]>;
/// Mutable slices of every column of a store or chunk.
pub type ColumnsMut<'a, R> = ParticleColumns<&'a mut [R], &'a mut [SpeciesId]>;
/// Mutable view of one particle inside a column store — the reference-
/// holding `ParticleProxy` of the paper.
pub type SoaRefMut<'a, R> = ParticleColumns<&'a mut R, &'a mut SpeciesId>;

impl<R: Real> Particle<R> {
    /// The record as a column row.
    #[inline(always)]
    pub fn to_row(&self) -> Row<R, SpeciesId> {
        let (r, p) = (self.position, self.momentum);
        (
            [r.x, r.y, r.z, p.x, p.y, p.z, self.weight, self.gamma],
            self.species,
        )
    }

    /// The record a column row describes; the inverse of
    /// [`to_row`](Self::to_row), bit for bit.
    #[inline(always)]
    pub fn from_row((c, species): Row<R, SpeciesId>) -> Particle<R> {
        // bounds: constant indices into `[_; REAL_COLUMNS]`.
        Particle {
            position: Vec3::new(c[X], c[Y], c[Z]),
            momentum: Vec3::new(c[PX], c[PY], c[PZ]),
            weight: c[WEIGHT],
            gamma: c[GAMMA],
            species,
        }
    }
}

/// `[f(c0), f(c1), …]` over the real columns, in index order. Written out
/// rather than `array::map`, which does not reliably inline under the
/// per-particle accessors below (it left a call per particle in the
/// scalar sweep); the pattern fails to compile when [`REAL_COLUMNS`]
/// changes.
#[inline(always)]
fn map_reals<A, B>(reals: [A; REAL_COLUMNS], mut f: impl FnMut(A) -> B) -> [B; REAL_COLUMNS] {
    let [c0, c1, c2, c3, c4, c5, c6, c7] = reals;
    [f(c0), f(c1), f(c2), f(c3), f(c4), f(c5), f(c6), f(c7)]
}

impl<C, S> ParticleColumns<C, S> {
    /// The same columns seen through `real` / `species`, by shared
    /// reference (borrowing an owner's columns as slices, say).
    #[inline(always)]
    pub fn each_column<'s, C2, S2>(
        &'s self,
        real: impl FnMut(&'s C) -> C2,
        species: impl FnOnce(&'s S) -> S2,
    ) -> ParticleColumns<C2, S2> {
        ParticleColumns {
            reals: map_reals(self.reals.each_ref(), real),
            species: species(&self.species),
        }
    }

    /// [`each_column`](Self::each_column) by mutable reference.
    #[inline(always)]
    pub fn each_column_mut<'s, C2, S2>(
        &'s mut self,
        real: impl FnMut(&'s mut C) -> C2,
        species: impl FnOnce(&'s mut S) -> S2,
    ) -> ParticleColumns<C2, S2> {
        ParticleColumns {
            reals: map_reals(self.reals.each_mut(), real),
            species: species(&mut self.species),
        }
    }
}

impl<T: Copy, U: Copy, C: Deref<Target = [T]>, S: Deref<Target = [U]>> ParticleColumns<C, S> {
    /// Number of rows (every column has this length).
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.species.len()
    }

    /// `true` when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.species.is_empty()
    }

    /// Every column as a shared slice.
    #[inline(always)]
    pub fn as_view(&self) -> ParticleColumns<&[T], &[U]> {
        self.each_column(|c| &**c, |s| &**s)
    }

    /// Row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline(always)]
    pub fn row_at(&self, i: usize) -> Row<T, U> {
        // bounds: `i >= len()` is this accessor's documented panic.
        (map_reals(self.reals.each_ref(), |c| c[i]), self.species[i])
    }
}

impl<T: Copy, U: Copy, C: DerefMut<Target = [T]>, S: DerefMut<Target = [U]>> ParticleColumns<C, S> {
    /// Every column as a mutable slice.
    #[inline(always)]
    pub fn as_view_mut(&mut self) -> ParticleColumns<&mut [T], &mut [U]> {
        self.each_column_mut(|c| &mut **c, |s| &mut **s)
    }

    /// Overwrites row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline(always)]
    pub fn put_row(&mut self, i: usize, (reals, species): Row<T, U>) {
        // bounds: `i >= len()` is this accessor's documented panic.
        for (col, v) in self.reals.iter_mut().zip(reals) {
            col[i] = v;
        }
        self.species[i] = species;
    }

    /// References to the elements of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline(always)]
    pub fn proxy_at(&mut self, i: usize) -> ParticleColumns<&mut T, &mut U> {
        // bounds: `i >= len()` is this accessor's documented panic.
        self.each_column_mut(|c| &mut c[i], |s| &mut s[i])
    }
}

impl<'a, T, U> ParticleColumns<&'a mut [T], &'a mut [U]> {
    /// Splits the first `n` rows off, leaving the rest in `self`.
    ///
    /// # Panics
    ///
    /// Panics if a column holds fewer than `n` rows.
    pub fn take_front(&mut self, n: usize) -> ParticleColumns<&'a mut [T], &'a mut [U]> {
        fn front<'a, E>(col: &mut &'a mut [E], n: usize) -> &'a mut [E] {
            let (head, tail) = std::mem::take(col).split_at_mut(n);
            *col = tail;
            head
        }
        self.each_column_mut(|c| front(c, n), |s| front(s, n))
    }
}

impl<T, U> ParticleColumns<Vec<T>, Vec<U>> {
    /// Makes room for `additional` more rows in every column.
    pub fn reserve_rows(&mut self, additional: usize) {
        self.each_column_mut(|c| c.reserve(additional), |s| s.reserve(additional));
    }

    /// Appends a row.
    #[inline(always)]
    pub fn push_row(&mut self, (reals, species): Row<T, U>) {
        for (col, v) in self.reals.iter_mut().zip(reals) {
            col.push(v);
        }
        self.species.push(species);
    }

    /// Removes row `i` in O(1), moving the last row into its place.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn swap_remove_row(&mut self, i: usize) -> Row<T, U> {
        (
            map_reals(self.reals.each_mut(), |c| c.swap_remove(i)),
            self.species.swap_remove(i),
        )
    }
}

impl<R: Real> ParticleView<R> for SoaRefMut<'_, R> {
    // bounds: every index in this impl is a constant into
    // `[_; REAL_COLUMNS]`.
    #[inline(always)]
    fn position(&self) -> Vec3<R> {
        Vec3::new(*self.reals[X], *self.reals[Y], *self.reals[Z])
    }
    #[inline(always)]
    fn momentum(&self) -> Vec3<R> {
        Vec3::new(*self.reals[PX], *self.reals[PY], *self.reals[PZ])
    }
    #[inline(always)]
    fn weight(&self) -> R {
        *self.reals[WEIGHT]
    }
    #[inline(always)]
    fn gamma(&self) -> R {
        *self.reals[GAMMA]
    }
    #[inline(always)]
    fn species(&self) -> SpeciesId {
        *self.species
    }
    #[inline(always)]
    fn set_position(&mut self, v: Vec3<R>) {
        *self.reals[X] = v.x;
        *self.reals[Y] = v.y;
        *self.reals[Z] = v.z;
    }
    #[inline(always)]
    fn set_momentum(&mut self, v: Vec3<R>) {
        *self.reals[PX] = v.x;
        *self.reals[PY] = v.y;
        *self.reals[PZ] = v.z;
    }
    #[inline(always)]
    fn set_weight(&mut self, w: R) {
        *self.reals[WEIGHT] = w;
    }
    #[inline(always)]
    fn set_gamma(&mut self, g: R) {
        *self.reals[GAMMA] = g;
    }
    #[inline(always)]
    fn set_species(&mut self, s: SpeciesId) {
        *self.species = s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Particle → row → Particle` is the identity on bits, including
    /// the values `==` cannot tell apart or refuses to compare.
    fn assert_row_round_trip<R: Real>(specials: [R; 5], bits: impl Fn(R) -> u64) {
        for (k, &v) in specials.iter().enumerate() {
            // A different special value in every column.
            let at = |c: usize| specials[(k + c) % specials.len()];
            let p = Particle {
                position: Vec3::new(at(0), at(1), at(2)),
                momentum: Vec3::new(at(3), at(4), at(5)),
                weight: at(6),
                gamma: at(7),
                species: SpeciesId(k as u16),
            };
            let (reals, species) = p.to_row();
            assert_eq!(bits(reals[PX]), bits(p.momentum.x));
            assert_eq!(bits(reals[GAMMA]), bits(p.gamma));
            assert_eq!(bits(reals[X]), bits(v));
            let back = Particle::from_row((reals, species));
            assert_eq!(back.to_row().0.map(&bits), reals.map(&bits));
            assert_eq!(back.species, p.species);
        }
    }

    #[test]
    fn particle_row_mapping_is_a_bitwise_identity() {
        assert_row_round_trip(
            [
                -0.0f32,
                f32::from_bits(1),
                f32::from_bits(0x7fc0_1234),
                f32::MIN_POSITIVE / 2.0,
                1.5,
            ],
            |v| u64::from(v.to_bits()),
        );
        assert_row_round_trip(
            [
                -0.0f64,
                f64::from_bits(1),
                f64::from_bits(0x7ff8_0000_dead_beef),
                f64::MIN_POSITIVE / 2.0,
                1.5,
            ],
            f64::to_bits,
        );
    }

    #[test]
    fn header_is_the_column_names_then_species() {
        let tokens: Vec<&str> = crate::io::HEADER.split_whitespace().collect();
        let mut expect = vec!["#"];
        expect.extend(REAL_COLUMN_NAMES);
        expect.push("species");
        assert_eq!(tokens, expect);
    }
}
