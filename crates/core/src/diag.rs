//! Ensemble diagnostics: energies, momenta, escape statistics.

use pic_math::{Real, Vec3};
use pic_particles::{ParticleAccess, SpeciesTable};

/// Total kinetic energy ∑ wᵢ(γᵢ − 1)mᵢc², erg.
pub fn kinetic_energy<R: Real, A: ParticleAccess<R>>(store: &A, table: &SpeciesTable<R>) -> f64 {
    let mut total = 0.0;
    for i in 0..store.len() {
        let p = store.get(i);
        let sp = table.get(p.species);
        total += p.weight.to_f64() * (p.gamma.to_f64() - 1.0) * sp.rest_energy().to_f64();
    }
    total
}

/// Weighted mean Lorentz factor (1 for an empty ensemble).
pub fn mean_gamma<R: Real, A: ParticleAccess<R>>(store: &A) -> f64 {
    if store.is_empty() {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut wsum = 0.0;
    for i in 0..store.len() {
        let p = store.get(i);
        sum += p.weight.to_f64() * p.gamma.to_f64();
        wsum += p.weight.to_f64();
    }
    sum / wsum
}

/// Total (weighted) momentum vector, g·cm/s.
pub fn total_momentum<R: Real, A: ParticleAccess<R>>(store: &A) -> Vec3<f64> {
    let mut total = Vec3::zero();
    for i in 0..store.len() {
        let p = store.get(i);
        total += p.momentum.to_f64() * p.weight.to_f64();
    }
    total
}

/// Fraction of particles inside a sphere — the escape-rate diagnostic of
/// the paper's physical study (§5.2: "the rate of particle escape from the
/// focal region").
pub fn fraction_inside_sphere<R: Real, A: ParticleAccess<R>>(
    store: &A,
    center: Vec3<f64>,
    radius: f64,
) -> f64 {
    if store.is_empty() {
        return 0.0;
    }
    let r2 = radius * radius;
    let inside = (0..store.len())
        .filter(|&i| (store.get(i).position.to_f64() - center).norm2() <= r2)
        .count();
    // analyze: allow(precision-pollution): integer-count ratio for a
    // diagnostic, not part of the Real-typed push arithmetic.
    inside as f64 / store.len() as f64
}

/// Largest |γ| in the ensemble (1 for an empty ensemble).
pub fn max_gamma<R: Real, A: ParticleAccess<R>>(store: &A) -> f64 {
    (0..store.len())
        .map(|i| store.get(i).gamma.to_f64())
        .fold(1.0, f64::max)
}

/// A weighted histogram over equal-width bins.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Lower edge of the first bin.
    pub min: f64,
    /// Upper edge of the last bin.
    pub max: f64,
    /// Per-bin accumulated weight; out-of-range samples clamp into the
    /// edge bins.
    pub counts: Vec<f64>,
}

impl Histogram {
    /// Builds a histogram of `(value, weight)` samples.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `max <= min`.
    pub fn build<I: IntoIterator<Item = (f64, f64)>>(
        samples: I,
        bins: usize,
        min: f64,
        max: f64,
    ) -> Histogram {
        assert!(bins > 0, "Histogram: zero bins");
        assert!(max > min, "Histogram: empty range");
        let mut counts = vec![0.0; bins];
        let scale = bins as f64 / (max - min);
        for (v, w) in samples {
            let bin = (((v - min) * scale).floor() as isize).clamp(0, bins as isize - 1);
            counts[bin as usize] += w;
        }
        Histogram { min, max, counts }
    }

    /// Total accumulated weight.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// Centre of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len());
        let width = (self.max - self.min) / self.counts.len() as f64;
        self.min + (i as f64 + 0.5) * width
    }

    /// Index of the heaviest bin (0 when empty).
    pub fn peak_bin(&self) -> usize {
        #[expect(
            clippy::expect_used,
            reason = "counts are built from finite additions only, so partial_cmp cannot see NaN"
        )]
        self.counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite counts"))
            .map_or(0, |(i, _)| i)
    }
}

/// Weighted γ spectrum of the ensemble — the standard energy diagnostic of
/// laser-plasma studies (γ ↦ kinetic energy via (γ−1)mc²).
pub fn gamma_spectrum<R: Real, A: ParticleAccess<R>>(
    store: &A,
    bins: usize,
    gamma_max: f64,
) -> Histogram {
    Histogram::build(
        (0..store.len()).map(|i| {
            let p = store.get(i);
            (p.gamma.to_f64(), p.weight.to_f64())
        }),
        bins,
        1.0,
        gamma_max,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_math::constants::{ELECTRON_MASS, ELECTRON_REST_ENERGY, LIGHT_VELOCITY};
    use pic_particles::{AosEnsemble, Particle, ParticleStore, SpeciesTable};

    const EL: pic_particles::SpeciesId = SpeciesTable::<f64>::ELECTRON;

    fn two_particles() -> (AosEnsemble<f64>, SpeciesTable<f64>) {
        let table = SpeciesTable::with_standard_species();
        let mut ens = AosEnsemble::new();
        ens.push(Particle::at_rest(Vec3::zero(), 2.0, EL));
        let mc = ELECTRON_MASS * LIGHT_VELOCITY;
        ens.push(Particle::new(
            Vec3::splat(10.0),
            Vec3::new(mc, 0.0, 0.0), // γ = √2
            1.0,
            EL,
            ELECTRON_MASS,
        ));
        (ens, table)
    }

    #[test]
    fn kinetic_energy_sums_weighted() {
        let (ens, table) = two_particles();
        let expect = 1.0 * (2.0f64.sqrt() - 1.0) * ELECTRON_REST_ENERGY;
        assert!((kinetic_energy(&ens, &table) - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn mean_gamma_weighted() {
        let (ens, _) = two_particles();
        let expect = (2.0 * 1.0 + 1.0 * 2.0f64.sqrt()) / 3.0;
        assert!((mean_gamma(&ens) - expect).abs() < 1e-12);
        assert_eq!(mean_gamma(&AosEnsemble::<f64>::new()), 1.0);
    }

    #[test]
    fn total_momentum_weighted() {
        let (ens, _) = two_particles();
        let mc = ELECTRON_MASS * LIGHT_VELOCITY;
        let total = total_momentum(&ens);
        assert!((total.x - mc).abs() / mc < 1e-12);
        assert_eq!(total.y, 0.0);
    }

    #[test]
    fn sphere_fraction() {
        let (ens, _) = two_particles();
        assert_eq!(fraction_inside_sphere(&ens, Vec3::zero(), 1.0), 0.5);
        assert_eq!(fraction_inside_sphere(&ens, Vec3::zero(), 100.0), 1.0);
        assert_eq!(
            fraction_inside_sphere(&AosEnsemble::<f64>::new(), Vec3::zero(), 1.0),
            0.0
        );
    }

    #[test]
    fn max_gamma_finds_fastest() {
        let (ens, _) = two_particles();
        assert!((max_gamma(&ens) - 2.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(max_gamma(&AosEnsemble::<f64>::new()), 1.0);
    }

    #[test]
    fn histogram_conserves_weight_and_clamps() {
        let h = Histogram::build(
            [(0.5, 1.0), (1.5, 2.0), (9.0, 4.0), (-3.0, 0.5)],
            4,
            0.0,
            2.0,
        );
        // Bin width 0.5: 0.5→bin 1, 1.5→bin 3; 9.0 clamps into the last
        // bin, −3.0 into the first.
        assert_eq!(h.total(), 7.5);
        assert_eq!(h.counts[0], 0.5);
        assert_eq!(h.counts[1], 1.0);
        assert_eq!(h.counts[2], 0.0);
        assert_eq!(h.counts[3], 6.0);
        assert_eq!(h.peak_bin(), 3);
        assert!((h.bin_center(0) - 0.25).abs() < 1e-15);
    }

    #[test]
    fn gamma_spectrum_of_monoenergetic_ensemble_peaks_once() {
        let (ens, _) = two_particles(); // γ = 1 (w 2) and √2 (w 1)
        let h = gamma_spectrum(&ens, 10, 2.0);
        assert!((h.total() - 3.0).abs() < 1e-12);
        assert_eq!(h.peak_bin(), 0); // the heavier γ=1 population
                                     // √2 ≈ 1.414 → bin 4 of [1,2).
        assert_eq!(h.counts[4], 1.0);
    }

    #[test]
    #[should_panic(expected = "zero bins")]
    fn zero_bins_panics() {
        let _ = Histogram::build([], 0, 0.0, 1.0);
    }
}
