//! The paper's physics study (§5.2): electron escape from the focal
//! region of a standing m-dipole wave at P = 0.1 PW.
//!
//! ```text
//! cargo run --release --example mdipole_escape
//! ```
//!
//! 10⁴ electrons start at rest, uniformly distributed in a sphere of
//! radius 0.6λ around the focus; the standing wave shakes them and the
//! strong field inhomogeneity expels them. The program prints the
//! fraction remaining inside the focal region after each wave period —
//! the quantity the authors use to choose seed-target parameters for
//! vacuum-breakdown experiments.

use pic_boris::diag::{fraction_inside_sphere, gamma_spectrum, max_gamma, mean_gamma};
use pic_boris::{AnalyticalSource, BorisPusher, PushKernel};
use pic_fields::DipoleStandingWave;
use pic_math::constants::{BENCH_OMEGA, BENCH_POWER, BENCH_WAVELENGTH};
use pic_math::Vec3;
use pic_particles::init::{fill_sphere_at_rest, SphereDist};
use pic_particles::{ParticleAccess, SoaEnsemble, SpeciesTable};

fn main() {
    let n = 10_000;
    let periods = 8;
    let steps_per_period = 200;

    let table = SpeciesTable::<f64>::with_standard_species();
    let wave = DipoleStandingWave::<f64>::new(BENCH_POWER, BENCH_OMEGA);
    let radius = 0.6 * BENCH_WAVELENGTH;

    let mut electrons = SoaEnsemble::<f64>::new();
    fill_sphere_at_rest(
        &mut electrons,
        n,
        &SphereDist {
            center: Vec3::zero(),
            radius,
        },
        1.0,
        SpeciesTable::<f64>::ELECTRON,
        2021,
    );

    let period = 2.0 * std::f64::consts::PI / BENCH_OMEGA;
    let dt = period / steps_per_period as f64;
    let mut kernel = PushKernel::new(AnalyticalSource::new(&wave), BorisPusher, &table, dt);

    println!(
        "m-dipole standing wave, P = 0.1 PW, λ = {:.2} µm, A₀ = {:.2e} statV/cm",
        BENCH_WAVELENGTH * 1.0e4,
        wave.amplitude()
    );
    println!("{n} electrons at rest in a sphere of r = 0.6λ\n");
    println!("period  inside(r<0.6λ)  inside(r<1.2λ)  mean γ   max γ");

    for p in 0..=periods {
        if p > 0 {
            for _ in 0..steps_per_period {
                electrons.for_each_mut(&mut kernel);
                kernel.advance_time();
            }
        }
        println!(
            "{p:>6}  {:>14.3}  {:>14.3}  {:>7.2}  {:>6.1}",
            fraction_inside_sphere(&electrons, Vec3::zero(), radius),
            fraction_inside_sphere(&electrons, Vec3::zero(), 2.0 * radius),
            mean_gamma(&electrons),
            max_gamma(&electrons),
        );
    }

    // Final γ spectrum (weighted, 12 bins).
    let spectrum = gamma_spectrum(&electrons, 12, 1.2 * max_gamma(&electrons));
    println!("\nfinal γ spectrum:");
    let peak = spectrum
        .counts
        .iter()
        .cloned()
        .fold(0.0f64, f64::max)
        .max(1.0);
    for (i, &c) in spectrum.counts.iter().enumerate() {
        let bar = "#".repeat((c / peak * 40.0) as usize);
        println!("  γ ≈ {:>6.1}  {:>6.0}  {bar}", spectrum.bin_center(i), c);
    }

    let final_frac = fraction_inside_sphere(&electrons, Vec3::zero(), radius);
    println!(
        "\nAfter {periods} wave periods {:.1}% of the seed electrons remain in the focal \
         region",
        100.0 * final_frac
    );
    println!(
        "(relativistic fields at 0.1 PW expel particles quickly — the regime the paper \
         §5.2 targets)."
    );
}
