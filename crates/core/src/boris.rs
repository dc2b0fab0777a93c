//! The conventional Boris pusher (paper §2, Eqs. 9–13; Boris 1970).

use crate::pusher::{
    advance_position, gamma_of_u, half_kick_coef, momentum_from_u, u_from_momentum, OpTally,
    Pusher, SHARED_TALLY,
};
use pic_fields::EB;
use pic_math::{Real, Vec3};
use pic_particles::{ParticleView, Species};

/// The Boris integrator: symmetric half-kick / rotation / half-kick
/// splitting of the Lorentz force.
///
/// The magnetic substep is the trigonometric-free rotation of paper
/// Eq. (12)–(13): with `t = qBΔt/(2γⁿmc)` and `s = 2t/(1+t²)`,
///
/// ```text
/// p' = p⁻ + p⁻ × t
/// p⁺ = p⁻ + p' × s
/// ```
///
/// which preserves `|p|` *exactly* (up to rounding) regardless of the step
/// size — the property the paper highlights, verified by this module's
/// property tests.
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub struct BorisPusher;

impl BorisPusher {
    /// Performs the momentum update only, returning the new dimensionless
    /// momentum `u⁺ = p⁺/(mc)` and the Lorentz factor γⁿ used for the
    /// rotation. Exposed for the batch kernel and for tests.
    #[inline(always)]
    pub fn rotate_kick<R: Real>(u_old: Vec3<R>, field: &EB<R>, eps: R) -> (Vec3<R>, R) {
        // Half electric kick (Eq. 9): u⁻ = u + ε·E.
        let u_minus = field.e.mul_add(eps, u_old);
        // γⁿ from u⁻ — equals γ(u⁺) because the rotation preserves |u|.
        let gamma_n = gamma_of_u(u_minus);
        // Rotation vector t = ε·B/γⁿ (Eq. 13).
        let t = field.b * (eps / gamma_n);
        let s = t * (R::TWO / (R::ONE + t.norm2()));
        // Rotation (Eq. 12).
        let u_prime = u_minus + u_minus.cross(t);
        let u_plus = u_minus + u_prime.cross(s);
        // Second half electric kick (Eq. 10).
        (field.e.mul_add(eps, u_plus), gamma_n)
    }
}

impl<R: Real> Pusher<R> for BorisPusher {
    #[inline]
    fn push<V: ParticleView<R>>(&self, view: &mut V, field: &EB<R>, species: &Species<R>, dt: R) {
        let eps = half_kick_coef(species, dt);
        let u_old = u_from_momentum(view.momentum(), species.mass);
        let (u_new, _gamma_n) = Self::rotate_kick(u_old, field, eps);
        let gamma_new = gamma_of_u(u_new);
        let p_new = momentum_from_u(u_new, species.mass);
        view.set_momentum(p_new);
        view.set_gamma(gamma_new);
        advance_position(view, u_new, gamma_new, dt);
    }

    fn name(&self) -> &'static str {
        "Boris"
    }

    fn tally(&self) -> OpTally {
        // rotate_kick: two mul_add kicks (2×(3m+3a)), γⁿ (3m+3a+√),
        // t = B·(ε/γⁿ) (÷+3m), s = t·(2/(1+t²)) (3m+2a norm², 1a, ÷, 3m),
        // two cross-and-add rotations (2×(6m+6a)).
        SHARED_TALLY.combine(OpTally {
            adds: 24,
            muls: 30,
            divs: 2,
            sqrts: 1,
            ..OpTally::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_math::constants::{ELECTRON_MASS, ELEMENTARY_CHARGE, LIGHT_VELOCITY};
    use pic_particles::{Particle, SpeciesId, SpeciesTable};
    use proptest::prelude::*;

    fn electron() -> Species<f64> {
        Species::electron()
    }

    const EL: SpeciesId = SpeciesTable::<f64>::ELECTRON;

    /// Non-relativistic cyclotron frequency, rad/s.
    fn omega_c(b: f64) -> f64 {
        ELEMENTARY_CHARGE * b / (ELECTRON_MASS * LIGHT_VELOCITY)
    }

    #[test]
    fn pure_electric_field_gives_exact_impulse() {
        // With B = 0 the scheme reduces to p += qEΔt exactly, every step.
        let sp = electron();
        let e = Vec3::new(0.0, 2.5e-2, 0.0);
        let field = EB::new(e, Vec3::zero());
        let dt = 1e-13;
        let mut p = Particle::at_rest(Vec3::zero(), 1.0, EL);
        for _ in 0..100 {
            BorisPusher.push(&mut p, &field, &sp, dt);
        }
        let expect = sp.charge * e.y * dt * 100.0;
        assert!((p.momentum.y - expect).abs() / expect.abs() < 1e-12);
        assert_eq!(p.momentum.x, 0.0);
    }

    #[test]
    fn magnetic_rotation_preserves_momentum_magnitude() {
        let sp = electron();
        let b = Vec3::new(0.0, 0.0, 1.0e4);
        let field = EB::new(Vec3::zero(), b);
        let p0 = Vec3::new(3e-18, 0.0, 1e-18);
        let mut p = Particle::new(Vec3::zero(), p0, 1.0, EL, sp.mass);
        // Deliberately large step: |p| must still be preserved.
        let dt = 2.0 / omega_c(b.z);
        for _ in 0..50 {
            BorisPusher.push(&mut p, &field, &sp, dt);
        }
        assert!((p.momentum.norm() - p0.norm()).abs() / p0.norm() < 1e-12);
        // p_z is untouched by rotation about z.
        assert!((p.momentum.z - p0.z).abs() / p0.z < 1e-12);
    }

    #[test]
    fn gyration_frequency_matches_cyclotron() {
        // A non-relativistic electron in Bz gyrates at ω_c = eB/(mcγ).
        let sp = electron();
        let b = 1.0e3; // G
        let field = EB::new(Vec3::zero(), Vec3::new(0.0, 0.0, b));
        let p_mag = 1e-3 * ELECTRON_MASS * LIGHT_VELOCITY; // β ≈ 1e-3
        let mut p = Particle::new(Vec3::zero(), Vec3::new(p_mag, 0.0, 0.0), 1.0, EL, sp.mass);
        let period = 2.0 * std::f64::consts::PI / omega_c(b);
        let steps = 1000;
        let dt = period / steps as f64;
        for _ in 0..steps {
            BorisPusher.push(&mut p, &field, &sp, dt);
        }
        // After one full period the momentum direction returns (O(dt²)
        // phase error).
        let angle = (p.momentum.x / p_mag).clamp(-1.0, 1.0).acos();
        assert!(angle < 1e-4, "phase error {angle}");
    }

    #[test]
    fn gyroradius_matches_theory() {
        let sp = electron();
        let b = 5.0e3;
        let field = EB::new(Vec3::zero(), Vec3::new(0.0, 0.0, b));
        let p_mag = 1e-2 * ELECTRON_MASS * LIGHT_VELOCITY;
        let mut p = Particle::new(Vec3::zero(), Vec3::new(p_mag, 0.0, 0.0), 1.0, EL, sp.mass);
        let r_expect = p_mag * LIGHT_VELOCITY / (ELEMENTARY_CHARGE * b); // p⊥c/(eB)
        let period = 2.0 * std::f64::consts::PI / omega_c(b);
        let steps = 2000;
        let dt = period / steps as f64;
        let mut min = Vec3::splat(f64::MAX);
        let mut max = Vec3::splat(f64::MIN);
        for _ in 0..steps {
            BorisPusher.push(&mut p, &field, &sp, dt);
            min = min.min(p.position);
            max = max.max(p.position);
        }
        let diameter = 0.5 * ((max.x - min.x) + (max.y - min.y));
        assert!(
            (diameter - 2.0 * r_expect).abs() / (2.0 * r_expect) < 1e-2,
            "diameter {diameter}, expected {}",
            2.0 * r_expect
        );
    }

    #[test]
    fn exb_drift_velocity() {
        // E ⊥ B with E < B: guiding centre drifts at v = c·E×B/B².
        let sp = electron();
        let b = 1.0e4;
        let e = 1.0e2; // E/B = 0.01 ⇒ v_drift = 0.01c
        let field = EB::new(Vec3::new(e, 0.0, 0.0), Vec3::new(0.0, 0.0, b));
        let mut p = Particle::at_rest(Vec3::zero(), 1.0, EL);
        let period = 2.0 * std::f64::consts::PI / omega_c(b);
        let steps_per_period = 400;
        let periods = 50;
        let dt = period / steps_per_period as f64;
        for _ in 0..(steps_per_period * periods) {
            BorisPusher.push(&mut p, &field, &sp, dt);
        }
        let t_total = period * periods as f64;
        let v_drift = p.position.y / t_total; // E×B = (E,0,0)×(0,0,B) = (0,−EB,0); q<0 flips
        let expect = LIGHT_VELOCITY * e / b;
        assert!(
            (v_drift.abs() - expect).abs() / expect < 2e-2,
            "v_drift = {v_drift}, expected ±{expect}"
        );
        // Drift is along ±y, no secular x or z motion.
        assert!(p.position.z.abs() < 1e-6 * p.position.y.abs() + 1e-12);
    }

    #[test]
    fn gamma_cache_is_consistent_after_push() {
        let sp = electron();
        let field = EB::new(Vec3::new(1e-2, 2e-2, -3e-2), Vec3::new(4e2, -5e2, 6e2));
        let mut p = Particle::at_rest(Vec3::zero(), 1.0, EL);
        for _ in 0..10 {
            BorisPusher.push(&mut p, &field, &sp, 1e-13);
            let expect = pic_particles::particle::lorentz_gamma(p.momentum, sp.mass);
            assert!((p.gamma - expect).abs() / expect < 1e-14);
        }
    }

    #[test]
    fn second_order_convergence() {
        // Halving dt must reduce the end-point error ~4× (global order 2).
        let sp = electron();
        let field = EB::new(Vec3::new(1e-2, 0.0, 0.0), Vec3::new(0.0, 0.0, 2e3));
        let t_end = 4.0 * std::f64::consts::PI / omega_c(2e3);

        let run = |steps: usize| -> Vec3<f64> {
            let mut p = Particle::new(
                Vec3::zero(),
                Vec3::new(0.0, 1e-2 * ELECTRON_MASS * LIGHT_VELOCITY, 0.0),
                1.0,
                EL,
                sp.mass,
            );
            let dt = t_end / steps as f64;
            for _ in 0..steps {
                BorisPusher.push(&mut p, &field, &sp, dt);
            }
            p.position
        };

        let coarse = run(400);
        let medium = run(800);
        let fine = run(12800); // reference
        let e1 = (coarse - fine).norm();
        let e2 = (medium - fine).norm();
        let ratio = e1 / e2;
        assert!(
            (3.0..5.5).contains(&ratio),
            "convergence ratio {ratio} (e1={e1:.3e}, e2={e2:.3e})"
        );
    }

    #[test]
    fn f32_and_f64_agree_for_short_runs() {
        let sp64 = Species::<f64>::electron();
        let sp32 = Species::<f32>::electron();
        let field64 = EB::new(Vec3::new(1e-2, 0.0, 0.0), Vec3::new(0.0, 0.0, 1e3));
        let field32 = EB::new(Vec3::new(1e-2f32, 0.0, 0.0), Vec3::new(0.0, 0.0, 1e3));
        let mut p64 = Particle::<f64>::at_rest(Vec3::zero(), 1.0, EL);
        let mut p32 = Particle::<f32>::at_rest(Vec3::zero(), 1.0, EL);
        for _ in 0..100 {
            BorisPusher.push(&mut p64, &field64, &sp64, 1e-13);
            BorisPusher.push(&mut p32, &field32, &sp32, 1e-13);
        }
        let rel = (p64.momentum.norm() - p32.momentum.to_f64().norm()).abs() / p64.momentum.norm();
        assert!(rel < 1e-4, "precision divergence {rel}");
    }

    proptest! {
        #[test]
        fn rotation_preserves_u_for_any_field(
            ux in -10.0f64..10.0, uy in -10.0f64..10.0, uz in -10.0f64..10.0,
            bx in -1e5f64..1e5, by in -1e5f64..1e5, bz in -1e5f64..1e5,
            dt_exp in -16.0f64..-12.0,
        ) {
            let u = Vec3::new(ux, uy, uz);
            let field = EB::new(Vec3::zero(), Vec3::new(bx, by, bz));
            let sp = electron();
            let eps = half_kick_coef(&sp, 10f64.powf(dt_exp));
            let (u_new, _) = BorisPusher::rotate_kick(u, &field, eps);
            let rel = (u_new.norm() - u.norm()).abs() / (u.norm() + 1e-30);
            prop_assert!(rel < 1e-12, "|u| changed by {rel}");
        }

        #[test]
        fn gamma_never_below_one(
            ux in -100.0f64..100.0, uy in -100.0f64..100.0, uz in -100.0f64..100.0,
            ex in -1e3f64..1e3, ey in -1e3f64..1e3, ez in -1e3f64..1e3,
            bx in -1e5f64..1e5, by in -1e5f64..1e5, bz in -1e5f64..1e5,
        ) {
            let sp = electron();
            let field = EB::new(Vec3::new(ex, ey, ez), Vec3::new(bx, by, bz));
            let mut p = Particle::new(
                Vec3::zero(),
                crate::pusher::momentum_from_u(Vec3::new(ux, uy, uz), sp.mass),
                1.0, EL, sp.mass,
            );
            BorisPusher.push(&mut p, &field, &sp, 1e-14);
            prop_assert!(p.gamma >= 1.0);
            prop_assert!(p.momentum.is_finite());
            prop_assert!(p.position.is_finite());
        }

        #[test]
        fn zero_field_is_free_streaming(
            ux in -5.0f64..5.0, uy in -5.0f64..5.0, uz in -5.0f64..5.0,
        ) {
            let sp = electron();
            let u = Vec3::new(ux, uy, uz);
            let p0 = crate::pusher::momentum_from_u(u, sp.mass);
            let mut p = Particle::new(Vec3::zero(), p0, 1.0, EL, sp.mass);
            let dt = 1e-13;
            for _ in 0..7 {
                BorisPusher.push(&mut p, &EB::zero(), &sp, dt);
            }
            // u = p/(mc) roundtrips through a recip() on every step, so
            // allow a few ulps of accumulated drift over the 7 steps.
            prop_assert!((p.momentum - p0).norm() <= 32.0 * f64::EPSILON * p0.norm());
            let v = p0 / (p.gamma * sp.mass);
            let expect = v * (7.0 * dt);
            prop_assert!((p.position - expect).norm() <= 1e-12 * expect.norm());
        }
    }
}
