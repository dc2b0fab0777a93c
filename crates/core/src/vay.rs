//! The Vay (2008) pusher — the first of the two alternative velocity
//! averages surveyed in the paper's Ref. \[11] (Ripperda et al. 2018).
//!
//! Unlike Boris, Vay's choice of the averaged velocity makes the uniform
//! E×B drift *exact* for any time step, at the price of not being a pure
//! rotation in the magnetic substep.

use crate::pusher::{
    advance_position, gamma_of_u, half_kick_coef, momentum_from_u, u_from_momentum, OpTally,
    Pusher, SHARED_TALLY,
};
use pic_fields::EB;
use pic_math::{Real, Vec3};
use pic_particles::{ParticleView, Species};

/// The Vay integrator (J.-L. Vay, Phys. Plasmas 15, 056701, 2008).
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub struct VayPusher;

impl VayPusher {
    /// Momentum update in dimensionless u = p/(mc) form, with
    /// ε = qΔt/(2mc). Returns the new u.
    #[inline(always)]
    pub fn kick<R: Real>(u_old: Vec3<R>, field: &EB<R>, eps: R) -> Vec3<R> {
        let tau = field.b * eps;
        let gamma_old = gamma_of_u(u_old);
        // First half using the *old* velocity: u' = u + 2ε·E + (u×τ)/γⁿ.
        let u_prime = u_old + field.e * (R::TWO * eps) + u_old.cross(tau) / gamma_old;
        // New Lorentz factor from Vay's quartic resolution.
        let u_star = u_prime.dot(tau);
        let gamma_prime2 = R::ONE + u_prime.norm2();
        let tau2 = tau.norm2();
        let sigma = gamma_prime2 - tau2;
        let gamma_new = ((sigma
            + (sigma * sigma + R::from_f64(4.0) * (tau2 + u_star * u_star)).sqrt())
            * R::HALF)
            .sqrt();
        let t = tau / gamma_new;
        let s = (R::ONE + t.norm2()).recip();
        (u_prime + t * u_prime.dot(t) + u_prime.cross(t)) * s
    }
}

impl<R: Real> Pusher<R> for VayPusher {
    #[inline]
    fn push<V: ParticleView<R>>(&self, view: &mut V, field: &EB<R>, species: &Species<R>, dt: R) {
        let eps = half_kick_coef(species, dt);
        let u_old = u_from_momentum(view.momentum(), species.mass);
        let u_new = Self::kick(u_old, field, eps);
        let gamma_new = gamma_of_u(u_new);
        let p_new = momentum_from_u(u_new, species.mass);
        view.set_momentum(p_new);
        view.set_gamma(gamma_new);
        advance_position(view, u_new, gamma_new, dt);
    }

    fn name(&self) -> &'static str {
        "Vay"
    }

    fn tally(&self) -> OpTally {
        // kick: τ (3m), γⁿ (3m+3a+√), u′ = u + E·2ε + (u×τ)/γⁿ (9m+9a+3÷,
        // 2ε a species constant), u′·τ (3m+2a), γ′² (3m+3a), τ² (3m+2a),
        // σ (1a), quartic γ (4m+3a+2√), t = τ/γ (3÷), s = 1/(1+t²)
        // (3m+3a+÷), final average (15m+11a).
        SHARED_TALLY.combine(OpTally {
            adds: 37,
            muls: 46,
            divs: 7,
            sqrts: 3,
            ..OpTally::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boris::BorisPusher;
    use pic_math::constants::{ELECTRON_MASS, ELEMENTARY_CHARGE, LIGHT_VELOCITY};
    use pic_particles::{Particle, SpeciesId, SpeciesTable};
    use proptest::prelude::*;

    const EL: SpeciesId = SpeciesTable::<f64>::ELECTRON;

    #[test]
    fn pure_electric_field_gives_exact_impulse() {
        let sp = Species::<f64>::electron();
        let field = EB::new(Vec3::new(1e-2, 0.0, 0.0), Vec3::zero());
        let dt = 1e-13;
        let mut p = Particle::at_rest(Vec3::zero(), 1.0, EL);
        for _ in 0..50 {
            VayPusher.push(&mut p, &field, &sp, dt);
        }
        let expect = sp.charge * 1e-2 * dt * 50.0;
        assert!((p.momentum.x - expect).abs() / expect.abs() < 1e-12);
    }

    #[test]
    fn magnetic_rotation_preserves_momentum_magnitude() {
        // For E = 0 Vay also preserves |u| (the update is a rotation).
        let sp = Species::<f64>::electron();
        let field = EB::new(Vec3::zero(), Vec3::new(0.0, 2e3, 1e3));
        let u0 = Vec3::new(1.5, -0.5, 2.0);
        let mut u = u0;
        for _ in 0..100 {
            u = VayPusher::kick(u, &field, half_kick_coef(&sp, 1e-12));
        }
        assert!((u.norm() - u0.norm()).abs() / u0.norm() < 1e-10);
    }

    #[test]
    fn exb_drift_is_exact_even_for_large_steps() {
        // Start the particle at the exact drift velocity: Vay keeps it
        // there for ANY dt; Boris would make it gyrate.
        let sp = Species::<f64>::electron();
        let b = 1.0e4;
        let e = 1.0e2;
        let field = EB::new(Vec3::new(e, 0.0, 0.0), Vec3::new(0.0, 0.0, b));
        // v_drift = c E×B/B² = −c(E/B) ŷ; for electron drift independent of q.
        let beta = e / b;
        let gamma = 1.0 / (1.0 - beta * beta).sqrt();
        let u_drift = Vec3::new(0.0, -gamma * beta, 0.0);
        // Large step: ω_c·dt ≈ 3.5.
        let dt = 2e-11;
        let mut u = u_drift;
        for _ in 0..20 {
            u = VayPusher::kick(u, &field, half_kick_coef(&sp, dt));
            assert!(
                (u - u_drift).norm() < 1e-10 * u_drift.norm(),
                "Vay left the drift solution: {u}"
            );
        }
    }

    #[test]
    fn boris_violates_large_step_drift_but_vay_does_not() {
        // The contrast test that motivates having both pushers.
        let sp = Species::<f64>::electron();
        let b = 1.0e4;
        let e = 1.0e2;
        let field = EB::new(Vec3::new(e, 0.0, 0.0), Vec3::new(0.0, 0.0, b));
        let beta = e / b;
        let gamma = 1.0 / (1.0 - beta * beta).sqrt();
        let u_drift = Vec3::new(0.0, -gamma * beta, 0.0);
        let dt = 2e-11;
        let eps = half_kick_coef(&sp, dt);
        let u_vay = VayPusher::kick(u_drift, &field, eps);
        let (u_boris, _) = BorisPusher::rotate_kick(u_drift, &field, eps);
        assert!((u_vay - u_drift).norm() / u_drift.norm() < 1e-10);
        // Boris evaluates γ from u⁻ instead of the time-centred momentum,
        // so at ω_c·dt ≈ 3.5 it leaves the drift solution by a measurable
        // amount (~2.6e-4 here) while Vay stays on it to rounding.
        assert!((u_boris - u_drift).norm() / u_drift.norm() > 1e-5);
    }

    #[test]
    fn agrees_with_boris_in_the_small_step_limit() {
        let sp = Species::<f64>::electron();
        let field = EB::new(Vec3::new(5e-3, -2e-3, 1e-3), Vec3::new(1e3, 2e3, -5e2));
        let u0 = Vec3::new(0.3, -0.7, 0.2);
        let omega_c = ELEMENTARY_CHARGE * 2.3e3 / (ELECTRON_MASS * LIGHT_VELOCITY);
        let dt = 1e-4 / omega_c; // tiny fraction of a gyroperiod
        let eps = half_kick_coef(&sp, dt);
        let u_vay = VayPusher::kick(u0, &field, eps);
        let (u_boris, _) = BorisPusher::rotate_kick(u0, &field, eps);
        let step = (u_vay - u0).norm();
        assert!(
            (u_vay - u_boris).norm() < 1e-6 * step,
            "schemes diverge at leading order"
        );
    }

    proptest! {
        #[test]
        fn gamma_finite_and_at_least_one(
            ux in -20.0f64..20.0, uy in -20.0f64..20.0, uz in -20.0f64..20.0,
            ex in -1e3f64..1e3, bz in -1e5f64..1e5,
        ) {
            let sp = Species::<f64>::electron();
            let field = EB::new(Vec3::new(ex, 0.0, 0.0), Vec3::new(0.0, 0.0, bz));
            let u = VayPusher::kick(Vec3::new(ux, uy, uz), &field, half_kick_coef(&sp, 1e-13));
            prop_assert!(u.is_finite());
            prop_assert!(gamma_of_u(u) >= 1.0);
        }
    }
}
