//! The Higuera–Cary (2017) pusher — the second alternative integrator from
//! the paper's Ref. \[11] (Ripperda et al. 2018).
//!
//! Structurally identical to Boris (half kick, rotation, half kick) but the
//! rotation uses the Lorentz factor of the *time-centred* momentum, making
//! the scheme volume-preserving and giving the correct E×B drift.

use crate::pusher::{
    advance_position, gamma_of_u, half_kick_coef, momentum_from_u, u_from_momentum, OpTally,
    Pusher, SHARED_TALLY,
};
use pic_fields::EB;
use pic_math::{Real, Vec3};
use pic_particles::{ParticleView, Species};

/// The Higuera–Cary integrator (Phys. Plasmas 24, 052104, 2017).
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub struct HigueraCaryPusher;

impl HigueraCaryPusher {
    /// Momentum update in dimensionless u = p/(mc) form, ε = qΔt/(2mc).
    #[inline(always)]
    pub fn kick<R: Real>(u_old: Vec3<R>, field: &EB<R>, eps: R) -> Vec3<R> {
        // Half electric kick.
        let u_minus = field.e.mul_add(eps, u_old);
        // Time-centred Lorentz factor (the HC modification).
        let tau = field.b * eps;
        let gamma_minus2 = R::ONE + u_minus.norm2();
        let tau2 = tau.norm2();
        let u_star = u_minus.dot(tau);
        let sigma = gamma_minus2 - tau2;
        let gamma_half = ((sigma
            + (sigma * sigma + R::from_f64(4.0) * (tau2 + u_star * u_star)).sqrt())
            * R::HALF)
            .sqrt();
        // Boris-style exact rotation with the centred γ.
        let t = tau / gamma_half;
        let s = t * (R::TWO / (R::ONE + t.norm2()));
        let u_prime = u_minus + u_minus.cross(t);
        let u_plus = u_minus + u_prime.cross(s);
        // Second half electric kick.
        field.e.mul_add(eps, u_plus)
    }
}

impl<R: Real> Pusher<R> for HigueraCaryPusher {
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
        "Higuera-Cary"
    }

    fn tally(&self) -> OpTally {
        // kick: Boris's structure with the centred-γ quartic replacing the
        // plain γⁿ: kicks+rotations as Boris (18m+18a), τ (3m),
        // γ⁻²/τ²/u·τ/σ (9m+8a), quartic γ (4m+3a+2√), t = τ/γ (3÷),
        // s = t·(2/(1+t²)) (6m+3a+÷).
        SHARED_TALLY.combine(OpTally {
            adds: 32,
            muls: 40,
            divs: 4,
            sqrts: 2,
            ..OpTally::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boris::BorisPusher;
    use pic_particles::{Particle, SpeciesId, SpeciesTable};
    use proptest::prelude::*;

    const EL: SpeciesId = SpeciesTable::<f64>::ELECTRON;

    #[test]
    fn pure_electric_field_gives_exact_impulse() {
        let sp = Species::<f64>::electron();
        let field = EB::new(Vec3::new(0.0, 0.0, 3e-2), Vec3::zero());
        let dt = 1e-13;
        let mut p = Particle::at_rest(Vec3::zero(), 1.0, EL);
        for _ in 0..25 {
            HigueraCaryPusher.push(&mut p, &field, &sp, dt);
        }
        let expect = sp.charge * 3e-2 * dt * 25.0;
        assert!((p.momentum.z - expect).abs() / expect.abs() < 1e-12);
    }

    #[test]
    fn magnetic_rotation_preserves_momentum_magnitude() {
        let sp = Species::<f64>::electron();
        let field = EB::new(Vec3::zero(), Vec3::new(3e3, -1e3, 2e3));
        let u0 = Vec3::new(0.4, 1.1, -0.6);
        let mut u = u0;
        for _ in 0..200 {
            u = HigueraCaryPusher::kick(u, &field, half_kick_coef(&sp, 5e-13));
        }
        assert!((u.norm() - u0.norm()).abs() / u0.norm() < 1e-12);
    }

    #[test]
    fn exb_drift_is_exact_for_large_steps() {
        let sp = Species::<f64>::electron();
        let b = 1.0e4;
        let e = 1.0e2;
        let field = EB::new(Vec3::new(e, 0.0, 0.0), Vec3::new(0.0, 0.0, b));
        let beta = e / b;
        let gamma = 1.0 / (1.0 - beta * beta).sqrt();
        let u_drift = Vec3::new(0.0, -gamma * beta, 0.0);
        let dt = 2e-11; // ω_c·dt ≈ 3.5
        let mut u = u_drift;
        for _ in 0..20 {
            u = HigueraCaryPusher::kick(u, &field, half_kick_coef(&sp, dt));
        }
        assert!(
            (u - u_drift).norm() / u_drift.norm() < 1e-9,
            "HC left the drift solution: {u}"
        );
    }

    #[test]
    fn agrees_with_boris_in_the_small_step_limit() {
        let sp = Species::<f64>::electron();
        let field = EB::new(Vec3::new(2e-3, 1e-3, -4e-3), Vec3::new(-2e3, 1e3, 3e3));
        let u0 = Vec3::new(-0.2, 0.5, 0.9);
        let dt = 1e-17;
        let eps = half_kick_coef(&sp, dt);
        let u_hc = HigueraCaryPusher::kick(u0, &field, eps);
        let (u_boris, _) = BorisPusher::rotate_kick(u0, &field, eps);
        let step = (u_hc - u0).norm();
        assert!((u_hc - u_boris).norm() < 1e-6 * step);
    }

    proptest! {
        #[test]
        fn gamma_finite_and_at_least_one(
            ux in -20.0f64..20.0, uy in -20.0f64..20.0, uz in -20.0f64..20.0,
            ey in -1e3f64..1e3, bx in -1e5f64..1e5,
        ) {
            let sp = Species::<f64>::electron();
            let field = EB::new(Vec3::new(0.0, ey, 0.0), Vec3::new(bx, 0.0, 0.0));
            let u = HigueraCaryPusher::kick(
                Vec3::new(ux, uy, uz), &field, half_kick_coef(&sp, 1e-13));
            prop_assert!(u.is_finite());
            prop_assert!(gamma_of_u(u) >= 1.0);
        }

        #[test]
        fn pure_b_field_norm_preserved_any_step(
            ux in -5.0f64..5.0, uy in -5.0f64..5.0,
            bz in 1e2f64..1e5, dt_exp in -15.0f64..-11.0,
        ) {
            let sp = Species::<f64>::electron();
            let field = EB::new(Vec3::zero(), Vec3::new(0.0, 0.0, bz));
            let u0 = Vec3::new(ux, uy, 0.3);
            let u = HigueraCaryPusher::kick(u0, &field, half_kick_coef(&sp, 10f64.powf(dt_exp)));
            prop_assert!((u.norm() - u0.norm()).abs() / u0.norm() < 1e-12);
        }
    }
}
