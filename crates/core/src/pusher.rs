//! The pusher abstraction: the trait, its operation tally and the
//! dimensionless-momentum helpers the Boris scheme is written in.

use pic_fields::EB;
use pic_math::constants::LIGHT_VELOCITY;
use pic_math::{Real, Vec3};
use pic_particles::{ParticleView, Species};

/// A relativistic particle pusher: advances momentum by one step and the
/// position by one leapfrog step (paper Eqs. 6–7).
///
/// Implementations must update the cached Lorentz factor together with the
/// momentum, preserving the invariant `γ = √(1 + (p/mc)²)`.
pub trait Pusher<R: Real>: Send + Sync {
    /// Advances one particle by `dt` seconds in the field `field`.
    fn push<V: ParticleView<R>>(&self, view: &mut V, field: &EB<R>, species: &Species<R>, dt: R);

    /// Name used in benchmark tables and diagnostics.
    fn name(&self) -> &'static str;

    /// Static per-particle per-step operation tally of `push`, counted
    /// with the loop-invariant species constants hoisted (see
    /// [`SHARED_TALLY`]) — the form the blocked kernel executes on a
    /// single-species ensemble. A `Vec3 / R` is three divisions. Feeds the
    /// telemetry layer and is reconciled against `pic-perfmodel`'s
    /// roofline constants by that crate's tests.
    fn tally(&self) -> OpTally;
}

/// Hand-counted per-particle per-step operations of one `push` call.
///
/// Divisions and square roots are kept separate because their reciprocal
/// throughput on the paper's CPUs is roughly [`OpTally::DIV_WEIGHT`] times
/// an add or multiply; [`OpTally::flop_equivalents`] folds them in with
/// that weight, matching the convention of `pic_perfmodel::KernelCost`.
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub struct OpTally {
    /// Additions and subtractions (fused multiply-adds count one here and
    /// one in `muls`).
    pub adds: u32,
    /// Multiplications.
    pub muls: u32,
    /// Divisions and reciprocals.
    pub divs: u32,
    /// Square roots.
    pub sqrts: u32,
    /// Scalars loaded per particle (particle state + field components).
    pub scalars_read: u32,
    /// Scalars stored per particle.
    pub scalars_written: u32,
}

impl OpTally {
    /// Flop-equivalent weight of one division or square root.
    pub const DIV_WEIGHT: f64 = 8.0;

    /// Total flop-equivalents, with divisions and square roots weighted by
    /// [`OpTally::DIV_WEIGHT`].
    pub fn flop_equivalents(&self) -> f64 {
        f64::from(self.adds + self.muls) + f64::from(self.divs + self.sqrts) * OpTally::DIV_WEIGHT
    }

    /// Bytes read per particle per step at the given scalar width.
    pub fn bytes_read(&self, scalar_bytes: usize) -> f64 {
        f64::from(self.scalars_read) * scalar_bytes as f64
    }

    /// Bytes written per particle per step at the given scalar width.
    pub fn bytes_written(&self, scalar_bytes: usize) -> f64 {
        f64::from(self.scalars_written) * scalar_bytes as f64
    }

    /// Element-wise sum: a pusher's tally is the shared plumbing
    /// ([`SHARED_TALLY`]) plus the scheme's own. Memory traffic adds too.
    pub fn combine(self, other: OpTally) -> OpTally {
        OpTally {
            adds: self.adds + other.adds,
            muls: self.muls + other.muls,
            divs: self.divs + other.divs,
            sqrts: self.sqrts + other.sqrts,
            scalars_read: self.scalars_read + other.scalars_read,
            scalars_written: self.scalars_written + other.scalars_written,
        }
    }
}

/// Tally of the plumbing around the momentum update: u = p·(1/mc), the
/// final γ(u), p = u·mc, and the leapfrog position step x += u·(cΔt/γ).
/// Loads are position, momentum and the six field components; stores are
/// momentum, γ and position.
///
/// Not counted, here or in any [`Pusher::tally`]: ε = qΔt/(2mc), mc, 1/mc
/// and c·Δt (5 multiplications, 2 divisions), which depend on the species
/// and the step only. The blocked kernel evaluates them once per run of
/// same-species blocks; the scalar `push` and a mixed-species block pay
/// them per particle on top of the tally.
pub const SHARED_TALLY: OpTally = OpTally {
    // gamma_of_u (3a) + position update (3 fused a).
    adds: 6,
    // u scale (3) + γ norm² (3) + p scale (3) + position update (3 fused).
    muls: 12,
    // cΔt/γ in the position update.
    divs: 1,
    sqrts: 1,
    scalars_read: 12,
    scalars_written: 7,
};

/// The position-step factor k = c·Δt/γ: with u = p/(mc) the velocity is
/// v = p/(γm) = u·c/γ, so `x += v·Δt` is `x += u·k` — one division per
/// particle, and no trip through p and m.
#[inline(always)]
pub fn drift_coef<R: Real>(gamma: R, dt: R) -> R {
    R::from_f64(LIGHT_VELOCITY) * dt / gamma
}

/// Advances the position by one leapfrog step, `x += u·k` with
/// k = [`drift_coef`] (paper Eq. 7 in dimensionless momentum).
#[inline(always)]
pub fn advance_position<R: Real, V: ParticleView<R>>(view: &mut V, u: Vec3<R>, gamma: R, dt: R) {
    view.set_position(u.mul_add(drift_coef(gamma, dt), view.position()));
}

/// The momentum scale mc of a species of rest mass `mass`.
#[inline(always)]
pub fn mc<R: Real>(mass: R) -> R {
    mass * R::from_f64(LIGHT_VELOCITY)
}

/// 1/(mc), the factor taking a momentum to dimensionless form.
#[inline(always)]
pub fn inv_mc<R: Real>(mass: R) -> R {
    mc(mass).recip()
}

/// Dimensionless momentum u = p/(mc). Forming the ratio before any
/// squaring keeps single precision safe with CGS magnitudes.
#[inline(always)]
pub fn u_from_momentum<R: Real>(p: Vec3<R>, mass: R) -> Vec3<R> {
    p * inv_mc(mass)
}

/// Converts dimensionless momentum back: p = u·mc.
#[inline(always)]
pub fn momentum_from_u<R: Real>(u: Vec3<R>, mass: R) -> Vec3<R> {
    u * mc(mass)
}

/// γ(u) = √(1 + u²).
#[inline(always)]
pub fn gamma_of_u<R: Real>(u: Vec3<R>) -> R {
    (R::ONE + u.norm2()).sqrt()
}

/// The half-kick coefficient ε = qΔt/(2mc), multiplying **E** to give the
/// change of u per half electric step, and **B** to give the rotation
/// vector τ (paper Eq. 13).
#[inline(always)]
pub fn half_kick_coef<R: Real>(species: &Species<R>, dt: R) -> R {
    species.charge * dt / (R::TWO * species.mass * R::from_f64(LIGHT_VELOCITY))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_math::constants::{ELECTRON_MASS, ELEMENTARY_CHARGE};
    use pic_particles::{Particle, SpeciesId};

    #[test]
    fn tallies_reflect_algorithm_complexity() {
        let t = Pusher::<f64>::tally(&crate::BorisPusher);
        // The scheme's own arithmetic sits on top of the shared plumbing.
        assert!(t.flop_equivalents() > SHARED_TALLY.flop_equivalents());
        // A push moves the particle state and six field components.
        assert_eq!(t.scalars_read, 12);
        assert_eq!(t.scalars_written, 7);
    }

    #[test]
    fn tally_arithmetic() {
        let t = OpTally {
            adds: 10,
            muls: 20,
            divs: 2,
            sqrts: 1,
            scalars_read: 4,
            scalars_written: 3,
        };
        assert_eq!(
            t.flop_equivalents(),
            10.0 + 20.0 + 3.0 * OpTally::DIV_WEIGHT
        );
        assert_eq!(t.bytes_read(4), 16.0);
        assert_eq!(t.bytes_written(8), 24.0);
        let sum = t.combine(t);
        assert_eq!(sum.muls, 40);
        assert_eq!(sum.scalars_read, 8);
    }

    #[test]
    fn u_roundtrip() {
        let p = Vec3::new(1e-17_f64, -2e-17, 3e-18);
        let u = u_from_momentum(p, ELECTRON_MASS);
        let back = momentum_from_u(u, ELECTRON_MASS);
        assert!((back - p).norm() / p.norm() < 1e-14);
    }

    #[test]
    fn gamma_of_zero_u_is_one() {
        assert_eq!(gamma_of_u(Vec3::<f64>::zero()), 1.0);
    }

    #[test]
    fn half_kick_sign_follows_charge() {
        let e = Species::<f64>::electron();
        let p = Species::<f64>::positron();
        let dt = 1e-15;
        assert!(half_kick_coef(&e, dt) < 0.0);
        assert!(half_kick_coef(&p, dt) > 0.0);
        assert_eq!(half_kick_coef(&e, dt), -half_kick_coef(&p, dt));
        // Magnitude: eΔt/(2 m c).
        let expect = ELEMENTARY_CHARGE * dt / (2.0 * ELECTRON_MASS * LIGHT_VELOCITY);
        assert!((half_kick_coef(&p, dt) - expect).abs() / expect < 1e-14);
    }

    #[test]
    fn advance_position_moves_along_velocity() {
        let e = Species::<f64>::electron();
        let mut p = Particle::at_rest(Vec3::zero(), 1.0, SpeciesId(0));
        let u = u_from_momentum(Vec3::new(e.mass * LIGHT_VELOCITY, 0.0, 0.0), e.mass); // γ=√2
        let gamma = 2.0f64.sqrt();
        advance_position(&mut p, u, gamma, 1.0e-12);
        // v = u·c/γ = c/√2.
        let expect = LIGHT_VELOCITY / 2.0f64.sqrt() * 1.0e-12;
        assert!((p.position.x - expect).abs() / expect < 1e-14);
    }
}
