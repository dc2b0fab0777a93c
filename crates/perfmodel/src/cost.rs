//! Per-particle cost descriptors of the Boris kernel.
//!
//! Byte counts follow the real data structures (paper §3 and
//! `pic-particles`): a particle record is 36 B in single precision / 72 B
//! in double after alignment; the SoA kernel touches only the columns it
//! uses; the Precalculated scenario streams six extra field components per
//! particle. Flop counts are flop-*equivalents*: transcendental and
//! divide/sqrt operations are weighted by their typical vector-unit
//! reciprocal throughput.

use pic_particles::Layout;

/// Floating-point precision of a run (the paper's `FP` switch).
#[derive(Clone, Copy, Debug, Eq, Hash, PartialEq)]
pub enum Precision {
    /// 32-bit `float`.
    F32,
    /// 64-bit `double`.
    F64,
}

impl Precision {
    /// Bytes per scalar.
    pub fn bytes(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::F64 => 8,
        }
    }

    /// Name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "float",
            Precision::F64 => "double",
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The paper's two benchmark scenarios (§5.2).
#[derive(Clone, Copy, Debug, Eq, Hash, PartialEq)]
pub enum Scenario {
    /// Field values pre-stored in a per-particle array.
    Precalculated,
    /// Field values computed from the m-dipole formulas at each particle.
    Analytical,
}

impl Scenario {
    /// Name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Precalculated => "Precalculated Fields",
            Scenario::Analytical => "Analytical Fields",
        }
    }

    /// All scenarios, in the paper's column order.
    pub fn all() -> [Scenario; 2] {
        [Scenario::Precalculated, Scenario::Analytical]
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-particle, per-step resource demand of the push kernel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelCost {
    /// DRAM bytes read per particle per step.
    pub bytes_read: f64,
    /// DRAM bytes written per particle per step.
    pub bytes_written: f64,
    /// Flop-equivalents per particle per step (transcendentals weighted).
    pub flops: f64,
}

impl KernelCost {
    /// Total DRAM traffic per particle per step.
    pub fn bytes_total(&self) -> f64 {
        self.bytes_read + self.bytes_written
    }

    /// Arithmetic intensity, flop-equivalents per byte.
    pub fn intensity(&self) -> f64 {
        self.flops / self.bytes_total()
    }
}

/// Flop-equivalents of the Boris momentum + position update: ~50 mul/add,
/// two square roots (≈8 each), a division (≈8). Matches an operation count
/// of `BorisPusher::rotate_kick` + `advance_position`.
pub const BORIS_FLOPS: f64 = 80.0;

/// Flop-equivalents the model charges for one m-dipole field evaluation.
///
/// Like [`BORIS_FLOPS`] this is a coarse budget for the paper's
/// vectorised C++ loop (icc with SVML sin/cos), fitted together with
/// `CpuCalibration::vec_eff` to the Analytical columns of Table 2 — one
/// value for both precisions, because the paper's double:float ratios are
/// those of equal work on half the lanes. It is not a count of this
/// repository's code; that is [`dipole_flops_counted`], which a test
/// holds within the same 2× magnitude band as the pusher tallies.
pub const DIPOLE_FLOPS: f64 = 150.0;

/// The per-lane operations of `DipoleStandingWave::sample_into`, counted
/// the way `pic_boris::OpTally` counts (a fused multiply-add is one add
/// and one multiply; a division or square root weighs 8). The sequence is
/// call-free and the same on every lane, so the count is exact; it
/// depends on the precision only through the polynomial lengths — `N`
/// sin/cos coefficients each (3 | 6) and `T` series terms (6 | 10):
///
/// | step | adds | muls | div, sqrt |
/// |---|---|---|---|
/// | `kR = k·√(x²+y²+z²)` | 2 | 4 | 1 sqrt |
/// | `sin_cos_poly`: quadrant, 3-step reduction, 2 polynomials | 8 + 2(N−1) | 10 + 2(N−1) | |
/// | radial triple: reciprocal, closed forms, 3 series | 4 + 3(T−1) | 6 + 3(T−1) | 1 div |
/// | assembling **E**, **B** | 1 | 11 | |
///
/// — 100 in single precision, 136 in double. Not counted: 21 sign flips,
/// compares, selects and shifts per lane, and `sin_cos(ω₀t)`, taken once
/// per block.
pub fn dipole_flops_counted(precision: Precision) -> f64 {
    let (n, t) = match precision {
        Precision::F32 => (3.0, 6.0),
        Precision::F64 => (6.0, 10.0),
    };
    let adds = 2.0 + (8.0 + 2.0 * (n - 1.0)) + (4.0 + 3.0 * (t - 1.0)) + 1.0;
    let muls = 4.0 + (10.0 + 2.0 * (n - 1.0)) + (6.0 + 3.0 * (t - 1.0)) + 11.0;
    adds + muls + 2.0 * 8.0
}

/// Cost descriptor of the benchmark kernel for one configuration.
///
/// # Example
///
/// ```
/// use pic_perfmodel::{KernelCost, Precision, Scenario};
/// use pic_particles::Layout;
///
/// let aos = KernelCost::boris(Scenario::Precalculated, Layout::Aos, Precision::F32);
/// let soa = KernelCost::boris(Scenario::Precalculated, Layout::Soa, Precision::F32);
/// // AoS streams whole records; SoA only the used columns.
/// assert!(aos.bytes_total() > soa.bytes_total());
/// ```
impl KernelCost {
    /// Builds the cost descriptor for the benchmark Boris kernel.
    pub fn boris(scenario: Scenario, layout: Layout, precision: Precision) -> KernelCost {
        let s = precision.bytes() as f64;
        // Particle traffic.
        let (p_read, p_write) = match layout {
            // The whole aligned record streams through the core and the
            // dirtied line is written back: 9 scalar-equivalents
            // (position 3, momentum 3, weight, γ, padded type).
            Layout::Aos => (9.0 * s, 9.0 * s),
            // Only the used columns move: read position+momentum+type,
            // write position+momentum+γ.
            Layout::Soa => (6.0 * s + 2.0, 7.0 * s),
        };
        // Field traffic: 6 components read in the Precalculated scenario.
        let field_read = match scenario {
            Scenario::Precalculated => 6.0 * s,
            Scenario::Analytical => 0.0,
        };
        let flops = match scenario {
            Scenario::Precalculated => BORIS_FLOPS,
            Scenario::Analytical => BORIS_FLOPS + DIPOLE_FLOPS,
        };
        KernelCost {
            bytes_read: p_read + field_read,
            bytes_written: p_write,
            flops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aos_record_size_matches_paper() {
        // Paper §3: 36 B per particle in single precision, 72 B in double
        // (after alignment). Read + write = twice that.
        let f32_cost = KernelCost::boris(Scenario::Analytical, Layout::Aos, Precision::F32);
        assert_eq!(f32_cost.bytes_read, 36.0);
        assert_eq!(f32_cost.bytes_written, 36.0);
        let f64_cost = KernelCost::boris(Scenario::Analytical, Layout::Aos, Precision::F64);
        assert_eq!(f64_cost.bytes_total(), 144.0);
    }

    #[test]
    fn precalculated_adds_six_components() {
        for &(layout, prec) in &[(Layout::Aos, Precision::F32), (Layout::Soa, Precision::F64)] {
            let pre = KernelCost::boris(Scenario::Precalculated, layout, prec);
            let ana = KernelCost::boris(Scenario::Analytical, layout, prec);
            assert_eq!(pre.bytes_read - ana.bytes_read, 6.0 * prec.bytes() as f64);
            assert_eq!(pre.bytes_written, ana.bytes_written);
        }
    }

    #[test]
    fn analytical_is_more_compute_intense() {
        let pre = KernelCost::boris(Scenario::Precalculated, Layout::Soa, Precision::F32);
        let ana = KernelCost::boris(Scenario::Analytical, Layout::Soa, Precision::F32);
        assert!(ana.intensity() > 2.0 * pre.intensity());
        assert_eq!(ana.flops, BORIS_FLOPS + DIPOLE_FLOPS);
    }

    #[test]
    fn double_doubles_the_traffic() {
        let f32_cost = KernelCost::boris(Scenario::Precalculated, Layout::Aos, Precision::F32);
        let f64_cost = KernelCost::boris(Scenario::Precalculated, Layout::Aos, Precision::F64);
        assert_eq!(f64_cost.bytes_total(), 2.0 * f32_cost.bytes_total());
    }

    #[test]
    fn soa_moves_fewer_bytes_than_aos() {
        for scenario in Scenario::all() {
            for prec in [Precision::F32, Precision::F64] {
                let aos = KernelCost::boris(scenario, Layout::Aos, prec);
                let soa = KernelCost::boris(scenario, Layout::Soa, prec);
                assert!(soa.bytes_total() < aos.bytes_total());
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Precision::F32.to_string(), "float");
        assert_eq!(Precision::F64.to_string(), "double");
        assert_eq!(Scenario::Precalculated.to_string(), "Precalculated Fields");
    }

    /// Reconciles the hand-counted pusher tallies (`pic_boris::OpTally`)
    /// against this crate's static constants. The two are independent
    /// estimates of the same kernel: `BORIS_FLOPS` models the vectorized
    /// C++ loop coarsely ("~50 mul/add"), the tally counts the Rust
    /// implementation operation by operation, so they are required to
    /// agree in magnitude (within 2×), not digit for digit.
    mod tally_reconciliation {
        use super::*;
        use pic_boris::{BorisPusher, Pusher};

        #[test]
        fn boris_tally_matches_model_flops_in_magnitude() {
            let tally = Pusher::<f64>::tally(&BorisPusher).flop_equivalents();
            let ratio = tally / BORIS_FLOPS;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "tally {tally} vs BORIS_FLOPS {BORIS_FLOPS} (ratio {ratio:.2})"
            );
        }

        #[test]
        fn dipole_count_matches_model_flops_in_magnitude() {
            assert_eq!(dipole_flops_counted(Precision::F32), 100.0);
            assert_eq!(dipole_flops_counted(Precision::F64), 136.0);
            for prec in [Precision::F32, Precision::F64] {
                let ratio = dipole_flops_counted(prec) / DIPOLE_FLOPS;
                assert!((0.5..=2.0).contains(&ratio), "{prec}: ratio {ratio:.2}");
            }
        }

        #[test]
        fn tally_traffic_matches_soa_cost_model() {
            // The SoA cost model streams exactly the columns the pusher
            // touches, so the byte counts must line up scalar for scalar
            // (the model adds 2 B for the one-byte type tag read and the
            // Precalculated field array; the tally counts the same six
            // field components as reads).
            let t = Pusher::<f64>::tally(&BorisPusher);
            for prec in [Precision::F32, Precision::F64] {
                let s = prec.bytes();
                let cost = KernelCost::boris(Scenario::Precalculated, Layout::Soa, prec);
                assert_eq!(cost.bytes_written, t.bytes_written(s));
                assert_eq!(cost.bytes_read - 2.0, t.bytes_read(s));
            }
        }
    }
}
