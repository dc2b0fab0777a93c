//! SplitMix64 (Steele, Lea & Flood 2014): the counter-based integer mix
//! behind the per-particle initial draws and the per-shard kill keys.

/// SplitMix64's increment, ⌊2⁶⁴/φ⌋.
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64's finaliser: a bijection of `u64` in which every input bit
/// reaches every output bit. Output `k` of the generator seeded `s` is
/// `mix64(s + (k + 1)·GOLDEN_GAMMA)`.
#[inline(always)]
pub fn mix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_generator() {
        // The first two outputs of the reference SplitMix64 seeded 0.
        assert_eq!(mix64(GOLDEN_GAMMA), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix64(GOLDEN_GAMMA.wrapping_mul(2)), 0x6e78_9e6a_a1b9_65f4);
    }
}
