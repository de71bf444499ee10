//! Per-run seed derivation for parallel sweeps.
//!
//! The paper's protocol repeats every experiment over several seeded
//! random placements. When those runs execute in parallel, each run must
//! derive its randomness from the sweep seed *and its own index* — never
//! from a generator shared across runs — so results are independent of
//! scheduling order: run `k` draws the same placement whether it executes
//! first, last, or concurrently with every other run.
//!
//! [`derive_seed`] is that derivation: a SplitMix64-style mix of
//! `seed ⊕ f(index)`. SplitMix64 is invertible, so distinct
//! `(seed, index)` pairs with the same seed never collide, and the
//! avalanche behaviour of the two multiply-xor-shift rounds decorrelates
//! the neighbouring indices a plain `seed ^ index` would leave almost
//! identical.

/// Mixes a sweep-level `seed` with a run `index` into an independent
/// per-run seed.
///
/// Deterministic, platform-independent, and injective in `index` for a
/// fixed seed:
///
/// ```
/// use cellsim_kernel::rng::derive_seed;
/// let a = derive_seed(0xCE11, 0);
/// let b = derive_seed(0xCE11, 1);
/// assert_ne!(a, b);
/// assert_eq!(a, derive_seed(0xCE11, 0));
/// ```
#[must_use]
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    // Weyl-step the index so adjacent runs land far apart, then xor into
    // the seed and avalanche.
    splitmix64(seed ^ index.wrapping_mul(GOLDEN_GAMMA))
}

/// SplitMix64's Weyl increment, `2^64 / φ` rounded to odd.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer: two multiply-xor-shift rounds that spread
/// every input bit over the whole output. A bijection on `u64`; each
/// caller brings its own pre-step (a Weyl increment of a state, an
/// index folded into a seed), which this does not include.
#[must_use]
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::{derive_seed, splitmix64, GOLDEN_GAMMA};

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // SplitMix64 seeded with 0: state += gamma, then finalize.
        assert_eq!(splitmix64(GOLDEN_GAMMA), 0xE220_A839_7B1D_CDAF);
        assert_eq!(
            splitmix64(GOLDEN_GAMMA.wrapping_mul(2)),
            0x6E78_9E6A_A1B9_65F4
        );
    }

    #[test]
    fn deterministic() {
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
    }

    #[test]
    fn indices_do_not_collide() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000 {
            assert!(
                seen.insert(derive_seed(0xCE11, i)),
                "collision at index {i}"
            );
        }
    }

    #[test]
    fn seeds_decorrelate() {
        // Same index, different sweep seeds → different run seeds.
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        // seed ⊕ index symmetry must NOT hold (plain xor would alias
        // (s=1,i=0) with (s=0,i=1) after a shared mix).
        assert_ne!(derive_seed(1, 0), derive_seed(0, 1));
    }

    #[test]
    fn low_indices_avalanche() {
        // Neighbouring indices differ in about half their bits.
        let d = (derive_seed(0, 0) ^ derive_seed(0, 1)).count_ones();
        assert!((16..=48).contains(&d), "poor avalanche: {d} bits");
    }
}
