//! Offline drop-in replacement for the subset of `rand` 0.8 used by this
//! workspace.
//!
//! The reproduction runs in environments without crates.io access, so the
//! real `rand` cannot be fetched. This stub keeps the call sites unchanged
//! (`use rand::rngs::StdRng`, `Rng::gen_range`, `SliceRandom::shuffle`, …)
//! while backing them with SplitMix64 — a small, well-studied 64-bit
//! generator whose statistical quality is ample for seeded simulation
//! workloads. It is **not** the upstream ChaCha-based `StdRng`: streams
//! differ from the real crate, but every consumer in this repository only
//! relies on determinism-per-seed, not on a specific stream.

#![forbid(unsafe_code)]

/// Uniform sampling from a half-open range, implemented per primitive type.
pub trait SampleUniform: Sized {
    /// Draws a value in `[lo, hi)` from `rng`.
    fn sample_half_open(lo: Self, hi: Self, rng: &mut dyn RngCore) -> Self;
}

/// The raw entropy source: everything is derived from `next_u64`.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            fn sample_half_open(lo: Self, hi: Self, rng: &mut dyn RngCore) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128;
                let draw = (u128::from(rng.next_u64()) % span) as i128;
                (lo as i128 + draw) as $t
            }
        }
    )*};
}

impl_sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_half_open(lo: Self, hi: Self, rng: &mut dyn RngCore) -> Self {
        assert!(lo < hi, "gen_range: empty range");
        // 53 uniformly random mantissa bits in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }
}

/// The user-facing sampling methods (mirrors `rand::Rng`).
pub trait Rng: RngCore {
    /// Uniform draw from a half-open `lo..hi` range.
    fn gen_range<T: SampleUniform>(&mut self, range: std::ops::Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_half_open(range.start, range.end, self)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to [0, 1]).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

impl<R: RngCore> Rng for R {}

/// Seeding interface (mirrors `rand::SeedableRng` minus the byte-array
/// constructors nobody here uses).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generators (mirrors `rand::rngs`).
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// SplitMix64 stream. Fixed 8-byte state, `Copy`-cheap, passes BigCrush
    /// for the volumes used here.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // One warm-up scramble so seeds 0 and 1 diverge immediately.
            let mut rng = StdRng {
                state: seed ^ 0x5D58_8B65_6C07_8965,
            };
            let _ = rng.next_u64();
            rng
        }
    }
}

/// Slice helpers (mirrors `rand::seq::SliceRandom`).
pub mod seq {
    use super::Rng;

    /// Random slice operations.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng>(&mut self, rng: &mut R);

        /// A uniformly random element, `None` on an empty slice.
        fn choose<R: Rng>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..16).map(|_| a.gen_range(0..1_000_000u64)).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.gen_range(0..1_000_000u64)).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.gen_range(0..1_000_000u64)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(3..17usize);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(0.25..0.75f64);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn shuffle_permutes_and_choose_selects() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice in order");
        assert!(v.choose(&mut rng).is_some());
        let empty: [u32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }
}
