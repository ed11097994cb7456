//! The two integer mixers the workspace's digests, fingerprints and shard
//! indices are built from, written once. They live here because this is the
//! dependency-free crate every hashing layer already depends on.
//!
//! Every pinned digest in the tree (`digest64`, the golden `.grtrace`, the
//! obs export digests, race fingerprints) is a function of these exact
//! constants; neither may change.

/// Streaming byte-wise 64-bit FNV-1a.
///
/// ```
/// use grs_obs::Fnv1a;
///
/// let mut whole = Fnv1a::new();
/// whole.write(b"ab");
/// let mut split = Fnv1a::new();
/// split.write(b"a");
/// split.write(b"b");
/// assert_eq!(whole.finish(), split.finish());
/// assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    #[must_use]
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in, one xor-multiply per byte.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    #[inline]
    #[must_use]
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// The splitmix64 finalizer: a bijective scramble of `x` whose output bits
/// are pairwise uncorrelated, for deriving independent indices or seeds
/// from one value.
#[inline]
#[must_use]
pub const fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
