//! Seeded input generators shared by the workloads: the seed mixer, a
//! small deterministic RNG, the Zipf popularity draw and the universe of
//! distinct-fingerprint trace frames `intake_open` uploads.

use grs::deploy::{race_fingerprint, Fingerprint};
use grs::detector::{replay_decoded, FastTrack};
use grs::runtime::{record, DecodedTrace, Program, RunConfig, StackDepot};

/// The splitmix64 finaliser: decorrelates `(seed, stream)` pairs so slice
/// `k` of seed 1 shares nothing with slice `k + 1` or with seed 2.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A splitmix64 stream — all the randomness the harness itself needs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(mix(seed, 0x5eed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s = 1) over ranks `0..n`: rank `r` is drawn with weight
/// `1 / (r + 1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "Zipf over an empty universe");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / (r + 1) as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// `count` ranks drawn from a fresh stream of `seed`.
    pub fn sequence(&self, seed: u64, count: usize) -> Vec<u32> {
        let mut rng = Rng::new(seed);
        (0..count).map(|_| self.draw(&mut rng) as u32).collect()
    }
}

/// Member `i` of the frame family: a few private updates (a unit test's
/// set-up), then one goroutine and main write the same cell with no
/// ordering between the writes, so a happens-before detector reports the
/// race on every schedule. Object and function names carry `i`, which is
/// all `race_fingerprint` hashes — one program, one fingerprint.
pub fn tiny_racy_program(i: usize) -> Program {
    let object = format!("counter{i}");
    let func = format!("Handler{i}");
    Program::new(&format!("intake/{i}"), move |ctx| {
        let fixture = ctx.cell("fixture", 0i64);
        for round in 0..16 {
            ctx.update(&fixture, |v| v + round);
        }
        let x = ctx.cell(&object, 0i64);
        let done = ctx.chan::<()>("done", 1);
        let (x2, done2, func) = (x.clone(), done.clone(), func.clone());
        ctx.go("worker", move |ctx| {
            let _frame = ctx.frame(&func);
            ctx.write(&x2, 1);
            done2.send(ctx, ());
        });
        ctx.write(&x, 2);
        let _ = done.recv(ctx);
    })
}

/// One uploadable frame and what the service must make of it.
#[derive(Debug, Clone)]
pub struct Frame {
    pub bytes: Vec<u8>,
    /// Fingerprints a FastTrack replay of `bytes` reports (sorted,
    /// deduplicated) — computed here with the same public calls the
    /// service uses, so the harness knows which tasks must exist.
    pub fingerprints: Vec<Fingerprint>,
}

/// Fingerprints a FastTrack replay of an encoded trace yields.
pub fn replay_fingerprints(bytes: &[u8]) -> Vec<Fingerprint> {
    let decoded = DecodedTrace::decode(bytes).expect("a just-encoded trace decodes");
    let outcome = replay_decoded(&mut FastTrack::new(), &decoded, &StackDepot::new());
    let mut fps: Vec<Fingerprint> = outcome.reports.iter().map(race_fingerprint).collect();
    fps.sort_unstable();
    fps.dedup();
    fps
}

/// Records and encodes `n` members of the family. Frame `i` is recorded
/// under schedule seed `mix(seed, i)`.
///
/// # Panics
///
/// Panics unless the frames carry `n` pairwise-distinct fingerprints, one
/// each: the dedup cache is sized against that count.
pub fn fingerprint_universe(seed: u64, n: usize) -> Vec<Frame> {
    let frames: Vec<Frame> = (0..n)
        .map(|i| {
            let cfg = RunConfig::with_seed(mix(seed, i as u64));
            let (_, trace) = record(&tiny_racy_program(i), &cfg);
            let bytes = trace.encode();
            let fingerprints = replay_fingerprints(&bytes);
            Frame {
                bytes,
                fingerprints,
            }
        })
        .collect();
    let mut all: Vec<Fingerprint> = frames
        .iter()
        .flat_map(|f| f.fingerprints.iter().copied())
        .collect();
    assert_eq!(all.len(), n, "every frame must report exactly one race");
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n, "frame fingerprints must be pairwise distinct");
    frames
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_separates_streams_and_seeds() {
        assert_eq!(mix(1, 0), mix(1, 0));
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_ne!(mix(1, 2), mix(2, 1));
    }

    #[test]
    fn zipf_draw_is_deterministic_in_the_seed_and_skewed() {
        let z = Zipf::new(1_024);
        let a = z.sequence(7, 20_000);
        assert_eq!(a, z.sequence(7, 20_000));
        assert_ne!(a, z.sequence(8, 20_000));
        assert!(a.iter().all(|&r| (r as usize) < 1_024));
        // Rank 0 carries 1/H(1024) ≈ 13.3 % of the mass.
        let head = a.iter().filter(|&&r| r == 0).count() as f64 / a.len() as f64;
        assert!((0.11..0.16).contains(&head), "head share {head}");
        // The upper half of the ranks still gets drawn: the tail that
        // keeps a bounded cache evicting.
        assert!(a.iter().any(|&r| r >= 512));
    }

    #[test]
    fn universe_is_deterministic_and_pairwise_distinct() {
        let a = fingerprint_universe(3, 48);
        let b = fingerprint_universe(3, 48);
        assert_eq!(a.len(), 48);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.bytes, y.bytes);
            assert_eq!(x.fingerprints, y.fingerprints);
        }
        // The builder itself asserts distinctness; a second seed keeps the
        // fingerprints (names decide them) but may change the schedules.
        let c = fingerprint_universe(4, 48);
        for (x, y) in a.iter().zip(&c) {
            assert_eq!(x.fingerprints, y.fingerprints);
        }
    }
}
