//! Memory-bounded duplicate suppression for the intake service.
//!
//! The tracker is the authoritative suppressor — a fingerprint files iff no
//! task with that fingerprint is open. But the tracker sits behind the
//! service's core mutex, and a six-month deployment re-detects the same hot
//! races millions of times. [`BoundedDedup`] is the front line: a sharded
//! exact cache of open fingerprints with a **hard word budget**. When the
//! cache is full, the oldest cached representative is evicted (FIFO per
//! shard); the next re-detection of an evicted fingerprint falls through to
//! the tracker and merely re-warms the cache. Eviction fails *safe*: it
//! only loses the short-circuit — the tracker still suppresses.
//!
//! Correctness therefore never depends on the cache; memory use never
//! depends on the workload. `peak_words()` against `budget_words()` is the
//! soak gate's "dedup stayed under budget the whole run" check.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use grs_obs::splitmix64;

use crate::fingerprint::Fingerprint;

/// 8-byte words one cached fingerprint is accounted as: the fingerprint
/// itself, the hash-set slot overhead, and the FIFO queue entry.
pub const WORDS_PER_ENTRY: usize = 4;

const SHARDS: usize = 16;

#[derive(Default)]
struct Shard {
    cached: HashSet<u64>,
    // Insertion order, oldest first — the eviction queue. Holds exactly
    // the members of `cached`, so the word budget covers it too.
    order: VecDeque<u64>,
}

/// The verdict [`BoundedDedup::check`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DedupVerdict {
    /// Cached as open: suppress without consulting the tracker.
    CachedOpen,
    /// Not in the cache (never seen, or evicted): the caller must consult
    /// the tracker.
    Unknown,
}

/// Sharded, budgeted duplicate cache. See the module docs for semantics.
pub struct BoundedDedup {
    shards: Vec<Mutex<Shard>>,
    max_entries: usize,
    entries: AtomicUsize,
    peak_entries: AtomicUsize,
    evictions: AtomicU64,
}

impl std::fmt::Debug for BoundedDedup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedDedup")
            .field("budget_words", &self.budget_words())
            .field("words", &self.words())
            .field("evictions", &self.evictions())
            .finish_non_exhaustive()
    }
}

fn mix(fp: Fingerprint) -> u64 {
    // splitmix64 finalizer: the raw fingerprint is already FNV-mixed, but
    // FNV-1a's last input bytes barely reach the top bits, and those pick
    // the shard.
    splitmix64(fp.0)
}

impl BoundedDedup {
    /// A cache holding at most `budget_words` 8-byte words of entries
    /// (at [`WORDS_PER_ENTRY`] words each; at least one entry per shard is
    /// always allowed so the cache functions even under a tiny budget).
    #[must_use]
    pub fn new(budget_words: usize) -> BoundedDedup {
        let max_entries = (budget_words / WORDS_PER_ENTRY).max(SHARDS);
        BoundedDedup {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            max_entries,
            entries: AtomicUsize::new(0),
            peak_entries: AtomicUsize::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, h: u64) -> &Mutex<Shard> {
        &self.shards[(h >> 48) as usize % SHARDS]
    }

    /// Is `fp` cached as an open task's fingerprint?
    #[must_use]
    pub fn check(&self, fp: Fingerprint) -> DedupVerdict {
        let h = mix(fp);
        let shard = self
            .shard(h)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if shard.cached.contains(&h) {
            DedupVerdict::CachedOpen
        } else {
            DedupVerdict::Unknown
        }
    }

    /// Caches `fp` as open, evicting the shard's oldest representative if
    /// the budget is exhausted.
    pub fn insert(&self, fp: Fingerprint) {
        let h = mix(fp);
        let per_shard_cap = (self.max_entries / SHARDS).max(1);
        let mut shard = self
            .shard(h)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !shard.cached.insert(h) {
            return;
        }
        shard.order.push_back(h);
        if shard.cached.len() > per_shard_cap {
            let oldest = shard.order.pop_front().expect("the queue mirrors the set");
            shard.cached.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.entries.fetch_sub(1, Ordering::Relaxed);
        }
        let now = self.entries.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_entries.fetch_max(now, Ordering::Relaxed);
    }

    /// Uncaches `fp` — called when its task is fixed, so the next detection
    /// files a fresh task instead of being suppressed by a stale cache hit.
    pub fn invalidate(&self, fp: Fingerprint) {
        let h = mix(fp);
        let mut shard = self
            .shard(h)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if shard.cached.remove(&h) {
            // A shard holds at most its cap of entries, so the scan is
            // bounded by the budget, like the memory it frees.
            shard.order.retain(|&queued| queued != h);
            self.entries.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// The hard budget, in 8-byte words.
    #[must_use]
    pub fn budget_words(&self) -> usize {
        self.max_entries * WORDS_PER_ENTRY
    }

    /// Current accounted size, in words.
    #[must_use]
    pub fn words(&self) -> usize {
        self.entries.load(Ordering::Relaxed) * WORDS_PER_ENTRY
    }

    /// High-water mark of [`BoundedDedup::words`] over the cache's life.
    #[must_use]
    pub fn peak_words(&self) -> usize {
        self.peak_entries.load(Ordering::Relaxed) * WORDS_PER_ENTRY
    }

    /// Representatives evicted to stay under budget.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_answers_and_invalidates() {
        let d = BoundedDedup::new(1 << 16);
        let fp = Fingerprint(0x1234);
        assert_eq!(d.check(fp), DedupVerdict::Unknown);
        d.insert(fp);
        assert_eq!(d.check(fp), DedupVerdict::CachedOpen);
        d.invalidate(fp);
        assert_eq!(d.check(fp), DedupVerdict::Unknown, "fix uncaches");
        assert_eq!(d.evictions(), 0);
    }

    #[test]
    fn budget_is_a_hard_cap_with_fifo_eviction() {
        let d = BoundedDedup::new(SHARDS * WORDS_PER_ENTRY * 4); // 4 entries/shard
        for i in 0..10_000u64 {
            d.insert(Fingerprint(i.wrapping_mul(0x9e37_79b9)));
        }
        assert!(d.words() <= d.budget_words(), "live size under budget");
        assert!(d.peak_words() <= d.budget_words(), "peak under budget");
        assert!(d.evictions() > 0, "small budget must evict");
        // Evicted entries answer Unknown — the tracker takes over.
        assert_eq!(d.check(Fingerprint(0)), DedupVerdict::Unknown);
    }

    /// `n` fingerprints that all land in one shard.
    fn same_shard(n: usize) -> Vec<Fingerprint> {
        let shard_of = |fp| (mix(fp) >> 48) as usize % SHARDS;
        (0..)
            .map(Fingerprint)
            .filter(|&fp| shard_of(fp) == shard_of(Fingerprint(0)))
            .take(n)
            .collect()
    }

    /// The file → fix → re-detect cycle on one fingerprint: the eviction
    /// queue is inside the budget, not beside it.
    #[test]
    fn invalidated_fingerprints_leave_the_eviction_queue() {
        let d = BoundedDedup::new(SHARDS * WORDS_PER_ENTRY * 4);
        let per_shard_cap = d.max_entries / SHARDS;
        let fp = Fingerprint(0xfeed);
        for _ in 0..10_000 {
            d.insert(fp);
            d.invalidate(fp);
            for shard in &d.shards {
                let shard = shard.lock().unwrap();
                assert!(shard.order.len() <= per_shard_cap);
                assert_eq!(shard.order.len(), shard.cached.len());
            }
        }
        assert_eq!(d.words(), 0);
    }

    /// A fingerprint fixed and re-detected is as young as its re-detection:
    /// the eviction takes the oldest *live* entry.
    #[test]
    fn eviction_is_fifo_over_live_entries() {
        let d = BoundedDedup::new(SHARDS * WORDS_PER_ENTRY * 2); // 2 entries/shard
        let [a, b, c] = same_shard(3)[..] else {
            unreachable!()
        };
        d.insert(a);
        d.invalidate(a);
        d.insert(b);
        d.insert(a);
        d.insert(c);
        assert_eq!(d.evictions(), 1);
        assert_eq!(
            d.check(b),
            DedupVerdict::Unknown,
            "b is the oldest live entry"
        );
        assert_eq!(d.check(a), DedupVerdict::CachedOpen);
        assert_eq!(d.check(c), DedupVerdict::CachedOpen);
    }

    #[test]
    fn double_insert_accounts_once() {
        let d = BoundedDedup::new(1 << 16);
        let fp = Fingerprint(7);
        d.insert(fp);
        d.insert(fp);
        assert_eq!(d.words(), WORDS_PER_ENTRY);
    }
}
