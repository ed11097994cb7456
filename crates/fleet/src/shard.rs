//! The sharded work-stealing run scheduler.
//!
//! A campaign's unit of work is one [`ExecSpec`]: execute one `(program,
//! seed, strategy)` once, watched by every configured detector. Each
//! detector's view of that execution is one record, named by a
//! [`RunSpec`]. Work items are enumerated deterministically and
//! never materialized: [`IndexQueues`] cuts the item *index space* into
//! `S` contiguous lazy shard queues; each of `N` workers owns a home
//! shard (worker `w` → shard `w % S`) and pops from its front until
//! empty, then *steals* the back half of another shard. Stealing keeps
//! every core busy through the campaign tail — pattern programs differ in
//! length by orders of magnitude, so static partitioning would leave
//! workers idle behind the shard that drew the long programs (the §3.2
//! nightly-campaign analogue: test shards are rebalanced because test
//! durations are wildly skewed).
//!
//! Which worker executes an item never affects its result: every run is a
//! self-contained deterministic `Runtime` instance, and the campaign
//! aggregates by spec index, not by completion order.

use std::sync::Mutex;

use grs_detector::DetectorChoice;
use grs_runtime::Strategy;

/// One cell of the run matrix, `(program × seed × strategy × detector)`,
/// tagged with its position in the campaign's deterministic enumeration:
/// what one record of a campaign is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// Position in the campaign's spec enumeration — the deterministic
    /// tie-breaker for dedup representatives and record ordering.
    pub index: usize,
    /// Index of the unit (program) in the campaign's unit list.
    pub unit: usize,
    /// Scheduler seed for the run.
    pub seed: u64,
    /// Scheduling strategy for the run.
    pub strategy: Strategy,
    /// Detection algorithm monitoring the run.
    pub detector: DetectorChoice,
}

/// One schedulable *execution*: `(program × seed × strategy)`, executed
/// once and watched by every configured detector at once.
///
/// Because the full matrix enumerates detectors innermost, the records this
/// execution yields occupy the contiguous [`RunSpec::index`] block
/// `base_index .. base_index + detectors.len()` — which is how a campaign
/// keeps its records (and dedup representatives) on the matrix's index
/// space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecSpec {
    /// Position in the execution enumeration (units → seeds → strategies).
    pub exec_index: usize,
    /// Spec index of this execution's first detector run in the full
    /// matrix enumeration.
    pub base_index: usize,
    /// Index of the unit (program) in the campaign's unit list.
    pub unit: usize,
    /// Scheduler seed for the execution.
    pub seed: u64,
    /// Scheduling strategy for the execution.
    pub strategy: Strategy,
}

impl ExecSpec {
    /// The matrix spec of this execution's record for its `pos`-th
    /// detector.
    #[must_use]
    pub fn run_spec(&self, pos: usize, detector: DetectorChoice) -> RunSpec {
        RunSpec {
            index: self.base_index + pos,
            unit: self.unit,
            seed: self.seed,
            strategy: self.strategy,
            detector,
        }
    }
}

/// The campaign fan-out: shard queues over the *index space* `0..total`.
/// Each shard is dealt one contiguous range — shard `s` starts with
/// `s * span .. (s + 1) * span` — so the specs of one unit, which the
/// matrix enumerates consecutively, land on one shard and a worker builds
/// each unit about once; dealing index `i` to shard `i % shards` would
/// scatter every unit over every shard. Memory is O(shards), not
/// O(total), which is what lets a 100K-spec campaign enumerate its matrix
/// arithmetically under a work-stealing schedule (the eager reference it
/// is pinned to pop-for-pop lives in this module's tests).
#[derive(Debug)]
pub struct IndexQueues {
    /// Per-shard remaining global indices `[front, back)`.
    shards: Vec<Mutex<(usize, usize)>>,
    /// Indices dealt to each shard (the last non-empty one may get fewer).
    span: usize,
}

impl IndexQueues {
    /// Queues over `0..total`, index `i` on shard [`Self::shard_of`]`(i)`.
    #[must_use]
    pub fn new(shards: usize, total: usize) -> Self {
        let n = shards.max(1);
        let span = total.div_ceil(n).max(1);
        IndexQueues {
            shards: (0..n)
                .map(|s| Mutex::new(((s * span).min(total), ((s + 1) * span).min(total))))
                .collect(),
            span,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard global index `index` was dealt to.
    #[must_use]
    pub fn shard_of(&self, index: usize) -> usize {
        index / self.span
    }

    /// Remaining indices across all shards (racy snapshot; exact only
    /// when no worker is running).
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let (front, back) = *s.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                back - front
            })
            .sum()
    }

    /// Pops the next global index for `worker`: the front of its home
    /// shard; when that is empty, the worker first moves the *back half* of
    /// the first non-empty victim shard (scanning from the home shard
    /// upward) into its home shard. A thief therefore keeps walking
    /// consecutive indices, and two thieves never alternate over one
    /// victim's tail. Returns the index and the shard it was dealt to, or
    /// `None` when the worker finds every shard empty.
    pub fn pop(&self, worker: usize) -> Option<(usize, usize)> {
        let n = self.shards.len();
        let home = worker % n;
        let lock = |s: usize| {
            self.shards[s]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        };
        let take_front = |q: &mut (usize, usize)| {
            q.0 += 1;
            Some((q.0 - 1, self.shard_of(q.0 - 1)))
        };
        {
            let mut h = lock(home);
            if h.0 < h.1 {
                return take_front(&mut h);
            }
        }
        for off in 1..n {
            let victim = (home + off) % n;
            // Lower shard first, always: two workers robbing each other
            // cannot deadlock.
            let (mut low, mut high) = (lock(home.min(victim)), lock(home.max(victim)));
            let (h, v) = if home < victim {
                (&mut *low, &mut *high)
            } else {
                (&mut *high, &mut *low)
            };
            // A worker sharing this home shard may have refilled it since.
            if h.0 == h.1 {
                let take = (v.1 - v.0).div_ceil(2);
                if take == 0 {
                    continue;
                }
                v.1 -= take;
                *h = (v.1, v.1 + take);
            }
            return take_front(h);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// The eager reference [`IndexQueues`] is pinned to: the index list
    /// `0..total` materialized and cut into per-shard deques of
    /// `ceil(total / shards)` consecutive indices each, every index paired
    /// with the shard it was dealt to.
    struct ShardQueues(Vec<VecDeque<(usize, usize)>>);

    impl ShardQueues {
        fn deal(shards: usize, total: usize) -> Self {
            let n = shards.max(1);
            let all: Vec<usize> = (0..total).collect();
            let mut queues: Vec<VecDeque<(usize, usize)>> = all
                .chunks(total.div_ceil(n).max(1))
                .enumerate()
                .map(|(shard, c)| c.iter().map(|&i| (i, shard)).collect())
                .collect();
            queues.resize(n, VecDeque::new());
            ShardQueues(queues)
        }

        /// Front of the home shard, refilled when empty with the back half
        /// of the first non-empty victim shard, scanning from the home
        /// shard upward.
        fn pop(&mut self, worker: usize) -> Option<(usize, usize)> {
            let n = self.0.len();
            let home = worker % n;
            if self.0[home].is_empty() {
                let victim = (1..n)
                    .map(|off| (home + off) % n)
                    .find(|&v| !self.0[v].is_empty())?;
                let keep = self.0[victim].len() / 2;
                self.0[home] = self.0[victim].split_off(keep);
            }
            self.0[home].pop_front()
        }
    }

    #[test]
    fn deals_contiguous_ranges_and_drains_exactly_once() {
        let q = IndexQueues::new(3, 10);
        assert_eq!(q.shard_count(), 3);
        assert_eq!(q.remaining(), 10);
        let dealt: Vec<_> = (0..10).map(|i| q.shard_of(i)).collect();
        assert_eq!(dealt, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]);
        let mut seen = Vec::new();
        while let Some((i, _)) = q.pop(0) {
            seen.push(i);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(q.remaining(), 0);
        assert!(q.pop(1).is_none());
    }

    #[test]
    fn home_shard_is_drained_in_order_before_stealing() {
        let q = IndexQueues::new(2, 8);
        // Worker 1's home shard holds indices 4..8 in order.
        let home: Vec<_> = (0..4).map(|_| q.pop(1).unwrap()).collect();
        assert_eq!(home, [(4, 1), (5, 1), (6, 1), (7, 1)]);
        // Home empty: worker 1 moves the back half of shard 0 home and walks
        // it in order, while worker 0 keeps the front half.
        assert_eq!(q.pop(1), Some((2, 0)));
        assert_eq!(q.pop(0), Some((0, 0)));
        assert_eq!(q.pop(1), Some((3, 0)));
        assert_eq!(q.pop(0), Some((1, 0)));
        assert_eq!(q.pop(0), None);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let q = IndexQueues::new(0, 3);
        assert_eq!(q.shard_count(), 1);
        assert_eq!(q.remaining(), 3);
    }

    #[test]
    fn index_queues_match_dealt_queues_pop_for_pop() {
        // The lazy queues must be observationally identical to cutting a
        // materialized vector, for any (shards, total), whether one worker
        // drains everything or `shards + 1` workers (two of them sharing
        // home shard 0) take turns.
        for shards in [1, 2, 3, 5] {
            for total in [0, 1, 7, 20] {
                for workers in (0..shards).map(|w| w..=w).chain([0..=shards]) {
                    let mut dealt = ShardQueues::deal(shards, total);
                    let lazy = IndexQueues::new(shards, total);
                    assert_eq!(lazy.remaining(), total);
                    for &(i, shard) in dealt.0.iter().flatten() {
                        assert_eq!(lazy.shard_of(i), shard);
                    }
                    let mut idle = 0;
                    for worker in workers.clone().cycle() {
                        let (a, b) = (dealt.pop(worker), lazy.pop(worker));
                        assert_eq!(a, b, "shards={shards} total={total} worker={worker}");
                        idle = if a.is_none() { idle + 1 } else { 0 };
                        if idle == workers.clone().count() {
                            break;
                        }
                    }
                    assert_eq!(lazy.remaining(), 0);
                }
            }
        }
    }

    #[test]
    fn index_queues_drain_exactly_once_under_contention() {
        let q = IndexQueues::new(4, 500);
        let taken = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for w in 0..4 {
                let (q, taken) = (&q, &taken);
                s.spawn(move || {
                    while let Some((i, _)) = q.pop(w) {
                        taken.lock().unwrap().push(i);
                    }
                });
            }
        });
        let mut got = taken.into_inner().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..500).collect::<Vec<_>>());
        assert_eq!(q.remaining(), 0);
    }
}
