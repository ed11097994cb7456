//! The sharded work-stealing run scheduler.
//!
//! A campaign's unit of work is either one [`RunSpec`] — execute one
//! program under one `(seed, strategy, detector)` combination — or, in the
//! execute-once replay campaign, one [`ExecSpec`] — execute one `(program,
//! seed, strategy)` under a trace recorder and fan the trace through every
//! configured detector. Work items are enumerated deterministically and
//! never materialized: [`IndexQueues`] deals the item *index space*
//! round-robin across `S` lazy shard queues; each of `N` workers owns a
//! home shard (worker `w` → shard `w % S`) and pops from it until empty,
//! then *steals* from the other shards' tails. Stealing keeps
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

/// One schedulable run: `(program × seed × strategy × detector)`, tagged
/// with its position in the campaign's deterministic enumeration.
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

/// One schedulable *execution* of the replay campaign: `(program × seed ×
/// strategy)`, executed once under a trace recorder; the recorded trace is
/// then fanned through every configured detector offline.
///
/// Because the full matrix enumerates detectors innermost, the detector
/// runs this execution covers occupy the contiguous [`RunSpec::index`]
/// block `base_index .. base_index + detectors.len()` — which is how the
/// replay campaign produces records (and dedup representatives) on exactly
/// the same index space as the execute-per-detector campaign.
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
    /// The matrix spec of this execution's `pos`-th detector run.
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

/// The campaign fan-out: shard queues over the *index space* `0..total`,
/// with the exact distribution and pop order of dealing a materialized
/// vector round-robin — global index `i` lives on shard `i % shards` at
/// within-shard position `i / shards` — but O(shards) memory instead of
/// O(total). This is what lets a 100K-spec campaign enumerate its matrix
/// arithmetically under a work-stealing schedule (the eager reference it is
/// pinned to pop-for-pop lives in this module's tests).
#[derive(Debug)]
pub struct IndexQueues {
    /// Per-shard remaining positions `[front, back)`; position `p` of
    /// shard `s` is global index `p * shards + s`.
    shards: Vec<Mutex<(usize, usize)>>,
}

impl IndexQueues {
    /// Queues over `0..total`, index `i` on shard `i % shards`.
    #[must_use]
    pub fn new(shards: usize, total: usize) -> Self {
        let n = shards.max(1);
        IndexQueues {
            shards: (0..n)
                .map(|s| {
                    // Positions p with p * n + s < total.
                    let len = (total + n - 1 - s) / n;
                    Mutex::new((0, len))
                })
                .collect(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
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

    /// Pops the next global index for `worker`: front of its home shard,
    /// else the *back* of the first non-empty victim shard (scanning from
    /// the home shard upward). Returns the index and the shard it came
    /// from, or `None` when the campaign is drained.
    pub fn pop(&self, worker: usize) -> Option<(usize, usize)> {
        let n = self.shards.len();
        let home = worker % n;
        {
            let mut q = self.shards[home]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if q.0 < q.1 {
                let p = q.0;
                q.0 += 1;
                return Some((p * n + home, home));
            }
        }
        for off in 1..n {
            let victim = (home + off) % n;
            let mut q = self.shards[victim]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if q.0 < q.1 {
                q.1 -= 1;
                return Some((q.1 * n + victim, victim));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// The eager reference [`IndexQueues`] is pinned to: the index list
    /// `0..total` materialized and dealt round-robin into per-shard deques
    /// (index `i` → shard `i % shards`, enumeration order kept within each).
    struct ShardQueues(Vec<VecDeque<usize>>);

    impl ShardQueues {
        fn deal(shards: usize, total: usize) -> Self {
            let n = shards.max(1);
            let mut queues = vec![VecDeque::new(); n];
            for i in 0..total {
                queues[i % n].push_back(i);
            }
            ShardQueues(queues)
        }

        /// Front of the home shard, else the *back* of the first non-empty
        /// victim shard, scanning from the home shard upward.
        fn pop(&mut self, worker: usize) -> Option<(usize, usize)> {
            let n = self.0.len();
            let home = worker % n;
            if let Some(i) = self.0[home].pop_front() {
                return Some((i, home));
            }
            (1..n)
                .map(|off| (home + off) % n)
                .find_map(|victim| self.0[victim].pop_back().map(|i| (i, victim)))
        }
    }

    #[test]
    fn deals_round_robin_and_drains_exactly_once() {
        let q = IndexQueues::new(3, 10);
        assert_eq!(q.shard_count(), 3);
        assert_eq!(q.remaining(), 10);
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
        let q = IndexQueues::new(2, 6);
        // Worker 1's home shard holds indices 1, 3, 5 in order.
        let home: Vec<_> = (0..3).map(|_| q.pop(1).unwrap()).collect();
        assert_eq!(home, [(1, 1), (3, 1), (5, 1)]);
        // Home empty: the next pop steals from shard 0's tail.
        assert_eq!(q.pop(1), Some((4, 0)));
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let q = IndexQueues::new(0, 3);
        assert_eq!(q.shard_count(), 1);
        assert_eq!(q.remaining(), 3);
    }

    #[test]
    fn index_queues_match_dealt_queues_pop_for_pop() {
        // The lazy queues must be observationally identical to dealing a
        // materialized vector, for any (shards, total) and any single
        // worker's pop sequence.
        for shards in [1, 2, 3, 5] {
            for total in [0, 1, 7, 20] {
                for worker in 0..shards {
                    let mut dealt = ShardQueues::deal(shards, total);
                    let lazy = IndexQueues::new(shards, total);
                    assert_eq!(lazy.remaining(), total);
                    loop {
                        let (a, b) = (dealt.pop(worker), lazy.pop(worker));
                        assert_eq!(a, b, "shards={shards} total={total} worker={worker}");
                        if a.is_none() {
                            break;
                        }
                    }
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
