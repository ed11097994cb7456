//! Coverage-guided schedule exploration: mutate recorded schedules toward
//! novel interleavings instead of drawing fresh seeds blindly.
//!
//! The plain [`Explorer`](crate::Explorer) treats every run as independent
//! — seed `i` learns nothing from seed `i - 1`. That mirrors the paper's
//! deployment (rerun the tests daily and hope), and it converges slowly on
//! interleavings that random walks rarely visit. [`ScheduleFrontier`]
//! closes the loop for whoever drives the runs (the fleet engine's
//! adaptive campaign mode): every run comes back with a coverage signature
//! and the full [`ScheduleTrace`] of decisions it took, novel runs enter a
//! frontier, and subsequent runs *mutate* a frontier schedule — truncate
//! it at a random decision point, flip that decision to a different
//! runnable goroutine, and let the base strategy schedule the rest —
//! rather than starting from scratch.
//!
//! Mutated runs stay fully reproducible: the interleaving is a pure
//! function of `(seed, prefix)`, so the driver attaches the prefix to each
//! race report's artifact (`ReproArtifact::guided`), and replaying that
//! seed with `RunConfig::schedule_prefix` re-triggers the race
//! deterministically.

use std::collections::{HashSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use grs_runtime::ScheduleTrace;

/// The feedback state of one guided exploration: the novelty map of
/// coverage signatures plus the frontier of schedules that produced them.
///
/// Fully deterministic: the proposal stream is a pure function of the
/// construction seed and the observed `(coverage, schedule)` sequence.
#[derive(Debug, Clone)]
pub struct ScheduleFrontier {
    rng: StdRng,
    corpus: usize,
    frontier_cap: usize,
    seen: HashSet<u64>,
    frontier: VecDeque<ScheduleTrace>,
}

impl ScheduleFrontier {
    /// A frontier for an exploration of `budget` executions whose
    /// mutation choices are driven by `seed`. The first eighth of the
    /// budget (at least 1, at most 16 executions) is the corpus — always
    /// fresh runs — and the 32 most recent novel schedules are kept as
    /// mutation candidates, older ones evicted first.
    #[must_use]
    pub fn new(seed: u64, budget: usize) -> Self {
        ScheduleFrontier {
            // Mutation choices draw from their own stream so run seeds
            // stay the plain `base_seed + i` ladder the repro artifacts
            // quote.
            rng: StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            corpus: (budget / 8).clamp(1, 16),
            frontier_cap: 32,
            seen: HashSet::new(),
            frontier: VecDeque::new(),
        }
    }

    /// Proposes the schedule prefix for execution `exec`: `None` while the
    /// corpus is being seeded (or the frontier is empty), a mutated prefix
    /// afterwards.
    pub fn propose(&mut self, exec: usize) -> Option<ScheduleTrace> {
        if exec < self.corpus || self.frontier.is_empty() {
            None
        } else {
            self.mutate()
        }
    }

    /// Feeds one finished run back: a novel coverage signature admits its
    /// schedule to the frontier (evicting the oldest past the cap).
    /// Returns whether the signature was novel.
    pub fn observe(&mut self, coverage: u64, schedule: ScheduleTrace) -> bool {
        let novel = self.seen.insert(coverage);
        if novel {
            self.frontier.push_back(schedule);
            if self.frontier.len() > self.frontier_cap {
                self.frontier.pop_front();
            }
        }
        novel
    }

    /// Distinct coverage signatures observed so far.
    #[must_use]
    pub fn novel_signatures(&self) -> usize {
        self.seen.len()
    }

    /// Truncates a frontier schedule at a random decision and flips that
    /// decision to a different position in its runnable set. When the
    /// decision had arity 1 there is nothing to flip; the truncation alone
    /// still diversifies the suffix (it resumes under the base strategy
    /// with a fresh seed).
    fn mutate(&mut self) -> Option<ScheduleTrace> {
        let candidate = self.frontier.get(self.rng.gen_range(0..self.frontier.len()))?;
        if candidate.is_empty() {
            return None;
        }
        let cut = self.rng.gen_range(0..candidate.len());
        let mut prefix = candidate.prefix(cut + 1);
        let d = prefix.decisions.last_mut().expect("prefix of cut+1 >= 1");
        if d.arity > 1 {
            d.chosen = (d.chosen + self.rng.gen_range(1..d.arity)) % d.arity;
        }
        Some(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grs_runtime::ScheduleDecision;

    /// A synthetic finished run: `exec` picks its coverage signature (so
    /// some repeat) and the shape of its schedule.
    fn run(exec: usize) -> (u64, ScheduleTrace) {
        let decisions = (0..3 + exec % 5)
            .map(|i| ScheduleDecision {
                chosen: ((exec + i) % 3) as u32,
                arity: 3,
            })
            .collect();
        ((exec % 7) as u64, ScheduleTrace { decisions })
    }

    /// Drives the propose/observe loop over `budget` synthetic runs.
    fn proposals(mut frontier: ScheduleFrontier, budget: usize) -> Vec<Option<ScheduleTrace>> {
        (0..budget)
            .map(|exec| {
                let prefix = frontier.propose(exec);
                let (coverage, schedule) = run(exec);
                frontier.observe(coverage, schedule);
                prefix
            })
            .collect()
    }

    #[test]
    fn frontier_is_deterministic_and_mutates_after_the_corpus() {
        let a = proposals(ScheduleFrontier::new(7, 24), 24);
        assert_eq!(a, proposals(ScheduleFrontier::new(7, 24), 24));
        assert_ne!(
            a,
            proposals(ScheduleFrontier::new(8, 24), 24),
            "seed-sensitive"
        );
        // 24 / 8 = 3 corpus runs, then every proposal is a mutation.
        assert!(a[..3].iter().all(Option::is_none));
        assert!(
            a[3..].iter().all(Option::is_some),
            "mutation loop never engaged"
        );
    }

    #[test]
    fn a_corpus_equal_to_the_budget_never_mutates() {
        let all_corpus = ScheduleFrontier {
            corpus: 12,
            ..ScheduleFrontier::new(3, 12)
        };
        assert!(proposals(all_corpus, 12).iter().all(Option::is_none));
    }

    #[test]
    fn novelty_is_counted_once_per_signature_and_the_frontier_is_capped() {
        let mut frontier = ScheduleFrontier::new(1, 64);
        for exec in 0..64 {
            let (_, schedule) = run(exec);
            assert!(frontier.observe(exec as u64, schedule.clone()));
            assert!(!frontier.observe(exec as u64, schedule), "second sighting");
        }
        assert_eq!(frontier.novel_signatures(), 64);
        assert_eq!(frontier.frontier.len(), 32);
    }
}
