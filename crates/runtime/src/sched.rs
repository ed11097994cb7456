//! Scheduling policies and the per-run schedule digest.
//!
//! The kernel asks the run's `Policy` which runnable goroutine runs next
//! at every preemption point. Because only one goroutine runs at a time and
//! all randomness flows through the seeded RNG held by the kernel, a
//! `(seed, strategy)` pair fully determines the interleaving. The kernel
//! folds every decision into the run's [`ScheduleTrace`], whose digest is
//! what tests pin a schedule by.
//!
//! Three strategies are provided:
//!
//! * [`Strategy::Random`] — a uniform random walk over runnable goroutines;
//!   the workhorse for race exposure, analogous to the stress of running Go
//!   unit tests many times.
//! * [`Strategy::Pct`] — Probabilistic Concurrency Testing (Burckhardt et
//!   al., ASPLOS 2010): strict priorities with `depth - 1` random priority
//!   change points, giving guarantees for low-depth bugs. Most of the
//!   paper's patterns are depth-2 or depth-3 bugs. Change points are
//!   sampled from the configured horizon
//!   ([`RunConfig::pct_horizon`](crate::RunConfig::pct_horizon)); callers
//!   that know the unit's observed step count should pass it, or short
//!   runs degenerate to strict-priority scheduling.
//! * [`Strategy::RoundRobin`] — cooperative round-robin; deterministic even
//!   across seeds, useful as a "friendly" schedule that often *misses* races
//!   (the baseline for the scheduler ablation).

use grs_obs::Fnv1a;
use rand::rngs::StdRng;
use rand::Rng;

use crate::ids::Gid;

/// Which scheduling policy drives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[derive(Default)]
pub enum Strategy {
    /// Uniform random walk over runnable goroutines at every step.
    #[default]
    Random,
    /// Probabilistic Concurrency Testing with the given bug depth
    /// (number of ordering constraints, `>= 1`).
    Pct {
        /// Target bug depth `d`; the scheduler inserts `d - 1` priority
        /// change points.
        depth: u32,
    },
    /// Round-robin in goroutine-id order, switching at every step.
    RoundRobin,
}

/// Draws the per-goroutine priority every policy consumes on
/// registration.
///
/// Every policy draws (and the non-PCT ones discard) exactly one value per
/// registered goroutine, so registering a goroutine advances the run's RNG
/// by the same amount under every policy. The `(seed, strategy)` digests
/// pinned across the workspace depend on it.
fn draw_priority(rng: &mut StdRng) -> i64 {
    rng.gen_range(0..1_000_000)
}

/// The strategy-specific state the kernel consults at every preemption
/// point. All randomness comes from the kernel's `rng` argument, so the
/// schedule stays a pure function of the seed.
#[derive(Debug)]
pub(crate) enum Policy {
    /// Uniform random walk: every pick draws one uniform index.
    Random,
    /// Cooperative round-robin: rotates relative to the running goroutine's
    /// position, so control moves around the ring regardless of gid gaps.
    /// Picks draw no randomness, which makes the schedule seed-invariant.
    RoundRobin { cursor: usize },
    /// PCT: strict random priorities with `depth - 1` change points at
    /// which the running goroutine is demoted below everything seen so far.
    Pct {
        /// Priority per goroutine index (higher runs first).
        priorities: Vec<i64>,
        /// Steps at which the running goroutine's priority is demoted,
        /// ascending; each is removed as it is consumed.
        change_points: Vec<u64>,
        /// Next fresh (lowest) priority to hand out on demotion.
        next_low: i64,
        steps_taken: u64,
    },
}

impl Policy {
    /// The policy for `strategy`. PCT samples its `depth - 1` change points
    /// uniformly from `0..pct_horizon` here, before any goroutine
    /// registers; pass the unit's observed step count (see
    /// [`calibrate_steps`](crate::runtime::calibrate_steps)) as the
    /// horizon so the points land inside the run.
    pub(crate) fn new(strategy: Strategy, rng: &mut StdRng, pct_horizon: u64) -> Self {
        match strategy {
            Strategy::Random => Policy::Random,
            Strategy::RoundRobin => Policy::RoundRobin { cursor: 0 },
            Strategy::Pct { depth } => {
                let mut change_points: Vec<u64> = (1..depth)
                    .map(|_| rng.gen_range(0..pct_horizon.max(1)))
                    .collect();
                change_points.sort_unstable();
                Policy::Pct {
                    priorities: Vec::new(),
                    change_points,
                    next_low: -1,
                    steps_taken: 0,
                }
            }
        }
    }

    /// Registers a goroutine, drawing its priority (gids may be
    /// non-contiguous).
    pub(crate) fn register(&mut self, gid: Gid, rng: &mut StdRng) {
        let priority = draw_priority(rng);
        if let Policy::Pct { priorities, .. } = self {
            let i = gid.index();
            if i >= priorities.len() {
                priorities.resize(i + 1, 0);
            }
            // Ties are broken by id in `pick`.
            priorities[i] = priority;
        }
    }

    /// Picks the next goroutine among `runnable` (non-empty, in gid
    /// order), given the currently running goroutine `current` (which may
    /// itself be in the runnable set), and returns its index in `runnable`.
    pub(crate) fn pick(
        &mut self,
        runnable: &[Gid],
        current: Option<Gid>,
        rng: &mut StdRng,
    ) -> usize {
        debug_assert!(!runnable.is_empty());
        match self {
            Policy::Random => rng.gen_range(0..runnable.len()),
            Policy::RoundRobin { cursor } => {
                *cursor = (*cursor + 1) % runnable.len();
                current
                    .and_then(|cur| runnable.iter().position(|&g| g == cur))
                    .map_or(*cursor, |pos| (pos + 1) % runnable.len())
            }
            Policy::Pct {
                priorities,
                change_points,
                next_low,
                steps_taken,
            } => {
                *steps_taken += 1;
                // Demote the running goroutine at change points.
                if let Some(cur) = current {
                    if change_points.first().is_some_and(|&cp| *steps_taken >= cp) {
                        change_points.remove(0);
                        if let Some(p) = priorities.get_mut(cur.index()) {
                            *p = *next_low;
                            *next_low -= 1;
                        }
                    }
                }
                (0..runnable.len())
                    .max_by_key(|&i| {
                        let g = runnable[i];
                        (priorities.get(g.index()).copied().unwrap_or(0), g.0)
                    })
                    .expect("runnable is non-empty")
            }
        }
    }
}

/// The per-run schedule summary: how many decisions the run took and an
/// order-sensitive fold of each one's `(chosen, arity)` — the index picked
/// in the gid-ordered candidate slice and that slice's length. Runs with
/// equal summaries took the same schedule (up to a 64-bit collision).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ScheduleTrace {
    len: usize,
    fold: Fnv1a,
}

impl ScheduleTrace {
    /// Folds in one decision: one word-wide xor-multiply.
    #[inline]
    pub(crate) fn record(&mut self, chosen: usize, arity: usize) {
        self.len += 1;
        self.fold.write_word(chosen as u64 | (arity as u64) << 32);
    }

    /// Number of decisions taken.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the run took no decisions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The fold of the decision stream: FNV-1a over one 64-bit word per
    /// decision, `chosen` in the low half and `arity` in the high half.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.fold.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    fn g(i: u32) -> Gid {
        Gid(i)
    }

    const ALL: [Strategy; 3] = [
        Strategy::Random,
        Strategy::Pct { depth: 3 },
        Strategy::RoundRobin,
    ];

    /// Draws a sorted set of distinct — and usually non-contiguous — gids.
    fn gen_gids(rng: &mut StdRng) -> Vec<Gid> {
        let n = rng.gen_range(2..8usize);
        let mut raw: Vec<u32> = Vec::with_capacity(n);
        let mut next = 0u32;
        for _ in 0..n {
            next += rng.gen_range(1..7u32); // gaps of 1..6 between ids
            raw.push(next);
        }
        raw.into_iter().map(Gid).collect()
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let runnable = vec![g(0), g(1), g(2)];
        let pick_seq = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = Policy::new(Strategy::Random, &mut rng, 100);
            (0..20)
                .map(|_| p.pick(&runnable, Some(g(0)), &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(pick_seq(42), pick_seq(42));
        assert_ne!(pick_seq(42), pick_seq(43)); // overwhelmingly likely
    }

    #[test]
    fn round_robin_rotates() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut p = Policy::new(Strategy::RoundRobin, &mut rng, 100);
        let runnable = vec![g(0), g(1), g(2)];
        assert_eq!(p.pick(&runnable, Some(g(0)), &mut rng), 1);
        assert_eq!(p.pick(&runnable, Some(g(1)), &mut rng), 2);
        assert_eq!(p.pick(&runnable, Some(g(2)), &mut rng), 0);
    }

    #[test]
    fn pct_prefers_highest_priority() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut p = Policy::new(Strategy::Pct { depth: 1 }, &mut rng, 1000);
        p.register(g(0), &mut rng);
        p.register(g(1), &mut rng);
        let runnable = vec![g(0), g(1)];
        let first = p.pick(&runnable, None, &mut rng);
        // With depth 1 there are no change points, so the choice is stable.
        for _ in 0..5 {
            assert_eq!(p.pick(&runnable, Some(runnable[first]), &mut rng), first);
        }
    }

    #[test]
    fn pct_demotes_at_change_points() {
        let mut rng = StdRng::seed_from_u64(3);
        // horizon=1 forces the single change point to step 0.
        let mut p = Policy::new(Strategy::Pct { depth: 2 }, &mut rng, 1);
        p.register(g(0), &mut rng);
        p.register(g(1), &mut rng);
        let runnable = vec![g(0), g(1)];
        let first = p.pick(&runnable, None, &mut rng);
        // Demotion only applies when someone is running: run `first`, then
        // expect it to be demoted on the next pick.
        let second = p.pick(&runnable, Some(runnable[first]), &mut rng);
        assert_ne!(first, second, "change point must demote the running goroutine");
    }

    /// The change-point-placement fix, at policy level: a depth-3 PCT run
    /// over a short horizon must actually demote, where a horizon far
    /// beyond the run length leaves the schedule strict-priority.
    #[test]
    fn pct_depth3_demotes_on_short_horizon() {
        let unconsumed = |horizon: u64| {
            let mut rng = StdRng::seed_from_u64(17);
            let mut p = Policy::new(Strategy::Pct { depth: 3 }, &mut rng, horizon);
            p.register(g(0), &mut rng);
            p.register(g(1), &mut rng);
            p.register(g(2), &mut rng);
            let runnable = vec![g(0), g(1), g(2)];
            let mut cur = runnable[p.pick(&runnable, None, &mut rng)];
            for _ in 0..20 {
                cur = runnable[p.pick(&runnable, Some(cur), &mut rng)];
            }
            let Policy::Pct { change_points, .. } = p else {
                unreachable!("built from a PCT strategy")
            };
            change_points.len()
        };
        // A 21-step "program" with change points placed against its actual
        // length demotes; the old fixed 1000-step hint leaves the points
        // unreachable.
        assert!(unconsumed(20) < 2, "calibrated horizon must demote");
        assert_eq!(unconsumed(100_000), 2, "oversized horizon degenerates to strict priority");
    }

    /// PCT (depth 1: no change points) maintains a strict total priority
    /// order: the pick from any runnable subset is the subset's maximum
    /// under the order observed by peeling the full set winner-by-winner.
    #[test]
    fn pct_picks_the_highest_priority_runnable() {
        let mut shape_rng = StdRng::seed_from_u64(0x9c7);
        for case in 0..24 {
            let gids = gen_gids(&mut shape_rng);
            let policy_seed = shape_rng.gen_range(0..1_000_000u64);
            let pct = |rng: &mut StdRng| {
                let mut p = Policy::new(Strategy::Pct { depth: 1 }, rng, 1000);
                for &g in &gids {
                    p.register(g, rng);
                }
                p
            };

            // Recover the policy's total order by peeling winners off the
            // full set with one policy instance...
            let mut rng = StdRng::seed_from_u64(policy_seed);
            let mut peel = pct(&mut rng);
            let mut remaining = gids.clone();
            let mut order = Vec::with_capacity(gids.len());
            while !remaining.is_empty() {
                let at = peel.pick(&remaining, None, &mut rng);
                assert!(at < remaining.len(), "case {case}: pick outside set");
                order.push(remaining.remove(at));
            }

            // ...then check an identically-seeded twin agrees on arbitrary
            // subsets: the pick is always the earliest-in-order member.
            let mut rng2 = StdRng::seed_from_u64(policy_seed);
            let mut policy = pct(&mut rng2);
            for _ in 0..12 {
                let subset: Vec<Gid> = gids
                    .iter()
                    .copied()
                    .filter(|_| shape_rng.gen_bool(0.6))
                    .collect();
                if subset.is_empty() {
                    continue;
                }
                let expected = *order.iter().find(|g| subset.contains(g)).unwrap();
                let picked = subset[policy.pick(&subset, None, &mut rng2)];
                assert_eq!(picked, expected, "case {case}: subset {subset:?}");
            }
        }
    }

    /// Equal priorities break ties toward the higher gid (`max_by_key` on
    /// `(priority, gid)`). Priorities are equal across goroutines here only
    /// by construction: a policy that never registered anyone assigns
    /// everyone the default priority 0.
    #[test]
    fn pct_breaks_priority_ties_by_gid() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut p = Policy::new(Strategy::Pct { depth: 1 }, &mut rng, 1000);
        // No registrations: every gid sits at the default priority.
        let runnable = vec![g(3), g(11), g(7)];
        assert_eq!(runnable[p.pick(&runnable, None, &mut rng)], g(11));
    }

    /// Every policy must tolerate non-contiguous gid registration (spawn
    /// ids are dense in practice, but nothing in the contract says so) and
    /// pick only from the runnable set.
    #[test]
    fn policies_handle_non_contiguous_gids() {
        let mut shape_rng = StdRng::seed_from_u64(0xabcd);
        for case in 0..24 {
            let gids = gen_gids(&mut shape_rng);
            let seed = shape_rng.gen_range(0..1_000_000u64);
            for strategy in ALL {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut p = Policy::new(strategy, &mut rng, 1000);
                for &g in &gids {
                    p.register(g, &mut rng);
                }
                let mut current = None;
                for _ in 0..20 {
                    let at = p.pick(&gids, current, &mut rng);
                    assert!(at < gids.len(), "case {case} {strategy:?}");
                    current = Some(gids[at]);
                }
            }
        }
    }

    /// Round-robin must rotate: with every goroutine runnable, it never
    /// picks the currently running one twice in a row (when alternatives
    /// exist).
    #[test]
    fn round_robin_never_starves_with_full_runnable_set() {
        let mut shape_rng = StdRng::seed_from_u64(0x44);
        for _ in 0..24 {
            let gids = gen_gids(&mut shape_rng);
            let mut rng = StdRng::seed_from_u64(1);
            let mut p = Policy::new(Strategy::RoundRobin, &mut rng, 1000);
            for &g in &gids {
                p.register(g, &mut rng);
            }
            let mut current = Some(gids[0]);
            for _ in 0..3 * gids.len() {
                let picked = gids[p.pick(&gids, current, &mut rng)];
                assert_ne!(Some(picked), current);
                current = Some(picked);
            }
        }
    }

    /// Registering advances the RNG by one draw under every policy, so the
    /// picks that follow see the same RNG state whatever the strategy.
    #[test]
    fn every_policy_draws_once_per_registration() {
        for strategy in ALL {
            let mut rng = StdRng::seed_from_u64(9);
            let mut p = Policy::new(strategy, &mut rng, 1000);
            let mut twin = rng.clone();
            p.register(g(0), &mut rng);
            p.register(g(4), &mut rng);
            let _ = draw_priority(&mut twin);
            let _ = draw_priority(&mut twin);
            assert_eq!(rng.next_u64(), twin.next_u64(), "{strategy:?}");
        }
    }

    #[test]
    fn the_digest_counts_and_orders_decisions() {
        let fold = |decisions: &[(usize, usize)]| {
            let mut t = ScheduleTrace::default();
            for &(chosen, arity) in decisions {
                t.record(chosen, arity);
            }
            t
        };
        let t = fold(&[(0, 1), (2, 3), (1, 3)]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty() && ScheduleTrace::default().is_empty());
        assert_eq!(t, fold(&[(0, 1), (2, 3), (1, 3)]));
        assert_ne!(t.digest(), fold(&[(0, 1), (1, 3), (2, 3)]).digest());
        assert_ne!(t.digest(), fold(&[(0, 1), (2, 3), (1, 4)]).digest());
        assert_ne!(t.digest(), fold(&[(0, 1), (2, 3)]).digest());
    }
}
