//! Scheduling policies and per-run schedule recording.
//!
//! The kernel asks the active [`SchedulePolicy`] which runnable goroutine
//! runs next at every preemption point. Because only one goroutine runs at
//! a time and all randomness flows through the seeded RNG held by the
//! kernel, a `(seed, strategy)` pair fully determines the interleaving. The
//! [`Scheduler`] records every decision it makes as an in-memory
//! [`ScheduleTrace`], whose digest is what tests pin a schedule by.
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

impl Strategy {
    /// Builds the policy object implementing this strategy. `pct_horizon`
    /// bounds where PCT priority-change points may be placed; the other
    /// strategies ignore it.
    #[must_use]
    pub fn policy(self, rng: &mut StdRng, pct_horizon: u64) -> Box<dyn SchedulePolicy> {
        match self {
            Strategy::Random => Box::new(RandomPolicy),
            Strategy::Pct { depth } => Box::new(PctPolicy::new(depth, rng, pct_horizon)),
            Strategy::RoundRobin => Box::new(RoundRobinPolicy::new()),
        }
    }
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

/// A scheduling policy: the strategy-specific state machine the
/// [`Scheduler`] consults at every preemption point.
///
/// Implementations must route **all** randomness through the `rng`
/// argument (never internal entropy), so the schedule stays a pure
/// function of the seed, and must draw exactly one RNG value per
/// [`SchedulePolicy::register`] call (see [`draw_priority`]).
pub trait SchedulePolicy: std::fmt::Debug + Send {
    /// Registers a goroutine (gids may be non-contiguous; policies must
    /// tolerate gaps).
    fn register(&mut self, gid: Gid, rng: &mut StdRng);

    /// Picks the next goroutine among `runnable` (non-empty), given the
    /// currently running goroutine `current` (which may itself be in the
    /// runnable set).
    fn pick(&mut self, runnable: &[Gid], current: Option<Gid>, rng: &mut StdRng) -> Gid;
}

/// Uniform random walk: every pick draws one uniform index.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomPolicy;

impl SchedulePolicy for RandomPolicy {
    fn register(&mut self, _gid: Gid, rng: &mut StdRng) {
        let _ = draw_priority(rng);
    }

    fn pick(&mut self, runnable: &[Gid], _current: Option<Gid>, rng: &mut StdRng) -> Gid {
        runnable[rng.gen_range(0..runnable.len())]
    }
}

/// Cooperative round-robin: rotates relative to the running goroutine's
/// position, so control moves around the ring regardless of gid gaps.
/// Picks draw no randomness, which makes the schedule seed-invariant.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinPolicy {
    cursor: usize,
}

impl RoundRobinPolicy {
    /// A fresh round-robin policy.
    #[must_use]
    pub fn new() -> Self {
        RoundRobinPolicy::default()
    }
}

impl SchedulePolicy for RoundRobinPolicy {
    fn register(&mut self, _gid: Gid, rng: &mut StdRng) {
        let _ = draw_priority(rng);
    }

    fn pick(&mut self, runnable: &[Gid], current: Option<Gid>, _rng: &mut StdRng) -> Gid {
        self.cursor = (self.cursor + 1) % runnable.len();
        if let Some(cur) = current {
            if let Some(pos) = runnable.iter().position(|&g| g == cur) {
                return runnable[(pos + 1) % runnable.len()];
            }
        }
        runnable[self.cursor]
    }
}

/// Probabilistic Concurrency Testing: strict random priorities with
/// `depth - 1` priority change points at which the running goroutine is
/// demoted below everything seen so far.
#[derive(Debug, Clone)]
pub struct PctPolicy {
    /// Priority per goroutine index (higher runs first).
    priorities: Vec<i64>,
    /// Steps at which the running goroutine's priority is demoted.
    change_points: Vec<u64>,
    /// Next fresh (lowest) priority to hand out on demotion.
    next_low: i64,
    steps_taken: u64,
    /// Demotions actually performed — the observable that pins the
    /// change-point-placement fix: a horizon far beyond the run length
    /// leaves this at zero and PCT silently degenerates to
    /// strict-priority scheduling.
    demotions: u32,
}

impl PctPolicy {
    /// Samples `depth - 1` change points uniformly from `0..horizon`.
    /// Pass the unit's observed step count (see
    /// [`calibrate_steps`](crate::runtime::calibrate_steps)) as the
    /// horizon so the points land inside the run.
    #[must_use]
    pub fn new(depth: u32, rng: &mut StdRng, horizon: u64) -> Self {
        let mut change_points = Vec::new();
        for _ in 1..depth {
            change_points.push(rng.gen_range(0..horizon.max(1)));
        }
        change_points.sort_unstable();
        PctPolicy {
            priorities: Vec::new(),
            change_points,
            next_low: -1,
            steps_taken: 0,
            demotions: 0,
        }
    }

    /// Priority-change demotions performed so far.
    #[must_use]
    pub fn demotions(&self) -> u32 {
        self.demotions
    }
}

impl SchedulePolicy for PctPolicy {
    fn register(&mut self, gid: Gid, rng: &mut StdRng) {
        let i = gid.index();
        if i >= self.priorities.len() {
            self.priorities.resize(i + 1, 0);
        }
        // Random initial priority; ties broken by id in `pick`.
        self.priorities[i] = draw_priority(rng);
    }

    fn pick(&mut self, runnable: &[Gid], current: Option<Gid>, _rng: &mut StdRng) -> Gid {
        self.steps_taken += 1;
        // Demote the running goroutine at change points.
        if let Some(cur) = current {
            if self
                .change_points
                .first()
                .is_some_and(|&cp| self.steps_taken >= cp)
            {
                self.change_points.remove(0);
                let i = cur.index();
                if i < self.priorities.len() {
                    self.priorities[i] = self.next_low;
                    self.next_low -= 1;
                    self.demotions += 1;
                }
            }
        }
        *runnable
            .iter()
            .max_by_key(|g| (self.priorities.get(g.index()).copied().unwrap_or(0), g.0))
            .expect("runnable is non-empty")
    }
}

/// One scheduling decision: which candidate was chosen out of how many.
///
/// `chosen` indexes the sorted candidate slice the kernel passed to the
/// pick, and `arity` records how many candidates there were.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScheduleDecision {
    /// Index of the chosen goroutine within the candidate slice.
    pub chosen: u32,
    /// Number of candidates the decision chose among (`>= 1`).
    pub arity: u32,
}

/// The per-run schedule record: every decision the scheduler made, in
/// order. In memory only; [`ScheduleTrace::digest`] is what gets compared.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct ScheduleTrace {
    /// The decisions, in pick order.
    pub decisions: Vec<ScheduleDecision>,
}

impl ScheduleTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        ScheduleTrace::default()
    }

    /// Number of recorded decisions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// True when no decisions were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// FNV-1a digest of the decision stream.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(&(self.decisions.len() as u64).to_le_bytes());
        for d in &self.decisions {
            h.write(&u64::from(d.chosen).to_le_bytes());
            h.write(&u64::from(d.arity).to_le_bytes());
        }
        h.finish()
    }
}

/// Scheduler state evolved across one run: the active policy plus the
/// decision recording.
#[derive(Debug)]
pub(crate) struct Scheduler {
    policy: Box<dyn SchedulePolicy>,
    trace: ScheduleTrace,
}

impl Scheduler {
    /// A scheduler driving an explicit policy object; the kernel builds
    /// the policy from [`Strategy::policy`].
    pub(crate) fn with_policy(policy: Box<dyn SchedulePolicy>) -> Self {
        Scheduler {
            policy,
            trace: ScheduleTrace::new(),
        }
    }

    /// Registers a goroutine with the policy.
    pub(crate) fn register(&mut self, gid: Gid, rng: &mut StdRng) {
        self.policy.register(gid, rng);
    }

    /// Picks the next goroutine among `runnable` (non-empty) and records
    /// the decision.
    pub(crate) fn pick(
        &mut self,
        runnable: &[Gid],
        current: Option<Gid>,
        rng: &mut StdRng,
    ) -> Gid {
        debug_assert!(!runnable.is_empty());
        let next = self.policy.pick(runnable, current, rng);
        let chosen = runnable
            .iter()
            .position(|&g| g == next)
            .expect("policy picked a goroutine outside the candidate set");
        self.trace.decisions.push(ScheduleDecision {
            chosen: chosen as u32,
            arity: runnable.len() as u32,
        });
        next
    }

    /// Hands out the recorded schedule at end of run.
    pub(crate) fn take_trace(&mut self) -> ScheduleTrace {
        std::mem::take(&mut self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn g(i: u32) -> Gid {
        Gid(i)
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let runnable = vec![g(0), g(1), g(2)];
        let pick_seq = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = Scheduler::with_policy(Strategy::Random.policy(&mut rng, 100));
            (0..20)
                .map(|_| s.pick(&runnable, Some(g(0)), &mut rng).0)
                .collect::<Vec<_>>()
        };
        assert_eq!(pick_seq(42), pick_seq(42));
        assert_ne!(pick_seq(42), pick_seq(43)); // overwhelmingly likely
    }

    #[test]
    fn round_robin_rotates() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = Scheduler::with_policy(Strategy::RoundRobin.policy(&mut rng, 100));
        let runnable = vec![g(0), g(1), g(2)];
        let n1 = s.pick(&runnable, Some(g(0)), &mut rng);
        assert_eq!(n1, g(1));
        let n2 = s.pick(&runnable, Some(g(1)), &mut rng);
        assert_eq!(n2, g(2));
        let n3 = s.pick(&runnable, Some(g(2)), &mut rng);
        assert_eq!(n3, g(0));
    }

    #[test]
    fn pct_prefers_highest_priority() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut s = Scheduler::with_policy(Strategy::Pct { depth: 1 }.policy(&mut rng, 1000));
        s.register(g(0), &mut rng);
        s.register(g(1), &mut rng);
        let runnable = vec![g(0), g(1)];
        let first = s.pick(&runnable, None, &mut rng);
        // With depth 1 there are no change points, so the choice is stable.
        for _ in 0..5 {
            assert_eq!(s.pick(&runnable, Some(first), &mut rng), first);
        }
    }

    #[test]
    fn pct_demotes_at_change_points() {
        let mut rng = StdRng::seed_from_u64(3);
        // horizon=1 forces the single change point to step 0.
        let mut s = Scheduler::with_policy(Strategy::Pct { depth: 2 }.policy(&mut rng, 1));
        s.register(g(0), &mut rng);
        s.register(g(1), &mut rng);
        let runnable = vec![g(0), g(1)];
        let first = s.pick(&runnable, None, &mut rng);
        // Demotion only applies when someone is running: run `first`, then
        // expect it to be demoted on the next pick.
        let second = s.pick(&runnable, Some(first), &mut rng);
        assert_ne!(first, second, "change point must demote the running goroutine");
    }

    /// The change-point-placement fix, at policy level: a depth-3 PCT run
    /// over a short horizon must actually demote, where a horizon far
    /// beyond the run length leaves the schedule strict-priority.
    #[test]
    fn pct_depth3_demotes_on_short_horizon() {
        let run = |horizon: u64| {
            let mut rng = StdRng::seed_from_u64(17);
            let mut p = PctPolicy::new(3, &mut rng, horizon);
            p.register(g(0), &mut rng);
            p.register(g(1), &mut rng);
            p.register(g(2), &mut rng);
            let runnable = vec![g(0), g(1), g(2)];
            let mut cur = p.pick(&runnable, None, &mut rng);
            for _ in 0..20 {
                cur = p.pick(&runnable, Some(cur), &mut rng);
            }
            p.demotions()
        };
        // A 21-step "program" with change points placed against its actual
        // length demotes; the old fixed 1000-step hint leaves the points
        // unreachable.
        assert!(run(20) > 0, "calibrated horizon must demote");
        assert_eq!(run(100_000), 0, "oversized horizon degenerates to strict priority");
    }

    #[test]
    fn scheduler_records_every_decision() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = Scheduler::with_policy(Strategy::Random.policy(&mut rng, 100));
        let runnable = vec![g(0), g(1), g(2)];
        for _ in 0..10 {
            let picked = s.pick(&runnable, Some(g(0)), &mut rng);
            assert!(runnable.contains(&picked));
        }
        let trace = s.take_trace();
        assert_eq!(trace.len(), 10);
        assert!(trace.decisions.iter().all(|d| d.arity == 3 && d.chosen < 3));
    }
}
