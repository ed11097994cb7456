//! Reusable detector state for run campaigns.
//!
//! A campaign executes thousands of short runs (§3.2's flakiness means each
//! program is rerun across many seeds). Constructing a fresh detector per run
//! throws away warmed-up shadow maps, vector-clock buffers, and the stack
//! depot's trie on every iteration. [`DetectorArena`] keeps one long-lived
//! instance of each detector plus one [`StackDepot`], and reuses them for
//! every run: [`Monitor::on_run_start`] clears the *contents* at the start
//! of each run but keeps the container allocations, so steady-state
//! campaign runs allocate close to nothing.
//!
//! Determinism is unaffected: `reset()` restores every detector (and the
//! depot, via [`Runtime::run_with_depot`]) to its initial logical state, so
//! a run through an arena produces byte-identical reports to a run through a
//! fresh detector — [`DetectorChoice::run`] and [`DetectorArena::run`] are
//! interchangeable, and the tests below pin that equivalence.
//!
//! An execution has one fan-out, live ([`DetectorArena::execute`]) or
//! replayed: it is taken once, and every requested detector watches each
//! event, the happens-before ones reading one shared `HbClocks`. A run's
//! interleaving is a function of its seed and strategy alone (the scheduler
//! never consults the monitor), so each detector sees exactly the events it
//! would have seen watching the run alone.
//!
//! What an execution leaves is each detector's [`Race`]s — ids into the
//! arena depot and the detector's lockset interner — and its peak shadow
//! words, which the detector keeps itself as its count rises; both last
//! until the next run resets them. [`DetectorArena::report`] builds the
//! report of one; the report-returning entry points
//! ([`DetectorArena::run_many`], the replays) execute, then report every
//! race.

use grs_obs::{ObsSink, SpanGuard};
use grs_runtime::{
    DecodedTrace, Event, Monitor, Program, RunConfig, RunOutcome, Runtime, StackDepot, Trace,
};

use crate::eraser::Eraser;
use crate::fasttrack::{Shadow, Variant};
use crate::hb::HbClocks;
use crate::replay::ReplayOutcome;
use crate::report::{Race, RaceReport};

/// Which detection algorithm a run is monitored with.
///
/// The paper's deployment always runs ThreadSanitizer (the hybrid), but the
/// campaign engine (`grs-fleet`) and the differential test harness rerun
/// the same seeds under each algorithm to compare verdicts: FastTrack is
/// precise under the observed schedule, Eraser over-approximates by
/// ignoring happens-before, and the hybrid pairs FastTrack verdicts with
/// lockset context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DetectorChoice {
    /// FastTrack happens-before (epoch-optimized), no lockset context.
    FastTrack,
    /// FastTrack with the epoch fast path disabled (pure vector clocks).
    PureVectorClock,
    /// Eraser locksets only (may report false positives).
    Eraser,
    /// The TSan-style hybrid — FastTrack verdicts + lockset context.
    #[default]
    Hybrid,
}

impl DetectorChoice {
    /// The three production-relevant algorithms, in comparison order.
    #[must_use]
    pub fn all() -> [DetectorChoice; 3] {
        [
            DetectorChoice::FastTrack,
            DetectorChoice::Eraser,
            DetectorChoice::Hybrid,
        ]
    }

    /// All four algorithms, including the pure-vector-clock ablation — the
    /// set the replay harness fans every trace through.
    #[must_use]
    pub fn all_with_ablation() -> [DetectorChoice; 4] {
        [
            DetectorChoice::FastTrack,
            DetectorChoice::PureVectorClock,
            DetectorChoice::Eraser,
            DetectorChoice::Hybrid,
        ]
    }

    /// Short stable label (used in campaign summaries and JSON output).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DetectorChoice::FastTrack => "fasttrack",
            DetectorChoice::PureVectorClock => "pure-vc",
            DetectorChoice::Eraser => "eraser",
            DetectorChoice::Hybrid => "hybrid",
        }
    }

    /// A fresh instance of this algorithm as the arena holds it: the one
    /// place a choice becomes a detector.
    fn watcher(self) -> Watcher {
        match self {
            DetectorChoice::FastTrack => Watcher::Hb(Shadow::new(Variant::Epoch)),
            DetectorChoice::PureVectorClock => Watcher::Hb(Shadow::new(Variant::PureVc)),
            DetectorChoice::Eraser => Watcher::Eraser(Eraser::new()),
            DetectorChoice::Hybrid => Watcher::Hb(Shadow::new(Variant::Hybrid)),
        }
    }

    /// Executes one run of `program` under a fresh instance of this
    /// detector.
    #[must_use]
    pub fn run(self, program: &Program, cfg: RunConfig) -> (RunOutcome, Vec<RaceReport>) {
        DetectorArena::new().run(self, program, cfg)
    }

    /// Analyzes a recorded trace offline with a fresh instance of this
    /// detector. For a trace recorded from a live run, the reports are
    /// bit-identical to [`DetectorChoice::run`] under the same config —
    /// the replay-fidelity guarantee the record/replay subsystem rests on.
    #[must_use]
    pub fn replay(self, trace: &Trace) -> ReplayOutcome {
        DetectorArena::new().replay(self, trace)
    }
}

impl std::fmt::Display for DetectorChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One long-lived instance of each detection algorithm plus a shared stack
/// depot, reused across runs.
///
/// # Example
///
/// ```
/// use grs_detector::{DetectorArena, DetectorChoice};
/// use grs_runtime::{Program, RunConfig};
///
/// let p = Program::new("racy", |ctx| {
///     let x = ctx.cell("x", 0i64);
///     let x2 = x.clone();
///     ctx.go("w", move |ctx| ctx.write(&x2, 1));
///     let _ = ctx.read(&x);
/// });
/// let mut arena = DetectorArena::new();
/// let mut racy = 0;
/// for seed in 0..8 {
///     let (_, reports) = arena.run(DetectorChoice::Hybrid, &p, RunConfig::with_seed(seed));
///     racy += usize::from(!reports.is_empty());
/// }
/// assert!(racy > 0);
/// ```
#[derive(Debug)]
pub struct DetectorArena {
    depot: StackDepot,
    /// Every detector: the monitor during a live run, at home between runs.
    watchers: Watchers,
}

/// The closed set of algorithms an execution's watchers are drawn from: a
/// happens-before shadow, which reads the watchers' shared clocks, or
/// Eraser, which needs none.
#[derive(Debug)]
enum Watcher {
    Hb(Shadow),
    Eraser(Eraser),
}

impl Watcher {
    fn races(&self) -> &[Race] {
        match self {
            Watcher::Hb(shadow) => shadow.races(),
            Watcher::Eraser(eraser) => eraser.races(),
        }
    }

    fn report(&self, race: &Race) -> RaceReport {
        match self {
            Watcher::Hb(shadow) => shadow.report(race),
            Watcher::Eraser(eraser) => eraser.report(race),
        }
    }

    fn peak_shadow_words(&self) -> usize {
        match self {
            Watcher::Hb(shadow) => shadow.peak_words(),
            Watcher::Eraser(eraser) => eraser.peak_shadow_words(),
        }
    }
}

/// One detector and the choice it answers to.
#[derive(Debug)]
struct Member {
    choice: DetectorChoice,
    watcher: Watcher,
}

/// The arena's detectors, one per [`DetectorChoice`], and the monitor of
/// every execution, live or replayed: the first `active` members watch it,
/// each seeing every event in order. The happens-before members share `hb`,
/// which takes each event's first step before any member sees it and its
/// second after all have — only when the selection holds such a member.
/// Each member keeps its own shadow-word peak; the watchers' peak is the
/// largest active member's, read when asked for.
#[derive(Debug, Default)]
struct Watchers {
    hb: HbClocks,
    members: Vec<Member>,
    active: usize,
    /// Whether an active member reads `hb`.
    hb_active: bool,
}

impl Watchers {
    /// Moves the member of each distinct choice to the front, in order of
    /// first appearance, as the next run's watchers.
    fn select(&mut self, choices: &[DetectorChoice]) {
        self.active = 0;
        for &choice in choices {
            let idle = &self.members[self.active..];
            if let Some(i) = idle.iter().position(|m| m.choice == choice) {
                self.members.swap(self.active, self.active + i);
                self.active += 1;
            }
        }
        self.hb_active = self.members[..self.active]
            .iter()
            .any(|m| matches!(m.watcher, Watcher::Hb(_)));
    }

    /// The member of `choice`, if it watched the last execution.
    fn watched(&self, choice: DetectorChoice) -> Option<&Member> {
        self.members[..self.active].iter().find(|m| m.choice == choice)
    }
}

impl Monitor for Watchers {
    fn on_run_start(&mut self, depot: &StackDepot) {
        self.hb.reset();
        for m in &mut self.members[..self.active] {
            match &mut m.watcher {
                Watcher::Hb(shadow) => shadow.on_run_start(depot),
                Watcher::Eraser(eraser) => eraser.on_run_start(depot),
            }
        }
    }

    fn on_event(&mut self, event: &Event) {
        if self.hb_active {
            self.hb.before(event);
        }
        for m in &mut self.members[..self.active] {
            match &mut m.watcher {
                Watcher::Hb(shadow) => shadow.on_event(&self.hb, event),
                Watcher::Eraser(eraser) => eraser.on_event(event),
            }
        }
        if self.hb_active {
            self.hb.after(event);
        }
    }

    fn peak_shadow_words(&self) -> usize {
        self.members[..self.active]
            .iter()
            .map(|m| m.watcher.peak_shadow_words())
            .max()
            .unwrap_or(0)
    }
}

impl Default for DetectorArena {
    fn default() -> Self {
        Self::new()
    }
}

impl DetectorArena {
    /// A fresh arena. Detectors are built lazily-cheap (empty containers);
    /// they warm up over the first few runs.
    #[must_use]
    pub fn new() -> Self {
        let members = DetectorChoice::all_with_ablation()
            .into_iter()
            .map(|choice| Member {
                choice,
                watcher: choice.watcher(),
            })
            .collect();
        DetectorArena {
            depot: StackDepot::new(),
            watchers: Watchers {
                members,
                ..Watchers::default()
            },
        }
    }

    /// The arena's stack depot: the stacks of the latest run, until the next
    /// run resets it.
    #[must_use]
    pub fn depot(&self) -> &StackDepot {
        &self.depot
    }

    /// Executes one run of `program` under `choice`, reusing this arena's
    /// detector instance and depot. Equivalent to [`DetectorChoice::run`]
    /// report-for-report, minus the per-run allocations.
    pub fn run(
        &mut self,
        choice: DetectorChoice,
        program: &Program,
        cfg: RunConfig,
    ) -> (RunOutcome, Vec<RaceReport>) {
        let (outcome, mut watched) = self.run_many(&[choice], program, cfg);
        let reports = watched.pop().expect("one outcome per choice").reports;
        (outcome, reports)
    }

    /// Executes one run of `program`, watched by every detector in
    /// `choices` at once, and returns one outcome per position in
    /// `choices`. Each outcome's reports, events and peak shadow words are
    /// what that detector would have produced watching the run alone; a
    /// choice named twice is run once and its outcome repeated. The
    /// [`RunOutcome`]'s `peak_shadow_words` is the largest detector's.
    pub fn run_many(
        &mut self,
        choices: &[DetectorChoice],
        program: &Program,
        cfg: RunConfig,
    ) -> (RunOutcome, Vec<ReplayOutcome>) {
        let outcome = self.execute(choices, program, cfg);
        let watched = self.outcomes(choices, outcome.stats.events_dispatched);
        (outcome, watched)
    }

    /// Executes one run of `program`, watched by every detector in
    /// `choices` at once, and keeps what each found, as ids, until the
    /// next run: read it with [`DetectorArena::races`] and
    /// [`DetectorArena::peak_shadow_words`], and build the reports worth
    /// keeping with [`DetectorArena::report`]. Each detector's races are
    /// those it would have found watching the run alone.
    pub fn execute(
        &mut self,
        choices: &[DetectorChoice],
        program: &Program,
        cfg: RunConfig,
    ) -> RunOutcome {
        let mut watchers = std::mem::take(&mut self.watchers);
        watchers.select(choices);
        let (outcome, watchers) = Runtime::new(cfg).run_with_depot(program, watchers, &self.depot);
        self.watchers = watchers;
        outcome
    }

    /// The races `choice` found in the last execution, in detection order
    /// (none when it did not watch it).
    #[must_use]
    pub fn races(&self, choice: DetectorChoice) -> &[Race] {
        self.watchers
            .watched(choice)
            .map_or(&[], |m| m.watcher.races())
    }

    /// The peak shadow words of `choice` over the last execution (0 when
    /// it did not watch it).
    #[must_use]
    pub fn peak_shadow_words(&self, choice: DetectorChoice) -> usize {
        self.watchers
            .watched(choice)
            .map_or(0, |m| m.watcher.peak_shadow_words())
    }

    /// The report of `race`, one of [`DetectorArena::races`]`(choice)`:
    /// its name, stacks and locksets resolved. Valid until the next run
    /// resets the depot and the detector's interners.
    ///
    /// # Panics
    ///
    /// Panics if `choice` did not watch the last execution.
    #[must_use]
    pub fn report(&self, choice: DetectorChoice, race: &Race) -> RaceReport {
        let member = self
            .watchers
            .watched(choice)
            .expect("only a detector that watched the last execution has races to report");
        member.watcher.report(race)
    }

    /// One outcome per position in `choices`, the last execution's
    /// detectors, over `events` events, every race reported; a choice
    /// named twice repeats its first outcome.
    fn outcomes(&self, choices: &[DetectorChoice], events: u64) -> Vec<ReplayOutcome> {
        let mut watched: Vec<ReplayOutcome> = Vec::with_capacity(choices.len());
        for (pos, &choice) in choices.iter().enumerate() {
            let reports = match choices[..pos].iter().position(|&c| c == choice) {
                Some(first) => watched[first].reports.clone(),
                None => self
                    .races(choice)
                    .iter()
                    .map(|race| self.report(choice, race))
                    .collect(),
            };
            watched.push(ReplayOutcome {
                reports,
                events,
                peak_shadow_words: self.peak_shadow_words(choice),
            });
        }
        watched
    }

    /// Drives the watchers of `choices` over a recorded execution, its
    /// stacks and names already in the arena depot, as the kernel would.
    fn watch(&mut self, choices: &[DetectorChoice], trace: &Trace) -> Vec<ReplayOutcome> {
        let watchers = &mut self.watchers;
        watchers.select(choices);
        watchers.on_run_start(&self.depot);
        for event in &trace.events {
            watchers.on_event(event);
        }
        self.outcomes(choices, trace.events.len() as u64)
    }

    /// Analyzes a recorded trace offline under `choice`, reusing this
    /// arena's detector instance and rebuilding the trace's depot snapshot
    /// into the arena depot. Reports are bit-identical to a live
    /// [`DetectorArena::run`] of the recorded `(seed, strategy)`.
    pub fn replay(&mut self, choice: DetectorChoice, trace: &Trace) -> ReplayOutcome {
        trace.rebuild_depot_into(&self.depot);
        self.watch(&[choice], trace)
            .pop()
            .expect("one outcome per choice")
    }

    /// Replays one recorded trace under **all four** detector algorithms,
    /// in one pass. Each algorithm's reports are pinned bit-identical to
    /// its live run by the replay-fidelity tests.
    pub fn replay_all(&mut self, trace: &Trace) -> Vec<(DetectorChoice, ReplayOutcome)> {
        let choices = DetectorChoice::all_with_ablation();
        trace.rebuild_depot_into(&self.depot);
        choices
            .into_iter()
            .zip(self.watch(&choices, trace))
            .collect()
    }

    /// Fans one [`DecodedTrace`] through the given algorithms in one pass
    /// over its events — the offline counterpart of
    /// [`DetectorArena::run_many`], with the same outcomes. The depot
    /// snapshot is rebuilt once, spanned into `sink` as `replay.decode`,
    /// and the pass is spanned as `replay.analyze`; nothing else is
    /// reported. Every caller in the workspace passes
    /// [`NULL_SINK`](grs_obs::NULL_SINK) — a campaign folds its figures
    /// from its records; the parameter stays because `benchmark/` calls
    /// this signature.
    pub fn replay_many_decoded_observed(
        &mut self,
        decoded: &DecodedTrace,
        choices: &[DetectorChoice],
        sink: &dyn ObsSink,
    ) -> Vec<(DetectorChoice, ReplayOutcome)> {
        {
            let _span = SpanGuard::enter(sink, "replay.decode");
            decoded.rebuild_depot_into(&self.depot);
        }
        let watched = {
            let _span = SpanGuard::enter(sink, "replay.analyze");
            self.watch(choices, decoded)
        };
        choices.iter().copied().zip(watched).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::tests::racy_program;
    use grs_runtime::Strategy;

    /// The arena path must be report-for-report identical to fresh
    /// detectors, for every algorithm, across interleavings — reuse is an
    /// allocation optimization, not a semantic change.
    #[test]
    fn arena_matches_fresh_detectors() {
        let p = racy_program();
        for choice in [
            DetectorChoice::FastTrack,
            DetectorChoice::PureVectorClock,
            DetectorChoice::Eraser,
            DetectorChoice::Hybrid,
        ] {
            let mut arena = DetectorArena::new();
            for seed in 0..24 {
                let cfg = RunConfig {
                    seed,
                    strategy: Strategy::Random,
                    ..RunConfig::default()
                };
                let (fresh_o, fresh_r) = choice.run(&p, cfg.clone());
                let (arena_o, arena_r) = arena.run(choice, &p, cfg);
                assert_eq!(fresh_o.steps, arena_o.steps, "{choice} seed {seed}");
                assert_eq!(fresh_r.len(), arena_r.len(), "{choice} seed {seed}");
                for (a, b) in fresh_r.iter().zip(arena_r.iter()) {
                    assert_eq!(a.site_key(), b.site_key(), "{choice} seed {seed}");
                    assert_eq!(
                        format!("{a}"),
                        format!("{b}"),
                        "{choice} seed {seed}: full report text must match"
                    );
                }
            }
        }
    }

    /// Run stats flow through the arena path: events are counted and the
    /// depot holds the last run's stacks.
    #[test]
    fn arena_runs_carry_stats() {
        let p = racy_program();
        let mut arena = DetectorArena::new();
        let (o, _) = arena.run(DetectorChoice::Hybrid, &p, RunConfig::with_seed(3));
        assert!(o.stats.events_dispatched > 0);
        assert!(o.stats.depot_stacks > 0);
        assert!(!arena.depot().is_empty());
    }

    /// A member's peak belongs to its run: it reads 0 once a run it did
    /// not watch has replaced it, and a later, smaller run starts it over.
    #[test]
    fn a_members_peak_ends_with_its_run() {
        let cfg = RunConfig::with_seed(3);
        let mut arena = DetectorArena::new();
        let _ = arena.execute(&[DetectorChoice::Hybrid], &racy_program(), cfg.clone());
        let racy_peak = arena.peak_shadow_words(DetectorChoice::Hybrid);
        assert!(racy_peak > 0);
        let _ = arena.execute(&[DetectorChoice::Eraser], &racy_program(), cfg.clone());
        assert_eq!(arena.peak_shadow_words(DetectorChoice::Hybrid), 0);
        assert!(arena.peak_shadow_words(DetectorChoice::Eraser) > 0);

        let small = Program::new("one_write", |ctx| {
            let x = ctx.cell("x", 0i64);
            ctx.write(&x, 1);
        });
        let _ = arena.execute(&[DetectorChoice::Hybrid], &small, cfg.clone());
        let mut fresh = DetectorArena::new();
        let _ = fresh.execute(&[DetectorChoice::Hybrid], &small, cfg);
        let small_peak = fresh.peak_shadow_words(DetectorChoice::Hybrid);
        assert!(small_peak < racy_peak);
        assert_eq!(arena.peak_shadow_words(DetectorChoice::Hybrid), small_peak);
    }

    #[test]
    fn detector_choice_runs_each_algorithm() {
        let p = racy_program();
        for choice in DetectorChoice::all_with_ablation() {
            let found = (0..20).any(|seed| !choice.run(&p, RunConfig::with_seed(seed)).1.is_empty());
            assert!(found, "{choice} never detected the race");
        }
    }
}
