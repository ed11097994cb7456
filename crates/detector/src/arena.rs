//! Reusable detector state for run campaigns.
//!
//! A campaign executes thousands of short runs (§3.2's flakiness means each
//! program is rerun across many seeds). Constructing a fresh detector per run
//! throws away warmed-up shadow maps, vector-clock buffers, and the stack
//! depot's trie on every iteration. [`DetectorArena`] keeps one long-lived
//! shadow of each detector plus one [`StackDepot`], and reuses them for
//! every run: [`Monitor::on_run_start`] clears the *contents* at the start
//! of each run but keeps the container allocations, so steady-state
//! campaign runs allocate close to nothing.
//!
//! Determinism is unaffected: a run's start returns each watching detector
//! (and the depot, via [`Runtime::run_with_depot`]) to its initial logical
//! state, so a run through an arena produces byte-identical reports to a
//! run through a fresh one — [`DetectorChoice::run`] and
//! [`DetectorArena::run`] are interchangeable, and the tests below pin that
//! equivalence.
//!
//! The arena's watchers are the crate's one detector assembly: one
//! execution's shared state (clocks, held locks, lockset interner, depot:
//! `crate::hb`) and the three shadows that read it: FastTrack's, pure
//! vector clocks' and Eraser's. The hybrid has none of its own: it is
//! FastTrack's shadow reported with the locks each access held, so the two
//! watching one execution cost one shadow. An execution has one
//! fan-out, live ([`DetectorArena::execute`]) or replayed
//! ([`DetectorArena::analyze`], or [`DetectorArena::analyze_encoded`]
//! straight from the bytes): it is taken once, and every requested
//! detector's shadow watches each event. A run's
//! interleaving is a function of its seed and strategy alone (the scheduler
//! never consults the monitor), so each detector sees exactly the events it
//! would have seen watching the run alone.
//!
//! What an execution leaves is each detector's [`Race`]s — ids into the
//! arena depot and the execution's lockset interner — and its peak shadow
//! words, which the detector keeps itself as its count rises; both last
//! until the next run resets them. [`DetectorArena::report`] builds the
//! report of one, for every detector; the report-returning entry points
//! ([`DetectorArena::run`], [`DetectorArena::replay`] and their fan-outs)
//! execute or analyze, then report every race.

use grs_obs::{ObsSink, SpanGuard};
use grs_runtime::{
    replay_encoded, DecodedTrace, Event, Monitor, Program, ReproArtifact, RunConfig, RunOutcome,
    Runtime, StackDepot, Trace, TraceDecodeError,
};

use crate::eraser::LocksetShadow;
use crate::fasttrack::Shadow;
use crate::hb::Execution;
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

/// One long-lived shadow of each detection algorithm (the hybrid reads
/// FastTrack's) plus a shared stack depot, reused across runs.
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
    /// Every detector and the execution's shared state: the monitor during
    /// a live run, which takes them by value, and at home between runs. A
    /// placeholder left in their stead would cost an interner and a depot
    /// of its own per run.
    watchers: Option<Watchers>,
}

/// The arena's watchers are away only while a live run has them, when no
/// method of the arena can run.
const HOME: &str = "the watchers are home between runs";

/// The crate's one detector assembly, and the monitor of every execution,
/// live or replayed: the three variable shadows and the detectors selected
/// to watch. FastTrack's shadow watches when FastTrack or the hybrid is
/// selected, and is the hybrid's too: the hybrid is FastTrack's verdicts
/// reported with the locks each access held. Each watching shadow sees
/// every event in order. The shadows share `exec`, which takes each
/// event's first step before any shadow sees it and its second after all
/// have; it advances its clocks only when a happens-before detector is
/// selected, and its held locks only when Eraser or the hybrid is. Each
/// shadow keeps its own shadow-word peak; the watchers' peak is the
/// largest watching shadow's, read when asked for.
#[derive(Debug)]
pub(crate) struct Watchers {
    exec: Execution,
    fasttrack: Shadow,
    pure_vc: Shadow,
    eraser: LocksetShadow,
    /// Whether each detector watches, indexed by [`DetectorChoice`]
    /// discriminant.
    selected: [bool; 4],
}

impl Default for Watchers {
    /// The three shadows, no detector selected.
    fn default() -> Self {
        Watchers {
            exec: Execution::default(),
            fasttrack: Shadow::new(false),
            pure_vc: Shadow::new(true),
            eraser: LocksetShadow::default(),
            selected: [false; 4],
        }
    }
}

impl Watchers {
    /// Selects `choices` as the next run's watchers.
    fn select(&mut self, choices: &[DetectorChoice]) {
        self.selected = [false; 4];
        for &choice in choices {
            self.selected[choice as usize] = true;
        }
        self.exec.watched_by(choices.iter().copied());
    }

    #[inline]
    fn selects(&self, choice: DetectorChoice) -> bool {
        self.selected[choice as usize]
    }

    /// Whether FastTrack's shadow watches: for FastTrack, or the hybrid.
    #[inline]
    fn fasttrack_watches(&self) -> bool {
        self.selects(DetectorChoice::FastTrack) || self.selects(DetectorChoice::Hybrid)
    }

    /// The races and peak shadow words of `choice`'s shadow, if `choice`
    /// watched the last execution.
    fn watched(&self, choice: DetectorChoice) -> Option<(&[Race], usize)> {
        self.selects(choice).then(|| match choice {
            DetectorChoice::FastTrack | DetectorChoice::Hybrid => {
                (self.fasttrack.races(), self.fasttrack.peak_words())
            }
            DetectorChoice::PureVectorClock => (self.pure_vc.races(), self.pure_vc.peak_words()),
            DetectorChoice::Eraser => (self.eraser.races(), self.eraser.peak_words()),
        })
    }

    /// Watches a recorded execution, its stacks and names already in
    /// `depot`, with the detectors `choices`, as the kernel would.
    pub(crate) fn watch(
        &mut self,
        choices: &[DetectorChoice],
        depot: &StackDepot,
        events: &[Event],
    ) {
        self.select(choices);
        self.on_run_start(depot);
        for event in events {
            self.on_event(event);
        }
    }

    /// The report of `race`, which `choice` found in the last execution.
    fn report(&self, choice: DetectorChoice, race: &Race) -> RaceReport {
        race.report(&self.exec.depot, &self.exec.locksets, choice)
    }

    /// What `choice` found in the last execution, of `events` events,
    /// every race reported.
    ///
    /// # Panics
    ///
    /// Panics if `choice` did not watch the last execution.
    pub(crate) fn outcome(&self, choice: DetectorChoice, events: u64) -> ReplayOutcome {
        let (races, peak_shadow_words) = self.watched(choice).expect(UNWATCHED);
        ReplayOutcome {
            reports: races.iter().map(|race| self.report(choice, race)).collect(),
            events,
            peak_shadow_words,
        }
    }
}

/// The message of a report asked of a detector that did not watch.
const UNWATCHED: &str = "only a detector that watched the last execution has races to report";

impl Monitor for Watchers {
    fn on_run_start(&mut self, depot: &StackDepot) {
        self.exec.on_run_start(depot);
        if self.fasttrack_watches() {
            self.fasttrack.reset();
        }
        if self.selects(DetectorChoice::PureVectorClock) {
            self.pure_vc.reset();
        }
        if self.selects(DetectorChoice::Eraser) {
            self.eraser.reset();
        }
    }

    fn on_event(&mut self, event: &Event) {
        self.exec.before(event);
        if self.fasttrack_watches() {
            self.fasttrack.on_event(&self.exec, event);
        }
        if self.selects(DetectorChoice::PureVectorClock) {
            self.pure_vc.on_event(&self.exec, event);
        }
        if self.selects(DetectorChoice::Eraser) {
            self.eraser.on_event(&mut self.exec, event);
        }
        self.exec.after(event);
    }

    fn peak_shadow_words(&self) -> usize {
        DetectorChoice::all_with_ablation()
            .into_iter()
            .filter_map(|choice| self.watched(choice))
            .map(|(_, peak)| peak)
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
        DetectorArena {
            depot: StackDepot::new(),
            watchers: Some(Watchers::default()),
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
        let outcome = self.execute(&[choice], program, cfg);
        let events = outcome.stats.events_dispatched;
        (outcome, self.watchers().outcome(choice, events).reports)
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
        let mut watchers = self.watchers.take().expect(HOME);
        watchers.select(choices);
        let (outcome, watchers) = Runtime::new(cfg).run_with_depot(program, watchers, &self.depot);
        self.watchers = Some(watchers);
        outcome
    }

    /// The races `choice` found in the last execution, in detection order
    /// (none when it did not watch it).
    #[must_use]
    pub fn races(&self, choice: DetectorChoice) -> &[Race] {
        self.watchers()
            .watched(choice)
            .map_or(&[], |(races, _)| races)
    }

    /// The peak shadow words of `choice` over the last execution (0 when
    /// it did not watch it).
    #[must_use]
    pub fn peak_shadow_words(&self, choice: DetectorChoice) -> usize {
        self.watchers().watched(choice).map_or(0, |(_, peak)| peak)
    }

    /// The report of `race`, one of [`DetectorArena::races`]`(choice)`:
    /// its name, stacks and locksets resolved. Valid until the next run
    /// resets the depot and the execution's interner.
    ///
    /// # Panics
    ///
    /// Panics if `choice` did not watch the last execution.
    #[must_use]
    pub fn report(&self, choice: DetectorChoice, race: &Race) -> RaceReport {
        let watchers = self.watchers();
        assert!(watchers.watched(choice).is_some(), "{UNWATCHED}");
        watchers.report(choice, race)
    }

    fn watchers(&self) -> &Watchers {
        self.watchers.as_ref().expect(HOME)
    }

    /// One outcome per position in `choices`, the last execution's
    /// detectors, over `events` events, every race reported; a choice
    /// named twice repeats its first outcome.
    fn outcomes(&self, choices: &[DetectorChoice], events: u64) -> Vec<ReplayOutcome> {
        let watchers = self.watchers();
        let mut watched: Vec<ReplayOutcome> = Vec::with_capacity(choices.len());
        for (pos, &choice) in choices.iter().enumerate() {
            watched.push(match choices[..pos].iter().position(|&c| c == choice) {
                Some(first) => ReplayOutcome {
                    reports: watched[first].reports.clone(),
                    ..watched[first]
                },
                None => watchers.outcome(choice, events),
            });
        }
        watched
    }

    /// Analyzes a recorded trace offline, watched by every detector in
    /// `choices` at once — the replayed twin of [`DetectorArena::execute`]:
    /// the trace's depot snapshot is rebuilt into the arena depot, and what
    /// each detector found is kept, as ids, until the next run.
    pub fn analyze(&mut self, choices: &[DetectorChoice], trace: &Trace) {
        trace.rebuild_depot_into(&self.depot);
        let watchers = self.watchers.as_mut().expect(HOME);
        watchers.watch(choices, &self.depot, &trace.events);
    }

    /// Decodes an encoded trace and analyzes it in the same pass, watched
    /// by every detector in `choices` at once: [`DetectorArena::analyze`]
    /// of [`Trace::decode`]`(bytes)`, with no [`Trace`] between. The stack
    /// table becomes the arena depot's new generation, and the detectors
    /// see each event as it is decoded ([`replay_encoded`]). Returns the
    /// recorded program's name and the seed and strategy that reproduce
    /// its run.
    ///
    /// # Errors
    ///
    /// As [`Trace::decode`]. The detectors have then watched the events
    /// before the error, and what they found belongs to no trace: report
    /// none of it.
    pub fn analyze_encoded<'a>(
        &mut self,
        choices: &[DetectorChoice],
        bytes: &'a [u8],
    ) -> Result<(&'a str, ReproArtifact), TraceDecodeError> {
        let watchers = self.watchers.as_mut().expect(HOME);
        watchers.select(choices);
        replay_encoded(bytes, &self.depot, watchers)
    }

    /// Analyzes a recorded trace offline under `choice`, every race
    /// reported. Reports are bit-identical to a live [`DetectorArena::run`]
    /// of the recorded `(seed, strategy)`.
    pub fn replay(&mut self, choice: DetectorChoice, trace: &Trace) -> ReplayOutcome {
        self.analyze(&[choice], trace);
        self.watchers().outcome(choice, trace.events.len() as u64)
    }

    /// Replays one recorded trace under **all four** detector algorithms,
    /// in one pass. Each algorithm's reports are pinned bit-identical to
    /// its live run by the replay-fidelity tests.
    pub fn replay_all(&mut self, trace: &Trace) -> Vec<(DetectorChoice, ReplayOutcome)> {
        let choices = DetectorChoice::all_with_ablation();
        self.analyze(&choices, trace);
        let watched = self.outcomes(&choices, trace.events.len() as u64);
        choices.into_iter().zip(watched).collect()
    }

    /// Fans one [`DecodedTrace`] through the given algorithms in one pass
    /// over its events — the offline counterpart of
    /// [`DetectorArena::run_many`], with the same outcomes. The analysis is
    /// spanned into `sink` as `replay.analyze`; nothing else is reported.
    /// Every caller in the workspace passes
    /// [`NULL_SINK`](grs_obs::NULL_SINK) — a campaign folds its figures
    /// from its records; the parameter stays because `benchmark/` calls
    /// this signature.
    pub fn replay_many_decoded_observed(
        &mut self,
        decoded: &DecodedTrace,
        choices: &[DetectorChoice],
        sink: &dyn ObsSink,
    ) -> Vec<(DetectorChoice, ReplayOutcome)> {
        let _span = SpanGuard::enter(sink, "replay.analyze");
        self.analyze(choices, decoded);
        let watched = self.outcomes(choices, decoded.events.len() as u64);
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

    /// A detector's peak belongs to its run: it reads 0 once a run it did
    /// not watch has replaced it, and a later, smaller run starts it over.
    #[test]
    fn a_detectors_peak_ends_with_its_run() {
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
