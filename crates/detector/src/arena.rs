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
//! A live run has one path, [`DetectorArena::run_many`]: the run executes
//! once and every requested detector watches it. A run's interleaving is a
//! function of its seed and strategy alone (the scheduler never consults
//! the monitor), so each detector sees exactly the events it would have
//! seen watching the run alone.

use grs_obs::{ObsSink, SpanGuard};
use grs_runtime::{
    DecodedTrace, Event, Monitor, Program, RunConfig, RunOutcome, Runtime, StackDepot, Trace,
};

use crate::eraser::Eraser;
use crate::fasttrack::{FastTrack, FastTrackConfig};
use crate::replay::{replay_prepared, replay_trace, Detector, ReplayOutcome};
use crate::report::RaceReport;
use crate::tsan::Tsan;

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

    /// A fresh instance of this algorithm: the one place a choice becomes
    /// a detector.
    fn detector(self) -> Box<dyn Detector> {
        match self {
            DetectorChoice::FastTrack => Box::new(FastTrack::new()),
            DetectorChoice::PureVectorClock => {
                Box::new(FastTrack::with_config(FastTrackConfig::pure_vc()))
            }
            DetectorChoice::Eraser => Box::new(Eraser::new()),
            DetectorChoice::Hybrid => Box::new(Tsan::new()),
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

/// What taking a detector out of the arena cannot fail for.
const AT_HOME: &str = "the detectors leave the arena only for the length of a run";

/// One detector, and the peak of its shadow words over the current run.
#[derive(Debug)]
struct Member {
    choice: DetectorChoice,
    detector: Box<dyn Detector>,
    peak_shadow_words: usize,
}

/// The arena's detectors, one per [`DetectorChoice`], and the monitor of
/// every live run: the first `active` members watch it, each seeing every
/// event in order.
///
/// The kernel samples a lone monitor's shadow words after every event and
/// once after `on_run_end`; `Watchers` samples each active member at exactly
/// those points and reports the largest member peak so far as its own. So a
/// lone member costs what a lone detector did: one `on_event` and one
/// `shadow_words` call per event.
#[derive(Debug, Default)]
struct Watchers {
    members: Vec<Member>,
    active: usize,
    peak_shadow_words: usize,
}

impl Watchers {
    /// Moves the member of each distinct choice to the front, in order of
    /// first appearance, as the next run's watchers.
    fn select(&mut self, choices: &[DetectorChoice]) {
        self.active = 0;
        self.peak_shadow_words = 0;
        for &choice in choices {
            let idle = &self.members[self.active..];
            if let Some(i) = idle.iter().position(|m| m.choice == choice) {
                self.members.swap(self.active, self.active + i);
                self.members[self.active].peak_shadow_words = 0;
                self.active += 1;
            }
        }
    }

    fn member(&mut self, choice: DetectorChoice) -> &mut Member {
        self.members
            .iter_mut()
            .find(|m| m.choice == choice)
            .expect(AT_HOME)
    }

    /// Applies `f` to each active member, sampling its shadow words right
    /// after.
    fn each(&mut self, mut f: impl FnMut(&mut dyn Detector)) {
        for m in &mut self.members[..self.active] {
            f(m.detector.as_mut());
            m.peak_shadow_words = m.peak_shadow_words.max(m.detector.shadow_words());
            self.peak_shadow_words = self.peak_shadow_words.max(m.peak_shadow_words);
        }
    }
}

impl Monitor for Watchers {
    fn on_run_start(&mut self, depot: &StackDepot) {
        for m in &mut self.members[..self.active] {
            m.detector.on_run_start(depot);
        }
    }

    fn on_event(&mut self, event: &Event) {
        self.each(|d| d.on_event(event));
    }

    fn on_run_end(&mut self) {
        self.each(|d| d.on_run_end());
    }

    fn shadow_words(&self) -> usize {
        self.peak_shadow_words
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
                detector: choice.detector(),
                peak_shadow_words: 0,
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
        let mut watchers = std::mem::take(&mut self.watchers);
        watchers.select(choices);
        let (outcome, mut watchers) =
            Runtime::new(cfg).run_with_depot(program, watchers, &self.depot);
        let mut watched: Vec<ReplayOutcome> = Vec::with_capacity(choices.len());
        for (pos, &choice) in choices.iter().enumerate() {
            let member = watchers.member(choice);
            let reports = match choices[..pos].iter().position(|&c| c == choice) {
                Some(first) => watched[first].reports.clone(),
                None => member.detector.take_reports(),
            };
            watched.push(ReplayOutcome {
                reports,
                events: outcome.stats.events_dispatched,
                peak_shadow_words: member.peak_shadow_words,
            });
        }
        self.watchers = watchers;
        (outcome, watched)
    }

    /// Analyzes a recorded trace offline under `choice`, reusing this
    /// arena's detector instance and rebuilding the trace's depot snapshot
    /// into the arena depot. Reports are bit-identical to a live
    /// [`DetectorArena::run`] of the recorded `(seed, strategy)`.
    pub fn replay(&mut self, choice: DetectorChoice, trace: &Trace) -> ReplayOutcome {
        let detector = self.watchers.member(choice).detector.as_mut();
        replay_trace(detector, trace, &self.depot)
    }

    /// Replays one recorded trace under **all four** detector algorithms.
    /// Each algorithm's reports are pinned bit-identical to its live run by
    /// the replay-fidelity tests.
    pub fn replay_all(&mut self, trace: &Trace) -> Vec<(DetectorChoice, ReplayOutcome)> {
        DetectorChoice::all_with_ablation()
            .into_iter()
            .map(|choice| (choice, self.replay(choice, trace)))
            .collect()
    }

    /// Fans one [`DecodedTrace`] through the given algorithms — the
    /// offline counterpart of [`DetectorArena::run_many`]. The depot
    /// snapshot is rebuilt once
    /// (spanned as `replay.decode`) and shared; each analysis is spanned as
    /// `replay.analyze` and reports its counters (`detector.runs`,
    /// `runtime.events`, `replay.batches`, `replay.batch_events`, depot and
    /// shadow gauges) into `sink`. Every caller in the workspace passes
    /// [`NULL_SINK`](grs_obs::NULL_SINK) — a campaign folds those figures
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
        choices
            .iter()
            .map(|&choice| {
                let out = {
                    let _span = SpanGuard::enter(sink, "replay.analyze");
                    let detector = self.watchers.member(choice).detector.as_mut();
                    replay_prepared(detector, decoded, &self.depot)
                };
                sink.add("detector.runs", 1);
                sink.add("replay.analyses", 1);
                sink.add("runtime.events", out.events);
                sink.add("replay.batches", decoded.chunks);
                sink.add("replay.batch_events", out.events);
                sink.gauge_max("runtime.depot_stacks", decoded.stacks.len() as u64);
                sink.gauge_max("detector.peak_shadow_words", out.peak_shadow_words as u64);
                (choice, out)
            })
            .collect()
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
        assert!(o.stats.depot.stacks > 0);
        assert!(!arena.depot().is_empty());
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
