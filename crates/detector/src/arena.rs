//! Reusable detector state for run campaigns.
//!
//! A campaign executes thousands of short runs (§3.2's flakiness means each
//! program is rerun across many seeds). Constructing a fresh detector per run
//! throws away warmed-up shadow maps, vector-clock buffers, and the stack
//! depot's trie on every iteration. [`DetectorArena`] keeps one long-lived
//! instance of each detector plus one [`StackDepot`], and reuses them for
//! every run: [`Monitor::on_run_start`](grs_runtime::Monitor::on_run_start)
//! clears the *contents* at the start of each run but keeps the container
//! allocations, so steady-state campaign runs allocate close to nothing.
//!
//! Determinism is unaffected: `reset()` restores every detector (and the
//! depot, via [`Runtime::run_with_depot`]) to its initial logical state, so
//! a run through an arena produces byte-identical reports to a run through a
//! fresh detector — [`DetectorChoice::run`] and [`DetectorArena::run`] are
//! interchangeable, and the tests below pin that equivalence.

use grs_obs::{ObsSink, SpanGuard};
use grs_runtime::{DecodedTrace, Program, RunConfig, RunOutcome, Runtime, StackDepot, Trace};

use crate::eraser::Eraser;
use crate::explorer::DetectorChoice;
use crate::fasttrack::{FastTrack, FastTrackConfig};
use crate::replay::{replay_decoded_prepared, replay_trace, Detector, ReplayOutcome};
use crate::report::RaceReport;
use crate::tsan::Tsan;

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
    detectors: Detectors,
}

/// One detector per [`DetectorChoice`].
#[derive(Debug)]
struct Detectors {
    fasttrack: Slot,
    pure_vc: Slot,
    eraser: Slot,
    hybrid: Slot,
}

/// Where the arena keeps one detector. The runtime takes its monitor by
/// value and hands it back, so a live run moves the detector out of its
/// slot and back in; between calls a slot is never empty.
type Slot = Option<Box<dyn Detector>>;

/// Why taking a detector out of its [`Slot`] cannot fail.
const IN_SLOT: &str = "a detector leaves its slot only for the length of a run";

impl Detectors {
    /// The one place a [`DetectorChoice`] becomes a detector.
    fn slot(&mut self, choice: DetectorChoice) -> &mut Slot {
        match choice {
            DetectorChoice::FastTrack => &mut self.fasttrack,
            DetectorChoice::PureVectorClock => &mut self.pure_vc,
            DetectorChoice::Eraser => &mut self.eraser,
            DetectorChoice::Hybrid => &mut self.hybrid,
        }
    }

    fn get(&mut self, choice: DetectorChoice) -> &mut dyn Detector {
        self.slot(choice).as_deref_mut().expect(IN_SLOT)
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
            detectors: Detectors {
                fasttrack: Some(Box::new(FastTrack::new())),
                pure_vc: Some(Box::new(FastTrack::with_config(FastTrackConfig::pure_vc()))),
                eraser: Some(Box::new(Eraser::new())),
                hybrid: Some(Box::new(Tsan::new())),
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
        let slot = self.detectors.slot(choice);
        let detector = slot.take().expect(IN_SLOT);
        let (outcome, mut detector) =
            Runtime::new(cfg).run_with_depot(program, detector, &self.depot);
        let reports = detector.take_reports();
        *slot = Some(detector);
        (outcome, reports)
    }

    /// Analyzes a recorded trace offline under `choice`, reusing this
    /// arena's detector instance and rebuilding the trace's depot snapshot
    /// into the arena depot. Reports are bit-identical to a live
    /// [`DetectorArena::run`] of the recorded `(seed, strategy)`.
    pub fn replay(&mut self, choice: DetectorChoice, trace: &Trace) -> ReplayOutcome {
        replay_trace(self.detectors.get(choice), trace, &self.depot)
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

    /// Fans one [`DecodedTrace`] through the given algorithms via each
    /// detector's struct-of-arrays hot loop — the execute-once/analyze-many
    /// core of the replay campaign. The depot snapshot is rebuilt once
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
                    replay_decoded_prepared(self.detectors.get(choice), decoded, &self.depot)
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
}
