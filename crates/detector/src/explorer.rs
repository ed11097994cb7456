//! The interleaving explorer: rerun a program across seeds, aggregate races.
//!
//! Dynamic race detection is schedule-dependent — the central deployment
//! problem of §3.2: "the detected set of races depend on the thread
//! interleavings and can vary across multiple runs, even though the input
//! to the program remains unchanged." The explorer makes that first-class:
//! it reruns a program under many seeds (optionally mixing strategies),
//! deduplicates the races found, and reports the per-run detection
//! probability, which the deployment simulator (`grs-deploy`) uses as the
//! flakiness parameter of daily test runs.
//!
//!
//! The explorer runs every seed on the calling thread; the parallel driver
//! over many programs is the campaign engine (`grs-fleet`).

use grs_runtime::{Program, RunConfig, RunOutcome, Strategy, Trace};

use crate::arena::DetectorArena;
use crate::replay::ReplayOutcome;
use crate::report::RaceReport;

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

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Number of runs.
    pub runs: usize,
    /// First seed; run `i` uses `base_seed + i`, wrapping past `u64::MAX`.
    pub base_seed: u64,
    /// Scheduling strategy for every run.
    pub strategy: Strategy,
    /// Per-run step budget.
    pub max_steps: u64,
    /// Detection algorithm for every run.
    pub detector: DetectorChoice,
}

/// The host's available parallelism, with a safe fallback of 1.
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl ExploreConfig {
    /// An exploration of `runs` runs with the default knobs — the entry
    /// point of the builder API, which is the **stable** way to construct a
    /// config:
    ///
    /// ```
    /// use grs_detector::{DetectorChoice, ExploreConfig};
    ///
    /// let cfg = ExploreConfig::new(64)
    ///     .base_seed(7)
    ///     .detector(DetectorChoice::FastTrack);
    /// assert_eq!(cfg.runs, 64);
    /// ```
    ///
    /// The fields stay `pub` for matching and ad-hoc tweaks, but new knobs
    /// are only guaranteed to get builder methods; struct-literal
    /// construction may break when fields are added.
    #[must_use]
    pub fn new(runs: usize) -> Self {
        ExploreConfig::quick().runs(runs)
    }

    /// 30 random-walk runs — enough for the depth-2 races that dominate the
    /// study's corpus.
    #[must_use]
    pub fn quick() -> Self {
        ExploreConfig {
            runs: 30,
            base_seed: 1,
            strategy: Strategy::Random,
            max_steps: 1_000_000,
            detector: DetectorChoice::Hybrid,
        }
    }

    /// 200 random-walk runs — for stubborn interleavings and statistics.
    #[must_use]
    pub fn thorough() -> Self {
        ExploreConfig {
            runs: 200,
            ..ExploreConfig::quick()
        }
    }

    /// Sets the number of runs (builder style).
    #[must_use]
    pub fn runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Sets the base seed (builder style).
    #[must_use]
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Sets the strategy (builder style).
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the detection algorithm (builder style).
    #[must_use]
    pub fn detector(mut self, detector: DetectorChoice) -> Self {
        self.detector = detector;
        self
    }

    /// Sets the per-run step budget (builder style).
    #[must_use]
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self::quick()
    }
}

/// Aggregated result of exploring one program.
#[derive(Debug)]
pub struct ExploreResult {
    /// Program name.
    pub program: String,
    /// Total runs executed.
    pub runs: usize,
    /// Runs in which at least one race was reported.
    pub racy_runs: usize,
    /// Distinct races across all runs (within-explorer dedup by site).
    pub unique_races: Vec<RaceReport>,
    /// Runs that deadlocked.
    pub deadlock_runs: usize,
    /// Runs that leaked goroutines.
    pub leaked_runs: usize,
    /// Runs with Go-level runtime errors (panics).
    pub error_runs: usize,
    /// Outcome of the first run (representative sample for diagnostics).
    pub sample_outcome: Option<RunOutcome>,
}

impl ExploreResult {
    /// True when any run exposed a race.
    #[must_use]
    pub fn found_race(&self) -> bool {
        !self.unique_races.is_empty()
    }

    /// Fraction of runs that exposed at least one race — the flakiness the
    /// paper's deployment design works around. Zero (not NaN) when no run
    /// was executed.
    #[must_use]
    pub fn detection_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.racy_runs as f64 / self.runs as f64
        }
    }
}

/// Reruns programs under many schedules and aggregates the races.
///
/// See the crate-level example.
#[derive(Debug, Clone, Default)]
pub struct Explorer {
    config: ExploreConfig,
}

impl Explorer {
    /// An explorer with the given configuration.
    #[must_use]
    pub fn new(config: ExploreConfig) -> Self {
        Explorer { config }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ExploreConfig {
        &self.config
    }

    fn run_config(&self, run: usize) -> RunConfig {
        RunConfig {
            seed: self.config.base_seed.wrapping_add(run as u64),
            strategy: self.config.strategy,
            max_steps: self.config.max_steps,
            ..RunConfig::default()
        }
    }

    /// Explores `program`, returning aggregated races and statistics. One
    /// detector instance monitors every run.
    #[must_use]
    pub fn explore(&self, program: &Program) -> ExploreResult {
        let mut result = ExploreResult {
            program: program.name().to_string(),
            runs: self.config.runs,
            racy_runs: 0,
            unique_races: Vec::new(),
            deadlock_runs: 0,
            leaked_runs: 0,
            error_runs: 0,
            sample_outcome: None,
        };
        let mut arena = DetectorArena::new();
        let mut seen = std::collections::HashSet::new();
        for i in 0..self.config.runs {
            let run_cfg = self.run_config(i);
            let seed = run_cfg.seed;
            let (outcome, reports) = arena.run(self.config.detector, program, run_cfg);
            if !reports.is_empty() {
                result.racy_runs += 1;
            }
            for mut r in reports {
                r.program = Some(std::sync::Arc::from(program.name()));
                r.repro_seed = Some(seed);
                r.repro = Some(grs_runtime::ReproArtifact::seeded(
                    seed,
                    self.config.strategy,
                ));
                if seen.insert(r.site_key()) {
                    result.unique_races.push(r);
                }
            }
            if outcome.deadlock.is_some() {
                result.deadlock_runs += 1;
            }
            if !outcome.leaked.is_empty() {
                result.leaked_runs += 1;
            }
            if !outcome.errors.is_empty() {
                result.error_runs += 1;
            }
            if result.sample_outcome.is_none() {
                result.sample_outcome = Some(outcome);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn racy_program() -> Program {
        Program::new("racy_counter", |ctx| {
            let x = ctx.cell("x", 0i64);
            let done = ctx.chan::<()>("done", 2);
            for _ in 0..2 {
                let (x, done) = (x.clone(), done.clone());
                ctx.go("w", move |ctx| {
                    ctx.update(&x, |v| v + 1);
                    done.send(ctx, ());
                });
            }
            for _ in 0..2 {
                let _ = done.recv(ctx);
            }
        })
    }

    #[test]
    fn detection_rate_is_zero_not_nan_for_zero_runs() {
        let r = Explorer::new(ExploreConfig::quick().runs(0)).explore(&racy_program());
        assert_eq!(r.runs, 0);
        assert_eq!(r.detection_rate(), 0.0);
        assert!(r.detection_rate().is_finite());
        assert!(!r.found_race());
        assert!(r.sample_outcome.is_none());
    }

    #[test]
    fn detector_choice_runs_each_algorithm() {
        let p = racy_program();
        for choice in [
            DetectorChoice::FastTrack,
            DetectorChoice::PureVectorClock,
            DetectorChoice::Eraser,
            DetectorChoice::Hybrid,
        ] {
            let mut found = false;
            for seed in 0..20 {
                let (_, reports) = choice.run(&p, RunConfig::with_seed(seed));
                if !reports.is_empty() {
                    found = true;
                    break;
                }
            }
            assert!(found, "{choice} never detected the race");
        }
    }
}
