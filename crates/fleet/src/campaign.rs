//! Campaign orchestration: fan the run matrix over workers, dedup, file.
//!
//! This is the §3.3 nightly run modeled end to end. The paper's deployment
//! SSH-fans ~100K unit tests (each rerun under the race detector) across a
//! datacenter, collects the race reports, deduplicates by fingerprint, and
//! files tasks. Here:
//!
//! * the **matrix** is `(unit × seed × strategy × detector)`, enumerated
//!   deterministically; a [`RunSpec`] names one cell and its record;
//! * the **work item** is an [`ExecSpec`], one `(unit, seed, strategy)`:
//!   it executes once, watched by every configured detector at once
//!   ([`DetectorArena::execute`]), and folds one record per detector onto
//!   the matrix's spec indices;
//! * the **fan-out** is a pool of OS worker threads, each claiming the
//!   next whole *unit* from one shared counter: it builds the unit once,
//!   runs its `seeds_per_unit × strategies` executions, and drops it;
//! * the **dedup stage** is [`DedupMap`]: fingerprint-sharded concurrent
//!   aggregation with deterministic representatives. Races reach it as
//!   ids: each is fingerprinted from the worker's depot, and a report is
//!   built only for a race that takes a fingerprint's representative
//!   slot;
//! * the **filing** is [`grs_deploy::IntakeService`] via
//!   [`RaceBatch`](grs_deploy::RaceBatch) batched intake
//!   ([`CampaignResult::file_into_service`]).
//!
//! Every run is a self-contained deterministic `Runtime` instance, so the
//! campaign's deterministic output — run records and the deduped batch — is
//! identical for any worker count, including 1 (inline on the calling
//! thread). Only wall-clock changes.
//!
//! A campaign keeps its books once: the sorted [`RunRecord`]s (with the
//! batch's raw-report count) are the result, and
//! the obs export is folded from them after the workers have joined
//! (`fold_obs`). No worker touches a shared metrics sink.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use grs_deploy::{race_fingerprint_ids, Fingerprint};
use grs_detector::{DetectorArena, DetectorChoice, Race};
use grs_obs::hash::FnvMap;
use grs_obs::{Histogram, MetricsSnapshot, ObsReport};
use grs_runtime::{NameId, Program, ReproArtifact, RunConfig, StackId, Strategy};

use crate::dedup::DedupMap;
use crate::source::{GoSnippetSuite, UnitError, UnitList, UnitSource};
use crate::spec::{ExecSpec, RunSpec};

mod result;

use result::SkipLog;
pub use result::{CampaignResult, RunEnd, RunRecord, MAX_CONVERGENCE_POINTS, MAX_SKIP_REASONS};

/// One campaignable program.
#[derive(Debug, Clone)]
pub struct CampaignUnit {
    /// Display name (pattern id or listing name, `/racy` or `/fixed`).
    pub name: String,
    /// The executable program.
    pub program: Program,
    /// Ground truth, when known: does the unit contain a race?
    pub expected_racy: Option<bool>,
}

impl CampaignUnit {
    /// Pattern `p`'s racy (`<id>/racy`) or fixed (`<id>/fixed`) variant,
    /// with that variant's ground truth.
    #[must_use]
    pub fn pattern(p: &grs_patterns::Pattern, racy: bool) -> Self {
        let (variant, program) = if racy {
            ("racy", p.racy_program())
        } else {
            ("fixed", p.fixed_program())
        };
        CampaignUnit {
            name: format!("{}/{variant}", p.id),
            program,
            expected_racy: Some(racy),
        }
    }
}

/// The full §4 pattern corpus as campaign units.
///
/// Racy variants always; fixed variants too when `include_fixed` — the
/// fixed twins are the campaign's false-positive control group.
#[must_use]
pub fn pattern_suite(include_fixed: bool) -> Vec<CampaignUnit> {
    let mut units = Vec::new();
    for p in grs_patterns::registry() {
        units.push(CampaignUnit::pattern(&p, true));
        if include_fixed {
            units.push(CampaignUnit::pattern(&p, false));
        }
    }
    units
}

/// Go-source units compiled through the `grs-interp` frontend — the
/// campaign's "run the real test corpus" modality, next to the Rust-closure
/// pattern suite. Adapted from the paper's listings.
///
/// The sources live in [`grs_corpus::go_snippets`] and lower through the
/// same [`crate::source::lower_source_unit`] path as the generated corpus
/// ([`crate::source::GoCorpusSource`]) — one code path from Go source to
/// campaign unit. The embedded snippets are part of the build, so a
/// lowering failure here is a programming error and panics.
#[must_use]
pub fn corpus_suite() -> Vec<CampaignUnit> {
    let suite = GoSnippetSuite::new();
    (0..suite.len())
        .map(|i| {
            suite
                .build(i)
                .unwrap_or_else(|e| panic!("embedded snippet must lower: {e}"))
        })
        .collect()
}

/// The host's available parallelism, with a safe fallback of 1.
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seeds per `(unit, strategy, detector)` combination; seed `s` of a
    /// unit is `base_seed + s`, wrapping past `u64::MAX`.
    pub seeds_per_unit: usize,
    /// First seed.
    pub base_seed: u64,
    /// Scheduling strategies to cross in.
    pub strategies: Vec<Strategy>,
    /// Detection algorithms to cross in.
    pub detectors: Vec<DetectorChoice>,
    /// OS worker threads (1 = serial); a campaign starts at most one per
    /// unit.
    pub workers: usize,
    /// Lock stripes of the dedup map.
    pub shards: usize,
    /// Per-run step budget.
    pub max_steps: u64,
}

impl CampaignConfig {
    /// A small campaign — 8 seeds, random walks, hybrid detector — and the
    /// entry point of the builder API, which is the **stable** way to
    /// construct a config:
    ///
    /// ```
    /// use grs_fleet::CampaignConfig;
    ///
    /// let cfg = CampaignConfig::new().seeds_per_unit(16).workers(4);
    /// assert_eq!(cfg.seeds_per_unit, 16);
    /// ```
    ///
    /// The fields stay `pub` for matching and ad-hoc tweaks, but new knobs
    /// are only guaranteed to get builder methods; struct-literal
    /// construction may break when fields are added.
    #[must_use]
    pub fn new() -> Self {
        CampaignConfig {
            seeds_per_unit: 8,
            base_seed: 1,
            strategies: vec![Strategy::Random],
            detectors: vec![DetectorChoice::Hybrid],
            workers: default_workers(),
            shards: 2 * default_workers(),
            max_steps: 1_000_000,
        }
    }

    /// The nightly-scale configuration: 32 seeds, random + PCT walks,
    /// hybrid detector.
    #[must_use]
    pub fn nightly() -> Self {
        CampaignConfig {
            seeds_per_unit: 32,
            strategies: vec![Strategy::Random, Strategy::Pct { depth: 2 }],
            ..CampaignConfig::new()
        }
    }

    /// Sets the seed count (builder style).
    #[must_use]
    pub fn seeds_per_unit(mut self, n: usize) -> Self {
        self.seeds_per_unit = n;
        self
    }

    /// Sets the worker count, clamped to at least 1 (builder style).
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Sets the dedup map's lock-stripe count, clamped to at least 1
    /// (builder style).
    #[must_use]
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Sets the base seed (builder style).
    #[must_use]
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Sets the detector list (builder style).
    #[must_use]
    pub fn detectors(mut self, detectors: Vec<DetectorChoice>) -> Self {
        self.detectors = detectors;
        self
    }

    /// Sets the strategy list (builder style).
    #[must_use]
    pub fn strategies(mut self, strategies: Vec<Strategy>) -> Self {
        self.strategies = strategies;
        self
    }

    /// Sets the per-run step budget (builder style).
    #[must_use]
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Total runs this configuration produces over `units` units.
    #[must_use]
    pub fn matrix_size(&self, units: usize) -> usize {
        units * self.seeds_per_unit * self.strategies.len() * self.detectors.len()
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// The campaign engine.
///
/// A campaign is a configuration crossed with a [`UnitSource`]. The run
/// matrix `(unit × seed × strategy × detector)` is never materialized:
/// execution `i` and spec `i` are recovered arithmetically
/// ([`Campaign::exec_spec_at`], [`Campaign::spec_at`]), and each worker
/// claims a whole unit, lowers it, runs its executions and drops it —
/// which is what lets a 100K-unit source-level campaign run in memory
/// proportional to its *results*, not its corpus.
#[derive(Clone)]
pub struct Campaign {
    config: CampaignConfig,
    source: Arc<dyn UnitSource>,
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("config", &self.config)
            .field("units", &self.source.len())
            .finish()
    }
}

impl Campaign {
    /// A campaign over a lazy unit source.
    #[must_use]
    pub fn over_source(config: CampaignConfig, source: Arc<dyn UnitSource>) -> Self {
        Campaign { config, source }
    }

    /// A campaign over an explicit unit list.
    #[must_use]
    pub fn over_units(config: CampaignConfig, units: Vec<CampaignUnit>) -> Self {
        Self::over_source(config, Arc::new(UnitList::new(units)))
    }

    /// A campaign over the §4 pattern corpus (racy + fixed variants).
    #[must_use]
    pub fn over_patterns(config: CampaignConfig) -> Self {
        Self::over_units(config, pattern_suite(true))
    }

    /// The same campaign (same unit source) under a different
    /// configuration — the way differential tests compare worker counts
    /// without rebuilding or cloning the corpus.
    #[must_use]
    pub fn with_config(&self, config: CampaignConfig) -> Self {
        Campaign {
            config,
            source: Arc::clone(&self.source),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The unit source.
    #[must_use]
    pub fn source(&self) -> &Arc<dyn UnitSource> {
        &self.source
    }

    /// Number of units in the source.
    #[must_use]
    pub fn unit_count(&self) -> usize {
        self.source.len()
    }

    /// Builds unit `unit` (test/inspection helper).
    pub fn unit(&self, unit: usize) -> Result<CampaignUnit, UnitError> {
        self.source.build(unit)
    }

    /// Total specs in the run matrix.
    #[must_use]
    pub fn matrix_len(&self) -> usize {
        self.config.matrix_size(self.source.len())
    }

    /// Total executions in the work list: one per `(unit, seed, strategy)`.
    #[must_use]
    pub fn exec_len(&self) -> usize {
        self.source.len() * self.config.seeds_per_unit * self.config.strategies.len()
    }

    /// Recovers spec `index` of the deterministic enumeration
    /// (units → seeds → strategies → detectors, detectors innermost) by
    /// arithmetic — the lazy equivalent of indexing a materialized
    /// [`Campaign::specs`] vector.
    #[must_use]
    pub fn spec_at(&self, index: usize) -> RunSpec {
        let dets = self.config.detectors.len();
        self.exec_spec_at(index / dets)
            .run_spec(index % dets, self.config.detectors[index % dets])
    }

    /// Recovers execution `exec_index` of the execution enumeration
    /// (units → seeds → strategies), the lazy equivalent of indexing
    /// [`Campaign::exec_specs`].
    #[must_use]
    pub fn exec_spec_at(&self, exec_index: usize) -> ExecSpec {
        let strats = self.config.strategies.len();
        let strat = exec_index % strats;
        let rest = exec_index / strats;
        let seed = rest % self.config.seeds_per_unit;
        let unit = rest / self.config.seeds_per_unit;
        ExecSpec {
            exec_index,
            base_index: exec_index * self.config.detectors.len(),
            unit,
            seed: self.config.base_seed.wrapping_add(seed as u64),
            strategy: self.config.strategies[strat],
        }
    }

    /// Materializes the full spec matrix in deterministic order — an
    /// inspection/test helper; the run paths enumerate lazily via
    /// [`Campaign::spec_at`].
    #[must_use]
    pub fn specs(&self) -> Vec<RunSpec> {
        (0..self.matrix_len()).map(|i| self.spec_at(i)).collect()
    }

    /// Materializes the execution work list — an inspection/test
    /// helper; the run paths enumerate lazily via
    /// [`Campaign::exec_spec_at`].
    #[must_use]
    pub fn exec_specs(&self) -> Vec<ExecSpec> {
        (0..self.exec_len()).map(|i| self.exec_spec_at(i)).collect()
    }

    /// The per-run configuration of this campaign for one `(seed, strategy)`.
    fn run_config(&self, seed: u64, strategy: Strategy) -> RunConfig {
        RunConfig {
            seed,
            strategy,
            max_steps: self.config.max_steps,
            ..RunConfig::default()
        }
    }

    /// Executes `exec` once, watched by every configured detector through
    /// the worker's reusable arena, and folds one record per detector at
    /// its matrix spec. Each race is offered to the dedup stage as its
    /// fingerprint, computed once per execution for each object and stack
    /// pair the detectors share, and a report tagged with the unit and
    /// repro artifact is built only for a race that becomes (for now) its
    /// fingerprint's representative.
    fn execute(&self, exec: ExecSpec, unit: &HeldUnit, wk: &mut Worker<'_>) {
        let started = Instant::now();
        let detectors = &self.config.detectors;
        let outcome = wk.arena.execute(
            detectors,
            &unit.program,
            self.run_config(exec.seed, exec.strategy),
        );
        let duration = started.elapsed() / detectors.len() as u32;
        let repro = ReproArtifact::seeded(exec.seed, exec.strategy);
        let end = RunEnd::of(&outcome);
        let arena = &wk.arena;
        wk.fingerprints.clear();
        for (pos, &detector) in detectors.iter().enumerate() {
            let spec = exec.run_spec(pos, detector);
            let races = arena.races(detector);
            let mut fingerprints = Vec::with_capacity(races.len());
            for race in races {
                let fp = *wk
                    .fingerprints
                    .entry(fingerprint_key(race))
                    .or_insert_with(|| race_fingerprint_ids(arena.depot(), race));
                fingerprints.push(fp);
                wk.shared.dedup.insert_with(fp, spec.index, || {
                    let mut r = arena.report(detector, race);
                    r.program = Some(unit.name.clone());
                    r.repro_seed = Some(spec.seed);
                    r.repro = Some(repro.clone());
                    r
                });
            }
            fingerprints.sort_unstable();
            fingerprints.dedup();
            wk.records.push(RunRecord {
                spec,
                unit_name: unit.name.clone(),
                racy: !races.is_empty(),
                fingerprints,
                steps: outcome.steps,
                events: outcome.stats.events_dispatched,
                depot_stacks: outcome.stats.depot_stacks,
                peak_shadow_words: arena.peak_shadow_words(detector),
                end,
                duration,
            });
        }
    }

    /// One worker's share of a campaign, written once for every worker
    /// count: claim the next unit from `next`, build it or log the skip,
    /// run its executions, and repeat until every unit below `units` is
    /// claimed. Returns the worker's records.
    fn work(&self, shared: &Shared, next: &AtomicUsize, units: usize) -> Vec<RunRecord> {
        // One depot + detector arena per worker, reused for every execution
        // the worker runs; per-run state resets on run start, so placement
        // stays invisible in the deterministic outputs.
        let mut wk = Worker {
            shared,
            arena: DetectorArena::new(),
            fingerprints: FnvMap::default(),
            records: Vec::new(),
        };
        // The matrix enumerates a unit's executions consecutively.
        let per_unit = self.config.seeds_per_unit * self.config.strategies.len();
        loop {
            // The counter publishes no data, only unique claims: records and
            // skips travel through locks and the join.
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= units {
                break wk.records;
            }
            match self.source.build(index) {
                Ok(unit) => {
                    let unit = HeldUnit::new(unit);
                    for exec in index * per_unit..(index + 1) * per_unit {
                        self.execute(self.exec_spec_at(exec), &unit, &mut wk);
                    }
                }
                // Which units fail depends only on the source, never on
                // scheduling; a skipped unit leaves no record.
                Err(e) => {
                    let mut skips = shared.skips.lock().unwrap_or_else(PoisonError::into_inner);
                    skips.record(e);
                }
            }
        }
    }

    /// Runs the campaign over the full `(unit × seed × strategy ×
    /// detector)` matrix with `config.workers` threads, at most one per
    /// unit (inline on the calling thread when 1). Each `(unit, seed,
    /// strategy)` executes once, watched by every configured detector, and
    /// yields one record per detector; with no detector configured nothing
    /// is built or executed.
    #[must_use]
    pub fn run(&self) -> CampaignResult {
        let started = Instant::now();
        let units = if self.config.detectors.is_empty() || self.exec_len() == 0 {
            0
        } else {
            self.source.len()
        };
        let workers = self.config.workers.max(1).min(units.max(1));
        let shared = Shared {
            dedup: DedupMap::new(self.config.shards),
            skips: Mutex::default(),
        };
        let next = AtomicUsize::new(0);
        let mut records = if workers == 1 {
            // Inline on the calling thread: units in ascending order.
            self.work(&shared, &next, units)
        } else {
            let all = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let (shared, next, all) = (&shared, &next, &all);
                    scope.spawn(move || {
                        let records = self.work(shared, next, units);
                        all.lock().unwrap_or_else(PoisonError::into_inner).extend(records);
                    });
                }
            });
            all.into_inner().unwrap_or_else(PoisonError::into_inner)
        };
        records.sort_by_key(|r| r.spec.index);
        let skips = shared.skips.into_inner().unwrap_or_else(PoisonError::into_inner);
        let mut result = CampaignResult {
            records,
            batch: shared.dedup.into_batch(),
            units: (0..self.source.len()).map(|i| self.source.name(i)).collect(),
            units_skipped: skips.units,
            skip_reasons: skips.reasons,
            workers,
            wall: started.elapsed(),
            obs: ObsReport::default(),
        };
        result.obs = self.fold_obs(&result);
        result
    }

    /// The obs export of a finished campaign: a pure function of the
    /// result's other fields and the matrix shape
    /// (`tests/obs_determinism.rs` pins its stable section). A stable name
    /// appears once something was counted under it: the per-run figures
    /// when a run executed, `campaign.skipped_runs` when a unit failed to
    /// lower.
    fn fold_obs(&self, result: &CampaignResult) -> ObsReport {
        let records = &result.records;
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        let nanos = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);

        if !records.is_empty() {
            let runs = records.len() as u64;
            counters.extend([
                ("campaign.runs", runs),
                ("campaign.racy_runs", result.racy_runs() as u64),
                ("campaign.reports", result.batch.raw_reports()),
                ("detector.runs", runs),
                ("runtime.events", result.total_events()),
            ]);
            gauges.extend([
                ("detector.peak_shadow_words", result.peak_shadow_words() as u64),
                ("runtime.depot_stacks", result.max_depot_stacks() as u64),
            ]);
            let mut run_wall = Histogram::default();
            records.iter().for_each(|r| run_wall.observe_ns(nanos(r.duration)));
            histograms.push(("campaign.run_wall", run_wall));
        }
        if result.units_skipped > 0 {
            let skipped = self.matrix_len() - records.len();
            counters.push(("campaign.skipped_runs", skipped as u64));
        }
        let mut wall = Histogram::default();
        wall.observe_ns(nanos(result.wall));
        histograms.push(("campaign.wall", wall));

        let snapshot = MetricsSnapshot {
            counters: named(counters),
            gauges: named(gauges),
            histograms: named(histograms),
            ..MetricsSnapshot::default()
        };
        ObsReport::new("campaign/live", snapshot)
    }
}

/// A [`MetricsSnapshot`] section: `(name, value)` pairs sorted by name.
fn named<T>(mut pairs: Vec<(&str, T)>) -> Vec<(String, T)> {
    pairs.sort_unstable_by_key(|&(name, _)| name);
    pairs.into_iter().map(|(name, v)| (name.to_string(), v)).collect()
}

/// The stages every worker of one campaign shares.
struct Shared {
    dedup: DedupMap,
    skips: Mutex<SkipLog>,
}

/// The unit a worker has claimed: its program, and its name made once into
/// the `Arc<str>` every record and report of the unit shares.
struct HeldUnit {
    program: Program,
    name: Arc<str>,
}

impl HeldUnit {
    fn new(unit: CampaignUnit) -> Self {
        HeldUnit {
            program: unit.program,
            name: Arc::from(unit.name),
        }
    }
}

/// What one worker owns for the length of a campaign.
struct Worker<'a> {
    shared: &'a Shared,
    arena: DetectorArena,
    /// The fingerprints of the execution in hand, by [`fingerprint_key`];
    /// emptied per execution, its allocation kept.
    fingerprints: FnvMap<(NameId, StackId, StackId), Fingerprint>,
    records: Vec<RunRecord>,
}

/// What a race's fingerprint is a function of, in the ids of its run: the
/// object and the two stacks, either way round.
fn fingerprint_key(race: &Race) -> (NameId, StackId, StackId) {
    let (a, b) = (race.prior.stack, race.current.stack);
    (race.object, a.min(b), a.max(b))
}
#[cfg(test)]
mod tests;
