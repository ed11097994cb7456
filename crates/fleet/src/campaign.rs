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
//!   [`RaceBatch`] batched intake
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

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use grs_deploy::{race_fingerprint_ids, FileOutcome, Fingerprint, RaceBatch};
use grs_detector::{DetectorArena, DetectorChoice, Race, RaceReport};
use grs_obs::hash::FnvMap;
use grs_obs::{Fnv1a, Histogram, MetricsSnapshot, ObsReport};
use grs_runtime::{NameId, Program, ReproArtifact, RunConfig, RunOutcome, StackId, Strategy};

use crate::dedup::DedupMap;
use crate::source::{GoSnippetSuite, UnitError, UnitList, UnitSource};
use crate::spec::{ExecSpec, RunSpec};

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
    /// The smoke defaults — the entry point of the builder API, which is
    /// the **stable** way to construct a config:
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
        Self::smoke()
    }

    /// A small smoke campaign: 8 seeds, random walks, hybrid detector.
    #[must_use]
    pub fn smoke() -> Self {
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
            ..CampaignConfig::smoke()
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
        Self::smoke()
    }
}

/// The deterministic outcome of one run, tagged with its nondeterministic
/// duration.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The spec that produced this record.
    pub spec: RunSpec,
    /// Name of the unit executed, shared by every record and report of
    /// the unit.
    pub unit_name: Arc<str>,
    /// True when the run reported at least one race.
    pub racy: bool,
    /// Sorted, deduplicated fingerprints of the run's reports.
    pub fingerprints: Vec<Fingerprint>,
    /// Scheduler steps executed.
    pub steps: u64,
    /// Monitor events dispatched during the run (deterministic).
    pub events: u64,
    /// Distinct interned stacks in the run's depot at run end
    /// (deterministic).
    pub depot_stacks: usize,
    /// Peak shadow-word footprint of the run's detector (deterministic).
    pub peak_shadow_words: usize,
    /// How the run ended (deterministic). Not part of [`RunRecord::key`]:
    /// the pinned digests predate it, and it is a function of the fields
    /// they do cover.
    pub end: RunEnd,
    /// Wall time of the execution this record was watched in, divided
    /// evenly over the execution's detectors, so the records' durations sum
    /// to busy time (not deterministic).
    pub duration: Duration,
}

impl RunRecord {
    /// The deterministic projection of the record — equal across campaigns
    /// with any worker or shard count.
    #[must_use]
    pub fn key(&self) -> (usize, &str, u64, bool, &[Fingerprint], u64) {
        (
            self.spec.index,
            &self.unit_name,
            self.spec.seed,
            self.racy,
            &self.fingerprints,
            self.steps,
        )
    }
}

/// How one run ended, read from its [`RunOutcome`]: the non-race failures
/// a race campaign also observes (Listing 9's leaked Future sender, a
/// program that deadlocks, a Go-level panic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunEnd {
    /// The run deadlocked (main blocked, nothing runnable).
    pub deadlock: bool,
    /// Goroutines still blocked when main finished.
    pub leaked: usize,
    /// Go-level runtime errors (panics/throws) the program committed.
    pub errors: usize,
}

impl RunEnd {
    fn of(outcome: &RunOutcome) -> Self {
        RunEnd {
            deadlock: outcome.deadlock.is_some(),
            leaked: outcome.leaked.len(),
            errors: outcome.errors.len(),
        }
    }
}

/// Upper bound on [`CampaignResult::convergence`] sample points.
pub const MAX_CONVERGENCE_POINTS: usize = 128;

/// How many [`UnitError`]s a campaign keeps as evidence; the rest are
/// counted but dropped.
pub const MAX_SKIP_REASONS: usize = 16;

/// Shared skip accounting: how many units failed to lower, and why (the
/// lowest-numbered few). Each unit is built once, so each failure arrives
/// once, in whatever order the workers reach them; the kept reasons are a
/// function of the source alone.
#[derive(Debug, Default)]
struct SkipLog {
    units: usize,
    reasons: Vec<UnitError>,
}

impl SkipLog {
    fn record(&mut self, err: UnitError) {
        self.units += 1;
        let at = self.reasons.partition_point(|r| r.unit < err.unit);
        if at < MAX_SKIP_REASONS {
            self.reasons.insert(at, err);
            self.reasons.truncate(MAX_SKIP_REASONS);
        }
    }
}

/// A finished campaign.
#[derive(Debug)]
pub struct CampaignResult {
    /// One record per run, sorted by spec index (deterministic order).
    pub records: Vec<RunRecord>,
    /// The deduplicated race batch (deterministic).
    pub batch: RaceBatch,
    /// Unit names, in matrix order.
    pub units: Vec<String>,
    /// Units whose lowering failed: every spec of such a unit was skipped
    /// (no record, no counters), the failure was counted here, and the
    /// campaign ran on. Deterministic — a function of the unit source
    /// alone, never of worker count.
    pub units_skipped: usize,
    /// The skip reasons of the lowest-numbered [`MAX_SKIP_REASONS`]
    /// skipped units, in unit order, as evidence for logs and CI gates.
    pub skip_reasons: Vec<UnitError>,
    /// Worker threads used.
    pub workers: usize,
    /// End-to-end wall-clock time.
    pub wall: Duration,
    /// The campaign's observability report, folded from the fields above
    /// once the workers had joined: stable counters and gauges, plus the
    /// wall-clock figures in the segregated timing section —
    /// ready to export as JSON ([`ObsReport::to_json`]) or render as a text
    /// dashboard ([`ObsReport::dashboard`]).
    pub obs: ObsReport,
}

impl CampaignResult {
    /// Total runs executed.
    #[must_use]
    pub fn total_runs(&self) -> usize {
        self.records.len()
    }

    /// Runs that reported at least one race.
    #[must_use]
    pub fn racy_runs(&self) -> usize {
        self.records.iter().filter(|r| r.racy).count()
    }

    /// Fraction of runs that reported a race (0 when no runs executed).
    #[must_use]
    pub fn detection_rate(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.racy_runs() as f64 / self.records.len() as f64
        }
    }

    /// The race unit `unit` is first seen with: the batch representative of
    /// the lowest fingerprint its lowest-index racy run reported. `None`
    /// when no run of the unit raced — so `is_some()` is the unit's
    /// "did any schedule race" verdict.
    #[must_use]
    pub fn first_race(&self, unit: usize) -> Option<&RaceReport> {
        let run = self.records.iter().find(|r| r.racy && r.spec.unit == unit)?;
        self.batch
            .iter()
            .find(|(fp, _)| run.fingerprints.binary_search(fp).is_ok())
            .map(|(_, report)| report)
    }

    /// Runs per second of wall-clock time.
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.records.len() as f64 / secs
        }
    }

    /// Total monitor events dispatched across all runs (deterministic).
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.records.iter().map(|r| r.events).sum()
    }

    /// Monitor events per second of wall-clock time — the hot-path
    /// throughput figure the interned-stack event model optimizes.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.total_events() as f64 / secs
        }
    }

    /// The largest per-run depot (distinct interned stacks) in the
    /// campaign.
    #[must_use]
    pub fn max_depot_stacks(&self) -> usize {
        self.records.iter().map(|r| r.depot_stacks).max().unwrap_or(0)
    }

    /// The largest per-run shadow-word footprint in the campaign.
    #[must_use]
    pub fn peak_shadow_words(&self) -> usize {
        self.records
            .iter()
            .map(|r| r.peak_shadow_words)
            .max()
            .unwrap_or(0)
    }

    /// Detection-rate convergence: the cumulative number of distinct
    /// fingerprints seen after N runs (in spec order) — the §3.2 story in
    /// one curve: more reruns keep exposing new schedule-dependent races
    /// until the campaign saturates.
    ///
    /// The curve is sampled down to at most [`MAX_CONVERGENCE_POINTS`]
    /// evenly spaced points (the final run always included), so its size
    /// is bounded at any campaign scale. Sampling is a pure function of
    /// the record count, so the curve stays identical across worker
    /// counts.
    #[must_use]
    pub fn convergence(&self) -> Vec<(usize, usize)> {
        self.convergence_sampled(MAX_CONVERGENCE_POINTS)
    }

    /// [`CampaignResult::convergence`] with a caller-chosen point cap.
    #[must_use]
    pub fn convergence_sampled(&self, max_points: usize) -> Vec<(usize, usize)> {
        let total = self.records.len();
        if total == 0 {
            return Vec::new();
        }
        let step = total.div_ceil(max_points.max(1));
        let mut seen = BTreeSet::new();
        let mut points = Vec::with_capacity(total / step + 1);
        for (i, r) in self.records.iter().enumerate() {
            seen.extend(r.fingerprints.iter().copied());
            if (i + 1) % step == 0 || i + 1 == total {
                points.push((i + 1, seen.len()));
            }
        }
        points
    }

    /// The deterministic projection of the whole campaign — byte-equal
    /// across worker counts for the same config matrix.
    #[must_use]
    pub fn deterministic_digest(&self) -> Vec<(usize, String, u64, bool, Vec<Fingerprint>, u64)> {
        self.records
            .iter()
            .map(|r| {
                let (index, unit, seed, racy, fingerprints, steps) = r.key();
                (index, unit.to_string(), seed, racy, fingerprints.to_vec(), steps)
            })
            .collect()
    }

    /// A compact FNV-1a digest of [`CampaignResult::deterministic_digest`]
    /// — the worker-count-invariance check that fits in a CI log line at
    /// 100K-run scale, where comparing the full record projection would
    /// mean holding two multi-megabyte vectors.
    #[must_use]
    pub fn digest64(&self) -> u64 {
        let mut h = Fnv1a::new();
        for r in &self.records {
            h.write(&r.spec.index.to_le_bytes());
            h.write(r.unit_name.as_bytes());
            h.write(&r.spec.seed.to_le_bytes());
            h.write(&[u8::from(r.racy)]);
            for fp in &r.fingerprints {
                h.write(&fp.0.to_le_bytes());
            }
            h.write(&r.steps.to_le_bytes());
        }
        h.write(&(self.units_skipped as u64).to_le_bytes());
        h.finish()
    }

    /// Files the deduplicated batch into the intake service.
    ///
    /// # Errors
    ///
    /// [`grs_deploy::IntakeError::ShutDown`] when the service has stopped.
    pub fn file_into_service(
        &self,
        service: &grs_deploy::IntakeService,
        day: u32,
    ) -> Result<Vec<(Fingerprint, FileOutcome)>, grs_deploy::IntakeError> {
        service.submit_race_batch(&self.batch, day)
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
mod tests {
    use super::*;

    fn tiny_units() -> Vec<CampaignUnit> {
        pattern_suite(true)
            .into_iter()
            .filter(|u| u.name.starts_with("loop_index_capture") || u.name.starts_with("missing_lock"))
            .collect()
    }

    #[test]
    fn matrix_enumeration_is_dense_and_ordered() {
        let c = Campaign::over_units(
            CampaignConfig::smoke().seeds_per_unit(3),
            tiny_units(),
        );
        let specs = c.specs();
        assert_eq!(specs.len(), c.matrix_len());
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.index, i);
            // The arithmetic recovery is the enumeration.
            assert_eq!(*s, c.spec_at(i));
        }
    }

    #[test]
    fn racy_units_detected_fixed_units_clean() {
        let c = Campaign::over_units(
            CampaignConfig::smoke().seeds_per_unit(12),
            tiny_units(),
        );
        let r = c.run();
        for i in 0..c.unit_count() {
            let unit = c.unit(i).expect("pattern units always build");
            let unit_racy = r
                .records
                .iter()
                .filter(|rec| *rec.unit_name == unit.name)
                .any(|rec| rec.racy);
            assert_eq!(
                Some(unit_racy),
                unit.expected_racy,
                "unit {}",
                unit.name
            );
        }
        assert!(r.detection_rate() > 0.0);
        assert!(!r.batch.is_empty());
    }

    #[test]
    fn corpus_suite_compiles_and_campaigns() {
        let c = Campaign::over_units(
            CampaignConfig::smoke().seeds_per_unit(6),
            corpus_suite(),
        );
        let r = c.run();
        assert_eq!(r.total_runs(), c.matrix_len());
        assert_eq!(r.units_skipped, 0);
        // The racy Go sources must be caught; fixed must stay silent.
        for i in 0..c.unit_count() {
            let unit = c.unit(i).expect("embedded snippets always build");
            if unit.expected_racy == Some(false) {
                assert!(
                    r.records
                        .iter()
                        .filter(|rec| *rec.unit_name == unit.name)
                        .all(|rec| !rec.racy),
                    "false positive in {}",
                    unit.name
                );
            }
        }
        assert!(r.racy_runs() > 0);
    }

    #[test]
    fn filing_the_batch_into_the_service_dedups_across_days() {
        let c = Campaign::over_units(
            CampaignConfig::smoke().seeds_per_unit(6),
            tiny_units(),
        );
        let r = c.run();
        let service = grs_deploy::IntakeService::builder().workers(1).start().unwrap();
        let outcomes = r.file_into_service(&service, 0).unwrap();
        assert_eq!(outcomes.len(), r.batch.len());
        assert!(outcomes
            .iter()
            .all(|(_, o)| matches!(o, FileOutcome::Filed { .. })));
        // Day two: all duplicates.
        let again = r.file_into_service(&service, 1).unwrap();
        assert!(again.iter().all(|(_, o)| *o == FileOutcome::Duplicate));
    }

    /// A detector named twice is run once per execution and its record
    /// repeated. Captured at 50aa005, where each position ran its own
    /// execution.
    const PINNED_REPEATED_DIGEST64: u64 = 0xe9eb_5f24_415c_ab79;
    const PINNED_REPEATED_BATCH: [u64; 2] = [0x209f_fa74_4cf9_754b, 0xa7e3_3c98_7318_bb65];

    #[test]
    fn a_repeated_detector_reproduces_its_separate_runs() {
        let config = CampaignConfig::smoke().seeds_per_unit(4).workers(1).detectors(vec![
            DetectorChoice::Hybrid,
            DetectorChoice::FastTrack,
            DetectorChoice::Hybrid,
        ]);
        let c = Campaign::over_units(config, tiny_units());
        let r = c.run();
        assert_eq!(r.total_runs(), c.matrix_len());
        assert_eq!(r.digest64(), PINNED_REPEATED_DIGEST64);
        let batch: Vec<u64> = r.batch.fingerprints().iter().map(|fp| fp.0).collect();
        assert_eq!(batch, PINNED_REPEATED_BATCH);
        let view = |x: &RunRecord| (x.fingerprints.clone(), x.events, x.peak_shadow_words);
        for triple in r.records.chunks(3) {
            assert_eq!(view(&triple[0]), view(&triple[2]), "{:?}", triple[0].spec);
        }
    }

    /// A source no campaign may build from.
    #[derive(Debug)]
    struct Unbuildable;

    impl UnitSource for Unbuildable {
        fn len(&self) -> usize {
            4
        }

        fn name(&self, unit: usize) -> String {
            format!("unbuildable/{unit}")
        }

        fn build(&self, unit: usize) -> Result<CampaignUnit, UnitError> {
            panic!("unit {unit} built by a campaign with no detector")
        }
    }

    #[test]
    fn no_detector_means_no_execution() {
        for workers in [1, 2] {
            let config = CampaignConfig::smoke()
                .workers(workers)
                .detectors(Vec::new());
            let r = Campaign::over_source(config, Arc::new(Unbuildable)).run();
            assert_eq!(r.total_runs(), 0, "{workers} workers");
            assert_eq!(r.units_skipped, 0, "{workers} workers");
            assert!(r.batch.is_empty(), "{workers} workers");
        }
    }

    #[test]
    fn exec_specs_tile_the_run_matrix() {
        let config = CampaignConfig::smoke()
            .seeds_per_unit(3)
            .detectors(DetectorChoice::all().to_vec())
            .strategies(vec![Strategy::Random, Strategy::RoundRobin]);
        let c = Campaign::over_units(config, tiny_units());
        let specs = c.specs();
        let execs = c.exec_specs();
        assert_eq!(execs.len() * 3, specs.len());
        for e in &execs {
            for (pos, &d) in c.config().detectors.iter().enumerate() {
                let s = specs[e.base_index + pos];
                assert_eq!(s.unit, e.unit);
                assert_eq!(s.seed, e.seed);
                assert_eq!(s.strategy, e.strategy);
                assert_eq!(s.detector, d);
            }
        }
    }

    #[test]
    fn convergence_is_monotone_and_bounded() {
        let c = Campaign::over_units(CampaignConfig::smoke(), tiny_units());
        let r = c.run();
        let conv = r.convergence();
        assert!(!conv.is_empty());
        assert!(conv.len() <= MAX_CONVERGENCE_POINTS);
        for w in conv.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        // The final point always covers the whole campaign.
        assert_eq!(*conv.last().unwrap(), (r.total_runs(), r.batch.len()));
    }

    /// §3.2–3.3: a filed task must be reproducible. Every report in the
    /// batch carries a repro artifact, and re-running its unit under that
    /// artifact's seed and strategy re-triggers the race.
    #[test]
    fn batch_artifacts_reproduce() {
        let c = Campaign::over_units(
            CampaignConfig::smoke().seeds_per_unit(16),
            tiny_units(),
        );
        let unit_by_name = |name: &str| {
            (0..c.unit_count())
                .map(|i| c.unit(i).unwrap())
                .find(|u| u.name == name)
                .expect("batch report names a campaign unit")
        };
        let r = c.run();
        assert!(!r.batch.is_empty());
        for (_, rep) in r.batch.iter() {
            let artifact = rep.repro.as_ref().expect("campaign reports carry repro");
            let unit = unit_by_name(rep.program.as_deref().expect("program set"));
            let cfg = c.run_config(artifact.seed, artifact.strategy);
            let (_, reports) = DetectorChoice::Hybrid.run(&unit.program, cfg);
            assert!(
                reports.iter().any(|rr| rr.site_key() == rep.site_key()),
                "replaying {artifact} of {} did not re-trigger the race",
                unit.name
            );
        }
    }

    /// A source whose odd units refuse to lower: the campaign must skip
    /// them (counted, first reasons kept), run everything else, and stay
    /// deterministic across worker counts.
    #[derive(Debug)]
    struct HalfBroken {
        inner: UnitList,
    }

    impl UnitSource for HalfBroken {
        fn len(&self) -> usize {
            self.inner.len()
        }

        fn name(&self, unit: usize) -> String {
            self.inner.name(unit)
        }

        fn build(&self, unit: usize) -> Result<CampaignUnit, UnitError> {
            if unit % 2 == 1 {
                return Err(UnitError {
                    unit,
                    name: self.inner.name(unit),
                    error: "parse: synthetic failure".to_string(),
                });
            }
            self.inner.build(unit)
        }
    }

    #[test]
    fn broken_units_are_skipped_not_fatal() {
        let source = std::sync::Arc::new(HalfBroken {
            inner: UnitList::new(tiny_units()),
        });
        let units = source.len();
        let c = Campaign::over_source(
            CampaignConfig::smoke().seeds_per_unit(3).shards(3),
            source,
        );
        let serial = c.with_config(c.config().clone().workers(1)).run();
        let skipped_units = units / 2;
        assert_eq!(serial.units_skipped, skipped_units);
        assert_eq!(serial.skip_reasons.len(), skipped_units.min(MAX_SKIP_REASONS));
        assert!(serial.skip_reasons[0].error.contains("synthetic failure"));
        // Every spec of a broken unit is skipped; every other spec ran.
        let specs_per_unit = c.matrix_len() / units;
        assert_eq!(
            serial.total_runs(),
            (units - skipped_units) * specs_per_unit
        );
        assert_eq!(
            serial.obs.snapshot.counter("campaign.skipped_runs"),
            (skipped_units * specs_per_unit) as u64
        );
        assert!(serial
            .records
            .iter()
            .all(|r| r.spec.unit % 2 == 0), "odd units must not produce records");
    }

    /// The determinism contract, every cell: the campaign's whole
    /// deterministic output — records, digest, dedup batch and its
    /// representatives, skip accounting and reasons, the stable obs
    /// section — is the one-worker output at every worker count. Half the
    /// units refuse to lower, more of them than [`MAX_SKIP_REASONS`], so
    /// which reasons the cap keeps is exercised in every cell too.
    #[test]
    fn campaign_is_worker_count_invariant() {
        let units: Vec<CampaignUnit> = (0..10).flat_map(|_| tiny_units()).collect();
        let source = std::sync::Arc::new(HalfBroken {
            inner: UnitList::new(units),
        });
        let config = CampaignConfig::smoke()
            .seeds_per_unit(4)
            .shards(4)
            .detectors(DetectorChoice::all().to_vec());
        let c = Campaign::over_source(config, source);
        // Everything about a record but its placement and timing.
        let records = |r: &CampaignResult| -> Vec<_> {
            r.records
                .iter()
                .map(|x| {
                    (
                        x.spec,
                        x.unit_name.clone(),
                        x.racy,
                        x.fingerprints.clone(),
                        (x.steps, x.events, x.depot_stacks, x.peak_shadow_words, x.end),
                    )
                })
                .collect()
        };
        let representatives = |r: &CampaignResult| -> Vec<_> {
            r.batch
                .iter()
                .map(|(fp, rep)| (fp, rep.repro.clone()))
                .collect()
        };
        let one = c.with_config(c.config().clone().workers(1)).run();
        assert_eq!(one.workers, 1);
        assert!(one.units_skipped > MAX_SKIP_REASONS && !one.batch.is_empty());
        let first_broken: Vec<usize> = (0..MAX_SKIP_REASONS).map(|k| 2 * k + 1).collect();
        let kept: Vec<usize> = one.skip_reasons.iter().map(|e| e.unit).collect();
        assert_eq!(kept, first_broken, "the lowest-numbered failures, in unit order");
        for workers in [2, 4, 8] {
            let cell = format!("{workers} workers");
            let par = c.with_config(c.config().clone().workers(workers)).run();
            assert!(par.workers > 1, "{cell}");
            assert_eq!(records(&par), records(&one), "{cell}");
            assert_eq!(par.digest64(), one.digest64(), "{cell}");
            assert_eq!(par.batch.raw_reports(), one.batch.raw_reports(), "{cell}");
            assert_eq!(representatives(&par), representatives(&one), "{cell}");
            assert_eq!(par.units_skipped, one.units_skipped, "{cell}");
            assert_eq!(par.skip_reasons, one.skip_reasons, "{cell}");
            assert_eq!(
                par.obs.snapshot.counter("campaign.skipped_runs"),
                one.obs.snapshot.counter("campaign.skipped_runs"),
                "{cell}"
            );
            assert_eq!(par.obs.metrics_json(), one.obs.metrics_json(), "{cell}");
            assert_eq!(
                par.obs.deterministic_digest(),
                one.obs.deterministic_digest(),
                "{cell}"
            );
        }
    }

    #[test]
    fn generated_go_corpus_campaigns_lazily_and_deterministically() {
        use crate::source::GoCorpusSource;
        use grs_corpus::GoTestSpec;

        // A source-level campaign straight from the generator: no unit is
        // materialized up front, ground truth comes from emission.
        let source = std::sync::Arc::new(GoCorpusSource::new(
            GoTestSpec::default_mix().racy_per_mille(400),
            11,
            24,
        ));
        let c = Campaign::over_source(
            CampaignConfig::smoke().seeds_per_unit(2).shards(4),
            source.clone(),
        );
        let serial = c.with_config(c.config().clone().workers(1)).run();
        assert_eq!(serial.units_skipped, 0, "{:?}", serial.skip_reasons);
        assert_eq!(serial.total_runs(), c.matrix_len());
        // Expected-racy units must be detected (the racy templates are
        // schedule-independent); clean units must stay silent.
        for i in 0..c.unit_count() {
            let unit = c.unit(i).unwrap();
            let unit_racy = serial
                .records
                .iter()
                .filter(|r| *r.unit_name == unit.name)
                .any(|r| r.racy);
            assert_eq!(Some(unit_racy), unit.expected_racy, "unit {}", unit.name);
        }
        for workers in [2, 4, 8] {
            let par = c.with_config(c.config().clone().workers(workers)).run();
            assert_eq!(par.digest64(), serial.digest64());
            assert_eq!(par.deterministic_digest(), serial.deterministic_digest());
            assert_eq!(par.batch.fingerprints(), serial.batch.fingerprints());
        }
    }

    /// A [`HalfBroken`] source that counts its builds.
    #[derive(Debug)]
    struct Counting {
        inner: HalfBroken,
        builds: AtomicUsize,
    }

    impl UnitSource for Counting {
        fn len(&self) -> usize {
            self.inner.len()
        }

        fn name(&self, unit: usize) -> String {
            self.inner.name(unit)
        }

        fn build(&self, unit: usize) -> Result<CampaignUnit, UnitError> {
            self.builds.fetch_add(1, Ordering::Relaxed);
            self.inner.build(unit)
        }
    }

    /// A worker claims a whole unit: every unit is built exactly once,
    /// broken ones included, however many seeds and strategies it runs
    /// under and however many workers share the campaign — and no more
    /// workers run than there are units.
    #[test]
    fn each_unit_is_built_exactly_once() {
        let config = CampaignConfig::smoke()
            .seeds_per_unit(3)
            .strategies(vec![Strategy::Random, Strategy::RoundRobin]);
        for workers in [1, 2, 4, 8] {
            let source = Arc::new(Counting {
                inner: HalfBroken {
                    inner: UnitList::new(tiny_units()),
                },
                builds: AtomicUsize::new(0),
            });
            let units = source.len();
            let c = Campaign::over_source(config.clone().workers(workers), source.clone());
            let r = c.run();
            assert_eq!(source.builds.load(Ordering::Relaxed), units, "{workers} workers");
            assert_eq!(r.workers, workers.min(units), "{workers} workers");
            assert_eq!(r.units_skipped, units / 2, "{workers} workers");
        }
    }
}
