//! What a finished campaign hands back: one [`RunRecord`] per run of the
//! matrix, the deduplicated batch, skip accounting, and the statistics read
//! off them.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use grs_deploy::{FileOutcome, Fingerprint, RaceBatch};
use grs_detector::RaceReport;
use grs_obs::{Fnv1a, ObsReport};
use grs_runtime::RunOutcome;

use crate::source::UnitError;
use crate::spec::RunSpec;

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
    pub(super) fn of(outcome: &RunOutcome) -> Self {
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
pub(super) struct SkipLog {
    pub(super) units: usize,
    pub(super) reasons: Vec<UnitError>,
}

impl SkipLog {
    pub(super) fn record(&mut self, err: UnitError) {
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
