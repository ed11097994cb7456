//! What the two live campaign workloads (`corpus_live`, `pattern_live`)
//! share: how a finished slice is judged and accumulated, and the
//! hand-driven stage loop the traced pass compares `Campaign::run` with.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use grs::deploy::{race_fingerprint, FileOutcome, Fingerprint, IntakeService};
use grs::detector::{DetectorArena, DetectorChoice};
use grs::fleet::{Campaign, CampaignResult, CampaignUnit, DedupMap};
use grs::runtime::{record_with_depot, NullMonitor, ReproArtifact, RunConfig, Runtime};

use crate::report::{Better, RunReport};
use crate::spans::{SpanRecorder, UnitScope, NO_PARENT};
use crate::workloads::SliceLatencies;

/// `unit` of spans that belong to the whole pass, not to one unit.
pub const WHOLE_PASS: u32 = u32::MAX;

/// Detectors whose reports are happens-before verdicts: on a race-free
/// unit they must stay silent on every schedule. Eraser is excluded — a
/// lockset detector flags channel-synchronised code by design, and those
/// alarms are counted, not failed.
fn is_happens_before(choice: DetectorChoice) -> bool {
    !matches!(choice, DetectorChoice::Eraser)
}

/// Running totals over the timed slices of a live workload.
#[derive(Debug, Default)]
pub struct LiveTotals {
    runs: u64,
    racy_runs: u64,
    skipped_units: u64,
    over_budget: u64,
    hb_false_positives: u64,
    lockset_false_alarms: u64,
    racy_units: u64,
    racy_units_detected: u64,
    unique: BTreeSet<Fingerprint>,
    digest: u64,
    filed: u64,
    rates: Vec<f64>,
    latencies: SliceLatencies,
}

impl LiveTotals {
    /// Judges one finished slice. `truth(unit)` is the generator's or the
    /// pattern registry's ground truth — never a detector's opinion.
    pub fn absorb(
        &mut self,
        result: &CampaignResult,
        truth: impl Fn(usize) -> bool,
        filed: &[(Fingerprint, FileOutcome)],
        max_steps: u64,
        elapsed: Duration,
    ) {
        self.runs += result.total_runs() as u64;
        self.skipped_units += result.units_skipped as u64;
        self.digest = self.digest.rotate_left(7) ^ result.digest64();
        self.filed += filed
            .iter()
            .filter(|(_, o)| matches!(o, FileOutcome::Filed { .. }))
            .count() as u64;
        self.unique.extend(result.batch.fingerprints());

        let unit_count = result.units.len();
        let mut detected = vec![false; unit_count];
        for r in &result.records {
            let racy_unit = truth(r.spec.unit);
            self.racy_runs += u64::from(r.racy);
            self.over_budget += u64::from(r.steps >= max_steps);
            if r.racy && racy_unit {
                detected[r.spec.unit] = true;
            }
            if r.racy && !racy_unit {
                if is_happens_before(r.spec.detector) {
                    self.hb_false_positives += 1;
                } else {
                    self.lockset_false_alarms += 1;
                }
            }
        }
        for (unit, &hit) in detected.iter().enumerate() {
            if truth(unit) {
                self.racy_units += 1;
                self.racy_units_detected += u64::from(hit);
            }
        }

        let mut durations: Vec<u64> = result
            .records
            .iter()
            .map(|r| r.duration.as_nanos() as u64)
            .collect();
        self.latencies.push(&mut durations);
        self.rates
            .push(result.total_runs() as f64 / elapsed.as_secs_f64());
    }

    /// Writes the end-to-end metrics (all but `setup_s` and
    /// `peak_rss_kib`), the checks and the exact counts.
    pub fn finish(self, report: &mut RunReport, expected_runs: u64) {
        report.attempted = expected_runs;
        report.failed = self.skipped_units + self.over_budget;
        let rate = report.slices("throughput", "runs/s", Better::Higher, &self.rates);
        report.metric("throughput_per_s", rate, "1/s");
        self.latencies.report(report);
        report.metric("unique_races", self.unique.len() as f64, "count");
        report.metric(
            "detect_share",
            self.racy_units_detected as f64 / self.racy_units.max(1) as f64,
            "ratio",
        );
        report.check(
            "every spec ran",
            self.runs == expected_runs && self.skipped_units == 0,
            format!(
                "{} of {expected_runs} runs, {} units skipped",
                self.runs, self.skipped_units
            ),
        );
        report.check(
            "no happens-before report on a race-free unit",
            self.hb_false_positives == 0,
            format!("{} false positives", self.hb_false_positives),
        );
        report.count("runs", self.runs);
        report.count("racy_runs", self.racy_runs);
        report.count("unique_races", self.unique.len() as u64);
        report.count("racy_units_detected", self.racy_units_detected);
        report.count("lockset_false_alarms", self.lockset_false_alarms);
        report.count("tasks_filed", self.filed);
        report.count("digest", self.digest);
    }
}

/// The service the live workloads file their batches into.
pub fn service() -> IntakeService {
    IntakeService::builder()
        .workers(1)
        .start()
        .expect("a service without a snapshot path always starts")
}

/// Runs one slice the way the workload times it: the campaign, then its
/// deduplicated batch filed into the service.
pub fn run_slice(
    campaign: &Campaign,
    service: &IntakeService,
    day: u32,
) -> (CampaignResult, Vec<(Fingerprint, FileOutcome)>, Duration) {
    let started = Instant::now();
    let result = campaign.run();
    let filed = result
        .file_into_service(service, day)
        .expect("the service outlives the slice");
    (result, filed, started.elapsed())
}

/// The warm-up ran slice 0; the timed slice 0 must repeat it exactly.
pub fn check_warm_digest(report: &mut RunReport, warm: &CampaignResult, timed: &CampaignResult) {
    report.check(
        "warm-up and timed pass of slice 0 have one digest",
        warm.digest64() == timed.digest64(),
        format!("{:#018x} vs {:#018x}", warm.digest64(), timed.digest64()),
    );
}

/// What the hand-driven loop measured besides its spans.
#[derive(Debug, Default)]
pub struct HandLoop {
    pub wall: Duration,
    pub fingerprints: Vec<Vec<Fingerprint>>,
    pub reports: u64,
    pub peak_shadow_words: usize,
}

/// Drives every spec of `campaign` by hand with the seeds
/// [`Campaign::spec_at`] hands out — the same calls `Campaign::execute`
/// makes, from outside. With a recorder, each spec becomes a `unit` span
/// over `run.live`, `deploy.fingerprint` and `fleet.dedup` (and whatever
/// `build` records for producing the unit). The deduplicated batch is
/// filed at the end (`deploy.file`).
fn hand_loop(
    campaign: &Campaign,
    service: &IntakeService,
    mut spans: Option<&mut SpanRecorder>,
    mut build: impl FnMut(usize, &mut UnitScope) -> CampaignUnit,
) -> HandLoop {
    let mut out = HandLoop::default();
    let mut arena = DetectorArena::new();
    let dedup = DedupMap::new(campaign.config().shards);
    let max_steps = campaign.config().max_steps;
    let started = Instant::now();
    for index in 0..campaign.matrix_len() {
        let spec = campaign.spec_at(index);
        let mut scope = UnitScope::open(spans.as_deref_mut(), index as u32);
        let unit = build(spec.unit, &mut scope);
        let cfg = RunConfig {
            seed: spec.seed,
            strategy: spec.strategy,
            max_steps,
            ..RunConfig::default()
        };
        let (outcome, reports) =
            scope.time("run.live", || arena.run(spec.detector, &unit.program, cfg));
        out.reports += reports.len() as u64;
        out.peak_shadow_words = out.peak_shadow_words.max(outcome.stats.peak_shadow_words);
        let tagged: Vec<_> = reports
            .into_iter()
            .map(|mut r| {
                r.program = Some(std::sync::Arc::from(unit.name.as_str()));
                r.repro_seed = Some(spec.seed);
                r.repro = Some(ReproArtifact::seeded(spec.seed, spec.strategy));
                r
            })
            .collect();
        let mut fps: Vec<Fingerprint> = scope.time("deploy.fingerprint", || {
            tagged.iter().map(race_fingerprint).collect()
        });
        scope.time("fleet.dedup", || {
            for (fp, r) in fps.iter().zip(tagged) {
                dedup.insert(*fp, spec.index, r);
            }
        });
        scope.close();
        fps.sort_unstable();
        fps.dedup();
        out.fingerprints.push(fps);
    }
    let batch = dedup.into_batch();
    let file = |batch| {
        service
            .submit_race_batch(batch, 0)
            .expect("the service outlives the pass")
    };
    match spans {
        Some(s) => {
            s.time("deploy.file", NO_PARENT, WHOLE_PASS, || file(&batch));
        }
        None => {
            file(&batch);
        }
    }
    out.wall = started.elapsed();
    out
}

/// Splits `run.live` into kernel and detector, beside the units and after
/// them so that it disturbs none: every spec's schedule runs once more
/// under `NullMonitor` (`runtime.execute`) and its recorded trace is
/// replayed through the spec's detector (`detector.analyze`). Returns the
/// scheduler steps executed.
fn split_run_live(
    campaign: &Campaign,
    spans: &mut SpanRecorder,
    mut build: impl FnMut(usize, &mut UnitScope) -> CampaignUnit,
) -> u64 {
    let mut arena = DetectorArena::new();
    let max_steps = campaign.config().max_steps;
    let mut steps = 0;
    for index in 0..campaign.matrix_len() {
        let spec = campaign.spec_at(index);
        let tag = index as u32;
        let unit = build(spec.unit, &mut UnitScope::open(None, tag));
        let cfg = RunConfig {
            seed: spec.seed,
            strategy: spec.strategy,
            max_steps,
            ..RunConfig::default()
        };
        let split = spans.open("split", NO_PARENT, tag);
        let (outcome, _) = spans.time("runtime.execute", split, tag, || {
            Runtime::new(cfg.clone()).run(&unit.program, NullMonitor)
        });
        steps += outcome.steps;
        let (_, trace) = record_with_depot(&unit.program, &cfg, arena.depot());
        spans.time("detector.analyze", split, tag, || {
            arena.replay(spec.detector, &trace)
        });
        spans.close(split);
    }
    steps
}

/// Names of the spans whose self time is a pipeline stage of a live unit.
pub const LIVE_STAGES: &[&str] = &[
    "corpus.emit",
    "golite.parse",
    "interp.lower",
    "run.live",
    "deploy.fingerprint",
    "fleet.dedup",
    "deploy.file",
];

/// The per-layer metrics every live traced pass derives from its spans and
/// the matching untraced `Campaign::run`.
fn live_layer_metrics(
    report: &mut RunReport,
    spans: &SpanRecorder,
    campaign_wall: Duration,
    untraced: &HandLoop,
    traced: &HandLoop,
    split_steps: u64,
    runs: usize,
) {
    let self_ns = spans.self_time_by_name();
    let of = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64;
    let unit_total: f64 = spans
        .spans()
        .iter()
        .filter(|s| s.name == "unit")
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .sum();
    for stage in LIVE_STAGES
        .iter()
        .chain(&["runtime.execute", "detector.analyze", "unit"])
    {
        report.metric(
            &format!("stage_share.{stage}"),
            of(stage) / unit_total,
            "ratio",
        );
    }
    let staged: f64 = LIVE_STAGES.iter().map(|s| of(s)).sum();
    let campaign_ns = campaign_wall.as_nanos() as f64;
    report.metric(
        "fleet.unattributed_share",
        1.0 - staged / campaign_ns,
        "ratio",
    );
    report.metric(
        "fleet.driver_overhead_us_per_run",
        (campaign_ns - staged) / 1e3 / runs as f64,
        "us",
    );
    let traced_wall = traced.wall.as_secs_f64();
    report.metric(
        "trace.overhead_share",
        traced_wall / untraced.wall.as_secs_f64() - 1.0,
        "ratio",
    );
    report.metric("trace.spans", spans.spans().len() as f64, "count");
    report.metric(
        "runtime.exec_us_per_run",
        of("runtime.execute") / 1e3 / runs as f64,
        "us",
    );
    report.metric(
        "runtime.ns_per_step",
        of("runtime.execute") / split_steps.max(1) as f64,
        "ns",
    );
    report.metric("latency_p99_us", spans.p99_us("run.live"), "us");
    report.metric("detector.reports", traced.reports as f64, "count");
    report.metric(
        "detector.peak_shadow_words",
        traced.peak_shadow_words as f64,
        "count",
    );
    report.notes.push(format!(
        "fastest of {TRACED_REPEATS}: Campaign::run {:.3} s; hand loop {:.3} s untraced, {:.3} s traced; stages cover {:.1} % of the campaign's wall",
        campaign_wall.as_secs_f64(),
        untraced.wall.as_secs_f64(),
        traced_wall,
        100.0 * staged / campaign_ns
    ));
}

/// How often each way of running the traced units is repeated.
const TRACED_REPEATS: usize = 3;

/// The traced pass of a live workload: the same specs through
/// `Campaign::run`, through the stages by hand, and through the stages by
/// hand under spans. The three take turns [`TRACED_REPEATS`] times and the
/// fastest repetition of each is kept, so a burst of interference during
/// one of them is not mistaken for driver or tracing overhead. Leaves the
/// kept spans in `spans` and returns the campaign's result and wall time.
pub fn trace_live(
    report: &mut RunReport,
    campaign: &Campaign,
    service: &IntakeService,
    spans: &mut SpanRecorder,
    build: impl FnMut(usize, &mut UnitScope) -> CampaignUnit + Copy,
) -> (CampaignResult, Duration) {
    let mut result = campaign.run();
    let mut campaign_wall = Duration::MAX;
    let mut untraced: Option<HandLoop> = None;
    let mut traced: Option<(HandLoop, SpanRecorder)> = None;
    for _ in 0..TRACED_REPEATS {
        let started = Instant::now();
        let again = campaign.run();
        if started.elapsed() < campaign_wall {
            campaign_wall = started.elapsed();
            result = again;
        }
        let hand = hand_loop(campaign, service, None, build);
        if untraced.as_ref().is_none_or(|best| hand.wall < best.wall) {
            untraced = Some(hand);
        }
        let mut local = SpanRecorder::with_capacity(8 * campaign.matrix_len());
        let hand = hand_loop(campaign, service, Some(&mut local), build);
        if traced
            .as_ref()
            .is_none_or(|(best, _)| hand.wall < best.wall)
        {
            traced = Some((hand, local));
        }
    }
    let untraced = untraced.expect("TRACED_REPEATS > 0");
    let (traced, kept) = traced.expect("TRACED_REPEATS > 0");
    *spans = kept;
    let split_steps = split_run_live(campaign, spans, build);
    check_hand_loop_matches(report, &result, &traced);
    live_layer_metrics(
        report,
        spans,
        campaign_wall,
        &untraced,
        &traced,
        split_steps,
        campaign.matrix_len(),
    );
    (result, campaign_wall)
}

/// The hand loop must find, spec for spec, the fingerprints the campaign
/// recorded.
fn check_hand_loop_matches(report: &mut RunReport, result: &CampaignResult, hand: &HandLoop) {
    let same = result.records.len() == hand.fingerprints.len()
        && result
            .records
            .iter()
            .zip(&hand.fingerprints)
            .all(|(r, fps)| r.fingerprints == *fps);
    report.check(
        "hand-driven loop and Campaign::run report the same fingerprints",
        same,
        format!("{} specs", hand.fingerprints.len()),
    );
}
