//! `corpus_live` — the paper's §3.3 nightly shape.
//!
//! `Campaign::over_source(GoCorpusSource(default_mix, racy 200‰),
//! seeds_per_unit 1, FastTrack, Random).run()` over generated Go tests,
//! then `file_into_service`. The only workload that crosses every stage:
//! generate → parse → lower → execute → detect → dedup → file.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use grs::corpus::{GoTestGen, GoTestSpec};
use grs::deploy::IntakeService;
use grs::detector::DetectorChoice;
use grs::fleet::{
    Campaign, CampaignConfig, CampaignResult, CampaignUnit, GoCorpusSource, UnitError, UnitSource,
};
use grs::golite::parse_file;
use grs::interp::Interp;
use grs::runtime::Strategy;

use crate::env::{peak_rss_kib, restrict_current_thread};
use crate::inputs::mix;
use crate::report::RunReport;
use crate::spans::{SpanRecorder, UnitScope};
use crate::workloads::live::{check_warm_digest, run_slice, service, trace_live, LiveTotals};
use crate::workloads::{set_up, RunArgs, SLICES};

/// Generated tests per slice at the reference `--seconds`.
const UNITS_PER_SLICE: usize = 2_000;

/// Units the traced pass drives by hand.
const TRACED_UNITS: usize = 2_000;

const RACY_PER_MILLE: u32 = 200;

fn spec() -> GoTestSpec {
    GoTestSpec::default_mix().racy_per_mille(RACY_PER_MILLE)
}

fn config(seed: u64) -> CampaignConfig {
    CampaignConfig::new()
        .seeds_per_unit(1)
        .base_seed(seed)
        .detectors(vec![DetectorChoice::FastTrack])
        .strategies(vec![Strategy::Random])
        .workers(1)
        .shards(2)
}

/// Slice `k` of `seed`: its own generator seed, so no two slices share a
/// test.
fn slice(seed: u64, k: usize, units: usize) -> (Campaign, GoTestGen) {
    let source = GoCorpusSource::new(spec(), mix(seed, k as u64), units);
    let gen = *source.generator();
    (Campaign::over_source(config(seed), Arc::new(source)), gen)
}

struct SetUp {
    service: IntakeService,
    warm: CampaignResult,
}

pub fn run(args: &RunArgs) -> RunReport {
    let mut report = RunReport::default();
    let units = args.scaled(UNITS_PER_SLICE);
    let (setup, setup_s) = set_up(&mut report, || {
        let service = service();
        let (warm_campaign, _) = slice(args.seed, 0, units);
        let (warm, _, _) = run_slice(&warm_campaign, &service, 0);
        SetUp { service, warm }
    });

    let mut totals = LiveTotals::default();
    let max_steps = config(args.seed).max_steps;
    for k in 0..SLICES {
        let (campaign, gen) = slice(args.seed, k, units);
        let (result, filed, elapsed) = run_slice(&campaign, &setup.service, k as u32 + 1);
        if k == 0 {
            check_warm_digest(&mut report, &setup.warm, &result);
        }
        totals.absorb(
            &result,
            |unit| gen.emit(unit as u64).expected_racy,
            &filed,
            max_steps,
            elapsed,
        );
    }
    report.metric("setup_s", setup_s, "s");
    totals.finish(&mut report, (units * SLICES) as u64);
    report.metric("peak_rss_kib", peak_rss_kib() as f64, "KiB");
    report
}

/// Counts how often the engine asks the source to build a unit.
struct CountingSource {
    inner: GoCorpusSource,
    builds: AtomicU64,
}

impl UnitSource for CountingSource {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn name(&self, unit: usize) -> String {
        self.inner.name(unit)
    }
    fn build(&self, unit: usize) -> Result<CampaignUnit, UnitError> {
        // A statistic: publishes nothing else.
        self.builds.fetch_add(1, Ordering::Relaxed);
        self.inner.build(unit)
    }
}

pub fn traced(args: &RunArgs, spans: &mut SpanRecorder) -> RunReport {
    let mut report = RunReport::default();
    let units = args.scaled(TRACED_UNITS);
    let (campaign, gen) = slice(args.seed, 0, units);
    let service = service();

    let build = |unit: usize, scope: &mut UnitScope| -> CampaignUnit {
        let test = scope.time("corpus.emit", || gen.emit(unit as u64));
        let file = scope.time("golite.parse", || {
            parse_file(&test.source).expect("generated tests parse")
        });
        let program = scope.time("interp.lower", || {
            Interp::from_file(file)
                .program_checked(&test.name, "main")
                .expect("generated tests lower")
        });
        CampaignUnit {
            name: test.name,
            program,
            expected_racy: Some(test.expected_racy),
        }
    };
    let (result, campaign_wall) = trace_live(&mut report, &campaign, &service, spans, build);

    let self_ns = spans.self_time_by_name();
    let per_unit_us =
        |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e3 / units as f64;
    report.metric("corpus.emit_us", per_unit_us("corpus.emit"), "us");
    report.metric(
        "golite.parse_us_per_unit",
        per_unit_us("golite.parse"),
        "us",
    );
    report.metric("interp.lower_us", per_unit_us("interp.lower"), "us");

    // Rebuilds the per-worker MRU-8 cache fails to absorb, two workers.
    let counting = Arc::new(CountingSource {
        inner: GoCorpusSource::new(spec(), mix(args.seed, 0), units / 4),
        builds: AtomicU64::new(0),
    });
    let _ = Campaign::over_source(
        config(args.seed).seeds_per_unit(4).workers(2).shards(4),
        counting.clone(),
    )
    .run();
    report.metric(
        "fleet.unit_builds_per_unit",
        counting.builds.load(Ordering::Relaxed) as f64 / counting.len() as f64,
        "ratio",
    );

    // Worker scaling is the one figure taken unpinned, and it is flagged:
    // on a shared box it measures the OS scheduler as much as the engine.
    let one_worker = units as f64 / campaign_wall.as_secs_f64();
    if restrict_current_thread(&args.cpus.allowed) {
        let two = campaign.with_config(config(args.seed).workers(2).shards(4));
        let started = Instant::now();
        let scaled = two.run();
        let two_workers = scaled.total_runs() as f64 / started.elapsed().as_secs_f64();
        report.check(
            "two workers reproduce the one-worker digest",
            scaled.digest64() == result.digest64(),
            format!("{:#018x} vs {:#018x}", scaled.digest64(), result.digest64()),
        );
        report.metric("fleet.scaling_2w", two_workers / one_worker, "ratio");
        report.notes.push(format!(
            "fleet.scaling_2w [noisy]: {two_workers:.0} runs/s unpinned with 2 workers over {one_worker:.0} runs/s pinned with 1"
        ));
        if let Some(cpu) = args.cpus.primary {
            restrict_current_thread(&[cpu]);
        }
    }
    report
}
