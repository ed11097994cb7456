//! `pattern_live` — the paper's Listings and Tables 2–3 as closure
//! programs.
//!
//! `Campaign::over_patterns` on `pattern_suite(true)` × {Random, PCT} × all
//! four detectors. The same `runtime` + `detector` live path as
//! `corpus_live` with no `corpus`, `golite` or `interp`, and a much richer
//! synchronisation mix than the corpus templates have.

use grs::deploy::IntakeService;
use grs::detector::DetectorChoice;
use grs::fleet::{pattern_suite, Campaign, CampaignConfig, CampaignResult, CampaignUnit};
use grs::runtime::Strategy;

use crate::env::peak_rss_kib;
use crate::inputs::mix;
use crate::report::RunReport;
use crate::spans::{SpanRecorder, UnitScope};
use crate::workloads::live::{check_warm_digest, run_slice, service, trace_live, LiveTotals};
use crate::workloads::{set_up, RunArgs, SLICES};

/// Seeds per (unit, strategy, detector) per slice at the reference
/// `--seconds`.
const SEEDS_PER_SLICE: usize = 9;

/// Seeds per (unit, strategy, detector) in the traced pass.
const TRACED_SEEDS: usize = 4;

fn config(seed: u64, k: usize, seeds: usize) -> CampaignConfig {
    CampaignConfig::new()
        .seeds_per_unit(seeds)
        .base_seed(mix(seed, k as u64))
        .strategies(vec![Strategy::Random, Strategy::Pct { depth: 2 }])
        .detectors(DetectorChoice::all_with_ablation().to_vec())
        .workers(1)
        .shards(2)
}

struct SetUp {
    service: IntakeService,
    units: Vec<CampaignUnit>,
    warm: CampaignResult,
}

pub fn run(args: &RunArgs) -> RunReport {
    let mut report = RunReport::default();
    let seeds = args.scaled(SEEDS_PER_SLICE);
    let (setup, setup_s) = set_up(&mut report, || {
        let service = service();
        let units = pattern_suite(true);
        let warm_campaign = Campaign::over_units(config(args.seed, 0, seeds), units.clone());
        let (warm, _, _) = run_slice(&warm_campaign, &service, 0);
        SetUp {
            service,
            units,
            warm,
        }
    });

    let mut totals = LiveTotals::default();
    let truth: Vec<bool> = setup
        .units
        .iter()
        .map(|u| u.expected_racy == Some(true))
        .collect();
    let mut expected_runs = 0;
    for k in 0..SLICES {
        let cfg = config(args.seed, k, seeds);
        let max_steps = cfg.max_steps;
        let campaign = Campaign::over_units(cfg, setup.units.clone());
        expected_runs += campaign.matrix_len() as u64;
        let (result, filed, elapsed) = run_slice(&campaign, &setup.service, k as u32 + 1);
        if k == 0 {
            check_warm_digest(&mut report, &setup.warm, &result);
        }
        totals.absorb(&result, |unit| truth[unit], &filed, max_steps, elapsed);
    }
    report.metric("setup_s", setup_s, "s");
    totals.finish(&mut report, expected_runs);
    report.metric("peak_rss_kib", peak_rss_kib() as f64, "KiB");
    report
}

pub fn traced(args: &RunArgs, spans: &mut SpanRecorder) -> RunReport {
    let mut report = RunReport::default();
    let units = pattern_suite(true);
    let campaign = Campaign::over_units(
        config(args.seed, 0, args.scaled(TRACED_SEEDS)),
        units.clone(),
    );
    let service = service();
    let build = |unit: usize, _: &mut UnitScope| units[unit].clone();
    let (result, _) = trace_live(&mut report, &campaign, &service, spans, build);
    let alarms = result
        .records
        .iter()
        .filter(|r| {
            r.racy
                && r.spec.detector == DetectorChoice::Eraser
                && units[r.spec.unit].expected_racy == Some(false)
        })
        .count();
    report.metric("detector.lockset_false_alarms", alarms as f64, "count");
    report
}
