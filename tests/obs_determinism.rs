//! Observability determinism: the obs export is folded from a campaign's
//! records after the run, so it cannot perturb — or be perturbed by — how
//! the campaign executes. These tests pin the contract from three
//! directions:
//!
//! * the stable metrics section is the pinned string, byte for byte, at
//!   worker counts {1, 2, 4} in both modes (placement-dependent counters
//!   are segregated into the volatile `timing` section);
//! * the campaign counters agree between live execution and the
//!   execute-once replay engine on the same matrix;
//! * the schema carries its version field, which is what CI greps for in
//!   the uploaded artifact.

use grs::prelude::*;
use grs::runtime::Strategy;

/// `metrics_json()` of [`Campaign::run`] over `units()` under `config()`,
/// captured at d87dca0 — when every worker still entered each run into a
/// shared `MetricsRegistry` — before the export became a fold over the
/// records.
const PINNED_LIVE_METRICS: &str = r#"{"counters":{"campaign.racy_runs":36,"campaign.reports":36,"campaign.runs":72,"detector.runs":72,"runtime.events":1116},"gauges":{"detector.peak_shadow_words":9,"runtime.depot_stacks":4}}"#;

/// The same for [`Campaign::run_replay`]; the four `replay.*` counters are
/// folded from `ReplayStats`.
const PINNED_REPLAY_METRICS: &str = r#"{"counters":{"campaign.racy_runs":36,"campaign.reports":36,"campaign.runs":72,"detector.runs":72,"replay.analyses":72,"replay.batch_events":1116,"replay.batches":72,"replay.trace_bytes":5490,"runtime.events":1116},"gauges":{"detector.peak_shadow_words":9,"runtime.depot_stacks":4}}"#;

fn units() -> Vec<CampaignUnit> {
    pattern_suite(true)
        .into_iter()
        .filter(|u| {
            u.name.starts_with("loop_index_capture") || u.name.starts_with("missing_lock")
        })
        .collect()
}

fn config() -> CampaignConfig {
    CampaignConfig::new()
        .seeds_per_unit(3)
        .shards(4)
        .detectors(DetectorChoice::all().to_vec())
        .strategies(vec![Strategy::Random, Strategy::Pct { depth: 2 }])
}

#[test]
fn obs_export_is_identical_across_worker_counts() {
    let mut digests = Vec::new();
    for workers in [1, 2, 4] {
        let campaign = Campaign::over_units(config().workers(workers), units());
        let live = campaign.run();
        assert_eq!(live.obs.metrics_json(), PINNED_LIVE_METRICS, "live at {workers} workers");
        assert_eq!(
            campaign.run_replay().obs.metrics_json(),
            PINNED_REPLAY_METRICS,
            "replay at {workers} workers"
        );
        digests.push(live.obs.deterministic_digest());
    }
    assert!(digests.windows(2).all(|w| w[0] == w[1]), "obs digest diverged: {digests:x?}");
}

#[test]
fn campaign_counters_are_identical_live_vs_replay() {
    let campaign = Campaign::over_units(config().workers(2), units());
    let live = campaign.run();
    let replayed = campaign.run_replay();
    // Replay fidelity makes the offline analyses report the same
    // events/runs/reports sums.
    for name in [
        "campaign.runs",
        "campaign.racy_runs",
        "campaign.reports",
        "runtime.events",
        "detector.runs",
    ] {
        assert_eq!(
            replayed.obs.snapshot.counter(name),
            live.obs.snapshot.counter(name),
            "stable counter {name} diverged between live and replay"
        );
    }
}

#[test]
fn obs_json_schema_has_version_and_segregated_timing() {
    let result = Campaign::over_units(config().workers(2), units()).run();
    let json = result.obs.to_json();
    assert!(
        json.starts_with(&format!("{{\"schema_version\":{}", grs::obs::SCHEMA_VERSION)),
        "schema_version must lead the document: {}",
        &json[..80.min(json.len())]
    );

    // Placement-dependent counters live in timing, not in the digest-bearing
    // metrics section.
    let metrics = result.obs.metrics_json();
    assert!(!metrics.contains("sched.steals"));
    assert!(!metrics.contains("sched.home_pops"));
    let timing = result.obs.timing_json();
    assert!(timing.contains("sched.home_pops") || timing.contains("sched.steals"));

    // The per-run wall-clock histogram is populated but also segregated.
    assert!(timing.contains("campaign.run_wall"));
    assert!(!metrics.contains("campaign.run_wall"));
}
