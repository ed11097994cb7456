//! Campaign-level shadow accounting on the event-dense hot-path unit.
//!
//! The flat shadow tables index by variable id, so an implementation bug
//! could silently pay O(id-space) or O(events) memory while still
//! producing correct reports. This pins the dense FastTrack campaign —
//! thousands of access events per run — to an O(vars + readers) peak,
//! identical between the live path and each run recorded and replayed.

use grs::dense_unit;
use grs::detector::{DetectorArena, DetectorChoice};
use grs::fleet::{Campaign, CampaignConfig};
use grs::runtime::{record, RunConfig, Strategy};

fn config() -> CampaignConfig {
    CampaignConfig::new()
        .seeds_per_unit(8)
        .workers(1)
        .detectors(vec![DetectorChoice::FastTrack])
        .strategies(vec![Strategy::Random])
}

/// The dense unit touches 9 cells (8 compute cells + the barrier cell)
/// and 2 reader goroutines: peak shadow is bounded by ~3 words per cell
/// plus the shared-read history — tens of words against thousands of
/// events. A flat table that counted index holes, forgot the write-prune,
/// or kept per-event state would blow through this bound immediately.
const BOUND: usize = 64;

#[test]
fn dense_campaign_peak_shadow_is_o_vars_not_o_events() {
    let live = Campaign::over_units(config(), vec![dense_unit()]).run();
    assert_eq!(live.racy_runs(), 0, "the dense unit is race-free");
    let events_per_run = live.total_events() as usize / live.total_runs();
    assert!(
        events_per_run > 50 * BOUND,
        "unit must be event-dense for the bound to mean anything ({events_per_run} events/run)"
    );
    assert!(
        live.peak_shadow_words() <= BOUND,
        "live campaign peak {} exceeds the O(vars) bound {BOUND}",
        live.peak_shadow_words()
    );

    let program = dense_unit().program;
    let mut arena = DetectorArena::new();
    for l in &live.records {
        let cfg = RunConfig::with_seed(l.spec.seed).strategy(l.spec.strategy);
        let (_, trace) = record(&program, &cfg);
        let replayed = arena.replay(l.spec.detector, &trace);
        assert_eq!(
            l.peak_shadow_words, replayed.peak_shadow_words,
            "seed {}: replay must reproduce the live run's peak shadow words exactly",
            l.spec.seed
        );
    }
}
