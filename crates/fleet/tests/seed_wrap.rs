//! Seeds are `base_seed + i`, wrapping: a base seed at the top of `u64`
//! names the same runs in a debug build (where `+` would panic) and in a
//! release build (where it would wrap silently).

use grs_detector::{ExploreConfig, Explorer};
use grs_fleet::{pattern_suite, run_triage, Campaign, CampaignConfig, TriageConfig};

#[test]
fn seeds_wrap_past_u64_max_the_same_in_every_build() {
    let wrapped = [u64::MAX, 0, 1];
    let units: Vec<_> = pattern_suite(false).into_iter().take(1).collect();
    let program = units[0].program.clone();
    let config = CampaignConfig::new().base_seed(u64::MAX).seeds_per_unit(3);
    let campaign = Campaign::over_units(config, units);
    let exec_seeds: Vec<u64> = campaign.exec_specs().iter().map(|e| e.seed).collect();
    assert_eq!(exec_seeds, wrapped);
    for result in [campaign.run(), campaign.run_replay()] {
        let seeds: Vec<u64> = result.records.iter().map(|r| r.spec.seed).collect();
        assert_eq!(seeds, wrapped);
    }

    let explore = ExploreConfig::quick().base_seed(u64::MAX).runs(3);
    let explored = Explorer::new(explore).explore(&program);
    assert!(explored.found_race(), "the first pattern races here");
    for report in &explored.unique_races {
        assert!(wrapped.contains(&report.repro_seed.expect("explorer fills the seed")));
    }

    let triage = TriageConfig {
        seeds_per_unit: 3,
        base_seed: u64::MAX,
    };
    assert!(run_triage(&triage).triage_executions.is_some());
}
