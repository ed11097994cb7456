//! One program rerun across many schedules is a one-unit campaign: its
//! records say how each run ended and which runs raced, and its batch holds
//! the distinct races.

use grs_fleet::{pattern_suite, Campaign, CampaignConfig, CampaignResult, CampaignUnit};
use grs_runtime::{Program, Strategy};

/// A write in a spawned goroutine racing a read in main.
fn flaky_race() -> CampaignUnit {
    CampaignUnit {
        name: "flaky_race".to_string(),
        program: Program::new("flaky_race", |ctx| {
            let x = ctx.cell("x", 0i64);
            let x2 = x.clone();
            ctx.go("w", move |ctx| ctx.write(&x2, 1));
            let _ = ctx.read(&x);
        }),
        expected_racy: Some(true),
    }
}

#[test]
fn one_unit_campaign_aggregates_and_dedups() {
    let result = Campaign::over_units(CampaignConfig::new().seeds_per_unit(50), vec![flaky_race()]).run();
    assert!(result.first_race(0).is_some());
    assert!(result.detection_rate() > 0.0 && result.detection_rate() <= 1.0);
    // One racy pair of source locations: the fingerprint ignores which
    // access came first, so every run's report is one race.
    assert_eq!(result.batch.len(), 1, "{:#?}", result.batch);
    for (_, r) in result.batch.iter() {
        assert_eq!(r.program.as_deref(), Some("flaky_race"));
    }
}

#[test]
fn one_unit_campaign_strategies_expose_races() {
    let strategies = vec![Strategy::Random, Strategy::Pct { depth: 3 }];
    let config = CampaignConfig::new()
        .seeds_per_unit(40)
        .strategies(strategies.clone());
    let result = Campaign::over_units(config, vec![flaky_race()]).run();
    for strategy in strategies {
        assert!(
            result
                .records
                .iter()
                .any(|r| r.spec.strategy == strategy && r.racy),
            "{strategy:?} found nothing"
        );
    }
}

/// Listing 9's second bug: the Future's sender blocks forever when the
/// context wins the select, and the fix never leaks. How a run ended is a
/// deterministic field of its record, equal at any worker count.
#[test]
fn future_cancel_leaks_on_racy_runs_only() {
    let units: Vec<_> = pattern_suite(true)
        .into_iter()
        .filter(|u| u.name.starts_with("future_cancel/"))
        .collect();
    assert_eq!(units.len(), 2);
    let campaign = Campaign::over_units(CampaignConfig::new().seeds_per_unit(60), units);
    let ends = |r: &CampaignResult| -> Vec<_> {
        r.records.iter().map(|x| (x.spec, x.end)).collect()
    };

    let one = campaign.with_config(campaign.config().clone().workers(1)).run();
    let leaking = |name: &str| {
        one.records
            .iter()
            .filter(|r| &*r.unit_name == name && r.end.leaked > 0)
            .count()
    };
    assert!(leaking("future_cancel/racy") > 0, "cancellation never leaked the sender");
    assert_eq!(leaking("future_cancel/fixed"), 0);
    assert!(one.records.iter().all(|r| !r.end.deadlock && r.end.errors == 0));

    for workers in [1, 4] {
        let live = campaign.with_config(campaign.config().clone().workers(workers)).run();
        assert_eq!(ends(&live), ends(&one), "{workers} workers");
    }
}
