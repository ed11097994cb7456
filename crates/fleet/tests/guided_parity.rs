//! Coverage-guided exploration earns its budget, deterministically.
//!
//! On the §4 pattern suite, with every arm spending the same executions
//! per unit under the hybrid detector, the adaptive mode must know every
//! race the static random matrix ends with after at most a quarter of
//! the budget (measured: 10 of 96), and its digest must not depend on
//! worker placement.

use std::collections::BTreeSet;

use grs_detector::DetectorChoice;
use grs_fleet::{pattern_suite, Campaign, CampaignConfig};
use grs_runtime::Strategy;

const BUDGET: usize = 96;

/// The adaptive campaign's record digest over the pattern suite at
/// [`BUDGET`] executions per unit, captured at f2a35e4.
const PINNED_ADAPTIVE_DIGEST64: u64 = 0x29ec_9e3d_dc58_3c0b;

#[test]
#[cfg_attr(debug_assertions, ignore = "four 8,832-run campaigns: release builds only")]
fn guided_reaches_random_parity_in_a_quarter_of_the_budget_at_any_worker_count() {
    let arm = |workers: usize| {
        let config = CampaignConfig::nightly()
            .seeds_per_unit(BUDGET)
            .workers(workers)
            .shards(4)
            .detectors(vec![DetectorChoice::Hybrid])
            .strategies(vec![Strategy::Random]);
        Campaign::over_units(config, pattern_suite(true))
    };
    let base_seed = arm(1).config().base_seed;
    let random = arm(4).run();

    for workers in [1, 4, 8] {
        let guided = arm(workers).run_adaptive();
        assert_eq!(guided.digest64(), PINNED_ADAPTIVE_DIGEST64, "{workers} workers");
        assert_eq!(guided.total_runs(), random.total_runs(), "equal cost per arm");
        // Execution `e` of every unit runs under seed `base_seed + e`.
        let early: BTreeSet<_> = guided
            .records
            .iter()
            .filter(|r| ((r.spec.seed - base_seed) as usize) < BUDGET / 4)
            .flat_map(|r| r.fingerprints.iter().copied())
            .collect();
        assert!(
            early.len() >= random.batch.len(),
            "{workers} workers: guided knows {} races after {} executions per unit, random ends with {}",
            early.len(),
            BUDGET / 4,
            random.batch.len(),
        );
    }
}
