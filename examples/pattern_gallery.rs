//! The full §4 pattern gallery: every listing and Table 2/3 shape, run
//! as one campaign, with detection rates for the racy variant and a
//! cleanliness check for the fixed one.
//!
//! ```sh
//! cargo run --release --example pattern_gallery
//! ```

use grs::classify;
use grs::patterns::registry;
use grs::prelude::*;

fn main() {
    // Unit `2i` is pattern `i`'s racy variant, `2i + 1` its fixed twin.
    let seeds = 60;
    let config = CampaignConfig::new().seeds_per_unit(seeds);
    let result = Campaign::over_units(config, pattern_suite(true)).run();
    let racy_runs = |unit: usize| {
        result.records.iter().filter(|r| r.spec.unit == unit && r.racy).count()
    };
    println!(
        "{:<34} {:<8} {:>6} {:>9} {:>7} {:<30}",
        "pattern", "listing", "racy%", "fixed-ok", "class", "category"
    );
    println!("{}", "-".repeat(100));
    for (i, pattern) in registry().into_iter().enumerate() {
        let classified = result
            .first_race(2 * i)
            .map(|r| {
                if classify(r) == pattern.category {
                    "ok"
                } else {
                    "MISS"
                }
            })
            .unwrap_or("n/a");
        println!(
            "{:<34} {:<8} {:>5.0}% {:>9} {:>7} {:<30}",
            pattern.id,
            pattern
                .listing
                .map_or_else(|| "-".to_string(), |l| format!("L{l}")),
            racy_runs(2 * i) as f64 * 100.0 / seeds as f64,
            if racy_runs(2 * i + 1) > 0 { "FLAGGED" } else { "clean" },
            classified,
            pattern.category.description(),
        );
    }

    println!("\nSample report (Listing 5 — the slice-header race):");
    let listing5 = registry()
        .iter()
        .position(|p| p.listing == Some(5))
        .expect("listing 5 in corpus");
    if let Some(race) = result.first_race(2 * listing5) {
        println!("{race}");
    }
}
