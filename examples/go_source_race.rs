//! Run real Go source end to end: parse with the Go-lite frontend, lint it
//! statically, execute it on the instrumented runtime, and race it
//! dynamically — the `go test -race` experience for a paper listing.
//!
//! ```sh
//! cargo run --example go_source_race
//! ```

use grs::golite::{lint_file, parse_file};
use grs::prelude::*;
use grs_interp::Interp;

const LISTING_6: &str = r#"
package main

func getOrder(uuid int) string {
    if uuid > 1 {
        return "failed"
    }
    return ""
}

func main() {
    uuids := []int{1, 2, 3}
    errMap := make(map[int]string)
    done := make(chan bool, 3)
    for _, uuid := range uuids {
        go func(uuid int) {
            err := getOrder(uuid)
            if err != "" {
                errMap[uuid] = err
            }
            done <- true
        }(uuid)
    }
    <-done
    <-done
    <-done
    _ = len(errMap)
}
"#;

fn main() {
    println!("== the Go source under test (Listing 6's shape) ==");
    println!("{LISTING_6}");

    // 1. Static analysis: the Go-lite lints.
    let file = parse_file(LISTING_6).expect("parses");
    println!("== static lints ==");
    let findings = lint_file(&file);
    if findings.is_empty() {
        println!("  (none)");
    }
    for f in &findings {
        println!("  {f}");
    }

    // 2. Dynamic analysis: interpret on the instrumented runtime, run a
    //    campaign over 60 schedules, detect.
    let interp = Interp::from_source(LISTING_6).expect("compiles");
    let unit = CampaignUnit {
        name: "listing6_from_source".to_string(),
        program: interp.program("listing6_from_source", "main"),
        expected_racy: Some(true),
    };
    let result = Campaign::over_units(CampaignConfig::new().seeds_per_unit(60), vec![unit]).run();
    println!("\n== dynamic detection ({} runs) ==", result.total_runs());
    println!(
        "  detection rate: {:.0}%  unique races: {}",
        result.detection_rate() * 100.0,
        result.batch.len()
    );
    for (_, race) in result.batch.iter().take(2) {
        println!("\n{race}");
    }
}
