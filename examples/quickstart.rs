//! Quickstart: write a racy Go-style program, run it under the
//! deterministic runtime, and let the TSan-style detector catch the race.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use grs::prelude::*;

fn main() {
    // Listing 1 of the paper: the loop index variable is one variable,
    // captured by reference into every goroutine.
    let program = Program::new("loop_capture_quickstart", |ctx| {
        let _main = ctx.frame("ProcessJobs");
        let jobs = [10i64, 20, 30];
        let job = ctx.cell("job", 0i64);
        for &j in &jobs {
            ctx.write(&job, j); // the loop advances `job`...
            let job = job.clone(); // ...which the closure captured
            ctx.go("worker", move |ctx| {
                let _f = ctx.frame("ProcessJob");
                let value = ctx.read(&job); // concurrent read!
                let _ = value;
            });
        }
    });

    // One run under one seed: the race may or may not manifest — exactly
    // the nondeterminism that §3.2 of the paper wrestles with.
    println!("== single runs (detection is schedule-dependent) ==");
    for seed in 0..5 {
        let (_, reports) = DetectorChoice::Hybrid.run(&program, RunConfig::with_seed(seed));
        println!(
            "  seed {seed}: {}",
            if reports.is_empty() {
                "no race observed".to_string()
            } else {
                format!("{} race report(s)", reports.len())
            }
        );
    }

    // A campaign reruns across many seeds and deduplicates the races by
    // fingerprint.
    let unit = CampaignUnit {
        name: program.name().to_string(),
        program,
        expected_racy: Some(true),
    };
    let result = Campaign::over_units(CampaignConfig::new().seeds_per_unit(50), vec![unit]).run();
    println!("\n== campaign: {} runs ==", result.total_runs());
    println!(
        "  detection rate: {:.0}% of runs",
        result.detection_rate() * 100.0
    );
    println!("  unique races: {}", result.batch.len());
    for (_, race) in result.batch.iter() {
        println!("\n{race}");
    }
}
