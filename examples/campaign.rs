//! The parallel campaign driver: run the (program × seed × strategy ×
//! detector) matrix over the pattern + Go-source corpora in each of the
//! engine's two modes and print what each found.
//!
//! ```sh
//! cargo run --release --example campaign -- [--workers N] [--seeds N] \
//!     [--suite pattern|corpus|all] [--ablation-budget N] [--replay] \
//!     [--obs-out PATH] [--dashboard]
//! ```
//!
//! The default run is the **live** campaign (throughput, per-shard
//! latency, detection-rate convergence, filing into the intake service)
//! followed by the scheduler **ablation**: the random and PCT matrices at
//! the same per-unit budget, printed as a convergence table.
//! `--ablation-budget N` sets the per-unit execution budget (default 96;
//! `0` skips the ablation).
//!
//! With `--replay` the campaign instead runs the execute-once engine: each
//! `(program, seed, strategy)` executes a single time under a trace
//! recorder and the trace fans offline through every configured detector —
//! here the full three-detector differential set — and is checked
//! bit-for-bit against the execute-per-detector run of the same matrix.
//!
//! `--obs-out PATH` writes the observability report (stable metrics +
//! volatile timing) as versioned JSON; `--dashboard` renders it as a
//! terminal dashboard.

use std::sync::Arc;

use grs::detector::default_workers;
use grs::prelude::*;

struct Args {
    workers: usize,
    seeds: usize,
    suite: String,
    replay: bool,
    dashboard: bool,
    ablation_budget: usize,
    obs_out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        workers: default_workers(),
        seeds: 32,
        suite: "all".to_string(),
        replay: false,
        dashboard: false,
        ablation_budget: 96,
        obs_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--workers" => args.workers = value("--workers").parse().expect("workers: integer"),
            "--seeds" => args.seeds = value("--seeds").parse().expect("seeds: integer"),
            "--suite" => args.suite = value("--suite"),
            "--replay" => args.replay = true,
            "--ablation-budget" => {
                args.ablation_budget = value("--ablation-budget")
                    .parse()
                    .expect("ablation-budget: integer");
            }
            "--dashboard" => args.dashboard = true,
            "--obs-out" => args.obs_out = Some(value("--obs-out")),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// Writes the observability report when a path was given, optionally
/// renders the dashboard, and prints the one-line summary either way.
fn export_obs(args: &Args, obs: &ObsReport) {
    if let Some(path) = &args.obs_out {
        std::fs::write(path, format!("{}\n", obs.to_json())).expect("write obs report");
        println!("wrote {path}");
    }
    if args.dashboard {
        println!("{}", obs.dashboard());
    }
    println!("obs: {} · digest 0x{:016x}", obs.label, obs.deterministic_digest());
}

/// Prints the campaign's skip accounting: how many units failed to lower
/// and the first few structured reasons. A healthy corpus logs nothing.
fn log_skips(r: &CampaignResult) {
    if r.units_skipped == 0 {
        return;
    }
    println!(
        "   skipped {} unit(s) that failed to lower ({} specs):",
        r.units_skipped,
        r.obs.snapshot.counter("campaign.skipped_runs"),
    );
    for reason in &r.skip_reasons {
        println!("     - {reason}");
    }
}

/// The suite-wide per-execution convergence curve: records are replayed
/// in round-robin order across units (execution 0 of every unit, then
/// execution 1, …), so point `e` is the number of distinct race
/// fingerprints known once every unit has spent `e + 1` executions, which
/// makes arms comparable at equal cost.
fn per_exec_curve(r: &CampaignResult, base_seed: u64, execs: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..r.records.len()).collect();
    order.sort_unstable_by_key(|&i| {
        let rec = &r.records[i];
        (rec.spec.seed.wrapping_sub(base_seed), rec.spec.unit, rec.spec.index)
    });
    let mut seen = std::collections::HashSet::new();
    let mut curve = vec![0usize; execs];
    for i in order {
        let rec = &r.records[i];
        for &fp in &rec.fingerprints {
            seen.insert(fp);
        }
        let exec = rec.spec.seed.wrapping_sub(base_seed) as usize;
        if exec < execs {
            curve[exec] = seen.len();
        }
    }
    for e in 1..execs {
        curve[e] = curve[e].max(curve[e - 1]);
    }
    curve
}

/// The §3.2 scheduler ablation: the random and PCT matrices, each arm
/// spending the same per-unit execution budget under the single hybrid
/// detector. Prints a convergence panel and, per arm, the execution at
/// which it first held its own final yield.
fn run_ablation(args: &Args, units: &[CampaignUnit]) {
    let budget = args.ablation_budget;
    println!(
        "== scheduler ablation: {} units × {budget} executions per arm ==",
        units.len()
    );

    // Convergence panel: unique races known after each arm has spent the
    // checkpoint's executions in every unit.
    let checkpoints: Vec<usize> = [1, budget / 8, budget / 4, budget / 2, budget]
        .into_iter()
        .filter(|&e| e >= 1)
        .collect();
    print!("   {:<8}", "execs");
    for &e in &checkpoints {
        print!(" {e:>7}");
    }
    println!("   unique · first held at");
    for (label, strategy) in [("random", Strategy::Random), ("pct", Strategy::Pct { depth: 3 })] {
        let config = CampaignConfig::nightly()
            .seeds_per_unit(budget)
            .workers(args.workers)
            .shards(4)
            .detectors(vec![DetectorChoice::Hybrid])
            .strategies(vec![strategy]);
        let base_seed = config.base_seed;
        let result = Campaign::over_units(config, units.to_vec()).run();
        let curve = per_exec_curve(&result, base_seed, budget);
        print!("   {label:<8}");
        for &e in &checkpoints {
            print!(" {:>7}", curve[e - 1]);
        }
        let unique = result.batch.len();
        let held = curve.iter().position(|&u| u >= unique).map_or(0, |e| e + 1);
        println!("   {unique:>6} · execution {held}/{budget}");
    }
}

/// The `--replay` demo: the same matrix driven twice — once
/// executing every `(program, seed, strategy, detector)` cell live, once
/// executing each `(program, seed, strategy)` a single time under a trace
/// recorder and fanning the trace through all three detectors offline.
/// Both paths must agree bit-for-bit on their deterministic output; the
/// execute-once path wins on wall clock because scheduling dominates
/// analysis.
fn run_replay_demo(args: &Args, units: Vec<CampaignUnit>) {
    let config = CampaignConfig::nightly()
        .seeds_per_unit(args.seeds)
        .workers(args.workers)
        .shards(2 * args.workers)
        .detectors(DetectorChoice::all().to_vec())
        .strategies(vec![Strategy::Random, Strategy::Pct { depth: 2 }]);
    let campaign = Campaign::over_units(config.clone(), units);
    let execs = campaign.exec_len();
    println!(
        "== replay campaign: {} units × {} seeds × {} strategies → {} executions fanned through {} detectors = {} analyses ==",
        campaign.unit_count(),
        config.seeds_per_unit,
        config.strategies.len(),
        execs,
        config.detectors.len(),
        campaign.matrix_len(),
    );

    let baseline = campaign.run();
    println!(
        "execute-per-detector: {} runs in {:.1} ms ({:.0} runs/s)",
        baseline.total_runs(),
        baseline.wall.as_secs_f64() * 1e3,
        baseline.throughput_rps(),
    );

    let replayed = campaign.run_replay();
    let stats = replayed.replay.expect("replay campaign carries stats");
    println!(
        "execute-once:         {} analyses in {:.1} ms ({:.0} runs/s) from {} executions",
        replayed.total_runs(),
        replayed.wall.as_secs_f64() * 1e3,
        replayed.throughput_rps(),
        stats.executions,
    );
    log_skips(&replayed);
    println!(
        "   traces: {} events, {:.1} KiB total ({} B avg, {} B max) · record {:.1} ms · replay {:.1} ms",
        stats.trace_events,
        stats.trace_bytes_total as f64 / 1024.0,
        stats.avg_trace_bytes(),
        stats.trace_bytes_max,
        stats.record_wall.as_secs_f64() * 1e3,
        stats.replay_wall.as_secs_f64() * 1e3,
    );

    assert_eq!(
        replayed.deterministic_digest(),
        baseline.deterministic_digest(),
        "replay campaign must reproduce the live campaign bit-for-bit"
    );
    assert_eq!(replayed.batch.fingerprints(), baseline.batch.fingerprints());
    export_obs(args, &replayed.obs);

    let speedup = baseline.wall.as_secs_f64() / replayed.wall.as_secs_f64().max(1e-9);
    println!(
        "speedup: {speedup:.2}× runs/sec over the per-detector baseline (digests agree)"
    );
}

fn main() {
    let args = parse_args();
    let units = match args.suite.as_str() {
        "pattern" => pattern_suite(true),
        "corpus" => corpus_suite(),
        "all" => {
            let mut u = pattern_suite(true);
            u.extend(corpus_suite());
            u
        }
        other => panic!("--suite must be pattern|corpus|all, got {other}"),
    };
    if args.replay {
        run_replay_demo(&args, units);
        return;
    }
    let config = CampaignConfig::nightly()
        .seeds_per_unit(args.seeds)
        .workers(args.workers)
        .shards(2 * args.workers)
        .detectors(vec![DetectorChoice::Hybrid])
        .strategies(vec![Strategy::Random, Strategy::Pct { depth: 2 }]);
    let campaign = Campaign::over_units(config.clone(), units.clone());

    println!("== campaign: {} units × {} seeds × {} strategies × {} detectors = {} runs ==",
        campaign.unit_count(),
        config.seeds_per_unit,
        config.strategies.len(),
        config.detectors.len(),
        campaign.matrix_len(),
    );
    println!("   workers {} · shards {}", config.workers, config.shards);

    let result = campaign.run();
    println!(
        "parallel: {} runs in {:.1} ms ({:.0} runs/s), {} racy runs, {} unique races",
        result.total_runs(),
        result.wall.as_secs_f64() * 1e3,
        result.throughput_rps(),
        result.racy_runs(),
        result.batch.len(),
    );
    log_skips(&result);
    println!(
        "   hot path: {} events ({:.2} M events/s) · depot ≤ {} stacks/run · shadow ≤ {} words/run",
        result.total_events(),
        result.events_per_sec() / 1e6,
        result.max_depot_stacks(),
        result.peak_shadow_words(),
    );
    for st in result.shard_stats() {
        println!(
            "   shard {:>2}: {:>4} runs, {:>8.1} ms total, {:>6.2} ms max",
            st.shard,
            st.runs,
            st.total.as_secs_f64() * 1e3,
            st.max.as_secs_f64() * 1e3,
        );
    }
    let conv = result.convergence();
    if let Some(&(_, total)) = conv.last() {
        // Where the campaign reached 50% / 90% / 100% of its final yield —
        // the §3.2 flakiness story quantified.
        for frac in [0.5, 0.9, 1.0] {
            let target = (total as f64 * frac).ceil() as usize;
            if let Some(&(runs, _)) = conv.iter().find(|&&(_, u)| u >= target) {
                println!(
                    "   {:>3.0}% of races found after {runs} runs ({:.1}% of the campaign)",
                    frac * 100.0,
                    100.0 * runs as f64 / result.total_runs() as f64
                );
            }
        }
    }

    // File the deduped batch into the intake service (day 0), with the
    // intake stage reporting into its own registry.
    let intake_registry = Arc::new(MetricsRegistry::new());
    let service = IntakeService::builder()
        .workers(1)
        .observed(intake_registry.clone())
        .start()
        .expect("fresh service starts");
    let outcomes = result
        .file_into_service(&service, 0)
        .expect("service accepts the batch");
    println!(
        "intake: filed {} tasks from {} deduped races ({} raw reports)",
        service.with_tracker(|t| t.total_filed()),
        outcomes.len(),
        result.batch.raw_reports(),
    );

    // One obs report for the whole turn: fold the intake stage's
    // counters into the campaign's snapshot.
    let mut obs = result.obs.clone();
    obs.snapshot.merge(&intake_registry.snapshot());
    export_obs(&args, &obs);

    if args.ablation_budget > 0 {
        run_ablation(&args, &units);
    }
}
