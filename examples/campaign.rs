//! The parallel campaign driver: run the (program × seed × strategy ×
//! detector) matrix over the pattern + Go-source corpora, report
//! throughput, per-shard latency, and detection-rate convergence, and emit
//! a machine-readable `BENCH_campaign.json`.
//!
//! ```sh
//! cargo run --release --example campaign -- [--workers N] [--seeds N] \
//!     [--suite pattern|corpus|all] [--serial-baseline] [--out PATH]
//! ```
//!
//! With `--replay` the campaign instead runs the execute-once engine: each
//! `(program, seed, strategy)` executes a single time under a trace
//! recorder and the trace fans offline through every configured detector —
//! here the full three-detector differential set. The run emits
//! `BENCH_replay.json` comparing it against the execute-per-detector
//! baseline on the same matrix (same deterministic digest, measured
//! speedup):
//!
//! ```sh
//! cargo run --release --example campaign -- --replay [--seeds N] \
//!     [--workers N] [--out BENCH_replay.json]
//! ```
//!
//! Either mode also exports the observability report (`BENCH_obs.json`:
//! stable metrics + the §3.5 Figure-3/Figure-4 timeline + volatile timing;
//! override the path with `--obs-out`), and `--dashboard` renders it as a
//! terminal dashboard.
//!
//! The default mode additionally runs the scheduler **ablation** (three
//! arms at the same per-unit budget: the static random and PCT matrices
//! vs the coverage-guided adaptive mode) and embeds its unsampled
//! convergence curves, the guided arm's executions-to-parity ratio, and
//! the adaptive digests at 1/4/8 workers under `"ablation"` in
//! `BENCH_campaign.json`. `--ablation-budget N` sets the per-unit
//! execution budget (default 96; `0` skips the ablation).

use std::fmt::Write as _;
use std::sync::Arc;

use grs::detector::default_workers;
use grs::prelude::*;

struct Args {
    workers: usize,
    seeds: usize,
    suite: String,
    serial_baseline: bool,
    replay: bool,
    dashboard: bool,
    ablation_budget: usize,
    out: Option<String>,
    obs_out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        workers: default_workers(),
        seeds: 32,
        suite: "all".to_string(),
        serial_baseline: false,
        replay: false,
        dashboard: false,
        ablation_budget: 96,
        out: None,
        obs_out: "BENCH_obs.json".to_string(),
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
            "--serial-baseline" => args.serial_baseline = true,
            "--replay" => args.replay = true,
            "--ablation-budget" => {
                args.ablation_budget = value("--ablation-budget")
                    .parse()
                    .expect("ablation-budget: integer");
            }
            "--dashboard" => args.dashboard = true,
            "--out" => args.out = Some(value("--out")),
            "--obs-out" => args.obs_out = value("--obs-out"),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// Writes the observability report, optionally renders the dashboard, and
/// prints the one-line summary either way.
fn export_obs(args: &Args, obs: &ObsReport) {
    std::fs::write(&args.obs_out, format!("{}\n", obs.to_json())).expect("write obs report");
    if args.dashboard {
        println!("{}", obs.dashboard());
    }
    println!(
        "obs: {} · digest 0x{:016x} · {} observations → {} filed / {} fixed over {} days → {}",
        obs.label,
        obs.deterministic_digest(),
        obs.timeline.observations,
        obs.timeline.total_filed,
        obs.timeline.total_fixed,
        obs.timeline.days.len(),
        args.obs_out,
    );
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
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

fn result_json(r: &CampaignResult, label: &str) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        r#"{{"label":"{}","workers":{},"shards":{},"total_runs":{},"racy_runs":{},"unique_races":{},"detection_rate":{:.4},"wall_ms":{:.3},"throughput_rps":{:.1},"total_events":{},"events_per_sec":{:.0},"max_depot_stacks":{},"peak_shadow_words":{}"#,
        json_escape(label),
        r.workers,
        r.shards,
        r.total_runs(),
        r.racy_runs(),
        r.batch.len(),
        r.detection_rate(),
        r.wall.as_secs_f64() * 1e3,
        r.throughput_rps(),
        r.total_events(),
        r.events_per_sec(),
        r.max_depot_stacks(),
        r.peak_shadow_words(),
    );
    let _ = write!(s, r#","units_skipped":{}"#, r.units_skipped);
    s.push_str(",\"shard_latency_ms\":[");
    for (i, st) in r.shard_stats().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            r#"{{"shard":{},"runs":{},"total_ms":{:.3},"max_ms":{:.3}}}"#,
            st.shard,
            st.runs,
            st.total.as_secs_f64() * 1e3,
            st.max.as_secs_f64() * 1e3,
        );
    }
    s.push_str("],\"convergence\":[");
    // Subsample the curve to <= 64 points to keep the artifact small.
    let conv = r.convergence();
    let step = (conv.len() / 64).max(1);
    let mut first = true;
    for (i, (runs, unique)) in conv.iter().enumerate() {
        if i % step != 0 && i != conv.len() - 1 {
            continue;
        }
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(s, "[{runs},{unique}]");
    }
    s.push_str("]}");
    s
}

/// The suite-wide per-execution convergence curve: records are replayed
/// in round-robin order across units (execution 0 of every unit, then
/// execution 1, …), so point `e` is the number of distinct race
/// fingerprints known once every unit has spent `e + 1` executions. This
/// ordering makes arms whose in-unit schedules differ (static matrix vs
/// adaptive exploration) comparable at equal cost, and the curve is
/// exported unsampled — one point per execution round, not capped like
/// the campaign summary's convergence section.
fn per_exec_curve(r: &CampaignResult, base_seed: u64, execs: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..r.records.len()).collect();
    order.sort_unstable_by_key(|&i| {
        let rec = &r.records[i];
        ((rec.spec.seed - base_seed) as usize, rec.spec.unit, rec.spec.index)
    });
    let mut seen = std::collections::HashSet::new();
    let mut curve = vec![0usize; execs];
    for i in order {
        let rec = &r.records[i];
        for &fp in &rec.fingerprints {
            seen.insert(fp);
        }
        let exec = (rec.spec.seed - base_seed) as usize;
        if exec < execs {
            curve[exec] = seen.len();
        }
    }
    for e in 1..execs {
        curve[e] = curve[e].max(curve[e - 1]);
    }
    curve
}

/// The §3.2 scheduler ablation: random and PCT static matrices vs the
/// coverage-guided adaptive mode, each arm spending the same per-unit
/// execution budget under the single hybrid detector. Prints a
/// convergence panel, re-runs the guided arm at 1/4/8 workers so CI can
/// gate digest determinism, and returns the `"ablation"` JSON object for
/// `BENCH_campaign.json`.
fn run_ablation(args: &Args, units: &[CampaignUnit]) -> String {
    let budget = args.ablation_budget;
    let arm_cfg = |strategy: Strategy, workers: usize| {
        CampaignConfig::nightly()
            .seeds_per_unit(budget)
            .workers(workers)
            .shards(4)
            .detectors(vec![DetectorChoice::Hybrid])
            .strategies(vec![strategy])
    };
    let base_seed = arm_cfg(Strategy::Random, 1).base_seed;
    println!(
        "== scheduler ablation: {} units × {budget} executions per arm ==",
        units.len()
    );

    let mut arms: Vec<(&str, CampaignResult, Vec<usize>)> = Vec::new();
    for (label, strategy, adaptive) in [
        ("random", Strategy::Random, false),
        ("pct", Strategy::Pct { depth: 3 }, false),
        ("guided", Strategy::Random, true),
    ] {
        let campaign = Campaign::over_units(arm_cfg(strategy, args.workers), units.to_vec());
        let result = if adaptive {
            campaign.run_adaptive()
        } else {
            campaign.run()
        };
        let curve = per_exec_curve(&result, base_seed, budget);
        arms.push((label, result, curve));
    }

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
    println!("   unique · novel sigs · mutated runs");
    for (label, result, curve) in &arms {
        print!("   {label:<8}");
        for &e in &checkpoints {
            print!(" {:>7}", curve[e - 1]);
        }
        println!(
            "   {:>6} · {:>10} · {:>12}",
            result.batch.len(),
            result.obs.snapshot.counter("explore.novel_signatures"),
            result.obs.snapshot.counter("explore.mutated_runs"),
        );
    }

    // Executions-to-parity: how early the guided arm matches the random
    // baseline's final unique-race yield.
    let target = arms[0].2.last().copied().unwrap_or(0);
    let parity = arms[2].2.iter().position(|&u| u >= target).map(|e| e + 1);
    match parity {
        Some(p) => println!(
            "   guided matched random's {target} unique races after {p}/{budget} executions per unit (ratio {:.3})",
            p as f64 / budget as f64
        ),
        None => println!("   guided never reached random's {target} unique races"),
    }

    // Worker placement must not leak into the adaptive mode's output:
    // identical digests at 1, 4, and 8 workers, exported for CI to gate.
    let digests: Vec<(usize, u64)> = [1usize, 4, 8]
        .into_iter()
        .map(|w| {
            let r = Campaign::over_units(arm_cfg(Strategy::Random, w), units.to_vec())
                .run_adaptive();
            (w, r.digest64())
        })
        .collect();

    let mut s = String::new();
    let _ = write!(
        s,
        r#"{{"budget_per_unit":{budget},"units":{},"target_unique":{target}"#,
        units.len()
    );
    match parity {
        Some(p) => {
            let _ = write!(
                s,
                r#","guided_parity_exec":{p},"parity_ratio":{:.4}"#,
                p as f64 / budget as f64
            );
        }
        None => s.push_str(r#","guided_parity_exec":null,"parity_ratio":null"#),
    }
    s.push_str(r#","guided_digest_by_workers":{"#);
    for (i, (w, d)) in digests.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, r#""{w}":"0x{d:016x}""#);
    }
    s.push_str(r#"},"arms":["#);
    for (i, (label, result, curve)) in arms.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            r#"{{"label":"{label}","total_runs":{},"racy_runs":{},"unique_races":{},"novel_signatures":{},"mutated_runs":{},"convergence":["#,
            result.total_runs(),
            result.racy_runs(),
            result.batch.len(),
            result.obs.snapshot.counter("explore.novel_signatures"),
            result.obs.snapshot.counter("explore.mutated_runs"),
        );
        for (j, u) in curve.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(s, "{u}");
        }
        s.push_str("]}");
    }
    s.push_str("]}");
    s
}

/// The `--replay` benchmark: the same matrix driven twice — once
/// executing every `(program, seed, strategy, detector)` cell live, once
/// executing each `(program, seed, strategy)` a single time under a trace
/// recorder and fanning the trace through all three detectors offline.
/// Both paths must agree bit-for-bit on their deterministic output; the
/// execute-once path wins on wall clock because scheduling dominates
/// analysis, and this run measures by how much.
fn run_replay_bench(args: &Args, units: Vec<CampaignUnit>) {
    let out = args.out.clone().unwrap_or_else(|| "BENCH_replay.json".to_string());
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
    assert_eq!(
        replayed.obs.timeline_json(),
        baseline.obs.timeline_json(),
        "the exported timeline must be byte-identical live vs replay"
    );
    export_obs(args, &replayed.obs);

    let speedup = baseline.wall.as_secs_f64() / replayed.wall.as_secs_f64().max(1e-9);
    println!(
        "speedup: {speedup:.2}× runs/sec over the per-detector baseline (digests agree)"
    );

    let json = format!(
        concat!(
            r#"{{"suite":"{}","seeds_per_unit":{},"units":{},"detectors":{},"executions":{},"#,
            r#""replays":{},"trace_events":{},"trace_bytes_total":{},"trace_bytes_max":{},"#,
            r#""trace_bytes_avg":{},"record_wall_ms":{:.3},"replay_wall_ms":{:.3},"#,
            r#""speedup":{:.3},"results":[{},{}]}}"#
        ),
        json_escape(&args.suite),
        config.seeds_per_unit,
        campaign.unit_count(),
        config.detectors.len(),
        stats.executions,
        stats.replays,
        stats.trace_events,
        stats.trace_bytes_total,
        stats.trace_bytes_max,
        stats.avg_trace_bytes(),
        stats.record_wall.as_secs_f64() * 1e3,
        stats.replay_wall.as_secs_f64() * 1e3,
        speedup,
        result_json(&baseline, "execute-per-detector"),
        result_json(&replayed, "execute-once-replay"),
    );
    std::fs::write(&out, format!("{json}\n")).expect("write JSON summary");
    println!("wrote {out}");
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
        run_replay_bench(&args, units);
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

    // One BENCH_obs.json for the whole turn: fold the intake stage's
    // counters into the campaign's snapshot.
    let mut obs = result.obs.clone();
    obs.snapshot.merge(&intake_registry.snapshot());
    export_obs(&args, &obs);

    let mut sections = vec![result_json(&result, "parallel")];
    if args.serial_baseline {
        let serial = campaign
            .with_config(campaign.config().clone().workers(1))
            .run();
        println!(
            "serial:   {} runs in {:.1} ms ({:.0} runs/s) — speedup {:.2}×",
            serial.total_runs(),
            serial.wall.as_secs_f64() * 1e3,
            serial.throughput_rps(),
            serial.wall.as_secs_f64() / result.wall.as_secs_f64().max(1e-9),
        );
        assert_eq!(
            serial.deterministic_digest(),
            result.deterministic_digest(),
            "serial and parallel campaigns must agree"
        );
        sections.push(result_json(&serial, "serial"));
    }

    let ablation = if args.ablation_budget > 0 {
        format!(r#","ablation":{}"#, run_ablation(&args, &units))
    } else {
        String::new()
    };

    let json = format!(
        r#"{{"suite":"{}","seeds_per_unit":{},"units":{},"results":[{}]{}}}"#,
        json_escape(&args.suite),
        config.seeds_per_unit,
        campaign.unit_count(),
        sections.join(","),
        ablation,
    );
    let out = args.out.unwrap_or_else(|| "BENCH_campaign.json".to_string());
    std::fs::write(&out, format!("{json}\n")).expect("write JSON summary");
    println!("wrote {out}");
}
