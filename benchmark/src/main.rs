//! The pipeline benchmark.
//!
//! One run of one workload (what `BENCHMARK.json`'s command does):
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload corpus_live --seed 1 --seconds 10 --trace 0
//! ```
//!
//! prints an environment block, the slice summaries and output checks, and
//! as its last line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` — every end-to-end metric with `--trace 0`, every
//! per-layer metric with `--trace 1`. Without `--workload` the harness runs
//! every workload, each in a fresh child process of itself: `--seed 1` the
//! end-to-end suite, `--seed 1 --traced` the per-layer table,
//! `--seed 1 --check-repeat` the suite twice with the medians compared.
//! See README.md.

mod env;
mod expected;
mod inputs;
mod openloop;
mod probes;
mod report;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

use report::{RunReport, END_TO_END, PER_LAYER};
use spans::SpanRecorder;
use workloads::{RunArgs, Workload, REFERENCE_SECONDS, WORKLOADS};

#[derive(Debug, Clone)]
pub struct Cli {
    pub print_contract: bool,
    pub workload: Option<&'static Workload>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub check_repeat: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: grs-benchmark [--workload <{}>] [--seed N] [--seconds 1..60] [--trace 0|1 | --traced] [--check-repeat] [--print-contract]",
        names.join("|")
    )
}

pub fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        print_contract: false,
        workload: None,
        seed: 1,
        seconds: REFERENCE_SECONDS,
        trace: false,
        check_repeat: false,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                cli.workload =
                    Some(Workload::named(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&cli.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--traced" => cli.trace = true,
            "--check-repeat" => cli.check_repeat = true,
            "--print-contract" => cli.print_contract = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// The command the driver runs, from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <run_seconds> --trace <0|1>`.
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, from the tables the harness prints by.
fn contract_json() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let rows = |rows: Vec<String>| rows.join(",\n");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {REFERENCE_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(COMMAND),
        rows(WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect()),
        rows(END_TO_END
            .iter()
            .map(|m| format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            ))
            .collect()),
        rows(PER_LAYER
            .iter()
            .map(|m| format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            ))
            .collect()),
    )
}

/// Every per-layer metric, in table order: the measured ones from
/// `measured`, 0 for the layers this workload never enters.
fn per_layer_table(measured: &RunReport) -> RunReport {
    let mut full = RunReport::default();
    for def in PER_LAYER {
        full.metric(
            def.name,
            measured.value_of(def.name).unwrap_or(0.0),
            def.unit,
        );
    }
    full
}

/// One run of one workload, in this process.
fn run_one(workload: &Workload, cli: &Cli) -> ExitCode {
    // Before anything spawns a thread: children inherit the mask.
    let cpus = env::pin_primary();
    let one_arena = env::single_malloc_arena();
    print!("{}", env::environment_block(&cpus, one_arena, cli.seed));
    println!("workload: {}", workload.name);
    println!("seconds: {}", cli.seconds);
    println!("trace: {}", u8::from(cli.trace));
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        cpus,
    };

    let mut report = if cli.trace {
        let mut spans = SpanRecorder::with_capacity(1 << 16);
        let mut measured = (workload.traced)(&args, &mut spans);
        probes::run_all(&mut measured, cli.seed);
        let path = std::path::Path::new(env::BENCH_DIR)
            .join("out")
            .join("trace.json");
        match std::fs::create_dir_all(path.parent().expect("out/ has a parent"))
            .and_then(|()| std::fs::write(&path, spans.to_json()))
        {
            Ok(()) => println!(
                "spans: {} written to {}",
                spans.spans().len(),
                path.display()
            ),
            Err(e) => measured.check("trace.json is written", false, e.to_string()),
        }
        let mut full = per_layer_table(&measured);
        full.checks = measured.checks;
        full.notes = measured.notes;
        full.attempted = spans.spans().len().max(1) as u64;
        full
    } else {
        let mut report = (workload.run)(&args);
        expected::check(&mut report, workload.name, cli.seed, cli.seconds);
        report
    };

    for note in &report.notes {
        println!("{note}");
    }
    for (name, value) in &report.counts {
        println!("count {name} = {value}");
    }
    for check in &report.checks {
        println!(
            "check [{}] {} ({})",
            if check.passed { "ok" } else { "FAILED" },
            check.name,
            check.detail
        );
    }
    if !report.correct() {
        // No timing is printed for a workload whose outputs are wrong.
        eprintln!(
            "{}: output checks failed; refusing to report a timing",
            workload.name
        );
        return ExitCode::FAILURE;
    }
    if !cli.trace {
        // The contract's metric list, in its order, nothing else.
        let measured = std::mem::take(&mut report.metrics);
        for def in END_TO_END {
            let m = measured
                .iter()
                .find(|m| m.name == def.name)
                .unwrap_or_else(|| panic!("{} did not report {}", workload.name, def.name));
            report.metric(def.name, m.value, def.unit);
        }
    }
    for m in &report.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if cli.print_contract {
        print!("{}", contract_json());
        return ExitCode::SUCCESS;
    }
    match cli.workload {
        Some(workload) => run_one(workload, &cli),
        None => suite::run(&cli),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let c = cli(&[
            "--workload",
            "intake_open",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(c.workload.map(|w| w.name), Some("intake_open"));
        assert_eq!((c.seed, c.seconds, c.trace), (7, 10, true));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--seconds", "61"]).is_err());
        assert!(cli(&["--trace", "2"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
    }

    #[test]
    fn suite_defaults() {
        let c = cli(&["--traced"]).expect("valid");
        assert!(c.workload.is_none());
        assert_eq!(
            (c.seed, c.seconds, c.trace, c.check_repeat),
            (1, 10, true, false)
        );
    }

    /// `BENCHMARK.json` is the driver's contract; the tables in
    /// `report.rs` and `workloads/mod.rs` are what the harness prints. The
    /// file is exactly what `--print-contract` writes from those tables.
    #[test]
    fn benchmark_json_is_what_the_tables_say() {
        assert_eq!(include_str!("../../BENCHMARK.json"), contract_json());
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(
                !w.why.contains(['"', '\\', '\n']),
                "{}: why needs no escaping",
                w.name
            );
        }
    }
}
