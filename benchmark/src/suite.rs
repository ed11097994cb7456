//! The suite modes: every workload, each in a fresh child process of this
//! executable (its own `VmHWM`, its own allocator state, its own pinning),
//! one after the other.

use std::process::{Command, ExitCode, Stdio};

use crate::report::{parse_result_line, Better, ParsedResult, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use crate::Cli;

/// Runs one workload in a child and returns its parsed result line, after
/// passing its output through.
fn run_child(workload: &str, cli: &Cli) -> Result<ParsedResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines() {
        println!("  {line}");
    }
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    stdout
        .lines()
        .last()
        .and_then(parse_result_line)
        .ok_or_else(|| format!("{workload} printed no result line"))
}

/// One pass over every workload.
fn run_all(cli: &Cli) -> Result<Vec<(&'static str, ParsedResult)>, String> {
    let mut results = Vec::new();
    for w in WORKLOADS {
        println!("== {}: {} ==", w.name, w.why);
        let result = run_child(w.name, cli)?;
        if !result.correct {
            return Err(format!("{} reported correct: false", w.name));
        }
        results.push((w.name, result));
    }
    Ok(results)
}

fn value(result: &ParsedResult, metric: &str) -> Option<f64> {
    result
        .metrics
        .iter()
        .find(|m| m.name == metric)
        .map(|m| m.value)
}

/// Metric × workload, one row per metric.
fn print_table(results: &[(&'static str, ParsedResult)], traced: bool) {
    print!(
        "\n{:<42} {:>6} {:>6} {:>7}",
        "metric", "unit", "better", "bound"
    );
    for (name, _) in results {
        print!(" {name:>14}");
    }
    println!();
    let row = |name: &str, unit: &str, better: Better, bound: String| {
        print!("{name:<42} {unit:>6} {:>6} {bound:>7}", better.as_str());
        for (_, r) in results {
            match value(r, name) {
                Some(v) => print!(" {v:>14.4}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    };
    if traced {
        for def in PER_LAYER {
            row(def.name, def.unit, def.better, "-".into());
        }
    } else {
        for def in END_TO_END {
            row(
                def.name,
                def.unit,
                def.better,
                format!("{:.0} %", def.bound * 100.0),
            );
        }
        print!("{:<42} {:>6} {:>6} {:>7}", "failed / attempted", "", "", "");
        for (_, r) in results {
            print!(" {:>14}", format!("{}/{}", r.failed, r.attempted));
        }
        println!();
    }
}

/// How much worse `second` is than `first`, as a share of `first`.
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    let delta = match better {
        Better::Higher => first - second,
        Better::Lower => second - first,
    };
    delta / first.abs().max(f64::MIN_POSITIVE)
}

/// The end-to-end suite twice, back to back; every (metric, workload) pair
/// of the two runs must agree within the metric's bound, either way round.
fn check_repeat(cli: &Cli) -> Result<bool, String> {
    println!("# first run");
    let first = run_all(cli)?;
    println!("# second run");
    let second = run_all(cli)?;
    println!(
        "\n{:<20} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "metric", "workload", "first", "second", "diff", "bound"
    );
    let mut agree = true;
    for def in END_TO_END {
        for ((workload, a), (_, b)) in first.iter().zip(&second) {
            let (a, b) = (
                value(a, def.name).ok_or_else(|| format!("{workload} lacks {}", def.name))?,
                value(b, def.name).ok_or_else(|| format!("{workload} lacks {}", def.name))?,
            );
            let diff = worsening(def.better, a, b).abs();
            let ok = diff <= def.bound;
            agree &= ok;
            println!(
                "{:<20} {:<14} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}% {}",
                def.name,
                workload,
                a,
                b,
                diff * 100.0,
                def.bound * 100.0,
                if ok { "" } else { "DISAGREE" }
            );
        }
    }
    Ok(agree)
}

pub fn run(cli: &Cli) -> ExitCode {
    let outcome = if cli.check_repeat {
        let mut cli = cli.clone();
        cli.trace = false;
        check_repeat(&cli)
    } else {
        run_all(cli).map(|results| {
            print_table(&results, cli.trace);
            true
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("two runs of the same code disagree by more than a metric's bound");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
    }
}
