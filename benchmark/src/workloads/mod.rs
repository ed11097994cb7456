//! The five workloads. Names are final: later issues cite them.
//!
//! Every workload follows one protocol. Set-up (generate the inputs, build
//! the objects under test, run slice 0 once untimed as the warm-up) runs
//! seven times and `setup_s` is the median; the timed section is twenty
//! equal slices and every rate or latency is the good-side quartile of the
//! slices (see [`RunReport::slices`] for why not the median). Sizes are
//! constants per second of `--seconds`, calibrated once at the commit that
//! added the benchmark so that the timed section lasts about `--seconds`
//! there; nothing is scaled at run time by how fast the code turns out to
//! be, so every count is a function of `(seed, seconds)` alone.

use std::time::Instant;

use crate::env::Cpus;
use crate::report::{Better, RunReport};
use crate::spans::SpanRecorder;
use crate::stats::Summary;

pub mod corpus_live;
pub mod intake_open;
pub mod live;
pub mod pattern_live;
pub mod static_scan;
pub mod trace_replay;

/// Timed slices per run.
pub const SLICES: usize = 20;

/// How often set-up runs; `setup_s` is the median.
pub const SETUPS: usize = 7;

/// `--seconds` the size constants were calibrated for.
pub const REFERENCE_SECONDS: u64 = 10;

/// A workload, why it exists, and its two measurements.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// The end-to-end measurement.
    pub run: fn(&RunArgs) -> RunReport,
    /// The traced pass: spans go into the recorder, the workload's own
    /// per-layer metrics into the report.
    pub traced: fn(&RunArgs, &mut SpanRecorder) -> RunReport,
}

impl Workload {
    pub fn named(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "corpus_live",
        why: "Nightly shape: generated Go tests cross every stage, generate to file; the kernel does most of the work, golite parse is second, the detector is noise.",
        run: corpus_live::run,
        traced: corpus_live::traced,
    },
    Workload {
        name: "pattern_live",
        why: "Closure programs through runtime and all four detectors with no corpus, golite or interp: a frontend change predicts no change here, a kernel change moves both.",
        run: pattern_live::run,
        traced: pattern_live::traced,
    },
    Workload {
        name: "trace_replay",
        why: "Decode recorded traces and fan them through four detectors on the batched path with the kernel bypassed: an executor change predicts no change.",
        run: trace_replay::run,
        traced: trace_replay::traced,
    },
    Workload {
        name: "static_scan",
        why: "Parse, scan, lint and lower a generated monorepo and test corpus without executing anything: golite and interp lowering do all the work.",
        run: static_scan::run,
        traced: static_scan::traced,
    },
    Workload {
        name: "intake_open",
        why: "Open-loop uploads at four fixed rates into the intake service, Zipf over 8x the dedup cache so it evicts: only deploy and its decode and replay call work.",
        run: intake_open::run,
        traced: intake_open::traced,
    },
];

/// What every workload is given.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: u64,
    pub cpus: Cpus,
}

impl RunArgs {
    /// A per-second size constant at this run's `--seconds` (at least 1).
    pub fn scaled(&self, per_reference_run: usize) -> usize {
        (per_reference_run as u64 * self.seconds / REFERENCE_SECONDS).max(1) as usize
    }
}

/// Runs `build` [`SETUPS`] times, dropping each result before the next is
/// built so peak RSS reflects one set of inputs, and returns the last one
/// with the median set-up time in seconds.
pub fn set_up<S>(report: &mut RunReport, mut build: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let started = Instant::now();
        last = Some(build());
        times.push(started.elapsed().as_secs_f64());
    }
    let s = Summary::of(&times);
    report.notes.push(format!(
        "set-up: median {:.4} s (min {:.4}, max {:.4}, n {})",
        s.median, s.min, s.max, s.n
    ));
    (last.expect("SETUPS > 0"), s.median)
}

/// Per-slice latency percentiles, nanoseconds.
#[derive(Debug, Default)]
pub struct SliceLatencies {
    p50_ns: Vec<f64>,
    p99_ns: Vec<f64>,
}

impl SliceLatencies {
    /// Adds one slice's samples (sorted in place).
    pub fn push(&mut self, samples_ns: &mut [u64]) {
        let (p50, p99) = crate::stats::p50_p99(samples_ns);
        self.p50_ns.push(p50 as f64);
        self.p99_ns.extend(p99.map(|ns| ns as f64));
    }

    /// Reports `latency_p50_us`, and the p99 beside it as a note: its
    /// run-to-run spread is too wide for it to gate anything end to end,
    /// so it is a per-layer metric of the traced run.
    pub fn report(&self, report: &mut RunReport) {
        let to_us = |v: &[f64]| v.iter().map(|ns| ns / 1e3).collect::<Vec<f64>>();
        let p50 = report.slices("latency p50", "us", Better::Lower, &to_us(&self.p50_ns));
        report.metric("latency_p50_us", p50, "us");
        if self.p99_ns.len() == self.p50_ns.len() {
            report.slices("latency p99", "us", Better::Lower, &to_us(&self.p99_ns));
        } else {
            report
                .notes
                .push("latency p99: slices too short to leave ten samples beyond it".into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};

    fn args(seed: u64) -> RunArgs {
        RunArgs {
            seed,
            seconds: 1,
            cpus: Cpus {
                allowed: Vec::new(),
                primary: None,
                unpinned_reason: Some("under test".into()),
            },
        }
    }

    /// The output checks are not tuned to the seed the counts were recorded
    /// for: another seed, at a tenth of the size, passes them all and
    /// reports every end-to-end metric, none of them 0.
    #[test]
    fn a_second_seed_passes_every_output_check() {
        for w in WORKLOADS {
            let report = (w.run)(&args(2));
            let failed: Vec<_> = report.checks.iter().filter(|c| !c.passed).collect();
            assert!(failed.is_empty(), "{}: {failed:?}", w.name);
            assert!(
                !report.checks.is_empty(),
                "{}: no output checks ran",
                w.name
            );
            assert!(report.attempted >= 1, "{}", w.name);
            for m in END_TO_END {
                let v = report.value_of(m.name);
                assert!(
                    v.is_some_and(|v| v.is_finite() && v != 0.0),
                    "{}: {} = {v:?}",
                    w.name,
                    m.name
                );
            }
        }
    }

    /// Every traced pass passes its own checks and reports only metrics the
    /// per-layer table knows.
    #[test]
    fn traced_passes_report_known_metrics() {
        for w in WORKLOADS {
            let mut spans = SpanRecorder::with_capacity(1 << 12);
            let report = (w.traced)(&args(2), &mut spans);
            let failed: Vec<_> = report.checks.iter().filter(|c| !c.passed).collect();
            assert!(failed.is_empty(), "{}: {failed:?}", w.name);
            assert!(!spans.spans().is_empty(), "{}: no spans", w.name);
            for m in &report.metrics {
                assert!(
                    PER_LAYER
                        .iter()
                        .any(|def| def.name == m.name && def.unit == m.unit),
                    "{}: {} [{}] is not in the per-layer table",
                    w.name,
                    m.name,
                    m.unit
                );
                assert!(m.value.is_finite(), "{}: {} = {}", w.name, m.name, m.value);
            }
        }
    }
}
