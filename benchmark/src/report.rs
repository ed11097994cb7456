//! What one run reports and how it is printed: the metric tables (the
//! single source `BENCHMARK.json` is checked against), output checks, exact
//! counts, and the one-line JSON result the driver reads.

use std::fmt::Write as _;

use crate::stats::Summary;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric: every workload reports every one of them.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, in print order. README.md says what each means
/// on each workload.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_kib",
        unit: "KiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "unique_races",
        unit: "count",
        better: Better::Higher,
        bound: 0.2,
    },
    EndToEnd {
        name: "detect_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.02,
    },
];

/// One per-layer metric: `layer.what`, measured from outside the layer.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn up(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn down(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

/// Every per-layer metric a traced run prints. Probe metrics are measured
/// in every traced run; a metric taken from a workload's own traced pass
/// reads 0 on the workloads that never enter that layer.
pub const PER_LAYER: &[PerLayer] = &[
    // Demoted from the end-to-end list: its run-to-run spread on the
    // machine the benchmark was defined on exceeds any bound a gate may
    // carry (see README.md).
    down("latency_p99_us", "us"),
    down("corpus.emit_us", "us"),
    up("corpus.monorepo_gen_lines_per_s", "1/s"),
    down("golite.parse_us_per_unit", "us"),
    up("golite.parse_lines_per_s", "1/s"),
    up("golite.scan_lines_per_s", "1/s"),
    up("golite.lint_lines_per_s", "1/s"),
    up("golite.findings", "count"),
    down("interp.lower_us", "us"),
    down("interp.rendition_slowdown", "ratio"),
    down("runtime.exec_us_per_run", "us"),
    down("runtime.ns_per_step", "ns"),
    down("runtime.spawn_us", "us"),
    down("runtime.handoff_ns", "ns"),
    down("runtime.event_ns", "ns"),
    down("runtime.record_ratio", "ratio"),
    up("runtime.encode_mb_per_s", "MB/s"),
    up("runtime.decode_events_per_s", "1/s"),
    down("runtime.trace_bytes_per_event", "B"),
    up("runtime.batch_fill_rate", "ratio"),
    up("detector.fasttrack.replay_events_per_s", "1/s"),
    up("detector.pure-vc.replay_events_per_s", "1/s"),
    up("detector.eraser.replay_events_per_s", "1/s"),
    up("detector.hybrid.replay_events_per_s", "1/s"),
    down("detector.replay_short_us_per_trace", "us"),
    up("detector.replay_dense_events_per_s", "1/s"),
    down("detector.live_overhead_ratio", "ratio"),
    down("detector.peak_shadow_words", "count"),
    up("detector.reports", "count"),
    down("detector.lockset_false_alarms", "count"),
    down("clock.join_ns", "ns"),
    down("clock.lockset_intersect_ns", "ns"),
    down("fleet.driver_overhead_us_per_run", "us"),
    down("fleet.dedup_insert_ns", "ns"),
    down("fleet.unit_builds_per_unit", "ratio"),
    up("fleet.scaling_2w", "ratio"),
    down("fleet.unattributed_share", "ratio"),
    down("deploy.fingerprint_ns", "ns"),
    down("deploy.dedup_check_hit_ns", "ns"),
    down("deploy.dedup_insert_evict_ns", "ns"),
    down("deploy.tracker_file_ns", "ns"),
    down("deploy.service_us", "us"),
    down("deploy.queue_wait_us", "us"),
    down("deploy.wire_rtt_us", "us"),
    down("deploy.wire_upload_us", "us"),
    up("deploy.sustained_fps", "1/s"),
    down("deploy.busy_share.r025", "ratio"),
    down("deploy.busy_share.r050", "ratio"),
    down("deploy.busy_share.r100", "ratio"),
    down("deploy.busy_share.r200", "ratio"),
    down("deploy.latency_p99_us.r025", "us"),
    down("deploy.latency_p99_us.r050", "us"),
    down("deploy.latency_p99_us.r100", "us"),
    down("deploy.latency_p99_us.r200", "us"),
    up("deploy.dedup_evictions", "count"),
    up("deploy.dedup_hit_share", "ratio"),
    down("deploy.generator_late_us_p99", "us"),
    down("deploy.snapshot_save_ms", "ms"),
    down("deploy.restore_ms", "ms"),
    down("deploy.snapshot_bytes", "B"),
    down("obs.counter_add_ns", "ns"),
    down("obs.span_ns", "ns"),
    down("obs.observed_ratio", "ratio"),
    down("stage_share.corpus.emit", "ratio"),
    down("stage_share.golite.parse", "ratio"),
    down("stage_share.golite.scan", "ratio"),
    down("stage_share.golite.lint", "ratio"),
    down("stage_share.interp.lower", "ratio"),
    down("stage_share.run.live", "ratio"),
    down("stage_share.runtime.execute", "ratio"),
    down("stage_share.runtime.decode", "ratio"),
    down("stage_share.detector.analyze", "ratio"),
    down("stage_share.deploy.fingerprint", "ratio"),
    down("stage_share.deploy.dedup", "ratio"),
    down("stage_share.deploy.file", "ratio"),
    down("stage_share.fleet.dedup", "ratio"),
    down("stage_share.unit", "ratio"),
    down("trace.overhead_share", "ratio"),
    up("trace.spans", "count"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// One output check. A run with a failed check prints no timing at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Exact, seed-determined counts; compared with `expected.txt` when it
    /// has a row for this (seed, seconds).
    pub counts: Vec<(String, u64)>,
    /// Human-readable lines printed above the result (slice summaries).
    pub notes: Vec<String>,
}

impl RunReport {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail: detail.into(),
        });
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_string(), value));
    }

    /// Records a sliced measurement as a note and returns the value the
    /// run reports for it: the quartile of the slices on the good side.
    ///
    /// The machines this runs on slow down in bursts that last seconds (a
    /// busy SMT sibling costs a third of the speed), so the median slice of
    /// a ten-second run swings by 10-20 % between runs of the same code.
    /// The good-side quartile holds as long as a quarter of the slices ran
    /// undisturbed, and still needs five slices of twenty to agree, which a
    /// best-of would not. The note carries median, min, max and n too.
    pub fn slices(&mut self, what: &str, unit: &str, better: Better, values: &[f64]) -> f64 {
        let s = Summary::of(values);
        let reported = match better {
            Better::Higher => s.upper_quartile,
            Better::Lower => s.lower_quartile,
        };
        self.notes.push(format!(
            "{what}: {reported:.4} {unit} ({} quartile of {} slices; median {:.4}, min {:.4}, max {:.4})",
            match better {
                Better::Higher => "upper",
                Better::Lower => "lower",
            },
            s.n,
            s.median,
            s.min,
            s.max
        ));
        reported
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    pub fn value_of(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A float as JSON: every digit Rust's shortest round-trip form carries,
/// and never `NaN`/`inf`, which JSON cannot hold.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value must be finite, got {v}");
    format!("{v:?}")
}

/// What the suite modes read back from a child's last stdout line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Parses a line written by [`RunReport::result_line`]. Not a JSON parser:
/// it reads exactly the shape this harness writes.
pub fn parse_result_line(line: &str) -> Option<ParsedResult> {
    let after = |hay: &str, key: &str| -> Option<String> {
        let at = hay.find(key)? + key.len();
        Some(
            hay[at..]
                .trim_start()
                .chars()
                .take_while(|c| !matches!(c, ',' | '}'))
                .collect::<String>()
                .trim()
                .to_string(),
        )
    };
    let correct = after(line, "\"correct\":")?.parse().ok()?;
    let attempted = after(line, "\"attempted\":")?.parse().ok()?;
    let failed = after(line, "\"failed\":")?.parse().ok()?;
    let body = &line[line.find("\"metrics\":")? + "\"metrics\":".len()..];
    let mut metrics = Vec::new();
    let mut rest = body;
    while let Some(q) = rest.find("\": {\"value\":") {
        let name_start = rest[..q].rfind('"')? + 1;
        let name = rest[name_start..q].to_string();
        let tail = &rest[q..];
        let value = after(tail, "\"value\":")?.parse().ok()?;
        let unit = after(tail, "\"unit\":")?.trim_matches('"').to_string();
        metrics.push(Metric { name, value, unit });
        rest = &tail["\": {\"value\":".len()..];
    }
    Some(ParsedResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let mut r = RunReport {
            attempted: 1_000,
            failed: 3,
            ..RunReport::default()
        };
        r.metric("setup_s", 0.812_734_5, "s");
        r.metric("throughput_per_s", 4_431.25, "1/s");
        r.check("ok", true, "");
        let line = r.result_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 3,"));
        let back = parse_result_line(&line).expect("parses its own output");
        assert!(back.correct);
        assert_eq!((back.attempted, back.failed), (1_000, 3));
        assert_eq!(back.metrics, r.metrics);
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = RunReport::default();
        r.check("a", true, "");
        assert!(r.correct());
        r.check("b", false, "3 != 4");
        assert!(!r.correct());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let total = names.len();
        assert!(names.iter().all(|n| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        }));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
