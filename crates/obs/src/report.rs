//! [`ObsReport`] — the stable exported form of one observed campaign.
//!
//! The JSON document (the obs export) has a versioned schema with a hard
//! determinism split:
//!
//! ```json
//! {
//!   "schema_version": 2,
//!   "label": "...",
//!   "deterministic_digest": "0x...",       // over metrics
//!   "metrics":  { "counters": {..}, "gauges": {..} },        // stable
//!   "timing":   { "volatile_counters": {..}, "histograms": {..},
//!                 "spans": {..} }          // wall-clock / placement
//! }
//! ```
//!
//! Everything under `metrics` is byte-identical across worker counts;
//! everything wall-clock- or placement-derived is segregated under
//! `timing` and excluded from `deterministic_digest`. CI consumes the
//! stable section; humans get the same data through
//! [`ObsReport::dashboard`].
//!
//! Version 1 also carried a `timeline` section; DESIGN §4e records why it
//! was deleted.

use std::fmt::Write as _;

use crate::registry::{Histogram, MetricsSnapshot};

/// Version of the obs export's schema. Bump on any breaking change to
/// the stable section; `tests/obs_determinism.rs` fails when the field is
/// missing.
pub const SCHEMA_VERSION: u32 = 2;

/// One observed campaign, ready for export.
#[derive(Debug, Clone, Default)]
pub struct ObsReport {
    /// Human label for the run (e.g. `campaign/live` or `campaign/replay`).
    pub label: String,
    /// The merged metrics snapshot.
    pub snapshot: MetricsSnapshot,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn kv_object(out: &mut String, pairs: &[(String, u64)]) {
    out.push('{');
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, r#""{}":{}"#, json_escape(k), v);
    }
    out.push('}');
}

fn histogram_json(out: &mut String, h: &Histogram) {
    let _ = write!(
        out,
        r#"{{"count":{},"total_ns":{},"max_ns":{},"mean_ns":{},"buckets":["#,
        h.count,
        h.total_ns,
        h.max_ns,
        h.mean_ns()
    );
    // Sparse encoding: [bucket_index, count] pairs for non-empty buckets.
    let mut first = true;
    for (i, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "[{i},{c}]");
    }
    out.push_str("]}");
}

impl ObsReport {
    /// A report from its parts.
    #[must_use]
    pub fn new(label: &str, snapshot: MetricsSnapshot) -> Self {
        ObsReport {
            label: label.to_string(),
            snapshot,
        }
    }

    /// The snapshot's digest over the stable section
    /// ([`MetricsSnapshot::deterministic_digest`]). Equal across worker
    /// counts.
    #[must_use]
    pub fn deterministic_digest(&self) -> u64 {
        self.snapshot.deterministic_digest()
    }

    /// The `metrics` section (stable counters + gauges) as JSON.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        let mut s = String::from(r#"{"counters":"#);
        kv_object(&mut s, &self.snapshot.counters);
        s.push_str(r#","gauges":"#);
        kv_object(&mut s, &self.snapshot.gauges);
        s.push('}');
        s
    }

    /// The `timing` section (volatile counters, latency histograms, spans)
    /// as JSON. Wall-clock- and placement-derived; excluded from the
    /// digest.
    #[must_use]
    pub fn timing_json(&self) -> String {
        let mut s = String::from(r#"{"volatile_counters":"#);
        kv_object(&mut s, &self.snapshot.volatile_counters);
        s.push_str(r#","histograms":{"#);
        for (i, (k, h)) in self.snapshot.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, r#""{}":"#, json_escape(k));
            histogram_json(&mut s, h);
        }
        s.push_str(r#"},"spans":{"aggregates":{"#);
        for (i, (k, st)) in self.snapshot.spans.aggregates.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                r#""{}":{{"count":{},"total_ns":{},"max_ns":{}}}"#,
                json_escape(k),
                st.count,
                st.total_ns,
                st.max_ns
            );
        }
        let _ = write!(
            s,
            r#"}},"dropped":{},"recent":["#,
            self.snapshot.spans.dropped
        );
        for (i, r) in self.snapshot.spans.recent.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                r#"{{"seq":{},"name":"{}","dur_ns":{}}}"#,
                r.seq,
                json_escape(&r.name),
                r.dur_ns
            );
        }
        s.push_str("]}}");
        s
    }

    /// The full obs export.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"schema_version":{},"label":"{}","deterministic_digest":"0x{:016x}","metrics":{},"timing":{}}}"#,
            SCHEMA_VERSION,
            json_escape(&self.label),
            self.deterministic_digest(),
            self.metrics_json(),
            self.timing_json(),
        )
    }

    /// The human `--dashboard` text view: metrics table, span aggregates,
    /// latency histograms.
    #[must_use]
    pub fn dashboard(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "┌─ obs dashboard · {} ─", self.label);
        let _ = writeln!(s, "│ digest 0x{:016x}", self.deterministic_digest());
        let _ = writeln!(s, "│");
        let _ = writeln!(s, "│ metrics (deterministic)");
        for (k, v) in &self.snapshot.counters {
            let _ = writeln!(s, "│   {k:<32} {v:>12}");
        }
        for (k, v) in &self.snapshot.gauges {
            let _ = writeln!(s, "│   {k:<32} {v:>12}  (max)");
        }
        if !self.snapshot.volatile_counters.is_empty() {
            let _ = writeln!(s, "│ scheduling (placement-dependent)");
            for (k, v) in &self.snapshot.volatile_counters {
                let _ = writeln!(s, "│   {k:<32} {v:>12}");
            }
        }
        if !self.snapshot.spans.aggregates.is_empty() {
            let _ = writeln!(s, "│");
            let _ = writeln!(s, "│ spans (wall-clock)");
            for (k, st) in &self.snapshot.spans.aggregates {
                let mean = st.total_ns.checked_div(st.count).unwrap_or(0);
                let _ = writeln!(
                    s,
                    "│   {k:<28} ×{:<8} mean {:>9} ns  max {:>9} ns",
                    st.count, mean, st.max_ns
                );
            }
        }
        if !self.snapshot.histograms.is_empty() {
            let _ = writeln!(s, "│ latency histograms (log₂ ns buckets, wall-clock)");
            for (k, h) in &self.snapshot.histograms {
                let _ = writeln!(
                    s,
                    "│   {k:<28} ×{:<8} mean {:>9} ns  p50 {:>9} ns  p99 {:>9} ns  max {:>9} ns",
                    h.count,
                    h.mean_ns(),
                    h.quantile_ns(0.5),
                    h.quantile_ns(0.99),
                    h.max_ns
                );
            }
        }
        s.push_str("└─\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;
    use crate::sink::ObsSink;

    fn sample() -> ObsReport {
        let r = MetricsRegistry::new();
        r.add("campaign.runs", 12);
        r.gauge_max("depot.stacks", 33);
        r.add_volatile("sched.steals", 4);
        r.observe("run.wall", std::time::Duration::from_micros(250));
        r.span_end("shard.execute", std::time::Duration::from_micros(80));
        ObsReport::new("test", r.snapshot())
    }

    #[test]
    fn json_has_schema_version_and_sections() {
        let json = sample().to_json();
        assert!(json.starts_with(&format!("{{\"schema_version\":{SCHEMA_VERSION},")));
        for key in [
            "\"metrics\":",
            "\"timing\":",
            "\"deterministic_digest\":",
            "\"campaign.runs\":12",
            "\"sched.steals\":4",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn dashboard_renders_all_sections() {
        let d = sample().dashboard();
        for needle in [
            "obs dashboard",
            "metrics (deterministic)",
            "campaign.runs",
            "spans (wall-clock)",
            "shard.execute",
            "latency histograms",
        ] {
            assert!(d.contains(needle), "dashboard missing {needle:?}:\n{d}");
        }
    }
}
