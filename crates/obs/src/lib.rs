//! `grs-obs` — the observability vocabulary of the race-study stack.
//!
//! Two kinds of producer report here, and they do it differently:
//!
//! * something **long-running that is asked questions while it runs** — the
//!   intake service (`IntakeService::observed`) — reports into a live
//!   [`ObsSink`], usually a [`MetricsRegistry`];
//! * a **batch job** — a campaign — keeps one set of books, its sorted run
//!   records, and folds a [`MetricsSnapshot`] from them once the workers
//!   have joined. No sink is touched while it runs.
//!
//! Either way the result is a [`MetricsSnapshot`] wrapped in an
//! [`ObsReport`]: a versioned JSON export with a hard split between the
//! stable section (counters and max-gauges, byte-identical across worker
//! counts, covered by the digest) and the wall-clock `timing` section,
//! plus a text dashboard. [`json_escape`] is the workspace's one JSON
//! string escaper.
//!
//! * [`ObsSink`] — the live reporting trait; [`SpanGuard`] is its RAII span.
//! * [`MetricsRegistry`] — the standard sink: name-sharded counters,
//!   max-gauges, log-scaled latency histograms and per-name span
//!   aggregates.
//! * [`hash`] — the FNV-1a and splitmix64 mixers every digest in the
//!   workspace is built from, and the FNV hasher its integer-keyed maps use.
//!
//! This crate is dependency-free and sits below the runtime in the crate
//! graph, so every layer can use it.
//!
//! # Example
//!
//! ```
//! use grs_obs::{MetricsRegistry, ObsReport, ObsSink};
//!
//! let registry = MetricsRegistry::new();
//! registry.add("intake.frames", 100);
//! registry.add("intake.filed", 37);
//!
//! let report = ObsReport::new("demo", registry.snapshot());
//! assert!(report.to_json().contains("\"schema_version\":3"));
//! ```

#![forbid(unsafe_code)]

pub mod hash;
pub mod registry;
pub mod report;
pub mod sink;

pub use hash::{splitmix64, Fnv1a};
pub use registry::{Histogram, MetricsRegistry, MetricsSnapshot, SpanStats, HISTOGRAM_BUCKETS};
pub use report::{json_escape, ObsReport, SCHEMA_VERSION};
pub use sink::{NullSink, ObsSink, SpanGuard, NULL_SINK};
