//! `grs-obs` — campaign observability for the race-study stack.
//!
//! The paper's deployment story is longitudinal: §3.5 and Figures 3–4
//! report six months of filing/fixing dynamics, dedup growth, and
//! throughput. Reproducing that requires *continuous* telemetry from every
//! layer of the campaign engine, not just end-of-run aggregates. This crate
//! is the one observability surface the whole workspace reports into:
//!
//! * [`ObsSink`] — the reporting trait. Runtime monitors, replay analyzers,
//!   shard workers, and the intake pipeline all speak it; ad-hoc stats
//!   structs (`MonitorStats`, `ReplayStats`, campaign field grab-bags)
//!   remain as typed views, but the composable surface is the sink.
//! * [`MetricsRegistry`] — the standard sink: lock-sharded counters,
//!   max-gauges, and log-scaled latency histograms, with a span ring
//!   buffer. Stable metrics are deterministic (order-independent sums and
//!   maxima); wall-clock and placement-dependent data are segregated.
//! * [`CampaignTimeline`] — buckets per-spec campaign results into virtual
//!   "campaign days" and replays the §3.3.1 tracker discipline to
//!   reconstruct Figure 3 (new vs. resolved races over time) and Figure 4
//!   (dedup growth, fix-latency distribution).
//! * [`ObsReport`] — the obs export, a JSON document with a versioned
//!   schema, deterministic digest over the stable sections, and a human
//!   `--dashboard` text view.
//!
//! This crate is dependency-free and sits below the runtime in the crate
//! graph, so every layer can report into it.
//!
//! # Example
//!
//! ```
//! use grs_obs::{CampaignTimeline, MetricsRegistry, ObsReport, ObsSink, TimelineConfig};
//!
//! let registry = MetricsRegistry::new();
//! registry.add("campaign.runs", 100);
//! registry.add("campaign.racy_runs", 37);
//!
//! let mut timeline = CampaignTimeline::new(TimelineConfig::default_days());
//! timeline.observe(0, 0xdead_beef);
//! timeline.observe(12, 0xfeed_face);
//!
//! let report = ObsReport::new("demo", registry.snapshot(), timeline.finish());
//! assert!(report.to_json().contains("\"schema_version\":1"));
//! ```

#![forbid(unsafe_code)]

pub mod hash;
pub mod registry;
pub mod report;
pub mod sink;
pub mod timeline;

pub use hash::{splitmix64, Fnv1a};
pub use registry::{
    Histogram, MetricsRegistry, MetricsSnapshot, SpanRecord, SpanSnapshot, SpanStats,
    HISTOGRAM_BUCKETS, SPAN_RING_CAPACITY,
};
pub use report::{ObsReport, SCHEMA_VERSION};
pub use sink::{NullSink, ObsSink, SpanGuard, NULL_SINK};
pub use timeline::{CampaignTimeline, DayRow, TimelineConfig, TimelineReport};
