//! The [`ObsSink`] trait — how a running producer reports.
//!
//! A producer that is long-running and asked questions while it runs (the
//! intake pipeline) reports named observations; a sink (usually a
//! [`MetricsRegistry`](crate::MetricsRegistry)) aggregates them. A batch
//! job does not use a sink: it folds its
//! [`MetricsSnapshot`](crate::MetricsSnapshot) from its result when it is
//! done.
//!
//! The API enforces the determinism split at the type level:
//!
//! * [`ObsSink::add`] / [`ObsSink::gauge_max`] are for **stable** metrics —
//!   values derived only from the deterministic run outputs (event counts,
//!   race tallies, shadow-state maxima). Sums and maxima are
//!   order-independent, so the aggregate is byte-identical for any worker
//!   count. Stable metrics feed the deterministic digest.
//! * [`ObsSink::add_volatile`] is for **placement-dependent** counters
//!   (work steals, per-worker tallies) that legitimately vary run to run.
//! * [`ObsSink::observe`] and [`ObsSink::span_end`] carry **wall-clock**
//!   durations. They land in log-scaled histograms and the span ring
//!   buffer, both exported in a segregated `timing` section that is
//!   excluded from the digest.

use std::time::{Duration, Instant};

/// A consumer of named observations from any layer of the stack.
///
/// Implementations must be cheap and safe to share: sinks are called from
/// every thread of the producer they are attached to.
pub trait ObsSink: Send + Sync {
    /// Adds `delta` to the stable counter `name`. Stable counters must be
    /// derived only from deterministic run outputs; they are included in
    /// the deterministic digest.
    fn add(&self, name: &str, delta: u64);

    /// Adds `delta` to the placement-dependent counter `name` (steal
    /// counts, per-worker tallies). Excluded from the deterministic digest.
    fn add_volatile(&self, name: &str, delta: u64);

    /// Raises the stable max-gauge `name` to at least `value`. Maxima are
    /// order-independent, so gauges stay deterministic across worker
    /// counts.
    fn gauge_max(&self, name: &str, value: u64);

    /// Records one wall-clock duration observation into the log-scaled
    /// histogram `name`. Excluded from the deterministic digest.
    fn observe(&self, name: &str, duration: Duration);

    /// Records the completion of span `name` (ring buffer + per-span-name
    /// aggregate). Excluded from the deterministic digest. Usually called
    /// via [`SpanGuard`] rather than directly.
    fn span_end(&self, name: &str, duration: Duration);
}

/// A sink that drops everything — the zero-overhead default for callers
/// that did not attach observability.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl ObsSink for NullSink {
    fn add(&self, _name: &str, _delta: u64) {}
    fn add_volatile(&self, _name: &str, _delta: u64) {}
    fn gauge_max(&self, _name: &str, _value: u64) {}
    fn observe(&self, _name: &str, _duration: Duration) {}
    fn span_end(&self, _name: &str, _duration: Duration) {}
}

/// A shared no-op sink for default arguments.
pub static NULL_SINK: NullSink = NullSink;

/// RAII span: measures from construction to drop and reports the completed
/// span into the sink.
///
/// # Example
///
/// ```
/// use grs_obs::{MetricsRegistry, SpanGuard};
///
/// let registry = MetricsRegistry::new();
/// {
///     let _span = SpanGuard::enter(&registry, "detector.analyze");
///     // ... work ...
/// }
/// assert_eq!(registry.snapshot().spans.aggregates[0].0, "detector.analyze");
/// ```
pub struct SpanGuard<'a> {
    sink: &'a dyn ObsSink,
    name: &'a str,
    started: Instant,
}

impl std::fmt::Debug for SpanGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("name", &self.name)
            .field("started", &self.started)
            .finish_non_exhaustive()
    }
}

impl<'a> SpanGuard<'a> {
    /// Starts a span named `name` reporting into `sink` on drop.
    #[must_use]
    pub fn enter(sink: &'a dyn ObsSink, name: &'a str) -> Self {
        SpanGuard {
            sink,
            name,
            started: Instant::now(),
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.sink.span_end(self.name, self.started.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_accepts_everything() {
        let s = NullSink;
        s.add("a", 1);
        s.add_volatile("b", 2);
        s.gauge_max("c", 3);
        s.observe("d", Duration::from_millis(1));
        {
            let _g = SpanGuard::enter(&s, "e");
        }
    }
}
