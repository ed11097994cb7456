//! The name-sharded [`MetricsRegistry`] and its [`MetricsSnapshot`].
//!
//! Metric cells are distributed over eight mutex-guarded shards by an FNV
//! hash of the metric *name*. That buys one thing: two different names
//! rarely share a lock. It does not spread one name — two
//! threads adding to the same counter, or ending the same span, serialize
//! on that name's shard. So the registry
//! suits a producer whose threads mostly report different things at a
//! modest rate (the intake service's stages); a job whose workers would all
//! bump the same few names per item should count locally and report once.
//!
//! Snapshots merge the shards into name-sorted vectors, which is what makes
//! the exported metrics deterministic: stable counters are sums and stable
//! gauges are maxima — both order-independent — and the snapshot ordering
//! is lexicographic, not insertion-ordered.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

use crate::hash::Fnv1a;
use crate::sink::ObsSink;

/// Number of log-2 latency buckets: bucket `i` counts durations in
/// `[2^i, 2^(i+1))` nanoseconds, bucket 0 includes 0, the last bucket is
/// open-ended (≥ ~9.2 s).
pub const HISTOGRAM_BUCKETS: usize = 34;

/// Lock shards of a [`MetricsRegistry`].
const REGISTRY_SHARDS: usize = 8;

/// A log-scaled latency histogram (power-of-two nanosecond buckets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket observation counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed durations, in nanoseconds (saturating).
    pub total_ns: u64,
    /// The largest single observation, in nanoseconds.
    pub max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            total_ns: 0,
            max_ns: 0,
        }
    }
}

impl Histogram {
    /// The bucket index a duration of `ns` nanoseconds falls into.
    #[must_use]
    pub fn bucket_of(ns: u64) -> usize {
        let raw = (64 - ns.leading_zeros()) as usize; // 0 for ns == 0
        raw.saturating_sub(1).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one observation.
    pub fn observe_ns(&mut self, ns: u64) {
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Mean observation in nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// The `q`-quantile in nanoseconds (`q` in `[0, 1]`), resolved to the
    /// upper bound of the log₂ bucket holding that rank — a conservative
    /// (never-underestimating) quantile, clamped to the observed maximum.
    /// Returns 0 when empty. `quantile_ns(0.5)` is the p50 and
    /// `quantile_ns(0.99)` the p99 the intake dashboard and soak gate use.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket i spans [2^i, 2^(i+1)); report its upper bound.
                let upper = 1u64.checked_shl(i as u32 + 1).unwrap_or(u64::MAX);
                return upper.min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Aggregate statistics for one span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStats {
    /// Completed spans.
    pub count: u64,
    /// Total duration, nanoseconds (saturating).
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
}

impl SpanStats {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &SpanStats) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

#[derive(Debug, Default)]
struct Shard {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, SpanStats>,
}

/// The metrics registry — the standard live [`ObsSink`]. Sharded by metric
/// name: two names do not contend, two threads on one name do.
///
/// # Example
///
/// ```
/// use grs_obs::{MetricsRegistry, ObsSink};
///
/// let r = MetricsRegistry::new();
/// r.add("campaign.runs", 2);
/// r.add("campaign.runs", 3);
/// r.gauge_max("depot.stacks", 7);
/// r.gauge_max("depot.stacks", 4);
/// let snap = r.snapshot();
/// assert_eq!(snap.counter("campaign.runs"), 5);
/// assert_eq!(snap.gauge("depot.stacks"), 7);
/// ```
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: Vec<Mutex<Shard>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry {
            shards: (0..REGISTRY_SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    fn shard(&self, name: &str) -> std::sync::MutexGuard<'_, Shard> {
        let mut h = Fnv1a::new();
        h.write(name.as_bytes());
        let i = (h.finish() % self.shards.len() as u64) as usize;
        self.shards[i]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Snapshots every metric into name-sorted vectors. Safe to call while
    /// workers are still reporting (each shard is locked briefly), but only
    /// a quiescent snapshot is deterministic.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for shard in &self.shards {
            let s = shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            snap.counters.extend(s.counters.iter().map(|(k, v)| (k.clone(), *v)));
            snap.gauges.extend(s.gauges.iter().map(|(k, v)| (k.clone(), *v)));
            snap.histograms.extend(s.histograms.iter().map(|(k, h)| (k.clone(), h.clone())));
            snap.spans.extend(s.spans.iter().map(|(k, st)| (k.clone(), *st)));
        }
        // A name lives in one shard, so each section holds it once.
        sort_by_name(&mut snap.counters);
        sort_by_name(&mut snap.gauges);
        sort_by_name(&mut snap.histograms);
        sort_by_name(&mut snap.spans);
        snap
    }
}

impl ObsSink for MetricsRegistry {
    fn add(&self, name: &str, delta: u64) {
        let mut s = self.shard(name);
        match s.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                s.counters.insert(name.to_string(), delta);
            }
        }
    }

    fn gauge_max(&self, name: &str, value: u64) {
        let mut s = self.shard(name);
        match s.gauges.get_mut(name) {
            Some(v) => *v = (*v).max(value),
            None => {
                s.gauges.insert(name.to_string(), value);
            }
        }
    }

    fn observe(&self, name: &str, duration: Duration) {
        let ns = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
        let mut s = self.shard(name);
        match s.histograms.get_mut(name) {
            Some(h) => h.observe_ns(ns),
            None => {
                let mut h = Histogram::default();
                h.observe_ns(ns);
                s.histograms.insert(name.to_string(), h);
            }
        }
    }

    fn span_end(&self, name: &str, duration: Duration) {
        let ns = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
        let one = SpanStats { count: 1, total_ns: ns, max_ns: ns };
        let mut s = self.shard(name);
        match s.spans.get_mut(name) {
            Some(agg) => agg.merge(&one),
            None => {
                s.spans.insert(name.to_string(), one);
            }
        }
    }
}

/// A quiescent view of a registry: name-sorted metric vectors, mergeable
/// with snapshots from other registries (e.g. the intake pipeline's sink
/// folded into the campaign's before export).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Stable counters, sorted by name (deterministic; in the digest).
    pub counters: Vec<(String, u64)>,
    /// Stable max-gauges, sorted by name (deterministic; in the digest).
    pub gauges: Vec<(String, u64)>,
    /// Wall-clock latency histograms, sorted by name (not in the digest).
    pub histograms: Vec<(String, Histogram)>,
    /// Wall-clock span aggregates, sorted by name (not in the digest).
    pub spans: Vec<(String, SpanStats)>,
}

impl MetricsSnapshot {
    /// The value of stable counter `name` (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        lookup(&self.counters, name).unwrap_or(0)
    }

    /// The value of gauge `name` (0 when absent).
    #[must_use]
    pub fn gauge(&self, name: &str) -> u64 {
        lookup(&self.gauges, name).unwrap_or(0)
    }

    /// Folds `other` into `self`: counters sum, gauges max, histograms
    /// and span aggregates merge.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        merge_by(&mut self.counters, &other.counters, |a, b| *a += b);
        merge_by(&mut self.gauges, &other.gauges, |a, b| *a = (*a).max(*b));
        merge_by(&mut self.histograms, &other.histograms, Histogram::merge);
        merge_by(&mut self.spans, &other.spans, SpanStats::merge);
    }

    /// The deterministic sections (stable counters + gauges) folded into
    /// one FNV-1a digest, for worker-count invariance checks.
    #[must_use]
    pub fn deterministic_digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for (k, v) in &self.counters {
            h.write(b"c:");
            h.write(k.as_bytes());
            h.write(&v.to_le_bytes());
        }
        for (k, v) in &self.gauges {
            h.write(b"g:");
            h.write(k.as_bytes());
            h.write(&v.to_le_bytes());
        }
        h.finish()
    }
}

fn lookup(v: &[(String, u64)], name: &str) -> Option<u64> {
    v.binary_search_by(|(k, _)| k.as_str().cmp(name))
        .ok()
        .map(|i| v[i].1)
}

fn sort_by_name<T>(section: &mut [(String, T)]) {
    section.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
}

/// Folds each of `src`'s entries into `dst`'s entry of the same name
/// (a default one when absent), keeping `dst` sorted by name.
fn merge_by<T: Clone + Default>(
    dst: &mut Vec<(String, T)>,
    src: &[(String, T)],
    fold: impl Fn(&mut T, &T),
) {
    let mut map: BTreeMap<String, T> = dst.drain(..).collect();
    for (k, v) in src {
        fold(map.entry(k.clone()).or_default(), v);
    }
    *dst = map.into_iter().collect();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_and_gauges_max() {
        let r = MetricsRegistry::new();
        for i in 0..10 {
            r.add("runs", 1);
            r.gauge_max("peak", i);
        }
        let s = r.snapshot();
        assert_eq!(s.counter("runs"), 10);
        assert_eq!(s.gauge("peak"), 9);
        assert_eq!(s.counter("missing"), 0);
    }

    #[test]
    fn snapshot_is_name_sorted_regardless_of_insertion_order() {
        let r = MetricsRegistry::new();
        for name in ["z", "a", "m", "b"] {
            r.add(name, 1);
        }
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "m", "z"]);
    }

    #[test]
    fn concurrent_reporting_is_lossless() {
        let r = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for i in 0..1000u64 {
                        r.add("n", 1);
                        r.gauge_max("g", i);
                        r.observe("lat", Duration::from_nanos(i));
                    }
                });
            }
        });
        let s = r.snapshot();
        assert_eq!(s.counter("n"), 8000);
        assert_eq!(s.gauge("g"), 999);
        assert_eq!(s.histograms[0].1.count, 8000);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(1024), 10);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let mut h = Histogram::default();
        h.observe_ns(100);
        h.observe_ns(300);
        assert_eq!(h.count, 2);
        assert_eq!(h.mean_ns(), 200);
        assert_eq!(h.max_ns, 300);
    }

    #[test]
    fn spans_aggregate_per_name_and_merge() {
        let r = MetricsRegistry::new();
        for ns in [5, 40, 15] {
            r.span_end("s", Duration::from_nanos(ns));
        }
        r.span_end("a", Duration::from_nanos(7));
        let mut s = r.snapshot();
        let names: Vec<&str> = s.spans.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["a", "s"]);
        assert_eq!(s.spans[1].1, SpanStats { count: 3, total_ns: 60, max_ns: 40 });
        let other = MetricsRegistry::new();
        other.span_end("s", Duration::from_nanos(100));
        s.merge(&other.snapshot());
        assert_eq!(s.spans[1].1, SpanStats { count: 4, total_ns: 160, max_ns: 100 });
        assert_eq!(s.spans[0].1.count, 1);
    }

    #[test]
    fn merge_combines_snapshots() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.add("x", 1);
        a.gauge_max("g", 5);
        b.add("x", 2);
        b.add("y", 7);
        b.gauge_max("g", 3);
        let mut sa = a.snapshot();
        sa.merge(&b.snapshot());
        assert_eq!(sa.counter("x"), 3);
        assert_eq!(sa.counter("y"), 7);
        assert_eq!(sa.gauge("g"), 5);
    }

    #[test]
    fn histogram_quantiles_walk_cumulative_buckets() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile_ns(0.5), 0, "empty histogram");
        // 99 fast observations (~1 us) and one slow outlier (~1 ms).
        for _ in 0..99 {
            h.observe_ns(1_000);
        }
        h.observe_ns(1_000_000);
        let p50 = h.quantile_ns(0.5);
        let p99 = h.quantile_ns(0.99);
        assert!((1_000..=2_048).contains(&p50), "p50 in the fast bucket: {p50}");
        assert!(p99 <= 2_048, "99% of mass is fast: {p99}");
        assert_eq!(h.quantile_ns(1.0), 1_000_000, "p100 is the max");
        assert!(h.quantile_ns(0.0) > 0, "q=0 resolves to the first bucket");
    }

    #[test]
    fn digest_ignores_timing() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        for r in [&a, &b] {
            r.add("n", 4);
            r.gauge_max("g", 2);
        }
        a.observe("lat", Duration::from_millis(3));
        a.span_end("s", Duration::from_millis(1));
        assert_eq!(
            a.snapshot().deterministic_digest(),
            b.snapshot().deterministic_digest()
        );
        b.add("n", 1);
        assert_ne!(
            a.snapshot().deterministic_digest(),
            b.snapshot().deterministic_digest()
        );
    }
}
