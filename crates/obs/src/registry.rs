//! The name-sharded [`MetricsRegistry`] and its [`MetricsSnapshot`].
//!
//! Metric cells are distributed over eight mutex-guarded shards by an FNV
//! hash of the metric *name*. That buys one thing: two different names
//! rarely share a lock. It does not spread one name — two
//! threads adding to the same counter serialize on that counter's shard —
//! and every span goes through one dedicated ring lock. So the registry
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

/// Span ring-buffer capacity: the exporter keeps the most recent completed
/// spans for the timing section and drops older ones.
pub const SPAN_RING_CAPACITY: usize = 256;

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

/// One completed span in the ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Completion sequence number (monotone within one registry).
    pub seq: u64,
    /// Span name.
    pub name: String,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
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

/// The span section of a snapshot: per-name aggregates plus the most
/// recent completed spans from the ring buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// `(name, stats)` sorted by name.
    pub aggregates: Vec<(String, SpanStats)>,
    /// Ring-buffer contents, oldest retained span first.
    pub recent: Vec<SpanRecord>,
    /// Spans dropped from the ring (completed − retained).
    pub dropped: u64,
}

#[derive(Debug, Default)]
struct Shard {
    counters: BTreeMap<String, u64>,
    volatile_counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

#[derive(Debug, Default)]
struct SpanRing {
    ring: std::collections::VecDeque<SpanRecord>,
    aggregates: BTreeMap<String, SpanStats>,
    next_seq: u64,
    dropped: u64,
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
    spans: Mutex<SpanRing>,
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
            spans: Mutex::default(),
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
        let mut counters = BTreeMap::new();
        let mut volatile_counters = BTreeMap::new();
        let mut gauges = BTreeMap::new();
        let mut histograms: BTreeMap<String, Histogram> = BTreeMap::new();
        for shard in &self.shards {
            let s = shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            for (k, v) in &s.counters {
                *counters.entry(k.clone()).or_insert(0) += v;
            }
            for (k, v) in &s.volatile_counters {
                *volatile_counters.entry(k.clone()).or_insert(0) += v;
            }
            for (k, v) in &s.gauges {
                let e = gauges.entry(k.clone()).or_insert(0);
                *e = (*e).max(*v);
            }
            for (k, v) in &s.histograms {
                histograms.entry(k.clone()).or_default().merge(v);
            }
        }
        let spans = {
            let s = self.spans.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            SpanSnapshot {
                aggregates: s.aggregates.iter().map(|(k, v)| (k.clone(), *v)).collect(),
                recent: s.ring.iter().cloned().collect(),
                dropped: s.dropped,
            }
        };
        MetricsSnapshot {
            counters: counters.into_iter().collect(),
            volatile_counters: volatile_counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            histograms: histograms.into_iter().collect(),
            spans,
        }
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

    fn add_volatile(&self, name: &str, delta: u64) {
        let mut s = self.shard(name);
        match s.volatile_counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                s.volatile_counters.insert(name.to_string(), delta);
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
        let mut s = self.spans.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let seq = s.next_seq;
        s.next_seq += 1;
        if s.ring.len() == SPAN_RING_CAPACITY {
            s.ring.pop_front();
            s.dropped += 1;
        }
        s.ring.push_back(SpanRecord {
            seq,
            name: name.to_string(),
            dur_ns: ns,
        });
        match s.aggregates.get_mut(name) {
            Some(agg) => {
                agg.count += 1;
                agg.total_ns = agg.total_ns.saturating_add(ns);
                agg.max_ns = agg.max_ns.max(ns);
            }
            None => {
                let first = SpanStats { count: 1, total_ns: ns, max_ns: ns };
                s.aggregates.insert(name.to_string(), first);
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
    /// Placement-dependent counters, sorted by name (not in the digest).
    pub volatile_counters: Vec<(String, u64)>,
    /// Stable max-gauges, sorted by name (deterministic; in the digest).
    pub gauges: Vec<(String, u64)>,
    /// Wall-clock latency histograms, sorted by name (not in the digest).
    pub histograms: Vec<(String, Histogram)>,
    /// Span aggregates + ring buffer (not in the digest).
    pub spans: SpanSnapshot,
}

impl MetricsSnapshot {
    /// The value of stable counter `name` (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        lookup(&self.counters, name).unwrap_or(0)
    }

    /// The value of volatile counter `name` (0 when absent).
    #[must_use]
    pub fn volatile_counter(&self, name: &str) -> u64 {
        lookup(&self.volatile_counters, name).unwrap_or(0)
    }

    /// The value of gauge `name` (0 when absent).
    #[must_use]
    pub fn gauge(&self, name: &str) -> u64 {
        lookup(&self.gauges, name).unwrap_or(0)
    }

    /// Folds `other` into `self`: counters sum, gauges max, histograms
    /// merge, span aggregates sum, ring buffers concatenate (re-capped to
    /// the ring capacity, keeping the newest).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        merge_sum(&mut self.counters, &other.counters);
        merge_sum(&mut self.volatile_counters, &other.volatile_counters);
        merge_max(&mut self.gauges, &other.gauges);
        let mut hist: BTreeMap<String, Histogram> =
            self.histograms.drain(..).collect();
        for (k, v) in &other.histograms {
            hist.entry(k.clone()).or_default().merge(v);
        }
        self.histograms = hist.into_iter().collect();
        let mut aggs: BTreeMap<String, SpanStats> =
            self.spans.aggregates.drain(..).collect();
        for (k, v) in &other.spans.aggregates {
            let a = aggs.entry(k.clone()).or_default();
            a.count += v.count;
            a.total_ns = a.total_ns.saturating_add(v.total_ns);
            a.max_ns = a.max_ns.max(v.max_ns);
        }
        self.spans.aggregates = aggs.into_iter().collect();
        self.spans.dropped += other.spans.dropped;
        self.spans.recent.extend(other.spans.recent.iter().cloned());
        if self.spans.recent.len() > SPAN_RING_CAPACITY {
            let excess = self.spans.recent.len() - SPAN_RING_CAPACITY;
            self.spans.recent.drain(..excess);
            self.spans.dropped += excess as u64;
        }
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

fn merge_sum(dst: &mut Vec<(String, u64)>, src: &[(String, u64)]) {
    let mut map: BTreeMap<String, u64> = dst.drain(..).collect();
    for (k, v) in src {
        *map.entry(k.clone()).or_insert(0) += v;
    }
    *dst = map.into_iter().collect();
}

fn merge_max(dst: &mut Vec<(String, u64)>, src: &[(String, u64)]) {
    let mut map: BTreeMap<String, u64> = dst.drain(..).collect();
    for (k, v) in src {
        let e = map.entry(k.clone()).or_insert(0);
        *e = (*e).max(*v);
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
            r.add_volatile("steals", 2);
        }
        let s = r.snapshot();
        assert_eq!(s.counter("runs"), 10);
        assert_eq!(s.gauge("peak"), 9);
        assert_eq!(s.volatile_counter("steals"), 20);
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
    fn span_ring_caps_and_counts_drops() {
        let r = MetricsRegistry::new();
        for _ in 0..SPAN_RING_CAPACITY + 10 {
            r.span_end("s", Duration::from_nanos(5));
        }
        let s = r.snapshot();
        assert_eq!(s.spans.recent.len(), SPAN_RING_CAPACITY);
        assert_eq!(s.spans.dropped, 10);
        assert_eq!(s.spans.aggregates[0].1.count, (SPAN_RING_CAPACITY + 10) as u64);
        // Oldest retained span is #10 (0-indexed seq).
        assert_eq!(s.spans.recent[0].seq, 10);
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
    fn digest_ignores_volatile_and_timing() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        for r in [&a, &b] {
            r.add("n", 4);
            r.gauge_max("g", 2);
        }
        a.add_volatile("steals", 9);
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
