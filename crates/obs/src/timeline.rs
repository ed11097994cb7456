//! [`CampaignTimeline`] — the §3.5 longitudinal dynamics, reconstructed
//! from one campaign's deterministic outputs.
//!
//! The paper's deployment story (Figures 3 and 4) is a six-month time
//! series: tasks filed per day, tasks fixed per day, outstanding races,
//! dedup growth. A single campaign run finishes in milliseconds, so to
//! reproduce those figures we bucket the campaign's spec-index axis into
//! virtual **campaign days**: spec index `i` of `N` lands on day
//! `i * days / N`. Each detected race fingerprint is an *observation* on
//! its run's day; the timeline then replays the §3.3.1 tracker discipline
//! over the observations:
//!
//! * a fingerprint with no open task files a **new** task (Figure 4's
//!   created series, and — first time ever — the dedup-growth series);
//! * a fingerprint with an open task is **suppressed** as a rediscovery;
//! * every filed task is **fixed** after a deterministic per-fingerprint
//!   latency (splitmix of the fingerprint, capped by
//!   [`TimelineConfig::fix_latency_max`]) — the stand-in for the paper's
//!   stochastic developer process, chosen deterministic so the exported
//!   timeline is byte-identical across worker counts and replay modes;
//! * once fixed, a re-observation re-files (regressions resurface), exactly
//!   like [`BugTracker`]'s suppression rule.
//!
//! Everything here is derived from deterministic campaign outputs — spec
//! indices and fingerprints — so the timeline section of the obs export
//! participates in the deterministic digest.
//!
//! [`BugTracker`]: https://docs.rs/grs-deploy

use std::collections::BTreeMap;

use crate::hash::splitmix64;

/// Timeline bucketing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineConfig {
    /// Virtual campaign days the spec-index axis is bucketed into.
    pub days: u32,
    /// Upper bound (inclusive) on the deterministic fix latency, in days;
    /// latencies are `1 ..= fix_latency_max`.
    pub fix_latency_max: u32,
}

impl TimelineConfig {
    /// 30 virtual days, fixes land within 1–14 days — a compressed render
    /// of the paper's six-month window.
    #[must_use]
    pub fn default_days() -> Self {
        TimelineConfig {
            days: 30,
            fix_latency_max: 14,
        }
    }

    /// Sets the day count (builder style), clamped to at least 1.
    #[must_use]
    pub fn days(mut self, days: u32) -> Self {
        self.days = days.max(1);
        self
    }

    /// Sets the fix-latency cap (builder style), clamped to at least 1.
    #[must_use]
    pub fn fix_latency_max(mut self, max: u32) -> Self {
        self.fix_latency_max = max.max(1);
        self
    }
}

impl Default for TimelineConfig {
    fn default() -> Self {
        Self::default_days()
    }
}

/// One virtual campaign day (one row of Figures 3 and 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DayRow {
    /// Day index (0-based).
    pub day: u32,
    /// Tasks filed this day (first detection, or re-detection after a fix).
    pub filed: u32,
    /// Observations suppressed because a task was already open.
    pub rediscovered: u32,
    /// Tasks fixed this day.
    pub fixed: u32,
    /// Open tasks at end of day — Figure 3's y-axis.
    pub outstanding: u32,
    /// Cumulative tasks filed — Figure 4's created series.
    pub filed_cum: u32,
    /// Cumulative tasks fixed — Figure 4's resolved series.
    pub fixed_cum: u32,
    /// Cumulative distinct fingerprints ever observed — the dedup-growth
    /// series.
    pub unique_cum: u32,
}

/// The finished timeline: per-day rows plus the fix-latency distribution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TimelineReport {
    /// One row per virtual day.
    pub days: Vec<DayRow>,
    /// `latency_days → fixes` over all in-window fixes (Figure 4's
    /// fix-latency distribution).
    pub fix_latency: Vec<(u32, u32)>,
    /// Total observations fed in.
    pub observations: u64,
    /// Total tasks filed.
    pub total_filed: u32,
    /// Total tasks fixed within the window.
    pub total_fixed: u32,
    /// Distinct fingerprints observed.
    pub unique_races: u32,
}

impl TimelineReport {
    /// Figure 3's series: `(day, outstanding)`.
    #[must_use]
    pub fn figure3_series(&self) -> Vec<(u32, u32)> {
        self.days.iter().map(|d| (d.day, d.outstanding)).collect()
    }

    /// Figure 4's series: `(day, filed_cum, fixed_cum)`.
    #[must_use]
    pub fn figure4_series(&self) -> Vec<(u32, u32, u32)> {
        self.days
            .iter()
            .map(|d| (d.day, d.filed_cum, d.fixed_cum))
            .collect()
    }

    /// The dedup-growth series: `(day, unique_cum)`.
    #[must_use]
    pub fn dedup_growth(&self) -> Vec<(u32, u32)> {
        self.days.iter().map(|d| (d.day, d.unique_cum)).collect()
    }

    /// Mean fix latency in days over in-window fixes (0 when none).
    #[must_use]
    pub fn mean_fix_latency(&self) -> f64 {
        let (mut fixes, mut weighted) = (0u64, 0u64);
        for &(lat, n) in &self.fix_latency {
            fixes += u64::from(n);
            weighted += u64::from(lat) * u64::from(n);
        }
        if fixes == 0 {
            0.0
        } else {
            weighted as f64 / fixes as f64
        }
    }
}

/// Buckets per-spec race observations into virtual campaign days and
/// replays the tracker discipline over them **as they stream in**.
///
/// Observations must arrive in non-decreasing day order (the campaign
/// feeds records in spec-index order, which guarantees it). The timeline
/// never stores the observation stream: each `observe` updates the open
/// task set and the accumulating day row directly, so memory is
/// O(days + open fingerprints) — at a 100K-run campaign that is the
/// difference between a few kilobytes and a vector with one entry per
/// detected race.
///
/// # Example
///
/// ```
/// use grs_obs::{CampaignTimeline, TimelineConfig};
///
/// let mut t = CampaignTimeline::new(TimelineConfig::default_days().days(4));
/// t.observe(0, 0xfeed); // new race on day 0
/// t.observe(1, 0xfeed); // rediscovered while open
/// t.observe(3, 0xbeef); // second unique race
/// let report = t.finish();
/// assert_eq!(report.unique_races, 2);
/// assert_eq!(report.days.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct CampaignTimeline {
    cfg: TimelineConfig,
    /// Finalized rows for days before `day`.
    rows: Vec<DayRow>,
    /// The day currently accumulating (rows.len() as u32, invariant).
    day: u32,
    /// In-progress counters for `day`.
    filed_today: u32,
    rediscovered_today: u32,
    fixed_today: u32,
    /// Running cumulative counters.
    filed_cum: u32,
    fixed_cum: u32,
    /// fingerprint → open task's scheduled fix day.
    open: BTreeMap<u64, u32>,
    /// fix day → fingerprints due.
    due: BTreeMap<u32, Vec<u64>>,
    /// Distinct fingerprints ever observed.
    seen: std::collections::BTreeSet<u64>,
    /// `latency_days → fixes` histogram.
    latency_hist: BTreeMap<u32, u32>,
    /// Total observations fed in.
    observations: u64,
}

impl CampaignTimeline {
    /// An empty timeline.
    #[must_use]
    pub fn new(cfg: TimelineConfig) -> Self {
        CampaignTimeline {
            cfg,
            rows: Vec::with_capacity(cfg.days as usize),
            day: 0,
            filed_today: 0,
            rediscovered_today: 0,
            fixed_today: 0,
            filed_cum: 0,
            fixed_cum: 0,
            open: BTreeMap::new(),
            due: BTreeMap::new(),
            seen: std::collections::BTreeSet::new(),
            latency_hist: BTreeMap::new(),
            observations: 0,
        }
    }

    /// The virtual day a spec at `index` of `total` lands on.
    #[must_use]
    pub fn day_of(&self, index: usize, total: usize) -> u32 {
        if total == 0 {
            return 0;
        }
        ((index * self.cfg.days as usize) / total) as u32
    }

    /// Finalizes the accumulating day's row and opens the next day:
    /// fixes scheduled for the new day land immediately — before any of
    /// its filings — so a same-day re-detection after a fix re-files.
    fn close_day(&mut self) {
        self.filed_cum += self.filed_today;
        self.fixed_cum += self.fixed_today;
        self.rows.push(DayRow {
            day: self.day,
            filed: self.filed_today,
            rediscovered: self.rediscovered_today,
            fixed: self.fixed_today,
            outstanding: self.open.len() as u32,
            filed_cum: self.filed_cum,
            fixed_cum: self.fixed_cum,
            unique_cum: self.seen.len() as u32,
        });
        self.day += 1;
        self.filed_today = 0;
        self.rediscovered_today = 0;
        self.fixed_today = 0;
        if let Some(fps) = self.due.remove(&self.day) {
            for fp in fps {
                if self.open.remove(&fp).is_some() {
                    self.fixed_today += 1;
                }
            }
        }
    }

    /// Records one race observation (a detected fingerprint) on `day`.
    ///
    /// # Panics
    ///
    /// Panics when `day` decreases relative to the previous observation or
    /// is out of the configured window — both indicate a caller iterating
    /// records out of spec order, which would silently break determinism.
    pub fn observe(&mut self, day: u32, fingerprint: u64) {
        assert!(day < self.cfg.days, "day {day} outside 0..{}", self.cfg.days);
        assert!(day >= self.day, "observations must be fed in day order");
        while self.day < day {
            self.close_day();
        }
        self.observations += 1;
        self.seen.insert(fingerprint);
        if let std::collections::btree_map::Entry::Vacant(slot) = self.open.entry(fingerprint) {
            let latency =
                1 + (splitmix64(fingerprint) % u64::from(self.cfg.fix_latency_max)) as u32;
            let fix_day = day + latency;
            slot.insert(fix_day);
            if fix_day < self.cfg.days {
                self.due.entry(fix_day).or_default().push(fingerprint);
                *self.latency_hist.entry(latency).or_insert(0) += 1;
            }
            self.filed_today += 1;
        } else {
            self.rediscovered_today += 1;
        }
    }

    /// Number of observations so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.observations as usize
    }

    /// True when no observation was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.observations == 0
    }

    /// Runs the remaining (observation-free) days through the tracker and
    /// emits the per-day report. Deterministic: a pure function of the
    /// observation sequence and the config.
    #[must_use]
    pub fn finish(mut self) -> TimelineReport {
        while self.day < self.cfg.days {
            self.close_day();
        }
        TimelineReport {
            days: self.rows,
            fix_latency: self.latency_hist.into_iter().collect(),
            observations: self.observations,
            total_filed: self.filed_cum,
            total_fixed: self.fixed_cum,
            unique_races: self.seen.len() as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(days: u32) -> TimelineConfig {
        TimelineConfig::default_days().days(days)
    }

    #[test]
    fn day_bucketing_covers_the_window() {
        let t = CampaignTimeline::new(cfg(10));
        assert_eq!(t.day_of(0, 100), 0);
        assert_eq!(t.day_of(99, 100), 9);
        assert_eq!(t.day_of(50, 100), 5);
        assert_eq!(t.day_of(0, 0), 0);
    }

    #[test]
    fn new_vs_rediscovered_vs_refiled() {
        let mut t = CampaignTimeline::new(cfg(20).fix_latency_max(1));
        // fp seen on day 0: filed; fixed day 1 (latency forced to 1).
        t.observe(0, 42);
        // day 0 again: suppressed (open).
        t.observe(0, 42);
        // day 2 (after the fix): re-filed.
        t.observe(2, 42);
        let r = t.finish();
        assert_eq!(r.unique_races, 1);
        assert_eq!(r.total_filed, 2, "regression re-files after the fix");
        assert_eq!(r.days[0].filed, 1);
        assert_eq!(r.days[0].rediscovered, 1);
        assert_eq!(r.days[1].fixed, 1);
        assert_eq!(r.days[2].filed, 1);
    }

    #[test]
    fn cumulative_series_are_monotone_and_consistent() {
        let mut t = CampaignTimeline::new(cfg(15));
        for i in 0..300u64 {
            t.observe((i / 20) as u32, splitmix64(i) % 40);
        }
        let r = t.finish();
        assert_eq!(r.days.len(), 15);
        for w in r.days.windows(2) {
            assert!(w[1].filed_cum >= w[0].filed_cum);
            assert!(w[1].fixed_cum >= w[0].fixed_cum);
            assert!(w[1].unique_cum >= w[0].unique_cum);
        }
        for d in &r.days {
            assert_eq!(
                d.outstanding,
                d.filed_cum - d.fixed_cum,
                "open = filed − fixed on day {}",
                d.day
            );
        }
        assert!(r.total_fixed > 0, "fixes land inside a 15-day window");
        assert!(r.mean_fix_latency() >= 1.0);
        let fig3 = r.figure3_series();
        let fig4 = r.figure4_series();
        assert_eq!(fig3.len(), 15);
        assert_eq!(fig4.len(), 15);
        assert_eq!(r.dedup_growth().last().unwrap().1, r.unique_races);
    }

    #[test]
    fn deterministic_across_reruns() {
        let build = || {
            let mut t = CampaignTimeline::new(cfg(12));
            for i in 0..200u64 {
                t.observe((i / 17) as u32, i % 23);
            }
            t.finish()
        };
        assert_eq!(build(), build());
    }

    #[test]
    #[should_panic(expected = "day order")]
    fn out_of_order_observation_panics() {
        let mut t = CampaignTimeline::new(cfg(5));
        t.observe(3, 1);
        t.observe(2, 2);
    }
}
