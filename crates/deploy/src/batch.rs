//! Batched intake: campaign-scale dedup *before* the intake service.
//!
//! A nightly campaign (§3.3) produces race reports from thousands of runs,
//! the overwhelming majority duplicates of each other — the same race
//! re-detected under different seeds, strategies, and detectors. Filing
//! them one by one through
//! [`IntakeService::submit`](crate::service::IntakeService::submit) works
//! but touches the tracker once per raw report; a campaign instead
//! accumulates into a [`RaceBatch`] keyed by [`race_fingerprint`] and hands
//! [`IntakeService::submit_race_batch`](crate::service::IntakeService::submit_race_batch)
//! one deduplicated, deterministically ordered batch per day.
//!
//! Determinism matters: the batch keeps, per fingerprint, the report from
//! the *lowest-numbered* campaign run, and iterates in fingerprint order.
//! Ties on `run_order` — which the intake service produces whenever two
//! clients submit the same race on the same day — are broken by a stable
//! content key ([`naive_fingerprint`] plus the repro seed), never by
//! insertion order. Merging per-worker batches in any order therefore
//! yields the same final batch — the property the differential test
//! harness checks between serial and parallel campaigns, and that the
//! service relies on so merge order can't change filed representatives.

use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use grs_detector::RaceReport;

use crate::fingerprint::{naive_fingerprint, race_fingerprint, Fingerprint};

/// The total order choosing a fingerprint's representative: lowest
/// `run_order` first, ties broken by a content key that is a pure function
/// of the report (so which batch got there first never matters).
#[derive(Debug, Clone, Copy)]
struct RepRank {
    run_order: u64,
    tie_key: u64,
}

/// [`RepRank::tie_key`] of `report`.
fn content_key(report: &RaceReport) -> u64 {
    // The naive fingerprint sees function names *and* line numbers in
    // detection order, so it distinguishes the concrete manifestations
    // that the dedup fingerprint deliberately conflates; the repro seed
    // separates re-detections of the same lines under different runs.
    let seed = report.repro_seed.unwrap_or(0);
    naive_fingerprint(report).0 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// A deduplicated, deterministically ordered set of race reports.
#[derive(Debug, Default)]
pub struct RaceBatch {
    by_fp: BTreeMap<Fingerprint, (RepRank, RaceReport)>,
    raw: u64,
}

impl RaceBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one raw report discovered by campaign run `run_order`.
    ///
    /// The representative kept for a fingerprint is the one with the lowest
    /// `run_order`; ties go to the report with the lowest content key, so
    /// the winner is independent of insertion order. Returns `true` when
    /// the fingerprint was new.
    pub fn add(&mut self, report: RaceReport, run_order: u64) -> bool {
        self.raw += 1;
        let tie_key = content_key(&report);
        self.offer(race_fingerprint(&report), run_order, Some(tie_key), report)
    }

    /// [`RaceBatch::add`] for a producer that already holds the report's
    /// [`race_fingerprint`] and whose `run_order`s are its own (a
    /// campaign's spec indices): equal orders are then reports of one run
    /// in detection order, and the first one offered stays.
    pub fn add_fingerprinted(
        &mut self,
        fp: Fingerprint,
        report: RaceReport,
        run_order: u64,
    ) -> bool {
        self.raw += 1;
        self.offer(fp, run_order, None, report)
    }

    /// Merges another batch into this one (same representative rule, so
    /// merging any partition of the raw reports in any order converges to
    /// the batch a single serial `add` loop would build).
    pub fn merge(&mut self, other: RaceBatch) {
        self.raw += other.raw;
        for (fp, (rank, report)) in other.by_fp {
            self.offer(fp, rank.run_order, Some(rank.tie_key), report);
        }
    }

    /// The representative rule, written once: `report` takes `fp`'s slot
    /// when it is vacant or held by a higher `run_order`. Between equal
    /// orders the lower `tie_key` holds the slot; a candidate offered
    /// without one leaves the incumbent in place, and its content key is
    /// computed only if it takes the slot. Returns `true` when the slot
    /// was vacant.
    fn offer(
        &mut self,
        fp: Fingerprint,
        run_order: u64,
        tie_key: Option<u64>,
        report: RaceReport,
    ) -> bool {
        let rank = |report: &RaceReport| RepRank {
            run_order,
            tie_key: tie_key.unwrap_or_else(|| content_key(report)),
        };
        match self.by_fp.entry(fp) {
            Entry::Vacant(v) => {
                v.insert((rank(&report), report));
                true
            }
            Entry::Occupied(mut o) => {
                let held = o.get().0;
                let takes = match run_order.cmp(&held.run_order) {
                    Ordering::Less => true,
                    Ordering::Equal => tie_key.is_some_and(|k| k < held.tie_key),
                    Ordering::Greater => false,
                };
                if takes {
                    o.insert((rank(&report), report));
                }
                false
            }
        }
    }

    /// Number of distinct fingerprints.
    #[must_use]
    pub fn len(&self) -> usize {
        self.by_fp.len()
    }

    /// True when no report has been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_fp.is_empty()
    }

    /// Total raw reports added (before dedup).
    #[must_use]
    pub fn raw_reports(&self) -> u64 {
        self.raw
    }

    /// The distinct fingerprints, ascending.
    #[must_use]
    pub fn fingerprints(&self) -> Vec<Fingerprint> {
        self.by_fp.keys().copied().collect()
    }

    /// Iterates `(fingerprint, representative report)` in fingerprint order.
    pub fn iter(&self) -> impl Iterator<Item = (Fingerprint, &RaceReport)> {
        self.by_fp.iter().map(|(fp, (_, r))| (*fp, r))
    }

    /// Consumes the batch, yielding representatives in fingerprint order.
    #[must_use]
    pub fn into_reports(self) -> Vec<RaceReport> {
        self.by_fp.into_values().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::service::{FileOutcome, IntakeService};
    use grs_clock::Lockset;
    use grs_detector::{DetectorKind, RaceAccess};
    use grs_runtime::{AccessKind, Addr, Frame, Gid, SourceLoc, Stack};
    use std::sync::Arc;

    pub(crate) fn report(func: &str, line: u32, seed: u64) -> RaceReport {
        let mk = |gid: u32, kind: AccessKind, line: u32| RaceAccess {
            gid: Gid(gid),
            kind,
            stack: Stack::from_frames(vec![Frame {
                func: Arc::from(func),
                call_line: line,
            }]),
            loc: SourceLoc { file: "f.go", line },
            locks_held: Lockset::new(),
        };
        RaceReport {
            addr: Addr(1),
            object: Arc::from("x"),
            prior: mk(0, AccessKind::Write, line),
            current: mk(1, AccessKind::Read, line + 1),
            detector: DetectorKind::Tsan,
            program: None,
            repro_seed: Some(seed),
            repro: None,
        }
    }

    #[test]
    fn dedups_line_shifted_duplicates_and_keeps_lowest_run() {
        let mut b = RaceBatch::new();
        assert!(b.add(report("F", 10, 5), 5));
        assert!(!b.add(report("F", 99, 2), 2)); // same race, earlier run
        assert!(b.add(report("G", 10, 7), 7));
        assert_eq!(b.len(), 2);
        assert_eq!(b.raw_reports(), 3);
        let reps = b.into_reports();
        let f = reps
            .iter()
            .find(|r| r.prior.stack.func_names() == ["F"])
            .unwrap();
        assert_eq!(f.repro_seed, Some(2), "lower run order must win");
    }

    #[test]
    fn merge_is_order_independent() {
        let reports = [
            (report("A", 1, 0), 3u64),
            (report("B", 2, 1), 1),
            (report("A", 7, 2), 0),
            (report("C", 3, 3), 2),
        ];
        let mut left = RaceBatch::new();
        let mut right = RaceBatch::new();
        for (i, (r, order)) in reports.iter().enumerate() {
            if i % 2 == 0 {
                left.add(r.clone(), *order);
            } else {
                right.add(r.clone(), *order);
            }
        }
        let mut ab = RaceBatch::new();
        for (r, order) in &reports {
            ab.add(r.clone(), *order);
        }
        let mut merged = RaceBatch::new();
        merged.merge(right);
        merged.merge(left);
        assert_eq!(merged.fingerprints(), ab.fingerprints());
        assert_eq!(merged.raw_reports(), ab.raw_reports());
        let (m, s): (Vec<_>, Vec<_>) = (merged.into_reports(), ab.into_reports());
        for (a, b) in m.iter().zip(s.iter()) {
            assert_eq!(a.repro_seed, b.repro_seed);
        }
    }

    #[test]
    fn equal_run_order_merge_is_order_independent() {
        // Two workers discover the same fingerprint in the same run-order
        // slot (e.g. two intake clients on the same day). Whichever merge
        // order the service uses, the representative must be the same.
        let a = report("F", 10, 3); // same fingerprint as b (lines ignored)
        let b = report("F", 99, 8);
        let build = |first: &RaceReport, second: &RaceReport| {
            let mut left = RaceBatch::new();
            left.add(first.clone(), 7);
            let mut right = RaceBatch::new();
            right.add(second.clone(), 7);
            let mut merged = RaceBatch::new();
            merged.merge(left);
            merged.merge(right);
            merged.into_reports()
        };
        let ab = build(&a, &b);
        let ba = build(&b, &a);
        assert_eq!(ab.len(), 1);
        assert_eq!(
            ab[0].repro_seed, ba[0].repro_seed,
            "representative must not depend on merge order"
        );
        assert_eq!(ab[0].prior.loc.line, ba[0].prior.loc.line);

        // Same property through `add` alone (insertion order flipped).
        let mut fwd = RaceBatch::new();
        fwd.add(a.clone(), 7);
        fwd.add(b.clone(), 7);
        let mut rev = RaceBatch::new();
        rev.add(b, 7);
        rev.add(a, 7);
        assert_eq!(
            fwd.into_reports()[0].repro_seed,
            rev.into_reports()[0].repro_seed
        );
    }

    #[test]
    fn repro_artifact_survives_batch_intake_into_the_task() {
        use grs_runtime::{ReproArtifact, Strategy};
        let mut r = report("F", 10, 7);
        r.repro = Some(ReproArtifact {
            seed: 7,
            strategy: Strategy::RoundRobin,
            trace_digest: Some(0x1234),
            trace_path: Some("traces/f.grtrace".into()),
        });
        let mut b = RaceBatch::new();
        b.add(r, 0);
        let service = IntakeService::builder().workers(1).start().unwrap();
        let outcomes = service.submit_race_batch(&b, 0).unwrap();
        let FileOutcome::Filed { task, .. } = outcomes[0].1 else {
            panic!("must file");
        };
        let task = service.with_tracker(|t| t.task(task).cloned()).expect("filed");
        assert_eq!(task.repro_seed, Some(7));
        let artifact = task.repro.as_ref().expect("artifact attached");
        assert_eq!(artifact.strategy, Strategy::RoundRobin);
        assert_eq!(artifact.trace_digest, Some(0x1234));
        assert_eq!(artifact.trace_path.as_deref(), Some("traces/f.grtrace"));
    }

    #[test]
    fn seed_only_reports_still_file_reproducible_tasks() {
        // Legacy path: no artifact on the report, just a repro seed.
        let mut b = RaceBatch::new();
        b.add(report("G", 5, 9), 0);
        let service = IntakeService::builder().workers(1).start().unwrap();
        let outcomes = service.submit_race_batch(&b, 0).unwrap();
        let FileOutcome::Filed { task, .. } = outcomes[0].1 else {
            panic!("must file");
        };
        let task = service.with_tracker(|t| t.task(task).cloned()).expect("filed");
        assert_eq!(task.repro_seed, Some(9));
        assert_eq!(
            task.repro,
            Some(grs_runtime::ReproArtifact::seed_only(9)),
            "seed-only fallback artifact"
        );
    }

    #[test]
    fn a_batch_files_once_per_fingerprint_and_is_all_duplicate_the_next_day() {
        let mut b = RaceBatch::new();
        b.add(report("F", 10, 0), 0);
        b.add(report("F", 11, 1), 1);
        b.add(report("G", 20, 2), 2);
        let service = IntakeService::builder().workers(1).start().unwrap();
        let outcomes = service.submit_race_batch(&b, 0).unwrap();
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes
            .iter()
            .all(|(_, o)| matches!(o, FileOutcome::Filed { .. })));
        assert_eq!(service.stats().total_filed, 2);
        // Next day, same batch: everything is a cross-day duplicate.
        let again = service.submit_race_batch(&b, 1).unwrap();
        assert!(again.iter().all(|(_, o)| *o == FileOutcome::Duplicate));
    }
}
