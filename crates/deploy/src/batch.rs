//! Batched intake: campaign-scale dedup *before* the intake service.
//!
//! A nightly campaign (§3.3) produces race reports from thousands of runs,
//! the overwhelming majority duplicates of each other — the same race
//! re-detected under different seeds, strategies, and detectors. Filing
//! them one by one through
//! [`IntakeHandle::submit`](crate::service::IntakeHandle::submit) works
//! but touches the tracker once per raw report; a campaign instead
//! accumulates into a [`RaceBatch`] keyed by [`race_fingerprint`] and hands
//! [`IntakeHandle::submit_race_batch`](crate::service::IntakeHandle::submit_race_batch)
//! one deduplicated, deterministically ordered batch per day.
//!
//! Determinism matters: the batch keeps, per fingerprint, the report from
//! the *lowest-numbered* campaign run, and iterates in fingerprint order.
//! Every producer numbers its runs distinctly (a campaign by spec index),
//! so a lower order decides; among equal orders the first offered keeps
//! the slot. Merging batches whose run orders are distinct — a campaign's
//! dedup stripes hold disjoint fingerprints — in any order therefore
//! yields the batch a single serial `add` loop would build.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use grs_detector::RaceReport;

use crate::fingerprint::{race_fingerprint, Fingerprint};

/// A deduplicated, deterministically ordered set of race reports.
#[derive(Debug, Default)]
pub struct RaceBatch {
    /// Per fingerprint, the representative's run order and report.
    by_fp: BTreeMap<Fingerprint, (u64, RaceReport)>,
    raw: u64,
}

impl RaceBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one raw report discovered by campaign run `run_order`: the
    /// [`RaceBatch::add_fingerprinted`] of a report already built.
    pub fn add(&mut self, report: RaceReport, run_order: u64) -> bool {
        self.add_fingerprinted(race_fingerprint(&report), run_order, || report)
    }

    /// Adds one raw race, discovered by run `run_order`, whose
    /// [`race_fingerprint`] is `fp`. Returns `true` when the fingerprint
    /// was new.
    ///
    /// The representative kept for a fingerprint is the one with the
    /// lowest `run_order`; among equal orders the first offered keeps the
    /// slot. `report` builds the race's report; it runs only when the race
    /// takes the slot, so a duplicate costs a map probe and builds nothing.
    pub fn add_fingerprinted(
        &mut self,
        fp: Fingerprint,
        run_order: u64,
        report: impl FnOnce() -> RaceReport,
    ) -> bool {
        self.raw += 1;
        self.offer(fp, run_order, report)
    }

    /// Merges another batch into this one under the same representative
    /// rule.
    pub fn merge(&mut self, other: RaceBatch) {
        self.raw += other.raw;
        for (fp, (run_order, report)) in other.by_fp {
            self.offer(fp, run_order, || report);
        }
    }

    /// The representative rule, written once: the candidate takes `fp`'s
    /// slot when it is vacant or held by a higher `run_order`, and its
    /// report is built only then. Returns `true` when the slot was vacant.
    fn offer(
        &mut self,
        fp: Fingerprint,
        run_order: u64,
        report: impl FnOnce() -> RaceReport,
    ) -> bool {
        match self.by_fp.entry(fp) {
            Entry::Vacant(v) => {
                v.insert((run_order, report()));
                true
            }
            Entry::Occupied(mut o) => {
                if run_order < o.get().0 {
                    o.insert((run_order, report()));
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
    use grs_detector::{DetectorChoice, RaceAccess};
    use grs_runtime::{AccessKind, Addr, Frame, Gid, Stack};
    use std::sync::Arc;

    pub(crate) fn report(func: &str, line: u32, seed: u64) -> RaceReport {
        let mk = |gid: u32, kind: AccessKind, line: u32| RaceAccess {
            gid: Gid(gid),
            kind,
            stack: Stack::from_frames(vec![Frame {
                func: Arc::from(func),
                call_line: line,
            }]),
            file: Arc::from("f.go"),
            line,
            locks_held: Lockset::new(),
        };
        RaceReport {
            addr: Addr(1),
            object: Arc::from("x"),
            prior: mk(0, AccessKind::Write, line),
            current: mk(1, AccessKind::Read, line + 1),
            detector: DetectorChoice::Hybrid,
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
        for (fp, outcome) in &outcomes {
            let FileOutcome::Filed { task, .. } = outcome else {
                panic!("{fp}: expected a filed task, got {outcome:?}");
            };
            let filed_under = service.with_tracker(|t| t.task(*task).map(|t| t.fingerprint));
            assert_eq!(filed_under, Some(*fp), "filed under its batch key");
        }
        assert_eq!(service.stats().total_filed, 2);
        // Next day, same batch: everything is a cross-day duplicate.
        let again = service.submit_race_batch(&b, 1).unwrap();
        assert!(again.iter().all(|(_, o)| *o == FileOutcome::Duplicate));
    }
}
