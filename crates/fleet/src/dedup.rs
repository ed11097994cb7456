//! The concurrent dedup stage: fingerprint-sharded race aggregation.
//!
//! Every worker that finds a race inserts it here keyed by its
//! [`race_fingerprint`](grs_deploy::race_fingerprint) hash (§3.3.1's
//! line-insensitive, orientation-insensitive identity). The map is sharded
//! by fingerprint so concurrent inserts from different workers rarely
//! contend on the same lock, and the representative kept per fingerprint is
//! chosen deterministically — the report from the *lowest spec index* wins,
//! regardless of which worker got there first — so a parallel campaign's
//! dedup output is byte-identical to the serial one.

use std::sync::{Mutex, MutexGuard};

use grs_deploy::{Fingerprint, RaceBatch};
use grs_detector::RaceReport;

/// A fingerprint-sharded concurrent dedup map: each shard is a
/// [`RaceBatch`] — which owns the representative rule — behind its lock.
#[derive(Debug)]
pub struct DedupMap {
    shards: Vec<Mutex<RaceBatch>>,
}

impl DedupMap {
    /// A map with `shards` lock shards (clamped to at least 1).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        DedupMap {
            shards: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
        }
    }

    /// Records `report` (found by spec `spec_index`) under `fp`: the
    /// [`DedupMap::insert_with`] of a report already built.
    pub fn insert(&self, fp: Fingerprint, spec_index: usize, report: RaceReport) -> bool {
        self.insert_with(fp, spec_index, || report)
    }

    /// Records a race found by spec `spec_index` under `fp`. Returns `true`
    /// when the fingerprint was new. On a collision the lower spec index
    /// keeps (or takes) the representative slot; between two races of one
    /// spec the first inserted keeps it. `report` builds the race's report,
    /// and runs only when the race takes the slot.
    pub fn insert_with(
        &self,
        fp: Fingerprint,
        spec_index: usize,
        report: impl FnOnce() -> RaceReport,
    ) -> bool {
        let i = (fp.0 % self.shards.len() as u64) as usize;
        lock(&self.shards[i]).add_fingerprinted(fp, spec_index as u64, report)
    }

    /// Number of distinct fingerprints recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains the map into one deterministically ordered [`RaceBatch`]
    /// (fingerprint-ascending, lowest-spec-index representatives): the
    /// shards hold disjoint fingerprints, so merging them only moves
    /// entries and sums the raw counts.
    #[must_use]
    pub fn into_batch(self) -> RaceBatch {
        let mut batch = RaceBatch::new();
        for shard in self.shards {
            batch.merge(
                shard
                    .into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            );
        }
        batch
    }
}

/// A worker that panicked mid-insert left its shard a valid batch (an
/// insert is one map operation), so a poisoned lock is recovered.
fn lock(shard: &Mutex<RaceBatch>) -> MutexGuard<'_, RaceBatch> {
    shard
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grs_clock::Lockset;
    use grs_detector::{DetectorChoice, RaceAccess};
    use grs_runtime::{AccessKind, Addr, Frame, Gid, Stack};
    use std::sync::Arc;

    fn report(func: &str, seed: u64) -> RaceReport {
        let mk = |gid: u32, kind: AccessKind| RaceAccess {
            gid: Gid(gid),
            kind,
            stack: Stack::from_frames(vec![Frame {
                func: Arc::from(func),
                call_line: 1,
            }]),
            file: Arc::from("f.go"),
            line: 1,
            locks_held: Lockset::new(),
        };
        RaceReport {
            addr: Addr(1),
            object: Arc::from("x"),
            prior: mk(0, AccessKind::Write),
            current: mk(1, AccessKind::Read),
            detector: DetectorChoice::Hybrid,
            program: None,
            repro_seed: Some(seed),
            repro: None,
        }
    }

    #[test]
    fn lowest_spec_index_wins_regardless_of_insert_order() {
        let fp = Fingerprint(42);
        let m = DedupMap::new(4);
        assert!(m.insert(fp, 9, report("F", 9)));
        assert!(!m.insert(fp, 2, report("F", 2)));
        assert!(!m.insert(fp, 5, report("F", 5)));
        let reports = m.into_batch().into_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].repro_seed, Some(2));
    }

    #[test]
    fn two_reports_of_one_spec_keep_the_first_inserted() {
        let fp = Fingerprint(42);
        for (first, second) in [("F", "G"), ("G", "F")] {
            let m = DedupMap::new(4);
            m.insert(fp, 3, report(first, 3));
            m.insert(fp, 3, report(second, 3));
            let batch = m.into_batch();
            assert_eq!(batch.raw_reports(), 2);
            let kept = batch.into_reports();
            assert_eq!(kept[0].prior.stack.func_names(), [first]);
        }
    }

    #[test]
    fn a_report_is_built_only_to_take_the_slot() {
        let fp = Fingerprint(42);
        let m = DedupMap::new(4);
        let built = &std::cell::Cell::new(0);
        let build = |seed| {
            move || {
                built.set(built.get() + 1);
                report("F", seed)
            }
        };
        assert!(m.insert_with(fp, 5, build(5)));
        assert!(!m.insert_with(fp, 5, build(6)));
        assert!(!m.insert_with(fp, 7, build(7)));
        assert_eq!(built.get(), 1, "repeats at the same or a higher spec build nothing");
        assert!(!m.insert_with(fp, 2, build(2)));
        assert_eq!(built.get(), 2, "a lower spec builds the report it keeps");
        let batch = m.into_batch();
        assert_eq!(batch.raw_reports(), 4);
        assert_eq!(batch.into_reports()[0].repro_seed, Some(2));
    }

    #[test]
    fn concurrent_inserts_converge_to_the_serial_result() {
        let m = DedupMap::new(8);
        std::thread::scope(|s| {
            for w in 0..4 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..100 {
                        let spec = w * 100 + i;
                        m.insert(Fingerprint(i as u64 % 7), spec, report("F", spec as u64));
                    }
                });
            }
        });
        assert_eq!(m.len(), 7);
        for r in m.into_batch().into_reports() {
            // The minimum spec index touching fingerprint k is k (worker 0).
            assert!(r.repro_seed.unwrap() < 7);
        }
    }
}
