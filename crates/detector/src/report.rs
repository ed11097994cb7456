//! Races and race reports: what a detector keeps, and the detector output
//! the deployment pipeline consumes.
//!
//! A detector keeps each race it finds as a [`Race`] — `Copy` ids into the
//! run's stack depot and the detector's lockset interner — and resolves
//! nothing while the run goes on. A [`RaceReport`] mirrors what the
//! paper's workflow files as a bug (§3.3): the conflicting address, the two
//! calling contexts, and the access types. One builder turns the first
//! into the second ([`DetectorArena::report`](crate::DetectorArena::report)
//! and the lone detectors' run end both call it), so a campaign that keeps
//! one race per fingerprint resolves the stacks of those races only.

use std::fmt;
use std::sync::Arc;

use grs_clock::{Lockset, LocksetId, LocksetInterner};
use grs_runtime::{
    AccessKind, Addr, Gid, NameId, ReproArtifact, SourceLoc, Stack, StackDepot, StackId,
};

/// Which algorithm produced a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectorKind {
    /// Happens-before via FastTrack epochs.
    FastTrack,
    /// Happens-before via full vector clocks (ablation variant).
    PureVectorClock,
    /// Eraser-style locksets (may report false positives).
    Eraser,
    /// The combined TSan-style detector.
    Tsan,
}

impl fmt::Display for DetectorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DetectorKind::FastTrack => "fasttrack",
            DetectorKind::PureVectorClock => "pure-vc",
            DetectorKind::Eraser => "eraser",
            DetectorKind::Tsan => "tsan",
        };
        f.write_str(s)
    }
}

/// One access as a detector records it: who, how, and from where, with the
/// stack a depot id and the held locks a lockset id. `Copy`, so a shadow
/// slot keeps its last accesses by moving a few words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRecord {
    /// The accessing goroutine.
    pub gid: Gid,
    /// Read/write, atomic or plain.
    pub kind: AccessKind,
    /// The calling context, in the run's depot.
    pub stack: StackId,
    /// Source location of the access.
    pub loc: SourceLoc,
    /// Locks held at the access, in the recording detector's interner
    /// ([`LocksetId::EMPTY`] for detectors that track none).
    pub locks: LocksetId,
}

impl AccessRecord {
    fn resolve(self, depot: &StackDepot, locksets: &LocksetInterner) -> RaceAccess {
        RaceAccess {
            gid: self.gid,
            kind: self.kind,
            stack: depot.resolve(self.stack),
            loc: self.loc,
            locks_held: locksets.get(self.locks).clone(),
        }
    }
}

/// A race as a detector keeps it: the conflicting address, the object's
/// name id and both accesses, all ids. Valid with the depot and lockset
/// interner of the run that found it — until the next run resets them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Race {
    /// The conflicting address.
    pub addr: Addr,
    /// The object's name, in the run's depot.
    pub object: NameId,
    /// The earlier access (in the observed schedule).
    pub prior: AccessRecord,
    /// The access that exposed the race.
    pub current: AccessRecord,
}

impl Race {
    /// The one report builder: resolves the name, both stacks and both
    /// locksets of this race, found by a `detector` whose run used `depot`
    /// and `locksets`.
    pub(crate) fn report(
        &self,
        depot: &StackDepot,
        locksets: &LocksetInterner,
        detector: DetectorKind,
    ) -> RaceReport {
        RaceReport {
            addr: self.addr,
            object: depot.name(self.object),
            prior: self.prior.resolve(depot, locksets),
            current: self.current.resolve(depot, locksets),
            detector,
            program: None,
            repro_seed: None,
            repro: None,
        }
    }
}

/// One side of a race report: who accessed, how, and from where.
#[derive(Debug, Clone)]
pub struct RaceAccess {
    /// The accessing goroutine.
    pub gid: Gid,
    /// Read/write, atomic or plain.
    pub kind: AccessKind,
    /// Go-style calling context, materialized when the report is built.
    pub stack: Stack,
    /// Source location of the access.
    pub loc: SourceLoc,
    /// Locks held at the access (filled by lockset-aware detectors; empty
    /// otherwise).
    pub locks_held: Lockset,
}

impl fmt::Display for RaceAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} by {} at {}\n    {}",
            self.kind, self.gid, self.loc, self.stack
        )
    }
}

/// A detected data race on one shadow address.
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// The conflicting address.
    pub addr: Addr,
    /// Debug name of the object (e.g. `"myResults[header]"`).
    pub object: Arc<str>,
    /// The earlier access (in the observed schedule).
    pub prior: RaceAccess,
    /// The access that triggered the report.
    pub current: RaceAccess,
    /// Which detector produced the report.
    pub detector: DetectorKind,
    /// Name of the program under test (filled by the campaign driver).
    pub program: Option<Arc<str>>,
    /// The seed of the first run that exposed this race — the §3.4 "necessary
    /// instructions to reproduce": rerunning the program under this seed
    /// replays the interleaving deterministically (filled by the campaign
    /// driver).
    pub repro_seed: Option<u64>,
    /// The full reproduction artifact (seed + strategy + trace digest +
    /// optional `.grtrace` path) when the producing run was recorded or the
    /// filling harness knows its strategy. Supersedes `repro_seed`, which
    /// is kept as the bare-seed projection.
    pub repro: Option<ReproArtifact>,
}

impl RaceReport {
    /// True when at least one side is a write (always the case for HB
    /// detectors; also enforced by Eraser's state machine).
    #[must_use]
    pub fn involves_write(&self) -> bool {
        self.prior.kind.is_write() || self.current.kind.is_write()
    }

    /// The two stacks, in the (earlier, later) order they executed.
    #[must_use]
    pub fn stacks(&self) -> (&Stack, &Stack) {
        (&self.prior.stack, &self.current.stack)
    }

    /// A coarse within-run duplicate key: the conflicting object plus both
    /// source locations, orientation-insensitive. (The cross-run,
    /// line-insensitive fingerprint of §3.3.1 lives in `grs-deploy`.)
    #[must_use]
    pub fn site_key(&self) -> String {
        site_key_of(&self.object, self.prior.loc, self.current.loc)
    }
}

/// [`RaceReport::site_key`] of a race on `object` between accesses at `a`
/// and `b`, for callers that hold the two accesses but no report.
#[must_use]
pub fn site_key_of(object: &str, a: SourceLoc, b: SourceLoc) -> String {
    let mut locs = [a.to_string(), b.to_string()];
    locs.sort();
    format!("{object}|{}|{}", locs[0], locs[1])
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "WARNING: DATA RACE ({})", self.detector)?;
        if let Some(p) = &self.program {
            writeln!(f, "  program: {p}")?;
        }
        writeln!(f, "  object: {} @ {}", self.object, self.addr)?;
        writeln!(f, "  {}", self.current)?;
        writeln!(f, "  previous {}", self.prior)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grs_runtime::Frame;

    fn access(gid: u32, kind: AccessKind, func: &str, line: u32) -> RaceAccess {
        RaceAccess {
            gid: Gid(gid),
            kind,
            stack: Stack::from_frames(vec![Frame {
                func: Arc::from(func),
                call_line: 0,
            }]),
            loc: SourceLoc { file: "x.rs", line },
            locks_held: Lockset::new(),
        }
    }

    fn report(k1: AccessKind, l1: u32, k2: AccessKind, l2: u32) -> RaceReport {
        RaceReport {
            addr: Addr(1),
            object: Arc::from("x"),
            prior: access(0, k1, "main", l1),
            current: access(1, k2, "worker", l2),
            detector: DetectorKind::FastTrack,
            program: None,
            repro_seed: None,
            repro: None,
        }
    }

    #[test]
    fn involves_write_detects_writes() {
        assert!(report(AccessKind::Write, 1, AccessKind::Read, 2).involves_write());
        assert!(report(AccessKind::Read, 1, AccessKind::AtomicWrite, 2).involves_write());
        assert!(!report(AccessKind::Read, 1, AccessKind::Read, 2).involves_write());
    }

    #[test]
    fn site_key_is_orientation_insensitive() {
        let a = report(AccessKind::Write, 10, AccessKind::Read, 20);
        let mut b = report(AccessKind::Read, 20, AccessKind::Write, 10);
        std::mem::swap(&mut b.prior, &mut b.current);
        // b now has the same orientation as a; build the reversed one:
        let c = report(AccessKind::Read, 20, AccessKind::Write, 10);
        assert_eq!(a.site_key(), c.site_key());
    }

    #[test]
    fn display_mentions_data_race() {
        let r = report(AccessKind::Write, 1, AccessKind::Read, 2);
        let s = r.to_string();
        assert!(s.contains("DATA RACE"));
        assert!(s.contains("fasttrack"));
        assert!(s.contains("x.rs:1"));
        assert!(s.contains("x.rs:2"));
    }
}
