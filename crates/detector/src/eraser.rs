//! The Eraser lockset race detector.
//!
//! Eraser (Savage et al., TOCS 1997) ignores happens-before entirely: each
//! shared variable carries a candidate set of locks, refined by intersection
//! with the accessor's held locks at every access once the variable is
//! shared. An empty candidate set on a shared-modified variable means no
//! single lock consistently protects it — a *potential* race.
//!
//! Because channel communication, `WaitGroup`s, and goroutine spawn order
//! establish happens-before without any lock, Eraser over-reports on idiomatic
//! Go: the detector-comparison benchmark quantifies exactly that, which is
//! why ThreadSanitizer anchors its verdicts on vector clocks (§3.1).
//!
//! Shadow state is a flat `Vec<Option<EraserVar>>` indexed by the kernel's
//! dense address ids (see the module docs of [`crate::fasttrack`]). A
//! lockset verdict is not a happens-before verdict, so the one fact
//! [`crate::reference`] holds this detector to is lock discipline: an
//! address some lock covers at every access is never reported.

use grs_clock::{LockId, Lockset, LocksetId, LocksetInterner};
use grs_runtime::event::{Event, EventKind, LockMode};
use grs_runtime::{AccessKind, Addr, Gid, Monitor, NameId, SourceLoc, StackDepot, StackId};

use crate::replay::Detector;
use crate::report::{DetectorKind, RaceAccess, RaceReport};

/// Eraser's per-variable state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarState {
    /// Only one goroutine has ever touched the variable.
    Exclusive(Gid),
    /// Multiple goroutines read it (no cross-goroutine write yet).
    Shared,
    /// Written by one goroutine and accessed by another: races possible.
    SharedModified,
}

/// `Copy`: stack and lockset are interner ids, so remembering the previous
/// access per variable moves two `u32`s instead of cloning frame vectors
/// and lock vectors on every event.
#[derive(Debug, Clone, Copy)]
struct LastAccess {
    gid: Gid,
    kind: AccessKind,
    stack: StackId,
    loc: SourceLoc,
    locks: LocksetId,
}

impl LastAccess {
    fn to_race_access(self, depot: &StackDepot, locksets: &LocksetInterner) -> RaceAccess {
        RaceAccess {
            gid: self.gid,
            kind: self.kind,
            stack: depot.resolve(self.stack),
            loc: self.loc,
            locks_held: locksets.get(self.locks).clone(),
        }
    }
}

#[derive(Debug)]
struct EraserVar {
    object: NameId,
    state: VarState,
    /// Candidate protecting set, refined through the interner's memoized
    /// intersection (a hash probe per access in steady state).
    candidate: LocksetId,
    last: LastAccess,
    reported: bool,
}

/// The Eraser monitor.
///
/// # Example
///
/// ```
/// use grs_detector::Eraser;
/// use grs_runtime::{Program, RunConfig, Runtime};
///
/// // Channel-synchronized program: race-free, but Eraser still flags it
/// // because no LOCK protects the variable (a false positive by design).
/// let p = Program::new("chan_synced", |ctx| {
///     let x = ctx.cell("x", 0i64);
///     let ch = ctx.chan::<()>("done", 0);
///     let (x2, tx) = (x.clone(), ch.clone());
///     ctx.go("writer", move |ctx| {
///         ctx.write(&x2, 1);
///         tx.send(ctx, ());
///     });
///     let _ = ch.recv(ctx);
///     let _ = ctx.read(&x);
/// });
/// let (_, er) = Runtime::new(RunConfig::with_seed(0)).run(&p, Eraser::new());
/// assert_eq!(er.reports().len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Eraser {
    /// Depot of the current run (attached by [`Monitor::on_run_start`]);
    /// used only to materialize reports' stacks and object names.
    depot: StackDepot,
    /// Interned locksets; candidates and last-access records are ids.
    locksets: LocksetInterner,
    /// Locks held per goroutine, in any mode.
    held: Vec<Lockset>,
    /// Locks held per goroutine in *write* (exclusive) mode. Eraser's
    /// read-write-lock refinement: a read-mode `RLock` admits concurrent
    /// readers, so it protects reads but not writes — a write access is
    /// refined against this set only (the Listing 11 `RLock`-write bug
    /// class would otherwise be invisible to locksets).
    write_held: Vec<Lockset>,
    /// Interned ids of the current `held` / `write_held` sets, refreshed on
    /// acquire/release so accesses copy `u32`s instead of cloning sets.
    held_ids: Vec<LocksetId>,
    write_held_ids: Vec<LocksetId>,
    /// Flat variable table indexed by the kernel's dense address ids.
    /// `None` slots are ids that name other object kinds (locks, channels)
    /// or simply haven't been accessed; `live_vars` counts the `Some`s so
    /// [`Monitor::shadow_words`] stays O(1).
    vars: Vec<Option<EraserVar>>,
    live_vars: usize,
    reports: Vec<RaceReport>,
}

impl Eraser {
    /// A fresh Eraser monitor.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The potential races reported so far.
    #[must_use]
    pub fn reports(&self) -> &[RaceReport] {
        &self.reports
    }

    /// Consumes the detector, returning its reports.
    #[must_use]
    pub fn into_reports(self) -> Vec<RaceReport> {
        self.reports
    }

    /// Clears all per-run state, keeping container allocations warm: the
    /// flat tables keep their capacity, and each goroutine's held-lock sets
    /// and the interned locksets are emptied in place rather than dropped.
    /// Called automatically at the start of every run.
    pub fn reset(&mut self) {
        self.held.iter_mut().for_each(Lockset::clear);
        self.write_held.iter_mut().for_each(Lockset::clear);
        self.held_ids.clear();
        self.write_held_ids.clear();
        self.vars.clear();
        self.live_vars = 0;
        self.reports.clear();
        self.locksets.reset();
    }

    fn ensure_gid(&mut self, gid: Gid) {
        let i = gid.index();
        while self.held_ids.len() <= i {
            // The sets outlive a reset (emptied in place), so they may
            // already cover this goroutine.
            if self.held.len() <= self.held_ids.len() {
                self.held.push(Lockset::new());
                self.write_held.push(Lockset::new());
            }
            self.held_ids.push(LocksetId::EMPTY);
            self.write_held_ids.push(LocksetId::EMPTY);
        }
    }

    fn on_access(
        &mut self,
        gid: Gid,
        addr: Addr,
        object: NameId,
        kind: AccessKind,
        stack: StackId,
        loc: SourceLoc,
    ) {
        self.ensure_gid(gid);
        let held = self.held_ids[gid.index()];
        // The locks that actually protect an access of `kind`: writes are
        // only protected by exclusive-mode locks, reads by any mode.
        let effective = if kind.is_write() {
            self.write_held_ids[gid.index()]
        } else {
            held
        };
        let current = LastAccess {
            gid,
            kind,
            stack,
            loc,
            locks: held,
        };
        let vi = addr.0 as usize;
        if self.vars.len() <= vi {
            self.vars.resize_with(vi + 1, || None);
        }
        match &mut self.vars[vi] {
            slot @ None => {
                *slot = Some(EraserVar {
                    object,
                    state: VarState::Exclusive(gid),
                    candidate: effective,
                    last: current,
                    reported: false,
                });
                self.live_vars += 1;
            }
            Some(var) => {
                let mut check = false;
                let prior = var.last;
                match var.state {
                    VarState::Exclusive(owner) if owner == gid => {
                        // Still exclusive; remember the most recent lockset
                        // but do not refine yet (classic Eraser).
                        var.candidate = effective;
                    }
                    VarState::Exclusive(_) => {
                        var.state = if kind.is_write() || var.last.kind.is_write() {
                            VarState::SharedModified
                        } else {
                            VarState::Shared
                        };
                        check = var.state == VarState::SharedModified;
                    }
                    VarState::Shared => {
                        if kind.is_write() {
                            var.state = VarState::SharedModified;
                            check = true;
                        }
                    }
                    VarState::SharedModified => {
                        check = true;
                    }
                }
                let refine = !matches!(var.state, VarState::Exclusive(_));
                var.last = current;
                let new_candidate = if refine {
                    self.locksets.intersect(var.candidate, effective)
                } else {
                    var.candidate
                };
                var.candidate = new_candidate;
                if check && new_candidate == LocksetId::EMPTY && !var.reported {
                    // Suppress pairs where both sides used sync/atomic.
                    if !(kind.is_atomic() && prior.kind.is_atomic()) {
                        var.reported = true;
                        let report = RaceReport {
                            addr,
                            object: self.depot.name(var.object),
                            prior: prior.to_race_access(&self.depot, &self.locksets),
                            current: current.to_race_access(&self.depot, &self.locksets),
                            detector: DetectorKind::Eraser,
                            program: None,
                            repro_seed: None,
                            repro: None,
                        };
                        self.reports.push(report);
                    }
                }
            }
        }
    }

    fn on_acquire(&mut self, gid: Gid, lock: u64, mode: LockMode) {
        self.ensure_gid(gid);
        let i = gid.index();
        self.held[i].insert(LockId::new(lock));
        self.held_ids[i] = self.locksets.intern(&self.held[i]);
        if mode == LockMode::Write {
            self.write_held[i].insert(LockId::new(lock));
            self.write_held_ids[i] = self.locksets.intern(&self.write_held[i]);
        }
    }

    fn on_release(&mut self, gid: Gid, lock: u64) {
        self.ensure_gid(gid);
        let i = gid.index();
        self.held[i].remove(LockId::new(lock));
        self.held_ids[i] = self.locksets.intern(&self.held[i]);
        if self.write_held[i].remove(LockId::new(lock)) {
            self.write_held_ids[i] = self.locksets.intern(&self.write_held[i]);
        }
    }
}

impl Monitor for Eraser {
    fn on_run_start(&mut self, depot: &StackDepot) {
        self.reset();
        self.depot = depot.clone();
    }

    /// Only access, acquire and release events reach Eraser's state
    /// machine.
    fn on_event(&mut self, event: &Event) {
        match event.kind {
            EventKind::Access {
                addr,
                object,
                kind,
                stack,
                loc,
            } => self.on_access(event.gid, addr, object, kind, stack, loc),
            EventKind::Acquire { lock, mode } => self.on_acquire(event.gid, lock.0, mode),
            EventKind::Release { lock, .. } => self.on_release(event.gid, lock.0),
            _ => {}
        }
    }

    fn shadow_words(&self) -> usize {
        // One candidate-set slot plus one last-access slot per tracked
        // variable — Eraser's shadow footprint is constant per variable.
        2 * self.live_vars
    }
}

impl Detector for Eraser {
    fn take_reports(&mut self) -> Vec<RaceReport> {
        std::mem::take(&mut self.reports)
    }
}
