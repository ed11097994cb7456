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
//! Eraser is only its variable shadow, a flat `Vec<Option<EraserVar>>`
//! indexed by the kernel's dense address ids (see the module docs of
//! [`crate::fasttrack`]). The locks each goroutine holds, and the interner
//! its candidates are intersected in, are the execution's shared state
//! (`crate::hb`), which the hybrid reads too. A lockset verdict is not a
//! happens-before verdict, so the one fact [`crate::reference`] holds this
//! detector to is lock discipline: an address some lock covers at every
//! access is never reported.

use grs_clock::LocksetId;
use grs_runtime::event::Event;
use grs_runtime::{Gid, NameId};

use crate::hb::Execution;
use crate::report::{AccessRecord, Race};

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

#[derive(Debug)]
struct EraserVar {
    object: NameId,
    state: VarState,
    /// Candidate protecting set, refined through the interner's memoized
    /// intersection (a hash probe per access in steady state).
    candidate: LocksetId,
    /// The previous access: a `Copy` record of ids, so remembering it
    /// moves a few words instead of cloning frames and lock vectors.
    last: AccessRecord,
    reported: bool,
}

/// Eraser: its variable shadow and the races kept. It reads the
/// execution's held locks on every access, and interns its candidate sets
/// in the execution's interner.
#[derive(Debug, Default)]
pub(crate) struct LocksetShadow {
    /// Flat variable table indexed by the kernel's dense address ids.
    /// `None` slots are ids that name other object kinds (locks, channels)
    /// or simply haven't been accessed; `live_vars` counts the `Some`s so
    /// the peak shadow words stay O(1).
    vars: Vec<Option<EraserVar>>,
    live_vars: usize,
    /// The races found this run, as ids, in detection order.
    races: Vec<Race>,
}

impl LocksetShadow {
    /// Clears all per-run state, keeping the flat table's capacity.
    pub(crate) fn reset(&mut self) {
        self.vars.clear();
        self.live_vars = 0;
        self.races.clear();
    }

    /// The races found this run, in detection order.
    pub(crate) fn races(&self) -> &[Race] {
        &self.races
    }

    /// One candidate-set slot plus one last-access slot per tracked
    /// variable — Eraser's shadow footprint is constant per variable. A
    /// variable is never untracked within a run, so the count is its own
    /// peak.
    pub(crate) fn peak_words(&self) -> usize {
        2 * self.live_vars
    }

    /// Checks and records an access against the locks its goroutine holds
    /// in `exec`. Only accesses reach Eraser's state machine: the held
    /// locks are the shared state's.
    pub(crate) fn on_event(&mut self, exec: &mut Execution, event: &Event) {
        let Some((addr, object, mut current)) = AccessRecord::of(event) else {
            return;
        };
        let (gid, kind) = (current.gid, current.kind);
        let held = exec.held(gid);
        current.locks = held.any;
        // The locks that actually protect an access of `kind`: writes are
        // only protected by write-mode locks (Eraser's read-write-lock
        // refinement, without which the Listing 11 `RLock`-write bug class
        // would be invisible to locksets), reads by any mode.
        let effective = if kind.is_write() {
            held.write
        } else {
            held.any
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
                let prior = var.last;
                var.last = current;
                var.state = match var.state {
                    VarState::Exclusive(owner) if owner == gid => var.state,
                    VarState::Exclusive(_) if !kind.is_write() && !prior.kind.is_write() => {
                        VarState::Shared
                    }
                    VarState::Shared if !kind.is_write() => VarState::Shared,
                    _ => VarState::SharedModified,
                };
                // While exclusive, remember the most recent lockset but do
                // not refine yet (classic Eraser).
                var.candidate = match var.state {
                    VarState::Exclusive(_) => effective,
                    _ => exec.locksets.intersect(var.candidate, effective),
                };
                // Pairs where both sides used sync/atomic are not reported.
                if var.state == VarState::SharedModified
                    && var.candidate == LocksetId::EMPTY
                    && !var.reported
                    && !(kind.is_atomic() && prior.kind.is_atomic())
                {
                    var.reported = true;
                    self.races.push(Race {
                        addr,
                        object: var.object,
                        prior,
                        current,
                    });
                }
            }
        }
    }
}
