//! The execution's shared state: what its detectors read about it, kept
//! once however many of them watch it.
//!
//! Go's memory model orders a program's accesses by one relation over its
//! synchronisation events (Fava & Steffen, "Ready, set, Go!"), and the
//! same events say which locks each goroutine holds. [`HbClocks`] is that
//! relation as vector clocks, following the edges the runtime emits:
//! spawn, mutex/rwlock release→acquire, channel send→receive,
//! receive→send-completion (rendezvous/backpressure), close→recv-closed,
//! `WaitGroup` done→wait, `Once` execution→observation, and `sync/atomic`
//! release/acquire on the accessed address.
//!
//! One execution advances one [`Execution`]: the clocks, the locks each
//! goroutine holds, one lockset interner for those and for every lockset
//! a shadow keeps (access records' locks, Eraser's candidates), and the
//! depot. A detector is only its variable shadow ([`crate::fasttrack`],
//! [`crate::eraser`]), reading this state. An event is applied in two
//! steps around the shadows' checks, so an atomic access acquires before
//! it is checked and releases after: [`Execution::before`] applies a
//! synchronisation event whole, or an atomic access's acquire join;
//! [`Execution::after`] applies an `AtomicWrite`'s release join and tick.
//! Like the shadows, every table is a flat `Vec` indexed by the kernel's
//! dense object ids.

use grs_clock::{LockId, Lockset, LocksetId, LocksetInterner, Tid, VectorClock};
use grs_obs::hash::FnvMap;
use grs_runtime::event::{Event, EventKind, LockMode};
use grs_runtime::{AccessKind, Addr, Gid, StackDepot};

use crate::report::DetectorKind;

/// What an execution's detectors read about it, advanced once per event
/// for all of them.
#[derive(Debug, Default)]
pub(crate) struct Execution {
    /// Whether a watcher reads the clocks, the held locks, and the locks
    /// held in write mode: each is advanced only then
    /// ([`Execution::watched_by`]).
    tracks_clocks: bool,
    tracks_locks: bool,
    tracks_write_locks: bool,
    pub(crate) clocks: HbClocks,
    /// The locks each goroutine holds, by goroutine index; a goroutine
    /// past the end holds none.
    held: Vec<HeldLocks>,
    /// The set an acquire or release edits before it is interned.
    scratch: Lockset,
    /// The interner of every lockset of the run.
    pub(crate) locksets: LocksetInterner,
    /// The run's depot: the texts of object names, for the rare race site
    /// only a name's text tells apart, and of the stacks reports resolve.
    pub(crate) depot: StackDepot,
}

/// The locks one goroutine holds, as interned ids.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct HeldLocks {
    /// In any mode: the locks that protect a read.
    pub(crate) any: LocksetId,
    /// In write mode: the locks that protect a write, since a read-mode
    /// `RLock` admits concurrent readers. Kept only while Eraser watches;
    /// empty otherwise.
    pub(crate) write: LocksetId,
}

impl Execution {
    /// Advances, from the next run on, what detectors of `kinds` read:
    /// the clocks, which every happens-before detector reads, the held
    /// locks, which Eraser and the hybrid read, and those held in write
    /// mode, which only Eraser reads.
    pub(crate) fn watched_by(&mut self, kinds: impl IntoIterator<Item = DetectorKind>) {
        (self.tracks_clocks, self.tracks_locks) = (false, false);
        self.tracks_write_locks = false;
        for kind in kinds {
            self.tracks_clocks |= kind != DetectorKind::Eraser;
            self.tracks_locks |= matches!(kind, DetectorKind::Eraser | DetectorKind::Tsan);
            self.tracks_write_locks |= kind == DetectorKind::Eraser;
        }
    }

    /// Forgets the last run, keeping every table's allocations, and
    /// attaches the new run's depot.
    pub(crate) fn on_run_start(&mut self, depot: &StackDepot) {
        self.clocks.reset();
        self.held.clear();
        self.locksets.reset();
        self.depot.clone_from(depot);
    }

    /// The first step of `event`, before any shadow checks it: the clocks'
    /// ([`HbClocks::before`]), and a lock acquire or release.
    #[inline]
    pub(crate) fn before(&mut self, event: &Event) {
        if self.tracks_clocks {
            self.clocks.before(event);
        }
        if self.tracks_locks {
            match event.kind {
                EventKind::Acquire { lock, mode } => self.acquire(event.gid, lock.0, mode),
                EventKind::Release { lock, .. } => self.release(event.gid, lock.0),
                _ => {}
            }
        }
    }

    /// The second step of `event`, after every shadow checked it.
    #[inline]
    pub(crate) fn after(&mut self, event: &Event) {
        if self.tracks_clocks {
            self.clocks.after(event);
        }
    }

    /// The locks `gid` holds.
    #[inline]
    pub(crate) fn held(&self, gid: Gid) -> HeldLocks {
        self.held.get(gid.index()).copied().unwrap_or_default()
    }

    fn acquire(&mut self, gid: Gid, lock: u64, mode: LockMode) {
        let mut held = self.held(gid);
        held.any = self.edit(held.any, |set| set.insert(LockId::new(lock)));
        if mode == LockMode::Write && self.tracks_write_locks {
            held.write = self.edit(held.write, |set| set.insert(LockId::new(lock)));
        }
        *slot(&mut self.held, gid.index()) = held;
    }

    fn release(&mut self, gid: Gid, lock: u64) {
        let mut held = self.held(gid);
        held.any = self.edit(held.any, |set| set.remove(LockId::new(lock)));
        if self.tracks_write_locks {
            held.write = self.edit(held.write, |set| set.remove(LockId::new(lock)));
        }
        *slot(&mut self.held, gid.index()) = held;
    }

    /// The id of the set `id` names after `change`, which says whether it
    /// changed it.
    fn edit(&mut self, id: LocksetId, change: impl FnOnce(&mut Lockset) -> bool) -> LocksetId {
        self.scratch.clone_from(self.locksets.get(id));
        if change(&mut self.scratch) {
            self.locksets.intern(&self.scratch)
        } else {
            id
        }
    }
}

#[derive(Debug, Default)]
struct LockShadow {
    write_release: VectorClock,
    read_release: VectorClock,
}

#[derive(Debug, Default)]
struct ChanShadow {
    /// In-flight send clocks by send sequence number. Entries are removed
    /// when matched, so these maps stay as small as the channel's buffer.
    send_clocks: FnvMap<u64, VectorClock>,
    recv_clocks: FnvMap<u64, VectorClock>,
    close_clock: Option<VectorClock>,
}

impl ChanShadow {
    /// Forgets the run's clocks, keeping both maps' tables.
    fn clear(&mut self) {
        self.send_clocks.clear();
        self.recv_clocks.clear();
        self.close_clock = None;
    }
}

/// Grows `v` with defaults so index `i` exists, then returns the slot.
#[inline]
fn slot<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if v.len() <= i {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

/// The vector clocks of one execution: every goroutine's, and every
/// synchronisation object's.
#[derive(Debug, Default)]
pub(crate) struct HbClocks {
    clocks: Vec<VectorClock>,
    locks: Vec<LockShadow>,
    chans: Vec<ChanShadow>,
    wg_done: Vec<VectorClock>,
    once_done: Vec<VectorClock>,
    /// Release/acquire clock of each address `sync/atomic` wrote.
    atomics: Vec<VectorClock>,
}

impl HbClocks {
    /// Forgets the run, keeping the flat tables' capacity and each
    /// channel's clock maps.
    fn reset(&mut self) {
        self.clocks.clear();
        self.locks.clear();
        self.chans.iter_mut().for_each(ChanShadow::clear);
        self.wg_done.clear();
        self.once_done.clear();
        self.atomics.clear();
    }

    /// `gid`'s current clock. Defined for the goroutine of every event
    /// [`HbClocks::before`] has taken.
    #[inline]
    pub(crate) fn clock(&self, gid: Gid) -> &VectorClock {
        &self.clocks[gid.index()]
    }

    /// The first step of `event`: all of a synchronisation event, or an
    /// atomic access's acquire join, which must order the access before
    /// it is checked.
    #[inline]
    fn before(&mut self, event: &Event) {
        let gid = event.gid;
        self.ensure_tid(gid);
        match event.kind {
            EventKind::Access { addr, kind, .. } => {
                if kind.is_atomic() {
                    self.atomic_acquire(gid, addr);
                }
            }
            EventKind::Spawn { child, .. } => self.sync_spawn(gid, child),
            EventKind::Acquire { lock, mode } => self.sync_acquire(gid, lock.0, mode),
            EventKind::Release { lock, mode } => self.sync_release(gid, lock.0, mode),
            EventKind::ChanSend { chan, seq } => self.chan_send(gid, chan.0, seq),
            EventKind::ChanRecv { chan, seq } => self.chan_recv(gid, chan.0, seq),
            EventKind::ChanSendComplete { chan, seq, cap } => {
                self.chan_send_complete(gid, chan.0, seq, cap as u64);
            }
            EventKind::ChanClose { chan } => self.chan_close(gid, chan.0),
            EventKind::ChanRecvClosed { chan } => self.chan_recv_closed(gid, chan.0),
            EventKind::WgAdd { wg, delta, .. } => self.wg_add(gid, wg.0, delta),
            EventKind::WgWait { wg } => self.wg_wait(gid, wg.0),
            EventKind::OnceExecuted { once } => self.once_executed(gid, once.0),
            EventKind::OnceObserved { once } => self.once_observed(gid, once.0),
            EventKind::GoroutineEnd => {}
        }
    }

    /// The second step of `event`: an `AtomicWrite` publishes the writer's
    /// clock to its address, after the access was checked, and ticks.
    #[inline]
    fn after(&mut self, event: &Event) {
        if let EventKind::Access {
            addr,
            kind: AccessKind::AtomicWrite,
            ..
        } = event.kind
        {
            self.atomic_release(event.gid, addr);
        }
    }

    /// Gives every goroutine up to `gid` its initial clock, `1@g`.
    #[inline]
    fn ensure_tid(&mut self, gid: Gid) {
        while self.clocks.len() <= gid.index() {
            let mut c = VectorClock::new();
            c.set(Tid::new(self.clocks.len() as u32), 1);
            self.clocks.push(c);
        }
    }

    fn tick(&mut self, gid: Gid) {
        self.clocks[gid.index()].tick(Tid::new(gid.0));
    }

    /// Joins `self.clocks[src]` into `self.clocks[dst]` (distinct indices).
    fn join_clocks(&mut self, dst: usize, src: usize) {
        debug_assert_ne!(dst, src);
        if dst < src {
            let (lo, hi) = self.clocks.split_at_mut(src);
            lo[dst].join(&hi[0]);
        } else {
            let (lo, hi) = self.clocks.split_at_mut(dst);
            hi[0].join(&lo[src]);
        }
    }

    // --- per-kind synchronization rules, dispatched by `before`/`after` ---

    /// An atomic read (or read-modify-write) joins its address's clock, so
    /// plain accesses that atomics order are not reported. An address no
    /// atomic wrote has no clock: nothing to join.
    fn atomic_acquire(&mut self, gid: Gid, addr: Addr) {
        if let Some(sync) = self.atomics.get(addr.0 as usize) {
            self.clocks[gid.index()].join(sync);
        }
    }

    fn atomic_release(&mut self, gid: Gid, addr: Addr) {
        slot(&mut self.atomics, addr.0 as usize).join(&self.clocks[gid.index()]);
        self.tick(gid);
    }

    fn sync_spawn(&mut self, gid: Gid, child: Gid) {
        self.ensure_tid(child);
        self.join_clocks(child.index(), gid.index());
        self.tick(child);
        self.tick(gid);
    }

    fn sync_acquire(&mut self, gid: Gid, lock: u64, mode: LockMode) {
        let gi = gid.index();
        let shadow = slot(&mut self.locks, lock as usize);
        // join(a); join(b) ≡ join(a ⊔ b): pointwise max is associative,
        // so two joins in place need no temporary clock.
        self.clocks[gi].join(&shadow.write_release);
        if mode == LockMode::Write {
            self.clocks[gi].join(&shadow.read_release);
        }
    }

    fn sync_release(&mut self, gid: Gid, lock: u64, mode: LockMode) {
        let c = &self.clocks[gid.index()];
        let shadow = slot(&mut self.locks, lock as usize);
        match mode {
            LockMode::Write => shadow.write_release.clone_from(c),
            LockMode::Read => shadow.read_release.join(c),
        }
        self.tick(gid);
    }

    fn chan_send(&mut self, gid: Gid, chan: u64, seq: u64) {
        let c = self.clocks[gid.index()].clone();
        slot(&mut self.chans, chan as usize)
            .send_clocks
            .insert(seq, c);
        self.tick(gid);
    }

    fn chan_recv(&mut self, gid: Gid, chan: u64, seq: u64) {
        let shadow = slot(&mut self.chans, chan as usize);
        let c = &mut self.clocks[gid.index()];
        if let Some(sc) = shadow.send_clocks.remove(&seq) {
            c.join(&sc);
        }
        shadow.recv_clocks.insert(seq, c.clone());
        self.tick(gid);
    }

    fn chan_send_complete(&mut self, gid: Gid, chan: u64, seq: u64, cap: u64) {
        let target = if cap == 0 {
            Some(seq)
        } else {
            seq.checked_sub(cap)
        };
        if let Some(t) = target {
            let rc = slot(&mut self.chans, chan as usize).recv_clocks.remove(&t);
            if let Some(rc) = rc {
                self.clocks[gid.index()].join(&rc);
            }
        }
    }

    fn chan_close(&mut self, gid: Gid, chan: u64) {
        let c = self.clocks[gid.index()].clone();
        slot(&mut self.chans, chan as usize).close_clock = Some(c);
        self.tick(gid);
    }

    fn chan_recv_closed(&mut self, gid: Gid, chan: u64) {
        let closed = self
            .chans
            .get(chan as usize)
            .and_then(|c| c.close_clock.as_ref());
        if let Some(cc) = closed {
            self.clocks[gid.index()].join(cc);
        }
    }

    fn wg_add(&mut self, gid: Gid, wg: u64, delta: i64) {
        if delta < 0 {
            slot(&mut self.wg_done, wg as usize).join(&self.clocks[gid.index()]);
            self.tick(gid);
        }
    }

    fn wg_wait(&mut self, gid: Gid, wg: u64) {
        if let Some(done) = self.wg_done.get(wg as usize) {
            self.clocks[gid.index()].join(done);
        }
    }

    fn once_executed(&mut self, gid: Gid, once: u64) {
        slot(&mut self.once_done, once as usize).clone_from(&self.clocks[gid.index()]);
        self.tick(gid);
    }

    fn once_observed(&mut self, gid: Gid, once: u64) {
        if let Some(done) = self.once_done.get(once as usize) {
            self.clocks[gid.index()].join(done);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grs_runtime::LockUid;

    /// Two goroutines each take a mutex in write mode and an rwlock in
    /// read mode, nested, and release both; `observe` sees every
    /// goroutine's held sets after each event.
    fn lock_pairs(kinds: &[DetectorKind], mut observe: impl FnMut(Gid, HeldLocks)) {
        let mut exec = Execution::default();
        exec.watched_by(kinds.iter().copied());
        exec.on_run_start(&StackDepot::new());
        let (mu, rw) = (LockUid(1), LockUid(2));
        let mut step = 0;
        for g in [Gid(0), Gid(1)] {
            for kind in [
                EventKind::Acquire {
                    lock: mu,
                    mode: LockMode::Write,
                },
                EventKind::Acquire {
                    lock: rw,
                    mode: LockMode::Read,
                },
                EventKind::Release {
                    lock: rw,
                    mode: LockMode::Read,
                },
                EventKind::Release {
                    lock: mu,
                    mode: LockMode::Write,
                },
            ] {
                let event = Event { step, gid: g, kind };
                step += 1;
                exec.before(&event);
                exec.after(&event);
                for other in [Gid(0), Gid(1)] {
                    observe(other, exec.held(other));
                }
            }
        }
    }

    #[test]
    fn the_write_mode_set_is_kept_only_while_eraser_watches() {
        for kinds in [
            &[DetectorKind::Tsan][..],
            &[DetectorKind::Tsan, DetectorKind::FastTrack],
        ] {
            let mut held_any = false;
            lock_pairs(kinds, |gid, held| {
                assert_eq!(held.write, LocksetId::EMPTY, "{kinds:?}: {gid:?}");
                held_any |= held.any != LocksetId::EMPTY;
            });
            assert!(held_any, "{kinds:?}: the hybrid's held set is kept");
        }
        for kinds in [
            &[DetectorKind::Eraser][..],
            &[DetectorKind::Tsan, DetectorKind::Eraser],
        ] {
            let mut held_write = false;
            lock_pairs(kinds, |_, held| {
                held_write |= held.write != LocksetId::EMPTY
            });
            assert!(held_write, "{kinds:?}: Eraser's write-mode set is kept");
        }
    }
}
