//! The happens-before engine the vector-clock detectors share.
//!
//! Go's memory model orders a program's accesses by one relation over its
//! synchronisation events (Fava & Steffen, "Ready, set, Go!"), whatever a
//! detector then does with a variable's shadow. [`HbClocks`] is that
//! relation as vector clocks, following the edges the runtime emits:
//! spawn, mutex/rwlock release→acquire, channel send→receive,
//! receive→send-completion (rendezvous/backpressure), close→recv-closed,
//! `WaitGroup` done→wait, `Once` execution→observation, and `sync/atomic`
//! release/acquire on the accessed address.
//!
//! One execution advances one `HbClocks`, however many of FastTrack,
//! pure-VC and the hybrid read it (each keeps only its variable shadow,
//! [`crate::fasttrack`]). An event is applied in two steps around their
//! shadow checks, so an atomic access acquires before it is checked and
//! releases after: [`HbClocks::before`] applies a synchronisation event
//! whole, or an atomic access's acquire join; [`HbClocks::after`] applies
//! an `AtomicWrite`'s release join and tick. Like the shadows, every table
//! is a flat `Vec` indexed by the kernel's dense object ids.

use grs_clock::{Tid, VectorClock};
use grs_obs::hash::FnvMap;
use grs_runtime::event::{Event, EventKind, LockMode};
use grs_runtime::{AccessKind, Addr, Gid};

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
    pub(crate) fn reset(&mut self) {
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
    pub(crate) fn before(&mut self, event: &Event) {
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
    pub(crate) fn after(&mut self, event: &Event) {
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
