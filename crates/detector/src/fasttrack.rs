//! The FastTrack happens-before race detector.
//!
//! FastTrack (Flanagan & Freund, PLDI 2009) is the happens-before component
//! of ThreadSanitizer: per-goroutine vector clocks advance at release
//! operations and join at acquire operations, and each shared variable
//! keeps a shadow of its last write (an [`Epoch`]) and its read history (an
//! epoch, inflated to a vector clock only while reads are concurrent).
//!
//! The [`FastTrackConfig`]'s `pure_vc` flag disables the epoch fast path and
//! keeps full vector clocks for every shadow slot — same verdicts, more
//! work — which the ablation benchmark uses to measure what the epoch
//! optimization buys (the original paper reports most accesses hit the
//! O(1) path).
//!
//! Happens-before edges follow the Go memory model as emitted by the
//! runtime: spawn, mutex/rwlock release→acquire, channel send→receive,
//! receive→send-completion (rendezvous/backpressure), close→recv-closed,
//! `WaitGroup` done→wait, `Once` execution→observation, and `sync/atomic`
//! release/acquire on the accessed address.
//!
//! # Flat shadow memory
//!
//! The runtime's kernel allocates every object id — addresses, locks,
//! channels, wait groups, once cells — from one dense per-run counter, so
//! all shadow tables here are flat `Vec`s indexed by the id itself instead
//! of `HashMap<u64, _>`s: a variable access costs one bounds-checked array
//! index, not a hash probe. The concurrent-read history is a tid-sorted
//! small vector, so iteration — and therefore report order — is ascending
//! by goroutine. Verdicts are held to [`crate::reference`], which shares
//! nothing with this module.

use std::sync::Arc;

use grs_clock::{Epoch, LockId, Lockset, LocksetId, LocksetInterner, Tid, VectorClock};
use grs_runtime::event::{Event, EventKind, LockMode};
use grs_runtime::trace::tag;
use grs_runtime::{
    AccessKind, Addr, DecodedTrace, Gid, Monitor, SourceLoc, StackDepot, StackId,
};

use crate::replay::Detector;
use crate::report::{DetectorKind, RaceAccess, RaceReport};

/// Configuration for [`FastTrack`].
#[derive(Debug, Clone)]
pub struct FastTrackConfig {
    /// Disable the epoch fast path; keep full vector clocks everywhere.
    pub pure_vc: bool,
    /// Track per-goroutine locksets and attach them to reports.
    pub track_locksets: bool,
    /// Stop recording after this many reports (guards memory on extremely
    /// racy programs; the paper's detector similarly caps per-run output).
    pub max_reports: usize,
    /// Label attached to the reports.
    pub kind: DetectorKind,
}

impl Default for FastTrackConfig {
    fn default() -> Self {
        FastTrackConfig {
            pure_vc: false,
            track_locksets: false,
            max_reports: 256,
            kind: DetectorKind::FastTrack,
        }
    }
}

impl FastTrackConfig {
    /// The pure-vector-clock ablation variant.
    #[must_use]
    pub fn pure_vc() -> Self {
        FastTrackConfig {
            pure_vc: true,
            kind: DetectorKind::PureVectorClock,
            ..FastTrackConfig::default()
        }
    }
}

/// One recorded access (for the "previous access" half of a report).
///
/// `Copy`: the stack is a depot id and the lockset an interner id, so
/// storing shadow history per variable moves two `u32`s instead of cloning
/// frame vectors — the heart of this detector's hot-path refactor.
#[derive(Debug, Clone, Copy)]
struct AccessInfo {
    gid: Gid,
    kind: AccessKind,
    stack: StackId,
    loc: SourceLoc,
    locks: LocksetId,
}

impl AccessInfo {
    /// Materializes the compact ids into a report half (report paths only).
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

/// One entry of the concurrent-read history: the reading goroutine, its
/// clock at the read, and the access metadata for reports.
#[derive(Debug, Clone, Copy)]
struct SharedRead {
    tid: u32,
    clk: u32,
    info: AccessInfo,
}

/// Read history of one variable.
#[derive(Debug)]
enum ReadState {
    /// No read yet.
    None,
    /// Totally ordered reads: the maximal one as an epoch.
    Exclusive(Epoch, AccessInfo),
    /// Concurrent reads: per-goroutine last-read clock (FastTrack's
    /// "read-shared" inflation), kept sorted by tid so iteration — and
    /// therefore report order — is deterministic without a sort per write.
    Shared(Vec<SharedRead>),
}

/// Inserts or replaces `tid`'s entry, keeping the vector sorted by tid.
fn shared_insert(reads: &mut Vec<SharedRead>, tid: u32, clk: u32, info: AccessInfo) {
    match reads.binary_search_by_key(&tid, |e| e.tid) {
        Ok(i) => reads[i] = SharedRead { tid, clk, info },
        Err(i) => reads.insert(i, SharedRead { tid, clk, info }),
    }
}

/// Shadow state of one variable — one fixed-size slot in the flat
/// variable table.
#[derive(Debug)]
struct VarShadow {
    /// Whether this slot has ever been touched by an access (the flat
    /// table also holds never-accessed slots for ids that name locks or
    /// channels; those don't count as shadow words).
    touched: bool,
    write_epoch: Epoch,
    /// Full clock of the writer at the last write (kept only in `pure_vc`
    /// mode, where it replaces the epoch comparison).
    write_clock: Option<VectorClock>,
    write_info: Option<AccessInfo>,
    read: ReadState,
    /// Release/acquire clock for `sync/atomic` operations on this address.
    sync_clock: VectorClock,
}

impl Default for VarShadow {
    fn default() -> Self {
        VarShadow {
            touched: false,
            write_epoch: Epoch::ZERO,
            write_clock: None,
            write_info: None,
            read: ReadState::None,
            sync_clock: VectorClock::new(),
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
    send_clocks: std::collections::HashMap<u64, VectorClock>,
    recv_clocks: std::collections::HashMap<u64, VectorClock>,
    close_clock: Option<VectorClock>,
}

/// Grows `v` with defaults so index `i` exists, then returns the slot.
#[inline]
fn slot<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if v.len() <= i {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

/// The FastTrack monitor. Create one per run and pass it to
/// [`grs_runtime::Runtime::run`]; collect [`FastTrack::reports`] afterwards.
///
/// # Example
///
/// ```
/// use grs_detector::FastTrack;
/// use grs_runtime::{Program, RunConfig, Runtime};
///
/// let racy = Program::new("unlocked", |ctx| {
///     let x = ctx.cell("x", 0i64);
///     let x2 = x.clone();
///     ctx.go("writer", move |ctx| ctx.write(&x2, 1));
///     ctx.sleep(2);
///     let _ = ctx.read(&x);
/// });
/// let mut any = false;
/// for seed in 0..20 {
///     let (_, ft) = Runtime::new(RunConfig::with_seed(seed)).run(&racy, FastTrack::new());
///     any |= !ft.reports().is_empty();
/// }
/// assert!(any, "some schedule must expose the race");
/// ```
#[derive(Debug)]
pub struct FastTrack {
    cfg: FastTrackConfig,
    /// Depot of the current run (attached by [`Monitor::on_run_start`]);
    /// used only to materialize reports.
    depot: StackDepot,
    /// Interned locksets; shadow history stores [`LocksetId`]s.
    locksets: LocksetInterner,
    clocks: Vec<VectorClock>,
    held: Vec<Lockset>,
    /// Interned id of each goroutine's current `held` set, refreshed on
    /// acquire/release so accesses copy a `u32`.
    held_ids: Vec<LocksetId>,
    /// Flat shadow tables indexed by the kernel's dense object ids.
    locks: Vec<LockShadow>,
    chans: Vec<ChanShadow>,
    wg_done: Vec<VectorClock>,
    once_done: Vec<VectorClock>,
    vars: Vec<VarShadow>,
    reports: Vec<RaceReport>,
    seen_sites: std::collections::HashSet<String>,
    /// Scratch buffer for the race pairs one access uncovers; a field so
    /// the hot path never constructs (or drops) a fresh `Vec` per event.
    /// Always left empty between accesses.
    found: Vec<(AccessInfo, AccessInfo)>,
    accesses_processed: u64,
    epoch_fast_hits: u64,
    /// Live shadow-word count (per-variable fixed slots + read history),
    /// maintained incrementally so [`Monitor::shadow_words`] is O(1).
    shadow_words: usize,
}

impl Default for FastTrack {
    fn default() -> Self {
        Self::new()
    }
}

impl FastTrack {
    /// A detector with the default (epoch-optimized) configuration.
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(FastTrackConfig::default())
    }

    /// A detector with an explicit configuration.
    #[must_use]
    pub fn with_config(cfg: FastTrackConfig) -> Self {
        FastTrack {
            cfg,
            depot: StackDepot::new(),
            locksets: LocksetInterner::new(),
            clocks: Vec::new(),
            held: Vec::new(),
            held_ids: Vec::new(),
            locks: Vec::new(),
            chans: Vec::new(),
            wg_done: Vec::new(),
            once_done: Vec::new(),
            vars: Vec::new(),
            reports: Vec::new(),
            seen_sites: std::collections::HashSet::new(),
            found: Vec::new(),
            accesses_processed: 0,
            epoch_fast_hits: 0,
            shadow_words: 0,
        }
    }

    /// The races detected so far.
    #[must_use]
    pub fn reports(&self) -> &[RaceReport] {
        &self.reports
    }

    /// Consumes the detector, returning its reports.
    #[must_use]
    pub fn into_reports(self) -> Vec<RaceReport> {
        self.reports
    }

    /// Clears all per-run state while keeping container allocations warm,
    /// so one detector can monitor thousands of campaign runs without
    /// reallocating its shadow tables. Called automatically at the start of
    /// every run (see [`Monitor::on_run_start`]).
    pub fn reset(&mut self) {
        self.clocks.clear();
        self.held.clear();
        self.held_ids.clear();
        self.locks.clear();
        self.chans.clear();
        self.wg_done.clear();
        self.once_done.clear();
        self.vars.clear();
        self.reports.clear();
        self.seen_sites.clear();
        self.accesses_processed = 0;
        self.epoch_fast_hits = 0;
        self.shadow_words = 0;
        self.locksets.reset();
    }

    /// Number of memory accesses processed.
    #[must_use]
    pub fn accesses_processed(&self) -> u64 {
        self.accesses_processed
    }

    /// How many accesses were resolved entirely on the O(1) epoch path —
    /// the statistic the FastTrack paper's speedup rests on.
    #[must_use]
    pub fn epoch_fast_hits(&self) -> u64 {
        self.epoch_fast_hits
    }

    fn clock_mut(&mut self, gid: Gid) -> &mut VectorClock {
        let i = gid.index();
        while self.clocks.len() <= i {
            let t = self.clocks.len() as u32;
            let mut c = VectorClock::new();
            c.set(Tid::new(t), 1);
            self.clocks.push(c);
            self.held.push(Lockset::new());
            self.held_ids.push(LocksetId::EMPTY);
        }
        &mut self.clocks[i]
    }

    #[inline]
    fn ensure_tid(&mut self, gid: Gid) {
        if self.clocks.len() <= gid.index() {
            let _ = self.clock_mut(gid);
        }
    }

    fn tick(&mut self, gid: Gid) {
        let t = Tid::new(gid.0);
        self.clock_mut(gid).tick(t);
    }

    #[cold]
    fn record(
        &mut self,
        addr: Addr,
        object: &Arc<str>,
        prior: AccessInfo,
        current: AccessInfo,
    ) {
        if self.reports.len() >= self.cfg.max_reports {
            return;
        }
        // Materialize stacks/locksets only now — reports are rare.
        let report = RaceReport {
            addr,
            object: object.clone(),
            prior: prior.to_race_access(&self.depot, &self.locksets),
            current: current.to_race_access(&self.depot, &self.locksets),
            detector: self.cfg.kind,
            program: None,
            repro_seed: None,
            repro: None,
        };
        if self.seen_sites.insert(report.site_key()) {
            self.reports.push(report);
        }
    }

    #[inline]
    fn on_access(
        &mut self,
        gid: Gid,
        addr: Addr,
        object: &Arc<str>,
        kind: AccessKind,
        stack: StackId,
        loc: SourceLoc,
    ) {
        self.ensure_tid(gid);
        self.accesses_processed += 1;
        let tid = Tid::new(gid.0);
        let gi = gid.index();
        let vi = addr.0 as usize;
        if self.vars.len() <= vi {
            self.vars.resize_with(vi + 1, VarShadow::default);
        }
        let locks = if self.cfg.track_locksets {
            self.held_ids[gi]
        } else {
            LocksetId::EMPTY
        };
        let info = AccessInfo {
            gid,
            kind,
            stack,
            loc,
            locks,
        };
        // Atomic acquire side: an atomic read (or RMW) joins the address's
        // sync clock *before* race checks, so atomic-synchronized plain
        // accesses are correctly ordered. (An untouched slot's sync clock
        // is empty — joining it is a no-op.)
        if kind.is_atomic() {
            let (clocks, vars) = (&mut self.clocks, &self.vars);
            clocks[gi].join(&vars[vi].sync_clock);
        }
        let pure_vc = self.cfg.pure_vc;
        let mut fast = true;
        let mut words_delta: isize = 0;
        {
            // Split field borrows: the goroutine's clock is read-only for
            // the whole check/update sequence, so it is never cloned, while
            // the variable slot is mutated in place.
            let (clocks, vars, found) = (&self.clocks, &mut self.vars, &mut self.found);
            let c = &clocks[gi];
            let var = &mut vars[vi];
            // Shadow accounting: +2 fixed words (write + sync slot) per
            // newly touched variable, plus the read-history delta below.
            if !var.touched {
                var.touched = true;
                words_delta = 2;
            }
            // --- race checks ---
            let write_hb = if pure_vc {
                fast = false;
                var.write_clock.as_ref().is_none_or(|wc| wc.le(c))
            } else {
                var.write_epoch.le_clock(c)
            };
            if !write_hb {
                if let Some(wi) = &var.write_info {
                    if !(kind.is_atomic() && wi.kind.is_atomic()) {
                        found.push((*wi, info));
                    }
                }
            }
            if kind.is_write() {
                match &var.read {
                    ReadState::None => {}
                    ReadState::Exclusive(e, ri) => {
                        let read_hb = if pure_vc {
                            e.to_clock().le(c)
                        } else {
                            e.le_clock(c)
                        };
                        if !(read_hb || (kind.is_atomic() && ri.kind.is_atomic())) {
                            found.push((*ri, info));
                        }
                    }
                    ReadState::Shared(reads) => {
                        fast = false;
                        // The vector is tid-sorted, and the walk must stay
                        // ascending: report order feeds dedup
                        // representatives and `max_reports` truncation.
                        for e in reads {
                            if e.clk > c.get(Tid::new(e.tid))
                                && !(kind.is_atomic() && e.info.kind.is_atomic())
                            {
                                found.push((e.info, info));
                            }
                        }
                    }
                }
            }
            // --- shadow updates ---
            if kind.is_write() {
                var.write_epoch = Epoch::new(tid, c.get(tid));
                if pure_vc {
                    match &mut var.write_clock {
                        Some(wc) => wc.clone_from(c),
                        None => var.write_clock = Some(c.clone()),
                    }
                }
                // In-place overwrite skips the enum's drop/re-tag dance on
                // the hottest store of the write path.
                match &mut var.write_info {
                    Some(wi) => *wi = info,
                    slot @ None => *slot = Some(info),
                }
                // Prune the read history this write re-exclusives: an entry
                // whose clock is dominated by the writer (`clk <= c[t2]`,
                // i.e. read happens-before this write) can never expose a
                // race this write itself wouldn't — any later access
                // unordered with the dropped read is also unordered with
                // the write (clocks transfer whole histories), so the race
                // still fires against `write_info`. Without this prune the
                // shared history retains one entry per goroutine that ever
                // read the variable, forever: the unbounded-shadow leak.
                if let ReadState::Shared(reads) = &mut var.read {
                    let before = reads.len();
                    reads.retain(|e| e.clk > c.get(Tid::new(e.tid)));
                    words_delta += reads.len() as isize - before as isize;
                    if reads.is_empty() {
                        var.read = ReadState::None;
                    }
                }
            } else {
                // Read: update the read history. Each arm tracks its exact
                // shadow-word delta in place — recounting the whole read
                // state before and after costs two extra matches per access
                // on the hot path.
                let my_clk = c.get(tid);
                if pure_vc {
                    let (before, reads) = match &mut var.read {
                        ReadState::Shared(reads) => (reads.len(), reads),
                        other => {
                            let was_exclusive = matches!(other, ReadState::Exclusive(..));
                            let mut reads = Vec::new();
                            if let ReadState::Exclusive(e, ri) = other {
                                reads.push(SharedRead {
                                    tid: e.tid().raw(),
                                    clk: e.clock(),
                                    info: *ri,
                                });
                            }
                            var.read = ReadState::Shared(reads);
                            match &mut var.read {
                                ReadState::Shared(reads) => {
                                    (usize::from(was_exclusive), reads)
                                }
                                _ => unreachable!("just assigned"),
                            }
                        }
                    };
                    shared_insert(reads, tid.raw(), my_clk, info);
                    words_delta += reads.len() as isize - before as isize;
                } else {
                    match &mut var.read {
                        ReadState::None => {
                            var.read = ReadState::Exclusive(Epoch::new(tid, my_clk), info);
                            words_delta += 1;
                        }
                        ReadState::Exclusive(e, ri) => {
                            if e.tid() == tid || e.le_clock(c) {
                                *e = Epoch::new(tid, my_clk);
                                *ri = info;
                            } else {
                                fast = false;
                                let mut reads = Vec::with_capacity(2);
                                if let ReadState::Exclusive(e, ri) = &var.read {
                                    reads.push(SharedRead {
                                        tid: e.tid().raw(),
                                        clk: e.clock(),
                                        info: *ri,
                                    });
                                }
                                shared_insert(&mut reads, tid.raw(), my_clk, info);
                                words_delta += reads.len() as isize - 1;
                                var.read = ReadState::Shared(reads);
                            }
                        }
                        ReadState::Shared(reads) => {
                            fast = false;
                            let before = reads.len();
                            shared_insert(reads, tid.raw(), my_clk, info);
                            words_delta += reads.len() as isize - before as isize;
                        }
                    }
                }
            }
            // Atomic release side: publish our clock to the address sync
            // clock (the tick advances after the borrow region ends).
            if kind == AccessKind::AtomicWrite {
                var.sync_clock.join(c);
            }
        }
        self.shadow_words = self
            .shadow_words
            .checked_add_signed(words_delta)
            .expect("shadow-word count underflow");
        if fast {
            self.epoch_fast_hits += 1;
        }
        if kind == AccessKind::AtomicWrite {
            self.tick(gid);
        }
        // Drain the scratch buffer by index (the pairs are `Copy`), leaving
        // it empty — and its allocation warm — for the next access.
        for i in 0..self.found.len() {
            let (prior, current) = self.found[i];
            self.record(addr, object, prior, current);
        }
        self.found.clear();
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

    // --- per-kind synchronization primitives -----------------------------
    //
    // `on_sync` (the scalar path) and the batch replay loop both dispatch
    // to these, so the happens-before semantics live in exactly one place.

    fn sync_spawn(&mut self, gid: Gid, child: Gid) {
        self.ensure_tid(gid);
        self.ensure_tid(child);
        self.join_clocks(child.index(), gid.index());
        self.tick(child);
        self.tick(gid);
    }

    fn sync_acquire(&mut self, gid: Gid, lock: u64, mode: LockMode) {
        self.ensure_tid(gid);
        let gi = gid.index();
        let li = lock as usize;
        let _ = slot(&mut self.locks, li);
        {
            let (clocks, locks) = (&mut self.clocks, &self.locks);
            let shadow = &locks[li];
            // join(a); join(b) ≡ join(a ⊔ b): pointwise max is associative,
            // so two joins in place need no temporary clock.
            clocks[gi].join(&shadow.write_release);
            if mode == LockMode::Write {
                clocks[gi].join(&shadow.read_release);
            }
        }
        if self.cfg.track_locksets {
            self.held[gi].insert(LockId::new(lock));
            self.held_ids[gi] = self.locksets.intern(&self.held[gi]);
        }
    }

    fn sync_release(&mut self, gid: Gid, lock: u64, mode: LockMode) {
        self.ensure_tid(gid);
        let gi = gid.index();
        let li = lock as usize;
        let _ = slot(&mut self.locks, li);
        {
            let (clocks, locks) = (&self.clocks, &mut self.locks);
            let shadow = &mut locks[li];
            match mode {
                LockMode::Write => shadow.write_release.clone_from(&clocks[gi]),
                LockMode::Read => shadow.read_release.join(&clocks[gi]),
            }
        }
        self.tick(gid);
        if self.cfg.track_locksets {
            self.held[gi].remove(LockId::new(lock));
            self.held_ids[gi] = self.locksets.intern(&self.held[gi]);
        }
    }

    fn chan_send(&mut self, gid: Gid, chan: u64, seq: u64) {
        self.ensure_tid(gid);
        let c = self.clocks[gid.index()].clone();
        slot(&mut self.chans, chan as usize)
            .send_clocks
            .insert(seq, c);
        self.tick(gid);
    }

    fn chan_recv(&mut self, gid: Gid, chan: u64, seq: u64) {
        self.ensure_tid(gid);
        let sent = slot(&mut self.chans, chan as usize)
            .send_clocks
            .remove(&seq);
        if let Some(sc) = sent {
            self.clocks[gid.index()].join(&sc);
        }
        let c = self.clocks[gid.index()].clone();
        self.chans[chan as usize].recv_clocks.insert(seq, c);
        self.tick(gid);
    }

    fn chan_send_complete(&mut self, gid: Gid, chan: u64, seq: u64, cap: u64) {
        self.ensure_tid(gid);
        let target = if cap == 0 { Some(seq) } else { seq.checked_sub(cap) };
        if let Some(t) = target {
            let rc = slot(&mut self.chans, chan as usize).recv_clocks.remove(&t);
            if let Some(rc) = rc {
                self.clocks[gid.index()].join(&rc);
            }
        }
    }

    fn chan_close(&mut self, gid: Gid, chan: u64) {
        self.ensure_tid(gid);
        let c = self.clocks[gid.index()].clone();
        slot(&mut self.chans, chan as usize).close_clock = Some(c);
        self.tick(gid);
    }

    fn chan_recv_closed(&mut self, gid: Gid, chan: u64) {
        self.ensure_tid(gid);
        let ci = chan as usize;
        if ci < self.chans.len() {
            let (clocks, chans) = (&mut self.clocks, &self.chans);
            if let Some(cc) = &chans[ci].close_clock {
                clocks[gid.index()].join(cc);
            }
        }
    }

    fn wg_add(&mut self, gid: Gid, wg: u64, delta: i64) {
        if delta < 0 {
            self.ensure_tid(gid);
            let _ = slot(&mut self.wg_done, wg as usize);
            let (clocks, wg_done) = (&self.clocks, &mut self.wg_done);
            wg_done[wg as usize].join(&clocks[gid.index()]);
            self.tick(gid);
        }
    }

    fn wg_wait(&mut self, gid: Gid, wg: u64) {
        self.ensure_tid(gid);
        let wi = wg as usize;
        if wi < self.wg_done.len() {
            let (clocks, wg_done) = (&mut self.clocks, &self.wg_done);
            clocks[gid.index()].join(&wg_done[wi]);
        }
    }

    fn once_executed(&mut self, gid: Gid, once: u64) {
        self.ensure_tid(gid);
        let _ = slot(&mut self.once_done, once as usize);
        let (clocks, once_done) = (&self.clocks, &mut self.once_done);
        once_done[once as usize].clone_from(&clocks[gid.index()]);
        self.tick(gid);
    }

    fn once_observed(&mut self, gid: Gid, once: u64) {
        self.ensure_tid(gid);
        let oi = once as usize;
        if oi < self.once_done.len() {
            let (clocks, once_done) = (&mut self.clocks, &self.once_done);
            clocks[gid.index()].join(&once_done[oi]);
        }
    }

    fn on_sync(&mut self, ev: &Event) {
        let gid = ev.gid;
        match &ev.kind {
            EventKind::Spawn { child, .. } => self.sync_spawn(gid, *child),
            EventKind::Acquire { lock, mode } => self.sync_acquire(gid, lock.0, *mode),
            EventKind::Release { lock, mode } => self.sync_release(gid, lock.0, *mode),
            EventKind::ChanSend { chan, seq } => self.chan_send(gid, chan.0, *seq),
            EventKind::ChanRecv { chan, seq } => self.chan_recv(gid, chan.0, *seq),
            EventKind::ChanSendComplete { chan, seq, cap } => {
                self.chan_send_complete(gid, chan.0, *seq, *cap as u64);
            }
            EventKind::ChanClose { chan } => self.chan_close(gid, chan.0),
            EventKind::ChanRecvClosed { chan } => self.chan_recv_closed(gid, chan.0),
            EventKind::WgAdd { wg, delta, .. } => self.wg_add(gid, wg.0, *delta),
            EventKind::WgWait { wg } => self.wg_wait(gid, wg.0),
            EventKind::OnceExecuted { once } => self.once_executed(gid, once.0),
            EventKind::OnceObserved { once } => self.once_observed(gid, once.0),
            EventKind::GoroutineEnd | EventKind::Access { .. } => {
                self.ensure_tid(gid);
            }
        }
    }

    /// The batch replay hot loop: drives the whole decoded event stream
    /// through the detector, dispatching on raw tag bytes over the SoA
    /// lanes — no `Event` materialization, no `Arc` clones. Returns the
    /// peak shadow-word count observed after each event (the same sampling
    /// the scalar replay driver performs).
    pub(crate) fn replay_decoded_core(&mut self, decoded: &DecodedTrace) -> usize {
        let b = &decoded.batch;
        let n = b.len();
        // Hoist every lane into a local slice: `on_access` is an opaque
        // call, so indexing through `b` directly would reload each Vec's
        // pointer and length from memory on every iteration.
        let tags = &b.tags[..n];
        let gids = &b.gids[..n];
        let prims = &b.prims[..n];
        let args_a = &b.args_a[..n];
        let args_b = &b.args_b[..n];
        let access_kinds = &b.access_kinds[..n];
        let lock_modes = &b.lock_modes[..n];
        let stacks = &b.stacks[..n];
        let objects = &b.objects[..n];
        let files = &b.files[..n];
        let lines = &b.lines[..n];
        let file_table = decoded.files.as_slice();
        let string_table = decoded.strings.as_slice();
        let mut peak = 0usize;
        for i in 0..n {
            let gid = Gid(gids[i]);
            match tags[i] {
                tag::ACCESS => {
                    let loc = SourceLoc {
                        file: file_table[files[i] as usize],
                        line: lines[i],
                    };
                    self.on_access(
                        gid,
                        Addr(prims[i]),
                        &string_table[objects[i] as usize],
                        access_kinds[i],
                        StackId(stacks[i]),
                        loc,
                    );
                    // Shadow words only change on access events, so the
                    // peak needs sampling only here, not per event.
                    peak = peak.max(self.shadow_words);
                }
                tag::SPAWN => self.sync_spawn(gid, Gid(prims[i] as u32)),
                tag::GOROUTINE_END => self.ensure_tid(gid),
                tag::ACQUIRE => self.sync_acquire(gid, prims[i], lock_modes[i]),
                tag::RELEASE => self.sync_release(gid, prims[i], lock_modes[i]),
                tag::CHAN_SEND => self.chan_send(gid, prims[i], args_a[i]),
                tag::CHAN_SEND_COMPLETE => {
                    self.chan_send_complete(gid, prims[i], args_a[i], args_b[i]);
                }
                tag::CHAN_RECV => self.chan_recv(gid, prims[i], args_a[i]),
                tag::CHAN_RECV_CLOSED => self.chan_recv_closed(gid, prims[i]),
                tag::CHAN_CLOSE => self.chan_close(gid, prims[i]),
                tag::WG_ADD => self.wg_add(gid, prims[i], args_a[i] as i64),
                tag::WG_WAIT => self.wg_wait(gid, prims[i]),
                tag::ONCE_EXECUTED => self.once_executed(gid, prims[i]),
                tag::ONCE_OBSERVED => self.once_observed(gid, prims[i]),
                tag => unreachable!("tag {tag} was validated during decode"),
            }
        }
        peak
    }
}

impl Monitor for FastTrack {
    fn on_run_start(&mut self, depot: &StackDepot) {
        // A fresh run: drop any previous run's shadow state (allocations
        // stay warm) and attach the run's depot for report materialization.
        self.reset();
        self.depot = depot.clone();
    }

    fn on_event(&mut self, event: &Event) {
        if let EventKind::Access {
            addr,
            object,
            kind,
            stack,
            loc,
        } = &event.kind
        {
            self.on_access(event.gid, *addr, object, *kind, *stack, *loc);
        } else {
            self.on_sync(event);
        }
    }

    fn shadow_words(&self) -> usize {
        self.shadow_words
    }
}

impl Detector for FastTrack {
    fn take_reports(&mut self) -> Vec<RaceReport> {
        std::mem::take(&mut self.reports)
    }

    fn replay_decoded_events(&mut self, decoded: &DecodedTrace) -> usize {
        self.replay_decoded_core(decoded)
    }
}
