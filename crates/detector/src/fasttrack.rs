//! The FastTrack happens-before race detector, its pure-vector-clock
//! ablation, and the TSan-style hybrid.
//!
//! FastTrack (Flanagan & Freund, PLDI 2009) is the happens-before component
//! of ThreadSanitizer: each shared variable keeps a shadow of its last write
//! (an [`Epoch`]) and its read history (an epoch, inflated to a vector clock
//! only while reads are concurrent), checked against the accessing
//! goroutine's vector clock, which is read from the execution's shared
//! state (`crate::hb`). A detector here is its variable shadow, its site
//! keys and the races it keeps, as ids ([`Race`]).
//!
//! Three detectors share this shadow, built by [`FastTrack::new`],
//! [`FastTrack::pure_vc`] and [`FastTrack::hybrid`]:
//!
//! * FastTrack proper, on the O(1) epoch path;
//! * pure vector clocks: the epoch fast path and its same-epoch exit
//!   disabled and full clocks kept for every shadow slot — same verdicts,
//!   more work — which the ablation benchmark uses to measure what the
//!   epoch optimization buys (the original paper reports most accesses hit
//!   the O(1) path);
//! * the hybrid, Go's `-race` as the paper describes it, "integrating
//!   lock-set and happens-before algorithms" (§1, §3.1): FastTrack decides
//!   *whether* two accesses race, and each access also records the locks
//!   its goroutine held (read from the shared state, where Eraser reads
//!   them too), which is what makes a report actionable for
//!   partial-locking bugs (Observation 10). Its reports are labelled
//!   `tsan`.
//!
//! # The same-epoch exit
//!
//! An access by goroutine *t* at epoch *E* (*t*'s own clock component),
//! recorded as *r* (goroutine, kind, stack, location and, for the hybrid,
//! held locks), on object *o*, returns before any check — counted as one
//! access and one epoch fast hit, as the full path would count it — when
//!
//! * it is a read, the read history is exclusively *E* with record *r*,
//!   and *o* is the object the slot's last full-path access named; or
//! * it is a write, the last write is *E* with record *r*, and the read
//!   history is empty or exclusively an epoch of *t*'s.
//!
//! The full path would then keep no new race and leave the slot as it is.
//! In Go's happens-before (Fava & Steffen, "Ready, set, Go!") a goroutine
//! publishes its clock only at an edge, and ticks right after (`crate::hb`),
//! so no access another goroutine made since the slot was set can be
//! ordered after it: any race the repeat would find was already found, at
//! the same site, by the access that set the slot or by the intervening
//! write. The object is compared because a crafted upload can name one
//! address by two objects, and a site's key includes the object's name.
//! A shared read history takes no write exit: an acquire between two writes
//! of one epoch grows *t*'s clock without a tick, and the second write
//! would prune more readers. Pure vector clocks take no exit: they are the
//! exit-free oracle `tests/detector_differential.rs` holds FastTrack to.
//!
//! # Flat shadow memory
//!
//! The kernel allocates every object id from one dense per-run counter, so
//! the variable table is a flat `Vec` indexed by the id itself: an access
//! costs one bounds-checked array index, not a hash probe. The
//! concurrent-read history is a tid-sorted small vector, so iteration — and
//! therefore report order — is ascending by goroutine. Verdicts are held to
//! [`crate::reference`], which shares nothing with this module.

use std::collections::HashSet;
use std::hash::BuildHasherDefault;

use grs_clock::{Epoch, Tid, VectorClock};
use grs_obs::hash::FnvHasher;
use grs_runtime::event::Event;
use grs_runtime::{Addr, Monitor, NameId, SourceLoc, StackDepot};

use crate::hb::Execution;
use crate::replay::Detector;
use crate::report::{AccessRecord, DetectorKind, Race, RaceReport};

/// One entry of the concurrent-read history: the reading goroutine, its
/// clock at the read, and the access metadata for reports.
#[derive(Debug, Clone, Copy)]
struct SharedRead {
    tid: u32,
    clk: u32,
    info: AccessRecord,
}

/// Read history of one variable.
#[derive(Debug)]
enum ReadState {
    /// No read yet.
    None,
    /// Totally ordered reads: the maximal one as an epoch.
    Exclusive(Epoch, AccessRecord),
    /// Concurrent reads: per-goroutine last-read clock (FastTrack's
    /// "read-shared" inflation), kept sorted by tid so iteration — and
    /// therefore report order — is deterministic without a sort per write.
    /// Empty only under pure-VC, which keeps the `Vec` a write emptied.
    Shared(Vec<SharedRead>),
}

/// The most entries a spare read history keeps room for. A larger one is
/// freed, so what a detector keeps between runs stays within a constant
/// factor of its variable table, whatever one trace read.
const SPARE_READS_CAPACITY: usize = 8;

/// Keeps `reads`, emptied, for the next history that goes shared, unless
/// it holds room past [`SPARE_READS_CAPACITY`].
fn keep_spare(spares: &mut Vec<Vec<SharedRead>>, mut reads: Vec<SharedRead>) {
    if reads.capacity() <= SPARE_READS_CAPACITY {
        reads.clear();
        spares.push(reads);
    }
}

/// Inserts or replaces `tid`'s entry, keeping the vector sorted by tid.
fn shared_insert(reads: &mut Vec<SharedRead>, tid: u32, clk: u32, info: AccessRecord) {
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
    write_info: Option<AccessRecord>,
    read: ReadState,
    /// The object named by the last access that took the full path: a
    /// race site's key includes the name, and one address can go by two.
    object: NameId,
}

impl Default for VarShadow {
    fn default() -> Self {
        VarShadow {
            touched: false,
            write_epoch: Epoch::ZERO,
            write_clock: None,
            write_info: None,
            read: ReadState::None,
            object: NameId(0),
        }
    }
}

impl VarShadow {
    /// Whether an access at `epoch`, recorded as `info`, on `object`
    /// repeats what the slot holds, so that the full path would find no
    /// race it has not kept and leave the slot as it is: FastTrack's
    /// same-epoch exit (the module doc says why each condition is needed).
    #[inline]
    fn repeats(&self, epoch: Epoch, object: NameId, info: &AccessRecord) -> bool {
        if info.kind.is_write() {
            self.write_epoch == epoch
                && self.write_info.as_ref() == Some(info)
                && match &self.read {
                    ReadState::None => true,
                    ReadState::Exclusive(e, _) => e.tid() == epoch.tid(),
                    ReadState::Shared(_) => false,
                }
        } else {
            matches!(&self.read, ReadState::Exclusive(e, r) if *e == epoch && r == info)
                && self.object == object
        }
    }
}

/// A race site with no text in it: the object's name id and the two
/// accesses' locations (a file's name id and a line each), lower first, so
/// either orientation is one key — the key [`crate::report::site_key_of`]
/// formats, for names interned by text. Hashing it reads ids only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SiteKey {
    object: NameId,
    lo: SourceLoc,
    hi: SourceLoc,
}

impl SiteKey {
    fn new(object: NameId, a: SourceLoc, b: SourceLoc) -> Self {
        let (lo, hi) = if (a.line, a.file) <= (b.line, b.file) {
            (a, b)
        } else {
            (b, a)
        };
        SiteKey { object, lo, hi }
    }

    /// Whether `race` is on this site by text: at the same lines, in the
    /// same files, on the same object by name, either way round.
    fn same_text(&self, race: &Race, depot: &StackDepot) -> bool {
        let same = |a: SourceLoc, b: SourceLoc| {
            a.line == b.line && depot.name(a.file) == depot.name(b.file)
        };
        let (p, c) = (race.prior.loc, race.current.loc);
        ((same(p, self.lo) && same(c, self.hi)) || (same(c, self.lo) && same(p, self.hi)))
            && depot.name(race.object) == depot.name(self.object)
    }
}

/// The most races one detector keeps (and so reports) per run: a guard on
/// memory for extremely racy programs (the paper's detector similarly caps
/// per-run output).
pub const MAX_REPORTS: usize = 256;

/// A happens-before detector used alone: a private copy of the
/// execution's shared state, advanced around one variable shadow. Create
/// one per run (or reuse it: every run starts by resetting it) and pass it
/// to [`grs_runtime::Runtime::run`]; collect [`FastTrack::reports`]
/// afterwards: the run's end builds them.
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
    exec: Execution,
    shadow: Shadow,
    /// The reports of the last finished run.
    reports: Vec<RaceReport>,
}

impl Default for FastTrack {
    fn default() -> Self {
        Self::new()
    }
}

impl FastTrack {
    /// FastTrack on its epoch fast path.
    #[must_use]
    pub fn new() -> Self {
        Self::of(DetectorKind::FastTrack)
    }

    /// The pure-vector-clock ablation.
    #[must_use]
    pub fn pure_vc() -> Self {
        Self::of(DetectorKind::PureVectorClock)
    }

    /// The TSan-style hybrid: FastTrack verdicts with each side's held
    /// locks, reported as `tsan`.
    #[must_use]
    pub fn hybrid() -> Self {
        Self::of(DetectorKind::Tsan)
    }

    fn of(kind: DetectorKind) -> Self {
        let mut exec = Execution::default();
        exec.watched_by([kind]);
        FastTrack {
            exec,
            shadow: Shadow::new(kind),
            reports: Vec::new(),
        }
    }

    /// The races the last finished run reported.
    #[must_use]
    pub fn reports(&self) -> &[RaceReport] {
        &self.reports
    }

    /// Number of memory accesses processed.
    #[must_use]
    pub fn accesses_processed(&self) -> u64 {
        self.shadow.accesses_processed
    }

    /// How many accesses were resolved entirely on the O(1) epoch path —
    /// the statistic the FastTrack paper's speedup rests on.
    #[must_use]
    pub fn epoch_fast_hits(&self) -> u64 {
        self.shadow.epoch_fast_hits
    }
}

impl Monitor for FastTrack {
    fn on_run_start(&mut self, depot: &StackDepot) {
        self.exec.on_run_start(depot);
        self.shadow.reset();
        self.reports.clear();
    }

    fn on_event(&mut self, event: &Event) {
        self.exec.before(event);
        self.shadow.on_event(&self.exec, event);
        self.exec.after(event);
    }

    fn on_run_end(&mut self) {
        let (exec, kind) = (&self.exec, self.shadow.kind);
        self.reports = self
            .shadow
            .races()
            .iter()
            .map(|race| race.report(&exec.depot, &exec.locksets, kind))
            .collect();
    }

    fn peak_shadow_words(&self) -> usize {
        self.shadow.peak_words()
    }
}

impl Detector for FastTrack {
    fn take_reports(&mut self) -> Vec<RaceReport> {
        std::mem::take(&mut self.reports)
    }
}

/// One happens-before detector without the execution's state: the
/// variable shadow, the site keys and the races kept. It reads the
/// execution's clocks on every access, and the hybrid its held locks.
#[derive(Debug)]
pub(crate) struct Shadow {
    /// Which of the three detectors this is: `FastTrack`,
    /// `PureVectorClock` or `Tsan` (the hybrid).
    pub(crate) kind: DetectorKind,
    /// Flat variable table indexed by the kernel's dense address ids.
    vars: Vec<VarShadow>,
    /// The races kept this run, in detection order.
    races: Vec<Race>,
    /// The site of every race kept this run: a repeat is rejected on this
    /// probe.
    sites: HashSet<SiteKey, BuildHasherDefault<FnvHasher>>,
    /// Scratch buffer for the race pairs one access uncovers; a field so
    /// the hot path never constructs (or drops) a fresh `Vec` per event.
    /// Always left empty between accesses.
    found: Vec<(AccessRecord, AccessRecord)>,
    /// Emptied read histories, kept for their allocations (see
    /// [`keep_spare`]): a history that goes shared takes one from here.
    spare_reads: Vec<Vec<SharedRead>>,
    accesses_processed: u64,
    epoch_fast_hits: u64,
    /// Live shadow-word count (per-variable fixed slots + read history),
    /// maintained incrementally at each access.
    shadow_words: usize,
    /// The most `shadow_words` held at once this run, raised where
    /// `shadow_words` changes.
    peak_words: usize,
}

impl Shadow {
    pub(crate) fn new(kind: DetectorKind) -> Self {
        debug_assert_ne!(kind, DetectorKind::Eraser);
        Shadow {
            kind,
            vars: Vec::new(),
            races: Vec::new(),
            sites: HashSet::default(),
            found: Vec::new(),
            spare_reads: Vec::new(),
            accesses_processed: 0,
            epoch_fast_hits: 0,
            shadow_words: 0,
            peak_words: 0,
        }
    }

    /// Clears all per-run state while keeping container allocations warm,
    /// so one detector can monitor thousands of campaign runs without
    /// reallocating: the variable table keeps its capacity, its read
    /// histories are kept as spares, and the site set is emptied in place
    /// rather than dropped.
    pub(crate) fn reset(&mut self) {
        for var in self.vars.drain(..) {
            if let ReadState::Shared(reads) = var.read {
                keep_spare(&mut self.spare_reads, reads);
            }
        }
        self.races.clear();
        self.sites.clear();
        self.accesses_processed = 0;
        self.epoch_fast_hits = 0;
        self.shadow_words = 0;
        self.peak_words = 0;
    }

    /// Checks and records an access against `exec`, which has taken the
    /// event's first step. Synchronisation is the shared state's alone.
    #[inline]
    pub(crate) fn on_event(&mut self, exec: &Execution, event: &Event) {
        let Some((addr, object, mut info)) = AccessRecord::of(event) else {
            return;
        };
        // The hybrid records the locks each access's goroutine held; the
        // others record none.
        if self.kind == DetectorKind::Tsan {
            info.locks = exec.held(info.gid).any;
        }
        self.on_access(exec, addr, object, info);
    }

    /// The most shadow words this run has held at once.
    pub(crate) fn peak_words(&self) -> usize {
        self.peak_words
    }

    /// The races kept this run, in detection order.
    pub(crate) fn races(&self) -> &[Race] {
        &self.races
    }

    /// Keeps the first race of each site, as ids: a repeat costs one
    /// probe of `sites`, and nothing is resolved.
    #[cold]
    fn record(
        &mut self,
        depot: &StackDepot,
        addr: Addr,
        object: NameId,
        prior: AccessRecord,
        current: AccessRecord,
    ) {
        if self.races.len() >= MAX_REPORTS {
            return;
        }
        let site = SiteKey::new(object, prior.loc, current.loc);
        if self.sites.contains(&site) {
            return;
        }
        // Names are interned by text, so a new key is a new site — except
        // in a hand-built trace that names one text (an object's or a
        // file's) through two string-table entries; such a site is matched
        // by text against the (at most `MAX_REPORTS`) races kept. Its key
        // is not added, so `sites` holds one key per race: even keys an
        // uploaded trace crafts to collide under FNV cost at most
        // `MAX_REPORTS` comparisons a probe.
        if self.races.iter().any(|r| site.same_text(r, depot)) {
            return;
        }
        self.sites.insert(site);
        self.races.push(Race {
            addr,
            object,
            prior,
            current,
        });
    }

    /// Checks one access against the variable's shadow and the accessing
    /// goroutine's clock in `exec`, then updates the shadow.
    #[inline]
    fn on_access(&mut self, exec: &Execution, addr: Addr, object: NameId, info: AccessRecord) {
        self.accesses_processed += 1;
        let c = exec.clocks.clock(info.gid);
        let (tid, kind) = (Tid::new(info.gid.0), info.kind);
        let vi = addr.0 as usize;
        if self.vars.len() <= vi {
            self.vars.resize_with(vi + 1, VarShadow::default);
        }
        let pure_vc = self.kind == DetectorKind::PureVectorClock;
        let epoch = Epoch::of(tid, c);
        // The same-epoch exit (module doc): a repeat finds nothing new.
        if !pure_vc && self.vars[vi].repeats(epoch, object, &info) {
            self.epoch_fast_hits += 1;
            return;
        }
        let mut fast = true;
        let mut words_delta: isize = 0;
        {
            // Split field borrows: the variable slot is mutated in place
            // while found pairs are pushed.
            let (var, found) = (&mut self.vars[vi], &mut self.found);
            let spare_reads = &mut self.spare_reads;
            // Shadow accounting: +2 fixed words per newly touched variable
            // (its write slot, and the address's atomic sync slot, which
            // the clocks hold), plus the read-history delta below.
            if !var.touched {
                var.touched = true;
                words_delta = 2;
            }
            var.object = object;
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
                        if !(e.le_clock(c) || (kind.is_atomic() && ri.kind.is_atomic())) {
                            found.push((*ri, info));
                        }
                    }
                    ReadState::Shared(reads) => {
                        fast = false;
                        // The vector is tid-sorted, and the walk must stay
                        // ascending: report order feeds dedup
                        // representatives and `MAX_REPORTS` truncation.
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
                var.write_epoch = epoch;
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
                //
                // Pure-VC keeps an emptied history's `Vec` (its reads all
                // take the `Shared` arm, empty or not); the epoch path
                // returns to `None`, so its next read is exclusive again,
                // and keeps the `Vec` as a spare.
                if let ReadState::Shared(reads) = &mut var.read {
                    let before = reads.len();
                    reads.retain(|e| e.clk > c.get(Tid::new(e.tid)));
                    words_delta += reads.len() as isize - before as isize;
                    if reads.is_empty() && !pure_vc {
                        keep_spare(spare_reads, std::mem::take(reads));
                        var.read = ReadState::None;
                    }
                }
            } else {
                // Read: update the read history. Each arm tracks its exact
                // shadow-word delta in place — recounting the whole read
                // state before and after costs two extra matches per access
                // on the hot path. Pure-VC never keeps an epoch: its reads
                // all take the `Shared` arm.
                let my_clk = epoch.clock();
                if pure_vc && matches!(var.read, ReadState::None) {
                    var.read = ReadState::Shared(spare_reads.pop().unwrap_or_default());
                }
                match &mut var.read {
                    ReadState::None => {
                        var.read = ReadState::Exclusive(epoch, info);
                        words_delta += 1;
                    }
                    ReadState::Exclusive(e, ri) => {
                        if e.tid() == tid || e.le_clock(c) {
                            *e = epoch;
                            *ri = info;
                        } else {
                            fast = false;
                            let mut reads = spare_reads.pop().unwrap_or_default();
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
        self.shadow_words = self
            .shadow_words
            .checked_add_signed(words_delta)
            .expect("shadow-word count underflow");
        self.peak_words = self.peak_words.max(self.shadow_words);
        if fast {
            self.epoch_fast_hits += 1;
        }
        // Drain the scratch buffer by index (the pairs are `Copy`), leaving
        // it empty — and its allocation warm — for the next access.
        for i in 0..self.found.len() {
            let (prior, current) = self.found[i];
            self.record(&exec.depot, addr, object, prior, current);
        }
        self.found.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grs_runtime::event::EventKind;
    use grs_runtime::{AccessKind, Gid, StackId};

    /// Pure-VC over one run where `readers` goroutines read each of two
    /// addresses: what its reset keeps as spares.
    fn spares_after(readers: u32) -> Vec<usize> {
        let mut exec = Execution::default();
        exec.watched_by([DetectorKind::PureVectorClock]);
        exec.on_run_start(&StackDepot::new());
        let mut shadow = Shadow::new(DetectorKind::PureVectorClock);
        for (step, (g, addr)) in (0..).zip((0..readers).flat_map(|g| [(g, 1), (g, 2)])) {
            let loc = SourceLoc {
                file: NameId(0),
                line: 1,
            };
            let kind = EventKind::Access {
                addr: Addr(addr),
                object: NameId(0),
                kind: AccessKind::Read,
                stack: StackId::EMPTY,
                loc,
            };
            let event = Event {
                step,
                gid: Gid(g),
                kind,
            };
            exec.before(&event);
            shadow.on_event(&exec, &event);
            exec.after(&event);
        }
        shadow.reset();
        shadow.spare_reads.iter().map(Vec::capacity).collect()
    }

    /// A reset keeps each emptied read history for the next run, unless
    /// it holds room for more readers than a spare may.
    #[test]
    fn a_reset_keeps_only_small_read_histories() {
        let small = spares_after(3);
        assert_eq!(small.len(), 2, "{small:?}");
        assert!(small
            .iter()
            .all(|&c| (3..=SPARE_READS_CAPACITY).contains(&c)));
        assert_eq!(spares_after(3 * SPARE_READS_CAPACITY as u32), []);
    }
}
