//! Go's happens-before, stated definitionally: what the detectors are held to.
//!
//! The detectors are optimised folds: epochs, flat shadow tables, pruned
//! read histories. This is happens-before over a recorded [`Trace`] as a
//! plain relation over event indices, built from the Go memory model's edge
//! list ("Ready, set, Go!", Fava & Steffen), and every conflicting access
//! pair it leaves unordered. It shares no code with the detectors or the
//! clock crate, so no error hides behind its twin. The edges:
//!
//! * **program order** — an event to its goroutine's next event;
//! * **spawn** — `Spawn { child }` to the child's first event;
//! * **locks** — a write release to every later acquire; a read release to
//!   every later *write* acquire;
//! * **channels** — send `k` to receive `k`; receive `k` to the completion
//!   of send `k + C` at capacity `C > 0`, of send `k` unbuffered; a close to
//!   every later receive-from-closed;
//! * **`WaitGroup`** — every `Add(δ < 0)` to every later `Wait`;
//! * **`Once`** — the execution to every later observation;
//! * **`sync/atomic`** — an atomic write to every later atomic access of
//!   its address.
//!
//! Every edge runs forward in trace order, so one pass closes the relation:
//! row `i`, a bitset over `0..i`, is the union of its direct predecessors'
//! rows — `n²/16` bytes in all. No `DetectorChoice`, arena or campaign
//! reaches this module; tests and audits call it.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use grs_runtime::event::{EventKind, LockMode};
use grs_runtime::{AccessKind, Addr, Gid, LockUid, Trace};

use crate::report::{site_key_of, RaceReport};

/// Two accesses (indices into [`Trace::events`]) of one address, by different
/// goroutines, one a write, not both atomic, that happens-before leaves unordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnorderedPair {
    pub addr: Addr,
    pub earlier: usize,
    pub later: usize,
}

impl UnorderedPair {
    /// The [`RaceReport::site_key`] a detector reporting this pair files it
    /// under. Panics if `trace` is not the trace the pair came from.
    #[must_use]
    pub fn site_key(&self, trace: &Trace) -> String {
        let access = |i: usize| match &trace.events[i].kind {
            EventKind::Access { object, loc, .. } => (object, *loc),
            other => panic!("event {i} of a pair is an access, found {other:?}"),
        };
        let ((_, earlier), (object, later)) = (access(self.earlier), access(self.later));
        site_key_of(object, earlier, later)
    }
}

/// What the reference concludes about one trace.
#[derive(Debug)]
pub struct Verdict {
    /// Every unordered conflicting pair, sorted by `(later, earlier)`.
    pub pairs: Vec<UnorderedPair>,
    /// Addresses on which some one lock was held at **every** access — in
    /// write mode at writes, either mode at reads. Lockset verdicts are not
    /// happens-before verdicts, so this is the one fact an Eraser-style
    /// detector is held to: its candidate set there can never empty.
    pub lock_disciplined: BTreeSet<Addr>,
}

impl Verdict {
    /// Holds a happens-before detector's `reports` on `trace` to this
    /// verdict. *Sound*: each report's address is racy here and its site key
    /// is that of an unordered pair on that address. *Complete* (not
    /// expected of a run that stopped at its report cap): every racy address
    /// has a pair whose site key some report carries — the detectors file
    /// one report per site key, and addresses can share one (the words of a
    /// copied slice header). An `Err` names what the two sides differ on.
    pub fn check_happens_before(
        &self,
        trace: &Trace,
        reports: &[RaceReport],
        expect_complete: bool,
    ) -> Result<(), String> {
        let mut keys_at: BTreeMap<Addr, BTreeSet<String>> = BTreeMap::new();
        for p in &self.pairs {
            keys_at.entry(p.addr).or_default().insert(p.site_key(trace));
        }
        let mut reported = BTreeSet::new();
        for r in reports {
            let key = r.site_key();
            if !keys_at.get(&r.addr).is_some_and(|keys| keys.contains(&key)) {
                return Err(format!("unsound: {} at {key} is no reference pair", r.addr));
            }
            reported.insert(key);
        }
        let missed = keys_at.iter().find(|(_, keys)| keys.is_disjoint(&reported));
        match missed.filter(|_| expect_complete) {
            Some((addr, keys)) => Err(format!("incomplete: {addr} races at {keys:?}")),
            None => Ok(()),
        }
    }

    /// Holds a lockset detector's `reports` to [`Verdict::lock_disciplined`].
    pub fn check_lockset(&self, reports: &[RaceReport]) -> Result<(), String> {
        let covered = |r: &&RaceReport| self.lock_disciplined.contains(&r.addr);
        match reports.iter().find(covered) {
            Some(r) => Err(format!("{} reported, one lock covers every access", r.addr)),
            None => Ok(()),
        }
    }
}

/// What an edge can start from. Every such event is filed under its kind
/// and the id of the object it acts on, for the edge's far end to find.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Source {
    WriteRelease,
    ReadRelease,
    Send,
    Recv,
    Close,
    Done,
    OnceRun,
    AtomicStore,
}

type Sources = HashMap<(Source, u64), Vec<usize>>;

/// The events filed so far under `(what, id)`, in trace order.
fn filed(sources: &Sources, what: Source, id: u64) -> &[usize] {
    sources.get(&(what, id)).map_or(&[], Vec::as_slice)
}

/// Builds happens-before over `trace` and returns what it leaves unordered.
#[must_use]
pub fn analyze(trace: &Trace) -> Verdict {
    let mut hb: Vec<Vec<u64>> = Vec::with_capacity(trace.events.len());
    // What a goroutine's next event directly follows: its previous event
    // or, before it has one, the `Spawn` that created it.
    let mut follows: HashMap<Gid, usize> = HashMap::new();
    let mut sources = Sources::new();
    let mut accesses: HashMap<Addr, Vec<(usize, Gid, AccessKind)>> = HashMap::new();
    // Lock discipline: who holds what now, and each address's always-held locks.
    let mut held: Vec<(Gid, LockUid, LockMode)> = Vec::new();
    let mut always_held: BTreeMap<Addr, BTreeSet<LockUid>> = BTreeMap::new();
    let mut pairs = Vec::new();

    for (i, ev) in trace.events.iter().enumerate() {
        let mut preds: Vec<usize> = follows.insert(ev.gid, i).into_iter().collect();
        let mut key = None;
        match &ev.kind {
            EventKind::Spawn { child, .. } => _ = follows.insert(*child, i),
            EventKind::Acquire { lock, mode } => {
                preds.extend(filed(&sources, Source::WriteRelease, lock.0));
                if *mode == LockMode::Write {
                    preds.extend(filed(&sources, Source::ReadRelease, lock.0));
                }
                held.push((ev.gid, *lock, *mode));
            }
            EventKind::Release { lock, mode } => {
                key = Some(match mode {
                    LockMode::Write => (Source::WriteRelease, lock.0),
                    LockMode::Read => (Source::ReadRelease, lock.0),
                });
                if let Some(at) = held.iter().position(|h| *h == (ev.gid, *lock, *mode)) {
                    held.swap_remove(at);
                }
            }
            // Sends and receives are counted, so the `k` of the channel
            // rules is this module's own; a completion names its send.
            EventKind::ChanSend { chan, .. } => key = Some((Source::Send, chan.0)),
            EventKind::ChanRecv { chan, .. } => {
                let k = filed(&sources, Source::Recv, chan.0).len();
                preds.extend(filed(&sources, Source::Send, chan.0).get(k));
                key = Some((Source::Recv, chan.0));
            }
            EventKind::ChanSendComplete { chan, seq, cap } => {
                let freed_by = match *cap as u64 {
                    0 => Some(*seq),
                    c => seq.checked_sub(c),
                };
                let recvs = filed(&sources, Source::Recv, chan.0);
                preds.extend(freed_by.and_then(|k| recvs.get(k as usize)));
            }
            EventKind::ChanClose { chan } => key = Some((Source::Close, chan.0)),
            EventKind::ChanRecvClosed { chan } => {
                preds.extend(filed(&sources, Source::Close, chan.0));
            }
            EventKind::WgAdd { wg, delta, .. } if *delta < 0 => key = Some((Source::Done, wg.0)),
            EventKind::WgWait { wg } => preds.extend(filed(&sources, Source::Done, wg.0)),
            EventKind::OnceExecuted { once } => key = Some((Source::OnceRun, once.0)),
            EventKind::OnceObserved { once } => {
                preds.extend(filed(&sources, Source::OnceRun, once.0));
            }
            EventKind::Access { addr, kind, .. } => {
                if kind.is_atomic() {
                    preds.extend(filed(&sources, Source::AtomicStore, addr.0));
                }
                if *kind == AccessKind::AtomicWrite {
                    key = Some((Source::AtomicStore, addr.0));
                }
                let protecting: BTreeSet<LockUid> = held
                    .iter()
                    .filter(|(g, _, mode)| {
                        *g == ev.gid && (!kind.is_write() || *mode == LockMode::Write)
                    })
                    .map(|(_, lock, _)| *lock)
                    .collect();
                always_held
                    .entry(*addr)
                    .and_modify(|s| s.retain(|l| protecting.contains(l)))
                    .or_insert(protecting);
            }
            EventKind::WgAdd { .. } | EventKind::GoroutineEnd => {}
        }
        if let Some(key) = key {
            sources.entry(key).or_default().push(i);
        }
        // Close: everything before a direct predecessor is before `i`.
        let mut row = vec![0u64; i / 64 + 1];
        for p in preds {
            row[p / 64] |= 1 << (p % 64);
            for (word, before_p) in row.iter_mut().zip(&hb[p]) {
                *word |= before_p;
            }
        }
        if let EventKind::Access { addr, kind, .. } = &ev.kind {
            let before = accesses.entry(*addr).or_default();
            for &(earlier, gid, k) in before.iter() {
                let conflict =
                    (k.is_write() || kind.is_write()) && !(k.is_atomic() && kind.is_atomic());
                let ordered = row[earlier / 64] >> (earlier % 64) & 1 == 1;
                if gid != ev.gid && conflict && !ordered {
                    let (addr, later) = (*addr, i);
                    pairs.push(UnorderedPair {
                        addr,
                        earlier,
                        later,
                    });
                }
            }
            before.push((i, ev.gid, *kind));
        }
        hb.push(row);
    }
    always_held.retain(|_, locks| !locks.is_empty());
    Verdict {
        pairs,
        lock_disciplined: always_held.into_keys().collect(),
    }
}
