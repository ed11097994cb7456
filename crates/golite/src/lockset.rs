//! Eraser-style static lockset analysis over the Go-lite CFG.
//!
//! The study attributes most of its Table 3 to plain mutex misuse: fields
//! guarded at some sites and bare at others, two code paths agreeing on
//! *a* lock but not the *same* lock, `sync/atomic` mixed with unannotated
//! accesses, and the classic double-checked-locking idiom. This pass finds
//! those shapes statically:
//!
//! 1. A forward dataflow over each [`FuncCfg`] context computes the set of
//!    locks held at every block entry (meet = intersection, keeping the
//!    weaker mode at a join; `defer Unlock` was already folded in by CFG
//!    construction, so a deferred release simply never leaves the set).
//! 2. One walk of each block's events against the running lockset fills
//!    the [`Flow`] table and the [`CallGraph`]: every variable access and
//!    every in-file call with the locks held there. The summaries read
//!    both, so "which locks are held here" is derived once per file. A
//!    `Read`-mode lock (`RLock`) protects reads but not writes, so a write
//!    under `RLock` has an empty *effective* set even though a lock is held.
//! 3. Accesses are grouped by variable identity — file-wide for globals
//!    and receiver fields, per-function for locals — and each group is
//!    tested against the locking rules (GR007–GR011) of [`Rule`].
//!
//! A lockset is a sorted `(lock, mode)` slice interned in the file's
//! [`Locksets`], a [`SliceTable`] — the table the run-time detectors keep
//! their locksets in too: the few distinct sets a file holds are stored
//! once, every access between two lock events shares one id, and equal ids
//! are equal sets. The algebra over them — hold, release, meet, join —
//! builds each result with [`SliceTable::make`]. Keys are ranked in text
//! order ([`cfg`](crate::cfg)), so a sorted slice compares exactly as the
//! text-keyed map it stands for would.
//!
//! Sharedness is approximated the way Eraser does at warm-up: a variable
//! counts as shared once it is touched from two execution contexts, from a
//! goroutine spawned in a loop (concurrent with itself), or — for globals
//! and fields — once any access bothers to take a lock (the "lock signal":
//! somebody believed this needs protection). Declaration-initializer
//! writes are exempt from race evidence, mirroring Eraser's init phase.

use std::cmp::Reverse;
use std::collections::{BTreeSet, VecDeque};

use grs_clock::{SliceId, SliceTable};
use grs_obs::hash::FnvMap;

use crate::ast::{Names, Sym};
use crate::callgraph::{CallGraph, CallSite, ParamCall};
use crate::cfg::{BlockId, CallTarget, Event, FileCfg, FuncCfg, Keys, LockMode, VarKey};
use crate::lint::{Finding, Rule};
use crate::summary::Chain;
use crate::token::Pos;

/// Locks held at a program point, with the strongest mode held per lock,
/// sorted by lock: an id into the file's [`Locksets`].
pub type Lockset = SliceId<(VarKey, LockMode)>;
/// The locksets of one file.
pub type Locksets = SliceTable<(VarKey, LockMode)>;
/// A set of locks (those released before a call), sorted: an id into
/// [`KeySets`].
pub type KeySet = SliceId<VarKey>;
/// The lock sets of one file.
pub type KeySets = SliceTable<VarKey>;

/// `set` with `lock` held, keeping the stronger mode when already held.
fn hold(sets: &mut Locksets, set: Lockset, lock: VarKey, mode: LockMode) -> Lockset {
    let held = sets.get(set);
    match held.binary_search_by_key(&lock, |&(k, _)| k) {
        Ok(i) if held[i].1 >= mode => set,
        found => sets.make(|t, buf| {
            buf.extend_from_slice(t.get(set));
            match found {
                Ok(i) => buf[i].1 = mode,
                Err(i) => buf.insert(i, (lock, mode)),
            }
        }),
    }
}

/// `set` without `lock`.
fn release(sets: &mut Locksets, set: Lockset, lock: VarKey) -> Lockset {
    match sets.get(set).binary_search_by_key(&lock, |&(k, _)| k) {
        Ok(i) => sets.make(|t, buf| {
            buf.extend_from_slice(t.get(set));
            buf.remove(i);
        }),
        Err(_) => set,
    }
}

/// Join operator: a lock survives a merge only if held on both paths, at
/// the weaker of the two modes.
fn meet(sets: &mut Locksets, a: Lockset, b: Lockset) -> Lockset {
    if a == b {
        return a;
    }
    sets.make(|t, buf| {
        let other = t.get(b);
        buf.extend(t.get(a).iter().filter_map(|&(k, ma)| {
            let i = other.binary_search_by_key(&k, |&(k, _)| k).ok()?;
            Some((k, ma.min(other[i].1)))
        }));
    })
}

/// `a` with every lock of `b` held too (the stronger mode where both hold
/// one).
pub(crate) fn join(sets: &mut Locksets, a: Lockset, b: Lockset) -> Lockset {
    if a == b || b == Lockset::EMPTY {
        return a;
    }
    if a == Lockset::EMPTY {
        return b;
    }
    sets.make(|t, buf| {
        buf.extend_from_slice(t.get(a));
        buf.extend_from_slice(t.get(b));
        // Each lock's strongest mode first; the dedup keeps it.
        buf.sort_unstable_by_key(|&(k, m)| (k, Reverse(m)));
        buf.dedup_by_key(|(k, _)| *k);
    })
}

/// The union of two sets.
pub(crate) fn union(sets: &mut KeySets, a: KeySet, b: KeySet) -> KeySet {
    if a == b || b == KeySet::EMPTY {
        return a;
    }
    if a == KeySet::EMPTY {
        return b;
    }
    sets.make(|t, buf| {
        buf.extend_from_slice(t.get(a));
        buf.extend_from_slice(t.get(b));
        buf.sort_unstable();
        buf.dedup();
    })
}

/// One variable access with every fact the locking rules read. [`flow`]
/// emits one per [`Event::Access`]; the summary layer propagates copies up
/// the call graph, folding each call site's facts into the fields marked
/// *(chain)* and leaving the rest describing the access where it stands.
/// Every field is a value or an id into a per-file table, so copying one
/// copies no heap data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Access {
    /// The accessed variable.
    pub var: VarKey,
    /// The identifier the place is spelled from: with `var`'s path, the
    /// source spelling ([`Keys::spelling`]), for messages.
    pub spelled: Sym,
    /// Write vs read.
    pub write: bool,
    /// Performed through `sync/atomic`.
    pub atomic: bool,
    /// Declaration-initializer write (exempt from race evidence).
    pub init: bool,
    /// Branch tag when this is an `if`-condition read.
    pub cond_of: Option<u32>,
    /// The place was reached through an index expression (`m[k]`).
    pub indexed: bool,
    /// The block of its own function's CFG the access sits in, which
    /// holds the branch tags of the enclosing `if` regions
    /// ([`FuncCfg::branch_tags`]).
    pub block: BlockId,
    /// Source position.
    pub pos: Pos,
    /// Name of the function that lexically contains the access.
    pub func: Sym,
    /// Index of that function in the file (context disambiguator).
    pub func_idx: usize,
    /// Execution context within that function (0 = body, else goroutine).
    pub ctx: u32,
    /// Locks held at the access, with modes, before mode filtering.
    /// *(chain)*: plus the locks held at each call site on the chain — none
    /// survive a spawned hop.
    pub locks: Lockset,
    /// The access runs on a goroutine: `ctx != 0`. *(chain)*: or a hop of
    /// the chain is spawned.
    pub spawned: bool,
    /// That goroutine is spawned inside a loop (self-concurrent).
    pub in_loop_spawn: bool,
    /// The spawn point when `spawned`. *(chain)*: in the source of the
    /// function the chain starts from.
    pub spawn_pos: Option<Pos>,
    /// *(chain)*: locks held earlier on the chain but released before it
    /// was entered. Empty for an access where it stands.
    pub dropped: KeySet,
    /// *(chain)*: the `(callee, call position)` hops the access was reached
    /// through. Empty for an access where it stands.
    pub chain: Chain,
}

impl Access {
    /// True when at least one lock protects the access.
    #[must_use]
    pub fn guarded(&self, locksets: &Locksets) -> bool {
        effective(locksets.get(self.locks), self.write)
            .next()
            .is_some()
    }
}

/// Locks of `held` that actually protect an access: a `Read`-mode lock
/// excludes writers only, so it protects reads but not writes.
pub(crate) fn effective(
    held: &[(VarKey, LockMode)],
    write: bool,
) -> impl Iterator<Item = VarKey> + '_ {
    held.iter()
        .filter(move |&&(_, m)| m == LockMode::Write || !write)
        .map(|&(k, _)| k)
}

/// Computes the lockset at each block entry of `cfg` by forward fixpoint
/// into `insets`, with `work` as the worklist.
///
/// `None` marks an unreachable block. Each context starts empty at its
/// entry (a goroutine inherits no locks — Go locks are not reentrant and
/// the spawner's critical section does not extend into the child).
fn block_entry_locksets(
    cfg: &FuncCfg,
    locksets: &mut Locksets,
    insets: &mut Vec<Option<Lockset>>,
    work: &mut VecDeque<BlockId>,
) {
    insets.clear();
    insets.resize(cfg.blocks.len(), None);
    work.clear();
    for ctx in &cfg.contexts {
        insets[ctx.entry.0] = Some(Lockset::EMPTY);
        work.push_back(ctx.entry);
    }
    while let Some(b) = work.pop_front() {
        let mut out = insets[b.0].unwrap_or(Lockset::EMPTY);
        for e in cfg.events_of(b) {
            out = apply(locksets, out, e);
        }
        for &s in cfg.succs_of(b) {
            let merged = match insets[s.0] {
                None => out,
                Some(prev) => meet(locksets, prev, out),
            };
            if insets[s.0] != Some(merged) {
                insets[s.0] = Some(merged);
                work.push_back(s);
            }
        }
    }
}

/// The transfer function: what one event does to the set of locks held.
fn apply(locksets: &mut Locksets, set: Lockset, e: &Event) -> Lockset {
    match *e {
        Event::Acquire { lock, mode, .. } => hold(locksets, set, lock, mode),
        Event::Release { lock, .. } => release(locksets, set, lock),
        Event::Access { .. } | Event::Call { .. } => set,
    }
}

/// The flow table of one file: every access with the locks held there.
/// All the locking rules, intra- and interprocedural, read this one table,
/// and the [`CallGraph`] [`flow`] builds beside it.
#[derive(Debug, Default)]
pub struct Flow {
    /// Every access of every reachable block, in function → block → event
    /// order.
    pub accesses: Vec<Access>,
    /// Calls through function-typed parameters.
    pub param_calls: Vec<ParamCall>,
    /// The locksets `accesses` and the call graph's sites hold.
    pub locksets: Locksets,
    /// The released-lock sets the call graph's sites hold.
    pub dropped: KeySets,
}

/// Builds the [`Flow`] table and the call graph over every call that
/// resolves to a bodied function of the file: one lockset fixpoint per
/// function, then one walk of each block's events against the running
/// lockset.
///
/// The two orders — accesses in function → block → event order, sites in
/// caller → context → block → event order — are load-bearing: the
/// interprocedural layer dedups accesses and findings keeping the first
/// seen, and caps a summary's size, so a different order would report a
/// different (equally valid) witness.
#[must_use]
pub fn flow(cfg: &FileCfg) -> (Flow, CallGraph) {
    // `(receiver type, name)` → function; the first declaration wins.
    let mut by_name: FnvMap<(Option<Sym>, Sym), usize> =
        FnvMap::with_capacity_and_hasher(cfg.funcs.len(), Default::default());
    for (i, c) in cfg.funcs.iter().enumerate() {
        by_name.entry((c.recv_type, c.func)).or_insert(i);
    }

    let accesses = cfg
        .funcs
        .iter()
        .flat_map(|f| &f.events)
        .filter(|e| matches!(e, Event::Access { .. }))
        .count();
    let mut out = Flow {
        accesses: Vec::with_capacity(accesses),
        ..Flow::default()
    };
    let mut sites: Vec<CallSite> = Vec::new();
    let (mut insets, mut work) = (Vec::new(), VecDeque::new());
    // Locks acquired so far in each context, in block-creation order
    // (which tracks execution order for straight-line code — the shape
    // the dropped-lock rule targets), sorted.
    let mut ever: Vec<Vec<VarKey>> = Vec::new();
    for (func_idx, f) in cfg.funcs.iter().enumerate() {
        block_entry_locksets(f, &mut out.locksets, &mut insets, &mut work);
        let first_site = sites.len();
        ever.iter_mut().for_each(Vec::clear);
        ever.resize_with(f.contexts.len(), Vec::new);
        for (bid, block) in f.blocks.iter().enumerate() {
            // Unreachable blocks (code after return/break) carry no races.
            let Some(mut cur) = insets[bid] else { continue };
            let ctx = &f.contexts[block.ctx as usize];
            let acquired = &mut ever[block.ctx as usize];
            for e in f.events_of(BlockId(bid)) {
                cur = apply(&mut out.locksets, cur, e);
                match e {
                    Event::Acquire { lock, .. } => {
                        if let Err(i) = acquired.binary_search(lock) {
                            acquired.insert(i, *lock);
                        }
                    }
                    Event::Release { .. } => {}
                    &Event::Access {
                        var,
                        spelled,
                        write,
                        atomic,
                        init,
                        cond_of,
                        indexed,
                        pos,
                    } => out.accesses.push(Access {
                        var,
                        spelled,
                        write,
                        atomic,
                        init,
                        cond_of,
                        indexed,
                        block: BlockId(bid),
                        pos,
                        func: f.func,
                        func_idx,
                        ctx: block.ctx,
                        locks: cur,
                        spawned: block.ctx != 0,
                        in_loop_spawn: ctx.in_loop,
                        spawn_pos: ctx.spawn_pos,
                        dropped: KeySet::EMPTY,
                        chain: Chain::EMPTY,
                    }),
                    Event::Call {
                        target,
                        spawned,
                        in_loop,
                        args,
                        pos,
                    } => {
                        let site_spawned = *spawned || block.ctx != 0;
                        let callee = match target {
                            CallTarget::Param(idx) => {
                                out.param_calls.push(ParamCall {
                                    caller: func_idx,
                                    param: *idx,
                                    spawned: site_spawned,
                                    pos: *pos,
                                });
                                continue;
                            }
                            CallTarget::Named(n) => by_name.get(&(None, *n)),
                            CallTarget::Method { recv, name } => {
                                by_name.get(&(Some(*recv), *name))
                            }
                        };
                        let Some(&callee) = callee else { continue };
                        let held = out.locksets.get(cur);
                        let dropped =
                            out.dropped.make(|_, buf| {
                                buf.extend(acquired.iter().copied().filter(|&l| {
                                    held.binary_search_by_key(&l, |&(k, _)| k).is_err()
                                }));
                            });
                        sites.push(CallSite {
                            caller: func_idx,
                            callee,
                            pos: *pos,
                            ctx: block.ctx,
                            spawned: site_spawned,
                            spawn_pos: if *spawned { Some(*pos) } else { ctx.spawn_pos },
                            in_loop: *in_loop || ctx.in_loop,
                            locks: cur,
                            dropped,
                            args: *args,
                        });
                    }
                }
            }
        }
        // A goroutine body's blocks are created between its spawner's.
        sites[first_site..].sort_by_key(|s| s.ctx);
    }
    (out, CallGraph::build(cfg.funcs.len(), sites))
}

/// Runs the intraprocedural rules (GR007–GR011) over the flow table's
/// accesses, excluding the *file-wide* group evidence contributed by the
/// functions in `called` (by index into the CFG list). Returns the findings
/// sorted by position, and the variables they are about in key order (so
/// the interprocedural layer does not report a variable already flagged
/// here).
///
/// A function reachable through in-file calls is judged along its call
/// chains — with the caller's locks in effect — by
/// `summary::interproc_findings`, so counting its raw accesses here would
/// produce exactly the false positives the summaries exist to avoid (a
/// write that looks bare but is always made under a caller's lock).
/// Per-access rules (`WriteUnderRLock`), atomic mixing, and double-checked
/// locking stay file-wide: those shapes are wrong regardless of what locks
/// a caller adds. Local-variable groups are never excluded — a caller's
/// lock cannot protect a callee's locals.
#[must_use]
pub fn intraproc_findings(
    cfg: &FileCfg,
    flow: &Flow,
    called: &BTreeSet<usize>,
    names: &Names,
) -> (Vec<Finding>, Vec<VarKey>) {
    // A local's key names its resolved symbol, so grouping by key alone is
    // file-wide for globals and receiver fields and per-function for
    // locals. The sort is stable: each group keeps flow order, and the
    // groups come in key order.
    let mut by_var: Vec<&Access> = flow.accesses.iter().collect();
    by_var.sort_by_key(|a| a.var);

    let mut rules = GroupRules {
        cfg,
        locksets: &flow.locksets,
        called,
        names,
        rlock_writes: Vec::new(),
        locks: Vec::new(),
    };
    let mut findings = Vec::new();
    let mut flagged = Vec::new();
    for group in by_var.chunk_by(|a, b| a.var == b.var) {
        let before = findings.len();
        rules.check(group, &mut findings);
        if findings.len() > before {
            flagged.push(group[0].var);
        }
    }
    findings.sort_by_key(|f| f.pos);
    (findings, flagged)
}

/// The locks a message names: their texts, sorted and comma-separated.
pub(crate) fn lock_names(
    locks: impl Iterator<Item = VarKey>,
    keys: &Keys,
    names: &Names,
) -> String {
    let mut texts: Vec<String> = locks.map(|k| keys.text(k, names)).collect();
    texts.sort();
    texts.join(", ")
}

/// What the group rules read, and the buffers they reuse from one group to
/// the next.
struct GroupRules<'a> {
    cfg: &'a FileCfg,
    locksets: &'a Locksets,
    called: &'a BTreeSet<usize>,
    names: &'a Names,
    /// Positions of the group's writes under `RLock` alone.
    rlock_writes: Vec<Pos>,
    /// A union or intersection of effective locks.
    locks: Vec<VarKey>,
}

impl GroupRules<'_> {
    /// Tests one variable's accesses (in flow order) against GR007–GR011.
    #[allow(clippy::too_many_lines)]
    fn check(&mut self, accs: &[&Access], findings: &mut Vec<Finding>) {
        let GroupRules {
            cfg,
            locksets,
            called,
            names,
            ref mut rlock_writes,
            ref mut locks,
        } = *self;
        let keys = &cfg.keys;
        let non_init = || accs.iter().copied().filter(|a| !a.init);
        let Some(first) = non_init().next() else {
            return;
        };
        let var = first.var;
        let display = || keys.spelling(first.spelled, var, names);
        let file_wide = keys.is_file_wide(var);
        // Evidence for the group rules: for a file-wide variable, accesses
        // made by functions that have in-file callers are judged
        // interprocedurally (along their call chains) instead of here.
        let scoped = || non_init().filter(move |a| !(file_wide && called.contains(&a.func_idx)));

        // Rule: a write while holding only Read-mode locks. Independent of
        // sharedness — holding RLock around a write is wrong on its face.
        rlock_writes.clear();
        for a in non_init() {
            let held = locksets.get(a.locks);
            if a.write
                && !a.atomic
                && !held.is_empty()
                && held.iter().all(|&(_, m)| m == LockMode::Read)
            {
                rlock_writes.push(a.pos);
                findings.push(Finding {
                    rule: Rule::WriteUnderRLock,
                    pos: a.pos,
                    func: names.text(a.func).to_string(),
                    message: format!(
                        "write to '{}' while holding {} in read (RLock) mode; \
                         RLock excludes writers but admits other readers — use Lock",
                        keys.spelling(a.spelled, a.var, names),
                        lock_names(held.iter().map(|&(k, _)| k), keys, names),
                    ),
                    chain: Vec::new(),
                });
            }
        }

        if !non_init().any(|a| a.write) {
            // Read-only data cannot race.
            return;
        }

        // Sharedness: two execution contexts, a self-concurrent goroutine,
        // or (for file-wide variables) any access that takes a lock. Judged
        // over the scoped evidence — called functions argue through their
        // chains.
        let mut ctxs = scoped().map(|a| (a.func_idx, a.ctx));
        let two_ctxs = ctxs.next().is_some_and(|c| ctxs.any(|d| d != c));
        let self_concurrent = scoped().any(|a| a.in_loop_spawn);
        let lock_signal = file_wide && scoped().any(|a| a.locks != Lockset::EMPTY);
        let shared = two_ctxs || self_concurrent || lock_signal;

        // Rule: sync/atomic mixed with plain accesses. The atomic call
        // itself is the sharedness signal.
        if non_init().any(|a| a.atomic) {
            if let Some(a) = non_init().find(|a| !a.atomic) {
                findings.push(Finding {
                    rule: Rule::AtomicMixedWithPlain,
                    pos: a.pos,
                    func: names.text(a.func).to_string(),
                    message: format!(
                        "'{}' is accessed with sync/atomic elsewhere but {} plainly here; \
                         atomic operations only synchronize with other atomic operations",
                        display(),
                        if a.write { "written" } else { "read" },
                    ),
                    chain: Vec::new(),
                });
                return;
            }
        }

        // Rule: double-checked locking — an unguarded if-condition read of
        // the variable whose guarded write sits inside that very branch.
        for r in non_init() {
            if r.write || r.guarded(locksets) {
                continue;
            }
            let Some(tag) = r.cond_of else { continue };
            let func = &cfg.funcs[r.func_idx];
            let dcl_write = non_init().any(|w| {
                w.write
                    && w.guarded(locksets)
                    && w.func_idx == r.func_idx
                    && func.branch_tags(w.block).any(|t| t == tag)
            });
            if dcl_write {
                findings.push(Finding {
                    rule: Rule::DoubleCheckedLocking,
                    pos: r.pos,
                    func: names.text(r.func).to_string(),
                    message: format!(
                        "double-checked locking on '{}': the fast-path read is \
                         unsynchronized while the write inside the branch holds a lock; \
                         the unlocked read can observe a partially-initialized value",
                        display(),
                    ),
                    chain: Vec::new(),
                });
                return;
            }
        }

        if !shared {
            return;
        }

        let guarded = || scoped().filter(|a| a.guarded(locksets));
        let Some(first_guarded) = guarded().next() else {
            return;
        };
        let effective_of = |a: &Access| effective(locksets.get(a.locks), a.write);

        let unguarded = scoped().find(|a| !a.guarded(locksets) && !rlock_writes.contains(&a.pos));
        if let Some(a) = unguarded {
            // Rule: guarded at some sites, bare at others.
            locks.clear();
            locks.extend(guarded().flat_map(effective_of));
            locks.sort_unstable();
            locks.dedup();
            findings.push(Finding {
                rule: Rule::MissingLock,
                pos: a.pos,
                func: names.text(a.func).to_string(),
                message: format!(
                    "'{}' is {} without a lock here but guarded by {} elsewhere",
                    display(),
                    if a.write { "written" } else { "read" },
                    lock_names(locks.iter().copied(), keys, names),
                ),
                chain: Vec::new(),
            });
            return;
        }

        // Rule: every site locks, but no lock is common to all of them.
        let mut others = guarded().skip(1).peekable();
        if others.peek().is_none() {
            return;
        }
        locks.clear();
        locks.extend(effective_of(first_guarded));
        for g in others {
            locks.retain(|&k| effective_of(g).any(|e| e == k));
        }
        if locks.is_empty() {
            findings.push(Finding {
                rule: Rule::InconsistentLock,
                pos: first_guarded.pos,
                func: names.text(first_guarded.func).to_string(),
                message: format!(
                    "every access to '{}' holds a lock, but no single lock is \
                     common to all of them — two sites can still run concurrently",
                    display(),
                ),
                chain: Vec::new(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::build_file;
    use crate::parser::parse_file;
    use crate::resolve::resolve_file;

    fn analyze(src: &str) -> Vec<Finding> {
        let file = parse_file(src).expect("parses");
        let res = resolve_file(&file);
        let cfg = build_file(&file, &res);
        let (flow, _) = flow(&cfg);
        intraproc_findings(&cfg, &flow, &BTreeSet::new(), &file.names).0
    }

    fn rules(src: &str) -> Vec<Rule> {
        analyze(src).into_iter().map(|f| f.rule).collect()
    }

    /// `hold`, `release`, `meet`, `join` and `union` over interned sets
    /// agree with the same operations on ordered maps and sets.
    #[test]
    fn lock_algebra_matches_a_map_model() {
        use std::collections::BTreeMap;

        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let file = parse_file("package p\nfunc f() { a.Lock(); b.Lock(); c.Lock(); d.Lock() }\n")
            .expect("parses");
        let cfg = build_file(&file, &resolve_file(&file));
        let keys: Vec<VarKey> = cfg.funcs[0]
            .events
            .iter()
            .filter_map(|e| match *e {
                Event::Acquire { lock, .. } => Some(lock),
                _ => None,
            })
            .collect();
        assert_eq!(keys.len(), 4);

        type Model = BTreeMap<VarKey, LockMode>;
        let flat = |m: &Model| m.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(0x10C5);
        let mut sets = Locksets::default();
        let mut pool: Vec<(Lockset, Model)> = vec![(Lockset::EMPTY, Model::new())];
        for step in 0..400 {
            let (set, mut model) = pool[rng.gen_range(0..pool.len())].clone();
            let lock = keys[rng.gen_range(0..keys.len())];
            let next = if rng.gen_bool(0.7) {
                let mode = if rng.gen_bool(0.5) {
                    LockMode::Read
                } else {
                    LockMode::Write
                };
                // The stronger mode stays.
                let held = model.entry(lock).or_insert(mode);
                *held = (*held).max(mode);
                hold(&mut sets, set, lock, mode)
            } else {
                model.remove(&lock);
                release(&mut sets, set, lock)
            };
            assert_eq!(sets.get(next), flat(&model), "step {step}");
            pool.push((next, model));
        }

        for step in 0..400 {
            let (a, ma) = &pool[rng.gen_range(0..pool.len())];
            let (b, mb) = &pool[rng.gen_range(0..pool.len())];
            let (a, b) = (*a, *b);
            // Meet: the common locks, at the weaker mode.
            let met: Model = ma
                .iter()
                .filter_map(|(k, &m)| Some((*k, m.min(*mb.get(k)?))))
                .collect();
            let ab = meet(&mut sets, a, b);
            assert_eq!(sets.get(ab), flat(&met), "step {step}");
            assert_eq!(meet(&mut sets, b, a), ab, "step {step}: commutative");
            assert_eq!(meet(&mut sets, a, a), a, "step {step}: idempotent");
            // Join: every lock of either, at the stronger mode.
            let mut joined = ma.clone();
            for (&k, &m) in mb {
                let held = joined.entry(k).or_insert(m);
                *held = (*held).max(m);
            }
            let joined_id = join(&mut sets, a, b);
            assert_eq!(sets.get(joined_id), flat(&joined), "step {step}");
        }

        let mut key_sets = KeySets::default();
        for step in 0..200 {
            let mut pick = |rng: &mut StdRng| {
                let set: BTreeSet<VarKey> =
                    keys.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
                let v: Vec<VarKey> = set.iter().copied().collect();
                (key_sets.intern(&v), set)
            };
            let ((a, sa), (b, sb)) = (pick(&mut rng), pick(&mut rng));
            let want: Vec<VarKey> = sa.union(&sb).copied().collect();
            let both = union(&mut key_sets, a, b);
            assert_eq!(key_sets.get(both), want, "step {step}");
        }
    }

    #[test]
    fn missing_lock_fires_on_partial_locking() {
        let racy = r"
package p
var version int
func Set(v int) {
    mu.Lock()
    version = v
    mu.Unlock()
}
func Get() int {
    return version
}
";
        assert!(rules(racy).contains(&Rule::MissingLock), "racy variant");
        let fixed = r"
package p
var version int
func Set(v int) {
    mu.Lock()
    version = v
    mu.Unlock()
}
func Get() int {
    mu.Lock()
    v := version
    mu.Unlock()
    return v
}
";
        assert!(rules(fixed).is_empty(), "fixed variant: {:?}", rules(fixed));
    }

    #[test]
    fn inconsistent_lock_requires_a_common_lock() {
        let racy = r"
package p
var total int
func Add(n int) {
    mu.Lock()
    total = total + n
    mu.Unlock()
}
func Reset() {
    other.Lock()
    total = 0
    other.Unlock()
}
";
        assert!(rules(racy).contains(&Rule::InconsistentLock));
        let fixed = r"
package p
var total int
func Add(n int) {
    mu.Lock()
    total = total + n
    mu.Unlock()
}
func Reset() {
    mu.Lock()
    total = 0
    mu.Unlock()
}
";
        assert!(rules(fixed).is_empty(), "{:?}", rules(fixed));
    }

    #[test]
    fn atomic_mixed_with_plain() {
        let racy = r"
package p
var ops int
func f() {
    go func() {
        atomic.AddInt64(&ops, 1)
    }()
    if ops > 10 {
        report(ops)
    }
}
";
        assert!(rules(racy).contains(&Rule::AtomicMixedWithPlain));
        let fixed = r"
package p
var ops int
func f() {
    go func() {
        atomic.AddInt64(&ops, 1)
    }()
    if atomic.LoadInt64(&ops) > 10 {
        report()
    }
}
";
        assert!(rules(fixed).is_empty(), "{:?}", rules(fixed));
    }

    #[test]
    fn double_checked_locking_shape() {
        let racy = r"
package p
var instance int
func Get() int {
    if instance == 0 {
        mu.Lock()
        if instance == 0 {
            instance = build()
        }
        mu.Unlock()
    }
    return instance
}
";
        let rs = rules(racy);
        assert!(rs.contains(&Rule::DoubleCheckedLocking), "{rs:?}");
        assert!(
            !rs.contains(&Rule::MissingLock),
            "DCL must subsume MissingLock: {rs:?}"
        );
        let fixed = r"
package p
var instance int
func Get() int {
    mu.Lock()
    defer mu.Unlock()
    if instance == 0 {
        instance = build()
    }
    return instance
}
";
        assert!(rules(fixed).is_empty(), "{:?}", rules(fixed));
    }

    #[test]
    fn write_under_rlock_uses_flow_not_text() {
        let racy = r"
package p
func (s *Store) bump() {
    s.mu.RLock()
    s.count = s.count + 1
    s.mu.RUnlock()
}
";
        assert!(rules(racy).contains(&Rule::WriteUnderRLock));
        // Write after the RUnlock: not under the read lock any more.
        let sequential = r"
package p
func (s *Store) bump() {
    s.mu.RLock()
    v := s.count
    s.mu.RUnlock()
    s.count = v + 1
}
";
        assert!(!rules(sequential).contains(&Rule::WriteUnderRLock));
    }

    #[test]
    fn defer_unlock_holds_to_exit() {
        let src = r"
package p
var version int
func Set(v int) {
    mu.Lock()
    defer mu.Unlock()
    if v > 0 {
        version = v
    }
}
func Get() int {
    mu.Lock()
    defer mu.Unlock()
    return version
}
";
        assert!(rules(src).is_empty(), "{:?}", rules(src));
    }

    #[test]
    fn rwmutex_read_write_split_is_fine() {
        // Reads under RLock, writes under Lock: the canonical correct use.
        let src = r"
package p
func (g *Gate) Ready() bool {
    g.mu.RLock()
    defer g.mu.RUnlock()
    return g.ready
}
func (g *Gate) Open() {
    g.mu.Lock()
    defer g.mu.Unlock()
    g.ready = true
}
";
        assert!(rules(src).is_empty(), "{:?}", rules(src));
    }

    #[test]
    fn local_without_goroutine_is_private() {
        let src = r"
package p
func f() {
    count := 0
    for i := 0; i < 10; i++ {
        count = count + 1
    }
    use(count)
}
";
        assert!(rules(src).is_empty(), "{:?}", rules(src));
    }

    #[test]
    fn captured_local_mixed_guarding_fires() {
        let src = r"
package p
func f() {
    count := 0
    go func() {
        mu.Lock()
        count = count + 1
        mu.Unlock()
    }()
    use(count)
}
";
        assert!(rules(src).contains(&Rule::MissingLock));
    }

    #[test]
    fn branch_join_keeps_only_common_locks() {
        // Lock taken on one arm only: the access after the join is
        // effectively unguarded, making the guarded write elsewhere a mix.
        let src = r"
package p
var n int
func f(c bool) {
    if c {
        mu.Lock()
    }
    n = n + 1
    mu.Unlock()
}
func g() {
    mu.Lock()
    n = 0
    mu.Unlock()
}
";
        assert!(rules(src).contains(&Rule::MissingLock), "{:?}", rules(src));
    }
}
