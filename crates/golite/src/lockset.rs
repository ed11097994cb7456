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
//!    the [`Flow`] table: every variable access and every in-file call with
//!    the locks held there. The call graph and the summaries read the same
//!    table, so "which locks are held here" is derived once per file. A
//!    `Read`-mode lock (`RLock`) protects reads but not writes, so a write
//!    under `RLock` has an empty *effective* set even though a lock is held.
//! 3. Accesses are grouped by variable identity — file-wide for globals
//!    and receiver fields, per-function for locals — and each group is
//!    tested against the locking rules (GR007–GR011) of [`Rule`].
//!
//! Sharedness is approximated the way Eraser does at warm-up: a variable
//! counts as shared once it is touched from two execution contexts, from a
//! goroutine spawned in a loop (concurrent with itself), or — for globals
//! and fields — once any access bothers to take a lock (the "lock signal":
//! somebody believed this needs protection). Declaration-initializer
//! writes are exempt from race evidence, mirroring Eraser's init phase.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use crate::ast::{Names, Sym};
use crate::callgraph::{CallSite, ParamCall};
use crate::cfg::{BlockId, CallTarget, Event, FuncCfg, LockMode, VarKey};
use crate::lint::{Finding, Rule};
use crate::names::FnvMap;
use crate::token::Pos;

/// Locks held at a program point, with the strongest mode held per lock.
pub type Lockset = BTreeMap<VarKey, LockMode>;

/// One variable access with every fact the locking rules read. [`flow`]
/// emits one per [`Event::Access`]; the summary layer propagates copies up
/// the call graph, folding each call site's facts into the fields marked
/// *(chain)* and leaving the rest describing the access where it stands.
#[derive(Debug, Clone, PartialEq)]
pub struct Access {
    /// The accessed variable.
    pub var: VarKey,
    /// Source spelling, for messages.
    pub display: String,
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
    /// Branch tags of the enclosing `if` regions.
    pub branch_tags: Vec<u32>,
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
    pub dropped: BTreeSet<VarKey>,
    /// *(chain)*: the `(callee, call position)` hops the access was reached
    /// through. Empty for an access where it stands.
    pub chain: Vec<(Sym, Pos)>,
}

impl Access {
    /// True when at least one lock protects the access.
    #[must_use]
    pub fn guarded(&self) -> bool {
        !effective(&self.locks, self.write).is_empty()
    }
}

/// Locks of `held` that actually protect an access: a `Read`-mode lock
/// excludes writers only, so it protects reads but not writes.
pub(crate) fn effective(held: &Lockset, write: bool) -> BTreeSet<VarKey> {
    held.iter()
        .filter(|(_, m)| **m == LockMode::Write || !write)
        .map(|(k, _)| k.clone())
        .collect()
}

/// Computes the lockset at each block entry of `cfg` by forward fixpoint.
///
/// `None` marks an unreachable block. Each context starts empty at its
/// entry (a goroutine inherits no locks — Go locks are not reentrant and
/// the spawner's critical section does not extend into the child).
fn block_entry_locksets(cfg: &FuncCfg) -> Vec<Option<Lockset>> {
    let mut insets: Vec<Option<Lockset>> = vec![None; cfg.blocks.len()];
    let mut work: VecDeque<BlockId> = VecDeque::new();
    for ctx in &cfg.contexts {
        insets[ctx.entry.0] = Some(Lockset::new());
        work.push_back(ctx.entry);
    }
    while let Some(b) = work.pop_front() {
        let mut out = insets[b.0].clone().unwrap_or_default();
        for e in &cfg.blocks[b.0].events {
            apply(&mut out, e);
        }
        for &s in &cfg.blocks[b.0].succs {
            let merged = match &insets[s.0] {
                None => out.clone(),
                Some(prev) => meet(prev, &out),
            };
            if insets[s.0].as_ref() != Some(&merged) {
                insets[s.0] = Some(merged);
                work.push_back(s);
            }
        }
    }
    insets
}

/// The transfer function: what one event does to the set of locks held.
fn apply(set: &mut Lockset, e: &Event) {
    match e {
        Event::Acquire { lock, mode, .. } => hold(set, lock, *mode),
        Event::Release { lock, .. } => {
            set.remove(lock);
        }
        Event::Access { .. } | Event::Call { .. } => {}
    }
}

/// Adds `lock` to `set`, keeping the stronger mode when already held.
pub(crate) fn hold(set: &mut Lockset, lock: &VarKey, mode: LockMode) {
    let entry = set.entry(lock.clone()).or_insert(mode);
    if mode > *entry {
        *entry = mode;
    }
}

/// Join operator: a lock survives a merge only if held on both paths, at
/// the weaker of the two modes.
fn meet(a: &Lockset, b: &Lockset) -> Lockset {
    a.iter()
        .filter_map(|(k, ma)| b.get(k).map(|mb| (k.clone(), (*ma).min(*mb))))
        .collect()
}

/// The flow table of one file: every access and every in-file call with
/// the locks held there. All the locking rules, intra- and
/// interprocedural, read this one table.
#[derive(Debug, Default)]
pub struct Flow {
    /// Every access of every reachable block, in function → block → event
    /// order.
    pub accesses: Vec<Access>,
    /// Every call that resolves to a bodied function of the file, in
    /// caller → context → block → event order.
    pub sites: Vec<CallSite>,
    /// Calls through function-typed parameters.
    pub param_calls: Vec<ParamCall>,
}

/// Builds the [`Flow`] table: one lockset fixpoint per function, then one
/// walk of each block's events against the running lockset.
///
/// The two orders are load-bearing: the interprocedural layer dedups
/// accesses and findings keeping the first seen, and caps a summary's size,
/// so a different order would report a different (equally valid) witness.
#[must_use]
pub fn flow(cfgs: &[FuncCfg]) -> Flow {
    // `(receiver type, name)` → function; the first declaration wins.
    let mut by_name: FnvMap<(Option<Sym>, Sym), usize> = FnvMap::default();
    for (i, c) in cfgs.iter().enumerate() {
        by_name.entry((c.recv_type, c.func)).or_insert(i);
    }

    let mut out = Flow::default();
    for (func_idx, cfg) in cfgs.iter().enumerate() {
        let insets = block_entry_locksets(cfg);
        let first_site = out.sites.len();
        // Locks acquired so far in each context, in block-creation order
        // (which tracks execution order for straight-line code — the shape
        // the dropped-lock rule targets).
        let mut ever: Vec<BTreeSet<VarKey>> = vec![BTreeSet::new(); cfg.contexts.len()];
        for (bid, block) in cfg.blocks.iter().enumerate() {
            // Unreachable blocks (code after return/break) carry no races.
            let Some(entry) = &insets[bid] else { continue };
            let mut cur = entry.clone();
            let ctx = &cfg.contexts[block.ctx as usize];
            for e in &block.events {
                apply(&mut cur, e);
                match e {
                    Event::Acquire { lock, .. } => {
                        ever[block.ctx as usize].insert(lock.clone());
                    }
                    Event::Release { .. } => {}
                    Event::Access {
                        var,
                        display,
                        write,
                        atomic,
                        init,
                        cond_of,
                        indexed,
                        pos,
                    } => out.accesses.push(Access {
                        var: var.clone(),
                        display: display.clone(),
                        write: *write,
                        atomic: *atomic,
                        init: *init,
                        cond_of: *cond_of,
                        indexed: *indexed,
                        branch_tags: block.branch_tags.clone(),
                        pos: *pos,
                        func: cfg.func,
                        func_idx,
                        ctx: block.ctx,
                        locks: cur.clone(),
                        spawned: block.ctx != 0,
                        in_loop_spawn: ctx.in_loop,
                        spawn_pos: ctx.spawn_pos,
                        dropped: BTreeSet::new(),
                        chain: Vec::new(),
                    }),
                    Event::Call {
                        target,
                        spawned,
                        in_loop,
                        closure_args,
                        var_args,
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
                        out.sites.push(CallSite {
                            caller: func_idx,
                            callee,
                            pos: *pos,
                            ctx: block.ctx,
                            spawned: site_spawned,
                            spawn_pos: if *spawned { Some(*pos) } else { ctx.spawn_pos },
                            in_loop: *in_loop || ctx.in_loop,
                            locks: cur.clone(),
                            dropped: ever[block.ctx as usize]
                                .iter()
                                .filter(|l| !cur.contains_key(*l))
                                .cloned()
                                .collect(),
                            closure_args: closure_args.clone(),
                            var_args: var_args.clone(),
                        });
                    }
                }
            }
        }
        // A goroutine body's blocks are created between its spawner's.
        out.sites[first_site..].sort_by_key(|s| s.ctx);
    }
    out
}

/// Runs the intraprocedural rules (GR007–GR011) over the flow table's
/// accesses, excluding the *file-wide* group evidence contributed by the
/// functions in `called` (by index into the CFG list). Returns the findings
/// sorted by position, and the variables they are about (so the
/// interprocedural layer does not report a variable already flagged here).
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
    accesses: &[Access],
    called: &BTreeSet<usize>,
    names: &Names,
) -> (Vec<Finding>, BTreeSet<VarKey>) {
    // A local's key names its resolved symbol, so grouping by key alone is
    // file-wide for globals and receiver fields and per-function for locals.
    let mut groups: HashMap<&VarKey, Vec<&Access>> = HashMap::new();
    for a in accesses {
        groups.entry(&a.var).or_default().push(a);
    }

    let mut findings = Vec::new();
    let mut flagged = BTreeSet::new();
    for (&var, accs) in &groups {
        let before = findings.len();
        check_group(var, accs, called, names, &mut findings);
        if findings.len() > before {
            flagged.insert(var.clone());
        }
    }
    findings.sort_by_key(|f| f.pos);
    (findings, flagged)
}

pub(crate) fn lock_names(set: &BTreeSet<VarKey>) -> String {
    let mut names: Vec<String> = set.iter().map(key_display).collect();
    names.sort();
    names.join(", ")
}

pub(crate) fn key_display(k: &VarKey) -> String {
    match &k.root {
        crate::cfg::VarRoot::Global(n) => format!("{n}{}", k.path),
        crate::cfg::VarRoot::Field(t) => format!("{t}{}", k.path),
        crate::cfg::VarRoot::Local(_) => k.path.trim_start_matches('.').to_string(),
    }
}

#[allow(clippy::too_many_lines)]
fn check_group(
    var: &VarKey,
    accs: &[&Access],
    called: &BTreeSet<usize>,
    names: &Names,
    findings: &mut Vec<Finding>,
) {
    let non_init: Vec<&&Access> = accs.iter().filter(|a| !a.init).collect();
    if non_init.is_empty() {
        return;
    }
    let display = non_init[0].display.clone();
    // Evidence for the group rules: for a file-wide variable, accesses made
    // by functions that have in-file callers are judged interprocedurally
    // (along their call chains) instead of here.
    let scoped: Vec<&&Access> = non_init
        .iter()
        .filter(|a| !(var.is_file_wide() && called.contains(&a.func_idx)))
        .copied()
        .collect();

    // Rule: a write while holding only Read-mode locks. Independent of
    // sharedness — holding RLock around a write is wrong on its face.
    let mut rlock_write_positions = BTreeSet::new();
    for a in &non_init {
        if a.write
            && !a.atomic
            && !a.locks.is_empty()
            && a.locks.values().all(|m| *m == LockMode::Read)
        {
            rlock_write_positions.insert(a.pos);
            findings.push(Finding {
                rule: Rule::WriteUnderRLock,
                pos: a.pos,
                func: names.text(a.func).to_string(),
                message: format!(
                    "write to '{}' while holding {} in read (RLock) mode; \
                     RLock excludes writers but admits other readers — use Lock",
                    a.display,
                    lock_names(&a.locks.keys().cloned().collect()),
                ),
                chain: Vec::new(),
            });
        }
    }

    if !non_init.iter().any(|a| a.write) {
        // Read-only data cannot race.
        return;
    }

    // Sharedness: two execution contexts, a self-concurrent goroutine, or
    // (for file-wide variables) any access that takes a lock. Judged over
    // the scoped evidence — called functions argue through their chains.
    let ctxs: BTreeSet<(usize, u32)> = scoped.iter().map(|a| (a.func_idx, a.ctx)).collect();
    let self_concurrent = scoped.iter().any(|a| a.in_loop_spawn);
    let lock_signal = var.is_file_wide() && scoped.iter().any(|a| !a.locks.is_empty());
    let shared = ctxs.len() >= 2 || self_concurrent || lock_signal;

    // Rule: sync/atomic mixed with plain accesses. The atomic call itself
    // is the sharedness signal.
    let atomics: Vec<_> = non_init.iter().filter(|a| a.atomic).collect();
    let plains: Vec<_> = non_init.iter().filter(|a| !a.atomic).collect();
    if !atomics.is_empty() && !plains.is_empty() {
        let a = plains[0];
        findings.push(Finding {
            rule: Rule::AtomicMixedWithPlain,
            pos: a.pos,
            func: names.text(a.func).to_string(),
            message: format!(
                "'{}' is accessed with sync/atomic elsewhere but {} plainly here; \
                 atomic operations only synchronize with other atomic operations",
                display,
                if a.write { "written" } else { "read" },
            ),
            chain: Vec::new(),
        });
        return;
    }

    // Rule: double-checked locking — an unguarded if-condition read of the
    // variable whose guarded write sits inside that very branch.
    for r in &non_init {
        if r.write || r.guarded() {
            continue;
        }
        let Some(tag) = r.cond_of else { continue };
        let dcl_write = non_init.iter().any(|w| {
            w.write && w.guarded() && w.func_idx == r.func_idx && w.branch_tags.contains(&tag)
        });
        if dcl_write {
            findings.push(Finding {
                rule: Rule::DoubleCheckedLocking,
                pos: r.pos,
                func: names.text(r.func).to_string(),
                message: format!(
                    "double-checked locking on '{display}': the fast-path read is \
                     unsynchronized while the write inside the branch holds a lock; \
                     the unlocked read can observe a partially-initialized value",
                ),
                chain: Vec::new(),
            });
            return;
        }
    }

    if !shared {
        return;
    }

    let guarded: Vec<_> = scoped.iter().filter(|a| a.guarded()).collect();
    let unguarded: Vec<_> = scoped
        .iter()
        .filter(|a| !a.guarded() && !rlock_write_positions.contains(&a.pos))
        .collect();

    if !guarded.is_empty() && !unguarded.is_empty() {
        // Rule: guarded at some sites, bare at others.
        let a = unguarded[0];
        let locks: BTreeSet<VarKey> = guarded
            .iter()
            .flat_map(|g| effective(&g.locks, g.write).into_iter())
            .collect();
        findings.push(Finding {
            rule: Rule::MissingLock,
            pos: a.pos,
            func: names.text(a.func).to_string(),
            message: format!(
                "'{}' is {} without a lock here but guarded by {} elsewhere",
                display,
                if a.write { "written" } else { "read" },
                lock_names(&locks),
            ),
            chain: Vec::new(),
        });
        return;
    }

    if unguarded.is_empty() && guarded.len() >= 2 {
        // Rule: every site locks, but no lock is common to all of them.
        let mut common: Option<BTreeSet<VarKey>> = None;
        for g in &guarded {
            let eff = effective(&g.locks, g.write);
            common = Some(match common {
                None => eff,
                Some(c) => c.intersection(&eff).cloned().collect(),
            });
        }
        if common.as_ref().is_some_and(BTreeSet::is_empty) {
            let a = guarded[0];
            findings.push(Finding {
                rule: Rule::InconsistentLock,
                pos: a.pos,
                func: names.text(a.func).to_string(),
                message: format!(
                    "every access to '{display}' holds a lock, but no single lock is \
                     common to all of them — two sites can still run concurrently",
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
        let flow = flow(&build_file(&file, &res));
        intraproc_findings(&flow.accesses, &BTreeSet::new(), &file.names).0
    }

    fn rules(src: &str) -> Vec<Rule> {
        analyze(src).into_iter().map(|f| f.rule).collect()
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
