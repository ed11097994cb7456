//! Bottom-up per-function summaries and the interprocedural race rules.
//!
//! Each function gets a [`FuncSummary`]: the file-wide rows of the
//! [`Flow`] table reachable from it, each the same [`Access`] record with
//! the caller's locks at each call site on the way added to its own (a
//! spawned call inherits nothing), whether it runs on a spawned goroutine,
//! and the call chain it was reached through. Summaries are computed
//! bottom-up over the call graph's SCCs, iterating each component to a
//! fixpoint so recursion and mutual calls converge (the per-access dedup
//! keeps the *shortest* chain, which is what makes the fixpoint finite).
//! A chain is an id into the file's [`Chains`], interned like the
//! locksets, so copying an access copies no chain.
//!
//! Three effect sets ride along for the escape rules:
//!
//! * `spawns_params` — function-typed parameters the callee launches with
//!   `go` (directly or through further calls),
//! * `map_write_params` / `spawned_map_write_params` — map-typed
//!   parameters the callee writes through an index expression, serially
//!   or from a spawned goroutine.
//!
//! [`interproc_findings`] then evaluates the cross-function rules — the
//! interprocedural halves of MissingLock/InconsistentLock, escaping
//! captures handed to spawning helpers, locks dropped before a call that
//! touches the protected state, maps handed to callees that fill them
//! concurrently, and spawned call chains unsynchronized with the parent
//! (gated by [`Mhp`] so a `Wait`/receive between spawn and access
//! suppresses the report).

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use grs_clock::{SliceId, SliceTable};

use crate::ast::{sym, Names, Sym};
use crate::callgraph::{CallGraph, CallSite};
use crate::cfg::{FileCfg, VarKey, VarRoot};
use crate::lint::{Finding, Rule};
use crate::lockset::{self, effective, lock_names, Access, Flow, KeySets, Lockset, Locksets};
use crate::mhp::Mhp;
use crate::resolve::{Resolution, SymbolKind};
use crate::token::Pos;

/// Chains deeper than this stop propagating (they add no new evidence the
/// shorter prefixes have not already contributed).
const MAX_CHAIN: usize = 8;
/// Per-function access cap, bounding summary growth on generated code.
const MAX_ACCESSES: usize = 200;

/// The `(callee, call position)` hops an access was reached through, first
/// hop first: an id into its file's [`Chains`].
pub type Chain = SliceId<(Sym, Pos)>;
/// The call chains of one file.
pub type Chains = SliceTable<(Sym, Pos)>;

/// `rest` entered through a call of `callee` at `pos`.
fn push_front(chains: &mut Chains, callee: Sym, pos: Pos, rest: Chain) -> Chain {
    chains.make(|t, buf| {
        buf.push((callee, pos));
        buf.extend_from_slice(t.get(rest));
    })
}

/// Two chains as they sort: callee names compare as text (a [`Sym`] orders
/// by first occurrence, and this order picks the reported witness).
fn cmp_chains(chains: &Chains, a: Chain, b: Chain, names: &Names) -> Ordering {
    let key = |c| {
        chains
            .get(c)
            .iter()
            .map(|&(callee, pos)| (names.text(callee), pos))
    };
    key(a).cmp(key(b))
}

/// `chain` as a finding carries it.
fn render_chain(chains: &Chains, chain: Chain, names: &Names) -> Vec<(String, Pos)> {
    chains
        .get(chain)
        .iter()
        .map(|&(callee, pos)| (names.text(callee).to_string(), pos))
        .collect()
}

/// The bottom-up summary of one function.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FuncSummary {
    /// File-wide accesses reachable from this function as seen from its
    /// entry: its own, and its callees' with every call site's facts on
    /// the way folded in.
    pub accesses: Vec<Access>,
    /// Parameter indices launched as goroutines (transitively).
    pub spawns_params: BTreeSet<usize>,
    /// Parameter indices written through `m[k] = v`, serially.
    pub map_write_params: BTreeSet<usize>,
    /// Parameter indices written through `m[k] = v` from a spawned
    /// goroutine (directly or in a callee).
    pub spawned_map_write_params: BTreeSet<usize>,
}

/// The tables the summaries' accesses point into.
#[derive(Debug)]
pub struct SummaryTables {
    /// The flow table's locksets, plus those the call sites' locks add.
    pub locksets: Locksets,
    /// The flow table's released-lock sets, plus their unions along chains.
    pub dropped: KeySets,
    /// Every chain an access was reached through.
    pub chains: Chains,
}

/// Summaries for every bodied function of a file.
#[derive(Debug)]
pub struct Summaries {
    /// One summary per CFG, aligned with the CFG list.
    pub funcs: Vec<FuncSummary>,
    /// What their accesses' ids mean.
    pub tables: SummaryTables,
}

impl Summaries {
    /// Computes all summaries bottom-up over `cg`'s SCCs.
    #[must_use]
    pub fn compute(cfg: &FileCfg, flow: Flow, cg: &CallGraph, names: &Names) -> Summaries {
        let own = own_summaries(cfg, &flow);
        let mut sums = Summaries {
            funcs: own.clone(),
            tables: SummaryTables {
                locksets: flow.locksets,
                dropped: flow.dropped,
                chains: Chains::default(),
            },
        };

        for scc in cg.sccs() {
            // Non-trivial components iterate to a fixpoint; singletons
            // without a self-loop converge in one pass.
            let cyclic = scc.len() > 1 || cg.callees_of(scc[0]).contains(&scc[0]);
            for _ in 0..10 {
                let mut changed = false;
                for &f in &scc {
                    let mut next = own[f].clone();
                    for site in cg.sites_from(f) {
                        let callee = &sums.funcs[site.callee];
                        incorporate(&mut next, site, callee, cfg, &mut sums.tables);
                    }
                    dedup_accesses(&mut next.accesses, &sums.tables, names);
                    if next != sums.funcs[f] {
                        sums.funcs[f] = next;
                        changed = true;
                    }
                }
                if !changed || !cyclic {
                    break;
                }
            }
        }
        sums
    }
}

/// The call-free part of every summary: each function's own file-wide
/// accesses and direct parameter effects.
fn own_summaries(cfg: &FileCfg, flow: &Flow) -> Vec<FuncSummary> {
    let mut out = vec![FuncSummary::default(); cfg.funcs.len()];
    for a in flow.accesses.iter().filter(|a| !a.init) {
        let s = &mut out[a.func_idx];
        if cfg.keys.is_file_wide(a.var) {
            s.accesses.push(*a);
        } else if a.write && a.indexed {
            // `m[k] = v` where m is a parameter: a map-write effect.
            if let VarRoot::Local(sym) = cfg.keys.root(a.var) {
                if let Some(j) = cfg.funcs[a.func_idx].param_index(sym) {
                    if a.spawned {
                        s.spawned_map_write_params.insert(j);
                    } else {
                        s.map_write_params.insert(j);
                    }
                }
            }
        }
    }
    for pc in flow.param_calls.iter().filter(|pc| pc.spawned) {
        out[pc.caller].spawns_params.insert(pc.param);
    }
    out
}

/// Folds one call site's view of the callee summary into `next`.
fn incorporate(
    next: &mut FuncSummary,
    site: &CallSite,
    callee: &FuncSummary,
    cfg: &FileCfg,
    t: &mut SummaryTables,
) {
    let callee_name = cfg.funcs[site.callee].func;
    for mut a in callee.accesses.iter().copied() {
        if t.chains.get(a.chain).len() >= MAX_CHAIN || next.accesses.len() >= MAX_ACCESSES * 2 {
            continue;
        }
        if site.spawned {
            // A spawned callee starts on a fresh goroutine: none of the
            // caller's locks extend into it.
            a.spawn_pos = site.spawn_pos;
        } else {
            a.locks = lockset::join(&mut t.locksets, a.locks, site.locks);
            if a.spawned {
                // The callee spawns internally; from here, the spawn
                // happens at the call site.
                a.spawn_pos = Some(site.pos);
            }
        }
        a.spawned |= site.spawned;
        a.in_loop_spawn |= site.spawned && site.in_loop;
        a.dropped = lockset::union(&mut t.dropped, a.dropped, site.dropped);
        a.chain = push_front(&mut t.chains, callee_name, site.pos, a.chain);
        next.accesses.push(a);
    }

    // Parameter-to-parameter effect propagation: passing our own
    // parameter into an effectful slot of the callee gives us the effect.
    for &(idx, key, _) in &site.args(cfg).vars {
        let VarRoot::Local(sym) = cfg.keys.root(key) else {
            continue;
        };
        let Some(j) = cfg.funcs[site.caller].param_index(sym) else {
            continue;
        };
        if callee.spawns_params.contains(&idx) {
            next.spawns_params.insert(j);
        }
        if callee.map_write_params.contains(&idx) {
            if site.spawned {
                next.spawned_map_write_params.insert(j);
            } else {
                next.map_write_params.insert(j);
            }
        }
        if callee.spawned_map_write_params.contains(&idx) {
            next.spawned_map_write_params.insert(j);
        }
    }
}

/// Keeps one access per `(var, pos, write, atomic, locks, spawned)` — the
/// one with the shortest chain — in a deterministic order.
fn dedup_accesses(accesses: &mut Vec<Access>, t: &SummaryTables, names: &Names) {
    accesses.sort_by(|x, y| {
        (x.var, x.pos, x.write, x.atomic)
            .cmp(&(y.var, y.pos, y.write, y.atomic))
            .then_with(|| t.locksets.get(x.locks).cmp(t.locksets.get(y.locks)))
            .then_with(|| {
                (x.spawned, t.chains.get(x.chain).len())
                    .cmp(&(y.spawned, t.chains.get(y.chain).len()))
            })
            .then_with(|| cmp_chains(&t.chains, x.chain, y.chain, names))
    });
    accesses.dedup_by(|b, a| {
        a.var == b.var
            && a.pos == b.pos
            && a.write == b.write
            && a.atomic == b.atomic
            && a.locks == b.locks
            && a.spawned == b.spawned
    });
    accesses.truncate(MAX_ACCESSES);
}

/// Evaluates GR013–GR018 over the summaries.
///
/// `skip_vars` holds the variables already reported by the intraprocedural
/// lockset pass, sorted — one diagnostic per variable, the sharper one
/// wins.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn interproc_findings(
    res: &Resolution,
    cfg: &FileCfg,
    cg: &CallGraph,
    sums: &Summaries,
    mhp: &Mhp,
    skip_vars: &[VarKey],
    names: &Names,
) -> Vec<Finding> {
    let t = &sums.tables;
    let text = |name: Sym| names.text(name).to_string();
    let render = |chain: Chain| render_chain(&t.chains, chain, names);
    let skipped = |var: &VarKey| skip_vars.binary_search(var).is_ok();
    // Each finding rides with the variable it is about (when it is about
    // one) until `dedup_findings` has keyed on it.
    let mut findings: Vec<(Option<VarKey>, Finding)> = Vec::new();

    // GR015: a closure capturing a loop variable (or `err`) passed to a
    // helper that launches it on a goroutine — the capture escapes the
    // iteration exactly like a direct `go func(){...}()` would.
    for site in &cg.sites {
        for (idx, lit_pos) in &site.args(cfg).closures {
            if !sums.funcs[site.callee].spawns_params.contains(idx) {
                continue;
            }
            for &sym in res.captures_at(*lit_pos) {
                let s = res.symbol(sym);
                let risky = s.kind == SymbolKind::LoopVar || s.name == sym::ERR;
                if !risky {
                    continue;
                }
                let callee_name = text(cfg.funcs[site.callee].func);
                findings.push((
                    None,
                    Finding {
                        rule: Rule::EscapingCaptureToSpawner,
                        pos: *lit_pos,
                        func: text(cfg.funcs[site.caller].func),
                        message: format!(
                            "closure captures '{}' by reference and escapes into \
                         '{}', which launches it as a goroutine; every spawn \
                         shares the same variable",
                            names.text(s.name),
                            callee_name,
                        ),
                        chain: vec![(callee_name.clone(), site.pos)],
                    },
                ));
            }
        }
    }

    // GR017: handing a map we own to a callee that fills it from spawned
    // goroutines. Reported at the owner only — a callee passing its own
    // parameter along propagates the effect instead.
    for site in &cg.sites {
        for &(idx, key, spelled) in &site.args(cfg).vars {
            if !sums.funcs[site.callee]
                .spawned_map_write_params
                .contains(&idx)
            {
                continue;
            }
            if let VarRoot::Local(sym) = cfg.keys.root(key) {
                if cfg.funcs[site.caller].param_index(sym).is_some() {
                    continue;
                }
            }
            if skipped(&key) {
                continue;
            }
            let callee_name = text(cfg.funcs[site.callee].func);
            findings.push((
                Some(key),
                Finding {
                    rule: Rule::SpawnInCalleeMapWrite,
                    pos: site.pos,
                    func: text(cfg.funcs[site.caller].func),
                    message: format!(
                        "map '{}' is passed to '{callee_name}', which writes it \
                     from goroutines spawned there; concurrent map writes are a \
                     runtime fault in Go",
                        cfg.keys.spelling(spelled, key, names),
                    ),
                    chain: vec![(callee_name.clone(), site.pos)],
                },
            ));
        }
    }

    // Group rules over root-expanded accesses: every analysis root
    // contributes the accesses reachable from it, with chain context. The
    // sort is stable: a group keeps root order, groups come in key order.
    let mut rows: Vec<(usize, &Access)> = Vec::new();
    for &r in &cg.roots() {
        rows.extend(sums.funcs[r].accesses.iter().map(|a| (r, a)));
    }
    rows.sort_by_key(|(_, a)| a.var);
    let mut unguarded: Vec<(usize, &Access)> = Vec::new();
    let mut guard_locks: Vec<VarKey> = Vec::new();

    for accs in rows.chunk_by(|(_, x), (_, y)| x.var == y.var) {
        let var = accs[0].1.var;
        if skipped(&var) {
            continue;
        }
        // Purely intraprocedural evidence was already judged by the
        // lockset pass; atomics belong to its atomic-mixing rule.
        if accs.iter().all(|(_, a)| a.chain == Chain::EMPTY) {
            continue;
        }
        if accs.iter().any(|(_, a)| a.atomic) {
            continue;
        }
        if !accs.iter().any(|(_, a)| a.write) {
            continue;
        }
        let display = cfg.keys.spelling(accs[0].1.spelled, var, names);

        let two_roots = accs.iter().any(|&(r, _)| r != accs[0].0);
        let spawned_any = accs.iter().any(|(_, a)| a.spawned);
        let loop_spawn = accs.iter().any(|(_, a)| a.in_loop_spawn);
        let lock_signal = accs.iter().any(|(_, a)| a.locks != Lockset::EMPTY);
        if !two_roots && !spawned_any && !loop_spawn && !lock_signal {
            continue;
        }

        let effective_of = |a: &Access| effective(t.locksets.get(a.locks), a.write);
        let guarded = || accs.iter().filter(|(_, a)| a.guarded(&t.locksets));
        unguarded.clear();
        unguarded.extend(accs.iter().filter(|(_, a)| !a.guarded(&t.locksets)));
        unguarded.sort_by_key(|(_, a)| (a.pos, t.chains.get(a.chain).len()));
        let any_guarded = guarded().next().is_some();

        if any_guarded && !unguarded.is_empty() {
            guard_locks.clear();
            guard_locks.extend(guarded().flat_map(|(_, a)| effective_of(a)));
            guard_locks.sort_unstable();
            guard_locks.dedup();
            // GR016: the bare chain had one of the guarding locks, but it
            // was released before the call was made.
            let dropped_guard = unguarded.iter().find_map(|&(root, a)| {
                if a.chain == Chain::EMPTY {
                    return None;
                }
                let held_before = t.dropped.get(a.dropped).iter();
                let lock = held_before
                    .copied()
                    .find(|k| guard_locks.binary_search(k).is_ok())?;
                Some((root, a, lock))
            });
            if let Some((root, a, lock)) = dropped_guard {
                let (_, first_call) = t.chains.get(a.chain)[0];
                findings.push((
                    Some(var),
                    Finding {
                        rule: Rule::LockDroppedBeforeCall,
                        pos: first_call,
                        func: text(cfg.funcs[root].func),
                        message: format!(
                            "'{}' is accessed in '{}' after {} was released — the \
                         call runs outside the critical section that guards \
                         '{}' elsewhere",
                            display,
                            names.text(a.func),
                            cfg.keys.text(lock, names),
                            display,
                        ),
                        chain: render(a.chain),
                    },
                ));
            } else {
                // GR013: bare here, guarded along other chains.
                let (_, bare) = unguarded[0];
                let note_chain = if bare.chain == Chain::EMPTY {
                    guarded()
                        .filter(|(_, g)| g.chain != Chain::EMPTY)
                        .min_by_key(|(_, g)| t.chains.get(g.chain).len())
                        .map(|(_, g)| render(g.chain))
                        .unwrap_or_default()
                } else {
                    render(bare.chain)
                };
                findings.push((
                    Some(var),
                    Finding {
                        rule: Rule::InterprocMissingLock,
                        pos: bare.pos,
                        func: text(bare.func),
                        message: format!(
                            "'{}' is {} without a lock here but guarded by {} on \
                         other call paths",
                            display,
                            if bare.write { "written" } else { "read" },
                            lock_names(guard_locks.iter().copied(), &cfg.keys, names),
                        ),
                        chain: note_chain,
                    },
                ));
            }
        } else if unguarded.is_empty() && guarded().nth(1).is_some() {
            // GR014: every chain locks, but no lock is common to all.
            let mut all = guarded();
            let (_, first) = all.next().expect("two guarded accesses");
            guard_locks.clear();
            guard_locks.extend(effective_of(first));
            for (_, g) in all {
                guard_locks.retain(|&k| effective_of(g).any(|e| e == k));
            }
            if guard_locks.is_empty() {
                let (_, a) = guarded()
                    .min_by(|(_, x), (_, y)| {
                        (x.pos, t.chains.get(x.chain).len())
                            .cmp(&(y.pos, t.chains.get(y.chain).len()))
                            .then_with(|| cmp_chains(&t.chains, x.chain, y.chain, names))
                    })
                    .expect("nonempty guarded");
                findings.push((
                    Some(var),
                    Finding {
                        rule: Rule::InterprocInconsistentLock,
                        pos: a.pos,
                        func: text(a.func),
                        message: format!(
                            "every call path to '{display}' holds a lock, but no \
                         single lock is common to all of them — two chains can \
                         still run concurrently",
                        ),
                        chain: render(a.chain),
                    },
                ));
            }
        } else if !any_guarded && !lock_signal {
            // GR018: a spawned chain writes, the parent touches the same
            // variable afterward, and no join orders the two.
            'pairs: for (r, w) in accs.iter().filter(|(_, a)| {
                a.spawned && a.write && a.chain != Chain::EMPTY && a.spawn_pos.is_some()
            }) {
                let sp = w.spawn_pos.expect("filtered on spawn_pos");
                for (_, b) in accs.iter().filter(|(r2, b)| r2 == r && !b.spawned) {
                    if mhp.may_parallel(*r, sp, b.pos) {
                        let (through, _) = t.chains.get(w.chain)[0];
                        findings.push((
                            Some(var),
                            Finding {
                                rule: Rule::UnsyncedSpawnedCall,
                                pos: sp,
                                func: text(cfg.funcs[*r].func),
                                message: format!(
                                    "goroutine spawned here writes '{}' through \
                                 '{}' while '{}' also accesses it at line {} \
                                 with no synchronization in between",
                                    display,
                                    names.text(through),
                                    names.text(cfg.funcs[*r].func),
                                    b.pos.line,
                                ),
                                chain: render(w.chain),
                            },
                        ));
                        break 'pairs;
                    }
                }
            }
        }
    }

    dedup_findings(findings)
}

/// One finding per `(rule, var, line)`, keeping the shortest chain, in
/// deterministic (path-independent) order.
fn dedup_findings(findings: Vec<(Option<VarKey>, Finding)>) -> Vec<Finding> {
    let mut best: BTreeMap<(&'static str, Option<VarKey>, u32), Finding> = BTreeMap::new();
    for (var, f) in findings {
        let key = (f.rule.id(), var, f.pos.line);
        match best.get(&key) {
            Some(old) if old.chain.len() <= f.chain.len() => {}
            _ => {
                best.insert(key, f);
            }
        }
    }
    let mut out: Vec<Finding> = best.into_values().collect();
    out.sort_by_key(|f| (f.pos, f.rule.id()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::build_file;
    use crate::parser::parse_file;
    use crate::resolve::resolve_file;

    fn inter_rules(src: &str) -> Vec<Rule> {
        let file = parse_file(src).expect("parses");
        let res = resolve_file(&file);
        let cfg = build_file(&file, &res);
        let (flow, cg) = lockset::flow(&cfg);
        let sums = Summaries::compute(&cfg, flow, &cg, &file.names);
        let mhp = Mhp::build(&file);
        interproc_findings(&res, &cfg, &cg, &sums, &mhp, &[], &file.names)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn helper_hidden_lock_is_missing_lock_through_the_chain() {
        let racy = r"
package p
var mu sync.Mutex
var count int
func Incr() {
    mu.Lock()
    bump()
    mu.Unlock()
}
func bump() {
    count = count + 1
}
func Read() int {
    return count
}
";
        assert!(
            inter_rules(racy).contains(&Rule::InterprocMissingLock),
            "{:?}",
            inter_rules(racy)
        );
        let fixed = r"
package p
var mu sync.Mutex
var count int
func Incr() {
    mu.Lock()
    bump()
    mu.Unlock()
}
func bump() {
    count = count + 1
}
func Read() int {
    mu.Lock()
    v := count
    mu.Unlock()
    return v
}
";
        assert!(inter_rules(fixed).is_empty(), "{:?}", inter_rules(fixed));
    }

    #[test]
    fn recursion_converges_and_summaries_keep_shortest_chain() {
        let src = r"
package p
var total int
func sum(n int) {
    if n > 0 {
        total = total + n
        sum(n - 1)
    }
}
func Run() {
    go sum(8)
    report(total)
}
";
        let file = parse_file(src).expect("parses");
        let res = resolve_file(&file);
        let cfg = build_file(&file, &res);
        let (flow, cg) = lockset::flow(&cfg);
        let sums = Summaries::compute(&cfg, flow, &cg, &file.names);
        // sum's summary holds its own write plus the one-hop recursive
        // copy, never an unbounded chain.
        assert!(sums.funcs[0]
            .accesses
            .iter()
            .all(|a| sums.tables.chains.get(a.chain).len() <= 2));
        let mhp = Mhp::build(&file);
        let rules: Vec<Rule> = interproc_findings(&res, &cfg, &cg, &sums, &mhp, &[], &file.names)
            .into_iter()
            .map(|f| f.rule)
            .collect();
        assert!(rules.contains(&Rule::UnsyncedSpawnedCall), "{rules:?}");
    }

    #[test]
    fn wait_kill_point_suppresses_the_spawned_chain_report() {
        let fixed = r"
package p
var total int
func sum(n int) {
    if n > 0 {
        total = total + n
        sum(n - 1)
    }
}
func Run() {
    var wg sync.WaitGroup
    wg.Add(1)
    go func() {
        sum(8)
        wg.Done()
    }()
    wg.Wait()
    report(total)
}
";
        assert!(inter_rules(fixed).is_empty(), "{:?}", inter_rules(fixed));
    }

    #[test]
    fn spawning_helper_and_map_effects_propagate_through_params() {
        let src = r"
package p
func spawnWorker(fn func()) {
    go fn()
}
func relay(fn func()) {
    spawnWorker(fn)
}
func fill(m map[string]int, keys []string) {
    for _, k := range keys {
        go put(m, k)
    }
}
func put(m map[string]int, k string) {
    m[k] = 1
}
";
        let file = parse_file(src).expect("parses");
        let res = resolve_file(&file);
        let cfg = build_file(&file, &res);
        let (flow, cg) = lockset::flow(&cfg);
        let sums = Summaries::compute(&cfg, flow, &cg, &file.names);
        assert!(sums.funcs[0].spawns_params.contains(&0), "direct spawn");
        assert!(sums.funcs[1].spawns_params.contains(&0), "transitive spawn");
        assert!(sums.funcs[3].map_write_params.contains(&0), "put writes m");
        assert!(
            sums.funcs[2].spawned_map_write_params.contains(&0),
            "fill spawns put over its parameter"
        );
    }
}
