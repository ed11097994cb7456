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

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{sym, Names, Sym};
use crate::callgraph::{CallGraph, CallSite};
use crate::cfg::{FuncCfg, VarKey, VarRoot};
use crate::lint::{Finding, Rule};
use crate::lockset::{self, effective, Access, Flow};
use crate::mhp::Mhp;
use crate::resolve::{Resolution, SymbolKind};
use crate::token::Pos;

/// Chains deeper than this stop propagating (they add no new evidence the
/// shorter prefixes have not already contributed).
const MAX_CHAIN: usize = 8;
/// Per-function access cap, bounding summary growth on generated code.
const MAX_ACCESSES: usize = 200;

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

/// Summaries for every bodied function of a file.
#[derive(Debug)]
pub struct Summaries {
    /// One summary per CFG, aligned with the CFG list.
    pub funcs: Vec<FuncSummary>,
}

impl Summaries {
    /// Computes all summaries bottom-up over `cg`'s SCCs.
    #[must_use]
    pub fn compute(cfgs: &[FuncCfg], flow: &Flow, cg: &CallGraph, names: &Names) -> Summaries {
        let own = own_summaries(cfgs, flow);
        let mut funcs = own.clone();

        for scc in cg.sccs() {
            // Non-trivial components iterate to a fixpoint; singletons
            // without a self-loop converge in one pass.
            for _ in 0..10 {
                let mut changed = false;
                for &f in &scc {
                    let mut next = own[f].clone();
                    for site in cg.sites_from(f) {
                        incorporate(&mut next, site, &funcs[site.callee], cfgs);
                    }
                    dedup_accesses(&mut next.accesses, names);
                    if next != funcs[f] {
                        funcs[f] = next;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
        }

        Summaries { funcs }
    }
}

/// The call-free part of every summary: each function's own file-wide
/// accesses and direct parameter effects.
fn own_summaries(cfgs: &[FuncCfg], flow: &Flow) -> Vec<FuncSummary> {
    let mut out = vec![FuncSummary::default(); cfgs.len()];
    for a in flow.accesses.iter().filter(|a| !a.init) {
        let s = &mut out[a.func_idx];
        if a.var.is_file_wide() {
            s.accesses.push(a.clone());
        } else if a.write && a.indexed {
            // `m[k] = v` where m is a parameter: a map-write effect.
            if let VarRoot::Local(sym) = a.var.root {
                if let Some(j) = cfgs[a.func_idx].param_index(sym) {
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
fn incorporate(next: &mut FuncSummary, site: &CallSite, callee: &FuncSummary, cfgs: &[FuncCfg]) {
    for a in &callee.accesses {
        if a.chain.len() >= MAX_CHAIN || next.accesses.len() >= MAX_ACCESSES * 2 {
            continue;
        }
        let mut a = a.clone();
        if site.spawned {
            // A spawned callee starts on a fresh goroutine: none of the
            // caller's locks extend into it.
            a.spawn_pos = site.spawn_pos;
        } else {
            for (lock, mode) in &site.locks {
                lockset::hold(&mut a.locks, lock, *mode);
            }
            if a.spawned {
                // The callee spawns internally; from here, the spawn
                // happens at the call site.
                a.spawn_pos = Some(site.pos);
            }
        }
        a.spawned |= site.spawned;
        a.in_loop_spawn |= site.spawned && site.in_loop;
        a.dropped.extend(site.dropped.iter().cloned());
        a.chain.insert(0, (cfgs[site.callee].func, site.pos));
        next.accesses.push(a);
    }

    // Parameter-to-parameter effect propagation: passing our own
    // parameter into an effectful slot of the callee gives us the effect.
    for (idx, key, _) in &site.var_args {
        let VarRoot::Local(sym) = &key.root else {
            continue;
        };
        let Some(j) = cfgs[site.caller].param_index(*sym) else {
            continue;
        };
        if callee.spawns_params.contains(idx) {
            next.spawns_params.insert(j);
        }
        if callee.map_write_params.contains(idx) {
            if site.spawned {
                next.spawned_map_write_params.insert(j);
            } else {
                next.map_write_params.insert(j);
            }
        }
        if callee.spawned_map_write_params.contains(idx) {
            next.spawned_map_write_params.insert(j);
        }
    }
}

/// A call chain as it sorts: callee names compare as text (a [`Sym`]
/// orders by first occurrence, and this order picks the reported witness).
fn chain_key<'a>(
    chain: &'a [(Sym, Pos)],
    names: &'a Names,
) -> impl Iterator<Item = (&'a str, Pos)> + 'a {
    chain.iter().map(|&(callee, pos)| (names.text(callee), pos))
}

/// Keeps one access per `(var, pos, write, atomic, locks, spawned)` — the
/// one with the shortest chain — in a deterministic order.
fn dedup_accesses(accesses: &mut Vec<Access>, names: &Names) {
    accesses.sort_by(|x, y| {
        (&x.var, x.pos, x.write, x.atomic, &x.locks, x.spawned, x.chain.len())
            .cmp(&(&y.var, y.pos, y.write, y.atomic, &y.locks, y.spawned, y.chain.len()))
            .then_with(|| chain_key(&x.chain, names).cmp(chain_key(&y.chain, names)))
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
/// lockset pass — one diagnostic per variable, the sharper one wins.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn interproc_findings(
    res: &Resolution,
    cfgs: &[FuncCfg],
    cg: &CallGraph,
    sums: &Summaries,
    mhp: &Mhp,
    skip_vars: &BTreeSet<VarKey>,
    names: &Names,
) -> Vec<Finding> {
    let text = |name: Sym| names.text(name).to_string();
    let render = |chain: &[(Sym, Pos)]| -> Vec<(String, Pos)> {
        chain.iter().map(|&(callee, pos)| (text(callee), pos)).collect()
    };
    // Each finding rides with the variable it is about (when it is about
    // one) until `dedup_findings` has keyed on it.
    let mut findings: Vec<(Option<VarKey>, Finding)> = Vec::new();

    // GR015: a closure capturing a loop variable (or `err`) passed to a
    // helper that launches it on a goroutine — the capture escapes the
    // iteration exactly like a direct `go func(){...}()` would.
    for site in cg.sites {
        for (idx, lit_pos) in &site.closure_args {
            if !sums.funcs[site.callee].spawns_params.contains(idx) {
                continue;
            }
            for &sym in res.captures_at(*lit_pos) {
                let s = res.symbol(sym);
                let risky = s.kind == SymbolKind::LoopVar || s.name == sym::ERR;
                if !risky {
                    continue;
                }
                let callee_name = text(cfgs[site.callee].func);
                findings.push((
                    None,
                    Finding {
                        rule: Rule::EscapingCaptureToSpawner,
                        pos: *lit_pos,
                        func: text(cfgs[site.caller].func),
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
    for site in cg.sites {
        for (idx, key, disp) in &site.var_args {
            if !sums.funcs[site.callee]
                .spawned_map_write_params
                .contains(idx)
            {
                continue;
            }
            if let VarRoot::Local(sym) = &key.root {
                if cfgs[site.caller].param_index(*sym).is_some() {
                    continue;
                }
            }
            if skip_vars.contains(key) {
                continue;
            }
            let callee_name = text(cfgs[site.callee].func);
            findings.push((
                Some(key.clone()),
                Finding {
                    rule: Rule::SpawnInCalleeMapWrite,
                    pos: site.pos,
                    func: text(cfgs[site.caller].func),
                    message: format!(
                        "map '{disp}' is passed to '{callee_name}', which writes it \
                     from goroutines spawned there; concurrent map writes are a \
                     runtime fault in Go",
                    ),
                    chain: vec![(callee_name.clone(), site.pos)],
                },
            ));
        }
    }

    // Group rules over root-expanded accesses: every analysis root
    // contributes the accesses reachable from it, with chain context.
    let mut groups: BTreeMap<VarKey, Vec<(usize, &Access)>> = BTreeMap::new();
    for &r in &cg.roots() {
        for a in &sums.funcs[r].accesses {
            groups.entry(a.var.clone()).or_default().push((r, a));
        }
    }

    for (var, accs) in &groups {
        if skip_vars.contains(var) {
            continue;
        }
        // Purely intraprocedural evidence was already judged by the
        // lockset pass; atomics belong to its atomic-mixing rule.
        if accs.iter().all(|(_, a)| a.chain.is_empty()) {
            continue;
        }
        if accs.iter().any(|(_, a)| a.atomic) {
            continue;
        }
        if !accs.iter().any(|(_, a)| a.write) {
            continue;
        }
        let display = accs[0].1.display.clone();

        let roots_set: BTreeSet<usize> = accs.iter().map(|(r, _)| *r).collect();
        let spawned_any = accs.iter().any(|(_, a)| a.spawned);
        let loop_spawn = accs.iter().any(|(_, a)| a.in_loop_spawn);
        let lock_signal = accs.iter().any(|(_, a)| !a.locks.is_empty());
        if roots_set.len() < 2 && !spawned_any && !loop_spawn && !lock_signal {
            continue;
        }

        let guarded: Vec<&(usize, &Access)> = accs
            .iter()
            .filter(|(_, a)| !effective(&a.locks, a.write).is_empty())
            .collect();
        let mut unguarded: Vec<&(usize, &Access)> = accs
            .iter()
            .filter(|(_, a)| effective(&a.locks, a.write).is_empty())
            .collect();
        unguarded.sort_by_key(|(_, a)| (a.pos, a.chain.len()));

        if !guarded.is_empty() && !unguarded.is_empty() {
            let guard_locks: BTreeSet<VarKey> = guarded
                .iter()
                .flat_map(|(_, a)| effective(&a.locks, a.write))
                .collect();
            // GR016: the bare chain had one of the guarding locks, but it
            // was released before the call was made.
            if let Some((_, a)) = unguarded.iter().find(|(_, a)| {
                !a.chain.is_empty() && a.dropped.intersection(&guard_locks).next().is_some()
            }) {
                let lock = a
                    .dropped
                    .intersection(&guard_locks)
                    .next()
                    .cloned()
                    .expect("nonempty intersection");
                findings.push((
                    Some(var.clone()),
                    Finding {
                        rule: Rule::LockDroppedBeforeCall,
                        pos: a.chain[0].1,
                        func: text(chain_root_func(cfgs, accs, a)),
                        message: format!(
                            "'{}' is accessed in '{}' after {} was released — the \
                         call runs outside the critical section that guards \
                         '{}' elsewhere",
                            display,
                            names.text(a.func),
                            lockset::key_display(&lock),
                            display,
                        ),
                        chain: render(&a.chain),
                    },
                ));
            } else {
                // GR013: bare here, guarded along other chains.
                let (_, bare) = unguarded[0];
                let note_chain = if bare.chain.is_empty() {
                    guarded
                        .iter()
                        .filter(|(_, g)| !g.chain.is_empty())
                        .min_by_key(|(_, g)| g.chain.len())
                        .map(|(_, g)| render(&g.chain))
                        .unwrap_or_default()
                } else {
                    render(&bare.chain)
                };
                findings.push((
                    Some(var.clone()),
                    Finding {
                        rule: Rule::InterprocMissingLock,
                        pos: bare.pos,
                        func: text(bare.func),
                        message: format!(
                            "'{}' is {} without a lock here but guarded by {} on \
                         other call paths",
                            display,
                            if bare.write { "written" } else { "read" },
                            lockset::lock_names(&guard_locks),
                        ),
                        chain: note_chain,
                    },
                ));
            }
        } else if unguarded.is_empty() && guarded.len() >= 2 {
            // GR014: every chain locks, but no lock is common to all.
            let mut common: Option<BTreeSet<VarKey>> = None;
            for (_, g) in &guarded {
                let eff = effective(&g.locks, g.write);
                common = Some(match common {
                    None => eff,
                    Some(c) => c.intersection(&eff).cloned().collect(),
                });
            }
            if common.as_ref().is_some_and(BTreeSet::is_empty) {
                let (_, a) = guarded
                    .iter()
                    .min_by(|(_, x), (_, y)| {
                        (x.pos, x.chain.len())
                            .cmp(&(y.pos, y.chain.len()))
                            .then_with(|| chain_key(&x.chain, names).cmp(chain_key(&y.chain, names)))
                    })
                    .expect("nonempty guarded");
                findings.push((
                    Some(var.clone()),
                    Finding {
                        rule: Rule::InterprocInconsistentLock,
                        pos: a.pos,
                        func: text(a.func),
                        message: format!(
                            "every call path to '{display}' holds a lock, but no \
                         single lock is common to all of them — two chains can \
                         still run concurrently",
                        ),
                        chain: render(&a.chain),
                    },
                ));
            }
        } else if guarded.is_empty() && !lock_signal {
            // GR018: a spawned chain writes, the parent touches the same
            // variable afterward, and no join orders the two.
            'pairs: for (r, w) in accs.iter().filter(|(_, a)| {
                a.spawned && a.write && !a.chain.is_empty() && a.spawn_pos.is_some()
            }) {
                let sp = w.spawn_pos.expect("filtered on spawn_pos");
                for (_, b) in accs.iter().filter(|(r2, b)| r2 == r && !b.spawned) {
                    if mhp.may_parallel(*r, sp, b.pos) {
                        findings.push((
                            Some(var.clone()),
                            Finding {
                                rule: Rule::UnsyncedSpawnedCall,
                                pos: sp,
                                func: text(cfgs[*r].func),
                                message: format!(
                                    "goroutine spawned here writes '{}' through \
                                 '{}' while '{}' also accesses it at line {} \
                                 with no synchronization in between",
                                    display,
                                    names.text(w.chain[0].0),
                                    names.text(cfgs[*r].func),
                                    b.pos.line,
                                ),
                                chain: render(&w.chain),
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

/// The root function a chained access was expanded from, for reporting.
fn chain_root_func(cfgs: &[FuncCfg], accs: &[(usize, &Access)], target: &Access) -> Sym {
    accs.iter()
        .find(|(_, a)| std::ptr::eq(*a, target))
        .map_or(target.func, |(r, _)| cfgs[*r].func)
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
        let cfgs = build_file(&file, &res);
        let flow = lockset::flow(&cfgs);
        let cg = CallGraph::build(cfgs.len(), &flow.sites);
        let sums = Summaries::compute(&cfgs, &flow, &cg, &file.names);
        let mhp = Mhp::build(&file);
        interproc_findings(&res, &cfgs, &cg, &sums, &mhp, &BTreeSet::new(), &file.names)
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
        let cfgs = build_file(&file, &res);
        let flow = lockset::flow(&cfgs);
        let cg = CallGraph::build(cfgs.len(), &flow.sites);
        let sums = Summaries::compute(&cfgs, &flow, &cg, &file.names);
        // sum's summary holds its own write plus the one-hop recursive
        // copy, never an unbounded chain.
        assert!(sums.funcs[0].accesses.iter().all(|a| a.chain.len() <= 2));
        let mhp = Mhp::build(&file);
        let rules: Vec<Rule> = interproc_findings(&res, &cfgs, &cg, &sums, &mhp, &BTreeSet::new(), &file.names)
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
        let cfgs = build_file(&file, &res);
        let flow = lockset::flow(&cfgs);
        let cg = CallGraph::build(cfgs.len(), &flow.sites);
        let sums = Summaries::compute(&cfgs, &flow, &cg, &file.names);
        assert!(sums.funcs[0].spawns_params.contains(&0), "direct spawn");
        assert!(sums.funcs[1].spawns_params.contains(&0), "transitive spawn");
        assert!(sums.funcs[3].map_write_params.contains(&0), "put writes m");
        assert!(
            sums.funcs[2].spawned_map_write_params.contains(&0),
            "fill spawns put over its parameter"
        );
    }
}
