//! File-level call graph over the resolved function declarations.
//!
//! Nodes are indices into the `Vec<FuncCfg>` produced by
//! [`build_file`](crate::cfg::build_file) (bodied functions only, in
//! declaration order). Edges are the [`CallSite`]s that
//! [`flow`](crate::lockset::flow) resolves from the CFG's
//! [`Event::Call`](crate::cfg::Event::Call)s: named package-level
//! functions and methods on the enclosing receiver type. Calls through
//! function-typed parameters are kept separately as [`ParamCall`]s, since
//! their concrete target is only known at each call site passing a
//! closure.
//!
//! Each [`CallSite`] carries the facts the summary layer needs to
//! propagate effects bottom-up: the lockset in force at the call, the
//! locks that were held earlier in the same context but released before
//! the call (the `lock-dropped-before-call` evidence), whether the call is
//! spawned (`go f(x)` or made from inside a goroutine body), and which
//! arguments are closures or trackable places. [`CallGraph`] is the graph
//! algorithms over those edges.

use std::collections::BTreeSet;
use std::ops::Range;

use crate::cfg::{CallArgs, FileCfg};
use crate::lockset::{KeySet, Lockset};
use crate::token::Pos;

/// One resolved call edge, with the caller-side facts at the site.
#[derive(Debug, Clone, Copy)]
pub struct CallSite {
    /// Calling function (index into the CFG list).
    pub caller: usize,
    /// Called function (index into the CFG list).
    pub callee: usize,
    /// Source position of the call (the `go` keyword for spawned calls).
    pub pos: Pos,
    /// Execution context of the caller the call is made from (0 = body).
    pub ctx: u32,
    /// The callee runs on a goroutine: `go f(x)`, or the call is made
    /// from inside a goroutine body of the caller.
    pub spawned: bool,
    /// The spawn point when `spawned` (for MHP kill-point queries).
    pub spawn_pos: Option<Pos>,
    /// The site executes inside a loop (possibly concurrent with itself
    /// when also spawned).
    pub in_loop: bool,
    /// Locks held at the call site. A spawned callee inherits none of
    /// these — the summary layer drops them.
    pub locks: Lockset,
    /// Locks acquired earlier in the same context but no longer held at
    /// the call.
    pub dropped: KeySet,
    /// Its arguments: an index into the caller's
    /// [`FuncCfg::calls`](crate::cfg::FuncCfg::calls) ([`CallSite::args`]).
    pub args: u32,
}

impl CallSite {
    /// Which arguments are closures and which are trackable places.
    #[must_use]
    pub fn args<'c>(&self, cfg: &'c FileCfg) -> &'c CallArgs {
        &cfg.funcs[self.caller].calls[self.args as usize]
    }
}

/// A call through a function-typed parameter of the caller.
#[derive(Debug, Clone, Copy)]
pub struct ParamCall {
    /// Calling function (index into the CFG list).
    pub caller: usize,
    /// Which parameter of the caller is invoked.
    pub param: usize,
    /// Invoked via `go` (or from a goroutine body).
    pub spawned: bool,
    /// Source position of the call.
    pub pos: Pos,
}

/// The call graph of one file, over the call sites
/// [`flow`](crate::lockset::flow) finds beside its flow table.
#[derive(Debug)]
pub struct CallGraph {
    /// All resolved call sites, grouped by caller.
    pub sites: Vec<CallSite>,
    /// Where each caller's sites sit in `sites`.
    from: Vec<Range<usize>>,
    callees: Vec<BTreeSet<usize>>,
}

impl CallGraph {
    /// Builds the graph of a file with `funcs` bodied functions from its
    /// call sites, which arrive grouped by caller (as
    /// [`flow`](crate::lockset::flow) emits them).
    #[must_use]
    pub fn build(funcs: usize, sites: Vec<CallSite>) -> CallGraph {
        let mut from = vec![0..0; funcs];
        let mut callees: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); funcs];
        for (i, site) in sites.iter().enumerate() {
            if i == 0 || sites[i - 1].caller != site.caller {
                debug_assert_eq!(from[site.caller], 0..0, "sites are grouped by caller");
                from[site.caller].start = i;
            }
            from[site.caller].end = i + 1;
            callees[site.caller].insert(site.callee);
        }
        CallGraph {
            sites,
            from,
            callees,
        }
    }

    /// Direct callees of `caller`.
    #[must_use]
    pub fn callees_of(&self, caller: usize) -> &BTreeSet<usize> {
        &self.callees[caller]
    }

    /// Call sites originating in `caller`.
    #[must_use]
    pub fn sites_from(&self, caller: usize) -> &[CallSite] {
        &self.sites[self.from[caller].clone()]
    }

    /// Functions that have at least one in-file caller other than
    /// themselves (self-recursion alone does not make a function
    /// "called" — nothing else ever reaches it).
    #[must_use]
    pub fn called(&self) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        for (c, outs) in self.callees.iter().enumerate() {
            for &w in outs {
                if w != c {
                    out.insert(w);
                }
            }
        }
        out
    }

    /// Analysis roots: functions with no in-file caller, plus — so cyclic
    /// clusters unreachable from any such function still get analyzed —
    /// the lowest-index member of every unreached cycle.
    #[must_use]
    pub fn roots(&self) -> Vec<usize> {
        let n = self.callees.len();
        let called = self.called();
        let mut roots: Vec<usize> = (0..n).filter(|i| !called.contains(i)).collect();
        let mut reached = vec![false; n];
        let mut stack: Vec<usize> = roots.clone();
        while let Some(v) = stack.pop() {
            if std::mem::replace(&mut reached[v], true) {
                continue;
            }
            stack.extend(self.callees[v].iter().copied());
        }
        for i in 0..n {
            if !reached[i] {
                roots.push(i);
                let mut st = vec![i];
                while let Some(v) = st.pop() {
                    if std::mem::replace(&mut reached[v], true) {
                        continue;
                    }
                    st.extend(self.callees[v].iter().copied());
                }
            }
        }
        roots.sort_unstable();
        roots
    }

    /// Strongly connected components in bottom-up (callee-first) order:
    /// by the time a component is visited, the summaries of everything it
    /// calls outside itself are final. Tarjan's algorithm emits exactly
    /// this order.
    #[must_use]
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        let n = self.callees.len();
        const UNSEEN: usize = usize::MAX;
        let mut index = vec![UNSEEN; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next = 0usize;
        let mut out = Vec::new();
        // Iterative DFS: (node, next-child cursor).
        let mut frames: Vec<(usize, usize)> = Vec::new();

        for start in 0..n {
            if index[start] != UNSEEN {
                continue;
            }
            frames.push((start, 0));
            while let Some(&(v, ci)) = frames.last() {
                if ci == 0 {
                    index[v] = next;
                    low[v] = next;
                    next += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                let succ = self.callees[v].iter().nth(ci).copied();
                if let Some(w) = succ {
                    frames.last_mut().expect("frame").1 += 1;
                    if index[w] == UNSEEN {
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    frames.pop();
                    if let Some(&(p, _)) = frames.last() {
                        low[p] = low[p].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack");
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        out.push(comp);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{build_file, FileCfg};
    use crate::lockset::{flow, Flow};
    use crate::parser::parse_file;
    use crate::resolve::resolve_file;

    /// The CFGs, flow table and call graph of `src`.
    fn flow_of(src: &str) -> (FileCfg, Flow, CallGraph) {
        let file = parse_file(src).expect("parses");
        let res = resolve_file(&file);
        let cfg = build_file(&file, &res);
        let (flow, cg) = flow(&cfg);
        (cfg, flow, cg)
    }

    #[test]
    fn resolves_named_and_method_calls() {
        let (cfg, _, cg) = flow_of(
            r"
package p
func a() { b() }
func b() {}
func (s *S) m() { s.n() }
func (s *S) n() {}
",
        );
        assert_eq!(cfg.funcs.len(), 4);
        assert_eq!(cg.sites.len(), 2);
        assert!(cg.callees_of(0).contains(&1));
        assert!(cg.callees_of(2).contains(&3));
        assert_eq!(cg.called(), [1usize, 3].into_iter().collect());
        assert_eq!(cg.roots(), vec![0, 2]);
    }

    #[test]
    fn call_sites_carry_locks_and_dropped_locks() {
        let (_, flow, cg) = flow_of(
            r"
package p
func f() {
    mu.Lock()
    inside()
    mu.Unlock()
    outside()
}
func inside() {}
func outside() {}
",
        );
        let inside = cg.sites.iter().find(|s| s.callee == 1).expect("inside");
        assert_eq!(flow.locksets.get(inside.locks).len(), 1);
        assert_eq!(inside.dropped, KeySet::EMPTY);
        let outside = cg.sites.iter().find(|s| s.callee == 2).expect("outside");
        assert_eq!(outside.locks, Lockset::EMPTY);
        assert_eq!(
            flow.dropped.get(outside.dropped).len(),
            1,
            "mu released before the call"
        );
    }

    #[test]
    fn spawned_calls_and_param_calls() {
        let (_, flow, cg) = flow_of(
            r"
package p
func spawn(fn func()) { go fn() }
func f(keys []int) {
    for _, k := range keys {
        go work(k)
    }
}
func work(k int) {}
",
        );
        assert_eq!(flow.param_calls.len(), 1);
        assert!(flow.param_calls[0].spawned);
        assert_eq!(flow.param_calls[0].param, 0);
        let work = cg.sites.iter().find(|s| s.callee == 2).expect("work");
        assert!(work.spawned);
        assert!(work.in_loop);
        assert!(work.spawn_pos.is_some());
    }

    #[test]
    fn sccs_are_callee_first_and_group_cycles() {
        let (_, _, cg) = flow_of(
            r"
package p
func top() { even(4) }
func even(n int) { odd(n) }
func odd(n int) { even(n) }
func leaf() {}
",
        );
        let sccs = cg.sccs();
        let cycle = sccs
            .iter()
            .position(|c| c.len() == 2)
            .expect("even/odd cycle");
        let top = sccs.iter().position(|c| c == &vec![0]).expect("top");
        assert!(cycle < top, "callees come before callers: {sccs:?}");
        // Self-recursion alone does not count as being called.
        let (_, _, cg) = flow_of("package p\nfunc r(n int) { r(n) }\n");
        assert_eq!(cg.roots(), vec![0]);
    }
}
