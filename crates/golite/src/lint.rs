//! Static race lints for the paper's §4 patterns plus the Table-3 lockset
//! rules.
//!
//! The paper closes with: "We believe the bug patterns in Go presented in
//! this paper can inspire further research in static race detection for
//! Go." This module is that idea taken seriously: the capture rules run on
//! real lexical resolution ([`resolve`](crate::resolve)) instead of a
//! free-variable approximation — a closure parameter or an earlier `:=`
//! shadow genuinely unbinds a name — and the locking rules come from an
//! Eraser-style lockset dataflow over the control-flow graph
//! ([`lockset`]). Each rule fires on its paper listing and
//! stays quiet on the fixed variant (see the crate's listing tests).

use std::collections::HashSet;

use crate::ast::{
    sym, walk, Block, Decl, Expr, File, FuncDecl, Names, Node, Stmt, Sym, UnaryOp, Walk,
};
use crate::cfg;
use crate::lockset;
use crate::mhp::Mhp;
use crate::resolve::{resolve_file, Binding, Resolution, SymbolId, SymbolKind};
use crate::summary::{self, Summaries};
use crate::token::Pos;

/// Which lint fired. Ordered the way Tables 2 and 3 present the classes:
/// shared-memory misuse first (capture, maps, locking), message-order last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Listing 1: a goroutine closure captures a loop variable.
    LoopVarCapture,
    /// Listing 2: a goroutine closure captures an `err` variable also
    /// assigned outside.
    ErrCapture,
    /// Listings 3–4: a goroutine closure captures a named return variable.
    NamedReturnCapture,
    /// Listing 6: a map declared outside a goroutine written inside it.
    MapWriteInGoroutine,
    /// Listing 7: a `sync.Mutex`/`sync.RWMutex` parameter passed by value.
    MutexByValue,
    /// Listing 10: `WaitGroup.Add` inside the goroutine it accounts for.
    WaitGroupAddInGoroutine,
    /// A variable guarded by a lock at some sites and bare at others.
    MissingLock,
    /// Every access locks, but no single lock covers all of them.
    InconsistentLock,
    /// Listing 11: a write inside an `RLock`-protected section.
    WriteUnderRLock,
    /// `sync/atomic` operations mixed with plain accesses of the same
    /// variable.
    AtomicMixedWithPlain,
    /// An unsynchronized fast-path check before a locked re-check.
    DoubleCheckedLocking,
    /// Table 3's "incorrect order of statements": a goroutine is launched
    /// before a variable it reads is initialized in the same block.
    GoroutineBeforeInit,
    /// Interprocedural missing lock: bare on some call paths, guarded on
    /// others (the lock lives in a helper the bare path skips).
    InterprocMissingLock,
    /// Interprocedural inconsistent lock: every call path locks, but no
    /// lock is common to all of them.
    InterprocInconsistentLock,
    /// A closure capturing a loop variable or `err` handed to a helper
    /// function that launches it as a goroutine.
    EscapingCaptureToSpawner,
    /// A lock released before a call whose chain still touches the
    /// protected variable.
    LockDroppedBeforeCall,
    /// A map passed to a callee that writes it from spawned goroutines.
    SpawnInCalleeMapWrite,
    /// A spawned call chain's write unsynchronized with — and parallel
    /// to — the parent function's own access.
    UnsyncedSpawnedCall,
}

/// Diagnostic severity for a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious shape that needs human judgment.
    Warning,
    /// A shape the paper documents as a production race.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: [Rule; 18] = [
        Rule::LoopVarCapture,
        Rule::ErrCapture,
        Rule::NamedReturnCapture,
        Rule::MapWriteInGoroutine,
        Rule::MutexByValue,
        Rule::WaitGroupAddInGoroutine,
        Rule::MissingLock,
        Rule::InconsistentLock,
        Rule::WriteUnderRLock,
        Rule::AtomicMixedWithPlain,
        Rule::DoubleCheckedLocking,
        Rule::GoroutineBeforeInit,
        Rule::InterprocMissingLock,
        Rule::InterprocInconsistentLock,
        Rule::EscapingCaptureToSpawner,
        Rule::LockDroppedBeforeCall,
        Rule::SpawnInCalleeMapWrite,
        Rule::UnsyncedSpawnedCall,
    ];

    /// Stable machine-readable identifier (`GR001`…`GR018`).
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::LoopVarCapture => "GR001",
            Rule::ErrCapture => "GR002",
            Rule::NamedReturnCapture => "GR003",
            Rule::MapWriteInGoroutine => "GR004",
            Rule::MutexByValue => "GR005",
            Rule::WaitGroupAddInGoroutine => "GR006",
            Rule::MissingLock => "GR007",
            Rule::InconsistentLock => "GR008",
            Rule::WriteUnderRLock => "GR009",
            Rule::AtomicMixedWithPlain => "GR010",
            Rule::DoubleCheckedLocking => "GR011",
            Rule::GoroutineBeforeInit => "GR012",
            Rule::InterprocMissingLock => "GR013",
            Rule::InterprocInconsistentLock => "GR014",
            Rule::EscapingCaptureToSpawner => "GR015",
            Rule::LockDroppedBeforeCall => "GR016",
            Rule::SpawnInCalleeMapWrite => "GR017",
            Rule::UnsyncedSpawnedCall => "GR018",
        }
    }

    /// The rule for a `GR0xx` identifier.
    #[must_use]
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }

    /// Severity: the heuristic order/initialization shapes warn — the
    /// spawned-chain rule joins them, since "parallel" there is a
    /// may-analysis — the rest are documented production races.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            Rule::GoroutineBeforeInit
            | Rule::DoubleCheckedLocking
            | Rule::UnsyncedSpawnedCall => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Rule::LoopVarCapture => "loop-variable captured by goroutine",
            Rule::ErrCapture => "err variable captured by goroutine",
            Rule::NamedReturnCapture => "named return captured by goroutine",
            Rule::MapWriteInGoroutine => "map written inside goroutine",
            Rule::MutexByValue => "mutex passed by value",
            Rule::WaitGroupAddInGoroutine => "WaitGroup.Add inside goroutine",
            Rule::MissingLock => "lock missing at some access sites",
            Rule::InconsistentLock => "no common lock across access sites",
            Rule::WriteUnderRLock => "write under RLock",
            Rule::AtomicMixedWithPlain => "atomic mixed with plain access",
            Rule::DoubleCheckedLocking => "double-checked locking",
            Rule::GoroutineBeforeInit => "goroutine launched before initialization",
            Rule::InterprocMissingLock => "lock missing on some call paths",
            Rule::InterprocInconsistentLock => "no common lock across call paths",
            Rule::EscapingCaptureToSpawner => "capture escapes into spawning helper",
            Rule::LockDroppedBeforeCall => "lock released before racy call",
            Rule::SpawnInCalleeMapWrite => "map filled concurrently by callee",
            Rule::UnsyncedSpawnedCall => "spawned call chain unsynchronized",
        };
        f.write_str(s)
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// Source position.
    pub pos: Pos,
    /// Enclosing function name.
    pub func: String,
    /// Explanation.
    pub message: String,
    /// Shortest call chain evidencing the finding, as `(callee, call
    /// position)` hops — empty for intraprocedural rules.
    pub chain: Vec<(String, Pos)>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: [{}] in {}: {}",
            self.pos, self.rule, self.func, self.message
        )?;
        if let Some((callee, pos)) = self.chain.first() {
            write!(f, " (via {callee} called at {pos})")?;
        }
        Ok(())
    }
}

/// Lints every function in the file: capture rules on the resolved scopes,
/// locking rules from the lockset dataflow, interprocedural rules from the
/// call graph and function summaries.
#[must_use]
pub fn lint_file(file: &File) -> Vec<Finding> {
    let res = resolve_file(file);
    let mut findings = Vec::new();
    for decl in &file.decls {
        if let Decl::Func(f) = decl {
            lint_func(f, &res, &file.names, &mut findings);
        }
    }

    // One CFG build and one flow table feed the lockset rules, the call
    // graph, and the summaries. The lockset group rules are scoped to
    // analysis roots: accesses inside called functions are judged through
    // their call chains by the interprocedural rules instead of being
    // double-counted intraprocedurally.
    let cfg = cfg::build_file(file, &res);
    let (flow, cg) = lockset::flow(&cfg);
    let (lock_findings, seen_vars) =
        lockset::intraproc_findings(&cfg, &flow, &cg.called(), &file.names);
    findings.extend(lock_findings);

    let sums = Summaries::compute(&cfg, flow, &cg, &file.names);
    let mhp = Mhp::build(file);
    findings.extend(summary::interproc_findings(
        &res,
        &cfg,
        &cg,
        &sums,
        &mhp,
        &seen_vars,
        &file.names,
    ));

    // Deterministic, path-independent order: position first, then the
    // stable rule ID; drop exact duplicates a rule pair may have produced.
    findings.sort_by(|a, b| (a.pos, a.rule.id()).cmp(&(b.pos, b.rule.id())));
    findings.dedup_by(|b, a| a.rule == b.rule && a.pos == b.pos && a.func == b.func);
    findings
}

/// A goroutine launched with an inline closure: `go func(...) {...}(args)`.
struct GoClosure<'a> {
    /// Position of the `go` keyword.
    go_pos: Pos,
    /// Position of the closure's `func` keyword.
    pos: Pos,
    body: &'a Block,
    /// The statements after the `go` in its own statement list.
    later: &'a [Stmt],
}

fn lint_func(f: &FuncDecl, res: &Resolution, names: &Names, findings: &mut Vec<Finding>) {
    let Some(body) = &f.body else { return };
    let func = || names.text(f.name).to_string();

    // Rule: MutexByValue — any by-value sync.Mutex/RWMutex parameter.
    for p in &f.sig.params {
        if let Some(ty @ (sym::SYNC_MUTEX | sym::SYNC_RWMUTEX)) = p.ty.name() {
            findings.push(Finding {
                rule: Rule::MutexByValue,
                pos: f.pos,
                func: func(),
                message: format!(
                    "parameter `{}` copies the mutex; critical sections using the \
                     copy exclude nothing (use *{})",
                    names.text(p.name),
                    names.text(ty)
                ),
                chain: Vec::new(),
            });
        }
    }

    let has_wait_call = calls_method(body, sym::WAIT);

    for gc in &go_closures(body) {
        // Real capture sets from resolution: a closure parameter or an
        // earlier same-name `:=` inside the closure means the name is NOT
        // captured — the old free-variable scan could not tell.
        let captured = res.captures_at(gc.pos);

        for &sym_id in captured {
            let symbol = res.symbol(sym_id);
            match symbol.kind {
                // Rule: LoopVarCapture — the goroutine reads a variable the
                // loop advances concurrently.
                SymbolKind::LoopVar => findings.push(Finding {
                    rule: Rule::LoopVarCapture,
                    pos: gc.pos,
                    func: func(),
                    message: format!(
                        "goroutine captures loop variable `{}` by reference; the \
                         loop advances it concurrently",
                        names.text(symbol.name)
                    ),
                    chain: Vec::new(),
                }),
                // Rule: NamedReturnCapture — every `return` writes the
                // captured variable.
                SymbolKind::NamedResult => findings.push(Finding {
                    rule: Rule::NamedReturnCapture,
                    pos: gc.pos,
                    func: func(),
                    message: format!(
                        "goroutine captures named return `{}`; every return \
                         statement writes it",
                        names.text(symbol.name)
                    ),
                    chain: Vec::new(),
                }),
                // Rule: ErrCapture — the enclosing function keeps assigning
                // the same `err` binding (`y, err := Baz()` reuses it).
                _ if symbol.name == sym::ERR => findings.push(Finding {
                    rule: Rule::ErrCapture,
                    pos: gc.pos,
                    func: func(),
                    message: "goroutine captures `err` by reference while the \
                              enclosing function keeps assigning it"
                        .to_string(),
                    chain: Vec::new(),
                }),
                _ => {}
            }
        }

        // Rule: WaitGroupAddInGoroutine.
        if has_wait_call && calls_method(gc.body, sym::ADD) {
            findings.push(Finding {
                rule: Rule::WaitGroupAddInGoroutine,
                pos: gc.pos,
                func: func(),
                message: "wg.Add inside the goroutine may run after Wait() — move \
                          it before the `go` statement"
                    .to_string(),
                chain: Vec::new(),
            });
        }

        // Rule: MapWriteInGoroutine — an indexed write whose base is a
        // captured (outer) variable.
        for (base_pos, base_name, pos) in indexed_assign_bases(gc.body) {
            let captured_base = res
                .use_at(base_pos)
                .is_some_and(|id| res.captures_symbol(gc.pos, id));
            if captured_base {
                findings.push(Finding {
                    rule: Rule::MapWriteInGoroutine,
                    pos,
                    func: func(),
                    message: format!(
                        "`{}[...]` is written inside a goroutine while \
                         declared outside; Go maps are not thread-safe",
                        names.text(base_name)
                    ),
                    chain: Vec::new(),
                });
            }
        }

        // Rule: GoroutineBeforeInit — a captured symbol assigned later in
        // the statement list that launched the goroutine: the launch raced
        // ahead of the initialization it depends on.
        let mut later: HashSet<SymbolId> = HashSet::new();
        for s in gc.later {
            collect_assign_symbols(s, res, &mut later);
        }
        for &sym_id in captured {
            let symbol = res.symbol(sym_id);
            // ErrCapture owns the err idiom.
            if symbol.name == sym::ERR || !later.contains(&sym_id) {
                continue;
            }
            findings.push(Finding {
                rule: Rule::GoroutineBeforeInit,
                pos: gc.go_pos,
                func: func(),
                message: format!(
                    "goroutine reads `{}`, which is assigned only \
                     after the `go` statement",
                    names.text(symbol.name)
                ),
                chain: Vec::new(),
            });
        }
    }
}

/// Symbols assigned by one statement (identifier bases of selectors and
/// indexes included; closure bodies excluded).
fn collect_assign_symbols(stmt: &Stmt, res: &Resolution, out: &mut HashSet<SymbolId>) {
    fn base_symbol(e: &Expr, res: &Resolution, out: &mut HashSet<SymbolId>) {
        match e {
            Expr::Ident(pos, _) => {
                if let Some(id) = res.use_at(*pos) {
                    out.insert(id);
                }
            }
            Expr::Selector(b, _) | Expr::Index(b, _) | Expr::Paren(b) => base_symbol(b, res, out),
            Expr::Unary {
                op: UnaryOp::Deref,
                expr,
            } => base_symbol(expr, res, out),
            _ => {}
        }
    }
    match stmt {
        Stmt::Assign { lhs, .. } => {
            for e in lhs {
                base_symbol(e, res, out);
            }
        }
        // `y, x := ...` assigns x when it reuses an existing binding.
        Stmt::Define { pos, names, .. } => {
            for &name in names {
                if let Some(Binding::Existing(id)) = res.binding(*pos, name) {
                    out.insert(id);
                }
            }
        }
        Stmt::IncDec { expr, .. } => base_symbol(expr, res, out),
        _ => {}
    }
}

/// Every inline-closure `go` statement beneath `body`, at any depth
/// (closure bodies included), each with the rest of its statement list.
fn go_closures(body: &Block) -> Vec<GoClosure<'_>> {
    let mut out = Vec::new();
    walk(Node::List(&body.stmts), &mut |n| {
        if let Node::List(stmts) = n {
            for (i, stmt) in stmts.iter().enumerate() {
                if let Stmt::Go {
                    pos: go_pos,
                    call: Expr::Call { func, .. },
                } = stmt
                {
                    if let Expr::FuncLit { pos, body, .. } = func.as_ref() {
                        out.push(GoClosure {
                            go_pos: *go_pos,
                            pos: *pos,
                            body,
                            later: &stmts[i + 1..],
                        });
                    }
                }
            }
        }
        Walk::Descend
    });
    out
}

/// Does the block (at any depth, closures included) call a method with
/// this name?
fn calls_method(block: &Block, method: Sym) -> bool {
    let mut found = false;
    walk(Node::List(&block.stmts), &mut |n| {
        if let Node::Expr(Expr::Call { func, .. }) = n {
            if let Expr::Selector(_, m) = func.as_ref() {
                found |= *m == method;
            }
        }
        Walk::Descend
    });
    found
}

/// Base identifiers of indexed assignments `base[...] = ...` at any depth
/// (closures included): `(position of the base identifier, its name,
/// statement position)`.
fn indexed_assign_bases(block: &Block) -> Vec<(Pos, Sym, Pos)> {
    let mut out = Vec::new();
    walk(Node::List(&block.stmts), &mut |n| {
        if let Node::Stmt(Stmt::Assign { pos, lhs, .. }) = n {
            for e in lhs {
                if let Expr::Index(base, _) = e {
                    if let Expr::Ident(bp, name) = base.as_ref() {
                        out.push((*bp, *name, *pos));
                    }
                }
            }
        }
        Walk::Descend
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn rules(src: &str) -> Vec<Rule> {
        let file = parse_file(src).expect("parses");
        lint_file(&file).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn rule_ids_round_trip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_id(r.id()), Some(r));
        }
        assert_eq!(Rule::from_id("GR999"), None);
    }

    #[test]
    fn severities_are_assigned() {
        assert_eq!(Rule::MissingLock.severity(), Severity::Error);
        assert_eq!(Rule::GoroutineBeforeInit.severity(), Severity::Warning);
        assert_eq!(Rule::DoubleCheckedLocking.severity(), Severity::Warning);
    }

    #[test]
    fn closure_param_shadow_suppresses_capture() {
        let src = r"
package p
func f(jobs []int) {
    for _, job := range jobs {
        go func(job int) {
            use(job)
        }(job)
    }
}
";
        assert!(!rules(src).contains(&Rule::LoopVarCapture));
    }

    #[test]
    fn inner_define_shadow_suppresses_capture() {
        // The pre-Go-1.22 fix idiom: a per-iteration copy inside the loop.
        let src = r"
package p
func f(jobs []int) {
    for _, job := range jobs {
        job := job
        go func() {
            use(job)
        }()
    }
}
";
        assert!(!rules(src).contains(&Rule::LoopVarCapture));
    }

    #[test]
    fn late_shadow_does_not_protect_earlier_use() {
        // The use precedes the shadowing `:=`, so it still resolves to the
        // loop variable: racy.
        let src = r"
package p
func f(jobs []int) {
    for _, job := range jobs {
        go func() {
            use(job)
            job := fresh()
            use(job)
        }()
    }
}
";
        assert!(rules(src).contains(&Rule::LoopVarCapture));
    }

    #[test]
    fn lockset_rules_surface_through_lint_file() {
        let src = r"
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
        let rs = rules(src);
        assert!(rs.contains(&Rule::MissingLock), "{rs:?}");
    }
}
