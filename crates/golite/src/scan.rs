//! The concurrency-construct scanner behind Table 1.
//!
//! The paper counts, per monorepo: concurrency creation (`go` statements /
//! `.start()` in Java), point-to-point synchronization (`Lock`/`Unlock`,
//! `RLock`/`RUnlock`, channel `<-`), and group communication
//! (`WaitGroup`). This module walks the Go-lite AST and produces those
//! counts plus the supporting features (maps, defers, selects) used in §4's
//! density comparisons.

use crate::ast::*;
use crate::error::ParseError;
use crate::parser::parse_file;

/// Construct counts for one file (or an aggregate over many).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConstructCounts {
    /// Physical source lines (newline count + 1 for non-empty files).
    pub lines: u64,
    /// `go` statements — concurrency creation.
    pub go_statements: u64,
    /// `ch <- v` sends (including `select` send arms).
    pub chan_sends: u64,
    /// `<-ch` receives (including `select` receive arms and range-over-chan).
    pub chan_recvs: u64,
    /// `.Lock()` calls.
    pub lock_calls: u64,
    /// `.Unlock()` calls.
    pub unlock_calls: u64,
    /// `.RLock()` calls.
    pub rlock_calls: u64,
    /// `.RUnlock()` calls.
    pub runlock_calls: u64,
    /// Declared `sync.WaitGroup` variables/fields — group communication.
    pub waitgroup_decls: u64,
    /// `.Add(` / `.Done(` / `.Wait(` calls on wait groups (by name match).
    pub waitgroup_calls: u64,
    /// `sync.Mutex` declarations.
    pub mutex_decls: u64,
    /// `sync.RWMutex` declarations.
    pub rwmutex_decls: u64,
    /// `map[...]...` types, `make(map...)`, and map composite literals.
    pub map_constructs: u64,
    /// `chan` types.
    pub chan_types: u64,
    /// `select` statements.
    pub select_stmts: u64,
    /// `defer` statements.
    pub defer_stmts: u64,
    /// Function declarations.
    pub func_decls: u64,
    /// Function literals (closures).
    pub func_lits: u64,
}

impl ConstructCounts {
    /// Point-to-point synchronization constructs (Table 1's middle block):
    /// lock+unlock, rlock+runlock, channel send/recv.
    #[must_use]
    pub fn point_to_point(&self) -> u64 {
        self.lock_calls
            + self.unlock_calls
            + self.rlock_calls
            + self.runlock_calls
            + self.chan_sends
            + self.chan_recvs
    }

    /// Group communication constructs (Table 1's bottom block).
    #[must_use]
    pub fn group_sync(&self) -> u64 {
        self.waitgroup_decls
    }

    /// Concurrency creation constructs.
    #[must_use]
    pub fn concurrency_creation(&self) -> u64 {
        self.go_statements
    }

    /// Per-million-lines density of `metric`.
    #[must_use]
    pub fn per_mloc(&self, metric: u64) -> f64 {
        if self.lines == 0 {
            0.0
        } else {
            metric as f64 * 1_000_000.0 / self.lines as f64
        }
    }

    /// Adds another file's counts into this aggregate.
    pub fn merge(&mut self, other: &ConstructCounts) {
        self.lines += other.lines;
        self.go_statements += other.go_statements;
        self.chan_sends += other.chan_sends;
        self.chan_recvs += other.chan_recvs;
        self.lock_calls += other.lock_calls;
        self.unlock_calls += other.unlock_calls;
        self.rlock_calls += other.rlock_calls;
        self.runlock_calls += other.runlock_calls;
        self.waitgroup_decls += other.waitgroup_decls;
        self.waitgroup_calls += other.waitgroup_calls;
        self.mutex_decls += other.mutex_decls;
        self.rwmutex_decls += other.rwmutex_decls;
        self.map_constructs += other.map_constructs;
        self.chan_types += other.chan_types;
        self.select_stmts += other.select_stmts;
        self.defer_stmts += other.defer_stmts;
        self.func_decls += other.func_decls;
        self.func_lits += other.func_lits;
    }
}

/// Parses `src` and scans it, filling in the line count.
///
/// # Errors
///
/// Propagates parse errors.
pub fn scan_source(src: &str) -> Result<ConstructCounts, ParseError> {
    let file = parse_file(src)?;
    let mut counts = scan_file(&file);
    counts.lines = src.lines().count() as u64;
    Ok(counts)
}

/// Scans a parsed file (the `lines` field stays zero — use
/// [`scan_source`] when you have the text).
#[must_use]
pub fn scan_file(file: &File) -> ConstructCounts {
    let mut c = ConstructCounts::default();
    for decl in &file.decls {
        match decl {
            Decl::Func(f) => {
                c.func_decls += 1;
                if let Some(r) = &f.receiver {
                    scan_type(&r.ty, &mut c);
                }
                scan_signature(&f.sig, &mut c);
                if let Some(b) = &f.body {
                    walk(Node::List(&b.stmts), &mut |n| count_node(n, &mut c));
                }
            }
            Decl::Var(v) | Decl::Const(v) => {
                scan_var_type(v, &mut c);
                for e in &v.values {
                    walk(Node::Expr(e), &mut |n| count_node(n, &mut c));
                }
            }
            Decl::Type(t) => scan_type(&t.ty, &mut c),
        }
    }
    c
}

/// The [`walk`] visitor: counts what the node itself is, reading `sig`/`ty`
/// off it where it carries types, and always descends.
fn count_node(n: Node<'_>, c: &mut ConstructCounts) -> Walk {
    use Stmt::{Defer, Go, Select, Send};
    match n {
        Node::Stmt(Stmt::Decl(v)) => scan_var_type(v, c),
        Node::Stmt(Send { .. }) => c.chan_sends += 1,
        Node::Stmt(Go { .. }) => c.go_statements += 1,
        Node::Stmt(Defer { .. }) => c.defer_stmts += 1,
        Node::Stmt(Select { .. }) => c.select_stmts += 1,
        Node::Expr(Expr::Call { func, .. }) => {
            if let Expr::Selector(_, method) = func.as_ref() {
                match *method {
                    sym::LOCK => c.lock_calls += 1,
                    sym::UNLOCK => c.unlock_calls += 1,
                    sym::RLOCK => c.rlock_calls += 1,
                    sym::RUNLOCK => c.runlock_calls += 1,
                    sym::ADD | sym::DONE | sym::WAIT => c.waitgroup_calls += 1,
                    _ => {}
                }
            }
        }
        Node::Expr(Expr::Unary {
            op: UnaryOp::Recv, ..
        }) => c.chan_recvs += 1,
        Node::Expr(Expr::FuncLit { sig, .. }) => {
            c.func_lits += 1;
            scan_signature(sig, c);
        }
        Node::Expr(Expr::CompositeLit { ty: Some(ty), .. } | Expr::TypeExpr(ty)) => {
            scan_type(ty, c);
        }
        _ => {}
    }
    Walk::Descend
}

fn scan_var_type(v: &VarDecl, c: &mut ConstructCounts) {
    if let Some(ty) = &v.ty {
        scan_type(ty, c);
        count_sync_decl(ty, v.names.len() as u64, c);
    }
}

fn count_sync_decl(ty: &Type, n: u64, c: &mut ConstructCounts) {
    match ty {
        Type::Name(name) => match *name {
            sym::SYNC_WAITGROUP => c.waitgroup_decls += n,
            sym::SYNC_MUTEX => c.mutex_decls += n,
            sym::SYNC_RWMUTEX => c.rwmutex_decls += n,
            _ => {}
        },
        Type::Pointer(inner) | Type::Slice(inner) | Type::Array(_, inner) => {
            count_sync_decl(inner, n, c);
        }
        _ => {}
    }
}

fn scan_signature(sig: &Signature, c: &mut ConstructCounts) {
    for p in sig.params.iter().chain(sig.results.iter()) {
        scan_type(&p.ty, c);
    }
}

fn scan_type(ty: &Type, c: &mut ConstructCounts) {
    match ty {
        Type::Name(_) | Type::Interface => {}
        Type::Pointer(t) | Type::Slice(t) | Type::Array(_, t) => scan_type(t, c),
        Type::Map(k, v) => {
            c.map_constructs += 1;
            scan_type(k, c);
            scan_type(v, c);
        }
        Type::Chan(_, t) => {
            c.chan_types += 1;
            scan_type(t, c);
        }
        Type::Func(sig) => scan_signature(sig, c),
        Type::Struct(fields) => {
            for f in fields {
                scan_type(&f.ty, c);
                count_sync_decl(&f.ty, 1, c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_the_full_feature_set() {
        let src = r#"
package svc

import "sync"

type server struct {
    mu    sync.Mutex
    gate  sync.RWMutex
    wg    sync.WaitGroup
    cache map[string]int
}

func (s *server) Serve(jobs []int) error {
    results := make(chan int, 8)
    var wg sync.WaitGroup
    for _, j := range jobs {
        wg.Add(1)
        go func(j int) {
            defer wg.Done()
            s.mu.Lock()
            s.cache["k"] = j
            s.mu.Unlock()
            results <- j
        }(j)
    }
    go func() {
        wg.Wait()
    }()
    s.gate.RLock()
    v := <-results
    s.gate.RUnlock()
    select {
    case r := <-results:
        _ = r
    default:
    }
    _ = v
    return nil
}
"#;
        let c = scan_source(src).expect("parses");
        assert_eq!(c.go_statements, 2);
        assert_eq!(c.lock_calls, 1);
        assert_eq!(c.unlock_calls, 1);
        assert_eq!(c.rlock_calls, 1);
        assert_eq!(c.runlock_calls, 1);
        assert_eq!(c.chan_sends, 1);
        assert_eq!(c.chan_recvs, 2, "plain recv + select arm");
        assert_eq!(c.waitgroup_decls, 2, "struct field + local var");
        assert_eq!(c.waitgroup_calls, 3, "Add, Done, Wait");
        assert_eq!(c.mutex_decls, 1);
        assert_eq!(c.rwmutex_decls, 1);
        assert_eq!(c.map_constructs, 1, "the cache field's map type");
        assert!(c.chan_types >= 1);
        assert_eq!(c.select_stmts, 1);
        assert_eq!(c.defer_stmts, 1);
        assert_eq!(c.func_decls, 1);
        assert_eq!(c.func_lits, 2);
        assert!(c.lines > 10);
    }

    #[test]
    fn table1_aggregates() {
        let src = r#"
package p

import "sync"

var mu sync.Mutex

func f(ch chan int) {
    go g()
    mu.Lock()
    ch <- 1
    mu.Unlock()
    <-ch
}

func g() {}
"#;
        let c = scan_source(src).expect("parses");
        assert_eq!(c.concurrency_creation(), 1);
        assert_eq!(c.point_to_point(), 4, "Lock+Unlock+send+recv");
        assert_eq!(c.group_sync(), 0);
        assert!(c.per_mloc(c.point_to_point()) > 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let a = scan_source("package a\nfunc f() { go g() }\nfunc g() {}").expect("parses");
        let b = scan_source("package b\nfunc h(ch chan int) { ch <- 1 }").expect("parses");
        let mut sum = ConstructCounts::default();
        sum.merge(&a);
        sum.merge(&b);
        assert_eq!(sum.go_statements, 1);
        assert_eq!(sum.chan_sends, 1);
        assert_eq!(sum.lines, a.lines + b.lines);
    }
}
