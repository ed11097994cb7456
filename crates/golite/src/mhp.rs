//! May-happen-in-parallel facts for goroutine spawns.
//!
//! A goroutine spawned at position `P` runs concurrently with the rest of
//! its spawning function — *until the parent blocks on a join*. The two
//! joins Go-lite models are `WaitGroup.Wait()` (any `x.Wait()` call) and a
//! channel receive (`<-ch`), both of which the study's fix corpus uses to
//! order a spawned computation before a subsequent access. Positions of
//! those **kill points** are collected per function, from the function's
//! own body only: a `Wait` inside a `go` closure or a deferred call does
//! not block the parent at that source position.
//!
//! The relation is deliberately coarse (a kill point inside one `if` arm
//! still counts), erring toward *not* reporting — it gates the
//! interprocedural GR018 rule, where a false "parallel" verdict would file
//! a spurious race report.

use crate::ast::{sym, walk, Decl, Expr, File, Node, Stmt, UnaryOp, Walk};
use crate::token::Pos;

/// Per-function kill points, aligned with the CFG list of
/// [`build_file`](crate::cfg::build_file) (bodied functions, in
/// declaration order).
#[derive(Debug, Default)]
pub struct Mhp {
    kills: Vec<Vec<Pos>>,
}

impl Mhp {
    /// Collects kill points for every bodied function of `file`.
    #[must_use]
    pub fn build(file: &File) -> Mhp {
        let kills = file
            .decls
            .iter()
            .filter_map(|d| match d {
                Decl::Func(f) => f.body.as_ref().map(|b| kill_points(&b.stmts)),
                _ => None,
            })
            .collect();
        Mhp { kills }
    }

    /// Kill points of function `func` (CFG index), sorted by position.
    #[must_use]
    pub fn kills_of(&self, func: usize) -> &[Pos] {
        self.kills.get(func).map_or(&[], Vec::as_slice)
    }

    /// May an access at `access` in function `func` run in parallel with a
    /// goroutine spawned at `spawn` in the same function?
    ///
    /// True only when the access follows the spawn with no kill point
    /// strictly between the two: an access textually before the spawn is
    /// sequenced before it, and a `Wait`/receive in between orders the
    /// spawned work before the access.
    #[must_use]
    pub fn may_parallel(&self, func: usize, spawn: Pos, access: Pos) -> bool {
        access > spawn
            && !self
                .kills_of(func)
                .iter()
                .any(|w| *w > spawn && *w < access)
    }
}

/// Join positions of one function body. Three subtrees are pruned because
/// nothing in them blocks the parent here: the calls of `go`/`defer`
/// statements, closure bodies (they run at an unknown time — an
/// immediately-invoked one blocking is rare enough to ignore), and callee
/// expressions (only a call's arguments are scanned).
fn kill_points(body: &[Stmt]) -> Vec<Pos> {
    let mut out = Vec::new();
    let mut callee: Option<&Expr> = None;
    walk(Node::List(body), &mut |n| match n {
        Node::Stmt(Stmt::Go { .. } | Stmt::Defer { .. }) | Node::Expr(Expr::FuncLit { .. }) => {
            Walk::Skip
        }
        Node::Expr(e) if callee.is_some_and(|c| std::ptr::eq(e, c)) => Walk::Skip,
        Node::Expr(Expr::Call { func, .. }) => {
            // `x.Wait()` joins.
            if matches!(func.as_ref(), Expr::Selector(_, m) if *m == sym::WAIT) {
                out.extend(func.pos());
            }
            callee = Some(func);
            Walk::Descend
        }
        Node::Expr(Expr::Unary {
            op: UnaryOp::Recv,
            expr,
        }) => {
            out.extend(expr.pos());
            Walk::Descend
        }
        _ => Walk::Descend,
    });
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn mhp_of(src: &str) -> Mhp {
        Mhp::build(&parse_file(src).expect("parses"))
    }

    #[test]
    fn wait_between_spawn_and_access_kills_parallelism() {
        let m = mhp_of(
            r"
package p
func Run() {
    go work()
    wg.Wait()
    report(total)
}
",
        );
        assert_eq!(m.kills_of(0).len(), 1);
        let spawn = Pos { line: 4, col: 5 };
        let access = Pos { line: 6, col: 12 };
        assert!(!m.may_parallel(0, spawn, access));
        // Without the Wait the pair is parallel.
        let m2 = mhp_of("package p\nfunc Run() {\n    go work()\n    report(total)\n}\n");
        assert!(m2.may_parallel(0, Pos { line: 3, col: 5 }, Pos { line: 4, col: 12 }));
    }

    #[test]
    fn channel_receive_is_a_kill_point() {
        let m = mhp_of(
            r"
package p
func Run() {
    done := make(chan int)
    go work(done)
    <-done
    report(total)
}
",
        );
        assert_eq!(m.kills_of(0).len(), 1);
        assert!(!m.may_parallel(
            0,
            Pos { line: 5, col: 5 },
            Pos { line: 7, col: 12 }
        ));
    }

    #[test]
    fn waits_inside_goroutines_do_not_count() {
        let m = mhp_of(
            r"
package p
func Run() {
    go func() {
        wg.Wait()
    }()
    report(total)
}
",
        );
        assert!(m.kills_of(0).is_empty());
        // Accesses before the spawn are sequenced, not parallel.
        assert!(!m.may_parallel(0, Pos { line: 6, col: 1 }, Pos { line: 3, col: 1 }));
    }
}
