//! Static and dynamic agree on what a name denotes.
//!
//! Go's scoping rules are written twice in this workspace: `golite::resolve`
//! (symbols, `:=` redeclaration, closure capture sets — what the lints
//! read) and `interp::Env` (what executes). This differential holds them
//! to each other on every program we can run: record one execution, take
//! every *variable* cell the trace shows touched by more than one
//! goroutine, and require that `Resolution` knows a way for a variable of
//! that name to be shared — it is package-level, or some `func` literal
//! captures it. A cell shared through a *value* (a struct field, a slice
//! or map element, a `new`/`&composite` cell, a variable whose address was
//! taken) is shared whatever the resolver says, and is left out.
//!
//! A disagreement is a bug in `resolve` or in `Env`, and decides whether
//! the interpreter may be lowered from `Resolution::captures_at`: it is
//! reported with the program, not filtered away.

use std::collections::{BTreeMap, BTreeSet};

use grs::corpus::{go_snippets, GoTestGen, GoTestSpec};
use grs::golite::ast::{walk, Decl, Expr, File, Node, UnaryOp, Walk};
use grs::golite::resolve::SymbolKind;
use grs::golite::{parse_file, resolve_file};
use grs::interp::Interp;
use grs::patterns::gosrc::renditions;
use grs::runtime::event::EventKind;
use grs::runtime::trace::record;
use grs::runtime::RunConfig;

/// Visits every expression of the file, closure bodies included.
fn each_expr<'a>(file: &'a File, mut visit: impl FnMut(&'a Expr)) {
    let mut on_node = |n| {
        if let Node::Expr(e) = n {
            visit(e);
        }
        Walk::Descend
    };
    for decl in &file.decls {
        match decl {
            Decl::Func(f) => {
                if let Some(body) = &f.body {
                    walk(Node::List(&body.stmts), &mut on_node);
                }
            }
            Decl::Var(v) | Decl::Const(v) => {
                for e in &v.values {
                    walk(Node::Expr(e), &mut on_node);
                }
            }
            Decl::Type(_) => {}
        }
    }
}

/// What the resolver says about sharing, by name.
struct StaticView {
    /// Names of package-level variables and of every symbol some `func`
    /// literal captures.
    shareable: BTreeSet<String>,
    /// Names of variables whose address is taken somewhere (`&x`): shared
    /// through the pointer, not through the name.
    address_taken: BTreeSet<String>,
}

fn static_view(file: &File) -> StaticView {
    let res = resolve_file(file);
    let mut shareable: BTreeSet<String> = res
        .symbols()
        .iter()
        .filter(|s| matches!(s.kind, SymbolKind::GlobalVar | SymbolKind::GlobalConst))
        .map(|s| file.text(s.name).to_string())
        .collect();
    let mut address_taken = BTreeSet::new();
    each_expr(file, |e| match e {
        Expr::FuncLit { pos, .. } => {
            for &id in res.captures_at(*pos) {
                shareable.insert(file.text(res.symbol(id).name).to_string());
            }
        }
        Expr::Unary {
            op: UnaryOp::Addr,
            expr,
        } => {
            if let Some(name) = expr.as_ident() {
                address_taken.insert(file.text(name).to_string());
            }
        }
        _ => {}
    });
    StaticView {
        shareable,
        address_taken,
    }
}

/// Is `object` the debug name of a variable's cell? The interpreter names a
/// variable's cell by its spelling; a field is `T.f`, an element `s[i]` or
/// `m[k]`, a copy `… (copy)`, and `new(T)` / `&T{}` make cells called `new`
/// and `&composite`.
fn is_variable_cell(object: &str) -> bool {
    let mut chars = object.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
        && object != "new"
}

/// Runs `entry` of `src` once, recorded, and returns the names of the
/// variable cells more than one goroutine touched — or `None` when the
/// program does not lower or does not finish cleanly (an undefined helper,
/// an entry that needs arguments).
fn shared_variable_cells(file: File, name: &str, entry: &str, seed: u64) -> Option<BTreeSet<String>> {
    let program = Interp::from_file(file).program_checked(name, entry).ok()?;
    let (outcome, trace) = record(&program, &RunConfig::with_seed(seed));
    if !outcome.is_clean() {
        return None;
    }
    let mut touched: BTreeMap<u64, (String, BTreeSet<u32>)> = BTreeMap::new();
    for ev in &trace.events {
        if let EventKind::Access { addr, object, .. } = &ev.kind {
            touched
                .entry(addr.0)
                .or_insert_with(|| (object.to_string(), BTreeSet::new()))
                .1
                .insert(ev.gid.0);
        }
    }
    Some(
        touched
            .into_values()
            .filter(|(object, gids)| gids.len() > 1 && is_variable_cell(object))
            .map(|(object, _)| object)
            .collect(),
    )
}

/// The shared variable cells the resolver has no sharing story for.
fn unexplained(view: &StaticView, shared: &BTreeSet<String>) -> Vec<String> {
    shared
        .iter()
        .filter(|cell| !view.address_taken.contains(*cell) && !view.shareable.contains(*cell))
        .cloned()
        .collect()
}

/// What the sweep has seen so far.
#[derive(Default)]
struct Sweep {
    /// Programs that ran to a clean finish.
    ran: usize,
    /// Shared variable cells checked.
    shared_cells: usize,
    /// One message per unexplained cell, with the program.
    failures: Vec<String>,
}

impl Sweep {
    /// Checks one program; `false` when it could not be run.
    fn check(&mut self, src: &str, name: &str, entry: &str, seed: u64) -> bool {
        let file = parse_file(src).unwrap_or_else(|e| panic!("{name}: parse error {e}"));
        let view = static_view(&file);
        let Some(shared) = shared_variable_cells(file, name, entry, seed) else {
            return false;
        };
        self.ran += 1;
        self.shared_cells += shared.len();
        for cell in unexplained(&view, &shared) {
            self.failures.push(format!(
                "{name} (entry {entry}, run seed {seed}): `{cell}` is touched by more \
                 than one goroutine, but no func literal captures a `{cell}` and none \
                 is package-level\n{src}"
            ));
        }
        true
    }
}

#[test]
fn every_shared_variable_cell_is_captured_or_package_level() {
    let mut sweep = Sweep::default();

    // The generated corpus: every template and filler, two generator seeds.
    for gen_seed in [1u64, 2] {
        let gen = GoTestGen::new(GoTestSpec::default_mix().fillers_max(3), gen_seed);
        for t in gen.iter(300) {
            assert!(
                sweep.check(&t.source, &t.name, "main", t.index),
                "{}: generated tests always run",
                t.name
            );
        }
    }
    let generated = sweep.ran;
    assert!(generated >= 500);

    // The embedded listings all run from `main`.
    for s in go_snippets() {
        assert!(
            sweep.check(s.source, s.name, "main", 7),
            "{}: snippets always run",
            s.name
        );
    }
    let snippets = sweep.ran - generated;

    // The lint renditions are written for the static route: most call
    // helpers no file defines or start from a function with parameters.
    // Whatever does run from a zero-argument function is held to the same
    // property.
    for r in renditions() {
        for (variant, src) in [("racy", r.racy), ("fixed", r.fixed)] {
            let file = parse_file(src).expect("renditions parse");
            let entries: Vec<String> = file
                .decls
                .iter()
                .filter_map(|d| match d {
                    Decl::Func(f) if f.receiver.is_none() && f.sig.params.is_empty() => {
                        Some(file.text(f.name).to_string())
                    }
                    _ => None,
                })
                .collect();
            for entry in entries {
                sweep.check(src, &format!("{}/{variant}", r.rule), &entry, 7);
            }
        }
    }

    println!(
        "{generated} generated tests, {snippets} snippets, {} rendition entry points ran; \
         {} shared variable cells checked",
        sweep.ran - generated - snippets,
        sweep.shared_cells
    );
    assert!(
        sweep.shared_cells > 500,
        "vacuous: only {} shared cells seen",
        sweep.shared_cells
    );
    assert!(
        sweep.failures.is_empty(),
        "static and dynamic disagree on what a name denotes:\n\n{}",
        sweep.failures.join("\n\n")
    );
}

/// The check has teeth, and leaves out what it says it leaves out.
#[test]
fn an_unexplained_shared_cell_is_a_disagreement() {
    let run = |src: &str| {
        let file = parse_file(src).expect("parses");
        let view = static_view(&file);
        (view, shared_variable_cells(file, "probe", "main", 1))
    };

    let captured = "package main\n\nfunc main() {\n\tn := 0\n\tdone := make(chan bool, 1)\n\t\
                    go func() {\n\t\tn = n + 1\n\t\tdone <- true\n\t}()\n\t<-done\n\tn = n + 1\n}\n";
    let (mut view, shared) = run(captured);
    let shared = shared.expect("runs");
    assert_eq!(
        shared.iter().map(String::as_str).collect::<Vec<_>>(),
        ["done", "n"],
        "both goroutines touch the counter and the channel variable"
    );
    assert!(unexplained(&view, &shared).is_empty());
    // Hide the closure's captures from the static side: both cells are now
    // shared with no explanation.
    view.shareable.clear();
    assert_eq!(unexplained(&view, &shared), ["done", "n"]);

    // Handed to the goroutine by address, `n` is shared through the
    // pointer: nothing captures it, and it is left out, not reported.
    let by_pointer = "package main\n\nfunc bump(p *int, done chan bool) {\n\t*p = *p + 1\n\t\
                      done <- true\n}\n\nfunc main() {\n\tn := 0\n\tdone := make(chan bool, 1)\n\t\
                      go bump(&n, done)\n\t<-done\n\tn = n + 1\n}\n";
    let (view, shared) = run(by_pointer);
    let shared = shared.expect("runs");
    assert!(shared.contains("n") && !view.shareable.contains("n"));
    assert!(unexplained(&view, &shared).is_empty());

    // A program that does not run has no verdict.
    let file = parse_file("package p\nfunc F(x int) {}\n").expect("parses");
    assert_eq!(shared_variable_cells(file, "params", "F", 1), None);
}
