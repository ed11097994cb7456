//! Seeded property tests for the Go-lite static-analysis frontend.
//!
//! The generator in `grs::corpus::gogen` emits arbitrary-but-valid Go-lite
//! monorepos; every stage of the frontend pipeline — parse, resolve, CFG
//! construction, flow table, call-graph + SCCs, interprocedural lint — must
//! accept that output without panicking, and the corpus-level lint report
//! must be byte-deterministic so the CI benchmark artifact is stable.
//!
//! These use the vendored `rand` stub (`crates/randlite`), so they run in
//! tier-1 without registry access — unlike the `props`-gated proptest
//! suites.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use grs::corpus::{lint_corpus, listings, GoCorpus, GoCorpusSpec, GoTestGen, GoTestSpec};
use grs::golite::ast::{walk, Decl, Node, Stmt, Walk};
use grs::golite::lexer::tokenize;
use grs::golite::token::{Keyword, Tok};
use grs::golite::{
    cfg, lint_file, lockset, mhp::Mhp, parse_file, resolve_file, scan_file, summary::Summaries,
};

/// Draws a handful of (spec, seed) corpus configurations from a meta-seed.
fn drawn_corpora(meta_seed: u64, n: usize) -> Vec<(GoCorpusSpec, u64)> {
    let mut rng = StdRng::seed_from_u64(meta_seed);
    (0..n)
        .map(|_| {
            // Small scales keep each case to a few files; the point is
            // structural variety, not volume.
            let scale = rng.gen_range(1..9) as f64 * 0.00005;
            let seed = rng.gen_range(0..u64::MAX / 2);
            (GoCorpusSpec::paper_scaled(scale), seed)
        })
        .collect()
}

/// Every frontend stage accepts every generated file without panicking:
/// parse → resolve → CFG → flow table → call graph (+ SCCs, summaries, MHP)
/// → lint.
#[test]
fn frontend_pipeline_never_panics_on_generated_sources() {
    for (spec, seed) in drawn_corpora(0xC0FFEE, 6) {
        let corpus = GoCorpus::generate(&spec, seed);
        assert!(!corpus.files.is_empty(), "seed {seed}: empty corpus");
        for (path, src) in &corpus.files {
            let file = parse_file(src)
                .unwrap_or_else(|e| panic!("seed {seed} {path}: parse error {e}"));
            let res = resolve_file(&file);
            let cfg = cfg::build_file(&file, &res);
            let (flow, cg) = lockset::flow(&cfg);
            let sccs = cg.sccs();
            let reachable: usize = sccs.iter().map(Vec::len).sum();
            assert_eq!(
                reachable,
                cfg.funcs.len(),
                "seed {seed} {path}: SCCs must partition the functions"
            );
            let _sums = Summaries::compute(&cfg, flow, &cg, &file.names);
            let _mhp = Mhp::build(&file);
            let _findings = lint_file(&file);
        }
    }
}

/// Lint findings are a pure function of the source: linting the same
/// generated corpus twice — from two independent generation runs — yields
/// byte-identical JSON reports.
#[test]
fn lint_corpus_report_is_byte_deterministic() {
    for (spec, seed) in drawn_corpora(0xDECAF, 3) {
        let first = lint_corpus(&GoCorpus::generate(&spec, seed)).to_json();
        let second = lint_corpus(&GoCorpus::generate(&spec, seed)).to_json();
        assert_eq!(
            first, second,
            "seed {seed}: lint report differs across identical generations"
        );
        assert!(first.ends_with('\n') || !first.is_empty());
    }
}

/// Distinct seeds genuinely vary the corpus (the generator is not
/// degenerate), while each individual seed stays reproducible.
#[test]
fn generation_is_seed_sensitive_and_reproducible() {
    let spec = GoCorpusSpec::paper_scaled(0.0001);
    let a1 = GoCorpus::generate(&spec, 7);
    let a2 = GoCorpus::generate(&spec, 7);
    let b = GoCorpus::generate(&spec, 8);
    assert_eq!(a1.files, a2.files, "same seed must reproduce byte-for-byte");
    assert_ne!(a1.files, b.files, "different seeds should differ");
}

/// `go`, `defer` and `select` in every position that can hold a statement
/// list or an expression — the generated inputs use `go` only, and only in
/// function bodies and loops.
const EVERY_NESTING: &str = r#"
package p

var hook = func() {
    go work()
    defer done()
}

var table = map[string]func(){
    "k": func() { select {} },
}

func f(ch chan int, a bool, b bool, k int) {
    defer func() {
        go work()
    }()
    run := func() {
        defer done()
        select {
        case v := <-ch:
            go use(v)
        default:
            defer done()
        }
    }
    if a {
        go work()
    } else if b {
        defer done()
    } else {
        select {}
    }
    for i := 0; i < k; i++ {
        switch i {
        case 1:
            go work()
        default:
            func() {
                defer done()
                go work()
            }()
        }
    }
    {
        go call(func() { select {} }, handlers{first: func() { defer done() }})
    }
    run()
}
"#;

/// The traversal is complete, judged by something that is not a traversal:
/// on every text of the rendition set, 500 generated tests and
/// [`EVERY_NESTING`], `ast::walk` (with a visitor that never skips) meets
/// exactly as many `go`/`defer`/`select` statements as the lexer
/// produced keyword tokens, and the construct scanner built on it reports
/// the same counts.
#[test]
fn walk_visits_every_go_defer_and_select_the_lexer_sees() {
    let mut sources: Vec<(String, String)> = Vec::new();
    for l in listings() {
        for (i, text) in l.texts().enumerate() {
            sources.push((format!("{}/{i}", l.name), text.to_string()));
        }
    }
    for seed in [1, 2] {
        for t in GoTestGen::new(GoTestSpec::default_mix(), seed).iter(250) {
            sources.push((format!("seed {seed} {}", t.name), t.source));
        }
    }
    sources.push(("every_nesting".to_string(), EVERY_NESTING.to_string()));

    let mut total = [0u64; 3];
    for (name, src) in &sources {
        let tokens = tokenize(src).unwrap_or_else(|e| panic!("{name}: lex error {e}"));
        let lexed = [Keyword::Go, Keyword::Defer, Keyword::Select]
            .map(|kw| tokens.iter().filter(|t| t.tok == Tok::Kw(kw)).count() as u64);

        let file = parse_file(src).unwrap_or_else(|e| panic!("{name}: parse error {e}"));
        let mut walked = [0u64; 3];
        let mut visit = |n| {
            match n {
                Node::Stmt(Stmt::Go { .. }) => walked[0] += 1,
                Node::Stmt(Stmt::Defer { .. }) => walked[1] += 1,
                Node::Stmt(Stmt::Select { .. }) => walked[2] += 1,
                _ => {}
            }
            Walk::Descend
        };
        for decl in &file.decls {
            match decl {
                Decl::Func(f) => {
                    if let Some(body) = &f.body {
                        walk(Node::List(&body.stmts), &mut visit);
                    }
                }
                Decl::Var(v) | Decl::Const(v) => {
                    for e in &v.values {
                        walk(Node::Expr(e), &mut visit);
                    }
                }
                Decl::Type(_) => {}
            }
        }
        assert_eq!(walked, lexed, "{name}: walk vs lexer (go, defer, select)");

        let c = scan_file(&file);
        assert_eq!(
            [c.go_statements, c.defer_stmts, c.select_stmts],
            lexed,
            "{name}: scan_file vs lexer (go, defer, select)"
        );
        for (t, n) in total.iter_mut().zip(lexed) {
            *t += n;
        }
    }
    assert!(total.iter().all(|&n| n > 0), "vacuous: totals {total:?}");
}
