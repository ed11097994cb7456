//! Grammar-coverage tests for the Go-lite parser: every supported
//! construct, the classic ambiguities, and error diagnostics with
//! positions.

use grs_golite::ast::*;
use grs_golite::parser::{parse_expr, parse_file};

fn parse_ok(src: &str) -> File {
    parse_file(src).unwrap_or_else(|e| panic!("parse error: {e}\nsource:\n{src}"))
}

fn first_func(file: &File) -> &FuncDecl {
    file.decls
        .iter()
        .find_map(|d| match d {
            Decl::Func(f) => Some(f),
            _ => None,
        })
        .expect("a function")
}

#[test]
fn package_and_imports() {
    let f = parse_ok(
        r#"
package server

import "sync"
import ctx "context"
import (
    "fmt"
    "strings"
)
"#,
    );
    assert_eq!(f.text(f.package), "server");
    let imports: Vec<&str> = f.imports.iter().map(|&i| f.text(i)).collect();
    assert_eq!(imports, vec!["sync", "context", "fmt", "strings"]);
}

#[test]
fn declarations_all_forms() {
    let f = parse_ok(
        r#"
package p

var a int
var b, c string
var d = 5
var (
    e int
    g = "hi"
)
const limit = 10
type ID int
type pair struct {
    x, y int
    tag  string
}
type handler func(int) error
type reader interface {
    Read(p []byte) (int, error)
}
"#,
    );
    assert_eq!(f.decls.len(), 9);
    let struct_decl = f
        .decls
        .iter()
        .find_map(|d| match d {
            Decl::Type(t) if f.text(t.name) == "pair" => Some(t),
            _ => None,
        })
        .expect("pair");
    let Type::Struct(fields) = &struct_decl.ty else {
        panic!("not a struct");
    };
    assert_eq!(fields.len(), 3, "x, y share a type; tag separate");
}

#[test]
fn signatures_and_receivers() {
    let f = parse_ok(
        r#"
package p

func plain() {}
func args(a int, b, c string, v ...int) {}
func results() (int, error) { return 0, nil }
func named() (n int, err error) { return }
func (s *Server) Method(x int) int { return x }
func (s Server) ValueMethod() {}
"#,
    );
    let funcs: Vec<&FuncDecl> = f
        .decls
        .iter()
        .filter_map(|d| match d {
            Decl::Func(fd) => Some(fd),
            _ => None,
        })
        .collect();
    assert_eq!(funcs.len(), 6);
    assert_eq!(funcs[1].sig.params.len(), 4);
    assert_eq!(funcs[1].sig.params[1].ty, funcs[1].sig.params[2].ty);
    assert!(matches!(funcs[1].sig.params[3].ty, Type::Slice(_)));
    assert_eq!(funcs[2].sig.results.len(), 2);
    assert!(funcs[3].sig.has_named_results());
    let m = funcs[4].receiver.as_ref().expect("receiver");
    assert!(matches!(m.ty, Type::Pointer(_)));
    assert!(matches!(
        funcs[5].receiver.as_ref().expect("value receiver").ty,
        Type::Name(_)
    ));
}

#[test]
fn types_all_forms() {
    let f = parse_ok(
        r#"
package p

var a *int
var b []string
var c [4]byte
var d [N]byte
var e map[string][]int
var f chan int
var g chan<- int
var h <-chan int
var i func(int, string) (bool, error)
var j sync.Mutex
"#,
    );
    let tys: Vec<&Type> = f
        .decls
        .iter()
        .filter_map(|d| match d {
            Decl::Var(v) => v.ty.as_ref(),
            _ => None,
        })
        .collect();
    assert!(matches!(tys[0], Type::Pointer(_)));
    assert!(matches!(tys[1], Type::Slice(_)));
    assert!(matches!(tys[2], Type::Array(s, _) if f.text(*s) == "4"));
    assert!(matches!(tys[3], Type::Array(s, _) if f.text(*s) == "N"));
    assert!(matches!(tys[4], Type::Map(_, _)));
    assert!(matches!(tys[5], Type::Chan(ChanDir::Both, _)));
    assert!(matches!(tys[6], Type::Chan(ChanDir::Send, _)));
    assert!(matches!(tys[7], Type::Chan(ChanDir::Recv, _)));
    assert!(matches!(tys[8], Type::Func(_)));
    assert!(matches!(tys[9], Type::Name(n) if *n == sym::SYNC_MUTEX));
    assert_eq!(f.text(sym::SYNC_MUTEX), "sync.Mutex");
}

#[test]
fn statement_forms() {
    let f = parse_ok(
        r#"
package p

func f(ch chan int, m map[string]int) {
    x := 1
    x, y := 2, 3
    x = y
    x += y
    x++
    y--
    ch <- x
    v := <-ch
    go g(v)
    defer h()
    var local [2]int
    _ = local
    if x > 0 {
        x = 0
    } else if y > 0 {
        y = 0
    } else {
        x = 1
    }
    if err := try(); err != nil {
        return
    }
    for {
        break
    }
    for x < 10 {
        x++
    }
    for i := 0; i < 3; i++ {
        continue
    }
    for k, v := range m {
        _ = k
        _ = v
    }
    for range ch {
        break
    }
    switch x {
    case 1, 2:
        x = 0
    default:
        x = 9
    }
    switch {
    case x > 0:
    }
    select {
    case v := <-ch:
        _ = v
    case ch <- 1:
    default:
    }
    {
        scoped := 1
        _ = scoped
    }
    return
}
"#,
    );
    let body = first_func(&f).body.as_ref().expect("body");
    assert!(body.stmts.len() >= 20);
}

#[test]
fn expressions_and_precedence() {
    let (e, _) = parse_expr("1 + 2*3 - 4%3").expect("parses");
    // (1 + (2*3)) - (4%3)
    let Expr::Binary {
        op: BinaryOp::Sub,
        lhs,
        ..
    } = &e
    else {
        panic!("top is -: {e:?}");
    };
    assert!(matches!(
        **lhs,
        Expr::Binary {
            op: BinaryOp::Add,
            ..
        }
    ));

    let (e, _) = parse_expr("a && b || c == d").expect("parses");
    let Expr::Binary {
        op: BinaryOp::OrOr, ..
    } = &e
    else {
        panic!("|| binds loosest: {e:?}");
    };

    let (e, _) = parse_expr("!ok && -x < 3").expect("parses");
    assert!(matches!(
        e,
        Expr::Binary {
            op: BinaryOp::AndAnd,
            ..
        }
    ));

    let (e, names) = parse_expr("f(a)(b)[c].d").expect("parses");
    assert!(matches!(e, Expr::Selector(_, d) if names.text(d) == "d"));
}

#[test]
fn composite_literals_and_calls() {
    let f = parse_ok(
        r#"
package p

func f() {
    s := []int{1, 2, 3}
    m := map[string]int{"a": 1, "b": 2}
    p := Point{x: 1, y: 2}
    q := pkg.Remote{a: 1}
    n := nested{inner: []int{1}, pairs: map[int]int{1: 2}}
    c := make(chan int, 8)
    mm := make(map[string]error)
    sl := make([]int, 4)
    b := []byte("text")
    _ = s
    _ = m
    _ = p
    _ = q
    _ = n
    _ = c
    _ = mm
    _ = sl
    _ = b
}
"#,
    );
    let body = first_func(&f).body.as_ref().expect("body");
    assert_eq!(body.stmts.len(), 18);
}

#[test]
fn composite_literal_vs_block_ambiguity() {
    // `if x == T{}` must NOT parse `T{}` as a composite literal in the
    // header; parenthesized it must.
    let f = parse_ok(
        r#"
package p

func f(x Point) bool {
    if x == (Point{}) {
        return true
    }
    for i := zero(); i < max; i++ {
    }
    return false
}
"#,
    );
    assert_eq!(f.text(first_func(&f).name), "f");
    // A bare `T{}` in a header parses as `(x == Point) {block}` — the `{}`
    // becomes the then-block, exactly gc's tokenization of the ambiguity.
    let g = parse_ok("package p\nfunc f(x Point) bool { if x == Point { } \nreturn false }");
    let body = first_func(&g).body.as_ref().expect("body");
    let Stmt::If { cond, .. } = &body.stmts[0] else {
        panic!("if statement");
    };
    assert!(
        matches!(cond, Expr::Binary { op: BinaryOp::Eq, rhs, .. }
            if matches!(**rhs, Expr::Ident(..))),
        "Point stays a bare identifier in the header: {cond:?}"
    );
}

#[test]
fn closures_and_goroutines() {
    let f = parse_ok(
        r#"
package p

func f(jobs []int) {
    total := 0
    add := func(n int) { total = total + n }
    for _, j := range jobs {
        go func(j int) {
            add(j)
        }(j)
    }
    go func() { add(1) }()
    defer func() { total = 0 }()
}
"#,
    );
    let body = first_func(&f).body.as_ref().expect("body");
    let go_count = body
        .stmts
        .iter()
        .filter(|s| matches!(s, Stmt::For { .. } | Stmt::Go { .. }))
        .count();
    assert_eq!(go_count, 2, "range loop + direct go");
}

#[test]
fn type_assertions_and_conversions() {
    parse_ok(
        r#"
package p

func f(v interface{}) int {
    n := v.(int)
    s := v.(string)
    _ = s
    t := v.(type2)
    _ = t
    return n
}
"#,
    );
}

#[test]
fn slices_of_slices_and_slicing() {
    let f = parse_ok(
        r#"
package p

func f(grid [][]int) []int {
    row := grid[0]
    part := row[1:3]
    head := row[:2]
    tail := row[2:]
    all := row[:]
    _ = part
    _ = head
    _ = tail
    _ = all
    return row
}
"#,
    );
    assert_eq!(f.text(first_func(&f).name), "f");
}

#[test]
fn error_positions_are_reported() {
    let err = parse_file("package p\nfunc f() {\n    x := := 2\n}\n").expect_err("bad");
    assert_eq!(err.pos.line, 3);
    let err = parse_file("package p\nfunc {").expect_err("bad");
    assert_eq!(err.pos.line, 2);
    let err = parse_file("func f() {}").expect_err("no package clause");
    assert_eq!(err.pos.line, 1);
}

#[test]
fn unterminated_constructs_error_cleanly() {
    assert!(parse_file("package p\nfunc f() {").is_err());
    assert!(parse_file("package p\nvar s = \"unterminated").is_err());
    assert!(parse_file("package p\n/* unterminated").is_err());
    assert!(parse_file("package p\ntype i interface {").is_err());
}

#[test]
fn grouped_type_declarations() {
    let f = parse_ok(
        r#"
package p

type (
    A int
    B string
)
"#,
    );
    // The group parses (first member kept, rest validated).
    assert!(matches!(&f.decls[0], Decl::Type(t) if f.text(t.name) == "A"));
}

#[test]
fn struct_tags_and_embedded_fields() {
    let f = parse_ok(
        r#"
package p

type Entity struct {
    Base
    Name string `json:"name"`
    Age  int    `json:"age"`
}
"#,
    );
    let Decl::Type(t) = &f.decls[0] else {
        panic!("type decl");
    };
    let Type::Struct(fields) = &t.ty else {
        panic!("struct");
    };
    assert_eq!(fields.len(), 3);
    assert!(fields[0].name.is_empty(), "embedded field");
}

// ---- spellings are the source's own: literals are sliced, not rebuilt ----

/// The initializer of the file's only `var`.
fn only_value(f: &File) -> &Expr {
    f.decls
        .iter()
        .find_map(|d| match d {
            Decl::Var(v) => v.values.first(),
            _ => None,
        })
        .expect("a var with a value")
}

#[test]
fn non_ascii_literals_keep_their_text() {
    // The lexer once pushed every byte of a literal as a `char`, so "héllo"
    // parsed to "hÃ©llo" (7 bytes of UTF-8 where the source has 6).
    let src = "package p\nvar s = \"héllo, 世界\"\n";
    let f = parse_ok(src);
    let Expr::Str(_, s) = only_value(&f) else {
        panic!("string literal");
    };
    assert_eq!(f.text(*s), "héllo, 世界");
    let open = src.find('"').expect("opening quote");
    let close = src.rfind('"').expect("closing quote");
    assert_eq!(f.text(*s), &src[open + 1..close], "content is the source slice");

    let src = "package p\nvar s = `naïve\n\traw ✓`\n";
    let f = parse_ok(src);
    let Expr::Str(_, s) = only_value(&f) else {
        panic!("raw string literal");
    };
    assert_eq!(f.text(*s), "naïve\n\traw ✓");
    assert_eq!(
        f.text(*s),
        &src[src.find('`').expect("open") + 1..src.rfind('`').expect("close")]
    );

    let f = parse_ok("package p\nvar r = 'é'\n");
    let Expr::Rune(_, r) = only_value(&f) else {
        panic!("rune literal");
    };
    assert_eq!(f.text(*r), "é");
    assert_eq!(f.text(*r).chars().count(), 1);

    // An escape shields one byte; a multi-byte character after a backslash
    // still ends on a boundary.
    let f = parse_ok("package p\nvar s = \"a\\\"é\\é\"\n");
    let Expr::Str(_, s) = only_value(&f) else {
        panic!("string literal");
    };
    assert_eq!(f.text(*s), "a\\\"é\\é");
}

#[test]
fn a_non_ascii_identifier_is_named_in_the_diagnostic() {
    // Identifiers are ASCII in Go-lite; the error names the character the
    // source holds (it once named its first byte, 'Ã').
    let err = parse_file("package p\nvar é = 1\n").expect_err("non-ASCII identifier");
    assert_eq!(err.message, "unexpected character 'é'");
    assert_eq!((err.pos.line, err.pos.col), (2, 5));
    let err = parse_file("package p\nvar x = 1 § 2\n").expect_err("stray character");
    assert_eq!(err.message, "unexpected character '§'");
}

#[test]
fn integer_literals_carry_their_value_beside_their_text() {
    let value = |lit: &str| {
        let f = parse_ok(&format!("package p\nvar n = {lit}\n"));
        match only_value(&f) {
            Expr::Int(_, text, v) => {
                assert_eq!(f.text(*text), lit);
                *v
            }
            other => panic!("{lit}: {other:?}"),
        }
    };
    assert_eq!(value("42"), Some(42));
    assert_eq!(value("1_000_000"), Some(1_000_000));
    assert_eq!(value("0xFF"), Some(255));
    // Does not fit an i64: the run-time "bad integer literal" stays where
    // it was, at evaluation.
    assert_eq!(value("99999999999999999999"), None);
}

// ---- nesting cap: a source file cannot choose the parser's stack ----

fn nested_parens(n: usize) -> String {
    format!("{}1{}", "(".repeat(n), ")".repeat(n))
}

fn in_func(body: &str) -> String {
    format!("package p\nfunc f(x bool) {{\n{body}\n}}\n")
}

fn nested_ifs(n: usize) -> String {
    in_func(&format!("{}{}", "if x {\n".repeat(n), "}\n".repeat(n)))
}

/// Every way the grammar recurses, or builds a tree deeper than it
/// recursed, `n` levels deep.
fn deep_sources(n: usize) -> Vec<String> {
    vec![
        in_func(&format!("y := {}", nested_parens(n))),
        nested_ifs(n),
        in_func(&format!("if x {{\n}}{}", " else if x {\n}".repeat(n))),
        in_func(&format!(
            "{}{}",
            "switch {\ncase x:\n".repeat(n),
            "}\n".repeat(n)
        )),
        in_func(&format!(
            "{}{}",
            "func() {\n".repeat(n / 2),
            "}()\n".repeat(n / 2)
        )),
        in_func(&format!("y := {}x", "!".repeat(n))),
        in_func(&format!("y := 1{}", " + 1".repeat(n))),
        in_func(&format!("y := a{}", ".b".repeat(n))),
        in_func(&format!("y := f{}", "()".repeat(n))),
        format!("package p\nvar v {}int\n", "*".repeat(n)),
        format!("package p\nvar v = T{}{}\n", "{".repeat(n), "}".repeat(n)),
    ]
}

#[test]
fn nesting_past_the_cap_is_a_parse_error_not_a_stack_overflow() {
    use grs_golite::parser::MAX_NESTING;
    for src in deep_sources(10_000) {
        let err = parse_file(&src).expect_err("10,000 levels must be refused");
        assert!(err.message.contains("nesting deeper than"), "{err}");
    }
    // The boundary is exact: the innermost operand sits at depth n + 1.
    assert!(parse_expr(&nested_parens(MAX_NESTING - 1)).is_ok());
    assert!(parse_expr(&nested_parens(MAX_NESTING)).is_err());
}

#[test]
fn nesting_just_under_the_cap_parses_and_survives_the_passes_behind_the_parser() {
    use grs_golite::parser::MAX_NESTING;
    for src in deep_sources(MAX_NESTING - 8) {
        let file = parse_ok(&src);
        // resolve, cfg, callgraph, summaries and every lint rule recurse
        // over the tree the cap bounded; so does dropping it.
        let _ = grs_golite::lint_file(&file);
    }
}
