//! Seeded property tests for the Go-lite frontend: the lexer and parser
//! never panic, generated programs round-trip through the scanner, and ASI
//! behaves.
//!
//! Each property is checked over a few hundred cases drawn from a
//! fixed-seed `StdRng` (the vendored `rand` stub), so failures are
//! perfectly reproducible: the case index pins the inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use grs_golite::lexer::tokenize;
use grs_golite::parser::parse_file;
use grs_golite::scan::scan_source;
use grs_golite::token::{Keyword, Tok};

const CASES: usize = 400;

/// Runs `body` over `CASES` cases from a per-property deterministic rng.
fn check(seed: u64, mut body: impl FnMut(usize, &mut StdRng)) {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..CASES {
        body(case, &mut rng);
    }
}

/// Up to `max_len` characters drawn from printable ASCII and `extra`.
fn byte_soup(rng: &mut StdRng, max_len: usize, extra: &[char]) -> String {
    let printable = (b' '..=b'~').map(char::from);
    let alphabet: Vec<char> = printable.chain(extra.iter().copied()).collect();
    (0..rng.gen_range(0..max_len + 1))
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
        .collect()
}

/// Up to 60 Go-shaped fragments in random order: unlike byte soup, this
/// gets past the package clause and deep into the statement grammar.
fn token_soup(rng: &mut StdRng) -> String {
    const FRAGMENTS: &[&str] = &[
        "func", "go", "if", "else", "for", "range", "switch", "case", "default", "select",
        "return", "defer", "var", "type", "struct", "map", "chan", "x", "f", "T", "mu", "1",
        "\"s\"", "(", ")", "{", "}", "[", "]", ":=", "=", "<-", ".", ",", ";", ":", "+", "*", "&",
        "!", "==", "\n",
    ];
    let mut src = String::from("package p\nfunc f() {\n");
    for _ in 0..rng.gen_range(0..61usize) {
        src.push_str(FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())]);
        src.push(' ');
    }
    src
}

/// A lowercase identifier of 1..=7 characters that is not a Go keyword
/// (`go := 5` is rightly rejected by the parser).
fn ident(rng: &mut StdRng) -> String {
    loop {
        let mut name = String::from(char::from(rng.gen_range(b'a'..b'z' + 1)));
        for _ in 0..rng.gen_range(0..7usize) {
            let alnum = b"abcdefghijklmnopqrstuvwxyz0123456789";
            name.push(char::from(alnum[rng.gen_range(0..alnum.len())]));
        }
        if Keyword::lookup(&name).is_none() {
            return name;
        }
    }
}

/// Replaces every `Pos { line: _, col: _ }` in a debug rendering so two
/// ASTs can be compared structurally.
fn scrub_positions(file: &grs_golite::ast::File) -> String {
    let mut out = String::new();
    let rendered = format!("{file:?}");
    let mut rest = rendered.as_str();
    while let Some(i) = rest.find("Pos {") {
        out.push_str(&rest[..i]);
        out.push_str("Pos{..}");
        match rest[i..].find('}') {
            Some(j) => rest = &rest[i + j + 1..],
            None => {
                rest = "";
            }
        }
    }
    out.push_str(rest);
    out
}

/// The lexer is total: any byte soup either tokenizes or errors — it never
/// panics, positions stay in range, and the stream ends in `Eof`.
#[test]
fn lexer_never_panics() {
    check(0x1E, |case, rng| {
        let src = byte_soup(rng, 200, &['\n', '\t']);
        if let Ok(tokens) = tokenize(&src) {
            let max_line = src.lines().count() as u32 + 1;
            for t in &tokens {
                assert!(t.pos.line <= max_line + 1, "case {case}: {src:?}");
            }
            assert_eq!(
                tokens.last().map(|t| t.tok),
                Some(Tok::Eof),
                "case {case}: {src:?}"
            );
        }
    });
}

/// The parser is total over arbitrary character and token soup.
#[test]
fn parser_never_panics() {
    check(0x9A, |_, rng| {
        let _ = parse_file(&byte_soup(rng, 300, &['\n']));
        let _ = parse_file(&token_soup(rng));
    });
}

/// Identifier-shaped programs built from fragments parse and scan.
#[test]
fn assembled_functions_parse() {
    check(0xA5, |case, rng| {
        let mut body = String::from("package p\n\nfunc f(x int) int {\n");
        for _ in 0..rng.gen_range(1..5usize) {
            let (n, v) = (ident(rng), rng.gen_range(0..1000i64));
            body.push_str(&format!("    {n} := {v}\n    x = x + {n}\n"));
        }
        body.push_str("    return x\n}\n");
        let file = parse_file(&body).unwrap_or_else(|e| panic!("case {case}: {e}\n{body}"));
        let counts = scan_source(&body).expect("scans");
        assert_eq!(counts.func_decls, 1, "case {case}");
        assert_eq!(file.decls.len(), 1, "case {case}");
    });
}

/// ASI: a newline after a complete expression statement terminates it; the
/// same statements joined by explicit semicolons parse identically.
#[test]
fn asi_matches_explicit_semicolons() {
    let property = |label: &str, vals: &[i64]| {
        let stmts: Vec<String> = vals
            .iter()
            .enumerate()
            .map(|(i, v)| format!("x{i} := {v}"))
            .collect();
        let with_newlines = format!("package p\nfunc f() {{\n{}\n}}\n", stmts.join("\n"));
        let with_semis = format!("package p\nfunc f() {{ {} }}\n", stmts.join("; "));
        let a = parse_file(&with_newlines).expect("newline form parses");
        let b = parse_file(&with_semis).expect("semicolon form parses");
        // Positions legitimately differ between the layouts; compare the
        // position-scrubbed structure.
        assert_eq!(scrub_positions(&a), scrub_positions(&b), "{label}");
    };
    property("a single `x0 := 0`, which once failed", &[0]);
    check(0x51, |case, rng| {
        let vals: Vec<i64> = (0..rng.gen_range(1..6usize))
            .map(|_| rng.gen_range(0..100i64))
            .collect();
        property(&format!("case {case}"), &vals);
    });
}

/// Scanner counts are additive: scanning two files separately and merging
/// the counts equals the sum of what each file holds. The space is small
/// enough to cover whole.
#[test]
fn scanner_counts_are_additive() {
    let mk = |goers: u64, senders: u64| {
        let mut s = String::from("package p\nfunc f(ch chan int) {\n");
        for _ in 0..goers {
            s.push_str("    go g()\n");
        }
        for _ in 0..senders {
            s.push_str("    ch <- 1\n");
        }
        s.push_str("}\nfunc g() {}\n");
        s
    };
    for goers in 0..5 {
        for senders in 0..5 {
            let mut merged = scan_source(&mk(goers, senders)).expect("a");
            merged.merge(&scan_source(&mk(senders, goers)).expect("b"));
            assert_eq!(merged.go_statements, goers + senders);
            assert_eq!(merged.chan_sends, goers + senders);
        }
    }
}
