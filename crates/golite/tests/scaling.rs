//! `lint_file` is linear in the declarations of one file.
//!
//! Generated sources (protobuf-style) put thousands of small functions in
//! one file. Before `Resolution` kept a declaration index, every `var`, `:=`
//! and parameter walked the file's whole symbol table to find its own
//! symbol, so four times the functions cost eleven times the time.

use std::fmt::Write;
use std::time::{Duration, Instant};

use grs_golite::ast::File;
use grs_golite::{lint_file, parse_file};

/// One file of `funcs` four-line functions.
fn generated(funcs: usize) -> File {
    let mut src = String::from("package gen\n");
    for i in 0..funcs {
        writeln!(
            src,
            "func f{i}(a int, b int) int {{\n    x := a + b\n    y := x * 2\n    return y\n}}"
        )
        .expect("writing to a String");
    }
    parse_file(&src).expect("generated source parses")
}

fn best_of_three(file: &File) -> Duration {
    (0..3)
        .map(|_| {
            let started = Instant::now();
            assert!(lint_file(file).is_empty(), "nothing here is shared");
            started.elapsed()
        })
        .min()
        .expect("three timings")
}

#[test]
fn lint_time_is_linear_in_the_functions_of_one_file() {
    let (small, large) = (generated(1_000), generated(4_000));
    // Linear is 4; the quadratic scans measured 11.2. On top of linear, the
    // larger file's working set leaves the cache the smaller one fits in
    // (4.3–5.8 measured), and a busy machine or a cold allocator only ever
    // inflates a timing: three looks keep both out of the verdict, while a
    // quadratic pass fails every one of them.
    let ratios: Vec<f64> = (0..3)
        .map(|_| best_of_three(&large).as_secs_f64() / best_of_three(&small).as_secs_f64())
        .collect();
    assert!(
        ratios.iter().any(|r| *r < 6.0),
        "4,000 functions over 1,000, best of three each, three times: {ratios:.1?}"
    );
}
