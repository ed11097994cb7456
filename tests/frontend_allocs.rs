//! Allocation ceilings for the frontend, as counts.
//!
//! A timing cannot gate CI on a shared runner; a heap-allocation count
//! repeats exactly, so it can. Mean allocations per file or run over
//! generated tests of seed 1 (the `corpus_live` input):
//!
//! | stage                       | parent `9278d5f` | this tree | ceiling |
//! |-----------------------------|-----------------:|----------:|--------:|
//! | `tokenize`                  |            114.5 |       1.0 |  2 each |
//! | `parse_file`                |            306.5 |      74.6 |      90 |
//! | one run under `NullMonitor` |            209.4 |     129.6 |     145 |
//!
//! (The parent's column is over the first 2,000 tests, from a scratch probe
//! with the same counter; this tree's is what the tests below measure over
//! the first 256 — 1.0 / 74.8 / 125.1 over the 2,000.) The parent's tokens
//! and AST held one `String` per spelling and the parser cloned a token at
//! each of its 51 `bump()` call sites; the interpreter deep-copied a
//! closure's signature and body per evaluation. Tokens now borrow from the
//! source, names are `Sym`s into one per-file buffer, closure bodies are
//! shared. The ceilings sit a little above what was reached — tight enough
//! that a `String` creeping back into a token, or a per-evaluation copy
//! into the interpreter, fails here — and under the 2 / 153 / 160 the
//! change was asked to meet.
//!
//! The counting allocator is this binary's own (`tests/*.rs` are separate
//! crates), delegates to `System`, and counts per thread, so the harness's
//! other threads cannot disturb a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use grs::corpus::{GoTest, GoTestGen, GoTestSpec};
use grs::golite::lexer::tokenize;
use grs::golite::parse_file;
use grs::interp::Interp;
use grs::runtime::{NullMonitor, RunConfig, Runtime};

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when the counter is gone and nobody is measuring.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the only addition is a thread-local
// counter bump that neither allocates (the cell is const-initialized and
// has no destructor) nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while `f` runs.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const TESTS: u64 = 256;

fn corpus() -> Vec<GoTest> {
    GoTestGen::new(GoTestSpec::default_mix(), 1)
        .iter(TESTS)
        .collect()
}

fn mean(total: u64) -> f64 {
    total as f64 / TESTS as f64
}

#[test]
fn tokenize_allocates_the_token_stream_and_nothing_else() {
    for t in corpus() {
        let (n, tokens) = allocations_in(|| tokenize(&t.source).expect("lexes"));
        assert!(
            n <= 2,
            "{}: {n} allocations for {} tokens — a token owns its text again?",
            t.name,
            tokens.len()
        );
    }
}

#[test]
fn parse_file_stays_under_its_allocation_ceiling() {
    let mut total = 0;
    for t in corpus() {
        let (n, file) = allocations_in(|| parse_file(&t.source).expect("parses"));
        total += n;
        drop(file);
    }
    println!("parse_file: {:.1} allocations a file", mean(total));
    assert!(
        mean(total) <= 90.0,
        "parse_file: {:.1} allocations a file (ceiling 90; 74.6 when this was written, \
         306.5 at the parent)",
        mean(total)
    );
}

#[test]
fn an_interpreted_run_stays_under_its_allocation_ceiling() {
    let programs: Vec<_> = corpus()
        .iter()
        .map(|t| {
            Interp::compile(&t.source)
                .and_then(|i| i.program_checked(&t.name, "main"))
                .expect("generated tests lower")
        })
        .collect();
    let run_all = || {
        let mut total = 0;
        for (seed, p) in programs.iter().enumerate() {
            let (n, (outcome, _)) = allocations_in(|| {
                Runtime::new(RunConfig::with_seed(seed as u64)).run(p, NullMonitor)
            });
            assert!(outcome.is_clean(), "run {seed}: {:?}", outcome.errors);
            total += n;
        }
        total
    };
    // The first pass fills the kernel's stack depot; the ceiling is on a
    // run in a warm process, which is every run of a campaign but the first.
    let _warm_up = run_all();
    let total = run_all();
    println!("interpreted run: {:.1} allocations", mean(total));
    assert!(
        mean(total) <= 145.0,
        "interpreted run: {:.1} allocations (ceiling 145; 129.6 when this was written, \
         209.4 at the parent)",
        mean(total)
    );
}
