//! Allocation ceilings for the frontend, as counts.
//!
//! A timing cannot gate CI on a shared runner; a heap-allocation count
//! repeats exactly, so it can. Mean allocations per file or run over
//! generated tests of seed 1 (the `corpus_live` input), and per linted line
//! over those tests and a 0.001-scale generated monorepo of seed 1 (the
//! `static_scan` inputs):
//!
//! | stage                             | `9278d5f` | `2fed7a2` | `6496418` | `0bd93a1` | `4f08ac0` | this tree | ceiling |
//! |-----------------------------------|----------:|----------:|----------:|----------:|----------:|----------:|--------:|
//! | `tokenize`                        |     114.5 |       1.0 |       1.0 |       1.0 |       1.0 |       1.0 |  2 each |
//! | `parse_file`                      |     306.5 |      74.6 |      74.6 |      74.6 |      74.6 |      74.6 |      90 |
//! | one run under `NullMonitor`       |     209.4 |     129.6 |     113.1 |      80.4 |      80.4 |      74.9 |      84 |
//! | `lint_file`, a line of tests      |           |           |      6.89 |      2.83 |      2.83 |      2.83 |    3.15 |
//! | `lint_file`, a line of monorepo   |           |           |      6.98 |      0.51 |      0.51 |      0.51 |    0.57 |
//!
//! (The `9278d5f` column is over the first 2,000 tests, from a scratch
//! probe with the same counter; the others are what the tests below measure
//! over the first 256.) At `9278d5f` tokens and AST held one `String` per
//! spelling and the parser cloned a token at each of its 51 `bump()` call
//! sites; the interpreter deep-copied a closure's signature and body per
//! evaluation. `2fed7a2` made tokens borrow from the source, names `Sym`s
//! into one per-file buffer and closure bodies shared. `6496418` executes
//! `golite::resolve`'s bindings: no scope node and map per block entered,
//! one frame per Go call and one capture array per capturing closure. At
//! `6496418` every flow-table access owned one or two `String`s, a cloned
//! `BTreeMap` lockset and a cloned tag list; this tree lints from per-file
//! key ids, interned locksets and chains, and CFG events laid out once per
//! function (what is left per test file is mostly fixed per-file and
//! per-function cost, hence the two rows). By `0bd93a1` a run had fallen to
//! 80.4 under a ceiling left at 127: the depot had come to keep its texts
//! across runs, and runtime objects to share them. This tree makes every
//! access's source file a name of the run; the row holds, in release and
//! debug alike, and its ceiling follows it down. (Under `NullMonitor` no
//! access is named, so a file lookup that allocated would show in the live
//! rows of `tests/detector_allocs.rs`, not here.) At `4f08ac0` the kernel
//! kept every scheduling decision in a `Vec`; this tree folds each into a
//! digest as it is made, so a run fell to 74.9, in release and debug, and
//! its ceiling followed it down. The ceilings sit about
//! 12 % above what was reached — tight enough that a `String` creeping back
//! into a token or a flow-table record, or a per-evaluation copy or scope
//! into the interpreter, fails here.
//!
//! The counting allocator is this binary's own (`tests/*.rs` are separate
//! crates), delegates to `System`, and counts per thread, so the harness's
//! other threads cannot disturb a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use grs::corpus::{GoCorpus, GoCorpusSpec, GoTest, GoTestGen, GoTestSpec};
use grs::golite::lexer::tokenize;
use grs::golite::{lint_file, parse_file};
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
        mean(total) <= 84.0,
        "interpreted run: {:.1} allocations (ceiling 84; 74.9 when this was written, \
         80.4 before the schedule became a running digest)",
        mean(total)
    );
}

/// Allocations per line `lint_file` makes over `sources`.
fn lint_allocations_per_line(sources: impl Iterator<Item = String>) -> f64 {
    let (mut total, mut lines) = (0, 0);
    for src in sources {
        let file = parse_file(&src).expect("parses");
        let (n, findings) = allocations_in(|| lint_file(&file));
        total += n;
        lines += src.lines().count() as u64;
        drop(findings);
    }
    total as f64 / lines as f64
}

#[test]
fn lint_file_stays_under_its_allocation_ceiling() {
    let tests = lint_allocations_per_line(corpus().into_iter().map(|t| t.source));
    let monorepo = lint_allocations_per_line(
        GoCorpus::generate(&GoCorpusSpec::paper_scaled(0.001), 1)
            .files
            .into_iter()
            .map(|(_, src)| src),
    );
    println!("lint_file: {tests:.2} allocations a line of tests, {monorepo:.2} of monorepo");
    assert!(
        tests <= 3.15 && monorepo <= 0.57,
        "lint_file: {tests:.2} allocations a line of tests, {monorepo:.2} of monorepo \
         (ceilings 3.15 and 0.57; 2.83 and 0.51 when this was written, 6.89 and 6.98 at \
         the parent)"
    );
}
