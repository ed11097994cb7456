//! Allocation and footprint ceilings for the frontend, as counts.
//!
//! A timing cannot gate CI on a shared runner; a heap-allocation count
//! repeats exactly, so it can, and so does a count of bytes held. Mean
//! allocations per file or run over generated tests of seed 1 (the
//! `corpus_live` input), per linted line over those tests and a
//! 0.001-scale generated monorepo of seed 1 (the `static_scan` inputs), and
//! the mean heap bytes a parsed file, and a compiled test (the `Program`
//! `trace_replay` keeps 2,000 of), hold:
//!
//! | stage                             | `9278d5f` | `2fed7a2` | `6496418` | `0bd93a1` | `4f08ac0` | `8f8a414` | `b2b2072` | this tree | ceiling |
//! |-----------------------------------|----------:|----------:|----------:|----------:|----------:|----------:|----------:|----------:|--------:|
//! | `tokenize`                        |     114.5 |       1.0 |       1.0 |       1.0 |       1.0 |       1.0 |       1.0 |       1.0 |  2 each |
//! | `parse_file`                      |     306.5 |      74.6 |      74.6 |      74.6 |      74.6 |      74.6 |      67.3 |      67.3 |      75 |
//! | one run under `NullMonitor`       |     209.4 |     129.6 |     113.1 |      80.4 |      80.4 |      74.9 |      74.9 |      74.9 |      84 |
//! | `lint_file`, a line of tests      |           |           |      6.89 |      2.83 |      2.83 |      2.83 |      2.55 |      2.33 |    2.61 |
//! | `lint_file`, a line of monorepo   |           |           |      6.98 |      0.51 |      0.51 |      0.51 |      0.48 |      0.46 |    0.52 |
//! | bytes a parsed file holds         |           |           |           |           |           |     9,508 |     4,240 |     4,240 |   4,750 |
//! | bytes a compiled test holds       |           |           |           |           |           |    12,680 |     6,078 |     6,078 |   6,800 |
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
//! its ceiling followed it down. At `8f8a414` each list grew by doubling
//! and kept its spare room (a one-value `:=` held four slots), a `Stmt`
//! was 144 bytes to hold `for`'s condition and range clause inline, every
//! file copied the prelude's 256-slot name index, and the resolver's
//! tables kept their growth slack; this tree moves each list out of a
//! reused scratch stack at its length, boxes `for`'s range clause, keeps
//! only the file's own spellings (the prelude's, and the index that
//! interns them while parsing, are shared) and sizes the resolver's tables
//! to their contents, and both byte counts halved (the scratch resolver also
//! took `lint_file` down). At `b2b2072` the summaries copied the flow
//! table's locksets and released-lock sets once per linted file; this tree
//! moves them, and `lint_file`'s ceilings followed it down. The ceilings
//! sit about
//! 12 % above what was reached — tight enough that a `String` creeping back
//! into a token or a flow-table record, a per-evaluation copy or scope
//! into the interpreter, or spare room into a parsed list, fails here.
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
    /// Bytes this thread has allocated and not yet freed.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when the counter is gone and nobody is measuring.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn count_bytes(delta: i64) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the only additions are thread-local
// counter bumps that neither allocate (the cells are const-initialized and
// have no destructor) nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        count_bytes(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        count_bytes(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        count_bytes(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as i64));
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

/// Bytes this thread allocated while `f` ran and still holds after it:
/// what the value `f` returns keeps on the heap.
fn retained_by<T>(f: impl FnOnce() -> T) -> (i64, T) {
    let before = LIVE_BYTES.with(Cell::get);
    let out = f();
    (LIVE_BYTES.with(Cell::get) - before, out)
}

const TESTS: u64 = 256;

/// Mean heap bytes a parsed file holds.
const PARSED_FILE_BYTES: f64 = 4_750.0;
/// Mean heap bytes a compiled test (its `Program`) holds.
const COMPILED_TEST_BYTES: f64 = 6_800.0;

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
        mean(total) <= 75.0,
        "parse_file: {:.1} allocations a file (ceiling 75; 67.3 when this was written, \
         74.6 before lists were allocated at their length)",
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

#[test]
fn a_parsed_file_stays_under_its_byte_ceiling() {
    let tests = corpus();
    // What is built on first use and kept — the prelude's index, the
    // thread's parse scratch at its largest — is no one file's.
    for t in &tests {
        drop(parse_file(&t.source));
    }
    let mut total = 0;
    for t in tests {
        let (bytes, file) = retained_by(|| parse_file(&t.source).expect("parses"));
        total += bytes as u64;
        drop(file);
    }
    println!("parsed file: {:.0} bytes held", mean(total));
    assert!(
        mean(total) <= PARSED_FILE_BYTES,
        "parsed file: {:.0} bytes held (ceiling {PARSED_FILE_BYTES}; 4,240 when this was \
         written, 9,508 before lists were held at their length)",
        mean(total)
    );
}

#[test]
fn a_compiled_test_stays_under_its_byte_ceiling() {
    let tests = corpus();
    for t in &tests {
        drop(Interp::compile(&t.source));
    }
    let mut total = 0;
    for t in tests {
        let (bytes, program) = retained_by(|| {
            Interp::compile(&t.source)
                .and_then(|i| i.program_checked(&t.name, "main"))
                .expect("generated tests lower")
        });
        total += bytes as u64;
        drop(program);
    }
    println!("compiled test: {:.0} bytes held", mean(total));
    assert!(
        mean(total) <= COMPILED_TEST_BYTES,
        "compiled test: {:.0} bytes held (ceiling {COMPILED_TEST_BYTES}; 6,078 when this was \
         written, 12,680 before lists and the resolver's tables were held at their size)",
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
        tests <= 2.61 && monorepo <= 0.52,
        "lint_file: {tests:.2} allocations a line of tests, {monorepo:.2} of monorepo \
         (ceilings 2.61 and 0.52; 2.33 and 0.46 when this was written, 2.55 and 0.48 \
         before the summaries took the flow table's tables instead of copying them)"
    );
}
