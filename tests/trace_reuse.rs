//! One `DetectorArena` fed upload after upload, as an intake worker keeps
//! it.
//!
//! `DetectorArena::analyze_encoded` decodes each upload straight into the
//! arena's depot and detectors, so what it must never do is let the upload
//! before leak through them: after each one the kept arena reports what a
//! fresh arena's `analyze` of `Trace::decode` of the same bytes reports.
//! And what it keeps between uploads is bounded: the depot is the only
//! store a worker keeps, and one large upload does not pin its tables
//! there.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use grs::corpus::GoTestSpec;
use grs::detector::{DetectorArena, DetectorChoice};
use grs::fleet::{GoCorpusSource, UnitSource};
use grs::runtime::event::EventKind;
use grs::runtime::{
    record, AccessKind, Addr, Event, Gid, NameId, RunConfig, SourceLoc, StackId, StackNode, Trace,
};

thread_local! {
    /// Bytes this thread has allocated and not freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct LiveBytes;

fn add_live(bytes: isize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when the counter is gone and nobody is measuring.
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the only addition is a thread-local
// counter update that neither allocates (the cell is const-initialized and
// has no destructor) nor unwinds.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add_live(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as isize));
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

const GOLDEN: &[u8] = include_bytes!("data/listing1_seed3.grtrace");

/// The dense unit recorded at `seed`: some 4,000 events.
fn dense_trace(seed: u64) -> Vec<u8> {
    record(&grs::dense_unit().program, &RunConfig::with_seed(seed))
        .1
        .encode()
}

/// What `choice` found in `arena`'s last analysis: every report's text,
/// and the peak shadow words.
fn findings(arena: &DetectorArena, choice: DetectorChoice) -> (Vec<String>, usize) {
    let reports = arena.races(choice).iter();
    let texts = reports.map(|race| arena.report(choice, race).to_string());
    (texts.collect(), arena.peak_shadow_words(choice))
}

/// One arena fed in turn the golden Listing-1 trace, the dense unit, the
/// first 256 generated Go tests (corpus seed 1, run seed 1), the dense unit
/// again and the golden trace — larger, smaller, then larger again — all
/// four detectors watching each, finds for every detector after each
/// upload exactly what a fresh arena finds analyzing a fresh decode of the
/// same bytes, and returns its program, seed and strategy: nothing of the
/// upload before leaks through the kept depot or shadows.
#[test]
fn a_kept_arena_analyzes_like_a_fresh_one() {
    let corpus = GoCorpusSource::new(GoTestSpec::default_mix(), 1, 256);
    let mut inputs = vec![("golden".to_string(), GOLDEN.to_vec())];
    inputs.push(("dense 0".to_string(), dense_trace(0)));
    for i in 0..corpus.len() {
        let unit = corpus.build(i).expect("generated tests lower");
        let (_, trace) = record(&unit.program, &RunConfig::with_seed(1));
        inputs.push((format!("corpus {i}"), trace.encode()));
    }
    inputs.push(("dense 1".to_string(), dense_trace(1)));
    inputs.push(("golden again".to_string(), GOLDEN.to_vec()));
    let all = DetectorChoice::all_with_ablation();
    let mut kept = DetectorArena::new();
    for (label, bytes) in &inputs {
        let trace = Trace::decode(bytes).expect("a recording decodes");
        let (program, repro) = kept.analyze_encoded(&all, bytes).expect("it decodes");
        let run = (program, repro.seed, repro.strategy);
        let meta = &trace.meta;
        assert_eq!(run, (&*meta.program, meta.seed, meta.strategy), "{label}");
        for choice in all {
            let mut fresh = DetectorArena::new();
            fresh.analyze(&[choice], &trace);
            assert_eq!(
                findings(&kept, choice),
                findings(&fresh, choice),
                "{label}, {choice}"
            );
        }
    }
}

/// A trace of 2^17 stack nodes, names and events, and a program name as
/// many bytes long. Event `i` writes name `i`, so names number as they were
/// built.
fn oversized_trace() -> Trace {
    let n = 1 << 17;
    let mut trace = Trace {
        stacks: (0..n)
            .map(|i| StackNode {
                parent: StackId::EMPTY,
                func: Arc::from("f"),
                call_line: i as u32,
            })
            .collect(),
        names: (0..n).map(|i| Arc::from(format!("v{i}"))).collect(),
        events: (0..n)
            .map(|i| Event {
                step: i as u64,
                gid: Gid(0),
                kind: EventKind::Access {
                    addr: Addr(1),
                    object: NameId(i as u32),
                    kind: AccessKind::Write,
                    stack: StackId(1),
                    loc: SourceLoc {
                        file: NameId(0),
                        line: 1,
                    },
                },
            })
            .collect(),
        ..Trace::default()
    };
    trace.meta.program = "p".repeat(n);
    trace
}

/// The golden trace, then the oversized one, then the golden trace again,
/// each streamed into one kept arena under all four detectors as an intake
/// worker takes its uploads: the arena's live heap after the second golden
/// upload is within 1 MiB of what it was after the first. A depot that
/// kept the room the oversized upload's tables took would hold some 6 MiB
/// more.
#[test]
fn a_kept_arena_frees_what_an_oversized_upload_took() {
    let oversized = oversized_trace().encode();
    let all = DetectorChoice::all_with_ablation();
    let mut arena = DetectorArena::new();
    let mut live_after = |bytes: &[u8]| {
        arena
            .analyze_encoded(&all, bytes)
            .expect("the upload decodes");
        LIVE.with(Cell::get)
    };
    let first = live_after(GOLDEN);
    let during = live_after(&oversized);
    let second = live_after(GOLDEN);
    println!("live bytes: {first} after the first golden upload, {during} after the oversized one, {second} after the second golden one");
    assert!(
        during - first > 4 << 20,
        "the oversized upload took its tables"
    );
    assert!(
        (second - first).abs() <= 1 << 20,
        "{} KiB more live after the second golden upload than after the first",
        (second - first) / 1024
    );
}
