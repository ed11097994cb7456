//! Allocation ceilings for the detectors, as counts.
//!
//! A timing cannot gate CI on a shared runner; a heap-allocation count
//! repeats exactly, so it can. Live rows are mean allocations per run of
//! `pattern_suite(true)` × seeds `0..8` × {Random, PCT(2)} through a warm
//! [`DetectorArena::run_many`]: one detector watching each run, or all four
//! watching it at once, as a campaign over all four runs it (under
//! `NullMonitor` with a reused depot, for the runtime's own share). The
//! campaign row is the same matrix through one `Campaign::run`, per
//! execution: the arena and the per-unit build as a worker pays them, and
//! the records and the dedup stage. Replay rows count one
//! `DetectorArena::replay` under one detector — run start, every event,
//! building the reports — less its depot rebuild; decode rows count
//! `DecodedTrace::decode` of the encoded trace, and streamed rows
//! `DetectorArena::analyze_encoded` of it under FastTrack into one arena
//! kept across the family, as an intake worker keeps one (no report
//! built), per trace of three families:
//! the short pattern traces above, the first 256 generated Go tests (corpus
//! seed 1, run seed 1), and `grs::dense_unit` at seeds `0..8`. Every row is
//! measured on its second pass, so it is the cost of a run in a warm
//! process:
//!
//! | row                                                   | `4487427` | `50aa005` | `df78cb2` | `5cb78d2` | `a243cbb` | `0bd93a1` | `4f08ac0` | `affcdc4` | `32fc29a` | `892ce86` | `0af32d1` | `be73039` | this tree | ceiling |
//! |-------------------------------------------------------|----------:|----------:|----------:|----------:|----------:|----------:|----------:|----------:|----------:|----------:|----------:|----------:|----------:|--------:|
//! | live run, `NullMonitor`                               |      25.0 |      25.0 |      25.0 |      14.9 |      14.9 |      14.9 |      14.9 |      11.3 |      11.3 |      11.3 |      11.3 |      11.3 |      11.3 |    12.7 |
//! | live run, FastTrack                                   |      48.7 |      33.6 |      34.6 |      21.8 |      21.8 |      21.8 |      21.8 |      18.2 |      18.2 |      17.6 |      17.6 |      17.6 |      17.6 |    19.7 |
//! | live run, pure-VC                                     |      48.4 |      34.6 |      35.6 |      22.7 |      22.7 |      22.7 |      22.7 |      19.1 |      19.1 |      17.6 |      17.6 |      17.6 |      17.6 |    19.7 |
//! | live run, Eraser                                      |      36.0 |      33.6 |      34.6 |      21.8 |      21.8 |      21.8 |      21.8 |      18.2 |      18.2 |      18.2 |      18.2 |      18.2 |      18.1 |    20.3 |
//! | live run, hybrid                                      |      50.7 |      33.8 |      34.8 |      21.9 |      21.9 |      21.9 |      21.9 |      18.3 |      18.3 |      17.8 |      17.8 |      17.8 |      17.7 |    19.9 |
//! | live run, all four at once                            |     183.8 |     135.6 |      42.8 |      29.9 |      29.9 |      29.9 |      29.9 |      26.3 |      26.3 |      23.6 |      23.6 |      23.6 |      23.6 |    26.5 |
//! | campaign execution, all four                          |           |           |      57.0 |      37.7 |      37.7 |      23.7 |      23.7 |      20.1 |      20.1 |      17.4 |      17.4 |      17.4 |      17.4 |    19.6 |
//! | replay, short trace, FastTrack                        |      17.4 |       2.3 |       2.3 |       2.3 |       2.3 |       2.3 |       2.3 |       2.3 |       2.3 |       1.8 |       1.8 |       1.8 |       1.8 |     2.0 |
//! | replay, short trace, pure-VC                          |      17.1 |       3.3 |       3.3 |       3.3 |       3.3 |       3.3 |       3.3 |       3.3 |       3.3 |       1.8 |       1.8 |       1.8 |       1.8 |     2.0 |
//! | replay, short trace, Eraser                           |       4.7 |       2.3 |       2.3 |       2.3 |       2.3 |       2.3 |       2.3 |       2.3 |       2.3 |       2.3 |       2.3 |       2.3 |       2.3 |     2.6 |
//! | replay, short trace, hybrid                           |      19.4 |       2.5 |       2.5 |       2.5 |       2.5 |       2.5 |       2.5 |       2.5 |       2.5 |       1.9 |       1.9 |       1.9 |       1.9 |     2.2 |
//! | replay, corpus trace, FastTrack                       |      11.8 |       3.6 |       3.6 |       3.6 |       3.6 |       3.6 |       3.6 |       3.6 |       3.6 |       0.9 |       0.9 |       0.9 |       0.9 |    1.01 |
//! | replay, corpus trace, pure-VC                         |      30.9 |      13.8 |      13.8 |      13.8 |      13.8 |      13.8 |      13.8 |      13.8 |      13.8 |       0.9 |       0.9 |       0.9 |       0.9 |    1.03 |
//! | replay, corpus trace, Eraser                          |       3.9 |       1.0 |       1.0 |       1.0 |       1.0 |       1.0 |       1.0 |       1.0 |       1.0 |       1.0 |       1.0 |       1.0 |       1.0 |    1.12 |
//! | replay, corpus trace, hybrid                          |      14.1 |       3.6 |       3.6 |       3.6 |       3.6 |       3.6 |       3.6 |       3.6 |       3.6 |       0.9 |       0.9 |       0.9 |       0.9 |    1.01 |
//! | replay, dense trace, FastTrack                        |       3.0 |       1.0 |       1.0 |       1.0 |       1.0 |       1.0 |       1.0 |       1.0 |       1.0 |       0.0 |       0.0 |       0.0 |       0.0 |     0.5 |
//! | replay, dense trace, pure-VC                          |   2,003.0 |       9.0 |       9.0 |       9.0 |       9.0 |       9.0 |       9.0 |       9.0 |       9.0 |       0.0 |       0.0 |       0.0 |       0.0 |     0.5 |
//! | replay, dense trace, Eraser                           |       3.0 |       3.0 |       3.0 |       3.0 |       3.0 |       3.0 |       3.0 |       3.0 |       3.0 |       3.0 |       3.0 |       3.0 |       3.0 |    3.36 |
//! | replay, dense trace, hybrid                           |       3.0 |       1.0 |       1.0 |       1.0 |       1.0 |       1.0 |       1.0 |       1.0 |       1.0 |       0.0 |       0.0 |       0.0 |       0.0 |     0.5 |
//! | decode, short trace                                   |           |           |           |           |           |      17.7 |      16.7 |      16.7 |      13.4 |      13.4 |      13.4 |      13.4 |      13.4 |    15.0 |
//! | decode, corpus trace                                  |           |           |           |           |           |      26.1 |      25.2 |      25.2 |      20.9 |      20.9 |      20.9 |      20.9 |      20.9 |    23.4 |
//! | decode, dense trace                                   |           |           |           |           |           |      26.0 |      25.0 |      25.0 |      21.0 |      21.0 |      21.0 |      21.0 |      21.0 |    23.5 |
//! | streamed FastTrack analysis into a kept arena, short  |           |           |           |           |           |           |           |           |           |           |           |       9.1 |       9.1 |    10.2 |
//! | streamed FastTrack analysis into a kept arena, corpus |           |           |           |           |           |           |           |           |           |           |           |      15.1 |      15.1 |    16.9 |
//! | streamed FastTrack analysis into a kept arena, dense  |           |           |           |           |           |           |           |           |           |           |           |      15.0 |      15.0 |    16.8 |
//!
//! Before `run_many`, four detectors meant four executions, so the "all
//! four" row of the older trees is the sum of their four solo rows. Now the
//! execution, its event stacks and its depot are paid once and each
//! detector adds only its own reports; a solo run pays one allocation more
//! than before, for the `Vec` of outcomes.
//!
//! At `4487427` FastTrack built a whole report — name, two resolved stacks,
//! two cloned locksets, a formatted site-key `String` — for every race it
//! met and then dropped the repeats; `reset` dropped each channel's clock
//! maps, each goroutine's held-lock sets and the interned locksets; and
//! pure-VC freed a read history's `Vec` whenever a write emptied it, so
//! the next read allocated one again. What is left is mostly the reports
//! kept: their `Vec`, and two resolved stacks each.
//!
//! At `df78cb2` every run interned its function and object names into its
//! depot afresh (`reset` dropped them), and every cell, channel, lock,
//! slice, map and goroutine allocated its own name; each campaign record
//! cloned its unit's name, and each report made it an `Arc<str>` again.
//! This tree keeps the depot's texts across runs and hands objects and
//! goroutines the depot's shared text, and a worker makes its unit's name
//! once for all its records and reports.
//!
//! At `5cb78d2` FastTrack, pure-VC and the hybrid each kept their own
//! goroutine, lock, channel, `WaitGroup`, `Once` and atomic clocks, and
//! replay ran each detector over the trace in turn; this tree keeps one set
//! of clocks per execution and replays in one pass. No row moved by as much
//! as 0.05, in release or debug: a `VectorClock` holds eight components
//! inline, so the channel clocks no longer cloned three times never
//! allocated for these programs, and no ceiling changed.
//!
//! At `a243cbb` a campaign received every race as a report: each detector
//! resolved the name, both stacks and both locksets of every race it kept,
//! and the campaign fingerprinted every report and dropped nearly all of
//! them as duplicates. This tree's detectors keep races as ids, the
//! campaign fingerprints them from the depot, and a report is built only
//! for a race that takes a fingerprint's representative slot — so the
//! campaign row fell, and no other row moved by as much as 0.01, about
//! what a live row varies between two runs of this test.
//!
//! At `0bd93a1` an access's file was a `&'static str`: the decoder kept a
//! table of them per trace, one entry per string-table entry, and leaked
//! each new file's text into a process-wide interner. This tree decodes a
//! file as a name of the trace, like an object's, so each decode row fell
//! by that table (the name table, which now holds the files too, grows a
//! little more often); the live runs take a file's name from a few slots
//! of the kernel's, and no live, replay or campaign row moved by as much
//! as 0.01, in release or debug.
//!
//! At `4f08ac0` the kernel kept every scheduling decision of a run in a
//! `Vec` handed out with the outcome, and held the strategy's policy in a
//! `Box`. This tree folds each decision into a `Copy` digest as it is made
//! and holds the policy by value, so every live row and the campaign row
//! fell by 3.6, in release and debug alike (14.95 → 11.34 under
//! `NullMonitor` in release); no replay or decode row moved by as much as
//! 0.01, and the moved ceilings followed them down.
//!
//! At `affcdc4` the one reader decoded into a new `Trace` every time, and
//! grew its string table and kept a table of name ids beside it. This tree
//! refills a kept `Trace`: a reused decode allocates the string table's
//! scratch (one `Vec`), the stack-repeat check's keys (one `Vec`, when the
//! trace has stacks), and one text (an `Arc<str>`) for each string a stack
//! node or an event uses; it no longer allocates the event, stack and name
//! buffers or the program name, nor grows them. A fresh decode fell too,
//! by the table of name ids and the string table's growth: it sizes that
//! table from its count, held to the input's length. No other row moved by
//! as much as 0.01, in release or debug.
//!
//! At `32fc29a` each happens-before shadow dropped its variables' shared
//! read histories at `reset`, so every run allocated them again — pure-VC,
//! whose every read history is shared, once per variable read. This tree
//! keeps an emptied history with room for up to 8 readers as a spare for
//! the next history that goes shared, and FastTrack's epoch path keeps the
//! one a write empties too. Every happens-before replay row and every live
//! row a happens-before detector watches fell (pure-VC 13.8 → 0.9 a corpus
//! trace, 9.0 → 0.0 a dense trace); Eraser's and the decode rows did not
//! move by as much as 0.01, in release or debug, and the moved ceilings
//! followed the rest down.
//!
//! At `892ce86` a replay row was a standalone detector (`FastTrack::new`,
//! `pure_vc`, `hybrid` or `Eraser::new`) fed a trace whose depot was
//! already rebuilt; this tree has no standalone detector, and a row is the
//! arena's `replay`, which rebuilds the depot. That rebuild is counted on a
//! twin depot taking the same rebuilds in the same order and subtracted; a
//! warm depot's rebuild allocates nothing on the measured pass, so no row
//! moved by as much as 0.01.
//!
//! At `0af32d1` an intake worker decoded each upload into a kept `Trace`
//! (its "decode into a reused `Trace`" rows: 9.1, 15.1 and 15.0
//! allocations a trace in the three families) and then replayed it (the
//! FastTrack replay rows, reports included). This tree decodes each upload straight into the arena's
//! depot and detectors: the stream allocates what that decode did — the
//! string table's scratch, the stack-repeat check's keys and one text per
//! string a stack node or an event uses — and the analysis adds nothing
//! warm, so each streamed row is its family's old decode-into row. No
//! other row moved by as much as 0.01 but the live rows, which move by
//! 0.01 between runs of either tree.
//!
//! At `be73039` a Go map kept its entries in a std `HashMap`, whose hasher
//! is seeded per process, and `GoMap::iterate` formatted both keys at
//! every comparison of its sort. How many comparisons, and so allocations,
//! a sort took followed the process's hash order, so the live and campaign
//! rows moved by 0.01 or 0.02 between processes. This tree keys the
//! entries by FNV and formats each key once, so every row repeats across
//! processes; the Eraser and hybrid live rows now round down. The hybrid
//! also reads FastTrack's shadow instead of keeping a fourth: that alone
//! moved the campaign row by 0.009 and no other row by as much as 0.001.
//!
//! The ceilings sit about 12 % above what was reached, and at 0.5 for a
//! row at zero — tight enough that a report built for a repeated race, or
//! a per-run container dropped by `reset`, fails here.
//!
//! The counting allocator is this binary's own (`tests/*.rs` are separate
//! crates), delegates to `System`, and counts per thread, so the harness's
//! other threads cannot disturb a measurement. Goroutines run on the
//! thread that calls `Runtime::run`, so a live run is counted whole.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use grs::corpus::GoTestSpec;
use grs::detector::{DetectorArena, DetectorChoice};
use grs::fleet::{pattern_suite, Campaign, CampaignConfig, GoCorpusSource, UnitSource};
use grs::runtime::{
    record, DecodedTrace, NullMonitor, Program, RunConfig, Runtime, StackDepot, Strategy, Trace,
};

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

/// The short family: every pattern, racy and fixed, under 16 schedules.
fn pattern_runs() -> Vec<(Program, RunConfig)> {
    let mut runs = Vec::new();
    for unit in pattern_suite(true) {
        for seed in 0..8 {
            for strategy in [Strategy::Random, Strategy::Pct { depth: 2 }] {
                let cfg = RunConfig::with_seed(seed).strategy(strategy);
                runs.push((unit.program.clone(), cfg));
            }
        }
    }
    runs
}

fn corpus_runs() -> Vec<(Program, RunConfig)> {
    let corpus = GoCorpusSource::new(GoTestSpec::default_mix(), 1, 256);
    (0..corpus.len())
        .map(|i| {
            let unit = corpus.build(i).expect("generated tests lower");
            (unit.program, RunConfig::with_seed(1))
        })
        .collect()
}

fn dense_runs() -> Vec<(Program, RunConfig)> {
    let dense = grs::dense_unit().program;
    (0..8)
        .map(|seed| (dense.clone(), RunConfig::with_seed(seed)))
        .collect()
}

/// Mean allocations per run of `runs` on a second, warm pass of `run`.
fn mean_warm<T>(runs: &[T], mut run: impl FnMut(&T) -> u64) -> f64 {
    let _warm_up: u64 = runs.iter().map(&mut run).sum();
    let total: u64 = runs.iter().map(run).sum();
    total as f64 / runs.len() as f64
}

/// Asserts each `(row, measured, ceiling)`, after printing them all.
fn assert_ceilings(rows: &[(String, f64, f64)]) {
    for (row, n, ceiling) in rows {
        println!("{row}: {n:.2} allocations (ceiling {ceiling})");
    }
    for (row, n, ceiling) in rows {
        assert!(
            n <= ceiling,
            "{row}: {n:.2} allocations over its ceiling of {ceiling} (see the table atop \
             tests/detector_allocs.rs)"
        );
    }
}

#[test]
fn live_runs_stay_under_their_allocation_ceilings() {
    let runs = pattern_runs();
    let depot = StackDepot::new();
    let null = mean_warm(&runs, |(p, cfg)| {
        allocations_in(|| Runtime::new(cfg.clone()).run_with_depot(p, NullMonitor, &depot)).0
    });
    let mut rows = vec![("live NullMonitor".to_string(), null, 12.7)];
    let all = DetectorChoice::all_with_ablation();
    let ceilings = [19.7, 19.7, 20.3, 19.9];
    let mut arena = DetectorArena::new();
    let mut watched_by = |choices: &[DetectorChoice]| {
        mean_warm(&runs, |(p, cfg)| {
            allocations_in(|| arena.run_many(choices, p, cfg.clone())).0
        })
    };
    for (choice, ceiling) in all.into_iter().zip(ceilings) {
        rows.push((format!("live {choice}"), watched_by(&[choice]), ceiling));
    }
    rows.push(("live, all four at once".to_string(), watched_by(&all), 26.5));
    assert_ceilings(&rows);
}

/// The same executions driven by the campaign engine: one `Campaign::run`
/// over the pattern suite × seeds `0..8` × {Random, PCT(2)}, all four
/// detectors watching each execution, per execution — records, dedup and
/// the per-unit build included. One worker runs inline, so the counter
/// sees all of it.
#[test]
fn a_campaign_execution_stays_under_its_allocation_ceiling() {
    let config = CampaignConfig::new()
        .seeds_per_unit(8)
        .base_seed(0)
        .strategies(vec![Strategy::Random, Strategy::Pct { depth: 2 }])
        .detectors(DetectorChoice::all_with_ablation().to_vec())
        .workers(1);
    let campaign = Campaign::over_units(config, pattern_suite(true));
    let per_run = mean_warm(&[&campaign], |c| allocations_in(|| c.run()).0);
    let per_execution = per_run / campaign.exec_len() as f64;
    assert_ceilings(&[(
        "campaign execution, all four".to_string(),
        per_execution,
        19.6,
    )]);
}

/// Mean replay allocations per trace of `traces`, per detector, in
/// [`DetectorChoice::all_with_ablation`] order: each trace through one
/// arena's `replay` under that detector alone, less what its depot rebuild
/// allocates — counted on a second depot that takes the same rebuilds in
/// the same order, so it is in the arena depot's state at each one.
fn replay_means(traces: &[Trace]) -> [f64; 4] {
    DetectorChoice::all_with_ablation().map(|choice| {
        let mut arena = DetectorArena::new();
        let twin = StackDepot::new();
        mean_warm(traces, |trace| {
            let (rebuild, ()) = allocations_in(|| trace.rebuild_depot_into(&twin));
            let (replay, _) = allocations_in(|| arena.replay(choice, trace));
            replay - rebuild
        })
    })
}

/// Mean allocations per trace of [`DecodedTrace::decode`] over the
/// encoded `traces`: the whole decode, tables and event buffer included.
fn decode_mean(traces: &[Trace]) -> f64 {
    let encoded: Vec<Vec<u8>> = traces.iter().map(Trace::encode).collect();
    mean_warm(&encoded, |bytes| {
        allocations_in(|| DecodedTrace::decode(bytes).expect("a recording decodes")).0
    })
}

/// Mean allocations per trace of [`DetectorArena::analyze_encoded`] under
/// FastTrack over the encoded `traces`, all streamed in turn into one kept
/// arena, as an intake worker analyzes its uploads.
fn streamed_mean(traces: &[Trace]) -> f64 {
    let encoded: Vec<Vec<u8>> = traces.iter().map(Trace::encode).collect();
    let mut arena = DetectorArena::new();
    let choices = [DetectorChoice::FastTrack];
    mean_warm(&encoded, |bytes| {
        let (n, meta) = allocations_in(|| arena.analyze_encoded(&choices, bytes));
        meta.expect("a recording decodes");
        n
    })
}

#[test]
fn replays_stay_under_their_allocation_ceilings() {
    let families = [
        ("short", pattern_runs(), [15.0, 10.2], [2.0, 2.0, 2.6, 2.2]),
        (
            "corpus",
            corpus_runs(),
            [23.4, 16.9],
            [1.01, 1.03, 1.12, 1.01],
        ),
        ("dense", dense_runs(), [23.5, 16.8], [0.5, 0.5, 3.36, 0.5]),
    ];
    let mut rows = Vec::new();
    for (family, runs, [decode_ceiling, streamed_ceiling], ceilings) in &families {
        let traces: Vec<Trace> = runs.iter().map(|(p, cfg)| record(p, cfg).1).collect();
        rows.push((
            format!("decode {family}"),
            decode_mean(&traces),
            *decode_ceiling,
        ));
        rows.push((
            format!("streamed FastTrack analysis into a kept arena, {family}"),
            streamed_mean(&traces),
            *streamed_ceiling,
        ));
        let means = replay_means(&traces);
        let choices = DetectorChoice::all_with_ablation();
        for ((choice, n), ceiling) in choices.into_iter().zip(means).zip(ceilings) {
            rows.push((format!("replay {family} {choice}"), n, *ceiling));
        }
    }
    assert_ceilings(&rows);
}
