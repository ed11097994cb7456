//! Replay fidelity: the acceptance gate for the record/replay subsystem.
//!
//! The refactor's contract is that analysis is a *pure function of the
//! trace*: one scheduled execution, recorded once, must replay through
//! every detection algorithm to **bit-identical** output — same reports
//! (verbatim text), same fingerprints, same event and shadow-memory
//! accounting — as running that detector live on the same `(seed,
//! strategy)`. This holds because monitors never influence the schedule
//! (the runtime's schedule is a pure function of seed and strategy), so
//! the recorded event stream *is* the execution as any detector would
//! have seen it.
//!
//! These tests pin the contract over the whole executable pattern corpus
//! (racy and fixed variants), 16 seeds each, for all four algorithms —
//! including the pure-vector-clock ablation that the campaign default
//! excludes. And the contract is checked through a full encode→decode
//! round trip of the `.grtrace` wire format, so on-disk traces carry the
//! same guarantee as in-memory ones, including for a cell named after its
//! source file (one text that is an object's and a file's name at once).
//! The same loop holds `replay_decoded` of a `FastTrack`, the lone
//! detector the pipeline benchmark replays with, to the arena's FastTrack
//! outcome, the locks each side held included.

use grs::deploy::race_fingerprint;
use grs::detector::{
    replay_decoded, DetectorArena, DetectorChoice, FastTrack, RaceReport, ReplayOutcome,
};
use grs::fleet::{pattern_suite, CampaignUnit};
use grs::runtime::event::EventKind;
use grs::runtime::{record, DecodedTrace, Program, RunConfig, StackDepot, Trace};

const SEEDS: u64 = 16;

/// A report's text, and the locks each side held, which the text omits.
fn rendered(r: &RaceReport) -> String {
    let (prior, current) = (&r.prior.locks_held, &r.current.locks_held);
    format!("{r}  locks held: previous {prior}, current {current}")
}

/// `replay_decoded` of `trace`, after an encode → decode round trip, must
/// equal the arena's FastTrack `outcome` over the same trace: events, peak
/// shadow words, and every report as rendered.
fn assert_shim_equals_arena(trace: &Trace, outcome: &ReplayOutcome, cell: &str) {
    let decoded = DecodedTrace::decode(&trace.encode()).expect("a recording decodes");
    let shim = replay_decoded(&mut FastTrack::new(), &decoded, &StackDepot::new());
    assert_eq!(shim.events, outcome.events, "{cell}: events");
    assert_eq!(
        shim.peak_shadow_words, outcome.peak_shadow_words,
        "{cell}: peak shadow words"
    );
    let shim: Vec<String> = shim.reports.iter().map(rendered).collect();
    let arena: Vec<String> = outcome.reports.iter().map(rendered).collect();
    assert_eq!(shim, arena, "{cell}: replay_decoded's reports");
}

#[test]
fn replay_is_bit_identical_to_live_for_every_pattern_seed_and_detector() {
    let units = pattern_suite(true);
    // Listing 11: writes under a read-mode lock, so the write-mode held
    // locks decide Eraser's verdict.
    assert!(units.iter().any(|u| u.name == "rlock_write/racy"));
    for unit in units {
        let mut arena = DetectorArena::new();
        for seed in 0..SEEDS {
            let cfg = RunConfig::with_seed(seed);
            let (outcome, trace) = record(&unit.program, &cfg);
            assert_eq!(
                trace.events.len() as u64,
                outcome.stats.events_dispatched,
                "{}/{seed}: trace must capture every dispatched event",
                unit.name
            );
            for (choice, replayed) in arena.replay_all(&trace) {
                if choice == DetectorChoice::FastTrack {
                    let cell = format!("{}/{seed}/{choice}", unit.name);
                    assert_shim_equals_arena(&trace, &replayed, &cell);
                }
                let (live_o, live_r) = choice.run(&unit.program, cfg.clone());
                assert_eq!(
                    live_o.steps, outcome.steps,
                    "{}/{seed}/{choice}: recording must not perturb the schedule",
                    unit.name
                );
                assert_eq!(
                    replayed.events, live_o.stats.events_dispatched,
                    "{}/{seed}/{choice}: replay must dispatch the live event count",
                    unit.name
                );
                assert_eq!(
                    replayed.peak_shadow_words, live_o.stats.peak_shadow_words,
                    "{}/{seed}/{choice}: shadow accounting must survive replay",
                    unit.name
                );
                assert_eq!(
                    replayed.reports.len(),
                    live_r.len(),
                    "{}/{seed}/{choice}: report count diverged",
                    unit.name
                );
                for (a, b) in replayed.reports.iter().zip(live_r.iter()) {
                    assert_eq!(
                        race_fingerprint(a),
                        race_fingerprint(b),
                        "{}/{seed}/{choice}: fingerprint diverged",
                        unit.name
                    );
                    assert_eq!(
                        format!("{a}"),
                        format!("{b}"),
                        "{}/{seed}/{choice}: report text diverged",
                        unit.name
                    );
                }
            }
        }
    }
}

/// Two goroutines racing on a cell named after this file: one text that
/// is both an object's name and a source file's, so a run names it once.
fn cell_named_after_its_file() -> CampaignUnit {
    let program = Program::new("file_named_cell", |ctx| {
        let x = ctx.cell(file!(), 0i64);
        let x2 = x.clone();
        ctx.go("writer", move |ctx| ctx.write(&x2, 1));
        ctx.update(&x, |v| v + 1);
    });
    CampaignUnit {
        name: "file_named_cell/racy".to_string(),
        program,
        expected_racy: Some(true),
    }
}

#[test]
fn decoded_traces_replay_identically_to_recorded_traces() {
    // The wire format carries the whole fidelity guarantee: a trace that
    // went through encode→decode replays to the same reports as the
    // original in-memory trace and as the live run, and encodes back to
    // the same bytes.
    let mut units: Vec<_> = pattern_suite(true).into_iter().take(8).collect();
    units.push(cell_named_after_its_file());
    let mut arena_mem = DetectorArena::new();
    let mut arena_disk = DetectorArena::new();
    for unit in &units {
        for seed in 0..8u64 {
            let cfg = RunConfig::with_seed(seed);
            let (_, trace) = record(&unit.program, &cfg);
            let bytes = trace.encode();
            let decoded = Trace::decode(&bytes).expect("round trip of a recorded trace");
            assert_eq!(decoded, trace, "{}/{seed}", unit.name);
            assert_eq!(decoded.encode(), bytes, "{}/{seed}", unit.name);
            assert_eq!(decoded.digest(), trace.digest(), "{}/{seed}", unit.name);
            let from_mem = arena_mem.replay_all(&trace);
            let from_disk = arena_disk.replay_all(&decoded);
            for ((c1, r1), (c2, r2)) in from_mem.iter().zip(from_disk.iter()) {
                assert_eq!(c1, c2);
                assert_eq!(r1.events, r2.events, "{}/{seed}/{c1}", unit.name);
                let t1: Vec<String> = r1.reports.iter().map(|r| format!("{r}")).collect();
                let t2: Vec<String> = r2.reports.iter().map(|r| format!("{r}")).collect();
                assert_eq!(t1, t2, "{}/{seed}/{c1}: decoded replay diverged", unit.name);
                let (_, live) = c1.run(&unit.program, cfg.clone());
                let live: Vec<String> = live.iter().map(|r| format!("{r}")).collect();
                assert_eq!(live, t2, "{}/{seed}/{c1}: live diverged", unit.name);
            }
        }
    }

    // The file-named cell's accesses carry one name as object and file,
    // and its races are reported.
    let unit = units.last().expect("the file-named cell");
    let (_, trace) = record(&unit.program, &RunConfig::with_seed(0));
    for event in &trace.events {
        if let EventKind::Access { object, loc, .. } = event.kind {
            assert_eq!((trace.name(object), loc.file), (file!(), object));
        }
    }
    let (_, reports) = DetectorChoice::FastTrack.run(&unit.program, RunConfig::with_seed(0));
    let report = reports.first().expect("the two writers race");
    assert_eq!(&*report.object, file!());
    assert_eq!(&*report.current.file, file!());
}

#[test]
fn replay_reports_carry_the_repro_metadata_detectors_emit() {
    // Detector-emitted reports carry no repro yet (the campaign attaches
    // it); replay must not invent one, so live and replayed reports stay
    // comparable field-for-field.
    let unit = &pattern_suite(false)[0];
    for seed in 0..SEEDS {
        let (_, trace) = record(&unit.program, &RunConfig::with_seed(seed));
        let mut arena = DetectorArena::new();
        for (_, replayed) in arena.replay_all(&trace) {
            for r in &replayed.reports {
                assert_eq!(r.repro_seed, None);
                assert_eq!(r.repro, None);
            }
        }
    }
}
