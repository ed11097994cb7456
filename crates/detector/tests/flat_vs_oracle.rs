//! The flat detectors against two fixed points: pinned digests and the
//! happens-before reference.
//!
//! Until PR 16 this suite compared the flat, index-addressed detectors
//! (PR 7) with a frozen copy of their HashMap-backed predecessors. A copy of
//! an implementation is not a specification, so it is gone and its two jobs
//! are split. *Nothing moved*: one digest per algorithm folds, for every
//! program × seed cell, everything the old suite compared — steps, events,
//! peak shadow words, each report's text in detection order — captured
//! while the copy still agreed; live runs, replay of the recorded trace and
//! replay of its encoding decoded at chunk sizes 1/2/61/4096 must each
//! reproduce it. *It is right*: every
//! verdict is held to `grs_detector::reference`.

mod corpus;

use grs_detector::{reference, DetectorArena, DetectorChoice, ReplayOutcome, MAX_REPORTS};
use grs_obs::Fnv1a;
use grs_runtime::{record, DecodedTrace, Program, RunConfig, Trace};

const SEEDS: u64 = 16;

/// FNV-1a per algorithm over `corpus::corpus()` × [`SEEDS`], captured at
/// f46777d from the flat detectors with `detector::legacy` agreeing on
/// every cell, live and replayed. Report text carries source lines of
/// `corpus/mod.rs`; see the note there before re-pinning.
const PINNED_CELLS: [(DetectorChoice, u64); 4] = [
    (DetectorChoice::FastTrack, 0x66b3_13dc_94f0_71d5),
    (DetectorChoice::PureVectorClock, 0xe97c_a3ba_82c1_7f74),
    (DetectorChoice::Eraser, 0x24dc_755a_e4ee_2098),
    (DetectorChoice::Hybrid, 0x3442_6e43_3bfd_2735),
];

/// One digest per algorithm over the whole corpus, `analyze` supplying each
/// cell's outcome from the program, its seed and its recorded trace.
fn cell_digests(
    mut analyze: impl FnMut(DetectorChoice, &Program, u64, &Trace) -> ReplayOutcome,
) -> Vec<(DetectorChoice, u64)> {
    let mut digests = DetectorChoice::all_with_ablation().map(|c| (c, Fnv1a::new()));
    for p in corpus::corpus() {
        for seed in 0..SEEDS {
            let (_, trace) = record(&p, &RunConfig::with_seed(seed));
            for (choice, h) in &mut digests {
                let cell = analyze(*choice, &p, seed, &trace);
                h.write(&trace.meta.steps.to_le_bytes());
                h.write(&cell.events.to_le_bytes());
                h.write(&(cell.peak_shadow_words as u64).to_le_bytes());
                h.write(&(cell.reports.len() as u64).to_le_bytes());
                for r in &cell.reports {
                    h.write(r.to_string().as_bytes());
                }
            }
        }
    }
    digests.into_iter().map(|(c, h)| (c, h.finish())).collect()
}

fn assert_pinned(path: &str, digests: &[(DetectorChoice, u64)]) {
    for ((choice, got), (_, pinned)) in digests.iter().zip(PINNED_CELLS) {
        assert_eq!(*got, pinned, "{path}: {choice} drifted, got {got:#018x}");
    }
}

#[test]
fn live_runs_reproduce_the_pinned_cells() {
    let mut arena = DetectorArena::new();
    let digests = cell_digests(|choice, p, seed, trace| {
        let (o, reports) = arena.run(choice, p, RunConfig::with_seed(seed));
        assert_eq!(o.steps, trace.meta.steps, "recording perturbed the run");
        ReplayOutcome {
            reports,
            events: o.stats.events_dispatched,
            peak_shadow_words: o.stats.peak_shadow_words,
        }
    });
    assert_pinned("live", &digests);
}

#[test]
fn scalar_replay_reproduces_the_pinned_cells() {
    let mut arena = DetectorArena::new();
    let digests = cell_digests(|choice, _, _, trace| arena.replay(choice, trace));
    assert_pinned("scalar replay", &digests);
}

/// Encoded, decoded at chunk sizes 1, 2, a prime, and the default, and fanned
/// out by the arena: the chunking must be invisible in every output.
#[test]
fn batch_replay_reproduces_the_pinned_cells_at_every_chunk_size() {
    let mut arena = DetectorArena::new();
    for chunk in [1usize, 2, 61, 4096] {
        let digests = cell_digests(|choice, _, _, trace| {
            let decoded = DecodedTrace::decode_with_chunk(&trace.encode(), chunk)
                .expect("just-encoded trace decodes");
            assert_eq!(decoded.len(), trace.events.len());
            let mut outs =
                arena.replay_many_decoded_observed(&decoded, &[choice], &grs_obs::NULL_SINK);
            outs.pop().expect("one choice, one outcome").1
        });
        assert_pinned(&format!("batch replay, chunk {chunk}"), &digests);
    }
}

/// Every verdict on the pinned corpus and on the channel idioms agrees
/// with the reference: the happens-before detectors pair for pair (sound
/// and complete), Eraser on the lock-discipline fact.
#[test]
fn every_verdict_agrees_with_the_reference() {
    let mut arena = DetectorArena::new();
    let first_idiom = corpus::corpus().len();
    let programs = corpus::corpus()
        .into_iter()
        .chain(corpus::channel_programs());
    for (i, p) in programs.enumerate() {
        let mut racy = 0;
        for seed in 0..SEEDS {
            let (_, trace) = record(&p, &RunConfig::with_seed(seed));
            let verdict = reference::analyze(&trace);
            racy += u64::from(!verdict.pairs.is_empty());
            for (choice, out) in arena.replay_all(&trace) {
                let complete = out.reports.len() < MAX_REPORTS;
                let held = match choice {
                    DetectorChoice::Eraser => verdict.check_lockset(&out.reports),
                    _ => verdict.check_happens_before(&trace, &out.reports, complete),
                };
                assert_eq!(held, Ok(()), "{} seed {seed} {choice}", p.name());
            }
        }
        // A channel idiom must show both sides of its edge within the seed
        // budget, or the agreement above says nothing about that edge.
        let both_sides = 0 < racy && racy < SEEDS;
        assert!(i < first_idiom || both_sides, "{}: {racy} racy", p.name());
    }
}
