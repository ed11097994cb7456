//! Flat shadow memory at the campaign level: pinned output, and verdicts
//! held to the happens-before reference.
//!
//! PR 7 moved the detectors onto flat, index-addressed shadow tables and
//! replay onto the batched `.grtrace` decoder, gated on a frozen copy of the
//! old detectors producing bit-identical campaigns. The copy is gone
//! (PR 16); what it guaranteed is kept as constants captured while it still
//! agreed: full campaigns over the §4 pattern corpus, 16 seeds, all four
//! detection algorithms, live (`run`) and execute-once (`run_replay`), must
//! reproduce every `PINNED_*` below.
//!
//! Agreeing with an earlier self says nothing moved, not that it is right.
//! That is the last test's job: every verdict is checked against
//! `grs::detector::reference`, an independent statement of happens-before.

use grs::detector::{reference, DetectorArena, DetectorChoice, FastTrackConfig};
use grs::fleet::{pattern_suite, Campaign, CampaignConfig, CampaignResult, RunRecord};
use grs::obs::Fnv1a;
use grs::runtime::{record, RunConfig, Strategy};

/// The full matrix the ISSUE pins: pattern corpus × 16 seeds × all four
/// algorithms. Workers fixed at 2 so the suite also crosses the threaded
/// path; determinism across worker counts is pinned elsewhere.
fn config() -> CampaignConfig {
    CampaignConfig::new()
        .seeds_per_unit(16)
        .strategies(vec![Strategy::Random])
        .detectors(DetectorChoice::all_with_ablation().to_vec())
        .workers(2)
        .shards(4)
}

// Captured at f46777d from the flat detectors, with the frozen copy of
// their predecessors (deleted by PR 16, along with the campaign switch that
// selected it) producing the same value for every constant, live and
// replayed.

/// `CampaignResult::digest64`: unit, seed, racy flag, fingerprints, steps.
const PINNED_DIGEST64: u64 = 0x39d5_9a64_9af6_7dc1;
/// FNV-1a over the deduplicated batch's fingerprints, ascending.
const PINNED_BATCH: u64 = 0x0965_a4f3_66a1_a73d;
/// FNV-1a over every record's `(events, peak_shadow_words)`: the flat
/// tables must account shadow words per run exactly as the maps did.
const PINNED_RECORD_ACCOUNTING: u64 = 0x8064_341c_3d3b_4f5a;
const PINNED_PEAK_SHADOW_WORDS: usize = 21;
const PINNED_MAX_DEPOT_STACKS: usize = 7;
/// The stable counters (the volatile scheduler counters legitimately
/// differ with placement).
const PINNED_COUNTERS: [(&str, u64); 5] = [
    ("campaign.runs", 5_888),
    ("campaign.racy_runs", 2_967),
    ("campaign.reports", 3_946),
    ("runtime.events", 87_928),
    ("detector.runs", 5_888),
];
/// Chunks the batch decoder produced over the replay campaign.
const PINNED_DECODE_BATCHES: u64 = 1_472;

fn fnv(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = Fnv1a::new();
    words.for_each(|w| h.write(&w.to_le_bytes()));
    h.finish()
}

fn assert_pinned(mode: &str, r: &CampaignResult) {
    let batch = fnv(r.batch.fingerprints().iter().map(|fp| fp.0));
    let per_run = |r: &RunRecord| [r.events, r.peak_shadow_words as u64];
    let accounting = fnv(r.records.iter().flat_map(per_run));
    assert_eq!(r.digest64(), PINNED_DIGEST64, "{mode}: run digest");
    assert_eq!(batch, PINNED_BATCH, "{mode}: deduplicated fingerprints");
    assert_eq!(
        accounting, PINNED_RECORD_ACCOUNTING,
        "{mode}: per-run accounting"
    );
    assert_eq!(r.peak_shadow_words(), PINNED_PEAK_SHADOW_WORDS, "{mode}");
    assert_eq!(r.max_depot_stacks(), PINNED_MAX_DEPOT_STACKS, "{mode}");
    for (name, pinned) in PINNED_COUNTERS {
        assert_eq!(r.obs.snapshot.counter(name), pinned, "{mode}: {name}");
    }
}

#[test]
fn live_campaign_reproduces_the_pinned_output() {
    let live = Campaign::over_units(config(), pattern_suite(true)).run();
    assert_pinned("live", &live);
}

#[test]
fn replay_campaign_reproduces_the_pinned_output() {
    let replay = Campaign::over_units(config(), pattern_suite(true)).run_replay();
    assert_pinned("replay", &replay);
    // Every trace event went through the batch decoder, in the same chunks.
    let stats = replay.replay.expect("replay campaigns carry replay stats");
    assert_eq!(stats.trace_events, stats.batch_events);
    assert_eq!(stats.decode_batches, PINNED_DECODE_BATCHES);
}

/// Replay-vs-live on the flat path alone: the batched replay campaign
/// must still match the live campaign cell for cell (the PR 5 guarantee,
/// re-pinned on top of the new hot path).
#[test]
fn flat_replay_campaign_matches_flat_live_campaign() {
    let units = pattern_suite(true);
    let live = Campaign::over_units(config(), units.clone()).run();
    let replay = Campaign::over_units(config(), units).run_replay();
    assert_eq!(live.deterministic_digest(), replay.deterministic_digest());
    assert_eq!(live.batch.fingerprints(), replay.batch.fingerprints());
}

/// Every pattern program (racy and fixed) × 16 seeds, each trace through
/// all four detectors and the reference. FastTrack, pure-VC and the hybrid
/// must be **sound** (every report is a reference pair) and **complete**
/// (every reference-racy address has a pair whose site was reported; a run
/// that stopped at the report cap is exempt, and not counted as racy
/// below). Eraser must never report an address one lock always covers.
#[test]
fn every_pattern_verdict_agrees_with_the_reference() {
    let cap = FastTrackConfig::default().max_reports;
    let mut arena = DetectorArena::new();
    let (mut racy_cells, mut disciplined) = (0, 0);
    for unit in pattern_suite(true) {
        for seed in 0..16 {
            let (_, trace) = record(&unit.program, &RunConfig::with_seed(seed));
            let verdict = reference::analyze(&trace);
            disciplined += verdict.lock_disciplined.len();
            for (choice, out) in arena.replay_all(&trace) {
                let complete = out.reports.len() < cap;
                let held = if choice == DetectorChoice::Eraser {
                    verdict.check_lockset(&out.reports)
                } else {
                    racy_cells += usize::from(complete && !verdict.pairs.is_empty());
                    verdict.check_happens_before(&trace, &out.reports, complete)
                };
                assert_eq!(held, Ok(()), "{} seed {seed} {choice}", unit.name);
            }
        }
    }
    // 92 programs × 16 seeds × 3 detectors = 4,416 cells, 2,109 of them racy,
    // and 816 lock-disciplined addresses when this was written.
    assert!(racy_cells >= 2_000, "vacuous: only {racy_cells} racy cells");
    assert!(disciplined >= 500, "vacuous: only {disciplined} of them");
}
