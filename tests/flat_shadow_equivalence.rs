//! Flat shadow memory: the campaign-level equivalence gate.
//!
//! PR 7 replaces the detectors' HashMap-backed shadow state with flat,
//! index-addressed arrays and routes replay campaigns through the batched
//! `.grtrace` decoder. This suite is the acceptance gate for that rewrite
//! at the outermost observable layer: full campaigns over the §4 pattern
//! corpus, 16 seeds, all four detection algorithms, executed once with the
//! flat detectors and once with the legacy oracle (`oracle_shadow`), must
//! produce **bit-identical** deterministic output — run digests (unit,
//! seed, racy flag, fingerprints, steps), deduplicated fingerprint
//! batches, peak shadow accounting, and the stable observability counters
//! — in both live (`run`) and execute-once replay (`run_replay`) modes.
//!
//! The legacy detectors are always compiled (`grs::detector::legacy`), so
//! the suite runs under plain `cargo test`.

use grs::detector::DetectorChoice;
use grs::fleet::{pattern_suite, Campaign, CampaignConfig, CampaignResult};
use grs::runtime::Strategy;

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

/// The stable counters both shadow implementations must agree on (the
/// volatile scheduler counters legitimately differ with placement).
const STABLE_COUNTERS: &[&str] = &[
    "campaign.runs",
    "campaign.racy_runs",
    "campaign.reports",
    "runtime.events",
    "detector.runs",
];

fn assert_equivalent(mode: &str, flat: &CampaignResult, oracle: &CampaignResult) {
    assert_eq!(
        flat.deterministic_digest(),
        oracle.deterministic_digest(),
        "{mode}: deterministic run digest must be bit-identical"
    );
    assert_eq!(
        flat.batch.fingerprints(),
        oracle.batch.fingerprints(),
        "{mode}: deduplicated fingerprint batch"
    );
    assert_eq!(
        flat.peak_shadow_words(),
        oracle.peak_shadow_words(),
        "{mode}: campaign peak shadow words"
    );
    assert_eq!(
        flat.max_depot_stacks(),
        oracle.max_depot_stacks(),
        "{mode}: depot footprint"
    );
    for name in STABLE_COUNTERS {
        assert_eq!(
            flat.obs.snapshot.counter(name),
            oracle.obs.snapshot.counter(name),
            "{mode}: stable counter {name}"
        );
    }
    // Per-record shadow accounting, not just the campaign max: the flat
    // arrays must reproduce the oracle's peak for every single run.
    for (f, o) in flat.records.iter().zip(oracle.records.iter()) {
        assert_eq!(
            f.peak_shadow_words, o.peak_shadow_words,
            "{mode}: {}/{}/{} peak shadow words",
            f.unit_name, f.spec.seed, f.spec.detector
        );
        assert_eq!(f.events, o.events, "{mode}: per-run event count");
    }
}

#[test]
fn live_campaign_is_bit_identical_to_oracle() {
    let units = pattern_suite(true);
    let flat = Campaign::over_units(config(), units.clone()).run();
    let oracle = Campaign::over_units(config().oracle_shadow(true), units).run();
    assert!(
        flat.racy_runs() > 0,
        "corpus must produce races or the equivalence is vacuous"
    );
    assert_equivalent("live", &flat, &oracle);
}

#[test]
fn replay_campaign_is_bit_identical_to_oracle() {
    let units = pattern_suite(true);
    let flat = Campaign::over_units(config(), units.clone()).run_replay();
    let oracle = Campaign::over_units(config().oracle_shadow(true), units).run_replay();
    assert!(flat.racy_runs() > 0);
    assert_equivalent("replay", &flat, &oracle);
    // Both modes fed every trace event through the batch decoder.
    let (fs, os) = (flat.replay.unwrap(), oracle.replay.unwrap());
    assert_eq!(fs.trace_events, fs.batch_events, "flat: decode covers the stream");
    assert_eq!(os.trace_events, os.batch_events, "oracle: decode covers the stream");
    assert_eq!(fs.decode_batches, os.decode_batches, "same chunking both modes");
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
