//! Pins the static-matrix campaign digest across refactors.
//!
//! The scheduler was refactored from a stateless `Strategy` dispatch into
//! policy objects plus decision recording. The static `(unit × seed ×
//! strategy × detector)` matrix must stay bit-identical through that
//! refactor: these digests were captured from the pre-refactor engine and
//! any drift here means the policy objects consume the RNG differently (or
//! the campaign enumeration changed), which would invalidate every filed
//! `ReproArtifact`.
//!
//! The one-driver rewrite of `fleet::campaign` extended the pin to replay
//! mode and to what each mode files: the per-mode digests over the dedup
//! batch's representatives were captured at the last commit that had
//! hand-written drivers per mode (384afab).

use std::sync::Arc;

use grs_corpus::GoTestSpec;
use grs_detector::DetectorChoice;
use grs_fleet::{pattern_suite, Campaign, CampaignConfig, CampaignResult, GoCorpusSource};
use grs_runtime::Strategy;

fn pinned_campaign() -> Campaign {
    let units = pattern_suite(true)
        .into_iter()
        .filter(|u| {
            u.name.starts_with("loop_index_capture") || u.name.starts_with("missing_lock")
        })
        .collect();
    let config = CampaignConfig::smoke()
        .seeds_per_unit(4)
        .base_seed(1)
        .strategies(vec![
            Strategy::Random,
            Strategy::Pct { depth: 3 },
            Strategy::RoundRobin,
        ])
        .detectors(vec![DetectorChoice::Hybrid, DetectorChoice::FastTrack])
        .workers(1)
        .shards(2);
    Campaign::over_units(config, units)
}

/// Captured from the pre-refactor engine (commit de8f6ce). The static
/// matrix — including PCT change-point placement under the default
/// `pct_steps_hint` — must reproduce it bit-for-bit.
const PINNED_DIGEST64: u64 = 0x7e3c_5329_1993_70a5;

/// [`representatives_digest`] of each mode's batch at 384afab. Live files
/// seed-only representatives; replay's differ by carrying a trace digest.
const PINNED_LIVE_REPRESENTATIVES: u64 = 0x09bd_1ba4_3f46_0da6;
const PINNED_REPLAY_REPRESENTATIVES: u64 = 0x00ab_112b_42f6_9a0e;

/// FNV-1a over what each filed representative is reproduced from:
/// `(fingerprint, repro.seed, has trace digest, 0)` in batch (fingerprint)
/// order. The trace digest's *value* is a `DefaultHasher` product, so only
/// its presence is pinned; the constant zero byte is where a since-removed
/// repro field was folded, kept so the constants above still stand.
fn representatives_digest(r: &CampaignResult) -> u64 {
    let mut h = grs_obs::Fnv1a::new();
    for (fp, report) in r.batch.iter() {
        let repro = report.repro.as_ref().expect("campaign reports carry repro");
        h.write(&fp.0.to_le_bytes());
        h.write(&repro.seed.to_le_bytes());
        h.write(&[u8::from(repro.trace_digest.is_some()), 0]);
    }
    h.finish()
}

#[test]
fn every_mode_digest_and_representative_set_is_pinned() {
    let c = pinned_campaign();
    for (mode, r, digest, representatives) in [
        ("live", c.run(), PINNED_DIGEST64, PINNED_LIVE_REPRESENTATIVES),
        // Replay covers the live matrix, so it shares the live constant.
        ("replay", c.run_replay(), PINNED_DIGEST64, PINNED_REPLAY_REPRESENTATIVES),
    ] {
        assert_eq!(r.units_skipped, 0, "{mode}");
        assert_eq!(r.digest64(), digest, "{mode} campaign drifted from its pinned digest");
        assert_eq!(
            representatives_digest(&r),
            representatives,
            "{mode} files different representatives"
        );
    }
}

/// The generated-corpus campaign (default template mix, 200‰ racy,
/// generator seed 1, 2,000 tests, one FastTrack run each) at f2a35e4.
const PINNED_CORPUS_DIGEST64: u64 = 0x55f7_7671_34c8_1f3a;

#[test]
fn generated_corpus_campaign_is_pinned_at_one_and_four_workers() {
    let source = Arc::new(GoCorpusSource::new(
        GoTestSpec::default_mix().racy_per_mille(200),
        1,
        2_000,
    ));
    for workers in [1, 4] {
        let config = CampaignConfig::new()
            .seeds_per_unit(1)
            .detectors(vec![DetectorChoice::FastTrack])
            .strategies(vec![Strategy::Random])
            .workers(workers)
            .shards(2 * workers);
        let r = Campaign::over_source(config, source.clone()).run();
        assert_eq!(r.units_skipped, 0, "{workers} workers: {:?}", r.skip_reasons);
        assert_eq!(r.total_runs(), 2_000, "{workers} workers");
        assert_eq!(r.digest64(), PINNED_CORPUS_DIGEST64, "{workers} workers");
    }
}
