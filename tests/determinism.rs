//! Determinism regression tests.
//!
//! The whole reproduction rests on one invariant: a `(program, seed,
//! strategy)` triple names *one* interleaving. These tests pin it from
//! three directions — repeated runs in one process, event-trace digests
//! (which would expose any `HashMap`-iteration-order leak in the runtime's
//! scheduling path), and parallel campaigns at worker counts {1, 4, 8}
//! (which would expose any cross-thread nondeterminism in the unit
//! scheduler or the dedup stage).

use std::sync::Arc;

use grs::deploy::{Fingerprint, RaceBatch};
use grs::detector::{DetectorArena, DetectorChoice};
use grs::fleet::{Campaign, CampaignConfig};
use grs::patterns;
use grs::runtime::{ReproArtifact, RunConfig, Runtime, Strategy, TraceHasher};

/// Same seed ⇒ identical event-trace hash across 3 repeated runs, for a
/// spread of patterns, seeds, and strategies.
#[test]
fn trace_hash_is_stable_across_repeated_runs() {
    for p in patterns::registry().into_iter().take(10) {
        for program in [p.racy_program(), p.fixed_program()] {
            for seed in [0u64, 7, 1234] {
                for strategy in [Strategy::Random, Strategy::RoundRobin, Strategy::Pct { depth: 2 }]
                {
                    let digest = |_: u32| {
                        let cfg = RunConfig::with_seed(seed).strategy(strategy);
                        let (_, h) = Runtime::new(cfg).run(&program, TraceHasher::new());
                        (h.digest(), h.events())
                    };
                    let first = digest(0);
                    for rep in 1..3 {
                        assert_eq!(
                            digest(rep),
                            first,
                            "{}/{} seed {seed} {strategy:?}: trace diverged on rerun {rep}",
                            p.id,
                            program.name()
                        );
                    }
                }
            }
        }
    }
}

/// Different seeds (almost always) produce different traces — the hash is
/// actually sensitive to the schedule, not a constant.
#[test]
fn trace_hash_distinguishes_seeds() {
    let p = patterns::find("loop_index_capture").expect("in corpus");
    let program = p.racy_program();
    let digests: std::collections::HashSet<u64> = (0..16u64)
        .map(|seed| {
            let (_, h) = Runtime::new(RunConfig::with_seed(seed)).run(&program, TraceHasher::new());
            h.digest()
        })
        .collect();
    assert!(
        digests.len() > 1,
        "16 seeds produced one digest — hash is insensitive"
    );
}

/// The detector layer is deterministic too: same seed ⇒ same reports, with
/// report *order* included (this is what the FastTrack sorted-iteration fix
/// guarantees when a variable has a shared read history).
#[test]
fn detector_reports_are_deterministic_including_order() {
    for p in patterns::registry().into_iter().take(10) {
        let program = p.racy_program();
        for seed in 0..8u64 {
            for detector in DetectorChoice::all() {
                let run = || {
                    let (_, reports) = detector.run(&program, RunConfig::with_seed(seed));
                    reports
                        .iter()
                        .map(|r| format!("{r}"))
                        .collect::<Vec<_>>()
                };
                let a = run();
                let b = run();
                let c = run();
                assert_eq!(a, b, "{} seed {seed} {detector}", p.id);
                assert_eq!(b, c, "{} seed {seed} {detector}", p.id);
            }
        }
    }
}

/// A batch's representatives, as filed: fingerprint, full report text,
/// detector and repro seed.
fn representatives(batch: &RaceBatch) -> Vec<(Fingerprint, String, DetectorChoice, Option<u64>)> {
    batch
        .iter()
        .map(|(fp, r)| (fp, r.to_string(), r.detector, r.repro_seed))
        .collect()
}

/// The batch a campaign should build, made the plain way: every report of
/// every execution, from `run_many`, tagged as a campaign tags it and
/// added through [`RaceBatch::add`] under the campaign's rule — the lowest
/// spec's race, and of one spec's, the first detected.
fn batch_of_every_report(campaign: &Campaign) -> RaceBatch {
    let mut arena = DetectorArena::new();
    let mut batch = RaceBatch::new();
    let config = campaign.config();
    for exec in campaign.exec_specs() {
        let unit = campaign.unit(exec.unit).expect("pattern units build");
        let cfg = RunConfig {
            seed: exec.seed,
            strategy: exec.strategy,
            max_steps: config.max_steps,
            ..RunConfig::default()
        };
        let (_, watched) = arena.run_many(&config.detectors, &unit.program, cfg);
        for (pos, (&detector, out)) in config.detectors.iter().zip(watched).enumerate() {
            let spec = exec.run_spec(pos, detector);
            for (nth, mut r) in out.reports.into_iter().enumerate() {
                r.program = Some(Arc::from(unit.name.as_str()));
                r.repro_seed = Some(spec.seed);
                r.repro = Some(ReproArtifact::seeded(spec.seed, spec.strategy));
                // Spec index, then place in the run: no two orders tie.
                batch.add(r, ((spec.index as u64) << 32) | nth as u64);
            }
        }
    }
    batch
}

/// Campaign output — records and deduped batch — is identical at worker
/// counts {1, 4, 8}, across strategies and detectors, and its
/// representatives are the reports a plain batch of every report keeps.
/// A campaign builds a report only for a race that takes a fingerprint's
/// slot, and above one worker a higher spec can build one that a lower spec
/// then replaces: the full text of what is kept must not depend on that.
#[test]
fn campaign_is_worker_count_invariant() {
    let units: Vec<_> = grs::fleet::pattern_suite(true).into_iter().take(6).collect();
    let config = CampaignConfig::new()
        .seeds_per_unit(3)
        .strategies(vec![Strategy::Random, Strategy::Pct { depth: 2 }])
        .detectors(vec![DetectorChoice::Hybrid, DetectorChoice::Eraser])
        .shards(4);
    let serial = Campaign::over_units(config.clone().workers(1), units.clone());
    let reference = serial.run();
    assert_eq!(
        representatives(&reference.batch),
        representatives(&batch_of_every_report(&serial)),
        "the campaign kept other representatives than a batch of every report"
    );
    for workers in [4, 8] {
        let r = Campaign::over_units(config.clone().workers(workers), units.clone()).run();
        assert_eq!(
            r.deterministic_digest(),
            reference.deterministic_digest(),
            "workers={workers}"
        );
        assert_eq!(
            r.batch.fingerprints(),
            reference.batch.fingerprints(),
            "workers={workers}"
        );
        assert_eq!(
            representatives(&r.batch),
            representatives(&reference.batch),
            "workers={workers}: representatives diverged"
        );
    }
}

/// The campaign's convergence curve (a pure function of the deterministic
/// records) is also invariant — the plot the `campaign` example emits does
/// not depend on how many cores produced it.
#[test]
fn convergence_curve_is_worker_count_invariant() {
    let units: Vec<_> = grs::fleet::pattern_suite(false).into_iter().take(5).collect();
    let config = CampaignConfig::new().seeds_per_unit(4).shards(3);
    let serial = Campaign::over_units(config.clone().workers(1), units.clone()).run();
    let parallel = Campaign::over_units(config.workers(4), units).run();
    assert_eq!(serial.convergence(), parallel.convergence());
}
