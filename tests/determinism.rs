//! Determinism regression tests.
//!
//! The whole reproduction rests on one invariant: a `(program, seed,
//! strategy)` triple names *one* interleaving. These tests pin it from
//! three directions — repeated runs in one process, event-trace digests
//! (which would expose any `HashMap`-iteration-order leak in the runtime's
//! scheduling path), and parallel campaigns at worker counts {1, 4, 8}
//! (which would expose any cross-thread nondeterminism in the shard
//! scheduler or the dedup stage).

use grs::detector::DetectorChoice;
use grs::fleet::{Campaign, CampaignConfig};
use grs::patterns;
use grs::runtime::{RunConfig, Runtime, Strategy, TraceHasher};

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

/// Campaign output — records and deduped batch — is identical at worker
/// counts {1, 4, 8}, across strategies and detectors.
#[test]
fn campaign_is_worker_count_invariant() {
    let units: Vec<_> = grs::fleet::pattern_suite(true).into_iter().take(6).collect();
    let config = CampaignConfig::smoke()
        .seeds_per_unit(3)
        .strategies(vec![Strategy::Random, Strategy::Pct { depth: 2 }])
        .detectors(vec![DetectorChoice::Hybrid, DetectorChoice::Eraser])
        .shards(4);
    let reference = Campaign::over_units(config.clone().workers(1), units.clone()).run();
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
        let rep: Vec<_> = r.batch.iter().map(|(fp, rr)| (fp, rr.repro_seed)).collect();
        let refr: Vec<_> = reference
            .batch
            .iter()
            .map(|(fp, rr)| (fp, rr.repro_seed))
            .collect();
        assert_eq!(rep, refr, "workers={workers}: representatives diverged");
    }
}

/// The campaign's convergence curve (a pure function of the deterministic
/// records) is also invariant — the plot the `campaign` example emits does
/// not depend on how many cores produced it.
#[test]
fn convergence_curve_is_worker_count_invariant() {
    let units: Vec<_> = grs::fleet::pattern_suite(false).into_iter().take(5).collect();
    let config = CampaignConfig::smoke().seeds_per_unit(4).shards(3);
    let serial = Campaign::over_units(config.clone().workers(1), units.clone()).run();
    let parallel = Campaign::over_units(config.workers(4), units).run();
    assert_eq!(serial.convergence(), parallel.convergence());
}
