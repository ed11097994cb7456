//! The differential detector harness.
//!
//! Three algorithms watch the same executions: FastTrack (happens-before),
//! Eraser (locksets), and the TSan-style hybrid. Their theoretical
//! relationship is checkable on every pattern of the corpus:
//!
//! * the **hybrid's verdict is FastTrack's verdict** on every single run —
//!   it adds lockset context to reports, never changes raciness;
//! * **Eraser over-approximates FastTrack**: a FastTrack race means the two
//!   accesses were unordered, so no common lock can have protected both —
//!   Eraser must also consider the variable unprotected (checked as an
//!   aggregate over the seed budget, since Eraser's state machine defers
//!   reporting until sharing is observed);
//! * on **racy patterns** all three agree: racy, within the seed budget;
//! * on **fixed patterns** the happens-before detectors never report
//!   (no-false-positive guarantee; Eraser is exempt — flagging
//!   channel-synchronized fixes is its documented imprecision).
//!
//! The harness also proves the parallel campaign is a pure optimization:
//! serial and parallel runs produce identical records and deduped batches.

use grs::corpus::GoTestSpec;
use grs::deploy::race_fingerprint;
use grs::detector::DetectorChoice;
use grs::fleet::{GoCorpusSource, UnitSource};
use grs::patterns;
use grs::runtime::RunConfig;

const SEEDS: u64 = 32;

/// Per-seed verdicts of one detector over one program.
fn verdicts(program: &grs::runtime::Program, detector: DetectorChoice) -> Vec<bool> {
    (0..SEEDS)
        .map(|seed| {
            let (_, reports) = detector.run(program, RunConfig::with_seed(seed));
            !reports.is_empty()
        })
        .collect()
}

#[test]
fn hybrid_equals_fasttrack_on_every_run_of_every_pattern() {
    for p in patterns::registry() {
        for program in [p.racy_program(), p.fixed_program()] {
            let ft = verdicts(&program, DetectorChoice::FastTrack);
            let hy = verdicts(&program, DetectorChoice::Hybrid);
            assert_eq!(
                ft, hy,
                "{}/{}: hybrid must carry FastTrack's verdict per seed",
                p.id,
                program.name()
            );
        }
    }
}

#[test]
fn all_three_detectors_agree_racy_patterns_are_racy() {
    for p in patterns::registry() {
        let program = p.racy_program();
        for detector in DetectorChoice::all() {
            let caught = verdicts(&program, detector).iter().any(|&r| r);
            assert!(
                caught,
                "{}: {detector} missed the race in {SEEDS} seeds",
                p.id
            );
        }
    }
}

/// Asserts that FastTrack's epoch path — its same-epoch exit included —
/// and the pure-vector-clock ablation, which takes no exit, report the same
/// races, verbatim modulo the detector label, on one run of `program`.
fn assert_epochs_equal_pure_vc(program: &grs::runtime::Program, cfg: RunConfig, what: &str) {
    let (o_ft, r_ft) = DetectorChoice::FastTrack.run(program, cfg.clone());
    let (o_vc, r_vc) = DetectorChoice::PureVectorClock.run(program, cfg);
    assert_eq!(
        o_ft.steps, o_vc.steps,
        "{what}: detectors must not perturb the schedule"
    );
    // The two variants tag reports with their own kind; modulo that label,
    // the reports must be verbatim-identical — same accesses, stacks,
    // locations, and fingerprints.
    let strip = |s: String, kind: &str| s.replace(kind, "<hb>");
    let ft_text: Vec<String> = r_ft
        .iter()
        .map(|r| strip(format!("{r}"), "fasttrack"))
        .collect();
    let vc_text: Vec<String> = r_vc
        .iter()
        .map(|r| strip(format!("{r}"), "pure-vc"))
        .collect();
    assert_eq!(
        ft_text, vc_text,
        "{what}: epoch fast path diverged from pure vector clocks"
    );
    for (a, b) in r_ft.iter().zip(r_vc.iter()) {
        assert_eq!(
            race_fingerprint(a),
            race_fingerprint(b),
            "{what}: fingerprints must agree across variants"
        );
    }
}

#[test]
fn epoch_fast_path_equals_pure_vector_clocks_report_for_report() {
    // FastTrack's epoch representation is an *optimization* of full vector
    // clocks (Flanagan & Freund's central claim): on every run of every
    // pattern — racy and fixed — the epoch fast path must produce the same
    // reports, verbatim, as the pure-vector-clock ablation. The ablation
    // variant is excluded from `DetectorChoice::all()` (it exists for
    // benchmarking), so this differential is its correctness anchor.
    for p in patterns::registry() {
        for program in [p.racy_program(), p.fixed_program()] {
            for seed in 0..SEEDS {
                let what = format!("{}/{} seed {seed}", p.id, program.name());
                assert_epochs_equal_pure_vc(&program, RunConfig::with_seed(seed), &what);
            }
        }
    }
    // The patterns repeat an epoch on few of their accesses; the dense unit
    // on nearly all of them, and generated Go tests on about a third: the
    // families where the same-epoch exit does its work.
    let dense = grs::dense_unit().program;
    for seed in 0..8 {
        let what = format!("dense_unit seed {seed}");
        assert_epochs_equal_pure_vc(&dense, RunConfig::with_seed(seed), &what);
    }
    let corpus = GoCorpusSource::new(GoTestSpec::default_mix(), 1, 200);
    for i in 0..corpus.len() {
        let unit = corpus.build(i).expect("generated tests lower");
        let what = format!("generated test {i}");
        assert_epochs_equal_pure_vc(&unit.program, RunConfig::with_seed(1), &what);
    }
}

#[test]
fn happens_before_detectors_never_flag_fixed_patterns() {
    for p in patterns::registry() {
        let program = p.fixed_program();
        for detector in [DetectorChoice::FastTrack, DetectorChoice::Hybrid] {
            assert!(
                !verdicts(&program, detector).iter().any(|&r| r),
                "{}: {detector} false positive on the fixed variant",
                p.id
            );
        }
    }
}

#[test]
fn eraser_over_approximates_fasttrack() {
    // Aggregate direction: wherever FastTrack finds a race within the seed
    // budget, Eraser must too — the unordered accesses cannot have shared a
    // lock, so the lockset refinement must have emptied.
    for p in patterns::registry() {
        for program in [p.racy_program(), p.fixed_program()] {
            let ft_any = verdicts(&program, DetectorChoice::FastTrack)
                .iter()
                .any(|&r| r);
            let er_any = verdicts(&program, DetectorChoice::Eraser)
                .iter()
                .any(|&r| r);
            if ft_any {
                assert!(
                    er_any,
                    "{}/{}: FastTrack raced but Eraser stayed silent",
                    p.id,
                    program.name()
                );
            }
        }
    }
}

#[test]
fn campaign_differential_serial_vs_parallel() {
    use grs::fleet::{Campaign, CampaignConfig};
    // A cross-detector campaign over a slice of the corpus: the parallel
    // engine's deterministic output (records + deduped batch) must equal
    // the serial engine's, per seed, per strategy, per detector.
    let units: Vec<_> = grs::fleet::pattern_suite(true)
        .into_iter()
        .take(8)
        .collect();
    let config = CampaignConfig::new()
        .seeds_per_unit(4)
        .detectors(vec![DetectorChoice::FastTrack, DetectorChoice::Hybrid])
        .shards(4);
    let campaign = Campaign::over_units(config.clone(), units.clone());
    let serial = campaign.with_config(config.clone().workers(1)).run();
    for workers in [2, 4] {
        let par = Campaign::over_units(config.clone().workers(workers), units.clone()).run();
        assert_eq!(
            par.deterministic_digest(),
            serial.deterministic_digest(),
            "{workers}-worker campaign diverged"
        );
        assert_eq!(par.batch.fingerprints(), serial.batch.fingerprints());
    }
}
