//! Generator↔frontend contract: every test the per-test Go corpus emitter
//! produces must parse under golite, lower under `grs-interp`, and run to
//! completion on the runtime under a `NullMonitor` — across many generator
//! seeds, not just the one the campaign happens to use. This is the
//! property that makes `units_skipped == 0` at 100K scale a *guarantee*
//! instead of an observation.

use grs::corpus::{GoTestGen, GoTestSpec};
use grs::interp::Interp;
use grs::runtime::{NullMonitor, RunConfig, Runtime};

/// Seeds × tests-per-seed the sweep covers. 64 seeds is the floor the
/// campaign relies on; each seed draws its tests from the full template
/// family thanks to the per-index rng split.
const GENERATOR_SEEDS: u64 = 64;
const TESTS_PER_SEED: u64 = 24;

#[test]
fn every_emitted_test_parses_lowers_and_runs() {
    for seed in 0..GENERATOR_SEEDS {
        let gen = GoTestGen::new(GoTestSpec::default_mix().fillers_max(3), seed);
        for t in gen.iter(TESTS_PER_SEED) {
            grs::golite::scan_source(&t.source).unwrap_or_else(|e| {
                panic!("seed {seed} {}: golite rejects generated source: {e}", t.name)
            });
            let interp = Interp::compile(&t.source).unwrap_or_else(|e| {
                panic!("seed {seed} {}: interp rejects generated source: {e}", t.name)
            });
            let program = interp.program_checked(&t.name, "main").unwrap_or_else(|e| {
                panic!("seed {seed} {}: lowering fails: {e}", t.name)
            });
            // Two schedule seeds per test: a panic or deadlock in either
            // is a generator bug, racy or not.
            for run_seed in [1, 2] {
                let (outcome, _) =
                    Runtime::new(RunConfig::with_seed(run_seed)).run(&program, NullMonitor);
                assert!(
                    outcome.is_clean(),
                    "seed {seed} {} run_seed {run_seed}: errors {:?} deadlock {:?} leaked {:?}",
                    t.name,
                    outcome.errors,
                    outcome.deadlock,
                    outcome.leaked
                );
            }
        }
    }
}

/// A campaign names its units without building them: the name drawn from
/// the head of the RNG stream is the name the built test carries.
#[test]
fn name_matches_the_emitted_test_without_building_it() {
    let specs = [
        GoTestSpec::default_mix(),
        GoTestSpec::default_mix().racy_per_mille(1000).fillers_max(0),
        GoTestSpec::default_mix().racy_per_mille(0).fillers_max(3),
    ];
    for (s, spec) in specs.into_iter().enumerate() {
        let gen = GoTestGen::new(spec, 11 + s as u64);
        for i in 0..1000 {
            assert_eq!(gen.name(i), gen.emit(i).name, "spec {s}, index {i}");
        }
    }
}

#[test]
fn compile_errors_are_structured_not_panics() {
    let err = match Interp::compile("package main\n\nfunc main() {") {
        Ok(_) => panic!("truncated source must not compile"),
        Err(e) => e,
    };
    assert_eq!(err.phase, grs::interp::CompilePhase::Parse);
    assert!(err.pos.is_some(), "parse errors carry a position");

    let interp = Interp::compile("package main\n\nfunc helper(x int) int {\n\treturn x\n}\n")
        .expect("valid source");
    let err = interp.program_checked("unit", "main").unwrap_err();
    assert_eq!(err.phase, grs::interp::CompilePhase::Lower);
    assert!(err.message.contains("main"), "error names the entry: {err}");
    let err = interp.program_checked("unit", "helper").unwrap_err();
    assert_eq!(err.phase, grs::interp::CompilePhase::Lower);
    assert!(err.message.contains("parameter"), "{err}");
}
