//! Which report survives, pinned for every pattern, seed and detector.
//!
//! A detector meets the same race site many times in one run and keeps one
//! report for it; which one it keeps (the first), in what order, and with
//! which stacks and locksets is observable in every report's text. This
//! test folds the `Display` text of every report, in order, into one
//! FNV-1a digest over:
//!
//! * `pattern_suite(true)` × seeds `0..8` × {Random, PCT(2)} × all four
//!   detectors, run live through [`DetectorArena::run`];
//! * the same runs recorded, encoded, decoded and replayed through
//!   [`DetectorArena::replay_many_decoded_observed`];
//! * the first 64 generated Go tests (`GoTestSpec::default_mix()`, corpus
//!   seed 1) at run seed 1, live and replayed the same way.
//!
//! A change to how detectors deduplicate, materialize or order reports
//! moves the digest; a change that only makes them cheaper does not.
//!
//! Each program is also run once more with all four detectors watching
//! the one execution ([`DetectorArena::run_many`], what a campaign does).
//! That pass is compared, not folded: each detector's reports, steps,
//! events, depot stacks and peak shadow words must equal its solo run's.

use grs::corpus::GoTestSpec;
use grs::detector::{DetectorArena, DetectorChoice, RaceReport};
use grs::fleet::{pattern_suite, GoCorpusSource, UnitSource};
use grs::obs::{Fnv1a, NULL_SINK};
use grs::runtime::{record, DecodedTrace, Program, RunConfig, Strategy};

/// The report count and digest, taken before report materialization moved
/// behind the detectors' site-key probe; that change must not move them.
const PINNED_REPORTS: u64 = 8_024;
const PINNED_REPORT_DIGEST: u64 = 0xedcf_3775_baf9_702d;

const PATTERN_SEEDS: u64 = 8;
const CORPUS_UNITS: usize = 64;

#[derive(Default)]
struct Fold {
    digest: Fnv1a,
    reports: u64,
}

impl Fold {
    fn add(&mut self, reports: &[RaceReport]) {
        for r in reports {
            self.digest.write(r.to_string().as_bytes());
            self.digest.write(&[0]);
            self.reports += 1;
        }
    }

    /// `program` under `cfg`: live under each detector, then recorded and
    /// replayed under all four from the decoded bytes. The solo live runs
    /// are checked against one run all four watch together.
    fn run(&mut self, arena: &mut DetectorArena, program: &Program, cfg: &RunConfig) {
        let choices = DetectorChoice::all_with_ablation();
        let (together, watched) = arena.run_many(&choices, program, cfg.clone());
        for (choice, fanned) in choices.into_iter().zip(watched) {
            let (solo, reports) = arena.run(choice, program, cfg.clone());
            let cell = format!("{} seed {} {choice}", program.name(), cfg.seed);
            assert_eq!(texts(&fanned.reports), texts(&reports), "{cell}: reports");
            assert_eq!(together.steps, solo.steps, "{cell}: steps");
            let events = solo.stats.events_dispatched;
            assert_eq!(fanned.events, events, "{cell}: events");
            assert_eq!(together.stats.depot, solo.stats.depot, "{cell}: depot");
            assert_eq!(
                fanned.peak_shadow_words, solo.stats.peak_shadow_words,
                "{cell}: peak shadow words"
            );
            self.add(&reports);
        }
        let (_, trace) = record(program, cfg);
        let decoded = DecodedTrace::decode(&trace.encode()).expect("a just-encoded trace decodes");
        for (_, out) in arena.replay_many_decoded_observed(&decoded, &choices, &NULL_SINK) {
            self.add(&out.reports);
        }
    }
}

fn texts(reports: &[RaceReport]) -> Vec<String> {
    reports.iter().map(ToString::to_string).collect()
}

#[test]
fn every_kept_report_is_pinned_live_and_replayed() {
    let mut arena = DetectorArena::new();
    let mut fold = Fold::default();
    for unit in pattern_suite(true) {
        for seed in 0..PATTERN_SEEDS {
            for strategy in [Strategy::Random, Strategy::Pct { depth: 2 }] {
                let cfg = RunConfig::with_seed(seed).strategy(strategy);
                fold.run(&mut arena, &unit.program, &cfg);
            }
        }
    }
    let corpus = GoCorpusSource::new(GoTestSpec::default_mix(), 1, CORPUS_UNITS);
    for i in 0..corpus.len() {
        let unit = corpus.build(i).expect("generated tests lower");
        fold.run(&mut arena, &unit.program, &RunConfig::with_seed(1));
    }
    let digest = fold.digest.finish();
    println!("reports {} digest {digest:#018x}", fold.reports);
    assert_eq!(
        (fold.reports, digest),
        (PINNED_REPORTS, PINNED_REPORT_DIGEST),
        "the reports detectors keep changed: count or text, order, stacks or locksets"
    );
}
