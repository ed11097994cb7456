//! The rendition set's programs, run once per test binary: one campaign
//! per seed count over every `package main` text of every entry whose
//! truth runs, each text held to its entry's [`Truth`].

use std::sync::OnceLock;

use grs::corpus::{is_program, listings, Listing, Truth};
use grs::fleet::{lower_source_unit, Campaign, CampaignConfig, CampaignResult};

/// One text of an entry: the racy one, or fix `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Text {
    Racy,
    Fixed(usize),
}

/// One campaign and the (entry, text) each of its units runs.
struct Runs {
    units: Vec<(&'static Listing, Text)>,
    result: CampaignResult,
}

fn runs() -> &'static [Runs] {
    static RUNS: OnceLock<Vec<Runs>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let mut seed_counts: Vec<usize> =
            listings().iter().filter_map(|l| l.truth.seeds()).collect();
        seed_counts.sort_unstable();
        seed_counts.dedup();
        seed_counts.into_iter().map(campaign).collect()
    })
}

/// A campaign of `seeds` seeds over every program of the entries that ask
/// for that many.
fn campaign(seeds: usize) -> Runs {
    let mut units = Vec::new();
    let mut programs = Vec::new();
    for l in listings().iter().filter(|l| l.truth.seeds() == Some(seeds)) {
        let texts = std::iter::once((Text::Racy, l.racy)).chain(
            l.fixed
                .iter()
                .enumerate()
                .map(|(i, src)| (Text::Fixed(i), *src)),
        );
        for (text, src) in texts.filter(|(_, src)| is_program(src)) {
            let name = format!("{}/{text:?}", l.name);
            programs.push(
                lower_source_unit(units.len(), &name, src, None).unwrap_or_else(|e| panic!("{e}")),
            );
            units.push((l, text));
        }
    }
    let result = Campaign::over_units(CampaignConfig::new().seeds_per_unit(seeds), programs).run();
    Runs { units, result }
}

/// Why unit `unit` of `runs` fails its entry's truth, if it does.
fn verdict(runs: &Runs, unit: usize) -> Option<String> {
    let (l, text) = runs.units[unit];
    let records = || runs.result.records.iter().filter(|r| r.spec.unit == unit);
    let errors = records().filter(|r| r.end.errors > 0).count();
    let deadlocks = records().filter(|r| r.end.deadlock).count();
    let race = runs.result.first_race(unit);
    let name = format!("{}/{text:?}", l.name);
    match text {
        Text::Racy if race.is_none() => Some(format!(
            "{name}: no race detected ({errors} error, {deadlocks} deadlocked runs)"
        )),
        Text::Racy if l.truth == Truth::RacesAndLeaks && !records().any(|r| r.end.leaked > 0) => {
            Some(format!(
                "{name}: the sender must leak when cancellation wins"
            ))
        }
        Text::Racy => None,
        Text::Fixed(_) => match race {
            Some(race) => Some(format!("{name}: false positive {race}")),
            None if errors > 0 => Some(format!("{name}: {errors} runs with errors")),
            None if deadlocks > 0 && l.truth == Truth::Races => {
                Some(format!("{name}: {deadlocks} deadlocked runs"))
            }
            None => None,
        },
    }
}

/// Every failure among the programs `pick` selects.
///
/// # Panics
///
/// When `pick` selects no program.
pub fn failures(pick: impl Fn(&Listing, Text) -> bool) -> Vec<String> {
    let mut picked = 0;
    let mut failed = Vec::new();
    for runs in runs() {
        for (unit, &(l, text)) in runs.units.iter().enumerate() {
            if pick(l, text) {
                picked += 1;
                failed.extend(verdict(runs, unit));
            }
        }
    }
    assert!(picked > 0, "no program of the set was picked");
    failed
}

/// One `#[test]` per row `test_name: "entry" text;`, each holding that
/// text of that entry to its truth.
macro_rules! verdicts {
    ($($test:ident: $entry:literal $text:expr;)*) => {$(
        #[test]
        fn $test() {
            let failed = listing_runs::failures(|l, t| l.name == $entry && t == $text);
            assert!(failed.is_empty(), "{}", failed.join("\n"));
        }
    )*};
}
