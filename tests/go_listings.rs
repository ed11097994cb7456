//! End-to-end: the rendition set's listings as Go source, compiled by the
//! Go-lite frontend, executed on the instrumented runtime, and raced by the
//! dynamic detector. This is the closest the reproduction gets to
//! "run `go test -race` on the Zenodo artifact".

#[macro_use]
mod listing_runs;

use std::collections::BTreeSet;

use grs::corpus::{is_program, listings, Truth};
use grs::golite::parse_file;
use grs::patterns::find;
use listing_runs::Text::{Fixed, Racy};

/// Names are unique, every text parses, every twin is registered, and
/// every text meets a verdict test: it is linted when its entry names a
/// rule, raced when it is a program of an entry whose truth runs, and
/// scanned when its entry's truth is [`Truth::Parses`].
#[test]
fn every_listing_is_named_once_parses_and_meets_a_verdict_test() {
    let mut names = BTreeSet::new();
    for l in listings() {
        assert!(names.insert(l.name), "{}: named twice", l.name);
        if let Some(twin) = l.twin {
            assert!(
                find(twin).is_some(),
                "{}: no executable pattern {twin}",
                l.name
            );
        }
        if l.truth.seeds().is_some() {
            assert!(is_program(l.racy), "{}: the racy text does not run", l.name);
        }
        for (i, text) in l.texts().enumerate() {
            parse_file(text).unwrap_or_else(|e| panic!("{}/{i}: parse error {e}", l.name));
            let raced = l.truth.seeds().is_some() && is_program(text);
            assert!(
                l.rule.is_some() || raced || l.truth == Truth::Parses,
                "{}/{i}: no verdict test reads it",
                l.name
            );
        }
    }
}

/// Every program of the set meets its entry's truth.
#[test]
fn every_program_meets_its_ground_truth() {
    let failed = listing_runs::failures(|_, _| true);
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

verdicts! {
    listing1_go_source_races: "listing1" Racy;
    listing1_go_source_fixed_is_clean: "listing1" Fixed(0);
    listing2_err_idiom_races: "listing2" Racy;
    listing3_named_return_races: "listing3" Racy;
    listing5_slice_header_copy_races: "listing5" Racy;
    listing5_fixed_no_value_pass_is_clean: "listing5" Fixed(0);
    listing6_concurrent_map_races: "listing6" Racy;
    listing7_mutex_by_value_races: "listing7" Racy;
    listing7_fixed_pointer_is_clean: "listing7" Fixed(0);
    listing9_future_select_races_or_leaks: "listing9" Racy;
    listing10_waitgroup_add_inside_races: "listing10" Racy;
    listing10_fixed_is_clean: "listing10" Fixed(0);
    listing11_rlock_write_races: "listing11" Racy;
    listing11_fixed_write_lock_is_clean: "listing11" Fixed(0);
    double_checked_locking_go_source_races: "lazy_init" Racy;
    once_fixed_lazy_init_is_clean: "lazy_init" Fixed(0);
}
