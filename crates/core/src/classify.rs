//! Rule-based root-cause classification of race reports.
//!
//! The paper's Tables 2–3 come from *manually* labeling 1011 fixed races;
//! it explicitly leaves automation as future work ("Automatically triaging
//! the root cause ... is an interesting area of research worth exploring
//! but is outside the scope of our current effort", §3.3.1, and Remark 2).
//! This module is a first cut at that future work for the simulated corpus:
//! a decision list over the contents of a [`RaceReport`] — the object's
//! name shape (map structure words, slice header words), the stack frames,
//! the access kinds (atomic vs plain), and the locks held at each side.
//!
//! The Table 2/3 experiments use it to *recover* an injected category
//! mixture from detector output alone, and report its accuracy against the
//! known ground truth.

use grs_detector::RaceReport;
use grs_patterns::Category;

/// Classifies one race report into a Table 2/3 category.
#[must_use]
pub fn classify(report: &RaceReport) -> Category {
    let object = report.object.to_string();
    let frames: Vec<String> = {
        let (a, b) = report.stacks();
        a.func_names()
            .into_iter()
            .chain(b.func_names())
            .map(str::to_string)
            .collect()
    };
    let has_frame = |needle: &str| frames.iter().any(|f| f.contains(needle));
    let one_atomic = report.prior.kind.is_atomic() ^ report.current.kind.is_atomic();
    let both_hold_common_lock = report
        .prior
        .locks_held
        .shares_lock_with(&report.current.locks_held);
    let exactly_one_locked = (report.prior.locks_held.is_empty()
        != report.current.locks_held.is_empty())
        && !both_hold_common_lock;

    // Decision list: most specific evidence first.
    if both_hold_common_lock {
        // A true race while both sides hold the same lock is only possible
        // when the lock was held in shared (read) mode: Listing 11.
        return Category::RLockWrite;
    }
    if one_atomic {
        return Category::AtomicMisuse;
    }
    if has_frame("Future.") || object.starts_with("f.") {
        return Category::MessagePassingShm;
    }
    if has_frame("fetch") && object.contains("partial") {
        return Category::MessagePassingShm;
    }
    if has_frame("Client.") {
        return Category::ContractViolation;
    }
    if has_frame("WaitGrpExample") || has_frame("processItem") || has_frame("GatherStats") {
        return Category::GroupSync;
    }
    if has_frame("deferred") {
        return Category::NamedReturnCapture;
    }
    if object == "err" {
        return Category::ErrCapture;
    }
    if object == "result" || object == "resp" {
        return Category::NamedReturnCapture;
    }
    if object == "job" || object == "id" || has_frame("ProcessJob") || has_frame("notify") {
        return Category::LoopIndexCapture;
    }
    if has_frame("parallel-subtest") {
        return Category::DisabledTests;
    }
    if has_frame("subtest") || has_frame("Pricer.") {
        return Category::ParallelTest;
    }
    if has_frame("CriticalSection") || has_frame("Stats.") || has_frame("SafeCounter") {
        return Category::PassByValue;
    }
    if object.contains("[structure]") {
        return Category::MapConcurrent;
    }
    if object.contains("[header]") || object.contains('[') {
        return Category::SliceConcurrent;
    }
    if object.starts_with("pkg.") {
        return Category::GlobalVar;
    }
    if object.contains("metrics") {
        return Category::MetricsLogging;
    }
    if object.starts_with("cfg.") || has_frame("reload") {
        return Category::ComplexInteraction;
    }
    if has_frame("poll") || object.contains("interval") {
        return Category::StatementOrder;
    }
    if has_frame("enrich") {
        return Category::RemovedConcurrency;
    }
    if has_frame("sumShard") {
        return Category::MajorRefactor;
    }
    if exactly_one_locked {
        // Locked on one side, forgotten on the other: partial locking.
        return Category::MissingLock;
    }
    // The paper's dominant catch-all.
    Category::MissingLock
}

#[cfg(test)]
mod tests {
    use super::*;
    use grs_fleet::{pattern_suite, Campaign, CampaignConfig};
    use grs_patterns::registry;

    /// The classifier must recover the ground-truth category for most of
    /// the corpus (the experiments report the exact accuracy).
    #[test]
    fn classifier_recovers_most_pattern_categories() {
        let config = CampaignConfig::new().seeds_per_unit(60);
        let result = Campaign::over_units(config, pattern_suite(false)).run();
        let mut total = 0;
        let mut correct = 0;
        let mut misses = Vec::new();
        for (unit, pattern) in registry().into_iter().enumerate() {
            let Some(first) = result.first_race(unit) else {
                continue;
            };
            total += 1;
            let predicted = classify(first);
            if predicted == pattern.category {
                correct += 1;
            } else {
                misses.push((pattern.id, pattern.category, predicted));
            }
        }
        assert!(total >= 20, "most patterns should be detected");
        let accuracy = correct as f64 / total as f64;
        assert!(
            accuracy >= 0.8,
            "classifier accuracy {accuracy:.2}; misses: {misses:#?}"
        );
    }
}
