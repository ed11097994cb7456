//! Executable reproductions of the data-race patterns of
//! *"A Study of Real-World Data Races in Golang"* (PLDI 2022), §4.
//!
//! The paper's artifact (Zenodo record 6330164) is a corpus of minimized Go
//! programs, one per pattern. This crate is the equivalent corpus for the
//! `grs-runtime` substrate: every listing of §4 — plus the language-agnostic
//! shapes of Table 3 — is a [`Pattern`] with
//!
//! * a **racy** program faithful to the listing's structure (function names
//!   appear as logical stack frames, so race reports read like the paper's),
//! * a **fixed** program applying the fix the study's developers applied,
//! * metadata tying it to the paper's observation number, listing number,
//!   and Table 2 / Table 3 category.
//!
//! The integration suite (`tests/pattern_corpus.rs` at the workspace root)
//! asserts, for every pattern, that a campaign detects the racy variant and
//! never flags the fixed one.
//!
//! # Example
//!
//! ```
//! use grs_detector::DetectorChoice;
//! use grs_patterns::{registry, Category};
//!
//! let patterns = registry();
//! assert!(patterns.len() >= 20);
//! let listing1 = patterns
//!     .iter()
//!     .find(|p| p.listing == Some(1))
//!     .expect("Listing 1 is in the corpus");
//! assert_eq!(listing1.category, Category::LoopIndexCapture);
//! let program = listing1.racy_program();
//! let run = |seed| DetectorChoice::Hybrid.run(&program, grs_runtime::RunConfig::with_seed(seed));
//! assert!((1..=30).any(|seed| !run(seed).1.is_empty()));
//! ```

#![forbid(unsafe_code)]

pub mod byvalue;
pub mod capture;
pub mod extra;
pub mod gosrc;
pub mod interproc;
pub mod locking;
pub mod mapslice;
pub mod misc;
pub mod mixed;
pub mod paratest;
pub mod waitgroup;

use grs_runtime::Program;

/// Which of the paper's two summary tables a category belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Table {
    /// Table 2: races tied to Go language features and idioms.
    GoFeature,
    /// Table 3: language-agnostic races.
    LanguageAgnostic,
}

/// Root-cause category, matching the rows of Tables 2 and 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Capture-by-reference of a loop range variable (Obs. 3, Listing 1).
    LoopIndexCapture,
    /// Capture-by-reference of the idiomatic `err` variable (Obs. 3,
    /// Listing 2).
    ErrCapture,
    /// Capture of a named return variable (Obs. 3, Listings 3–4).
    NamedReturnCapture,
    /// Concurrent slice access (Obs. 4, Listing 5).
    SliceConcurrent,
    /// Concurrent map access (Obs. 5, Listing 6).
    MapConcurrent,
    /// Pass-by-value vs pass-by-reference confusion (Obs. 6, Listings 7–8).
    PassByValue,
    /// Mixing message passing with shared memory (Obs. 7, Listing 9).
    MessagePassingShm,
    /// Missing or incorrect group synchronization (Obs. 8, Listing 10).
    GroupSync,
    /// Parallel table-driven test suites (Obs. 9).
    ParallelTest,
    /// Missing or partial locking (Obs. 10).
    MissingLock,
    /// Mutating shared state under a reader lock (Obs. 10, Listing 11).
    RLockWrite,
    /// A nominally thread-safe API violating its contract.
    ContractViolation,
    /// Unsynchronized mutation of a global variable.
    GlobalVar,
    /// Missing or partial use of `sync/atomic`.
    AtomicMisuse,
    /// Incorrect order of statements around goroutine creation.
    StatementOrder,
    /// Complex multi-component interaction.
    ComplexInteraction,
    /// Racy metrics / logging.
    MetricsLogging,
    /// Root cause unknown; fixed by removing the concurrency.
    RemovedConcurrency,
    /// Root cause unknown; "fixed" by disabling the test.
    DisabledTests,
    /// Root cause unknown; fixed by a major refactor.
    MajorRefactor,
}

impl Category {
    /// All categories, Table 2 rows first.
    #[must_use]
    pub fn all() -> &'static [Category] {
        use Category::*;
        &[
            ErrCapture,
            LoopIndexCapture,
            NamedReturnCapture,
            SliceConcurrent,
            MapConcurrent,
            PassByValue,
            MessagePassingShm,
            GroupSync,
            ParallelTest,
            MissingLock,
            RLockWrite,
            ContractViolation,
            GlobalVar,
            AtomicMisuse,
            StatementOrder,
            ComplexInteraction,
            MetricsLogging,
            RemovedConcurrency,
            DisabledTests,
            MajorRefactor,
        ]
    }

    /// Which summary table the category appears in.
    #[must_use]
    pub fn table(self) -> Table {
        use Category::*;
        match self {
            ErrCapture | LoopIndexCapture | NamedReturnCapture | SliceConcurrent
            | MapConcurrent | PassByValue | MessagePassingShm | GroupSync | ParallelTest => {
                Table::GoFeature
            }
            _ => Table::LanguageAgnostic,
        }
    }

    /// The count of fixed races the paper attributes to this category.
    ///
    /// `None` for the err-capture row, whose count is not legible in our
    /// copy of the paper (the Table 2 cell is blank in the source text); the
    /// experiment harness excludes that row from quantitative comparison and
    /// says so in `EXPERIMENTS.md`.
    #[must_use]
    pub fn paper_count(self) -> Option<u32> {
        use Category::*;
        match self {
            ErrCapture => None,
            LoopIndexCapture => Some(48),
            NamedReturnCapture => Some(4),
            SliceConcurrent => Some(391),
            MapConcurrent => Some(38),
            PassByValue => Some(38),
            MessagePassingShm => Some(25),
            GroupSync => Some(24),
            ParallelTest => Some(139),
            MissingLock => Some(470),
            RLockWrite => Some(2),
            ContractViolation => Some(369),
            GlobalVar => Some(24),
            AtomicMisuse => Some(40),
            StatementOrder => Some(5),
            ComplexInteraction => Some(6),
            MetricsLogging => Some(18),
            RemovedConcurrency => Some(26),
            DisabledTests => Some(3),
            MajorRefactor => Some(30),
        }
    }

    /// The paper's row label.
    #[must_use]
    pub fn description(self) -> &'static str {
        use Category::*;
        match self {
            ErrCapture => "Capture-by-reference of err variable",
            LoopIndexCapture => "Capture-by-reference of loop range variable",
            NamedReturnCapture => "Capture of a named return",
            SliceConcurrent => "Concurrent slice access",
            MapConcurrent => "Concurrent map access",
            PassByValue => "Confusing pass-by-value vs pass-by-reference",
            MessagePassingShm => "Mixing message passing with shared memory",
            GroupSync => "Missing or incorrect use of group synchronization",
            ParallelTest => "Parallel test suite (table-driven testing)",
            MissingLock => "Missing or partial locking",
            RLockWrite => "Mutating inside a reader-only lock",
            ContractViolation => "Thread-safe APIs violating contract",
            GlobalVar => "Mutating a global variable",
            AtomicMisuse => "Missing or incorrect use of atomic ops",
            StatementOrder => "Incorrect order of statements",
            ComplexInteraction => "Complex multi-component interaction",
            MetricsLogging => "Racy metrics / logging",
            RemovedConcurrency => "Fixed by removing concurrency",
            DisabledTests => "Fixed by disabling tests",
            MajorRefactor => "Fixed by a major refactor",
        }
    }
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.description())
    }
}

/// One pattern of the corpus: metadata plus program constructors.
#[derive(Debug, Clone, Copy)]
pub struct Pattern {
    /// Stable identifier, e.g. `"loop_index_capture"`.
    pub id: &'static str,
    /// The paper listing this reproduces, when there is one.
    pub listing: Option<u8>,
    /// The paper observation number (3–10).
    pub observation: u8,
    /// Root-cause category (Table 2/3 row).
    pub category: Category,
    /// One-line description of the bug shape.
    pub description: &'static str,
    pub(crate) racy: fn() -> Program,
    pub(crate) fixed: fn() -> Program,
}

impl Pattern {
    /// Constructs the racy variant (fresh program each call).
    #[must_use]
    pub fn racy_program(&self) -> Program {
        (self.racy)()
    }

    /// Constructs the fixed (race-free) variant.
    #[must_use]
    pub fn fixed_program(&self) -> Program {
        (self.fixed)()
    }
}

/// The full pattern corpus, in paper order.
#[must_use]
pub fn registry() -> Vec<Pattern> {
    let mut v = Vec::new();
    v.extend(capture::patterns());
    v.extend(mapslice::patterns());
    v.extend(byvalue::patterns());
    v.extend(mixed::patterns());
    v.extend(waitgroup::patterns());
    v.extend(paratest::patterns());
    v.extend(locking::patterns());
    v.extend(interproc::patterns());
    v.extend(misc::patterns());
    v.extend(extra::patterns());
    v
}

/// Looks a pattern up by id.
#[must_use]
pub fn find(id: &str) -> Option<Pattern> {
    registry().into_iter().find(|p| p.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let pats = registry();
        let mut ids: Vec<_> = pats.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), pats.len(), "duplicate pattern ids");
    }

    #[test]
    fn every_listing_is_covered() {
        let pats = registry();
        for listing in 1..=11u8 {
            if listing == 8 {
                continue; // Listing 8 is the sync.Mutex signature, not a bug
            }
            assert!(
                pats.iter().any(|p| p.listing == Some(listing)),
                "missing listing {listing}"
            );
        }
    }

    #[test]
    fn categories_cover_both_tables() {
        let pats = registry();
        let go_feature = pats
            .iter()
            .filter(|p| p.category.table() == Table::GoFeature);
        let agnostic = pats
            .iter()
            .filter(|p| p.category.table() == Table::LanguageAgnostic);
        assert!(go_feature.count() >= 9);
        assert!(agnostic.count() >= 8);
    }

    #[test]
    fn paper_counts_match_the_tables() {
        assert_eq!(Category::SliceConcurrent.paper_count(), Some(391));
        assert_eq!(Category::MissingLock.paper_count(), Some(470));
        assert_eq!(Category::ErrCapture.paper_count(), None);
        let table3_total: u32 = Category::all()
            .iter()
            .filter(|c| c.table() == Table::LanguageAgnostic)
            .filter_map(|c| c.paper_count())
            .sum();
        assert_eq!(
            table3_total,
            470 + 2 + 369 + 24 + 40 + 5 + 6 + 18 + 26 + 3 + 30
        );
    }

    #[test]
    fn find_locates_patterns() {
        assert!(find("loop_index_capture").is_some());
        assert!(find("nonexistent_pattern").is_none());
    }

    #[test]
    fn all_programs_construct() {
        for p in registry() {
            let racy = p.racy_program();
            let fixed = p.fixed_program();
            assert!(!racy.name().is_empty());
            assert!(!fixed.name().is_empty());
        }
    }
}
