//! Lazy campaign-unit sources — the paper-scale workload abstraction.
//!
//! The §3.3 deployment reruns ~100K unit tests nightly. Materializing that
//! many [`CampaignUnit`]s up front would hold every lowered program in
//! memory at once; a [`UnitSource`] instead exposes the unit axis as
//! `(len, build(index))`, so the campaign engine enumerates specs
//! arithmetically and workers lower units **on demand** — each worker holds
//! only the unit of the spec it is running and the rest of the corpus
//! exists only as generator state.
//!
//! Three sources cover the campaign modalities:
//!
//! * [`UnitList`] — an eager, pre-built list (the Rust-closure pattern
//!   suite and ad-hoc test units);
//! * [`GoSnippetSuite`] — the embedded paper-listing Go sources from
//!   [`grs_corpus::go_snippets`], lowered through the shared path;
//! * [`GoCorpusSource`] — the per-test generator
//!   ([`grs_corpus::GoTestGen`]): a 100K-unit corpus weighs a few dozen
//!   bytes until a worker asks for a unit.
//!
//! All Go source, embedded or generated, funnels through one lowering
//! function, [`lower_source_unit`] — parse failures become structured
//! [`UnitError`]s (skip records), never panics.

use std::fmt;

use grs_corpus::{go_snippets, GoTestGen, GoTestSpec};

use crate::campaign::CampaignUnit;

/// A unit that failed to lower: the campaign counts it, keeps the first
/// few as evidence, and runs on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitError {
    /// Index of the unit in its source's enumeration.
    pub unit: usize,
    /// The unit's display name.
    pub name: String,
    /// Human-readable failure (compile phase + position + message).
    pub error: String,
}

impl fmt::Display for UnitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unit {} ({}): {}", self.unit, self.name, self.error)
    }
}

impl std::error::Error for UnitError {}

/// A lazily enumerable corpus of campaign units.
///
/// Implementations must be deterministic: `build(i)` returns the same
/// program for the same `i` on every call, from any thread — that is what
/// keeps [`CampaignResult::deterministic_digest`] invariant across worker
/// counts when units are built on demand.
///
/// [`CampaignResult::deterministic_digest`]:
///     crate::campaign::CampaignResult::deterministic_digest
pub trait UnitSource: Send + Sync {
    /// Number of units in the corpus.
    fn len(&self) -> usize;

    /// True when the corpus is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The unit's display name, without building its program.
    fn name(&self, unit: usize) -> String;

    /// Builds (lowers) unit `unit`. A failure is a skip record, not a
    /// panic.
    fn build(&self, unit: usize) -> Result<CampaignUnit, UnitError>;
}

/// The one place Go source becomes a campaign unit: compile under the
/// `grs-interp` frontend, check the entry point, wrap the program.
/// Embedded snippets and generated tests both go through here.
pub fn lower_source_unit(
    index: usize,
    name: &str,
    source: &str,
    expected_racy: Option<bool>,
) -> Result<CampaignUnit, UnitError> {
    let fail = |e: grs_interp::CompileError| UnitError {
        unit: index,
        name: name.to_string(),
        error: e.to_string(),
    };
    let interp = grs_interp::Interp::compile(source).map_err(fail)?;
    let program = interp.program_checked(name, "main").map_err(fail)?;
    Ok(CampaignUnit {
        name: name.to_string(),
        program,
        expected_racy,
    })
}

/// An eager, pre-built unit list behind the [`UnitSource`] interface.
#[derive(Debug, Clone)]
pub struct UnitList {
    units: Vec<CampaignUnit>,
}

impl UnitList {
    /// Wraps an explicit unit list.
    #[must_use]
    pub fn new(units: Vec<CampaignUnit>) -> Self {
        UnitList { units }
    }
}

impl UnitSource for UnitList {
    fn len(&self) -> usize {
        self.units.len()
    }

    fn name(&self, unit: usize) -> String {
        self.units[unit].name.clone()
    }

    fn build(&self, unit: usize) -> Result<CampaignUnit, UnitError> {
        Ok(self.units[unit].clone())
    }
}

/// The embedded paper-listing Go snippets as a lazy source.
#[derive(Debug, Clone, Copy, Default)]
pub struct GoSnippetSuite;

impl GoSnippetSuite {
    /// The suite over [`grs_corpus::go_snippets`].
    #[must_use]
    pub fn new() -> Self {
        GoSnippetSuite
    }
}

impl UnitSource for GoSnippetSuite {
    fn len(&self) -> usize {
        go_snippets().len()
    }

    fn name(&self, unit: usize) -> String {
        go_snippets()[unit].name.to_string()
    }

    fn build(&self, unit: usize) -> Result<CampaignUnit, UnitError> {
        let s = &go_snippets()[unit];
        lower_source_unit(unit, s.name, s.source, Some(s.expected_racy))
    }
}

/// The generated per-test Go corpus as a lazy source: unit `i` is
/// [`GoTestGen::emit`]`(i)` lowered on demand. This is the paper-scale
/// modality — `count` can be 100,000 and the source still holds no unit
/// state at all.
#[derive(Debug, Clone, Copy)]
pub struct GoCorpusSource {
    gen: GoTestGen,
    count: usize,
}

impl GoCorpusSource {
    /// A corpus of `count` generated tests under `(spec, seed)`.
    #[must_use]
    pub fn new(spec: GoTestSpec, seed: u64, count: usize) -> Self {
        GoCorpusSource {
            gen: GoTestGen::new(spec, seed),
            count,
        }
    }

    /// The underlying generator.
    #[must_use]
    pub fn generator(&self) -> &GoTestGen {
        &self.gen
    }
}

impl UnitSource for GoCorpusSource {
    fn len(&self) -> usize {
        self.count
    }

    fn name(&self, unit: usize) -> String {
        self.gen.name(unit as u64)
    }

    fn build(&self, unit: usize) -> Result<CampaignUnit, UnitError> {
        let t = self.gen.emit(unit as u64);
        lower_source_unit(unit, &t.name, &t.source, Some(t.expected_racy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snippet_suite_builds_every_unit() {
        let suite = GoSnippetSuite::new();
        assert!(!suite.is_empty());
        for i in 0..suite.len() {
            let unit = suite.build(i).expect("embedded snippets must lower");
            assert_eq!(unit.name, suite.name(i));
            assert!(unit.expected_racy.is_some());
        }
    }

    #[test]
    fn corpus_source_is_lazy_and_deterministic() {
        let src = GoCorpusSource::new(GoTestSpec::default_mix(), 7, 100_000);
        assert_eq!(src.len(), 100_000);
        // Building unit i twice yields the same name and ground truth —
        // and touches none of the other 99_999 units.
        for i in [0usize, 41_337, 99_999] {
            let a = src.build(i).expect("generated tests must lower");
            let b = src.build(i).expect("generated tests must lower");
            assert_eq!(a.name, b.name);
            assert_eq!(a.expected_racy, b.expected_racy);
            assert_eq!(a.name, src.name(i));
        }
    }

    #[test]
    fn lowering_failures_are_skip_records() {
        let err = lower_source_unit(3, "bad/unit", "package main\n\nfunc main() {", None)
            .expect_err("truncated source must not lower");
        assert_eq!(err.unit, 3);
        assert_eq!(err.name, "bad/unit");
        assert!(err.error.contains("parse"), "{err}");
    }
}
