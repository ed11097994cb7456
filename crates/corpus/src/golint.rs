//! Monorepo-scale linting: the static race engine over a generated corpus.
//!
//! The paper's closing suggestion — that its bug patterns "can inspire
//! further research in static race detection for Go" — only means something
//! if the detector survives contact with repository-sized input. This
//! module runs `grs_golite::lint` over every file of a [`GoCorpus`] and
//! aggregates the findings per rule and per service, the shape a deployment
//! dashboard would want.
//!
//! The synthetic generator is itself a useful adversary: it emits `sink`
//! (a package global) written under a fresh mutex in some functions and
//! bare inside `go` closures in others — exactly the paper's missing-lock
//! class — so a scan of any non-trivial corpus must surface `GR007`.

use std::collections::BTreeMap;

use grs_golite::{diag, lint_file, parse_file, Finding, Rule};

use crate::gogen::GoCorpus;

/// Aggregated lint results over a file set.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Every finding, tagged with its file path.
    pub findings: Vec<(String, Finding)>,
    /// Finding counts per rule ID (`GR001`…), all 18 rules present.
    pub per_rule: BTreeMap<&'static str, u64>,
    /// Files scanned.
    pub files: usize,
    /// Files that failed to parse (generator bugs; zero in practice).
    pub parse_failures: usize,
}

impl LintReport {
    /// Total findings.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.per_rule.values().sum()
    }

    /// Count for one rule.
    #[must_use]
    pub fn count(&self, rule: Rule) -> u64 {
        self.per_rule.get(rule.id()).copied().unwrap_or(0)
    }

    /// Findings per million scanned lines, the paper's density unit.
    #[must_use]
    pub fn per_mloc(&self, lines: u64) -> f64 {
        if lines == 0 {
            return 0.0;
        }
        self.total() as f64 * 1_000_000.0 / lines as f64
    }

    /// The whole report as a JSON array of diagnostics.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut items = Vec::with_capacity(self.findings.len());
        for (path, f) in &self.findings {
            items.push(diag::finding_json(path, f));
        }
        format!("[{}]", items.join(","))
    }
}

/// Lints an iterator of `(path, source)` pairs.
#[must_use]
pub fn lint_sources<'a, I>(sources: I) -> LintReport
where
    I: IntoIterator<Item = (&'a str, &'a str)>,
{
    let mut report = LintReport::default();
    for r in Rule::ALL {
        report.per_rule.insert(r.id(), 0);
    }
    for (path, src) in sources {
        report.files += 1;
        let Ok(file) = parse_file(src) else {
            report.parse_failures += 1;
            continue;
        };
        for f in lint_file(&file) {
            *report.per_rule.entry(f.rule.id()).or_insert(0) += 1;
            report.findings.push((path.to_string(), f));
        }
    }
    // Deterministic, input-order-independent report: findings sort by
    // (path, line, col, rule ID), so `to_json` is byte-stable however the
    // file set was iterated.
    report
        .findings
        .sort_by(|(pa, fa), (pb, fb)| {
            (pa, fa.pos.line, fa.pos.col, fa.rule.id()).cmp(&(pb, fb.pos.line, fb.pos.col, fb.rule.id()))
        });
    report
}

/// Lints every file of a generated corpus.
#[must_use]
pub fn lint_corpus(corpus: &GoCorpus) -> LintReport {
    lint_sources(corpus.files.iter().map(|(p, s)| (p.as_str(), s.as_str())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gogen::GoCorpusSpec;

    #[test]
    fn corpus_scale_lint_finds_the_planted_missing_lock_shape() {
        let spec = GoCorpusSpec::paper_scaled(0.0002); // ~9K lines
        let corpus = GoCorpus::generate(&spec, 11);
        let report = lint_corpus(&corpus);
        assert_eq!(report.parse_failures, 0);
        assert!(report.files > 0);
        // The generator writes the package global `sink` under fresh
        // mutexes in some functions and bare inside goroutines in others.
        assert!(
            report.count(Rule::MissingLock) > 0,
            "per_rule: {:?}",
            report.per_rule
        );
    }

    #[test]
    fn corpus_lint_is_deterministic() {
        let spec = GoCorpusSpec::paper_scaled(0.0001);
        let a = lint_corpus(&GoCorpus::generate(&spec, 7));
        let b = lint_corpus(&GoCorpus::generate(&spec, 7));
        assert_eq!(a.per_rule, b.per_rule);
        assert_eq!(a.total(), b.total());
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let spec = GoCorpusSpec::paper_scaled(0.0001);
        let report = lint_corpus(&GoCorpus::generate(&spec, 7));
        let json = report.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(
            json.matches("\"rule_id\"").count() as u64,
            report.total(),
            "one JSON object per finding"
        );
    }
}
