//! Static-findings-guided campaign triage.
//!
//! The study's §3.3 deployment runs the dynamic detector over everything,
//! every night. A static pass is cheap by comparison — so before spending
//! executions, rank the campaign's programs by what the lint engine
//! (`grs-golite`, rules `GR001`–`GR018`) reports on their Go sources:
//! programs whose source carries error-severity findings are executed
//! first, warning-only programs next, clean programs last. The benchmark
//! metric is **executions to first race** — how many `(program × seed)`
//! runs the campaign burns before the dynamic detector confirms its first
//! race — compared between plain spec-index order and the triaged order.
//!
//! The unit corpus is the Go-rendition corpus (`grs_patterns::gosrc`):
//! every rendition contributes its racy and its fixed twin, so the ranking
//! has something real to separate — the fixed sources lint clean and sink
//! to the back of the queue.

use grs_detector::DetectorChoice;
use grs_golite::{lint_file, parse_file, Severity};
use grs_runtime::{Program, RunConfig};

/// Per-finding priors: an error-severity finding signals a documented
/// production race shape, a warning a heuristic one.
const ERROR_PRIOR: f64 = 3.0;
const WARNING_PRIOR: f64 = 1.0;

/// One triageable program: an executable unit plus the lint score of its
/// Go source.
#[derive(Debug, Clone)]
pub struct TriageUnit {
    /// Display name (`<pattern_id>/racy` or `/fixed`).
    pub name: String,
    /// The executable program.
    pub program: Program,
    /// Summed static prior of the unit's Go source.
    pub score: f64,
    /// Ground truth, for reporting only — the ranking never sees it.
    pub expected_racy: bool,
}

/// The summed prior of every lint finding on `src` (0.0 when the source
/// fails to parse — an unparseable unit earns no priority).
#[must_use]
pub fn lint_score(src: &str) -> f64 {
    let Ok(file) = parse_file(src) else { return 0.0 };
    lint_file(&file)
        .iter()
        .map(|f| match f.rule.severity() {
            Severity::Error => ERROR_PRIOR,
            Severity::Warning => WARNING_PRIOR,
        })
        .sum()
}

/// The rendition corpus as triage units: racy and fixed twins of every
/// `GR001`–`GR018` rendition, sorted by name (the deterministic baseline
/// order), each scored by linting its Go source.
#[must_use]
pub fn triage_suite() -> Vec<TriageUnit> {
    let mut units = Vec::new();
    for r in grs_patterns::gosrc::renditions() {
        let p = grs_patterns::find(r.pattern_id)
            .unwrap_or_else(|| panic!("rendition {} has no executable twin", r.pattern_id));
        units.push(TriageUnit {
            name: format!("{}/racy", r.pattern_id),
            program: p.racy_program(),
            score: lint_score(r.racy),
            expected_racy: true,
        });
        units.push(TriageUnit {
            name: format!("{}/fixed", r.pattern_id),
            program: p.fixed_program(),
            score: lint_score(r.fixed),
            expected_racy: false,
        });
    }
    units.sort_by(|a, b| a.name.cmp(&b.name));
    units
}

/// Triage configuration.
#[derive(Debug, Clone, Copy)]
pub struct TriageConfig {
    /// Schedule seeds per unit (seeds enumerate innermost).
    pub seeds_per_unit: u64,
    /// First seed of every unit's block.
    pub base_seed: u64,
}

impl Default for TriageConfig {
    fn default() -> Self {
        TriageConfig {
            seeds_per_unit: 4,
            base_seed: 1,
        }
    }
}

/// Result of one triage benchmark: the same spec matrix executed in two
/// orders, counting executions until the first dynamically-confirmed race.
#[derive(Debug, Clone)]
pub struct TriageOutcome {
    /// Total `(unit × seed)` specs in the matrix.
    pub total_specs: usize,
    /// 1-based execution count to the first race in name/spec-index order
    /// (`None`: no race in the whole matrix).
    pub baseline_executions: Option<usize>,
    /// 1-based execution count to the first race in triaged order.
    pub triage_executions: Option<usize>,
    /// Name of the unit whose run produced the triaged first race.
    pub first_race_unit: Option<String>,
}

impl TriageOutcome {
    /// `triage_executions / baseline_executions`; `None` when either
    /// order never found a race.
    #[must_use]
    pub fn ratio(&self) -> Option<f64> {
        match (self.triage_executions, self.baseline_executions) {
            #[allow(clippy::cast_precision_loss)]
            (Some(t), Some(b)) if b > 0 => Some(t as f64 / b as f64),
            _ => None,
        }
    }
}

/// The triaged unit order: descending lint score, name order within a
/// score band — a stable, ground-truth-blind permutation of `units`.
#[must_use]
pub fn triage_order(units: &[TriageUnit]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by(|&a, &b| {
        units[b]
            .score
            .partial_cmp(&units[a].score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.cmp(&b))
    });
    order
}

/// Runs the triage benchmark over [`triage_suite`]: executes the
/// `(unit × seed)` matrix serially under the hybrid detector, in baseline
/// order and in triaged order, and reports executions-to-first-race for
/// both.
#[must_use]
pub fn run_triage(cfg: &TriageConfig) -> TriageOutcome {
    let units = triage_suite();
    let baseline: Vec<usize> = (0..units.len()).collect();
    let triaged = triage_order(&units);

    let first_race = |order: &[usize]| -> Option<(usize, usize)> {
        let mut executed = 0;
        for &u in order {
            for k in 0..cfg.seeds_per_unit {
                executed += 1;
                let rc = RunConfig::with_seed(cfg.base_seed.wrapping_add(k));
                let (_, reports) = DetectorChoice::Hybrid.run(&units[u].program, rc);
                if !reports.is_empty() {
                    return Some((executed, u));
                }
            }
        }
        None
    };

    let base = first_race(&baseline);
    let tri = first_race(&triaged);
    TriageOutcome {
        total_specs: units.len() * usize::try_from(cfg.seeds_per_unit).unwrap_or(usize::MAX),
        baseline_executions: base.map(|(n, _)| n),
        triage_executions: tri.map(|(n, _)| n),
        first_race_unit: tri.map(|(_, u)| units[u].name.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn racy_sources_outscore_their_fixes() {
        let units = triage_suite();
        assert_eq!(units.len(), 36, "18 renditions, two variants each");
        for pair in units.chunks(2) {
            let (fixed, racy) = (&pair[0], &pair[1]);
            assert!(fixed.name.ends_with("/fixed") && racy.name.ends_with("/racy"));
            assert!(
                racy.score > fixed.score,
                "{}: racy {} !> fixed {}",
                racy.name,
                racy.score,
                fixed.score
            );
        }
    }

    #[test]
    fn triage_order_puts_racy_units_first() {
        let units = triage_suite();
        let order = triage_order(&units);
        let n_racy = units.iter().filter(|u| u.expected_racy).count();
        for &u in &order[..n_racy] {
            assert!(
                units[u].score > 0.0,
                "{} ranked in the top band with score 0",
                units[u].name
            );
        }
    }

    #[test]
    fn triage_halves_executions_to_first_race() {
        let out = run_triage(&TriageConfig::default());
        let ratio = out.ratio().expect("both orders must find a race");
        assert!(
            ratio <= 0.5,
            "triage must reach the first race in half the executions: {} vs {} ({ratio})",
            out.triage_executions.unwrap_or(0),
            out.baseline_executions.unwrap_or(0),
        );
    }
}
