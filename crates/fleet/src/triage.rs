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
//! race — compared between the triaged order and an order that knows
//! nothing: the mean over [`BASELINE_SHUFFLES`] seeded shuffles of the
//! units. (Name order is not a neutral baseline: `"<id>/fixed"` sorts
//! before `"<id>/racy"`, so it always spends a unit's worth of executions
//! on a fixed twin first.)
//!
//! The unit corpus is the Go-rendition corpus (`grs_patterns::gosrc`):
//! every rendition contributes its racy and its fixed twin, so the ranking
//! has something real to separate — the fixed sources lint clean and sink
//! to the back of the queue.

use grs_detector::DetectorChoice;
use grs_golite::{lint_file, parse_file, Severity};
use grs_runtime::{Program, RunConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Unit-order shuffles the uninformed baseline is averaged over.
pub const BASELINE_SHUFFLES: usize = 32;

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
/// `GR001`–`GR018` rendition, sorted by name, each scored by linting its
/// Go source.
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
    /// First seed of every unit's block, and the seed of the baseline's
    /// shuffles.
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

/// Result of one triage benchmark: the same spec matrix walked in triaged
/// order and in shuffled orders, counting executions until the first
/// dynamically-confirmed race.
#[derive(Debug, Clone)]
pub struct TriageOutcome {
    /// Total `(unit × seed)` specs in the matrix.
    pub total_specs: usize,
    /// Mean 1-based execution count to the first race over
    /// [`BASELINE_SHUFFLES`] shuffled unit orders (`None`: no race in the
    /// whole matrix).
    pub baseline_executions: Option<f64>,
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
            (Some(t), Some(b)) if b > 0.0 => Some(t as f64 / b),
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
/// `(unit × seed)` matrix once under the hybrid detector, noting the seed
/// at which each unit first races, and from that reads off
/// executions-to-first-race for the triaged order and for each shuffled
/// one — seeds enumerate innermost, so an order's count is a whole unit's
/// seeds for every silent unit ahead of the first racing one, plus that
/// unit's seeds up to its hit.
#[must_use]
pub fn run_triage(cfg: &TriageConfig) -> TriageOutcome {
    let units = triage_suite();
    let per_unit = usize::try_from(cfg.seeds_per_unit).unwrap_or(usize::MAX);
    // 1-based position, within the unit's seed block, of its first racy run.
    let first_hit: Vec<Option<usize>> = units
        .iter()
        .map(|u| {
            let racy = |k| {
                let rc = RunConfig::with_seed(cfg.base_seed.wrapping_add(k));
                !DetectorChoice::Hybrid.run(&u.program, rc).1.is_empty()
            };
            (0..cfg.seeds_per_unit).position(racy).map(|k| k + 1)
        })
        .collect();
    let first_race = |order: &[usize]| -> Option<(usize, usize)> {
        order
            .iter()
            .enumerate()
            .find_map(|(at, &u)| first_hit[u].map(|hit| (at * per_unit + hit, u)))
    };

    let tri = first_race(&triage_order(&units));
    let mut rng = StdRng::seed_from_u64(cfg.base_seed);
    let mut order: Vec<usize> = (0..units.len()).collect();
    let shuffled: Option<usize> = (0..BASELINE_SHUFFLES)
        .map(|_| {
            order.shuffle(&mut rng);
            first_race(&order).map(|(n, _)| n)
        })
        .sum();
    TriageOutcome {
        total_specs: units.len() * per_unit,
        #[allow(clippy::cast_precision_loss)]
        baseline_executions: shuffled.map(|n| n as f64 / BASELINE_SHUFFLES as f64),
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
            out.baseline_executions.unwrap_or(0.0),
        );
    }
}
