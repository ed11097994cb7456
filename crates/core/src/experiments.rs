//! One runner per table/figure of the paper's evaluation.
//!
//! | Runner | Paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — construct densities, Go vs Java |
//! | [`figure1`] | Figure 1 — fleet concurrency CDF |
//! | [`figure3_figure4`] | Figures 3–4 + §3.5 — deployment campaign |
//! | [`table2`] | Table 2 — races by Go feature |
//! | [`table3`] | Table 3 — language-agnostic races |
//! | [`overhead_probe`] | §3.5 — detector runtime overhead |
//! | [`static_dynamic_agreement`] | §5 — static lint rules vs the dynamic detector |

use std::collections::HashMap;
use std::time::Instant;

use grs_corpus::table1::{self as t1, Table1, Table1Config};
use grs_deploy::sim::{SimConfig, SimResult, TrackerSim};
use grs_detector::DetectorChoice;
use grs_fleet::{census, Campaign, CampaignConfig, CampaignResult, CampaignUnit, Census, CensusConfig};
use grs_golite::{lint_file, parse_file, Rule};
use grs_patterns::{gosrc, registry, Category, Table};
use grs_runtime::{NullMonitor, Program, RunConfig, Runtime};

use crate::classify::classify;

/// Runs the Table 1 experiment (synthetic monorepos + scanners).
#[must_use]
pub fn table1(go_scale: f64, seed: u64) -> Table1 {
    t1::generate_and_scan(&Table1Config::balanced(go_scale), seed)
}

/// Runs the Figure 1 experiment (fleet census).
#[must_use]
pub fn figure1(fleet_scale: f64, seed: u64) -> Census {
    census(&CensusConfig::paper_scaled(fleet_scale), seed)
}

/// Headline §3.5 statistics extracted from a campaign run.
#[derive(Debug, Clone, Copy)]
pub struct DeploymentStats {
    /// Total races detected over the window (paper: ~2000).
    pub total_detected: u32,
    /// Races fixed (paper: 1011).
    pub total_fixed: u32,
    /// Distinct fixing engineers (paper: 210).
    pub unique_engineers: u32,
    /// Distinct fixing patches (paper: 790).
    pub unique_patches: u32,
    /// Steady-state new reports per day (paper: ~5).
    pub new_per_day: f64,
}

/// Runs the six-month deployment campaign behind Figures 3 and 4.
#[must_use]
pub fn figure3_figure4(seed: u64) -> (SimResult, DeploymentStats) {
    let result = TrackerSim::new(SimConfig::paper()).run(seed);
    let stats = DeploymentStats {
        total_detected: result.total_filed,
        total_fixed: result.total_fixed,
        unique_engineers: result.unique_engineers,
        unique_patches: result.unique_patches,
        new_per_day: result.steady_state_new_per_day(30),
    };
    (result, stats)
}

/// Configuration for the Table 2/3 mixture-recovery experiments.
#[derive(Debug, Clone)]
pub struct TallyConfig {
    /// Divide the paper's per-category counts by this factor to size the
    /// injected population (e.g. `10.0` → ~100 program instances for
    /// Table 2).
    pub scale_divisor: f64,
    /// Schedule seeds per program instance.
    pub runs_per_instance: usize,
    /// Base seed.
    pub seed: u64,
}

impl TallyConfig {
    /// A configuration small enough for tests (~1 instance per category).
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        TallyConfig {
            scale_divisor: 400.0,
            runs_per_instance: 40,
            seed,
        }
    }

    /// The benchmark configuration (~10% of the paper's population).
    #[must_use]
    pub fn bench(seed: u64) -> Self {
        TallyConfig {
            scale_divisor: 10.0,
            runs_per_instance: 40,
            seed,
        }
    }
}

/// One row of the reproduced Table 2 / Table 3.
#[derive(Debug, Clone)]
pub struct CategoryTally {
    /// The category (row label).
    pub category: Category,
    /// The paper's count (None for the illegible err-capture cell).
    pub paper_count: Option<u32>,
    /// Instances injected into the synthetic population.
    pub injected: u32,
    /// Instances where some seed exposed at least one race.
    pub detected: u32,
    /// Detected instances the classifier assigned to this category.
    pub classified_here: u32,
}

/// Result of a mixture-recovery experiment.
#[derive(Debug, Clone)]
pub struct TallyResult {
    /// Per-category rows, in paper order.
    pub rows: Vec<CategoryTally>,
    /// Fraction of detected instances whose classification matched the
    /// injected ground truth.
    pub classifier_accuracy: f64,
}

impl TallyResult {
    /// Renders rows in the paper's table layout.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("| Category                                        | Paper | Injected | Detected | Classified |\n");
        s.push_str("|--------------------------------------------------|-------|----------|----------|------------|\n");
        for r in &self.rows {
            s.push_str(&format!(
                "| {:<48} | {:>5} | {:>8} | {:>8} | {:>10} |\n",
                r.category.description(),
                r.paper_count
                    .map_or_else(|| "n/a".to_string(), |c| c.to_string()),
                r.injected,
                r.detected,
                r.classified_here
            ));
        }
        s.push_str(&format!(
            "| classifier accuracy: {:.1}%\n",
            self.classifier_accuracy * 100.0
        ));
        s
    }
}

/// Reproduces Table 2 (Go-feature categories).
#[must_use]
pub fn table2(config: &TallyConfig) -> TallyResult {
    tally(config, Table::GoFeature)
}

/// Reproduces Table 3 (language-agnostic categories).
#[must_use]
pub fn table3(config: &TallyConfig) -> TallyResult {
    tally(config, Table::LanguageAgnostic)
}

/// Runs `units` across `runs` seeds from `seed` as one hybrid-detector
/// campaign.
fn campaign(units: Vec<CampaignUnit>, runs: usize, seed: u64) -> CampaignResult {
    let config = CampaignConfig::new().seeds_per_unit(runs).base_seed(seed);
    Campaign::over_units(config, units).run()
}

fn tally(config: &TallyConfig, table: Table) -> TallyResult {
    // Every instance of a pattern is the same program under the same seeds,
    // so each of the table's patterns runs once and its verdict — the
    // category its first race classifies as, if it raced — counts once per
    // instance.
    let patterns: Vec<_> = registry()
        .into_iter()
        .filter(|p| p.category.table() == table)
        .collect();
    let units = patterns.iter().map(|p| CampaignUnit::pattern(p, true)).collect();
    let result = campaign(units, config.runs_per_instance, config.seed);
    let verdicts: Vec<Option<Category>> =
        (0..patterns.len()).map(|u| result.first_race(u).map(classify)).collect();

    let mut rows = Vec::new();
    let (mut total_detected, mut total_correct) = (0u32, 0u32);
    // A report can be classified into any category, so the per-row
    // classified counts are filled in once every row has been tallied.
    let mut classified: HashMap<Category, u32> = HashMap::new();
    for &category in Category::all() {
        let of_category: Vec<Option<Category>> = (0..patterns.len())
            .filter(|&u| patterns[u].category == category)
            .map(|u| verdicts[u])
            .collect();
        if of_category.is_empty() {
            continue;
        }
        // Population size: paper count / divisor (min 1). The err-capture
        // row has no paper count; inject one instance and report it as n/a.
        let injected = category
            .paper_count()
            .map_or(1, |c| ((f64::from(c) / config.scale_divisor).round() as u32).max(1));
        let mut detected = 0;
        for i in 0..injected as usize {
            if let Some(predicted) = of_category[i % of_category.len()] {
                detected += 1;
                *classified.entry(predicted).or_insert(0) += 1;
                total_correct += u32::from(predicted == category);
            }
        }
        total_detected += detected;
        rows.push(CategoryTally {
            category,
            paper_count: category.paper_count(),
            injected,
            detected,
            classified_here: 0,
        });
    }
    for row in &mut rows {
        row.classified_here = classified.get(&row.category).copied().unwrap_or(0);
    }

    TallyResult {
        rows,
        classifier_accuracy: if total_detected == 0 {
            0.0
        } else {
            f64::from(total_correct) / f64::from(total_detected)
        },
    }
}

/// One row of the static-vs-dynamic agreement matrix: the same bug, once
/// as Go-lite source in front of the lint engine and once as an
/// executable program in front of the dynamic detector's campaign.
#[derive(Debug, Clone)]
pub struct AgreementRow {
    /// The executable pattern's registry ID.
    pub pattern_id: &'static str,
    /// The lint rule under test.
    pub rule: Rule,
    /// The lint fired `rule` on the racy source (want `true`).
    pub static_racy: bool,
    /// The lint fired `rule` on the fixed source (want `false`).
    pub static_fixed: bool,
    /// Some seed raced the racy program (want `true`).
    pub dynamic_racy: bool,
    /// Some seed raced the fixed program (want `false`).
    pub dynamic_fixed: bool,
}

impl AgreementRow {
    /// Both verdict pairs match: lint fires exactly where some schedule
    /// exposes a race.
    #[must_use]
    pub fn agrees(&self) -> bool {
        self.static_racy == self.dynamic_racy && self.static_fixed == self.dynamic_fixed
    }

    /// The ideal cell: racy flagged by both tools, fixed flagged by neither.
    #[must_use]
    pub fn perfect(&self) -> bool {
        self.static_racy && self.dynamic_racy && !self.static_fixed && !self.dynamic_fixed
    }
}

/// Result of the agreement experiment.
#[derive(Debug, Clone)]
pub struct AgreementResult {
    /// One row per lint rule, in `GR001`…`GR018` order.
    pub rows: Vec<AgreementRow>,
    /// Fraction of (rendition, variant) verdict pairs where the two tools
    /// agree: 1.0 means the static engine is a perfect oracle for what the
    /// dynamic detector observes on this corpus.
    pub agreement: f64,
}

impl AgreementResult {
    /// Renders the matrix as a markdown table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(
            "| Rule  | Pattern                  | Static racy | Static fixed | Dynamic racy | Dynamic fixed | Agree |\n",
        );
        s.push_str(
            "|-------|--------------------------|-------------|--------------|--------------|---------------|-------|\n",
        );
        for r in &self.rows {
            s.push_str(&format!(
                "| {} | {:<24} | {:>11} | {:>12} | {:>12} | {:>13} | {:>5} |\n",
                r.rule.id(),
                r.pattern_id,
                r.static_racy,
                r.static_fixed,
                r.dynamic_racy,
                r.dynamic_fixed,
                if r.agrees() { "yes" } else { "NO" },
            ));
        }
        s.push_str(&format!("| agreement: {:.1}%\n", self.agreement * 100.0));
        s
    }
}

/// Scores the static lint engine against the dynamic detector over the
/// Go-rendition corpus: for each rule's racy/fixed source pair, does the
/// lint fire exactly where a campaign over the executable twins observes a
/// race?
///
/// `runs` is the schedule budget per program; 60 suffices for every
/// pattern in the corpus.
///
/// # Panics
/// Panics if a rendition references an unknown pattern, an unknown rule
/// ID, or Go source that does not parse — all three are corpus bugs, not
/// data-dependent conditions.
#[must_use]
pub fn static_dynamic_agreement(runs: usize, seed: u64) -> AgreementResult {
    let renditions = gosrc::renditions();
    // Unit `2i` is rendition `i`'s racy twin, `2i + 1` its fixed one.
    let units = renditions
        .iter()
        .flat_map(|r| {
            let pattern =
                grs_patterns::find(r.pattern_id).expect("rendition has an executable twin");
            [true, false].map(|racy| CampaignUnit::pattern(&pattern, racy))
        })
        .collect();
    let dynamic = campaign(units, runs, seed);
    let fires = |src: &str, rule: Rule| -> bool {
        let file = parse_file(src).expect("rendition source parses");
        lint_file(&file).iter().any(|f| f.rule == rule)
    };
    let mut rows = Vec::new();
    for (i, r) in renditions.iter().enumerate() {
        let rule = Rule::from_id(r.rule).expect("rendition names a known rule");
        rows.push(AgreementRow {
            pattern_id: r.pattern_id,
            rule,
            static_racy: fires(r.racy, rule),
            static_fixed: fires(r.fixed, rule),
            dynamic_racy: dynamic.first_race(2 * i).is_some(),
            dynamic_fixed: dynamic.first_race(2 * i + 1).is_some(),
        });
    }
    let pairs = rows.len() * 2;
    let agreeing: usize = rows
        .iter()
        .map(|r| {
            usize::from(r.static_racy == r.dynamic_racy)
                + usize::from(r.static_fixed == r.dynamic_fixed)
        })
        .sum();
    AgreementResult {
        rows,
        agreement: if pairs == 0 {
            0.0
        } else {
            agreeing as f64 / pairs as f64
        },
    }
}

/// A quick wall-clock probe of detector overhead (§3.5 reports 4× test
/// time; Criterion benches measure this precisely — this probe is for
/// examples and smoke tests).
#[derive(Debug, Clone, Copy)]
pub struct OverheadProbe {
    /// Nanoseconds per run without a detector.
    pub baseline_ns: u128,
    /// Nanoseconds per run under the TSan-style detector.
    pub detector_ns: u128,
}

impl OverheadProbe {
    /// The slowdown factor.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.baseline_ns == 0 {
            return 0.0;
        }
        self.detector_ns as f64 / self.baseline_ns as f64
    }
}

/// Measures one workload program with and without the detector.
#[must_use]
pub fn overhead_probe(program: &Program, runs: u32, seed: u64) -> OverheadProbe {
    let start = Instant::now();
    for i in 0..runs {
        let cfg = RunConfig::with_seed(seed + u64::from(i));
        let _ = Runtime::new(cfg).run(program, NullMonitor);
    }
    let baseline_ns = start.elapsed().as_nanos() / u128::from(runs.max(1));
    let start = Instant::now();
    for i in 0..runs {
        let cfg = RunConfig::with_seed(seed + u64::from(i));
        let _ = DetectorChoice::Hybrid.run(program, cfg);
    }
    let detector_ns = start.elapsed().as_nanos() / u128::from(runs.max(1));
    OverheadProbe {
        baseline_ns,
        detector_ns,
    }
}

/// A representative unit-test-like workload for the overhead probe: a
/// sequential compute phase dense in instrumented accesses (where detector
/// cost dominates, as in instrumented Go binaries) followed by a worker
/// pool exchanging values over channels under locks.
#[must_use]
pub fn overhead_workload() -> Program {
    Program::new("overhead_workload", |ctx| {
        // Phase 1: instrumentation-dense sequential work.
        let cells: Vec<_> = (0..8).map(|i| ctx.cell(&format!("acc{i}"), 0i64)).collect();
        for round in 0..120i64 {
            for cell in &cells {
                ctx.update(cell, |v| v + round);
            }
        }
        // Phase 2: concurrent pipeline.
        let mu = ctx.mutex("mu");
        let total = ctx.cell("total", 0i64);
        let results = ctx.chan::<i64>("results", 8);
        let wg = ctx.waitgroup("wg");
        for w in 0..4i64 {
            wg.add(ctx, 1);
            let (mu, total, results, wg) =
                (mu.clone(), total.clone(), results.clone(), wg.clone());
            ctx.go("worker", move |ctx| {
                for i in 0..10 {
                    mu.lock(ctx);
                    ctx.update(&total, |v| v + i);
                    mu.unlock(ctx);
                    results.send(ctx, w * 100 + i);
                }
                wg.done(ctx);
            });
        }
        let mut received = 0;
        while received < 40 {
            let _ = results.recv(ctx);
            received += 1;
        }
        wg.wait(ctx);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_runs_and_has_paper_shape() {
        let t = table1(0.0005, 3);
        assert!(t.p2p_ratio() > 1.5, "Go must dominate p2p sync");
        assert!(t.go.loc > 10_000);
    }

    #[test]
    fn figure1_medians() {
        let f = figure1(0.01, 4);
        assert_eq!(f.cdf(grs_fleet::Language::Go).median(), 2048);
    }

    #[test]
    fn campaign_stats_are_plausible() {
        let (result, stats) = figure3_figure4(7);
        assert_eq!(result.daily.len(), 180);
        assert!(stats.total_detected > stats.total_fixed);
        assert!(stats.unique_patches <= stats.total_fixed);
    }

    #[test]
    fn table2_quick_recovery() {
        let r = table2(&TallyConfig::quick(5));
        assert!(r.rows.len() >= 9);
        // Every injected instance must be detected.
        for row in &r.rows {
            assert_eq!(
                row.detected, row.injected,
                "{}: detection failed",
                row.category
            );
        }
        assert!(r.classifier_accuracy >= 0.7, "{}", r.render());
    }

    #[test]
    fn table3_quick_recovery() {
        let r = table3(&TallyConfig::quick(6));
        assert!(r.rows.len() >= 8);
        for row in &r.rows {
            assert_eq!(
                row.detected, row.injected,
                "{}: detection failed",
                row.category
            );
        }
        assert!(r.classifier_accuracy >= 0.7, "{}", r.render());
    }

    #[test]
    fn agreement_matrix_is_perfect_on_the_corpus() {
        let r = static_dynamic_agreement(60, 9);
        assert_eq!(r.rows.len(), 18, "one row per lint rule");
        for row in &r.rows {
            assert!(
                row.perfect(),
                "{} ({}) disagrees:\n{}",
                row.rule.id(),
                row.pattern_id,
                r.render()
            );
        }
        assert!((r.agreement - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn overhead_probe_shows_slowdown() {
        // The detector must cost something; the magnitude is measured
        // precisely by the Criterion bench. A 10-run wall-clock comparison
        // is noisy on a loaded single-CPU runner, so give the probe a few
        // independent attempts before declaring the detector free.
        let p = overhead_workload();
        let slower = (0..3).any(|attempt| {
            let probe = overhead_probe(&p, 10, 1 + attempt);
            probe.detector_ns >= probe.baseline_ns && probe.ratio() >= 1.0
        });
        assert!(slower, "detector never measured slower than baseline");
    }
}
