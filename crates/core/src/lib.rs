//! `grs` — the umbrella crate for the PLDI'22 study reproduction.
//!
//! *"A Study of Real-World Data Races in Golang"* (Chabbi & Ramanathan,
//! Uber) is reproduced here as a family of crates; this one re-exports them
//! under stable module names and provides one runner per table/figure of
//! the paper's evaluation in [`experiments`].
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`runtime`] | `grs-runtime` | deterministic Go-semantics runtime |
//! | [`clock`] | `grs-clock` | vector clocks, epochs, locksets |
//! | [`detector`] | `grs-detector` | FastTrack / Eraser / TSan + explorer |
//! | [`patterns`] | `grs-patterns` | executable §4 pattern corpus |
//! | [`deploy`] | `grs-deploy` | §3.3 pipeline + campaign simulation |
//! | [`golite`] | `grs-golite` | Go subset frontend, scanner, lints |
//! | [`corpus`] | `grs-corpus` | synthetic monorepos (Table 1) |
//! | [`interp`] | `grs-interp` | Go-lite interpreter on the runtime |
//! | [`fleet`] | `grs-fleet` | concurrency census (Figure 1) + parallel campaign engine |
//! | [`obs`] | `grs-obs` | `ObsSink`, metrics registry, span tracing, the versioned obs export |
//!
//! # Example: detect Listing 1's race end to end
//!
//! ```
//! use grs::detector::{ExploreConfig, Explorer};
//! use grs::patterns;
//!
//! let listing1 = patterns::find("loop_index_capture").expect("in corpus");
//! let result = Explorer::new(ExploreConfig::quick()).explore(&listing1.racy_program());
//! assert!(result.found_race());
//! println!("{}", result.unique_races[0]);
//! ```

#![forbid(unsafe_code)]

pub use grs_clock as clock;
pub use grs_corpus as corpus;
pub use grs_deploy as deploy;
pub use grs_detector as detector;
pub use grs_fleet as fleet;
pub use grs_golite as golite;
pub use grs_interp as interp;
pub use grs_obs as obs;
pub use grs_patterns as patterns;
pub use grs_runtime as runtime;

pub mod classify;
pub mod experiments;
pub mod hotpath;
pub mod study;

pub use classify::classify;
pub use hotpath::dense_unit;
pub use experiments::{
    figure1, figure3_figure4, overhead_probe, overhead_workload, static_dynamic_agreement,
    table1, table2, table3,
    AgreementResult, AgreementRow, CategoryTally, DeploymentStats, OverheadProbe, TallyConfig,
};
pub use study::{Study, StudyReport};

/// The workspace-wide prelude: the ~15 types nearly every experiment,
/// example, and test imports, re-exported explicitly (no glob-of-globs, so
/// rustdoc attributes each item to its home crate).
///
/// `Campaign`/`CampaignConfig`/`CampaignResult` here always mean the
/// execution engine (`grs_fleet::campaign`); the streaming intake server is
/// `IntakeService`, and the tracker-dynamics simulation is reached as
/// `grs::deploy::sim::TrackerSim`.
///
/// ```
/// use grs::prelude::*;
///
/// let result = Campaign::over_patterns(CampaignConfig::new().seeds_per_unit(2)).run();
/// assert!(result.detection_rate() > 0.0);
/// ```
pub mod prelude {
    pub use grs_deploy::service::{IntakeError, IntakeService, IntakeSummary};
    pub use grs_deploy::store::Snapshot;
    pub use grs_deploy::{race_fingerprint, Fingerprint, OwnerDb};
    pub use grs_detector::{DetectorArena, DetectorChoice, ExploreConfig, Explorer, RaceReport};
    pub use grs_fleet::{
        corpus_suite, pattern_suite, Campaign, CampaignConfig, CampaignResult, CampaignUnit,
    };
    pub use grs_obs::{MetricsRegistry, ObsReport, ObsSink};
    pub use grs_runtime::{Program, RunConfig, Runtime, Strategy, Trace};
}
