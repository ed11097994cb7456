//! Fleet-scale execution: the concurrency census and the campaign engine.
//!
//! Two halves of the paper's "at scale" story live here:
//!
//! * [`mod@census`] — the datacenter fleet concurrency census behind Figure 1
//!   (Observation 2): per-language thread/goroutine distributions and their
//!   CDFs, sampled from bucket models calibrated to the paper's reading.
//! * [`campaign`] — the §3.3 nightly deployment loop made executable: a
//!   campaign runner that covers the `(program × seed × strategy ×
//!   detector)` matrix by executing each `(program, seed, strategy)` once,
//!   watched by every detector. N OS worker threads each claim a whole
//!   unit at a time from one counter, build it once and run all its
//!   executions ([`spec::ExecSpec`]); every race goes through a concurrent
//!   fingerprint-keyed dedup stage ([`dedup::DedupMap`]), and the
//!   deduplicated batch goes to `grs_deploy::IntakeService` for filing.
//!
//! Each campaign run is a self-contained deterministic
//! [`Runtime`](grs_runtime::Runtime) instance, which is what makes the
//! parallel engine trustworthy: the campaign's records and deduped batch
//! are *identical* for any worker count — proven by the differential test
//! harness (`tests/detector_differential.rs`, `tests/determinism.rs` at the
//! workspace root).
//!
//! # Example
//!
//! ```
//! use grs_fleet::{Campaign, CampaignConfig};
//!
//! let campaign = Campaign::over_patterns(CampaignConfig::new().seeds_per_unit(2));
//! let result = campaign.run();
//! assert_eq!(result.total_runs(), campaign.matrix_len());
//! assert!(result.detection_rate() > 0.0, "the racy patterns must fire");
//! ```

#![forbid(unsafe_code)]

pub mod campaign;
pub mod census;
pub mod dedup;
pub mod source;
pub mod spec;
pub mod triage;

pub use campaign::{
    corpus_suite, default_workers, pattern_suite, Campaign, CampaignConfig, CampaignResult,
    CampaignUnit, RunEnd, RunRecord, MAX_CONVERGENCE_POINTS, MAX_SKIP_REASONS,
};
pub use census::{census, Cdf, Census, CensusConfig, Language, LanguageSample};
pub use dedup::DedupMap;
pub use source::{
    lower_source_unit, GoCorpusSource, GoSnippetSuite, UnitError, UnitList, UnitSource,
};
pub use spec::{ExecSpec, RunSpec};
pub use triage::{run_triage, triage_suite, TriageConfig, TriageOutcome, TriageUnit};
