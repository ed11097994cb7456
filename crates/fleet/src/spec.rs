//! What a campaign runs and records: the matrix cell and the execution.
//!
//! A campaign's work is enumerated deterministically and never
//! materialized. Each [`ExecSpec`] executes one `(program, seed,
//! strategy)` once, watched by every configured detector; each detector's
//! view of that execution is one record, named by a [`RunSpec`]. Which
//! worker executes an execution never affects its result: every run is a
//! self-contained deterministic `Runtime` instance, and the campaign
//! aggregates by spec index, not by completion order.

use grs_detector::DetectorChoice;
use grs_runtime::Strategy;

/// One cell of the run matrix, `(program × seed × strategy × detector)`,
/// tagged with its position in the campaign's deterministic enumeration:
/// what one record of a campaign is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// Position in the campaign's spec enumeration — the deterministic
    /// tie-breaker for dedup representatives and record ordering.
    pub index: usize,
    /// Index of the unit (program) in the campaign's unit list.
    pub unit: usize,
    /// Scheduler seed for the run.
    pub seed: u64,
    /// Scheduling strategy for the run.
    pub strategy: Strategy,
    /// Detection algorithm monitoring the run.
    pub detector: DetectorChoice,
}

/// One schedulable *execution*: `(program × seed × strategy)`, executed
/// once and watched by every configured detector at once.
///
/// Because the full matrix enumerates detectors innermost, the records this
/// execution yields occupy the contiguous [`RunSpec::index`] block
/// `base_index .. base_index + detectors.len()` — which is how a campaign
/// keeps its records (and dedup representatives) on the matrix's index
/// space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecSpec {
    /// Position in the execution enumeration (units → seeds → strategies).
    pub exec_index: usize,
    /// Spec index of this execution's first detector run in the full
    /// matrix enumeration.
    pub base_index: usize,
    /// Index of the unit (program) in the campaign's unit list.
    pub unit: usize,
    /// Scheduler seed for the execution.
    pub seed: u64,
    /// Scheduling strategy for the execution.
    pub strategy: Strategy,
}

impl ExecSpec {
    /// The matrix spec of this execution's record for its `pos`-th
    /// detector.
    #[must_use]
    pub fn run_spec(&self, pos: usize, detector: DetectorChoice) -> RunSpec {
        RunSpec {
            index: self.base_index + pos,
            unit: self.unit,
            seed: self.seed,
            strategy: self.strategy,
            detector,
        }
    }
}
