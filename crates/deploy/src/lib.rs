//! The post-facto race reporting pipeline of §3.3 and the deployment
//! campaign simulation behind Figures 3–4 and the §3.5 statistics.
//!
//! The paper's deployment runs the detector daily over the monorepo's unit
//! tests, then:
//!
//! 1. **deduplicates** detected races with a hash that ignores source line
//!    numbers and orders the two call chains lexicographically
//!    ([`fingerprint::race_fingerprint`], §3.3.1),
//! 2. **assigns** each unique race to a developer via a heuristic anchored
//!    on the *root* frames of the two stacks, with an explanation log
//!    ([`assignee::determine_assignee`], §3.3.2),
//! 3. **files** a task in a bug tracker, suppressing duplicates only while
//!    a task with the same fingerprint is open ([`tracker::BugTracker`]),
//! 4. repeats daily for six months, producing the dynamics of Figures 3–4
//!    ([`sim::TrackerSim`]).
//!
//! Naming note: three layers share this territory. The *execution* engine
//! that runs real detector matrices lives in `grs_fleet::campaign`; the
//! long-running *ingestion* server is [`service::IntakeService`]; the
//! Figures 3–4 tracker-dynamics *simulation* is [`sim::TrackerSim`].
//!
//! # Example
//!
//! ```
//! use grs_deploy::sim::{SimConfig, TrackerSim};
//!
//! let result = TrackerSim::new(SimConfig::paper()).run(42);
//! assert!(result.total_filed >= 1500, "paper: ~2000 detected");
//! assert!(result.total_fixed >= 700, "paper: 1011 fixed");
//! ```

#![forbid(unsafe_code)]

pub mod assignee;
pub mod batch;
pub mod dedup;
pub mod fingerprint;
pub mod service;
pub mod sim;
pub mod store;
pub mod tracker;
pub mod wire;

pub use assignee::{determine_assignee, AssigneeDecision, OwnerDb};
pub use batch::RaceBatch;
pub use dedup::BoundedDedup;
pub use fingerprint::{naive_fingerprint, race_fingerprint, race_fingerprint_ids, Fingerprint};
pub use service::{
    FileOutcome, IntakeError, IntakeServer, IntakeService, IntakeStats, IntakeSummary,
    IntakeTicket,
};
pub use sim::{DayStats, SimConfig, SimResult, TrackerSim};
pub use store::{Snapshot, SnapshotError};
pub use tracker::{BugTracker, FixError, RestoreError, TaskId, TaskState};
