//! The bug tracker: open/fixed tasks keyed by race fingerprint.
//!
//! §3.3.1's suppression rule is deliberately *stateful*: a newly detected
//! race is suppressed iff a task with the same fingerprint is currently
//! **open**. Once that task is fixed, a re-detection files a fresh task —
//! that is how regressions (or incomplete fixes) resurface.

use std::collections::HashMap;
use std::fmt;

use grs_runtime::ReproArtifact;

use crate::fingerprint::Fingerprint;

/// Identity of a filed task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Lifecycle state of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Filed, not yet fixed.
    Open,
    /// Fixed by a patch.
    Fixed,
}

/// One filed race task.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Task id.
    pub id: TaskId,
    /// The race fingerprint the task tracks.
    pub fingerprint: Fingerprint,
    /// Day the task was filed (campaign time).
    pub filed_day: u32,
    /// Current state.
    pub state: TaskState,
    /// Day the task was fixed, when fixed.
    pub fixed_day: Option<u32>,
    /// Engineer who fixed it, when fixed.
    pub fixed_by: Option<String>,
    /// Patch identifier (several tasks may share one patch — the paper
    /// observed 1011 fixes across 790 unique patches).
    pub patch: Option<u64>,
    /// Assignee, when the heuristic found one.
    pub assignee: Option<String>,
    /// Reproduction instructions (§3.4): the scheduler seed that replays
    /// the detected interleaving. Kept alongside [`Task::repro`] as the
    /// stable, minimal form (`repro.seed` when an artifact is attached).
    pub repro_seed: Option<u64>,
    /// Full reproduction artifact: seed, scheduling strategy, and — when a
    /// trace was recorded — its digest and on-disk `.grtrace` path, so an
    /// engineer can replay the *exact* interleaving offline.
    pub repro: Option<ReproArtifact>,
}

/// Why a fix request was rejected (see [`BugTracker::try_fix`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixError {
    /// No task was ever filed under this id.
    UnknownTask(TaskId),
    /// The task exists but is not open.
    AlreadyFixed(TaskId),
}

impl fmt::Display for FixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FixError::UnknownTask(id) => write!(f, "unknown task {id}"),
            FixError::AlreadyFixed(id) => write!(f, "task {id} is already fixed"),
        }
    }
}

impl std::error::Error for FixError {}

/// Why a task list could not be rebuilt into a tracker (see
/// [`BugTracker::from_tasks`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreError {
    /// Task ids must be dense and in filing order.
    BadTaskId {
        /// The id the position implies.
        expected: TaskId,
        /// The id actually found there.
        found: TaskId,
    },
    /// Two open tasks share a fingerprint.
    DuplicateOpenFingerprint(Fingerprint),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::BadTaskId { expected, found } => {
                write!(f, "task id {found} out of filing order (expected {expected})")
            }
            RestoreError::DuplicateOpenFingerprint(fp) => {
                write!(f, "two open tasks share fingerprint {fp}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// An in-memory bug database.
///
/// # Example
///
/// ```
/// use grs_deploy::{BugTracker, Fingerprint};
///
/// let mut tracker = BugTracker::new();
/// let fp = Fingerprint(0xabcd);
/// let id = tracker.file(fp, 0, None).expect("first filing is new");
/// assert!(tracker.file(fp, 1, None).is_none(), "open task suppresses");
/// tracker.fix(id, 5, "alice", 1);
/// assert!(tracker.file(fp, 6, None).is_some(), "re-files after the fix");
/// ```
#[derive(Debug, Default)]
pub struct BugTracker {
    tasks: Vec<Task>,
    open_by_fp: HashMap<Fingerprint, TaskId>,
}

impl BugTracker {
    /// An empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Files a task for `fp` on `day` unless one is already open; returns
    /// the new task id, or `None` when suppressed as a duplicate.
    pub fn file(&mut self, fp: Fingerprint, day: u32, assignee: Option<String>) -> Option<TaskId> {
        self.file_with_repro(fp, day, assignee, None)
    }

    /// Like [`BugTracker::file`], also recording a reproduction artifact
    /// (§3.4): at minimum the scheduler seed that replays the race, and —
    /// when the campaign recorded a trace — its digest and `.grtrace` path.
    pub fn file_with_repro(
        &mut self,
        fp: Fingerprint,
        day: u32,
        assignee: Option<String>,
        repro: Option<ReproArtifact>,
    ) -> Option<TaskId> {
        if self.open_by_fp.contains_key(&fp) {
            return None;
        }
        let id = TaskId(self.tasks.len() as u64);
        self.tasks.push(Task {
            id,
            fingerprint: fp,
            filed_day: day,
            state: TaskState::Open,
            fixed_day: None,
            fixed_by: None,
            patch: None,
            assignee,
            repro_seed: repro.as_ref().map(|r| r.seed),
            repro,
        });
        self.open_by_fp.insert(fp, id);
        Some(id)
    }

    /// Marks `id` fixed on `day` by `engineer` under `patch`.
    ///
    /// # Panics
    ///
    /// Panics if the task does not exist or is already fixed. Service-side
    /// callers that must survive bad input use [`BugTracker::try_fix`].
    pub fn fix(&mut self, id: TaskId, day: u32, engineer: &str, patch: u64) {
        match self.try_fix(id, day, engineer, patch) {
            Ok(()) => {}
            Err(FixError::UnknownTask(id)) => panic!("fix of unknown task {id}"),
            Err(FixError::AlreadyFixed(id)) => panic!("double fix of {id}"),
        }
    }

    /// Marks `id` fixed on `day` by `engineer` under `patch`, reporting bad
    /// input as a [`FixError`] instead of panicking — the form the
    /// long-running [`IntakeService`](crate::service::IntakeService) uses,
    /// where a fix request for a garbage-collected or double-submitted task
    /// id is client input, not an invariant violation.
    ///
    /// # Errors
    ///
    /// [`FixError::UnknownTask`] when no task has this id,
    /// [`FixError::AlreadyFixed`] when the task is not open.
    pub fn try_fix(
        &mut self,
        id: TaskId,
        day: u32,
        engineer: &str,
        patch: u64,
    ) -> Result<(), FixError> {
        let task = self
            .tasks
            .get_mut(id.0 as usize)
            .ok_or(FixError::UnknownTask(id))?;
        if task.state != TaskState::Open {
            return Err(FixError::AlreadyFixed(id));
        }
        task.state = TaskState::Fixed;
        task.fixed_day = Some(day);
        task.fixed_by = Some(engineer.to_string());
        task.patch = Some(patch);
        self.open_by_fp.remove(&task.fingerprint);
        Ok(())
    }

    /// The task for `id`, or `None` when no such task was ever filed.
    #[must_use]
    pub fn task(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(id.0 as usize)
    }

    /// Rebuilds a tracker from a task list in filing order — the restore
    /// half of [`Snapshot`](crate::store::Snapshot). Re-derives the
    /// open-fingerprint index and re-validates the tracker invariants that
    /// filing maintains incrementally.
    ///
    /// # Errors
    ///
    /// [`RestoreError::BadTaskId`] when task ids are not dense and in
    /// filing order, [`RestoreError::DuplicateOpenFingerprint`] when two
    /// open tasks share a fingerprint (which filing can never produce).
    pub fn from_tasks(tasks: Vec<Task>) -> Result<Self, RestoreError> {
        let mut open_by_fp = HashMap::new();
        for (i, task) in tasks.iter().enumerate() {
            if task.id.0 != i as u64 {
                return Err(RestoreError::BadTaskId {
                    expected: TaskId(i as u64),
                    found: task.id,
                });
            }
            if task.state == TaskState::Open
                && open_by_fp.insert(task.fingerprint, task.id).is_some()
            {
                return Err(RestoreError::DuplicateOpenFingerprint(task.fingerprint));
            }
        }
        Ok(BugTracker { tasks, open_by_fp })
    }

    /// All tasks, in filing order.
    #[must_use]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Ids of currently open tasks.
    pub fn open_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.open_by_fp.values().copied()
    }

    /// Number of currently open tasks.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.open_by_fp.len()
    }

    /// Total tasks ever filed.
    #[must_use]
    pub fn total_filed(&self) -> usize {
        self.tasks.len()
    }

    /// Total tasks fixed.
    #[must_use]
    pub fn total_fixed(&self) -> usize {
        self.tasks
            .iter()
            .filter(|t| t.state == TaskState::Fixed)
            .count()
    }

    /// Number of distinct engineers who fixed at least one task.
    #[must_use]
    pub fn unique_fixers(&self) -> usize {
        let mut set: Vec<&str> = self
            .tasks
            .iter()
            .filter_map(|t| t.fixed_by.as_deref())
            .collect();
        set.sort_unstable();
        set.dedup();
        set.len()
    }

    /// Number of distinct patches used by fixes (the paper's proxy for
    /// unique root causes: 790 patches for 1011 fixes ≈ 78%).
    #[must_use]
    pub fn unique_patches(&self) -> usize {
        let mut set: Vec<u64> = self.tasks.iter().filter_map(|t| t.patch).collect();
        set.sort_unstable();
        set.dedup();
        set.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_only_while_open() {
        let mut t = BugTracker::new();
        let fp = Fingerprint(7);
        let id = t.file(fp, 0, Some("alice".into())).expect("new");
        assert_eq!(t.outstanding(), 1);
        assert!(t.file(fp, 3, None).is_none());
        t.fix(id, 4, "alice", 100);
        assert_eq!(t.outstanding(), 0);
        let id2 = t.file(fp, 5, None).expect("re-filed after fix");
        assert_ne!(id, id2);
        assert_eq!(t.total_filed(), 2);
        assert_eq!(t.total_fixed(), 1);
    }

    #[test]
    fn distinct_fingerprints_coexist() {
        let mut t = BugTracker::new();
        assert!(t.file(Fingerprint(1), 0, None).is_some());
        assert!(t.file(Fingerprint(2), 0, None).is_some());
        assert_eq!(t.outstanding(), 2);
    }

    #[test]
    fn statistics_count_engineers_and_patches() {
        let mut t = BugTracker::new();
        let a = t.file(Fingerprint(1), 0, None).unwrap();
        let b = t.file(Fingerprint(2), 0, None).unwrap();
        let c = t.file(Fingerprint(3), 0, None).unwrap();
        t.fix(a, 1, "alice", 100);
        t.fix(b, 2, "alice", 100); // same patch fixes two tasks
        t.fix(c, 3, "bob", 101);
        assert_eq!(t.total_fixed(), 3);
        assert_eq!(t.unique_fixers(), 2);
        assert_eq!(t.unique_patches(), 2);
    }

    #[test]
    fn repro_artifact_round_trips_and_populates_seed() {
        use grs_runtime::Strategy;
        let mut t = BugTracker::new();
        let artifact = ReproArtifact {
            seed: 41,
            strategy: Strategy::Pct { depth: 3 },
            trace_digest: Some(0xdead_beef),
            trace_path: Some("traces/loop_capture.grtrace".into()),
        };
        let id = t
            .file_with_repro(Fingerprint(9), 0, None, Some(artifact.clone()))
            .unwrap();
        let task = t.task(id).expect("filed");
        assert_eq!(task.repro_seed, Some(41), "seed derived from artifact");
        assert_eq!(task.repro.as_ref(), Some(&artifact));
        // Bare `file` leaves both forms empty.
        let id2 = t.file(Fingerprint(10), 0, None).unwrap();
        let task2 = t.task(id2).expect("filed");
        assert_eq!(task2.repro_seed, None);
        assert!(task2.repro.is_none());
    }

    #[test]
    #[should_panic(expected = "double fix")]
    fn double_fix_panics() {
        let mut t = BugTracker::new();
        let id = t.file(Fingerprint(1), 0, None).unwrap();
        t.fix(id, 1, "a", 1);
        t.fix(id, 2, "b", 2);
    }

    #[test]
    fn task_metadata_round_trips() {
        let mut t = BugTracker::new();
        let id = t.file(Fingerprint(9), 4, Some("team-x".into())).unwrap();
        t.fix(id, 9, "carol", 55);
        let task = t.task(id).expect("filed");
        assert_eq!(task.filed_day, 4);
        assert_eq!(task.fixed_day, Some(9));
        assert_eq!(task.assignee.as_deref(), Some("team-x"));
        assert_eq!(task.fixed_by.as_deref(), Some("carol"));
        assert_eq!(task.patch, Some(55));
        assert_eq!(id.to_string(), "T0");
    }
}
