//! The streaming trace-intake service: one facade over every ingestion
//! path.
//!
//! The paper's deployment (§3.3, Figure 2) is a *service*, not a batch
//! job: detector shards upload recorded runs all day, the filing side
//! dedups and files tasks, and the bug database outlives any single
//! process. [`IntakeService`] is that shape:
//!
//! * **One API.** Per-report filing, batch filing and decode-replay-file
//!   of an uploaded trace are [`IntakeService::submit`],
//!   [`IntakeService::submit_batch`] /
//!   [`IntakeService::submit_race_batch`], and
//!   [`IntakeService::submit_trace`] (raw `.grtrace` bytes in, filed tasks
//!   out). Every failure is a typed [`IntakeError`]; nothing panics on
//!   client input.
//! * **Bounded intake.** Trace uploads land on a fixed worker pool behind
//!   a bounded queue. A full queue rejects with
//!   [`IntakeError::Busy`] and a retry hint — explicit backpressure,
//!   never unbounded buffering.
//! * **Bounded dedup.** Duplicate suppression front-lines through
//!   [`BoundedDedup`], a sharded exact cache under a hard word budget with
//!   FIFO representative eviction; the tracker stays authoritative, so
//!   eviction can never change a verdict.
//! * **Durable state.** The bug database snapshots to a versioned,
//!   crash-safe file ([`Snapshot`]); [`IntakeServiceBuilder::start`]
//!   restores it, so kill-and-restart loses nothing.
//!
//! [`IntakeServer`] puts the same service behind a framed byte protocol
//! ([`crate::wire`]) on any [`Transport`] — a real TCP listener in
//! deployment, in-process pipes in tests.

use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::Instant;

use grs_detector::{replay_decoded, FastTrack, RaceReport};
use grs_obs::ObsSink;
use grs_runtime::{DecodedTrace, ReproArtifact, StackDepot, TraceDecodeError};

use crate::assignee::{determine_assignee, OwnerDb};
use crate::dedup::{BoundedDedup, DedupVerdict};
use crate::fingerprint::race_fingerprint;
use crate::store::{Snapshot, SnapshotError};
use crate::tracker::{BugTracker, FixError, TaskId};
use crate::wire::{RequestFrame, ResponseFrame, Transport};

/// Backoff hint carried in every [`IntakeError::Busy`], milliseconds.
const RETRY_AFTER_MS: u32 = 25;

/// Everything that can go wrong at the intake boundary. The service's
/// single error surface: bad input, overload, and persistence failures are
/// all values here — none of them panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntakeError {
    /// The uploaded trace failed to decode.
    Malformed(TraceDecodeError),
    /// The intake queue is full; back off and retry.
    Busy {
        /// Suggested client backoff, milliseconds.
        retry_after_ms: u32,
    },
    /// The service has been shut down; no further work is accepted.
    ShutDown,
    /// A fix request named a task that was never filed.
    UnknownTask(TaskId),
    /// A fix request named a task that is already fixed.
    AlreadyFixed(TaskId),
    /// Snapshot persistence or restore failed.
    Snapshot(SnapshotError),
}

impl fmt::Display for IntakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntakeError::Malformed(e) => write!(f, "malformed trace: {e}"),
            IntakeError::Busy { retry_after_ms } => {
                write!(f, "intake queue full; retry after {retry_after_ms} ms")
            }
            IntakeError::ShutDown => write!(f, "intake service is shut down"),
            IntakeError::UnknownTask(id) => write!(f, "unknown task {id}"),
            IntakeError::AlreadyFixed(id) => write!(f, "task {id} is already fixed"),
            IntakeError::Snapshot(e) => write!(f, "snapshot: {e}"),
        }
    }
}

impl std::error::Error for IntakeError {}

impl From<TraceDecodeError> for IntakeError {
    fn from(e: TraceDecodeError) -> Self {
        IntakeError::Malformed(e)
    }
}

impl From<SnapshotError> for IntakeError {
    fn from(e: SnapshotError) -> Self {
        IntakeError::Snapshot(e)
    }
}

impl From<FixError> for IntakeError {
    fn from(e: FixError) -> Self {
        match e {
            FixError::UnknownTask(id) => IntakeError::UnknownTask(id),
            FixError::AlreadyFixed(id) => IntakeError::AlreadyFixed(id),
        }
    }
}

/// What happened to one submitted race report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileOutcome {
    /// A new task was filed.
    Filed {
        /// The new task.
        task: TaskId,
        /// Assignee chosen by the heuristic, if any.
        assignee: Option<String>,
    },
    /// Suppressed: a task with the same fingerprint is already open.
    Duplicate,
}

/// What one accepted trace upload produced.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IntakeSummary {
    /// Tasks newly filed from this trace, in filing order.
    pub filed: Vec<TaskId>,
    /// Reports suppressed as duplicates of open tasks.
    pub duplicates: u32,
    /// Raw race reports the replay detector produced.
    pub races: u32,
}

/// Point-in-time service statistics (see [`IntakeService::stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntakeStats {
    /// Tasks ever filed.
    pub total_filed: usize,
    /// Tasks currently open.
    pub outstanding: usize,
    /// Trace uploads fully processed.
    pub traces: u64,
    /// Uploads rejected with [`IntakeError::Busy`].
    pub busy_rejections: u64,
    /// Uploads rejected as malformed.
    pub malformed: u64,
    /// High-water mark of the intake queue depth.
    pub queue_peak: usize,
    /// The dedup cache's hard budget, 8-byte words.
    pub dedup_budget_words: usize,
    /// The dedup cache's current size, words.
    pub dedup_words: usize,
    /// The dedup cache's high-water mark, words.
    pub dedup_peak_words: usize,
    /// Dedup representatives evicted to stay under budget.
    pub dedup_evictions: u64,
}

struct Ticket {
    state: Mutex<Option<Result<IntakeSummary, IntakeError>>>,
    done: Condvar,
}

impl Ticket {
    fn new() -> Arc<Ticket> {
        Arc::new(Ticket {
            state: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    fn complete(&self, result: Result<IntakeSummary, IntakeError>) {
        *self
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(result);
        self.done.notify_all();
    }
}

/// A pending asynchronous upload (see [`IntakeService::enqueue_trace`]).
#[must_use = "an unawaited ticket discards the upload's outcome"]
pub struct IntakeTicket {
    ticket: Arc<Ticket>,
}

impl fmt::Debug for IntakeTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IntakeTicket").finish_non_exhaustive()
    }
}

impl IntakeTicket {
    /// Blocks until a worker has processed the upload.
    ///
    /// # Errors
    ///
    /// Whatever the worker hit: [`IntakeError::Malformed`] for a bad
    /// trace, [`IntakeError::ShutDown`] when the service stopped before
    /// processing it.
    pub fn wait(self) -> Result<IntakeSummary, IntakeError> {
        let mut state = self
            .ticket
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            state = self
                .ticket
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct Job {
    trace: Vec<u8>,
    day: u32,
    enqueued_at: Instant,
    ticket: Arc<Ticket>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    open: bool,
}

struct Core {
    owners: OwnerDb,
    tracker: BugTracker,
}

struct ServiceInner {
    core: Mutex<Core>,
    dedup: BoundedDedup,
    queue: Mutex<QueueState>,
    queue_nonempty: Condvar,
    queue_depth: usize,
    sink: Option<Arc<dyn ObsSink>>,
    snapshot_path: Option<PathBuf>,
    shut_down: AtomicBool,
    traces: AtomicU64,
    busy_rejections: AtomicU64,
    malformed: AtomicU64,
    queue_peak: AtomicUsize,
}

impl ServiceInner {
    fn obs(&self, f: impl FnOnce(&dyn ObsSink)) {
        if let Some(sink) = &self.sink {
            f(sink.as_ref());
        }
    }

    /// Files one report on `day`: dedup-cache front line, then the
    /// authoritative tracker check-and-file under the core mutex.
    fn file_report(&self, report: &RaceReport, day: u32) -> FileOutcome {
        let fp = race_fingerprint(report);
        if self.dedup.check(fp) == DedupVerdict::CachedOpen {
            self.obs(|s| s.add("intake.duplicate", 1));
            return FileOutcome::Duplicate;
        }
        let mut core = self.core.lock().unwrap_or_else(PoisonError::into_inner);
        let decision = determine_assignee(report, &core.owners);
        let repro = report
            .repro
            .clone()
            .or_else(|| report.repro_seed.map(ReproArtifact::seed_only));
        let outcome = match core
            .tracker
            .file_with_repro(fp, day, decision.assignee.clone(), repro)
        {
            Some(task) => FileOutcome::Filed {
                task,
                assignee: decision.assignee,
            },
            None => FileOutcome::Duplicate,
        };
        // Cache while still holding the core lock: a concurrent fix's
        // invalidate cannot interleave between the tracker verdict and the
        // cache insert, so CachedOpen always implies an open task.
        self.dedup.insert(fp);
        drop(core);
        self.obs(|s| match outcome {
            FileOutcome::Filed { .. } => s.add("intake.filed", 1),
            FileOutcome::Duplicate => s.add("intake.duplicate", 1),
        });
        outcome
    }

    /// Decode + replay + file — the whole per-trace pipeline a worker runs.
    fn process_trace(&self, bytes: &[u8], day: u32) -> Result<IntakeSummary, IntakeError> {
        let decoded = DecodedTrace::decode(bytes).map_err(|e| {
            self.malformed.fetch_add(1, Ordering::Relaxed);
            self.obs(|s| s.add("intake.malformed", 1));
            IntakeError::Malformed(e)
        })?;
        let depot = StackDepot::new();
        let mut detector = FastTrack::new();
        let outcome = replay_decoded(&mut detector, &decoded, &depot);
        let program: Arc<str> = Arc::from(decoded.meta.program.as_str());
        let mut summary = IntakeSummary {
            races: outcome.reports.len() as u32,
            ..IntakeSummary::default()
        };
        for mut report in outcome.reports {
            // The recording run's identity travels with the report so a
            // filed task is reproducible without the original uploader.
            report.program.get_or_insert_with(|| program.clone());
            if report.repro.is_none() {
                report.repro = Some(ReproArtifact::seeded(
                    decoded.meta.seed,
                    decoded.meta.strategy,
                ));
            }
            report.repro_seed.get_or_insert(decoded.meta.seed);
            match self.file_report(&report, day) {
                FileOutcome::Filed { task, .. } => summary.filed.push(task),
                FileOutcome::Duplicate => summary.duplicates += 1,
            }
        }
        self.traces.fetch_add(1, Ordering::Relaxed);
        self.obs(|s| s.add("intake.traces", 1));
        Ok(summary)
    }

    fn enqueue(&self, trace: Vec<u8>, day: u32) -> Result<IntakeTicket, IntakeError> {
        let ticket = Ticket::new();
        {
            let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
            if !queue.open {
                return Err(IntakeError::ShutDown);
            }
            if queue.jobs.len() >= self.queue_depth {
                self.busy_rejections.fetch_add(1, Ordering::Relaxed);
                self.obs(|s| s.add("intake.busy", 1));
                return Err(IntakeError::Busy {
                    retry_after_ms: RETRY_AFTER_MS,
                });
            }
            queue.jobs.push_back(Job {
                trace,
                day,
                enqueued_at: Instant::now(),
                ticket: ticket.clone(),
            });
            let depth = queue.jobs.len();
            self.queue_peak.fetch_max(depth, Ordering::Relaxed);
            self.obs(|s| s.gauge_max("intake.queue.peak", depth as u64));
        }
        self.queue_nonempty.notify_one();
        Ok(IntakeTicket { ticket })
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    if let Some(job) = queue.jobs.pop_front() {
                        break job;
                    }
                    if !queue.open {
                        return;
                    }
                    queue = self
                        .queue_nonempty
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let result = self.process_trace(&job.trace, job.day);
            self.obs(|s| s.observe("intake.latency", job.enqueued_at.elapsed()));
            job.ticket.complete(result);
        }
    }

    fn close_queue(&self) {
        let drained: Vec<Job> = {
            let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
            if !queue.open {
                return;
            }
            queue.open = false;
            queue.jobs.drain(..).collect()
        };
        self.queue_nonempty.notify_all();
        for job in drained {
            job.ticket.complete(Err(IntakeError::ShutDown));
        }
    }
}

/// Configures and starts an [`IntakeService`] (see
/// [`IntakeService::builder`]).
#[must_use = "a builder does nothing until start()"]
pub struct IntakeServiceBuilder {
    workers: usize,
    queue_depth: usize,
    dedup_budget_words: usize,
    snapshot_path: Option<PathBuf>,
    sink: Option<Arc<dyn ObsSink>>,
    owners: OwnerDb,
}

impl fmt::Debug for IntakeServiceBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IntakeServiceBuilder")
            .field("workers", &self.workers)
            .field("queue_depth", &self.queue_depth)
            .field("dedup_budget_words", &self.dedup_budget_words)
            .field("snapshot_path", &self.snapshot_path)
            .finish_non_exhaustive()
    }
}

impl Default for IntakeServiceBuilder {
    fn default() -> Self {
        IntakeServiceBuilder {
            workers: 2,
            queue_depth: 256,
            dedup_budget_words: 1 << 20,
            snapshot_path: None,
            sink: None,
            owners: OwnerDb::new(),
        }
    }
}

impl IntakeServiceBuilder {
    /// Decode/replay worker threads (min 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Maximum queued uploads before [`IntakeError::Busy`] (min 1).
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Hard dedup-cache budget, 8-byte words.
    pub fn dedup_budget(mut self, words: usize) -> Self {
        self.dedup_budget_words = words;
        self
    }

    /// Snapshot file: restored on start when present, written on shutdown
    /// and by [`IntakeService::save_snapshot`].
    pub fn snapshot_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.snapshot_path = Some(path.into());
        self
    }

    /// Metrics sink for intake counters, queue gauges, and latency
    /// histograms.
    pub fn observed(mut self, sink: Arc<dyn ObsSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Ownership database for assignee determination.
    pub fn owners(mut self, owners: OwnerDb) -> Self {
        self.owners = owners;
        self
    }

    /// Starts the service: restores the snapshot (when configured and
    /// present), warms the dedup cache from open tasks, and spawns the
    /// worker pool.
    ///
    /// # Errors
    ///
    /// [`IntakeError::Snapshot`] when a configured snapshot file exists but
    /// fails to load or restore. A *missing* file is a fresh start, not an
    /// error.
    pub fn start(self) -> Result<IntakeService, IntakeError> {
        let tracker = match &self.snapshot_path {
            Some(path) if path.exists() => Snapshot::load(path)?.restore()?,
            _ => BugTracker::new(),
        };
        let dedup = BoundedDedup::new(self.dedup_budget_words);
        let open: Vec<_> = tracker.open_tasks().collect();
        for id in open {
            if let Some(task) = tracker.task(id) {
                dedup.insert(task.fingerprint);
            }
        }
        let inner = Arc::new(ServiceInner {
            core: Mutex::new(Core {
                owners: self.owners,
                tracker,
            }),
            dedup,
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                open: true,
            }),
            queue_nonempty: Condvar::new(),
            queue_depth: self.queue_depth,
            sink: self.sink,
            snapshot_path: self.snapshot_path,
            shut_down: AtomicBool::new(false),
            traces: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            queue_peak: AtomicUsize::new(0),
        });
        let workers = (0..self.workers)
            .map(|i| {
                let inner = inner.clone();
                thread::Builder::new()
                    .name(format!("intake-worker-{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("spawn intake worker")
            })
            .collect();
        Ok(IntakeService { inner, workers })
    }
}

/// The unified intake facade. See the module docs for the architecture.
///
/// # Example
///
/// ```
/// use grs_deploy::service::IntakeService;
/// use grs_runtime::{record, RunConfig};
/// use grs_patterns::find;
///
/// let service = IntakeService::builder().workers(1).start().unwrap();
/// let (_, trace) = record(
///     &find("missing_lock").unwrap().racy_program(),
///     &RunConfig::with_seed(3),
/// );
/// let summary = service.submit_trace(trace.encode(), 0).unwrap();
/// assert_eq!(summary.races as usize, summary.filed.len() + summary.duplicates as usize);
/// let stats = service.shutdown().unwrap();
/// assert_eq!(stats.traces, 1);
/// ```
pub struct IntakeService {
    inner: Arc<ServiceInner>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl fmt::Debug for IntakeService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IntakeService")
            .field("workers", &self.workers.len())
            .field("queue_depth", &self.inner.queue_depth)
            .finish_non_exhaustive()
    }
}

/// A cloneable submission handle — what uploader threads and the
/// [`IntakeServer`]'s connection handlers hold. The [`IntakeService`]
/// itself stays with the owner, which alone can snapshot and shut down.
#[derive(Clone)]
pub struct IntakeHandle {
    inner: Arc<ServiceInner>,
}

impl fmt::Debug for IntakeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IntakeHandle").finish_non_exhaustive()
    }
}

macro_rules! shared_intake_api {
    () => {
        /// Submits one already-detected race report on `day` —
        /// synchronous, bypassing the trace queue.
        ///
        /// # Errors
        ///
        /// [`IntakeError::ShutDown`] after shutdown.
        pub fn submit(&self, report: &RaceReport, day: u32) -> Result<FileOutcome, IntakeError> {
            if self.inner.shut_down.load(Ordering::Acquire) {
                return Err(IntakeError::ShutDown);
            }
            Ok(self.inner.file_report(report, day))
        }

        /// Submits a batch of reports.
        ///
        /// # Errors
        ///
        /// [`IntakeError::ShutDown`] after shutdown.
        pub fn submit_batch(
            &self,
            reports: &[RaceReport],
            day: u32,
        ) -> Result<Vec<FileOutcome>, IntakeError> {
            reports.iter().map(|r| self.submit(r, day)).collect()
        }

        /// Files one already-deduplicated [`RaceBatch`](crate::batch::RaceBatch)
        /// (a campaign day's output) and returns the per-fingerprint
        /// outcomes in fingerprint order. Because the batch is already
        /// deduplicated, every `Duplicate` here means an open task from a
        /// previous day — cross-day dedup, not within-batch noise.
        ///
        /// # Errors
        ///
        /// [`IntakeError::ShutDown`] after shutdown.
        pub fn submit_race_batch(
            &self,
            batch: &crate::batch::RaceBatch,
            day: u32,
        ) -> Result<Vec<(crate::fingerprint::Fingerprint, FileOutcome)>, IntakeError> {
            batch
                .iter()
                .map(|(fp, report)| Ok((fp, self.submit(report, day)?)))
                .collect()
        }

        /// Uploads an encoded `.grtrace` and blocks for the outcome:
        /// enqueue, decode, replay through the detector, file every race.
        ///
        /// # Errors
        ///
        /// [`IntakeError::Busy`] when the queue is full (backpressure —
        /// retry after the hint), [`IntakeError::Malformed`] when the
        /// bytes don't decode, [`IntakeError::ShutDown`] after shutdown.
        pub fn submit_trace(
            &self,
            trace: Vec<u8>,
            day: u32,
        ) -> Result<IntakeSummary, IntakeError> {
            self.inner.enqueue(trace, day)?.wait()
        }

        /// Like [`Self::submit_trace`] but returns immediately with a
        /// ticket to wait on, so one uploader can keep many traces in
        /// flight.
        ///
        /// # Errors
        ///
        /// [`IntakeError::Busy`] or [`IntakeError::ShutDown`] at enqueue
        /// time; processing errors surface from [`IntakeTicket::wait`].
        pub fn enqueue_trace(
            &self,
            trace: Vec<u8>,
            day: u32,
        ) -> Result<IntakeTicket, IntakeError> {
            self.inner.enqueue(trace, day)
        }

        /// Marks a task fixed and invalidates its dedup-cache entry, so
        /// the next detection of the same race files a fresh task.
        ///
        /// # Errors
        ///
        /// [`IntakeError::UnknownTask`] / [`IntakeError::AlreadyFixed`]
        /// for bad ids — client input, not a panic.
        pub fn fix(
            &self,
            task: TaskId,
            day: u32,
            engineer: &str,
            patch: u64,
        ) -> Result<(), IntakeError> {
            let mut core = self
                .inner
                .core
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let fp = core
                .tracker
                .task(task)
                .ok_or(IntakeError::UnknownTask(task))?
                .fingerprint;
            core.tracker.try_fix(task, day, engineer, patch)?;
            self.inner.dedup.invalidate(fp);
            drop(core);
            self.inner.obs(|s| s.add("intake.fixed", 1));
            Ok(())
        }

        /// Runs `f` against the live tracker under the service lock.
        pub fn with_tracker<R>(&self, f: impl FnOnce(&BugTracker) -> R) -> R {
            let core = self
                .inner
                .core
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            f(&core.tracker)
        }

        /// Freezes the current bug database (cheap: clones the task list).
        #[must_use]
        pub fn snapshot(&self) -> Snapshot {
            self.with_tracker(Snapshot::capture)
        }

        /// Current service statistics.
        #[must_use]
        pub fn stats(&self) -> IntakeStats {
            let (total_filed, outstanding) =
                self.with_tracker(|t| (t.total_filed(), t.outstanding()));
            IntakeStats {
                total_filed,
                outstanding,
                traces: self.inner.traces.load(Ordering::Relaxed),
                busy_rejections: self.inner.busy_rejections.load(Ordering::Relaxed),
                malformed: self.inner.malformed.load(Ordering::Relaxed),
                queue_peak: self.inner.queue_peak.load(Ordering::Relaxed),
                dedup_budget_words: self.inner.dedup.budget_words(),
                dedup_words: self.inner.dedup.words(),
                dedup_peak_words: self.inner.dedup.peak_words(),
                dedup_evictions: self.inner.dedup.evictions(),
            }
        }
    };
}

impl IntakeHandle {
    shared_intake_api!();
}

impl IntakeService {
    /// A builder with the defaults: 2 workers, a 256-deep queue, an 8 MiB
    /// dedup budget, no snapshot, no metrics.
    pub fn builder() -> IntakeServiceBuilder {
        IntakeServiceBuilder::default()
    }

    /// A cloneable submission handle for uploader threads.
    #[must_use]
    pub fn handle(&self) -> IntakeHandle {
        IntakeHandle {
            inner: self.inner.clone(),
        }
    }

    shared_intake_api!();

    /// Writes the bug database to the configured snapshot path.
    ///
    /// # Errors
    ///
    /// [`IntakeError::Snapshot`] when no path was configured
    /// ([`SnapshotError::Io`] with `NotFound`) or the write fails.
    pub fn save_snapshot(&self) -> Result<(), IntakeError> {
        let Some(path) = &self.inner.snapshot_path else {
            return Err(IntakeError::Snapshot(SnapshotError::Io(
                std::io::ErrorKind::NotFound,
            )));
        };
        self.snapshot().save(path)?;
        Ok(())
    }

    /// Graceful shutdown: stops accepting work, fails queued-but-unstarted
    /// uploads with [`IntakeError::ShutDown`], joins the workers, persists
    /// a final snapshot when a path is configured, and returns the final
    /// statistics.
    ///
    /// # Errors
    ///
    /// [`IntakeError::Snapshot`] when the final snapshot write fails (the
    /// service is down regardless).
    pub fn shutdown(mut self) -> Result<IntakeStats, IntakeError> {
        self.inner.shut_down.store(true, Ordering::Release);
        self.inner.close_queue();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let stats = self.stats();
        if self.inner.snapshot_path.is_some() {
            self.save_snapshot()?;
        }
        Ok(stats)
    }
}

impl Drop for IntakeService {
    fn drop(&mut self) {
        // Best-effort shutdown for the non-graceful path; `shutdown()`
        // already drained `workers`, making this a no-op after it.
        self.inner.shut_down.store(true, Ordering::Release);
        self.inner.close_queue();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The intake service behind the framed wire protocol, one handler thread
/// per connection, on any [`Transport`].
#[derive(Debug)]
pub struct IntakeServer;

/// A running [`IntakeServer`]'s control handle; [`ServerHandle::shutdown`]
/// stops the accept loop and joins every connection handler.
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    waker: Box<dyn Fn() + Send + Sync>,
    accept: Option<thread::JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
}

impl fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerHandle").finish_non_exhaustive()
    }
}

impl IntakeServer {
    /// Spawns the accept loop. Each connection gets a handler thread that
    /// answers every request frame with exactly one response frame.
    pub fn spawn(handle: IntakeHandle, transport: impl Transport + 'static) -> ServerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let waker = transport.waker();
        let handlers: Arc<Mutex<Vec<thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let stop = stop.clone();
            let handlers = handlers.clone();
            let mut transport = transport;
            thread::Builder::new()
                .name("intake-accept".into())
                .spawn(move || loop {
                    let conn = match transport.accept() {
                        Ok(conn) => conn,
                        Err(_) => break, // transport closed
                    };
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let handle = handle.clone();
                    let handler = thread::Builder::new()
                        .name("intake-conn".into())
                        .spawn(move || serve_connection(&handle, conn))
                        .expect("spawn intake connection handler");
                    handlers
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(handler);
                })
                .expect("spawn intake accept loop")
        };
        ServerHandle {
            stop,
            waker,
            accept: Some(accept),
            handlers,
        }
    }
}

impl ServerHandle {
    /// Stops accepting connections and joins all handler threads (which
    /// exit when their clients disconnect).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        (self.waker)();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let handlers: Vec<_> = self
            .handlers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for handler in handlers {
            let _ = handler.join();
        }
    }
}

fn serve_connection(handle: &IntakeHandle, mut conn: Box<dyn crate::wire::Conn>) {
    loop {
        let frame = match RequestFrame::read_from(&mut conn) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // clean disconnect
            Err(e) => {
                // Protocol error: report it once, then drop the connection
                // (framing is unrecoverable after a desync).
                let _ = ResponseFrame::Malformed {
                    message: e.to_string(),
                }
                .write_to(&mut conn);
                return;
            }
        };
        let response = match frame {
            RequestFrame::Ping => ResponseFrame::Pong,
            RequestFrame::TraceUpload { day, trace } => {
                match handle.submit_trace(trace, day) {
                    Ok(summary) => ResponseFrame::Accepted {
                        filed: summary.filed.len() as u32,
                        duplicates: summary.duplicates,
                        races: summary.races,
                    },
                    Err(IntakeError::Busy { retry_after_ms }) => {
                        ResponseFrame::Busy { retry_after_ms }
                    }
                    Err(e) => ResponseFrame::Malformed {
                        message: e.to_string(),
                    },
                }
            }
        };
        if response.write_to(&mut conn).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::tests::report;
    use grs_patterns::find;
    use grs_runtime::{record, RunConfig};

    fn racy_trace(seed: u64) -> Vec<u8> {
        let (_, trace) = record(
            &find("missing_lock").expect("pattern exists").racy_program(),
            &RunConfig::with_seed(seed),
        );
        trace.encode()
    }

    #[test]
    fn trace_upload_files_and_dedups() {
        let service = IntakeService::builder().workers(2).start().unwrap();
        let first = service.submit_trace(racy_trace(3), 0).unwrap();
        assert!(!first.filed.is_empty(), "a racy trace files at least once");
        // A different seed of the same program is the same logical race.
        let second = service.submit_trace(racy_trace(4), 1).unwrap();
        assert!(second.filed.is_empty(), "same fingerprint suppressed");
        assert!(second.races == 0 || second.duplicates > 0);
        let stats = service.shutdown().unwrap();
        assert_eq!(stats.traces, 2);
        assert!(stats.dedup_words <= stats.dedup_budget_words);
    }

    #[test]
    fn malformed_upload_is_a_typed_error_not_a_panic() {
        let service = IntakeService::builder().workers(1).start().unwrap();
        let err = service.submit_trace(vec![0xde, 0xad], 0).unwrap_err();
        assert!(matches!(err, IntakeError::Malformed(_)));

        // A well-formed 36-byte header claiming 2^60 stacks is malformed
        // too: a worker that panicked reserving for the count would leave
        // the ticket (and this call) waiting forever.
        let mut lying = grs_runtime::TRACE_MAGIC.to_vec();
        lying.extend_from_slice(&grs_runtime::TRACE_FORMAT_VERSION.to_le_bytes());
        lying.extend_from_slice(&[1, 1, b'p', 0]); // one 1-byte string; program = string 0
        lying.extend_from_slice(&1u64.to_le_bytes()); // seed
        lying.extend_from_slice(&[0, 0, 0]); // Strategy::Random, 0 steps, 0 goroutines
        grs_runtime::put_uvarint(&mut lying, 1 << 60); // stack count
        let err = service.submit_trace(lying, 0).unwrap_err();
        assert!(matches!(err, IntakeError::Malformed(_)));

        // So are a 78-byte trace whose one access names address 2^36 and an
        // 81-byte one whose goroutine is u32::MAX - 1: replayed, either
        // would have the detector's flat tables reserve for the id and
        // abort the whole process, not one worker.
        for oversized in [
            include_bytes!("../../../tests/data/oversized_addr.grtrace").to_vec(),
            include_bytes!("../../../tests/data/oversized_gid.grtrace").to_vec(),
        ] {
            let err = service.submit_trace(oversized, 0).unwrap_err();
            assert!(matches!(
                err,
                IntakeError::Malformed(TraceDecodeError::IdOutOfRange { .. })
            ));
        }
        assert_eq!(service.stats().malformed, 4);

        // The one worker survived them all: the next upload is served.
        let served = service.submit_trace(racy_trace(3), 0).unwrap();
        assert!(!served.filed.is_empty());
    }

    #[test]
    fn fix_reopens_the_fingerprint() {
        let service = IntakeService::builder().workers(1).start().unwrap();
        let first = service.submit_trace(racy_trace(3), 0).unwrap();
        let task = first.filed[0];
        service.fix(task, 2, "alice", 700).unwrap();
        assert_eq!(
            service.fix(task, 3, "bob", 701),
            Err(IntakeError::AlreadyFixed(task))
        );
        assert_eq!(
            service.fix(TaskId(9999), 3, "bob", 701),
            Err(IntakeError::UnknownTask(TaskId(9999)))
        );
        let again = service.submit_trace(racy_trace(5), 4).unwrap();
        assert!(
            again.races == 0 || !again.filed.is_empty(),
            "after the fix, a re-detection files fresh"
        );
    }

    #[test]
    fn report_filing_dedups_across_line_shifts_refiles_after_fix_and_counts() {
        let sink = Arc::new(grs_obs::MetricsRegistry::new());
        let service = IntakeService::builder()
            .workers(1)
            .observed(sink.clone())
            .start()
            .unwrap();
        let FileOutcome::Filed { task, .. } = service.submit(&report("F", 10, 0), 0).unwrap()
        else {
            panic!("first must file");
        };
        // Same logical race, different line numbers (unrelated edit).
        assert_eq!(
            service.submit(&report("F", 99, 1), 1).unwrap(),
            FileOutcome::Duplicate
        );
        assert_eq!(service.stats().total_filed, 1);
        service.fix(task, 2, "alice", 7).unwrap();
        assert!(matches!(
            service.submit(&report("F", 10, 2), 3).unwrap(),
            FileOutcome::Filed { .. }
        ));
        let snap = sink.snapshot();
        assert_eq!(snap.counter("intake.filed"), 2);
        assert_eq!(snap.counter("intake.duplicate"), 1);
        assert_eq!(snap.counter("intake.fixed"), 1);
    }

    #[test]
    fn assignee_flows_into_the_task() {
        let mut db = OwnerDb::new();
        db.add_author("HandleRequest", "erin", 4, true);
        let service = IntakeService::builder().workers(1).owners(db).start().unwrap();
        let outcome = service.submit(&report("HandleRequest", 10, 0), 0).unwrap();
        let FileOutcome::Filed { task, assignee } = outcome else {
            panic!("must file");
        };
        assert_eq!(assignee.as_deref(), Some("erin"));
        let filed = service.with_tracker(|t| t.task(task).cloned()).expect("filed");
        assert_eq!(filed.assignee.as_deref(), Some("erin"));
    }

    #[test]
    fn full_queue_rejects_with_busy() {
        // One worker, depth-1 queue, and uploads kept in flight via
        // tickets: the queue must fill and reject.
        let service = IntakeService::builder()
            .workers(1)
            .queue_depth(1)
            .start()
            .unwrap();
        let trace = racy_trace(3);
        let mut busy = 0u32;
        let mut tickets = Vec::new();
        for _ in 0..64 {
            match service.enqueue_trace(trace.clone(), 0) {
                Ok(t) => tickets.push(t),
                Err(IntakeError::Busy { retry_after_ms }) => {
                    assert!(retry_after_ms > 0);
                    busy += 1;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(busy > 0, "burst against a depth-1 queue must backpressure");
        for t in tickets {
            t.wait().unwrap();
        }
        let stats = service.stats();
        assert_eq!(u64::from(busy), stats.busy_rejections);
        assert!(stats.queue_peak <= 1, "the queue never outgrew its cap");
    }

    #[test]
    fn shutdown_fails_queued_work_and_rejects_new() {
        let service = IntakeService::builder().workers(1).start().unwrap();
        let handle = service.handle();
        let stats = service.shutdown().unwrap();
        assert_eq!(stats.traces, 0);
        assert_eq!(
            handle.submit_trace(vec![], 0).unwrap_err(),
            IntakeError::ShutDown
        );
    }

    #[test]
    fn server_round_trips_frames_in_process() {
        use crate::wire::{InProcTransport, RequestFrame, ResponseFrame};
        let service = IntakeService::builder().workers(2).start().unwrap();
        let (transport, connector) = InProcTransport::new();
        let server = IntakeServer::spawn(service.handle(), transport);

        let mut conn = connector.connect().unwrap();
        RequestFrame::Ping.write_to(&mut conn).unwrap();
        assert_eq!(
            ResponseFrame::read_from(&mut conn).unwrap(),
            Some(ResponseFrame::Pong)
        );
        RequestFrame::TraceUpload {
            day: 0,
            trace: racy_trace(3),
        }
        .write_to(&mut conn)
        .unwrap();
        let Some(ResponseFrame::Accepted { filed, races, .. }) =
            ResponseFrame::read_from(&mut conn).unwrap()
        else {
            panic!("expected Accepted");
        };
        assert!(filed >= 1);
        assert!(races >= 1);
        // A garbage payload answers Malformed but keeps the connection.
        RequestFrame::TraceUpload {
            day: 0,
            trace: vec![1, 2, 3],
        }
        .write_to(&mut conn)
        .unwrap();
        assert!(matches!(
            ResponseFrame::read_from(&mut conn).unwrap(),
            Some(ResponseFrame::Malformed { .. })
        ));
        drop(conn);
        server.shutdown();
        service.shutdown().unwrap();
    }
}
