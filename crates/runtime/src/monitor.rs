//! The [`Monitor`] trait — the runtime/detector boundary.
//!
//! The runtime emits a totally ordered [`Event`] stream while the program
//! executes; a monitor consumes it. Race detectors (`grs-detector`) are
//! monitors, but so are the recorder and the stream hasher used in tests and
//! the no-op baseline of the instrumentation-overhead experiment (§3.5
//! reports a 4× test-time increase with the detector on; the benchmark
//! compares [`NullMonitor`] against a real detector).

use std::sync::Arc;

use grs_obs::Fnv1a;

use crate::depot::{DepotStats, NameId, StackDepot};
use crate::event::Event;

/// Consumes the instrumentation event stream of one program run.
///
/// Implementations run while the kernel state is borrowed, so they must not
/// call back into the runtime. They receive events in a total order
/// consistent with the executed interleaving.
pub trait Monitor: Send {
    /// Called once before the run's first event with the run's stack
    /// depot. Monitors that need to resolve the [`StackId`]s and
    /// [`NameId`]s carried by events (race detectors building reports)
    /// clone the handle here; the default implementation ignores it.
    ///
    /// [`StackId`]: crate::StackId
    fn on_run_start(&mut self, depot: &StackDepot) {
        let _ = depot;
    }

    /// Called once per instrumentation event, in execution order.
    fn on_event(&mut self, event: &Event);

    /// Called once when the run finishes (all goroutines ended, leaked, or
    /// the run deadlocked). A good place to flush per-run state.
    fn on_run_end(&mut self) {}

    /// True when the monitor ignores all events. The runtime then skips
    /// event construction entirely (no stack snapshots, no dispatch) while
    /// keeping the schedule identical — modeling a binary compiled
    /// *without* `-race`, which is the §3.5 overhead baseline.
    fn is_noop(&self) -> bool {
        false
    }

    /// Number of shadow words (per-variable detector metadata slots) the
    /// monitor currently holds — the §3.5 memory-overhead statistic,
    /// surfaced through [`MonitorStats::peak_shadow_words`]. Non-detector
    /// monitors report 0.
    fn shadow_words(&self) -> usize {
        0
    }
}

/// The per-run instrumentation counter block, filled by the runtime and
/// returned on [`crate::RunOutcome::stats`].
///
/// This is the §3.5 overhead experiment made observable: how many events
/// the monitor had to consume, how much distinct calling context the stack
/// depot interned for them, and how much shadow state the detector kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Events dispatched to the monitor (0 under a no-op monitor, which
    /// models the `-race`-off baseline).
    pub events_dispatched: u64,
    /// Stack-depot contents at the end of the run.
    pub depot: DepotStats,
    /// Peak shadow-word count reported by the monitor (see
    /// [`Monitor::shadow_words`]).
    pub peak_shadow_words: usize,
}

/// A monitor that ignores everything — the "race detector off" baseline.
///
/// # Example
///
/// ```
/// use grs_runtime::{NullMonitor, Program, RunConfig, Runtime};
///
/// let p = Program::new("noop", |_ctx| {});
/// let (outcome, _mon) = Runtime::new(RunConfig::with_seed(1)).run(&p, NullMonitor);
/// assert!(outcome.is_clean());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct NullMonitor;

impl Monitor for NullMonitor {
    fn on_event(&mut self, _event: &Event) {}

    fn is_noop(&self) -> bool {
        true
    }
}

/// A monitor that folds the event stream into a single `u64` digest.
///
/// Two runs produce the same digest iff they emitted the same event
/// sequence, which makes this the cheapest possible witness of schedule
/// determinism: same seed ⇒ same digest, across repeated runs, processes,
/// and worker-thread counts. The fold is FNV-1a over each event's
/// [`Event::hash_named`] (names hashed as their text, from the run's depot)
/// via a deterministic per-event hasher — `DefaultHasher::new()` is
/// documented to use a fixed (unkeyed) state, unlike `RandomState`, so
/// digests are stable within a compiler release.
///
/// # Example
///
/// ```
/// use grs_runtime::{Program, RunConfig, Runtime, TraceHasher};
///
/// let p = Program::new("two", |ctx| {
///     let x = ctx.cell("x", 0i64);
///     ctx.write(&x, 1);
/// });
/// let (_, h1) = Runtime::new(RunConfig::with_seed(7)).run(&p, TraceHasher::new());
/// let (_, h2) = Runtime::new(RunConfig::with_seed(7)).run(&p, TraceHasher::new());
/// assert_eq!(h1.digest(), h2.digest());
/// ```
#[derive(Debug, Clone)]
pub struct TraceHasher {
    digest: Fnv1a,
    events: u64,
    /// The run's depot, where the names events mention are interned.
    depot: StackDepot,
    /// The names seen so far this run, copied out of the depot on first
    /// sight so an event costs no lock.
    names: Vec<Arc<str>>,
}

impl Default for TraceHasher {
    fn default() -> Self {
        TraceHasher {
            digest: Fnv1a::new(),
            events: 0,
            depot: StackDepot::new(),
            names: Vec::new(),
        }
    }
}

impl TraceHasher {
    /// Creates a fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The digest of all events observed so far.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest.finish()
    }

    /// Number of events folded in.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }
}

impl Monitor for TraceHasher {
    fn on_run_start(&mut self, depot: &StackDepot) {
        self.depot = depot.clone();
        self.names.clear();
    }

    fn on_event(&mut self, event: &Event) {
        use std::hash::Hasher;
        for id in event.names() {
            while self.names.len() <= id.index() {
                let next = NameId(self.names.len() as u32);
                self.names.push(self.depot.name(next));
            }
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        event.hash_named(&self.names, &mut h);
        // FNV-1a combine step over the per-event hashes.
        self.digest.write(&h.finish().to_le_bytes());
        self.events += 1;
    }
}

/// Object-safe bridge that lets the kernel hand a type-erased monitor back
/// to [`crate::Runtime::run`], which downcasts it to the caller's concrete
/// type.
pub(crate) trait AnyMonitor: Monitor {
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;
}

impl<M: Monitor + std::any::Any> AnyMonitor for M {
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

impl<M: Monitor + ?Sized> Monitor for Box<M> {
    fn on_run_start(&mut self, depot: &StackDepot) {
        (**self).on_run_start(depot);
    }

    fn on_event(&mut self, event: &Event) {
        (**self).on_event(event);
    }

    fn on_run_end(&mut self) {
        (**self).on_run_end();
    }

    fn is_noop(&self) -> bool {
        (**self).is_noop()
    }

    fn shadow_words(&self) -> usize {
        (**self).shadow_words()
    }
}
