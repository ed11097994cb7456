//! The TSan-style combined detector: FastTrack verdicts + lockset context.
//!
//! Go's `-race` is ThreadSanitizer, which the paper describes as
//! "integrating lock-set and happens-before algorithms" (§1, §3.1). The
//! happens-before component decides *whether* two accesses race (precise,
//! no false positives under the observed schedule); the lockset component
//! enriches the report with which locks each side held, which is what makes
//! reports actionable for developers triaging partial-locking bugs
//! (Observation 10).

use grs_runtime::event::Event;
use grs_runtime::{DecodedTrace, Monitor, StackDepot};

use crate::fasttrack::{FastTrack, FastTrackConfig};
use crate::replay::Detector;
use crate::report::{DetectorKind, RaceReport};

/// The combined detector — the default monitor for all experiments.
///
/// # Example
///
/// ```
/// use grs_detector::Tsan;
/// use grs_runtime::{Program, RunConfig, Runtime};
///
/// // Partial locking (§4.9.2): one side locks, the other forgets.
/// let p = Program::new("partial_lock", |ctx| {
///     let mu = ctx.mutex("mu");
///     let x = ctx.cell("x", 0i64);
///     let (mu2, x2) = (mu.clone(), x.clone());
///     ctx.go("locked-writer", move |ctx| {
///         mu2.lock(ctx);
///         ctx.write(&x2, 1);
///         mu2.unlock(ctx);
///     });
///     ctx.sleep(2);
///     let _ = ctx.read(&x); // no lock held!
/// });
/// let mut hit = None;
/// for seed in 0..30 {
///     let (_, tsan) = Runtime::new(RunConfig::with_seed(seed)).run(&p, Tsan::new());
///     if let Some(r) = tsan.into_reports().pop() { hit = Some(r); break; }
/// }
/// let report = hit.expect("race must be detected");
/// // The locked side held a lock; the racy read held none.
/// assert!(report.prior.locks_held.len() + report.current.locks_held.len() == 1);
/// ```
#[derive(Debug)]
pub struct Tsan {
    inner: FastTrack,
}

impl Default for Tsan {
    fn default() -> Self {
        Self::new()
    }
}

impl Tsan {
    /// A fresh combined detector.
    #[must_use]
    pub fn new() -> Self {
        Tsan {
            inner: FastTrack::with_config(FastTrackConfig {
                track_locksets: true,
                kind: DetectorKind::Tsan,
                ..FastTrackConfig::default()
            }),
        }
    }

    /// The races detected so far.
    #[must_use]
    pub fn reports(&self) -> &[RaceReport] {
        self.inner.reports()
    }

    /// Consumes the detector, returning its reports.
    #[must_use]
    pub fn into_reports(self) -> Vec<RaceReport> {
        self.inner.into_reports()
    }

    /// Number of memory accesses processed.
    #[must_use]
    pub fn accesses_processed(&self) -> u64 {
        self.inner.accesses_processed()
    }

    /// Clears all per-run state, keeping allocations warm.
    pub fn reset(&mut self) {
        self.inner.reset();
    }
}

impl Monitor for Tsan {
    fn on_run_start(&mut self, depot: &StackDepot) {
        self.inner.on_run_start(depot);
    }

    fn on_event(&mut self, event: &Event) {
        self.inner.on_event(event);
    }

    fn shadow_words(&self) -> usize {
        self.inner.shadow_words()
    }
}

/// The hybrid is FastTrack with locksets enabled, so both methods are
/// FastTrack's.
impl Detector for Tsan {
    fn take_reports(&mut self) -> Vec<RaceReport> {
        self.inner.take_reports()
    }

    fn replay_decoded_events(&mut self, decoded: &DecodedTrace) -> usize {
        self.inner.replay_decoded_events(decoded)
    }
}
