//! The detector seam: the [`Detector`] trait, and offline replay of a
//! recorded trace through any implementation of it.
//!
//! Every detector in this crate is *schedule-independent*: its entire
//! analysis is a fold over the totally ordered event stream delivered to
//! [`Monitor::on_event`], and the runtime's scheduler never consults the
//! monitor. FastTrack is literally defined over a trace (Flanagan &
//! Freund), and Eraser/TSan likewise only see events. The live path and
//! the offline path are therefore two drivers of the same [`Monitor`]
//! methods: `on_run_start` resets per-run shadow state and attaches the
//! depot, `on_event` consumes one event, `on_run_end` flushes. A
//! [`Detector`] adds only what a monitor lacks — a way to take the reports
//! out, and a whole-trace entry point for the struct-of-arrays hot loop.
//!
//! The replay drivers also mirror the runtime kernel's bookkeeping —
//! events dispatched, peak shadow words sampled after every event *and*
//! once after the end-of-run flush — so a replayed run's statistics are
//! bit-identical to the live run's [`MonitorStats`], not just its reports.
//!
//! [`MonitorStats`]: grs_runtime::MonitorStats

use grs_runtime::{DecodedTrace, Monitor, StackDepot, Trace};

use crate::report::RaceReport;

/// A race detector: a [`Monitor`] whose findings can be taken out.
///
/// Implemented by every algorithm in this crate (FastTrack and its
/// pure-vector-clock ablation, Eraser, the TSan hybrid). The contract: for
/// a trace recorded from a live run, `on_run_start` + one `on_event` per
/// recorded event + `on_run_end` must leave reports bit-identical to what
/// the same detector would have produced monitoring that run live.
pub trait Detector: Monitor + std::fmt::Debug {
    /// Takes the accumulated race reports, leaving the detector reusable
    /// for the next run or trace.
    fn take_reports(&mut self) -> Vec<RaceReport>;

    /// Consumes an entire batch-decoded event stream — a branch-light loop
    /// over the plain lanes, no `Event` materialization, no `Arc` clones —
    /// returning the peak shadow-word count sampled after each event. Must
    /// leave the detector exactly where one [`Monitor::on_event`] per
    /// decoded event would.
    fn replay_decoded_events(&mut self, decoded: &DecodedTrace) -> usize;
}

/// What one offline analysis of a trace produced.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The races the detector reported, in detection order.
    pub reports: Vec<RaceReport>,
    /// Events fed to the detector — equals the live run's
    /// `events_dispatched` (the recorder saw every dispatched event).
    pub events: u64,
    /// Peak shadow words, sampled exactly like the live kernel does (after
    /// every event, and once more after the end-of-run flush).
    pub peak_shadow_words: usize,
}

/// Ends a replay whose events have all been fed: the end-of-run flush, the
/// reports, and the kernel's final shadow sample.
fn finish(detector: &mut (impl Detector + ?Sized), events: usize, peak: usize) -> ReplayOutcome {
    detector.on_run_end();
    ReplayOutcome {
        reports: detector.take_reports(),
        events: events as u64,
        peak_shadow_words: peak.max(detector.shadow_words()),
    }
}

/// Replays `trace` through `detector` one [`Event`](grs_runtime::Event) at
/// a time, rebuilding the trace's depot snapshot into `depot` first.
///
/// The rebuilt depot reproduces the recorded id assignment exactly
/// (first-intern order), so the `StackId`s carried by replayed access
/// events resolve to the same stacks the live run saw.
pub fn replay_trace(
    detector: &mut (impl Detector + ?Sized),
    trace: &Trace,
    depot: &StackDepot,
) -> ReplayOutcome {
    trace.rebuild_depot_into(depot);
    detector.on_run_start(depot);
    let mut peak = 0usize;
    for event in &trace.events {
        detector.on_event(event);
        peak = peak.max(detector.shadow_words());
    }
    finish(detector, trace.events.len(), peak)
}

/// Replays a batch-decoded trace through `detector` — the fast path.
///
/// Rebuilds the decoded depot snapshot into `depot`, then drives the
/// detector's batch loop over the event lanes. Produces a
/// [`ReplayOutcome`] bit-identical to [`replay_trace`] on the same trace
/// (same reports in the same order, same event count, same peak-shadow
/// sampling), while skipping per-event enum materialization entirely.
pub fn replay_decoded(
    detector: &mut (impl Detector + ?Sized),
    decoded: &DecodedTrace,
    depot: &StackDepot,
) -> ReplayOutcome {
    decoded.rebuild_depot_into(depot);
    replay_decoded_prepared(detector, decoded, depot)
}

/// [`replay_decoded`] against a depot that already holds the decoded
/// trace's stacks (rebuilt once and shared across several detectors by the
/// arena's fan-out).
pub fn replay_decoded_prepared(
    detector: &mut (impl Detector + ?Sized),
    decoded: &DecodedTrace,
    depot: &StackDepot,
) -> ReplayOutcome {
    detector.on_run_start(depot);
    let peak = detector.replay_decoded_events(decoded);
    finish(detector, decoded.len(), peak)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::explorer::DetectorChoice;
    use crate::fasttrack::FastTrack;
    use grs_runtime::{record, Program, RunConfig};

    /// One locked and one unlocked increment of a shared counter.
    pub(crate) fn racy_program() -> Program {
        Program::new("racy_counter", |ctx| {
            let x = ctx.cell("x", 0i64);
            let mu = ctx.mutex("mu");
            let done = ctx.chan::<()>("done", 2);
            for g in 0..2 {
                let (x, mu, done) = (x.clone(), mu.clone(), done.clone());
                ctx.go("w", move |ctx| {
                    if g == 0 {
                        mu.lock(ctx);
                        ctx.update(&x, |v| v + 1);
                        mu.unlock(ctx);
                    } else {
                        ctx.update(&x, |v| v + 1);
                    }
                    done.send(ctx, ());
                });
            }
            for _ in 0..2 {
                let _ = done.recv(ctx);
            }
        })
    }

    #[test]
    fn replay_matches_live_for_every_algorithm() {
        let p = racy_program();
        for seed in 0..16 {
            let cfg = RunConfig::with_seed(seed);
            let (outcome, trace) = record(&p, &cfg);
            for choice in DetectorChoice::all_with_ablation() {
                let (live_o, live_r) = choice.run(&p, cfg.clone());
                let replayed = choice.replay(&trace);
                assert_eq!(replayed.events, live_o.stats.events_dispatched);
                assert_eq!(
                    replayed.peak_shadow_words, live_o.stats.peak_shadow_words,
                    "{choice} seed {seed}: shadow peak"
                );
                assert_eq!(outcome.steps, live_o.steps);
                assert_eq!(replayed.reports.len(), live_r.len(), "{choice} seed {seed}");
                for (a, b) in replayed.reports.iter().zip(live_r.iter()) {
                    assert_eq!(format!("{a}"), format!("{b}"), "{choice} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn detector_is_reusable_across_traces() {
        let p = racy_program();
        let depot = StackDepot::new();
        let mut ft = FastTrack::new();
        for seed in [3u64, 9, 3] {
            let (_, trace) = record(&p, &RunConfig::with_seed(seed));
            let (_, live) = DetectorChoice::FastTrack.run(&p, RunConfig::with_seed(seed));
            let out = replay_trace(&mut ft, &trace, &depot);
            assert_eq!(out.reports.len(), live.len(), "seed {seed}");
        }
    }
}
