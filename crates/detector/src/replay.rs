//! The detector seam: the [`Detector`] trait, and offline replay of a
//! recorded trace through any implementation of it.
//!
//! Every detector in this crate is *schedule-independent*: its entire
//! analysis is a fold over the totally ordered event stream delivered to
//! [`Monitor::on_event`], and the runtime's scheduler never consults the
//! monitor. FastTrack is literally defined over a trace (Flanagan &
//! Freund), and Eraser and the hybrid likewise only see events. The live
//! path and the offline path are therefore two drivers of the same
//! [`Monitor`] methods over the same `Copy` [`Event`] record:
//! `on_run_start` resets per-run shadow state and attaches the depot,
//! `on_event` consumes one event, `on_run_end` flushes. A [`Detector`] adds
//! only what a monitor lacks — a way to take the reports out — and the one
//! replay loop of a detector used alone, [`Detector::replay_events`].
//!
//! The replay drivers also mirror the runtime kernel's bookkeeping —
//! events dispatched, and the detector's own peak shadow words read once
//! after the end-of-run flush — so a replayed run's statistics are
//! bit-identical to the live run's [`MonitorStats`], not just its reports.
//!
//! [`MonitorStats`]: grs_runtime::MonitorStats

use grs_runtime::{DecodedTrace, Event, Monitor, StackDepot, Trace};

use crate::report::RaceReport;

/// A race detector: a [`Monitor`] whose findings can be taken out.
///
/// Implemented by both detector types in this crate:
/// [`FastTrack`](crate::FastTrack) (with its pure-vector-clock ablation and
/// the hybrid) and [`Eraser`](crate::Eraser). The contract: for a trace
/// recorded from a live run, `on_run_start` + one `on_event` per recorded
/// event + `on_run_end` must leave reports bit-identical to what the same
/// detector would have produced monitoring that run live.
pub trait Detector: Monitor + std::fmt::Debug {
    /// Takes the accumulated race reports, leaving the detector reusable
    /// for the next run or trace.
    fn take_reports(&mut self) -> Vec<RaceReport>;

    /// Feeds `events` through [`Monitor::on_event`] in order. Every replay
    /// of a lone detector runs this one loop. It is a provided method, so
    /// each detector's copy is compiled against its own `on_event`: the
    /// per-event call is static and inlinable, and a whole trace costs one
    /// virtual call through `dyn Detector`.
    fn replay_events(&mut self, events: &[Event]) {
        for event in events {
            self.on_event(event);
        }
    }
}

/// What one offline analysis of a trace produced.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The races the detector reported, in detection order.
    pub reports: Vec<RaceReport>,
    /// Events fed to the detector — equals the live run's
    /// `events_dispatched` (the recorder saw every dispatched event).
    pub events: u64,
    /// The detector's [`Monitor::peak_shadow_words`] after the end-of-run
    /// flush, read as the live kernel reads it.
    pub peak_shadow_words: usize,
}

/// Replays `trace` through `detector`, rebuilding the trace's depot
/// snapshot into `depot` first.
///
/// The rebuilt depot reproduces the recorded id assignment exactly
/// (first-intern order), so the `StackId`s and `NameId`s carried by
/// replayed events resolve to the stacks and names the live run saw. Several
/// detectors over one trace are the arena's one-pass fan-out,
/// [`DetectorArena::replay_many_decoded_observed`](crate::DetectorArena::replay_many_decoded_observed).
pub fn replay_trace(
    detector: &mut (impl Detector + ?Sized),
    trace: &Trace,
    depot: &StackDepot,
) -> ReplayOutcome {
    trace.rebuild_depot_into(depot);
    detector.on_run_start(depot);
    detector.replay_events(&trace.events);
    detector.on_run_end();
    ReplayOutcome {
        reports: detector.take_reports(),
        events: trace.events.len() as u64,
        peak_shadow_words: detector.peak_shadow_words(),
    }
}

/// [`replay_trace`] of a freshly decoded trace.
pub fn replay_decoded(
    detector: &mut (impl Detector + ?Sized),
    decoded: &DecodedTrace,
    depot: &StackDepot,
) -> ReplayOutcome {
    replay_trace(detector, decoded, depot)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::arena::DetectorChoice;
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
