//! What an offline analysis of a recorded trace produces, and the one
//! lone detector left outside the arena.
//!
//! Every detector in this crate is *schedule-independent*: its entire
//! analysis is a fold over the totally ordered event stream delivered to
//! [`Monitor::on_event`](grs_runtime::Monitor::on_event), and the runtime's
//! scheduler never consults the monitor. FastTrack is literally defined
//! over a trace (Flanagan & Freund), and Eraser and the hybrid likewise
//! only see events. So a recorded trace replays through the arena's
//! watchers ([`DetectorArena::analyze`](crate::DetectorArena::analyze)) to
//! the races the live run found, and a [`ReplayOutcome`] mirrors the
//! kernel's bookkeeping too — events dispatched, and each detector's peak
//! shadow words — so a replayed run's statistics are bit-identical to the
//! live run's [`MonitorStats`](grs_runtime::MonitorStats), not just its
//! reports.

use grs_runtime::{DecodedTrace, StackDepot};

use crate::arena::{DetectorChoice, Watchers};
use crate::report::RaceReport;

/// What one offline analysis of a trace produced.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The races the detector reported, in detection order.
    pub reports: Vec<RaceReport>,
    /// Events fed to the detector — equals the live run's
    /// `events_dispatched` (the recorder saw every dispatched event).
    pub events: u64,
    /// The detector's peak shadow words over the trace, as the live
    /// kernel reads them.
    pub peak_shadow_words: usize,
}

/// FastTrack as a lone detector, for [`replay_decoded`]: the arena's
/// detector assembly without the arena's depot. `benchmark/` is its only
/// caller; the change that next edits the benchmark deletes it.
#[derive(Debug)]
pub struct FastTrack(Watchers);

impl FastTrack {
    /// FastTrack on its epoch fast path.
    #[must_use]
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        FastTrack(Watchers::default())
    }
}

/// Replays `decoded` through `detector`, rebuilding the trace's depot
/// snapshot into `depot` first: the reports, events and peak shadow words
/// of [`DetectorArena::replay`](crate::DetectorArena::replay) under
/// [`DetectorChoice::FastTrack`]. `benchmark/` is its only caller; the
/// change that next edits the benchmark deletes it.
pub fn replay_decoded(
    detector: &mut FastTrack,
    decoded: &DecodedTrace,
    depot: &StackDepot,
) -> ReplayOutcome {
    let choice = DetectorChoice::FastTrack;
    decoded.rebuild_depot_into(depot);
    detector.0.watch(&[choice], depot, &decoded.events);
    detector.0.outcome(choice, decoded.events.len() as u64)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
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
}
