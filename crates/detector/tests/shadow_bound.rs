//! Regression test for the FastTrack `Shared`-read-map retention leak.
//!
//! When a variable's read state inflates to `Shared` (a vector-clock map of
//! reader entries), a later write that happens-after those reads makes the
//! entries redundant: any future access unordered with a dropped read is
//! also unordered with the dominating write, so the write epoch alone still
//! flags the race. Before the prune, a long-running process that cycles
//! through `readers read → barrier → writer writes` accumulated one map
//! entry per reader *per round* — O(rounds) shadow memory for O(1) live
//! state. The prune drops write-dominated entries on each write, so the
//! footprint is bounded by the per-round reader count.

use grs_detector::DetectorChoice;
use grs_runtime::{record, DecodedTrace, Program, RunConfig};

const ROUNDS: i64 = 24;
const READERS: i64 = 4;

/// `ROUNDS` cycles of: spawn `READERS` goroutines that each read `x`, wait
/// for all of them (channel barrier → happens-before), then write `x`.
fn cyclic_readers() -> Program {
    Program::new("cyclic_readers", |ctx| {
        let x = ctx.cell("x", 0i64);
        let done = ctx.chan::<()>("done", READERS as usize);
        for round in 0..ROUNDS {
            for _ in 0..READERS {
                let (x, done) = (x.clone(), done.clone());
                ctx.go("reader", move |ctx| {
                    let _ = ctx.read(&x);
                    done.send(ctx, ());
                });
            }
            for _ in 0..READERS {
                let _ = done.recv(ctx);
            }
            // Happens-after every read of this round: the prune point.
            ctx.write(&x, round);
        }
    })
}

#[test]
fn shared_read_maps_stay_bounded_across_rounds() {
    let (outcome, reports) =
        DetectorChoice::FastTrack.run(&cyclic_readers(), RunConfig::with_seed(7));
    // The program is race-free: every read is joined before the write.
    assert!(reports.is_empty(), "barriered program must be clean");

    // Shadow accounting: `x` costs 2 fixed words plus its live read
    // history; the channel has no var shadow. With the prune, the history
    // peaks at one entry per same-round reader (plus the main goroutine's
    // own reads-after-write bookkeeping) — independent of ROUNDS. The
    // leaking implementation retains every round's readers and peaks at
    // ROUNDS * READERS entries.
    let bound = 2 + (READERS as usize) + 4;
    let leak_scale = (ROUNDS * READERS) as usize;
    assert!(
        outcome.stats.peak_shadow_words <= bound,
        "peak shadow words {} exceeds the O(readers) bound {} (leak would reach ~{})",
        outcome.stats.peak_shadow_words,
        bound,
        leak_scale
    );
    // Guard the test itself: the leaking peak must be well above the bound,
    // otherwise this assertion could never catch the regression.
    assert!(leak_scale > 2 * bound);
}

/// The same O(readers) bound through replay of the decoded trace: the flat
/// shadow arrays (PR 7) must reproduce the live path's peak exactly.
/// A flat table that forgot the prune — or that counted never-touched
/// index holes as shadow words — would blow past the bound here even when
/// the live path stays tight.
#[test]
fn batch_replay_keeps_shared_read_history_bounded() {
    let p = cyclic_readers();
    let cfg = RunConfig::with_seed(7);
    let (live, _) = DetectorChoice::FastTrack.run(&p, cfg.clone());
    let (_, trace) = record(&p, &cfg);
    let bytes = trace.encode();
    let decoded = DecodedTrace::decode(&bytes).expect("just-encoded trace decodes");
    let out = DetectorChoice::FastTrack.replay(&decoded);
    assert!(out.reports.is_empty(), "barriered program must be clean");
    assert_eq!(
        out.peak_shadow_words, live.stats.peak_shadow_words,
        "batch replay must reproduce the live peak exactly"
    );
    let bound = 2 + (READERS as usize) + 4;
    assert!(
        out.peak_shadow_words <= bound,
        "batch-replay peak {} exceeds the O(readers) bound {}",
        out.peak_shadow_words,
        bound
    );
}

#[test]
fn pruning_does_not_suppress_real_races() {
    // Same shape but the final write skips the barrier for the last round:
    // the unjoined readers race with it, and the prune (which only drops
    // write-dominated entries) must keep them.
    let p = Program::new("cyclic_readers_racy_tail", |ctx| {
        let x = ctx.cell("x", 0i64);
        let done = ctx.chan::<()>("done", READERS as usize);
        for round in 0..ROUNDS {
            for _ in 0..READERS {
                let (x, done) = (x.clone(), done.clone());
                ctx.go("reader", move |ctx| {
                    let _ = ctx.read(&x);
                    done.send(ctx, ());
                });
            }
            let joins = if round == ROUNDS - 1 { 0 } else { READERS };
            for _ in 0..joins {
                let _ = done.recv(ctx);
            }
            ctx.write(&x, round);
        }
    });
    let mut detected = false;
    for seed in 0..20 {
        let (_, reports) = DetectorChoice::FastTrack.run(&p, RunConfig::with_seed(seed));
        if !reports.is_empty() {
            detected = true;
            break;
        }
    }
    assert!(detected, "the unbarriered tail round must still race");
}
