//! Flat-shadow ↔ legacy-shadow differential suite.
//!
//! The flat, index-addressed shadow tables (PR 7) replace the original
//! HashMap-backed ones in FastTrack, its pure-VC ablation, Eraser, and the
//! TSan hybrid. The legacy implementation stays compiled as
//! `grs_detector::legacy`, and this suite pins the rewrite to it
//! **bit-identically**: same report text in the same order, same site
//! keys, same step counts, same peak shadow words — live, scalar replay,
//! and batch replay at several chunk sizes.

use grs_detector::{replay_decoded, DetectorArena, DetectorChoice, ReplayOutcome};
use grs_runtime::{record, DecodedTrace, Program, RunConfig, StackDepot};

/// Programs spanning every synchronization primitive the detectors model:
/// locks (both modes), channels (buffered/unbuffered/close), WaitGroup,
/// Once, atomics, plus racy and race-free variants of each shape.
fn corpus() -> Vec<Program> {
    let mut programs = Vec::new();

    // Partial locking: one side locks, the other doesn't (racy).
    programs.push(Program::new("partial_lock", |ctx| {
        let mu = ctx.mutex("mu");
        let x = ctx.cell("x", 0i64);
        let (mu2, x2) = (mu.clone(), x.clone());
        ctx.go("locked", move |ctx| {
            mu2.lock(ctx);
            ctx.update(&x2, |v| v + 1);
            mu2.unlock(ctx);
        });
        ctx.update(&x, |v| v + 1);
    }));

    // Channel-synchronized (clean for HB detectors, Eraser false positive).
    programs.push(Program::new("chan_synced", |ctx| {
        let x = ctx.cell("x", 0i64);
        let ch = ctx.chan::<()>("done", 0);
        let (x2, tx) = (x.clone(), ch.clone());
        ctx.go("writer", move |ctx| {
            ctx.write(&x2, 1);
            tx.send(ctx, ());
        });
        let _ = ch.recv(ctx);
        let _ = ctx.read(&x);
    }));

    // RWLock: reader holds read mode, writer wrongly also takes read mode.
    programs.push(Program::new("rwlock_write_under_rlock", |ctx| {
        let rw = ctx.rwmutex("rw");
        let x = ctx.cell("x", 0i64);
        let (rw2, x2) = (rw.clone(), x.clone());
        ctx.go("bad_writer", move |ctx| {
            rw2.rlock(ctx);
            ctx.write(&x2, 7);
            rw2.runlock(ctx);
        });
        rw.rlock(ctx);
        let _ = ctx.read(&x);
        rw.runlock(ctx);
    }));

    // WaitGroup + Once + shared counter: wg joins make it clean; a stray
    // unsynchronized read keeps a race reachable on some schedules.
    programs.push(Program::new("wg_once_mixed", |ctx| {
        let wg = ctx.waitgroup("wg");
        let once = ctx.once("init");
        let x = ctx.cell("x", 0i64);
        for _ in 0..3 {
            wg.add(ctx, 1);
            let (wg, once, x) = (wg.clone(), once.clone(), x.clone());
            ctx.go("worker", move |ctx| {
                let x2 = x.clone();
                once.do_once(ctx, move |ctx| ctx.write(&x2, 1));
                let _ = ctx.read(&x);
                wg.done(ctx);
            });
        }
        wg.wait(ctx);
        ctx.write(&x, 99);
    }));

    // Atomic publish/acquire plus a plain racy counter on the side.
    programs.push(Program::new("atomic_publish", |ctx| {
        let data = ctx.cell("data", 0i64);
        let flag = ctx.atomic("flag", 0);
        let plain = ctx.cell("plain", 0i64);
        let (d2, f2, p2) = (data.clone(), flag.clone(), plain.clone());
        ctx.go("producer", move |ctx| {
            ctx.write(&d2, 42);
            f2.store(ctx, 1);
            ctx.update(&p2, |v| v + 1);
        });
        if flag.load(ctx) == 1 {
            let _ = ctx.read(&data);
        }
        ctx.update(&plain, |v| v + 1);
    }));

    // Buffered channels with close: rendezvous + close edges.
    programs.push(Program::new("buffered_close", |ctx| {
        let x = ctx.cell("x", 0i64);
        let ch = ctx.chan::<i64>("ch", 2);
        let (x2, tx) = (x.clone(), ch.clone());
        ctx.go("producer", move |ctx| {
            ctx.write(&x2, 5);
            tx.send(ctx, 1);
            tx.send(ctx, 2);
            tx.close(ctx);
        });
        while !ch.recv(ctx).is_closed() {}
        let _ = ctx.read(&x);
    }));

    programs
}

const SEEDS: u64 = 16;

fn assert_same_reports(
    label: &str,
    flat: &[grs_detector::RaceReport],
    oracle: &[grs_detector::RaceReport],
) {
    assert_eq!(flat.len(), oracle.len(), "{label}: report count");
    for (f, o) in flat.iter().zip(oracle.iter()) {
        assert_eq!(f.site_key(), o.site_key(), "{label}: site key");
        assert_eq!(format!("{f}"), format!("{o}"), "{label}: report text");
    }
}

/// Live runs: the flat arena and the oracle arena must be bit-identical on
/// steps, reports, and monitor statistics for every program × seed ×
/// algorithm cell.
#[test]
fn live_runs_match_oracle() {
    let mut flat = DetectorArena::new();
    let mut oracle = DetectorArena::new_oracle();
    // Two arenas over the same implementation would agree vacuously.
    assert_ne!(format!("{flat:?}"), format!("{oracle:?}"));
    let mut total_reports = 0usize;
    for p in corpus() {
        for seed in 0..SEEDS {
            for choice in DetectorChoice::all_with_ablation() {
                let cfg = RunConfig::with_seed(seed);
                let (fo, fr) = flat.run(choice, &p, cfg.clone());
                let (oo, or) = oracle.run(choice, &p, cfg);
                let label = format!("{} seed {seed} {choice}", p.name());
                assert_eq!(fo.steps, oo.steps, "{label}: steps");
                assert_eq!(
                    fo.stats.events_dispatched, oo.stats.events_dispatched,
                    "{label}: events"
                );
                assert_eq!(
                    fo.stats.peak_shadow_words, oo.stats.peak_shadow_words,
                    "{label}: peak shadow words"
                );
                assert_same_reports(&label, &fr, &or);
                total_reports += fr.len();
            }
        }
    }
    // Guard against a vacuous pass: the corpus must actually exercise the
    // race-reporting paths, not just agree on silence.
    assert!(total_reports > 0, "equivalence corpus produced no reports");
}

/// Scalar replay: both arenas replay a recorded trace to the same outcome.
#[test]
fn scalar_replay_matches_oracle() {
    let mut flat = DetectorArena::new();
    let mut oracle = DetectorArena::new_oracle();
    for p in corpus() {
        for seed in 0..SEEDS {
            let (_, trace) = record(&p, &RunConfig::with_seed(seed));
            for choice in DetectorChoice::all_with_ablation() {
                let f = flat.replay(choice, &trace);
                let o = oracle.replay(choice, &trace);
                let label = format!("{} seed {seed} {choice} (scalar)", p.name());
                assert_eq!(f.events, o.events, "{label}: events");
                assert_eq!(
                    f.peak_shadow_words, o.peak_shadow_words,
                    "{label}: peak shadow words"
                );
                assert_same_reports(&label, &f.reports, &o.reports);
            }
        }
    }
}

/// Batch replay: the flat detectors' SoA hot loop, at chunk sizes 1, 2, a
/// prime, and the default, against the oracle's scalar-core replay of the
/// same decoded trace. The chunking must be invisible in every output.
#[test]
fn batch_replay_matches_oracle_at_every_chunk_size() {
    let mut flat = DetectorArena::new();
    let mut oracle = DetectorArena::new_oracle();
    for p in corpus() {
        for seed in 0..SEEDS / 2 {
            let (_, trace) = record(&p, &RunConfig::with_seed(seed));
            let bytes = trace.encode();
            for chunk in [1usize, 2, 61, 4096] {
                let decoded = DecodedTrace::decode_with_chunk(&bytes, chunk)
                    .expect("just-encoded trace decodes");
                assert_eq!(decoded.len(), trace.events.len());
                let choices = DetectorChoice::all_with_ablation();
                let f = flat.replay_many_decoded_observed(
                    &decoded,
                    &choices,
                    &grs_obs::NULL_SINK,
                );
                let o = oracle.replay_many_decoded_observed(
                    &decoded,
                    &choices,
                    &grs_obs::NULL_SINK,
                );
                for ((cf, fout), (co, oout)) in f.iter().zip(o.iter()) {
                    assert_eq!(cf, co);
                    let label =
                        format!("{} seed {seed} {cf} chunk {chunk} (batch)", p.name());
                    assert_eq!(fout.events, oout.events, "{label}: events");
                    assert_eq!(
                        fout.peak_shadow_words, oout.peak_shadow_words,
                        "{label}: peak shadow words"
                    );
                    assert_same_reports(&label, &fout.reports, &oout.reports);
                }
            }
        }
    }
}

/// The standalone `replay_decoded` driver agrees with the scalar
/// `replay_trace` driver on the flat detectors themselves (no oracle in
/// the loop): one detector, both drivers, same everything.
#[test]
fn replay_decoded_driver_matches_scalar_driver() {
    use grs_detector::{replay_trace, FastTrack, Tsan};
    let p = &corpus()[0];
    for seed in 0..SEEDS {
        let (_, trace) = record(p, &RunConfig::with_seed(seed));
        let bytes = trace.encode();
        let decoded = DecodedTrace::decode(&bytes).expect("decodes");
        let mut ft = FastTrack::new();
        let mut tsan = Tsan::new();
        let depot = StackDepot::new();
        let scalar: ReplayOutcome = replay_trace(&mut ft, &trace, &depot);
        let batched: ReplayOutcome = replay_decoded(&mut ft, &decoded, &depot);
        assert_eq!(scalar.events, batched.events);
        assert_eq!(scalar.peak_shadow_words, batched.peak_shadow_words);
        assert_same_reports("driver ft", &batched.reports, &scalar.reports);
        let scalar = replay_trace(&mut tsan, &trace, &depot);
        let batched = replay_decoded(&mut tsan, &decoded, &depot);
        assert_eq!(scalar.peak_shadow_words, batched.peak_shadow_words);
        assert_same_reports("driver tsan", &batched.reports, &scalar.reports);
    }
}
