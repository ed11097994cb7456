//! Seeded property tests for the runtime: randomly generated programs obey
//! the structural invariants no schedule may violate.
//!
//! These ran under `proptest` when the registry was reachable; they now run
//! in tier-1 on the vendored `rand` stub: shapes and seeds are drawn from a
//! fixed-seed `StdRng`, so failures are perfectly reproducible (the case
//! index pins the inputs).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use grs_runtime::event::EventKind;
use grs_runtime::{record, Program, RunConfig, Runtime, Strategy as Sched, Trace};

/// A small random program shape: `workers` goroutines each performing `ops`
/// operations of a given kind, all correctly synchronized.
#[derive(Debug, Clone)]
struct Shape {
    workers: u8,
    ops: u8,
    use_mutex: bool,
    chan_cap: usize,
}

fn gen_shape(rng: &mut StdRng) -> Shape {
    Shape {
        workers: rng.gen_range(1..5u8),
        ops: rng.gen_range(1..6u8),
        use_mutex: rng.gen_bool(0.5),
        chan_cap: rng.gen_range(0..4usize),
    }
}

/// Runs `body` over `cases` shape/seed pairs from a deterministic rng.
fn check(seed: u64, cases: usize, mut body: impl FnMut(usize, Shape, u64)) {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..cases {
        let shape = gen_shape(&mut rng);
        let run_seed = rng.gen_range(0..1000u64);
        body(case, shape, run_seed);
    }
}

fn synchronized_program(shape: &Shape) -> Program {
    let shape = shape.clone();
    Program::new("prop_synced", move |ctx| {
        let mu = ctx.mutex("mu");
        let total = ctx.cell("total", 0i64);
        let ch = ctx.chan::<i64>("ch", shape.chan_cap);
        let wg = ctx.waitgroup("wg");
        for w in 0..shape.workers {
            wg.add(ctx, 1);
            let (mu, total, ch, wg) = (mu.clone(), total.clone(), ch.clone(), wg.clone());
            let shape = shape.clone();
            ctx.go("worker", move |ctx| {
                for i in 0..shape.ops {
                    if shape.use_mutex {
                        mu.lock(ctx);
                        ctx.update(&total, |v| v + 1);
                        mu.unlock(ctx);
                    }
                    ch.send(ctx, i64::from(w) * 100 + i64::from(i));
                }
                wg.done(ctx);
            });
        }
        let expected = u32::from(shape.workers) * u32::from(shape.ops);
        for _ in 0..expected {
            let _ = ch.recv(ctx);
        }
        wg.wait(ctx);
        if shape.use_mutex {
            assert_eq!(ctx.read(&total), i64::from(expected as i32));
        }
    })
}

/// Correctly synchronized programs finish cleanly under every strategy.
#[test]
fn synchronized_programs_run_clean() {
    check(0xB1, 24, |case, shape, seed| {
        let p = synchronized_program(&shape);
        for strategy in [Sched::Random, Sched::RoundRobin, Sched::Pct { depth: 3 }] {
            let cfg = RunConfig::with_seed(seed).strategy(strategy);
            let (outcome, _) = Runtime::new(cfg).run(&p, grs_runtime::NullMonitor);
            assert!(
                outcome.is_clean(),
                "case {case} {strategy:?}/{seed}: {:?} {:?} {:?}",
                outcome.errors,
                outcome.deadlock,
                outcome.leaked
            );
        }
    });
}

/// Identical seeds replay identical event traces; the event stream is a
/// total order with strictly increasing steps.
#[test]
fn traces_replay_and_steps_increase() {
    check(0xB2, 24, |case, shape, seed| {
        let p = synchronized_program(&shape);
        let run = |s| record(&p, &RunConfig::with_seed(s)).1.events;
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a.len(), b.len(), "case {case}");
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.step, y.step, "case {case}");
            assert_eq!(x.gid, y.gid, "case {case}");
        }
        for w in a.windows(2) {
            assert!(w[0].step < w[1].step, "case {case}: steps must strictly increase");
        }
    });
}

/// Channel FIFO: per channel, receive seqs replay the send seqs in order,
/// and every receive has a matching earlier send.
#[test]
fn channel_fifo_invariant() {
    check(0xB3, 24, |case, shape, seed| {
        let p = synchronized_program(&shape);
        let (_, trace) = record(&p, &RunConfig::with_seed(seed));
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        let mut sent_at = std::collections::HashMap::new();
        for e in &trace.events {
            match &e.kind {
                EventKind::ChanSend { seq, .. } => {
                    sends.push(*seq);
                    sent_at.insert(*seq, e.step);
                }
                EventKind::ChanRecv { seq, .. } => {
                    recvs.push(*seq);
                    let s = sent_at.get(seq).copied();
                    assert!(s.is_some(), "case {case}: recv of unseen send {seq}");
                    assert!(s.expect("checked") < e.step, "case {case}: recv before send");
                }
                _ => {}
            }
        }
        // FIFO: both sides observe 0,1,2,... in order.
        let sorted: Vec<u64> = (0..sends.len() as u64).collect();
        assert_eq!(sends, sorted, "case {case}");
        let sorted_r: Vec<u64> = (0..recvs.len() as u64).collect();
        assert_eq!(recvs, sorted_r, "case {case}");
    });
}

/// Lock events alternate acquire/release per lock, and the WaitGroup
/// counter never goes negative in the event stream.
#[test]
fn lock_and_wg_event_invariants() {
    check(0xB4, 24, |case, shape, seed| {
        let p = synchronized_program(&shape);
        let (_, trace) = record(&p, &RunConfig::with_seed(seed));
        let mut held: std::collections::HashMap<u64, bool> = std::collections::HashMap::new();
        for e in &trace.events {
            match &e.kind {
                EventKind::Acquire { lock, .. } => {
                    let h = held.entry(lock.0).or_insert(false);
                    assert!(!*h, "case {case}: double acquire without release");
                    *h = true;
                }
                EventKind::Release { lock, .. } => {
                    let h = held.entry(lock.0).or_insert(false);
                    assert!(*h, "case {case}: release without acquire");
                    *h = false;
                }
                EventKind::WgAdd { counter, .. } => {
                    assert!(*counter >= 0, "case {case}: negative WaitGroup counter");
                }
                _ => {}
            }
        }
    });
}

/// Trace codec round-trip: for random program shapes and seeds, recording
/// a run, encoding the trace to the `.grtrace` wire format, and decoding it
/// back yields a *structurally identical* trace — same metadata, same stack
/// depot snapshot, same event stream — and the same digest, so a decoded
/// trace replays to the same campaign digest as the live run it recorded.
#[test]
fn trace_encode_decode_round_trips_identically() {
    check(0xB6, 24, |case, shape, seed| {
        let p = synchronized_program(&shape);
        for strategy in [Sched::Random, Sched::RoundRobin, Sched::Pct { depth: 2 }] {
            let cfg = RunConfig::with_seed(seed).strategy(strategy);
            let (outcome, trace) = record(&p, &cfg);
            assert_eq!(trace.events.len() as u64, outcome.stats.events_dispatched);
            let bytes = trace.encode();
            let decoded = Trace::decode(&bytes).unwrap_or_else(|e| {
                panic!("case {case} {strategy:?}/{seed}: decode failed: {e}")
            });
            assert_eq!(decoded, trace, "case {case} {strategy:?}/{seed}");
            assert_eq!(
                decoded.digest(),
                trace.digest(),
                "case {case} {strategy:?}/{seed}: digest must survive the codec"
            );
            // Encoding is deterministic: same trace, same bytes.
            assert_eq!(decoded.encode(), bytes, "case {case} {strategy:?}/{seed}");
            // Re-recording under the same config reproduces the same trace
            // (schedules are pure functions of seed and strategy).
            let (_, again) = record(&p, &cfg);
            assert_eq!(again.digest(), trace.digest(), "case {case} {strategy:?}/{seed}");
        }
    });
}

/// Spawn events precede any event of the spawned goroutine.
#[test]
fn spawn_precedes_child_events() {
    check(0xB5, 24, |case, shape, seed| {
        let p = synchronized_program(&shape);
        let (_, trace) = record(&p, &RunConfig::with_seed(seed));
        let mut spawned_at = std::collections::HashMap::new();
        spawned_at.insert(grs_runtime::Gid(0), 0u64);
        for e in &trace.events {
            if let EventKind::Spawn { child, .. } = &e.kind {
                spawned_at.insert(*child, e.step);
            }
            let born = spawned_at.get(&e.gid);
            assert!(
                born.is_some_and(|&b| b <= e.step),
                "case {case}: event from unspawned goroutine {}",
                e.gid
            );
        }
    });
}
