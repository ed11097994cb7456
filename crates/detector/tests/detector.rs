//! Correctness tests for the detectors: true positives on the racy shapes
//! the study catalogs, and — just as important — **no false positives** on
//! properly synchronized programs (the happens-before detector's precision
//! guarantee under an observed schedule).

use grs_detector::{Eraser, FastTrack, RaceReport, MAX_REPORTS};
use grs_runtime::{Program, RunConfig, Runtime};

/// Runs `p` under many seeds with the hybrid detector; returns the first
/// report of the first run that reports a race.
fn hybrid_first_race(p: &Program, seeds: u64) -> Option<RaceReport> {
    (0..seeds).find_map(|seed| {
        let (_, t) = Runtime::new(RunConfig::with_seed(seed)).run(p, FastTrack::hybrid());
        t.reports().first().cloned()
    })
}

/// True when any of `seeds` runs of `p` reports a race.
fn hybrid_finds_race(p: &Program, seeds: u64) -> bool {
    hybrid_first_race(p, seeds).is_some()
}

/// Asserts that no seed produces a race report (precision check).
fn assert_race_free(p: &Program, seeds: u64) {
    for seed in 0..seeds {
        let (outcome, t) = Runtime::new(RunConfig::with_seed(seed)).run(p, FastTrack::hybrid());
        assert!(
            t.reports().is_empty(),
            "false positive at seed {seed}: {}\noutcome: {:?}",
            t.reports()[0],
            outcome.errors
        );
    }
}

#[test]
fn detects_unsynchronized_write_write() {
    let p = Program::new("ww", |ctx| {
        let x = ctx.cell("x", 0i64);
        let x2 = x.clone();
        ctx.go("w1", move |ctx| ctx.write(&x2, 1));
        ctx.write(&x, 2);
    });
    assert!(hybrid_finds_race(&p, 30));
}

#[test]
fn detects_unsynchronized_read_write() {
    let p = Program::new("rw", |ctx| {
        let x = ctx.cell("x", 0i64);
        let x2 = x.clone();
        ctx.go("w", move |ctx| ctx.write(&x2, 1));
        let _ = ctx.read(&x);
    });
    assert!(hybrid_finds_race(&p, 30));
}

#[test]
fn no_race_between_reads() {
    let p = Program::new("rr", |ctx| {
        let x = ctx.cell("x", 7i64);
        for _ in 0..3 {
            let x2 = x.clone();
            ctx.go("r", move |ctx| {
                let _ = ctx.read(&x2);
            });
        }
        let _ = ctx.read(&x);
    });
    assert_race_free(&p, 30);
}

#[test]
fn mutex_protection_is_race_free() {
    let p = Program::new("mutexed", |ctx| {
        let mu = ctx.mutex("mu");
        let x = ctx.cell("x", 0i64);
        let wg = ctx.waitgroup("wg");
        for _ in 0..3 {
            wg.add(ctx, 1);
            let (mu, x, wg) = (mu.clone(), x.clone(), wg.clone());
            ctx.go("w", move |ctx| {
                mu.lock(ctx);
                ctx.update(&x, |v| v + 1);
                mu.unlock(ctx);
                wg.done(ctx);
            });
        }
        wg.wait(ctx);
        assert_eq!(ctx.read(&x), 3);
    });
    assert_race_free(&p, 40);
}

#[test]
fn unbuffered_channel_orders_accesses() {
    let p = Program::new("chan_sync", |ctx| {
        let x = ctx.cell("x", 0i64);
        let ch = ctx.chan::<()>("done", 0);
        let (x2, tx) = (x.clone(), ch.clone());
        ctx.go("writer", move |ctx| {
            ctx.write(&x2, 1);
            tx.send(ctx, ());
        });
        let _ = ch.recv(ctx);
        assert_eq!(ctx.read(&x), 1);
    });
    assert_race_free(&p, 40);
}

#[test]
fn rendezvous_orders_both_directions() {
    // Receiver writes AFTER recv; sender reads AFTER its send completes.
    // For an unbuffered channel the recv happens-before send-completion,
    // so the sender's read is ordered after the receiver's... no wait:
    // sender reads x only after send() returns, and the receiver wrote x
    // before recv() — the recv→send-complete edge orders write before read.
    let p = Program::new("rendezvous_back_edge", |ctx| {
        let x = ctx.cell("x", 0i64);
        let ch = ctx.chan::<()>("ch", 0);
        let (x2, rx) = (x.clone(), ch.clone());
        ctx.go("receiver", move |ctx| {
            ctx.write(&x2, 5); // before the recv
            let _ = rx.recv(ctx);
        });
        ch.send(ctx, ());
        // send completed => rendezvous done => receiver's pre-recv write is
        // ordered before us.
        assert_eq!(ctx.read(&x), 5);
    });
    assert_race_free(&p, 40);
}

#[test]
fn buffered_channel_backpressure_edge() {
    // cap-1 channel: send #1 can only complete after recv #0, so the
    // receiver's write between recv#0 and nothing... construct: receiver
    // writes x after recv #0; main writes x after send #1 completes.
    let p = Program::new("backpressure_edge", |ctx| {
        let x = ctx.cell("x", 0i64);
        let ch = ctx.chan::<i64>("ch", 1);
        let (x2, rx) = (x.clone(), ch.clone());
        ctx.go("consumer", move |ctx| {
            ctx.write(&x2, 1); // happens-before recv #0
            let _ = rx.recv(ctx); // recv #0 — happens-before send #1 completes
        });
        ch.send(ctx, 10); // send #0 (fills the buffer)
        ch.send(ctx, 20); // send #1 (cannot complete until recv #0) — edge!
        ctx.write(&x, 2); // ordered after consumer's write via that edge
    });
    assert_race_free(&p, 60);
}

#[test]
fn close_orders_with_drain_recv() {
    let p = Program::new("close_sync", |ctx| {
        let x = ctx.cell("x", 0i64);
        let ch = ctx.chan::<i64>("ch", 4);
        let (x2, tx) = (x.clone(), ch.clone());
        ctx.go("producer", move |ctx| {
            ctx.write(&x2, 1);
            tx.close(ctx);
        });
        // Drain until closed; the close edge orders the write before us.
        loop {
            if ch.recv(ctx).is_closed() {
                break;
            }
        }
        assert_eq!(ctx.read(&x), 1);
    });
    assert_race_free(&p, 40);
}

#[test]
fn waitgroup_orders_worker_writes() {
    let p = Program::new("wg_sync", |ctx| {
        let wg = ctx.waitgroup("wg");
        let x = ctx.cell("x", 0i64);
        wg.add(ctx, 1);
        let (wg2, x2) = (wg.clone(), x.clone());
        ctx.go("worker", move |ctx| {
            ctx.write(&x2, 9);
            wg2.done(ctx);
        });
        wg.wait(ctx);
        assert_eq!(ctx.read(&x), 9);
    });
    assert_race_free(&p, 40);
}

#[test]
fn once_orders_initialization() {
    let p = Program::new("once_sync", |ctx| {
        let once = ctx.once("init");
        let x = ctx.cell("x", 0i64);
        let wg = ctx.waitgroup("wg");
        for _ in 0..3 {
            wg.add(ctx, 1);
            let (once, x, wg) = (once.clone(), x.clone(), wg.clone());
            ctx.go("user", move |ctx| {
                once.do_once(ctx, |ctx| ctx.write(&x, 42));
                let _ = ctx.read(&x); // ordered after the once body
                wg.done(ctx);
            });
        }
        wg.wait(ctx);
    });
    assert_race_free(&p, 40);
}

#[test]
fn rwmutex_writer_vs_reader_is_race_free() {
    let p = Program::new("rw_sync", |ctx| {
        let rw = ctx.rwmutex("rw");
        let x = ctx.cell("x", 0i64);
        let (rw2, x2) = (rw.clone(), x.clone());
        ctx.go("writer", move |ctx| {
            rw2.lock(ctx);
            ctx.write(&x2, 1);
            rw2.unlock(ctx);
        });
        rw.rlock(ctx);
        let _ = ctx.read(&x);
        rw.runlock(ctx);
    });
    assert_race_free(&p, 40);
}

#[test]
fn detects_write_under_reader_lock() {
    // Listing 11: two goroutines both hold the READ lock and write.
    // RLock does not order readers with each other => real race, and the
    // HB detector catches it even though a lock is held.
    let p = Program::new("rlock_write", |ctx| {
        let rw = ctx.rwmutex("g.mutex");
        let ready = ctx.cell("g.ready", false);
        let wg = ctx.waitgroup("wg");
        for _ in 0..2 {
            wg.add(ctx, 1);
            let (rw, ready, wg) = (rw.clone(), ready.clone(), wg.clone());
            ctx.go("updateGate", move |ctx| {
                rw.rlock(ctx);
                ctx.write(&ready, true); // write in a read-locked section!
                rw.runlock(ctx);
                wg.done(ctx);
            });
        }
        wg.wait(ctx);
    });
    assert!(hybrid_finds_race(&p, 60));
}

#[test]
fn atomic_accesses_do_not_race_with_each_other() {
    let p = Program::new("atomics_ok", |ctx| {
        let a = ctx.atomic("a", 0);
        let a2 = a.clone();
        ctx.go("w", move |ctx| {
            a2.add(ctx, 1);
        });
        let _ = a.load(ctx);
        a.add(ctx, 1);
    });
    assert_race_free(&p, 40);
}

#[test]
fn detects_plain_access_mixed_with_atomic() {
    // §4.9.2: atomic for writes, plain for reads.
    let p = Program::new("partial_atomic", |ctx| {
        let a = ctx.atomic("counter", 0);
        let a2 = a.clone();
        ctx.go("w", move |ctx| a2.store(ctx, 1));
        let _ = a.load_plain(ctx); // plain read vs atomic write
    });
    assert!(hybrid_finds_race(&p, 40));
}

#[test]
fn atomic_publish_orders_plain_payload() {
    // Correct atomic flag protocol: plain payload write, atomic flag store,
    // atomic flag load observed, plain payload read. No race.
    let p = Program::new("atomic_publish", |ctx| {
        let data = ctx.cell("data", 0i64);
        let flag = ctx.atomic("flag", 0);
        let (d2, f2) = (data.clone(), flag.clone());
        ctx.go("producer", move |ctx| {
            ctx.write(&d2, 99);
            f2.store(ctx, 1);
        });
        // Spin until the flag is set (bounded for the step budget).
        for _ in 0..200 {
            if flag.load(ctx) == 1 {
                assert_eq!(ctx.read(&data), 99);
                return;
            }
        }
    });
    assert_race_free(&p, 40);
}

#[test]
fn spawn_edge_orders_parent_writes() {
    let p = Program::new("spawn_edge", |ctx| {
        let x = ctx.cell("x", 0i64);
        ctx.write(&x, 1); // before spawn
        let x2 = x.clone();
        ctx.go("reader", move |ctx| {
            let _ = ctx.read(&x2); // ordered after parent's write
        });
    });
    assert_race_free(&p, 40);
}

#[test]
fn pure_vc_and_epochs_agree() {
    let programs = vec![
        Program::new("racy", |ctx| {
            let x = ctx.cell("x", 0i64);
            let x2 = x.clone();
            ctx.go("w", move |ctx| ctx.write(&x2, 1));
            let _ = ctx.read(&x);
        }),
        Program::new("clean", |ctx| {
            let x = ctx.cell("x", 0i64);
            let ch = ctx.chan::<()>("ch", 0);
            let (x2, tx) = (x.clone(), ch.clone());
            ctx.go("w", move |ctx| {
                ctx.write(&x2, 1);
                tx.send(ctx, ());
            });
            let _ = ch.recv(ctx);
            let _ = ctx.read(&x);
        }),
    ];
    for p in &programs {
        for seed in 0..20 {
            let (_, ft) = Runtime::new(RunConfig::with_seed(seed)).run(p, FastTrack::new());
            let (_, vc) = Runtime::new(RunConfig::with_seed(seed)).run(p, FastTrack::pure_vc());
            assert_eq!(
                ft.reports().is_empty(),
                vc.reports().is_empty(),
                "verdict mismatch on {} seed {seed}",
                p.name()
            );
        }
    }
}

#[test]
fn epoch_fast_path_dominates_on_thread_local_data() {
    let p = Program::new("local_heavy", |ctx| {
        let x = ctx.cell("x", 0i64);
        for _ in 0..100 {
            ctx.update(&x, |v| v + 1);
        }
    });
    let (_, ft) = Runtime::new(RunConfig::with_seed(0)).run(&p, FastTrack::new());
    assert!(ft.accesses_processed() >= 200);
    let hit_rate = ft.epoch_fast_hits() as f64 / ft.accesses_processed() as f64;
    assert!(
        hit_rate > 0.95,
        "thread-local accesses must hit the epoch fast path (got {hit_rate})"
    );
}

#[test]
fn eraser_flags_unlocked_shared_writes() {
    let p = Program::new("unlocked", |ctx| {
        let x = ctx.cell("x", 0i64);
        let x2 = x.clone();
        ctx.go("w", move |ctx| ctx.write(&x2, 1));
        ctx.sleep(2);
        ctx.write(&x, 2);
    });
    let mut any = false;
    for seed in 0..30 {
        let (_, er) = Runtime::new(RunConfig::with_seed(seed)).run(&p, Eraser::new());
        any |= !er.reports().is_empty();
    }
    assert!(any);
}

#[test]
fn eraser_false_positive_on_channel_sync_fasttrack_clean() {
    // The motivating comparison: lockset alone cannot see channel ordering.
    let p = Program::new("chan_synced", |ctx| {
        let x = ctx.cell("x", 0i64);
        let ch = ctx.chan::<()>("ch", 0);
        let (x2, tx) = (x.clone(), ch.clone());
        ctx.go("w", move |ctx| {
            ctx.write(&x2, 1);
            tx.send(ctx, ());
        });
        let _ = ch.recv(ctx);
        let _ = ctx.read(&x);
    });
    let (_, er) = Runtime::new(RunConfig::with_seed(3)).run(&p, Eraser::new());
    assert!(!er.reports().is_empty(), "Eraser should over-report here");
    let (_, ft) = Runtime::new(RunConfig::with_seed(3)).run(&p, FastTrack::new());
    assert!(ft.reports().is_empty(), "FastTrack must not");
}

#[test]
fn eraser_accepts_consistent_locking() {
    let p = Program::new("locked", |ctx| {
        let mu = ctx.mutex("mu");
        let x = ctx.cell("x", 0i64);
        let (mu2, x2) = (mu.clone(), x.clone());
        ctx.go("w", move |ctx| {
            mu2.lock(ctx);
            ctx.write(&x2, 1);
            mu2.unlock(ctx);
        });
        mu.lock(ctx);
        ctx.write(&x, 2);
        mu.unlock(ctx);
    });
    for seed in 0..20 {
        let (_, er) = Runtime::new(RunConfig::with_seed(seed)).run(&p, Eraser::new());
        assert!(er.reports().is_empty(), "seed {seed}");
    }
}

#[test]
fn race_report_carries_both_stacks() {
    let p = Program::new("stacked", |ctx| {
        let x = ctx.cell("x", 0i64);
        let x2 = x.clone();
        ctx.go("worker", move |ctx| {
            ctx.call("ProcessJob", |ctx| ctx.write(&x2, 1));
        });
        ctx.call("Collect", |ctx| {
            let _ = ctx.read(&x);
        });
    });
    let race = hybrid_first_race(&p, 60).expect("race must be detected");
    let (s1, s2) = race.stacks();
    let all: Vec<String> = s1
        .func_names()
        .into_iter()
        .chain(s2.func_names())
        .map(String::from)
        .collect();
    assert!(all.iter().any(|f| f == "ProcessJob"));
    assert!(all.iter().any(|f| f == "Collect"));
}

#[test]
fn report_cap_bounds_memory_on_extremely_racy_programs() {
    // More distinct racy sites than the cap — each cell names its own
    // object — and a writer and a reader that never synchronise, so every
    // cell races under every schedule: each happens-before detector must
    // stop at `MAX_REPORTS`.
    let sites = MAX_REPORTS + 64;
    let p = Program::new("racy_everywhere", move |ctx| {
        let cells: Vec<_> = (0..sites)
            .map(|i| ctx.cell(&format!("c{i}"), 0i64))
            .collect();
        let writes = cells.clone();
        ctx.go("w", move |ctx| {
            for c in &writes {
                ctx.write(c, 1);
            }
        });
        for c in &cells {
            let _ = ctx.read(c);
        }
    });
    for seed in 0..4 {
        for detector in [FastTrack::new(), FastTrack::pure_vc(), FastTrack::hybrid()] {
            let (_, ft) = Runtime::new(RunConfig::with_seed(seed)).run(&p, detector);
            assert_eq!(
                ft.reports().len(),
                MAX_REPORTS,
                "seed {seed}: the cap must hold"
            );
        }
    }
}

/// A hand-built trace can name one text through two string-table entries,
/// which no encoder writes. Two goroutines race on two addresses named
/// `"x"` that way, at the same pair of lines of a file also named twice
/// (the second race in the other orientation): one race site by text, so
/// each happens-before detector keeps one report — the first race's.
#[test]
fn one_text_under_two_names_is_one_race_site() {
    use grs_detector::{DetectorArena, DetectorChoice};
    use grs_runtime::event::{Event, EventKind};
    use grs_runtime::{
        AccessKind, Addr, Gid, NameId, SourceLoc, StackId, Strategy, Trace, TraceMeta,
    };
    use std::sync::Arc;

    let write = |g: u32, addr: u64, object: u32, line: u32| {
        let loc = SourceLoc {
            file: NameId(object + 1),
            line,
        };
        let kind = EventKind::Access {
            addr: Addr(addr),
            object: NameId(object),
            kind: AccessKind::Write,
            stack: StackId::EMPTY,
            loc,
        };
        (g, kind)
    };
    let events = [
        write(0, 1, 0, 10),
        write(1, 1, 0, 11),
        write(1, 2, 2, 11),
        write(0, 2, 2, 10),
    ];
    let trace = Trace {
        meta: TraceMeta {
            program: "one_text_twice".to_string(),
            seed: 0,
            strategy: Strategy::Random,
            steps: events.len() as u64,
            goroutines_spawned: 2,
        },
        stacks: Vec::new(),
        names: ["x", "handbuilt.go", "x", "handbuilt.go"]
            .map(Arc::from)
            .to_vec(),
        events: (0..)
            .zip(events)
            .map(|(step, (g, kind))| Event {
                step,
                gid: Gid(g),
                kind,
            })
            .collect(),
    };
    let mut arena = DetectorArena::new();
    for choice in [
        DetectorChoice::FastTrack,
        DetectorChoice::PureVectorClock,
        DetectorChoice::Hybrid,
    ] {
        let reports = arena.replay(choice, &trace).reports;
        assert_eq!(reports.len(), 1, "{choice}: {reports:#?}");
        assert_eq!(reports[0].addr, Addr(1), "{choice}: the first race is kept");
    }
}

/// FastTrack's same-epoch exits, held to pure vector clocks (which take
/// none) on hand-built streams fed through `Monitor::on_event`, where a
/// record and an epoch repeat but the full path's outcome would differ.
mod same_epoch {
    use std::sync::Arc;

    use grs_detector::FastTrack;
    use grs_runtime::event::{Event, EventKind, LockMode};
    use grs_runtime::AccessKind::{Read, Write};
    use grs_runtime::{
        Addr, Gid, LockUid, Monitor, NameId, SourceLoc, StackDepot, StackId, Strategy, Trace,
        TraceMeta, WgId,
    };

    /// A stream of `(goroutine, event)` steps over the name table `names`,
    /// whose last entry is the one source file.
    fn trace(names: &[&str], steps: &[(u32, EventKind)]) -> Trace {
        Trace {
            meta: TraceMeta {
                program: "hand_built".to_string(),
                seed: 0,
                strategy: Strategy::Random,
                steps: steps.len() as u64,
                goroutines_spawned: 3,
            },
            stacks: Vec::new(),
            names: names.iter().map(|&n| Arc::from(n)).collect(),
            events: (0..)
                .zip(steps)
                .map(|(step, &(g, kind))| Event {
                    step,
                    gid: Gid(g),
                    kind,
                })
                .collect(),
        }
    }

    /// An access of address 1 as the object `names[object]`, at `line` of
    /// the stream's file.
    fn access(names: &[&str], kind: grs_runtime::AccessKind, object: u32, line: u32) -> EventKind {
        let file = NameId(names.len() as u32 - 1);
        EventKind::Access {
            addr: Addr(1),
            object: NameId(object),
            kind,
            stack: StackId::EMPTY,
            loc: SourceLoc { file, line },
        }
    }

    fn lock(id: u64) -> EventKind {
        let (lock, mode) = (LockUid(id), LockMode::Write);
        EventKind::Acquire { lock, mode }
    }

    fn unlock(id: u64) -> EventKind {
        let (lock, mode) = (LockUid(id), LockMode::Write);
        EventKind::Release { lock, mode }
    }

    /// What a detector keeps from a stream: its report texts with its
    /// label taken out, each side's held locks in report order, and its
    /// peak shadow words.
    #[derive(Debug, PartialEq)]
    struct Kept {
        texts: Vec<String>,
        locks: Vec<Vec<u64>>,
        peak: usize,
    }

    /// Feeds `trace` through `detector`'s `Monitor::on_event`, as a live
    /// run does.
    fn fed(mut detector: FastTrack, trace: &Trace) -> Kept {
        let depot = StackDepot::new();
        trace.rebuild_depot_into(&depot);
        detector.on_run_start(&depot);
        for event in &trace.events {
            detector.on_event(event);
        }
        detector.on_run_end();
        let reports = detector.reports();
        Kept {
            texts: reports
                .iter()
                .map(|r| r.to_string().replace(&r.detector.to_string(), "<hb>"))
                .collect(),
            locks: reports
                .iter()
                .flat_map(|r| [&r.prior, &r.current])
                .map(|side| side.locks_held.iter().map(|l| l.raw()).collect())
                .collect(),
            peak: detector.peak_shadow_words(),
        }
    }

    /// Asserts that FastTrack keeps what pure vector clocks keep from
    /// `trace`, and the hybrid too, with `locks` as each side's held locks.
    fn assert_exits_are_exact(trace: &Trace, locks: &[Vec<u64>]) {
        let vc = fed(FastTrack::pure_vc(), trace);
        assert_eq!(vc.locks.len(), locks.len(), "{:#?}", vc.texts);
        assert_eq!(fed(FastTrack::new(), trace), vc, "FastTrack");
        let hybrid = Kept {
            locks: locks.to_vec(),
            ..vc
        };
        assert_eq!(fed(FastTrack::hybrid(), trace), hybrid, "hybrid");
    }

    /// *t* reads address 1 as `x` holding lock 2, *u* writes it as `y`
    /// unordered, and *t* reads it again as `z` at the same site, in the
    /// same epoch. The second read races with the write on a site of its
    /// own (a site's key includes the object's name), so it must not take
    /// the read exit, though its record and read history repeat.
    #[test]
    fn a_repeated_read_under_another_name_takes_no_exit() {
        let names = ["x", "y", "z", "hand.go"];
        let steps = [
            (0, lock(2)),
            (0, access(&names, Read, 0, 10)),
            (1, access(&names, Write, 1, 20)),
            (0, access(&names, Read, 2, 10)),
            (0, unlock(2)),
        ];
        assert_exits_are_exact(&trace(&names, &steps), &[vec![2], vec![], vec![], vec![2]]);
    }

    /// *u* and *v* read address 1 unordered, so its read history goes
    /// shared; *t* writes it; *t* takes an `edge` from *u*, made after
    /// *u*'s read, which grows *t*'s clock without a tick; and *t* writes
    /// again in the same epoch, a write that must prune *u*'s read. *v*'s
    /// later write then races with *t*'s write only: a kept *u* entry
    /// would add a race on a site of its own.
    fn shared_reads_then_a_repeated_write(edge: &[(u32, EventKind)]) -> Trace {
        let names = ["x", "hand.go"];
        let mut steps = vec![
            (1, access(&names, Read, 0, 10)),
            (2, access(&names, Read, 0, 11)),
            (0, access(&names, Write, 0, 12)),
        ];
        steps.extend_from_slice(edge);
        steps.push((0, access(&names, Write, 0, 12)));
        steps.push((2, access(&names, Write, 0, 13)));
        trace(&names, &steps)
    }

    #[test]
    fn a_repeated_write_over_shared_reads_takes_no_exit() {
        // *t* locks what *u* unlocked, and holds it at its second write.
        let edge = [(1, lock(2)), (1, unlock(2)), (0, lock(2))];
        let trace = shared_reads_then_a_repeated_write(&edge);
        assert_exits_are_exact(&trace, &[vec![], vec![], vec![], vec![], vec![2], vec![]]);
        // *t* waits for *u*'s `Done`: it holds no lock, so its two writes
        // have one record under the hybrid too.
        let wg = WgId(3);
        let add = |delta, counter| (1, EventKind::WgAdd { wg, delta, counter });
        let edge = [add(1, 1), add(-1, 0), (0, EventKind::WgWait { wg })];
        let trace = shared_reads_then_a_repeated_write(&edge);
        assert_exits_are_exact(&trace, &vec![vec![]; 6]);
    }
}
