//! Tests for the executor's *mechanism* — goroutines as machine stacks
//! switched in user space on the caller's OS thread. What the primitives
//! mean is held by `semantics.rs`, `props.rs` and `sched_props.rs`; these
//! hold what those cannot see: that every stack is unwound and returned,
//! that nothing leaves the caller's thread, that the switch keeps the ABI's
//! alignment, and that a scheduling step does not cost O(goroutines).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use grs_runtime::{
    Ctx, NullMonitor, Program, RunConfig, RunOutcome, Runtime, RuntimeError, Strategy,
};

/// Tests in this file run one at a time: two of them count the process's
/// memory mappings, and two others map thousands of stacks.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn run(program: &Program, config: RunConfig) -> RunOutcome {
    Runtime::new(config).run(program, NullMonitor).0
}

// ---- (a) drop accounting ----

#[derive(Default)]
struct Ledger {
    made: AtomicUsize,
    dropped: AtomicUsize,
}

/// Counts its own construction and its own drop.
struct Guard(Arc<Ledger>);

impl Guard {
    fn new(ledger: &Arc<Ledger>) -> Guard {
        ledger.made.fetch_add(1, Ordering::SeqCst);
        Guard(Arc::clone(ledger))
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        self.0.dropped.fetch_add(1, Ordering::SeqCst);
    }
}

/// Runs `body` as main; it gets a ledger to make guards from — locals of a
/// body (dropped by unwinding a suspended stack) and captures of spawned
/// bodies (dropped with the closure, run or not).
fn assert_every_guard_dropped_once(
    what: &str,
    config: RunConfig,
    body: impl Fn(&Ctx, &Arc<Ledger>) + Send + Sync + 'static,
    check: impl Fn(&RunOutcome),
) {
    let ledger = Arc::new(Ledger::default());
    let program = Program::new(what, {
        let ledger = Arc::clone(&ledger);
        move |ctx| body(ctx, &ledger)
    });
    for seed in 0..8 {
        let outcome = run(
            &program,
            RunConfig {
                seed,
                ..config.clone()
            },
        );
        check(&outcome);
        let (made, dropped) = (
            ledger.made.load(Ordering::SeqCst),
            ledger.dropped.load(Ordering::SeqCst),
        );
        assert!(made > 0, "{what}: the scenario made no guard");
        assert_eq!(made, dropped, "{what} seed {seed}: guards made vs dropped");
    }
}

/// Spawns `n` goroutines that each hold a captured and a local guard and
/// block forever on `never`.
fn spawn_stuck(ctx: &Ctx, ledger: &Arc<Ledger>, n: usize) {
    let never = ctx.chan::<()>("never", 0);
    for _ in 0..n {
        let (never, captured, ledger) = (never.clone(), Guard::new(ledger), Arc::clone(ledger));
        ctx.go("stuck", move |ctx| {
            let _captured = captured;
            let _local = Guard::new(&ledger);
            let _ = never.recv(ctx);
        });
    }
}

#[test]
fn bodies_and_their_stacks_are_dropped_exactly_once_however_the_run_ends() {
    let _serial = serial();
    let config = RunConfig::default();

    assert_every_guard_dropped_once(
        "clean",
        config.clone(),
        |ctx, ledger| {
            let _local = Guard::new(ledger);
            let wg = ctx.waitgroup("wg");
            for _ in 0..3 {
                wg.add(ctx, 1);
                let (wg, captured, ledger) = (wg.clone(), Guard::new(ledger), Arc::clone(ledger));
                ctx.go("worker", move |ctx| {
                    let _captured = captured;
                    let _local = Guard::new(&ledger);
                    ctx.gosched();
                    wg.done(ctx);
                });
            }
            wg.wait(ctx);
        },
        |o| assert!(o.is_clean()),
    );

    assert_every_guard_dropped_once(
        "deadlock",
        config.clone(),
        |ctx, ledger| {
            let _local = Guard::new(ledger);
            spawn_stuck(ctx, ledger, 3);
            let forever = ctx.chan::<()>("forever", 0);
            let _ = forever.recv(ctx);
        },
        |o| assert!(o.deadlock.is_some()),
    );

    assert_every_guard_dropped_once(
        "leak",
        config.clone(),
        |ctx, ledger| {
            let _local = Guard::new(ledger);
            spawn_stuck(ctx, ledger, 3);
        },
        |o| assert_eq!(o.leaked.len(), 3),
    );

    assert_every_guard_dropped_once(
        "step budget",
        config.clone().max_steps(200),
        |ctx, ledger| {
            let _local = Guard::new(ledger);
            spawn_stuck(ctx, ledger, 3);
            loop {
                ctx.gosched();
            }
        },
        |o| {
            assert!(matches!(
                o.errors[..],
                [RuntimeError::StepBudgetExhausted { .. }]
            ));
        },
    );

    assert_every_guard_dropped_once(
        "user panic",
        config.clone(),
        |ctx, ledger| {
            let _local = Guard::new(ledger);
            let (captured, ledger) = (Guard::new(ledger), Arc::clone(ledger));
            ctx.go("bad", move |ctx| {
                let _captured = captured;
                let _local = Guard::new(&ledger);
                ctx.gosched();
                panic!("boom");
            });
            ctx.gosched();
        },
        |o| {
            assert!(matches!(
                &o.errors[..],
                [RuntimeError::GoroutinePanic { goroutine, message }]
                    if goroutine == "bad" && message == "boom"
            ));
        },
    );

    // The budget runs out at the preemption point of the very `go` that
    // spawned the goroutine: it has a body and a stack and never gets a step.
    let started = Arc::new(AtomicBool::new(false));
    assert_every_guard_dropped_once(
        "never started",
        config.max_steps(1),
        {
            let started = Arc::clone(&started);
            move |ctx, ledger| {
                let _local = Guard::new(ledger);
                let (captured, started) = (Guard::new(ledger), Arc::clone(&started));
                ctx.go("unborn", move |_ctx| {
                    let _captured = captured;
                    started.store(true, Ordering::SeqCst);
                });
            }
        },
        |o| assert_eq!(o.goroutines_spawned, 2),
    );
    assert!(!started.load(Ordering::SeqCst));
}

// ---- (b) one OS thread ----

#[test]
fn every_goroutine_runs_on_the_callers_os_thread() {
    let _serial = serial();
    let caller = std::thread::current().id();
    let seen = Arc::new(AtomicUsize::new(0));
    let program = Program::new("one_thread", {
        let seen = Arc::clone(&seen);
        move |ctx| {
            let here = {
                let seen = Arc::clone(&seen);
                move || {
                    assert_eq!(std::thread::current().id(), caller);
                    seen.fetch_add(1, Ordering::SeqCst);
                }
            };
            here();
            let wg = ctx.waitgroup("wg");
            for _ in 0..4 {
                wg.add(ctx, 1);
                let (wg, here) = (wg.clone(), here.clone());
                ctx.go("worker", move |ctx| {
                    here();
                    ctx.gosched();
                    here();
                    wg.done(ctx);
                });
            }
            wg.wait(ctx);
            here();
        }
    });
    for strategy in [
        Strategy::Random,
        Strategy::RoundRobin,
        Strategy::Pct { depth: 2 },
    ] {
        seen.store(0, Ordering::SeqCst);
        assert!(run(&program, RunConfig::with_seed(3).strategy(strategy)).is_clean());
        assert_eq!(seen.load(Ordering::SeqCst), 10);
    }
}

/// `Ctx`'s auto traits are part of the public surface; the stacks the
/// kernel now owns must not change them.
#[test]
fn ctx_keeps_its_auto_traits() {
    fn send_and_sync<T: Send + Sync>() {}
    send_and_sync::<Ctx>();
}

/// ...which lets safe code lend a `&Ctx` to another OS thread. Switching
/// stacks from there would resume a goroutine on a thread it was not
/// suspended on, so the kernel refuses the foreign thread instead.
#[test]
fn a_ctx_lent_to_another_os_thread_is_refused_there() {
    let _serial = serial();
    let program = Program::new("lent", |ctx| {
        let wg = ctx.waitgroup("wg");
        wg.add(ctx, 1);
        let done = wg.clone();
        ctx.go("bystander", move |ctx| {
            ctx.gosched();
            done.done(ctx);
        });
        let foreign = std::thread::scope(|s| s.spawn(|| ctx.gosched()).join());
        assert!(foreign.is_err(), "the foreign thread must panic");
        // The refusal touched nothing: the run goes on.
        wg.wait(ctx);
    });
    for seed in 0..4 {
        assert!(run(&program, RunConfig::with_seed(seed)).is_clean());
    }
}

// ---- (c) stacks are given back ----

#[cfg(target_os = "linux")]
fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("/proc/self/maps is readable")
        .lines()
        .count()
}

/// Three goroutines, one of them left blocked: the run ends in an abort, so
/// both ways of getting a stack back (exit, unwind) are taken every run.
#[cfg(target_os = "linux")]
fn small_program() -> Program {
    Program::new("small", |ctx| {
        let ch = ctx.chan::<u32>("ch", 0);
        let tx = ch.clone();
        ctx.go("sender", move |ctx| tx.send(ctx, 7));
        assert_eq!(ch.recv(ctx).value(), Some(7));
        let never = ctx.chan::<()>("never", 0);
        ctx.go("stuck", move |ctx| {
            let _ = never.recv(ctx);
        });
    })
}

/// What the process may keep per se: allocator arenas, cached thread
/// stacks, this thread's pool. A leak of one stack per run or per thread
/// would be thousands of lines.
#[cfg(target_os = "linux")]
const MAPPING_SLACK: usize = 96;

#[test]
#[cfg(target_os = "linux")]
fn five_thousand_runs_on_one_thread_leave_the_mappings_where_they_were() {
    let _serial = serial();
    let program = small_program();
    assert_eq!(run(&program, RunConfig::with_seed(0)).leaked.len(), 1);
    let before = mappings();
    for seed in 0..5_000 {
        assert_eq!(run(&program, RunConfig::with_seed(seed)).leaked.len(), 1);
    }
    let after = mappings();
    assert!(
        after <= before + MAPPING_SLACK,
        "{before} mappings before 5,000 runs, {after} after"
    );
}

#[test]
#[cfg(target_os = "linux")]
fn two_hundred_short_lived_threads_leave_the_mappings_where_they_were() {
    let _serial = serial();
    let program = small_program();
    let one_thread = |seed| {
        let program = program.clone();
        std::thread::spawn(move || run(&program, RunConfig::with_seed(seed)).leaked.len())
            .join()
            .expect("the run does not panic")
    };
    assert_eq!(one_thread(0), 1);
    let before = mappings();
    for seed in 0..200 {
        assert_eq!(one_thread(seed), 1);
    }
    let after = mappings();
    assert!(
        after <= before + MAPPING_SLACK,
        "{before} mappings before 200 threads, {after} after"
    );
}

// ---- (d) many stacks at once, and runs inside runs ----

/// `n` goroutines park on one channel; main closes it and waits for all.
fn fan_out(n: usize) -> Program {
    Program::new("fan_out", move |ctx| {
        let gate = ctx.chan::<()>("gate", 0);
        let wg = ctx.waitgroup("wg");
        for _ in 0..n {
            wg.add(ctx, 1);
            let (gate, wg) = (gate.clone(), wg.clone());
            ctx.go("waiter", move |ctx| {
                let _ = gate.recv(ctx);
                wg.done(ctx);
            });
        }
        gate.close(ctx);
        wg.wait(ctx);
    })
}

#[test]
fn four_thousand_goroutines_parked_at_once_complete() {
    let _serial = serial();
    // Round-robin runs every waiter up to its `recv` before main closes.
    let parked = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    let program = Program::new("parked", {
        let (parked, peak) = (Arc::clone(&parked), Arc::clone(&peak));
        move |ctx| {
            let gate = ctx.chan::<()>("gate", 0);
            let wg = ctx.waitgroup("wg");
            for _ in 0..4_096 {
                wg.add(ctx, 1);
                let (gate, wg) = (gate.clone(), wg.clone());
                let (parked, peak) = (Arc::clone(&parked), Arc::clone(&peak));
                ctx.go("waiter", move |ctx| {
                    let now = parked.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    let _ = gate.recv(ctx);
                    parked.fetch_sub(1, Ordering::SeqCst);
                    wg.done(ctx);
                });
            }
            for _ in 0..4_096 {
                ctx.gosched();
            }
            gate.close(ctx);
            wg.wait(ctx);
        }
    });
    let outcome = run(
        &program,
        RunConfig::with_seed(0).strategy(Strategy::RoundRobin),
    );
    assert!(outcome.is_clean(), "{outcome:?}");
    assert_eq!(outcome.goroutines_spawned, 4_097);
    assert_eq!(peak.load(Ordering::SeqCst), 4_096);
}

#[test]
fn a_run_nested_inside_a_goroutine_body_has_the_same_outcome() {
    let _serial = serial();
    let inner = fan_out(8);
    let outside = run(&inner, RunConfig::with_seed(5));
    assert!(outside.is_clean());

    let nested = Arc::new(Mutex::new(Vec::new()));
    let outer = Program::new("outer", {
        let nested = Arc::clone(&nested);
        move |ctx| {
            let inner = inner.clone();
            let nested = Arc::clone(&nested);
            let done = ctx.chan::<()>("done", 0);
            let tx = done.clone();
            ctx.go("host", move |ctx| {
                ctx.gosched();
                let outcome = run(&inner, RunConfig::with_seed(5));
                nested.lock().expect("not poisoned").push(outcome);
                tx.send(ctx, ());
            });
            let _ = done.recv(ctx);
        }
    });
    assert!(run(&outer, RunConfig::with_seed(9)).is_clean());
    let nested = nested.lock().expect("not poisoned");
    let [inside] = &nested[..] else {
        panic!("the nested run happened once, got {}", nested.len());
    };
    assert!(inside.is_clean());
    assert_eq!(inside.steps, outside.steps);
    assert_eq!(inside.schedule.digest(), outside.schedule.digest());
}

// ---- (e) alignment ----

/// Formatting a float and moving `u128`s use aligned SSE loads and stores
/// relative to the stack pointer; a stack that is 8 bytes off faults here.
#[inline(never)]
fn needs_an_aligned_stack(seed: u32) {
    let x = std::hint::black_box(f64::from(seed) + 0.5);
    assert_eq!(format!("{x:.3}"), format!("{seed}.500"));
    let wide = std::hint::black_box([u128::from(seed) << 70; 4]);
    let copy = std::hint::black_box(wide);
    assert_eq!(copy.iter().sum::<u128>(), (u128::from(seed) << 70) * 4);
}

#[test]
fn goroutine_stacks_keep_the_abi_alignment() {
    let _serial = serial();
    let program = Program::new("aligned", |ctx| {
        needs_an_aligned_stack(3);
        let done = ctx.chan::<()>("done", 0);
        let tx = done.clone();
        ctx.go("spawned", move |ctx| {
            needs_an_aligned_stack(4);
            tx.send(ctx, ());
        });
        let _ = done.recv(ctx);
        needs_an_aligned_stack(5);
    });
    assert!(run(&program, RunConfig::with_seed(1)).is_clean());
}

// ---- (g) a scheduling step does not cost O(goroutines) ----

/// `steps` and `schedule.digest()` of [`fan_out`] under seed 1, captured at
/// d2b8921 (one OS thread per goroutine, the runnable set rebuilt by a scan
/// at every step) before any kernel edit: the kept set hands the policy
/// the same candidates in the same order.
const FAN_OUT_PINS: [(usize, u64, u64); 2] = [
    (1_000, 9_005, 0x06f2_110a_b17d_5989),
    (10_000, 90_005, 0x53ee_469d_03bd_1edc),
];

#[test]
fn fan_out_keeps_its_schedule_and_scales_with_its_size() {
    let _serial = serial();
    let mut best = [Duration::MAX; 2];
    for _ in 0..3 {
        for (i, (n, steps, digest)) in FAN_OUT_PINS.into_iter().enumerate() {
            let started = Instant::now();
            let outcome = run(&fan_out(n), RunConfig::with_seed(1));
            best[i] = best[i].min(started.elapsed());
            assert!(outcome.is_clean());
            assert_eq!(outcome.steps, steps, "steps at {n}");
            assert_eq!(outcome.schedule.digest(), digest, "schedule at {n}");
        }
    }
    // Ten times the goroutines: 10 is linear. The policy's own pick is
    // still a scan of the candidates, which is what is left above 10; a
    // kernel that also rebuilt the set every step measured 33 to 44.
    let ratio = best[1].as_secs_f64() / best[0].as_secs_f64();
    assert!(
        ratio < 25.0,
        "10,000 goroutines took {ratio:.1}x the time of 1,000 ({:?} vs {:?})",
        best[1],
        best[0]
    );
}
