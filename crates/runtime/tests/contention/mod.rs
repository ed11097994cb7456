//! The program `semantics.rs` pins the kernel's decision points with.
//!
//! It puts every blocking path of `chan.rs` and `sync.rs` under contention,
//! one scenario after the other on the main goroutine, and must finish
//! clean under every schedule. It lives apart from the assertions, as
//! `crates/detector/tests/corpus/mod.rs` does, so that an unrelated edit to
//! `semantics.rs` cannot move the program and with it the pinned constant.

use grs_runtime::chan::select2_recv;
use grs_runtime::{Ctx, Program, Selected2};

pub fn program() -> Program {
    Program::new("contention", |ctx| {
        mutex_three_way(ctx);
        rwmutex_writer_preference(ctx);
        two_senders_on_capacity_one(ctx);
        rendezvous_both_directions(ctx);
        close_while_receiver_parked(ctx);
        select_both_ready_then_neither(ctx);
        wait_before_last_done(ctx);
        second_once_caller_arrives_mid_run(ctx);
        try_send_refused_then_rendezvous(ctx);
    })
}

/// Three goroutines on one `Mutex`; the critical section holds two
/// preemption points, so the others arrive while it is held.
fn mutex_three_way(ctx: &Ctx) {
    let mu = ctx.mutex("mu");
    let n = ctx.cell("n", 0i64);
    let wg = ctx.waitgroup("mutex-wg");
    for _ in 0..3 {
        wg.add(ctx, 1);
        let (mu, n, wg) = (mu.clone(), n.clone(), wg.clone());
        ctx.go("locker", move |ctx| {
            mu.lock(ctx);
            ctx.update(&n, |v| v + 1);
            mu.unlock(ctx);
            wg.done(ctx);
        });
    }
    wg.wait(ctx);
    assert_eq!(ctx.read(&n), 3);
}

/// Two readers and a writer; the late reader arrives while the writer is
/// queued behind the early one and must wait its turn behind the writer.
fn rwmutex_writer_preference(ctx: &Ctx) {
    let rw = ctx.rwmutex("rw");
    let v = ctx.cell("v", 0i64);
    let done = ctx.chan::<()>("rw-done", 3);
    let (rw1, v1, done1) = (rw.clone(), v.clone(), done.clone());
    ctx.go("reader-early", move |ctx| {
        rw1.rlock(ctx);
        let _ = ctx.read(&v1);
        ctx.sleep(3);
        rw1.runlock(ctx);
        done1.send(ctx, ());
    });
    let (rw2, v2, done2) = (rw.clone(), v.clone(), done.clone());
    ctx.go("writer", move |ctx| {
        ctx.gosched();
        rw2.lock(ctx);
        ctx.write(&v2, 1);
        rw2.unlock(ctx);
        done2.send(ctx, ());
    });
    let (rw3, v3, done3) = (rw.clone(), v.clone(), done.clone());
    ctx.go("reader-late", move |ctx| {
        ctx.sleep(2);
        rw3.rlock(ctx);
        let _ = ctx.read(&v3);
        rw3.runlock(ctx);
        done3.send(ctx, ());
    });
    for _ in 0..3 {
        done.recv(ctx);
    }
}

fn two_senders_on_capacity_one(ctx: &Ctx) {
    let ch = ctx.chan::<u32>("cap1", 1);
    for s in 0..2u32 {
        let tx = ch.clone();
        ctx.go("sender", move |ctx| {
            for i in 0..3 {
                tx.send(ctx, s * 10 + i);
            }
        });
    }
    let sum: u32 = (0..6).map(|_| ch.recv(ctx).value().expect("open")).sum();
    assert_eq!(sum, 36);
}

fn rendezvous_both_directions(ctx: &Ctx) {
    let ch = ctx.chan::<u32>("sync", 0);
    let tx = ch.clone();
    ctx.go("sync-sender", move |ctx| tx.send(ctx, 1));
    assert_eq!(ch.recv(ctx).value(), Some(1));
    let back = ctx.chan::<u32>("sync-back", 0);
    let rx = back.clone();
    ctx.go("sync-receiver", move |ctx| {
        assert_eq!(rx.recv(ctx).value(), Some(2));
    });
    back.send(ctx, 2);
}

fn close_while_receiver_parked(ctx: &Ctx) {
    let ch = ctx.chan::<u32>("closing", 0);
    let saw_closed = ctx.chan::<bool>("closing-done", 1);
    let (rx, tx) = (ch.clone(), saw_closed.clone());
    ctx.go("close-waiter", move |ctx| {
        let r = rx.recv(ctx);
        tx.send(ctx, r.is_closed());
    });
    ctx.sleep(2);
    ch.close(ctx);
    assert_eq!(saw_closed.recv(ctx).value(), Some(true));
}

/// `select2_recv` with both arms ready (the one RNG draw outside the
/// scheduler), then with neither: it parks on two unbuffered channels whose
/// senders arrive later, or are already parked and get prodded.
fn select_both_ready_then_neither(ctx: &Ctx) {
    let a = ctx.chan::<u32>("sel-a", 1);
    let b = ctx.chan::<u32>("sel-b", 1);
    a.send(ctx, 1);
    b.send(ctx, 2);
    let c = ctx.chan::<u32>("sel-c", 0);
    let d = ctx.chan::<u32>("sel-d", 0);
    let (tc, td) = (c.clone(), d.clone());
    ctx.go("sel-sender-c", move |ctx| {
        ctx.sleep(2);
        tc.send(ctx, 3);
    });
    ctx.go("sel-sender-d", move |ctx| {
        ctx.sleep(1);
        td.send(ctx, 4);
    });
    let mut sum = 0;
    for (x, y) in [(&a, &b), (&a, &b), (&c, &d), (&c, &d)] {
        sum += match select2_recv(ctx, x, y) {
            Selected2::First(r) | Selected2::Second(r) => r.value().expect("open"),
        };
    }
    assert_eq!(sum, 10);
}

fn wait_before_last_done(ctx: &Ctx) {
    let wg = ctx.waitgroup("wg");
    wg.add(ctx, 2);
    for ticks in [1, 3] {
        let wg = wg.clone();
        ctx.go("wg-worker", move |ctx| {
            ctx.sleep(ticks);
            wg.done(ctx);
        });
    }
    wg.wait(ctx);
}

fn second_once_caller_arrives_mid_run(ctx: &Ctx) {
    let once = ctx.once("once");
    let init = ctx.cell("init", 0i64);
    let done = ctx.chan::<i64>("once-done", 2);
    for _ in 0..2 {
        let (once, init, done) = (once.clone(), init.clone(), done.clone());
        ctx.go("initer", move |ctx| {
            once.do_once(ctx, |ctx| {
                ctx.sleep(2);
                ctx.update(&init, |v| v + 1);
            });
            let seen = ctx.read(&init);
            done.send(ctx, seen);
        });
    }
    for _ in 0..2 {
        assert_eq!(done.recv(ctx).value(), Some(1));
    }
}

/// `try_send` refused by a full buffer and by an unbuffered channel with no
/// receiver, then retried a bounded number of times (a spin would never
/// end under PCT's strict priorities) against a receiver that parks at
/// some point: a retry that finds it parked completes the rendezvous.
fn try_send_refused_then_rendezvous(ctx: &Ctx) {
    let full = ctx.chan::<u32>("try-full", 1);
    assert_eq!(full.try_send(ctx, 1), Ok(()));
    assert_eq!(full.try_send(ctx, 2), Err(2));
    let sync = ctx.chan::<u32>("try-sync", 0);
    assert_eq!(sync.try_send(ctx, 3), Err(3));
    let got = ctx.chan::<u32>("try-got", 1);
    let (rx, tx) = (sync.clone(), got.clone());
    ctx.go("try-receiver", move |ctx| {
        let v = rx.recv(ctx).value().expect("open");
        tx.send(ctx, v);
    });
    let mut pending = Some(4);
    for _ in 0..4 {
        match sync.try_send(ctx, pending.take().expect("still pending")) {
            Ok(()) => break,
            Err(v) => {
                pending = Some(v);
                ctx.gosched();
            }
        }
    }
    if let Some(v) = pending {
        sync.send(ctx, v);
    }
    assert_eq!(got.recv(ctx).value(), Some(4));
}
