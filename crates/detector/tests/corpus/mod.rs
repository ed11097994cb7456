//! The programs the detector crate's differential suites run.
//!
//! Report text carries the `file:line` of each access, so **the line
//! numbers of [`corpus`] are part of the digests pinned in
//! `flat_vs_oracle.rs`**: moving a line of it — by editing this header, too
//! — means re-pinning there. That is why the programs live apart from the
//! assertions, whose logic can change without moving a line here, and why
//! [`channel_programs`], which no digest covers, comes last.

use grs_runtime::Program;

/// Programs spanning every synchronization primitive the detectors model:
/// locks (both modes), channels (buffered/unbuffered/close), WaitGroup,
/// Once, atomics, plus racy and race-free variants of each shape.
pub fn corpus() -> Vec<Program> {
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

/// The channel idioms of the study's Table 2 that the pattern registry
/// reaches only in passing. Each has schedules on both sides: ones where
/// the channel edge orders the accesses and ones where it does not exist.
pub fn channel_programs() -> Vec<Program> {
    let mut programs = Vec::new();
    // `select { case <-ready: default: }`: the read is ordered after the
    // write only on schedules where the receive arm fired.
    programs.push(Program::new("select_default", |ctx| {
        let x = ctx.cell("x", 0i64);
        let ready = ctx.chan::<()>("ready", 1);
        let (x2, rx) = (x.clone(), ready.clone());
        ctx.go("poller", move |ctx| {
            let _ = rx.try_recv(ctx);
            let _ = ctx.read(&x2);
        });
        ctx.write(&x, 1);
        ready.send(ctx, ());
    }));

    // Close races a buffered send: when the close wins the send is dropped
    // (Go panics) and nothing orders the sender's write before main's read.
    programs.push(Program::new("close_vs_send", |ctx| {
        let x = ctx.cell("x", 0i64);
        let ch = ctx.chan::<i64>("ch", 1);
        let (x2, tx) = (x.clone(), ch.clone());
        ctx.go("sender", move |ctx| {
            ctx.write(&x2, 1);
            tx.send(ctx, 1);
        });
        let closer = ch.clone();
        ctx.go("closer", move |ctx| closer.close(ctx));
        while !ch.recv(ctx).is_closed() {}
        let _ = ctx.read(&x);
    }));

    // Close as broadcast: the waiter's receive-from-closed is after the
    // close, so its read is ordered; the impatient reader only polls, and
    // is ordered only when its poll already saw the close.
    programs.push(Program::new("recv_from_closed", |ctx| {
        let cfg = ctx.cell("cfg", 0i64);
        let done = ctx.chan::<()>("done", 0);
        let (cfg1, done1) = (cfg.clone(), done.clone());
        ctx.go("waiter", move |ctx| {
            let _ = done1.recv(ctx);
            let _ = ctx.read(&cfg1);
        });
        let (cfg2, done2) = (cfg.clone(), done.clone());
        ctx.go("impatient", move |ctx| {
            let _ = done2.try_recv(ctx);
            let _ = ctx.read(&cfg2);
        });
        ctx.write(&cfg, 7);
        done.close(ctx);
    }));

    // A one-slot channel as a lock (`sem <- token` … `<-sem`): `guarded` is
    // race-free only through the `k`-th-receive → `(k+1)`-th-send-complete
    // edge; `stray` is touched once outside the critical section.
    programs.push(Program::new("chan_as_lock", |ctx| {
        let sem = ctx.chan::<()>("sem", 1);
        let guarded = ctx.cell("guarded", 0i64);
        let stray = ctx.cell("stray", 0i64);
        let wg = ctx.waitgroup("wg");
        for g in 0..3 {
            wg.add(ctx, 1);
            let (sem, guarded, stray, wg) =
                (sem.clone(), guarded.clone(), stray.clone(), wg.clone());
            ctx.go("worker", move |ctx| {
                sem.send(ctx, ());
                ctx.update(&guarded, |v| v + 1);
                if g != 0 {
                    ctx.update(&stray, |v| v + 1);
                }
                let _ = sem.recv(ctx);
                if g == 0 {
                    ctx.update(&stray, |v| v + 1);
                }
                wg.done(ctx);
            });
        }
        wg.wait(ctx);
        let _ = ctx.read(&guarded);
    }));
    programs
}
