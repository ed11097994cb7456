//! Go's `sync` package: `Mutex`, `RWMutex`, `WaitGroup`, `Once`, and
//! `sync/atomic`.
//!
//! Two deliberate fidelity points matter for the study's patterns:
//!
//! * **Value vs. pointer semantics** (Observation 6): a [`Mutex`] handle
//!   clone aliases the same lock (Go pointer semantics), while
//!   [`Mutex::copy_value`] produces an *independent* lock sharing no state —
//!   exactly what happens when a Go `sync.Mutex` is accidentally passed by
//!   value (Listing 7).
//! * **Flexible group synchronization** (Observation 8): [`WaitGroup`]
//!   participants are registered dynamically via `Add`, so misplacing the
//!   `Add` inside the goroutine body lets `Wait` return early (Listing 10) —
//!   the runtime faithfully reproduces that premature unblocking.

use std::panic::Location;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use crate::ctx::Ctx;
use crate::event::{AccessKind, EventKind, LockMode};
use crate::ids::{Addr, LockUid, OnceId, WgId};
use crate::kernel::{Attempt, BlockReason, Kernel, LockState, OnceState, WgState};
use crate::runtime::RuntimeError;

/// A Go `sync.Mutex`.
///
/// # Example
///
/// ```
/// use grs_runtime::{NullMonitor, Program, RunConfig, Runtime};
///
/// let p = Program::new("mutex", |ctx| {
///     let mu = ctx.mutex("mu");
///     let counter = ctx.cell("counter", 0i64);
///     let (mu2, c2) = (mu.clone(), counter.clone());
///     ctx.go("worker", move |ctx| {
///         mu2.lock(ctx);
///         ctx.update(&c2, |v| v + 1);
///         mu2.unlock(ctx);
///     });
///     mu.lock(ctx);
///     ctx.update(&counter, |v| v + 1);
///     mu.unlock(ctx);
/// });
/// let (outcome, _) = Runtime::new(RunConfig::with_seed(2)).run(&p, NullMonitor);
/// assert!(outcome.is_clean());
/// ```
#[derive(Debug, Clone)]
pub struct Mutex {
    uid: LockUid,
    name: Arc<str>,
}

impl Ctx {
    /// Creates a mutex.
    pub fn mutex(&self, name: &str) -> Mutex {
        let id = self.kernel().alloc_id();
        self.kernel().lock().locks.insert(id, LockState::default());
        Mutex {
            uid: LockUid(id),
            name: self.kernel().depot().text(name),
        }
    }

    /// Creates a reader-writer mutex.
    pub fn rwmutex(&self, name: &str) -> RwMutex {
        let id = self.kernel().alloc_id();
        self.kernel().lock().locks.insert(id, LockState::default());
        RwMutex {
            uid: LockUid(id),
            name: self.kernel().depot().text(name),
        }
    }

    /// Creates a wait group with counter zero.
    pub fn waitgroup(&self, name: &str) -> WaitGroup {
        let id = self.kernel().alloc_id();
        self.kernel().lock().wgs.insert(id, WgState::default());
        WaitGroup {
            id: WgId(id),
            name: self.kernel().depot().text(name),
        }
    }

    /// Creates a `sync.Once`.
    pub fn once(&self, name: &str) -> Once {
        let id = self.kernel().alloc_id();
        self.kernel()
            .lock()
            .onces
            .insert(id, crate::kernel::OnceSlot::default());
        Once {
            id: OnceId(id),
            name: self.kernel().depot().text(name),
        }
    }

    /// Creates an atomic integer cell (`sync/atomic`).
    pub fn atomic(&self, name: &str, value: i64) -> AtomicCell {
        AtomicCell {
            addr: Addr(self.kernel().alloc_id()),
            name: self.kernel().depot().text(name),
            value: Arc::new(AtomicI64::new(value)),
        }
    }
}

impl Mutex {
    /// The lock's identity (stable across handle clones, distinct across
    /// [`Mutex::copy_value`] copies).
    #[must_use]
    pub fn uid(&self) -> LockUid {
        self.uid
    }

    /// The debug name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Models Go's pass-by-value of a `sync.Mutex` (Listing 7): the copy is
    /// a *different* lock sharing no internal state, so critical sections
    /// "protected" by the copy exclude nothing.
    #[must_use]
    pub fn copy_value(&self, ctx: &Ctx) -> Mutex {
        let id = ctx.kernel().alloc_id();
        ctx.kernel().lock().locks.insert(id, LockState::default());
        Mutex {
            uid: LockUid(id),
            name: ctx
                .kernel()
                .depot()
                .text_fmt(format_args!("{} (copy)", self.name)),
        }
    }

    /// Acquires the lock, blocking while held by anyone (including the
    /// calling goroutine: Go mutexes are not reentrant, so a self-relock
    /// deadlocks, which the runtime reports as such).
    pub fn lock(&self, ctx: &Ctx) {
        acquire(ctx, self.uid, LockMode::Write);
    }

    /// Releases the lock. Unlocking an unlocked mutex records
    /// [`RuntimeError::UnlockOfUnlockedMutex`] (Go panics). Like Go, the
    /// unlocker need not be the locker.
    pub fn unlock(&self, ctx: &Ctx) {
        release(ctx, self.uid, &self.name, LockMode::Write);
    }

    /// Runs `f` with the lock held (lock/unlock convenience).
    pub fn with<R>(&self, ctx: &Ctx, f: impl FnOnce(&Ctx) -> R) -> R {
        self.lock(ctx);
        let r = f(ctx);
        self.unlock(ctx);
        r
    }
}

/// A Go `sync.RWMutex` with writer preference (as in Go: a blocked writer
/// stops new readers from acquiring).
#[derive(Debug, Clone)]
pub struct RwMutex {
    uid: LockUid,
    name: Arc<str>,
}

impl RwMutex {
    /// The lock's identity.
    #[must_use]
    pub fn uid(&self) -> LockUid {
        self.uid
    }

    /// The debug name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Acquires in shared (read) mode.
    pub fn rlock(&self, ctx: &Ctx) {
        acquire(ctx, self.uid, LockMode::Read);
    }

    /// Releases shared mode.
    pub fn runlock(&self, ctx: &Ctx) {
        release(ctx, self.uid, &self.name, LockMode::Read);
    }

    /// Acquires in exclusive (write) mode.
    pub fn lock(&self, ctx: &Ctx) {
        acquire(ctx, self.uid, LockMode::Write);
    }

    /// Releases exclusive mode.
    pub fn unlock(&self, ctx: &Ctx) {
        release(ctx, self.uid, &self.name, LockMode::Write);
    }

    /// Runs `f` holding the read lock.
    pub fn with_read<R>(&self, ctx: &Ctx, f: impl FnOnce(&Ctx) -> R) -> R {
        self.rlock(ctx);
        let r = f(ctx);
        self.runlock(ctx);
        r
    }

    /// Runs `f` holding the write lock.
    pub fn with_write<R>(&self, ctx: &Ctx, f: impl FnOnce(&Ctx) -> R) -> R {
        self.lock(ctx);
        let r = f(ctx);
        self.unlock(ctx);
        r
    }
}

/// Lock acquisition for both lock types. A writer needs the lock free of
/// holders; a reader needs no writer holding *or waiting* (Go's writer
/// preference), so a writer stays in `write_waiters` from its first refused
/// attempt until it acquires.
fn acquire(ctx: &Ctx, uid: LockUid, mode: LockMode) {
    let (kernel, gid) = (ctx.kernel(), ctx.gid());
    let mut registered = false;
    kernel.block_on(gid, |k| {
        let ls = k.locks.get_mut(&uid.0).expect("lock exists");
        let free = match mode {
            LockMode::Write => ls.writer.is_none() && ls.readers == 0,
            LockMode::Read => ls.writer.is_none() && ls.write_waiters.is_empty(),
        };
        if !free {
            if mode == LockMode::Write && !registered {
                ls.write_waiters.push(gid);
                registered = true;
            }
            ls.waiters.push(gid);
            return Attempt::Wait(BlockReason::Lock(uid));
        }
        match mode {
            LockMode::Write => ls.writer = Some(gid),
            LockMode::Read => ls.readers += 1,
        }
        if registered {
            ls.write_waiters.retain(|&g| g != gid);
        }
        kernel.emit_locked(k, gid, EventKind::Acquire { lock: uid, mode });
        Attempt::Done(())
    });
}

/// Lock release for both lock types: wakes every waiter, then offers the
/// token. Releasing a lock not held in `mode` records
/// [`RuntimeError::UnlockOfUnlockedMutex`] and changes nothing.
fn release(ctx: &Ctx, uid: LockUid, name: &str, mode: LockMode) {
    let (kernel, gid) = (ctx.kernel(), ctx.gid());
    let mut k = kernel.lock();
    let ls = k.locks.get_mut(&uid.0).expect("lock exists");
    match mode {
        LockMode::Write if ls.writer.is_some() => ls.writer = None,
        LockMode::Read if ls.readers > 0 => ls.readers -= 1,
        _ => {
            let mutex = name.to_string();
            k.errors.push(RuntimeError::UnlockOfUnlockedMutex { mutex });
            return;
        }
    }
    let waiters = std::mem::take(&mut ls.waiters);
    kernel.emit_locked(&mut k, gid, EventKind::Release { lock: uid, mode });
    for g in waiters {
        Kernel::wake(&mut k, g);
    }
    drop(k);
    kernel.yield_point(gid);
}

/// A Go `sync.WaitGroup`: dynamic group synchronization.
#[derive(Debug, Clone)]
pub struct WaitGroup {
    id: WgId,
    name: Arc<str>,
}

impl WaitGroup {
    /// The wait group's identity.
    #[must_use]
    pub fn id(&self) -> WgId {
        self.id
    }

    /// The debug name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `Add(delta)`. A negative resulting counter records
    /// [`RuntimeError::NegativeWaitGroup`] (Go panics) and clamps to zero.
    pub fn add(&self, ctx: &Ctx, delta: i64) {
        let (kernel, gid) = (ctx.kernel(), ctx.gid());
        let mut k = kernel.yield_locked(gid);
        let ws = k.wgs.get_mut(&self.id.0).expect("waitgroup exists");
        ws.counter += delta;
        let mut counter = ws.counter;
        if counter < 0 {
            ws.counter = 0;
            counter = 0;
            let name = self.name.to_string();
            k.errors
                .push(RuntimeError::NegativeWaitGroup { waitgroup: name });
        }
        kernel.emit_locked(
            &mut k,
            gid,
            EventKind::WgAdd {
                wg: self.id,
                delta,
                counter,
            },
        );
        if counter == 0 {
            let ws = k.wgs.get_mut(&self.id.0).expect("waitgroup exists");
            let waiters = std::mem::take(&mut ws.waiters);
            for g in waiters {
                Kernel::wake(&mut k, g);
            }
        }
    }

    /// `Done()` — shorthand for `Add(-1)`.
    pub fn done(&self, ctx: &Ctx) {
        self.add(ctx, -1);
    }

    /// Blocks until the counter is zero.
    ///
    /// Faithful to Go's flexibility (Observation 8): if the `Add` calls
    /// race with `Wait` — e.g. `Add(1)` misplaced inside the goroutine
    /// bodies as in Listing 10 — `Wait` can observe a transient zero and
    /// return before the workers were ever registered.
    pub fn wait(&self, ctx: &Ctx) {
        let (kernel, gid) = (ctx.kernel(), ctx.gid());
        kernel.block_on(gid, |k| {
            let ws = k.wgs.get_mut(&self.id.0).expect("waitgroup exists");
            if ws.counter != 0 {
                ws.waiters.push(gid);
                return Attempt::Wait(BlockReason::WgWait(self.id));
            }
            kernel.emit_locked(k, gid, EventKind::WgWait { wg: self.id });
            Attempt::Done(())
        });
    }
}

/// A Go `sync.Once`.
#[derive(Debug, Clone)]
pub struct Once {
    id: OnceId,
    name: Arc<str>,
}

impl Once {
    /// The once's identity.
    #[must_use]
    pub fn id(&self) -> OnceId {
        self.id
    }

    /// The debug name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs `f` exactly once across all callers; every `do_once` return
    /// happens-after the single execution, as in Go.
    pub fn do_once(&self, ctx: &Ctx, f: impl FnOnce(&Ctx)) {
        let (kernel, gid) = (ctx.kernel(), ctx.gid());
        let first = kernel.block_on(gid, |k| {
            let slot = k.onces.get_mut(&self.id.0).expect("once exists");
            match slot.state {
                OnceState::NotRun => {
                    slot.state = OnceState::Running;
                    Attempt::Done(true)
                }
                OnceState::Running => {
                    slot.waiters.push(gid);
                    Attempt::Wait(BlockReason::Once(self.id))
                }
                OnceState::Done => {
                    kernel.emit_locked(k, gid, EventKind::OnceObserved { once: self.id });
                    Attempt::Done(false)
                }
            }
        });
        if !first {
            return;
        }
        f(ctx);
        let mut k = kernel.lock();
        let slot = k.onces.get_mut(&self.id.0).expect("once exists");
        slot.state = OnceState::Done;
        let waiters = std::mem::take(&mut slot.waiters);
        kernel.emit_locked(&mut k, gid, EventKind::OnceExecuted { once: self.id });
        for g in waiters {
            Kernel::wake(&mut k, g);
        }
    }
}

/// An atomic integer (`sync/atomic`), plus the *plain* access methods a
/// developer reaches for when they forget atomicity on one side (§4.9.2:
/// "used atomics for writing … but forgot to use it to read").
#[derive(Debug, Clone)]
pub struct AtomicCell {
    addr: Addr,
    name: Arc<str>,
    value: Arc<AtomicI64>,
}

impl AtomicCell {
    /// The shadow address (shared by atomic and plain accesses, so the
    /// detector can pair them).
    #[must_use]
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Atomic load.
    #[track_caller]
    pub fn load(&self, ctx: &Ctx) -> i64 {
        let loc = Location::caller();
        ctx.access(self.addr, || &*self.name, AccessKind::AtomicRead, loc);
        self.value.load(Ordering::SeqCst)
    }

    /// Atomic store.
    #[track_caller]
    pub fn store(&self, ctx: &Ctx, v: i64) {
        let loc = Location::caller();
        ctx.access(self.addr, || &*self.name, AccessKind::AtomicWrite, loc);
        self.value.store(v, Ordering::SeqCst);
    }

    /// Atomic fetch-add; returns the new value (Go's `atomic.AddInt64`).
    #[track_caller]
    pub fn add(&self, ctx: &Ctx, delta: i64) -> i64 {
        let loc = Location::caller();
        ctx.access(self.addr, || &*self.name, AccessKind::AtomicWrite, loc);
        self.value.fetch_add(delta, Ordering::SeqCst) + delta
    }

    /// Atomic compare-and-swap; returns whether the swap happened.
    #[track_caller]
    pub fn compare_and_swap(&self, ctx: &Ctx, old: i64, new: i64) -> bool {
        let loc = Location::caller();
        ctx.access(self.addr, || &*self.name, AccessKind::AtomicWrite, loc);
        self.value
            .compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Non-atomic load of the same variable — the §4.9.2 mistake.
    #[track_caller]
    pub fn load_plain(&self, ctx: &Ctx) -> i64 {
        let loc = Location::caller();
        ctx.access(self.addr, || &*self.name, AccessKind::Read, loc);
        self.value.load(Ordering::SeqCst)
    }

    /// Non-atomic store of the same variable — the §4.9.2 mistake.
    #[track_caller]
    pub fn store_plain(&self, ctx: &Ctx, v: i64) {
        let loc = Location::caller();
        ctx.access(self.addr, || &*self.name, AccessKind::Write, loc);
        self.value.store(v, Ordering::SeqCst);
    }
}
