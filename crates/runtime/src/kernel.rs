//! The runtime kernel: goroutine bookkeeping and the token-passing scheduler.
//!
//! Exactly one goroutine holds the *token* (runs) at any time. Every
//! instrumented operation calls back into the kernel, which consults the
//! [`Strategy`](crate::sched::Strategy) to decide whether to preempt. All
//! scheduling randomness flows through one seeded RNG, so the interleaving —
//! and therefore which races fire — is a deterministic function of the seed.
//!
//! Blocking operations (channel send/receive, mutex lock, `WaitGroup.Wait`)
//! all block in `Kernel::block_on` (the crate docs describe the seam).
//! Wakers mark waiters runnable but never transfer control directly; the
//! scheduler hands the token out at its own pace, which is what lets
//! adversarial schedules expose races.
//!
//! When no goroutine is runnable the kernel declares either a **deadlock**
//! (the main goroutine is among the blocked — Go would crash with
//! `all goroutines are asleep`) or a **goroutine leak** (main already
//! finished; Go would silently leak, as in Listing 9's `Future` that blocks
//! forever on a channel send).

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ctx::Ctx;
use crate::depot::{StackDepot, StackId};
use crate::event::{AccessKind, Event, EventKind, LockMode};
use crate::ids::{ChanId, Gid, LockUid, OnceId, WgId};
use crate::monitor::{AnyMonitor, MonitorStats};
use crate::runtime::{DeadlockInfo, RunConfig, RuntimeError};
use crate::sched::{GuidedPolicy, SchedulePolicy, Scheduler, ScheduleTrace};

/// Why a goroutine is blocked (for deadlock/leak diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Waiting to send on a channel.
    ChanSend(ChanId),
    /// Waiting to receive from a channel.
    ChanRecv(ChanId),
    /// Waiting in a `select` over channels.
    Select,
    /// Waiting to acquire a lock.
    Lock(LockUid),
    /// Waiting in `WaitGroup.Wait()`.
    WgWait(WgId),
    /// Waiting for a `sync.Once` executing in another goroutine.
    Once(OnceId),
}

impl std::fmt::Display for BlockReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockReason::ChanSend(c) => write!(f, "send on {c}"),
            BlockReason::ChanRecv(c) => write!(f, "receive on {c}"),
            BlockReason::Select => write!(f, "select"),
            BlockReason::Lock(l) => write!(f, "acquire of {l}"),
            BlockReason::WgWait(w) => write!(f, "wait on {w}"),
            BlockReason::Once(o) => write!(f, "wait on {o}"),
        }
    }
}

/// What one attempt at a blocking operation came to (see
/// [`Kernel::block_on`]).
pub(crate) enum Attempt<T> {
    /// The operation took effect: state mutated, event emitted, whoever it
    /// unblocks woken.
    Done(T),
    /// It cannot take effect yet; the goroutine is queued on what will
    /// [`wake`](Kernel::wake) it.
    Wait(BlockReason),
}

/// Scheduling state of one goroutine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GState {
    /// Holds the token.
    Running,
    /// Ready to run when handed the token.
    Runnable,
    /// Parked until a waker marks it runnable.
    Blocked(BlockReason),
    /// Body returned (or panicked).
    Finished,
}

#[derive(Debug)]
struct Goroutine {
    name: Arc<str>,
    state: GState,
    /// Current logical call stack, maintained incrementally as a depot id:
    /// frame push interns one child node, frame pop walks one parent edge,
    /// and the per-access "snapshot" is a `u32` copy.
    stack: StackId,
}

/// The per-goroutine token gate: a binary semaphore.
#[derive(Debug, Default)]
pub(crate) struct Gate {
    token: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn hand(&self) {
        let mut t = self.token.lock().unwrap_or_else(|e| e.into_inner());
        *t = true;
        self.cv.notify_one();
    }

    fn wait(&self) {
        let mut t = self.token.lock().unwrap_or_else(|e| e.into_inner());
        while !*t {
            t = self.cv.wait(t).unwrap_or_else(|e| e.into_inner());
        }
        *t = false;
    }
}

/// Panic payload used to unwind goroutine bodies when the run aborts
/// (deadlock, leak cleanup, step-budget exhaustion).
pub(crate) struct PoisonExit;

/// Installs (once per process) a panic hook that silences the internal
/// [`PoisonExit`] unwinds — they are control flow, not failures — while
/// delegating every other panic to the previous hook.
fn install_quiet_poison_hook() {
    use std::sync::Once;
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<PoisonExit>().is_some() {
                return;
            }
            prev(info);
        }));
    });
}

/// Channel bookkeeping (the typed value buffer lives in [`crate::Chan`]).
#[derive(Debug)]
pub(crate) struct ChanState {
    pub cap: usize,
    pub qlen: usize,
    pub closed: bool,
    pub send_seq: u64,
    pub recv_seq: u64,
    /// Goroutines parked waiting to send (or to complete a rendezvous).
    pub send_waiters: Vec<Gid>,
    /// Goroutines parked waiting to receive (including `select` arms).
    pub recv_waiters: Vec<Gid>,
}

impl ChanState {
    pub(crate) fn new(cap: usize) -> Self {
        ChanState {
            cap,
            qlen: 0,
            closed: false,
            send_seq: 0,
            recv_seq: 0,
            send_waiters: Vec::new(),
            recv_waiters: Vec::new(),
        }
    }
}

/// Mutex / rwlock bookkeeping.
#[derive(Debug, Default)]
pub(crate) struct LockState {
    /// Exclusive holder, if any.
    pub writer: Option<Gid>,
    /// Number of shared (read) holders.
    pub readers: usize,
    /// Goroutines parked waiting for a *write* acquisition (gives Go's
    /// writer preference: new readers queue behind a waiting writer).
    pub write_waiters: Vec<Gid>,
    /// All parked waiters (read and write) to wake on release.
    pub waiters: Vec<Gid>,
}

/// WaitGroup bookkeeping.
#[derive(Debug, Default)]
pub(crate) struct WgState {
    pub counter: i64,
    pub waiters: Vec<Gid>,
}

/// `sync.Once` state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OnceState {
    NotRun,
    Running,
    Done,
}

/// `sync.Once` bookkeeping.
#[derive(Debug)]
pub(crate) struct OnceSlot {
    pub state: OnceState,
    pub waiters: Vec<Gid>,
}

impl Default for OnceSlot {
    fn default() -> Self {
        OnceSlot {
            state: OnceState::NotRun,
            waiters: Vec::new(),
        }
    }
}

pub(crate) struct KState {
    pub monitor: Option<Box<dyn AnyMonitor>>,
    pub rng: StdRng,
    sched: Scheduler,
    goroutines: Vec<Goroutine>,
    gates: Vec<Arc<Gate>>,
    pub step: u64,
    max_steps: u64,
    next_id: u64,
    pub chans: HashMap<u64, ChanState>,
    pub locks: HashMap<u64, LockState>,
    pub wgs: HashMap<u64, WgState>,
    pub onces: HashMap<u64, OnceSlot>,
    aborting: bool,
    run_finished: bool,
    live: usize,
    /// Events actually handed to the monitor (excludes scheduler-only steps).
    events_dispatched: u64,
    /// Running FNV fold over the dispatched event stream — the cheap half
    /// of the run's coverage signature (the depot interns are folded in at
    /// [`Kernel::take_outcome`]).
    coverage: u64,
    /// High-water mark of `monitor.shadow_words()` across the run.
    peak_shadow_words: usize,
    pub errors: Vec<RuntimeError>,
    pub deadlock: Option<DeadlockInfo>,
    pub leaked: Vec<(Gid, String)>,
    pub spawned_total: usize,
    threads: Vec<std::thread::JoinHandle<()>>,
}

/// The shared kernel: one per run.
pub struct Kernel {
    state: Mutex<KState>,
    run_done: Condvar,
    /// Fast-path flag mirrored from `KState::aborting` so hot paths can
    /// bail without the lock.
    poisoned: AtomicBool,
    /// True when the monitor ignores events (instrumentation disabled; the
    /// `-race`-off baseline).
    noop_monitor: bool,
    /// The run's stack interner. Lives outside the kernel lock (it has its
    /// own) so report paths can resolve ids without kernel state.
    depot: StackDepot,
}

impl Kernel {
    pub(crate) fn new(
        config: &RunConfig,
        monitor: Box<dyn AnyMonitor>,
        depot: StackDepot,
    ) -> Arc<Kernel> {
        install_quiet_poison_hook();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let base = config.strategy.policy(&mut rng, config.pct_steps_hint);
        let policy: Box<dyn SchedulePolicy> = match &config.schedule_prefix {
            Some(prefix) => Box::new(GuidedPolicy::new(prefix.clone(), base)),
            None => base,
        };
        let sched = Scheduler::with_policy(policy);
        let mut state = KState {
            monitor: Some(monitor),
            rng,
            sched,
            goroutines: Vec::new(),
            gates: Vec::new(),
            step: 0,
            max_steps: config.max_steps,
            next_id: 1,
            chans: HashMap::new(),
            locks: HashMap::new(),
            wgs: HashMap::new(),
            onces: HashMap::new(),
            aborting: false,
            run_finished: false,
            live: 0,
            events_dispatched: 0,
            coverage: 0xcbf2_9ce4_8422_2325,
            peak_shadow_words: 0,
            errors: Vec::new(),
            deadlock: None,
            leaked: Vec::new(),
            spawned_total: 0,
            threads: Vec::new(),
        };
        // Register the main goroutine (runs inline on the caller thread and
        // implicitly holds the token).
        state.goroutines.push(Goroutine {
            name: Arc::from("main"),
            state: GState::Running,
            stack: depot.push(StackId::EMPTY, "main", 0),
        });
        state.gates.push(Arc::new(Gate::default()));
        state.live = 1;
        state.spawned_total = 1;
        {
            let KState {
                ref mut sched,
                ref mut rng,
                ..
            } = state;
            sched.register(Gid::MAIN, rng);
        }
        let noop_monitor = state
            .monitor
            .as_ref()
            .is_some_and(|m| m.is_noop());
        Arc::new(Kernel {
            state: Mutex::new(state),
            run_done: Condvar::new(),
            poisoned: AtomicBool::new(false),
            noop_monitor,
            depot,
        })
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, KState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// True when event construction can be skipped entirely.
    pub(crate) fn instrumentation_disabled(&self) -> bool {
        self.noop_monitor
    }

    /// Allocates a fresh object id (shared by addresses, locks, channels...).
    pub(crate) fn alloc_id(&self) -> u64 {
        let mut k = self.lock();
        let id = k.next_id;
        k.next_id += 1;
        id
    }

    /// Emits an event under the already-held kernel lock.
    pub(crate) fn emit_locked(&self, k: &mut KState, gid: Gid, kind: EventKind) {
        k.step += 1;
        fold_event_coverage(&mut k.coverage, gid, &kind);
        let ev = Event {
            step: k.step,
            gid,
            kind,
        };
        if let Some(mon) = k.monitor.as_mut() {
            mon.on_event(&ev);
            k.events_dispatched += 1;
            let words = mon.shadow_words();
            if words > k.peak_shadow_words {
                k.peak_shadow_words = words;
            }
        }
    }

    /// `gid`'s current logical call stack — a `u32` copy, no materialization.
    pub(crate) fn current_stack(k: &KState, gid: Gid) -> StackId {
        k.goroutines[gid.index()].stack
    }

    pub(crate) fn push_frame(&self, gid: Gid, func: &str, call_line: u32) {
        let mut k = self.lock();
        let cur = k.goroutines[gid.index()].stack;
        k.goroutines[gid.index()].stack = self.depot.push(cur, func, call_line);
    }

    pub(crate) fn pop_frame(&self, gid: Gid) {
        let mut k = self.lock();
        let cur = k.goroutines[gid.index()].stack;
        // Keep the root (goroutine-body) frame, matching the old guard.
        if self.depot.depth(cur) > 1 {
            k.goroutines[gid.index()].stack = self.depot.parent(cur);
        }
    }

    fn runnable(k: &KState) -> Vec<Gid> {
        k.goroutines
            .iter()
            .enumerate()
            .filter(|(_, g)| g.state == GState::Runnable)
            .map(|(i, _)| Gid(i as u32))
            .collect()
    }

    /// Marks a blocked goroutine runnable (no-op otherwise). Spurious wakes
    /// are safe: a woken goroutine runs its attempt again.
    pub(crate) fn wake(k: &mut KState, gid: Gid) {
        let g = &mut k.goroutines[gid.index()];
        if matches!(g.state, GState::Blocked(_)) {
            g.state = GState::Runnable;
        }
    }

    /// A preemption point: lets the strategy move the token.
    ///
    /// # Panics
    ///
    /// Unwinds with a private payload when the run is aborting; the
    /// goroutine wrapper catches it.
    pub(crate) fn yield_point(&self, gid: Gid) {
        if self.poisoned.load(Ordering::Relaxed) {
            panic::panic_any(PoisonExit);
        }
        let mut k = self.lock();
        self.check_abort(&k);
        k.step += 1;
        if k.step > k.max_steps {
            let max_steps = k.max_steps;
            k.errors.push(RuntimeError::StepBudgetExhausted { max_steps });
            self.abort_run(&mut k);
            drop(k);
            panic::panic_any(PoisonExit);
        }
        k.goroutines[gid.index()].state = GState::Runnable;
        drop(self.hand_off(k, gid));
    }

    /// Runs one blocking operation for `gid`: a preemption point, then
    /// `attempt` under the kernel lock until it is [`Attempt::Done`],
    /// parking after every [`Attempt::Wait`].
    pub(crate) fn block_on<T>(
        &self,
        gid: Gid,
        mut attempt: impl FnMut(&mut KState) -> Attempt<T>,
    ) -> T {
        self.yield_point(gid);
        let mut k = self.lock();
        loop {
            match attempt(&mut k) {
                Attempt::Done(v) => return v,
                Attempt::Wait(reason) => k = self.park(k, gid, reason),
            }
        }
    }

    /// Parks `gid` (already queued on what will wake it) and returns with
    /// the lock re-held once the token comes back.
    fn park<'a>(
        &'a self,
        mut k: MutexGuard<'a, KState>,
        gid: Gid,
        reason: BlockReason,
    ) -> MutexGuard<'a, KState> {
        k.goroutines[gid.index()].state = GState::Blocked(reason);
        self.hand_off(k, gid)
    }

    /// Passes the token from `gid`, whose state the caller has just set, to
    /// the strategy's pick among the runnable goroutines, and returns with
    /// the lock re-held once the token is back (at once when the pick is
    /// `gid` itself).
    fn hand_off<'a>(&'a self, mut k: MutexGuard<'a, KState>, gid: Gid) -> MutexGuard<'a, KState> {
        let candidates = Self::runnable(&k);
        if candidates.is_empty() {
            // Nothing can run: deadlock (main blocked too) or leak.
            self.stall(&mut k);
            drop(k);
            panic::panic_any(PoisonExit);
        }
        let next = {
            let KState {
                ref mut sched,
                ref mut rng,
                ..
            } = *k;
            sched.pick(&candidates, Some(gid), rng)
        };
        k.goroutines[next.index()].state = GState::Running;
        if next == gid {
            return k;
        }
        let next_gate = k.gates[next.index()].clone();
        let my_gate = k.gates[gid.index()].clone();
        drop(k);
        next_gate.hand();
        my_gate.wait();
        let k = self.lock();
        self.check_abort(&k);
        k
    }

    fn check_abort(&self, k: &KState) {
        if k.aborting {
            panic::panic_any(PoisonExit);
        }
    }

    /// No runnable goroutine exists. Classify, record, and abort the run.
    fn stall(&self, k: &mut KState) {
        let main_alive = k.goroutines[0].state != GState::Finished;
        let blocked: Vec<(Gid, String, String)> = k
            .goroutines
            .iter()
            .enumerate()
            .filter_map(|(i, g)| match g.state {
                GState::Blocked(r) => {
                    Some((Gid(i as u32), g.name.to_string(), r.to_string()))
                }
                _ => None,
            })
            .collect();
        if main_alive {
            k.deadlock = Some(DeadlockInfo {
                blocked: blocked
                    .iter()
                    .map(|(g, n, r)| (*g, format!("{n}: {r}")))
                    .collect(),
            });
        } else {
            for (g, n, r) in &blocked {
                k.leaked.push((*g, format!("{n}: {r}")));
            }
        }
        self.abort_run(k);
    }

    /// Sets the abort flag, wakes every gate so parked threads can unwind,
    /// and signals run completion.
    fn abort_run(&self, k: &mut KState) {
        k.aborting = true;
        k.run_finished = true;
        self.poisoned.store(true, Ordering::Relaxed);
        for gate in &k.gates {
            gate.hand();
        }
        self.run_done.notify_all();
    }

    /// Registers a new goroutine and spawns its OS thread.
    pub(crate) fn spawn_goroutine(
        self: &Arc<Self>,
        parent: Gid,
        name: Arc<str>,
        body: Box<dyn FnOnce(&Ctx) + Send>,
    ) -> Gid {
        let child;
        {
            let mut k = self.lock();
            child = Gid(k.goroutines.len() as u32);
            k.goroutines.push(Goroutine {
                name: name.clone(),
                state: GState::Runnable,
                stack: self.depot.push(StackId::EMPTY, &name, 0),
            });
            k.gates.push(Arc::new(Gate::default()));
            k.live += 1;
            k.spawned_total += 1;
            {
                let KState {
                    ref mut sched,
                    ref mut rng,
                    ..
                } = *k;
                sched.register(child, rng);
            }
            self.emit_locked(
                &mut k,
                parent,
                EventKind::Spawn {
                    child,
                    name: name.clone(),
                },
            );
            let kernel = Arc::clone(self);
            let gate = k.gates[child.index()].clone();
            let handle = std::thread::Builder::new()
                .name(format!("{name}-{child}"))
                .spawn(move || {
                    gate.wait();
                    if kernel.poisoned.load(Ordering::Relaxed) {
                        return;
                    }
                    let ctx = Ctx::new(child, Arc::clone(&kernel));
                    let result =
                        panic::catch_unwind(AssertUnwindSafe(|| body(&ctx)));
                    match result {
                        Ok(()) => kernel.finish(child, None),
                        Err(payload) => {
                            if payload.downcast_ref::<PoisonExit>().is_some() {
                                // Run is aborting; exit silently.
                            } else {
                                let msg = panic_message(&*payload);
                                kernel.finish(child, Some(msg));
                            }
                        }
                    }
                })
                .expect("failed to spawn goroutine thread");
            k.threads.push(handle);
        }
        // Give the child a chance to run immediately, per the strategy.
        self.yield_point(parent);
        child
    }

    /// Marks `gid` finished and passes the token onward (or ends the run).
    pub(crate) fn finish(&self, gid: Gid, panic_msg: Option<String>) {
        let mut k = self.lock();
        if k.aborting {
            return;
        }
        if let Some(msg) = panic_msg {
            let name = k.goroutines[gid.index()].name.to_string();
            k.errors.push(RuntimeError::GoroutinePanic {
                goroutine: name,
                message: msg,
            });
        }
        k.goroutines[gid.index()].state = GState::Finished;
        k.live -= 1;
        self.emit_locked(&mut k, gid, EventKind::GoroutineEnd);
        if k.live == 0 {
            k.run_finished = true;
            self.run_done.notify_all();
            return;
        }
        let candidates = Self::runnable(&k);
        if candidates.is_empty() {
            // Everyone left is blocked.
            self.stall(&mut k);
            return;
        }
        let next = {
            let KState {
                ref mut sched,
                ref mut rng,
                ..
            } = *k;
            sched.pick(&candidates, None, rng)
        };
        k.goroutines[next.index()].state = GState::Running;
        let gate = k.gates[next.index()].clone();
        drop(k);
        gate.hand();
    }

    /// Called by the run driver after the main body returned: finishes main
    /// and blocks until every other goroutine finishes (or the run aborts).
    pub(crate) fn main_finished_and_wait(&self, panicked: Option<String>) {
        self.finish(Gid::MAIN, panicked);
        let mut k = self.lock();
        while !k.run_finished {
            k = self
                .run_done
                .wait(k)
                .unwrap_or_else(|e| e.into_inner());
        }
        drop(k);
        // Join all goroutine threads so no detached thread outlives the run.
        let handles = {
            let mut k = self.lock();
            std::mem::take(&mut k.threads)
        };
        for h in handles {
            let _ = h.join();
        }
    }

    /// Extracts the monitor and final statistics after the run completed.
    pub(crate) fn take_outcome(&self) -> (KernelOutcome, Box<dyn AnyMonitor>) {
        let mut k = self.lock();
        let mut monitor = k.monitor.take().expect("outcome taken twice");
        monitor.on_run_end();
        let words = monitor.shadow_words();
        if words > k.peak_shadow_words {
            k.peak_shadow_words = words;
        }
        // Complete the coverage signature: the event-stream fold plus the
        // run's depot interns — two runs that took different schedules
        // through the same code, or the same schedule through different
        // code, land in different novelty buckets.
        let mut coverage = k.coverage;
        for (parent, func, call_line) in self.depot.snapshot() {
            mix_coverage(&mut coverage, u64::from(parent.raw()));
            for b in func.bytes() {
                mix_coverage(&mut coverage, u64::from(b));
            }
            mix_coverage(&mut coverage, u64::from(call_line));
        }
        let outcome = KernelOutcome {
            steps: k.step,
            goroutines_spawned: k.spawned_total,
            errors: std::mem::take(&mut k.errors),
            deadlock: k.deadlock.take(),
            leaked: std::mem::take(&mut k.leaked),
            schedule: k.sched.take_trace(),
            coverage,
            stats: MonitorStats {
                events_dispatched: k.events_dispatched,
                depot: self.depot.stats(),
                peak_shadow_words: k.peak_shadow_words,
            },
        };
        (outcome, monitor)
    }
}

/// Raw end-of-run data handed from the kernel to [`crate::RunOutcome`].
#[derive(Debug)]
pub(crate) struct KernelOutcome {
    pub steps: u64,
    pub goroutines_spawned: usize,
    pub errors: Vec<RuntimeError>,
    pub deadlock: Option<DeadlockInfo>,
    pub leaked: Vec<(Gid, String)>,
    pub schedule: ScheduleTrace,
    pub coverage: u64,
    pub stats: MonitorStats,
}

/// Word-level FNV-1a fold — one xor-multiply per field, cheap enough for
/// the event dispatch path.
fn mix_coverage(cov: &mut u64, v: u64) {
    *cov = (*cov ^ v).wrapping_mul(0x100_0000_01b3);
}

/// Folds the salient identity of one event into the run's coverage
/// signature: the goroutine, the event-kind tag, and the object/stack ids
/// that distinguish *which code* the schedule exercised. Names and source
/// locations are deliberately skipped — they are functions of the ids —
/// so the fold costs a handful of arithmetic ops per event.
fn fold_event_coverage(cov: &mut u64, gid: Gid, kind: &EventKind) {
    mix_coverage(cov, u64::from(gid.0));
    match kind {
        EventKind::Spawn { child, .. } => {
            mix_coverage(cov, 0);
            mix_coverage(cov, u64::from(child.0));
        }
        EventKind::GoroutineEnd => mix_coverage(cov, 1),
        EventKind::Access {
            addr, kind, stack, ..
        } => {
            mix_coverage(cov, 2);
            mix_coverage(cov, addr.0);
            mix_coverage(
                cov,
                match kind {
                    AccessKind::Read => 0,
                    AccessKind::Write => 1,
                    AccessKind::AtomicRead => 2,
                    AccessKind::AtomicWrite => 3,
                },
            );
            mix_coverage(cov, u64::from(stack.raw()));
        }
        EventKind::Acquire { lock, mode } => {
            mix_coverage(cov, 3);
            mix_coverage(cov, lock.0);
            mix_coverage(cov, u64::from(*mode == LockMode::Read));
        }
        EventKind::Release { lock, mode } => {
            mix_coverage(cov, 4);
            mix_coverage(cov, lock.0);
            mix_coverage(cov, u64::from(*mode == LockMode::Read));
        }
        EventKind::ChanSend { chan, seq } => {
            mix_coverage(cov, 5);
            mix_coverage(cov, chan.0);
            mix_coverage(cov, *seq);
        }
        EventKind::ChanSendComplete { chan, seq, .. } => {
            mix_coverage(cov, 6);
            mix_coverage(cov, chan.0);
            mix_coverage(cov, *seq);
        }
        EventKind::ChanRecv { chan, seq } => {
            mix_coverage(cov, 7);
            mix_coverage(cov, chan.0);
            mix_coverage(cov, *seq);
        }
        EventKind::ChanRecvClosed { chan } => {
            mix_coverage(cov, 8);
            mix_coverage(cov, chan.0);
        }
        EventKind::ChanClose { chan } => {
            mix_coverage(cov, 9);
            mix_coverage(cov, chan.0);
        }
        EventKind::WgAdd { wg, delta, counter } => {
            mix_coverage(cov, 10);
            mix_coverage(cov, wg.0);
            mix_coverage(cov, *delta as u64);
            mix_coverage(cov, *counter as u64);
        }
        EventKind::WgWait { wg } => {
            mix_coverage(cov, 11);
            mix_coverage(cov, wg.0);
        }
        EventKind::OnceExecuted { once } => {
            mix_coverage(cov, 12);
            mix_coverage(cov, once.0);
        }
        EventKind::OnceObserved { once } => {
            mix_coverage(cov, 13);
            mix_coverage(cov, once.0);
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
