//! The runtime kernel: goroutine bookkeeping and the token-passing scheduler.
//!
//! Exactly one goroutine holds the *token* (runs) at any time. Every
//! instrumented operation calls back into the kernel, which consults the
//! [`Strategy`](crate::sched::Strategy) to decide whether to preempt. All
//! scheduling randomness flows through one seeded RNG, so the interleaving —
//! and therefore which races fire — is a deterministic function of the seed.
//!
//! Every goroutine of a run, main included, is a machine stack of its own
//! (`coro.rs`) on the OS thread that called [`Runtime::run`](crate::Runtime::run);
//! passing the token is a user-space stack switch at the end of
//! `Kernel::hand_off` and `Kernel::finish`. `Kernel::drive` switches from
//! the caller's stack to main's, gets control back when the run is over, and
//! unwinds whatever an aborted run left suspended. DESIGN.md §4 decision 1
//! holds the invariants.
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

use std::cell::{Cell, UnsafeCell};
use std::ops::{Deref, DerefMut};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use grs_obs::hash::FnvMap;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::coro::{self, Coro, SavedSp};
use crate::ctx::Ctx;
use crate::depot::{NameId, StackDepot, StackId};
use crate::event::{Event, EventKind};
use crate::ids::{Addr, ChanId, Gid, LockUid, OnceId, WgId};
use crate::monitor::{AnyMonitor, MonitorStats};
use crate::runtime::{DeadlockInfo, RunConfig, RuntimeError};
use crate::sched::{Policy, ScheduleTrace};

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

/// A goroutine body as the kernel keeps it until the goroutine's first step.
pub(crate) type Body = Box<dyn FnOnce(&Ctx) + Send>;

struct Goroutine {
    name: Arc<str>,
    state: GState,
    /// Current logical call stack, maintained incrementally as a depot id:
    /// frame push interns one child node, frame pop walks one parent edge,
    /// and the per-access "snapshot" is a `u32` copy.
    stack: StackId,
    /// The body, until [`goroutine_entry`] takes it on the goroutine's
    /// first step. An aborted run can end with it still here (the goroutine
    /// was never scheduled); it then drops with the kernel.
    body: Option<Body>,
    /// The machine stack, from spawn until the goroutine exits (when it
    /// moves to `KState::exited`).
    coro: Option<Coro>,
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
    policy: Policy,
    /// Every pick so far, folded.
    schedule: ScheduleTrace,
    goroutines: Vec<Goroutine>,
    /// The goroutines in state `Runnable`, in gid order — the candidate
    /// slice every pick sees, kept up to date at each state transition.
    runnable: Vec<Gid>,
    /// The goroutine holding the token.
    current: Gid,
    /// The suspended caller of [`Kernel::drive`]: where control goes when
    /// the run is over (and after each goroutine `drive` unwinds).
    driver: SavedSp,
    /// Stack of the goroutine that exited last. It made its final switch
    /// *on* that stack, so the stack is given back one exit later (or with
    /// the kernel).
    exited: Option<Coro>,
    pub step: u64,
    max_steps: u64,
    next_id: u64,
    pub chans: FnvMap<u64, ChanState>,
    pub locks: FnvMap<u64, LockState>,
    pub wgs: FnvMap<u64, WgState>,
    pub onces: FnvMap<u64, OnceSlot>,
    /// The address table: the name each address's events carry, indexed by
    /// address (object ids are dense), filled at the address's first
    /// emitted access.
    object_names: Vec<Option<NameId>>,
    /// The run's source files as names, keyed by the address of their
    /// `#[track_caller]` text, newest first: a program accesses from one to
    /// three files, so a hit is a pointer compare in the first slot or two
    /// (see [`Kernel::file_name`]).
    file_names: [Option<(&'static str, NameId)>; FILE_SLOTS],
    /// Set when the run is over early (deadlock, leak, step budget): from
    /// then on every goroutine that gets control unwinds (`check_abort`) —
    /// the running one at once, the suspended ones when [`Kernel::drive`]
    /// resumes them.
    aborting: bool,
    live: usize,
    /// Events actually handed to the monitor (excludes scheduler-only steps).
    events_dispatched: u64,
    pub errors: Vec<RuntimeError>,
    pub deadlock: Option<DeadlockInfo>,
    pub leaked: Vec<(Gid, String)>,
    pub spawned_total: usize,
}

/// The kernel state and its borrow flag: a `RefCell` that
/// [`Kernel::lock`] lets only the run's own OS thread into.
struct StateCell {
    state: UnsafeCell<KState>,
    /// Set while a [`StateGuard`] is alive.
    busy: Cell<bool>,
}

// SAFETY: `Ctx` is `Sync`, so a `&Kernel` can reach other OS threads, but
// the only way to `state` and `busy` is `Kernel::lock`, which refuses every
// thread but the run's before it reads `busy`. Both fields are therefore
// touched by one thread only, as for a `RefCell` that never left it.
#[allow(unsafe_code)]
unsafe impl Sync for StateCell {}

/// One borrow of the kernel state, from [`Kernel::lock`] to its drop.
pub(crate) struct StateGuard<'a> {
    cell: &'a StateCell,
}

impl Deref for StateGuard<'_> {
    type Target = KState;

    #[allow(unsafe_code)]
    fn deref(&self) -> &KState {
        // SAFETY: `busy` was clear when `lock` set it for this guard, on
        // the one thread let in, and stays set until the guard drops: no
        // other reference into the state exists meanwhile.
        unsafe { &*self.cell.state.get() }
    }
}

impl DerefMut for StateGuard<'_> {
    #[allow(unsafe_code)]
    fn deref_mut(&mut self) -> &mut KState {
        // SAFETY: as for `deref`; `&mut self` makes this borrow the
        // guard's only one.
        unsafe { &mut *self.cell.state.get() }
    }
}

impl Drop for StateGuard<'_> {
    fn drop(&mut self) {
        self.cell.busy.set(false);
    }
}

/// Source files a run keeps names for without asking the depot; a file
/// past them costs a depot lock at each access that brings it back.
const FILE_SLOTS: usize = 4;

/// The shared kernel: one per run.
pub struct Kernel {
    state: StateCell,
    /// The OS thread the run lives on (see [`thread_token`]).
    thread: usize,
    /// True when the monitor ignores events (instrumentation disabled; the
    /// `-race`-off baseline).
    noop_monitor: bool,
    /// The run's stack interner. Lives outside the kernel state (it has its
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
        let policy = Policy::new(config.strategy, &mut rng, config.pct_steps_hint);
        let mut state = KState {
            monitor: Some(monitor),
            rng,
            policy,
            schedule: ScheduleTrace::default(),
            goroutines: Vec::new(),
            runnable: Vec::new(),
            current: Gid::MAIN,
            driver: SavedSp::EMPTY,
            exited: None,
            step: 0,
            max_steps: config.max_steps,
            next_id: 1,
            chans: FnvMap::default(),
            locks: FnvMap::default(),
            wgs: FnvMap::default(),
            onces: FnvMap::default(),
            object_names: Vec::new(),
            file_names: [None; FILE_SLOTS],
            aborting: false,
            live: 0,
            events_dispatched: 0,
            errors: Vec::new(),
            deadlock: None,
            leaked: Vec::new(),
            spawned_total: 0,
        };
        // Register the main goroutine: it holds the token from the start
        // and gets its body and stack in `drive`.
        let (stack, name, _) = depot.push_goroutine("main", false);
        state.goroutines.push(Goroutine {
            name,
            state: GState::Running,
            stack,
            body: None,
            coro: None,
        });
        state.live = 1;
        state.spawned_total = 1;
        state.policy.register(Gid::MAIN, &mut state.rng);
        let noop_monitor = state
            .monitor
            .as_ref()
            .is_some_and(|m| m.is_noop());
        Arc::new(Kernel {
            state: StateCell {
                state: UnsafeCell::new(state),
                busy: Cell::new(false),
            },
            thread: thread_token(),
            noop_monitor,
            depot,
        })
    }

    /// The kernel state, for the run's own OS thread only: `Ctx` is `Sync`,
    /// but a `&Ctx` lent to another thread must not move the token (the
    /// stacks it would switch may hold values that cannot change threads)
    /// nor touch the state while a switch on the run's thread is saving
    /// into it. The run has one thread, so nothing ever waits here: a
    /// second borrow while one is alive is a kernel bug, and panics.
    pub(crate) fn lock(&self) -> StateGuard<'_> {
        assert_eq!(
            thread_token(),
            self.thread,
            "a goroutine's Ctx was used on an OS thread other than the one running it"
        );
        assert!(!self.state.busy.replace(true), "kernel state re-entered");
        StateGuard { cell: &self.state }
    }

    /// True when event construction can be skipped entirely.
    pub(crate) fn instrumentation_disabled(&self) -> bool {
        self.noop_monitor
    }

    /// The run's depot, where runtime objects take their names' text.
    pub(crate) fn depot(&self) -> &StackDepot {
        &self.depot
    }

    /// Allocates a fresh object id (shared by addresses, locks, channels...).
    pub(crate) fn alloc_id(&self) -> u64 {
        let mut k = self.lock();
        let id = k.next_id;
        k.next_id += 1;
        id
    }

    /// Emits an event from an already-borrowed kernel state.
    pub(crate) fn emit_locked(&self, k: &mut KState, gid: Gid, kind: EventKind) {
        k.step += 1;
        let ev = Event {
            step: k.step,
            gid,
            kind,
        };
        if let Some(mon) = k.monitor.as_mut() {
            mon.on_event(&ev);
            k.events_dispatched += 1;
        }
    }

    /// The name `addr`'s accesses are reported under: the address table's
    /// entry, or — at the address's first emitted access — `object()`
    /// interned into the depot. So naming an object (a `format!` for slice
    /// and map elements) costs once per address per run, not per access.
    pub(crate) fn object_name<S: AsRef<str>>(
        &self,
        k: &mut KState,
        addr: Addr,
        object: impl FnOnce() -> S,
    ) -> NameId {
        let i = addr.0 as usize;
        if let Some(Some(id)) = k.object_names.get(i) {
            return *id;
        }
        if k.object_names.len() <= i {
            k.object_names.resize(i + 1, None);
        }
        let id = self.depot.intern_name(object().as_ref());
        k.object_names[i] = Some(id);
        id
    }

    /// The name of the source file `file`, a `#[track_caller]` location's:
    /// from the slot of `KState::file_names` that holds this very text
    /// (compared by address), else interned into the depot. The caller names the
    /// accessed object first, so name ids keep the order the names first
    /// appear in the event stream, which is the order a decoder assigns.
    #[inline]
    pub(crate) fn file_name(&self, k: &mut KState, file: &'static str) -> NameId {
        let slots = &mut k.file_names;
        for slot in slots.iter().flatten() {
            if std::ptr::eq(slot.0, file) {
                return slot.1;
            }
        }
        let id = self.depot.intern_name(file);
        slots.rotate_right(1);
        slots[0] = Some((file, id));
        id
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
        let g = &mut k.goroutines[gid.index()];
        // Keep the root (goroutine-body) frame, matching the old guard.
        g.stack = self.depot.pop(g.stack);
    }

    /// Moves `gid` (running or blocked) to `Runnable`, keeping the
    /// candidate slice in gid order.
    fn make_runnable(k: &mut KState, gid: Gid) {
        k.goroutines[gid.index()].state = GState::Runnable;
        let at = k.runnable.partition_point(|&g| g < gid);
        k.runnable.insert(at, gid);
    }

    /// Lets the strategy pick among the runnable goroutines (there is one)
    /// and gives the pick the token.
    fn pick_next(k: &mut KState, current: Option<Gid>) -> Gid {
        let KState {
            ref mut policy,
            ref mut schedule,
            ref mut rng,
            ref mut runnable,
            ..
        } = *k;
        let at = policy.pick(runnable, current, rng);
        schedule.record(at, runnable.len());
        let next = runnable.remove(at);
        k.goroutines[next.index()].state = GState::Running;
        k.current = next;
        next
    }

    /// Marks a blocked goroutine runnable (no-op otherwise). Spurious wakes
    /// are safe: a woken goroutine runs its attempt again.
    pub(crate) fn wake(k: &mut KState, gid: Gid) {
        if matches!(k.goroutines[gid.index()].state, GState::Blocked(_)) {
            Self::make_runnable(k, gid);
        }
    }

    /// A preemption point: lets the strategy move the token.
    ///
    /// # Panics
    ///
    /// Unwinds with a private payload when the run is aborting; the
    /// goroutine wrapper catches it.
    pub(crate) fn yield_point(&self, gid: Gid) {
        drop(self.yield_locked(gid));
    }

    /// [`yield_point`](Self::yield_point), returning with the state still
    /// borrowed once `gid` has the token again, so the operation the
    /// preemption point guards is the same section.
    pub(crate) fn yield_locked(&self, gid: Gid) -> StateGuard<'_> {
        let mut k = self.lock();
        self.check_abort(&k);
        debug_assert_eq!(k.current, gid, "only the token holder yields");
        k.step += 1;
        if k.step > k.max_steps {
            let max_steps = k.max_steps;
            k.errors.push(RuntimeError::StepBudgetExhausted { max_steps });
            k.aborting = true;
            drop(k);
            panic::panic_any(PoisonExit);
        }
        if k.runnable.is_empty() {
            // `gid` is the only candidate: the pick sees the one-element
            // slice `make_runnable` would have built, draws and records as
            // it would, and `gid` keeps the token without the round trip
            // through `runnable`.
            let KState {
                ref mut policy,
                ref mut rng,
                ..
            } = *k;
            let at = policy.pick(&[gid], Some(gid), rng);
            debug_assert_eq!(at, 0);
            k.schedule.record(at, 1);
            return k;
        }
        Self::make_runnable(&mut k, gid);
        self.hand_off(k, gid)
    }

    /// Runs one blocking operation for `gid`: a preemption point, then
    /// `attempt` on the borrowed state until it is [`Attempt::Done`],
    /// parking after every [`Attempt::Wait`].
    pub(crate) fn block_on<T>(
        &self,
        gid: Gid,
        mut attempt: impl FnMut(&mut KState) -> Attempt<T>,
    ) -> T {
        let mut k = self.yield_locked(gid);
        loop {
            match attempt(&mut k) {
                Attempt::Done(v) => return v,
                Attempt::Wait(reason) => k = self.park(k, gid, reason),
            }
        }
    }

    /// Parks `gid` (already queued on what will wake it) and returns with
    /// the state borrowed again once the token comes back.
    fn park<'a>(&'a self, mut k: StateGuard<'a>, gid: Gid, reason: BlockReason) -> StateGuard<'a> {
        k.goroutines[gid.index()].state = GState::Blocked(reason);
        self.hand_off(k, gid)
    }

    /// Passes the token from `gid`, whose state the caller has just set, to
    /// the strategy's pick among the runnable goroutines, and returns with
    /// the state borrowed again once the token is back (at once when the
    /// pick is `gid` itself).
    #[allow(unsafe_code)]
    fn hand_off<'a>(&'a self, mut k: StateGuard<'a>, gid: Gid) -> StateGuard<'a> {
        if k.runnable.is_empty() {
            // Nothing can run: deadlock (main blocked too) or leak.
            Self::stall(&mut k);
            drop(k);
            panic::panic_any(PoisonExit);
        }
        let next = Self::pick_next(&mut k, Some(gid));
        if next == gid {
            return k;
        }
        let to = Self::coro(&mut k, next).saved();
        let from = Self::coro(&mut k, gid).save_slot();
        // Every goroutine shares this OS thread: a borrow held across the
        // switch would make the next goroutine's `lock()` panic.
        drop(k);
        // SAFETY: `from` is `gid`'s own slot, written inside the call before
        // anything else can borrow the kernel state: `lock` admits only the
        // run's own thread, which is this one and is busy here. For the
        // same reason `to` stays on the thread it was suspended on. `to` is
        // live and suspended: `next` was runnable, so it is not running, and
        // its stack is mapped because a `Coro` leaves `Goroutine::coro` only
        // when its goroutine exits, after which it is never runnable again.
        unsafe { coro::switch(from, to) };
        let k = self.lock();
        self.check_abort(&k);
        k
    }

    /// The machine context of a goroutine that has not exited.
    fn coro(k: &mut KState, gid: Gid) -> &mut Coro {
        k.goroutines[gid.index()]
            .coro
            .as_mut()
            .expect("a goroutine keeps its stack until it exits")
    }

    fn check_abort(&self, k: &KState) {
        if k.aborting {
            panic::panic_any(PoisonExit);
        }
    }

    /// No runnable goroutine exists. Classify, record, and abort the run.
    fn stall(k: &mut KState) {
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
        k.aborting = true;
    }

    /// Registers a new goroutine on a stack of its own.
    pub(crate) fn spawn_goroutine(self: &Arc<Self>, parent: Gid, name: &str, body: Body) -> Gid {
        let child;
        {
            let mut k = self.lock();
            child = Gid(k.goroutines.len() as u32);
            // A no-op monitor never reads the name id, so skip issuing one.
            let (stack, text, name) = self
                .depot
                .push_goroutine(name, !self.instrumentation_disabled());
            k.goroutines.push(Goroutine {
                name: text,
                state: GState::Runnable,
                stack,
                body: Some(body),
                coro: Some(self.new_coro()),
            });
            let name = name.unwrap_or(NameId(u32::MAX));
            Self::make_runnable(&mut k, child);
            k.live += 1;
            k.spawned_total += 1;
            {
                let KState {
                    ref mut policy,
                    ref mut rng,
                    ..
                } = *k;
                policy.register(child, rng);
            }
            self.emit_locked(&mut k, parent, EventKind::Spawn { child, name });
        }
        // Give the child a chance to run immediately, per the strategy.
        self.yield_point(parent);
        child
    }

    /// A fresh machine context that will run [`goroutine_entry`] for
    /// whichever goroutine holds the token when it is first switched to.
    fn new_coro(self: &Arc<Self>) -> Coro {
        Coro::new(goroutine_entry, Arc::as_ptr(self).cast())
    }

    /// Marks `gid` finished and passes the token onward, or — the run is
    /// over, stalled or aborting — gives control back to [`Kernel::drive`].
    /// Called on `gid`'s own stack with nothing left on it to drop: that
    /// stack is never resumed.
    #[allow(unsafe_code)]
    fn finish(&self, gid: Gid, panic_msg: Option<String>) -> ! {
        let mut k = self.lock();
        let next = 'next: {
            if k.aborting {
                drop(panic_msg);
                break 'next None;
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
                break 'next None;
            }
            if k.runnable.is_empty() {
                // Everyone left is blocked.
                Self::stall(&mut k);
                break 'next None;
            }
            Some(Self::pick_next(&mut k, None))
        };
        let to = match next {
            Some(next) => Self::coro(&mut k, next).saved(),
            None => k.driver,
        };
        // This stack is still in use until the switch below; park it where
        // the next exit (or the kernel's drop) gives it back.
        k.exited = k.goroutines[gid.index()].coro.take();
        drop(k);
        let mut never_resumed = SavedSp::EMPTY;
        // SAFETY: `from` is a live local. `to` is suspended and its stack
        // mapped: a picked goroutine for the reason given in `hand_off`; the
        // driver because `drive` is suspended in its own `switch` for as
        // long as any goroutine runs.
        unsafe { coro::switch(&mut never_resumed, to) };
        unreachable!("an exited goroutine was resumed");
    }

    /// Runs the program: switches to main (goroutine 0, on a stack of its
    /// own like every other) and returns when the run is over — cleanly,
    /// or aborted by a deadlock, a leak or the step budget. An aborted run
    /// leaves goroutines suspended mid-body; each is resumed once so that
    /// `check_abort` unwinds it and what it captured is dropped. Bodies
    /// that never started, and all stacks, drop with the kernel.
    pub(crate) fn drive(self: &Arc<Self>, main_body: Body) {
        {
            let mut k = self.lock();
            let main = &mut k.goroutines[Gid::MAIN.index()];
            main.body = Some(main_body);
            main.coro = Some(self.new_coro());
        }
        self.resume(Gid::MAIN);
        // Started (the body is taken) and not exited (the stack is kept).
        let suspended: Vec<Gid> = (0..)
            .map(Gid)
            .zip(&self.lock().goroutines)
            .filter(|(_, g)| g.body.is_none() && g.coro.is_some())
            .map(|(gid, _)| gid)
            .collect();
        for gid in suspended {
            self.resume(gid);
        }
    }

    /// Switches from the driver's stack to `gid` and returns when
    /// [`Kernel::finish`] switches back.
    #[allow(unsafe_code)]
    fn resume(&self, gid: Gid) {
        let mut k = self.lock();
        k.current = gid;
        let to = Self::coro(&mut k, gid).saved();
        let from: *mut SavedSp = &mut k.driver;
        drop(k);
        // SAFETY: `from` points into the kernel state, which outlives the
        // call and which nothing borrows between the guard's drop and the
        // write (`lock` admits this thread only). `to` is main's fresh
        // context or a goroutine the run left suspended — on this thread,
        // for the same reason — its stack mapped (`hand_off` says why), and
        // no goroutine is running: control is here.
        unsafe { coro::switch(from, to) };
    }

    /// Extracts the monitor and final statistics after the run completed.
    pub(crate) fn take_outcome(&self) -> (KernelOutcome, Box<dyn AnyMonitor>) {
        let mut k = self.lock();
        let mut monitor = k.monitor.take().expect("outcome taken twice");
        monitor.on_run_end();
        let outcome = KernelOutcome {
            steps: k.step,
            goroutines_spawned: k.spawned_total,
            errors: std::mem::take(&mut k.errors),
            deadlock: k.deadlock.take(),
            leaked: std::mem::take(&mut k.leaked),
            schedule: k.schedule,
            stats: MonitorStats {
                events_dispatched: k.events_dispatched,
                depot_stacks: self.depot.len(),
                peak_shadow_words: monitor.peak_shadow_words(),
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
    pub stats: MonitorStats,
}

/// An address that identifies the calling OS thread for as long as it
/// lives: that of a thread-local.
fn thread_token() -> usize {
    thread_local!(static MARK: u8 = const { 0 });
    MARK.with(|mark| std::ptr::from_ref(mark) as usize)
}

/// What every goroutine stack starts in (see `coro::trampoline`): runs the
/// body of the goroutine holding the token, then finishes it. `kernel` is
/// the address [`Kernel::new_coro`] took from the run's `Arc`.
#[allow(unsafe_code)]
extern "C" fn goroutine_entry(kernel: *const ()) -> ! {
    let kernel = kernel.cast::<Kernel>();
    // SAFETY: `kernel` is `Arc::as_ptr` of the `Arc` that `Kernel::drive`
    // borrows for the whole run, and `drive` is suspended underneath every
    // goroutine: the kernel is alive from here to this goroutine's last
    // switch, and the strong count is at least one when it is incremented
    // to back the new handle.
    let (kernel, handle) = unsafe {
        Arc::increment_strong_count(kernel);
        (&*kernel, Arc::from_raw(kernel))
    };
    let (gid, body, floor) = {
        let mut k = kernel.lock();
        let gid = k.current;
        let body = k.goroutines[gid.index()].body.take();
        (gid, body, Kernel::coro(&mut k, gid).floor())
    };
    let body = body.expect("a goroutine starts once");
    let ctx = Ctx::new(gid, handle, floor);
    let result = panic::catch_unwind(AssertUnwindSafe(|| body(&ctx)));
    // `finish` never returns, so nothing may be left on this stack to drop.
    drop(ctx);
    let panic_msg = match result {
        Ok(()) => None,
        // The run is aborting (deadlock, leak, step budget): already recorded.
        Err(payload) if payload.is::<PoisonExit>() => None,
        Err(payload) => Some(panic_message(&*payload)),
    };
    kernel.finish(gid, panic_msg)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::NullMonitor;

    #[test]
    #[should_panic(expected = "kernel state re-entered")]
    fn a_second_borrow_on_the_run_thread_panics() {
        let kernel = Kernel::new(
            &RunConfig::with_seed(0),
            Box::new(NullMonitor),
            StackDepot::new(),
        );
        let _held = kernel.lock();
        let _again = kernel.lock();
    }

    #[test]
    fn a_file_keeps_one_name_whatever_its_address_or_slot() {
        let depot = StackDepot::new();
        let kernel = Kernel::new(
            &RunConfig::with_seed(0),
            Box::new(NullMonitor),
            depot.clone(),
        );
        let mut k = kernel.lock();
        // Five files of one length: more than the slots hold.
        let files = ["a.rs", "b.rs", "c.rs", "d.rs", "e.rs"];
        let ids = files.map(|f| kernel.file_name(&mut k, f));
        assert_eq!(ids, [0, 1, 2, 3, 4].map(NameId));
        // An evicted file, and a file's text at another address, keep
        // their names; every slot still answers for its own file.
        assert_eq!(kernel.file_name(&mut k, "a.rs"), NameId(0));
        assert_eq!(kernel.file_name(&mut k, &"xb.rs"[1..]), NameId(1));
        for (f, id) in files.into_iter().zip(ids) {
            assert_eq!(kernel.file_name(&mut k, f), id);
            assert_eq!(&*depot.name(id), f);
        }
    }
}
