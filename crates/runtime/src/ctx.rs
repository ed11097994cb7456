//! [`Ctx`] — the handle a goroutine uses for every instrumented operation.

use std::sync::Arc;

use crate::cell::Cell;
use crate::event::{AccessKind, EventKind, SourceLoc};
use crate::ids::{Addr, Gid};
use crate::kernel::Kernel;

/// Execution context of one goroutine.
///
/// Every operation the study's races involve — spawning goroutines, reading
/// and writing shared variables, locking, channel communication — goes
/// through this handle so the scheduler can preempt and the monitor can
/// observe.
///
/// A `Ctx` is handed to each goroutine body; it is deliberately *not*
/// `Clone` so a goroutine cannot smuggle its context into another goroutine
/// (each body receives its own).
pub struct Ctx {
    gid: Gid,
    kernel: Arc<Kernel>,
    /// Lowest usable address of this goroutine's machine stack.
    stack_floor: usize,
}

impl Ctx {
    pub(crate) fn new(gid: Gid, kernel: Arc<Kernel>, stack_floor: usize) -> Self {
        Ctx {
            gid,
            kernel,
            stack_floor,
        }
    }

    /// The goroutine this context belongs to.
    #[must_use]
    pub fn gid(&self) -> Gid {
        self.gid
    }

    pub(crate) fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// Bytes of machine stack left at the point of the call before this
    /// goroutine's guard page (no lock, no scheduling step).
    ///
    /// Every goroutine, main included, runs on a 2 MiB stack of its own,
    /// and running off it kills the process. An evaluator that recurses on
    /// behalf of the simulated program (`grs-interp` does, once per Go
    /// call) checks this before going deeper and fails the goroutine
    /// instead. How many of its frames fit is a property of the build
    /// profile — debug frames are several times larger — not of the
    /// program or the caller's thread.
    #[must_use]
    pub fn stack_headroom(&self) -> usize {
        let here = 0u8;
        (std::ptr::addr_of!(here) as usize).saturating_sub(self.stack_floor)
    }

    /// Launches `body` as a new goroutine (Go's `go` statement) and returns
    /// its id. The spawn establishes a happens-before edge to the child's
    /// first step, exactly as in the Go memory model.
    pub fn go<F>(&self, name: &str, body: F) -> Gid
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        self.kernel
            .spawn_goroutine(self.gid, Arc::from(name), Box::new(body))
    }

    /// Creates a fresh shared variable with the given debug name.
    ///
    /// Cloning the returned [`Cell`] aliases the *same* address — which is
    /// precisely how Go closures capture free variables by reference
    /// (Observation 3).
    pub fn cell<T: Clone + Send + 'static>(&self, name: &str, value: T) -> Cell<T> {
        Cell::new(self.kernel.alloc_id(), name, value)
    }

    /// Reads a shared variable (instrumented, preemptible).
    #[track_caller]
    pub fn read<T: Clone + Send + 'static>(&self, cell: &Cell<T>) -> T {
        let loc = SourceLoc::here();
        self.access(cell.addr(), cell.name_arc(), AccessKind::Read, loc);
        cell.load()
    }

    /// Writes a shared variable (instrumented, preemptible).
    #[track_caller]
    pub fn write<T: Clone + Send + 'static>(&self, cell: &Cell<T>, value: T) {
        let loc = SourceLoc::here();
        self.access(cell.addr(), cell.name_arc(), AccessKind::Write, loc);
        cell.store(value);
    }

    /// Read-modify-write of a shared variable **without** atomicity — the
    /// classic lost-update shape (`x = f(x)` compiled to a read then a
    /// write, each individually preemptible).
    #[track_caller]
    pub fn update<T: Clone + Send + 'static>(&self, cell: &Cell<T>, f: impl FnOnce(T) -> T) {
        let loc = SourceLoc::here();
        self.access(cell.addr(), cell.name_arc(), AccessKind::Read, loc);
        let v = cell.load();
        let new = f(v);
        self.access(cell.addr(), cell.name_arc(), AccessKind::Write, loc);
        cell.store(new);
    }

    /// Emits one memory-access event at an explicit address (used by the
    /// compound objects: slices, maps, atomics).
    pub(crate) fn access(&self, addr: Addr, object: Arc<str>, kind: AccessKind, loc: SourceLoc) {
        self.kernel.yield_point(self.gid);
        if self.kernel.instrumentation_disabled() {
            return;
        }
        let mut k = self.kernel.lock();
        let stack = Kernel::current_stack(&k, self.gid);
        self.kernel.emit_locked(
            &mut k,
            self.gid,
            EventKind::Access {
                addr,
                object,
                kind,
                stack,
                loc,
            },
        );
    }

    /// Pushes a logical Go call frame; the returned guard pops it on drop.
    ///
    /// Frame names become the function names in race reports, which the
    /// deployment pipeline's dedup fingerprint is computed over (§3.3.1).
    ///
    /// # Example
    ///
    /// ```
    /// use grs_runtime::{NullMonitor, Program, RunConfig, Runtime};
    /// let p = Program::new("framed", |ctx| {
    ///     let _f = ctx.frame("ProcessJob");
    ///     let c = ctx.cell("x", 0);
    ///     ctx.write(&c, 1); // reported with stack main() -> ProcessJob()
    /// });
    /// Runtime::new(RunConfig::with_seed(0)).run(&p, NullMonitor);
    /// ```
    #[track_caller]
    #[must_use = "the frame is popped when the guard drops"]
    pub fn frame(&self, func: &str) -> FrameGuard<'_> {
        let line = SourceLoc::here().line;
        self.kernel.push_frame(self.gid, func, line);
        FrameGuard { ctx: self }
    }

    /// Runs `f` inside a named logical frame (convenience over [`Ctx::frame`]).
    #[track_caller]
    pub fn call<R>(&self, func: &str, f: impl FnOnce(&Ctx) -> R) -> R {
        let _g = self.frame(func);
        f(self)
    }

    /// Voluntarily yields to the scheduler `ticks` times (Go's
    /// `runtime.Gosched`, or a stand-in for elapsed wall time in the
    /// patterns that need a timing window).
    pub fn sleep(&self, ticks: u32) {
        for _ in 0..ticks {
            self.kernel.yield_point(self.gid);
        }
    }

    /// A single scheduler yield.
    pub fn gosched(&self) {
        self.kernel.yield_point(self.gid);
    }
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx").field("gid", &self.gid).finish()
    }
}

/// Pops the logical frame pushed by [`Ctx::frame`] when dropped.
#[derive(Debug)]
pub struct FrameGuard<'a> {
    ctx: &'a Ctx,
}

impl Drop for FrameGuard<'_> {
    fn drop(&mut self) {
        self.ctx.kernel.pop_frame(self.ctx.gid);
    }
}
