//! A deterministic, instrumented Go-semantics concurrency runtime.
//!
//! The PLDI'22 study *"A Study of Real-World Data Races in Golang"* analyzes
//! races that arise from Go's concurrency model: goroutines, channels,
//! `sync.Mutex`/`RWMutex`/`WaitGroup`, built-in maps, slices with shared
//! backing arrays, and closures that capture free variables by reference.
//! Rust's ownership system statically rules these races out, so reproducing
//! the study requires a substrate that deliberately reintroduces Go's
//! semantics under runtime (not compile-time) supervision.
//!
//! This crate is that substrate. It provides:
//!
//! * **Goroutines** — [`Ctx::go`] spawns a concurrent task; bodies are plain
//!   Rust closures that receive a [`Ctx`] handle for every instrumented
//!   operation.
//! * **A deterministic scheduler** — exactly one goroutine runs at a time;
//!   every instrumented operation is a preemption point, and the schedule is
//!   a pure function of the seed and [`Strategy`] (random walk, PCT,
//!   round-robin). At each point the strategy picks an index into the
//!   gid-ordered runnable goroutines, and the run folds every pick into its
//!   [`ScheduleTrace`] digest. Re-running with the same seed replays the
//!   same interleaving, which makes the nondeterminism the paper wrestles
//!   with (§3.2) *reproducible*.
//! * **Go-shaped shared memory** — [`Cell`] (a shared variable),
//!   [`GoSlice`] (header of ptr/len/cap meta-words over a shared backing
//!   array — Listing 5's race), [`GoMap`] (a thread-unsafe hash table whose
//!   every mutation touches the shared structure — Observation 5), and
//!   [`AtomicCell`] (for partial-atomic-use races, §4.9.2).
//! * **Go synchronization** — [`Chan`] (buffered/unbuffered channels with
//!   `select`), [`Mutex`], [`RwMutex`], [`WaitGroup`], [`Once`], and a
//!   Go-style cancellable [`GoContext`], all emitting the happens-before
//!   edges of the Go memory model.
//! * **Instrumentation** — every memory access and synchronization operation
//!   is reported to a [`Monitor`] (the `grs-detector` crate implements
//!   FastTrack / Eraser / hybrid monitors) together with a Go-style call
//!   stack and source location.
//!
//! # How a primitive blocks
//!
//! Every blocking operation in [`chan`] and [`sync`] is written as a
//! non-blocking *attempt*: a closure over the kernel's state, run in the
//! same borrow of it as the preemption point before it, that either takes effect — mutates the state, emits its event,
//! wakes whom it unblocks — or queues the goroutine on what will wake it
//! and says why it waits. Only the kernel's `block_on` blocks: one
//! preemption point, then the attempt, parking the goroutine between
//! attempts until one is done. A wake-up promises nothing (wakers wake
//! every waiter), so a woken goroutine makes its attempt again.
//!
//! # Example
//!
//! The loop-index-variable capture race of Listing 1:
//!
//! ```
//! use grs_runtime::{record, Program, RunConfig};
//!
//! let program = Program::new("loop_capture", |ctx| {
//!     let job = ctx.cell("job", 0i64); // the captured loop variable
//!     for i in 0..3 {
//!         ctx.write(&job, i); // loop advance: write in parent
//!         let job = job.clone(); // capture *by reference* (same address)
//!         ctx.go("worker", move |ctx| {
//!             let _ = ctx.read(&job); // concurrent read in goroutine
//!         });
//!     }
//! });
//! let (outcome, trace) = record(&program, &RunConfig::with_seed(7));
//! assert!(outcome.is_clean());
//! assert!(!trace.events.is_empty());
//! ```

#![deny(unsafe_code, unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod batch;
pub mod cell;
pub mod chan;
pub mod context;
mod coro;
pub mod ctx;
pub mod depot;
pub mod event;
pub mod gomap;
pub mod ids;
pub mod kernel;
pub mod monitor;
pub mod runtime;
pub mod sched;
pub mod slice;
pub mod sync;
pub mod trace;

pub use batch::{DecodedTrace, TRACE_RETAINED_ENTRIES};
pub use cell::Cell;
pub use chan::{Chan, RecvResult, Selected2};
pub use context::GoContext;
pub use ctx::Ctx;
pub use depot::{Funcs, NameId, StackDepot, StackId};
pub use event::{AccessKind, Event, Frame, SourceLoc, Stack};
pub use gomap::GoMap;
pub use ids::{Addr, ChanId, Gid, LockUid, OnceId, WgId};
pub use monitor::{Monitor, MonitorStats, NullMonitor, TraceHasher};
pub use runtime::{calibrate_steps, Program, RunConfig, RunOutcome, Runtime, RuntimeError};
pub use sched::{ScheduleTrace, Strategy};
pub use slice::GoSlice;
pub use sync::{AtomicCell, Mutex, Once, RwMutex, WaitGroup};
pub use trace::{
    put_uvarint, record, record_with_depot, Reader, ReproArtifact, StackNode, Trace,
    TraceDecodeError, TraceMeta, TraceRecorder, MAX_TRACE_ID, TRACE_FORMAT_VERSION, TRACE_MAGIC,
};
