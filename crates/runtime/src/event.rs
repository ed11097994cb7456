//! The instrumentation event stream the runtime reports to a [`Monitor`].
//!
//! Events mirror what Go's `-race` instrumentation intercepts: every shared
//! memory access (with its calling context) and every synchronization
//! operation that establishes a happens-before edge under the Go memory
//! model.
//!
//! An [`Event`] is one plain `Copy` record, the same live and replayed: the
//! kernel emits it, the recorder copies it into a [`Trace`], the decoder
//! rebuilds it, and every detector consumes it through one
//! [`Monitor::on_event`]. Nothing in it is owned: calling contexts are
//! [`StackId`]s, and object, goroutine and source-file names are
//! [`NameId`]s, both interned per run in the
//! [`StackDepot`](crate::StackDepot).
//!
//! [`Monitor`]: crate::monitor::Monitor
//! [`Monitor::on_event`]: crate::monitor::Monitor::on_event
//! [`Trace`]: crate::Trace

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::depot::{NameId, StackId};
use crate::ids::{Addr, ChanId, Gid, LockUid, OnceId, WgId};

/// Whether a memory access reads or writes, and whether it used `sync/atomic`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Plain (non-atomic) read.
    Read,
    /// Plain (non-atomic) write.
    Write,
    /// `sync/atomic` read.
    AtomicRead,
    /// `sync/atomic` write (including read-modify-write).
    AtomicWrite,
}

impl AccessKind {
    /// True for `Write` and `AtomicWrite`.
    #[must_use]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write | AccessKind::AtomicWrite)
    }

    /// True for the two atomic kinds.
    #[must_use]
    pub fn is_atomic(self) -> bool {
        matches!(self, AccessKind::AtomicRead | AccessKind::AtomicWrite)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::AtomicRead => "atomic read",
            AccessKind::AtomicWrite => "atomic write",
        };
        f.write_str(s)
    }
}

/// The source position of an access: the run's name of its file (the
/// `#[track_caller]` file live, a string-table entry decoded), and its line.
/// Resolve the file through the run's [`StackDepot`](crate::StackDepot) or
/// [`Trace::names`](crate::Trace::names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceLoc {
    /// Source file of the call site, a name in the run's depot.
    pub file: NameId,
    /// 1-based line number.
    pub line: u32,
}

/// One frame of the Go-style logical call stack.
///
/// Goroutine bodies push frames with [`crate::Ctx::frame`]; the frame name
/// plays the role of the function name in the paper's race reports, which
/// the deployment pipeline hashes (minus line numbers) for deduplication
/// (§3.3.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Frame {
    /// Logical function name, e.g. `"ProcessJob"`.
    pub func: Arc<str>,
    /// Line of the call site that entered this frame (0 when unknown).
    pub call_line: u32,
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.call_line == 0 {
            write!(f, "{}()", self.func)
        } else {
            write!(f, "{}() @{}", self.func, self.call_line)
        }
    }
}

/// A snapshot of a goroutine's logical call stack, root first.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Stack {
    frames: Vec<Frame>,
}

impl Stack {
    /// An empty stack.
    #[must_use]
    pub fn new() -> Self {
        Stack { frames: Vec::new() }
    }

    /// Builds a stack from root-first frames.
    #[must_use]
    pub fn from_frames(frames: Vec<Frame>) -> Self {
        Stack { frames }
    }

    /// Root-first frames.
    #[must_use]
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// The outermost (root) frame, if any.
    #[must_use]
    pub fn root(&self) -> Option<&Frame> {
        self.frames.first()
    }

    /// The innermost (leaf) frame, if any.
    #[must_use]
    pub fn leaf(&self) -> Option<&Frame> {
        self.frames.last()
    }

    /// Number of frames.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// True when no frame has been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The function names, root first — the line-number-free projection the
    /// dedup fingerprint is computed over.
    #[must_use]
    pub fn func_names(&self) -> Vec<&str> {
        self.frames.iter().map(|f| f.func.as_ref()).collect()
    }
}

impl fmt::Display for Stack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.frames.is_empty() {
            return f.write_str("<empty stack>");
        }
        for (i, fr) in self.frames.iter().enumerate() {
            if i > 0 {
                f.write_str(" -> ")?;
            }
            write!(f, "{fr}")?;
        }
        Ok(())
    }
}

/// Read/write lock mode for `RwMutex` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Exclusive (`Lock`/`Unlock`, or a plain `Mutex`).
    Write,
    /// Shared (`RLock`/`RUnlock`).
    Read,
}

/// One instrumentation event.
///
/// `step` is a global, strictly increasing sequence number: because the
/// scheduler runs exactly one goroutine at a time, the event stream is a
/// *total order* consistent with the interleaving that was executed.
///
/// Not `Hash`: a name id means nothing outside its run, so the stream
/// digests hash events with [`Event::hash_named`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number of the event.
    pub step: u64,
    /// The goroutine that performed the operation.
    pub gid: Gid,
    /// What happened.
    pub kind: EventKind,
}

/// The operation an [`Event`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// `gid` spawned `child` (spawn happens-before the child's first step).
    Spawn {
        /// The newly created goroutine.
        child: Gid,
        /// Logical name of the goroutine body.
        name: NameId,
    },
    /// The goroutine's body returned (normally or by panic).
    GoroutineEnd,
    /// A shared-memory access.
    ///
    /// The calling context is carried as a depot-interned [`StackId`]
    /// (resolve it through the run's [`crate::StackDepot`]); building this
    /// event copies a `u32` instead of materializing a frame vector, which
    /// is what keeps the §3.5 instrumentation overhead bounded.
    Access {
        /// Shadow address touched.
        addr: Addr,
        /// Human-readable name of the object (e.g. `"results"`,
        /// `"errMap[structure]"`).
        object: NameId,
        /// Read/write, atomic or plain.
        kind: AccessKind,
        /// Interned call stack at the access.
        stack: StackId,
        /// Source location of the access.
        loc: SourceLoc,
    },
    /// A mutex/rwlock acquire completed.
    Acquire {
        /// The lock.
        lock: LockUid,
        /// Shared or exclusive.
        mode: LockMode,
    },
    /// A mutex/rwlock release.
    Release {
        /// The lock.
        lock: LockUid,
        /// Shared or exclusive.
        mode: LockMode,
    },
    /// A channel send enqueued its value. `seq` is the per-channel send
    /// index (FIFO order, so the matching receive has the same `seq`).
    ChanSend {
        /// The channel.
        chan: ChanId,
        /// Per-channel send sequence number.
        seq: u64,
    },
    /// A channel send fully completed (for unbuffered channels this is
    /// after the rendezvous; establishes the receive→send-completion edge).
    ChanSendComplete {
        /// The channel.
        chan: ChanId,
        /// Sequence of the send that completed.
        seq: u64,
        /// Channel capacity at the time (0 = unbuffered).
        cap: usize,
    },
    /// A channel receive obtained the value of send `seq`.
    ChanRecv {
        /// The channel.
        chan: ChanId,
        /// Sequence of the send whose value was received.
        seq: u64,
    },
    /// A receive returned the zero value because the channel was closed.
    ChanRecvClosed {
        /// The channel.
        chan: ChanId,
    },
    /// The channel was closed.
    ChanClose {
        /// The channel.
        chan: ChanId,
    },
    /// `WaitGroup.Add(delta)` (also covers `Done`, which is `Add(-1)`).
    WgAdd {
        /// The wait group.
        wg: WgId,
        /// Signed delta.
        delta: i64,
        /// Counter value after the add.
        counter: i64,
    },
    /// A `WaitGroup.Wait()` unblocked.
    WgWait {
        /// The wait group.
        wg: WgId,
    },
    /// A `sync.Once` executed its function (first caller only).
    OnceExecuted {
        /// The once object.
        once: OnceId,
    },
    /// A `sync.Once.Do` returned without running the function; the original
    /// execution happens-before this return.
    OnceObserved {
        /// The once object.
        once: OnceId,
    },
}

impl Event {
    /// Convenience: the access payload if this is an `Access` event.
    #[must_use]
    pub fn as_access(&self) -> Option<(&Addr, AccessKind, StackId, SourceLoc)> {
        match &self.kind {
            EventKind::Access {
                addr, kind, stack, loc, ..
            } => Some((addr, *kind, *stack, *loc)),
            _ => None,
        }
    }

    /// The names this event mentions, in the order the kernel interns
    /// them: a spawned goroutine's; or an accessed object's, then its
    /// source file's.
    pub fn names(&self) -> impl Iterator<Item = NameId> {
        let (first, file) = match self.kind {
            EventKind::Spawn { name, .. } => (Some(name), None),
            EventKind::Access { object, loc, .. } => (Some(object), Some(loc.file)),
            _ => (None, None),
        };
        first.into_iter().chain(file)
    }

    /// Feeds the event to `state` with each name as its text from `names`
    /// (the run's name table): the bytes a derived `Hash` writes, since an
    /// `Arc<str>` field hashes as its `str`. Every variant without a name
    /// hashes through the derive.
    pub fn hash_named<H: Hasher>(&self, names: &[Arc<str>], state: &mut H) {
        self.step.hash(state);
        self.gid.hash(state);
        let name = |id: NameId| &*names[id.index()];
        match self.kind {
            EventKind::Spawn { child, name: id } => {
                std::mem::discriminant(&self.kind).hash(state);
                child.hash(state);
                name(id).hash(state);
            }
            EventKind::Access {
                addr,
                object,
                kind,
                stack,
                loc,
            } => {
                std::mem::discriminant(&self.kind).hash(state);
                addr.hash(state);
                name(object).hash(state);
                kind.hash(state);
                stack.hash(state);
                name(loc.file).hash(state);
                loc.line.hash(state);
            }
            kind => kind.hash(state),
        }
    }
}

// Copied per event into every recording and replay buffer: keep it small.
const _: () = assert!(std::mem::size_of::<Event>() <= 48);

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(name: &str, line: u32) -> Frame {
        Frame {
            func: Arc::from(name),
            call_line: line,
        }
    }

    #[test]
    fn access_kind_predicates() {
        assert!(AccessKind::Write.is_write());
        assert!(AccessKind::AtomicWrite.is_write());
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::AtomicRead.is_atomic());
        assert!(!AccessKind::Write.is_atomic());
    }

    #[test]
    fn stack_projection_drops_lines() {
        let s = Stack::from_frames(vec![frame("Main", 1), frame("ProcessAll", 42)]);
        assert_eq!(s.func_names(), vec!["Main", "ProcessAll"]);
        assert_eq!(s.root().unwrap().func.as_ref(), "Main");
        assert_eq!(s.leaf().unwrap().func.as_ref(), "ProcessAll");
        assert_eq!(s.depth(), 2);
    }

    #[test]
    fn stack_display_is_arrow_chain() {
        let s = Stack::from_frames(vec![frame("A", 0), frame("B", 7)]);
        assert_eq!(s.to_string(), "A() -> B() @7");
        assert_eq!(Stack::new().to_string(), "<empty stack>");
    }
}
