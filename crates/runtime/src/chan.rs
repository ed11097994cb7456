//! Go channels: buffered and unbuffered, with `close` and 2-way `select`.
//!
//! Happens-before edges follow the Go memory model:
//!
//! * the `k`-th send happens-before the `k`-th receive completes,
//! * for a channel of capacity `C`, the `k`-th receive happens-before the
//!   `k+C`-th send completes (backpressure edge),
//! * for an unbuffered channel the receive also happens-before the send
//!   *completes* (rendezvous),
//! * `close` happens-before any receive that observes the closed state.
//!
//! The runtime emits `ChanSend`/`ChanRecv`/`ChanSendComplete`/`ChanClose`
//! events carrying per-channel sequence numbers; the detector reconstructs
//! the edges from those.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::ctx::Ctx;
use crate::event::EventKind;
use crate::ids::ChanId;
use crate::kernel::{Attempt, BlockReason, ChanState, KState, Kernel};
use crate::runtime::RuntimeError;

/// Result of a (blocking) receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvResult<T> {
    /// A value was received.
    Value(T),
    /// The channel is closed and drained; Go returns the zero value with
    /// `ok == false`.
    Closed,
}

impl<T> RecvResult<T> {
    /// The received value, if any.
    pub fn value(self) -> Option<T> {
        match self {
            RecvResult::Value(v) => Some(v),
            RecvResult::Closed => None,
        }
    }

    /// True when the channel was closed (Go's `ok == false`).
    pub fn is_closed(&self) -> bool {
        matches!(self, RecvResult::Closed)
    }
}

/// Which arm a two-channel `select` took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selected2<A, B> {
    /// The first channel was ready.
    First(RecvResult<A>),
    /// The second channel was ready.
    Second(RecvResult<B>),
}

/// A Go channel carrying values of type `T`.
///
/// Handles are cheap to clone and all alias the same channel, as in Go.
///
/// # Example
///
/// ```
/// use grs_runtime::{NullMonitor, Program, RunConfig, Runtime};
///
/// let p = Program::new("chan", |ctx| {
///     let ch = ctx.chan::<i64>("results", 0); // unbuffered
///     let tx = ch.clone();
///     ctx.go("producer", move |ctx| tx.send(ctx, 42));
///     assert_eq!(ch.recv(ctx).value(), Some(42));
/// });
/// let (outcome, _) = Runtime::new(RunConfig::with_seed(1)).run(&p, NullMonitor);
/// assert!(outcome.is_clean());
/// ```
pub struct Chan<T> {
    id: ChanId,
    name: Arc<str>,
    buf: Arc<Mutex<VecDeque<T>>>,
}

impl<T> Clone for Chan<T> {
    fn clone(&self) -> Self {
        Chan {
            id: self.id,
            name: self.name.clone(),
            buf: self.buf.clone(),
        }
    }
}

impl<T> std::fmt::Debug for Chan<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chan")
            .field("id", &self.id)
            .field("name", &self.name)
            .finish()
    }
}

impl Ctx {
    /// Creates a channel with the given capacity (`0` = unbuffered).
    pub fn chan<T: Send + 'static>(&self, name: &str, cap: usize) -> Chan<T> {
        let id = self.kernel().alloc_id();
        let mut k = self.kernel().lock();
        k.chans.insert(id, ChanState::new(cap));
        drop(k);
        Chan {
            id: ChanId(id),
            name: self.kernel().depot().text(name),
            buf: Arc::new(Mutex::new(VecDeque::new())),
        }
    }
}

fn state(k: &mut KState, id: u64) -> &mut ChanState {
    k.chans.get_mut(&id).expect("channel exists")
}

fn wake_senders(k: &mut KState, id: u64) {
    for g in std::mem::take(&mut state(k, id).send_waiters) {
        Kernel::wake(k, g);
    }
}

fn wake_receivers(k: &mut KState, id: u64) {
    for g in std::mem::take(&mut state(k, id).recv_waiters) {
        Kernel::wake(k, g);
    }
}

/// What [`Chan::offer`] made of a send.
enum Offer {
    /// The channel is closed: the error is recorded, the value dropped.
    Closed,
    /// The value is in the buffer under this sequence number.
    Sent(u64),
    /// No room — or, unbuffered, no parked receiver; the value stays with
    /// the sender.
    Refused,
}

impl<T: Send + 'static> Chan<T> {
    /// The channel's identity.
    #[must_use]
    pub fn id(&self) -> ChanId {
        self.id
    }

    /// The debug name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sends `value`, blocking while the buffer is full (or, for an
    /// unbuffered channel, until a receiver takes the value).
    ///
    /// Sending on a closed channel records
    /// [`RuntimeError::SendOnClosedChannel`] (Go panics) and drops the
    /// value.
    pub fn send(&self, ctx: &Ctx, value: T) {
        if self.transmit(ctx, value, true).is_err() {
            unreachable!("a blocking send waits out a refused offer");
        }
    }

    /// Receives a value, blocking while the channel is empty and open.
    pub fn recv(&self, ctx: &Ctx) -> RecvResult<T> {
        let (kernel, gid) = (ctx.kernel(), ctx.gid());
        kernel.block_on(gid, |k| match self.try_take_locked(ctx, k) {
            Some(r) => Attempt::Done(r),
            None => {
                state(k, self.id.0).recv_waiters.push(gid);
                Attempt::Wait(BlockReason::ChanRecv(self.id))
            }
        })
    }

    /// Non-blocking send attempt: returns the value back when the channel
    /// cannot accept it right now (used by `select` send arms).
    ///
    /// Sending on a closed channel records the error (like [`Chan::send`])
    /// and reports success (the arm "fired", as Go's select would panic).
    /// On an unbuffered channel, success requires a parked receiver and —
    /// as in Go — the send then completes the rendezvous (briefly
    /// blocking until the value is consumed).
    pub fn try_send(&self, ctx: &Ctx, value: T) -> Result<(), T> {
        self.transmit(ctx, value, false)
    }

    /// One send: [`offer`](Self::offer) the value, then
    /// [`complete`](Self::complete). A refused offer is all that tells
    /// `send` from `try_send`: with `wait_for_room` the sender queues and
    /// offers again when woken, without it the value goes back to the caller.
    fn transmit(&self, ctx: &Ctx, value: T, wait_for_room: bool) -> Result<(), T> {
        let (kernel, gid) = (ctx.kernel(), ctx.gid());
        let mut pending = Some(value);
        let mut sent = None;
        kernel.block_on(gid, |k| {
            if sent.is_none() {
                sent = match self.offer(ctx, k, &mut pending) {
                    Offer::Closed => return Attempt::Done(Ok(())),
                    Offer::Sent(seq) => Some(seq),
                    Offer::Refused if wait_for_room => {
                        state(k, self.id.0).send_waiters.push(gid);
                        return Attempt::Wait(BlockReason::ChanSend(self.id));
                    }
                    Offer::Refused => {
                        return Attempt::Done(Err(pending.take().expect("value still pending")))
                    }
                };
            }
            self.complete(ctx, k, sent.expect("offer was taken"))
        })
    }

    /// The first half of a send: with room in the buffer — on an unbuffered
    /// channel, with a receiver parked and no value in flight — the value
    /// goes in, `ChanSend` is emitted and the receivers are woken.
    fn offer(&self, ctx: &Ctx, k: &mut KState, pending: &mut Option<T>) -> Offer {
        let (kernel, gid, chan) = (ctx.kernel(), ctx.gid(), self.id);
        let cs = state(k, chan.0);
        if cs.closed {
            let channel = self.name.to_string();
            k.errors.push(RuntimeError::SendOnClosedChannel { channel });
            return Offer::Closed;
        }
        let can_proceed = if cs.cap == 0 {
            cs.qlen == 0 && !cs.recv_waiters.is_empty()
        } else {
            cs.qlen < cs.cap
        };
        if !can_proceed {
            return Offer::Refused;
        }
        cs.qlen += 1;
        let seq = cs.send_seq;
        cs.send_seq += 1;
        self.buf
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(pending.take().expect("value still pending"));
        kernel.emit_locked(k, gid, EventKind::ChanSend { chan, seq });
        wake_receivers(k, chan.0);
        Offer::Sent(seq)
    }

    /// The second half: on an unbuffered channel the sender stays until its
    /// value is consumed or the channel closed (rendezvous); then
    /// `ChanSendComplete`.
    fn complete(&self, ctx: &Ctx, k: &mut KState, seq: u64) -> Attempt<Result<(), T>> {
        let (kernel, gid, chan) = (ctx.kernel(), ctx.gid(), self.id);
        let cs = state(k, chan.0);
        let cap = cs.cap;
        if cap == 0 && cs.recv_seq <= seq && !cs.closed {
            cs.send_waiters.push(gid);
            return Attempt::Wait(BlockReason::ChanSend(chan));
        }
        kernel.emit_locked(k, gid, EventKind::ChanSendComplete { chan, seq, cap });
        Attempt::Done(Ok(()))
    }

    /// Non-blocking receive: `None` when nothing is immediately available
    /// and the channel is open (the `default` arm of a Go `select`).
    pub fn try_recv(&self, ctx: &Ctx) -> Option<RecvResult<T>> {
        self.try_take_locked(ctx, &mut ctx.kernel().yield_locked(ctx.gid()))
    }

    /// Attempts to take a value (or observe closure) on the borrowed kernel
    /// state.
    /// Also prods rendezvous senders on an unbuffered channel.
    fn try_take_locked(&self, ctx: &Ctx, k: &mut KState) -> Option<RecvResult<T>> {
        let (kernel, gid, chan) = (ctx.kernel(), ctx.gid(), self.id);
        let cs = state(k, chan.0);
        if cs.qlen > 0 {
            cs.qlen -= 1;
            let seq = cs.recv_seq;
            cs.recv_seq += 1;
            let v = self
                .buf
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front()
                .expect("buffer tracks qlen");
            kernel.emit_locked(k, gid, EventKind::ChanRecv { chan, seq });
            wake_senders(k, chan.0);
            return Some(RecvResult::Value(v));
        }
        if cs.closed {
            kernel.emit_locked(k, gid, EventKind::ChanRecvClosed { chan });
            return Some(RecvResult::Closed);
        }
        // Unbuffered and empty: prod parked senders so they can rendezvous
        // with us once we register as a receiver.
        if cs.cap == 0 && !cs.send_waiters.is_empty() {
            wake_senders(k, chan.0);
        }
        None
    }

    /// Closes the channel. Receivers drain remaining values, then observe
    /// closure. Double-close records [`RuntimeError::CloseOfClosedChannel`]
    /// (Go panics).
    pub fn close(&self, ctx: &Ctx) {
        let (kernel, gid) = (ctx.kernel(), ctx.gid());
        let mut k = kernel.yield_locked(gid);
        let cs = state(&mut k, self.id.0);
        if cs.closed {
            let channel = self.name.to_string();
            k.errors
                .push(RuntimeError::CloseOfClosedChannel { channel });
            return;
        }
        cs.closed = true;
        kernel.emit_locked(&mut k, gid, EventKind::ChanClose { chan: self.id });
        wake_senders(&mut k, self.id.0);
        wake_receivers(&mut k, self.id.0);
    }

    /// Whether the channel has been closed (instrumentation-free peek used
    /// by tests).
    #[must_use]
    pub fn is_closed(&self, ctx: &Ctx) -> bool {
        let k = ctx.kernel().lock();
        k.chans.get(&self.id.0).expect("channel exists").closed
    }
}

/// Blocking `select` over two receive arms (covers the study's patterns,
/// e.g. Listing 9's `select { case <-f.ch: ...; case <-ctx.Done(): ... }`).
///
/// When both channels are ready one is chosen pseudo-randomly (Go's
/// semantics), using the run's seeded RNG so the choice is reproducible.
pub fn select2_recv<A: Send + 'static, B: Send + 'static>(
    ctx: &Ctx,
    a: &Chan<A>,
    b: &Chan<B>,
) -> Selected2<A, B> {
    let gid = ctx.gid();
    ctx.kernel().block_on(gid, |k| {
        let take_first = match (chan_ready(k, a.id.0), chan_ready(k, b.id.0)) {
            (true, true) => {
                use rand::Rng;
                k.rng.gen_bool(0.5)
            }
            (true, false) => true,
            (false, true) => false,
            (false, false) => {
                for id in [a.id.0, b.id.0] {
                    let cs = state(k, id);
                    if cs.cap == 0 && !cs.send_waiters.is_empty() {
                        wake_senders(k, id);
                    }
                    state(k, id).recv_waiters.push(gid);
                }
                return Attempt::Wait(BlockReason::Select);
            }
        };
        // The check and the take are one borrow of the kernel state, so a
        // ready arm is still ready.
        Attempt::Done(if take_first {
            Selected2::First(a.try_take_locked(ctx, k).expect("arm is ready"))
        } else {
            Selected2::Second(b.try_take_locked(ctx, k).expect("arm is ready"))
        })
    })
}

fn chan_ready(k: &KState, id: u64) -> bool {
    let cs = k.chans.get(&id).expect("channel exists");
    cs.qlen > 0 || cs.closed
}
