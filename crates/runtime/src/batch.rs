//! The `.grtrace` reader: one pass straight into [`Event`]s.
//!
//! [`Trace::decode_into`] is the only code that parses the format
//! ([`Trace::encode`] is the only code that writes it); [`Trace::decode`]
//! and [`DecodedTrace::decode`] call it on a fresh [`Trace`]. It decodes
//! into one buffer of the same `Copy` [`Event`] record the kernel emits, so
//! a decoded trace *is* a [`Trace`] and every detector replays it through
//! the one `on_event` it runs live. Names — of objects, goroutines and
//! source files — arrive as string-table references and are renumbered
//! into [`NameId`]s in first-appearance order, the order the kernel
//! interned them in.
//!
//! A caller that decodes many traces (an intake worker) keeps one
//! [`Trace`] and decodes each into it: the event, stack and name buffers
//! are cleared and refilled rather than allocated again. Their capacity is
//! held to [`TRACE_RETAINED_ENTRIES`] entries each by calling
//! [`Trace::release_excess`] between traces, which frees the buffers of a
//! larger trace, so one large upload does not pin its memory in a worker.
//!
//! Every header, table and event field is bounds- and range-checked as it
//! is read — goroutine and object ids against [`MAX_TRACE_ID`], because
//! detectors index flat tables by them, and stack-table nodes against
//! repeats, which no depot snapshot holds — so a corrupt trace yields a
//! typed [`TraceDecodeError`] and never a panic — pinned over truncations,
//! bit flips, trailing bytes, oversized ids and lines and a repeated stack
//! node by `tests/batch_decode.rs`.

use std::ops::Deref;
use std::sync::Arc;

use crate::depot::{NameId, StackId};
use crate::event::{AccessKind, Event, EventKind, SourceLoc};
use crate::ids::{Addr, ChanId, Gid, LockUid, OnceId, WgId};
use crate::sched::Strategy;
use crate::trace::{
    lock_mode, tag, unzigzag, Reader, StackNode, Trace, TraceDecodeError, MAX_TRACE_ID,
    TRACE_FORMAT_VERSION, TRACE_MAGIC,
};

/// Most entries a reused [`Trace`] keeps room for between decodes, in each
/// of its event, stack and name buffers (and bytes, in its program name):
/// about 3 MiB of events. [`Trace::release_excess`] frees the buffers of a
/// trace past it. A 16 MiB upload can decode to some 5.6 million events; a
/// worker that kept their buffer would hold a quarter of a gigabyte for as
/// long as it runs.
pub const TRACE_RETAINED_ENTRIES: usize = 1 << 16;

/// Fewest bytes one encoded depot entry takes (parent, function, call
/// line: three varints), for [`Reader::count`].
const STACK_MIN_BYTES: usize = 3;

/// Fewest bytes one encoded event takes (step delta, goroutine, kind
/// tag), for [`Reader::count`].
const EVENT_MIN_BYTES: usize = 3;

impl Trace {
    /// Decodes a `.grtrace` byte stream into `self`, replacing what it
    /// held and reusing its buffers: the one reader of the format.
    ///
    /// On error `self` holds a partly decoded trace; decode into it again
    /// before reading it.
    ///
    /// # Errors
    ///
    /// A typed [`TraceDecodeError`] for the first structural problem:
    /// wrong magic, unsupported version, truncation, a malformed varint or
    /// string, an out-of-range table index, id or line, a repeated stack
    /// node, an unknown tag, a count the input is too short to hold, or
    /// trailing bytes.
    pub fn decode_into(&mut self, bytes: &[u8]) -> Result<(), TraceDecodeError> {
        self.events.clear();
        self.stacks.clear();
        self.names.clear();
        self.meta.program.clear();
        let mut d = Decoder {
            r: Reader::new(bytes),
            strings: Vec::new(),
            n_stacks: 0,
            prev_step: 0,
        };
        let n_events = d.header(self)?;
        self.events.reserve(n_events);
        for _ in 0..n_events {
            let event = d.event(&mut self.names)?;
            self.events.push(event);
        }
        if d.r.pos != bytes.len() {
            return Err(TraceDecodeError::TrailingBytes {
                extra: bytes.len() - d.r.pos,
            });
        }
        Ok(())
    }

    /// Frees what a large trace took: when any buffer has room for more
    /// than [`TRACE_RETAINED_ENTRIES`] entries (or the program name for
    /// more bytes), the trace becomes an empty one. A trace within the
    /// bound is left as it is, for the next [`Trace::decode_into`] to
    /// reuse.
    pub fn release_excess(&mut self) {
        let room = [
            self.events.capacity(),
            self.stacks.capacity(),
            self.names.capacity(),
            self.meta.program.capacity(),
        ];
        if room.iter().any(|&n| n > TRACE_RETAINED_ENTRIES) {
            *self = Trace::default();
        }
    }
}

/// One string-table entry of the trace being decoded.
struct Entry<'a> {
    text: &'a str,
    /// The text as the trace holds it, copied at its first use by a stack
    /// node or an event.
    arc: Option<Arc<str>>,
    /// The [`NameId`] the entry decodes to, once an event names it.
    name: Option<NameId>,
}

impl Entry<'_> {
    /// The text as the trace holds it, copied at the first call.
    fn arc(&mut self) -> Arc<str> {
        self.arc.get_or_insert_with(|| Arc::from(self.text)).clone()
    }
}

/// The decoder state over one `.grtrace` byte stream, beside the [`Trace`]
/// it fills: [`Decoder::header`] consumes and validates the header (magic,
/// version, string table, run metadata, depot snapshot), then
/// [`Decoder::event`] decodes one event at a time.
struct Decoder<'a> {
    r: Reader<'a>,
    strings: Vec<Entry<'a>>,
    n_stacks: u64,
    prev_step: u64,
}

impl<'a> Decoder<'a> {
    /// Parses the trace header, tables, and metadata into `trace`, and
    /// returns the number of events the header announces, bounded by the
    /// input's length.
    fn header(&mut self, trace: &mut Trace) -> Result<usize, TraceDecodeError> {
        let r = &mut self.r;
        if r.take(8)? != TRACE_MAGIC {
            return Err(TraceDecodeError::BadMagic);
        }
        let version = u32::from_le_bytes(r.take(4)?.try_into().unwrap());
        if version != TRACE_FORMAT_VERSION {
            return Err(TraceDecodeError::UnsupportedVersion {
                found: version,
                supported: TRACE_FORMAT_VERSION,
            });
        }

        let n_strings = r.uvarint()?;
        // Each entry takes at least its length byte: a hostile count
        // reserves no more than the input could hold.
        let room = r.bytes.len() - r.pos;
        self.strings.reserve((n_strings as usize).min(room));
        for _ in 0..n_strings {
            let len = r.uvarint()? as usize;
            let raw = r.take(len)?;
            let text = std::str::from_utf8(raw).map_err(|_| TraceDecodeError::BadUtf8)?;
            self.strings.push(Entry {
                text,
                arc: None,
                name: None,
            });
        }

        let program = self.string_idx()?;
        trace.meta.program.push_str(self.strings[program].text);
        let r = &mut self.r;
        trace.meta.seed = u64::from_le_bytes(r.take(8)?.try_into().unwrap());
        trace.meta.strategy = match r.byte()? {
            0 => Strategy::Random,
            1 => Strategy::Pct {
                depth: r.u32("PCT depth")?,
            },
            2 => Strategy::RoundRobin,
            tag => {
                return Err(TraceDecodeError::BadEnumTag {
                    what: "strategy",
                    tag,
                })
            }
        };
        trace.meta.steps = r.uvarint()?;
        trace.meta.goroutines_spawned = r.uvarint()? as usize;

        let n_stacks = r.count(STACK_MIN_BYTES)? as u64;
        self.n_stacks = n_stacks;
        trace.stacks.reserve(n_stacks as usize);
        // (parent, string-table index, call line, id) per node, sorted below
        // to find repeats without hashing any function name's text.
        let mut keys = Vec::with_capacity(n_stacks as usize);
        for i in 0..n_stacks {
            let parent = self.r.uvarint()?;
            if parent > i {
                return Err(TraceDecodeError::BadStackId {
                    id: parent,
                    table_len: n_stacks as usize,
                });
            }
            let func_idx = self.string_idx()?;
            let call_line = self.r.u32("call line")?;
            keys.push(((parent, func_idx, call_line), i + 1));
            trace.stacks.push(StackNode {
                parent: StackId(parent as u32),
                func: self.strings[func_idx].arc(),
                call_line,
            });
        }
        keys.sort_unstable();
        let repeat = keys
            .windows(2)
            .filter(|w| w[0].0 == w[1].0)
            .map(|w| w[1].1)
            .min();
        if let Some(id) = repeat {
            return Err(TraceDecodeError::RepeatedStack { id });
        }

        self.r.count(EVENT_MIN_BYTES)
    }

    /// The next varint as a string-table index.
    fn string_idx(&mut self) -> Result<usize, TraceDecodeError> {
        let idx = self.r.uvarint()?;
        if (idx as usize) < self.strings.len() {
            Ok(idx as usize)
        } else {
            Err(TraceDecodeError::BadStringIndex {
                index: idx,
                table_len: self.strings.len(),
            })
        }
    }

    /// The next varint as a name: the string-table entry's [`NameId`],
    /// assigned at the entry's first use, when its text joins `names`.
    #[inline]
    fn name(&mut self, names: &mut Vec<Arc<str>>) -> Result<NameId, TraceDecodeError> {
        let i = self.string_idx()?;
        Ok(match self.strings[i].name {
            Some(id) => id,
            None => self.first_name(i, names),
        })
    }

    /// Numbers string-table entry `i` as the next name.
    #[inline(never)]
    fn first_name(&mut self, i: usize, names: &mut Vec<Arc<str>>) -> NameId {
        let name = NameId(names.len() as u32);
        names.push(self.strings[i].arc());
        self.strings[i].name = Some(name);
        name
    }

    /// The next varint as a goroutine or object id, which a detector uses
    /// as a table index.
    fn id(&mut self) -> Result<u64, TraceDecodeError> {
        match self.r.uvarint()? {
            id if id <= MAX_TRACE_ID => Ok(id),
            id => Err(TraceDecodeError::IdOutOfRange {
                id,
                max: MAX_TRACE_ID,
            }),
        }
    }

    /// Decodes one event, fields in [`Trace::encode`]'s order, adding the
    /// names it mentions first to `names`.
    #[inline]
    fn event(&mut self, names: &mut Vec<Arc<str>>) -> Result<Event, TraceDecodeError> {
        self.prev_step = self.prev_step.wrapping_add(self.r.uvarint()?);
        let gid = Gid(self.id()? as u32);
        let kind = match self.r.byte()? {
            tag::SPAWN => {
                let child = Gid(self.id()? as u32);
                EventKind::Spawn {
                    child,
                    name: self.name(names)?,
                }
            }
            tag::GOROUTINE_END => EventKind::GoroutineEnd,
            tag::ACCESS => {
                let addr = Addr(self.id()?);
                let object = self.name(names)?;
                let kind = match self.r.byte()? {
                    0 => AccessKind::Read,
                    1 => AccessKind::Write,
                    2 => AccessKind::AtomicRead,
                    3 => AccessKind::AtomicWrite,
                    tag => {
                        return Err(TraceDecodeError::BadEnumTag {
                            what: "access kind",
                            tag,
                        })
                    }
                };
                let stack = self.r.uvarint()?;
                if stack > self.n_stacks {
                    return Err(TraceDecodeError::BadStackId {
                        id: stack,
                        table_len: self.n_stacks as usize,
                    });
                }
                let file = self.name(names)?;
                EventKind::Access {
                    addr,
                    object,
                    kind,
                    stack: StackId(stack as u32),
                    loc: SourceLoc {
                        file,
                        line: self.r.u32("line")?,
                    },
                }
            }
            tag::ACQUIRE => EventKind::Acquire {
                lock: LockUid(self.id()?),
                mode: lock_mode(self.r.byte()?)?,
            },
            tag::RELEASE => EventKind::Release {
                lock: LockUid(self.id()?),
                mode: lock_mode(self.r.byte()?)?,
            },
            tag::CHAN_SEND => EventKind::ChanSend {
                chan: ChanId(self.id()?),
                seq: self.r.uvarint()?,
            },
            tag::CHAN_SEND_COMPLETE => EventKind::ChanSendComplete {
                chan: ChanId(self.id()?),
                seq: self.r.uvarint()?,
                cap: self.r.uvarint()? as usize,
            },
            tag::CHAN_RECV => EventKind::ChanRecv {
                chan: ChanId(self.id()?),
                seq: self.r.uvarint()?,
            },
            tag::CHAN_RECV_CLOSED => EventKind::ChanRecvClosed {
                chan: ChanId(self.id()?),
            },
            tag::CHAN_CLOSE => EventKind::ChanClose {
                chan: ChanId(self.id()?),
            },
            tag::WG_ADD => EventKind::WgAdd {
                wg: WgId(self.id()?),
                delta: unzigzag(self.r.uvarint()?),
                counter: unzigzag(self.r.uvarint()?),
            },
            tag::WG_WAIT => EventKind::WgWait {
                wg: WgId(self.id()?),
            },
            tag::ONCE_EXECUTED => EventKind::OnceExecuted {
                once: OnceId(self.id()?),
            },
            tag::ONCE_OBSERVED => EventKind::OnceObserved {
                once: OnceId(self.id()?),
            },
            tag => return Err(TraceDecodeError::BadEventTag(tag)),
        };
        Ok(Event {
            step: self.prev_step,
            gid,
            kind,
        })
    }
}

/// The batch size `benchmark/`'s `runtime.batch_fill_rate` divides a
/// decoded trace into.
const BATCH_EVENTS: usize = 4096;

/// A decoded trace plus the batch statistics the observability layer
/// reads. It derefs to the [`Trace`]: metadata, depot snapshot, names and
/// events.
#[derive(Debug)]
pub struct DecodedTrace {
    /// The trace itself.
    pub trace: Trace,
    /// The events in batches of [`DecodedTrace::chunk_capacity`], rounded
    /// up (0 for an empty trace). The decoder fills one buffer; this and
    /// `chunk_capacity` are kept for `benchmark/`'s
    /// `runtime.batch_fill_rate` until a repair of the benchmark's
    /// measurements retires that metric.
    pub chunks: u64,
    /// Events per batch: 4,096.
    pub chunk_capacity: usize,
}

impl Deref for DecodedTrace {
    type Target = Trace;

    fn deref(&self) -> &Trace {
        &self.trace
    }
}

impl DecodedTrace {
    /// Decodes `bytes` in one pass: [`Trace::decode`].
    ///
    /// # Errors
    ///
    /// As [`Trace::decode_into`].
    pub fn decode(bytes: &[u8]) -> Result<DecodedTrace, TraceDecodeError> {
        let trace = Trace::decode(bytes)?;
        Ok(DecodedTrace {
            chunks: trace.events.len().div_ceil(BATCH_EVENTS) as u64,
            chunk_capacity: BATCH_EVENTS,
            trace,
        })
    }

    /// Number of decoded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.trace.events.len()
    }

    /// True when the trace recorded no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trace.events.is_empty()
    }
}
