//! The `.grtrace` reader: one pass straight into [`Event`]s.
//!
//! [`DecodedTrace::decode`] is the only code that parses the format
//! ([`Trace::encode`] is the only code that writes it). It decodes into one
//! buffer of the same `Copy` [`Event`] record the kernel emits, so a
//! decoded trace *is* a [`Trace`] and every detector replays it through the
//! one `on_event` it runs live. Names — of objects, goroutines and source
//! files — arrive as string-table references and are renumbered into
//! [`NameId`]s in first-appearance order, the order the kernel interned
//! them in.
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
    lock_mode, tag, unzigzag, Reader, StackNode, Trace, TraceDecodeError, TraceMeta, MAX_TRACE_ID,
    TRACE_FORMAT_VERSION, TRACE_MAGIC,
};

/// Fewest bytes one encoded depot entry takes (parent, function, call
/// line: three varints), for [`Reader::count`].
const STACK_MIN_BYTES: usize = 3;

/// Fewest bytes one encoded event takes (step delta, goroutine, kind
/// tag), for [`Reader::count`].
const EVENT_MIN_BYTES: usize = 3;

/// The decoder state over one `.grtrace` byte stream: [`BatchDecoder::new`]
/// consumes and validates the header (magic, version, string table, run
/// metadata, depot snapshot), then [`BatchDecoder::events`] decodes every
/// event and rejects bytes left over.
#[derive(Debug)]
struct BatchDecoder<'a> {
    r: Reader<'a>,
    /// Run metadata decoded from the header.
    meta: TraceMeta,
    /// Depot snapshot in first-intern order (entry `i` = `StackId(i+1)`).
    stacks: Vec<StackNode>,
    /// The names events decoded so far mention, in first-appearance order
    /// (entry `i` = `NameId(i)`).
    names: Vec<Arc<str>>,
    strings: Vec<Arc<str>>,
    /// Per string-table entry: the [`NameId`] it decodes to, once an event
    /// names it.
    name_ids: Vec<Option<NameId>>,
    n_stacks: u64,
    /// Events the header announces, bounded by the input's length.
    n_events: usize,
    prev_step: u64,
}

impl<'a> BatchDecoder<'a> {
    /// Parses the trace header, tables, and metadata.
    ///
    /// # Errors
    ///
    /// A typed [`TraceDecodeError`] for the first structural problem:
    /// wrong magic, unsupported version, truncation, a malformed varint or
    /// string, an out-of-range table index, a repeated stack node, or a
    /// count the input is too short to hold.
    fn new(bytes: &'a [u8]) -> Result<Self, TraceDecodeError> {
        let mut r = Reader { bytes, pos: 0 };
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
        let mut strings: Vec<Arc<str>> = Vec::new();
        for _ in 0..n_strings {
            let len = r.uvarint()? as usize;
            let raw = r.take(len)?;
            let s = std::str::from_utf8(raw).map_err(|_| TraceDecodeError::BadUtf8)?;
            strings.push(Arc::from(s));
        }
        let string = |idx: u64| -> Result<&Arc<str>, TraceDecodeError> {
            strings
                .get(idx as usize)
                .ok_or(TraceDecodeError::BadStringIndex {
                    index: idx,
                    table_len: strings.len(),
                })
        };

        let program = string(r.uvarint()?)?.to_string();
        let seed = u64::from_le_bytes(r.take(8)?.try_into().unwrap());
        let strategy = match r.byte()? {
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
        let steps = r.uvarint()?;
        let goroutines_spawned = r.uvarint()? as usize;

        let n_stacks = r.count(STACK_MIN_BYTES)? as u64;
        let mut stacks = Vec::with_capacity(n_stacks as usize);
        // (parent, string-table index, call line, id) per node, sorted below
        // to find repeats without hashing any function name's text.
        let mut keys = Vec::with_capacity(n_stacks as usize);
        for i in 0..n_stacks {
            let parent = r.uvarint()?;
            if parent > i {
                return Err(TraceDecodeError::BadStackId {
                    id: parent,
                    table_len: n_stacks as usize,
                });
            }
            let func_idx = r.uvarint()?;
            let func = string(func_idx)?;
            let call_line = r.u32("call line")?;
            keys.push(((parent, func_idx, call_line), i + 1));
            stacks.push(StackNode {
                parent: StackId(parent as u32),
                func: func.clone(),
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

        let n_events = r.count(EVENT_MIN_BYTES)?;
        Ok(BatchDecoder {
            r,
            meta: TraceMeta {
                program,
                seed,
                strategy,
                steps,
                goroutines_spawned,
            },
            stacks,
            names: Vec::new(),
            name_ids: vec![None; strings.len()],
            strings,
            n_stacks,
            n_events,
            prev_step: 0,
        })
    }

    /// Decodes every event the header announced.
    ///
    /// # Errors
    ///
    /// A typed [`TraceDecodeError`]: truncation mid-event, malformed
    /// varints, out-of-range string or stack indices, ids past
    /// [`MAX_TRACE_ID`], lines past `u32`, unknown tags, and trailing bytes
    /// after the final event.
    fn events(&mut self) -> Result<Vec<Event>, TraceDecodeError> {
        let mut events = Vec::with_capacity(self.n_events);
        for _ in 0..self.n_events {
            events.push(self.decode_event()?);
        }
        if self.r.pos != self.r.bytes.len() {
            return Err(TraceDecodeError::TrailingBytes {
                extra: self.r.bytes.len() - self.r.pos,
            });
        }
        Ok(events)
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
    /// assigned at the entry's first use.
    fn name(&mut self) -> Result<NameId, TraceDecodeError> {
        let i = self.string_idx()?;
        if let Some(id) = self.name_ids[i] {
            return Ok(id);
        }
        let id = NameId(self.names.len() as u32);
        self.names.push(self.strings[i].clone());
        self.name_ids[i] = Some(id);
        Ok(id)
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

    /// Decodes one event, fields in [`Trace::encode`]'s order.
    fn decode_event(&mut self) -> Result<Event, TraceDecodeError> {
        self.prev_step = self.prev_step.wrapping_add(self.r.uvarint()?);
        let gid = Gid(self.id()? as u32);
        let kind = match self.r.byte()? {
            tag::SPAWN => {
                let child = Gid(self.id()? as u32);
                EventKind::Spawn {
                    child,
                    name: self.name()?,
                }
            }
            tag::GOROUTINE_END => EventKind::GoroutineEnd,
            tag::ACCESS => {
                let addr = Addr(self.id()?);
                let object = self.name()?;
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
                let file = self.name()?;
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
    /// `runtime.batch_fill_rate` until ROADMAP item 13 retires it.
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
    /// Decodes `bytes` in one pass.
    ///
    /// # Errors
    ///
    /// A typed [`TraceDecodeError`] for the first structural problem:
    /// wrong magic, unsupported version, truncation, a malformed varint or
    /// string, an out-of-range table index, id or line, a repeated stack
    /// node, an unknown tag, a count the input is too short to hold, or
    /// trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<DecodedTrace, TraceDecodeError> {
        let mut d = BatchDecoder::new(bytes)?;
        let events = d.events()?;
        Ok(DecodedTrace {
            chunks: events.len().div_ceil(BATCH_EVENTS) as u64,
            chunk_capacity: BATCH_EVENTS,
            trace: Trace {
                meta: d.meta,
                stacks: d.stacks,
                names: d.names,
                events,
            },
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
