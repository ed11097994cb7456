//! The `.grtrace` reader: one parser, two drivers.
//!
//! A private `Decoder`'s `header` and `event` are the only code that parses
//! the format ([`Trace::encode`] is the only code that writes it).
//! [`Trace::decode`] drives them into a fresh [`Trace`], one buffer of the
//! same `Copy` [`Event`] record the kernel emits, so every detector replays
//! it through the one `on_event` it runs live. [`replay_encoded`] drives
//! them into a new generation of a caller's [`StackDepot`] and a
//! [`Monitor`] that sees each event as it is read, so an intake worker
//! keeps no trace. Names — of objects, goroutines and source files — arrive
//! as string-table references and are renumbered into [`NameId`]s in
//! first-appearance order, the order the kernel interned them in.
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

use crate::depot::{NameId, StackDepot, StackId};
use crate::event::{AccessKind, Event, EventKind, SourceLoc};
use crate::ids::{Addr, ChanId, Gid, LockUid, OnceId, WgId};
use crate::monitor::Monitor;
use crate::sched::Strategy;
use crate::trace::{
    lock_mode, tag, unzigzag, Reader, ReproArtifact, StackNode, Trace, TraceDecodeError, TraceMeta,
    MAX_TRACE_ID, TRACE_FORMAT_VERSION, TRACE_MAGIC,
};

/// Fewest bytes one encoded depot entry takes (parent, function, call
/// line: three varints), for [`Reader::count`].
const STACK_MIN_BYTES: usize = 3;

/// Fewest bytes one encoded event takes (step delta, goroutine, kind
/// tag), for [`Reader::count`].
const EVENT_MIN_BYTES: usize = 3;

impl Trace {
    /// Decodes a `.grtrace` byte stream into a fresh trace.
    ///
    /// # Errors
    ///
    /// A typed [`TraceDecodeError`] for the first structural problem:
    /// wrong magic, unsupported version, truncation, a malformed varint or
    /// string, an out-of-range table index, id or line, a repeated stack
    /// node, an unknown tag, a count the input is too short to hold, or
    /// trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Trace, TraceDecodeError> {
        let mut d = Decoder::new(bytes);
        let mut trace = Trace::default();
        let (program, meta, n_events) = d.header(&mut trace.stacks)?;
        trace.meta = TraceMeta {
            program: program.to_string(),
            ..meta
        };
        trace.events.reserve(n_events);
        for _ in 0..n_events {
            let event = d.event(&mut |text| trace.names.push(text))?;
            trace.events.push(event);
        }
        d.end()?;
        Ok(trace)
    }
}

/// Decodes a `.grtrace` byte stream straight into `depot` and `monitor`,
/// the replayed twin of [`Runtime::run_with_depot`]: the stack table
/// becomes a new generation of `depot`, `monitor` starts a run on it, and
/// then sees each event as it is decoded, the names the event mentions
/// first already added to `depot`. Ids and names are those
/// [`Trace::decode`] gives. Returns the program's name, borrowed from
/// `bytes`, and the seed and strategy that reproduce the run.
///
/// # Errors
///
/// As [`Trace::decode`]. `monitor` has then seen the events before the
/// error, and not `on_run_end`: what it found belongs to no trace.
///
/// [`Runtime::run_with_depot`]: crate::Runtime::run_with_depot
pub fn replay_encoded<'a, M: Monitor + ?Sized>(
    bytes: &'a [u8],
    depot: &StackDepot,
    monitor: &mut M,
) -> Result<(&'a str, ReproArtifact), TraceDecodeError> {
    let mut d = Decoder::new(bytes);
    let (program, meta, n_events) = depot.restore(|stacks, _| d.header(stacks))?;
    monitor.on_run_start(depot);
    for _ in 0..n_events {
        let event = d.event(&mut |text| depot.push_name(text))?;
        monitor.on_event(&event);
    }
    d.end()?;
    monitor.on_run_end();
    Ok((program, ReproArtifact::seeded(meta.seed, meta.strategy)))
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

/// The decoder state over one `.grtrace` byte stream: [`Decoder::header`]
/// consumes and validates the header (magic, version, string table, run
/// metadata, depot snapshot), then [`Decoder::event`] decodes one event at
/// a time, and [`Decoder::end`] checks that nothing follows the last.
struct Decoder<'a> {
    r: Reader<'a>,
    strings: Vec<Entry<'a>>,
    n_stacks: u64,
    /// Names given so far: the next one's [`NameId`].
    n_names: u32,
    prev_step: u64,
}

impl<'a> Decoder<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Decoder {
            r: Reader::new(bytes),
            strings: Vec::new(),
            n_stacks: 0,
            n_names: 0,
            prev_step: 0,
        }
    }

    /// Parses the trace header, tables, and metadata, the stack table onto
    /// `stacks`, and returns the program's name, the rest of the metadata
    /// and the number of events the header announces, bounded by the
    /// input's length.
    fn header(
        &mut self,
        stacks: &mut Vec<StackNode>,
    ) -> Result<(&'a str, TraceMeta, usize), TraceDecodeError> {
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
        let program = self.strings[program].text;
        let mut meta = TraceMeta::default();
        let r = &mut self.r;
        meta.seed = u64::from_le_bytes(r.take(8)?.try_into().unwrap());
        meta.strategy = match r.byte()? {
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
        meta.steps = r.uvarint()?;
        meta.goroutines_spawned = r.uvarint()? as usize;

        let n_stacks = r.count(STACK_MIN_BYTES)? as u64;
        self.n_stacks = n_stacks;
        stacks.reserve(n_stacks as usize);
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
            stacks.push(StackNode {
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

        Ok((program, meta, self.r.count(EVENT_MIN_BYTES)?))
    }

    /// The next varint as a string-table index.
    #[inline]
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
    /// assigned at the entry's first use, when its text goes to `new_name`.
    #[inline]
    fn name(&mut self, new_name: &mut impl FnMut(Arc<str>)) -> Result<NameId, TraceDecodeError> {
        let i = self.string_idx()?;
        Ok(match self.strings[i].name {
            Some(id) => id,
            None => self.first_name(i, new_name),
        })
    }

    /// Numbers string-table entry `i` as the next name.
    #[inline(never)]
    fn first_name(&mut self, i: usize, new_name: &mut impl FnMut(Arc<str>)) -> NameId {
        let name = NameId(self.n_names);
        self.n_names += 1;
        new_name(self.strings[i].arc());
        self.strings[i].name = Some(name);
        name
    }

    /// The next varint as a goroutine or object id, which a detector uses
    /// as a table index.
    #[inline]
    fn id(&mut self) -> Result<u64, TraceDecodeError> {
        match self.r.uvarint()? {
            id if id <= MAX_TRACE_ID => Ok(id),
            id => Err(TraceDecodeError::IdOutOfRange {
                id,
                max: MAX_TRACE_ID,
            }),
        }
    }

    /// Decodes one event, fields in [`Trace::encode`]'s order, giving the
    /// names it mentions first to `new_name`.
    #[inline]
    fn event(&mut self, new_name: &mut impl FnMut(Arc<str>)) -> Result<Event, TraceDecodeError> {
        self.prev_step = self.prev_step.wrapping_add(self.r.uvarint()?);
        let gid = Gid(self.id()? as u32);
        let kind = match self.r.byte()? {
            tag::SPAWN => {
                let child = Gid(self.id()? as u32);
                EventKind::Spawn {
                    child,
                    name: self.name(new_name)?,
                }
            }
            tag::GOROUTINE_END => EventKind::GoroutineEnd,
            tag::ACCESS => {
                let addr = Addr(self.id()?);
                let object = self.name(new_name)?;
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
                let file = self.name(new_name)?;
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

    /// Checks that nothing follows the last event.
    fn end(&self) -> Result<(), TraceDecodeError> {
        match self.r.bytes.len() - self.r.pos {
            0 => Ok(()),
            extra => Err(TraceDecodeError::TrailingBytes { extra }),
        }
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
    /// As [`Trace::decode`].
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
