//! Trace record/replay: execute once, analyze many.
//!
//! The paper's deployment (§3.2–3.3) hinges on being able to re-trigger a
//! detected race after the fact, and laments how hard dynamic reports are
//! to reproduce. Our answer is the [`Trace`] artifact: a self-contained
//! recording of one scheduled execution — the totally ordered [`Event`]
//! stream, a snapshot of the [`StackDepot`] that interned its calling
//! contexts and names, and the run metadata (program, seed, strategy)
//! needed to re-execute it live.
//!
//! Because monitors never influence the schedule (the interleaving is a
//! pure function of `(seed, Strategy)`), the event stream recorded by
//! [`TraceRecorder`] is *identical* to what any detector would have
//! observed live. Replaying a trace through a detector therefore produces
//! reports bit-identical to a live run — FastTrack itself is defined over a
//! trace, not an execution — and one execution can be fanned out through
//! every detector, amortizing the (dominant) schedule-execution cost.
//!
//! Traces serialize to versioned, endian-stable `.grtrace` files via a
//! hand-rolled binary codec ([`Trace::encode`]/[`Trace::decode`] — the
//! build is offline, so no serde): an 8-byte magic, a format version, a
//! string table, the depot snapshot, and LEB128/zigzag-packed events with
//! delta-encoded steps. Names travel as string-table references; the
//! decoder renumbers them in first-appearance order, which is the order the
//! kernel interned them in, so a decoded trace equals its recording.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Arc;

use grs_obs::Fnv1a;

use crate::depot::{NameId, StackDepot, StackId};
use crate::event::{AccessKind, Event, EventKind, LockMode};
use crate::monitor::Monitor;
use crate::runtime::{Program, RunConfig, RunOutcome, Runtime};
use crate::sched::Strategy;

/// First 8 bytes of every `.grtrace` file.
pub const TRACE_MAGIC: [u8; 8] = *b"GRTRACE\0";

/// Current `.grtrace` format version. Bump on any layout change; decoders
/// reject other versions with [`TraceDecodeError::UnsupportedVersion`].
pub const TRACE_FORMAT_VERSION: u32 = 1;

/// Largest goroutine or object id (address, lock, channel, wait group,
/// once, spawned child) a decoded event may carry; a larger one is
/// [`TraceDecodeError::IdOutOfRange`]. The detectors keep flat tables
/// indexed by these ids and grow them to the largest id seen, so without a
/// bound an 80-byte upload naming id 2^36 makes the intake server reserve
/// terabytes and abort. With it the worst a trace can make one `FastTrack`
/// reserve is about 2 MB of tables (some 500 bytes per id across
/// variables, locks, channels, wait groups and onces) plus about 34 MB of
/// vector clocks: it keeps one clock of `g + 1` components for every
/// goroutine up to the largest gid seen, so that term is quadratic in this
/// bound — weigh it before raising the bound. The runtime numbers
/// goroutines and objects densely from 0 and 1 within a run; no program in
/// the tree comes within a factor of ten of the bound.
pub const MAX_TRACE_ID: u64 = (1 << 12) - 1;

/// The event-kind tag bytes of the `.grtrace` format, named once: the
/// encoder writes them and the decoder matches on them. One constant per
/// [`EventKind`] variant.
pub(crate) mod tag {
    pub const SPAWN: u8 = 0;
    pub const GOROUTINE_END: u8 = 1;
    pub const ACCESS: u8 = 2;
    pub const ACQUIRE: u8 = 3;
    pub const RELEASE: u8 = 4;
    pub const CHAN_SEND: u8 = 5;
    pub const CHAN_SEND_COMPLETE: u8 = 6;
    pub const CHAN_RECV: u8 = 7;
    pub const CHAN_RECV_CLOSED: u8 = 8;
    pub const CHAN_CLOSE: u8 = 9;
    pub const WG_ADD: u8 = 10;
    pub const WG_WAIT: u8 = 11;
    pub const ONCE_EXECUTED: u8 = 12;
    pub const ONCE_OBSERVED: u8 = 13;
}

/// Metadata identifying the run a [`Trace`] was recorded from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceMeta {
    /// Name of the executed program.
    pub program: String,
    /// Seed that produced the interleaving.
    pub seed: u64,
    /// Scheduling strategy of the run.
    pub strategy: Strategy,
    /// Total scheduler steps taken.
    pub steps: u64,
    /// Goroutines created (including main).
    pub goroutines_spawned: usize,
}

/// One node of the recorded stack-depot tree; entry `i` of
/// [`Trace::stacks`] describes `StackId(i + 1)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackNode {
    /// The stack below this frame (`StackId::EMPTY` for roots).
    pub parent: StackId,
    /// Function name of the leaf frame.
    pub func: Arc<str>,
    /// Call line of the leaf frame (0 when unknown).
    pub call_line: u32,
}

/// A self-contained recording of one scheduled execution.
///
/// # Example
///
/// ```
/// use grs_runtime::{record, Program, RunConfig, Trace};
///
/// let p = Program::new("one-write", |ctx| {
///     let x = ctx.cell("x", 0i64);
///     ctx.write(&x, 1);
/// });
/// let (outcome, trace) = record(&p, &RunConfig::with_seed(7));
/// assert_eq!(trace.meta.steps, outcome.steps);
/// let bytes = trace.encode();
/// let back = Trace::decode(&bytes).unwrap();
/// assert_eq!(back, trace);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Which run this is a recording of.
    pub meta: TraceMeta,
    /// Depot snapshot in first-intern (id) order.
    pub stacks: Vec<StackNode>,
    /// The depot's name table in first-intern order: entry `i` is the text
    /// of `NameId(i)`, the name of an object, a goroutine or a source file.
    pub names: Vec<Arc<str>>,
    /// The totally ordered event stream.
    pub events: Vec<Event>,
}

impl Trace {
    /// The text of name `id`.
    #[must_use]
    pub fn name(&self, id: NameId) -> &str {
        &self.names[id.index()]
    }

    /// Replaces `depot`'s contents with the recorded stack and name tables,
    /// so every [`StackId`] and [`NameId`] the recorded events carry
    /// resolves to what the live run interned under it.
    pub fn rebuild_depot_into(&self, depot: &StackDepot) {
        depot.restore(|stacks, names| {
            stacks.extend_from_slice(&self.stacks);
            names.extend_from_slice(&self.names);
        });
    }

    /// The FNV-1a fold of the event stream — bit-identical to the digest a
    /// live [`crate::TraceHasher`] monitor computes for the same run, so a
    /// decoded trace can be authenticated against a re-execution.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut digest = Fnv1a::new();
        for event in &self.events {
            let mut h = DefaultHasher::new();
            event.hash_named(&self.names, &mut h);
            digest.write(&h.finish().to_le_bytes());
        }
        digest.finish()
    }

    /// A [`ReproArtifact`] pointing back at this trace.
    #[must_use]
    pub fn repro(&self) -> ReproArtifact {
        ReproArtifact {
            seed: self.meta.seed,
            strategy: self.meta.strategy,
            trace_digest: Some(self.digest()),
            trace_path: None,
        }
    }

    /// Serializes the trace to the versioned `.grtrace` byte format.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut strings = StringTable::default();
        let program = strings.intern(&self.meta.program);
        let stacks: Vec<(u32, u64, u32)> = self
            .stacks
            .iter()
            .map(|n| (n.parent.raw(), strings.intern(&n.func), n.call_line))
            .collect();
        // Pre-intern event strings in stream order so the table layout is a
        // deterministic function of the trace alone.
        for ev in &self.events {
            for name in ev.names() {
                strings.intern(self.name(name));
            }
        }

        let mut out = Vec::with_capacity(64 + self.events.len() * 8);
        out.extend_from_slice(&TRACE_MAGIC);
        out.extend_from_slice(&TRACE_FORMAT_VERSION.to_le_bytes());

        put_uvarint(&mut out, strings.entries.len() as u64);
        for s in &strings.entries {
            put_uvarint(&mut out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }

        put_uvarint(&mut out, program);
        out.extend_from_slice(&self.meta.seed.to_le_bytes());
        match self.meta.strategy {
            Strategy::Random => out.push(0),
            Strategy::Pct { depth } => {
                out.push(1);
                put_uvarint(&mut out, u64::from(depth));
            }
            Strategy::RoundRobin => out.push(2),
        }
        put_uvarint(&mut out, self.meta.steps);
        put_uvarint(&mut out, self.meta.goroutines_spawned as u64);

        put_uvarint(&mut out, stacks.len() as u64);
        for (parent, func, call_line) in stacks {
            put_uvarint(&mut out, u64::from(parent));
            put_uvarint(&mut out, func);
            put_uvarint(&mut out, u64::from(call_line));
        }

        put_uvarint(&mut out, self.events.len() as u64);
        let mut prev_step = 0u64;
        for ev in &self.events {
            put_uvarint(&mut out, ev.step.wrapping_sub(prev_step));
            prev_step = ev.step;
            put_uvarint(&mut out, u64::from(ev.gid.0));
            match &ev.kind {
                EventKind::Spawn { child, name } => {
                    out.push(tag::SPAWN);
                    put_uvarint(&mut out, u64::from(child.0));
                    put_uvarint(&mut out, strings.intern(self.name(*name)));
                }
                EventKind::GoroutineEnd => out.push(tag::GOROUTINE_END),
                EventKind::Access {
                    addr,
                    object,
                    kind,
                    stack,
                    loc,
                } => {
                    out.push(tag::ACCESS);
                    put_uvarint(&mut out, addr.0);
                    put_uvarint(&mut out, strings.intern(self.name(*object)));
                    out.push(match kind {
                        AccessKind::Read => 0,
                        AccessKind::Write => 1,
                        AccessKind::AtomicRead => 2,
                        AccessKind::AtomicWrite => 3,
                    });
                    put_uvarint(&mut out, u64::from(stack.raw()));
                    put_uvarint(&mut out, strings.intern(self.name(loc.file)));
                    put_uvarint(&mut out, u64::from(loc.line));
                }
                EventKind::Acquire { lock, mode } => {
                    out.push(tag::ACQUIRE);
                    put_uvarint(&mut out, lock.0);
                    out.push(lock_mode_tag(*mode));
                }
                EventKind::Release { lock, mode } => {
                    out.push(tag::RELEASE);
                    put_uvarint(&mut out, lock.0);
                    out.push(lock_mode_tag(*mode));
                }
                EventKind::ChanSend { chan, seq } => {
                    out.push(tag::CHAN_SEND);
                    put_uvarint(&mut out, chan.0);
                    put_uvarint(&mut out, *seq);
                }
                EventKind::ChanSendComplete { chan, seq, cap } => {
                    out.push(tag::CHAN_SEND_COMPLETE);
                    put_uvarint(&mut out, chan.0);
                    put_uvarint(&mut out, *seq);
                    put_uvarint(&mut out, *cap as u64);
                }
                EventKind::ChanRecv { chan, seq } => {
                    out.push(tag::CHAN_RECV);
                    put_uvarint(&mut out, chan.0);
                    put_uvarint(&mut out, *seq);
                }
                EventKind::ChanRecvClosed { chan } => {
                    out.push(tag::CHAN_RECV_CLOSED);
                    put_uvarint(&mut out, chan.0);
                }
                EventKind::ChanClose { chan } => {
                    out.push(tag::CHAN_CLOSE);
                    put_uvarint(&mut out, chan.0);
                }
                EventKind::WgAdd { wg, delta, counter } => {
                    out.push(tag::WG_ADD);
                    put_uvarint(&mut out, wg.0);
                    put_uvarint(&mut out, zigzag(*delta));
                    put_uvarint(&mut out, zigzag(*counter));
                }
                EventKind::WgWait { wg } => {
                    out.push(tag::WG_WAIT);
                    put_uvarint(&mut out, wg.0);
                }
                EventKind::OnceExecuted { once } => {
                    out.push(tag::ONCE_EXECUTED);
                    put_uvarint(&mut out, once.0);
                }
                EventKind::OnceObserved { once } => {
                    out.push(tag::ONCE_OBSERVED);
                    put_uvarint(&mut out, once.0);
                }
            }
        }
        out
    }

    /// Encodes and writes the trace to a `.grtrace` file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.encode())
    }

    /// Reads and decodes a `.grtrace` file; decode failures surface as
    /// `InvalidData` I/O errors carrying the [`TraceDecodeError`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and wraps decode errors.
    pub fn read_from(path: impl AsRef<Path>) -> std::io::Result<Trace> {
        let bytes = std::fs::read(path)?;
        Trace::decode(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Why a `.grtrace` byte stream failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceDecodeError {
    /// The first 8 bytes are not [`TRACE_MAGIC`] — not a trace file.
    BadMagic,
    /// The file was written by a different format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// The version this build reads/writes.
        supported: u32,
    },
    /// The stream ended mid-field.
    Truncated,
    /// Bytes remain after the last event — corrupt or concatenated input.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A varint ran past 10 bytes or past 64 bits (cannot encode a `u64`).
    MalformedVarint,
    /// A string-table entry is not valid UTF-8.
    BadUtf8,
    /// A string reference points past the table.
    BadStringIndex {
        /// The out-of-range index.
        index: u64,
        /// Number of entries in the table.
        table_len: usize,
    },
    /// A stack id is out of range or out of first-intern order.
    BadStackId {
        /// The offending raw id.
        id: u64,
        /// Number of stack nodes in the trace.
        table_len: usize,
    },
    /// A stack-table node repeats an earlier one (same parent, function
    /// and call line): a depot interns each node once, so no recording has
    /// one.
    RepeatedStack {
        /// The raw id of the repeat.
        id: u64,
    },
    /// A goroutine or object id is larger than [`MAX_TRACE_ID`].
    IdOutOfRange {
        /// The offending id.
        id: u64,
        /// The largest id the decoder admits.
        max: u64,
    },
    /// A field the format declares 32 bits wide (a line, a PCT depth, a
    /// day) holds a larger value.
    ValueOutOfRange {
        /// Which field.
        what: &'static str,
        /// The value read.
        value: u64,
    },
    /// An unknown event tag byte.
    BadEventTag(u8),
    /// An unknown tag for a named enum field.
    BadEnumTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The unknown tag byte.
        tag: u8,
    },
}

impl fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceDecodeError::BadMagic => {
                write!(f, "not a .grtrace file (bad magic; expected \"GRTRACE\\0\")")
            }
            TraceDecodeError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported .grtrace format version {found} (this build supports \
                 version {supported}); re-record the trace with a matching build"
            ),
            TraceDecodeError::Truncated => write!(f, "trace truncated mid-field"),
            TraceDecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last event")
            }
            TraceDecodeError::MalformedVarint => write!(f, "malformed varint (past 64 bits)"),
            TraceDecodeError::BadUtf8 => write!(f, "string table entry is not valid UTF-8"),
            TraceDecodeError::BadStringIndex { index, table_len } => {
                write!(f, "string index {index} out of range (table has {table_len})")
            }
            TraceDecodeError::BadStackId { id, table_len } => {
                write!(f, "stack id {id} out of range (trace has {table_len} stacks)")
            }
            TraceDecodeError::RepeatedStack { id } => {
                write!(f, "stack {id} repeats an earlier stack-table node")
            }
            TraceDecodeError::IdOutOfRange { id, max } => {
                write!(f, "goroutine or object id {id} out of range (largest admitted is {max})")
            }
            TraceDecodeError::ValueOutOfRange { what, value } => {
                write!(f, "{what} {value} does not fit in 32 bits")
            }
            TraceDecodeError::BadEventTag(tag) => write!(f, "unknown event tag {tag}"),
            TraceDecodeError::BadEnumTag { what, tag } => {
                write!(f, "unknown {what} tag {tag}")
            }
        }
    }
}

impl std::error::Error for TraceDecodeError {}

#[derive(Default)]
struct StringTable {
    entries: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u64>,
}

impl StringTable {
    fn intern(&mut self, s: &str) -> u64 {
        if let Some(&i) = self.index.get(s) {
            return i;
        }
        let arc: Arc<str> = Arc::from(s);
        let i = self.entries.len() as u64;
        self.entries.push(arc.clone());
        self.index.insert(arc, i);
        i
    }
}

/// A bounds-checked cursor over encoded bytes — the one byte reader of
/// every varint-framed format in the workspace (`.grtrace`, `GRSNAPS`).
/// Every read past the end is [`TraceDecodeError::Truncated`]; nothing
/// indexes or adds unchecked.
#[derive(Debug)]
pub struct Reader<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes consumed so far.
    #[must_use]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`TraceDecodeError::Truncated`] when fewer than `n` remain — for any
    /// `n`, including lengths decoded from hostile input.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], TraceDecodeError> {
        let end = self.pos.checked_add(n).ok_or(TraceDecodeError::Truncated)?;
        if end > self.bytes.len() {
            return Err(TraceDecodeError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// The next byte.
    ///
    /// # Errors
    ///
    /// [`TraceDecodeError::Truncated`] at end of input.
    #[inline]
    pub fn byte(&mut self) -> Result<u8, TraceDecodeError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or(TraceDecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// A count prefix: the next LEB128 `u64`, announcing that many
    /// entries of at least `min_entry_bytes` encoded bytes each.
    /// Every decoder that sizes a `Vec` from a count off the wire reads
    /// it through here, so a hostile count reserves at most what the
    /// input's own length could hold.
    ///
    /// # Errors
    ///
    /// As [`Reader::uvarint`], plus [`TraceDecodeError::Truncated`] when
    /// the remaining input is too short for that many entries.
    #[inline]
    pub fn count(&mut self, min_entry_bytes: usize) -> Result<usize, TraceDecodeError> {
        let n = self.uvarint()?;
        let room = (self.bytes.len() - self.pos) / min_entry_bytes.max(1);
        if n > room as u64 {
            return Err(TraceDecodeError::Truncated);
        }
        Ok(n as usize)
    }

    /// The next LEB128 `u64`.
    ///
    /// # Errors
    ///
    /// [`TraceDecodeError::Truncated`] when input ends mid-varint;
    /// [`TraceDecodeError::MalformedVarint`] when a tenth byte continues
    /// or carries bits past the 64th.
    #[inline]
    pub fn uvarint(&mut self) -> Result<u64, TraceDecodeError> {
        // Most varints of a trace — ids, step deltas, string indices — are
        // one byte; only longer ones pay for the loop's call.
        if let Some(&b) = self.bytes.get(self.pos) {
            if b & 0x80 == 0 {
                self.pos += 1;
                return Ok(u64::from(b));
            }
        }
        self.uvarint_multibyte()
    }

    /// [`Reader::uvarint`] past its one-byte case.
    #[inline(never)]
    fn uvarint_multibyte(&mut self) -> Result<u64, TraceDecodeError> {
        let mut value = 0u64;
        for shift in (0..63).step_by(7) {
            let b = self.byte()?;
            value |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(value);
            }
        }
        // Nine bytes carried 63 bits; the tenth may add only the top one.
        match self.byte()? {
            b @ 0..=1 => Ok(value | u64::from(b) << 63),
            _ => Err(TraceDecodeError::MalformedVarint),
        }
    }

    /// The next LEB128 varint as the 32-bit field `what`.
    ///
    /// # Errors
    ///
    /// As [`Reader::uvarint`], plus [`TraceDecodeError::ValueOutOfRange`]
    /// when the value does not fit in a `u32`.
    #[inline]
    pub fn u32(&mut self, what: &'static str) -> Result<u32, TraceDecodeError> {
        let value = self.uvarint()?;
        u32::try_from(value).map_err(|_| TraceDecodeError::ValueOutOfRange { what, value })
    }
}

/// Appends `v` as an LEB128 varint (1–10 bytes).
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn lock_mode_tag(mode: LockMode) -> u8 {
    match mode {
        LockMode::Write => 0,
        LockMode::Read => 1,
    }
}

#[inline]
pub(crate) fn lock_mode(tag: u8) -> Result<LockMode, TraceDecodeError> {
    match tag {
        0 => Ok(LockMode::Write),
        1 => Ok(LockMode::Read),
        tag => Err(TraceDecodeError::BadEnumTag {
            what: "lock mode",
            tag,
        }),
    }
}

/// A [`Monitor`] that records the run into a [`Trace`].
///
/// The recorder is schedule-transparent: it only *observes* the event
/// stream, and the scheduler never consults the monitor, so the recorded
/// stream is exactly what any detector would have seen live.
#[derive(Debug)]
pub struct TraceRecorder {
    program: String,
    seed: u64,
    strategy: Strategy,
    depot: Option<StackDepot>,
    events: Vec<Event>,
}

impl TraceRecorder {
    /// A recorder for one run of `program` under `config`.
    #[must_use]
    pub fn new(program: &str, config: &RunConfig) -> Self {
        TraceRecorder {
            program: program.to_string(),
            seed: config.seed,
            strategy: config.strategy,
            depot: None,
            events: Vec::new(),
        }
    }

    /// Finalizes the recording into a [`Trace`], snapshotting the depot's
    /// stacks and names and taking the step/goroutine totals from the run's
    /// outcome.
    ///
    /// # Panics
    ///
    /// Panics if no run was recorded (the recorder never saw
    /// `on_run_start`).
    #[must_use]
    pub fn into_trace(self, outcome: &RunOutcome) -> Trace {
        let depot = self.depot.expect("TraceRecorder finished without a run");
        let (stacks, names) = depot.snapshot();
        Trace {
            meta: TraceMeta {
                program: self.program,
                seed: self.seed,
                strategy: self.strategy,
                steps: outcome.steps,
                goroutines_spawned: outcome.goroutines_spawned,
            },
            stacks,
            names,
            events: self.events,
        }
    }
}

impl Monitor for TraceRecorder {
    fn on_run_start(&mut self, depot: &StackDepot) {
        self.depot = Some(depot.clone());
        self.events.clear();
    }

    fn on_event(&mut self, event: &Event) {
        self.events.push(*event);
    }
}

/// Executes `program` once under a [`TraceRecorder`] with a fresh depot,
/// returning the outcome and the recorded trace.
pub fn record(program: &Program, config: &RunConfig) -> (RunOutcome, Trace) {
    record_with_depot(program, config, &StackDepot::new())
}

/// Like [`record`], but interns stacks into a caller-owned depot (reset
/// first) — the campaign engine's per-worker arenas pass theirs so its
/// allocations stay warm.
pub fn record_with_depot(
    program: &Program,
    config: &RunConfig,
    depot: &StackDepot,
) -> (RunOutcome, Trace) {
    let recorder = TraceRecorder::new(program.name(), config);
    let (outcome, recorder) =
        Runtime::new(config.clone()).run_with_depot(program, recorder, depot);
    let trace = recorder.into_trace(&outcome);
    (outcome, trace)
}

/// Everything needed to re-trigger a filed race (§3.2): the seed and
/// strategy that deterministically reproduce the interleaving live, plus —
/// when the run was recorded — the trace digest that authenticates a
/// re-execution and an optional on-disk `.grtrace` path for offline
/// replay.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct ReproArtifact {
    /// Seed that reproduces the interleaving.
    pub seed: u64,
    /// Strategy the seed must be run under.
    pub strategy: Strategy,
    /// [`Trace::digest`] of the recorded run, when one was recorded.
    pub trace_digest: Option<u64>,
    /// Path of a serialized `.grtrace` file, when one was written.
    pub trace_path: Option<String>,
}

impl ReproArtifact {
    /// The pre-trace form: a bare seed under the default [`Strategy`].
    #[must_use]
    pub fn seed_only(seed: u64) -> Self {
        ReproArtifact {
            seed,
            ..ReproArtifact::default()
        }
    }

    /// A seed + strategy artifact with no recorded trace.
    #[must_use]
    pub fn seeded(seed: u64, strategy: Strategy) -> Self {
        ReproArtifact {
            seed,
            strategy,
            ..ReproArtifact::default()
        }
    }
}

impl fmt::Display for ReproArtifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed {} under {:?}", self.seed, self.strategy)?;
        if let Some(d) = self.trace_digest {
            write!(f, ", trace {d:#018x}")?;
        }
        if let Some(p) = &self.trace_path {
            write!(f, " @ {p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::TraceHasher;

    #[test]
    fn uvarint_boundaries() {
        for v in [0, 0x7f, 0x80, (1 << 63) - 1, 1 << 63, u64::MAX] {
            let mut bytes = Vec::new();
            put_uvarint(&mut bytes, v);
            let mut r = Reader::new(&bytes);
            assert_eq!(r.uvarint(), Ok(v));
            assert_eq!(r.pos(), bytes.len());
        }
        // Ten bytes hold 70 bits: a tenth byte above 1 overflows a u64 and
        // is refused, as is an eleventh byte.
        let tenth = |b: u8| [[0xff; 9].as_slice(), &[b]].concat();
        assert_eq!(Reader::new(&tenth(0x01)).uvarint(), Ok(u64::MAX));
        assert_eq!(Reader::new(&tenth(0x02)).uvarint(), Err(TraceDecodeError::MalformedVarint));
        assert_eq!(Reader::new(&tenth(0x81)).uvarint(), Err(TraceDecodeError::MalformedVarint));
        assert_eq!(Reader::new(&[0xff; 9]).uvarint(), Err(TraceDecodeError::Truncated));
        // A length no input can satisfy is truncation, never an overflow.
        assert_eq!(Reader::new(&[0; 4]).take(usize::MAX), Err(TraceDecodeError::Truncated));
    }

    fn listing1() -> Program {
        Program::new("loop_capture", |ctx| {
            let job = ctx.cell("job", 0i64);
            for i in 0..3 {
                ctx.write(&job, i);
                let job = job.clone();
                ctx.go("worker", move |ctx| {
                    let _ = ctx.read(&job);
                });
            }
        })
    }

    #[test]
    fn digest_matches_live_trace_hasher() {
        let p = listing1();
        let cfg = RunConfig::with_seed(11);
        let (_, trace) = record(&p, &cfg);
        let (_, hasher) = Runtime::new(cfg).run(&p, TraceHasher::new());
        assert_eq!(trace.digest(), hasher.digest());
    }

    #[test]
    fn encode_decode_round_trips() {
        let p = listing1();
        let (_, trace) = record(&p, &RunConfig::with_seed(3).strategy(Strategy::Pct { depth: 3 }));
        let bytes = trace.encode();
        let back = Trace::decode(&bytes).expect("decode");
        assert_eq!(back, trace);
        assert_eq!(back.digest(), trace.digest());
    }

    #[test]
    fn rebuild_depot_reproduces_ids() {
        let p = listing1();
        let (_, trace) = record(&p, &RunConfig::with_seed(5));
        let depot = StackDepot::new();
        trace.rebuild_depot_into(&depot);
        assert_eq!(depot.len(), trace.stacks.len());
        for (i, node) in trace.stacks.iter().enumerate() {
            let id = StackId(i as u32 + 1);
            assert_eq!(depot.parent(id), node.parent);
        }
        assert_eq!(depot.snapshot(), (trace.stacks, trace.names));
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn repro_artifact_display() {
        let r = ReproArtifact {
            seed: 9,
            strategy: Strategy::Random,
            trace_digest: Some(0xabcd),
            trace_path: Some("x.grtrace".into()),
        };
        let s = r.to_string();
        assert!(s.contains("seed 9"));
        assert!(s.contains("0x000000000000abcd"));
        assert!(s.contains("x.grtrace"));
        assert_eq!(ReproArtifact::seed_only(4).to_string(), "seed 4 under Random");
    }
}
