//! The `.grtrace` reader: batched decoding into a struct-of-arrays event
//! buffer.
//!
//! [`BatchDecoder`] is the only code that parses the format
//! ([`Trace::encode`] is the only code that writes it). It decodes in
//! chunks straight into an [`EventBatch`]: one flat lane per field (tags,
//! gids, object ids, clock payloads), with string-table and source-file
//! references left as `u32` indices resolved once per table entry instead
//! of once per event. Detectors then drive a tight loop over plain arrays
//! (see `grs-detector`'s batch replay path) instead of walking a stream of
//! [`Event`] enums — a 48-byte tagged union whose payloads cost an `Arc`
//! clone per event. Consumers that do want events ([`Trace::decode`], the
//! scalar replay driver) materialize them from the lanes with
//! [`DecodedTrace::event`].
//!
//! Every header, table and event field is bounds- and range-checked as it
//! is read — goroutine and object ids against [`MAX_TRACE_ID`], because
//! detectors index flat tables by them — so a corrupt trace yields a typed
//! [`TraceDecodeError`] and never a panic, whatever the chunk size — pinned
//! over truncations, bit flips, trailing bytes and oversized ids by
//! `tests/batch_decode.rs`.

use std::sync::Arc;

use crate::depot::{StackDepot, StackId};
use crate::event::{AccessKind, Event, EventKind, LockMode, SourceLoc};
use crate::ids::{Addr, ChanId, Gid, LockUid, OnceId, WgId};
use crate::sched::Strategy;
use crate::trace::{
    intern_static_file, lock_mode, rebuild_depot, tag, unzigzag, Reader, StackNode, Trace,
    TraceDecodeError, TraceMeta, MAX_TRACE_ID, TRACE_FORMAT_VERSION, TRACE_MAGIC,
};

/// Fewest bytes one encoded depot entry takes (parent, function, call
/// line: three varints), for [`Reader::count`].
const STACK_MIN_BYTES: usize = 3;

/// Fewest bytes one encoded event takes (step delta, goroutine, kind
/// tag), for [`Reader::count`].
const EVENT_MIN_BYTES: usize = 3;

/// Default number of events decoded per chunk by
/// [`DecodedTrace::decode`]. Large enough that the per-chunk bookkeeping
/// vanishes, small enough that a chunk stays cache-resident while the
/// lanes fill.
pub const DEFAULT_CHUNK_EVENTS: usize = 4096;

/// A struct-of-arrays event buffer: lane `i` of every vector describes
/// event `i`. Lanes not used by an event's tag hold zero/default filler,
/// so consumers index unconditionally (branch-light inner loops).
#[derive(Debug, Default, Clone)]
pub struct EventBatch {
    /// Scheduler step of each event (delta-decoded to absolute).
    pub steps: Vec<u64>,
    /// Acting goroutine of each event.
    pub gids: Vec<u32>,
    /// The `.grtrace` event tag byte (one of the [`tag`] constants),
    /// validated during decode — consumers may treat it as exhaustive.
    pub tags: Vec<u8>,
    /// Primary object id: address, lock, channel, wait-group or once id —
    /// or the spawned child gid for Spawn events.
    pub prims: Vec<u64>,
    /// Secondary scalar: channel `seq`, or the zigzag-decoded `WgAdd`
    /// delta stored as `i64` bits.
    pub args_a: Vec<u64>,
    /// Tertiary scalar: `ChanSendComplete` capacity, or the `WgAdd`
    /// post-add counter stored as `i64` bits.
    pub args_b: Vec<u64>,
    /// Access kind lane (valid for Access events; `Read` filler elsewhere).
    pub access_kinds: Vec<AccessKind>,
    /// Lock mode lane (valid for Acquire/Release; `Write` filler elsewhere).
    pub lock_modes: Vec<LockMode>,
    /// String-table index of the Access `object` / Spawn `name`.
    pub objects: Vec<u32>,
    /// Raw depot stack id of Access events.
    pub stacks: Vec<u32>,
    /// String-table index of the Access source file.
    pub files: Vec<u32>,
    /// Source line of Access events.
    pub lines: Vec<u32>,
}

impl EventBatch {
    /// Number of events in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// True when the batch holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Clears all lanes, keeping their allocations warm for reuse.
    pub fn clear(&mut self) {
        self.steps.clear();
        self.gids.clear();
        self.tags.clear();
        self.prims.clear();
        self.args_a.clear();
        self.args_b.clear();
        self.access_kinds.clear();
        self.lock_modes.clear();
        self.objects.clear();
        self.stacks.clear();
        self.files.clear();
        self.lines.clear();
    }

    /// Reserves capacity for `n` more events in every lane.
    pub fn reserve(&mut self, n: usize) {
        self.steps.reserve(n);
        self.gids.reserve(n);
        self.tags.reserve(n);
        self.prims.reserve(n);
        self.args_a.reserve(n);
        self.args_b.reserve(n);
        self.access_kinds.reserve(n);
        self.lock_modes.reserve(n);
        self.objects.reserve(n);
        self.stacks.reserve(n);
        self.files.reserve(n);
        self.lines.reserve(n);
    }

    /// Appends one event with filler in every optional lane, returning its
    /// index for the decoder to overwrite the tag-relevant lanes.
    fn push_filler(&mut self, step: u64, gid: u32, tag: u8) -> usize {
        let i = self.tags.len();
        self.steps.push(step);
        self.gids.push(gid);
        self.tags.push(tag);
        self.prims.push(0);
        self.args_a.push(0);
        self.args_b.push(0);
        self.access_kinds.push(AccessKind::Read);
        self.lock_modes.push(LockMode::Write);
        self.objects.push(0);
        self.stacks.push(0);
        self.files.push(0);
        self.lines.push(0);
        i
    }
}

/// Streaming chunk decoder over a `.grtrace` byte stream.
///
/// [`BatchDecoder::new`] consumes and validates the header (magic,
/// version, string table, run metadata, depot snapshot); successive
/// [`BatchDecoder::next_chunk`] calls then decode up to `max` events each
/// into an [`EventBatch`]. When the final event has been decoded, bytes
/// left over are an error.
#[derive(Debug)]
pub struct BatchDecoder<'a> {
    r: Reader<'a>,
    /// Run metadata decoded from the header.
    pub meta: TraceMeta,
    /// Depot snapshot in first-intern order (entry `i` = `StackId(i+1)`).
    pub stacks: Vec<StackNode>,
    /// The decoded string table.
    pub strings: Vec<Arc<str>>,
    /// Per-string-table-entry resolved source-file name; filled on first
    /// reference by an Access event (one interner probe per table entry,
    /// not per event), `""` for entries never used as a file.
    pub files: Vec<&'static str>,
    n_stacks: u64,
    remaining: u64,
    prev_step: u64,
}

impl<'a> BatchDecoder<'a> {
    /// Parses the trace header, tables, and metadata.
    ///
    /// # Errors
    ///
    /// A typed [`TraceDecodeError`] for the first structural problem:
    /// wrong magic, unsupported version, truncation, a malformed varint or
    /// string, an out-of-range table index, or a count the input is too
    /// short to hold.
    pub fn new(bytes: &'a [u8]) -> Result<Self, TraceDecodeError> {
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
        let string_idx = |idx: u64| -> Result<u32, TraceDecodeError> {
            if (idx as usize) < strings.len() {
                Ok(idx as u32)
            } else {
                Err(TraceDecodeError::BadStringIndex {
                    index: idx,
                    table_len: strings.len(),
                })
            }
        };

        let program = strings[string_idx(r.uvarint()?)? as usize].to_string();
        let seed = u64::from_le_bytes(r.take(8)?.try_into().unwrap());
        let strategy = match r.byte()? {
            0 => Strategy::Random,
            1 => Strategy::Pct {
                depth: r.uvarint()? as u32,
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
        for i in 0..n_stacks {
            let parent = r.uvarint()?;
            if parent > i {
                return Err(TraceDecodeError::BadStackId {
                    id: parent,
                    table_len: n_stacks as usize,
                });
            }
            let func = strings[string_idx(r.uvarint()?)? as usize].clone();
            let call_line = r.uvarint()? as u32;
            stacks.push(StackNode {
                parent: StackId(parent as u32),
                func,
                call_line,
            });
        }

        let n_events = r.count(EVENT_MIN_BYTES)? as u64;
        let files = vec![""; strings.len()];
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
            strings,
            files,
            n_stacks,
            remaining: n_events,
            prev_step: 0,
        })
    }

    /// Decodes up to `max` events, appending them to `batch`. Returns the
    /// number decoded; `Ok(0)` means the stream is exhausted (and the
    /// trailing-bytes check has passed).
    ///
    /// # Errors
    ///
    /// A typed [`TraceDecodeError`]: truncation mid-event, malformed
    /// varints, out-of-range string or stack indices, ids past
    /// [`MAX_TRACE_ID`], unknown tags, and trailing bytes after the final
    /// event.
    pub fn next_chunk(
        &mut self,
        batch: &mut EventBatch,
        max: usize,
    ) -> Result<usize, TraceDecodeError> {
        let take = (self.remaining.min(max as u64)) as usize;
        batch.reserve(take);
        for _ in 0..take {
            self.decode_event(batch)?;
        }
        self.remaining -= take as u64;
        if self.remaining == 0 && self.r.pos != self.r.bytes.len() {
            return Err(TraceDecodeError::TrailingBytes {
                extra: self.r.bytes.len() - self.r.pos,
            });
        }
        Ok(take)
    }

    fn string_idx(&self, idx: u64) -> Result<u32, TraceDecodeError> {
        if (idx as usize) < self.strings.len() {
            Ok(idx as u32)
        } else {
            Err(TraceDecodeError::BadStringIndex {
                index: idx,
                table_len: self.strings.len(),
            })
        }
    }

    /// The next varint as a goroutine or object id: one of the lanes
    /// (`gids`, `prims`) a detector uses as a table index.
    fn id(&mut self) -> Result<u64, TraceDecodeError> {
        match self.r.uvarint()? {
            id if id <= MAX_TRACE_ID => Ok(id),
            id => Err(TraceDecodeError::IdOutOfRange {
                id,
                max: MAX_TRACE_ID,
            }),
        }
    }

    /// Decodes one event into the batch, fields in [`Trace::encode`]'s
    /// order.
    fn decode_event(&mut self, batch: &mut EventBatch) -> Result<(), TraceDecodeError> {
        self.prev_step = self.prev_step.wrapping_add(self.r.uvarint()?);
        let gid = self.id()? as u32;
        let tag = self.r.byte()?;
        let i = batch.push_filler(self.prev_step, gid, tag);
        match tag {
            tag::SPAWN => {
                batch.prims[i] = self.id()?;
                let name = self.r.uvarint()?;
                batch.objects[i] = self.string_idx(name)?;
            }
            tag::GOROUTINE_END => {}
            tag::ACCESS => {
                batch.prims[i] = self.id()?;
                let object = self.r.uvarint()?;
                batch.objects[i] = self.string_idx(object)?;
                batch.access_kinds[i] = match self.r.byte()? {
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
                batch.stacks[i] = stack as u32;
                let file = self.r.uvarint()?;
                let fi = self.string_idx(file)? as usize;
                // Resolve the &'static file name once per table entry, not
                // once per event: the interner is behind a global lock.
                if self.files[fi].is_empty() {
                    self.files[fi] = intern_static_file(&self.strings[fi]);
                }
                batch.files[i] = fi as u32;
                batch.lines[i] = self.r.uvarint()? as u32;
            }
            tag::ACQUIRE | tag::RELEASE => {
                batch.prims[i] = self.id()?;
                batch.lock_modes[i] = lock_mode(self.r.byte()?)?;
            }
            tag::CHAN_SEND | tag::CHAN_RECV => {
                batch.prims[i] = self.id()?;
                batch.args_a[i] = self.r.uvarint()?;
            }
            tag::CHAN_SEND_COMPLETE => {
                batch.prims[i] = self.id()?;
                batch.args_a[i] = self.r.uvarint()?;
                batch.args_b[i] = self.r.uvarint()?;
            }
            tag::CHAN_RECV_CLOSED
            | tag::CHAN_CLOSE
            | tag::WG_WAIT
            | tag::ONCE_EXECUTED
            | tag::ONCE_OBSERVED => {
                batch.prims[i] = self.id()?;
            }
            tag::WG_ADD => {
                batch.prims[i] = self.id()?;
                batch.args_a[i] = unzigzag(self.r.uvarint()?) as u64;
                batch.args_b[i] = unzigzag(self.r.uvarint()?) as u64;
            }
            tag => return Err(TraceDecodeError::BadEventTag(tag)),
        }
        Ok(())
    }
}

/// A fully decoded trace in struct-of-arrays form: what a [`Trace`] holds
/// (metadata, depot snapshot, events) with the events as [`EventBatch`]
/// lanes over the string table and the resolved per-table-entry source
/// files, plus chunk-fill statistics for the observability layer.
#[derive(Debug)]
pub struct DecodedTrace {
    /// Run metadata.
    pub meta: TraceMeta,
    /// Depot snapshot in first-intern order.
    pub stacks: Vec<StackNode>,
    /// Decoded string table; `EventBatch::objects` indexes into it.
    pub strings: Vec<Arc<str>>,
    /// Resolved source-file names per string-table entry;
    /// `EventBatch::files` indexes into it.
    pub files: Vec<&'static str>,
    /// The event lanes.
    pub batch: EventBatch,
    /// Chunks the decoder emitted.
    pub chunks: u64,
    /// Chunk capacity used (events per chunk).
    pub chunk_capacity: usize,
}

impl DecodedTrace {
    /// Decodes `bytes` with the default chunk size.
    ///
    /// # Errors
    ///
    /// As [`BatchDecoder::new`] and [`BatchDecoder::next_chunk`].
    pub fn decode(bytes: &[u8]) -> Result<DecodedTrace, TraceDecodeError> {
        Self::decode_with_chunk(bytes, DEFAULT_CHUNK_EVENTS)
    }

    /// Decodes `bytes` in chunks of `chunk` events (min 1).
    ///
    /// # Errors
    ///
    /// As [`DecodedTrace::decode`]; the verdict does not depend on `chunk`.
    pub fn decode_with_chunk(bytes: &[u8], chunk: usize) -> Result<DecodedTrace, TraceDecodeError> {
        let chunk = chunk.max(1);
        let mut d = BatchDecoder::new(bytes)?;
        let mut batch = EventBatch::default();
        let mut chunks = 0u64;
        loop {
            let n = d.next_chunk(&mut batch, chunk)?;
            if n == 0 {
                break;
            }
            chunks += 1;
        }
        Ok(DecodedTrace {
            meta: d.meta,
            stacks: d.stacks,
            strings: d.strings,
            files: d.files,
            batch,
            chunks,
            chunk_capacity: chunk,
        })
    }

    /// Number of decoded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// True when the trace recorded no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// Mean chunk fill rate: decoded events over offered chunk capacity.
    /// 1.0 means every chunk came back full (the last chunk of a trace is
    /// usually partial).
    #[must_use]
    pub fn fill_rate(&self) -> f64 {
        if self.chunks == 0 {
            return 1.0;
        }
        self.len() as f64 / (self.chunks as f64 * self.chunk_capacity as f64)
    }

    /// Rebuilds the recorded depot snapshot into `depot` (reset first), so
    /// every re-interned node gets the [`StackId`] the events refer to.
    pub fn rebuild_depot_into(&self, depot: &StackDepot) {
        rebuild_depot(&self.stacks, depot);
    }

    /// Materializes event `i` as an [`Event`] — the bridge for consumers
    /// without a lane-aware fast path.
    #[must_use]
    pub fn event(&self, i: usize) -> Event {
        let b = &self.batch;
        let kind = match b.tags[i] {
            tag::SPAWN => EventKind::Spawn {
                child: Gid(b.prims[i] as u32),
                name: self.strings[b.objects[i] as usize].clone(),
            },
            tag::GOROUTINE_END => EventKind::GoroutineEnd,
            tag::ACCESS => EventKind::Access {
                addr: Addr(b.prims[i]),
                object: self.strings[b.objects[i] as usize].clone(),
                kind: b.access_kinds[i],
                stack: StackId(b.stacks[i]),
                loc: SourceLoc {
                    file: self.files[b.files[i] as usize],
                    line: b.lines[i],
                },
            },
            tag::ACQUIRE => EventKind::Acquire {
                lock: LockUid(b.prims[i]),
                mode: b.lock_modes[i],
            },
            tag::RELEASE => EventKind::Release {
                lock: LockUid(b.prims[i]),
                mode: b.lock_modes[i],
            },
            tag::CHAN_SEND => EventKind::ChanSend {
                chan: ChanId(b.prims[i]),
                seq: b.args_a[i],
            },
            tag::CHAN_SEND_COMPLETE => EventKind::ChanSendComplete {
                chan: ChanId(b.prims[i]),
                seq: b.args_a[i],
                cap: b.args_b[i] as usize,
            },
            tag::CHAN_RECV => EventKind::ChanRecv {
                chan: ChanId(b.prims[i]),
                seq: b.args_a[i],
            },
            tag::CHAN_RECV_CLOSED => EventKind::ChanRecvClosed {
                chan: ChanId(b.prims[i]),
            },
            tag::CHAN_CLOSE => EventKind::ChanClose {
                chan: ChanId(b.prims[i]),
            },
            tag::WG_ADD => EventKind::WgAdd {
                wg: WgId(b.prims[i]),
                delta: b.args_a[i] as i64,
                counter: b.args_b[i] as i64,
            },
            tag::WG_WAIT => EventKind::WgWait {
                wg: WgId(b.prims[i]),
            },
            tag::ONCE_EXECUTED => EventKind::OnceExecuted {
                once: OnceId(b.prims[i]),
            },
            tag::ONCE_OBSERVED => EventKind::OnceObserved {
                once: OnceId(b.prims[i]),
            },
            tag => unreachable!("tag {tag} was validated during decode"),
        };
        Event {
            step: b.steps[i],
            gid: Gid(b.gids[i]),
            kind,
        }
    }

    /// Converts into a [`Trace`] by materializing every event.
    #[must_use]
    pub fn into_trace(self) -> Trace {
        let events = (0..self.len()).map(|i| self.event(i)).collect();
        Trace {
            meta: self.meta,
            stacks: self.stacks,
            events,
        }
    }
}
