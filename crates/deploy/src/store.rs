//! Versioned, crash-safe persistence for the bug database.
//!
//! A [`Snapshot`] is the tracker's full task list frozen at a point in
//! time and serialized to a single-file binary format (magic `GRSNAPS\0`,
//! explicit version, LEB128 varints — the same codec discipline as
//! `.grtrace`). The encoding is *canonical*: tasks are written in filing
//! order with no map iteration anywhere, so snapshot → restore → snapshot
//! reproduces the original bytes exactly. That byte-identity is what the
//! intake service's kill-and-restore guarantee is pinned on — a restored
//! server provably lost nothing, because its re-snapshot is `==` the file
//! it booted from.
//!
//! Saving is crash-safe in the classic write-temp-then-rename way: the
//! bytes go to `<path>.tmp`, are fsynced, and only then renamed over the
//! destination. A crash at any point leaves either the old snapshot or the
//! new one, never a torn file.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

use grs_runtime::{put_uvarint, Reader, ReproArtifact, Strategy, TraceDecodeError};

use crate::fingerprint::Fingerprint;
use crate::tracker::{BugTracker, RestoreError, Task, TaskId, TaskState};

/// First 8 bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"GRSNAPS\0";

/// Current snapshot format version. Bump on any layout change; loaders
/// reject other versions with [`SnapshotError::UnsupportedVersion`].
/// (Version 1 carried an optional schedule blob at the end of each repro
/// record.)
pub const SNAPSHOT_VERSION: u32 = 2;

/// Why snapshot bytes failed to decode or restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The snapshot was written by a different format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// The version this build reads.
        supported: u32,
    },
    /// The bytes ended mid-field.
    Truncated,
    /// Bytes remain after the last task — corrupt or concatenated input.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A varint ran past 10 bytes or past 64 bits.
    MalformedVarint,
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// An enum field holds a tag this version does not define.
    BadEnumTag {
        /// Which field.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// The decoded task list violates tracker invariants.
    Restore(RestoreError),
    /// Reading or writing the file failed.
    Io(io::ErrorKind),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build reads {supported})"
            ),
            SnapshotError::Truncated => write!(f, "snapshot truncated mid-field"),
            SnapshotError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last task")
            }
            SnapshotError::MalformedVarint => write!(f, "malformed varint"),
            SnapshotError::BadUtf8 => write!(f, "snapshot string is not valid UTF-8"),
            SnapshotError::BadEnumTag { what, tag } => {
                write!(f, "unknown {what} tag {tag}")
            }
            SnapshotError::Restore(e) => write!(f, "restored task list invalid: {e}"),
            SnapshotError::Io(kind) => write!(f, "snapshot i/o failed: {kind}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e.kind())
    }
}

/// The shared byte [`Reader`] speaks [`TraceDecodeError`] and fails in two
/// ways, both this format's too. It raises no other variant; one it grew
/// would read as truncation here, never as a panic on a decode path.
impl From<TraceDecodeError> for SnapshotError {
    fn from(e: TraceDecodeError) -> Self {
        match e {
            TraceDecodeError::MalformedVarint => SnapshotError::MalformedVarint,
            _ => SnapshotError::Truncated,
        }
    }
}

impl From<RestoreError> for SnapshotError {
    fn from(e: RestoreError) -> Self {
        SnapshotError::Restore(e)
    }
}

fn put_opt_string(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_uvarint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
    }
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

fn u64_le(r: &mut Reader<'_>) -> Result<u64, SnapshotError> {
    Ok(u64::from_le_bytes(r.take(8)?.try_into().expect("took 8 bytes")))
}

/// A length-prefixed byte run. The length comes straight from input: one
/// too large for `usize` is clamped and reads as truncation like any other
/// length the file cannot satisfy.
fn take_prefixed<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], SnapshotError> {
    let len = usize::try_from(r.uvarint()?).unwrap_or(usize::MAX);
    Ok(r.take(len)?)
}

/// A presence tag: `Ok(true)` when a value follows.
fn opt_tag(r: &mut Reader<'_>) -> Result<bool, SnapshotError> {
    match r.byte()? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(SnapshotError::BadEnumTag {
            what: "option",
            tag,
        }),
    }
}

fn opt_string(r: &mut Reader<'_>) -> Result<Option<String>, SnapshotError> {
    if !opt_tag(r)? {
        return Ok(None);
    }
    let s = std::str::from_utf8(take_prefixed(r)?).map_err(|_| SnapshotError::BadUtf8)?;
    Ok(Some(s.to_string()))
}

fn opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, SnapshotError> {
    Ok(if opt_tag(r)? { Some(u64_le(r)?) } else { None })
}

fn encode_strategy(out: &mut Vec<u8>, strategy: Strategy) {
    match strategy {
        Strategy::Random => out.push(0),
        Strategy::Pct { depth } => {
            out.push(1);
            put_uvarint(out, u64::from(depth));
        }
        Strategy::RoundRobin => out.push(2),
    }
}

fn decode_strategy(r: &mut Reader<'_>) -> Result<Strategy, SnapshotError> {
    match r.byte()? {
        0 => Ok(Strategy::Random),
        1 => Ok(Strategy::Pct {
            depth: r.uvarint()? as u32,
        }),
        2 => Ok(Strategy::RoundRobin),
        tag => Err(SnapshotError::BadEnumTag {
            what: "strategy",
            tag,
        }),
    }
}

fn encode_repro(out: &mut Vec<u8>, repro: &ReproArtifact) {
    out.extend_from_slice(&repro.seed.to_le_bytes());
    encode_strategy(out, repro.strategy);
    put_opt_u64(out, repro.trace_digest);
    put_opt_string(out, repro.trace_path.as_deref());
}

fn decode_repro(r: &mut Reader<'_>) -> Result<ReproArtifact, SnapshotError> {
    let seed = u64_le(r)?;
    let strategy = decode_strategy(r)?;
    let trace_digest = opt_u64(r)?;
    let trace_path = opt_string(r)?;
    Ok(ReproArtifact {
        seed,
        strategy,
        trace_digest,
        trace_path,
    })
}

fn encode_task(out: &mut Vec<u8>, task: &Task) {
    put_uvarint(out, task.id.0);
    out.extend_from_slice(&task.fingerprint.0.to_le_bytes());
    put_uvarint(out, u64::from(task.filed_day));
    out.push(match task.state {
        TaskState::Open => 0,
        TaskState::Fixed => 1,
    });
    match task.fixed_day {
        None => out.push(0),
        Some(day) => {
            out.push(1);
            put_uvarint(out, u64::from(day));
        }
    }
    put_opt_string(out, task.fixed_by.as_deref());
    put_opt_u64(out, task.patch);
    put_opt_string(out, task.assignee.as_deref());
    put_opt_u64(out, task.repro_seed);
    match &task.repro {
        None => out.push(0),
        Some(repro) => {
            out.push(1);
            encode_repro(out, repro);
        }
    }
}

fn decode_task(r: &mut Reader<'_>) -> Result<Task, SnapshotError> {
    let id = TaskId(r.uvarint()?);
    let fingerprint = Fingerprint(u64_le(r)?);
    let filed_day = r.uvarint()? as u32;
    let state = match r.byte()? {
        0 => TaskState::Open,
        1 => TaskState::Fixed,
        tag => {
            return Err(SnapshotError::BadEnumTag {
                what: "task state",
                tag,
            })
        }
    };
    let fixed_day = if opt_tag(r)? { Some(r.uvarint()? as u32) } else { None };
    let fixed_by = opt_string(r)?;
    let patch = opt_u64(r)?;
    let assignee = opt_string(r)?;
    let repro_seed = opt_u64(r)?;
    let repro = if opt_tag(r)? { Some(decode_repro(r)?) } else { None };
    Ok(Task {
        id,
        fingerprint,
        filed_day,
        state,
        fixed_day,
        fixed_by,
        patch,
        assignee,
        repro_seed,
        repro,
    })
}

/// The bug database frozen at a point in time.
///
/// Capture one with [`Snapshot::capture`], persist it with
/// [`Snapshot::save`], and bring a dead service back with
/// [`Snapshot::load`] + [`Snapshot::restore`]. The byte encoding is
/// canonical: see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// All tasks, in filing order.
    pub tasks: Vec<Task>,
}

impl Snapshot {
    /// Freezes the tracker's current task list.
    #[must_use]
    pub fn capture(tracker: &BugTracker) -> Snapshot {
        Snapshot {
            tasks: tracker.tasks().to_vec(),
        }
    }

    /// Rebuilds a live tracker, re-validating the filing invariants.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Restore`] when the task list is not one filing
    /// could have produced.
    pub fn restore(self) -> Result<BugTracker, SnapshotError> {
        Ok(BugTracker::from_tasks(self.tasks)?)
    }

    /// Serializes to the canonical byte format.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.tasks.len() * 32);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        put_uvarint(&mut out, self.tasks.len() as u64);
        for task in &self.tasks {
            encode_task(&mut out, task);
        }
        out
    }

    /// Decodes snapshot bytes, validating as strictly as the `.grtrace`
    /// decoder: every malformed input maps to a typed [`SnapshotError`].
    ///
    /// # Errors
    ///
    /// See [`SnapshotError`].
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let mut r = Reader::new(bytes);
        if r.take(8)? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(r.take(4)?.try_into().expect("took 4 bytes"));
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        // A task is at least its 8-byte fingerprint plus nine one-byte
        // fields (id, day, state, six option tags).
        let count = r.count(17)?;
        let mut tasks = Vec::with_capacity(count);
        for _ in 0..count {
            tasks.push(decode_task(&mut r)?);
        }
        if r.pos() != bytes.len() {
            return Err(SnapshotError::TrailingBytes {
                extra: bytes.len() - r.pos(),
            });
        }
        Ok(Snapshot { tasks })
    }

    /// Writes the snapshot to `path` crash-safely: the bytes land in
    /// `<path>.tmp`, are synced, and the temp file is renamed over the
    /// destination. A crash mid-save leaves the previous snapshot intact.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on any filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        let tmp = path.with_extension("tmp");
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&self.encode())?;
            file.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and decodes a snapshot file.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on read failure, the decode errors otherwise.
    pub fn load(path: &Path) -> Result<Snapshot, SnapshotError> {
        Snapshot::decode(&fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated_tracker() -> BugTracker {
        let mut t = BugTracker::new();
        let a = t.file(Fingerprint(0xaaaa), 1, Some("team-db".into())).unwrap();
        t.file_with_repro(
            Fingerprint(0xbbbb),
            2,
            None,
            Some(ReproArtifact {
                seed: 99,
                strategy: Strategy::Pct { depth: 3 },
                trace_digest: Some(0xfeed),
                trace_path: Some("traces/a.grtrace".into()),
            }),
        )
        .unwrap();
        t.fix(a, 5, "alice", 700);
        t.file(Fingerprint(0xaaaa), 6, None).unwrap();
        t
    }

    #[test]
    fn snapshot_restore_snapshot_is_byte_identical() {
        let tracker = populated_tracker();
        let bytes1 = Snapshot::capture(&tracker).encode();
        let restored = Snapshot::decode(&bytes1).unwrap().restore().unwrap();
        let bytes2 = Snapshot::capture(&restored).encode();
        assert_eq!(bytes1, bytes2);
        assert_eq!(restored.total_filed(), tracker.total_filed());
        assert_eq!(restored.outstanding(), tracker.outstanding());
    }

    #[test]
    fn restored_tracker_still_suppresses_and_fixes() {
        let tracker = populated_tracker();
        let mut restored = Snapshot::capture(&tracker)
            .encode()
            .pipe_decode()
            .restore()
            .unwrap();
        // The re-filed 0xaaaa and the original 0xbbbb are open.
        assert!(restored.file(Fingerprint(0xbbbb), 9, None).is_none());
        let open: Vec<_> = restored.open_tasks().collect();
        for id in open {
            let day = restored.task(id).expect("open task exists").filed_day;
            restored.fix(id, day + 10, "bob", 900);
        }
        assert_eq!(restored.outstanding(), 0);
    }

    // Small helper so the test above reads as a pipeline.
    trait PipeDecode {
        fn pipe_decode(self) -> Snapshot;
    }
    impl PipeDecode for Vec<u8> {
        fn pipe_decode(self) -> Snapshot {
            Snapshot::decode(&self).unwrap()
        }
    }

    #[test]
    fn rejects_corruption_like_the_trace_decoder() {
        let good = Snapshot::capture(&populated_tracker()).encode();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(Snapshot::decode(&bad), Err(SnapshotError::BadMagic));

        // Version 1 (a schedule blob per repro record) is as foreign as a
        // future one: refused by its header, never misread.
        for found in [1u32, 9] {
            let mut bad = good.clone();
            bad[8..12].copy_from_slice(&found.to_le_bytes());
            assert_eq!(
                Snapshot::decode(&bad),
                Err(SnapshotError::UnsupportedVersion { found, supported: 2 })
            );
        }

        for cut in [5, 13, good.len() - 1] {
            assert!(
                matches!(
                    Snapshot::decode(&good[..cut]),
                    Err(SnapshotError::Truncated | SnapshotError::MalformedVarint)
                ),
                "cut at {cut} must be typed"
            );
        }

        let mut extended = good;
        extended.push(0);
        assert_eq!(
            Snapshot::decode(&extended),
            Err(SnapshotError::TrailingBytes { extra: 1 })
        );

        // A string length of u64::MAX, so `pos + len` overflows: that is
        // truncation, not a panic (debug builds check the add).
        let mut huge = Vec::new();
        huge.extend_from_slice(&SNAPSHOT_MAGIC);
        huge.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        huge.push(1); // one task
        huge.push(0); // id 0
        huge.extend_from_slice(&[0; 8]); // fingerprint
        huge.extend_from_slice(&[0, 0, 0]); // filed day 0, open, no fixed day
        huge.push(1); // fixed_by = Some, with length…
        huge.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
        assert_eq!(Snapshot::decode(&huge), Err(SnapshotError::Truncated));

        // A tenth varint byte that carries bits past the 64th is refused,
        // not silently truncated.
        let n = huge.len();
        huge[n - 1] = 0x02;
        assert_eq!(Snapshot::decode(&huge), Err(SnapshotError::MalformedVarint));
    }

    #[test]
    fn save_is_atomic_and_loads_back() {
        let dir = std::env::temp_dir().join(format!("grs_store_test_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tracker.grsnap");
        let snap = Snapshot::capture(&populated_tracker());
        snap.save(&path).unwrap();
        assert!(!path.with_extension("tmp").exists(), "temp file renamed away");
        assert_eq!(Snapshot::load(&path).unwrap(), snap);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restore_rejects_invalid_task_lists() {
        let tracker = populated_tracker();
        let mut snap = Snapshot::capture(&tracker);
        snap.tasks[1].id = TaskId(40);
        assert!(matches!(
            snap.restore(),
            Err(SnapshotError::Restore(RestoreError::BadTaskId { .. }))
        ));
    }
}
