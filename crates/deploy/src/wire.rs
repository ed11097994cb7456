//! The intake wire protocol: length-prefixed frames over any byte stream.
//!
//! A client submits `.grtrace` recordings to the intake service as
//! *frames*: a fixed 10-byte header (magic, protocol version, frame kind,
//! little-endian payload length) followed by the payload. The server
//! answers every request frame with exactly one response frame on the same
//! connection, so a client can pipeline uploads and match responses by
//! order. Framing is deliberately dumb — no compression, no multiplexing —
//! because the payloads (traces) already carry their own versioned,
//! self-validating codec; the wire layer only has to delimit them and
//! carry the three service verdicts (accepted / busy / malformed).
//!
//! The byte format is validated as strictly as the `.grtrace` codec: wrong
//! magic, foreign protocol versions, unknown frame kinds, oversized
//! declarations, truncation, and trailing garbage all decode to a typed
//! [`WireError`] rather than a panic or a silent misparse.
//!
//! [`Transport`] abstracts where connections come from: a real
//! [`TcpTransport`] for deployment and an in-process [`InProcTransport`]
//! whose connections are condvar-backed byte pipes, so the full
//! client→frame→server→worker path runs in tests without opening sockets.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex};

/// First 4 bytes of every request frame.
pub const REQUEST_MAGIC: [u8; 4] = *b"GRIQ";

/// First 4 bytes of every response frame.
pub const RESPONSE_MAGIC: [u8; 4] = *b"GRIP";

/// Current wire protocol version. Bump on any frame-layout change;
/// decoders reject other versions with [`WireError::UnsupportedVersion`].
pub const WIRE_VERSION: u8 = 1;

/// Hard cap on a declared payload length. A header declaring more is
/// rejected before any payload is read, so a corrupt or hostile length
/// field cannot make the server allocate unboundedly.
pub const MAX_FRAME_PAYLOAD: usize = 16 << 20;

const HEADER_LEN: usize = 10;

/// One client→server frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestFrame {
    /// Upload one `.grtrace` recording for analysis and filing on `day`.
    TraceUpload {
        /// Campaign day the resulting reports are filed under.
        day: u32,
        /// The encoded trace, exactly as [`Trace::encode`](grs_runtime::Trace::encode) produced it.
        trace: Vec<u8>,
    },
    /// Liveness probe; the server answers [`ResponseFrame::Pong`].
    Ping,
}

/// One server→client frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseFrame {
    /// The upload was decoded, analyzed, and filed.
    Accepted {
        /// Tasks newly filed from this trace.
        filed: u32,
        /// Reports suppressed as duplicates of open tasks.
        duplicates: u32,
        /// Raw race reports the detectors produced for this trace.
        races: u32,
    },
    /// The intake queue is full; retry after the given backoff.
    Busy {
        /// Suggested client backoff, milliseconds.
        retry_after_ms: u32,
    },
    /// The frame or its trace payload failed validation.
    Malformed {
        /// Human-readable reason (a [`WireError`] or trace decode error).
        message: String,
    },
    /// Answer to [`RequestFrame::Ping`].
    Pong,
}

/// Why a wire frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The first 4 bytes are not the expected frame magic.
    BadMagic,
    /// The frame was written by a different protocol version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u8,
        /// The version this build speaks.
        supported: u8,
    },
    /// An unknown frame-kind byte.
    BadFrameKind(u8),
    /// The declared payload length exceeds [`MAX_FRAME_PAYLOAD`].
    Oversize {
        /// The declared length.
        len: usize,
        /// The cap.
        max: usize,
    },
    /// The stream or buffer ended mid-frame.
    Truncated,
    /// Bytes remain after the payload — corrupt or concatenated input.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A text payload is not valid UTF-8.
    BadUtf8,
    /// The underlying stream failed.
    Io(io::ErrorKind),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "not an intake frame (bad magic)"),
            WireError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported wire protocol version {found} (this build speaks {supported})"
            ),
            WireError::BadFrameKind(kind) => write!(f, "unknown frame kind {kind}"),
            WireError::Oversize { len, max } => {
                write!(f, "declared payload of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::Truncated => write!(f, "frame truncated mid-field"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the frame payload")
            }
            WireError::BadUtf8 => write!(f, "frame text payload is not valid UTF-8"),
            WireError::Io(kind) => write!(f, "stream error: {kind}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e.kind())
    }
}

fn encode_frame(magic: [u8; 4], kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&magic);
    out.push(WIRE_VERSION);
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Header fields after validation: `(kind, payload_len)`.
fn decode_header(bytes: &[u8; HEADER_LEN], magic: [u8; 4]) -> Result<(u8, usize), WireError> {
    if bytes[..4] != magic {
        return Err(WireError::BadMagic);
    }
    if bytes[4] != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion {
            found: bytes[4],
            supported: WIRE_VERSION,
        });
    }
    let len = u32::from_le_bytes(bytes[6..10].try_into().unwrap()) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(WireError::Oversize {
            len,
            max: MAX_FRAME_PAYLOAD,
        });
    }
    Ok((bytes[5], len))
}

/// Splits one whole `magic` frame into `(kind, payload)`: a short buffer
/// is [`WireError::Truncated`], bytes past the payload are
/// [`WireError::TrailingBytes`].
fn split(bytes: &[u8], magic: [u8; 4]) -> Result<(u8, &[u8]), WireError> {
    let header: &[u8; HEADER_LEN] = bytes
        .get(..HEADER_LEN)
        .and_then(|h| h.try_into().ok())
        .ok_or(WireError::Truncated)?;
    let (kind, len) = decode_header(header, magic)?;
    let payload = bytes
        .get(HEADER_LEN..HEADER_LEN + len)
        .ok_or(WireError::Truncated)?;
    if bytes.len() > HEADER_LEN + len {
        return Err(WireError::TrailingBytes {
            extra: bytes.len() - HEADER_LEN - len,
        });
    }
    Ok((kind, payload))
}

/// Reads one `magic` frame from a stream as `(kind, payload)`; `Ok(None)`
/// on clean EOF at a frame boundary.
fn read_frame(r: &mut impl Read, magic: [u8; 4]) -> Result<Option<(u8, Vec<u8>)>, WireError> {
    let Some(header) = read_header(r)? else {
        return Ok(None);
    };
    let (kind, len) = decode_header(&header, magic)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(eof_as_truncated)?;
    Ok(Some((kind, payload)))
}

impl RequestFrame {
    fn kind(&self) -> u8 {
        match self {
            RequestFrame::TraceUpload { .. } => 0,
            RequestFrame::Ping => 1,
        }
    }

    /// Serializes the frame (header + payload).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        match self {
            RequestFrame::TraceUpload { day, trace } => {
                let mut payload = Vec::with_capacity(4 + trace.len());
                payload.extend_from_slice(&day.to_le_bytes());
                payload.extend_from_slice(trace);
                encode_frame(REQUEST_MAGIC, self.kind(), &payload)
            }
            RequestFrame::Ping => encode_frame(REQUEST_MAGIC, self.kind(), &[]),
        }
    }

    /// Decodes exactly one frame from `bytes`; anything left over is a
    /// [`WireError::TrailingBytes`].
    ///
    /// # Errors
    ///
    /// A typed [`WireError`] for every malformed input.
    pub fn decode(bytes: &[u8]) -> Result<RequestFrame, WireError> {
        let (kind, payload) = split(bytes, REQUEST_MAGIC)?;
        Self::decode_payload(kind, payload)
    }

    fn decode_payload(kind: u8, payload: &[u8]) -> Result<RequestFrame, WireError> {
        match kind {
            0 => {
                let day_bytes = payload.get(..4).ok_or(WireError::Truncated)?;
                Ok(RequestFrame::TraceUpload {
                    day: u32::from_le_bytes(day_bytes.try_into().unwrap()),
                    trace: payload[4..].to_vec(),
                })
            }
            1 => {
                if !payload.is_empty() {
                    return Err(WireError::TrailingBytes {
                        extra: payload.len(),
                    });
                }
                Ok(RequestFrame::Ping)
            }
            kind => Err(WireError::BadFrameKind(kind)),
        }
    }

    /// Writes the frame to a stream.
    ///
    /// # Errors
    ///
    /// Propagates the stream error.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.encode())?;
        w.flush()
    }

    /// Reads one frame from a stream; `Ok(None)` on clean EOF at a frame
    /// boundary (the peer closed the connection).
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when the stream ends mid-frame, the typed
    /// header errors for malformed headers, [`WireError::Io`] otherwise.
    pub fn read_from(r: &mut impl Read) -> Result<Option<RequestFrame>, WireError> {
        read_frame(r, REQUEST_MAGIC)?
            .map(|(kind, payload)| Self::decode_payload(kind, &payload))
            .transpose()
    }
}

impl ResponseFrame {
    fn kind(&self) -> u8 {
        match self {
            ResponseFrame::Accepted { .. } => 0,
            ResponseFrame::Busy { .. } => 1,
            ResponseFrame::Malformed { .. } => 2,
            ResponseFrame::Pong => 3,
        }
    }

    /// Serializes the frame (header + payload).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        match self {
            ResponseFrame::Accepted {
                filed,
                duplicates,
                races,
            } => {
                let mut payload = Vec::with_capacity(12);
                payload.extend_from_slice(&filed.to_le_bytes());
                payload.extend_from_slice(&duplicates.to_le_bytes());
                payload.extend_from_slice(&races.to_le_bytes());
                encode_frame(RESPONSE_MAGIC, self.kind(), &payload)
            }
            ResponseFrame::Busy { retry_after_ms } => {
                encode_frame(RESPONSE_MAGIC, self.kind(), &retry_after_ms.to_le_bytes())
            }
            ResponseFrame::Malformed { message } => {
                encode_frame(RESPONSE_MAGIC, self.kind(), message.as_bytes())
            }
            ResponseFrame::Pong => encode_frame(RESPONSE_MAGIC, self.kind(), &[]),
        }
    }

    /// Decodes exactly one frame from `bytes` (trailing bytes rejected).
    ///
    /// # Errors
    ///
    /// A typed [`WireError`] for every malformed input.
    pub fn decode(bytes: &[u8]) -> Result<ResponseFrame, WireError> {
        let (kind, payload) = split(bytes, RESPONSE_MAGIC)?;
        Self::decode_payload(kind, payload)
    }

    fn decode_payload(kind: u8, payload: &[u8]) -> Result<ResponseFrame, WireError> {
        let u32_at = |at: usize| -> Result<u32, WireError> {
            payload
                .get(at..at + 4)
                .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
                .ok_or(WireError::Truncated)
        };
        match kind {
            0 => {
                if payload.len() != 12 {
                    return Err(WireError::Truncated);
                }
                Ok(ResponseFrame::Accepted {
                    filed: u32_at(0)?,
                    duplicates: u32_at(4)?,
                    races: u32_at(8)?,
                })
            }
            1 => {
                if payload.len() != 4 {
                    return Err(WireError::Truncated);
                }
                Ok(ResponseFrame::Busy {
                    retry_after_ms: u32_at(0)?,
                })
            }
            2 => Ok(ResponseFrame::Malformed {
                message: std::str::from_utf8(payload)
                    .map_err(|_| WireError::BadUtf8)?
                    .to_string(),
            }),
            3 => {
                if !payload.is_empty() {
                    return Err(WireError::TrailingBytes {
                        extra: payload.len(),
                    });
                }
                Ok(ResponseFrame::Pong)
            }
            kind => Err(WireError::BadFrameKind(kind)),
        }
    }

    /// Writes the frame to a stream.
    ///
    /// # Errors
    ///
    /// Propagates the stream error.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.encode())?;
        w.flush()
    }

    /// Reads one frame from a stream; `Ok(None)` on clean EOF at a frame
    /// boundary.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when the stream ends mid-frame, the typed
    /// header errors for malformed headers, [`WireError::Io`] otherwise.
    pub fn read_from(r: &mut impl Read) -> Result<Option<ResponseFrame>, WireError> {
        read_frame(r, RESPONSE_MAGIC)?
            .map(|(kind, payload)| Self::decode_payload(kind, &payload))
            .transpose()
    }
}

fn eof_as_truncated(e: io::Error) -> WireError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        WireError::Truncated
    } else {
        WireError::Io(e.kind())
    }
}

/// Reads a full header, distinguishing clean EOF (`None`) from truncation
/// mid-header.
fn read_header(r: &mut impl Read) -> Result<Option<[u8; HEADER_LEN]>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Some(header))
}

/// A bidirectional byte stream a client speaks frames over. Blanket-implemented
/// for everything `Read + Write + Send` ([`TcpStream`], [`InProcStream`]).
pub trait Conn: Read + Write + Send {}

impl<T: Read + Write + Send> Conn for T {}

/// Where the intake server's connections come from.
///
/// Implemented by [`TcpTransport`] (real sockets) and [`InProcTransport`]
/// (in-memory pipes for tests and the soak harness's default mode).
pub trait Transport: Send {
    /// Blocks until the next inbound connection; `Err` when the transport
    /// has been closed and no more connections will arrive.
    ///
    /// # Errors
    ///
    /// An [`io::Error`] when the transport is closed or the accept failed.
    fn accept(&mut self) -> io::Result<Box<dyn Conn>>;

    /// A closure that unblocks a pending [`Transport::accept`], used by the
    /// server to shut down its accept loop.
    fn waker(&self) -> Box<dyn Fn() + Send + Sync>;
}

/// [`Transport`] over a real [`TcpListener`].
#[derive(Debug)]
pub struct TcpTransport {
    listener: TcpListener,
    addr: SocketAddr,
}

impl TcpTransport {
    /// Binds a listener (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<TcpTransport> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(TcpTransport { listener, addr })
    }

    /// The bound address (for clients and the shutdown waker).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Transport for TcpTransport {
    fn accept(&mut self) -> io::Result<Box<dyn Conn>> {
        let (stream, _) = self.listener.accept()?;
        let _ = stream.set_nodelay(true);
        Ok(Box::new(stream))
    }

    fn waker(&self) -> Box<dyn Fn() + Send + Sync> {
        let addr = self.addr;
        Box::new(move || {
            // A throwaway connection unblocks the accept loop, which then
            // observes the shutdown flag and exits.
            let _ = TcpStream::connect(addr);
        })
    }
}

#[derive(Default)]
struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

/// One direction of an in-process duplex connection.
struct Pipe {
    state: Mutex<PipeState>,
    cond: Condvar,
}

impl Pipe {
    fn new() -> Arc<Pipe> {
        Arc::new(Pipe {
            state: Mutex::new(PipeState::default()),
            cond: Condvar::new(),
        })
    }

    fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .closed = true;
        self.cond.notify_all();
    }
}

/// One endpoint of an in-process duplex byte stream — the test-and-soak
/// stand-in for a [`TcpStream`]. Dropping an endpoint closes both
/// directions, so the peer observes EOF exactly like a socket close.
pub struct InProcStream {
    read: Arc<Pipe>,
    write: Arc<Pipe>,
}

impl fmt::Debug for InProcStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InProcStream").finish_non_exhaustive()
    }
}

impl InProcStream {
    /// A connected pair of endpoints (client, server).
    #[must_use]
    pub fn pair() -> (InProcStream, InProcStream) {
        let a = Pipe::new();
        let b = Pipe::new();
        (
            InProcStream {
                read: a.clone(),
                write: b.clone(),
            },
            InProcStream { read: b, write: a },
        )
    }
}

impl Read for InProcStream {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut state = self
            .read
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while state.buf.is_empty() {
            if state.closed {
                return Ok(0);
            }
            state = self
                .read
                .cond
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        let n = out.len().min(state.buf.len());
        for slot in out.iter_mut().take(n) {
            *slot = state.buf.pop_front().expect("n <= len");
        }
        Ok(n)
    }
}

impl Write for InProcStream {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let mut state = self
            .write
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if state.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"));
        }
        state.buf.extend(bytes.iter().copied());
        self.write.cond.notify_all();
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for InProcStream {
    fn drop(&mut self) {
        self.read.close();
        self.write.close();
    }
}

#[derive(Default)]
struct AcceptState {
    pending: VecDeque<InProcStream>,
    closed: bool,
}

struct AcceptQueue {
    state: Mutex<AcceptState>,
    cond: Condvar,
}

/// In-process [`Transport`]: connections made through the paired
/// [`InProcConnector`] surface in [`Transport::accept`].
pub struct InProcTransport {
    queue: Arc<AcceptQueue>,
}

impl fmt::Debug for InProcTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InProcTransport").finish_non_exhaustive()
    }
}

/// The client side of an [`InProcTransport`]; cheap to clone into every
/// load-generator thread.
#[derive(Clone)]
pub struct InProcConnector {
    queue: Arc<AcceptQueue>,
}

impl fmt::Debug for InProcConnector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InProcConnector").finish_non_exhaustive()
    }
}

impl InProcTransport {
    /// A connected transport/connector pair.
    #[must_use]
    pub fn new() -> (InProcTransport, InProcConnector) {
        let queue = Arc::new(AcceptQueue {
            state: Mutex::new(AcceptState::default()),
            cond: Condvar::new(),
        });
        (
            InProcTransport {
                queue: queue.clone(),
            },
            InProcConnector { queue },
        )
    }
}

impl InProcConnector {
    /// Opens a new in-process connection to the transport.
    ///
    /// # Errors
    ///
    /// `ConnectionRefused` when the transport has been closed.
    pub fn connect(&self) -> io::Result<InProcStream> {
        let (client, server) = InProcStream::pair();
        let mut state = self
            .queue
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if state.closed {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "intake transport closed",
            ));
        }
        state.pending.push_back(server);
        self.queue.cond.notify_all();
        Ok(client)
    }
}

impl Transport for InProcTransport {
    fn accept(&mut self) -> io::Result<Box<dyn Conn>> {
        let mut state = self
            .queue
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(conn) = state.pending.pop_front() {
                return Ok(Box::new(conn));
            }
            if state.closed {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "intake transport closed",
                ));
            }
            state = self
                .queue
                .cond
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn waker(&self) -> Box<dyn Fn() + Send + Sync> {
        let queue = self.queue.clone();
        Box::new(move || {
            queue
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .closed = true;
            queue.cond.notify_all();
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_frames_round_trip() {
        for frame in [
            RequestFrame::TraceUpload {
                day: 7,
                trace: vec![1, 2, 3, 4],
            },
            RequestFrame::Ping,
        ] {
            let bytes = frame.encode();
            assert_eq!(RequestFrame::decode(&bytes), Ok(frame.clone()));
            let mut cursor = io::Cursor::new(bytes);
            assert_eq!(RequestFrame::read_from(&mut cursor), Ok(Some(frame)));
        }
    }

    #[test]
    fn response_frames_round_trip() {
        for frame in [
            ResponseFrame::Accepted {
                filed: 1,
                duplicates: 2,
                races: 3,
            },
            ResponseFrame::Busy { retry_after_ms: 25 },
            ResponseFrame::Malformed {
                message: "bad magic".into(),
            },
            ResponseFrame::Pong,
        ] {
            let bytes = frame.encode();
            assert_eq!(ResponseFrame::decode(&bytes), Ok(frame.clone()));
            let mut cursor = io::Cursor::new(bytes);
            assert_eq!(ResponseFrame::read_from(&mut cursor), Ok(Some(frame)));
        }
    }

    #[test]
    fn rejects_bad_magic_version_kind_and_lengths() {
        let good = RequestFrame::Ping.encode();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(RequestFrame::decode(&bad), Err(WireError::BadMagic));

        let mut bad = good.clone();
        bad[4] = 99;
        assert_eq!(
            RequestFrame::decode(&bad),
            Err(WireError::UnsupportedVersion {
                found: 99,
                supported: WIRE_VERSION
            })
        );

        let mut bad = good.clone();
        bad[5] = 200;
        assert_eq!(RequestFrame::decode(&bad), Err(WireError::BadFrameKind(200)));

        let mut bad = good.clone();
        bad[6..10].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            RequestFrame::decode(&bad),
            Err(WireError::Oversize { .. })
        ));

        assert_eq!(
            RequestFrame::decode(&good[..5]),
            Err(WireError::Truncated)
        );
        let mut extended = good;
        extended.push(0);
        assert_eq!(
            RequestFrame::decode(&extended),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn stream_truncation_is_typed_not_io() {
        let bytes = RequestFrame::TraceUpload {
            day: 1,
            trace: vec![9; 32],
        }
        .encode();
        let mut cursor = io::Cursor::new(&bytes[..bytes.len() - 5]);
        assert_eq!(
            RequestFrame::read_from(&mut cursor),
            Err(WireError::Truncated)
        );
        // Clean EOF at a frame boundary is None, not an error.
        let mut empty = io::Cursor::new(Vec::<u8>::new());
        assert_eq!(RequestFrame::read_from(&mut empty), Ok(None));
    }

    #[test]
    fn inproc_pipes_carry_frames_both_ways() {
        let (mut client, mut server) = InProcStream::pair();
        let req = RequestFrame::TraceUpload {
            day: 3,
            trace: vec![5; 100],
        };
        req.write_to(&mut client).unwrap();
        let got = RequestFrame::read_from(&mut server).unwrap().unwrap();
        assert_eq!(got, req);
        let resp = ResponseFrame::Busy { retry_after_ms: 10 };
        resp.write_to(&mut server).unwrap();
        assert_eq!(
            ResponseFrame::read_from(&mut client).unwrap(),
            Some(resp)
        );
        drop(client);
        assert_eq!(RequestFrame::read_from(&mut server).unwrap(), None);
    }

    #[test]
    fn inproc_transport_accepts_and_closes() {
        let (mut transport, connector) = InProcTransport::new();
        let waker = transport.waker();
        let mut client = connector.connect().unwrap();
        let mut server_conn = transport.accept().unwrap();
        RequestFrame::Ping.write_to(&mut client).unwrap();
        assert_eq!(
            RequestFrame::read_from(&mut server_conn).unwrap(),
            Some(RequestFrame::Ping)
        );
        waker();
        assert!(transport.accept().is_err());
        assert!(connector.connect().is_err());
    }
}
