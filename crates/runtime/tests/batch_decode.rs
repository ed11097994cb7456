//! The `.grtrace` reader against the recorder, and against corruption.
//!
//! [`BatchDecoder`](grs_runtime::BatchDecoder) is the only parser of the
//! format, so its ground truth is the trace the recorder built in memory:
//!
//! * **property test** (randlite-seeded): on randomly generated programs,
//!   record → encode → decode at chunk sizes 1, 2, prime strides, and the
//!   default reproduces the recorded event sequence, stack table,
//!   metadata, depot snapshot, and FNV digest, and [`Trace::decode`]
//!   returns the recorded [`Trace`];
//! * **corruption**: truncated, bit-flipped, and trailing-garbage inputs
//!   yield a typed [`TraceDecodeError`] (or, for a flip that lands on a
//!   free field, a still-valid trace), never a panic, and the same verdict
//!   at every chunk size — including truncations that land mid-chunk;
//! * **hostile sizes**: a count or an id off the wire never sizes a table
//!   beyond what the input's length, or [`MAX_TRACE_ID`], allows.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use grs_runtime::{
    put_uvarint, record, DecodedTrace, Program, RunConfig, StackDepot, StackId, Trace,
    TraceDecodeError, MAX_TRACE_ID, TRACE_FORMAT_VERSION, TRACE_MAGIC,
};

/// A random program shape exercising every event tag: goroutines, plain
/// and racy accesses, mutexes, channels (with close), WaitGroup, Once,
/// and atomics.
#[derive(Debug, Clone)]
struct Shape {
    workers: u8,
    ops: u8,
    use_mutex: bool,
    use_once: bool,
    racy: bool,
    chan_cap: usize,
}

fn gen_shape(rng: &mut StdRng) -> Shape {
    Shape {
        workers: rng.gen_range(1..4u8),
        ops: rng.gen_range(1..5u8),
        use_mutex: rng.gen_bool(0.5),
        use_once: rng.gen_bool(0.3),
        racy: rng.gen_bool(0.4),
        chan_cap: rng.gen_range(0..3usize),
    }
}

fn program(shape: &Shape) -> Program {
    let shape = shape.clone();
    Program::new("batch_prop", move |ctx| {
        let mu = ctx.mutex("mu");
        let x = ctx.cell("x", 0i64);
        let flag = ctx.atomic("flag", 0);
        let once = ctx.once("init");
        let ch = ctx.chan::<i64>("ch", shape.chan_cap);
        let wg = ctx.waitgroup("wg");
        for w in 0..shape.workers {
            wg.add(ctx, 1);
            let (mu, x, flag, once, ch, wg) = (
                mu.clone(),
                x.clone(),
                flag.clone(),
                once.clone(),
                ch.clone(),
                wg.clone(),
            );
            let shape = shape.clone();
            ctx.go("worker", move |ctx| {
                if shape.use_once {
                    let x2 = x.clone();
                    once.do_once(ctx, move |ctx| ctx.write(&x2, -1));
                }
                for i in 0..shape.ops {
                    if shape.use_mutex {
                        mu.lock(ctx);
                        ctx.update(&x, |v| v + 1);
                        mu.unlock(ctx);
                    } else if shape.racy {
                        ctx.update(&x, |v| v + 1);
                    }
                    flag.store(ctx, i64::from(i));
                    ch.send(ctx, i64::from(w));
                }
                wg.done(ctx);
            });
        }
        for _ in 0..u32::from(shape.workers) * u32::from(shape.ops) {
            let _ = ch.recv(ctx);
        }
        wg.wait(ctx);
        let _ = flag.load(ctx);
    })
}

/// Runs `body` over `cases` shape/seed pairs from a deterministic rng.
fn check(seed: u64, cases: usize, mut body: impl FnMut(usize, Shape, u64)) {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..cases {
        let shape = gen_shape(&mut rng);
        let run_seed = rng.gen_range(0..1000u64);
        body(case, shape, run_seed);
    }
}

/// Depot snapshots agree: every recorded stack id resolves to the same
/// frames through a depot rebuilt from the recorded or the decoded table.
fn assert_same_depot(label: &str, recorded: &Trace, decoded: &DecodedTrace) {
    let (a, b) = (StackDepot::new(), StackDepot::new());
    recorded.rebuild_depot_into(&a);
    decoded.rebuild_depot_into(&b);
    for i in 1..=recorded.stacks.len() as u32 {
        assert_eq!(
            a.resolve(StackId(i)),
            b.resolve(StackId(i)),
            "{label}: depot stack {i}"
        );
    }
}

/// Chunk sizes: 1, 2, prime strides, and the default.
const CHUNKS: &[usize] = &[1, 2, 7, 61, 4096];

#[test]
fn decode_reproduces_the_recorded_trace_at_every_chunk_size() {
    check(0xBA7C, 24, |case, shape, run_seed| {
        let p = program(&shape);
        let (_, trace) = record(&p, &RunConfig::with_seed(run_seed));
        let bytes = trace.encode();
        assert_eq!(
            Trace::decode(&bytes).as_ref(),
            Ok(&trace),
            "case {case} shape {shape:?}: Trace::decode"
        );
        for &chunk in CHUNKS {
            let label = format!("case {case} shape {shape:?} chunk {chunk}");
            let decoded =
                DecodedTrace::decode_with_chunk(&bytes, chunk).expect("recorded trace decodes");
            assert_eq!(decoded.len(), trace.events.len(), "{label}: event count");
            assert_eq!(decoded.meta, trace.meta, "{label}: meta");
            assert_eq!(decoded.stacks, trace.stacks, "{label}: stack table");
            if !decoded.is_empty() {
                assert_eq!(
                    decoded.chunks,
                    (decoded.len() as u64).div_ceil(chunk as u64),
                    "{label}: chunk count"
                );
                let fill = decoded.fill_rate();
                assert!(fill > 0.0 && fill <= 1.0, "{label}: fill rate {fill}");
            }
            for (i, ev) in trace.events.iter().enumerate() {
                assert_eq!(&decoded.event(i), ev, "{label}: event {i}");
            }
            assert_same_depot(&label, &trace, &decoded);
            // Same FNV digest: the decoded trace *is* the recorded trace.
            assert_eq!(
                decoded.into_trace().digest(),
                trace.digest(),
                "{label}: digest"
            );
        }
    });
}

/// Decodes the same (possibly corrupt) bytes at the default chunk size and
/// at 4, which makes corruption surface mid-chunk: the verdict — the typed
/// error, or the decoded trace — must not depend on the chunking. Returns
/// it.
fn assert_chunk_invariant(label: &str, bytes: &[u8]) -> Result<Trace, TraceDecodeError> {
    let whole = Trace::decode(bytes);
    let chunked = DecodedTrace::decode_with_chunk(bytes, 4).map(DecodedTrace::into_trace);
    assert_eq!(whole, chunked, "{label}: verdict depends on the chunk size");
    whole
}

fn small_trace_bytes() -> Vec<u8> {
    let shape = Shape {
        workers: 2,
        ops: 2,
        use_mutex: true,
        use_once: true,
        racy: true,
        chan_cap: 1,
    };
    let (_, trace) = record(&program(&shape), &RunConfig::with_seed(11));
    trace.encode()
}

#[test]
fn truncation_at_every_length_is_a_typed_error() {
    let bytes = small_trace_bytes();
    for len in 0..bytes.len() {
        // Every proper prefix must fail: the format has no trailing slack.
        let verdict = assert_chunk_invariant(&format!("truncate to {len}"), &bytes[..len]);
        assert!(
            verdict.is_err(),
            "prefix of {len} bytes decoded successfully"
        );
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut bytes = small_trace_bytes();
    for extra in [1usize, 7] {
        bytes.extend(vec![0xABu8; extra]);
        assert_eq!(
            assert_chunk_invariant(&format!("{extra} trailing bytes"), &bytes),
            Err(TraceDecodeError::TrailingBytes { extra })
        );
        bytes.truncate(bytes.len() - extra);
    }
}

/// Exhaustive single-byte corruption: flip bits at every offset. The
/// decoder makes of the damage a typed error (bad magic, bad string index,
/// bad stack id, bad event tag, malformed varint...) or an accidental
/// still-valid stream — never a panic — and a flip in the header is the
/// error that names the header field.
#[test]
fn bit_flips_at_every_offset_never_panic() {
    let bytes = small_trace_bytes();
    for i in 0..bytes.len() {
        for flip in [0x01u8, 0x80] {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= flip;
            let verdict =
                assert_chunk_invariant(&format!("flip {flip:#04x} at byte {i}"), &corrupt);
            match i {
                0..=7 => assert_eq!(verdict, Err(TraceDecodeError::BadMagic), "byte {i}"),
                8..=11 => assert!(
                    matches!(verdict, Err(TraceDecodeError::UnsupportedVersion { .. })),
                    "byte {i}: {verdict:?}"
                ),
                _ => {}
            }
        }
    }
}

/// A count off the wire never sizes a `Vec` beyond what the input could
/// hold: a 36-byte header that claims 2^60 stacks, or 2^60 events, is
/// `Truncated`, not a `capacity overflow` panic. Nor does an id size a
/// detector's flat table beyond [`MAX_TRACE_ID`]: the two committed uploads
/// are a recorded one-write program re-encoded with its access at address
/// 2^36 (78 bytes), and with both its events on goroutine `u32::MAX - 1`
/// (81 bytes); before the bound they decoded cleanly and aborted whoever
/// replayed them.
#[test]
fn lying_counts_and_ids_are_typed_errors_not_reservations() {
    let mut header = TRACE_MAGIC.to_vec();
    header.extend_from_slice(&TRACE_FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&[1, 1, b'p', 0]); // one 1-byte string; program = string 0
    header.extend_from_slice(&1u64.to_le_bytes()); // seed
    header.extend_from_slice(&[0, 0, 0]); // Strategy::Random, 0 steps, 0 goroutines

    let mut stacks = header.clone();
    put_uvarint(&mut stacks, 1 << 60);
    assert_eq!(stacks.len(), 36);
    let mut events = header;
    events.push(0); // no stacks
    put_uvarint(&mut events, 1 << 60);
    let addr = include_bytes!("../../../tests/data/oversized_addr.grtrace").to_vec();
    let gid = include_bytes!("../../../tests/data/oversized_gid.grtrace").to_vec();
    let out_of_range = |id| TraceDecodeError::IdOutOfRange {
        id,
        max: MAX_TRACE_ID,
    };

    for (label, bytes, expected) in [
        ("stack count", stacks, TraceDecodeError::Truncated),
        ("event count", events, TraceDecodeError::Truncated),
        ("address", addr, out_of_range(1 << 36)),
        ("goroutine", gid, out_of_range(u64::from(u32::MAX - 1))),
    ] {
        assert_eq!(
            assert_chunk_invariant(label, &bytes),
            Err(expected),
            "{label}"
        );
    }
}
