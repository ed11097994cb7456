//! The `.grtrace` reader against the recorder, and against corruption.
//!
//! [`Trace::decode_into`] is the only parser of the format, and it
//! decodes into the record the kernel emits, so its ground truth is the
//! trace the recorder built in memory:
//!
//! * **property test** (randlite-seeded): on randomly generated programs,
//!   record → encode → decode yields exactly the recorded metadata, stack
//!   table, name table and events;
//! * **corruption**: truncated, bit-flipped, and trailing-garbage inputs
//!   yield a typed [`TraceDecodeError`] (or, for a flip that lands on a
//!   free field, a still-valid trace), never a panic;
//! * **hostile sizes and tables**: a count or an id off the wire never
//!   sizes a table beyond what the input's length, or [`MAX_TRACE_ID`],
//!   allows, a line never wraps into another line, and a stack table that
//!   could not rebuild into a depot is a typed error, not a replay-time
//!   panic;
//! * **reuse**: a [`Trace`] that holds the golden trace, decoded into
//!   from every truncation and bit flip above, fails exactly as a fresh
//!   decode does and then decodes the golden trace correctly (the corpus
//!   and dense traces, and the retention bound, are
//!   `tests/trace_reuse.rs` at the workspace root).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use grs_runtime::{
    put_uvarint, record, DecodedTrace, Program, RunConfig, StackDepot, Trace, TraceDecodeError,
    MAX_TRACE_ID, TRACE_FORMAT_VERSION, TRACE_MAGIC,
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

#[test]
fn decode_yields_exactly_the_recorded_trace() {
    check(0xBA7C, 24, |case, shape, run_seed| {
        let p = program(&shape);
        let (_, trace) = record(&p, &RunConfig::with_seed(run_seed));
        let label = format!("case {case} shape {shape:?}");
        let decoded = DecodedTrace::decode(&trace.encode()).expect("recorded trace decodes");
        assert_eq!(decoded.meta, trace.meta, "{label}: meta");
        assert_eq!(decoded.stacks, trace.stacks, "{label}: stack table");
        assert_eq!(decoded.names, trace.names, "{label}: name table");
        assert_eq!(decoded.events, trace.events, "{label}: events");
        assert_eq!(
            (decoded.chunks, decoded.chunk_capacity),
            ((decoded.len() as u64).div_ceil(4096), 4096),
            "{label}: batch count"
        );
    });
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
        let verdict = Trace::decode(&bytes[..len]);
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
            Trace::decode(&bytes),
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
            let verdict = Trace::decode(&corrupt);
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
        assert_eq!(Trace::decode(&bytes), Err(expected), "{label}");
    }
}

/// The committed upload is the golden Listing-1 trace with a copy of its
/// stack node 0 appended to the table (and the count bumped): no depot
/// snapshot repeats a node, so it is malformed.
#[test]
fn a_repeated_stack_node_is_a_typed_error() {
    let bytes = include_bytes!("../../../tests/data/duplicate_stack.grtrace");
    assert_eq!(
        Trace::decode(bytes),
        Err(TraceDecodeError::RepeatedStack { id: 5 })
    );
}

/// Two string-table entries with one text (which no encoder writes) that
/// events use as names decode to two names, and the name table still
/// rebuilds into a depot: a replay looks names up by id only. A file is a
/// name too, numbered where it first appears: after the first write's
/// object.
#[test]
fn one_text_twice_in_the_string_table_still_rebuilds() {
    let mut bytes = TRACE_MAGIC.to_vec();
    bytes.extend_from_slice(&TRACE_FORMAT_VERSION.to_le_bytes());
    bytes.push(4); // strings: program, "x" twice, a file
    for s in ["p", "x", "x", "f.go"] {
        put_uvarint(&mut bytes, s.len() as u64);
        bytes.extend_from_slice(s.as_bytes());
    }
    bytes.push(0); // program = string 0
    bytes.extend_from_slice(&1u64.to_le_bytes()); // seed
    bytes.extend_from_slice(&[0, 2, 1, 0]); // Random, 2 steps, 1 goroutine, no stacks
    bytes.push(2); // two writes by goroutine 0, naming string 1 then string 2
    for (addr, object, line) in [(1, 1, 10), (2, 2, 11)] {
        bytes.extend_from_slice(&[1, 0, 2, addr, object, 1, 0, 3, line]);
    }
    let trace = Trace::decode(&bytes).expect("decodes");
    assert_eq!(
        trace.names,
        ["x", "f.go", "x"].map(std::sync::Arc::<str>::from)
    );
    let depot = StackDepot::new();
    trace.rebuild_depot_into(&depot);
    assert_eq!(depot.snapshot().1, trace.names);
}

/// A one-event PCT trace whose depth, stack node call line and access line
/// are the given varints: strings `p`, `x`, `f.go`, `main`; one stack node
/// (`main`, called at `call_line`); one write of `x` at `f.go:line`.
fn wide_fields_trace(depth: u64, call_line: u64, line: u64) -> Vec<u8> {
    let mut bytes = TRACE_MAGIC.to_vec();
    bytes.extend_from_slice(&TRACE_FORMAT_VERSION.to_le_bytes());
    bytes.push(4);
    for s in ["p", "x", "f.go", "main"] {
        put_uvarint(&mut bytes, s.len() as u64);
        bytes.extend_from_slice(s.as_bytes());
    }
    bytes.push(0); // program = string 0
    bytes.extend_from_slice(&1u64.to_le_bytes()); // seed
    bytes.push(1); // PCT, of depth…
    put_uvarint(&mut bytes, depth);
    bytes.extend_from_slice(&[1, 1, 1, 0, 3]); // 1 step, 1 goroutine, 1 stack: root, `main`…
    put_uvarint(&mut bytes, call_line);
    // One event: goroutine 0 writes address 1, `x`, at stack 1, `f.go`…
    bytes.extend_from_slice(&[1, 1, 0, 2, 1, 1, 1, 1, 2]);
    put_uvarint(&mut bytes, line);
    bytes
}

/// A line, call line or PCT depth past `u32::MAX` is refused with its
/// field named: before the check, line 2^32 + 7 decoded as line 7 — a race
/// reported at the wrong line, and a trace that re-encoded to other bytes.
#[test]
fn values_past_32_bits_are_typed_errors_not_wrapped() {
    const BIG: u64 = (1 << 32) + 7;
    let trace = Trace::decode(&wide_fields_trace(2, 5, 7)).expect("decodes");
    assert_eq!(trace.meta.strategy, grs_runtime::Strategy::Pct { depth: 2 });
    assert_eq!(trace.stacks[0].call_line, 5);
    assert!(matches!(
        trace.events[0].kind,
        grs_runtime::event::EventKind::Access { loc, .. } if loc.line == 7
    ));
    for (what, bytes) in [
        ("line", wide_fields_trace(2, 5, BIG)),
        ("call line", wide_fields_trace(2, BIG, 7)),
        ("PCT depth", wide_fields_trace(BIG, 5, 7)),
    ] {
        assert_eq!(
            Trace::decode(&bytes),
            Err(TraceDecodeError::ValueOutOfRange { what, value: BIG }),
            "{what}"
        );
    }
}

const GOLDEN: &[u8] = include_bytes!("../../../tests/data/listing1_seed3.grtrace");

/// Decodes `bytes` into `kept` and checks it against a fresh decode: the
/// same `Result`, and on success the same trace.
fn decode_into_matches_fresh(kept: &mut Trace, bytes: &[u8], label: &str) {
    let reused = kept.decode_into(bytes).map(|()| kept.clone());
    assert_eq!(reused, Trace::decode(bytes), "{label}");
}

/// Every truncation and bit flip of `truncation_at_every_length_is_a_typed_error`
/// and `bit_flips_at_every_offset_never_panic`, decoded into a `Trace` that
/// holds the golden trace, returns what a fresh decode returns; and the
/// golden trace decoded into it next is the golden trace.
#[test]
fn a_reused_trace_fails_and_recovers_like_a_fresh_one() {
    let bytes = small_trace_bytes();
    let mut cases: Vec<(String, Vec<u8>)> = (0..bytes.len())
        .map(|len| (format!("prefix of {len} bytes"), bytes[..len].to_vec()))
        .collect();
    for i in 0..bytes.len() {
        for flip in [0x01u8, 0x80] {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= flip;
            cases.push((format!("byte {i} ^ {flip:#04x}"), corrupt));
        }
    }
    let golden = Trace::decode(GOLDEN).expect("the golden trace decodes");
    let mut kept = Trace::default();
    for (label, corrupt) in &cases {
        kept.decode_into(GOLDEN).expect("the golden trace decodes");
        assert_eq!(kept, golden, "{label}: before");
        decode_into_matches_fresh(&mut kept, corrupt, label);
        kept.decode_into(GOLDEN).expect("the golden trace decodes");
        assert_eq!(kept, golden, "{label}: after");
    }
}
