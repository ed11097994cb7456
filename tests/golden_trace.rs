//! Golden-trace regression: a committed `.grtrace` artifact must stay
//! decodable, byte-for-byte re-encodable, and replayable forever.
//!
//! The fixture (`tests/data/listing1_seed3.grtrace`) was produced by
//! `cargo run --example record_replay -- --seed 3 --out
//! tests/data/listing1_seed3.grtrace` — Listing 1's loop-index-capture
//! race recorded under seed 3. Because traces are a deployment artifact
//! (tasks reference `.grtrace` files as reproduction instructions), the
//! wire format is versioned and append-only: any codec change that breaks
//! this test breaks every trace a past campaign filed, and must instead
//! bump `TRACE_FORMAT_VERSION` and keep a decoder for version 1.

use grs::corpus::GoTestSpec;
use grs::detector::DetectorArena;
use grs::fleet::{pattern_suite, GoCorpusSource, UnitSource};
use grs::obs::Fnv1a;
use grs::runtime::{
    record, Program, RunConfig, Runtime, Trace, TraceDecodeError, TraceHasher,
    TRACE_FORMAT_VERSION, TRACE_MAGIC,
};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/listing1_seed3.grtrace");

/// The fixture's recorded digest — `Trace::digest()` at commit time. The
/// digest is a pure FNV-1a fold over the event stream, so this constant
/// also pins event content (not just event count) against drift.
const FIXTURE_DIGEST: u64 = 0xb781_816a_7b78_a083;

/// FNV-1a over the `encode()` bytes of every trace [`pinned_runs`] records.
const PINNED_ENCODED_BYTES: u64 = 0x863a_8fec_7a80_d0a0;

/// FNV-1a over the live [`TraceHasher`] digest of every run in
/// [`pinned_runs`].
const PINNED_LIVE_DIGESTS: u64 = 0x5ab7_543d_54f4_129d;

/// The live recorder writes the committed fixture: recording Listing 1
/// under seed 3 today yields the very bytes a past campaign filed.
#[test]
fn live_recording_reproduces_the_fixture_bytes() {
    let listing1 = grs::patterns::find("loop_index_capture")
        .expect("Listing 1 is in the pattern corpus")
        .racy_program();
    let (_, trace) = record(&listing1, &RunConfig::with_seed(3));
    let bytes = std::fs::read(FIXTURE).expect("read fixture");
    assert!(
        trace.encode() == bytes,
        "the recorder drifted from the committed artifact"
    );
}

/// Every pattern unit (racy and fixed) under seeds 0..8, and the first 64
/// generated Go tests of corpus seed 1 under run seed 1: slice and map
/// element names, goroutine names, channels, wait groups, onces and locks.
fn pinned_runs() -> Vec<(Program, RunConfig)> {
    let mut runs = Vec::new();
    for unit in pattern_suite(true) {
        for seed in 0..8 {
            runs.push((unit.program.clone(), RunConfig::with_seed(seed)));
        }
    }
    let corpus = GoCorpusSource::new(GoTestSpec::default_mix(), 1, 64);
    for i in 0..corpus.len() {
        let unit = corpus.build(i).expect("generated tests lower");
        runs.push((unit.program, RunConfig::with_seed(1)));
    }
    runs
}

/// What the recorder writes and what the live hasher folds, over many
/// programs: a name the emitter attaches to the wrong event, or interns in
/// a different order, moves one of these.
#[test]
fn recorded_bytes_and_live_digests_are_pinned() {
    let (mut bytes, mut digests) = (Fnv1a::new(), Fnv1a::new());
    for (program, cfg) in pinned_runs() {
        let (_, trace) = record(&program, &cfg);
        bytes.write(&trace.encode());
        let (_, hasher) = Runtime::new(cfg).run(&program, TraceHasher::new());
        assert_eq!(hasher.digest(), trace.digest(), "{}", program.name());
        digests.write(&hasher.digest().to_le_bytes());
    }
    assert_eq!(
        (bytes.finish(), digests.finish()),
        (PINNED_ENCODED_BYTES, PINNED_LIVE_DIGESTS),
        "{:#x} {:#x}",
        bytes.finish(),
        digests.finish()
    );
}

#[test]
fn golden_trace_decodes_with_pinned_contents() {
    let trace = Trace::read_from(FIXTURE).expect("committed fixture must decode");
    assert_eq!(trace.meta.program, "listing1_loop_index_capture");
    assert_eq!(trace.meta.seed, 3);
    assert_eq!(trace.meta.steps, 22);
    assert_eq!(trace.meta.goroutines_spawned, 4);
    assert_eq!(trace.events.len(), 13);
    assert_eq!(trace.stacks.len(), 4);
    assert_eq!(trace.digest(), FIXTURE_DIGEST);
}

#[test]
fn golden_trace_re_encodes_byte_identically() {
    // Codec stability, not just decodability: encoding the decoded trace
    // must reproduce the committed bytes exactly.
    let bytes = std::fs::read(FIXTURE).expect("read fixture");
    let trace = Trace::decode(&bytes).expect("decode fixture");
    assert_eq!(trace.encode(), bytes, "re-encoding drifted from the committed artifact");
}

#[test]
fn golden_trace_replays_to_the_recorded_race() {
    let trace = Trace::read_from(FIXTURE).expect("decode fixture");
    let mut arena = DetectorArena::new();
    for (choice, replayed) in arena.replay_all(&trace) {
        assert_eq!(replayed.events, 13, "{choice}");
        assert_eq!(
            replayed.reports.len(),
            1,
            "{choice}: the recorded interleaving exhibits exactly one race"
        );
        assert_eq!(&*replayed.reports[0].object, "job", "{choice}");
    }
}

#[test]
fn future_format_versions_are_rejected_with_a_clear_error() {
    let mut bytes = std::fs::read(FIXTURE).expect("read fixture");
    // The version field is the little-endian u32 right after the magic.
    let at = TRACE_MAGIC.len();
    bytes[at..at + 4].copy_from_slice(&99u32.to_le_bytes());
    let err = Trace::decode(&bytes).expect_err("version 99 must be rejected");
    assert_eq!(
        err,
        TraceDecodeError::UnsupportedVersion {
            found: 99,
            supported: TRACE_FORMAT_VERSION
        }
    );
    let msg = err.to_string();
    assert!(
        msg.contains("99") && msg.contains(&TRACE_FORMAT_VERSION.to_string()),
        "error must name both versions: {msg}"
    );
}

#[test]
fn corrupted_fixtures_are_rejected_not_misread() {
    let bytes = std::fs::read(FIXTURE).expect("read fixture");

    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xff;
    assert_eq!(
        Trace::decode(&bad_magic).expect_err("bad magic"),
        TraceDecodeError::BadMagic
    );

    // Every proper prefix fails loudly — no silent partial decode.
    for cut in [4, TRACE_MAGIC.len() + 2, bytes.len() / 2, bytes.len() - 1] {
        let err = Trace::decode(&bytes[..cut]).expect_err("truncation");
        assert!(
            matches!(
                err,
                TraceDecodeError::Truncated
                    | TraceDecodeError::BadMagic
                    | TraceDecodeError::MalformedVarint
            ),
            "cut at {cut}: unexpected error {err:?}"
        );
    }

    let mut trailing = bytes;
    trailing.push(0);
    assert_eq!(
        Trace::decode(&trailing).expect_err("trailing bytes"),
        TraceDecodeError::TrailingBytes { extra: 1 }
    );
}
