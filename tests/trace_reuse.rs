//! One `Trace` decoded into over and over, as an intake worker keeps it.
//!
//! `Trace::decode_into` clears and refills the caller's buffers, so what
//! it must never do is let the trace before leak through them: after each
//! decode the kept `Trace` equals a fresh `Trace::decode` of the same
//! bytes. And what it keeps between uploads is bounded: with
//! `Trace::release_excess` called after each decode, as the worker does,
//! no buffer keeps room past `TRACE_RETAINED_ENTRIES`.

use std::sync::Arc;

use grs::corpus::GoTestSpec;
use grs::fleet::{GoCorpusSource, UnitSource};
use grs::runtime::event::EventKind;
use grs::runtime::{
    record, AccessKind, Addr, Event, Gid, NameId, RunConfig, SourceLoc, StackId, StackNode, Trace,
    TRACE_RETAINED_ENTRIES,
};

const GOLDEN: &[u8] = include_bytes!("data/listing1_seed3.grtrace");

/// The dense unit recorded at `seed`: some 4,000 events.
fn dense_trace(seed: u64) -> Vec<u8> {
    record(&grs::dense_unit().program, &RunConfig::with_seed(seed))
        .1
        .encode()
}

/// Decodes `bytes` into `kept` and checks it against a fresh decode: the
/// same `Result`, and on success the same trace.
fn decode_into_matches_fresh(kept: &mut Trace, bytes: &[u8], label: &str) {
    let reused = kept.decode_into(bytes).map(|()| kept.clone());
    assert_eq!(reused, Trace::decode(bytes), "{label}");
}

/// One `Trace` decoded into in turn from the golden Listing-1 trace, the
/// first 256 generated Go tests (corpus seed 1, run seed 1) and the dense
/// unit — larger, smaller, then larger again — holds after each decode
/// exactly what a fresh decode of the same bytes yields: nothing of the
/// trace before leaks through the reused buffers.
#[test]
fn a_reused_trace_decodes_like_a_fresh_one() {
    let corpus = GoCorpusSource::new(GoTestSpec::default_mix(), 1, 256);
    let mut inputs = vec![("golden".to_string(), GOLDEN.to_vec())];
    inputs.push(("dense 0".to_string(), dense_trace(0)));
    for i in 0..corpus.len() {
        let unit = corpus.build(i).expect("generated tests lower");
        let (_, trace) = record(&unit.program, &RunConfig::with_seed(1));
        inputs.push((format!("corpus {i}"), trace.encode()));
    }
    inputs.push(("dense 1".to_string(), dense_trace(1)));
    inputs.push(("golden again".to_string(), GOLDEN.to_vec()));
    let mut kept = Trace::default();
    for (label, bytes) in &inputs {
        decode_into_matches_fresh(&mut kept, bytes, label);
    }
}

/// A trace past [`TRACE_RETAINED_ENTRIES`] in every table: that many plus
/// one stack nodes, names and events, and a program name as many bytes
/// long. Event `i` writes name `i`, so names number as they were built.
fn oversized_trace() -> Trace {
    let n = TRACE_RETAINED_ENTRIES + 1;
    let mut trace = Trace {
        stacks: (0..n)
            .map(|i| StackNode {
                parent: StackId::EMPTY,
                func: Arc::from("f"),
                call_line: i as u32,
            })
            .collect(),
        names: (0..n).map(|i| Arc::from(format!("v{i}"))).collect(),
        events: (0..n)
            .map(|i| Event {
                step: i as u64,
                gid: Gid(0),
                kind: EventKind::Access {
                    addr: Addr(1),
                    object: NameId(i as u32),
                    kind: AccessKind::Write,
                    stack: StackId(1),
                    loc: SourceLoc {
                        file: NameId(0),
                        line: 1,
                    },
                },
            })
            .collect(),
        ..Trace::default()
    };
    trace.meta.program = "p".repeat(n);
    trace
}

/// The capacity a `Trace` keeps, per buffer: events, stacks, names and the
/// program name's bytes.
fn capacities(trace: &Trace) -> [usize; 4] {
    [
        trace.events.capacity(),
        trace.stacks.capacity(),
        trace.names.capacity(),
        trace.meta.program.capacity(),
    ]
}

fn within_bound(trace: &Trace) -> bool {
    capacities(trace)
        .iter()
        .all(|&c| c <= TRACE_RETAINED_ENTRIES)
}

/// A dense trace, then one past [`TRACE_RETAINED_ENTRIES`] in every
/// table, then a short one, each decoded into one `Trace` and followed by
/// [`Trace::release_excess`] as an intake worker follows each upload:
/// every decode matches a fresh one, and after each release no buffer
/// keeps room past the bound. The release keeps a trace within the bound
/// as it is, for the next decode to reuse, and empties the oversized one.
#[test]
fn a_reused_trace_keeps_bounded_buffers_after_an_oversized_one() {
    let oversized = oversized_trace().encode();
    let mut kept = Trace::default();
    for (label, bytes) in [
        ("dense", dense_trace(0)),
        ("oversized", oversized.clone()),
        ("short", GOLDEN.to_vec()),
    ] {
        decode_into_matches_fresh(&mut kept, &bytes, label);
        let before = kept.clone();
        kept.release_excess();
        assert!(within_bound(&kept), "{label}: {:?}", capacities(&kept));
        if label == "oversized" {
            assert_eq!(kept, Trace::default(), "{label}: emptied");
        } else {
            assert_eq!(kept, before, "{label}: kept as it is");
        }
    }

    kept.decode_into(&oversized)
        .expect("the oversized trace decodes");
    assert!(
        capacities(&kept)
            .iter()
            .all(|&c| c > TRACE_RETAINED_ENTRIES),
        "{:?}",
        capacities(&kept)
    );
}
