//! The `.grtrace` decoder's source-file interner is bounded.
//!
//! A decoded access's `SourceLoc::file` is a `&'static str`, so the decoder
//! keeps one leaked copy of every distinct file name it has read, for the
//! life of the process. Uploads that each name a fresh file would grow an
//! intake server without end; past `MAX_TRACE_FILES` such a trace is a typed
//! `TooManySourceFiles` error instead, and files already kept still decode.
//!
//! The interner is process-global, so this binary holds one test, and it
//! fills the interner in order: known files first, then fresh ones until
//! the bound, then the checks.

use grs::deploy::service::{IntakeError, IntakeService};
use grs::runtime::{
    record, DecodedTrace, Program, RunConfig, Trace, TraceDecodeError, MAX_TRACE_FILES,
};

/// Two goroutines writing one variable: every schedule races, and both
/// accesses are reported at this file's lines.
fn racy(name: &'static str) -> Program {
    Program::new(name, |ctx| {
        let x = ctx.cell("x", 0i64);
        let x2 = x.clone();
        ctx.go("writer", move |ctx| ctx.write(&x2, 1));
        ctx.write(&x, 2);
    })
}

/// Another race, reported at other lines of this file.
fn other_racy(name: &'static str) -> Program {
    Program::new(name, |ctx| {
        let y = ctx.cell("y", 0i64);
        let y2 = y.clone();
        ctx.go("updater", move |ctx| ctx.update(&y2, |v| v + 1));
        ctx.update(&y, |v| v + 2);
    })
}

fn encoded(program: &Program) -> Vec<u8> {
    record(program, &RunConfig::with_seed(1)).1.encode()
}

/// `trace` with this file's name, its one string-table entry naming a
/// file, replaced by a fresh name of the same length (so no length prefix
/// moves): the `i`th file no decoder has seen.
fn with_fresh_file(trace: &[u8], i: usize) -> Vec<u8> {
    let file = file!().as_bytes();
    let at: Vec<usize> = (0..=trace.len() - file.len())
        .filter(|&p| &trace[p..p + file.len()] == file)
        .collect();
    assert_eq!(at.len(), 1, "the trace names this file once");
    let fresh = format!("fresh/{i:0width$}", width = file.len() - "fresh/".len());
    let mut out = trace.to_vec();
    out[at[0]..at[0] + file.len()].copy_from_slice(fresh.as_bytes());
    out
}

#[test]
fn past_the_bound_new_files_are_refused_and_known_ones_still_decode() {
    let service = IntakeService::builder().workers(1).start().unwrap();
    let known = encoded(&racy("known"));
    let first = service.submit_trace(known.clone(), 0).unwrap();
    assert!(!first.filed.is_empty(), "a racy trace files");

    // Fresh files decode until the interner holds `MAX_TRACE_FILES`
    // (this file and the runtime's own among them), then are refused.
    let mut fresh = 0;
    let refused = loop {
        match DecodedTrace::decode(&with_fresh_file(&known, fresh)) {
            Ok(_) => fresh += 1,
            Err(e) => break e,
        }
        assert!(fresh <= MAX_TRACE_FILES, "the interner passed its bound");
    };
    assert_eq!(
        refused,
        TraceDecodeError::TooManySourceFiles {
            max: MAX_TRACE_FILES
        }
    );
    assert!(fresh > MAX_TRACE_FILES - 16, "only {fresh} fresh files were kept");

    // Full, it stays full, and it refuses with the same typed error on
    // every decode path, without a panic.
    for i in fresh..fresh + 64 {
        let bytes = with_fresh_file(&known, i);
        assert_eq!(Trace::decode(&bytes), Err(refused.clone()));
        assert_eq!(DecodedTrace::decode(&bytes).map(|_| ()), Err(refused.clone()));
    }

    // Files it kept still decode: this file, and the fresh ones it took.
    assert!(Trace::decode(&known).is_ok());
    assert!(DecodedTrace::decode(&with_fresh_file(&known, 0)).is_ok());
    assert!(DecodedTrace::decode(&with_fresh_file(&known, fresh - 1)).is_ok());

    // The intake service answers a fresh file `Malformed` and goes on
    // filing traces of known files: a repeat is suppressed, a new race
    // is filed.
    let err = service
        .submit_trace(with_fresh_file(&known, fresh), 1)
        .unwrap_err();
    assert!(matches!(
        err,
        IntakeError::Malformed(TraceDecodeError::TooManySourceFiles { .. })
    ));
    let again = service.submit_trace(known, 1).unwrap();
    assert!(again.filed.is_empty() && again.duplicates > 0);
    let other = service
        .submit_trace(encoded(&other_racy("other")), 1)
        .unwrap();
    assert!(!other.filed.is_empty(), "a new race on a known file files");
    let stats = service.shutdown().unwrap();
    assert_eq!(stats.malformed, 1);
    assert_eq!(stats.traces, 3);
}
