//! An intake worker never runs out of source files.
//!
//! A decoded access's file is a name of the trace, like its objects and
//! goroutines: the decoder renumbers it out of the upload's string table,
//! and replay resolves it through the worker's depot, which a new trace
//! starts over. So nothing the decoder keeps outlives a trace, and a
//! long-lived server takes uploads that each name a fresh file for as long
//! as they come. Here one worker takes three times as many such uploads as
//! the 4,096 files a process-wide interner once kept before it refused
//! every new one.

use grs::deploy::service::IntakeService;
use grs::runtime::{record, Program, RunConfig};

/// The uploads a worker takes, each naming a file no earlier one named:
/// three times the 4,096 files the interner once kept.
const FRESH_FILES: usize = 3 * 4096;

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
fn fresh_files_never_stop_an_intake_worker() {
    let service = IntakeService::builder().workers(1).start().unwrap();
    let known = encoded(&racy("known"));
    let first = service.submit_trace(known.clone(), 0).unwrap();
    assert!(!first.filed.is_empty(), "a racy trace files");

    // Every upload naming a fresh file decodes and replays. Its race is
    // the known one (a fingerprint names no file), so it dedups.
    for i in 0..FRESH_FILES {
        let sub = service
            .submit_trace(with_fresh_file(&known, i), 1)
            .unwrap_or_else(|e| panic!("fresh file {i}: {e}"));
        assert!(
            !sub.filed.is_empty() || sub.duplicates > 0,
            "fresh file {i} neither filed nor deduplicated: {sub:?}"
        );
    }

    // Afterwards the worker serves as before: a repeat is suppressed, and
    // a new race on a known file files.
    let again = service.submit_trace(known, 1).unwrap();
    assert!(again.filed.is_empty() && again.duplicates > 0);
    let other = service
        .submit_trace(encoded(&other_racy("other")), 1)
        .unwrap();
    assert!(!other.filed.is_empty(), "a new race on a known file files");
    let stats = service.shutdown().unwrap();
    assert_eq!(stats.malformed, 0);
    assert_eq!(stats.traces, FRESH_FILES as u64 + 3);
}
