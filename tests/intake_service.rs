//! Integration suite for the streaming intake service (§4j): wire-level
//! corruption is rejected with typed errors through the full served
//! stack (mirroring `golden_trace.rs` for the `.grtrace` codec itself),
//! snapshots round-trip byte-identically across repeated cycles, and
//! concurrent interleaved submission is equivalent to serial submission
//! in fingerprint order.

use std::sync::Arc;

use grs::deploy::service::{IntakeServer, IntakeService};
use grs::deploy::store::Snapshot;
use grs::deploy::wire::{InProcTransport, RequestFrame, ResponseFrame, WireError, REQUEST_MAGIC};
use grs::deploy::FileOutcome;
use grs::detector::RaceReport;
use grs::fleet::{pattern_suite, Campaign, CampaignConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::io::Write as _;

/// A pool of genuine detector reports spanning many distinct races: the
/// deduplicated batch of a campaign over every racy pattern.
fn corpus_reports() -> Vec<RaceReport> {
    let config = CampaignConfig::new().seeds_per_unit(30);
    let reports = Campaign::over_units(config, pattern_suite(false)).run().batch.into_reports();
    assert!(reports.len() >= 20, "corpus produces many races");
    reports
}

// ---------------------------------------------------------------------------
// Wire corruption and truncation: typed rejection at the frame codec,
// and a Malformed response (not a crash or a hang) from a live server.
// ---------------------------------------------------------------------------

#[test]
fn frame_decode_rejects_corruption_with_typed_errors() {
    let good = RequestFrame::TraceUpload {
        day: 3,
        trace: vec![1, 2, 3, 4],
    }
    .encode();

    // Flip the magic.
    let mut bad = good.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(
        RequestFrame::decode(&bad),
        Err(WireError::BadMagic)
    ));

    // Unknown version.
    let mut bad = good.clone();
    bad[4] = 0x7E;
    assert!(matches!(
        RequestFrame::decode(&bad),
        Err(WireError::UnsupportedVersion { found: 0x7E, .. })
    ));

    // Unknown frame kind.
    let mut bad = good.clone();
    bad[5] = 0xEE;
    assert!(matches!(
        RequestFrame::decode(&bad),
        Err(WireError::BadFrameKind(0xEE))
    ));

    // Every truncation point is Truncated, never a panic or a misparse.
    for cut in 0..good.len() {
        assert!(
            matches!(RequestFrame::decode(&good[..cut]), Err(WireError::Truncated)),
            "cut at {cut} must be Truncated"
        );
    }

    // Trailing garbage is rejected, not silently ignored.
    let mut bad = good.clone();
    bad.extend_from_slice(&[0, 0]);
    assert!(matches!(
        RequestFrame::decode(&bad),
        Err(WireError::TrailingBytes { extra: 2 })
    ));
}

#[test]
fn served_stack_rejects_garbage_and_malformed_traces() {
    let service = IntakeService::builder().workers(1).start().unwrap();
    let (transport, connector) = InProcTransport::new();
    let server = IntakeServer::spawn(service.handle(), transport);

    // A syntactically valid wire frame whose payload is not a `.grtrace`,
    // or is one naming an id (address 2^36; goroutine u32::MAX - 1) that
    // would have the detector reserve memory for it until the process
    // aborts: the server answers Malformed and keeps the connection usable
    // is NOT promised (framing stays intact here, so it answers and
    // continues).
    let mut conn = connector.connect().unwrap();
    let payloads: [&[u8]; 3] = [
        b"not a trace",
        include_bytes!("data/oversized_addr.grtrace"),
        include_bytes!("data/oversized_gid.grtrace"),
    ];
    for payload in payloads {
        RequestFrame::TraceUpload {
            day: 0,
            trace: payload.to_vec(),
        }
        .write_to(&mut conn)
        .unwrap();
        match ResponseFrame::read_from(&mut conn).unwrap().unwrap() {
            ResponseFrame::Malformed { message } => {
                assert!(!message.is_empty(), "decode error is reported");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
    // Same connection still serves well-formed requests afterwards, and
    // the one worker a good upload.
    RequestFrame::Ping.write_to(&mut conn).unwrap();
    assert_eq!(
        ResponseFrame::read_from(&mut conn).unwrap().unwrap(),
        ResponseFrame::Pong
    );
    RequestFrame::TraceUpload {
        day: 0,
        trace: include_bytes!("data/listing1_seed3.grtrace").to_vec(),
    }
    .write_to(&mut conn)
    .unwrap();
    match ResponseFrame::read_from(&mut conn).unwrap().unwrap() {
        ResponseFrame::Accepted { races, .. } => assert_eq!(races, 1),
        other => panic!("expected Accepted, got {other:?}"),
    }
    drop(conn);

    // Corrupt framing (bad magic): one Malformed reply, then the server
    // hangs up — after a desync nothing later on the stream is trustable.
    let mut conn = connector.connect().unwrap();
    let mut bytes = RequestFrame::Ping.encode();
    bytes[0] ^= 0xFF;
    conn.write_all(&bytes).unwrap();
    conn.flush().unwrap();
    match ResponseFrame::read_from(&mut conn).unwrap() {
        Some(ResponseFrame::Malformed { .. }) => {}
        other => panic!("expected Malformed for bad magic, got {other:?}"),
    }
    assert!(
        ResponseFrame::read_from(&mut conn).unwrap().is_none(),
        "server closes the connection after a framing error"
    );
    drop(conn);

    // A header that promises more payload than ever arrives: the client
    // closing mid-frame must not wedge or kill the server.
    let mut conn = connector.connect().unwrap();
    let mut partial = Vec::new();
    partial.extend_from_slice(&REQUEST_MAGIC);
    partial.extend_from_slice(&[1, 0]); // version, kind = TraceUpload
    partial.extend_from_slice(&64u32.to_le_bytes()); // promise 64 bytes
    partial.extend_from_slice(&[0xAB; 10]); // ...deliver 10
    conn.write_all(&partial).unwrap();
    conn.flush().unwrap();
    drop(conn); // hang up mid-frame

    // The server is still alive and serving.
    let mut conn = connector.connect().unwrap();
    RequestFrame::Ping.write_to(&mut conn).unwrap();
    assert_eq!(
        ResponseFrame::read_from(&mut conn).unwrap().unwrap(),
        ResponseFrame::Pong
    );
    drop(conn);

    assert!(service.stats().malformed >= 3);
    server.shutdown();
    service.shutdown().unwrap();
}

// ---------------------------------------------------------------------------
// Real sockets: the same protocol served over loopback TCP.
// ---------------------------------------------------------------------------

#[test]
fn tcp_transport_serves_real_trace_uploads() {
    use grs::deploy::wire::TcpTransport;
    use grs::runtime::{record, RunConfig};

    let pattern = grs::patterns::find("missing_lock").expect("in corpus");
    let (_, trace) = record(&pattern.racy_program(), &RunConfig::with_seed(3));

    let service = IntakeService::builder().workers(1).start().unwrap();
    let transport = TcpTransport::bind("127.0.0.1:0").unwrap();
    let addr = transport.local_addr();
    let server = IntakeServer::spawn(service.handle(), transport);

    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    RequestFrame::TraceUpload {
        day: 0,
        trace: trace.encode(),
    }
    .write_to(&mut conn)
    .unwrap();
    match ResponseFrame::read_from(&mut conn).unwrap().unwrap() {
        ResponseFrame::Accepted { filed, races, .. } => {
            assert!(races >= 1, "missing_lock trace carries a race");
            assert!(filed >= 1, "first upload files a task");
        }
        other => panic!("expected Accepted over TCP, got {other:?}"),
    }
    // The same trace again: accepted, but suppressed as a duplicate.
    RequestFrame::TraceUpload {
        day: 1,
        trace: trace.encode(),
    }
    .write_to(&mut conn)
    .unwrap();
    match ResponseFrame::read_from(&mut conn).unwrap().unwrap() {
        ResponseFrame::Accepted {
            filed, duplicates, ..
        } => {
            assert_eq!(filed, 0, "open task suppresses the re-detection");
            assert!(duplicates >= 1);
        }
        other => panic!("expected Accepted over TCP, got {other:?}"),
    }
    drop(conn);

    server.shutdown();
    let stats = service.shutdown().unwrap();
    assert!(stats.total_filed >= 1);
    assert_eq!(stats.traces, 2);
}

// ---------------------------------------------------------------------------
// Snapshot stability: capture → restore → capture is byte-identical,
// and stays byte-identical across repeated cycles.
// ---------------------------------------------------------------------------

#[test]
fn snapshot_restore_snapshot_is_byte_identical_across_cycles() {
    let service = IntakeService::builder().workers(1).start().unwrap();
    let reports = corpus_reports();
    service.submit_batch(&reports, 0).unwrap();
    // Mix task states: fix a couple so the snapshot covers Fixed tasks
    // with engineer/patch/day fields, not just Open ones.
    let (first, second) = service.with_tracker(|t| (t.tasks()[0].id, t.tasks()[1].id));
    service.fix(first, 2, "alice", 41).unwrap();
    service.fix(second, 5, "bob", 42).unwrap();

    let mut snap = service.snapshot().encode();
    for cycle in 0..3 {
        let restored = Snapshot::decode(&snap)
            .unwrap_or_else(|e| panic!("cycle {cycle}: decode: {e:?}"))
            .restore()
            .unwrap_or_else(|e| panic!("cycle {cycle}: restore: {e:?}"));
        let again = Snapshot::capture(&restored).encode();
        assert_eq!(snap, again, "cycle {cycle} must be byte-identical");
        snap = again;
    }
    service.shutdown().unwrap();
}

/// Kill-and-restore through the snapshot *file*: shutdown persists the
/// tracker, a new service started on the same path comes back with every
/// filed task, and re-detections of the open races are suppressed as
/// duplicates rather than filed again.
#[test]
fn kill_and_restore_from_disk_loses_no_task_and_refiles_nothing() {
    let path = std::env::temp_dir().join(format!("grs_intake_restore_{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let start = || {
        IntakeService::builder()
            .workers(1)
            .snapshot_path(&path)
            .start()
            .unwrap()
    };
    let reports = corpus_reports();

    let service = start();
    service.submit_batch(&reports, 0).unwrap();
    let first = service.with_tracker(|t| t.tasks()[0].id);
    service.fix(first, 2, "alice", 41).unwrap();
    let before = service.snapshot().encode();
    let stats = service.shutdown().unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), before, "shutdown wrote the snapshot");

    let restored = start();
    assert_eq!(restored.snapshot().encode(), before);
    assert_eq!(restored.stats().total_filed, stats.total_filed, "no task lost");
    let fixed = restored.with_tracker(|t| t.task(first).expect("restored").fingerprint);
    for report in &reports {
        // The fixed task's race is legitimately filed afresh.
        if grs::deploy::race_fingerprint(report) != fixed {
            assert_eq!(restored.submit(report, 3).unwrap(), FileOutcome::Duplicate);
        }
    }
    restored.shutdown().unwrap();
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Concurrency property: interleaved concurrent submission from many
// threads is equivalent to submitting the same reports serially in
// fingerprint order — same open-fingerprint set, same filed count.
// ---------------------------------------------------------------------------

#[test]
fn interleaved_concurrent_submits_match_serial_fingerprint_order() {
    let reports = Arc::new(corpus_reports());

    // Serial oracle: sort by fingerprint, submit one by one.
    let serial = IntakeService::builder().workers(1).start().unwrap();
    let mut ordered: Vec<_> = reports.iter().cloned().collect();
    ordered.sort_by_key(grs::deploy::race_fingerprint);
    for r in &ordered {
        serial.submit(r, 0).unwrap();
    }
    let serial_filed = serial.with_tracker(|t| t.total_filed());
    let mut serial_fps: Vec<u64> = serial.with_tracker(|t| {
        t.open_tasks()
            .filter_map(|id| t.task(id))
            .map(|task| task.fingerprint.0)
            .collect()
    });
    serial_fps.sort_unstable();

    for trial in 0..8u64 {
        // Concurrent run: shuffle the reports (randlite), split across
        // threads, submit through cloned handles simultaneously.
        let mut shuffled: Vec<_> = reports.iter().cloned().collect();
        shuffled.shuffle(&mut StdRng::seed_from_u64(0x50AB + trial));
        let service = IntakeService::builder().workers(2).start().unwrap();
        let threads: Vec<_> = shuffled
            .chunks(shuffled.len().div_ceil(4))
            .map(|chunk| {
                let handle = service.handle();
                let chunk = chunk.to_vec();
                std::thread::spawn(move || {
                    for r in &chunk {
                        handle.submit(r, 0).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }

        assert_eq!(
            service.with_tracker(|t| t.total_filed()),
            serial_filed,
            "trial {trial}: concurrent filing count diverged"
        );
        let mut fps: Vec<u64> = service.with_tracker(|t| {
            t.open_tasks()
                .filter_map(|id| t.task(id))
                .map(|task| task.fingerprint.0)
                .collect()
        });
        fps.sort_unstable();
        assert_eq!(fps, serial_fps, "trial {trial}: open fingerprints diverged");
        service.shutdown().unwrap();
    }
    serial.shutdown().unwrap();
}

// ---------------------------------------------------------------------------
// Duplicate suppression under concurrency: the same batch submitted from
// every thread at once files each race exactly once.
// ---------------------------------------------------------------------------

#[test]
fn concurrent_duplicate_submissions_file_each_race_once() {
    let reports = Arc::new(corpus_reports());
    let service = IntakeService::builder().workers(2).start().unwrap();
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let handle = service.handle();
            let reports = Arc::clone(&reports);
            std::thread::spawn(move || {
                let mut filed = 0usize;
                for r in reports.iter() {
                    if matches!(handle.submit(r, 0).unwrap(), FileOutcome::Filed { .. }) {
                        filed += 1;
                    }
                }
                filed
            })
        })
        .collect();
    let filed: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();
    let distinct: std::collections::HashSet<u64> = reports
        .iter()
        .map(|r| grs::deploy::race_fingerprint(r).0)
        .collect();
    assert_eq!(
        filed,
        distinct.len(),
        "each distinct race files exactly once across all threads"
    );
    assert_eq!(service.with_tracker(|t| t.total_filed()), distinct.len());
    service.shutdown().unwrap();
}
