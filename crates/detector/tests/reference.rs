//! The happens-before reference against the detectors on traces no program
//! hands over on demand: hand-built ones for the channel-capacity rule, and
//! the committed trace of the one disagreement the random differential
//! (`props.rs`) has found.

use std::collections::BTreeSet;
use std::sync::Arc;

use grs_detector::{reference, DetectorArena, DetectorChoice, RaceReport};
use grs_runtime::event::{Event, EventKind};
use grs_runtime::{
    AccessKind, Addr, ChanId, Gid, NameId, SourceLoc, StackId, Strategy, Trace, TraceMeta,
};

/// Every happens-before detector's reports on `trace`.
fn hb_reports(trace: &Trace) -> Vec<(DetectorChoice, Vec<RaceReport>)> {
    let all = DetectorArena::new().replay_all(trace).into_iter();
    let hb = all.filter(|(choice, _)| *choice != DetectorChoice::Eraser);
    hb.map(|(choice, out)| (choice, out.reports)).collect()
}

/// The hand-built traces' objects and their one source file: entry `i` of
/// their name table.
const X: NameId = NameId(0);
const Y: NameId = NameId(1);
const FILE: NameId = NameId(2);

/// A trace from `(goroutine, event)` pairs in schedule order, over the
/// objects `x` ([`X`]) and `y` ([`Y`]), accessed in one file ([`FILE`]).
fn trace_of(program: &str, events: Vec<(u32, EventKind)>) -> Trace {
    let gids = events.iter().map(|(g, _)| *g as usize + 1);
    let meta = TraceMeta {
        program: program.to_string(),
        seed: 0,
        strategy: Strategy::Random,
        steps: events.len() as u64,
        goroutines_spawned: gids.max().unwrap_or(0),
    };
    let numbered = events.into_iter().enumerate();
    let events = numbered.map(|(i, (g, kind))| Event {
        step: i as u64,
        gid: Gid(g),
        kind,
    });
    Trace {
        meta,
        stacks: Vec::new(),
        names: ["x", "y", "handbuilt.go"].map(Arc::from).to_vec(),
        events: events.collect(),
    }
}

fn write(addr: Addr, object: NameId, line: u32) -> EventKind {
    let file = FILE;
    let (kind, stack, loc) = (AccessKind::Write, StackId::EMPTY, SourceLoc { file, line });
    EventKind::Access {
        addr,
        object,
        kind,
        stack,
        loc,
    }
}

/// One receiver, one goroutine per send (their spawns left out: they order
/// nothing here), a channel of capacity `cap`, and `k = 1`. The receiver
/// writes `x` and `y` just before receive `k`; the sender of send `k+C−1`
/// writes `y` once that send completes — which the trace places *after*
/// receive `k`, the sender having been descheduled between enqueueing and
/// returning; the sender of send `k+C` writes `x` once its send completes.
///
/// The rule orders the writes of `x` (receive `k` → completion `k+C`) and
/// not the writes of `y`: completion `k+C−1` follows receive `k−1` only,
/// which precedes the receiver's writes.
fn capacity_rule_trace(cap: usize) -> Trace {
    const RECEIVER: u32 = 1;
    let (x, y, chan) = (Addr(1), Addr(2), ChanId(3));
    let (k, late, last) = (1u64, cap as u64, 1 + cap as u64);
    let sender = |seq: u64| 2 + seq as u32;
    let send = |seq| (sender(seq), EventKind::ChanSend { chan, seq });
    let complete = |seq| (sender(seq), EventKind::ChanSendComplete { chan, seq, cap });
    let recv = |seq| (RECEIVER, EventKind::ChanRecv { chan, seq });

    // Fill the buffer; these sends wait for nobody.
    let mut t: Vec<_> = (0..late)
        .flat_map(|seq| [send(seq), complete(seq)])
        .collect();
    // Send `k+C−1` needs receive `k−1` to make room — or, unbuffered, *is*
    // the send receive `k−1` takes. Its completion is deferred.
    t.extend(if cap == 0 {
        [send(late), recv(k - 1)]
    } else {
        [recv(k - 1), send(late)]
    });
    t.extend([(RECEIVER, write(x, X, 10)), (RECEIVER, write(y, Y, 11))]);
    // Unbuffered, send `k+C` is what receive `k` takes; buffered, it waits
    // for the room receive `k` makes.
    t.extend((cap == 0).then(|| send(last)));
    t.extend([recv(k), complete(late), (sender(late), write(y, Y, 20))]);
    t.extend((cap != 0).then(|| send(last)));
    t.extend([complete(last), (sender(last), write(x, X, 21))]);
    trace_of(&format!("capacity_rule_c{cap}"), t)
}

/// `runtime/src/chan.rs`: "the `k`-th receive happens-before the `k+C`-th
/// send completes" — on the reference and on every happens-before detector.
#[test]
fn kth_receive_happens_before_k_plus_c_th_send_completes() {
    let only_y: BTreeSet<Addr> = [Addr(2)].into();
    for cap in [0usize, 1, 2] {
        let trace = capacity_rule_trace(cap);
        let verdict = reference::analyze(&trace);
        let racy: BTreeSet<Addr> = verdict.pairs.iter().map(|p| p.addr).collect();
        assert_eq!(racy, only_y, "reference, capacity {cap}");
        for (choice, reports) in hb_reports(&trace) {
            let reported: BTreeSet<Addr> = reports.iter().map(|r| r.addr).collect();
            assert_eq!(reported, only_y, "{choice}, capacity {cap}");
            let held = verdict.check_happens_before(&trace, &reports, true);
            assert_eq!(held, Ok(()), "{choice}, capacity {cap}");
        }
    }
}

const MASKED_READ: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/atomic_read_masks_plain_read.grtrace"
);

/// **A known false negative of the happens-before detectors**, found by the
/// random differential in PR 16 (which could not change detector behaviour)
/// and kept, minimised, until a PR fixes it. The fixture is seed 4 of
///
/// ```text
/// go func() { _ = flag /* plain read */; _ = atomic.Load(&flag) }()
/// atomic.Store(&flag, 1)
/// ```
///
/// where the worker runs first. The plain read and the store conflict and
/// nothing orders them — an atomic *load* releases nothing — so the
/// reference reports the pair. FastTrack's read history keeps one entry per
/// goroutine (one in all while reads are ordered); the atomic load replaces
/// the plain read in it, and the store is compared with an atomic access
/// only: atomic against atomic, suppressed.
///
/// When this fails because a detector reports the pair, the bug is fixed:
/// delete the fixture and this test, and let `props.rs` generate plain
/// reads of the atomic again.
#[test]
fn atomic_read_masks_plain_read() {
    let trace = Trace::read_from(MASKED_READ).expect("committed fixture decodes");
    let verdict = reference::analyze(&trace);
    let kind = |i: usize| trace.events[i].as_access().expect("pairs index accesses").1;
    let kinds: Vec<_> = verdict
        .pairs
        .iter()
        .map(|p| (kind(p.earlier), kind(p.later)))
        .collect();
    assert_eq!(kinds, [(AccessKind::Read, AccessKind::AtomicWrite)]);
    for (choice, reports) in hb_reports(&trace) {
        assert!(
            reports.is_empty(),
            "{choice} sees the masked read: {reports:?}"
        );
        let held = verdict.check_happens_before(&trace, &reports, true);
        assert!(held.is_err(), "{choice}");
    }
}
