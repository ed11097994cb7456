//! The seeded random differential: generated programs over every primitive
//! the runtime models, each trace through the happens-before reference and
//! all four detectors.
//!
//! It replaces four properties this file checked over four fixed program
//! shapes — no report on synchronized shapes, some report on unsynchronized
//! ones, epoch and pure-VC verdicts equal, Eraser silent on locked shapes —
//! each a consequence of what is asserted here per trace: the happens-before
//! detectors report exactly what the reference leaves unordered, and Eraser
//! never reports a lock-disciplined address. Programs come from a fixed-seed
//! `StdRng`, so the case index reproduces a failure.

use std::collections::HashSet;
use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use grs_detector::{reference, DetectorArena, DetectorChoice, MAX_REPORTS};
use grs_runtime::{record, Ctx, Program, RunConfig, Strategy};

const CELLS: usize = 2;
const CHANS: usize = 2;

/// One statement of a generated goroutine. Lock-taking statements release
/// before the next statement, so no goroutine blocks while holding a lock.
#[derive(Debug, Clone, Copy)]
enum Op {
    Read(usize),
    Write(usize),
    /// A read and a write of the cell from one source line: repeated, a
    /// site repeats within an epoch, where the same-epoch exits fire.
    Update(usize),
    MutexWrite(usize),
    RLockRead(usize),
    /// The Listing 11 bug: a write under the read lock.
    RLockWrite(usize),
    WLockWrite(usize),
    AtomicLoad,
    AtomicStore,
    /// A plain write of the atomic's address (mixed-mode access). A plain
    /// *read* of it is left out: a later atomic load replaces it in
    /// FastTrack's read history — the disagreement this differential found,
    /// pinned by `atomic_read_masks_plain_read` in `reference.rs`.
    PlainStore,
    Send(usize),
    Recv(usize),
    TrySend(usize),
    TryRecv(usize),
    Close(usize),
    OnceWrite(usize),
    WgDone,
    WgWait,
}

#[derive(Debug, Clone)]
struct Shape {
    caps: [usize; CHANS],
    /// `goroutines[0]` is main: it runs its first `spawn_at` statements,
    /// spawns the others, then runs the rest.
    goroutines: Vec<Vec<Op>>,
    spawn_at: usize,
}

fn gen_local_op(rng: &mut StdRng) -> Op {
    let cell = rng.gen_range(0..CELLS);
    let chan = rng.gen_range(0..CHANS);
    match rng.gen_range(0..24u32) {
        0..=1 => Op::Read(cell),
        2..=3 => Op::Write(cell),
        4..=7 => Op::MutexWrite(cell),
        8 => Op::RLockRead(cell),
        9 => Op::RLockWrite(cell),
        10 => Op::WLockWrite(cell),
        11 => Op::AtomicLoad,
        12..=13 => Op::AtomicStore,
        14..=15 => Op::PlainStore,
        16..=17 => Op::TrySend(chan),
        18..=19 => Op::TryRecv(chan),
        20 => Op::Close(chan),
        21 => Op::OnceWrite(cell),
        _ => Op::Update(cell),
    }
}

/// Statements are appended round by round. A blocking send and its receive
/// are appended together, to two different goroutines, so each blocking
/// operation has a partner that is not behind it; a `close`, or a receiver
/// taking another sender's value, can still strand one, and the runtime
/// then ends the run as a deadlock or a leak — traces worth checking too.
fn gen_shape(rng: &mut StdRng) -> Shape {
    let n = rng.gen_range(2..5usize);
    let mut goroutines = vec![Vec::new(); n];
    for _ in 0..rng.gen_range(2..5usize) {
        for ops in &mut goroutines {
            ops.extend((0..rng.gen_range(1..3u32)).map(|_| gen_local_op(rng)));
        }
        if rng.gen_bool(0.7) {
            let (chan, from) = (rng.gen_range(0..CHANS), rng.gen_range(0..n));
            goroutines[from].push(Op::Send(chan));
            goroutines[(from + rng.gen_range(1..n)) % n].push(Op::Recv(chan));
        }
    }
    // Each worker calls `Done` once, main `Wait`s once, anywhere.
    for (g, ops) in goroutines.iter_mut().enumerate() {
        let at = rng.gen_range(0..ops.len() + 1);
        ops.insert(at, if g == 0 { Op::WgWait } else { Op::WgDone });
    }
    // Main must not block before anyone exists to unblock it.
    let blocking = |op: &Op| matches!(op, Op::Send(_) | Op::Recv(_) | Op::WgWait);
    let first_blocking = goroutines[0].iter().position(blocking).expect("main waits");
    Shape {
        caps: [rng.gen_range(0..3usize), rng.gen_range(0..3usize)],
        spawn_at: rng.gen_range(0..first_blocking + 1),
        goroutines,
    }
}

fn program(name: &str, shape: Shape) -> Program {
    Program::new(name, move |ctx| {
        let cell = |i: usize| ctx.cell(&format!("c{i}"), 0i64);
        let chan = |i: usize| ctx.chan::<i64>(&format!("ch{i}"), shape.caps[i]);
        let cells: Vec<_> = (0..CELLS).map(cell).collect();
        let chans: Vec<_> = (0..CHANS).map(chan).collect();
        let (mu, rw) = (ctx.mutex("mu"), ctx.rwmutex("rw"));
        let (atomic, once, wg) = (ctx.atomic("flag", 0), ctx.once("once"), ctx.waitgroup("wg"));
        wg.add(ctx, shape.goroutines.len() as i64 - 1);
        let run = move |ctx: &Ctx, ops: &[Op]| {
            for op in ops {
                match *op {
                    Op::Read(c) => _ = ctx.read(&cells[c]),
                    Op::Write(c) => ctx.write(&cells[c], 1),
                    Op::Update(c) => ctx.update(&cells[c], |v| v + 1),
                    Op::MutexWrite(c) => mu.with(ctx, |ctx| ctx.write(&cells[c], 2)),
                    Op::RLockRead(c) => rw.with_read(ctx, |ctx| _ = ctx.read(&cells[c])),
                    Op::RLockWrite(c) => rw.with_read(ctx, |ctx| ctx.write(&cells[c], 3)),
                    Op::WLockWrite(c) => rw.with_write(ctx, |ctx| ctx.write(&cells[c], 4)),
                    Op::AtomicLoad => _ = atomic.load(ctx),
                    Op::AtomicStore => atomic.store(ctx, 1),
                    Op::PlainStore => atomic.store_plain(ctx, 2),
                    Op::Send(ch) => chans[ch].send(ctx, 1),
                    Op::Recv(ch) => _ = chans[ch].recv(ctx),
                    Op::TrySend(ch) => _ = chans[ch].try_send(ctx, 2),
                    Op::TryRecv(ch) => _ = chans[ch].try_recv(ctx),
                    Op::Close(ch) => chans[ch].close(ctx),
                    Op::OnceWrite(c) => once.do_once(ctx, |ctx| ctx.write(&cells[c], 5)),
                    Op::WgDone => wg.done(ctx),
                    Op::WgWait => wg.wait(ctx),
                }
            }
        };
        let (before_spawn, after_spawn) = shape.goroutines[0].split_at(shape.spawn_at);
        run(ctx, before_spawn);
        for ops in &shape.goroutines[1..] {
            let (run, ops) = (run.clone(), ops.clone());
            ctx.go("worker", move |ctx| run(ctx, &ops));
        }
        run(ctx, after_spawn);
    })
}

/// 320 generated programs × 4 seeds (odd seeds under PCT). A disagreement
/// is written to `target/disagreements/` as a `.grtrace` before the test
/// fails, so it can be replayed and minimised (CI uploads the directory).
#[test]
fn random_programs_agree_with_the_reference() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/disagreements");
    let mut rng = StdRng::seed_from_u64(0x16_7e5);
    let mut arena = DetectorArena::new();
    let mut disagreements = Vec::new();
    let (mut traces, mut racy, mut disciplined) = (0, 0, 0);
    let mut kinds_seen = HashSet::new();
    for case in 0..320 {
        let name = format!("random_{case:03}");
        let p = program(&name, gen_shape(&mut rng));
        for seed in 0..4u64 {
            let strategy = [Strategy::Random, Strategy::Pct { depth: 3 }][seed as usize % 2];
            let (_, trace) = record(&p, &RunConfig::with_seed(seed).strategy(strategy));
            let verdict = reference::analyze(&trace);
            traces += 1;
            racy += u32::from(!verdict.pairs.is_empty());
            disciplined += verdict.lock_disciplined.len();
            kinds_seen.extend(trace.events.iter().map(|e| std::mem::discriminant(&e.kind)));
            let mut split = Vec::new();
            for (choice, out) in arena.replay_all(&trace) {
                let complete = out.reports.len() < MAX_REPORTS;
                let held = match choice {
                    DetectorChoice::Eraser => verdict.check_lockset(&out.reports),
                    _ => verdict.check_happens_before(&trace, &out.reports, complete),
                };
                split.extend(held.err().map(|e| format!("{choice}: {e}")));
            }
            if !split.is_empty() {
                let path = dir.join(format!("{name}-{seed}.grtrace"));
                std::fs::create_dir_all(&dir).expect("create target/disagreements");
                trace.write_to(&path).expect("write disagreeing trace");
                disagreements.push(format!("{}: {}", path.display(), split.join("; ")));
            }
        }
    }
    let found = disagreements.join("\n");
    assert!(disagreements.is_empty(), "disagreements:\n{found}");
    // Both verdicts, the lockset fact and all fourteen event kinds must have
    // been exercised, or agreement was cheap.
    let ordered = traces - racy;
    println!("{racy} racy traces, {ordered} ordered, {disciplined} lock-disciplined addresses");
    assert!(racy >= 200 && ordered >= 100, "{racy} racy, {ordered} not");
    assert!(disciplined >= 100, "{disciplined} lock-disciplined");
    assert_eq!(kinds_seen.len(), 14, "event kinds reached");
}
