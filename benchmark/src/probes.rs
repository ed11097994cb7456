//! Per-layer probes: small fixed workloads timed around one public call
//! of one crate each, run in every traced run whatever the workload. They
//! answer "what does this layer's primitive cost here" — the figure a
//! layer optimisation moves first; which end-to-end metric it should move
//! in turn is tabulated in README.md.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use grs::clock::lockset::{LockId, Lockset};
use grs::clock::vc::{Tid, VectorClock};
use grs::corpus::gogen::GoCorpusSpec;
use grs::corpus::{go_snippets, GoCorpus};
use grs::deploy::wire::{InProcTransport, RequestFrame, ResponseFrame};
use grs::deploy::{
    race_fingerprint, BoundedDedup, BugTracker, Fingerprint, IntakeServer, IntakeService, Snapshot,
};
use grs::detector::{DetectorArena, DetectorChoice, RaceReport};
use grs::fleet::{pattern_suite, DedupMap};
use grs::interp::Interp;
use grs::obs::{MetricsRegistry, ObsSink, SpanGuard};
use grs::runtime::{record, NullMonitor, Program, RunConfig, Runtime};

use crate::env::BENCH_DIR;
use crate::inputs::{fingerprint_universe, mix, Frame};
use crate::report::RunReport;
use crate::stats::median;
use crate::workloads::intake_open::DEDUP_BUDGET_WORDS;

/// Timed slices per probe; one more runs first, untimed.
const SLICES: usize = 5;

/// Median seconds one call of `slice` takes over [`SLICES`] timed calls.
fn median_seconds(mut slice: impl FnMut()) -> f64 {
    slice();
    let times: Vec<f64> = (0..SLICES)
        .map(|_| {
            let started = Instant::now();
            slice();
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Median nanoseconds per operation when `slice` performs `ops` of them.
fn ns_per_op(ops: u64, slice: impl FnMut()) -> f64 {
    median_seconds(slice) * 1e9 / ops as f64
}

fn run_null(program: &Program, seed: u64) {
    let (outcome, _) = Runtime::new(RunConfig::with_seed(seed)).run(program, NullMonitor);
    black_box(outcome.steps);
}

fn probe_corpus(report: &mut RunReport, seed: u64) {
    let spec = GoCorpusSpec::paper_scaled(0.002);
    let mut lines = 0;
    let secs = median_seconds(|| lines = black_box(GoCorpus::generate(&spec, seed)).lines());
    report.metric(
        "corpus.monorepo_gen_lines_per_s",
        lines as f64 / secs,
        "1/s",
    );
}

/// The embedded Go snippets through the interpreter against the closure
/// programs of the same bugs, same seeds, no detector.
fn probe_interp(report: &mut RunReport) {
    const SEEDS: u64 = 24;
    let twins = [
        ("go/loop_capture/racy", "loop_index_capture"),
        ("go/mutex_by_value/racy", "mutex_by_value"),
        ("go/concurrent_map/racy", "map_concurrent_write"),
    ];
    let mut interpreted = Vec::new();
    let mut closures = Vec::new();
    for (snippet, pattern) in twins {
        let s = go_snippets()
            .iter()
            .find(|s| s.name == snippet)
            .unwrap_or_else(|| panic!("snippet {snippet} is embedded"));
        interpreted.push(
            Interp::compile(s.source)
                .and_then(|i| i.program_checked(s.name, "main"))
                .expect("embedded snippets lower"),
        );
        closures.push(
            grs::patterns::find(pattern)
                .unwrap_or_else(|| panic!("pattern {pattern} is registered"))
                .racy_program(),
        );
    }
    let time = |programs: &[Program]| {
        median_seconds(|| {
            for p in programs {
                for seed in 0..SEEDS {
                    run_null(p, seed);
                }
            }
        })
    };
    report.metric(
        "interp.rendition_slowdown",
        time(&interpreted) / time(&closures),
        "ratio",
    );
}

fn probe_runtime_and_detector(report: &mut RunReport) {
    const SPAWNS: u64 = 64;
    let spawning = |n: u64| {
        Program::new("spawn", move |ctx| {
            let wg = ctx.waitgroup("wg");
            for _ in 0..n {
                wg.add(ctx, 1);
                let wg = wg.clone();
                ctx.go("noop", move |ctx| wg.done(ctx));
            }
            wg.wait(ctx);
        })
    };
    let (with, without) = (spawning(SPAWNS), spawning(0));
    let t_with = median_seconds(|| (0..8).for_each(|s| run_null(&with, s))) / 8.0;
    let t_without = median_seconds(|| (0..8).for_each(|s| run_null(&without, s))) / 8.0;
    report.metric(
        "runtime.spawn_us",
        (t_with - t_without) * 1e6 / SPAWNS as f64,
        "us",
    );

    const ROUND_TRIPS: u64 = 1_000;
    let ping_pong = Program::new("ping-pong", |ctx| {
        let ping = ctx.chan::<u64>("ping", 0);
        let pong = ctx.chan::<u64>("pong", 0);
        let (ping2, pong2) = (ping.clone(), pong.clone());
        ctx.go("echo", move |ctx| {
            for _ in 0..ROUND_TRIPS {
                let v = ping2.recv(ctx).value().unwrap_or(0);
                pong2.send(ctx, v);
            }
        });
        for i in 0..ROUND_TRIPS {
            ping.send(ctx, i);
            let _ = pong.recv(ctx);
        }
    });
    report.metric(
        "runtime.handoff_ns",
        ns_per_op(ROUND_TRIPS, || run_null(&ping_pong, 1)),
        "ns",
    );

    const UPDATES: u64 = 20_000;
    let straight = Program::new("straight-line", |ctx| {
        let x = ctx.cell("x", 0u64);
        for i in 0..UPDATES {
            ctx.update(&x, |v| v + i);
        }
    });
    report.metric(
        "runtime.event_ns",
        ns_per_op(UPDATES, || run_null(&straight, 1)),
        "ns",
    );

    // The §3.5 ratio on the event-dense unit: detector on over detector off.
    let dense = grs::dense_unit().program;
    let mut arena = DetectorArena::new();
    let bare = median_seconds(|| (0..8).for_each(|s| run_null(&dense, s)));
    let detected = median_seconds(|| {
        for s in 0..8 {
            black_box(arena.run(DetectorChoice::FastTrack, &dense, RunConfig::with_seed(s)));
        }
    });
    let recorded = median_seconds(|| {
        for s in 0..8 {
            black_box(record(&dense, &RunConfig::with_seed(s)));
        }
    });
    report.metric("detector.live_overhead_ratio", detected / bare, "ratio");
    report.metric("runtime.record_ratio", recorded / bare, "ratio");

    let (_, trace) = record(&dense, &RunConfig::with_seed(1));
    let mut bytes = 0;
    let secs = median_seconds(|| {
        for _ in 0..32 {
            bytes = black_box(trace.encode()).len();
        }
    });
    report.metric(
        "runtime.encode_mb_per_s",
        32.0 * bytes as f64 / 1e6 / secs,
        "MB/s",
    );
}

fn probe_clock(report: &mut RunReport) {
    const OPS: u64 = 200_000;
    let mut a = VectorClock::new();
    let mut b = VectorClock::new();
    for t in 0..8 {
        a.set(Tid::new(t), 2 * t + 1);
        b.set(Tid::new(t), 17 - t);
    }
    report.metric(
        "clock.join_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                let mut c = black_box(&a).clone();
                c.join(black_box(&b));
                black_box(&c);
            }
        }),
        "ns",
    );
    let (mut held, mut seen) = (Lockset::new(), Lockset::new());
    for l in 0..4 {
        held.insert(LockId::new(l));
        seen.insert(LockId::new(l + 2));
    }
    report.metric(
        "clock.lockset_intersect_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                black_box(black_box(&held).intersection(black_box(&seen)));
            }
        }),
        "ns",
    );
}

/// One FastTrack report per racy pattern that yields one under seed 1.
fn sample_reports() -> Vec<RaceReport> {
    let mut arena = DetectorArena::new();
    pattern_suite(false)
        .iter()
        .filter_map(|u| {
            arena
                .run(
                    DetectorChoice::FastTrack,
                    &u.program,
                    RunConfig::with_seed(1),
                )
                .1
                .into_iter()
                .next()
        })
        .collect()
}

fn probe_fingerprint_and_dedup(report: &mut RunReport, seed: u64) {
    let reports = sample_reports();
    assert!(
        !reports.is_empty(),
        "the pattern suite reports races under seed 1"
    );
    const ROUNDS: u64 = 200;
    let ops = ROUNDS * reports.len() as u64;
    report.metric(
        "deploy.fingerprint_ns",
        ns_per_op(ops, || {
            for _ in 0..ROUNDS {
                for r in &reports {
                    black_box(race_fingerprint(black_box(r)));
                }
            }
        }),
        "ns",
    );
    let fps: Vec<Fingerprint> = reports.iter().map(race_fingerprint).collect();
    report.metric(
        "fleet.dedup_insert_ns",
        ns_per_op(ops, || {
            let map = DedupMap::new(2);
            for round in 0..ROUNDS {
                for (fp, r) in fps.iter().zip(&reports) {
                    black_box(map.insert(*fp, round as usize, r.clone()));
                }
            }
        }),
        "ns",
    );

    const DISTINCT: u64 = 20_000;
    let stream: Vec<Fingerprint> = (0..DISTINCT).map(|i| Fingerprint(mix(seed, i))).collect();
    let warm = BoundedDedup::new(DEDUP_BUDGET_WORDS);
    for fp in &stream[..1_024] {
        warm.insert(*fp);
    }
    report.metric(
        "deploy.dedup_check_hit_ns",
        ns_per_op(DISTINCT, || {
            for i in 0..DISTINCT as usize {
                black_box(warm.check(stream[i % 1_024]));
            }
        }),
        "ns",
    );
    report.metric(
        "deploy.dedup_insert_evict_ns",
        ns_per_op(DISTINCT, || {
            let cache = BoundedDedup::new(DEDUP_BUDGET_WORDS);
            for fp in &stream {
                cache.insert(*fp);
            }
            assert!(
                cache.evictions() > 0,
                "a 2,048-entry cache evicts under 20,000 inserts"
            );
        }),
        "ns",
    );
    report.metric(
        "deploy.tracker_file_ns",
        ns_per_op(DISTINCT, || {
            let mut tracker = BugTracker::new();
            for fp in &stream {
                black_box(tracker.file(*fp, 0, None));
            }
        }),
        "ns",
    );

    // Snapshot cost at a fixed database size.
    let mut tracker = BugTracker::new();
    for fp in &stream[..5_000] {
        tracker.file(*fp, 0, None);
    }
    let path = std::path::Path::new(BENCH_DIR)
        .join("out")
        .join("probe.snapshot");
    std::fs::create_dir_all(path.parent().expect("out/ has a parent")).expect("create out/");
    let snapshot = Snapshot::capture(&tracker);
    report.metric("deploy.snapshot_bytes", snapshot.encode().len() as f64, "B");
    let save = median_seconds(|| snapshot.save(&path).expect("save the probe snapshot"));
    let restore = median_seconds(|| {
        black_box(
            Snapshot::load(&path)
                .expect("load the probe snapshot")
                .restore()
                .expect("restore the probe snapshot"),
        );
    });
    let _ = std::fs::remove_file(&path);
    report.metric("deploy.snapshot_save_ms", save * 1e3, "ms");
    report.metric("deploy.restore_ms", restore * 1e3, "ms");
}

fn submit_all(service: &IntakeService, frames: &[Frame]) {
    for f in frames {
        black_box(
            service
                .submit_trace(f.bytes.clone(), 0)
                .expect("an idle service accepts"),
        );
    }
}

fn probe_service_and_obs(report: &mut RunReport, seed: u64) {
    let frames = fingerprint_universe(seed, 512);
    let n = frames.len() as f64;
    let start = |registry: Option<Arc<MetricsRegistry>>| {
        let builder = IntakeService::builder().workers(2).queue_depth(64);
        match registry {
            Some(r) => builder.observed(r as Arc<dyn ObsSink>),
            None => builder,
        }
        .start()
        .expect("a service without a snapshot path always starts")
    };
    let plain = start(None);
    let plain_secs = median_seconds(|| submit_all(&plain, &frames));
    report.metric("deploy.service_us", plain_secs * 1e6 / n, "us");

    let observed = start(Some(Arc::new(MetricsRegistry::new())));
    let observed_secs = median_seconds(|| submit_all(&observed, &frames));
    report.metric("obs.observed_ratio", observed_secs / plain_secs, "ratio");
    let _ = observed.shutdown();

    // The wire path, closed loop, one connection.
    let (transport, connector) = InProcTransport::new();
    let server = IntakeServer::spawn(plain.handle(), transport);
    let mut conn = connector
        .connect()
        .expect("connect to the in-process server");
    let mut exchange = |request: &RequestFrame| {
        request.write_to(&mut conn).expect("write a request frame");
        ResponseFrame::read_from(&mut conn)
            .expect("read a response frame")
            .expect("the server answers every request")
    };
    let ping = median_seconds(|| {
        for _ in 0..frames.len() {
            black_box(exchange(&RequestFrame::Ping));
        }
    });
    let upload = median_seconds(|| {
        for f in &frames {
            black_box(exchange(&RequestFrame::TraceUpload {
                day: 0,
                trace: f.bytes.clone(),
            }));
        }
    });
    drop(conn);
    server.shutdown();
    let _ = plain.shutdown();
    report.metric("deploy.wire_rtt_us", ping * 1e6 / n, "us");
    report.metric("deploy.wire_upload_us", upload * 1e6 / n, "us");

    const OPS: u64 = 200_000;
    let registry = MetricsRegistry::new();
    report.metric(
        "obs.counter_add_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                registry.add("probe.counter", 1);
            }
        }),
        "ns",
    );
    report.metric(
        "obs.span_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                drop(SpanGuard::enter(&registry, "probe.span"));
            }
        }),
        "ns",
    );
}

/// Runs every probe and adds its metrics to `report`.
pub fn run_all(report: &mut RunReport, seed: u64) {
    probe_corpus(report, seed);
    probe_interp(report);
    probe_runtime_and_detector(report);
    probe_clock(report);
    probe_fingerprint_and_dedup(report, seed);
    probe_service_and_obs(report, seed);
}
