//! `trace_replay` — execute once, analyse many.
//!
//! Set-up records and encodes three families of traces: the pattern suite
//! (short, ~15 events), generated corpus tests (~67 events) and
//! `grs::dense_unit` (~4K events). Timed: per pass, every trace goes
//! through `DecodedTrace::decode` and
//! `DetectorArena::replay_many_decoded_observed` over all four detectors —
//! the batched struct-of-arrays path, kernel bypassed.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use grs::corpus::GoTestSpec;
use grs::deploy::{race_fingerprint, Fingerprint};
use grs::detector::{DetectorArena, DetectorChoice};
use grs::fleet::{pattern_suite, GoCorpusSource, UnitSource};
use grs::obs::NULL_SINK;
use grs::runtime::{record, DecodedTrace, Program, RunConfig, Strategy};

use crate::env::peak_rss_kib;
use crate::inputs::mix;
use crate::report::{Better, RunReport};
use crate::spans::{SpanRecorder, NO_PARENT};
use crate::workloads::{set_up, RunArgs, SliceLatencies, SLICES};

/// Passes over the whole trace set per slice at the reference `--seconds`.
const PASSES_PER_SLICE: usize = 6;

const PATTERN_SEEDS: u64 = 8;
const CORPUS_UNITS: usize = 2_000;
const DENSE_TRACES: u64 = 64;

/// Every `VERIFY_STRIDE`-th trace is re-executed live under each detector
/// after the timed section, and must report what its replay reported.
const VERIFY_STRIDE: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Short,
    Corpus,
    Dense,
}

struct Recorded {
    family: Family,
    bytes: Vec<u8>,
    events: u64,
    expected_racy: bool,
    program: Program,
    cfg: RunConfig,
}

fn record_one(family: Family, program: &Program, cfg: RunConfig, expected_racy: bool) -> Recorded {
    let (_, trace) = record(program, &cfg);
    Recorded {
        family,
        events: trace.events.len() as u64,
        bytes: trace.encode(),
        expected_racy,
        program: program.clone(),
        cfg,
    }
}

fn record_all(seed: u64) -> Vec<Recorded> {
    let mut traces = Vec::new();
    for unit in pattern_suite(true) {
        for s in 0..PATTERN_SEEDS {
            for strategy in [Strategy::Random, Strategy::Pct { depth: 2 }] {
                let cfg = RunConfig::with_seed(mix(seed, s)).strategy(strategy);
                traces.push(record_one(
                    Family::Short,
                    &unit.program,
                    cfg,
                    unit.expected_racy == Some(true),
                ));
            }
        }
    }
    let corpus = GoCorpusSource::new(GoTestSpec::default_mix(), mix(seed, 0), CORPUS_UNITS);
    for i in 0..corpus.len() {
        let unit = corpus.build(i).expect("generated tests lower");
        traces.push(record_one(
            Family::Corpus,
            &unit.program,
            RunConfig::with_seed(seed),
            unit.expected_racy == Some(true),
        ));
    }
    let dense = grs::dense_unit();
    for s in 0..DENSE_TRACES {
        traces.push(record_one(
            Family::Dense,
            &dense.program,
            RunConfig::with_seed(mix(seed, s)),
            false,
        ));
    }
    traces
}

/// One trace through decode and all four detectors; returns the reports.
fn replay_one(arena: &mut DetectorArena, bytes: &[u8]) -> (u64, u64) {
    let decoded = DecodedTrace::decode(bytes).expect("a just-encoded trace decodes");
    let analyses = arena.replay_many_decoded_observed(
        &decoded,
        &DetectorChoice::all_with_ablation(),
        &NULL_SINK,
    );
    let reports = analyses.iter().map(|(_, a)| a.reports.len() as u64).sum();
    (decoded.len() as u64, reports)
}

struct SetUp {
    traces: Vec<Recorded>,
    arena: DetectorArena,
    warm_reports: u64,
}

/// The distinct fingerprints each detector's replay of one trace yields,
/// and how many reports they came from.
fn fingerprints_of(
    arena: &mut DetectorArena,
    bytes: &[u8],
) -> (Vec<(DetectorChoice, Vec<Fingerprint>)>, u64) {
    let decoded = DecodedTrace::decode(bytes).expect("a just-encoded trace decodes");
    let mut reports = 0;
    let by_detector = arena
        .replay_many_decoded_observed(&decoded, &DetectorChoice::all_with_ablation(), &NULL_SINK)
        .into_iter()
        .map(|(choice, analysis)| {
            reports += analysis.reports.len() as u64;
            let mut fps: Vec<Fingerprint> = analysis.reports.iter().map(race_fingerprint).collect();
            fps.sort_unstable();
            fps.dedup();
            (choice, fps)
        })
        .collect();
    (by_detector, reports)
}

pub fn run(args: &RunArgs) -> RunReport {
    let mut report = RunReport::default();
    let passes = args.scaled(PASSES_PER_SLICE);
    let (mut setup, setup_s) = set_up(&mut report, || {
        let traces = record_all(args.seed);
        let mut arena = DetectorArena::new();
        let warm_reports = traces
            .iter()
            .map(|t| replay_one(&mut arena, &t.bytes).1)
            .sum();
        SetUp {
            traces,
            arena,
            warm_reports,
        }
    });
    let traces = &setup.traces;
    let arena = &mut setup.arena;

    let events_per_pass: u64 = traces.iter().map(|t| t.events).sum();
    let (mut rates, mut slice_latencies) = (Vec::new(), SliceLatencies::default());
    let (mut events_seen, mut reports_seen) = (0u64, 0u64);
    let mut head_reports = 0u64;
    for slice in 0..SLICES {
        let mut latencies = Vec::with_capacity(passes * traces.len());
        let started = Instant::now();
        for pass in 0..passes {
            let mut mark = Instant::now();
            for t in traces {
                let (events, reports) = replay_one(arena, &t.bytes);
                let now = Instant::now();
                latencies.push((now - mark).as_nanos() as u64);
                mark = now;
                events_seen += events;
                reports_seen += reports;
                if slice == 0 && pass == 0 {
                    head_reports += reports;
                }
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        rates.push((events_per_pass * passes as u64) as f64 / elapsed);
        slice_latencies.push(&mut latencies);
    }

    // Untimed: fingerprints of every trace, and the live cross-check.
    let mut unique = BTreeSet::new();
    let (mut racy_traces, mut racy_detected) = (0u64, 0u64);
    let (mut verified, mut mismatches) = (0u64, 0u64);
    let mut reports_per_pass = 0u64;
    for (i, t) in traces.iter().enumerate() {
        let (by_detector, reports) = fingerprints_of(arena, &t.bytes);
        reports_per_pass += reports;
        let any = by_detector.iter().any(|(_, fps)| !fps.is_empty());
        racy_traces += u64::from(t.expected_racy);
        racy_detected += u64::from(t.expected_racy && any);
        for (_, fps) in &by_detector {
            unique.extend(fps.iter().copied());
        }
        if i % VERIFY_STRIDE == 0 {
            for (choice, fps) in &by_detector {
                let (_, live) = arena.run(*choice, &t.program, t.cfg.clone());
                let mut live: Vec<Fingerprint> = live.iter().map(race_fingerprint).collect();
                live.sort_unstable();
                live.dedup();
                verified += 1;
                mismatches += u64::from(live != *fps);
            }
        }
    }

    let total_passes = (passes * SLICES) as u64;
    report.attempted = traces.len() as u64 * total_passes;
    report.failed = 0; // a decode error panics above: the inputs were just encoded
    report.metric("setup_s", setup_s, "s");
    let rate = report.slices("throughput", "events/s", Better::Higher, &rates);
    report.metric("throughput_per_s", rate, "1/s");
    slice_latencies.report(&mut report);
    report.metric("peak_rss_kib", peak_rss_kib() as f64, "KiB");
    report.metric("unique_races", unique.len() as f64, "count");
    report.metric(
        "detect_share",
        racy_detected as f64 / racy_traces.max(1) as f64,
        "ratio",
    );
    report.check(
        "event totals are exact",
        events_seen == events_per_pass * total_passes,
        format!(
            "{events_seen} decoded, {} recorded",
            events_per_pass * total_passes
        ),
    );
    report.check(
        "every pass reports the same races",
        reports_seen == reports_per_pass * total_passes,
        format!("{reports_seen} reports over {total_passes} passes of {reports_per_pass}"),
    );
    report.check(
        "warm-up and first timed pass report the same races",
        setup.warm_reports == head_reports,
        format!("{} vs {head_reports} reports", setup.warm_reports),
    );
    report.check(
        "replay reports what the live run reports",
        mismatches == 0,
        format!("{mismatches} of {verified} (trace, detector) pairs differ"),
    );
    report.count("traces", traces.len() as u64);
    report.count("events_per_pass", events_per_pass);
    report.count("reports_per_pass", reports_per_pass);
    report.count("unique_races", unique.len() as u64);
    report.count("racy_traces_detected", racy_detected);
    report
}

pub fn traced(args: &RunArgs, spans: &mut SpanRecorder) -> RunReport {
    let mut report = RunReport::default();
    let traces = record_all(args.seed);
    let mut arena = DetectorArena::new();
    let choices = DetectorChoice::all_with_ablation();
    let passes = args.scaled(2);

    let untraced_started = Instant::now();
    for _ in 0..passes {
        for t in &traces {
            let decoded = DecodedTrace::decode(&t.bytes).expect("a just-encoded trace decodes");
            for choice in choices {
                let _ = arena.replay_many_decoded_observed(&decoded, &[choice], &NULL_SINK);
            }
        }
    }
    let untraced_wall = untraced_started.elapsed();

    let mut per_detector = [Duration::ZERO; 4];
    let mut per_family = [(Duration::ZERO, 0u64, 0u64); 3]; // wall, traces, events
    let (mut events, mut capacity, mut bytes) = (0u64, 0u64, 0u64);
    let (mut reports, mut peak_shadow) = (0u64, 0usize);
    let traced_started = Instant::now();
    for _ in 0..passes {
        for (i, t) in traces.iter().enumerate() {
            let tag = i as u32;
            let root = spans.open("unit", NO_PARENT, tag);
            let decoded = spans.time("runtime.decode", root, tag, || {
                DecodedTrace::decode(&t.bytes).expect("a just-encoded trace decodes")
            });
            for (d, choice) in choices.into_iter().enumerate() {
                let id = spans.open("detector.analyze", root, tag);
                let out = arena.replay_many_decoded_observed(&decoded, &[choice], &NULL_SINK);
                spans.close(id);
                let s = &spans.spans()[id as usize];
                per_detector[d] += Duration::from_nanos(s.end_ns - s.start_ns);
                reports += out[0].1.reports.len() as u64;
                peak_shadow = peak_shadow.max(out[0].1.peak_shadow_words);
            }
            spans.close(root);
            let s = &spans.spans()[root as usize];
            let f = &mut per_family[t.family as usize];
            f.0 += Duration::from_nanos(s.end_ns - s.start_ns);
            f.1 += 1;
            f.2 += t.events;
            events += t.events;
            capacity += decoded.chunks * decoded.chunk_capacity as u64;
            bytes += t.bytes.len() as u64;
        }
    }
    let traced_wall = traced_started.elapsed();

    let self_ns = spans.self_time_by_name();
    let of = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64;
    let unit_total = of("unit") + of("runtime.decode") + of("detector.analyze");
    for stage in ["runtime.decode", "detector.analyze", "unit"] {
        report.metric(
            &format!("stage_share.{stage}"),
            of(stage) / unit_total,
            "ratio",
        );
    }
    for (choice, wall) in choices.iter().zip(per_detector) {
        report.metric(
            &format!("detector.{}.replay_events_per_s", choice.label()),
            events as f64 / wall.as_secs_f64(),
            "1/s",
        );
    }
    let short = per_family[Family::Short as usize];
    let dense = per_family[Family::Dense as usize];
    report.metric(
        "detector.replay_short_us_per_trace",
        short.0.as_secs_f64() * 1e6 / short.1 as f64,
        "us",
    );
    report.metric(
        "detector.replay_dense_events_per_s",
        dense.2 as f64 / dense.0.as_secs_f64(),
        "1/s",
    );
    report.metric(
        "runtime.decode_events_per_s",
        events as f64 / (of("runtime.decode") / 1e9),
        "1/s",
    );
    report.metric(
        "runtime.trace_bytes_per_event",
        bytes as f64 / events as f64,
        "B",
    );
    report.metric(
        "runtime.batch_fill_rate",
        events as f64 / capacity.max(1) as f64,
        "ratio",
    );
    report.metric("latency_p99_us", spans.p99_us("unit"), "us");
    report.metric("detector.reports", reports as f64, "count");
    report.metric("detector.peak_shadow_words", peak_shadow as f64, "count");
    report.metric(
        "trace.overhead_share",
        traced_wall.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0,
        "ratio",
    );
    report.metric("trace.spans", spans.spans().len() as f64, "count");
    report.check(
        "the traced pass decoded every event",
        events > 0,
        format!("{events} events"),
    );
    report
}
