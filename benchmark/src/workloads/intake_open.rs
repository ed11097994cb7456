//! `intake_open` — CI uploaders against the intake service.
//!
//! `IntakeService::builder().workers(2).queue_depth(512).dedup_budget(8192)`
//! driven open-loop at four fixed offered rates (about 0.25×, 0.5×, 1× and
//! 2× the capacity measured when the benchmark was added). Frames draw
//! Zipf(1) from a universe of 16,384 distinct-fingerprint traces — 8× the
//! 2,048 entries the dedup cache may hold, so it evicts continuously — and
//! the collector `fix`es one in fifty filed tasks, which puts invalidation
//! writes beside the dedup reads. Only `deploy` (and the decode + replay it
//! calls) works; `fleet`, `golite` and `interp` predict no change.
//!
//! The generator and the collector share the one CPU the service's workers
//! are pinned to. On a second CPU every frame cost two cross-CPU wake-ups,
//! which on this class of VM took some 25 µs each, five times the service's
//! own time, and drifted by a quarter within the hour: `latency_p50_us`
//! measured the hypervisor.

use std::collections::BTreeSet;
use std::time::Instant;

use grs::deploy::dedup::DedupVerdict;
use grs::deploy::{
    determine_assignee, race_fingerprint, BoundedDedup, BugTracker, Fingerprint, IntakeError,
    IntakeService, IntakeTicket, OwnerDb, Snapshot,
};
use grs::detector::{replay_decoded, FastTrack};
use grs::runtime::{DecodedTrace, ReproArtifact, StackDepot};

use crate::env::peak_rss_kib;
use crate::inputs::{fingerprint_universe, Frame, Zipf};
use crate::openloop::{run_step, OnBusy, Refused, Samples, Schedule, StepOutcome};
use crate::report::{Better, RunReport};
use crate::spans::{SpanRecorder, UnitScope};
use crate::stats::{median, percentile_sorted};
use crate::workloads::{set_up, RunArgs, SliceLatencies, SLICES};

pub const UNIVERSE: usize = 16_384;
pub const DEDUP_BUDGET_WORDS: usize = 8_192;
/// Deep enough to ride out the 5-10 ms stalls this class of VM imposes on
/// any thread now and then: at the reference rate a shallower queue turns
/// each such stall of the generator, which then catches up in a burst,
/// into a few hundred `Busy` that say nothing about the service.
const QUEUE_DEPTH: usize = 512;
const WORKERS: usize = 2;

/// One in this many filed tasks is fixed by the collector.
const FIX_EVERY: u64 = 50;

/// A step passes for `sustained_fps` when its p99 stays under this, its
/// backlog does not grow and at most 1 % of its frames fail.
const LATENCY_LIMIT_US: f64 = 5_000.0;

/// One offered rate. Frozen: about 0.25×, 0.5×, 1× and 2× the capacity of
/// the service (some 118,000 frames/s with the load generator beside it on
/// one CPU) at the commit that added the benchmark.
#[derive(Debug, Clone, Copy)]
struct Rate {
    label: &'static str,
    frames_per_second: u64,
    /// Step length in milliseconds at the reference `--seconds`.
    millis: u64,
    on_busy: OnBusy,
}

/// The reference step runs first, on a service that has seen only the
/// warm-up, and its uploader offers a refused frame again until it is
/// taken, as a CI job that keeps its trace does: every frame is filed, so
/// the step's outputs are a function of the seed alone and none of its
/// frames fails, however this machine stalls. What a refusal costs shows in
/// the latency, which runs from the due time. The three steps after it drop
/// what is refused: they measure how the service sheds load.
const REFERENCE: Rate = Rate {
    label: "r025",
    frames_per_second: 30_000,
    millis: 4_000,
    on_busy: OnBusy::Retry,
};
const OTHER_STEPS: [Rate; 3] = [
    Rate {
        label: "r050",
        frames_per_second: 60_000,
        millis: 1_000,
        on_busy: OnBusy::Drop,
    },
    Rate {
        label: "r100",
        frames_per_second: 120_000,
        millis: 1_000,
        on_busy: OnBusy::Drop,
    },
    // As long as the reference step: `throughput_per_s` is read here, and
    // twenty slices of 0.1 s did not always hold five undisturbed ones.
    Rate {
        label: "r200",
        frames_per_second: 240_000,
        millis: 4_000,
        on_busy: OnBusy::Drop,
    },
];
const WARMUP: Rate = Rate {
    label: "warm-up",
    frames_per_second: 30_000,
    millis: 500,
    on_busy: OnBusy::Retry,
};

impl Rate {
    fn frames(&self, args: &RunArgs) -> u64 {
        args.scaled(self.millis as usize) as u64 * self.frames_per_second / 1_000
    }
}

/// Frames in the longest timed step: what the sample buffers must hold.
fn longest_step(args: &RunArgs) -> u64 {
    OTHER_STEPS
        .iter()
        .map(|r| r.frames(args))
        .fold(REFERENCE.frames(args), u64::max)
}

fn service() -> IntakeService {
    IntakeService::builder()
        .workers(WORKERS)
        .queue_depth(QUEUE_DEPTH)
        .dedup_budget(DEDUP_BUDGET_WORDS)
        .start()
        .expect("a service without a snapshot path always starts")
}

/// What the collector learns from the completions of one or more steps.
#[derive(Debug, Default)]
struct Collected {
    completed: u64,
    with_races: u64,
    races: u64,
    duplicates: u64,
    filed: u64,
    fixed: u64,
    unbalanced: u64,
    /// Fingerprints of every frame that completed: each must have a task.
    accepted: BTreeSet<Fingerprint>,
}

/// Offers `ranks` at `rate`, refilling `samples`, and folds the completions
/// into `collected`.
fn offer(
    service: &IntakeService,
    frames: &[Frame],
    ranks: &[u32],
    rate: Rate,
    samples: &mut Samples,
    collected: &mut Collected,
) -> StepOutcome {
    let handle = service.handle();
    let fixer = service.handle();
    run_step(
        Schedule::at_rate(Instant::now(), rate.frames_per_second),
        ranks.len() as u64,
        rate.on_busy,
        samples,
        |i| {
            let frame = &frames[ranks[i as usize] as usize];
            handle
                .enqueue_trace(frame.bytes.clone(), 0)
                .map_err(|e| match e {
                    IntakeError::Busy { .. } => Refused::Busy,
                    _ => Refused::Error,
                })
        },
        |i, ticket: IntakeTicket| {
            let Ok(summary) = ticket.wait() else {
                return false;
            };
            let c = &mut *collected;
            c.completed += 1;
            c.with_races += u64::from(summary.races > 0);
            c.races += u64::from(summary.races);
            c.duplicates += u64::from(summary.duplicates);
            c.unbalanced +=
                u64::from(summary.filed.len() as u32 + summary.duplicates != summary.races);
            c.accepted.extend(
                frames[ranks[i as usize] as usize]
                    .fingerprints
                    .iter()
                    .copied(),
            );
            for task in summary.filed {
                c.filed += 1;
                if c.filed.is_multiple_of(FIX_EVERY) {
                    c.fixed += u64::from(fixer.fix(task, 1, "bench", c.filed).is_ok());
                }
            }
            true
        },
    )
}

fn distinct_filed(service: &IntakeService) -> BTreeSet<Fingerprint> {
    service.with_tracker(|t| t.tasks().iter().map(|task| task.fingerprint).collect())
}

/// Percentiles of one step, microseconds; a p99 the step is too short for
/// reads as infinite, so it sustains nothing.
#[derive(Debug, Clone, Copy)]
struct StepStats {
    p50_us: f64,
    p99_us: f64,
    late_p99_us: f64,
    late_max_us: f64,
}

impl StepStats {
    /// Sorts the latencies and the lateness in place (no copy: see
    /// [`Samples`]), so whatever needs them in submit order comes first.
    fn of(samples: &mut Samples) -> Self {
        samples.latency_ns.sort_unstable();
        samples.late_ns.sort_unstable();
        let us = |sorted: &[u64], q: f64| {
            percentile_sorted(sorted, q).map_or(f64::INFINITY, |ns| ns as f64 / 1e3)
        };
        StepStats {
            p50_us: us(&samples.latency_ns, 0.5),
            p99_us: us(&samples.latency_ns, 0.99),
            late_p99_us: us(&samples.late_ns, 0.99),
            late_max_us: samples.late_ns.last().map_or(0.0, |&ns| ns as f64 / 1e3),
        }
    }

    fn sustains(&self, step: &StepOutcome) -> bool {
        self.p99_us <= LATENCY_LIMIT_US
            && step.backlog_end <= step.backlog_mid + step.offered / 100
            && step.busy + step.retries + step.errors <= step.offered / 100
    }
}

/// Notes one step and returns its percentiles; sorts `samples`.
fn describe(
    report: &mut RunReport,
    rate: Rate,
    step: &StepOutcome,
    samples: &mut Samples,
) -> StepStats {
    let stats = StepStats::of(samples);
    report.notes.push(format!(
        "{} offered {} fps for {:.1} s: accepted {}, busy {}, retries {}, errors {}, goodput {:.0} fps, p50 {:.0} us, p99 {:.0} us (n {}), backlog mid {} end {}, generator late p99 {:.0} us max {:.0} us, sustained {}",
        rate.label,
        rate.frames_per_second,
        step.window.as_secs_f64(),
        step.accepted,
        step.busy,
        step.retries,
        step.errors,
        samples.goodput_per_s(step.window, 1)[0],
        stats.p50_us,
        stats.p99_us,
        samples.latency_ns.len(),
        step.backlog_mid,
        step.backlog_end,
        stats.late_p99_us,
        stats.late_max_us,
        stats.sustains(step),
    ));
    stats
}

struct SetUp {
    frames: Vec<Frame>,
    service: IntakeService,
    ranks: Vec<u32>,
    warm: Collected,
}

/// Builds the universe, the popularity sequence and a warmed-up service.
fn prepare(args: &RunArgs, total_frames: u64) -> SetUp {
    let frames = fingerprint_universe(args.seed, UNIVERSE);
    let ranks = Zipf::new(UNIVERSE).sequence(args.seed, total_frames as usize);
    let service = service();
    let mut warm = Collected::default();
    let n = WARMUP.frames(args) as usize;
    let _ = offer(
        &service,
        &frames,
        &ranks[..n],
        WARMUP,
        &mut Samples::with_capacity(n as u64),
        &mut warm,
    );
    SetUp {
        frames,
        service,
        ranks,
        warm,
    }
}

pub fn run(args: &RunArgs) -> RunReport {
    let mut report = RunReport::default();
    let warm_frames = WARMUP.frames(args);
    let total: u64 = warm_frames
        + REFERENCE.frames(args)
        + OTHER_STEPS.iter().map(|r| r.frames(args)).sum::<u64>();
    let (setup, setup_s) = set_up(&mut report, || prepare(args, total));
    let SetUp {
        frames,
        service,
        ranks,
        warm,
    } = setup;

    let mut collected = warm;
    let mut samples = Samples::with_capacity(longest_step(args));
    let mut at = warm_frames as usize;
    let mut take = |rate: Rate| {
        let n = rate.frames(args) as usize;
        let slice = &ranks[at..at + n];
        at += n;
        slice
    };
    let reference = offer(
        &service,
        &frames,
        take(REFERENCE),
        REFERENCE,
        &mut samples,
        &mut collected,
    );
    // Latency at the reference rate, sliced in submit order.
    let per_slice = samples.latency_ns.len() / SLICES;
    let mut slice_latencies = SliceLatencies::default();
    for chunk in samples
        .latency_ns
        .chunks_exact_mut(per_slice.max(1))
        .take(SLICES)
    {
        slice_latencies.push(chunk);
    }
    describe(&mut report, REFERENCE, &reference, &mut samples);
    let unique_after_reference = distinct_filed(&service).len();

    let mut goodput = 0.0;
    for rate in OTHER_STEPS {
        let step = offer(
            &service,
            &frames,
            take(rate),
            rate,
            &mut samples,
            &mut collected,
        );
        describe(&mut report, rate, &step, &mut samples);
        if rate.label == "r200" {
            goodput = report.slices(
                "goodput at r200",
                "frames/s",
                Better::Higher,
                &samples.goodput_per_s(step.window, SLICES),
            );
            // Whether the service sheds load here depends on how fast this
            // machine is, so it is reported, not checked.
            report.notes.push(format!(
                "the 2x step met {} Busy of {} offered",
                step.busy, step.offered
            ));
        }
    }

    report.attempted = reference.offered;
    report.failed = reference.busy + reference.errors;
    report.metric("setup_s", setup_s, "s");
    report.metric("throughput_per_s", goodput, "1/s");
    slice_latencies.report(&mut report);
    report.metric("peak_rss_kib", peak_rss_kib() as f64, "KiB");
    report.metric("unique_races", unique_after_reference as f64, "count");
    report.metric(
        "detect_share",
        collected.with_races as f64 / collected.completed.max(1) as f64,
        "ratio",
    );

    let stats = service.stats();
    let (open_total, open_distinct) = service.with_tracker(|t| {
        let open: Vec<Fingerprint> = t
            .open_tasks()
            .filter_map(|id| t.task(id))
            .map(|task| task.fingerprint)
            .collect();
        (open.len(), open.iter().collect::<BTreeSet<_>>().len())
    });
    let filed = distinct_filed(&service);
    let encoded = service.snapshot().encode();
    let round_trip = Snapshot::decode(&encoded)
        .ok()
        .and_then(|s| s.restore().ok())
        .map(|tracker| Snapshot::capture(&tracker).encode());
    report.check(
        "filed + duplicates == races on every summary",
        collected.unbalanced == 0,
        format!(
            "{} unbalanced of {}",
            collected.unbalanced, collected.completed
        ),
    );
    report.check(
        "open tasks have pairwise-distinct fingerprints",
        open_total == open_distinct,
        format!("{open_total} open, {open_distinct} distinct"),
    );
    report.check(
        "every accepted fingerprint has a task",
        collected.accepted.is_subset(&filed),
        format!(
            "{} accepted, {} filed",
            collected.accepted.len(),
            filed.len()
        ),
    );
    report.check(
        "the dedup cache stays within its budget and evicts",
        stats.dedup_peak_words <= stats.dedup_budget_words && stats.dedup_evictions > 0,
        format!(
            "peak {} of {} words, {} evictions",
            stats.dedup_peak_words, stats.dedup_budget_words, stats.dedup_evictions
        ),
    );
    report.check(
        "snapshot, restore, snapshot is byte-identical",
        round_trip.as_deref() == Some(&encoded[..]),
        format!("{} bytes", encoded.len()),
    );
    report.count("reference_frames", reference.offered);
    report.count("unique_after_reference", unique_after_reference as u64);
    let _ = service.shutdown();
    report
}

/// The service's per-frame pipeline, driven by hand from outside with the
/// same public calls `process_trace` makes.
struct HandService {
    dedup: BoundedDedup,
    tracker: BugTracker,
    owners: OwnerDb,
}

impl HandService {
    fn new() -> Self {
        HandService {
            dedup: BoundedDedup::new(DEDUP_BUDGET_WORDS),
            tracker: BugTracker::new(),
            owners: OwnerDb::new(),
        }
    }

    fn process(&mut self, bytes: &[u8], spans: Option<&mut SpanRecorder>, unit: usize) -> u64 {
        let mut scope = UnitScope::open(spans, unit as u32);
        let decoded = scope
            .time("runtime.decode", || DecodedTrace::decode(bytes))
            .expect("a just-encoded trace decodes");
        let outcome = scope.time("detector.analyze", || {
            replay_decoded(&mut FastTrack::new(), &decoded, &StackDepot::new())
        });
        let mut filed = 0;
        for report in &outcome.reports {
            let fp = scope.time("deploy.fingerprint", || race_fingerprint(report));
            let cached = scope.time("deploy.dedup", || self.dedup.check(fp));
            if cached == DedupVerdict::CachedOpen {
                continue;
            }
            scope.time("deploy.file", || {
                let decision = determine_assignee(report, &self.owners);
                let repro = ReproArtifact::seeded(decoded.meta.seed, decoded.meta.strategy);
                filed += u64::from(
                    self.tracker
                        .file_with_repro(fp, 0, decision.assignee, Some(repro))
                        .is_some(),
                );
            });
            scope.time("deploy.dedup", || self.dedup.insert(fp));
        }
        scope.close();
        filed
    }
}

/// Frames the hand-driven traced loop processes.
const TRACED_FRAMES: usize = 20_000;

pub fn traced(args: &RunArgs, spans: &mut SpanRecorder) -> RunReport {
    let mut report = RunReport::default();
    // A quarter of the end-to-end schedule, same rates.
    let short = RunArgs {
        seconds: (args.seconds / 4).max(1),
        ..args.clone()
    };
    let warm_frames = WARMUP.frames(&short);
    let total: u64 = warm_frames
        + REFERENCE.frames(&short)
        + OTHER_STEPS.iter().map(|r| r.frames(&short)).sum::<u64>()
        + args.scaled(TRACED_FRAMES) as u64;
    let SetUp {
        frames,
        service,
        ranks,
        warm,
    } = prepare(&short, total);

    // Service time on an idle service, closed loop: what latency would be
    // with no queueing at all.
    let mut idle: Vec<f64> = ranks[..2_000.min(ranks.len())]
        .iter()
        .map(|&r| {
            let started = Instant::now();
            let _ = service.submit_trace(frames[r as usize].bytes.clone(), 0);
            started.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    idle.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let service_us = median(&idle);

    let mut collected = warm;
    let mut at = warm_frames as usize;
    let mut sustained = 0u64;
    let mut late: Vec<u64> = Vec::new();
    let mut samples = Samples::with_capacity(longest_step(&short));
    for rate in [REFERENCE, OTHER_STEPS[0], OTHER_STEPS[1], OTHER_STEPS[2]] {
        let n = rate.frames(&short) as usize;
        let step = offer(
            &service,
            &frames,
            &ranks[at..at + n],
            rate,
            &mut samples,
            &mut collected,
        );
        at += n;
        let stats = describe(&mut report, rate, &step, &mut samples);
        if stats.sustains(&step) {
            sustained = sustained.max(rate.frames_per_second);
        }
        report.metric(
            &format!("deploy.busy_share.{}", rate.label),
            step.busy_share(),
            "ratio",
        );
        report.metric(
            &format!("deploy.latency_p99_us.{}", rate.label),
            stats.p99_us,
            "us",
        );
        if rate.label == REFERENCE.label {
            report.metric("deploy.queue_wait_us", stats.p50_us - service_us, "us");
            report.metric("latency_p99_us", stats.p99_us, "us");
        }
        late.extend(&samples.late_ns);
    }
    late.sort_unstable();
    let stats = service.stats();
    report.metric("deploy.sustained_fps", sustained as f64, "1/s");
    report.metric(
        "deploy.dedup_evictions",
        stats.dedup_evictions as f64,
        "count",
    );
    report.metric(
        "deploy.dedup_hit_share",
        collected.duplicates as f64 / collected.races.max(1) as f64,
        "ratio",
    );
    report.metric(
        "deploy.generator_late_us_p99",
        percentile_sorted(&late, 0.99).unwrap_or(0) as f64 / 1e3,
        "us",
    );
    let _ = service.shutdown();

    // The same frames through the pipeline by hand, without and with spans.
    let tail = &ranks[at..];
    let mut plain = HandService::new();
    let started = Instant::now();
    let plain_filed: u64 = tail
        .iter()
        .map(|&r| plain.process(&frames[r as usize].bytes, None, 0))
        .sum();
    let untraced_wall = started.elapsed();
    let mut hand = HandService::new();
    let started = Instant::now();
    let traced_filed: u64 = tail
        .iter()
        .enumerate()
        .map(|(i, &r)| hand.process(&frames[r as usize].bytes, Some(&mut *spans), i))
        .sum();
    let traced_wall = started.elapsed();

    let self_ns = spans.self_time_by_name();
    let of = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64;
    let stages = [
        "runtime.decode",
        "detector.analyze",
        "deploy.fingerprint",
        "deploy.dedup",
        "deploy.file",
        "unit",
    ];
    let unit_total: f64 = stages.iter().map(|s| of(s)).sum();
    for stage in stages {
        report.metric(
            &format!("stage_share.{stage}"),
            of(stage) / unit_total,
            "ratio",
        );
    }
    report.metric(
        "trace.overhead_share",
        traced_wall.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0,
        "ratio",
    );
    report.metric("trace.spans", spans.spans().len() as f64, "count");
    report.notes.push(format!(
        "idle service time {service_us:.1} us per frame through the queue; the hand-driven pipeline takes {:.1} us per frame",
        untraced_wall.as_secs_f64() * 1e6 / tail.len().max(1) as f64
    ));
    report.check(
        "traced and untraced hand loops file the same tasks",
        plain_filed == traced_filed,
        format!("{plain_filed} vs {traced_filed}"),
    );
    report
}
