//! `static_scan` — the paper's Table 1 scan and the lint/triage route.
//!
//! Set-up generates a monorepo (`GoCorpus::generate(paper_scaled(..))`),
//! standalone tests (`GoTestGen`) and the lint renditions. Timed: per pass,
//! every file goes through `parse_file`, `scan_file`, `lint_file`
//! (GR001–GR018) and, where it has a `main`, `Interp::from_file` +
//! `program_checked`. Nothing is executed: `golite` and `interp` lowering
//! do all the work, `runtime` and `detector` none.

use std::time::Instant;

use grs::corpus::gogen::GoCorpusSpec;
use grs::corpus::{GoCorpus, GoTestGen, GoTestSpec};
use grs::golite::ast::File;
use grs::golite::{lint_file, parse_file, scan_file, ConstructCounts, Rule};
use grs::interp::Interp;
use grs::patterns::gosrc;

use crate::env::peak_rss_kib;
use crate::report::{Better, RunReport};
use crate::spans::{SpanRecorder, UnitScope};
use crate::workloads::{set_up, RunArgs, SliceLatencies, SLICES};

/// Share of the paper's 46 MLoC monorepo generated at the reference
/// `--seconds` (≈ 125 K lines).
const MONOREPO_SCALE: f64 = 0.002_75;

/// Standalone generated tests at the reference `--seconds`.
const TESTS: usize = 2_500;

/// What the harness expects of one source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// A monorepo file: scanned and linted, never lowered.
    Library,
    /// A standalone test with a `main`: also lowered.
    Runnable,
    /// A racy rendition: its declared rule must fire.
    Flagged(Rule),
    /// A fixed rendition: its declared rule must stay silent.
    Silent(Rule),
}

struct Source {
    name: String,
    text: String,
    lines: u64,
    expect: Expect,
}

struct Inputs {
    sources: Vec<Source>,
    /// Emission-time construct counts of the monorepo files.
    truth: ConstructCounts,
    /// How many of `sources` are monorepo files (they come first).
    library_files: usize,
}

fn source(name: String, text: String, expect: Expect) -> Source {
    Source {
        lines: text.lines().count() as u64,
        name,
        text,
        expect,
    }
}

fn generate(args: &RunArgs) -> Inputs {
    let scale = MONOREPO_SCALE * args.seconds as f64 / crate::workloads::REFERENCE_SECONDS as f64;
    let corpus = GoCorpus::generate(&GoCorpusSpec::paper_scaled(scale), args.seed);
    let truth = corpus.truth;
    let mut sources: Vec<Source> = corpus
        .files
        .into_iter()
        .map(|(path, text)| source(path, text, Expect::Library))
        .collect();
    let library_files = sources.len();
    let gen = GoTestGen::new(GoTestSpec::default_mix(), args.seed);
    sources.extend(
        gen.iter(args.scaled(TESTS) as u64)
            .map(|t| source(t.name, t.source, Expect::Runnable)),
    );
    for r in gosrc::renditions() {
        let rule = Rule::from_id(r.rule).expect("renditions name known rules");
        sources.push(source(
            format!("{}/racy", r.pattern_id),
            r.racy.to_string(),
            Expect::Flagged(rule),
        ));
        sources.push(source(
            format!("{}/fixed", r.pattern_id),
            r.fixed.to_string(),
            Expect::Silent(rule),
        ));
    }
    Inputs {
        sources,
        truth,
        library_files,
    }
}

/// What one pass over a range of sources found.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct PassOutcome {
    scanned: ConstructCounts,
    findings: u64,
    lowered: u64,
    parse_failures: u64,
    lower_failures: u64,
    racy_renditions: u64,
    racy_flagged: u64,
    fixed_flagged: u64,
}

/// One file through every static stage, under spans when given a recorder.
fn process(
    src: &Source,
    library: bool,
    out: &mut PassOutcome,
    spans: Option<&mut SpanRecorder>,
    unit: usize,
) {
    let mut scope = UnitScope::open(spans, unit as u32);
    let parsed: Result<File, _> = scope.time("golite.parse", || parse_file(&src.text));
    let Ok(file) = parsed else {
        out.parse_failures += 1;
        scope.close();
        return;
    };
    let mut counts = scope.time("golite.scan", || scan_file(&file));
    if library {
        // What `scan_source` does for callers that hold the text.
        counts.lines = src.lines;
        out.scanned.merge(&counts);
    }
    let findings = scope.time("golite.lint", || lint_file(&file));
    out.findings += findings.len() as u64;
    match src.expect {
        Expect::Library => {}
        Expect::Runnable => {
            let lowered = scope.time("interp.lower", || {
                Interp::from_file(file).program_checked(&src.name, "main")
            });
            match lowered {
                Ok(_) => out.lowered += 1,
                Err(_) => out.lower_failures += 1,
            }
        }
        Expect::Flagged(rule) => {
            out.racy_renditions += 1;
            out.racy_flagged += u64::from(findings.iter().any(|f| f.rule == rule));
        }
        Expect::Silent(rule) => {
            out.fixed_flagged += u64::from(findings.iter().any(|f| f.rule == rule));
        }
    }
    scope.close();
}

fn counts_match(scanned: &ConstructCounts, truth: &ConstructCounts) -> bool {
    // The constructs the generator keeps ground truth for (Table 1's rows).
    let key = |c: &ConstructCounts| {
        [
            c.lines,
            c.go_statements,
            c.lock_calls,
            c.unlock_calls,
            c.rlock_calls,
            c.runlock_calls,
            c.chan_sends,
            c.chan_recvs,
            c.waitgroup_decls,
            c.map_constructs,
        ]
    };
    key(scanned) == key(truth)
}

struct SetUp {
    inputs: Inputs,
    warm: PassOutcome,
}

pub fn run(args: &RunArgs) -> RunReport {
    let mut report = RunReport::default();
    let (setup, setup_s) = set_up(&mut report, || {
        let inputs = generate(args);
        let mut warm = PassOutcome::default();
        for (i, src) in inputs.sources.iter().enumerate() {
            process(src, i < inputs.library_files, &mut warm, None, i);
        }
        SetUp { inputs, warm }
    });
    let inputs = &setup.inputs;
    let lines_per_pass: u64 = inputs.sources.iter().map(|s| s.lines).sum();

    let (mut rates, mut slice_latencies) = (Vec::new(), SliceLatencies::default());
    let mut outcomes: Vec<PassOutcome> = Vec::new();
    for _ in 0..SLICES {
        let mut out = PassOutcome::default();
        let mut latencies = Vec::with_capacity(inputs.sources.len());
        let started = Instant::now();
        let mut mark = started;
        for (i, src) in inputs.sources.iter().enumerate() {
            process(src, i < inputs.library_files, &mut out, None, i);
            let now = Instant::now();
            latencies.push((now - mark).as_nanos() as u64);
            mark = now;
        }
        rates.push(lines_per_pass as f64 / started.elapsed().as_secs_f64());
        slice_latencies.push(&mut latencies);
        outcomes.push(out);
    }

    let first = &outcomes[0];
    report.attempted = (inputs.sources.len() * SLICES) as u64;
    report.failed = outcomes
        .iter()
        .map(|o| o.parse_failures + o.lower_failures)
        .sum();
    report.metric("setup_s", setup_s, "s");
    let rate = report.slices("throughput", "lines/s", Better::Higher, &rates);
    report.metric("throughput_per_s", rate, "1/s");
    slice_latencies.report(&mut report);
    report.metric("peak_rss_kib", peak_rss_kib() as f64, "KiB");
    report.metric("unique_races", first.findings as f64, "count");
    report.metric(
        "detect_share",
        first.racy_flagged as f64 / first.racy_renditions.max(1) as f64,
        "ratio",
    );
    report.check(
        "scan counts equal the generator's ground truth",
        counts_match(&first.scanned, &inputs.truth),
        format!("scanned {:?}", first.scanned),
    );
    report.check(
        "every source parses and every runnable one lowers",
        report.failed == 0,
        format!("{} failures", report.failed),
    );
    report.check(
        "every racy rendition is flagged by its rule and no fixed one is",
        first.racy_flagged == first.racy_renditions && first.fixed_flagged == 0,
        format!(
            "{} of {} racy flagged, {} fixed flagged",
            first.racy_flagged, first.racy_renditions, first.fixed_flagged
        ),
    );
    report.check(
        "every pass finds the same things",
        outcomes.iter().all(|o| o == first),
        format!("{} passes", outcomes.len()),
    );
    report.check(
        "warm-up and timed pass find the same things",
        setup.warm == *first,
        format!("{} vs {} findings", setup.warm.findings, first.findings),
    );
    report.count("files", inputs.sources.len() as u64);
    report.count("lines", lines_per_pass);
    report.count("findings", first.findings);
    report.count("lowered", first.lowered);
    report.count("go_statements", first.scanned.go_statements);
    report
}

pub fn traced(args: &RunArgs, spans: &mut SpanRecorder) -> RunReport {
    let mut report = RunReport::default();
    let inputs = generate(args);
    let lines: u64 = inputs.sources.iter().map(|s| s.lines).sum();

    let mut untraced = PassOutcome::default();
    let started = Instant::now();
    for (i, src) in inputs.sources.iter().enumerate() {
        process(src, i < inputs.library_files, &mut untraced, None, i);
    }
    let untraced_wall = started.elapsed();

    let mut traced = PassOutcome::default();
    let started = Instant::now();
    for (i, src) in inputs.sources.iter().enumerate() {
        process(
            src,
            i < inputs.library_files,
            &mut traced,
            Some(&mut *spans),
            i,
        );
    }
    let traced_wall = started.elapsed();

    let self_ns = spans.self_time_by_name();
    let of = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64;
    let stages = [
        "golite.parse",
        "golite.scan",
        "golite.lint",
        "interp.lower",
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
    let runnable = inputs
        .sources
        .iter()
        .filter(|s| s.expect == Expect::Runnable)
        .count();
    let per_s = |name: &str| lines as f64 / (of(name) / 1e9);
    report.metric("golite.parse_lines_per_s", per_s("golite.parse"), "1/s");
    report.metric("golite.scan_lines_per_s", per_s("golite.scan"), "1/s");
    report.metric("golite.lint_lines_per_s", per_s("golite.lint"), "1/s");
    report.metric(
        "golite.parse_us_per_unit",
        of("golite.parse") / 1e3 / inputs.sources.len() as f64,
        "us",
    );
    report.metric("latency_p99_us", spans.p99_us("unit"), "us");
    report.metric("golite.findings", traced.findings as f64, "count");
    report.metric(
        "interp.lower_us",
        of("interp.lower") / 1e3 / runnable.max(1) as f64,
        "us",
    );
    report.metric(
        "trace.overhead_share",
        traced_wall.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0,
        "ratio",
    );
    report.metric("trace.spans", spans.spans().len() as f64, "count");
    report.check(
        "traced and untraced passes find the same things",
        traced == untraced,
        format!("{} vs {} findings", traced.findings, untraced.findings),
    );
    report
}
