//! Exact counts recorded at the commit that added the benchmark.
//!
//! Every count a workload reports is a function of `(seed, seconds)` alone,
//! so for the rows in `expected.txt` a run must repeat them exactly — on
//! any machine, at any commit that does not mean to change behaviour.

use crate::report::RunReport;

const RECORDED: &str = include_str!("../expected.txt");

/// One row: `seed seconds workload key value`.
fn rows() -> impl Iterator<Item = (u64, u64, &'static str, &'static str, u64)> {
    RECORDED
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 5, "expected.txt: malformed row {l:?}");
            let num = |s: &str| {
                s.parse()
                    .unwrap_or_else(|_| panic!("expected.txt: {s:?} in {l:?}"))
            };
            (num(f[0]), num(f[1]), f[2], f[3], num(f[4]))
        })
}

/// Adds one check per recorded count for this `(seed, seconds, workload)`;
/// a note when nothing was recorded for it.
pub fn check(report: &mut RunReport, workload: &str, seed: u64, seconds: u64) {
    let mut any = false;
    for (s, secs, w, key, want) in rows() {
        if (s, secs, w) != (seed, seconds, workload) {
            continue;
        }
        any = true;
        let got = report
            .counts
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v);
        report.check(
            &format!("count {key} repeats"),
            got == Some(want),
            format!("recorded {want}, got {got:?}"),
        );
    }
    if !any {
        report.notes.push(format!(
            "no counts recorded for seed {seed} at {seconds} s: nothing to repeat"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_rows_parse() {
        assert!(rows().count() > 0);
    }

    #[test]
    fn a_changed_count_fails_the_run() {
        let (seed, seconds, workload, key, want) = rows().next().expect("a row");
        let mut report = RunReport::default();
        report.count(key, want + 1);
        check(&mut report, workload, seed, seconds);
        assert!(!report.correct());
        let mut report = RunReport::default();
        check(&mut report, workload, seed + 1_000, seconds);
        assert!(report.correct() && report.checks.is_empty());
    }
}
