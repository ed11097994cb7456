//! Seeded property tests for the deployment pipeline: fingerprint
//! invariances (§3.3.1) and tracker bookkeeping under random workloads.
//!
//! Each property is checked over a few hundred cases drawn from a
//! fixed-seed `StdRng` (the vendored `rand` stub), so failures are
//! perfectly reproducible: the case index pins the inputs.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use grs_clock::Lockset;
use grs_deploy::{naive_fingerprint, race_fingerprint, BugTracker, Fingerprint};
use grs_detector::{DetectorChoice, RaceAccess, RaceReport};
use grs_runtime::{AccessKind, Addr, Frame, Gid, Stack};

const CASES: usize = 400;

/// Runs `body` over `CASES` cases from a per-property deterministic rng.
fn check(seed: u64, mut body: impl FnMut(usize, &mut StdRng)) {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..CASES {
        body(case, &mut rng);
    }
}

/// `len` letters starting at `first`, e.g. an object name or the tail of
/// a function name.
fn letters(rng: &mut StdRng, first: u8, len: usize) -> String {
    (0..len)
        .map(|_| char::from(first + rng.gen_range(0..26u8)))
        .collect()
}

/// A shared object's name: 1..=8 lowercase letters.
fn gen_object(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1..9usize);
    letters(rng, b'a', len)
}

/// A call chain of 1..=4 capitalized function names.
fn gen_chain(rng: &mut StdRng) -> Vec<String> {
    (0..rng.gen_range(1..5usize))
        .map(|_| {
            let tail = rng.gen_range(1..7usize);
            letters(rng, b'A', 1) + &letters(rng, b'a', tail)
        })
        .collect()
}

fn gen_lines(rng: &mut StdRng) -> Vec<u32> {
    (0..8).map(|_| rng.gen_range(0..1000u32)).collect()
}

#[allow(clippy::too_many_arguments)]
fn report(
    object: &str,
    chain_a: &[String],
    lines_a: &[u32],
    chain_b: &[String],
    lines_b: &[u32],
    line_a: u32,
    line_b: u32,
) -> RaceReport {
    let stack = |chain: &[String], lines: &[u32]| {
        Stack::from_frames(
            chain
                .iter()
                .zip(lines.iter().chain(std::iter::repeat(&0)))
                .map(|(f, l)| Frame {
                    func: Arc::from(f.as_str()),
                    call_line: *l,
                })
                .collect(),
        )
    };
    RaceReport {
        addr: Addr(1),
        object: Arc::from(object),
        prior: RaceAccess {
            gid: Gid(0),
            kind: AccessKind::Write,
            stack: stack(chain_a, lines_a),
            file: Arc::from("a.go"),
            line: line_a,
            locks_held: Lockset::new(),
        },
        current: RaceAccess {
            gid: Gid(1),
            kind: AccessKind::Read,
            stack: stack(chain_b, lines_b),
            file: Arc::from("a.go"),
            line: line_b,
            locks_held: Lockset::new(),
        },
        detector: DetectorChoice::Hybrid,
        program: None,
        repro_seed: None,
        repro: None,
    }
}

/// The paper fingerprint ignores every line number in the report.
#[test]
fn fingerprint_ignores_all_line_numbers() {
    check(0xF1, |case, rng| {
        let (object, chain_a, chain_b) = (gen_object(rng), gen_chain(rng), gen_chain(rng));
        let at = |lines: Vec<u32>| {
            let (a, b) = lines.split_at(4);
            report(&object, &chain_a, a, &chain_b, b, lines[0], lines[1])
        };
        let (r1, r2) = (at(gen_lines(rng)), at(gen_lines(rng)));
        assert_eq!(race_fingerprint(&r1), race_fingerprint(&r2), "case {case}");
    });
}

/// Swapping the two call chains (the other detection order) does not
/// change the fingerprint.
#[test]
fn fingerprint_is_orientation_free() {
    check(0x0F, |case, rng| {
        let (object, chain_a, chain_b) = (gen_object(rng), gen_chain(rng), gen_chain(rng));
        let fwd = report(&object, &chain_a, &[], &chain_b, &[], 1, 2);
        let mut rev = report(&object, &chain_b, &[], &chain_a, &[], 2, 1);
        std::mem::swap(&mut rev.prior.kind, &mut rev.current.kind);
        assert_eq!(
            race_fingerprint(&fwd),
            race_fingerprint(&rev),
            "case {case}"
        );
    });
}

/// Distinct chains (almost) never collide — and whenever the paper
/// fingerprint separates two reports, so does identity of their chains.
#[test]
fn distinct_chains_get_distinct_fingerprints() {
    check(0xD1, |case, rng| {
        let object = gen_object(rng);
        let (chain_a, chain_b, chain_c) = (gen_chain(rng), gen_chain(rng), gen_chain(rng));
        // Orientation-freedom means {a,b} vs {a,c} coincide when sorting
        // reorders them into the same pair; skip those draws.
        let mut p1 = [chain_a.clone(), chain_b.clone()];
        let mut p2 = [chain_a.clone(), chain_c.clone()];
        p1.sort();
        p2.sort();
        if p1 == p2 {
            return;
        }
        let r1 = report(&object, &chain_a, &[], &chain_b, &[], 1, 2);
        let r2 = report(&object, &chain_a, &[], &chain_c, &[], 1, 2);
        assert_ne!(race_fingerprint(&r1), race_fingerprint(&r2), "case {case}");
    });
}

/// The naive fingerprint IS line-sensitive (that is exactly its flaw).
#[test]
fn naive_fingerprint_changes_with_lines() {
    check(0x7A, |case, rng| {
        let (object, chain) = (gen_object(rng), gen_chain(rng));
        let l1 = rng.gen_range(1..500u32);
        let l2 = l1 + rng.gen_range(1..500u32);
        let r1 = report(&object, &chain, &[], &chain, &[], l1, l1);
        let r2 = report(&object, &chain, &[], &chain, &[], l2, l2);
        assert_ne!(
            naive_fingerprint(&r1),
            naive_fingerprint(&r2),
            "case {case}"
        );
        assert_eq!(race_fingerprint(&r1), race_fingerprint(&r2), "case {case}");
    });
}

/// Tracker bookkeeping: after any interleaving of filings and fixes,
/// outstanding == filed - fixed, and a fingerprint has at most one open
/// task.
#[test]
fn tracker_accounting_invariants() {
    check(0x7C, |case, rng| {
        let mut tracker = BugTracker::new();
        for day in 0..rng.gen_range(1..60u32) {
            let fp = Fingerprint(rng.gen_range(0..10u64));
            let id = tracker.file(fp, day, None);
            if rng.gen_bool(0.5) {
                if let Some(id) = id {
                    tracker.fix(id, day, "eng", u64::from(day));
                }
            }
            assert_eq!(
                tracker.outstanding(),
                tracker.total_filed() - tracker.total_fixed(),
                "case {case} day {day}"
            );
            // No fingerprint may have two open tasks.
            let mut open_fps: Vec<_> = tracker
                .open_tasks()
                .map(|t| tracker.task(t).expect("open task exists").fingerprint)
                .collect();
            let before = open_fps.len();
            open_fps.sort_unstable();
            open_fps.dedup();
            assert_eq!(
                open_fps.len(),
                before,
                "case {case}: duplicate open fingerprints"
            );
        }
    });
}
