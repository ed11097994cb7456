//! §3.3.1's duplicate-resilient race fingerprint.
//!
//! Hashing the raw race report (function names *and* line numbers, in
//! detection order) duplicates tasks whenever an unrelated edit shifts line
//! numbers or the two accesses happen to execute in the other order. The
//! paper's fingerprint therefore
//!
//! 1. drops the line numbers from both call chains, and
//! 2. orders the two chains lexicographically before hashing.
//!
//! [`race_fingerprint`] implements that for a report, and
//! [`race_fingerprint_ids`] for a detector's id-only [`Race`], reading the
//! names in place from the run's depot; both hash through one function
//! over the parts, so they agree by construction.
//! [`naive_fingerprint`] implements the strawman, kept for the dedup
//! ablation benchmark which quantifies the duplicate inflation the paper's
//! design avoids.
//!
//! The hash itself is FNV-1a, chosen because it is stable across processes
//! and Rust versions (a fingerprint stored in a bug database must mean the
//! same thing tomorrow).

use std::fmt;

use grs_detector::{Race, RaceReport};
use grs_obs::Fnv1a;
use grs_runtime::{Stack, StackDepot};

/// A stable 64-bit race identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "race:{:016x}", self.0)
    }
}

fn hash_str(h: &mut Fnv1a, s: &str) {
    h.write(s.as_bytes());
    // Terminate with a sentinel so ["ab","c"] != ["a","bc"].
    h.write(&[0]);
}

/// The line-number-free projection of a stack: its function names, root
/// first.
fn chain(stack: &Stack) -> impl Iterator<Item = &str> + Clone {
    stack.frames().iter().map(|f| &*f.func)
}

/// The hash of §3.3.1 over its parts: the object's name and the two call
/// chains' function names, root first. The chains are hashed in
/// lexicographic order, so the pair is orientation-free; line numbers are
/// not among the parts.
fn fingerprint_parts<'a, I>(object: &str, chain_a: I, chain_b: I) -> Fingerprint
where
    I: Iterator<Item = &'a str> + Clone,
{
    let (first, second) = if chain_a.clone().le(chain_b.clone()) {
        (chain_a, chain_b)
    } else {
        (chain_b, chain_a)
    };
    let mut h = Fnv1a::new();
    hash_str(&mut h, object);
    first.for_each(|f| hash_str(&mut h, f));
    hash_str(&mut h, "||");
    second.for_each(|f| hash_str(&mut h, f));
    Fingerprint(h.finish())
}

/// The paper's fingerprint: line-insensitive, orientation-insensitive.
///
/// # Example
///
/// Two reports whose stacks differ only in line numbers, or that observed
/// the two accesses in opposite orders, fingerprint identically:
///
/// ```
/// use grs_detector::DetectorChoice;
/// use grs_deploy::race_fingerprint;
/// use grs_patterns::find;
/// use grs_runtime::RunConfig;
///
/// let program = find("missing_lock").expect("in corpus").racy_program();
/// let races: Vec<_> = (1..=40)
///     .flat_map(|seed| DetectorChoice::Hybrid.run(&program, RunConfig::with_seed(seed)).1)
///     .collect();
/// assert!(!races.is_empty());
/// let fps: std::collections::HashSet<_> =
///     races.iter().map(race_fingerprint).collect();
/// // Every schedule's report — either orientation — is one logical bug.
/// assert_eq!(fps.len(), 1);
/// ```
#[must_use]
pub fn race_fingerprint(report: &RaceReport) -> Fingerprint {
    let (a, b) = report.stacks();
    fingerprint_parts(&report.object, chain(a), chain(b))
}

/// [`race_fingerprint`] of the report `race` would build, read from the
/// `depot` of the run that found it: the name and both chains are walked
/// in place under one depot lock, and nothing is resolved or allocated.
#[must_use]
pub fn race_fingerprint_ids(depot: &StackDepot, race: &Race) -> Fingerprint {
    depot.with_chains(race.object, race.prior.stack, race.current.stack, |object, a, b| {
        fingerprint_parts(object, a, b)
    })
}

/// The strawman fingerprint §3.3.1 argues against: includes line numbers
/// and preserves the detection order of the two chains.
#[must_use]
pub fn naive_fingerprint(report: &RaceReport) -> Fingerprint {
    let mut h = Fnv1a::new();
    hash_str(&mut h, &report.object);
    for access in [&report.prior, &report.current] {
        for f in access.stack.frames() {
            hash_str(&mut h, &f.func);
            h.write(&f.call_line.to_le_bytes());
        }
        hash_str(&mut h, &access.file);
        h.write(&access.line.to_le_bytes());
        hash_str(&mut h, "||");
    }
    Fingerprint(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use grs_clock::Lockset;
    use grs_detector::{DetectorChoice, RaceAccess};
    use grs_runtime::{AccessKind, Addr, Frame, Gid};
    use std::sync::Arc;

    fn stack(funcs: &[(&str, u32)]) -> Stack {
        Stack::from_frames(
            funcs
                .iter()
                .map(|(f, l)| Frame {
                    func: Arc::from(*f),
                    call_line: *l,
                })
                .collect(),
        )
    }

    fn report(s1: Stack, l1: u32, s2: Stack, l2: u32) -> RaceReport {
        RaceReport {
            addr: Addr(1),
            object: Arc::from("results"),
            prior: RaceAccess {
                gid: Gid(0),
                kind: AccessKind::Write,
                stack: s1,
                file: Arc::from("svc/handler.go"),
                line: l1,
                locks_held: Lockset::new(),
            },
            current: RaceAccess {
                gid: Gid(1),
                kind: AccessKind::Read,
                stack: s2,
                file: Arc::from("svc/handler.go"),
                line: l2,
                locks_held: Lockset::new(),
            },
            detector: DetectorChoice::Hybrid,
            program: None,
            repro_seed: None,
            repro: None,
        }
    }

    #[test]
    fn insensitive_to_line_numbers() {
        let a = report(
            stack(&[("main", 1), ("P", 10)]),
            20,
            stack(&[("main", 1), ("Q", 30)]),
            40,
        );
        let b = report(
            stack(&[("main", 5), ("P", 99)]),
            77,
            stack(&[("main", 2), ("Q", 88)]),
            66,
        );
        assert_eq!(race_fingerprint(&a), race_fingerprint(&b));
        assert_ne!(naive_fingerprint(&a), naive_fingerprint(&b));
    }

    #[test]
    fn insensitive_to_access_order() {
        let a = report(stack(&[("A", 0)]), 1, stack(&[("P", 0)]), 2);
        let mut b = report(stack(&[("P", 0)]), 2, stack(&[("A", 0)]), 1);
        b.prior.kind = AccessKind::Read;
        b.current.kind = AccessKind::Write;
        assert_eq!(race_fingerprint(&a), race_fingerprint(&b));
        assert_ne!(naive_fingerprint(&a), naive_fingerprint(&b));
    }

    #[test]
    fn different_chains_differ() {
        let a = report(stack(&[("A", 0)]), 1, stack(&[("P", 0)]), 2);
        let c = report(stack(&[("A", 0)]), 1, stack(&[("R", 0)]), 2);
        assert_ne!(race_fingerprint(&a), race_fingerprint(&c));
    }

    #[test]
    fn chain_boundaries_matter() {
        // ["ab"] vs ["a","b"] must hash differently.
        let a = report(stack(&[("ab", 0)]), 1, stack(&[("X", 0)]), 2);
        let b = report(stack(&[("a", 0), ("b", 0)]), 1, stack(&[("X", 0)]), 2);
        assert_ne!(race_fingerprint(&a), race_fingerprint(&b));
    }

    #[test]
    fn object_name_is_part_of_identity() {
        let a = report(stack(&[("A", 0)]), 1, stack(&[("P", 0)]), 2);
        let mut b = report(stack(&[("A", 0)]), 1, stack(&[("P", 0)]), 2);
        b.object = Arc::from("otherVar");
        assert_ne!(race_fingerprint(&a), race_fingerprint(&b));
    }

    #[test]
    fn display_is_hex() {
        let a = report(stack(&[("A", 0)]), 1, stack(&[("P", 0)]), 2);
        let s = race_fingerprint(&a).to_string();
        assert!(s.starts_with("race:"));
        assert_eq!(s.len(), "race:".len() + 16);
    }
}
