//! Pins *which* static findings `lint_file` produces, not only how many.
//!
//! `benchmark/expected.txt` holds finding counts; the interprocedural
//! layer breaks ties by first seen (`summary::dedup_findings`, the
//! `MAX_ACCESSES` cap), so a refactor can keep every count and still move
//! a position, a message or a call chain. Each constant below is an FNV-1a
//! hash over every finding's rule id, position, function, message and
//! chain, file by file, for a generated monorepo, generated tests and the
//! lint renditions — the same three input kinds `static_scan` reads.

use grs::corpus::{GoCorpus, GoCorpusSpec, GoTestGen, GoTestSpec};
use grs::golite::{lint_file, parse_file};
use grs::obs::Fnv1a;
use grs::patterns::gosrc::renditions;

/// Share of the paper's monorepo generated per seed (≈ 46 K lines).
const MONOREPO_SCALE: f64 = 0.001;
/// Generated standalone tests per seed.
const TESTS: u64 = 800;

fn sources(seed: u64) -> Vec<(String, String)> {
    let mut out = GoCorpus::generate(&GoCorpusSpec::paper_scaled(MONOREPO_SCALE), seed).files;
    out.extend(
        GoTestGen::new(GoTestSpec::default_mix(), seed)
            .iter(TESTS)
            .map(|t| (t.name, t.source)),
    );
    for r in renditions() {
        out.push((format!("{}/racy", r.pattern_id), r.racy.to_string()));
        out.push((format!("{}/fixed", r.pattern_id), r.fixed.to_string()));
    }
    out
}

/// `(hash, findings)` over every source of `seed`.
fn findings_hash(seed: u64) -> (u64, usize) {
    let mut h = Fnv1a::new();
    let mut total = 0;
    for (name, src) in sources(seed) {
        let file = parse_file(&src).unwrap_or_else(|e| panic!("{name}: parse error {e}"));
        h.write(name.as_bytes());
        for f in lint_file(&file) {
            total += 1;
            h.write(f.rule.id().as_bytes());
            h.write(&f.pos.line.to_le_bytes());
            h.write(&f.pos.col.to_le_bytes());
            h.write(f.func.as_bytes());
            h.write(&[0]);
            h.write(f.message.as_bytes());
            h.write(&[0]);
            for (callee, pos) in &f.chain {
                h.write(callee.as_bytes());
                h.write(&pos.line.to_le_bytes());
                h.write(&pos.col.to_le_bytes());
            }
            h.write(&[0xff]);
        }
    }
    (h.finish(), total)
}

/// `(seed, hash, findings)`, captured at 88f77b7 — the commit before the
/// flow table replaced the three lockset derivations.
const PINNED: [(u64, u64, usize); 2] = [
    (1, 0xbc35_0c7b_ae68_8fbc, 241),
    (2, 0x37b4_164a_87fa_1c0c, 256),
];

#[test]
fn lint_findings_reproduce_the_pinned_hashes() {
    for (seed, hash, count) in PINNED {
        let (got_hash, got_count) = findings_hash(seed);
        assert_eq!(
            (got_count, got_hash),
            (count, hash),
            "seed {seed}: {got_count} findings hashing to {got_hash:#018x}"
        );
    }
}
