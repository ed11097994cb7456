//! Pins the parsed trees, not how they are laid out.
//!
//! `format!("{file:?}")` of a parsed [`File`](grs::golite::ast::File) shows
//! every node, spelling and position, but neither a `Vec`'s capacity nor
//! whether a field sits behind a `Box`: a change to the tree's memory
//! layout keeps this digest, and a change to what the parser builds moves
//! it. One FNV-1a digest folds the `Debug` text of every file parsed from:
//!
//! * the first 256 generated Go tests of seed 1 (the `corpus_live` input);
//! * a 0.001-scale generated monorepo of seed 1 (a `static_scan` input);
//! * the lint renditions, racy and fixed;
//! * the embedded snippets, the paper's listings as Go source.

use grs::corpus::{go_snippets, GoCorpus, GoCorpusSpec, GoTestGen, GoTestSpec};
use grs::golite::parse_file;
use grs::obs::Fnv1a;
use grs::patterns::gosrc::renditions;

/// Files folded and their digest, captured before the parser allocated
/// each list at its length and `Stmt::For` boxed its rare fields.
const PINNED_FILES: usize = 412;
const PINNED_TREE_DIGEST: u64 = 0x2ea4_00d4_629a_da5c;

fn sources() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = GoTestGen::new(GoTestSpec::default_mix(), 1)
        .iter(256)
        .map(|t| (t.name, t.source))
        .collect();
    out.extend(GoCorpus::generate(&GoCorpusSpec::paper_scaled(0.001), 1).files);
    for r in renditions() {
        out.push((format!("{}/racy", r.pattern_id), r.racy.to_string()));
        out.push((format!("{}/fixed", r.pattern_id), r.fixed.to_string()));
    }
    for s in go_snippets() {
        out.push((s.name.to_string(), s.source.to_string()));
    }
    out
}

#[test]
fn parsed_trees_reproduce_the_pinned_digest() {
    let mut h = Fnv1a::new();
    let sources = sources();
    for (name, src) in &sources {
        let file = parse_file(src).unwrap_or_else(|e| panic!("{name}: parse error {e}"));
        h.write(name.as_bytes());
        h.write(&[0]);
        h.write(format!("{file:?}").as_bytes());
        h.write(&[0xff]);
    }
    let digest = h.finish();
    assert_eq!(
        (sources.len(), digest),
        (PINNED_FILES, PINNED_TREE_DIGEST),
        "{} files hashing to {digest:#018x}",
        sources.len()
    );
}
