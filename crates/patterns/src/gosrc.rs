//! Go-source renditions of the pattern corpus, one per lint rule.
//!
//! The executable patterns in this crate exercise the *dynamic* detector;
//! these are the same bugs written as Go-lite source, so the *static*
//! engine (`grs-golite`'s `GR001`–`GR018`) can be scored against the
//! dynamic detector on identical material. Each rendition carries the
//! pattern ID of its executable twin — the agreement experiment in
//! `grs::experiments` joins the two corpora on that key.
//!
//! `GR013`–`GR018` are the interprocedural rules: each of those
//! renditions splits its bug across at least two functions, so it is
//! invisible to a single-function analysis and only falls out of the
//! call-graph summaries.
//!
//! The texts live in the one rendition set, [`grs_corpus::listings()`];
//! this module is the view of its [`Truth::Agrees`] entries, in the set's
//! (rule) order. A rendition names its rule by stable ID string, and the
//! engine side resolves it.

use grs_corpus::{listings, Listing, Truth};

/// One bug written twice: racy Go and the developers' fix.
#[derive(Debug, Clone, Copy)]
pub struct GoRendition {
    /// ID of the executable [`crate::Pattern`] this is the source form of.
    pub pattern_id: &'static str,
    /// The lint rule (`GR001`…`GR018`) that must fire on `racy` and stay
    /// silent on `fixed`.
    pub rule: &'static str,
    /// Go-lite source containing the race.
    pub racy: &'static str,
    /// Go-lite source with the paper's fix applied.
    pub fixed: &'static str,
}

/// All renditions, one per lint rule, in rule-ID order.
#[must_use]
pub fn renditions() -> Vec<GoRendition> {
    let view = |l: &Listing| match (l.truth, l.twin, l.rule, l.fixed) {
        (Truth::Agrees, Some(pattern_id), Some(rule), &[fixed]) => Some(GoRendition {
            pattern_id,
            rule,
            racy: l.racy,
            fixed,
        }),
        _ => None,
    };
    let mut out = Vec::with_capacity(listings().iter().filter_map(view).count());
    out.extend(listings().iter().filter_map(view));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renditions_cover_all_eighteen_rules_in_order() {
        let rules: Vec<&str> = renditions().iter().map(|r| r.rule).collect();
        let expected: Vec<String> = (1..=18).map(|n| format!("GR{n:03}")).collect();
        assert_eq!(rules, expected);
    }
}
