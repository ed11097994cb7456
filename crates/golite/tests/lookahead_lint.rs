//! The parser dispatches on the current token. Everything that looks past
//! it is an allowance, and an allowance is written down: each `peek_at(`
//! call (one-token lookahead and the forward scans alike) and each cursor
//! restore in `src/parser.rs` must sit directly under a comment line
//! `// LOOKAHEAD: <why>`. This test is the lint — the accepted Go subset
//! can grow without growing accidental backtracking.

const PARSER: &str = include_str!("../src/parser.rs");

/// A reason shorter than this is a placeholder, not a reason.
const MIN_REASON: usize = 20;

/// Does this line of parser source look past the current token?
fn looks_ahead(code: &str) -> bool {
    let defines_the_accessor = code.contains("fn peek_at(");
    let restores_cursor = code.contains("self.pos = ");
    (code.contains("peek_at(") && !defines_the_accessor) || restores_cursor
}

/// `(1-based line, text)` of every lookahead site in `src` that lacks its
/// `// LOOKAHEAD: <why>` — searched for in the run of comment lines
/// directly above the site.
fn undocumented(src: &str) -> Vec<(usize, String)> {
    let lines: Vec<&str> = src.lines().collect();
    let is_comment = |l: &str| l.trim_start().starts_with("//");
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if is_comment(line) || !looks_ahead(line) {
            continue;
        }
        let documented = lines[..i]
            .iter()
            .rev()
            .take_while(|l| is_comment(l))
            .any(|l| {
                l.trim_start()
                    .strip_prefix("// LOOKAHEAD: ")
                    .is_some_and(|why| why.trim().len() >= MIN_REASON)
            });
        if !documented {
            out.push((i + 1, line.trim().to_string()));
        }
    }
    out
}

#[test]
fn every_lookahead_in_the_parser_says_why() {
    let missing = undocumented(PARSER);
    assert!(
        missing.is_empty(),
        "src/parser.rs looks past the current token without a \
         `// LOOKAHEAD: <why>` line directly above:\n{}",
        missing
            .iter()
            .map(|(n, l)| format!("  parser.rs:{n}: {l}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn the_parser_still_has_the_sites_the_lint_is_for() {
    // A lint that finds nothing to check proves nothing: the backtrack, the
    // two scans and the one-token peeks are all still there.
    let sites = PARSER
        .lines()
        .filter(|l| !l.trim_start().starts_with("//") && looks_ahead(l))
        .count();
    assert!(sites >= 10, "only {sites} lookahead sites found");
    assert!(PARSER.contains("self.pos = save;"), "the method-receiver backtrack");
    assert!(PARSER.contains("fn defines_ahead(") && PARSER.contains("fn range_ahead("));
}

#[test]
fn the_lint_catches_what_it_claims_to() {
    let bare = "fn f(&mut self) {\n    if self.peek_at(1) == Tok::Comma {\n    }\n}\n";
    assert_eq!(undocumented(bare).len(), 1, "bare peek_at");

    let restore = "let save = self.pos;\nself.bump();\nself.pos = save;\n";
    assert_eq!(undocumented(restore).len(), 1, "bare cursor restore");

    let scan = "loop {\n    match self.peek_at(i) {\n        _ => {}\n    }\n    i += 1;\n}\n";
    assert_eq!(undocumented(scan).len(), 1, "bare scan");

    let no_reason = "// LOOKAHEAD: needed\nif self.peek_at(1) == Tok::Comma {}\n";
    assert_eq!(undocumented(no_reason).len(), 1, "a reason, not a word");

    let detached =
        "// LOOKAHEAD: `a, b T` field groups need the comma to tell.\n\nself.peek_at(1);\n";
    assert_eq!(undocumented(detached).len(), 1, "the comment sits on the site");

    let documented = "if matches!(self.peek(), Tok::Ident(_))\n    \
         // LOOKAHEAD: `v ...T` — the name is variadic only before `...`,\n    \
         // which is one token away.\n    \
         && self.peek_at(1) == Tok::Ellipsis\n{}\n";
    assert!(undocumented(documented).is_empty(), "{:?}", undocumented(documented));

    // Advancing the cursor and defining the accessor are not lookahead.
    let advance = "self.pos += 1;\nfn peek_at(&self, n: usize) -> Tok<'src> {\n";
    assert!(undocumented(advance).is_empty());
}
