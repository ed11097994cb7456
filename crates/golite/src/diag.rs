//! Machine-readable diagnostics for the lint engine.
//!
//! Editors and CI pipelines want structure, not prose: every finding
//! serializes to a JSON object with a stable rule identifier (`GR001`…),
//! a severity, and a source location. The JSON is hand-rolled — the
//! offline build sanctions no serialization dependency — and strings go
//! through [`grs_obs::json_escape`], which escapes as RFC 8259 requires.

use grs_obs::json_escape;

use crate::lint::Finding;

/// One finding as a JSON object. The `chain` array carries the call hops
/// of interprocedural findings (empty for the intraprocedural rules).
#[must_use]
pub fn finding_json(path: &str, f: &Finding) -> String {
    let chain: Vec<String> = f
        .chain
        .iter()
        .map(|(callee, pos)| {
            format!(
                r#"{{"callee":"{}","line":{},"col":{}}}"#,
                json_escape(callee),
                pos.line,
                pos.col,
            )
        })
        .collect();
    format!(
        r#"{{"rule_id":"{}","rule":"{}","severity":"{}","file":"{}","line":{},"col":{},"func":"{}","message":"{}","chain":[{}]}}"#,
        f.rule.id(),
        json_escape(&f.rule.to_string()),
        f.rule.severity(),
        json_escape(path),
        f.pos.line,
        f.pos.col,
        json_escape(&f.func),
        json_escape(&f.message),
        chain.join(","),
    )
}

/// A whole report (one file's findings) as a JSON array.
#[must_use]
pub fn report_json(path: &str, findings: &[Finding]) -> String {
    let items: Vec<String> = findings.iter().map(|f| finding_json(path, f)).collect();
    format!("[{}]", items.join(","))
}

/// The compiler-style one-line rendering:
/// `path:line:col: error[GR007]: message (in Func)`, with a `via` note
/// listing the call chain when the finding crossed function boundaries.
#[must_use]
pub fn render_line(path: &str, f: &Finding) -> String {
    let mut line = format!(
        "{}:{}:{}: {}[{}]: {} (in {})",
        path,
        f.pos.line,
        f.pos.col,
        f.rule.severity(),
        f.rule.id(),
        f.message,
        f.func,
    );
    if !f.chain.is_empty() {
        let hops: Vec<String> = f
            .chain
            .iter()
            .map(|(callee, pos)| format!("{callee} at {}:{}", pos.line, pos.col))
            .collect();
        line.push_str(&format!("\n  note: via {}", hops.join(" -> ")));
    }
    line
}

/// A full report as a minimal SARIF 2.1.0 log: one run, one driver, the
/// fired rules in the `rules` table, one `result` per finding with its
/// location and — for interprocedural findings — the call chain as
/// `relatedLocations`.
#[must_use]
pub fn sarif_json<'a, I>(per_file: I) -> String
where
    I: IntoIterator<Item = (&'a str, &'a [Finding])>,
{
    use crate::lint::{Rule, Severity};
    use std::collections::BTreeSet;

    let files: Vec<(&str, &[Finding])> = per_file.into_iter().collect();

    let mut fired: BTreeSet<&'static str> = BTreeSet::new();
    for (_, findings) in &files {
        for f in *findings {
            fired.insert(f.rule.id());
        }
    }
    let rules: Vec<String> = Rule::ALL
        .into_iter()
        .filter(|r| fired.contains(r.id()))
        .map(|r| {
            format!(
                r#"{{"id":"{}","shortDescription":{{"text":"{}"}},"defaultConfiguration":{{"level":"{}"}}}}"#,
                r.id(),
                json_escape(&r.to_string()),
                sarif_level(r.severity()),
            )
        })
        .collect();

    let mut results = Vec::new();
    for (path, findings) in &files {
        for f in *findings {
            let related: Vec<String> = f
                .chain
                .iter()
                .map(|(callee, pos)| {
                    format!(
                        r#"{{"message":{{"text":"call to {}"}},"physicalLocation":{{"artifactLocation":{{"uri":"{}"}},"region":{{"startLine":{},"startColumn":{}}}}}}}"#,
                        json_escape(callee),
                        json_escape(path),
                        pos.line,
                        pos.col,
                    )
                })
                .collect();
            let related_part = if related.is_empty() {
                String::new()
            } else {
                format!(r#","relatedLocations":[{}]"#, related.join(","))
            };
            results.push(format!(
                r#"{{"ruleId":"{}","level":"{}","message":{{"text":"{}"}},"locations":[{{"physicalLocation":{{"artifactLocation":{{"uri":"{}"}},"region":{{"startLine":{},"startColumn":{}}}}}}}]{}}}"#,
                f.rule.id(),
                sarif_level(f.rule.severity()),
                json_escape(&f.message),
                json_escape(path),
                f.pos.line,
                f.pos.col,
                related_part,
            ));
        }
    }

    fn sarif_level(s: Severity) -> &'static str {
        match s {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    format!(
        concat!(
            r#"{{"version":"2.1.0","#,
            r#""$schema":"https://json.schemastore.org/sarif-2.1.0.json","#,
            r#""runs":[{{"tool":{{"driver":{{"name":"golint","#,
            r#""informationUri":"https://example.invalid/golite","#,
            r#""rules":[{}]}}}},"results":[{}]}}]}}"#,
        ),
        rules.join(","),
        results.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::Rule;
    use crate::token::Pos;

    fn sample() -> Finding {
        Finding {
            rule: Rule::MissingLock,
            pos: Pos { line: 7, col: 3 },
            func: "Get".to_string(),
            message: "unguarded \"version\"\there".to_string(),
            chain: Vec::new(),
        }
    }

    fn chained() -> Finding {
        Finding {
            rule: Rule::InterprocMissingLock,
            pos: Pos { line: 12, col: 5 },
            func: "Read".to_string(),
            message: "bare here, guarded elsewhere".to_string(),
            chain: vec![("bump".to_string(), Pos { line: 6, col: 5 })],
        }
    }

    #[test]
    fn json_escapes_quotes_and_tabs() {
        let j = finding_json("svc/store.go", &sample());
        assert!(j.contains(r#""rule_id":"GR007""#));
        assert!(j.contains(r#""severity":"error""#));
        assert!(j.contains(r#"unguarded \"version\"\there"#));
        assert!(j.contains(r#""line":7"#));
    }

    #[test]
    fn report_is_a_json_array() {
        let fs = [sample(), sample()];
        let j = report_json("a.go", &fs);
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert_eq!(j.matches("\"rule_id\"").count(), 2);
    }

    #[test]
    fn render_line_is_compiler_style() {
        let line = render_line("svc/store.go", &sample());
        assert!(line.starts_with("svc/store.go:7:3: error[GR007]:"));
        assert!(line.ends_with("(in Get)"));
    }

    #[test]
    fn chains_appear_in_json_and_notes() {
        let f = chained();
        let j = finding_json("a.go", &f);
        assert!(j.contains(r#""chain":[{"callee":"bump","line":6,"col":5}]"#));
        let line = render_line("a.go", &f);
        assert!(line.contains("note: via bump at 6:5"), "{line}");
    }

    #[test]
    fn sarif_has_rules_results_and_related_locations() {
        let fs = [sample(), chained()];
        let s = sarif_json([("a.go", fs.as_slice())]);
        assert!(s.contains(r#""version":"2.1.0""#));
        assert!(s.contains(r#""id":"GR007""#));
        assert!(s.contains(r#""id":"GR013""#));
        assert!(s.contains(r#""ruleId":"GR013""#));
        assert!(s.contains(r#""relatedLocations""#));
        assert!(s.contains(r#""startLine":12"#));
        // Rules that never fired stay out of the table.
        assert!(!s.contains(r#""id":"GR001""#));
    }
}
