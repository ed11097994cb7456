//! `golint` — the static race lint engine as a command-line driver.
//!
//! Lints the Go-source rendition corpus (every §4 bug shape, racy form)
//! and a synthetic monorepo, printing findings grouped by rule in the
//! paper's Table 2 / Table 3 order, then the per-rule totals at
//! monorepo scale.
//!
//! ```sh
//! cargo run --release --example golint            # compiler-style lines
//! cargo run --release --example golint -- --json  # machine-readable
//! cargo run --release --example golint -- --sarif # SARIF 2.1.0 log
//! ```

use grs::corpus::golint::lint_sources;
use grs::corpus::{golint, GoCorpus, GoCorpusSpec};
use grs::golite::{diag, Rule};
use grs::patterns::gosrc;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let sarif = args.iter().any(|a| a == "--sarif");

    // The rendition corpus: one racy file per bug shape.
    let renditions = gosrc::renditions();
    let files: Vec<(String, &str)> = renditions
        .iter()
        .map(|r| (format!("corpus/{}.go", r.pattern_id), r.racy))
        .collect();
    let report = lint_sources(files.iter().map(|(p, s)| (p.as_str(), *s)));

    if sarif {
        // Group the flat (path, finding) list back per file for the
        // SARIF artifact table.
        let mut per_file: Vec<(&str, Vec<grs::golite::Finding>)> = Vec::new();
        for (path, f) in &report.findings {
            match per_file.last_mut() {
                Some((p, v)) if *p == path.as_str() => v.push(f.clone()),
                _ => per_file.push((path.as_str(), vec![f.clone()])),
            }
        }
        let slices: Vec<(&str, &[grs::golite::Finding])> = per_file
            .iter()
            .map(|(p, v)| (*p, v.as_slice()))
            .collect();
        println!("{}", diag::sarif_json(slices));
        return;
    }
    if json {
        println!("{}", report.to_json());
        return;
    }

    println!("== findings by rule (Table 2 / Table 3 order) ==");
    for rule in Rule::ALL {
        let hits: Vec<_> = report
            .findings
            .iter()
            .filter(|(_, f)| f.rule == rule)
            .collect();
        println!(
            "\n{} {} — {} finding{}",
            rule.id(),
            rule,
            hits.len(),
            if hits.len() == 1 { "" } else { "s" },
        );
        for (path, f) in hits {
            println!("  {}", diag::render_line(path, f));
        }
    }

    // The same engine at monorepo scale.
    let spec = GoCorpusSpec::paper_scaled(0.001);
    let corpus = GoCorpus::generate(&spec, 42);
    let lines = corpus.lines();
    let monorepo = golint::lint_corpus(&corpus);
    println!("\n== synthetic monorepo scan ==");
    println!(
        "{} files, {} lines, {} findings ({:.0} per MLoC)",
        monorepo.files,
        lines,
        monorepo.total(),
        monorepo.per_mloc(lines),
    );
    for rule in Rule::ALL {
        let n = monorepo.count(rule);
        if n > 0 {
            println!("  {} {:<40} {n}", rule.id(), rule.to_string());
        }
    }
}
