//! Line ceilings for DESIGN and README, and checks that what the documents
//! cite still exists.
//!
//! Each document has one job — DESIGN says why the code is built as it is,
//! README how to build and run it — and each fact lives in one of them. The
//! ceilings keep both short enough to stay that way, as
//! `tests/detector_allocs.rs` keeps allocation counts: a change that needs
//! more prose raises a ceiling here, visibly, in its own diff. The other two
//! checks keep the shorter documents from rotting: every backticked
//! repository path in DESIGN, README and EXPERIMENTS names a file that
//! exists, and every citation of a DESIGN section — in those documents or in
//! a comment in the code — names a heading DESIGN still has, and, for
//! "decision N" or "item N", a numbered entry under it. Code cites no
//! ROADMAP item by its number, which changes when ROADMAP is re-anchored.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const DESIGN_MAX_LINES: usize = 600;
const README_MAX_LINES: usize = 300;

/// The documents whose backticked paths must name files.
const DOCS: [&str; 3] = ["DESIGN.md", "README.md", "EXPERIMENTS.md"];

/// A backticked token ending in one of these is a repository path.
const PATH_EXTENSIONS: [&str; 5] = [".rs", ".md", ".grtrace", ".txt", ".json"];

/// The directories whose Rust sources are searched for DESIGN citations.
const CODE_DIRS: [&str; 4] = ["crates", "src", "tests", "examples"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &Path) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{}: {e}", rel.display()))
}

/// Every file under `dir` (relative to the root), skipping build output.
fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(root().join(dir)) else {
        return;
    };
    for entry in entries {
        let entry = entry.expect("a readable directory entry");
        let rel = dir.join(entry.file_name());
        if entry.file_type().expect("a file type").is_dir() {
            if entry.file_name() != "target" && entry.file_name() != ".git" {
                files_under(&rel, out);
            }
        } else {
            out.push(rel);
        }
    }
}

#[test]
fn design_and_readme_stay_under_their_line_ceilings() {
    for (doc, ceiling) in [
        ("DESIGN.md", DESIGN_MAX_LINES),
        ("README.md", README_MAX_LINES),
    ] {
        let lines = read(Path::new(doc)).lines().count();
        assert!(
            lines <= ceiling,
            "{doc} has {lines} lines, over its ceiling of {ceiling}: say it in fewer, move a \
             fact to the document that owns it, or raise the ceiling in tests/doc_ceilings.rs"
        );
    }
}

/// The inline code spans of a Markdown text, fenced blocks left out.
fn inline_code(text: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// The repository path a code span names, if it names one: `a/b.rs`,
/// `a/b.rs:12` or `a/b.rs::item` all name `a/b.rs`.
fn cited_path(span: &str) -> Option<&str> {
    let path = span.split("::").next()?;
    let path = match path.rsplit_once(':') {
        Some((p, line)) if line.bytes().all(|b| b.is_ascii_digit()) => p,
        _ => path,
    };
    let name = path.rsplit('/').next()?;
    let is_path = path
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b"_./-".contains(&b));
    let has_extension = PATH_EXTENSIONS
        .iter()
        .any(|ext| name.len() > ext.len() && name.ends_with(ext));
    (is_path && has_extension && !name.starts_with('.')).then_some(path)
}

#[test]
fn backticked_repo_paths_name_existing_files() {
    let mut all = Vec::new();
    files_under(Path::new(""), &mut all);
    let names: BTreeSet<String> = all
        .iter()
        .filter_map(|p| Some(p.file_name()?.to_str()?.to_string()))
        .collect();
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        for span in inline_code(&read(Path::new(doc))) {
            let Some(path) = cited_path(&span) else {
                continue;
            };
            checked += 1;
            // A bare file name is a name some file in the tree has; a path
            // is from the repository root.
            let found = if path.contains('/') {
                root().join(path).is_file()
            } else {
                names.contains(path)
            };
            if !found {
                missing.push(format!("{doc}: `{span}`"));
            }
        }
    }
    assert!(
        checked >= 50,
        "only {checked} cited paths found: is the scan broken?"
    );
    assert!(
        missing.is_empty(),
        "cited paths that name no file:\n{}",
        missing.join("\n")
    );
}

/// DESIGN's `## ` sections by label (`4`, `4b`, …), each with the numbers
/// of its numbered entries (`1. **…`).
fn design_sections() -> Vec<(String, BTreeSet<u32>)> {
    let mut sections: Vec<(String, BTreeSet<u32>)> = Vec::new();
    for line in read(Path::new("DESIGN.md")).lines() {
        if let Some(heading) = line.strip_prefix("## ") {
            let label = heading.split('.').next().unwrap_or_default();
            sections.push((label.to_string(), BTreeSet::new()));
        } else if let Some((_, entries)) = sections.last_mut() {
            let entry = line.trim_start();
            let digits: String = entry.chars().take_while(char::is_ascii_digit).collect();
            if !digits.is_empty()
                && line.len() - entry.len() <= 3
                && entry[digits.len()..].starts_with(". ")
            {
                entries.insert(digits.parse().expect("an entry number"));
            }
        }
    }
    sections
}

/// One citation of a DESIGN section, and the numbered entries it names.
#[derive(Debug)]
struct Citation {
    section: String,
    entries: Vec<u32>,
    text: String,
}

fn digits_at(text: &str) -> Option<(u32, usize)> {
    let n = text.bytes().take_while(u8::is_ascii_digit).count();
    Some((text[..n].parse().ok()?, n))
}

/// The DESIGN citations in `text`, read as one line. A citation is `§`
/// and a section label after `DESIGN ` or `DESIGN.md `, or any `§4b`…`§4j`
/// (the paper has no such section), or in DESIGN itself any `§N decision`;
/// a label may go on with `decision(s)` or `item(s)` and numbers (`1`,
/// `7–8`, `3 and 6`), and a list (`, §4c`, `/§4j`, ` and §4f`) carries
/// the citation on.
fn citations(text: &str, in_design: bool) -> Vec<Citation> {
    let mut out = Vec::new();
    let mut list_end = None;
    for (at, _) in text.match_indices('§') {
        let rest = &text[at + '§'.len_utf8()..];
        let Some((_, digits)) = digits_at(rest) else {
            continue;
        };
        // `§4b` is a label; `§4be…` is not.
        let mut after = rest[digits..].chars();
        let letter = match (after.next(), after.next()) {
            (Some(c), next)
                if c.is_ascii_lowercase() && !next.is_some_and(char::is_alphanumeric) =>
            {
                Some(c)
            }
            _ => None,
        };
        let label = &rest[..digits + letter.map_or(0, char::len_utf8)];
        let mut tail = &rest[label.len()..];
        let numbered = [" decisions ", " decision ", " items ", " item "]
            .iter()
            .find_map(|w| tail.strip_prefix(w));
        let listed = list_end.is_some_and(|end| [", ", "/", " and "].contains(&&text[end..at]));
        let design = text[..at].ends_with("DESIGN ")
            || text[..at].ends_with("DESIGN.md ")
            || (label.starts_with('4') && letter.is_some_and(|c| ('b'..='j').contains(&c)))
            || (in_design && numbered.is_some())
            || listed;
        if !design {
            list_end = None;
            continue;
        }
        let mut entries = Vec::new();
        if let Some(numbers) = numbered {
            tail = numbers;
            let mut range_from = None;
            while let Some((n, len)) = digits_at(tail) {
                match range_from.take() {
                    Some(from) => entries.extend(from..=n),
                    None => entries.push(n),
                }
                tail = &tail[len..];
                if let Some(next) = tail.strip_prefix('–').or_else(|| tail.strip_prefix('-')) {
                    range_from = entries.pop();
                    tail = next;
                } else if let Some(next) = tail
                    .strip_prefix(", ")
                    .or_else(|| tail.strip_prefix(" and "))
                {
                    if !next.starts_with(|c: char| c.is_ascii_digit()) {
                        break;
                    }
                    tail = next;
                } else {
                    break;
                }
            }
        }
        let end = text.len() - tail.len();
        list_end = Some(end);
        out.push(Citation {
            section: label.to_string(),
            entries,
            text: text[at..end].to_string(),
        });
    }
    out
}

/// Every Rust source under [`CODE_DIRS`].
fn rust_sources() -> Vec<PathBuf> {
    let mut files = Vec::new();
    for dir in CODE_DIRS {
        files_under(Path::new(dir), &mut files);
    }
    files.retain(|f| f.extension().is_some_and(|e| e == "rs"));
    files
}

/// A file's text as one line, with comment markers dropped, so a citation
/// that wraps is read whole.
fn as_one_line(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let line = line.trim_start();
        let line = ["//!", "///", "//"]
            .iter()
            .find_map(|m| line.strip_prefix(m))
            .unwrap_or(line);
        out.push_str(line.trim());
        out.push(' ');
    }
    out
}

#[test]
fn design_citations_name_headings_that_exist() {
    let sections = design_sections();
    assert!(sections.len() >= 10, "DESIGN's sections were not found");
    let mut sources: Vec<PathBuf> = DOCS.iter().map(PathBuf::from).collect();
    sources.extend(rust_sources());
    let mut broken = Vec::new();
    let mut citing = BTreeSet::new();
    // This file's own examples of citations are not citations.
    for source in sources.iter().filter(|s| *s != Path::new(file!())) {
        let in_design = source == Path::new("DESIGN.md");
        for c in citations(&as_one_line(&read(source)), in_design) {
            citing.insert(source.clone());
            match sections.iter().find(|(label, _)| *label == c.section) {
                None => broken.push(format!(
                    "{}: `{}` names no heading",
                    source.display(),
                    c.text
                )),
                Some((_, entries)) => {
                    for n in c.entries.iter().filter(|n| !entries.contains(n)) {
                        broken.push(format!(
                            "{}: `{}` — §{} has no entry {n}",
                            source.display(),
                            c.text,
                            c.section
                        ));
                    }
                }
            }
        }
    }
    for expected in [
        "README.md",
        "EXPERIMENTS.md",
        "DESIGN.md",
        "crates/runtime/src/kernel.rs",
        "crates/deploy/src/sim.rs",
        "crates/obs/src/report.rs",
    ] {
        assert!(
            citing.contains(Path::new(expected)),
            "no DESIGN citation found in {expected}: is the scan broken?"
        );
    }
    assert!(
        broken.is_empty(),
        "DESIGN citations that name nothing:\n{}",
        broken.join("\n")
    );
}

/// ROADMAP's items are renumbered whenever it is re-anchored, so code that
/// cites one by number comes to name another; it says what it means.
#[test]
fn code_cites_no_roadmap_item_by_number() {
    let sources = rust_sources();
    assert!(sources.len() >= 100, "only {} Rust sources found", sources.len());
    let citing: Vec<String> = sources
        .iter()
        .filter(|s| *s != Path::new(file!()))
        .filter(|s| as_one_line(&read(s)).contains("ROADMAP item"))
        .map(|s| s.display().to_string())
        .collect();
    assert!(
        citing.is_empty(),
        "Rust sources that cite a ROADMAP item by number:\n{}",
        citing.join("\n")
    );
}

#[test]
fn the_citation_reader_reads_lists_ranges_and_entries() {
    let read = |text: &str| -> Vec<(String, Vec<u32>)> {
        citations(text, false)
            .into_iter()
            .map(|c| (c.section, c.entries))
            .collect()
    };
    let own = |s: &str| s.to_string();
    assert_eq!(read("DESIGN.md §4 decision 1 holds"), [(own("4"), vec![1])]);
    assert_eq!(
        read("See DESIGN.md §4e/§4j."),
        [(own("4e"), vec![]), (own("4j"), vec![])]
    );
    assert_eq!(
        read("DESIGN §4 decisions 7–8, §4f |"),
        [(own("4"), vec![7, 8]), (own("4f"), vec![])]
    );
    assert_eq!(
        read("DESIGN §4 decisions 3 and 6, §4j |"),
        [(own("4"), vec![3, 6]), (own("4j"), vec![])]
    );
    assert_eq!(read("the intake (§4j): wire"), [(own("4j"), vec![])]);
    // The paper's own sections are not DESIGN's.
    assert!(read("every §4 listing, §3.3.1's hash, §4.9.2").is_empty());
    assert_eq!(citations("§4b item 4", true)[0].entries, [4]);
}
