//! **Go-lite**: a compiler frontend for a substantial subset of Go.
//!
//! The study's Table 1 is a *static* experiment: scan a 46-MLoC Go monorepo
//! (and a 19-MLoC Java one) for concurrency-creation, point-to-point
//! synchronization, and group-synchronization constructs, and compare
//! per-MLoC densities. The paper also closes by suggesting its bug patterns
//! "can inspire further research in static race detection for Go" (§5).
//! This crate supplies both pieces for the reproduction:
//!
//! * [`lexer::Lexer`] — a full tokenizer with Go's automatic semicolon
//!   insertion; its [`token::Tok`]s are `Copy` and borrow their spelling
//!   from the source,
//! * [`parser::parse_file`] — a recursive-descent parser building a typed
//!   [`ast`] for packages, declarations, statements (including `go`,
//!   `defer`, `select`, `range`), and expressions (including closures and
//!   composite literals); [`ast::walk`] is the one pre-order traversal the
//!   scanner, the lint collectors and [`mhp`] are visitors over,
//! * [`names`] — every spelling is read once: the parser interns it into
//!   the file's own [`names::Names`] table and the tree, the resolver, the
//!   rules and the interpreter carry the `Copy` [`names::Sym`] from there
//!   on, with the spellings they test for ([`names::sym`]) at fixed ids.
//!   Text is looked up again only where a finding, a diagnostic or a debug
//!   name is rendered; anything whose *order* reaches the output sorts by
//!   that text, never by `Sym`,
//! * [`scan`] — the construct scanner producing Table 1's feature counts,
//! * [`resolve`] — lexical scope resolution (Go's `:=` redeclaration rule,
//!   shadowing, closure capture sets),
//! * [`mod@cfg`] — per-function control-flow graphs with goroutine-spawn edges
//!   and lock/access events,
//! * [`lockset`] — an Eraser-style static lockset dataflow over the CFG,
//!   run once per file into the [`lockset::Flow`] table (every access and
//!   in-file call with the locks held there) that all the locking rules
//!   read, plus the single-function rules GR007–GR011,
//! * [`callgraph`] — the file-level call graph over the table's call
//!   sites: callers, roots, and Tarjan SCCs,
//! * [`summary`] — bottom-up per-function summaries (the table's accesses
//!   propagated along call chains, escaping-parameter effects) feeding the
//!   interprocedural rules GR013–GR018,
//! * [`mhp`] — may-happen-in-parallel facts from spawn points and
//!   `Wait`/channel-receive join points,
//! * [`lint`] — static race lints for the §4 patterns (loop-variable
//!   capture, `err` capture, named-return capture, `WaitGroup.Add` inside
//!   the goroutine, mutex-by-value, map writes in goroutines) plus the
//!   Table-3 locking rules (missing lock, inconsistent lock, writes under
//!   `RLock`, atomic-mixed-with-plain, double-checked locking),
//! * [`diag`] — stable rule IDs (`GR001`…) rendered as compiler-style
//!   lines or hand-rolled JSON.
//!
//! # Example
//!
//! ```
//! use grs_golite::{lint, parser, scan};
//!
//! let src = r#"
//! package worker
//!
//! func ProcessAll(jobs []int) {
//!     for _, job := range jobs {
//!         go func() {
//!             process(job)
//!         }()
//!     }
//! }
//! "#;
//! let file = parser::parse_file(src).expect("parses");
//! let counts = scan::scan_file(&file);
//! assert_eq!(counts.go_statements, 1);
//! let findings = lint::lint_file(&file);
//! assert!(findings.iter().any(|f| f.rule == lint::Rule::LoopVarCapture));
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod callgraph;
pub mod cfg;
pub mod diag;
pub mod error;
pub mod lexer;
pub mod lint;
pub mod lockset;
pub mod mhp;
pub mod names;
pub mod parser;
pub mod resolve;
pub mod scan;
pub mod summary;
pub mod token;

pub use error::ParseError;
pub use lint::{lint_file, Finding, Rule, Severity};
pub use parser::parse_file;
pub use resolve::{resolve_file, Resolution};
pub use scan::{scan_file, scan_source, ConstructCounts};
