//! Synthetic monorepo generation and scanning — the substrate for Table 1.
//!
//! The paper measures concurrency-construct densities by scanning Uber's Go
//! monorepo (46 MLoC, 2100 services) and Java monorepo (19 MLoC, 857
//! services). Neither repository is available, so this crate generates
//! *synthetic* monorepos whose construct densities are calibrated to the
//! paper's Table 1, then runs the scanners over them:
//!
//! * Go sources are parsed with `grs-golite` and counted by its AST scanner
//!   (the high-fidelity path);
//! * Java sources are counted by a token-level textual scanner — which is
//!   faithful to the paper's own method: it describes its counts as a
//!   "coarse-grained and imperfect" look-up for `.start()`, `synchronized`,
//!   `acquire`/`release`, `lock`/`unlock`, and the latch/barrier classes.
//!
//! The generator tracks ground-truth counts as it emits code, so the test
//! suite can assert that the Go scanner recovers the truth *exactly* — the
//! part of Table 1 that is actually falsifiable in a reproduction.
//!
//! # Example
//!
//! ```
//! use grs_corpus::table1::{self, Table1Config};
//!
//! let table = table1::generate_and_scan(&Table1Config::scaled(0.0002), 1);
//! // Go uses several times more point-to-point sync per MLoC than Java:
//! assert!(table.p2p_ratio() > 2.0);
//! ```

#![forbid(unsafe_code)]

pub mod gogen;
pub mod golint;
pub mod javagen;
pub mod javascan;
pub mod snippets;
pub mod table1;
pub mod testgen;

pub use gogen::{GoCorpus, GoCorpusSpec};
pub use snippets::{go_snippets, GoSnippet};
pub use testgen::{GoTest, GoTestGen, GoTestSpec};
pub use golint::{lint_corpus, LintReport};
pub use javagen::{JavaCorpus, JavaCorpusSpec};
pub use javascan::JavaCounts;
pub use table1::{Table1, Table1Config, Table1Row};
