//! **grs-interp**: executes Go-lite programs on the instrumented runtime.
//!
//! This crate closes the loop between the project's two analysis routes:
//! the `grs-golite` frontend *parses* real Go source, and this interpreter
//! *runs* it on the `grs-runtime` substrate — every interpreted variable is
//! an instrumented cell, every goroutine a scheduled runtime goroutine — so
//! a race written in Go syntax is caught by the same dynamic detectors as
//! the hand-built pattern corpus.
//!
//! Fidelity highlights (each reproduces a §4 mechanism of the paper):
//!
//! * closures capture free variables **by reference** (shared cells),
//! * `:=` reuses a same-scope variable (the `err` idiom, Listing 2),
//! * `range` loop variables are one cell per loop (Listing 1),
//! * named results are written by `return expr` and visible to `defer`
//!   (Listings 3–4),
//! * value-typed parameters (structs, `sync.Mutex`) are deep-copied at
//!   call sites — a copied mutex is an independent lock (Listing 7),
//! * maps and slices are the runtime's thread-unsafe [`GoMap`]/[`GoSlice`]
//!   (Observations 4–5).
//!
//! The program is executed as parsed: scopes ([`Env`]), the function,
//! method and struct-type tables and struct fields are keyed by the file's
//! interned [`Sym`](grs_golite::names::Sym)s, builtins and `sync` methods
//! are recognized by comparing against [`grs_golite::names::sym`], and an
//! operator is an enum the evaluator matches. What the parser worked out
//! once is not worked out again per evaluation: an integer literal carries
//! its value, a `func` literal shares its signature and body with every
//! closure value made from it. Names turn back into text for error
//! messages and for the debug names of the runtime's cells. (Scopes are
//! still a chain of maps looked up per use; frames of slots resolved from
//! `golite::resolve` are the next step, not this one.)
//!
//! Known simplifications (documented divergences): slicing `s[a:b]`
//! returns the whole slice (header sharing preserved), zero-value maps are
//! empty rather than nil, floats are unsupported, `select` polls arms in
//! source order, and select-less-forever programs exhaust the step budget
//! instead of reporting a deadlock.
//!
//! [`GoMap`]: grs_runtime::GoMap
//! [`GoSlice`]: grs_runtime::GoSlice
//!
//! # Example
//!
//! ```
//! use grs_detector::Tsan;
//! use grs_interp::Interp;
//! use grs_runtime::{RunConfig, Runtime};
//!
//! let interp = Interp::from_source(r#"
//! package main
//!
//! func main() {
//!     total := 0
//!     var wg sync.WaitGroup
//!     wg.Add(2)
//!     for i := 0; i < 2; i = i + 1 {
//!         go func() {
//!             total = total + 1
//!             wg.Done()
//!         }()
//!     }
//!     wg.Wait()
//! }
//! "#).expect("compiles");
//! let program = interp.program("counter", "main");
//! let (outcome, tsan) = Runtime::new(RunConfig::with_seed(3)).run(&program, Tsan::new());
//! assert!(outcome.is_clean());
//! // `total = total + 1` is unsynchronized: some seeds catch it.
//! let _maybe_race = tsan.reports();
//! ```

#![forbid(unsafe_code)]

pub mod env;
pub mod interp;
pub mod value;

pub use env::Env;
pub use interp::Interp;
pub use value::{FuncValue, Key, StructRef, Value};

use grs_golite::token::Pos;

/// An interpretation error (undefined names, type mismatches, `panic()`).
///
/// At a goroutine boundary these become runtime panics, which the
/// scheduler records as [`grs_runtime::RuntimeError::GoroutinePanic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpError {
    /// Source position, when known.
    pub pos: Option<Pos>,
    /// What went wrong.
    pub message: String,
}

impl InterpError {
    /// An error without a position.
    #[must_use]
    pub fn plain(message: impl Into<String>) -> Self {
        InterpError {
            pos: None,
            message: message.into(),
        }
    }

    /// An error at a position.
    #[must_use]
    pub fn at(pos: Pos, message: impl Into<String>) -> Self {
        InterpError {
            pos: Some(pos),
            message: message.into(),
        }
    }

    /// Attaches a position if none is set.
    #[must_use]
    pub fn with_pos(mut self, pos: Pos) -> Self {
        self.pos.get_or_insert(pos);
        self
    }
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.pos {
            Some(p) => write!(f, "{p}: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for InterpError {}

/// Which stage of the source→[`Program`](grs_runtime::Program) pipeline
/// rejected a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompilePhase {
    /// Lexing/parsing failed — the source is not Go-lite.
    Parse,
    /// The parsed file cannot be lowered into a runnable program (e.g. no
    /// entry function).
    Lower,
}

impl std::fmt::Display for CompilePhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CompilePhase::Parse => "parse",
            CompilePhase::Lower => "lower",
        })
    }
}

/// A structured per-unit compile failure.
///
/// This is the campaign-scale error surface: at 100K source units a bad
/// unit must become a *skip record* — counted, named, and reported — not a
/// panic that takes the worker down. [`Interp::compile`] and
/// [`Interp::program_checked`] return it instead of unwinding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// The stage that failed.
    pub phase: CompilePhase,
    /// Source position, when the failure has one.
    pub pos: Option<Pos>,
    /// What went wrong.
    pub message: String,
}

impl CompileError {
    /// A parse-phase error.
    #[must_use]
    pub fn parse(pos: Option<Pos>, message: impl Into<String>) -> Self {
        CompileError {
            phase: CompilePhase::Parse,
            pos,
            message: message.into(),
        }
    }

    /// A lower-phase error.
    #[must_use]
    pub fn lower(message: impl Into<String>) -> Self {
        CompileError {
            phase: CompilePhase::Lower,
            pos: None,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.pos {
            Some(p) => write!(f, "{}: {p}: {}", self.phase, self.message),
            None => write!(f, "{}: {}", self.phase, self.message),
        }
    }
}

impl std::error::Error for CompileError {}
