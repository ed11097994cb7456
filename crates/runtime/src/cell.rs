//! [`Cell`] — one shared Go variable.

use std::sync::{Arc, Mutex};

use crate::ids::Addr;

/// A shared variable with Go's aliasing semantics.
///
/// Cloning a `Cell` clones the *handle*, not the value: both handles refer
/// to the same shadow address and the same storage. This models Go closures
/// capturing free variables by reference (the root cause behind the paper's
/// Observation 3 races: loop index variables, `err` variables, and named
/// return values captured into goroutines).
///
/// The underlying storage is internally synchronized so the *host* program
/// (this Rust process) has no undefined behavior; the *simulated* data race
/// is what the detector observes through the instrumented accesses in
/// [`crate::Ctx::read`] / [`crate::Ctx::write`].
///
/// # Example
///
/// ```
/// use grs_runtime::{NullMonitor, Program, RunConfig, Runtime};
///
/// let p = Program::new("cells", |ctx| {
///     let err = ctx.cell("err", None::<String>);
///     let alias = err.clone(); // same variable, as in a closure capture
///     ctx.write(&alias, Some("boom".into()));
///     assert_eq!(ctx.read(&err), Some("boom".to_string()));
/// });
/// let (outcome, _) = Runtime::new(RunConfig::with_seed(0)).run(&p, NullMonitor);
/// assert!(outcome.is_clean());
/// ```
pub struct Cell<T> {
    addr: Addr,
    name: Arc<str>,
    storage: Arc<Mutex<T>>,
}

impl<T: Clone + Send + 'static> Cell<T> {
    pub(crate) fn new(id: u64, name: Arc<str>, value: T) -> Self {
        Cell {
            addr: Addr(id),
            name,
            storage: Arc::new(Mutex::new(value)),
        }
    }

    /// The shadow address of this variable.
    #[must_use]
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// The debug name given at creation.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Uninstrumented load (used by `Ctx` after emitting the access event;
    /// also handy for assertions in tests, where the "access" is the test
    /// harness's, not the program's).
    #[must_use]
    pub fn load(&self) -> T {
        self.storage
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Uninstrumented store (see [`Cell::load`]).
    pub fn store(&self, value: T) {
        *self.storage.lock().unwrap_or_else(|e| e.into_inner()) = value;
    }
}

impl<T> Clone for Cell<T> {
    fn clone(&self) -> Self {
        Cell {
            addr: self.addr,
            name: self.name.clone(),
            storage: self.storage.clone(),
        }
    }
}

impl<T> std::fmt::Debug for Cell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cell")
            .field("addr", &self.addr)
            .field("name", &self.name)
            .finish()
    }
}
