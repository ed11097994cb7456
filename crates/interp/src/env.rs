//! Lexical environments.
//!
//! A scope maps names — the parsed file's interned [`Sym`]s — to
//! instrumented cells. Closures hold an [`Env`]
//! handle; because the handle shares the scope chain, a closure's free
//! variables alias the *same cells* as the enclosing function — Go's
//! transparent capture-by-reference (Observation 3), which is what makes
//! the captured-variable races reproducible at the interpreter level.

use std::sync::{Arc, Mutex as StdMutex};

use grs_golite::ast::Sym;
use grs_golite::names::FnvMap;
use grs_runtime::{Cell, Ctx};

use crate::value::Value;

struct EnvNode {
    parent: Option<Env>,
    vars: StdMutex<FnvMap<Sym, Cell<Value>>>,
}

/// A handle to one lexical scope (cheap to clone; clones share the scope).
#[derive(Clone)]
pub struct Env {
    node: Arc<EnvNode>,
}

impl Env {
    /// A fresh root scope.
    #[must_use]
    pub fn root() -> Self {
        Env {
            node: Arc::new(EnvNode {
                parent: None,
                vars: StdMutex::new(FnvMap::default()),
            }),
        }
    }

    /// A child scope whose lookups fall through to `self`.
    #[must_use]
    pub fn child(&self) -> Env {
        Env {
            node: Arc::new(EnvNode {
                parent: Some(self.clone()),
                vars: StdMutex::new(FnvMap::default()),
            }),
        }
    }

    /// Declares `name`, spelled `text`, in this scope with a fresh
    /// instrumented cell (the spelling is the cell's debug name).
    pub fn declare(&self, ctx: &Ctx, name: Sym, text: &str, value: Value) -> Cell<Value> {
        let cell = ctx.cell(text, value);
        self.node
            .vars
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name, cell.clone());
        cell
    }

    /// Looks `name` up in this scope only.
    #[must_use]
    pub fn lookup_local(&self, name: Sym) -> Option<Cell<Value>> {
        self.node
            .vars
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&name)
            .cloned()
    }

    /// Looks `name` up through the scope chain.
    #[must_use]
    pub fn lookup(&self, name: Sym) -> Option<Cell<Value>> {
        if let Some(c) = self.lookup_local(name) {
            return Some(c);
        }
        self.node.parent.as_ref()?.lookup(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grs_golite::ast::Names;
    use grs_runtime::{NullMonitor, Program, RunConfig, Runtime};

    #[test]
    fn child_scopes_shadow_and_share() {
        let mut names = Names::for_source(0);
        let (x, missing) = (names.intern("x"), names.intern("missing"));
        let p = Program::new("env", move |ctx| {
            let root = Env::root();
            root.declare(ctx, x, "x", Value::Int(1));
            let child = root.child();
            // Child sees the parent's x (same cell).
            let cell = child.lookup(x).expect("inherited");
            ctx.write(&cell, Value::Int(2));
            assert!(matches!(
                root.lookup(x).expect("root x").load(),
                Value::Int(2)
            ));
            // Shadowing declares a new cell in the child only.
            child.declare(ctx, x, "x", Value::Int(99));
            assert!(matches!(
                child.lookup(x).expect("shadowed").load(),
                Value::Int(99)
            ));
            assert!(matches!(
                root.lookup(x).expect("root x").load(),
                Value::Int(2)
            ));
            assert!(child.lookup(missing).is_none());
        });
        let (outcome, _) = Runtime::new(RunConfig::with_seed(0)).run(&p, NullMonitor);
        assert!(outcome.is_clean());
    }
}
