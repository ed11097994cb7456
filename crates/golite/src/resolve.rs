//! Symbol and scope resolution for Go-lite: the workspace's one statement of
//! Go's scoping rules. The lints read it, and the interpreter executes it.
//!
//! * every identifier *use* is mapped to a [`Symbol`] (side table keyed by
//!   the identifier's source [`Pos`], which is unique per token),
//! * every name a declaration binds is mapped to a [`Binding`]
//!   ([`Resolution::binding`]): `:=` follows Go's redeclaration rule — a
//!   name already declared **in the same scope** is assigned, anything else
//!   is a fresh (shadowing) declaration,
//! * a function's receiver, parameters, named results and body statements
//!   share one scope, as in Go (`v, err := g()` assigns a parameter `err`),
//! * declaration order matters: a use *before* a `:=`/`var` in the same
//!   block resolves to the outer symbol (so a late shadow does not protect
//!   earlier uses),
//! * every `func` literal is a capture boundary; resolving a name across
//!   one or more boundaries records the symbol in each crossed closure's
//!   capture set.
//!
//! Names that resolve to nothing in the file (imported packages, builtins,
//! helper functions from other files) become [`SymbolKind::Universe`]
//! symbols so that downstream passes always get an answer.
//!
//! Names arrive interned ([`Sym`]), so the scope chain is not a stack of
//! hash maps: one array indexed by `Sym` holds each name's innermost
//! visible binding, and closing a scope restores what it shadowed from an
//! undo log. A lookup is an index, whatever the nesting depth.
//!
//! The resolver works in tables a thread keeps from one file to the next,
//! and the [`Resolution`] it returns is copied out of them once, each table
//! at the size of what it holds: a compiled program keeps its resolution
//! for as long as it runs.

use std::cell::RefCell;

use grs_obs::hash::FnvMap;

use crate::ast::*;
use crate::token::Pos;

/// Index into [`Resolution::symbols`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymbolId(pub u32);

/// What kind of binding a symbol is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymbolKind {
    /// Package-level `var`.
    GlobalVar,
    /// Package-level `const`.
    GlobalConst,
    /// Package-level `func`.
    Func,
    /// Package-level `type`.
    TypeName,
    /// Function/closure parameter.
    Param,
    /// Method receiver.
    Receiver,
    /// Named result parameter.
    NamedResult,
    /// A variable introduced by a `for` init `:=` or a `range` clause.
    LoopVar,
    /// Any other function-local binding (`var`, `:=`, `const`).
    Local,
    /// Unresolved: builtin, imported package, or cross-file name.
    Universe,
}

impl SymbolKind {
    /// Can this symbol be captured by reference by a closure?
    #[must_use]
    pub fn capturable(self) -> bool {
        matches!(
            self,
            SymbolKind::Param
                | SymbolKind::Receiver
                | SymbolKind::NamedResult
                | SymbolKind::LoopVar
                | SymbolKind::Local
        )
    }
}

/// One resolved binding.
#[derive(Debug, Clone)]
pub struct Symbol {
    /// Its id (index into [`Resolution::symbols`]).
    pub id: SymbolId,
    /// Source name, in the resolved file's [`Names`].
    pub name: Sym,
    /// Binding kind.
    pub kind: SymbolKind,
}

/// What a name bound by a declaration denotes ([`Resolution::binding`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Binding {
    /// A new variable, declared there.
    New(SymbolId),
    /// A variable declared before, which the statement assigns: a `:=` name
    /// already declared in the same scope, or a `for k, v = range` variable.
    Existing(SymbolId),
}

/// The result of resolving one file.
#[derive(Debug, Default)]
pub struct Resolution {
    symbols: Box<[Symbol]>,
    /// Identifier use site → symbol.
    uses: FnvMap<Pos, SymbolId>,
    /// `(declaration site, name)` → what the name binds there.
    bindings: FnvMap<(Pos, Sym), Binding>,
    /// Every `func` literal's position and the range of `captured` that
    /// holds its captures, in position order.
    closures: Box<[(Pos, u32, u32)]>,
    /// Symbols captured from enclosing functions, closure after closure.
    captured: Box<[SymbolId]>,
}

impl Resolution {
    /// The symbol table entry for `id`.
    #[must_use]
    pub fn symbol(&self, id: SymbolId) -> &Symbol {
        &self.symbols[id.0 as usize]
    }

    /// All symbols, in declaration order.
    #[must_use]
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// What `name` denotes where the declaration at `pos` binds it: a
    /// `var` or `:=` (the statement's position, a `for` init's included), a
    /// `range` clause (the `for`'s), or a function's receiver, parameters
    /// and named results (the `func`'s).
    #[must_use]
    pub fn binding(&self, pos: Pos, name: Sym) -> Option<Binding> {
        self.bindings.get(&(pos, name)).copied()
    }

    /// Resolves the identifier whose token starts at `pos`.
    #[must_use]
    pub fn use_at(&self, pos: Pos) -> Option<SymbolId> {
        self.uses.get(&pos).copied()
    }

    /// The symbol for the identifier at `pos`, when resolved.
    #[must_use]
    pub fn symbol_at(&self, pos: Pos) -> Option<&Symbol> {
        self.use_at(pos).map(|id| self.symbol(id))
    }

    /// Symbols the closure declared at `funclit_pos` captures from its
    /// enclosing function(s). Empty for closures that capture nothing.
    #[must_use]
    pub fn captures_at(&self, funclit_pos: Pos) -> &[SymbolId] {
        match self.closures.binary_search_by_key(&funclit_pos, |c| c.0) {
            Ok(i) => {
                let (_, start, end) = self.closures[i];
                &self.captured[start as usize..end as usize]
            }
            Err(_) => &[],
        }
    }

    /// Does the closure at `funclit_pos` capture `sym`?
    #[must_use]
    pub fn captures_symbol(&self, funclit_pos: Pos, sym: SymbolId) -> bool {
        self.captures_at(funclit_pos).contains(&sym)
    }
}

/// Resolves every identifier in `file`.
#[must_use]
pub fn resolve_file(file: &File) -> Resolution {
    SCRATCH.with_borrow_mut(|r| resolve_in(r, file))
}

/// [`resolve_file`] in the tables of `r`.
fn resolve_in(r: &mut Resolver, file: &File) -> Resolution {
    r.start(file.names.len());
    // Package scope is order-independent: pre-declare all top-level names.
    for decl in &file.decls {
        match decl {
            Decl::Func(f) => {
                if f.receiver.is_none() {
                    r.declare(f.name, SymbolKind::Func, f.pos);
                }
            }
            Decl::Var(v) => {
                for &n in &v.names {
                    r.declare(n, SymbolKind::GlobalVar, v.pos);
                }
            }
            Decl::Const(v) => {
                for &n in &v.names {
                    r.declare(n, SymbolKind::GlobalConst, v.pos);
                }
            }
            Decl::Type(t) => {
                r.declare(t.name, SymbolKind::TypeName, t.pos);
            }
        }
    }
    // Package-level initializers may reference other globals.
    for decl in &file.decls {
        if let Decl::Var(v) | Decl::Const(v) = decl {
            for e in &v.values {
                r.resolve_expr(e);
            }
        }
    }
    for decl in &file.decls {
        if let Decl::Func(f @ FuncDecl { body: Some(body), .. }) = decl {
            r.resolve_func(f.pos, f.receiver.as_ref(), &f.sig, body, false);
        }
    }
    r.finish()
}

/// A name's visible binding: the symbol, and the depth of the scope that
/// declared it (0 = package scope).
type Visible = (SymbolId, u32);

/// Resolves one file at a time into working tables. A thread keeps one
/// from one file to the next, so resolving reuses the room the last file
/// grew.
#[derive(Default)]
struct Resolver {
    symbols: Vec<Symbol>,
    uses: Vec<(Pos, SymbolId)>,
    /// In declaration order: where a site binds a name twice, the later
    /// entry wins.
    bindings: Vec<((Pos, Sym), Binding)>,
    /// The innermost visible binding of each name, indexed by [`Sym`].
    visible: Vec<Option<Visible>>,
    /// What each declaration in a still-open scope hid, oldest first:
    /// closing a scope puts these back.
    shadowed: Vec<(Sym, Option<Visible>)>,
    /// `shadowed.len()` when each open scope was entered; its length is
    /// the current scope depth.
    scope_starts: Vec<usize>,
    /// The open `func` literals, outermost first: the depth of the scope
    /// each pushed, and its position. Resolving a name declared below that
    /// depth crosses the closure and records a capture.
    boundaries: Vec<(u32, Pos)>,
    /// The captures of each open `func` literal so far, parallel to
    /// `boundaries`; sets past its length are spare room.
    open_captures: Vec<Vec<SymbolId>>,
    /// Each closed `func` literal's position and its captures' range in
    /// `captured`.
    closures: Vec<(Pos, u32, u32)>,
    captured: Vec<SymbolId>,
}

thread_local! {
    /// This thread's [`Resolver`].
    static SCRATCH: RefCell<Resolver> = RefCell::default();
}

impl Resolver {
    /// Empties the tables for a file of `names` spellings (one that
    /// panicked may have left anything in them).
    fn start(&mut self, names: usize) {
        self.symbols.clear();
        self.uses.clear();
        self.bindings.clear();
        self.visible.clear();
        self.visible.resize(names, None);
        self.shadowed.clear();
        self.scope_starts.clear();
        self.boundaries.clear();
        self.closures.clear();
        self.captured.clear();
    }

    /// The resolution, each table at the size of what it holds.
    fn finish(&mut self) -> Resolution {
        let mut uses = FnvMap::with_capacity_and_hasher(self.uses.len(), Default::default());
        uses.extend(self.uses.drain(..));
        let mut bindings =
            FnvMap::with_capacity_and_hasher(self.bindings.len(), Default::default());
        bindings.extend(self.bindings.drain(..));
        self.closures.sort_unstable_by_key(|c| c.0);
        Resolution {
            symbols: self.symbols.as_slice().into(),
            uses,
            bindings,
            closures: self.closures.as_slice().into(),
            captured: self.captured.as_slice().into(),
        }
    }

    fn depth(&self) -> u32 {
        self.scope_starts.len() as u32
    }

    fn push(&mut self, boundary: Option<Pos>) {
        self.scope_starts.push(self.shadowed.len());
        if let Some(pos) = boundary {
            let open = self.boundaries.len();
            if self.open_captures.len() == open {
                self.open_captures.push(Vec::new());
            }
            self.open_captures[open].clear();
            self.boundaries.push((self.depth(), pos));
        }
    }

    fn pop(&mut self) {
        let depth = self.depth();
        if self.boundaries.last().is_some_and(|&(d, _)| d == depth) {
            // The closure's captures are complete: nothing resolved after
            // its body can cross it.
            let (_, pos) = self.boundaries.pop().expect("an open closure");
            let start = self.captured.len() as u32;
            self.captured
                .extend_from_slice(&self.open_captures[self.boundaries.len()]);
            self.closures.push((pos, start, self.captured.len() as u32));
        }
        let start = self.scope_starts.pop().expect("a scope to close");
        for (name, hidden) in self.shadowed.drain(start..).rev() {
            self.visible[name.index()] = hidden;
        }
    }

    fn new_symbol(&mut self, name: Sym, kind: SymbolKind) -> SymbolId {
        let id = SymbolId(self.symbols.len() as u32);
        self.symbols.push(Symbol { id, name, kind });
        id
    }

    /// Declares `name` in the current scope, bound by the declaration at
    /// `pos`.
    fn declare(&mut self, name: Sym, kind: SymbolKind, pos: Pos) -> SymbolId {
        let id = self.new_symbol(name, kind);
        // The last declaration at a site wins: a function shares its
        // position with its parameters, and `func f(f int)` binds the
        // parameter.
        self.bindings.push(((pos, name), Binding::New(id)));
        if !name.is_blank() {
            let depth = self.depth();
            let hidden = self.visible[name.index()].replace((id, depth));
            // The package scope never closes: nothing to put back.
            if depth > 0 {
                self.shadowed.push((name, hidden));
            }
        }
        id
    }

    /// The symbol `name` is bound to in the CURRENT scope, if it is.
    fn declared_here(&self, name: Sym) -> Option<SymbolId> {
        match self.visible[name.index()] {
            Some((id, depth)) if depth == self.depth() => Some(id),
            _ => None,
        }
    }

    /// Resolves `name` used at `pos`.
    fn resolve_name(&mut self, name: Sym, pos: Pos) {
        if !name.is_blank() {
            let id = self.lookup(name);
            self.uses.push((pos, id));
        }
    }

    /// The symbol `name` denotes here, recording a capture for every closure
    /// boundary between here and its declaration.
    fn lookup(&mut self, name: Sym) -> SymbolId {
        let (id, declared_at) = match self.visible[name.index()] {
            Some(binding) => binding,
            None => {
                // Unknown: builtin / imported package / other file. Declare
                // once at package scope so repeated uses share a symbol.
                let id = self.new_symbol(name, SymbolKind::Universe);
                self.visible[name.index()] = Some((id, 0));
                (id, 0)
            }
        };
        if self.symbols[id.0 as usize].kind.capturable() {
            for (open, &(depth, _)) in self.boundaries.iter().enumerate().rev() {
                if depth <= declared_at {
                    break;
                }
                let set = &mut self.open_captures[open];
                if !set.contains(&id) {
                    set.push(id);
                }
            }
        }
        id
    }

    /// Resolves a function declared at `pos` — a `func` literal when
    /// `literal`, whose scope is a capture boundary. Its receiver,
    /// parameters, named results and body statements share one scope.
    fn resolve_func(
        &mut self,
        pos: Pos,
        receiver: Option<&Param>,
        sig: &Signature,
        body: &Block,
        literal: bool,
    ) {
        self.push(literal.then_some(pos));
        if let Some(recv) = receiver {
            self.declare(recv.name, SymbolKind::Receiver, pos);
        }
        for p in &sig.params {
            self.declare(p.name, SymbolKind::Param, pos);
        }
        for rp in &sig.results {
            if !rp.name.is_empty() {
                self.declare(rp.name, SymbolKind::NamedResult, pos);
            }
        }
        for s in &body.stmts {
            self.resolve_stmt(s);
        }
        self.pop();
    }

    /// Resolves a block in its own fresh scope.
    fn resolve_block_scoped(&mut self, b: &Block) {
        self.push(None);
        for s in &b.stmts {
            self.resolve_stmt(s);
        }
        self.pop();
    }

    fn resolve_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Decl(v) => {
                // Initializers see the outer binding (`var x = x` refers to
                // the outer x), so resolve values first.
                for e in &v.values {
                    self.resolve_expr(e);
                }
                for &n in &v.names {
                    self.declare(n, SymbolKind::Local, v.pos);
                }
            }
            Stmt::Define { pos, names, values } => {
                for e in values {
                    self.resolve_expr(e);
                }
                for &n in names {
                    // Go redeclaration rule: reuse a binding already in the
                    // CURRENT scope; shadow anything further out.
                    match self.declared_here(n) {
                        Some(existing) => {
                            self.bindings.push(((*pos, n), Binding::Existing(existing)));
                        }
                        None => {
                            self.declare(n, SymbolKind::Local, *pos);
                        }
                    }
                }
            }
            Stmt::Assign { lhs, rhs, .. } => {
                for e in lhs.iter().chain(rhs.iter()) {
                    self.resolve_expr(e);
                }
            }
            Stmt::IncDec { expr, .. } => self.resolve_expr(expr),
            Stmt::Expr(e) => self.resolve_expr(e),
            Stmt::Send { chan, value, .. } => {
                self.resolve_expr(chan);
                self.resolve_expr(value);
            }
            Stmt::Go { call, .. } | Stmt::Defer { call, .. } => self.resolve_expr(call),
            Stmt::Return { values, .. } => {
                for e in values {
                    self.resolve_expr(e);
                }
            }
            Stmt::If {
                init,
                cond,
                then,
                els,
                ..
            } => {
                // The init statement's bindings scope over cond/then/else.
                self.push(None);
                if let Some(i) = init {
                    self.resolve_stmt(i);
                }
                self.resolve_expr(cond);
                self.resolve_block_scoped(then);
                if let Some(e) = els {
                    self.resolve_stmt(e);
                }
                self.pop();
            }
            Stmt::Block(b) => self.resolve_block_scoped(b),
            Stmt::For {
                pos,
                init,
                cond,
                post,
                range,
                body,
            } => {
                self.push(None);
                if let Some(i) = init {
                    // `for i := 0; ...` — i is a loop variable.
                    if let Stmt::Define { pos, names, values } = i.as_ref() {
                        for e in values {
                            self.resolve_expr(e);
                        }
                        for &n in names {
                            self.declare(n, SymbolKind::LoopVar, *pos);
                        }
                    } else {
                        self.resolve_stmt(i);
                    }
                }
                if let Some(c) = cond {
                    self.resolve_expr(c);
                }
                if let Some(r) = range {
                    self.resolve_expr(&r.expr);
                    // The clause binds its names at the `for`'s position.
                    for v in [r.key, r.value].into_iter().filter(|v| !v.is_blank()) {
                        if r.define {
                            self.declare(v, SymbolKind::LoopVar, *pos);
                        } else {
                            let id = self.lookup(v);
                            self.bindings.push(((*pos, v), Binding::Existing(id)));
                        }
                    }
                }
                self.resolve_block_scoped(body);
                if let Some(p) = post {
                    self.resolve_stmt(p);
                }
                self.pop();
            }
            Stmt::Switch { tag, cases, .. } => {
                self.push(None);
                if let Some(t) = tag {
                    self.resolve_expr(t);
                }
                for c in cases {
                    for e in &c.exprs {
                        self.resolve_expr(e);
                    }
                    self.push(None);
                    for s in &c.body {
                        self.resolve_stmt(s);
                    }
                    self.pop();
                }
                self.pop();
            }
            Stmt::Select { cases, .. } => {
                for c in cases {
                    self.push(None);
                    if let Some(comm) = &c.comm {
                        self.resolve_stmt(comm);
                    }
                    for s in &c.body {
                        self.resolve_stmt(s);
                    }
                    self.pop();
                }
            }
            Stmt::Branch { .. } | Stmt::Empty => {}
        }
    }

    fn resolve_expr(&mut self, e: &Expr) {
        match e {
            Expr::Ident(pos, name) => self.resolve_name(*name, *pos),
            Expr::Int(..) | Expr::Float(..) | Expr::Str(..) | Expr::Rune(..) => {}
            Expr::Selector(base, _) => self.resolve_expr(base),
            Expr::Call { func, args, .. } => {
                self.resolve_expr(func);
                for a in args {
                    self.resolve_expr(a);
                }
            }
            Expr::Index(b, i) => {
                self.resolve_expr(b);
                self.resolve_expr(i);
            }
            Expr::SliceExpr { expr, low, high } => {
                self.resolve_expr(expr);
                if let Some(l) = low {
                    self.resolve_expr(l);
                }
                if let Some(h) = high {
                    self.resolve_expr(h);
                }
            }
            Expr::Unary { expr, .. } => self.resolve_expr(expr),
            Expr::Binary { lhs, rhs, .. } => {
                self.resolve_expr(lhs);
                self.resolve_expr(rhs);
            }
            Expr::FuncLit { pos, sig, body } => self.resolve_func(*pos, None, sig, body, true),
            Expr::CompositeLit { elems, .. } => {
                for (k, v) in elems {
                    if let Some(k) = k {
                        self.resolve_expr(k);
                    }
                    self.resolve_expr(v);
                }
            }
            Expr::Paren(inner) => self.resolve_expr(inner),
            Expr::TypeExpr(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn resolve(src: &str) -> (File, Resolution) {
        let file = parse_file(src).expect("parses");
        let res = resolve_file(&file);
        (file, res)
    }

    /// Positions of the func literals in the file's function bodies, in
    /// source order.
    fn funclit_positions(file: &File) -> Vec<Pos> {
        let mut out = Vec::new();
        for d in &file.decls {
            if let Decl::Func(FuncDecl { body: Some(b), .. }) = d {
                walk(Node::List(&b.stmts), &mut |n| {
                    if let Node::Expr(Expr::FuncLit { pos, .. }) = n {
                        out.push(*pos);
                    }
                    Walk::Descend
                });
            }
        }
        out
    }

    fn captured_names(file: &File, res: &Resolution, pos: Pos) -> Vec<String> {
        let mut names: Vec<String> = res
            .captures_at(pos)
            .iter()
            .map(|&id| file.text(res.symbol(id).name).to_string())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn loop_var_is_captured() {
        let (file, res) = resolve(
            r#"
package p
func f(jobs []int) {
    for _, job := range jobs {
        go func() { process(job) }()
    }
}
"#,
        );
        let lits = funclit_positions(&file);
        assert_eq!(lits.len(), 1);
        assert_eq!(captured_names(&file, &res, lits[0]), vec!["job"]);
        let cap = res.captures_at(lits[0])[0];
        assert_eq!(res.symbol(cap).kind, SymbolKind::LoopVar);
    }

    #[test]
    fn parameter_shadow_suppresses_capture() {
        let (file, res) = resolve(
            r#"
package p
func f(jobs []int) {
    for _, job := range jobs {
        go func(job int) { process(job) }(job)
    }
}
"#,
        );
        let lits = funclit_positions(&file);
        assert!(captured_names(&file, &res, lits[0]).is_empty());
    }

    #[test]
    fn early_shadow_suppresses_but_late_shadow_does_not() {
        // Inner `job := ...` BEFORE the use: the use resolves to the inner
        // symbol — nothing captured.
        let (file, res) = resolve(
            r#"
package p
func f(jobs []int) {
    for _, job := range jobs {
        go func() {
            job := next()
            process(job)
        }()
    }
}
"#,
        );
        let lits = funclit_positions(&file);
        assert!(captured_names(&file, &res, lits[0]).is_empty());

        // Use BEFORE the inner define: the use resolves to the loop
        // variable — captured despite the later shadow.
        let (file, res) = resolve(
            r#"
package p
func f(jobs []int) {
    for _, job := range jobs {
        go func() {
            process(job)
            job := next()
            use(job)
        }()
    }
}
"#,
        );
        let lits = funclit_positions(&file);
        assert_eq!(captured_names(&file, &res, lits[0]), vec!["job"]);
    }

    #[test]
    fn nested_block_shadow_does_not_leak() {
        // A shadow inside a nested block ends with the block; the later use
        // sees the loop variable again.
        let (file, res) = resolve(
            r#"
package p
func f(jobs []int) {
    for _, job := range jobs {
        go func() {
            if ok() {
                job := local()
                use(job)
            }
            process(job)
        }()
    }
}
"#,
        );
        let lits = funclit_positions(&file);
        assert_eq!(captured_names(&file, &res, lits[0]), vec!["job"]);
    }

    #[test]
    fn define_reuses_same_scope_symbol() {
        // `y, err := Baz()` reuses the err declared by `x, err := Foo()` in
        // the same scope — one symbol, not two.
        let (file, res) = resolve(
            r#"
package p
func f() {
    x, err := Foo()
    y, err := Baz()
    use(x, y, err)
}
"#,
        );
        let errs: Vec<_> = res
            .symbols()
            .iter()
            .filter(|s| s.name == sym::ERR && s.kind != SymbolKind::Universe)
            .collect();
        assert_eq!(errs.len(), 1, "err must resolve to a single symbol");
        assert!(file.names.get("err") == Some(sym::ERR));
    }

    /// The `:=` statements of the file's function bodies (closures
    /// included), in source order.
    fn defines(file: &File) -> Vec<(Pos, Vec<Sym>)> {
        let mut out = Vec::new();
        for d in &file.decls {
            if let Decl::Func(FuncDecl { body: Some(b), .. }) = d {
                walk(Node::List(&b.stmts), &mut |n| {
                    if let Node::Stmt(Stmt::Define { pos, names, .. }) = n {
                        out.push((*pos, names.clone()));
                    }
                    Walk::Descend
                });
            }
        }
        out
    }

    #[test]
    fn a_define_binds_each_reused_name_to_its_symbol() {
        let (file, res) = resolve(
            r#"
package p
func f() {
    a, b := one()
    a, b, c := three()
    use(a, b, c)
}
"#,
        );
        let d = defines(&file);
        let [(first, _), (second, names)] = &d[..] else {
            panic!("two defines")
        };
        for &name in &names[..2] {
            let Some(Binding::New(declared)) = res.binding(*first, name) else {
                panic!("declared by the first define")
            };
            assert_eq!(res.binding(*second, name), Some(Binding::Existing(declared)));
        }
        assert!(matches!(res.binding(*second, names[2]), Some(Binding::New(_))));
    }

    #[test]
    fn a_define_in_a_function_body_reuses_a_parameter() {
        // `func f(err error) { err := g() }` does not compile: params and
        // body are one block, so `v, err :=` assigns the parameter — in a
        // declared function and in a literal alike.
        for src in [
            "package p\nfunc f(err error) {\n    v, err := g()\n    use(v, err)\n}\n",
            "package p\nfunc f() {\n    go func(err error) {\n        v, err := g()\n        \
             use(v, err)\n    }(nil)\n}\n",
        ] {
            let (file, res) = resolve(src);
            let (pos, _) = defines(&file)[0];
            let Some(Binding::Existing(id)) = res.binding(pos, sym::ERR) else {
                panic!("err is reused: {src}")
            };
            assert_eq!(res.symbol(id).kind, SymbolKind::Param);
            assert!(matches!(
                res.binding(pos, file.names.get("v").expect("v")),
                Some(Binding::New(_))
            ));
        }
    }

    #[test]
    fn a_range_clause_binds_at_the_for() {
        let (file, res) = resolve(
            r#"
package p
func f(xs []int) {
    k := 0
    for i, x := range xs {
        use(i, x)
    }
    for k = range xs {
    }
    use(k)
}
"#,
        );
        let Decl::Func(FuncDecl { body: Some(b), .. }) = &file.decls[0] else {
            panic!("a function")
        };
        let fors: Vec<Pos> = b
            .stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::For { pos, .. } => Some(*pos),
                _ => None,
            })
            .collect();
        let name = |s| file.names.get(s).expect("spelled");
        let Some(Binding::New(i)) = res.binding(fors[0], name("i")) else {
            panic!("i is declared by the clause")
        };
        assert_eq!(res.symbol(i).kind, SymbolKind::LoopVar);
        let Some(Binding::New(k)) = res.binding(defines(&file)[0].0, name("k")) else {
            panic!("k := 0")
        };
        assert_eq!(res.binding(fors[1], name("k")), Some(Binding::Existing(k)));
    }

    #[test]
    fn named_results_and_receiver_resolve() {
        let (file, res) = resolve(
            r#"
package p
func (s *Server) Get() (result int) {
    go func() { use(result, s) }()
    return
}
"#,
        );
        let lits = funclit_positions(&file);
        let caps = captured_names(&file, &res, lits[0]);
        assert_eq!(caps, vec!["result", "s"]);
        let kinds: Vec<_> = res
            .captures_at(lits[0])
            .iter()
            .map(|&id| res.symbol(id).kind)
            .collect();
        assert!(kinds.contains(&SymbolKind::NamedResult));
        assert!(kinds.contains(&SymbolKind::Receiver));
    }

    #[test]
    fn globals_are_not_captures() {
        let (file, res) = resolve(
            r#"
package p
var counter int
func f() {
    go func() { counter = counter + 1 }()
}
"#,
        );
        let lits = funclit_positions(&file);
        assert!(captured_names(&file, &res, lits[0]).is_empty());
        // But uses of `counter` resolve to the global symbol.
        let global = res
            .symbols()
            .iter()
            .find(|s| file.text(s.name) == "counter")
            .expect("counter resolved");
        assert_eq!(global.kind, SymbolKind::GlobalVar);
    }

    #[test]
    fn nested_closures_capture_transitively() {
        let (file, res) = resolve(
            r#"
package p
func f() {
    x := 0
    go func() {
        go func() { use(x) }()
    }()
}
"#,
        );
        let lits = funclit_positions(&file);
        assert_eq!(lits.len(), 2);
        // Both the outer and the inner closure capture x.
        assert_eq!(captured_names(&file, &res, lits[0]), vec!["x"]);
        assert_eq!(captured_names(&file, &res, lits[1]), vec!["x"]);
    }

    #[test]
    fn local_shadow_of_global_is_a_distinct_symbol() {
        let (file, res) = resolve(
            r#"
package p
var version int
func f() {
    version := 2
    use(version)
}
"#,
        );
        let versions: Vec<_> = res
            .symbols()
            .iter()
            .filter(|s| file.text(s.name) == "version")
            .collect();
        assert_eq!(versions.len(), 2);
        assert!(versions.iter().any(|s| s.kind == SymbolKind::GlobalVar));
        assert!(versions.iter().any(|s| s.kind == SymbolKind::Local));
    }
}
