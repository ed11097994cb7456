//! Symbol and scope resolution for Go-lite.
//!
//! The original lints approximated "what does this closure capture?" with a
//! free-variable scan that ignored block scoping and declaration order.
//! This module replaces that with real lexical resolution:
//!
//! * every identifier *use* is mapped to a [`Symbol`] (side table keyed by
//!   the identifier's source [`Pos`], which is unique per token),
//! * `:=` follows Go's redeclaration rule — a name already declared **in
//!   the same scope** is assigned, anything else is a fresh (shadowing)
//!   declaration,
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

use crate::ast::*;
use crate::names::FnvMap;
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

    /// Is this a package-level variable (file-wide identity)?
    #[must_use]
    pub fn is_global_var(self) -> bool {
        matches!(self, SymbolKind::GlobalVar)
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
    /// Declaration site, when the declaration is in this file.
    pub decl_pos: Option<Pos>,
    /// Closure nesting depth at the declaration: 0 for package scope, 1
    /// inside a top-level function, +1 per enclosing `func` literal.
    pub func_depth: u32,
}

/// The result of resolving one file.
#[derive(Debug, Default)]
pub struct Resolution {
    symbols: Vec<Symbol>,
    /// Identifier use site → symbol.
    uses: FnvMap<Pos, SymbolId>,
    /// `func` literal position → symbols captured from enclosing functions.
    captures: FnvMap<Pos, Vec<SymbolId>>,
    /// Declaration site → the first and the last symbol declared there;
    /// `site_next` chains the ones between, in declaration order.
    decls: FnvMap<Pos, (SymbolId, SymbolId)>,
    /// Per symbol: the next one declared at the same site, if any.
    site_next: Vec<Option<SymbolId>>,
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

    /// The symbols declared at `pos` under `name`, in declaration order
    /// (a function's receiver, parameters and named results all declare at
    /// the function's position; a `var`/`:=` declares every name at its own).
    pub fn declared_at(&self, pos: Pos, name: Sym) -> impl Iterator<Item = &Symbol> {
        let mut next = self.decls.get(&pos).map(|&(first, _)| first);
        std::iter::from_fn(move || {
            let id = next?;
            next = self.site_next[id.0 as usize];
            Some(self.symbol(id))
        })
        .filter(move |s| s.name == name)
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
        self.captures
            .get(&funclit_pos)
            .map_or(&[], Vec::as_slice)
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
    let mut r = Resolver::new(&file.names);
    // Package scope is order-independent: pre-declare all top-level names.
    for decl in &file.decls {
        match decl {
            Decl::Func(f) => {
                if f.receiver.is_none() {
                    r.declare(f.name, SymbolKind::Func, Some(f.pos));
                }
            }
            Decl::Var(v) => {
                for &n in &v.names {
                    r.declare(n, SymbolKind::GlobalVar, Some(v.pos));
                }
            }
            Decl::Const(v) => {
                for &n in &v.names {
                    r.declare(n, SymbolKind::GlobalConst, Some(v.pos));
                }
            }
            Decl::Type(t) => {
                r.declare(t.name, SymbolKind::TypeName, Some(t.pos));
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
        if let Decl::Func(f) = decl {
            r.resolve_func(f);
        }
    }
    r.out
}

/// A name's visible binding: the symbol, and the depth of the scope that
/// declared it (0 = package scope).
type Binding = (SymbolId, u32);

struct Resolver {
    out: Resolution,
    /// The innermost visible binding of each name, indexed by [`Sym`].
    visible: Vec<Option<Binding>>,
    /// What each declaration in a still-open scope hid, oldest first:
    /// closing a scope puts these back.
    shadowed: Vec<(Sym, Option<Binding>)>,
    /// `shadowed.len()` when each open scope was entered; its length is
    /// the current scope depth.
    scope_starts: Vec<usize>,
    /// The open `func` literals, outermost first: the depth of the scope
    /// each pushed, and its position. Resolving a name declared below that
    /// depth crosses the closure and records a capture.
    boundaries: Vec<(u32, Pos)>,
    func_depth: u32,
}

impl Resolver {
    fn new(names: &Names) -> Self {
        let mut out = Resolution::default();
        // About one use per spelling and a half: spares the use table its
        // first few doublings.
        out.uses.reserve(names.len());
        Resolver {
            out,
            visible: vec![None; names.len()],
            shadowed: Vec::new(),
            scope_starts: Vec::new(),
            boundaries: Vec::new(),
            func_depth: 0,
        }
    }

    fn depth(&self) -> u32 {
        self.scope_starts.len() as u32
    }

    fn push(&mut self, boundary: Option<Pos>) {
        self.scope_starts.push(self.shadowed.len());
        if let Some(pos) = boundary {
            self.boundaries.push((self.depth(), pos));
        }
    }

    fn pop(&mut self) {
        if self.boundaries.last().is_some_and(|&(d, _)| d == self.depth()) {
            self.boundaries.pop();
        }
        let start = self.scope_starts.pop().expect("a scope to close");
        for (name, hidden) in self.shadowed.drain(start..).rev() {
            self.visible[name.index()] = hidden;
        }
    }

    fn new_symbol(&mut self, name: Sym, kind: SymbolKind, pos: Option<Pos>, func_depth: u32) -> SymbolId {
        let id = SymbolId(self.out.symbols.len() as u32);
        self.out.symbols.push(Symbol {
            id,
            name,
            kind,
            decl_pos: pos,
            func_depth,
        });
        self.out.site_next.push(None);
        id
    }

    fn declare(&mut self, name: Sym, kind: SymbolKind, pos: Option<Pos>) -> SymbolId {
        let id = self.new_symbol(name, kind, pos, self.func_depth);
        if let Some(pos) = pos {
            match self.out.decls.get_mut(&pos) {
                Some((_, last)) => {
                    self.out.site_next[last.0 as usize] = Some(id);
                    *last = id;
                }
                None => {
                    self.out.decls.insert(pos, (id, id));
                }
            }
        }
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

    /// Resolves `name` used at `pos`, recording captures for every closure
    /// boundary between the use and the declaration.
    fn resolve_name(&mut self, name: Sym, pos: Pos) {
        if name.is_blank() {
            return;
        }
        let (id, declared_at) = match self.visible[name.index()] {
            Some(binding) => binding,
            None => {
                // Unknown: builtin / imported package / other file. Declare
                // once at package scope so repeated uses share a symbol.
                let id = self.new_symbol(name, SymbolKind::Universe, None, 0);
                self.visible[name.index()] = Some((id, 0));
                (id, 0)
            }
        };
        self.out.uses.insert(pos, id);
        if self.out.symbols[id.0 as usize].kind.capturable() {
            for &(depth, lit) in self.boundaries.iter().rev() {
                if depth <= declared_at {
                    break;
                }
                let set = self.out.captures.entry(lit).or_default();
                if !set.contains(&id) {
                    set.push(id);
                }
            }
        }
    }

    fn resolve_func(&mut self, f: &FuncDecl) {
        let Some(body) = &f.body else { return };
        self.func_depth += 1;
        self.push(None);
        if let Some(recv) = &f.receiver {
            self.declare(recv.name, SymbolKind::Receiver, Some(f.pos));
        }
        for p in &f.sig.params {
            self.declare(p.name, SymbolKind::Param, Some(f.pos));
        }
        for rp in &f.sig.results {
            if !rp.name.is_empty() {
                self.declare(rp.name, SymbolKind::NamedResult, Some(f.pos));
            }
        }
        self.resolve_block_scoped(body);
        self.pop();
        self.func_depth -= 1;
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
                    self.declare(n, SymbolKind::Local, Some(v.pos));
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
                            // `x, err := ...` with err already here: this is
                            // an assignment to the existing symbol. Record
                            // the name token as a use of it.
                            self.out.uses.insert(*pos, existing);
                        }
                        None => {
                            self.declare(n, SymbolKind::Local, Some(*pos));
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
                init,
                cond,
                post,
                range,
                body,
                ..
            } => {
                self.push(None);
                if let Some(i) = init {
                    // `for i := 0; ...` — i is a loop variable.
                    if let Stmt::Define { pos, names, values } = i.as_ref() {
                        for e in values {
                            self.resolve_expr(e);
                        }
                        for &n in names {
                            self.declare(n, SymbolKind::LoopVar, Some(*pos));
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
                    if r.define {
                        for v in [r.key, r.value] {
                            if !v.is_blank() {
                                self.declare(v, SymbolKind::LoopVar, None);
                            }
                        }
                    } else {
                        // `for k, v = range x` assigns existing names; the
                        // AST keeps only the names, with no token position,
                        // so there is no use site to record.
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
            Expr::FuncLit { pos, sig, body } => {
                self.func_depth += 1;
                self.push(Some(*pos));
                // Ensure the closure appears in the capture table even when
                // it captures nothing.
                self.out.captures.entry(*pos).or_default();
                for p in &sig.params {
                    self.declare(p.name, SymbolKind::Param, Some(*pos));
                }
                for rp in &sig.results {
                    if !rp.name.is_empty() {
                        self.declare(rp.name, SymbolKind::NamedResult, Some(*pos));
                    }
                }
                for s in &body.stmts {
                    self.resolve_stmt(s);
                }
                self.pop();
                self.func_depth -= 1;
            }
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
