//! Intraprocedural control-flow graphs over the Go-lite AST.
//!
//! The CFG is built per function declaration, with one **context** per
//! execution thread the function creates: context 0 is the function's own
//! body, and every `go func(){...}(...)` statement spawns a fresh context
//! whose entry block is connected to the spawning block by a spawn edge.
//! Blocks carry *events* — the only facts the lockset pass needs:
//!
//! * [`Event::Acquire`]/[`Event::Release`] for `x.Lock()`, `x.Unlock()`,
//!   `x.RLock()`, `x.RUnlock()` (a `defer x.Unlock()` simply never emits a
//!   release, which models "held to the end of the function" exactly),
//! * [`Event::Access`] for reads/writes of trackable variables, with an
//!   `atomic` flag for `sync/atomic` calls and a `cond_of` tag linking a
//!   read to the `if` branch it guards (the double-checked-locking shape),
//! * [`Event::Call`] for calls that resolve within the file (named
//!   functions, receiver methods, function-typed parameters) — the raw
//!   material of the interprocedural layer in
//!   [`callgraph`](crate::callgraph) and [`summary`](crate::summary).
//!
//! Variable identity comes from [`resolve`](crate::resolve): a package-level
//! variable keys the same in every function of the file, a receiver field
//! keys by *receiver type* (so `(g *Gate) get` and `(g *Gate) set` meet),
//! and locals key by their resolved symbol — two locals that shadow each
//! other never collide.
//!
//! A [`VarKey`] is an *ordered* key — locksets and the summary layer keep
//! them in `BTreeMap`s and sort by them, and that order reaches the
//! findings — so it carries its root's text, not a [`Sym`] (which orders by
//! first occurrence). Everything that is only compared — call targets,
//! function and receiver-type names, the method spellings tested for —
//! stays a `Sym`.

use crate::ast::{sym, Block, BranchKind, Decl, Expr, File, FuncDecl, Names, Stmt, Sym, Type, UnaryOp};
use crate::resolve::{Resolution, SymbolId, SymbolKind};
use crate::token::Pos;

/// Index into [`FuncCfg::blocks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockId(pub usize);

/// How a lock is held.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockMode {
    /// `RLock` — excludes writers only.
    Read,
    /// `Lock` — exclusive.
    Write,
}

/// The root of a place expression.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VarRoot {
    /// A package-level variable, keyed by name (file-wide identity).
    Global(String),
    /// A field chain on a method receiver, keyed by the receiver's type
    /// name (so all methods of one type agree).
    Field(String),
    /// A function-local symbol (param, `:=`, `var`, loop var, named
    /// result) — identity is the resolved symbol.
    Local(SymbolId),
}

/// A trackable place: root plus selector path (`".mu"`, `".stats.n"`, `""`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarKey {
    /// The root binding.
    pub root: VarRoot,
    /// Dotted selector path below the root (empty for the root itself).
    pub path: String,
}

impl VarKey {
    /// True when the key has file-wide identity (global or receiver field)
    /// rather than per-function identity.
    #[must_use]
    pub fn is_file_wide(&self) -> bool {
        matches!(self.root, VarRoot::Global(_) | VarRoot::Field(_))
    }
}

/// What a call expression resolves to, when it stays inside the file.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CallTarget {
    /// A package-level function declared in this file.
    Named(Sym),
    /// A method call through the enclosing method's receiver: the callee
    /// is the method `name` on the receiver type `recv`.
    Method {
        /// Receiver type name.
        recv: Sym,
        /// Method name.
        name: Sym,
    },
    /// A call through a function-typed parameter of the enclosing
    /// function, identified by parameter index.
    Param(usize),
}

/// One analysis-relevant fact inside a block.
#[derive(Debug, Clone)]
pub enum Event {
    /// `x.Lock()` / `x.RLock()`.
    Acquire {
        /// The lock's identity.
        lock: VarKey,
        /// Exclusive or shared.
        mode: LockMode,
        /// Source spelling, for messages (`"g.mu"`).
        display: String,
        /// Call position.
        pos: Pos,
    },
    /// `x.Unlock()` / `x.RUnlock()` (not deferred — deferred releases
    /// never emit, keeping the lock held to function exit).
    Release {
        /// The lock's identity.
        lock: VarKey,
        /// Exclusive or shared.
        mode: LockMode,
        /// Call position.
        pos: Pos,
    },
    /// A read or write of a trackable variable.
    Access {
        /// The variable.
        var: VarKey,
        /// Source spelling, for messages.
        display: String,
        /// Write (or read-modify-write) vs read.
        write: bool,
        /// Performed through `sync/atomic`.
        atomic: bool,
        /// Declaration-initializer write (`x := v`, `var x = v`): excluded
        /// from race evidence, Eraser-style.
        init: bool,
        /// When this read occurs in an `if` condition, the branch tag of
        /// that `if` (for double-checked-locking detection).
        cond_of: Option<u32>,
        /// The place was reached through an index expression (`m[k]`) —
        /// a container element access rather than the binding itself.
        indexed: bool,
        /// Source position.
        pos: Pos,
    },
    /// A call that resolves within the file: raw material for the
    /// interprocedural layer (`callgraph`/`summary`). The lockset pass
    /// ignores these.
    Call {
        /// The resolved callee.
        target: CallTarget,
        /// Launched with `go` — the callee runs on a fresh goroutine
        /// that inherits none of the caller's locks.
        spawned: bool,
        /// The call site sits inside a loop of the current context.
        in_loop: bool,
        /// Function-literal arguments: `(argument index, literal position)`
        /// — the position keys `Resolution::captures_at`.
        closure_args: Vec<(usize, Pos)>,
        /// Trackable places passed as arguments:
        /// `(argument index, key, source spelling)`.
        var_args: Vec<(usize, VarKey, String)>,
        /// Call position.
        pos: Pos,
    },
}

/// One basic block.
#[derive(Debug, Default)]
pub struct BasicBlock {
    /// Events in execution order.
    pub events: Vec<Event>,
    /// Successor blocks (same context).
    pub succs: Vec<BlockId>,
    /// Contexts spawned from this block (`go` statements).
    pub spawns: Vec<u32>,
    /// The context this block belongs to.
    pub ctx: u32,
    /// Branch tags of every enclosing `if` then/else region, innermost
    /// last.
    pub branch_tags: Vec<u32>,
}

/// One execution context: the function body (id 0) or a spawned goroutine.
#[derive(Debug)]
pub struct Context {
    /// Context id (index into [`FuncCfg::contexts`]).
    pub id: u32,
    /// Entry block of the context.
    pub entry: BlockId,
    /// Spawning context, `None` for the function body.
    pub parent: Option<u32>,
    /// The `go` statement position, when spawned.
    pub spawn_pos: Option<Pos>,
    /// Spawned inside a loop — concurrent with other instances of itself.
    pub in_loop: bool,
}

/// The CFG of one function declaration.
#[derive(Debug)]
pub struct FuncCfg {
    /// Function name.
    pub func: Sym,
    /// Receiver type name for methods (pointer stripped; [`sym::EMPTY`]
    /// when the receiver's type is not a name).
    pub recv_type: Option<Sym>,
    /// All blocks, across all contexts.
    pub blocks: Vec<BasicBlock>,
    /// All contexts; index 0 is the function body.
    pub contexts: Vec<Context>,
    /// Parameter symbols in signature order (`None` for unnamed or
    /// unresolved parameters), so effects on a parameter can be named by
    /// index at every call site.
    pub params: Vec<Option<SymbolId>>,
}

impl FuncCfg {
    /// The parameter index of `sym`, if it is one of this function's.
    #[must_use]
    pub fn param_index(&self, sym: SymbolId) -> Option<usize> {
        self.params.iter().position(|p| *p == Some(sym))
    }
}

/// Builds a CFG for every function in `file` that has a body.
#[must_use]
pub fn build_file(file: &File, res: &Resolution) -> Vec<FuncCfg> {
    file.decls
        .iter()
        .filter_map(|d| match d {
            Decl::Func(f) => build_func(f, res, &file.names),
            _ => None,
        })
        .collect()
}

/// Builds the CFG for `f` (returns `None` for bodyless declarations).
#[must_use]
pub fn build_func(f: &FuncDecl, res: &Resolution, names: &Names) -> Option<FuncCfg> {
    let body = f.body.as_ref()?;
    let recv_type = f.receiver.as_ref().map(|r| type_root_name(&r.ty));
    let params: Vec<Option<SymbolId>> = f
        .sig
        .params
        .iter()
        .map(|p| {
            res.declared_at(f.pos, p.name)
                .find(|s| s.kind == SymbolKind::Param)
                .map(|s| s.id)
        })
        .collect();
    let mut b = Builder {
        res,
        names,
        recv_type,
        params,
        blocks: vec![BasicBlock::default()],
        contexts: vec![Context {
            id: 0,
            entry: BlockId(0),
            parent: None,
            spawn_pos: None,
            in_loop: false,
        }],
        current: BlockId(0),
        ctx: 0,
        loop_stack: Vec::new(),
        loop_depth: 0,
        branch_stack: Vec::new(),
        next_branch: 0,
    };
    b.stmts(&body.stmts);
    Some(FuncCfg {
        func: f.name,
        recv_type,
        blocks: b.blocks,
        contexts: b.contexts,
        params: b.params,
    })
}

fn type_root_name(ty: &Type) -> Sym {
    match ty {
        Type::Pointer(inner) => type_root_name(inner),
        Type::Name(n) => *n,
        _ => sym::EMPTY,
    }
}

/// A resolved place expression.
struct Place {
    key: VarKey,
    display: String,
    pos: Pos,
    indexed: bool,
}

struct LoopFrame {
    head: BlockId,
    after: BlockId,
}

struct Builder<'a> {
    res: &'a Resolution,
    names: &'a Names,
    recv_type: Option<Sym>,
    /// Becomes [`FuncCfg::params`].
    params: Vec<Option<SymbolId>>,
    blocks: Vec<BasicBlock>,
    contexts: Vec<Context>,
    current: BlockId,
    ctx: u32,
    loop_stack: Vec<LoopFrame>,
    loop_depth: u32,
    branch_stack: Vec<u32>,
    next_branch: u32,
}

impl Builder<'_> {
    fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len());
        self.blocks.push(BasicBlock {
            ctx: self.ctx,
            branch_tags: self.branch_stack.clone(),
            ..BasicBlock::default()
        });
        id
    }

    fn link(&mut self, from: BlockId, to: BlockId) {
        if !self.blocks[from.0].succs.contains(&to) {
            self.blocks[from.0].succs.push(to);
        }
    }

    fn emit(&mut self, e: Event) {
        self.blocks[self.current.0].events.push(e);
    }

    /// Resolves `e` as a trackable place (identifier / selector chain /
    /// index expression rooted in a local, global, or receiver).
    fn place(&self, e: &Expr) -> Option<Place> {
        match e {
            Expr::Ident(pos, name) => {
                let symbol = self.res.symbol_at(*pos)?;
                let text = self.names.text(*name);
                let root = match symbol.kind {
                    SymbolKind::GlobalVar => VarRoot::Global(text.to_string()),
                    // An unresolved name in single-file analysis is almost
                    // always a package-level symbol from a sibling file —
                    // treat it as a global (builtin literals excepted).
                    SymbolKind::Universe
                        if !matches!(*name, sym::TRUE | sym::FALSE | sym::NIL | sym::IOTA) =>
                    {
                        VarRoot::Global(text.to_string())
                    }
                    k if k.capturable() => VarRoot::Local(symbol.id),
                    _ => return None,
                };
                Some(Place {
                    key: VarKey {
                        root,
                        path: String::new(),
                    },
                    display: text.to_string(),
                    pos: *pos,
                    indexed: false,
                })
            }
            Expr::Selector(base, sel) => {
                let b = self.place(base)?;
                let sel = self.names.text(*sel);
                // A selector directly on the method receiver keys by the
                // receiver TYPE so all methods of the type agree.
                let key = match (&b.key.root, self.recv_type) {
                    (VarRoot::Local(id), Some(ty))
                        if b.key.path.is_empty()
                            && self.res.symbol(*id).kind == SymbolKind::Receiver =>
                    {
                        let ty = if ty.is_empty() { "?" } else { self.names.text(ty) };
                        VarKey {
                            root: VarRoot::Field(ty.to_string()),
                            path: format!(".{sel}"),
                        }
                    }
                    _ => VarKey {
                        root: b.key.root.clone(),
                        path: format!("{}.{sel}", b.key.path),
                    },
                };
                Some(Place {
                    key,
                    display: format!("{}.{sel}", b.display),
                    pos: b.pos,
                    indexed: b.indexed,
                })
            }
            // `m[k]` accesses the container `m`.
            Expr::Index(base, _) => {
                let mut p = self.place(base)?;
                p.indexed = true;
                Some(p)
            }
            Expr::Paren(inner) => self.place(inner),
            // `*p` accesses what `p` points at; approximate by `p` itself.
            Expr::Unary {
                op: UnaryOp::Deref,
                expr,
            } => self.place(expr),
            _ => None,
        }
    }

    fn access(&mut self, p: Place, write: bool, atomic: bool, cond_of: Option<u32>) {
        self.emit(Event::Access {
            var: p.key,
            display: p.display,
            write,
            atomic,
            init: false,
            cond_of,
            indexed: p.indexed,
            pos: p.pos,
        });
    }

    fn init_write(&mut self, id: SymbolId, name: Sym, pos: Pos) {
        self.emit(Event::Access {
            var: VarKey {
                root: VarRoot::Local(id),
                path: String::new(),
            },
            display: self.names.text(name).to_string(),
            write: true,
            atomic: false,
            init: true,
            cond_of: None,
            indexed: false,
            pos,
        });
    }

    /// Resolves a callee expression to an in-file call target: a declared
    /// package-level function, a method on the enclosing receiver type, or
    /// a function-typed parameter of the enclosing function.
    fn resolve_call_target(&self, callee: &Expr) -> Option<(CallTarget, Pos)> {
        match callee {
            Expr::Ident(pos, name) => {
                let sym = self.res.symbol_at(*pos)?;
                match sym.kind {
                    SymbolKind::Func => Some((CallTarget::Named(*name), *pos)),
                    SymbolKind::Param => {
                        let idx = self.params.iter().position(|p| *p == Some(sym.id))?;
                        Some((CallTarget::Param(idx), *pos))
                    }
                    _ => None,
                }
            }
            Expr::Selector(base, method) => {
                let recv = self.recv_type?;
                if let Expr::Ident(pos, _) = base.as_ref() {
                    let sym = self.res.symbol_at(*pos)?;
                    if sym.kind == SymbolKind::Receiver {
                        return Some((
                            CallTarget::Method {
                                recv,
                                name: *method,
                            },
                            *pos,
                        ));
                    }
                }
                None
            }
            Expr::Paren(inner) => self.resolve_call_target(inner),
            _ => None,
        }
    }

    /// Argument facts for a [`Event::Call`]: which arguments are function
    /// literals and which are trackable places.
    #[allow(clippy::type_complexity)]
    fn call_args_meta(&self, args: &[Expr]) -> (Vec<(usize, Pos)>, Vec<(usize, VarKey, String)>) {
        let mut closures = Vec::new();
        let mut vars = Vec::new();
        for (i, a) in args.iter().enumerate() {
            if let Expr::FuncLit { pos, .. } = a {
                closures.push((i, *pos));
            } else if let Some(p) = self.place(a) {
                vars.push((i, p.key, p.display));
            }
        }
        (closures, vars)
    }

    /// Emits the [`Event::Call`] for a resolvable callee, if any.
    fn call_event(&mut self, callee: &Expr, args: &[Expr], spawned: bool, go_pos: Option<Pos>) {
        if let Some((target, pos)) = self.resolve_call_target(callee) {
            let (closure_args, var_args) = self.call_args_meta(args);
            self.emit(Event::Call {
                target,
                spawned,
                in_loop: self.loop_depth > 0,
                closure_args,
                var_args,
                pos: go_pos.unwrap_or(pos),
            });
        }
    }

    /// The symbol declared by a `var`/`:=` at `pos` under `name`.
    fn declared_symbol(&self, pos: Pos, name: Sym) -> Option<SymbolId> {
        self.res
            .declared_at(pos, name)
            .find(|s| s.kind.capturable())
            .map(|s| s.id)
    }

    /// Emits read accesses for every trackable place in `e`, handling lock
    /// and atomic calls specially.
    fn reads(&mut self, e: &Expr, cond_of: Option<u32>) {
        if let Some(p) = self.place(e) {
            self.access(p, false, false, cond_of);
            // Still visit index sub-expressions: `m[k]` reads `k` too.
            self.read_index_parts(e, cond_of);
            return;
        }
        match e {
            Expr::Call { func, args, .. } => self.call(func, args, cond_of),
            Expr::Unary { expr, .. } => self.reads(expr, cond_of),
            Expr::Binary { lhs, rhs, .. } => {
                self.reads(lhs, cond_of);
                self.reads(rhs, cond_of);
            }
            Expr::Paren(inner) => self.reads(inner, cond_of),
            Expr::Index(b, i) => {
                self.reads(b, cond_of);
                self.reads(i, cond_of);
            }
            Expr::SliceExpr { expr, low, high } => {
                self.reads(expr, cond_of);
                if let Some(l) = low {
                    self.reads(l, cond_of);
                }
                if let Some(h) = high {
                    self.reads(h, cond_of);
                }
            }
            Expr::CompositeLit { elems, .. } => {
                for (k, v) in elems {
                    // A bare-identifier key is a struct field name, not a
                    // variable read; anything else (map keys) is evaluated.
                    if let Some(k) = k {
                        if k.as_ident().is_none() {
                            self.reads(k, cond_of);
                        }
                    }
                    self.reads(v, cond_of);
                }
            }
            Expr::Selector(base, _) => self.reads(base, cond_of),
            // Closures not launched by `go` run at an unknown time; their
            // bodies are outside this CFG (conservative: no events).
            Expr::FuncLit { .. } => {}
            _ => {}
        }
    }

    fn read_index_parts(&mut self, e: &Expr, cond_of: Option<u32>) {
        match e {
            Expr::Index(b, i) => {
                self.read_index_parts(b, cond_of);
                self.reads(i, cond_of);
            }
            Expr::Selector(b, _) | Expr::Paren(b) => self.read_index_parts(b, cond_of),
            Expr::Unary { expr, .. } => self.read_index_parts(expr, cond_of),
            _ => {}
        }
    }

    /// Handles a call expression: lock operations, `sync/atomic`, inline
    /// `func(){...}()` literals, and plain calls.
    fn call(&mut self, callee: &Expr, args: &[Expr], cond_of: Option<u32>) {
        if let Expr::Selector(base, method) = callee {
            let lock_op = match *method {
                sym::LOCK => Some((LockMode::Write, true)),
                sym::UNLOCK => Some((LockMode::Write, false)),
                sym::RLOCK => Some((LockMode::Read, true)),
                sym::RUNLOCK => Some((LockMode::Read, false)),
                _ => None,
            };
            if let Some((mode, acquire)) = lock_op {
                if let Some(p) = self.place(base) {
                    let ev = if acquire {
                        Event::Acquire {
                            lock: p.key,
                            mode,
                            display: p.display,
                            pos: p.pos,
                        }
                    } else {
                        Event::Release {
                            lock: p.key,
                            mode,
                            pos: p.pos,
                        }
                    };
                    self.emit(ev);
                    return;
                }
            }
            // `atomic.AddInt64(&v, 1)` family: the first argument is the
            // atomically-accessed place; `Load*` reads, everything else
            // (Add/Store/Swap/CompareAndSwap) writes.
            if base.as_ident() == Some(sym::ATOMIC) {
                let write = !self.names.text(*method).starts_with("Load");
                if let Some(Expr::Unary {
                    op: UnaryOp::Addr,
                    expr,
                }) = args.first()
                {
                    if let Some(p) = self.place(expr) {
                        self.access(p, write, true, cond_of);
                    }
                }
                for a in args.iter().skip(1) {
                    self.reads(a, cond_of);
                }
                return;
            }
            // Ordinary method call: the receiver chain itself is not a data
            // access we model (`wg.Add(1)` mutates through a method, which
            // the dedicated lints handle); arguments are evaluated here.
            for a in args {
                self.reads(a, cond_of);
            }
            self.call_event(callee, args, false, None);
            return;
        }
        // Immediately-invoked closure: runs here, on this thread.
        if let Expr::FuncLit { body, .. } = callee {
            for a in args {
                self.reads(a, cond_of);
            }
            self.stmts(&body.stmts);
            return;
        }
        for a in args {
            self.reads(a, cond_of);
        }
        self.call_event(callee, args, false, None);
    }

    fn write_target(&mut self, e: &Expr) {
        if let Some(p) = self.place(e) {
            self.access(p, true, false, None);
        }
        // Index parts of the target are still reads (`m[k] = v` reads k).
        self.read_index_parts(e, None);
    }

    fn stmts(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    #[allow(clippy::too_many_lines)]
    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Decl(v) => {
                for e in &v.values {
                    self.reads(e, None);
                }
                if !v.values.is_empty() {
                    for &name in &v.names {
                        if let Some(id) = self.declared_symbol(v.pos, name) {
                            self.init_write(id, name, v.pos);
                        }
                    }
                }
            }
            Stmt::Define { pos, names, values } => {
                for e in values {
                    self.reads(e, None);
                }
                for &name in names {
                    if name == sym::BLANK {
                        continue;
                    }
                    // A define that reuses an existing same-scope symbol is
                    // a real write; a fresh declaration is an init write.
                    if let Some(id) = self.declared_symbol(*pos, name) {
                        self.init_write(id, name, *pos);
                    } else if let Some(id) = self.res.use_at(*pos) {
                        if self.res.symbol(id).name == name {
                            self.emit(Event::Access {
                                var: VarKey {
                                    root: VarRoot::Local(id),
                                    path: String::new(),
                                },
                                display: self.names.text(name).to_string(),
                                write: true,
                                atomic: false,
                                init: false,
                                cond_of: None,
                                indexed: false,
                                pos: *pos,
                            });
                        }
                    }
                }
            }
            Stmt::Assign { lhs, rhs, op, .. } => {
                for e in rhs {
                    self.reads(e, None);
                }
                for e in lhs {
                    if op.binary().is_some() {
                        // Compound assignment reads the target too.
                        self.reads(e, None);
                    }
                    self.write_target(e);
                }
            }
            Stmt::IncDec { expr, .. } => {
                self.reads(expr, None);
                self.write_target(expr);
            }
            Stmt::Expr(e) => self.reads(e, None),
            Stmt::Send { chan, value, .. } => {
                self.reads(chan, None);
                self.reads(value, None);
            }
            Stmt::Go { pos, call } => {
                if let Expr::Call { func, args, .. } = call {
                    // Arguments evaluate on the spawning thread.
                    for a in args {
                        self.reads(a, None);
                    }
                    if let Expr::FuncLit { body, .. } = func.as_ref() {
                        self.spawn(*pos, body);
                    } else if self.resolve_call_target(func).is_some() {
                        // `go f(x)` with an in-file callee: the spawned call
                        // becomes interprocedural material, positioned at
                        // the `go` keyword (the spawn point for MHP).
                        self.call_event(func, args, true, Some(*pos));
                    } else {
                        // `go f(x)` — the callee body is out of scope for an
                        // intraprocedural pass.
                        self.reads(func, None);
                    }
                } else {
                    self.reads(call, None);
                }
            }
            Stmt::Defer { call, .. } => {
                // `defer x.Unlock()` keeps the lock held to function exit:
                // modeled by NOT emitting a release. Deferred closures run
                // at exit; their bodies are skipped (conservative).
                if let Expr::Call { func, args, .. } = call {
                    let is_unlock = matches!(
                        func.as_ref(),
                        Expr::Selector(_, m) if matches!(*m, sym::UNLOCK | sym::RUNLOCK)
                    );
                    if !is_unlock && !matches!(func.as_ref(), Expr::FuncLit { .. }) {
                        for a in args {
                            self.reads(a, None);
                        }
                    }
                }
            }
            Stmt::Return { values, .. } => {
                for e in values {
                    self.reads(e, None);
                }
                // Control leaves the function; the rest of the block is
                // unreachable — continue in a fresh, disconnected block.
                self.current = self.new_block();
            }
            Stmt::If {
                init,
                cond,
                then,
                els,
                ..
            } => {
                if let Some(i) = init {
                    self.stmt(i);
                }
                let tag = self.next_branch;
                self.next_branch += 1;
                self.reads(cond, Some(tag));
                let head = self.current;
                let join = self.new_block();

                self.branch_stack.push(tag);
                let then_entry = self.new_block();
                self.link(head, then_entry);
                self.current = then_entry;
                self.stmts(&then.stmts);
                let then_exit = self.current;
                self.link(then_exit, join);
                self.branch_stack.pop();

                if let Some(e) = els {
                    self.branch_stack.push(tag);
                    let else_entry = self.new_block();
                    self.link(head, else_entry);
                    self.current = else_entry;
                    self.stmt(e);
                    let else_exit = self.current;
                    self.link(else_exit, join);
                    self.branch_stack.pop();
                } else {
                    self.link(head, join);
                }
                self.current = join;
            }
            Stmt::Block(b) => self.stmts(&b.stmts),
            Stmt::For {
                init,
                cond,
                post,
                range,
                body,
                ..
            } => {
                if let Some(i) = init {
                    self.stmt(i);
                }
                let head = self.new_block();
                self.link(self.current, head);
                self.current = head;
                if let Some(c) = cond {
                    self.reads(c, None);
                }
                if let Some(r) = range {
                    self.reads(&r.expr, None);
                }
                let after = self.new_block();
                self.link(head, after);

                let body_entry = self.new_block();
                self.link(head, body_entry);
                self.current = body_entry;
                self.loop_stack.push(LoopFrame { head, after });
                self.loop_depth += 1;
                self.stmts(&body.stmts);
                if let Some(p) = post {
                    self.stmt(p);
                }
                self.loop_depth -= 1;
                self.loop_stack.pop();
                let body_exit = self.current;
                self.link(body_exit, head);
                self.current = after;
            }
            Stmt::Switch { tag, cases, .. } => {
                if let Some(t) = tag {
                    self.reads(t, None);
                }
                let head = self.current;
                let join = self.new_block();
                for c in cases {
                    self.current = head;
                    for e in &c.exprs {
                        self.reads(e, None);
                    }
                    let entry = self.new_block();
                    self.link(head, entry);
                    self.current = entry;
                    self.stmts(&c.body);
                    let exit = self.current;
                    self.link(exit, join);
                }
                // Without a default clause, control may skip every case.
                self.link(head, join);
                self.current = join;
            }
            Stmt::Select { cases, .. } => {
                let head = self.current;
                let join = self.new_block();
                for c in cases {
                    let entry = self.new_block();
                    self.link(head, entry);
                    self.current = entry;
                    if let Some(comm) = &c.comm {
                        self.stmt(comm);
                    }
                    self.stmts(&c.body);
                    let exit = self.current;
                    self.link(exit, join);
                }
                self.current = join;
            }
            Stmt::Branch { kind, .. } => match kind {
                BranchKind::Break => {
                    if let Some(f) = self.loop_stack.last() {
                        let after = f.after;
                        let cur = self.current;
                        self.link(cur, after);
                        self.current = self.new_block();
                    }
                }
                BranchKind::Continue => {
                    if let Some(f) = self.loop_stack.last() {
                        let head = f.head;
                        let cur = self.current;
                        self.link(cur, head);
                        self.current = self.new_block();
                    }
                }
                BranchKind::Fallthrough | BranchKind::Goto => {}
            },
            Stmt::Empty => {}
        }
    }

    /// Builds a spawned goroutine body as a new context.
    fn spawn(&mut self, pos: Pos, body: &Block) {
        let ctx_id = u32::try_from(self.contexts.len()).unwrap_or(u32::MAX);
        let saved_ctx = self.ctx;
        let saved_current = self.current;
        let saved_loops = std::mem::take(&mut self.loop_stack);
        let saved_branches = std::mem::take(&mut self.branch_stack);
        let saved_depth = self.loop_depth;

        self.ctx = ctx_id;
        self.loop_depth = 0;
        let entry = self.new_block();
        self.contexts.push(Context {
            id: ctx_id,
            entry,
            parent: Some(saved_ctx),
            spawn_pos: Some(pos),
            in_loop: saved_depth > 0,
        });
        self.blocks[saved_current.0].spawns.push(ctx_id);
        self.current = entry;
        self.stmts(&body.stmts);

        self.ctx = saved_ctx;
        self.current = saved_current;
        self.loop_stack = saved_loops;
        self.branch_stack = saved_branches;
        self.loop_depth = saved_depth;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;
    use crate::resolve::resolve_file;

    fn cfg_of(src: &str) -> FuncCfg {
        let file = parse_file(src).expect("parses");
        let res = resolve_file(&file);
        build_file(&file, &res)
            .into_iter()
            .next()
            .expect("a function with a body")
    }

    fn all_events(cfg: &FuncCfg) -> Vec<&Event> {
        cfg.blocks.iter().flat_map(|b| b.events.iter()).collect()
    }

    #[test]
    fn spawn_creates_context_with_edge() {
        let cfg = cfg_of(
            r"
package p
func f(jobs []int) {
    for _, j := range jobs {
        go func() { use(j) }()
    }
}
",
        );
        assert_eq!(cfg.contexts.len(), 2);
        assert!(cfg.contexts[1].in_loop, "goroutine spawned inside a loop");
        assert_eq!(cfg.contexts[1].parent, Some(0));
        assert!(cfg.blocks.iter().any(|b| b.spawns.contains(&1)));
    }

    #[test]
    fn lock_events_and_defer_unlock() {
        let cfg = cfg_of(
            r"
package p
func (g *Gate) update() {
    g.mu.RLock()
    defer g.mu.RUnlock()
    g.ready = true
}
",
        );
        let evs = all_events(&cfg);
        let acquires = evs
            .iter()
            .filter(|e| matches!(e, Event::Acquire { mode: LockMode::Read, .. }))
            .count();
        let releases = evs.iter().filter(|e| matches!(e, Event::Release { .. })).count();
        assert_eq!(acquires, 1);
        assert_eq!(releases, 0, "deferred release must not emit");
        // The write keys by receiver type.
        assert!(evs.iter().any(|e| matches!(
            e,
            Event::Access { var, write: true, .. }
                if var.root == VarRoot::Field("Gate".to_string()) && var.path == ".ready"
        )));
    }

    #[test]
    fn atomic_calls_mark_accesses() {
        let cfg = cfg_of(
            r"
package p
var ops int
func f() {
    atomic.AddInt64(&ops, 1)
    use(atomic.LoadInt64(&ops))
}
",
        );
        let evs = all_events(&cfg);
        let atomics: Vec<bool> = evs
            .iter()
            .filter_map(|e| match e {
                Event::Access { atomic: true, write, .. } => Some(*write),
                _ => None,
            })
            .collect();
        assert_eq!(atomics, vec![true, false], "Add writes, Load reads");
    }

    #[test]
    fn if_condition_reads_are_tagged() {
        let cfg = cfg_of(
            r"
package p
var instance int
func f() {
    if instance == 0 {
        instance = 1
    }
}
",
        );
        let evs = all_events(&cfg);
        let tag = evs
            .iter()
            .find_map(|e| match e {
                Event::Access { write: false, cond_of: Some(t), .. } => Some(*t),
                _ => None,
            })
            .expect("condition read tagged");
        // The guarded write lives in a block tagged with the same branch.
        let write_in_branch = cfg.blocks.iter().any(|b| {
            b.branch_tags.contains(&tag)
                && b.events
                    .iter()
                    .any(|e| matches!(e, Event::Access { write: true, .. }))
        });
        assert!(write_in_branch);
    }

    #[test]
    fn loops_have_back_edges() {
        let cfg = cfg_of(
            r"
package p
func f(n int) {
    for i := 0; i < n; i++ {
        work(i)
    }
}
",
        );
        let back_edge = cfg
            .blocks
            .iter()
            .enumerate()
            .any(|(i, b)| b.succs.iter().any(|s| s.0 <= i));
        assert!(back_edge);
    }

    #[test]
    fn shadowed_locals_key_differently() {
        let cfg = cfg_of(
            r"
package p
var version int
func f() {
    version := 2
    use(version)
}
",
        );
        for e in all_events(&cfg) {
            if let Event::Access { var, .. } = e {
                assert!(
                    matches!(var.root, VarRoot::Local(_)),
                    "shadowed name resolved to {var:?}"
                );
            }
        }
    }

    #[test]
    fn explicit_runlock_releases() {
        let cfg = cfg_of(
            r"
package p
func (s *Store) bump() {
    s.mu.RLock()
    v := s.count
    s.mu.RUnlock()
    s.count = v + 1
}
",
        );
        let evs = all_events(&cfg);
        assert_eq!(
            evs.iter().filter(|e| matches!(e, Event::Release { .. })).count(),
            1
        );
        // count is read once and written once (v's init write aside).
        let count_accesses = evs
            .iter()
            .filter(|e| matches!(e, Event::Access { var, .. } if var.path == ".count"))
            .count();
        assert_eq!(count_accesses, 2);
    }
}
