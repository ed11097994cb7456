//! The tree-walking evaluator.
//!
//! Faithfulness notes (each is load-bearing for a §4 pattern):
//!
//! * `:=` in a scope that already declares the name **reuses the cell**
//!   (Go's redeclaration rule) — so `x, err := f(); y, err := g()` keeps
//!   one `err` variable, the substrate of Listing 2.
//! * `for … range` declares its loop variables **once**; iterations write
//!   the same cells — Listing 1's captured loop variable.
//! * Named results are cells declared at function entry; `return expr`
//!   **writes** them before deferred functions run — Listings 3–4.
//! * Call-site argument passing consults the declared parameter type:
//!   value-typed structs and `sync.Mutex` are deep-copied (a copied mutex
//!   is an independent lock), pointer parameters share — Listings 7–8.
//! * `defer` evaluates its arguments immediately and runs the call at
//!   function exit, LIFO, after named results are written.

use std::sync::Arc;

use grs_golite::ast::{
    sym, BinaryOp, Block, BranchKind, CommClause, Decl, Expr, File, FuncDecl, Names, Param,
    RangeClause, Signature, Stmt, Sym, Type, UnaryOp,
};
use grs_golite::names::FnvMap;
use grs_golite::parser::parse_file;
use grs_golite::token::Pos;
use grs_runtime::chan::RecvResult;
use grs_runtime::{Cell, Ctx, GoMap, GoSlice, Program};

use crate::env::Env;
use crate::value::{FuncValue, Key, StructRef, Value};
use crate::InterpError;

/// A method's compiled form.
struct Method {
    recv_name: Sym,
    recv_is_ptr: bool,
    sig: Arc<Signature>,
    body: Arc<Block>,
}

/// A top-level function's compiled form.
struct Func {
    /// Its name as every [`FuncValue`] made from it displays it.
    name: Arc<str>,
    sig: Arc<Signature>,
    body: Arc<Block>,
}

/// Immutable compiled program state shared across goroutines. Every
/// [`Sym`] in it — table keys and the AST's — is spelled in `names`.
struct Shared {
    names: Names,
    funcs: FnvMap<Sym, Func>,
    /// Keyed by `(receiver type, method name)`.
    methods: FnvMap<(Sym, Sym), Method>,
    struct_types: FnvMap<Sym, Vec<Param>>,
    global_vars: Vec<grs_golite::ast::VarDecl>,
    /// The display name of every closure value.
    func_literal: Arc<str>,
}

/// A compiled Go-lite program, ready to instantiate as runtime
/// [`Program`]s.
///
/// # Example
///
/// ```
/// use grs_detector::{ExploreConfig, Explorer};
/// use grs_interp::Interp;
///
/// let src = r#"
/// package main
///
/// func main() {
///     count := 0
///     done := make(chan bool, 2)
///     for i := 0; i < 2; i = i + 1 {
///         go func() {
///             count = count + 1   // unsynchronized!
///             done <- true
///         }()
///     }
///     <-done
///     <-done
/// }
/// "#;
/// let interp = Interp::from_source(src).expect("compiles");
/// let program = interp.program("racy_counter", "main");
/// let result = Explorer::new(ExploreConfig::quick()).explore(&program);
/// assert!(result.found_race());
/// ```
pub struct Interp {
    shared: Arc<Shared>,
}

impl Interp {
    /// Compiles Go-lite source.
    ///
    /// # Errors
    ///
    /// Returns lexing/parsing errors.
    pub fn from_source(src: &str) -> Result<Interp, grs_golite::ParseError> {
        Ok(Self::from_file(parse_file(src)?))
    }

    /// Compiles Go-lite source with structured errors — the campaign-scale
    /// entry point: a failure is a [`CompileError`](crate::CompileError)
    /// naming its phase and position, never a panic.
    ///
    /// # Errors
    ///
    /// Returns [`CompilePhase::Parse`](crate::CompilePhase::Parse) errors
    /// for anything the lexer/parser rejects.
    pub fn compile(src: &str) -> Result<Interp, crate::CompileError> {
        Self::from_source(src)
            .map_err(|e| crate::CompileError::parse(Some(e.pos), e.message))
    }

    /// Compiles a parsed file.
    #[must_use]
    pub fn from_file(file: File) -> Interp {
        let File { decls, names, .. } = file;
        let mut funcs = FnvMap::default();
        let mut methods = FnvMap::default();
        let mut struct_types = FnvMap::default();
        let mut global_vars = Vec::new();
        for decl in decls {
            match decl {
                Decl::Func(FuncDecl {
                    receiver: Some(recv),
                    name,
                    sig,
                    body: Some(body),
                    ..
                }) => {
                    let (receiver_type, is_ptr) = match &recv.ty {
                        Type::Pointer(inner) => (inner.name(), true),
                        other => (other.name(), false),
                    };
                    // A receiver whose type is not a name declares a method
                    // no value can be asked for: methods are found through
                    // a struct value's type name.
                    if let Some(type_name) = receiver_type {
                        methods.insert(
                            (type_name, name),
                            Method {
                                recv_name: recv.name,
                                recv_is_ptr: is_ptr,
                                sig: Arc::new(sig),
                                body: Arc::new(body),
                            },
                        );
                    }
                }
                Decl::Func(FuncDecl {
                    receiver: None,
                    name,
                    sig,
                    body: Some(body),
                    ..
                }) => {
                    funcs.insert(
                        name,
                        Func {
                            name: Arc::from(names.text(name)),
                            sig: Arc::new(sig),
                            body: Arc::new(body),
                        },
                    );
                }
                Decl::Func(_) => {}
                Decl::Type(t) => {
                    if let Type::Struct(fields) = t.ty {
                        struct_types.insert(t.name, fields);
                    }
                }
                Decl::Var(v) | Decl::Const(v) => global_vars.push(v),
            }
        }
        Interp {
            shared: Arc::new(Shared {
                names,
                funcs,
                methods,
                struct_types,
                global_vars,
                func_literal: Arc::from("func literal"),
            }),
        }
    }

    /// Builds a runtime [`Program`] that initializes package-level
    /// variables and then calls the zero-argument function `entry`.
    #[must_use]
    pub fn program(&self, name: &str, entry: &str) -> Program {
        let shared = Arc::clone(&self.shared);
        let entry = entry.to_string();
        Program::new(name, move |ctx| {
            let globals = Env::root();
            let rt = Rt {
                ctx,
                shared: Arc::clone(&shared),
                globals: globals.clone(),
            };
            if let Err(e) = rt.bootstrap_and_run(&entry) {
                panic!("go-lite: {e}");
            }
        })
    }

    /// [`Interp::program`] with the lowering preconditions checked up
    /// front: the entry function must exist and take no parameters.
    /// Violations are structured [`CompileError`](crate::CompileError)s
    /// instead of runtime panics inside the program body — the contract
    /// the campaign's skip accounting is built on.
    ///
    /// # Errors
    ///
    /// Returns a [`CompilePhase::Lower`](crate::CompilePhase::Lower) error
    /// when `entry` is undefined or takes parameters.
    pub fn program_checked(
        &self,
        name: &str,
        entry: &str,
    ) -> Result<Program, crate::CompileError> {
        let shared = &self.shared;
        match shared.names.get(entry).and_then(|e| shared.funcs.get(&e)) {
            None => Err(crate::CompileError::lower(format!(
                "entry function `{entry}` is not declared"
            ))),
            Some(f) if !f.sig.params.is_empty() => {
                Err(crate::CompileError::lower(format!(
                    "entry function `{entry}` must take no parameters, has {}",
                    f.sig.params.len()
                )))
            }
            Some(_) => Ok(self.program(name, entry)),
        }
    }
}

/// Control flow through statement execution.
enum Flow {
    Normal,
    Return(Vec<Value>),
    Break,
    Continue,
}

type EResult<T> = Result<T, InterpError>;

/// Machine stack a Go call must find free (see [`Ctx::stack_headroom`]):
/// room for one call's worth of evaluator frames — several times larger in
/// a debug build — plus the kernel, a monitor and the panic that reports
/// the error. The Go depth this allows therefore depends on the build
/// profile; within one binary it is the same on every goroutine.
const STACK_RED_ZONE: usize = 256 << 10;

/// A call whose callee and arguments were evaluated eagerly (the `go` /
/// `defer` rule) but whose invocation is postponed.
enum PreparedCall {
    Func(FuncValue, Vec<Value>),
    Sync(Value, Sym, Vec<Value>),
    Builtin(Sym, Vec<Value>),
}

/// Per-function-call state: defers and named result cells.
struct FrameState {
    defers: Vec<PreparedCall>,
    named_results: Vec<Cell<Value>>,
}

/// The evaluator for one goroutine.
struct Rt<'c> {
    ctx: &'c Ctx,
    shared: Arc<Shared>,
    globals: Env,
}

impl<'c> Rt<'c> {
    /// The spelling of `name`.
    fn text(&self, name: Sym) -> &str {
        self.shared.names.text(name)
    }

    /// Declares `name` in `env`; its spelling is the cell's debug name.
    fn declare(&self, env: &Env, name: Sym, value: Value) -> Cell<Value> {
        env.declare(self.ctx, name, self.text(name), value)
    }

    fn bootstrap_and_run(&self, entry: &str) -> EResult<()> {
        // Package-level variables, in order. Top-level functions are NOT
        // pre-declared into the global scope: a stored `FuncValue` whose
        // `env` is the very scope holding its cell is an `Arc` cycle that
        // outlives the run and leaks the whole program graph. Identifier
        // resolution falls back to [`Rt::top_level_func`] instead.
        for v in &self.shared.global_vars {
            self.exec_var_decl(&self.globals, v)?;
        }
        let entry_sym = self.shared.names.get(entry);
        let fv = match entry_sym.and_then(|e| self.top_level_func(e)) {
            Some(Value::Func(f)) => f,
            _ => return Err(InterpError::plain(format!("entry function {entry} not found"))),
        };
        self.call_function(&fv, Vec::new())?;
        Ok(())
    }

    /// Lazily materializes the top-level function `name` as a value. The
    /// `FuncValue` is synthesized per resolution (never stored in the
    /// global scope) so the global Env owns no reference to itself.
    fn top_level_func(&self, name: Sym) -> Option<Value> {
        let f = self.shared.funcs.get(&name)?;
        Some(Value::Func(FuncValue {
            name: Arc::clone(&f.name),
            sig: Arc::clone(&f.sig),
            body: Arc::clone(&f.body),
            env: self.globals.clone(),
            receiver: None,
        }))
    }

    // ---- declarations & zero values ----

    fn exec_var_decl(&self, env: &Env, v: &grs_golite::ast::VarDecl) -> EResult<()> {
        if v.values.is_empty() {
            let ty = v
                .ty
                .as_ref()
                .ok_or_else(|| InterpError::at(v.pos, "var needs a type or initializer"))?;
            for &name in &v.names {
                let zero = self.zero_value(ty);
                if name != sym::BLANK {
                    self.declare(env, name, zero);
                }
            }
            return Ok(());
        }
        let values = self.eval_rhs_list(env, &v.values, v.names.len())?;
        for (&name, value) in v.names.iter().zip(values) {
            if name != sym::BLANK {
                self.declare(env, name, value);
            }
        }
        Ok(())
    }

    fn zero_value(&self, ty: &Type) -> Value {
        match ty {
            Type::Name(n) => match *n {
                sym::INT
                | sym::INT8
                | sym::INT16
                | sym::INT32
                | sym::INT64
                | sym::UINT
                | sym::UINT8
                | sym::UINT16
                | sym::UINT32
                | sym::UINT64
                | sym::BYTE
                | sym::RUNE
                | sym::FLOAT32
                | sym::FLOAT64 => Value::Int(0),
                sym::STRING => Value::Str(Arc::from("")),
                sym::BOOL => Value::Bool(false),
                sym::SYNC_MUTEX => Value::Mutex(self.ctx.mutex("mutex")),
                sym::SYNC_RWMUTEX => Value::RwMutex(self.ctx.rwmutex("rwmutex")),
                sym::SYNC_WAITGROUP => Value::WaitGroup(self.ctx.waitgroup("wg")),
                sym::SYNC_ONCE => Value::Once(self.ctx.once("once")),
                name => match self.shared.struct_types.get(&name) {
                    Some(fields) => Value::Struct(self.new_struct(name, fields)),
                    None => Value::Nil,
                },
            },
            Type::Slice(_) => Value::Slice(GoSlice::empty(self.ctx, "slice")),
            Type::Map(_, _) => Value::Map(GoMap::make(self.ctx, "map")),
            Type::Struct(fields) => Value::Struct(self.new_struct(sym::EMPTY, fields)),
            _ => Value::Nil,
        }
    }

    /// A zeroed instance of the struct type `name` ([`sym::EMPTY`] for an
    /// anonymous struct type, displayed as `struct`).
    fn new_struct(&self, name: Sym, fields: &[Param]) -> StructRef {
        let type_name = if name.is_empty() { "struct" } else { self.text(name) };
        let mut map = FnvMap::default();
        for f in fields {
            let zero = self.zero_value(&f.ty);
            map.insert(
                f.name,
                self.ctx
                    .cell(&format!("{type_name}.{}", self.text(f.name)), zero),
            );
        }
        StructRef::new(type_name, name, map)
    }

    /// Should an argument bound to a parameter of this type be deep-copied
    /// (Go value semantics) rather than shared?
    fn is_value_type(&self, ty: &Type) -> bool {
        match ty {
            Type::Name(n) => {
                matches!(
                    *n,
                    sym::SYNC_MUTEX | sym::SYNC_RWMUTEX | sym::SYNC_WAITGROUP | sym::SYNC_ONCE
                ) || self.shared.struct_types.contains_key(n)
            }
            Type::Struct(_) | Type::Array(_, _) => true,
            _ => false,
        }
    }

    // ---- function calls ----

    fn call_function(&self, fv: &FuncValue, args: Vec<Value>) -> EResult<Vec<Value>> {
        // The evaluator recurses on the machine stack once per Go call, and
        // running off a goroutine's stack kills the process: runaway
        // recursion fails the goroutine instead.
        if self.ctx.stack_headroom() < STACK_RED_ZONE {
            return Err(InterpError::plain(format!(
                "stack overflow: goroutine stack exhausted calling {}",
                fv.name
            )));
        }
        let _frame = self.ctx.frame(&fv.name);
        let fenv = fv.env.child();
        if let Some((name, _is_ptr, value)) = &fv.receiver {
            if !name.is_blank() {
                self.declare(&fenv, *name, (**value).clone());
            }
        }
        if args.len() != fv.sig.params.len() {
            return Err(InterpError::plain(format!(
                "{} expects {} argument(s), got {}",
                fv.name,
                fv.sig.params.len(),
                args.len()
            )));
        }
        for (param, arg) in fv.sig.params.iter().zip(args) {
            let bound = match (&param.ty, arg) {
                // Passing a slice copies its three-word header (the meta
                // fields) while sharing the backing array — instrumented
                // header reads with whatever locks the caller holds, which
                // is exactly Listing 5's subtle race.
                (Type::Slice(_), Value::Slice(s)) => Value::Slice(s.copy_value(self.ctx)),
                (_, arg) if self.is_value_type(&param.ty) => {
                    arg.deep_copy(self.ctx, &self.shared.names)
                }
                (_, arg) => arg,
            };
            if !param.name.is_blank() {
                self.declare(&fenv, param.name, bound);
            }
        }
        // Named results become cells that outlive the body (Listing 3).
        let mut fs = FrameState {
            defers: Vec::new(),
            named_results: Vec::new(),
        };
        let named: Vec<&Param> = fv
            .sig
            .results
            .iter()
            .filter(|r| !r.name.is_blank())
            .collect();
        for r in &named {
            let cell = self.declare(&fenv, r.name, self.zero_value(&r.ty));
            fs.named_results.push(cell);
        }
        let flow = self.exec_block(&fenv, &fv.body, &mut fs)?;
        let explicit = match flow {
            Flow::Return(vals) => vals,
            Flow::Normal => Vec::new(),
            Flow::Break | Flow::Continue => {
                return Err(InterpError::plain("break/continue outside loop"))
            }
        };
        // `return expr...` in a named-result function writes the named
        // cells — the compiler-inserted write the paper highlights.
        if !fs.named_results.is_empty() && !explicit.is_empty() {
            for (cell, v) in fs.named_results.iter().zip(explicit.iter()) {
                self.ctx.write(cell, v.clone());
            }
        }
        // Deferred calls run after the results are determined (and may
        // mutate named results — Listing 4).
        let defers = std::mem::take(&mut fs.defers);
        for prepared in defers.into_iter().rev() {
            self.run_prepared(prepared)?;
        }
        if fs.named_results.is_empty() {
            Ok(explicit)
        } else {
            Ok(fs
                .named_results
                .iter()
                .map(|c| self.ctx.read(c))
                .collect())
        }
    }

    // ---- statements ----

    fn exec_block(&self, env: &Env, block: &Block, fs: &mut FrameState) -> EResult<Flow> {
        let scope = env.child();
        for stmt in &block.stmts {
            match self.exec_stmt(&scope, stmt, fs)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    #[allow(clippy::too_many_lines)]
    fn exec_stmt(&self, env: &Env, stmt: &Stmt, fs: &mut FrameState) -> EResult<Flow> {
        match stmt {
            Stmt::Empty
            | Stmt::Branch {
                kind: BranchKind::Fallthrough,
                ..
            } => Ok(Flow::Normal),
            Stmt::Decl(v) => {
                self.exec_var_decl(env, v)?;
                Ok(Flow::Normal)
            }
            Stmt::Define { names, values, .. } => {
                let vals = self.eval_rhs_list(env, values, names.len())?;
                for (&name, value) in names.iter().zip(vals) {
                    if name == sym::BLANK {
                        continue;
                    }
                    // Go's := redeclaration rule: reuse a cell declared in
                    // THIS scope (the `err` idiom), else declare fresh.
                    match env.lookup_local(name) {
                        Some(cell) => self.ctx.write(&cell, value),
                        None => {
                            self.declare(env, name, value);
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Assign { lhs, op, rhs, pos } => {
                if let Some(binop) = op.binary() {
                    // Compound assignment: read, combine, write.
                    let r = self.eval_expr(env, &rhs[0])?;
                    let current = self.eval_expr(env, &lhs[0])?;
                    let combined = self
                        .binary(binop, current, r)
                        .map_err(|e| e.with_pos(*pos))?;
                    self.assign(env, &lhs[0], combined)?;
                } else {
                    let vals = self.eval_rhs_list(env, rhs, lhs.len())?;
                    for (l, v) in lhs.iter().zip(vals) {
                        self.assign(env, l, v)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::IncDec { expr, inc, pos } => {
                let v = self.eval_expr(env, expr)?.as_int().map_err(|e| e.with_pos(*pos))?;
                self.assign(env, expr, Value::Int(if *inc { v + 1 } else { v - 1 }))?;
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                let _ = self.eval_multi(env, e)?;
                Ok(Flow::Normal)
            }
            Stmt::Send { chan, value, pos } => {
                let ch = self.eval_expr(env, chan)?;
                let v = self.eval_expr(env, value)?;
                match ch {
                    Value::Chan(c) => {
                        c.send(self.ctx, v);
                        Ok(Flow::Normal)
                    }
                    other => Err(InterpError::at(
                        *pos,
                        format!("send on non-channel {}", other.type_name()),
                    )),
                }
            }
            Stmt::Go { call, pos } => {
                let prepared = self.prepare_call(env, call, *pos)?;
                let shared = Arc::clone(&self.shared);
                let globals = self.globals.clone();
                let func_name;
                let name = match &prepared {
                    PreparedCall::Func(fv, _) => {
                        func_name = Arc::clone(&fv.name);
                        &*func_name
                    }
                    PreparedCall::Sync(_, m, _) | PreparedCall::Builtin(m, _) => self.text(*m),
                };
                self.ctx.go(name, move |ctx| {
                    let rt = Rt {
                        ctx,
                        shared,
                        globals,
                    };
                    if let Err(e) = rt.run_prepared(prepared) {
                        panic!("go-lite goroutine: {e}");
                    }
                });
                Ok(Flow::Normal)
            }
            Stmt::Defer { call, pos } => {
                // Go evaluates the callee and arguments at defer time.
                let prepared = self.prepare_call(env, call, *pos)?;
                fs.defers.push(prepared);
                Ok(Flow::Normal)
            }
            Stmt::Return { values, .. } => {
                let vals = self.eval_rhs_list(env, values, usize::MAX)?;
                Ok(Flow::Return(vals))
            }
            Stmt::If {
                init,
                cond,
                then,
                els,
                ..
            } => {
                let scope = env.child();
                if let Some(i) = init {
                    self.exec_stmt(&scope, i, fs)?;
                }
                if self.eval_expr(&scope, cond)?.as_bool()? {
                    self.exec_block(&scope, then, fs)
                } else if let Some(e) = els {
                    self.exec_stmt(&scope, e, fs)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::Block(b) => self.exec_block(env, b, fs),
            Stmt::For {
                init,
                cond,
                post,
                range,
                body,
                ..
            } => {
                if let Some(r) = range {
                    return self.exec_range(env, r, body, fs);
                }
                let scope = env.child();
                if let Some(i) = init {
                    self.exec_stmt(&scope, i, fs)?;
                }
                let mut iterations = 0u64;
                loop {
                    if let Some(c) = cond {
                        if !self.eval_expr(&scope, c)?.as_bool()? {
                            break;
                        }
                    }
                    match self.exec_block(&scope, body, fs)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if let Some(p) = post {
                        self.exec_stmt(&scope, p, fs)?;
                    }
                    iterations += 1;
                    if iterations > 1_000_000 {
                        return Err(InterpError::plain("loop iteration bound exceeded"));
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Switch { tag, cases, .. } => {
                let tag_value = match tag {
                    Some(t) => Some(self.eval_expr(env, t)?),
                    None => None,
                };
                for case in cases {
                    let matched = if case.exprs.is_empty() {
                        true // default
                    } else {
                        let mut m = false;
                        for e in &case.exprs {
                            let v = self.eval_expr(env, e)?;
                            m = match &tag_value {
                                Some(t) => t.go_eq(&v)?,
                                None => v.as_bool()?,
                            };
                            if m {
                                break;
                            }
                        }
                        m
                    };
                    if matched {
                        let scope = env.child();
                        for s in &case.body {
                            match self.exec_stmt(&scope, s, fs)? {
                                Flow::Normal => {}
                                Flow::Break => return Ok(Flow::Normal),
                                other => return Ok(other),
                            }
                        }
                        return Ok(Flow::Normal);
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Select { cases, .. } => self.exec_select(env, cases, fs),
            Stmt::Branch {
                kind: BranchKind::Break,
                ..
            } => Ok(Flow::Break),
            Stmt::Branch {
                kind: BranchKind::Continue,
                ..
            } => Ok(Flow::Continue),
            Stmt::Branch { kind, pos, .. } => Err(InterpError::at(
                *pos,
                format!("unsupported branch `{}`", kind.as_str()),
            )),
        }
    }

    /// `for k, v := range x { ... }` — loop variables are declared ONCE and
    /// rewritten per iteration (the Listing 1 substrate).
    fn exec_range(
        &self,
        env: &Env,
        r: &RangeClause,
        body: &Block,
        fs: &mut FrameState,
    ) -> EResult<Flow> {
        let subject = self.eval_expr(env, &r.expr)?;
        let scope = env.child();
        let key_cell = (!r.key.is_blank()).then(|| self.declare(&scope, r.key, Value::Nil));
        let value_cell =
            (!r.value.is_blank()).then(|| self.declare(&scope, r.value, Value::Nil));
        match subject {
            Value::Slice(s) => {
                let mut i = 0usize;
                loop {
                    if i >= s.len(self.ctx) {
                        break;
                    }
                    if let Some(kc) = &key_cell {
                        self.ctx.write(kc, Value::Int(i as i64));
                    }
                    if let Some(vc) = &value_cell {
                        let elem = s.get(self.ctx, i);
                        self.ctx.write(vc, elem);
                    }
                    match self.exec_block(&scope, body, fs)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    i += 1;
                }
                Ok(Flow::Normal)
            }
            Value::Map(m) => {
                for (k, v) in m.iterate(self.ctx) {
                    if let Some(kc) = &key_cell {
                        self.ctx.write(kc, k.to_value());
                    }
                    if let Some(vc) = &value_cell {
                        self.ctx.write(vc, v);
                    }
                    match self.exec_block(&scope, body, fs)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Value::Int(n) => {
                // `for i := range n` (Go 1.22).
                for i in 0..n {
                    if let Some(kc) = &key_cell {
                        self.ctx.write(kc, Value::Int(i));
                    }
                    match self.exec_block(&scope, body, fs)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Value::Chan(ch) => {
                // `for v := range ch` — receive until the channel closes.
                loop {
                    match ch.recv(self.ctx) {
                        RecvResult::Closed => break,
                        RecvResult::Value(v) => {
                            if let Some(kc) = &key_cell {
                                self.ctx.write(kc, v);
                            }
                            match self.exec_block(&scope, body, fs)? {
                                Flow::Break => break,
                                Flow::Return(v) => return Ok(Flow::Return(v)),
                                Flow::Normal | Flow::Continue => {}
                            }
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            other => Err(InterpError::plain(format!(
                "cannot range over {}",
                other.type_name()
            ))),
        }
    }

    /// `select`: poll every arm; run `default` if none is ready; otherwise
    /// yield and retry. (Arms are polled in source order rather than Go's
    /// uniform choice; the scheduler's nondeterminism still varies which
    /// arm becomes ready first.)
    fn exec_select(
        &self,
        env: &Env,
        cases: &[CommClause],
        fs: &mut FrameState,
    ) -> EResult<Flow> {
        loop {
            let mut default_case: Option<&CommClause> = None;
            for case in cases {
                let Some(comm) = &case.comm else {
                    default_case = Some(case);
                    continue;
                };
                if let Some(flow) = self.try_comm(env, comm, &case.body, fs)? {
                    return Ok(flow);
                }
            }
            if let Some(case) = default_case {
                let scope = env.child();
                for s in &case.body {
                    match self.exec_stmt(&scope, s, fs)? {
                        Flow::Normal => {}
                        Flow::Break => return Ok(Flow::Normal),
                        other => return Ok(other),
                    }
                }
                return Ok(Flow::Normal);
            }
            self.ctx.gosched();
        }
    }

    /// Attempts one communication arm; returns `Some(flow)` if it fired.
    fn try_comm(
        &self,
        env: &Env,
        comm: &Stmt,
        body: &[Stmt],
        fs: &mut FrameState,
    ) -> EResult<Option<Flow>> {
        let scope = env.child();
        let fired = match comm {
            // `case <-ch:`
            Stmt::Expr(Expr::Unary {
                op: UnaryOp::Recv,
                expr,
            }) => {
                let ch = self.expect_chan(&scope, expr)?;
                ch.try_recv(self.ctx).is_some()
            }
            // `case v := <-ch:` / `case v, ok := <-ch:`
            Stmt::Define { names, values, .. } => match values.first() {
                Some(Expr::Unary {
                    op: UnaryOp::Recv,
                    expr,
                }) => {
                    let ch = self.expect_chan(&scope, expr)?;
                    match ch.try_recv(self.ctx) {
                        None => false,
                        Some(res) => {
                            let (v, ok) = match res {
                                RecvResult::Value(v) => (v, true),
                                RecvResult::Closed => (Value::Nil, false),
                            };
                            let bind = [Some(v), Some(Value::Bool(ok))];
                            for (&name, val) in names.iter().zip(bind.into_iter().flatten()) {
                                if name != sym::BLANK {
                                    self.declare(&scope, name, val);
                                }
                            }
                            true
                        }
                    }
                }
                _ => return Err(InterpError::plain("malformed select receive")),
            },
            // `case ch <- v:`
            Stmt::Send { chan, value, .. } => {
                let ch = self.expect_chan(&scope, chan)?;
                let v = self.eval_expr(&scope, value)?;
                ch.try_send(self.ctx, v).is_ok()
            }
            _ => return Err(InterpError::plain("unsupported select communication")),
        };
        if !fired {
            return Ok(None);
        }
        for s in body {
            match self.exec_stmt(&scope, s, fs)? {
                Flow::Normal => {}
                Flow::Break => return Ok(Some(Flow::Normal)),
                other => return Ok(Some(other)),
            }
        }
        Ok(Some(Flow::Normal))
    }

    fn expect_chan(&self, env: &Env, e: &Expr) -> EResult<grs_runtime::Chan<Value>> {
        match self.eval_expr(env, e)? {
            Value::Chan(c) => Ok(c),
            other => Err(InterpError::plain(format!(
                "expected channel, found {}",
                other.type_name()
            ))),
        }
    }

    // ---- assignment ----

    fn assign(&self, env: &Env, lhs: &Expr, value: Value) -> EResult<()> {
        match lhs {
            Expr::Ident(_, sym::BLANK) => Ok(()),
            Expr::Ident(pos, name) => {
                let cell = env.lookup(*name).ok_or_else(|| {
                    InterpError::at(
                        *pos,
                        format!("assignment to undeclared `{}`", self.text(*name)),
                    )
                })?;
                self.ctx.write(&cell, value);
                Ok(())
            }
            Expr::Selector(base, field) => {
                let base_v = self.eval_expr(env, base)?;
                let sref = self.as_struct(base_v)?;
                let cell = sref.field(self.ctx, *field, &self.shared.names);
                self.ctx.write(&cell, value);
                Ok(())
            }
            Expr::Index(base, idx) => {
                let base_v = self.eval_expr(env, base)?;
                let idx_v = self.eval_expr(env, idx)?;
                match base_v {
                    Value::Slice(s) => {
                        let i = idx_v.as_int()? as usize;
                        s.set(self.ctx, i, value);
                        Ok(())
                    }
                    Value::Map(m) => {
                        m.insert(self.ctx, Key::from_value(&idx_v)?, value);
                        Ok(())
                    }
                    other => Err(InterpError::plain(format!(
                        "cannot index-assign {}",
                        other.type_name()
                    ))),
                }
            }
            Expr::Unary {
                op: UnaryOp::Deref,
                expr,
            } => match self.eval_expr(env, expr)? {
                Value::Pointer(cell) => {
                    self.ctx.write(&cell, value);
                    Ok(())
                }
                other => Err(InterpError::plain(format!(
                    "cannot dereference {}",
                    other.type_name()
                ))),
            },
            Expr::Paren(inner) => self.assign(env, inner, value),
            other => Err(InterpError::plain(format!(
                "unsupported assignment target {other:?}"
            ))),
        }
    }

    fn as_struct(&self, v: Value) -> EResult<StructRef> {
        match v {
            Value::Struct(s) => Ok(s),
            Value::Pointer(cell) => {
                // Auto-deref, as Go's `.` does.
                match self.ctx.read(&cell) {
                    Value::Struct(s) => Ok(s),
                    other => Err(InterpError::plain(format!(
                        "pointer to {} has no fields",
                        other.type_name()
                    ))),
                }
            }
            other => Err(InterpError::plain(format!(
                "{} has no fields",
                other.type_name()
            ))),
        }
    }

    // ---- expressions ----

    /// Evaluates `exprs` as the RHS of an assignment expecting `want`
    /// targets (spreading one multi-value call; `usize::MAX` = take all).
    fn eval_rhs_list(&self, env: &Env, exprs: &[Expr], want: usize) -> EResult<Vec<Value>> {
        if exprs.len() == 1 {
            let vals = self.eval_multi(env, &exprs[0])?;
            if want != usize::MAX && vals.len() < want {
                return Err(InterpError::plain(format!(
                    "assignment mismatch: {want} target(s), {} value(s)",
                    vals.len()
                )));
            }
            return Ok(vals);
        }
        exprs.iter().map(|e| self.eval_expr(env, e)).collect()
    }

    /// Evaluates an expression that may produce multiple values (calls,
    /// channel receives with ok).
    fn eval_multi(&self, env: &Env, e: &Expr) -> EResult<Vec<Value>> {
        match e {
            Expr::Call { .. } => self.eval_call(env, e),
            Expr::Unary {
                op: UnaryOp::Recv,
                expr,
            } => {
                let ch = self.expect_chan(env, expr)?;
                match ch.recv(self.ctx) {
                    RecvResult::Value(v) => Ok(vec![v, Value::Bool(true)]),
                    RecvResult::Closed => Ok(vec![Value::Nil, Value::Bool(false)]),
                }
            }
            other => Ok(vec![self.eval_expr(env, other)?]),
        }
    }

    fn eval_expr(&self, env: &Env, e: &Expr) -> EResult<Value> {
        match e {
            Expr::Ident(pos, name) => match *name {
                sym::TRUE => Ok(Value::Bool(true)),
                sym::FALSE => Ok(Value::Bool(false)),
                sym::NIL => Ok(Value::Nil),
                name => {
                    if let Some(cell) = env.lookup(name) {
                        return Ok(self.ctx.read(&cell));
                    }
                    self.top_level_func(name).ok_or_else(|| {
                        InterpError::at(*pos, format!("undefined: {}", self.text(name)))
                    })
                }
            },
            Expr::Int(pos, text, value) => value.map(Value::Int).ok_or_else(|| {
                InterpError::at(
                    *pos,
                    format!("bad integer literal {}", self.text(*text)),
                )
            }),
            Expr::Float(pos, _) => Err(InterpError::at(*pos, "floats are not supported")),
            Expr::Str(_, s) => Ok(Value::Str(Arc::from(self.text(*s)))),
            Expr::Rune(_, s) => Ok(Value::Int(
                self.text(*s).chars().next().map_or(0, |c| c as i64),
            )),
            Expr::Paren(inner) => self.eval_expr(env, inner),
            Expr::Selector(base, field) => {
                let base_v = self.eval_expr(env, base)?;
                let sref = self.as_struct(base_v)?;
                let cell = sref.field(self.ctx, *field, &self.shared.names);
                Ok(self.ctx.read(&cell))
            }
            Expr::Index(base, idx) => {
                let base_v = self.eval_expr(env, base)?;
                let idx_v = self.eval_expr(env, idx)?;
                match base_v {
                    Value::Slice(s) => {
                        let i = idx_v.as_int()? as usize;
                        Ok(s.get(self.ctx, i))
                    }
                    Value::Map(m) => {
                        let k = Key::from_value(&idx_v)?;
                        Ok(m.get(self.ctx, &k).unwrap_or(Value::Nil))
                    }
                    Value::Str(s) => {
                        let i = idx_v.as_int()? as usize;
                        Ok(Value::Int(i64::from(*s.as_bytes().get(i).unwrap_or(&0))))
                    }
                    other => Err(InterpError::plain(format!(
                        "cannot index {}",
                        other.type_name()
                    ))),
                }
            }
            Expr::SliceExpr { expr, .. } => {
                // `s[a:b]` shares the backing array; Go-lite approximates
                // with the full slice (header sharing preserved).
                self.eval_expr(env, expr)
            }
            Expr::Unary { op, expr } => match *op {
                UnaryOp::Neg => Ok(Value::Int(-self.eval_expr(env, expr)?.as_int()?)),
                UnaryOp::Plus => self.eval_expr(env, expr),
                UnaryOp::Not => Ok(Value::Bool(!self.eval_expr(env, expr)?.as_bool()?)),
                UnaryOp::Recv => {
                    let ch = self.expect_chan(env, expr)?;
                    match ch.recv(self.ctx) {
                        RecvResult::Value(v) => Ok(v),
                        RecvResult::Closed => Ok(Value::Nil),
                    }
                }
                UnaryOp::Addr => self.address_of(env, expr),
                UnaryOp::Deref => match self.eval_expr(env, expr)? {
                    Value::Pointer(cell) => Ok(self.ctx.read(&cell)),
                    other => Err(InterpError::plain(format!(
                        "cannot dereference {}",
                        other.type_name()
                    ))),
                },
                UnaryOp::BitNot => Err(InterpError::plain(format!(
                    "unsupported unary `{}`",
                    op.as_str()
                ))),
            },
            Expr::Binary { op, lhs, rhs } => {
                // Short-circuit logic first.
                match *op {
                    BinaryOp::AndAnd => {
                        return Ok(Value::Bool(
                            self.eval_expr(env, lhs)?.as_bool()?
                                && self.eval_expr(env, rhs)?.as_bool()?,
                        ))
                    }
                    BinaryOp::OrOr => {
                        return Ok(Value::Bool(
                            self.eval_expr(env, lhs)?.as_bool()?
                                || self.eval_expr(env, rhs)?.as_bool()?,
                        ))
                    }
                    _ => {}
                }
                let l = self.eval_expr(env, lhs)?;
                let r = self.eval_expr(env, rhs)?;
                self.binary(*op, l, r)
            }
            Expr::Call { .. } => {
                let mut vals = self.eval_call(env, e)?;
                if vals.len() == 1 {
                    Ok(vals.remove(0))
                } else if vals.is_empty() {
                    Ok(Value::Nil)
                } else {
                    Err(InterpError::plain(
                        "multi-value expression in single-value context",
                    ))
                }
            }
            Expr::FuncLit { sig, body, .. } => Ok(Value::Func(FuncValue {
                name: Arc::clone(&self.shared.func_literal),
                sig: Arc::clone(sig),
                body: Arc::clone(body),
                env: env.clone(), // capture by reference
                receiver: None,
            })),
            Expr::CompositeLit { ty, elems } => self.composite(env, ty.as_deref(), elems),
            Expr::TypeExpr(_) => Err(InterpError::plain("type used as value")),
        }
    }

    fn address_of(&self, env: &Env, expr: &Expr) -> EResult<Value> {
        match expr {
            Expr::Ident(pos, name) => {
                let cell = env.lookup(*name).ok_or_else(|| {
                    InterpError::at(*pos, format!("undefined: {}", self.text(*name)))
                })?;
                Ok(Value::Pointer(cell))
            }
            Expr::Selector(base, field) => {
                let base_v = self.eval_expr(env, base)?;
                let sref = self.as_struct(base_v)?;
                Ok(Value::Pointer(sref.field(
                    self.ctx,
                    *field,
                    &self.shared.names,
                )))
            }
            Expr::CompositeLit { .. } => {
                let v = self.eval_expr(env, expr)?;
                Ok(Value::Pointer(self.ctx.cell("&composite", v)))
            }
            other => Err(InterpError::plain(format!(
                "cannot take the address of {other:?}"
            ))),
        }
    }

    fn binary(&self, op: BinaryOp, l: Value, r: Value) -> EResult<Value> {
        Ok(match op {
            BinaryOp::Add => match (&l, &r) {
                (Value::Str(a), Value::Str(b)) => {
                    Value::Str(Arc::from(format!("{a}{b}").as_str()))
                }
                _ => Value::Int(l.as_int()? + r.as_int()?),
            },
            BinaryOp::Sub => Value::Int(l.as_int()? - r.as_int()?),
            BinaryOp::Mul => Value::Int(l.as_int()? * r.as_int()?),
            BinaryOp::Div => {
                let d = r.as_int()?;
                if d == 0 {
                    return Err(InterpError::plain("integer divide by zero"));
                }
                Value::Int(l.as_int()? / d)
            }
            BinaryOp::Rem => {
                let d = r.as_int()?;
                if d == 0 {
                    return Err(InterpError::plain("integer divide by zero"));
                }
                Value::Int(l.as_int()? % d)
            }
            BinaryOp::And => Value::Int(l.as_int()? & r.as_int()?),
            BinaryOp::Or => Value::Int(l.as_int()? | r.as_int()?),
            BinaryOp::Xor => Value::Int(l.as_int()? ^ r.as_int()?),
            BinaryOp::Shl => Value::Int(l.as_int()? << r.as_int()?),
            BinaryOp::Shr => Value::Int(l.as_int()? >> r.as_int()?),
            BinaryOp::AndNot => Value::Int(l.as_int()? & !r.as_int()?),
            BinaryOp::Eq => Value::Bool(l.go_eq(&r)?),
            BinaryOp::Ne => Value::Bool(!l.go_eq(&r)?),
            BinaryOp::Lt => self.compare(&l, &r, |o| o.is_lt())?,
            BinaryOp::Le => self.compare(&l, &r, |o| o.is_le())?,
            BinaryOp::Gt => self.compare(&l, &r, |o| o.is_gt())?,
            BinaryOp::Ge => self.compare(&l, &r, |o| o.is_ge())?,
            // `eval_expr` short-circuits these before evaluating `r`.
            BinaryOp::AndAnd | BinaryOp::OrOr => {
                return Err(InterpError::plain(format!(
                    "unsupported operator `{}`",
                    op.as_str()
                )))
            }
        })
    }

    fn compare(
        &self,
        l: &Value,
        r: &Value,
        pick: impl Fn(std::cmp::Ordering) -> bool,
    ) -> EResult<Value> {
        let ord = match (l, r) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => {
                return Err(InterpError::plain(format!(
                    "cannot order {} and {}",
                    l.type_name(),
                    r.type_name()
                )))
            }
        };
        Ok(Value::Bool(pick(ord)))
    }

    fn composite(
        &self,
        env: &Env,
        ty: Option<&Type>,
        elems: &[(Option<Expr>, Expr)],
    ) -> EResult<Value> {
        match ty {
            Some(Type::Name(name)) => {
                let fields = self.shared.struct_types.get(name).map_or(&[][..], Vec::as_slice);
                let sref = self.new_struct(*name, fields);
                for (key, value_expr) in elems {
                    let field = key
                        .as_ref()
                        .and_then(Expr::as_ident)
                        .ok_or_else(|| {
                            InterpError::plain("struct literals need keyed fields")
                        })?;
                    let v = self.eval_expr(env, value_expr)?;
                    let cell = sref.field(self.ctx, field, &self.shared.names);
                    self.ctx.write(&cell, v);
                }
                Ok(Value::Struct(sref))
            }
            Some(Type::Slice(_)) | None => {
                let s = GoSlice::empty(self.ctx, "slice literal");
                for (_, value_expr) in elems {
                    let v = self.eval_expr(env, value_expr)?;
                    s.append(self.ctx, v);
                }
                Ok(Value::Slice(s))
            }
            Some(Type::Map(_, _)) => {
                let m = GoMap::make(self.ctx, "map literal");
                for (key, value_expr) in elems {
                    let k = key
                        .as_ref()
                        .ok_or_else(|| InterpError::plain("map literals need keys"))?;
                    let kv = self.eval_expr(env, k)?;
                    let v = self.eval_expr(env, value_expr)?;
                    m.insert(self.ctx, Key::from_value(&kv)?, v);
                }
                Ok(Value::Map(m))
            }
            Some(other) => Err(InterpError::plain(format!(
                "unsupported composite literal type {other:?}"
            ))),
        }
    }

    // ---- calls ----

    /// Evaluates the callee and arguments of a call for `go`/`defer`
    /// without invoking it (Go evaluates both eagerly at those sites).
    fn prepare_call(&self, env: &Env, call: &Expr, pos: Pos) -> EResult<PreparedCall> {
        let Expr::Call { func, args, .. } = call else {
            return Err(InterpError::at(pos, "expected a function call"));
        };
        let callee = self.eval_callee(env, func)?;
        let mut arg_values = Vec::with_capacity(args.len());
        for a in args {
            arg_values.push(self.eval_expr(env, a)?);
        }
        match callee {
            Callee::Func(f) => Ok(PreparedCall::Func(f, arg_values)),
            Callee::SyncMethod(recv, method) => Ok(PreparedCall::Sync(recv, method, arg_values)),
            Callee::Builtin(name)
                if matches!(name, sym::CLOSE | sym::PANIC | sym::PRINTLN | sym::PRINT) =>
            {
                Ok(PreparedCall::Builtin(name, arg_values))
            }
            Callee::Builtin(name) => Err(InterpError::at(
                pos,
                format!("builtin {} cannot be used with go/defer", self.text(name)),
            )),
        }
    }

    /// Runs a prepared `go`/`defer` call.
    fn run_prepared(&self, prepared: PreparedCall) -> EResult<()> {
        match prepared {
            PreparedCall::Func(fv, args) => {
                self.call_function(&fv, args)?;
            }
            PreparedCall::Sync(recv, method, args) => {
                self.call_sync_method(&recv, method, args)?;
            }
            PreparedCall::Builtin(name, args) => match name {
                sym::CLOSE => match args.first() {
                    Some(Value::Chan(c)) => c.close(self.ctx),
                    _ => return Err(InterpError::plain("close needs a channel")),
                },
                sym::PANIC => {
                    return Err(InterpError::plain(format!(
                        "panic: {:?}",
                        args.first().cloned().unwrap_or(Value::Nil)
                    )))
                }
                sym::PRINTLN | sym::PRINT => {}
                other => {
                    return Err(InterpError::plain(format!(
                        "builtin {} cannot be deferred",
                        self.text(other)
                    )))
                }
            },
        }
        Ok(())
    }

    fn eval_call(&self, env: &Env, e: &Expr) -> EResult<Vec<Value>> {
        let Expr::Call { func, args, .. } = e else {
            return Err(InterpError::plain("not a call"));
        };
        match self.eval_callee(env, func)? {
            Callee::Builtin(name) => self.call_builtin(env, name, args),
            Callee::SyncMethod(recv, method) => {
                let mut argv = Vec::new();
                for a in args {
                    argv.push(self.eval_expr(env, a)?);
                }
                self.call_sync_method(&recv, method, argv)?;
                Ok(Vec::new())
            }
            Callee::Func(fv) => {
                let mut argv = Vec::new();
                for a in args {
                    argv.push(self.eval_expr(env, a)?);
                }
                self.call_function(&fv, argv)
            }
        }
    }

    fn eval_callee(&self, env: &Env, func: &Expr) -> EResult<Callee> {
        match func {
            Expr::Ident(_, name)
                if matches!(
                    *name,
                    sym::MAKE
                        | sym::NEW
                        | sym::LEN
                        | sym::CAP
                        | sym::APPEND
                        | sym::CLOSE
                        | sym::DELETE
                        | sym::PANIC
                        | sym::PRINTLN
                        | sym::PRINT
                        | sym::SLEEP
                        | sym::GOSCHED
                ) && env.lookup(*name).is_none()
                    && !self.shared.funcs.contains_key(name) =>
            {
                Ok(Callee::Builtin(*name))
            }
            Expr::Selector(base, method) => {
                let method = *method;
                let base_v = self.eval_expr(env, base)?;
                match &base_v {
                    Value::Mutex(_) | Value::RwMutex(_) | Value::WaitGroup(_) | Value::Once(_)
                        if matches!(
                            method,
                            sym::LOCK
                                | sym::UNLOCK
                                | sym::RLOCK
                                | sym::RUNLOCK
                                | sym::ADD
                                | sym::DONE
                                | sym::WAIT
                                | sym::DO
                        ) =>
                    {
                        Ok(Callee::SyncMethod(base_v, method))
                    }
                    Value::Struct(s) => self.method_value(&base_v, s, method, false),
                    Value::Pointer(cell) => {
                        let inner = self.ctx.read(cell);
                        match &inner {
                            Value::Struct(s) => self.method_value(&inner, s, method, true),
                            Value::Mutex(_)
                            | Value::RwMutex(_)
                            | Value::WaitGroup(_)
                            | Value::Once(_) => Ok(Callee::SyncMethod(inner, method)),
                            other => Err(InterpError::plain(format!(
                                "no method {} on pointer to {}",
                                self.text(method),
                                other.type_name()
                            ))),
                        }
                    }
                    Value::Func(_) => Err(InterpError::plain(format!(
                        "cannot call method {} on a func",
                        self.text(method)
                    ))),
                    other => Err(InterpError::plain(format!(
                        "no method {} on {}",
                        self.text(method),
                        other.type_name()
                    ))),
                }
            }
            other => match self.eval_expr(env, other)? {
                Value::Func(f) => Ok(Callee::Func(f)),
                v => Err(InterpError::plain(format!(
                    "cannot call {}",
                    v.type_name()
                ))),
            },
        }
    }

    /// Resolves a declared method into a bound [`FuncValue`], applying
    /// receiver value-vs-pointer semantics.
    fn method_value(
        &self,
        base: &Value,
        of: &StructRef,
        method: Sym,
        via_pointer: bool,
    ) -> EResult<Callee> {
        let type_name = &of.type_name;
        // sync.Mutex-like fields accessed through a struct use the sync
        // dispatch, so only declared methods reach here.
        let m = self
            .shared
            .methods
            .get(&(of.type_sym, method))
            .ok_or_else(|| {
                InterpError::plain(format!(
                    "undefined method {type_name}.{}",
                    self.text(method)
                ))
            })?;
        // Value receiver: the method operates on a COPY of the struct
        // (pointer receivers share). `via_pointer` callers always share the
        // underlying instance first.
        let receiver_value = if m.recv_is_ptr {
            base.clone()
        } else {
            let _ = via_pointer;
            base.deep_copy(self.ctx, &self.shared.names)
        };
        Ok(Callee::Func(FuncValue {
            name: Arc::from(format!("{type_name}.{}", self.text(method)).as_str()),
            sig: Arc::clone(&m.sig),
            body: Arc::clone(&m.body),
            env: self.globals.clone(),
            receiver: Some((m.recv_name, m.recv_is_ptr, Box::new(receiver_value))),
        }))
    }

    fn call_sync_method(&self, recv: &Value, method: Sym, args: Vec<Value>) -> EResult<()> {
        match (recv, method) {
            (Value::Mutex(m), sym::LOCK) => m.lock(self.ctx),
            (Value::Mutex(m), sym::UNLOCK) => m.unlock(self.ctx),
            (Value::RwMutex(m), sym::LOCK) => m.lock(self.ctx),
            (Value::RwMutex(m), sym::UNLOCK) => m.unlock(self.ctx),
            (Value::RwMutex(m), sym::RLOCK) => m.rlock(self.ctx),
            (Value::RwMutex(m), sym::RUNLOCK) => m.runlock(self.ctx),
            (Value::WaitGroup(w), sym::ADD) => {
                let delta = args
                    .first()
                    .ok_or_else(|| InterpError::plain("Add needs a delta"))?
                    .as_int()?;
                w.add(self.ctx, delta);
            }
            (Value::WaitGroup(w), sym::DONE) => w.done(self.ctx),
            (Value::WaitGroup(w), sym::WAIT) => w.wait(self.ctx),
            (Value::Once(o), sym::DO) => {
                let Some(Value::Func(fv)) = args.into_iter().next() else {
                    return Err(InterpError::plain("Once.Do needs a func argument"));
                };
                let mut inner: Result<(), InterpError> = Ok(());
                o.do_once(self.ctx, |_ctx| {
                    inner = self.call_function(&fv, Vec::new()).map(|_| ());
                });
                inner?;
            }
            (v, m) => {
                return Err(InterpError::plain(format!(
                    "no sync method {} on {}",
                    self.text(m),
                    v.type_name()
                )))
            }
        }
        Ok(())
    }

    fn call_builtin(&self, env: &Env, name: Sym, args: &[Expr]) -> EResult<Vec<Value>> {
        match name {
            sym::MAKE => {
                let Some(Expr::TypeExpr(ty)) = args.first() else {
                    return Err(InterpError::plain("make needs a type argument"));
                };
                match ty.as_ref() {
                    Type::Slice(_) => {
                        let s = GoSlice::empty(self.ctx, "slice");
                        if let Some(n) = args.get(1) {
                            let n = self.eval_expr(env, n)?.as_int()?;
                            for _ in 0..n {
                                s.append(self.ctx, Value::Int(0));
                            }
                        }
                        Ok(vec![Value::Slice(s)])
                    }
                    Type::Map(_, _) => Ok(vec![Value::Map(GoMap::make(self.ctx, "map"))]),
                    Type::Chan(_, _) => {
                        let cap = match args.get(1) {
                            Some(c) => self.eval_expr(env, c)?.as_int()? as usize,
                            None => 0,
                        };
                        Ok(vec![Value::Chan(self.ctx.chan("chan", cap))])
                    }
                    other => Err(InterpError::plain(format!(
                        "cannot make {other:?}"
                    ))),
                }
            }
            sym::NEW => {
                let Some(Expr::TypeExpr(ty)) = args.first() else {
                    // `new(T)` with a named type parses as a normal ident
                    // argument; resolve it as a type name.
                    if let Some(Expr::Ident(_, tn)) = args.first() {
                        let zero = self.zero_value(&Type::Name(*tn));
                        return Ok(vec![Value::Pointer(self.ctx.cell("new", zero))]);
                    }
                    return Err(InterpError::plain("new needs a type argument"));
                };
                let zero = self.zero_value(ty);
                Ok(vec![Value::Pointer(self.ctx.cell("new", zero))])
            }
            sym::LEN | sym::CAP => {
                let v = self.eval_expr(env, &args[0])?;
                let n = match v {
                    Value::Slice(s) => s.len(self.ctx) as i64,
                    Value::Map(m) => m.len(self.ctx) as i64,
                    Value::Str(s) => s.len() as i64,
                    other => {
                        return Err(InterpError::plain(format!(
                            "len of {}",
                            other.type_name()
                        )))
                    }
                };
                Ok(vec![Value::Int(n)])
            }
            sym::APPEND => {
                let base = self.eval_expr(env, &args[0])?;
                let Value::Slice(s) = base else {
                    return Err(InterpError::plain("append needs a slice"));
                };
                for a in &args[1..] {
                    let v = self.eval_expr(env, a)?;
                    s.append(self.ctx, v);
                }
                Ok(vec![Value::Slice(s)])
            }
            sym::CLOSE => {
                let Value::Chan(c) = self.eval_expr(env, &args[0])? else {
                    return Err(InterpError::plain("close needs a channel"));
                };
                c.close(self.ctx);
                Ok(Vec::new())
            }
            sym::DELETE => {
                let Value::Map(m) = self.eval_expr(env, &args[0])? else {
                    return Err(InterpError::plain("delete needs a map"));
                };
                let k = self.eval_expr(env, &args[1])?;
                m.delete(self.ctx, &Key::from_value(&k)?);
                Ok(Vec::new())
            }
            sym::PANIC => {
                let v = self.eval_expr(env, &args[0])?;
                Err(InterpError::plain(format!("panic: {v:?}")))
            }
            sym::PRINTLN | sym::PRINT => {
                // Evaluate for effect; output is suppressed to keep
                // explorer runs quiet.
                for a in args {
                    let _ = self.eval_expr(env, a)?;
                }
                Ok(Vec::new())
            }
            sym::SLEEP => {
                let n = self.eval_expr(env, &args[0])?.as_int()?;
                self.ctx.sleep(n.clamp(0, 1000) as u32);
                Ok(Vec::new())
            }
            sym::GOSCHED => {
                self.ctx.gosched();
                Ok(Vec::new())
            }
            other => Err(InterpError::plain(format!(
                "unknown builtin {}",
                self.text(other)
            ))),
        }
    }
}

enum Callee {
    Func(FuncValue),
    Builtin(Sym),
    SyncMethod(Value, Sym),
}
