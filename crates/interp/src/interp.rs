//! The tree-walking evaluator.
//!
//! Scoping is decided by `golite::resolve`, once per program, and the
//! evaluator only executes it: which symbol an identifier use denotes,
//! whether a name a `:=`, `var`, `for` init or `range` clause binds is new
//! or reused ([`Resolution::binding`]), whether `len` at this use is the
//! builtin. A Go call owns a frame of cells keyed by symbol id, a `func`
//! literal's value carries the cells of [`Resolution::captures_at`], and
//! package-level variables live in one table per run.
//!
//! Faithfulness notes (each is load-bearing for a §4 pattern):
//!
//! * `:=` **reuses the cell** of a name the resolver finds declared in the
//!   same scope (Go's redeclaration rule) — so `x, err := f(); y, err :=
//!   g()` keeps one `err` variable, the substrate of Listing 2.
//! * A variable is a fresh cell each time its declaration executes: a loop
//!   body's variable is one cell per iteration, while `for i :=` and
//!   `for … range` declare theirs **once** and iterations write the same
//!   cells — Listing 1's captured loop variable.
//! * Named results are cells declared at function entry; `return expr`
//!   **writes** them before deferred functions run — Listings 3–4.
//! * Call-site argument passing consults the declared parameter type:
//!   value-typed structs and `sync.Mutex` are deep-copied (a copied mutex
//!   is an independent lock), pointer parameters share — Listings 7–8.
//! * `defer` evaluates its arguments immediately and runs the call at
//!   function exit, LIFO, after named results are written.

use std::sync::{Arc, OnceLock};

use grs_golite::ast::{
    sym, BinaryOp, Block, BranchKind, CommClause, Decl, Expr, File, FuncDecl, Names, Param,
    RangeClause, Signature, Stmt, Sym, Type, UnaryOp,
};
use grs_golite::names::FnvMap;
use grs_golite::parser::parse_file;
use grs_golite::resolve::{resolve_file, Binding, Resolution, SymbolId, SymbolKind};
use grs_golite::token::Pos;
use grs_runtime::chan::RecvResult;
use grs_runtime::{Cell, Ctx, GoMap, GoSlice, Program};

use crate::value::{FuncValue, Key, StructRef, Value};
use crate::InterpError;

/// A method's compiled form.
struct Method {
    recv_name: Sym,
    recv_is_ptr: bool,
    pos: Pos,
    sig: Arc<Signature>,
    body: Arc<Block>,
}

/// A top-level function's compiled form.
struct Func {
    /// Its name as every [`FuncValue`] made from it displays it.
    name: Arc<str>,
    pos: Pos,
    sig: Arc<Signature>,
    body: Arc<Block>,
}

/// Immutable compiled program state shared across goroutines. Every
/// [`Sym`] in it — table keys and the AST's — is spelled in `names`.
struct Shared {
    names: Names,
    /// What every name in the program denotes.
    res: Resolution,
    funcs: FnvMap<Sym, Func>,
    /// Keyed by `(receiver type, method name)`.
    methods: FnvMap<(Sym, Sym), Method>,
    struct_types: FnvMap<Sym, Vec<Param>>,
    global_vars: Vec<grs_golite::ast::VarDecl>,
    /// The size of a run's global table: package-level symbols come first
    /// in `res`, so this is one past the last package-level variable's id.
    globals: usize,
    /// The display name of every closure value.
    func_literal: Arc<str>,
    /// What a function that captures nothing carries.
    no_captures: Arc<[Cell<Value>]>,
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

    /// Compiles a parsed file, resolving every name in it once.
    #[must_use]
    pub fn from_file(file: File) -> Interp {
        let res = resolve_file(&file);
        let globals = res
            .symbols()
            .iter()
            .rposition(|s| matches!(s.kind, SymbolKind::GlobalVar | SymbolKind::GlobalConst))
            .map_or(0, |last| last + 1);
        let File { decls, names, .. } = file;
        let mut funcs = FnvMap::default();
        let mut methods = FnvMap::default();
        let mut struct_types = FnvMap::default();
        let mut global_vars = Vec::new();
        for decl in decls {
            match decl {
                Decl::Func(FuncDecl {
                    pos,
                    receiver: Some(recv),
                    name,
                    sig,
                    body: Some(body),
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
                                pos,
                                sig: Arc::new(sig),
                                body: Arc::new(body),
                            },
                        );
                    }
                }
                Decl::Func(FuncDecl {
                    pos,
                    receiver: None,
                    name,
                    sig,
                    body: Some(body),
                }) => {
                    funcs.insert(
                        name,
                        Func {
                            name: Arc::from(names.text(name)),
                            pos,
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
                res,
                funcs,
                methods,
                struct_types,
                global_vars,
                globals,
                func_literal: Arc::from("func literal"),
                no_captures: Arc::from([]),
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
            let rt = Rt {
                ctx,
                shared: Arc::clone(&shared),
                globals: (0..shared.globals).map(|_| OnceLock::new()).collect(),
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

/// One Go call's state: a cell per variable, keyed by the resolver's
/// symbol id (the function's captures first), its defers, and its named
/// result cells.
#[derive(Default)]
struct Frame {
    vars: Vec<(SymbolId, Cell<Value>)>,
    defers: Vec<PreparedCall>,
    named_results: Vec<Cell<Value>>,
}

/// The evaluator for one goroutine.
struct Rt<'c> {
    ctx: &'c Ctx,
    shared: Arc<Shared>,
    /// The run's package-level variables, indexed by symbol id and shared by
    /// its goroutines; a slot is set when its declaration executes.
    globals: Arc<[OnceLock<Cell<Value>>]>,
}

impl<'c> Rt<'c> {
    /// The spelling of `name`.
    fn text(&self, name: Sym) -> &str {
        self.shared.names.text(name)
    }

    /// The cell of variable `id`, once its declaration has executed.
    fn var<'a>(&'a self, fr: &'a Frame, id: SymbolId) -> Option<&'a Cell<Value>> {
        match self.shared.res.symbol(id).kind {
            SymbolKind::GlobalVar | SymbolKind::GlobalConst => self.globals[id.0 as usize].get(),
            _ => fr.vars.iter().rev().find(|(v, _)| *v == id).map(|(_, c)| c),
        }
    }

    /// The variable the identifier at `pos` denotes.
    fn var_at<'a>(&'a self, fr: &'a Frame, pos: Pos) -> Option<&'a Cell<Value>> {
        self.var(fr, self.shared.res.use_at(pos)?)
    }

    /// Declares variable `id` as a fresh cell named by its spelling. A
    /// declaration that executes again (a loop body's) replaces the frame's
    /// cell; closures made before keep the old one.
    fn declare(&self, fr: &mut Frame, id: SymbolId, value: Value) -> Cell<Value> {
        let symbol = self.shared.res.symbol(id);
        let cell = self.ctx.cell(self.text(symbol.name), value);
        if matches!(symbol.kind, SymbolKind::GlobalVar | SymbolKind::GlobalConst) {
            // A package-level declaration executes once per run.
            let _ = self.globals[id.0 as usize].set(cell.clone());
        } else if let Some(slot) = fr.vars.iter_mut().find(|(v, _)| *v == id) {
            slot.1 = cell.clone();
        } else {
            fr.vars.push((id, cell.clone()));
        }
        cell
    }

    /// What `name` denotes where the declaration at `pos` binds it.
    fn binding(&self, pos: Pos, name: Sym) -> Binding {
        let res = &self.shared.res;
        res.binding(pos, name).expect("the resolver binds every name a declaration binds")
    }

    /// The cell of the earlier variable a declaration reuses.
    fn existing(&self, fr: &Frame, pos: Pos, id: SymbolId) -> EResult<Cell<Value>> {
        self.var(fr, id).cloned().ok_or_else(|| {
            let name = self.text(self.shared.res.symbol(id).name);
            InterpError::at(pos, format!("assignment to undeclared `{name}`"))
        })
    }

    /// Binds `name` to `value` where the declaration at `pos` binds it: a new
    /// variable, or the earlier one a `:=` reuses, written.
    fn define(&self, fr: &mut Frame, pos: Pos, name: Sym, value: Value) -> EResult<Cell<Value>> {
        Ok(match self.binding(pos, name) {
            Binding::New(id) => self.declare(fr, id, value),
            Binding::Existing(id) => {
                let cell = self.existing(fr, pos, id)?;
                self.ctx.write(&cell, value);
                cell
            }
        })
    }

    fn bootstrap_and_run(&self, entry: &str) -> EResult<()> {
        // Package-level variables, in order, into the run's global table.
        let mut package = Frame::default();
        for v in &self.shared.global_vars {
            self.exec_var_decl(&mut package, v)?;
        }
        let entry_sym = self.shared.names.get(entry);
        let fv = match entry_sym.and_then(|e| self.top_level_func(e)) {
            Some(Value::Func(f)) => f,
            _ => return Err(InterpError::plain(format!("entry function {entry} not found"))),
        };
        self.call_function(&fv, Vec::new())?;
        Ok(())
    }

    /// The top-level function `name` as a value.
    fn top_level_func(&self, name: Sym) -> Option<Value> {
        let f = self.shared.funcs.get(&name)?;
        Some(Value::Func(FuncValue {
            name: Arc::clone(&f.name),
            pos: f.pos,
            sig: Arc::clone(&f.sig),
            body: Arc::clone(&f.body),
            captures: Arc::clone(&self.shared.no_captures),
            receiver: None,
        }))
    }

    // ---- declarations & zero values ----

    fn exec_var_decl(&self, fr: &mut Frame, v: &grs_golite::ast::VarDecl) -> EResult<()> {
        if v.values.is_empty() {
            let ty = v
                .ty
                .as_ref()
                .ok_or_else(|| InterpError::at(v.pos, "var needs a type or initializer"))?;
            for &name in &v.names {
                let zero = self.zero_value(ty);
                if name != sym::BLANK {
                    self.define(fr, v.pos, name, zero)?;
                }
            }
            return Ok(());
        }
        let values = self.eval_rhs_list(fr, &v.values, v.names.len())?;
        for (&name, value) in v.names.iter().zip(values) {
            if name != sym::BLANK {
                self.define(fr, v.pos, name, value)?;
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
        let mut fr = Frame::default();
        let captured = self.shared.res.captures_at(fv.pos).iter().copied();
        fr.vars.extend(captured.zip(fv.captures.iter().cloned()));
        if let Some((name, _is_ptr, value)) = &fv.receiver {
            if !name.is_blank() {
                self.define(&mut fr, fv.pos, *name, (**value).clone())?;
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
                self.define(&mut fr, fv.pos, param.name, bound)?;
            }
        }
        // Named results become cells that outlive the body (Listing 3).
        for r in fv.sig.results.iter().filter(|r| !r.name.is_blank()) {
            let cell = self.define(&mut fr, fv.pos, r.name, self.zero_value(&r.ty))?;
            fr.named_results.push(cell);
        }
        let flow = self.exec_block(&mut fr, &fv.body)?;
        let explicit = match flow {
            Flow::Return(vals) => vals,
            Flow::Normal => Vec::new(),
            Flow::Break | Flow::Continue => {
                return Err(InterpError::plain("break/continue outside loop"))
            }
        };
        // `return expr...` in a named-result function writes the named
        // cells — the compiler-inserted write the paper highlights.
        if !fr.named_results.is_empty() && !explicit.is_empty() {
            for (cell, v) in fr.named_results.iter().zip(explicit.iter()) {
                self.ctx.write(cell, v.clone());
            }
        }
        // Deferred calls run after the results are determined (and may
        // mutate named results — Listing 4).
        let defers = std::mem::take(&mut fr.defers);
        for prepared in defers.into_iter().rev() {
            self.run_prepared(prepared)?;
        }
        if fr.named_results.is_empty() {
            Ok(explicit)
        } else {
            Ok(fr
                .named_results
                .iter()
                .map(|c| self.ctx.read(c))
                .collect())
        }
    }

    // ---- statements ----

    fn exec_block(&self, fr: &mut Frame, block: &Block) -> EResult<Flow> {
        for stmt in &block.stmts {
            match self.exec_stmt(fr, stmt)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    #[allow(clippy::too_many_lines)]
    fn exec_stmt(&self, fr: &mut Frame, stmt: &Stmt) -> EResult<Flow> {
        match stmt {
            Stmt::Empty
            | Stmt::Branch {
                kind: BranchKind::Fallthrough,
                ..
            } => Ok(Flow::Normal),
            Stmt::Decl(v) => {
                self.exec_var_decl(fr, v)?;
                Ok(Flow::Normal)
            }
            Stmt::Define { pos, names, values } => {
                let vals = self.eval_rhs_list(fr, values, names.len())?;
                for (&name, value) in names.iter().zip(vals) {
                    if name != sym::BLANK {
                        self.define(fr, *pos, name, value)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Assign { lhs, op, rhs, pos } => {
                if let Some(binop) = op.binary() {
                    // Compound assignment: read, combine, write.
                    let r = self.eval_expr(fr, &rhs[0])?;
                    let current = self.eval_expr(fr, &lhs[0])?;
                    let combined = self
                        .binary(binop, current, r)
                        .map_err(|e| e.with_pos(*pos))?;
                    self.assign(fr, &lhs[0], combined)?;
                } else {
                    let vals = self.eval_rhs_list(fr, rhs, lhs.len())?;
                    for (l, v) in lhs.iter().zip(vals) {
                        self.assign(fr, l, v)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::IncDec { expr, inc, pos } => {
                let v = self.eval_expr(fr, expr)?.as_int().map_err(|e| e.with_pos(*pos))?;
                self.assign(fr, expr, Value::Int(if *inc { v + 1 } else { v - 1 }))?;
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                let _ = self.eval_multi(fr, e)?;
                Ok(Flow::Normal)
            }
            Stmt::Send { chan, value, pos } => {
                let ch = self.eval_expr(fr, chan)?;
                let v = self.eval_expr(fr, value)?;
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
                let prepared = self.prepare_call(fr, call, *pos)?;
                let shared = Arc::clone(&self.shared);
                let globals = Arc::clone(&self.globals);
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
                let prepared = self.prepare_call(fr, call, *pos)?;
                fr.defers.push(prepared);
                Ok(Flow::Normal)
            }
            Stmt::Return { values, .. } => {
                let vals = self.eval_rhs_list(fr, values, usize::MAX)?;
                Ok(Flow::Return(vals))
            }
            Stmt::If {
                init,
                cond,
                then,
                els,
                ..
            } => {
                if let Some(i) = init {
                    self.exec_stmt(fr, i)?;
                }
                if self.eval_expr(fr, cond)?.as_bool()? {
                    self.exec_block(fr, then)
                } else if let Some(e) = els {
                    self.exec_stmt(fr, e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::Block(b) => self.exec_block(fr, b),
            Stmt::For {
                pos,
                init,
                cond,
                post,
                range,
                body,
            } => {
                if let Some(r) = range {
                    return self.exec_range(fr, *pos, r, body);
                }
                if let Some(i) = init {
                    self.exec_stmt(fr, i)?;
                }
                let mut iterations = 0u64;
                loop {
                    if let Some(c) = cond {
                        if !self.eval_expr(fr, c)?.as_bool()? {
                            break;
                        }
                    }
                    match self.exec_block(fr, body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if let Some(p) = post {
                        self.exec_stmt(fr, p)?;
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
                    Some(t) => Some(self.eval_expr(fr, t)?),
                    None => None,
                };
                for case in cases {
                    let matched = if case.exprs.is_empty() {
                        true // default
                    } else {
                        let mut m = false;
                        for e in &case.exprs {
                            let v = self.eval_expr(fr, e)?;
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
                        return self.exec_clause(fr, &case.body);
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Select { cases, .. } => self.exec_select(fr, cases),
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

    /// `for k, v := range x { ... }` at `pos` — loop variables are declared
    /// ONCE and rewritten per iteration (the Listing 1 substrate).
    fn exec_range(
        &self,
        fr: &mut Frame,
        pos: Pos,
        r: &RangeClause,
        body: &Block,
    ) -> EResult<Flow> {
        let subject = self.eval_expr(fr, &r.expr)?;
        let key_cell = self.loop_var(fr, pos, r.key)?;
        let value_cell = self.loop_var(fr, pos, r.value)?;
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
                    match self.exec_block(fr, body)? {
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
                    match self.exec_block(fr, body)? {
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
                    match self.exec_block(fr, body)? {
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
                            match self.exec_block(fr, body)? {
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

    /// The cell a `range` clause at `pos` writes `name` through: declared
    /// for the whole loop, or the earlier variable `for k, v = range` assigns.
    fn loop_var(&self, fr: &mut Frame, pos: Pos, name: Sym) -> EResult<Option<Cell<Value>>> {
        if name.is_blank() {
            return Ok(None);
        }
        Ok(Some(match self.binding(pos, name) {
            Binding::New(id) => self.declare(fr, id, Value::Nil),
            Binding::Existing(id) => self.existing(fr, pos, id)?,
        }))
    }

    /// `select`: poll every arm; run `default` if none is ready; otherwise
    /// yield and retry. (Arms are polled in source order rather than Go's
    /// uniform choice; the scheduler's nondeterminism still varies which
    /// arm becomes ready first.)
    fn exec_select(&self, fr: &mut Frame, cases: &[CommClause]) -> EResult<Flow> {
        loop {
            let mut default_case: Option<&CommClause> = None;
            for case in cases {
                let Some(comm) = &case.comm else {
                    default_case = Some(case);
                    continue;
                };
                if let Some(flow) = self.try_comm(fr, comm, &case.body)? {
                    return Ok(flow);
                }
            }
            if let Some(case) = default_case {
                return self.exec_clause(fr, &case.body);
            }
            self.ctx.gosched();
        }
    }

    /// Attempts one communication arm; returns `Some(flow)` if it fired.
    fn try_comm(&self, fr: &mut Frame, comm: &Stmt, body: &[Stmt]) -> EResult<Option<Flow>> {
        let fired = match comm {
            // `case <-ch:`
            Stmt::Expr(Expr::Unary {
                op: UnaryOp::Recv,
                expr,
            }) => {
                let ch = self.expect_chan(fr, expr)?;
                ch.try_recv(self.ctx).is_some()
            }
            // `case v := <-ch:` / `case v, ok := <-ch:`
            Stmt::Define { pos, names, values } => match values.first() {
                Some(Expr::Unary {
                    op: UnaryOp::Recv,
                    expr,
                }) => {
                    let ch = self.expect_chan(fr, expr)?;
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
                                    self.define(fr, *pos, name, val)?;
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
                let ch = self.expect_chan(fr, chan)?;
                let v = self.eval_expr(fr, value)?;
                ch.try_send(self.ctx, v).is_ok()
            }
            _ => return Err(InterpError::plain("unsupported select communication")),
        };
        if !fired {
            return Ok(None);
        }
        self.exec_clause(fr, body).map(Some)
    }

    /// A `switch` or `select` clause's statements: `break` leaves the
    /// clause.
    fn exec_clause(&self, fr: &mut Frame, body: &[Stmt]) -> EResult<Flow> {
        for s in body {
            match self.exec_stmt(fr, s)? {
                Flow::Normal => {}
                Flow::Break => return Ok(Flow::Normal),
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn expect_chan(&self, fr: &Frame, e: &Expr) -> EResult<grs_runtime::Chan<Value>> {
        match self.eval_expr(fr, e)? {
            Value::Chan(c) => Ok(c),
            other => Err(InterpError::plain(format!(
                "expected channel, found {}",
                other.type_name()
            ))),
        }
    }

    // ---- assignment ----

    fn assign(&self, fr: &Frame, lhs: &Expr, value: Value) -> EResult<()> {
        match lhs {
            Expr::Ident(_, sym::BLANK) => Ok(()),
            Expr::Ident(pos, name) => {
                let cell = self.var_at(fr, *pos).ok_or_else(|| {
                    InterpError::at(
                        *pos,
                        format!("assignment to undeclared `{}`", self.text(*name)),
                    )
                })?;
                self.ctx.write(cell, value);
                Ok(())
            }
            Expr::Selector(base, field) => {
                let base_v = self.eval_expr(fr, base)?;
                let sref = self.as_struct(base_v)?;
                let cell = sref.field(self.ctx, *field, &self.shared.names);
                self.ctx.write(&cell, value);
                Ok(())
            }
            Expr::Index(base, idx) => {
                let base_v = self.eval_expr(fr, base)?;
                let idx_v = self.eval_expr(fr, idx)?;
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
            } => match self.eval_expr(fr, expr)? {
                Value::Pointer(cell) => {
                    self.ctx.write(&cell, value);
                    Ok(())
                }
                other => Err(InterpError::plain(format!(
                    "cannot dereference {}",
                    other.type_name()
                ))),
            },
            Expr::Paren(inner) => self.assign(fr, inner, value),
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
    fn eval_rhs_list(&self, fr: &Frame, exprs: &[Expr], want: usize) -> EResult<Vec<Value>> {
        if exprs.len() == 1 {
            let vals = self.eval_multi(fr, &exprs[0])?;
            if want != usize::MAX && vals.len() < want {
                return Err(InterpError::plain(format!(
                    "assignment mismatch: {want} target(s), {} value(s)",
                    vals.len()
                )));
            }
            return Ok(vals);
        }
        exprs.iter().map(|e| self.eval_expr(fr, e)).collect()
    }

    /// Evaluates an expression that may produce multiple values (calls,
    /// channel receives with ok).
    fn eval_multi(&self, fr: &Frame, e: &Expr) -> EResult<Vec<Value>> {
        match e {
            Expr::Call { .. } => self.eval_call(fr, e),
            Expr::Unary {
                op: UnaryOp::Recv,
                expr,
            } => {
                let ch = self.expect_chan(fr, expr)?;
                match ch.recv(self.ctx) {
                    RecvResult::Value(v) => Ok(vec![v, Value::Bool(true)]),
                    RecvResult::Closed => Ok(vec![Value::Nil, Value::Bool(false)]),
                }
            }
            other => Ok(vec![self.eval_expr(fr, other)?]),
        }
    }

    fn eval_expr(&self, fr: &Frame, e: &Expr) -> EResult<Value> {
        match e {
            Expr::Ident(pos, name) => {
                let value = self.shared.res.symbol_at(*pos).and_then(|s| match (s.kind, *name) {
                    (SymbolKind::Universe, sym::TRUE) => Some(Value::Bool(true)),
                    (SymbolKind::Universe, sym::FALSE) => Some(Value::Bool(false)),
                    (SymbolKind::Universe, sym::NIL) => Some(Value::Nil),
                    (SymbolKind::Func, name) => self.top_level_func(name),
                    _ => self.var(fr, s.id).map(|cell| self.ctx.read(cell)),
                });
                value.ok_or_else(|| {
                    InterpError::at(*pos, format!("undefined: {}", self.text(*name)))
                })
            }
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
            Expr::Paren(inner) => self.eval_expr(fr, inner),
            Expr::Selector(base, field) => {
                let base_v = self.eval_expr(fr, base)?;
                let sref = self.as_struct(base_v)?;
                let cell = sref.field(self.ctx, *field, &self.shared.names);
                Ok(self.ctx.read(&cell))
            }
            Expr::Index(base, idx) => {
                let base_v = self.eval_expr(fr, base)?;
                let idx_v = self.eval_expr(fr, idx)?;
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
                self.eval_expr(fr, expr)
            }
            Expr::Unary { op, expr } => match *op {
                UnaryOp::Neg => Ok(Value::Int(-self.eval_expr(fr, expr)?.as_int()?)),
                UnaryOp::Plus => self.eval_expr(fr, expr),
                UnaryOp::Not => Ok(Value::Bool(!self.eval_expr(fr, expr)?.as_bool()?)),
                UnaryOp::Recv => {
                    let ch = self.expect_chan(fr, expr)?;
                    match ch.recv(self.ctx) {
                        RecvResult::Value(v) => Ok(v),
                        RecvResult::Closed => Ok(Value::Nil),
                    }
                }
                UnaryOp::Addr => self.address_of(fr, expr),
                UnaryOp::Deref => match self.eval_expr(fr, expr)? {
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
                            self.eval_expr(fr, lhs)?.as_bool()?
                                && self.eval_expr(fr, rhs)?.as_bool()?,
                        ))
                    }
                    BinaryOp::OrOr => {
                        return Ok(Value::Bool(
                            self.eval_expr(fr, lhs)?.as_bool()?
                                || self.eval_expr(fr, rhs)?.as_bool()?,
                        ))
                    }
                    _ => {}
                }
                let l = self.eval_expr(fr, lhs)?;
                let r = self.eval_expr(fr, rhs)?;
                self.binary(*op, l, r)
            }
            Expr::Call { .. } => {
                let mut vals = self.eval_call(fr, e)?;
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
            Expr::FuncLit { pos, sig, body } => {
                // Capture by reference: the closure shares its enclosing
                // function's cells, each declared before the literal.
                let ids = self.shared.res.captures_at(*pos);
                let captures = if ids.is_empty() {
                    Arc::clone(&self.shared.no_captures)
                } else {
                    let cell = |&id| self.var(fr, id).expect("a capture is declared").clone();
                    ids.iter().map(cell).collect()
                };
                Ok(Value::Func(FuncValue {
                    name: Arc::clone(&self.shared.func_literal),
                    pos: *pos,
                    sig: Arc::clone(sig),
                    body: Arc::clone(body),
                    captures,
                    receiver: None,
                }))
            }
            Expr::CompositeLit { ty, elems } => self.composite(fr, ty.as_deref(), elems),
            Expr::TypeExpr(_) => Err(InterpError::plain("type used as value")),
        }
    }

    fn address_of(&self, fr: &Frame, expr: &Expr) -> EResult<Value> {
        match expr {
            Expr::Ident(pos, name) => {
                let cell = self.var_at(fr, *pos).ok_or_else(|| {
                    InterpError::at(*pos, format!("undefined: {}", self.text(*name)))
                })?;
                Ok(Value::Pointer(cell.clone()))
            }
            Expr::Selector(base, field) => {
                let base_v = self.eval_expr(fr, base)?;
                let sref = self.as_struct(base_v)?;
                Ok(Value::Pointer(sref.field(
                    self.ctx,
                    *field,
                    &self.shared.names,
                )))
            }
            Expr::CompositeLit { .. } => {
                let v = self.eval_expr(fr, expr)?;
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
        fr: &Frame,
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
                    let v = self.eval_expr(fr, value_expr)?;
                    let cell = sref.field(self.ctx, field, &self.shared.names);
                    self.ctx.write(&cell, v);
                }
                Ok(Value::Struct(sref))
            }
            Some(Type::Slice(_)) | None => {
                let s = GoSlice::empty(self.ctx, "slice literal");
                for (_, value_expr) in elems {
                    let v = self.eval_expr(fr, value_expr)?;
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
                    let kv = self.eval_expr(fr, k)?;
                    let v = self.eval_expr(fr, value_expr)?;
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
    fn prepare_call(&self, fr: &Frame, call: &Expr, pos: Pos) -> EResult<PreparedCall> {
        let Expr::Call { func, args, .. } = call else {
            return Err(InterpError::at(pos, "expected a function call"));
        };
        let callee = self.eval_callee(fr, func)?;
        let mut arg_values = Vec::with_capacity(args.len());
        for a in args {
            arg_values.push(self.eval_expr(fr, a)?);
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

    fn eval_call(&self, fr: &Frame, e: &Expr) -> EResult<Vec<Value>> {
        let Expr::Call { func, args, .. } = e else {
            return Err(InterpError::plain("not a call"));
        };
        match self.eval_callee(fr, func)? {
            Callee::Builtin(name) => self.call_builtin(fr, name, args),
            Callee::SyncMethod(recv, method) => {
                let mut argv = Vec::new();
                for a in args {
                    argv.push(self.eval_expr(fr, a)?);
                }
                self.call_sync_method(&recv, method, argv)?;
                Ok(Vec::new())
            }
            Callee::Func(fv) => {
                let mut argv = Vec::new();
                for a in args {
                    argv.push(self.eval_expr(fr, a)?);
                }
                self.call_function(&fv, argv)
            }
        }
    }

    fn eval_callee(&self, fr: &Frame, func: &Expr) -> EResult<Callee> {
        match func {
            Expr::Ident(pos, name)
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
                ) && self
                    .shared
                    .res
                    .symbol_at(*pos)
                    .is_some_and(|s| s.kind == SymbolKind::Universe) =>
            {
                Ok(Callee::Builtin(*name))
            }
            Expr::Selector(base, method) => {
                let method = *method;
                let base_v = self.eval_expr(fr, base)?;
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
            other => match self.eval_expr(fr, other)? {
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
            pos: m.pos,
            sig: Arc::clone(&m.sig),
            body: Arc::clone(&m.body),
            captures: Arc::clone(&self.shared.no_captures),
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

    fn call_builtin(&self, fr: &Frame, name: Sym, args: &[Expr]) -> EResult<Vec<Value>> {
        match name {
            sym::MAKE => {
                let Some(Expr::TypeExpr(ty)) = args.first() else {
                    return Err(InterpError::plain("make needs a type argument"));
                };
                match ty.as_ref() {
                    Type::Slice(_) => {
                        let s = GoSlice::empty(self.ctx, "slice");
                        if let Some(n) = args.get(1) {
                            let n = self.eval_expr(fr, n)?.as_int()?;
                            for _ in 0..n {
                                s.append(self.ctx, Value::Int(0));
                            }
                        }
                        Ok(vec![Value::Slice(s)])
                    }
                    Type::Map(_, _) => Ok(vec![Value::Map(GoMap::make(self.ctx, "map"))]),
                    Type::Chan(_, _) => {
                        let cap = match args.get(1) {
                            Some(c) => self.eval_expr(fr, c)?.as_int()? as usize,
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
                let v = self.eval_expr(fr, &args[0])?;
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
                let base = self.eval_expr(fr, &args[0])?;
                let Value::Slice(s) = base else {
                    return Err(InterpError::plain("append needs a slice"));
                };
                for a in &args[1..] {
                    let v = self.eval_expr(fr, a)?;
                    s.append(self.ctx, v);
                }
                Ok(vec![Value::Slice(s)])
            }
            sym::CLOSE => {
                let Value::Chan(c) = self.eval_expr(fr, &args[0])? else {
                    return Err(InterpError::plain("close needs a channel"));
                };
                c.close(self.ctx);
                Ok(Vec::new())
            }
            sym::DELETE => {
                let Value::Map(m) = self.eval_expr(fr, &args[0])? else {
                    return Err(InterpError::plain("delete needs a map"));
                };
                let k = self.eval_expr(fr, &args[1])?;
                m.delete(self.ctx, &Key::from_value(&k)?);
                Ok(Vec::new())
            }
            sym::PANIC => {
                let v = self.eval_expr(fr, &args[0])?;
                Err(InterpError::plain(format!("panic: {v:?}")))
            }
            sym::PRINTLN | sym::PRINT => {
                // Evaluate for effect; output is suppressed to keep
                // explorer runs quiet.
                for a in args {
                    let _ = self.eval_expr(fr, a)?;
                }
                Ok(Vec::new())
            }
            sym::SLEEP => {
                let n = self.eval_expr(fr, &args[0])?.as_int()?;
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
