//! The Go-lite abstract syntax tree.
//!
//! Nodes carry the [`Pos`] of their first token so scanners and lints can
//! report source locations.
//!
//! [`walk`] is the crate's one enumeration of statement and expression
//! children. A pass that only *looks* at nodes (the construct counter, the
//! lint collectors, the kill-point collector) is a visitor over it; a pass
//! that does different work per variant (parser, resolver, CFG builder)
//! keeps its own recursion.

use crate::token::Pos;

/// A parsed source file.
#[derive(Debug, Clone, PartialEq)]
pub struct File {
    /// `package <name>`.
    pub package: String,
    /// Import paths.
    pub imports: Vec<String>,
    /// Top-level declarations.
    pub decls: Vec<Decl>,
}

/// A top-level declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum Decl {
    /// `func` declaration (possibly a method).
    Func(FuncDecl),
    /// `var` declaration.
    Var(VarDecl),
    /// `const` declaration.
    Const(VarDecl),
    /// `type` declaration.
    Type(TypeDecl),
}

/// A function or method declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDecl {
    /// Position of the `func` keyword.
    pub pos: Pos,
    /// Method receiver, when present.
    pub receiver: Option<Param>,
    /// Function name.
    pub name: String,
    /// The signature.
    pub sig: Signature,
    /// The body (absent for external declarations).
    pub body: Option<Block>,
}

/// A function signature.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Signature {
    /// Parameters.
    pub params: Vec<Param>,
    /// Results; named results have non-empty names (the "named return"
    /// feature behind Listings 3–4).
    pub results: Vec<Param>,
}

impl Signature {
    /// True when any result parameter is named.
    #[must_use]
    pub fn has_named_results(&self) -> bool {
        self.results.iter().any(|r| !r.name.is_empty())
    }
}

/// A parameter / result / receiver: `name Type` (name may be empty).
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name (may be empty or `_`).
    pub name: String,
    /// The type.
    pub ty: Type,
}

/// A `var`/`const` declaration (possibly multi-name).
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// Position of the keyword.
    pub pos: Pos,
    /// Declared names.
    pub names: Vec<String>,
    /// Declared type, when explicit.
    pub ty: Option<Type>,
    /// Initializer expressions.
    pub values: Vec<Expr>,
}

/// A `type` declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeDecl {
    /// Position of the keyword.
    pub pos: Pos,
    /// Type name.
    pub name: String,
    /// Underlying type.
    pub ty: Type,
}

/// A Go-lite type.
#[derive(Debug, Clone, PartialEq)]
pub enum Type {
    /// `int`, `MyStruct`, `pkg.Type`.
    Name(String),
    /// `*T`.
    Pointer(Box<Type>),
    /// `[]T`.
    Slice(Box<Type>),
    /// `[N]T` (size kept as text).
    Array(String, Box<Type>),
    /// `map[K]V`.
    Map(Box<Type>, Box<Type>),
    /// `chan T` / `<-chan T` / `chan<- T`.
    Chan(ChanDir, Box<Type>),
    /// `func(params) results`.
    Func(Box<Signature>),
    /// `struct { fields }`.
    Struct(Vec<Param>),
    /// `interface { ... }` (methods elided).
    Interface,
}

impl Type {
    /// The dotted name when this is a (possibly qualified) named type.
    #[must_use]
    pub fn name(&self) -> Option<&str> {
        match self {
            Type::Name(n) => Some(n),
            _ => None,
        }
    }
}

/// Channel direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChanDir {
    /// `chan T`.
    Both,
    /// `<-chan T`.
    Recv,
    /// `chan<- T`.
    Send,
}

/// A `{ ... }` statement block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Statements, in order.
    pub stmts: Vec<Stmt>,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Local `var`/`const` declaration.
    Decl(VarDecl),
    /// `lhs := rhs` (short variable declaration).
    Define {
        /// Position.
        pos: Pos,
        /// Left-hand names.
        names: Vec<String>,
        /// Right-hand expressions.
        values: Vec<Expr>,
    },
    /// `lhs = rhs` or compound (`+=` etc.).
    Assign {
        /// Position.
        pos: Pos,
        /// Targets.
        lhs: Vec<Expr>,
        /// Operator spelling (`"="`, `"+="`, ...).
        op: &'static str,
        /// Sources.
        rhs: Vec<Expr>,
    },
    /// `x++` / `x--`.
    IncDec {
        /// Position.
        pos: Pos,
        /// Target.
        expr: Expr,
        /// `true` for `++`.
        inc: bool,
    },
    /// Bare expression (usually a call).
    Expr(Expr),
    /// `ch <- v`.
    Send {
        /// Position.
        pos: Pos,
        /// Channel expression.
        chan: Expr,
        /// Value expression.
        value: Expr,
    },
    /// `go f(...)`.
    Go {
        /// Position of `go`.
        pos: Pos,
        /// The call expression.
        call: Expr,
    },
    /// `defer f(...)`.
    Defer {
        /// Position of `defer`.
        pos: Pos,
        /// The call expression.
        call: Expr,
    },
    /// `return [exprs]`.
    Return {
        /// Position.
        pos: Pos,
        /// Returned values (empty = naked return).
        values: Vec<Expr>,
    },
    /// `if [init;] cond { } [else ...]`.
    If {
        /// Position.
        pos: Pos,
        /// Optional init statement.
        init: Option<Box<Stmt>>,
        /// Condition.
        cond: Expr,
        /// Then-block.
        then: Block,
        /// Else branch (block or nested if).
        els: Option<Box<Stmt>>,
    },
    /// Bare block `{ ... }` (also used for else-blocks).
    Block(Block),
    /// Any of Go's `for` forms.
    For {
        /// Position.
        pos: Pos,
        /// `for init; cond; post { }` pieces (all optional).
        init: Option<Box<Stmt>>,
        /// Loop condition (absent = infinite or range).
        cond: Option<Expr>,
        /// Post statement.
        post: Option<Box<Stmt>>,
        /// `for k, v := range x` clause, when present.
        range: Option<RangeClause>,
        /// The body.
        body: Block,
    },
    /// `switch [init;] [tag] { cases }` (simplified: cases hold plain
    /// statement lists).
    Switch {
        /// Position.
        pos: Pos,
        /// The tag expression, when present.
        tag: Option<Expr>,
        /// Case clauses.
        cases: Vec<CaseClause>,
    },
    /// `select { comm cases }`.
    Select {
        /// Position.
        pos: Pos,
        /// Communication clauses.
        cases: Vec<CommClause>,
    },
    /// `break` / `continue` / `fallthrough` / `goto L` (identifier kept).
    Branch {
        /// Position.
        pos: Pos,
        /// The keyword spelling.
        kind: &'static str,
        /// Optional label.
        label: Option<String>,
    },
    /// An empty statement (stray semicolon).
    Empty,
}

/// The `k, v := range x` clause of a range-for.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeClause {
    /// Key variable (may be `_` or empty).
    pub key: String,
    /// Value variable (may be empty).
    pub value: String,
    /// Whether `:=` (define) or `=` (assign) was used.
    pub define: bool,
    /// The ranged expression.
    pub expr: Expr,
}

/// One `case`/`default` clause of a switch.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseClause {
    /// Case expressions (empty = `default`).
    pub exprs: Vec<Expr>,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// One communication clause of a `select`.
#[derive(Debug, Clone, PartialEq)]
pub struct CommClause {
    /// The communication statement (`<-ch`, `v := <-ch`, `ch <- v`), or
    /// `None` for `default`.
    pub comm: Option<Box<Stmt>>,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Identifier.
    Ident(Pos, String),
    /// Integer literal.
    Int(Pos, String),
    /// Float literal.
    Float(Pos, String),
    /// String literal.
    Str(Pos, String),
    /// Rune literal.
    Rune(Pos, String),
    /// `x.sel`.
    Selector(Box<Expr>, String),
    /// `f(args...)`; `spread` marks a trailing `...`.
    Call {
        /// Callee.
        func: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
        /// Trailing `...`.
        spread: bool,
    },
    /// `x[i]`.
    Index(Box<Expr>, Box<Expr>),
    /// `x[a:b]` (either bound optional).
    SliceExpr {
        /// Sliced expression.
        expr: Box<Expr>,
        /// Low bound.
        low: Option<Box<Expr>>,
        /// High bound.
        high: Option<Box<Expr>>,
    },
    /// Unary operation (`-x`, `!x`, `*p`, `&v`, `<-ch`).
    Unary {
        /// Operator spelling.
        op: &'static str,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator spelling.
        op: &'static str,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `func(params) results { body }` — a closure.
    FuncLit {
        /// Position of `func`.
        pos: Pos,
        /// Signature.
        sig: Box<Signature>,
        /// Body.
        body: Block,
    },
    /// `T{elems...}` composite literal (keyed elements keep their keys).
    CompositeLit {
        /// The literal's type, when syntactically present.
        ty: Option<Box<Type>>,
        /// Elements (keyed as `key: value` pairs or bare values).
        elems: Vec<(Option<Expr>, Expr)>,
    },
    /// A parenthesized expression.
    Paren(Box<Expr>),
    /// A type used in expression position (conversions like `[]byte(s)`).
    TypeExpr(Box<Type>),
}

impl Expr {
    /// The position of the expression's first token, when tracked.
    #[must_use]
    pub fn pos(&self) -> Option<Pos> {
        match self {
            Expr::Ident(p, _)
            | Expr::Int(p, _)
            | Expr::Float(p, _)
            | Expr::Str(p, _)
            | Expr::Rune(p, _)
            | Expr::FuncLit { pos: p, .. } => Some(*p),
            Expr::Selector(e, _)
            | Expr::Index(e, _)
            | Expr::Paren(e)
            | Expr::SliceExpr { expr: e, .. } => e.pos(),
            Expr::Call { func, .. } => func.pos(),
            Expr::Unary { expr, .. } => expr.pos(),
            Expr::Binary { lhs, .. } => lhs.pos(),
            Expr::CompositeLit { .. } | Expr::TypeExpr(_) => None,
        }
    }

    /// The identifier name when this is a bare identifier.
    #[must_use]
    pub fn as_ident(&self) -> Option<&str> {
        match self {
            Expr::Ident(_, n) => Some(n),
            _ => None,
        }
    }

    /// Renders a selector chain like `wg.Add` as dotted text, when the
    /// expression is exactly an identifier or selector chain.
    #[must_use]
    pub fn dotted(&self) -> Option<String> {
        match self {
            Expr::Ident(_, n) => Some(n.clone()),
            Expr::Selector(base, sel) => Some(format!("{}.{}", base.dotted()?, sel)),
            _ => None,
        }
    }
}

/// A node [`walk`] hands its visitor, before any of the node's children.
#[derive(Debug, Clone, Copy)]
pub enum Node<'a> {
    /// A statement list: the body of a function, closure, block, `if` arm,
    /// loop, or `switch`/`select` case.
    List(&'a [Stmt]),
    /// A statement.
    Stmt(&'a Stmt),
    /// An expression.
    Expr(&'a Expr),
}

/// The visitor's verdict on the node it was just handed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// Visit the node's children next.
    Descend,
    /// Visit nothing beneath this node.
    Skip,
}

/// Pre-order traversal of everything beneath `root`, closure bodies
/// included: `visit` sees each statement list, statement and expression
/// once, parents first and siblings in source order, and prunes a subtree
/// by answering [`Walk::Skip`].
///
/// Both `match`es are exhaustive on purpose — a new [`Stmt`] or [`Expr`]
/// variant fails to compile here instead of being silently skipped.
pub fn walk<'a, F: FnMut(Node<'a>) -> Walk>(root: Node<'a>, visit: &mut F) {
    if visit(root) == Walk::Skip {
        return;
    }
    match root {
        Node::List(stmts) => walk_stmts(stmts, visit),
        Node::Stmt(s) => match s {
            Stmt::Decl(v) => walk_exprs(&v.values, visit),
            Stmt::Define { values, .. } | Stmt::Return { values, .. } => walk_exprs(values, visit),
            Stmt::Assign { lhs, rhs, .. } => walk_exprs(lhs.iter().chain(rhs), visit),
            Stmt::IncDec { expr, .. } | Stmt::Expr(expr) => walk_exprs([expr], visit),
            Stmt::Send { chan, value, .. } => walk_exprs([chan, value], visit),
            Stmt::Go { call, .. } | Stmt::Defer { call, .. } => walk_exprs([call], visit),
            Stmt::If {
                init,
                cond,
                then,
                els,
                ..
            } => {
                walk_stmts(init.as_deref(), visit);
                walk_exprs([cond], visit);
                walk(Node::List(&then.stmts), visit);
                walk_stmts(els.as_deref(), visit);
            }
            Stmt::Block(b) => walk(Node::List(&b.stmts), visit),
            Stmt::For {
                init,
                cond,
                post,
                range,
                body,
                ..
            } => {
                walk_stmts(init.as_deref(), visit);
                walk_exprs(cond, visit);
                walk_stmts(post.as_deref(), visit);
                walk_exprs(range.as_ref().map(|r| &r.expr), visit);
                walk(Node::List(&body.stmts), visit);
            }
            Stmt::Switch { tag, cases, .. } => {
                walk_exprs(tag, visit);
                for c in cases {
                    walk_exprs(&c.exprs, visit);
                    walk(Node::List(&c.body), visit);
                }
            }
            Stmt::Select { cases, .. } => {
                for c in cases {
                    walk_stmts(c.comm.as_deref(), visit);
                    walk(Node::List(&c.body), visit);
                }
            }
            Stmt::Branch { .. } | Stmt::Empty => {}
        },
        Node::Expr(e) => match e {
            Expr::Ident(..)
            | Expr::Int(..)
            | Expr::Float(..)
            | Expr::Str(..)
            | Expr::Rune(..)
            | Expr::TypeExpr(_) => {}
            Expr::Selector(inner, _) | Expr::Paren(inner) | Expr::Unary { expr: inner, .. } => {
                walk_exprs([inner.as_ref()], visit);
            }
            Expr::Call { func, args, .. } => {
                walk_exprs([func.as_ref()], visit);
                walk_exprs(args, visit);
            }
            Expr::Index(a, b) | Expr::Binary { lhs: a, rhs: b, .. } => {
                walk_exprs([a.as_ref(), b.as_ref()], visit);
            }
            Expr::SliceExpr { expr, low, high } => {
                walk_exprs([expr.as_ref()], visit);
                walk_exprs(low.as_deref(), visit);
                walk_exprs(high.as_deref(), visit);
            }
            Expr::FuncLit { body, .. } => walk(Node::List(&body.stmts), visit),
            Expr::CompositeLit { elems, .. } => {
                for (k, v) in elems {
                    walk_exprs(k, visit);
                    walk_exprs([v], visit);
                }
            }
        },
    }
}

fn walk_stmts<'a, F: FnMut(Node<'a>) -> Walk>(
    stmts: impl IntoIterator<Item = &'a Stmt>,
    visit: &mut F,
) {
    for s in stmts {
        walk(Node::Stmt(s), visit);
    }
}

fn walk_exprs<'a, F: FnMut(Node<'a>) -> Walk>(
    exprs: impl IntoIterator<Item = &'a Expr>,
    visit: &mut F,
) {
    for e in exprs {
        walk(Node::Expr(e), visit);
    }
}
