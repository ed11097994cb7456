//! The Go-lite abstract syntax tree.
//!
//! Nodes carry the [`Pos`] of their first token so scanners and lints can
//! report source locations.
//!
//! Every spelling in the tree — identifiers, selectors, type names, labels,
//! literal text — is a [`Sym`] into the file's own [`File::names`] table,
//! and every operator is a `Copy` enum, so a node compares and copies as
//! integers and holds no `String`. Text comes back through
//! [`File::text`] (or [`Names::text`]) and the operators' `as_str`. Closure
//! signatures and bodies sit behind `Arc`s: evaluating a `func` literal
//! shares them instead of copying the subtree.
//!
//! [`walk`] is the crate's one enumeration of statement and expression
//! children. A pass that only *looks* at nodes (the construct counter, the
//! lint collectors, the kill-point collector) is a visitor over it; a pass
//! that does different work per variant (parser, resolver, CFG builder)
//! keeps its own recursion.

use std::sync::Arc;

pub use crate::names::{sym, Names, Sym};
use crate::token::Pos;

/// A parsed source file.
#[derive(Debug, Clone, PartialEq)]
pub struct File {
    /// `package <name>`.
    pub package: Sym,
    /// Import paths (the text between the quotes).
    pub imports: Vec<Sym>,
    /// Top-level declarations.
    pub decls: Vec<Decl>,
    /// The spelling of every [`Sym`] in this file.
    pub names: Names,
}

impl File {
    /// The spelling of `sym` (shorthand for `self.names.text(sym)`).
    #[must_use]
    pub fn text(&self, sym: Sym) -> &str {
        self.names.text(sym)
    }
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
    pub name: Sym,
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
    /// Parameter name (may be [`sym::EMPTY`] or `_`).
    pub name: Sym,
    /// The type.
    pub ty: Type,
}

/// A `var`/`const` declaration (possibly multi-name).
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// Position of the keyword.
    pub pos: Pos,
    /// Declared names.
    pub names: Vec<Sym>,
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
    pub name: Sym,
    /// Underlying type.
    pub ty: Type,
}

/// A Go-lite type.
#[derive(Debug, Clone, PartialEq)]
pub enum Type {
    /// `int`, `MyStruct`, `pkg.Type` (a qualified name is one [`Sym`]
    /// spelled with its dot).
    Name(Sym),
    /// `*T`.
    Pointer(Box<Type>),
    /// `[]T`.
    Slice(Box<Type>),
    /// `[N]T` (size kept as spelled).
    Array(Sym, Box<Type>),
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
    pub fn name(&self) -> Option<Sym> {
        match self {
            Type::Name(n) => Some(*n),
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
        names: Vec<Sym>,
        /// Right-hand expressions.
        values: Vec<Expr>,
    },
    /// `lhs = rhs` or compound (`+=` etc.).
    Assign {
        /// Position.
        pos: Pos,
        /// Targets.
        lhs: Vec<Expr>,
        /// `=`, `+=`, ...
        op: AssignOp,
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
        /// Which keyword.
        kind: BranchKind,
        /// Optional label.
        label: Option<Sym>,
    },
    /// An empty statement (stray semicolon).
    Empty,
}

/// The `k, v := range x` clause of a range-for.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeClause {
    /// Key variable (may be `_` or [`sym::EMPTY`]).
    pub key: Sym,
    /// Value variable (may be [`sym::EMPTY`]).
    pub value: Sym,
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
    Ident(Pos, Sym),
    /// Integer literal: its spelling, and its value when it fits an `i64`
    /// (decimal with `_` separators, or `0x` hex).
    Int(Pos, Sym, Option<i64>),
    /// Float literal, as spelled.
    Float(Pos, Sym),
    /// String literal (the text between the quotes, escapes unprocessed).
    Str(Pos, Sym),
    /// Rune literal (the text between the quotes, escapes unprocessed).
    Rune(Pos, Sym),
    /// `x.sel`.
    Selector(Box<Expr>, Sym),
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
        /// The operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `func(params) results { body }` — a closure.
    FuncLit {
        /// Position of `func`.
        pos: Pos,
        /// Signature (shared with every closure value made from it).
        sig: Arc<Signature>,
        /// Body (likewise shared).
        body: Arc<Block>,
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
            | Expr::Int(p, _, _)
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
    pub fn as_ident(&self) -> Option<Sym> {
        match self {
            Expr::Ident(_, n) => Some(*n),
            _ => None,
        }
    }
}

/// A unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `-x`
    Neg,
    /// `+x`
    Plus,
    /// `!x`
    Not,
    /// `^x`
    BitNot,
    /// `*p`
    Deref,
    /// `&v`
    Addr,
    /// `<-ch`
    Recv,
}

impl UnaryOp {
    /// The operator's spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            UnaryOp::Neg => "-",
            UnaryOp::Plus => "+",
            UnaryOp::Not => "!",
            UnaryOp::BitNot => "^",
            UnaryOp::Deref => "*",
            UnaryOp::Addr => "&",
            UnaryOp::Recv => "<-",
        }
    }
}

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `||`
    OrOr,
    /// `&&`
    AndAnd,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `&`
    And,
    /// `&^`
    AndNot,
}

impl BinaryOp {
    /// The operator's spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            BinaryOp::OrOr => "||",
            BinaryOp::AndAnd => "&&",
            BinaryOp::Eq => "==",
            BinaryOp::Ne => "!=",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Or => "|",
            BinaryOp::Xor => "^",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Rem => "%",
            BinaryOp::Shl => "<<",
            BinaryOp::Shr => ">>",
            BinaryOp::And => "&",
            BinaryOp::AndNot => "&^",
        }
    }

    /// Go's binding strength, 1 (`||`) to 5 (`*` and friends).
    #[must_use]
    pub fn precedence(self) -> u8 {
        use BinaryOp::*;
        match self {
            OrOr => 1,
            AndAnd => 2,
            Eq | Ne | Lt | Le | Gt | Ge => 3,
            Add | Sub | Or | Xor => 4,
            Mul | Div | Rem | Shl | Shr | And | AndNot => 5,
        }
    }
}

/// An assignment operator: plain `=` or a compound `op=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    /// `=`
    Set,
    /// `+=`
    Add,
    /// `-=`
    Sub,
    /// `*=`
    Mul,
    /// `/=`
    Div,
    /// `%=`
    Rem,
    /// `&=`
    And,
    /// `|=`
    Or,
    /// `^=`
    Xor,
    /// `<<=`
    Shl,
    /// `>>=`
    Shr,
}

impl AssignOp {
    /// The operator's spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            AssignOp::Set => "=",
            AssignOp::Add => "+=",
            AssignOp::Sub => "-=",
            AssignOp::Mul => "*=",
            AssignOp::Div => "/=",
            AssignOp::Rem => "%=",
            AssignOp::And => "&=",
            AssignOp::Or => "|=",
            AssignOp::Xor => "^=",
            AssignOp::Shl => "<<=",
            AssignOp::Shr => ">>=",
        }
    }

    /// The binary operator a compound assignment applies (`None` for `=`).
    #[must_use]
    pub fn binary(self) -> Option<BinaryOp> {
        Some(match self {
            AssignOp::Set => return None,
            AssignOp::Add => BinaryOp::Add,
            AssignOp::Sub => BinaryOp::Sub,
            AssignOp::Mul => BinaryOp::Mul,
            AssignOp::Div => BinaryOp::Div,
            AssignOp::Rem => BinaryOp::Rem,
            AssignOp::And => BinaryOp::And,
            AssignOp::Or => BinaryOp::Or,
            AssignOp::Xor => BinaryOp::Xor,
            AssignOp::Shl => BinaryOp::Shl,
            AssignOp::Shr => BinaryOp::Shr,
        })
    }
}

/// The keyword of a [`Stmt::Branch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// `break`
    Break,
    /// `continue`
    Continue,
    /// `fallthrough`
    Fallthrough,
    /// `goto`
    Goto,
}

impl BranchKind {
    /// The keyword's spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            BranchKind::Break => "break",
            BranchKind::Continue => "continue",
            BranchKind::Fallthrough => "fallthrough",
            BranchKind::Goto => "goto",
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
