//! Recursive-descent parser for Go-lite.
//!
//! The grammar follows Go's, with the pragmatic restrictions a
//! construct-scanning and lint frontend can afford (no generics, interface
//! bodies elided, labels accepted but not resolved). Two classic Go parsing
//! wrinkles are handled faithfully because the study's patterns depend on
//! them:
//!
//! * **composite-literal vs block ambiguity** — `if x == T{}` — resolved
//!   as in gc by forbidding unparenthesized composite literals in control
//!   clause headers;
//! * **type arguments in call position** — `make(map[string]error)`,
//!   `make(chan int, 8)` — parsed as type expressions.
//!
//! The parser is a cursor over the lexer's `Copy` tokens: it dispatches on
//! the current token, interns each spelling into the file's [`Names`] as it
//! consumes it, and allocates only the tree. Each list — a block, a case
//! body, call arguments, either side of `:=` and `=`, parameters, composite
//! elements, declarations — is collected on a scratch stack the thread
//! keeps from file to file and moved into a `Vec` of exactly its length
//! when it closes, so a tree holds no spare room.
//!
//! Everything that looks past the current token — every `peek_at`, the one
//! cursor restore, the two forward scans — carries a `// LOOKAHEAD: <why>`
//! line, and `tests/lookahead_lint.rs` fails on one without: the accepted
//! subset can grow without growing accidental backtracking.

use std::cell::RefCell;
use std::sync::Arc;

use crate::ast::*;
use crate::error::ParseError;
use crate::lexer::tokenize;
use crate::names::Interner;
use crate::token::{Keyword as K, Pos, Tok, Token};

/// Parses a complete source file.
///
/// # Errors
///
/// Returns the first lexical or syntax error with its position.
pub fn parse_file(src: &str) -> Result<File, ParseError> {
    let tokens = tokenize(src)?;
    SCRATCH.with_borrow_mut(|s| Parser::new(tokens, s).file())
}

/// Parses a single expression (used by tests and tools); its [`Sym`]s are
/// spelled in the returned table.
///
/// # Errors
///
/// Returns the first error.
pub fn parse_expr(src: &str) -> Result<(Expr, Names), ParseError> {
    let tokens = tokenize(src)?;
    SCRATCH.with_borrow_mut(|s| {
        let mut p = Parser::new(tokens, s);
        let e = p.expr()?;
        Ok((e, p.s.names.finish()))
    })
}

/// Deepest nesting of statements, expressions, types and composite
/// literals the parser accepts. The parser and every pass behind it
/// (resolve, cfg, lint, the interpreter, `Drop`) recurse once per level,
/// so without a bound a source file chooses how much stack the process
/// needs. The parser is the hungriest of them: an unoptimized build on a
/// 2 MiB thread overflows near 180 levels, and everything this workspace
/// generates or embeds stays under 10.
pub const MAX_NESTING: usize = 128;

/// The value of an integer literal, when it has one the interpreter
/// accepts: decimal (with `_` separators), else the digits after `0x` as
/// hexadecimal.
fn int_value(text: &str) -> Option<i64> {
    let decimal = if text.contains('_') {
        text.replace('_', "").parse::<i64>()
    } else {
        text.parse::<i64>()
    };
    decimal
        .or_else(|_| i64::from_str_radix(text.trim_start_matches("0x"), 16))
        .ok()
}

/// Can a type start with this token?
fn starts_type(t: Tok<'_>) -> bool {
    matches!(
        t,
        Tok::Ident(_)
            | Tok::Star
            | Tok::LBracket
            | Tok::Kw(K::Map)
            | Tok::Kw(K::Chan)
            | Tok::Kw(K::Func)
            | Tok::Kw(K::Struct)
            | Tok::Kw(K::Interface)
            | Tok::Arrow
    )
}

/// The parser's working room. Each list under construction sits on the
/// stack for its element type, above the entries of the lists still open
/// around it; closing it ([`close`]) moves its entries out at their length.
/// A thread keeps one from one parse to the next.
#[derive(Default)]
struct Scratch {
    /// Every spelling consumed so far; becomes [`File::names`].
    names: Interner,
    stmts: Vec<Stmt>,
    exprs: Vec<Expr>,
    syms: Vec<Sym>,
    params: Vec<Param>,
    elems: Vec<(Option<Expr>, Expr)>,
    cases: Vec<CaseClause>,
    comms: Vec<CommClause>,
    decls: Vec<Decl>,
}

impl Scratch {
    fn clear(&mut self) {
        self.stmts.clear();
        self.exprs.clear();
        self.syms.clear();
        self.params.clear();
        self.elems.clear();
        self.cases.clear();
        self.comms.clear();
        self.decls.clear();
    }
}

thread_local! {
    /// This thread's [`Scratch`].
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// The entries of `stack` from `mark` on — one list — moved into a `Vec`
/// of exactly their number. Most lists hold one entry or none, and those
/// skip the drain.
fn close<T>(stack: &mut Vec<T>, mark: usize) -> Vec<T> {
    match stack.len() - mark {
        0 => Vec::new(),
        1 => vec![stack.pop().expect("the list's one entry")],
        _ => stack.drain(mark..).collect(),
    }
}

struct Parser<'src, 's> {
    /// The whole token stream; the last token is `Eof`.
    tokens: Vec<Token<'src>>,
    /// The cursor: index of the current token.
    pos: usize,
    /// Lists under construction and the names spelled so far.
    s: &'s mut Scratch,
    /// Composite literals with bare type names are disallowed while > 0
    /// (inside if/for/switch headers).
    no_composite: u32,
    /// Recursive rules entered and not yet left; see [`Parser::nested`].
    depth: usize,
}

impl<'src, 's> Parser<'src, 's> {
    fn new(tokens: Vec<Token<'src>>, s: &'s mut Scratch) -> Self {
        // A parse that failed left its lists open.
        s.clear();
        s.names.start();
        Parser {
            tokens,
            pos: 0,
            s,
            no_composite: 0,
            depth: 0,
        }
    }

    /// Runs one level of a recursive grammar rule: every cycle in the
    /// grammar passes through here (statements, expressions, types,
    /// composite-literal bodies). On the way out the depth returns to what
    /// it was on the way in, whatever the rule [`Parser::deepen`]ed by.
    fn nested<T>(
        &mut self,
        rule: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        let entered = self.depth;
        self.deepen()?;
        let out = rule(self);
        self.depth = entered;
        out
    }

    /// Counts one more level of the tree above whatever is parsed next —
    /// a rule entered, or a loop wrapping what it has so far as the child
    /// of a new node (`a + b + …`, `a.b().c()…`). Together the two bound
    /// the parser's stack and the depth of the tree it returns by
    /// [`MAX_NESTING`].
    fn deepen(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_NESTING {
            return Err(ParseError::new(
                self.here(),
                format!("nesting deeper than {MAX_NESTING} levels"),
            ));
        }
        self.depth += 1;
        Ok(())
    }

    /// The current token. The cursor never passes the final `Eof`.
    fn peek(&self) -> Tok<'src> {
        self.tokens[self.pos].tok
    }

    /// The token `n` past the current one (`Eof` past the end).
    fn peek_at(&self, n: usize) -> Tok<'src> {
        self.tokens[(self.pos + n).min(self.tokens.len() - 1)].tok
    }

    fn here(&self) -> Pos {
        self.tokens[self.pos].pos
    }

    fn bump(&mut self) -> Tok<'src> {
        let t = self.tokens[self.pos].tok;
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: Tok<'_>) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok<'_>) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(ParseError::new(
                self.here(),
                format!("expected `{t}`, found `{}`", self.peek()),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<Sym, ParseError> {
        match self.peek() {
            Tok::Ident(s) => {
                self.bump();
                Ok(self.s.names.intern(s))
            }
            other => Err(ParseError::new(
                self.here(),
                format!("expected identifier, found `{other}`"),
            )),
        }
    }

    /// `ident {, ident}`, pushed onto the name stack.
    fn push_idents(&mut self) -> Result<(), ParseError> {
        loop {
            let name = self.expect_ident()?;
            self.s.syms.push(name);
            if !self.eat(Tok::Comma) {
                return Ok(());
            }
        }
    }

    fn skip_semis(&mut self) {
        while self.eat(Tok::Semi) {}
    }

    // ---- file & declarations ----

    fn file(mut self) -> Result<File, ParseError> {
        self.skip_semis();
        self.expect(Tok::Kw(K::Package))?;
        let package = self.expect_ident()?;
        self.skip_semis();
        let imports = self.s.syms.len();
        while self.peek() == Tok::Kw(K::Import) {
            self.bump();
            if self.eat(Tok::LParen) {
                self.skip_semis();
                while self.peek() != Tok::RParen {
                    // Optional alias.
                    if matches!(self.peek(), Tok::Ident(_)) {
                        self.bump();
                    }
                    let path = self.import_path()?;
                    self.s.syms.push(path);
                    self.skip_semis();
                }
                self.expect(Tok::RParen)?;
            } else {
                if matches!(self.peek(), Tok::Ident(_))
                    // LOOKAHEAD: `import alias "path"` — an identifier is an
                    // alias only when the path string follows it.
                    && matches!(self.peek_at(1), Tok::Str(_))
                {
                    self.bump(); // alias
                }
                let path = self.import_path()?;
                self.s.syms.push(path);
            }
            self.skip_semis();
        }
        let imports = close(&mut self.s.syms, imports);
        let decls = self.s.decls.len();
        loop {
            self.skip_semis();
            let decl = match self.peek() {
                Tok::Eof => break,
                Tok::Kw(K::Func) => Decl::Func(self.func_decl()?),
                Tok::Kw(K::Var) => Decl::Var(self.var_decl(false)?),
                Tok::Kw(K::Const) => Decl::Const(self.var_decl(true)?),
                Tok::Kw(K::Type) => Decl::Type(self.type_decl()?),
                other => {
                    return Err(ParseError::new(
                        self.here(),
                        format!("expected declaration, found `{other}`"),
                    ))
                }
            };
            self.s.decls.push(decl);
        }
        Ok(File {
            package,
            imports,
            decls: close(&mut self.s.decls, decls),
            names: self.s.names.finish(),
        })
    }

    fn import_path(&mut self) -> Result<Sym, ParseError> {
        match self.bump() {
            Tok::Str(s) => Ok(self.s.names.intern(s)),
            other => Err(ParseError::new(
                self.here(),
                format!("expected import path string, found `{other}`"),
            )),
        }
    }

    fn func_decl(&mut self) -> Result<FuncDecl, ParseError> {
        let pos = self.here();
        self.expect(Tok::Kw(K::Func))?;
        let receiver = if self.peek() == Tok::LParen {
            // Could be a method receiver: `func (m *T) Name(...)`.
            let save = self.pos;
            self.bump();
            let recv = self.param_list_single();
            match recv {
                Ok(p) if self.eat(Tok::RParen) && matches!(self.peek(), Tok::Ident(_)) => {
                    Some(p)
                }
                _ => {
                    // LOOKAHEAD: the parser's one backtrack. `func (` opens a
                    // receiver or, with the name missing, a parameter list;
                    // only the `) Name` after a whole `name Type` tells, and
                    // a type is unbounded. The rewind lets `expect_ident`
                    // below report the missing name at the `(`.
                    self.pos = save;
                    None
                }
            }
        } else {
            None
        };
        let name = self.expect_ident()?;
        let sig = self.signature()?;
        let body = if self.peek() == Tok::LBrace {
            Some(self.block()?)
        } else {
            None
        };
        Ok(FuncDecl {
            pos,
            receiver,
            name,
            sig,
            body,
        })
    }

    /// Parses exactly one `name Type` (used for receivers).
    fn param_list_single(&mut self) -> Result<Param, ParseError> {
        let name = self.expect_ident()?;
        let ty = self.parse_type()?;
        Ok(Param { name, ty })
    }

    fn signature(&mut self) -> Result<Signature, ParseError> {
        self.expect(Tok::LParen)?;
        let params = self.param_list()?;
        self.expect(Tok::RParen)?;
        let results = if self.peek() == Tok::LParen {
            self.bump();
            let results = self.param_list()?;
            self.expect(Tok::RParen)?;
            results
        } else if starts_type(self.peek()) {
            let ty = self.parse_type()?;
            vec![Param {
                name: sym::EMPTY,
                ty,
            }]
        } else {
            Vec::new()
        };
        Ok(Signature { params, results })
    }

    /// Parses a comma-separated parameter list, resolving Go's shared-type
    /// grouping (`a, b int`) and unnamed lists (`int, error`).
    fn param_list(&mut self) -> Result<Vec<Param>, ParseError> {
        let out = self.s.params.len();
        // Names whose role waits on what follows them.
        let pending = self.s.syms.len();
        loop {
            if self.peek() == Tok::RParen {
                break;
            }
            // Variadic `...T`.
            if self.eat(Tok::Ellipsis) {
                let ty = self.parse_type()?;
                let name = if self.s.syms.len() > pending {
                    self.s.syms.pop()
                } else {
                    None
                };
                if self.s.syms.len() > pending {
                    let grouped = Type::Name(self.s.names.intern("<grouped>"));
                    self.settle(pending, |n| Param {
                        name: n,
                        ty: grouped.clone(),
                    });
                }
                self.s.params.push(Param {
                    name: name.unwrap_or(sym::EMPTY),
                    ty: Type::Slice(Box::new(ty)),
                });
            } else if matches!(self.peek(), Tok::Ident(_))
                // LOOKAHEAD: `v ...T` — the identifier names the variadic
                // parameter only when `...` follows it.
                && self.peek_at(1) == Tok::Ellipsis
            {
                // Named variadic: `v ...T`.
                let name = self.expect_ident()?;
                self.expect(Tok::Ellipsis)?;
                let ty = self.parse_type()?;
                self.settle(pending, |n| Param {
                    name: n,
                    ty: Type::Slice(Box::new(ty.clone())),
                });
                self.s.params.push(Param {
                    name,
                    ty: Type::Slice(Box::new(ty)),
                });
            } else if matches!(self.peek(), Tok::Ident(_))
                // LOOKAHEAD: `a, b int` vs `int, error` — an identifier
                // before `,` or `)` is a name or a type, settled only when
                // the group's type (or the list's end) arrives.
                && matches!(self.peek_at(1), Tok::Comma | Tok::RParen)
            {
                // Ambiguous: either an unnamed type or a name sharing a
                // later type.
                let name = self.expect_ident()?;
                self.s.syms.push(name);
            } else if matches!(self.peek(), Tok::Ident(_))
                // LOOKAHEAD: `name Type` vs a bare type name — a second
                // type-starting token makes the first a parameter name.
                && starts_type(self.peek_at(1))
            {
                // `name Type`.
                let name = self.expect_ident()?;
                let ty = self.parse_type()?;
                self.settle(pending, |n| Param {
                    name: n,
                    ty: ty.clone(),
                });
                self.s.params.push(Param { name, ty });
            } else {
                // Unnamed non-ident type (`*T`, `[]T`, `map[..]..`, ...).
                let ty = self.parse_type()?;
                self.settle(pending, |n| Param {
                    name: sym::EMPTY,
                    ty: Type::Name(n),
                });
                self.s.params.push(Param {
                    name: sym::EMPTY,
                    ty,
                });
            }
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        // Leftover pending names are unnamed type parameters.
        self.settle(pending, |n| Param {
            name: sym::EMPTY,
            ty: Type::Name(n),
        });
        Ok(close(&mut self.s.params, out))
    }

    /// Moves the names pending on the name stack since `mark` onto the
    /// parameter stack, each made a parameter by `param`.
    fn settle(&mut self, mark: usize, param: impl FnMut(Sym) -> Param) {
        let Scratch { syms, params, .. } = &mut *self.s;
        params.extend(syms.drain(mark..).map(param));
    }

    fn var_decl(&mut self, constant: bool) -> Result<VarDecl, ParseError> {
        let pos = self.here();
        self.bump(); // var / const
        let _ = constant;
        let (names, values) = (self.s.syms.len(), self.s.exprs.len());
        // Parenthesized groups: keep only the first spec's shape by
        // flattening all specs into one decl (fine for scanning/linting).
        let ty = if self.eat(Tok::LParen) {
            let mut ty = None;
            self.skip_semis();
            while self.peek() != Tok::RParen {
                let t = self.var_spec()?;
                if ty.is_none() {
                    ty = t;
                }
                self.skip_semis();
            }
            self.expect(Tok::RParen)?;
            ty
        } else {
            self.var_spec()?
        };
        Ok(VarDecl {
            pos,
            names: close(&mut self.s.syms, names),
            ty,
            values: close(&mut self.s.exprs, values),
        })
    }

    /// One `name [, name...] [Type] [= exprs]` specification of a
    /// var/const declaration: its names go on the name stack and its
    /// initializers on the expression stack; returns its type.
    fn var_spec(&mut self) -> Result<Option<Type>, ParseError> {
        self.push_idents()?;
        let mut ty = None;
        if self.peek() != Tok::Assign && self.peek() != Tok::Semi && starts_type(self.peek()) {
            ty = Some(self.parse_type()?);
        }
        if self.eat(Tok::Assign) {
            self.push_exprs()?;
        }
        Ok(ty)
    }

    fn type_decl(&mut self) -> Result<TypeDecl, ParseError> {
        let pos = self.here();
        self.expect(Tok::Kw(K::Type))?;
        if self.eat(Tok::LParen) {
            // Grouped type declarations: keep the first, parse the rest.
            self.skip_semis();
            let name = self.expect_ident()?;
            let ty = self.parse_type()?;
            self.skip_semis();
            while self.peek() != Tok::RParen {
                let _ = self.expect_ident()?;
                let _ = self.parse_type()?;
                self.skip_semis();
            }
            self.expect(Tok::RParen)?;
            return Ok(TypeDecl { pos, name, ty });
        }
        let name = self.expect_ident()?;
        let ty = self.parse_type()?;
        Ok(TypeDecl { pos, name, ty })
    }

    // ---- types ----

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        self.nested(Self::parse_type_rule)
    }

    fn parse_type_rule(&mut self) -> Result<Type, ParseError> {
        match self.peek() {
            Tok::Ident(_) => {
                let name = self.expect_ident()?;
                if self.peek() == Tok::Dot
                    // LOOKAHEAD: `pkg.Type` — the dot belongs to the type
                    // only when a name follows (`x.(T)` reaches here with a
                    // dot that does not).
                    && matches!(self.peek_at(1), Tok::Ident(_))
                {
                    self.bump();
                    let sel = self.expect_ident()?;
                    Ok(Type::Name(self.s.names.intern_dotted(name, sel)))
                } else {
                    Ok(Type::Name(name))
                }
            }
            Tok::Star => {
                self.bump();
                Ok(Type::Pointer(Box::new(self.parse_type()?)))
            }
            Tok::LBracket => {
                self.bump();
                if self.eat(Tok::RBracket) {
                    Ok(Type::Slice(Box::new(self.parse_type()?)))
                } else {
                    let size = match self.bump() {
                        // A literal, or a named constant.
                        Tok::Int(s) | Tok::Ident(s) => self.s.names.intern(s),
                        other => {
                            return Err(ParseError::new(
                                self.here(),
                                format!("expected array size, found `{other}`"),
                            ))
                        }
                    };
                    self.expect(Tok::RBracket)?;
                    Ok(Type::Array(size, Box::new(self.parse_type()?)))
                }
            }
            Tok::Kw(K::Map) => {
                self.bump();
                self.expect(Tok::LBracket)?;
                let k = self.parse_type()?;
                self.expect(Tok::RBracket)?;
                let v = self.parse_type()?;
                Ok(Type::Map(Box::new(k), Box::new(v)))
            }
            Tok::Kw(K::Chan) => {
                self.bump();
                let dir = if self.eat(Tok::Arrow) {
                    ChanDir::Send
                } else {
                    ChanDir::Both
                };
                Ok(Type::Chan(dir, Box::new(self.parse_type()?)))
            }
            Tok::Arrow => {
                self.bump();
                self.expect(Tok::Kw(K::Chan))?;
                Ok(Type::Chan(ChanDir::Recv, Box::new(self.parse_type()?)))
            }
            Tok::Kw(K::Func) => {
                self.bump();
                let sig = self.signature()?;
                Ok(Type::Func(Box::new(sig)))
            }
            Tok::Kw(K::Struct) => {
                self.bump();
                self.expect(Tok::LBrace)?;
                let fields = self.s.params.len();
                self.skip_semis();
                while self.peek() != Tok::RBrace {
                    // `a, b T` field groups; embedded fields are a bare type.
                    if matches!(self.peek(), Tok::Ident(_))
                        // LOOKAHEAD: a field (`a, b T`, `a T`) vs an
                        // embedded type name standing alone on its line.
                        && (starts_type(self.peek_at(1)) || self.peek_at(1) == Tok::Comma)
                    {
                        let names = self.s.syms.len();
                        self.push_idents()?;
                        let ty = self.parse_type()?;
                        self.settle(names, |name| Param {
                            name,
                            ty: ty.clone(),
                        });
                    } else {
                        let ty = self.parse_type()?;
                        self.s.params.push(Param {
                            name: sym::EMPTY,
                            ty,
                        });
                    }
                    // Optional struct tag.
                    if matches!(self.peek(), Tok::Str(_)) {
                        self.bump();
                    }
                    self.skip_semis();
                }
                self.expect(Tok::RBrace)?;
                Ok(Type::Struct(close(&mut self.s.params, fields)))
            }
            Tok::Kw(K::Interface) => {
                self.bump();
                self.expect(Tok::LBrace)?;
                // Elide interface bodies: skip to the matching brace.
                let mut depth = 1;
                while depth > 0 {
                    match self.bump() {
                        Tok::LBrace => depth += 1,
                        Tok::RBrace => depth -= 1,
                        Tok::Eof => {
                            return Err(ParseError::new(
                                self.here(),
                                "unterminated interface body",
                            ))
                        }
                        _ => {}
                    }
                }
                Ok(Type::Interface)
            }
            other => Err(ParseError::new(
                self.here(),
                format!("expected type, found `{other}`"),
            )),
        }
    }

    // ---- statements ----

    fn block(&mut self) -> Result<Block, ParseError> {
        self.expect(Tok::LBrace)?;
        // Composite literals are legal again inside the braces.
        let saved = self.no_composite;
        self.no_composite = 0;
        let stmts = self.stmts_until(|t| matches!(t, Tok::RBrace | Tok::Eof))?;
        self.expect(Tok::RBrace)?;
        self.no_composite = saved;
        Ok(Block { stmts })
    }

    /// Statements up to the first token `end` accepts, as one list.
    fn stmts_until(&mut self, end: fn(Tok<'_>) -> bool) -> Result<Vec<Stmt>, ParseError> {
        let stmts = self.s.stmts.len();
        self.skip_semis();
        while !end(self.peek()) {
            let s = self.stmt()?;
            self.s.stmts.push(s);
            self.skip_semis();
        }
        Ok(close(&mut self.s.stmts, stmts))
    }

    /// A `case`/`default` clause's body: statements up to the next clause
    /// or the closing brace.
    fn clause_body(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.stmts_until(|t| matches!(t, Tok::Kw(K::Case) | Tok::Kw(K::Default) | Tok::RBrace))
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Self::stmt_rule)
    }

    fn stmt_rule(&mut self) -> Result<Stmt, ParseError> {
        let pos = self.here();
        match self.peek() {
            Tok::Kw(K::Var) => Ok(Stmt::Decl(self.var_decl(false)?)),
            Tok::Kw(K::Const) => Ok(Stmt::Decl(self.var_decl(true)?)),
            Tok::Kw(K::Go) => {
                self.bump();
                let call = self.expr()?;
                Ok(Stmt::Go { pos, call })
            }
            Tok::Kw(K::Defer) => {
                self.bump();
                let call = self.expr()?;
                Ok(Stmt::Defer { pos, call })
            }
            Tok::Kw(K::Return) => {
                self.bump();
                let values = if matches!(self.peek(), Tok::Semi | Tok::RBrace | Tok::Eof) {
                    Vec::new()
                } else {
                    self.expr_list()?
                };
                Ok(Stmt::Return { pos, values })
            }
            Tok::Kw(K::If) => self.if_stmt(),
            Tok::Kw(K::For) => self.for_stmt(),
            Tok::Kw(K::Switch) => self.switch_stmt(),
            Tok::Kw(K::Select) => self.select_stmt(),
            Tok::Kw(K::Break) => {
                self.bump();
                let label = self.opt_label();
                Ok(Stmt::Branch {
                    pos,
                    kind: BranchKind::Break,
                    label,
                })
            }
            Tok::Kw(K::Continue) => {
                self.bump();
                let label = self.opt_label();
                Ok(Stmt::Branch {
                    pos,
                    kind: BranchKind::Continue,
                    label,
                })
            }
            Tok::Kw(K::Fallthrough) => {
                self.bump();
                Ok(Stmt::Branch {
                    pos,
                    kind: BranchKind::Fallthrough,
                    label: None,
                })
            }
            Tok::Kw(K::Goto) => {
                self.bump();
                let label = Some(self.expect_ident()?);
                Ok(Stmt::Branch {
                    pos,
                    kind: BranchKind::Goto,
                    label,
                })
            }
            Tok::LBrace => Ok(Stmt::Block(self.block()?)),
            Tok::Semi => {
                self.bump();
                Ok(Stmt::Empty)
            }
            _ => self.simple_stmt(),
        }
    }

    fn opt_label(&mut self) -> Option<Sym> {
        match self.peek() {
            Tok::Ident(_) => self.expect_ident().ok(),
            _ => None,
        }
    }

    /// Expression statement, define, assign, send, or inc/dec.
    fn simple_stmt(&mut self) -> Result<Stmt, ParseError> {
        let pos = self.here();
        let first = self.expr()?;
        match self.peek() {
            Tok::Define | Tok::Comma if self.defines_ahead() => {
                let targets = self.s.exprs.len();
                self.s.exprs.push(first);
                if self.eat(Tok::Comma) {
                    self.push_exprs()?;
                }
                if self.eat(Tok::Define) {
                    if self.s.exprs[targets..]
                        .iter()
                        .any(|e| e.as_ident().is_none())
                    {
                        return Err(ParseError::new(pos, "non-identifier on left of :="));
                    }
                    let names = self
                        .s
                        .exprs
                        .drain(targets..)
                        .map(|e| e.as_ident().expect("every target is an identifier"))
                        .collect();
                    let values = self.expr_list()?;
                    Ok(Stmt::Define { pos, names, values })
                } else {
                    self.expect(Tok::Assign)?;
                    let lhs = close(&mut self.s.exprs, targets);
                    Ok(Stmt::Assign {
                        pos,
                        lhs,
                        op: AssignOp::Set,
                        rhs: self.expr_list()?,
                    })
                }
            }
            Tok::Assign => {
                self.bump();
                Ok(Stmt::Assign {
                    pos,
                    lhs: vec![first],
                    op: AssignOp::Set,
                    rhs: self.expr_list()?,
                })
            }
            Tok::OpAssign(op) => {
                self.bump();
                let rhs = self.expr()?;
                Ok(Stmt::Assign {
                    pos,
                    lhs: vec![first],
                    op,
                    rhs: vec![rhs],
                })
            }
            Tok::Arrow => {
                self.bump();
                let value = self.expr()?;
                Ok(Stmt::Send {
                    pos,
                    chan: first,
                    value,
                })
            }
            Tok::Inc => {
                self.bump();
                Ok(Stmt::IncDec {
                    pos,
                    expr: first,
                    inc: true,
                })
            }
            Tok::Dec => {
                self.bump();
                Ok(Stmt::IncDec {
                    pos,
                    expr: first,
                    inc: false,
                })
            }
            _ => Ok(Stmt::Expr(first)),
        }
    }

    /// After having parsed one expression and seeing `,` or `:=`: is this a
    /// multi-target define/assign (vs an expression list elsewhere)? Scan
    /// ahead at depth 0 for `:=`/`=` before a terminator.
    fn defines_ahead(&self) -> bool {
        if self.peek() == Tok::Define {
            return true;
        }
        let mut i = 0;
        let mut depth = 0u32;
        loop {
            // LOOKAHEAD: an unbounded scan. After `a, ` the list is the left
            // side of `:=`/`=` or an expression list (`case a, b:`), and the
            // operator sits past any number of targets; the scan stops at
            // the statement's end and answers "no" past 4,096 tokens.
            match self.peek_at(i) {
                Tok::LParen | Tok::LBracket | Tok::LBrace => depth += 1,
                Tok::RParen | Tok::RBracket | Tok::RBrace => {
                    if depth == 0 {
                        return false;
                    }
                    depth -= 1;
                }
                Tok::Define | Tok::Assign if depth == 0 => return true,
                Tok::Semi | Tok::Eof => return false,
                _ => {}
            }
            i += 1;
            if i > 4096 {
                return false;
            }
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        let pos = self.here();
        self.expect(Tok::Kw(K::If))?;
        self.no_composite += 1;
        let first = self.simple_stmt()?;
        let (init, cond) = if self.eat(Tok::Semi) {
            let cond_expr = self.expr()?;
            (Some(Box::new(first)), cond_expr)
        } else {
            match first {
                Stmt::Expr(e) => (None, e),
                other => {
                    // `if err := f(); err != nil` handled above; anything
                    // else with a non-expression head is malformed.
                    return Err(ParseError::new(
                        pos,
                        format!("if condition is not an expression: {other:?}"),
                    ));
                }
            }
        };
        self.no_composite -= 1;
        let then = self.block()?;
        let els = if self.eat(Tok::Kw(K::Else)) {
            if self.peek() == Tok::Kw(K::If) {
                // Through `stmt`, so an `else if` chain counts as nesting:
                // it is one in the tree.
                Some(Box::new(self.stmt()?))
            } else {
                Some(Box::new(Stmt::Block(self.block()?)))
            }
        } else {
            None
        };
        Ok(Stmt::If {
            pos,
            init,
            cond,
            then,
            els,
        })
    }

    fn for_stmt(&mut self) -> Result<Stmt, ParseError> {
        let pos = self.here();
        self.expect(Tok::Kw(K::For))?;
        self.no_composite += 1;
        // `for {`
        if self.peek() == Tok::LBrace {
            self.no_composite -= 1;
            let body = self.block()?;
            return Ok(Stmt::For {
                pos,
                init: None,
                cond: None,
                post: None,
                range: None,
                body,
            });
        }
        // Range form? Scan ahead for `range` at depth 0 before `{` or `;`.
        if self.range_ahead() {
            let range = self.range_clause()?;
            self.no_composite -= 1;
            let body = self.block()?;
            return Ok(Stmt::For {
                pos,
                init: None,
                cond: None,
                post: None,
                range: Some(Box::new(range)),
                body,
            });
        }
        let first = self.simple_stmt()?;
        if self.eat(Tok::Semi) {
            // for init; cond; post
            let cond = if self.peek() == Tok::Semi {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect(Tok::Semi)?;
            let post = if self.peek() == Tok::LBrace {
                None
            } else {
                Some(Box::new(self.simple_stmt()?))
            };
            self.no_composite -= 1;
            let body = self.block()?;
            Ok(Stmt::For {
                pos,
                init: Some(Box::new(first)),
                cond,
                post,
                range: None,
                body,
            })
        } else {
            // for cond
            let cond = match first {
                Stmt::Expr(e) => e,
                other => {
                    return Err(ParseError::new(
                        pos,
                        format!("for condition is not an expression: {other:?}"),
                    ))
                }
            };
            self.no_composite -= 1;
            let body = self.block()?;
            Ok(Stmt::For {
                pos,
                init: None,
                cond: Some(cond),
                post: None,
                range: None,
                body,
            })
        }
    }

    fn range_ahead(&self) -> bool {
        let mut i = 0;
        let mut depth = 0u32;
        loop {
            // LOOKAHEAD: an unbounded scan. `for k, v := range x` and
            // `for i := 0; …` start alike; `range` before the `{` or `;`
            // decides which clause to parse. Answers "no" past 4,096 tokens.
            match self.peek_at(i) {
                Tok::Kw(K::Range) if depth == 0 => return true,
                Tok::LParen | Tok::LBracket => depth += 1,
                Tok::RParen | Tok::RBracket => depth = depth.saturating_sub(1),
                Tok::LBrace | Tok::Semi | Tok::Eof => return false,
                _ => {}
            }
            i += 1;
            if i > 4096 {
                return false;
            }
        }
    }

    fn range_clause(&mut self) -> Result<RangeClause, ParseError> {
        // `for range x` (no variables).
        if self.eat(Tok::Kw(K::Range)) {
            let expr = self.expr()?;
            return Ok(RangeClause {
                key: sym::EMPTY,
                value: sym::EMPTY,
                define: false,
                expr,
            });
        }
        let key = self.expect_ident()?;
        let value = if self.eat(Tok::Comma) {
            self.expect_ident()?
        } else {
            sym::EMPTY
        };
        let define = if self.eat(Tok::Define) {
            true
        } else {
            self.expect(Tok::Assign)?;
            false
        };
        self.expect(Tok::Kw(K::Range))?;
        let expr = self.expr()?;
        Ok(RangeClause {
            key,
            value,
            define,
            expr,
        })
    }

    fn switch_stmt(&mut self) -> Result<Stmt, ParseError> {
        let pos = self.here();
        self.expect(Tok::Kw(K::Switch))?;
        self.no_composite += 1;
        let tag = if self.peek() == Tok::LBrace {
            None
        } else {
            Some(self.expr()?)
        };
        self.no_composite -= 1;
        self.expect(Tok::LBrace)?;
        let cases = self.s.cases.len();
        self.skip_semis();
        while self.peek() != Tok::RBrace {
            let exprs = if self.eat(Tok::Kw(K::Case)) {
                self.expr_list()?
            } else {
                self.expect(Tok::Kw(K::Default))?;
                Vec::new()
            };
            self.expect(Tok::Colon)?;
            let body = self.clause_body()?;
            self.s.cases.push(CaseClause { exprs, body });
        }
        self.expect(Tok::RBrace)?;
        let cases = close(&mut self.s.cases, cases);
        Ok(Stmt::Switch { pos, tag, cases })
    }

    fn select_stmt(&mut self) -> Result<Stmt, ParseError> {
        let pos = self.here();
        self.expect(Tok::Kw(K::Select))?;
        self.expect(Tok::LBrace)?;
        let cases = self.s.comms.len();
        self.skip_semis();
        while self.peek() != Tok::RBrace {
            let comm = if self.eat(Tok::Kw(K::Case)) {
                Some(Box::new(self.simple_stmt()?))
            } else {
                self.expect(Tok::Kw(K::Default))?;
                None
            };
            self.expect(Tok::Colon)?;
            let body = self.clause_body()?;
            self.s.comms.push(CommClause { comm, body });
        }
        self.expect(Tok::RBrace)?;
        let cases = close(&mut self.s.comms, cases);
        Ok(Stmt::Select { pos, cases })
    }

    // ---- expressions ----

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.binary_expr(1)
    }

    /// `expr {, expr}`, pushed onto the expression stack.
    fn push_exprs(&mut self) -> Result<(), ParseError> {
        loop {
            let e = self.expr()?;
            self.s.exprs.push(e);
            if !self.eat(Tok::Comma) {
                return Ok(());
            }
        }
    }

    /// `expr {, expr}` as one list.
    fn expr_list(&mut self) -> Result<Vec<Expr>, ParseError> {
        let list = self.s.exprs.len();
        self.push_exprs()?;
        Ok(close(&mut self.s.exprs, list))
    }

    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let entered = self.depth;
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::OrOr => BinaryOp::OrOr,
                Tok::AndAnd => BinaryOp::AndAnd,
                Tok::EqEq => BinaryOp::Eq,
                Tok::NotEq => BinaryOp::Ne,
                Tok::Lt => BinaryOp::Lt,
                Tok::Le => BinaryOp::Le,
                Tok::Gt => BinaryOp::Gt,
                Tok::Ge => BinaryOp::Ge,
                Tok::Plus => BinaryOp::Add,
                Tok::Minus => BinaryOp::Sub,
                Tok::Pipe => BinaryOp::Or,
                Tok::Caret => BinaryOp::Xor,
                Tok::Star => BinaryOp::Mul,
                Tok::Slash => BinaryOp::Div,
                Tok::Percent => BinaryOp::Rem,
                Tok::Shl => BinaryOp::Shl,
                Tok::Shr => BinaryOp::Shr,
                Tok::Amp => BinaryOp::And,
                Tok::AmpCaret => BinaryOp::AndNot,
                _ => break,
            };
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            self.bump();
            self.deepen()?;
            let rhs = self.binary_expr(prec + 1)?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        self.depth = entered;
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::unary_expr_rule)
    }

    fn unary_expr_rule(&mut self) -> Result<Expr, ParseError> {
        let op = match self.peek() {
            Tok::Minus => Some(UnaryOp::Neg),
            Tok::Plus => Some(UnaryOp::Plus),
            Tok::Not => Some(UnaryOp::Not),
            Tok::Caret => Some(UnaryOp::BitNot),
            Tok::Star => Some(UnaryOp::Deref),
            Tok::Amp => Some(UnaryOp::Addr),
            Tok::Arrow => Some(UnaryOp::Recv),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let expr = self.unary_expr()?;
            return Ok(Expr::Unary {
                op,
                expr: Box::new(expr),
            });
        }
        self.primary_expr()
    }

    /// An operand and its postfix chain. Called under
    /// [`Parser::unary_expr`], whose level absorbs the chain's.
    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.operand()?;
        loop {
            match self.peek() {
                Tok::Dot => {
                    self.bump();
                    self.deepen()?;
                    // Type assertion `x.(T)` — elide to the base expression.
                    if self.eat(Tok::LParen) {
                        if !self.eat(Tok::Kw(K::Type)) {
                            let _ = self.parse_type()?;
                        }
                        self.expect(Tok::RParen)?;
                        continue;
                    }
                    let sel = self.expect_ident()?;
                    e = Expr::Selector(Box::new(e), sel);
                }
                Tok::LParen => {
                    self.bump();
                    self.deepen()?;
                    let args = self.s.exprs.len();
                    let mut spread = false;
                    // Composite literals are allowed inside call arguments
                    // even within control headers.
                    let saved = self.no_composite;
                    self.no_composite = 0;
                    while self.peek() != Tok::RParen {
                        let arg = if self.arg_is_type() {
                            Expr::TypeExpr(Box::new(self.parse_type()?))
                        } else {
                            self.expr()?
                        };
                        self.s.exprs.push(arg);
                        if self.eat(Tok::Ellipsis) {
                            spread = true;
                        }
                        if !self.eat(Tok::Comma) {
                            break;
                        }
                    }
                    self.no_composite = saved;
                    self.expect(Tok::RParen)?;
                    e = Expr::Call {
                        func: Box::new(e),
                        args: close(&mut self.s.exprs, args),
                        spread,
                    };
                }
                Tok::LBracket => {
                    self.bump();
                    self.deepen()?;
                    let saved = self.no_composite;
                    self.no_composite = 0;
                    if self.eat(Tok::Colon) {
                        let high = if self.peek() == Tok::RBracket {
                            None
                        } else {
                            Some(Box::new(self.expr()?))
                        };
                        self.no_composite = saved;
                        self.expect(Tok::RBracket)?;
                        e = Expr::SliceExpr {
                            expr: Box::new(e),
                            low: None,
                            high,
                        };
                    } else {
                        let idx = self.expr()?;
                        if self.eat(Tok::Colon) {
                            let high = if self.peek() == Tok::RBracket {
                                None
                            } else {
                                Some(Box::new(self.expr()?))
                            };
                            self.no_composite = saved;
                            self.expect(Tok::RBracket)?;
                            e = Expr::SliceExpr {
                                expr: Box::new(e),
                                low: Some(Box::new(idx)),
                                high,
                            };
                        } else {
                            self.no_composite = saved;
                            self.expect(Tok::RBracket)?;
                            e = Expr::Index(Box::new(e), Box::new(idx));
                        }
                    }
                }
                Tok::LBrace if self.no_composite == 0 && composable(&e) => {
                    let elems = self.composite_body()?;
                    let ty = self.expr_to_type(&e);
                    e = Expr::CompositeLit {
                        ty: ty.map(Box::new),
                        elems,
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    /// Heuristic: does the next call argument start a type rather than an
    /// expression? (`make(map[string]int)`, `make(chan int)`, `new([]T)`).
    fn arg_is_type(&self) -> bool {
        matches!(
            self.peek(),
            Tok::Kw(K::Map) | Tok::Kw(K::Chan) | Tok::Kw(K::Struct) | Tok::Kw(K::Interface)
        ) || (self.peek() == Tok::LBracket
            // LOOKAHEAD: `make([]T, n)`, `new([4]T)` — a `[` opening a call
            // argument starts a bare type when `]` or a size follows it.
            && matches!(self.peek_at(1), Tok::RBracket | Tok::Int(_)))
            || (self.peek() == Tok::Kw(K::Func) && {
                // func type (no body) vs func literal: look for `{` after
                // the signature — too costly; assume literal.
                false
            })
    }

    fn operand(&mut self) -> Result<Expr, ParseError> {
        let pos = self.here();
        match self.peek() {
            Tok::Ident(name) => {
                self.bump();
                Ok(Expr::Ident(pos, self.s.names.intern(name)))
            }
            Tok::Int(v) => {
                self.bump();
                Ok(Expr::Int(pos, self.s.names.intern(v), int_value(v)))
            }
            Tok::Float(v) => {
                self.bump();
                Ok(Expr::Float(pos, self.s.names.intern(v)))
            }
            Tok::Str(v) => {
                self.bump();
                Ok(Expr::Str(pos, self.s.names.intern(v)))
            }
            Tok::Rune(v) => {
                self.bump();
                Ok(Expr::Rune(pos, self.s.names.intern(v)))
            }
            Tok::LParen => {
                self.bump();
                let saved = self.no_composite;
                self.no_composite = 0;
                let inner = self.expr()?;
                self.no_composite = saved;
                self.expect(Tok::RParen)?;
                Ok(Expr::Paren(Box::new(inner)))
            }
            Tok::Kw(K::Func) => {
                self.bump();
                let sig = self.signature()?;
                let body = self.block()?;
                Ok(Expr::FuncLit {
                    pos,
                    sig: Arc::new(sig),
                    body: Arc::new(body),
                })
            }
            Tok::LBracket | Tok::Kw(K::Map) | Tok::Kw(K::Chan) | Tok::Kw(K::Struct) => {
                // A type in expression position: conversion `[]byte(x)` or a
                // composite literal `[]int{...}` / `map[K]V{...}`.
                let ty = self.parse_type()?;
                match self.peek() {
                    Tok::LBrace => {
                        let elems = self.composite_body()?;
                        Ok(Expr::CompositeLit {
                            ty: Some(Box::new(ty)),
                            elems,
                        })
                    }
                    Tok::LParen => {
                        self.bump();
                        let inner = self.expr()?;
                        self.expect(Tok::RParen)?;
                        Ok(Expr::Call {
                            func: Box::new(Expr::TypeExpr(Box::new(ty))),
                            args: vec![inner],
                            spread: false,
                        })
                    }
                    other => Err(ParseError::new(
                        self.here(),
                        format!("expected `{{` or `(` after type, found `{other}`"),
                    )),
                }
            }
            other => Err(ParseError::new(
                pos,
                format!("expected expression, found `{other}`"),
            )),
        }
    }

    fn composite_body(&mut self) -> Result<Vec<(Option<Expr>, Expr)>, ParseError> {
        self.nested(Self::composite_body_rule)
    }

    fn composite_body_rule(&mut self) -> Result<Vec<(Option<Expr>, Expr)>, ParseError> {
        self.expect(Tok::LBrace)?;
        let saved = self.no_composite;
        self.no_composite = 0;
        let elems = self.s.elems.len();
        self.skip_semis();
        while self.peek() != Tok::RBrace {
            // Nested bare `{...}` elements (inner composite with elided type).
            let first = if self.peek() == Tok::LBrace {
                let inner = self.composite_body()?;
                Expr::CompositeLit {
                    ty: None,
                    elems: inner,
                }
            } else {
                self.expr()?
            };
            if self.eat(Tok::Colon) {
                let value = if self.peek() == Tok::LBrace {
                    let inner = self.composite_body()?;
                    Expr::CompositeLit {
                        ty: None,
                        elems: inner,
                    }
                } else {
                    self.expr()?
                };
                self.s.elems.push((Some(first), value));
            } else {
                self.s.elems.push((None, first));
            }
            if !self.eat(Tok::Comma) {
                self.skip_semis();
                break;
            }
            self.skip_semis();
        }
        self.expect(Tok::RBrace)?;
        self.no_composite = saved;
        Ok(close(&mut self.s.elems, elems))
    }

    /// The type a composite literal's head (`T`, `pkg.T`) names.
    fn expr_to_type(&mut self, e: &Expr) -> Option<Type> {
        match e {
            Expr::Ident(_, n) => Some(Type::Name(*n)),
            Expr::Selector(base, sel) => {
                let Type::Name(base) = self.expr_to_type(base)? else {
                    return None;
                };
                Some(Type::Name(self.s.names.intern_dotted(base, *sel)))
            }
            _ => None,
        }
    }
}

/// Is `e` a legal composite-literal type position (identifier or selector
/// chain, i.e. `T{...}` / `pkg.T{...}`)?
fn composable(e: &Expr) -> bool {
    match e {
        Expr::Ident(_, _) => true,
        Expr::Selector(base, _) => composable(base),
        _ => false,
    }
}
