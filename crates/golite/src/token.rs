//! Tokens and source positions for Go-lite.
//!
//! A [`Tok`] is `Copy` and borrows its spelling from the source text: the
//! lexer slices, it never builds a `String`, so identifier and literal
//! payloads are exactly the bytes between the token's first and last
//! character (quotes excluded) — non-ASCII text included. The parser turns
//! each spelling into a [`Sym`](crate::names::Sym) as it consumes the
//! token; nothing behind the parser sees a `Tok`.

use std::fmt;

use crate::ast::AssignOp;

/// A 1-based line/column source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column (byte-oriented).
    pub col: u32,
}

impl Pos {
    /// The start of a file.
    pub const START: Pos = Pos { line: 1, col: 1 };
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Go keywords recognized by the lexer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Keyword {
    Break,
    Case,
    Chan,
    Const,
    Continue,
    Default,
    Defer,
    Else,
    Fallthrough,
    For,
    Func,
    Go,
    Goto,
    If,
    Import,
    Interface,
    Map,
    Package,
    Range,
    Return,
    Select,
    Struct,
    Switch,
    Type,
    Var,
}

impl Keyword {
    /// Looks up an identifier as a keyword.
    #[must_use]
    pub fn lookup(ident: &str) -> Option<Keyword> {
        use Keyword::*;
        // Byte-slice patterns compile to a length test and a decision tree
        // over the bytes; the lexer asks this of every identifier.
        Some(match ident.as_bytes() {
            b"break" => Break,
            b"case" => Case,
            b"chan" => Chan,
            b"const" => Const,
            b"continue" => Continue,
            b"default" => Default,
            b"defer" => Defer,
            b"else" => Else,
            b"fallthrough" => Fallthrough,
            b"for" => For,
            b"func" => Func,
            b"go" => Go,
            b"goto" => Goto,
            b"if" => If,
            b"import" => Import,
            b"interface" => Interface,
            b"map" => Map,
            b"package" => Package,
            b"range" => Range,
            b"return" => Return,
            b"select" => Select,
            b"struct" => Struct,
            b"switch" => Switch,
            b"type" => Type,
            b"var" => Var,
            _ => return None,
        })
    }

    /// The keyword's spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        use Keyword::*;
        match self {
            Break => "break",
            Case => "case",
            Chan => "chan",
            Const => "const",
            Continue => "continue",
            Default => "default",
            Defer => "defer",
            Else => "else",
            Fallthrough => "fallthrough",
            For => "for",
            Func => "func",
            Go => "go",
            Goto => "goto",
            If => "if",
            Import => "import",
            Interface => "interface",
            Map => "map",
            Package => "package",
            Range => "range",
            Return => "return",
            Select => "select",
            Struct => "struct",
            Switch => "switch",
            Type => "type",
            Var => "var",
        }
    }
}

/// A lexical token; `'src` is the source text its spelling is sliced from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tok<'src> {
    /// Identifier.
    Ident(&'src str),
    /// Keyword.
    Kw(Keyword),
    /// Integer literal, as spelled.
    Int(&'src str),
    /// Float literal, as spelled.
    Float(&'src str),
    /// Interpreted or raw string literal (the text between the quotes,
    /// escapes unprocessed).
    Str(&'src str),
    /// Rune literal (the text between the quotes, escapes unprocessed).
    Rune(&'src str),

    // Operators and delimiters.
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `&^`
    AmpCaret,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `<-`
    Arrow,
    /// `++`
    Inc,
    /// `--`
    Dec,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Assign,
    /// `:=`
    Define,
    /// `!`
    Not,
    /// `...`
    Ellipsis,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;` (explicit or inserted)
    Semi,
    /// `:`
    Colon,
    /// Compound assignment, e.g. `+=` (never [`AssignOp::Set`]).
    OpAssign(AssignOp),
    /// End of file.
    Eof,
}

impl Tok<'_> {
    /// True when automatic semicolon insertion applies after this token
    /// (Go spec: identifiers, literals, `break`/`continue`/`fallthrough`/
    /// `return`, `++`/`--`, and closing delimiters).
    #[must_use]
    pub fn triggers_asi(self) -> bool {
        matches!(
            self,
            Tok::Ident(_)
                | Tok::Int(_)
                | Tok::Float(_)
                | Tok::Str(_)
                | Tok::Rune(_)
                | Tok::Kw(Keyword::Break)
                | Tok::Kw(Keyword::Continue)
                | Tok::Kw(Keyword::Fallthrough)
                | Tok::Kw(Keyword::Return)
                | Tok::Inc
                | Tok::Dec
                | Tok::RParen
                | Tok::RBracket
                | Tok::RBrace
        )
    }
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Kw(k) => write!(f, "{}", k.as_str()),
            Tok::Int(s) | Tok::Float(s) => write!(f, "{s}"),
            Tok::Str(s) => write!(f, "{s:?}"),
            Tok::Rune(s) => write!(f, "'{s}'"),
            Tok::Plus => f.write_str("+"),
            Tok::Minus => f.write_str("-"),
            Tok::Star => f.write_str("*"),
            Tok::Slash => f.write_str("/"),
            Tok::Percent => f.write_str("%"),
            Tok::Amp => f.write_str("&"),
            Tok::Pipe => f.write_str("|"),
            Tok::Caret => f.write_str("^"),
            Tok::Shl => f.write_str("<<"),
            Tok::Shr => f.write_str(">>"),
            Tok::AmpCaret => f.write_str("&^"),
            Tok::AndAnd => f.write_str("&&"),
            Tok::OrOr => f.write_str("||"),
            Tok::Arrow => f.write_str("<-"),
            Tok::Inc => f.write_str("++"),
            Tok::Dec => f.write_str("--"),
            Tok::EqEq => f.write_str("=="),
            Tok::NotEq => f.write_str("!="),
            Tok::Lt => f.write_str("<"),
            Tok::Le => f.write_str("<="),
            Tok::Gt => f.write_str(">"),
            Tok::Ge => f.write_str(">="),
            Tok::Assign => f.write_str("="),
            Tok::Define => f.write_str(":="),
            Tok::Not => f.write_str("!"),
            Tok::Ellipsis => f.write_str("..."),
            Tok::LParen => f.write_str("("),
            Tok::RParen => f.write_str(")"),
            Tok::LBracket => f.write_str("["),
            Tok::RBracket => f.write_str("]"),
            Tok::LBrace => f.write_str("{"),
            Tok::RBrace => f.write_str("}"),
            Tok::Comma => f.write_str(","),
            Tok::Dot => f.write_str("."),
            Tok::Semi => f.write_str(";"),
            Tok::Colon => f.write_str(":"),
            Tok::OpAssign(op) => f.write_str(op.as_str()),
            Tok::Eof => f.write_str("<eof>"),
        }
    }
}

/// A token with its source position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'src> {
    /// The token.
    pub tok: Tok<'src>,
    /// Start position.
    pub pos: Pos,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trip() {
        for kw in [Keyword::Go, Keyword::Defer, Keyword::Select, Keyword::Chan] {
            assert_eq!(Keyword::lookup(kw.as_str()), Some(kw));
        }
        assert_eq!(Keyword::lookup("goroutine"), None);
    }

    #[test]
    fn asi_trigger_set() {
        assert!(Tok::Ident("x").triggers_asi());
        assert!(Tok::Int("5").triggers_asi());
        assert!(Tok::RParen.triggers_asi());
        assert!(Tok::Kw(Keyword::Return).triggers_asi());
        assert!(!Tok::Kw(Keyword::If).triggers_asi());
        assert!(!Tok::Comma.triggers_asi());
        assert!(!Tok::Arrow.triggers_asi());
    }

    #[test]
    fn display_is_spelling() {
        assert_eq!(Tok::Arrow.to_string(), "<-");
        assert_eq!(Tok::Define.to_string(), ":=");
        assert_eq!(Tok::OpAssign(AssignOp::Shl).to_string(), "<<=");
        assert_eq!(Tok::Str("hé").to_string(), "\"hé\"");
        assert_eq!(Tok::Kw(Keyword::Func).to_string(), "func");
        assert_eq!(Pos { line: 3, col: 7 }.to_string(), "3:7");
    }
}
