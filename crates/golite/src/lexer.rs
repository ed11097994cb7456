//! The Go-lite lexer, including Go's automatic semicolon insertion (ASI).
//!
//! Go's grammar is semicolon-terminated, but programmers rarely write
//! semicolons: the lexer inserts one at each newline that follows a token
//! from a fixed trigger set (identifiers, literals, `return`-like keywords,
//! `++`/`--`, and closing delimiters). Implementing ASI in the lexer — as
//! gc does — keeps the parser a plain semicolon-driven recursive descent.
//!
//! Tokens borrow from the source: an identifier or literal is a slice of
//! it, so lexing allocates nothing per token and a literal's text is the
//! source's, byte for byte.

use crate::ast::AssignOp;
use crate::error::ParseError;
use crate::token::{Keyword, Pos, Tok, Token};

/// Tokenizes `src` completely (the final token is [`Tok::Eof`]).
///
/// # Errors
///
/// Returns the first lexical error (unterminated string, stray character).
pub fn tokenize(src: &str) -> Result<Vec<Token<'_>>, ParseError> {
    Lexer::new(src).collect_all()
}

/// A streaming lexer over source text.
#[derive(Debug)]
pub struct Lexer<'a> {
    src: &'a str,
    offset: usize,
    /// 1-based line of `offset`.
    line: u32,
    /// Offset of the first byte of that line.
    line_start: usize,
    /// Did the last token come from ASI's trigger set?
    asi_pending: bool,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `src`.
    #[must_use]
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src,
            offset: 0,
            line: 1,
            line_start: 0,
            asi_pending: false,
        }
    }

    /// Runs the lexer to completion.
    ///
    /// # Errors
    ///
    /// Propagates the first lexical error.
    pub fn collect_all(mut self) -> Result<Vec<Token<'a>>, ParseError> {
        // Go source runs to about three bytes a token, ASI's included: one
        // allocation holds the stream of anything but dense punctuation.
        let mut out = Vec::with_capacity(self.src.len() / 2 + 2);
        loop {
            let t = self.next_token()?;
            out.push(t);
            if t.tok == Tok::Eof {
                return Ok(out);
            }
        }
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: (self.offset - self.line_start + 1) as u32,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.offset).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.as_bytes().get(self.offset + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.offset += 1;
        if b == b'\n' {
            self.line += 1;
            self.line_start = self.offset;
        }
        Some(b)
    }

    /// Consumes `next` if it is the next byte.
    fn eat(&mut self, next: u8) -> bool {
        let hit = self.peek() == Some(next);
        if hit {
            self.offset += 1;
        }
        hit
    }

    /// Skips whitespace and comments; returns `true` when a newline (or a
    /// comment containing one) was crossed, which may trigger ASI.
    fn skip_trivia(&mut self) -> Result<bool, ParseError> {
        let mut newline = false;
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\r') => self.offset += 1,
                Some(b'\n') => {
                    newline = true;
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    let rest = &self.src.as_bytes()[self.offset..];
                    self.offset += rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.pos();
                    self.offset += 2;
                    loop {
                        match self.bump() {
                            None => {
                                return Err(ParseError::new(start, "unterminated block comment"))
                            }
                            Some(b'\n') => newline = true,
                            Some(b'*') if self.eat(b'/') => break,
                            Some(_) => {}
                        }
                    }
                }
                _ => return Ok(newline),
            }
        }
    }

    /// Produces the next token, applying ASI at newlines.
    ///
    /// # Errors
    ///
    /// Returns lexical errors with their positions.
    // Inlined into `collect_all`'s loop (and a streaming caller's), a token
    // goes from registers into the stream; called out of line it comes back
    // through a `Result` in memory and is copied twice on the way — 2.5× the
    // whole lexer's cost.
    #[inline(always)]
    pub fn next_token(&mut self) -> Result<Token<'a>, ParseError> {
        let newline = self.skip_trivia()?;
        let pos = self.pos();
        let next = self.peek();
        // ASI applies at a newline, and at EOF, after a trigger token.
        if self.asi_pending && (newline || next.is_none()) {
            self.asi_pending = false;
            return Ok(Token {
                tok: Tok::Semi,
                pos,
            });
        }
        let Some(b) = next else {
            return Ok(Token {
                tok: Tok::Eof,
                pos,
            });
        };
        let tok = match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident(),
            b'0'..=b'9' => self.number(),
            b'"' => Tok::Str(self.quoted(b'"', "unterminated string literal")?),
            b'`' => Tok::Str(self.raw_string()?),
            b'\'' => Tok::Rune(self.quoted(b'\'', "unterminated rune literal")?),
            _ => self.operator()?,
        };
        self.asi_pending = tok.triggers_asi();
        Ok(Token { tok, pos })
    }

    fn ident(&mut self) -> Tok<'a> {
        let start = self.offset;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
        {
            self.offset += 1;
        }
        let text = &self.src[start..self.offset];
        match Keyword::lookup(text) {
            Some(kw) => Tok::Kw(kw),
            None => Tok::Ident(text),
        }
    }

    fn number(&mut self) -> Tok<'a> {
        let start = self.offset;
        let mut is_float = false;
        // Hex/octal/binary prefixes.
        if self.peek() == Some(b'0')
            && matches!(self.peek2(), Some(b'x' | b'X' | b'b' | b'B' | b'o' | b'O'))
        {
            self.offset += 2;
            while self.peek().is_some_and(|b| b.is_ascii_hexdigit() || b == b'_') {
                self.offset += 1;
            }
        } else {
            while let Some(b) = self.peek() {
                match b {
                    b'0'..=b'9' | b'_' => self.offset += 1,
                    b'.' if !is_float && self.peek2().is_some_and(|c| c.is_ascii_digit()) => {
                        is_float = true;
                        self.offset += 1;
                    }
                    b'e' | b'E' => {
                        is_float = true;
                        self.offset += 1;
                        if matches!(self.peek(), Some(b'+' | b'-')) {
                            self.offset += 1;
                        }
                    }
                    _ => break,
                }
            }
        }
        let text = &self.src[start..self.offset];
        if is_float {
            Tok::Float(text)
        } else {
            Tok::Int(text)
        }
    }

    /// An interpreted string or a rune: the text between two `quote`s on
    /// one line, escapes kept unprocessed (a backslash only shields the
    /// byte after it). The quotes and the backslash are ASCII, so both
    /// ends of the slice fall on character boundaries whatever lies
    /// between them.
    fn quoted(&mut self, quote: u8, unterminated: &'static str) -> Result<&'a str, ParseError> {
        let start_pos = self.pos();
        self.offset += 1; // opening quote
        let start = self.offset;
        loop {
            match self.bump() {
                None | Some(b'\n') => return Err(ParseError::new(start_pos, unterminated)),
                Some(b'\\') => {
                    self.bump();
                }
                Some(b) if b == quote => return Ok(&self.src[start..self.offset - 1]),
                Some(_) => {}
            }
        }
    }

    fn raw_string(&mut self) -> Result<&'a str, ParseError> {
        let start_pos = self.pos();
        self.offset += 1; // opening backquote
        let start = self.offset;
        loop {
            match self.bump() {
                None => return Err(ParseError::new(start_pos, "unterminated raw string")),
                Some(b'`') => return Ok(&self.src[start..self.offset - 1]),
                Some(_) => {}
            }
        }
    }

    fn operator(&mut self) -> Result<Tok<'a>, ParseError> {
        let pos = self.pos();
        let b = self.peek().expect("caller checked non-empty");
        self.offset += 1;
        let tok = match b {
            b'+' => {
                if self.eat(b'+') {
                    Tok::Inc
                } else if self.eat(b'=') {
                    Tok::OpAssign(AssignOp::Add)
                } else {
                    Tok::Plus
                }
            }
            b'-' => {
                if self.eat(b'-') {
                    Tok::Dec
                } else if self.eat(b'=') {
                    Tok::OpAssign(AssignOp::Sub)
                } else {
                    Tok::Minus
                }
            }
            b'*' => self.two(b'=', Tok::OpAssign(AssignOp::Mul), Tok::Star),
            b'/' => self.two(b'=', Tok::OpAssign(AssignOp::Div), Tok::Slash),
            b'%' => self.two(b'=', Tok::OpAssign(AssignOp::Rem), Tok::Percent),
            b'&' => {
                if self.eat(b'&') {
                    Tok::AndAnd
                } else if self.eat(b'^') {
                    Tok::AmpCaret
                } else if self.eat(b'=') {
                    Tok::OpAssign(AssignOp::And)
                } else {
                    Tok::Amp
                }
            }
            b'|' => {
                if self.eat(b'|') {
                    Tok::OrOr
                } else if self.eat(b'=') {
                    Tok::OpAssign(AssignOp::Or)
                } else {
                    Tok::Pipe
                }
            }
            b'^' => self.two(b'=', Tok::OpAssign(AssignOp::Xor), Tok::Caret),
            b'<' => {
                if self.eat(b'-') {
                    Tok::Arrow
                } else if self.eat(b'<') {
                    self.two(b'=', Tok::OpAssign(AssignOp::Shl), Tok::Shl)
                } else if self.eat(b'=') {
                    Tok::Le
                } else {
                    Tok::Lt
                }
            }
            b'>' => {
                if self.eat(b'>') {
                    self.two(b'=', Tok::OpAssign(AssignOp::Shr), Tok::Shr)
                } else if self.eat(b'=') {
                    Tok::Ge
                } else {
                    Tok::Gt
                }
            }
            b'=' => self.two(b'=', Tok::EqEq, Tok::Assign),
            b'!' => self.two(b'=', Tok::NotEq, Tok::Not),
            b':' => self.two(b'=', Tok::Define, Tok::Colon),
            b'.' => {
                if self.peek() == Some(b'.') && self.peek2() == Some(b'.') {
                    self.offset += 2;
                    Tok::Ellipsis
                } else {
                    Tok::Dot
                }
            }
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b'[' => Tok::LBracket,
            b']' => Tok::RBracket,
            b'{' => Tok::LBrace,
            b'}' => Tok::RBrace,
            b',' => Tok::Comma,
            b';' => Tok::Semi,
            _ => {
                // Name the character, not its first byte: identifiers are
                // ASCII here, so a non-ASCII letter lands on this arm.
                let c = self.src[self.offset - 1..].chars().next().unwrap_or('\u{fffd}');
                return Err(ParseError::new(pos, format!("unexpected character {c:?}")));
            }
        };
        Ok(tok)
    }

    /// `yes` when the next byte is `next` (consumed), else `no`.
    fn two(&mut self, next: u8, yes: Tok<'a>, no: Tok<'a>) -> Tok<'a> {
        if self.eat(next) {
            yes
        } else {
            no
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        tokenize(src)
            .expect("lexes")
            .into_iter()
            .map(|t| t.tok)
            .collect()
    }

    #[test]
    fn lexes_declaration() {
        assert_eq!(
            toks("var a int"),
            vec![
                Tok::Kw(Keyword::Var),
                Tok::Ident("a"),
                Tok::Ident("int"),
                Tok::Semi, // ASI at EOF
                Tok::Eof
            ]
        );
    }

    #[test]
    fn asi_inserts_semicolons_at_newlines() {
        let t = toks("x := 1\ny := 2\n");
        let semis = t.iter().filter(|t| **t == Tok::Semi).count();
        assert_eq!(semis, 2);
    }

    #[test]
    fn asi_does_not_fire_mid_expression() {
        // After a binary operator no semicolon is inserted.
        let t = toks("x := 1 +\n2\n");
        let idx_plus = t.iter().position(|t| *t == Tok::Plus).expect("plus");
        assert_ne!(t[idx_plus + 1], Tok::Semi);
    }

    #[test]
    fn channel_arrow_and_define() {
        assert_eq!(
            toks("ch <- v"),
            vec![
                Tok::Ident("ch"),
                Tok::Arrow,
                Tok::Ident("v"),
                Tok::Semi,
                Tok::Eof
            ]
        );
        assert!(toks("x := <-ch").contains(&Tok::Arrow));
    }

    #[test]
    fn comments_are_skipped_and_count_as_newlines() {
        let t = toks("x := 1 // trailing\ny := 2");
        assert_eq!(t.iter().filter(|t| **t == Tok::Semi).count(), 2);
        let t = toks("a /* block\ncomment */ b");
        // Block comment containing a newline triggers ASI after `a`.
        assert_eq!(t[1], Tok::Semi);
    }

    #[test]
    fn string_literals() {
        assert_eq!(toks(r#"s := "hi \"there\"""#)[2], Tok::Str(r#"hi \"there\""#));
        assert_eq!(toks("s := `raw\nstring`")[2], Tok::Str("raw\nstring"));
        assert_eq!(toks("c := 'x'")[2], Tok::Rune("x"));
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("42")[0], Tok::Int("42"));
        assert_eq!(toks("0xFF")[0], Tok::Int("0xFF"));
        assert_eq!(toks("3.25")[0], Tok::Float("3.25"));
        assert_eq!(toks("1e9")[0], Tok::Float("1e9"));
    }

    #[test]
    fn multi_char_operators() {
        let t = toks("a &^= b; c <<= d; e != f; g <= h; i >= j; k && l || m");
        assert!(t.contains(&Tok::NotEq));
        assert!(t.contains(&Tok::Le));
        assert!(t.contains(&Tok::Ge));
        assert!(t.contains(&Tok::AndAnd));
        assert!(t.contains(&Tok::OrOr));
        // &^= lexes as AmpCaret + Assign in Go-lite (we do not need the
        // three-char compound).
        assert!(t.contains(&Tok::OpAssign(AssignOp::Shl)));
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(tokenize("s := \"oops").is_err());
        assert!(tokenize("s := `oops").is_err());
        assert!(tokenize("/* oops").is_err());
    }

    #[test]
    fn positions_track_lines() {
        let tokens = tokenize("a\nbb\n  c").expect("lexes");
        let c = tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("c"))
            .expect("c");
        assert_eq!(c.pos.line, 3);
        assert_eq!(c.pos.col, 3);
    }
}
