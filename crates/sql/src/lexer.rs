//! SQL lexer.

use crate::error::{SqlError, SqlResult};
use crate::value::Value;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Unquoted identifier or keyword, original case preserved.
    Ident(String),
    /// Double-quoted identifier.
    QuotedIdent(String),
    /// Single-quoted string literal (escapes resolved).
    String(String),
    /// Integer literal.
    Integer(i64),
    /// Floating literal.
    Number(f64),
    /// Punctuation / operator symbol (`::`, `&&`, `<=`, `(`, ...).
    Symbol(&'static str),
    /// A non-standard operator symbol (e.g. `<->`, `@>`, `-|-`).
    Op(String),
    /// Slot `n` of a statement template: a literal or a `$n + 1`
    /// placeholder ([`template_tokens`]).
    Param(usize),
    Eof,
}

impl Token {
    /// Keyword test, case-insensitive.
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

const SYMBOLS: &[&str] = &[
    "::", "<=", ">=", "<>", "!=", "&&", "||", "@>", "<@", "<<", ">>", "-|-", "<->", "|=|", "(",
    ")", ",", ".", ";", "=", "<", ">", "+", "-", "*", "/", "%", "{", "}", "[", "]", ":",
];

/// One token as the scanner reads it: identifiers borrow the input, and a
/// `$n` placeholder is kept for the callers that accept one.
enum Lexeme<'s> {
    Ident(&'s str),
    QuotedIdent(String),
    String(String),
    Integer(i64),
    Number(f64),
    Symbol(&'static str),
    /// `$n` (1-based).
    Placeholder(usize),
}

/// The lexeme at or after byte `i` of `input`, skipping whitespace and
/// comments: its start, its end and itself; `None` at the end. Every
/// token stream of this crate is read with it: [`tokenize`], the template
/// tokens of the statement cache and the [`Shape`] key.
fn lex(input: &str, mut i: usize) -> SqlResult<Option<(usize, usize, Lexeme<'_>)>> {
    let bytes = input.as_bytes();
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comments.
        if c == '-' && i + 1 < bytes.len() && bytes[i + 1] == b'-' {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        // Block comments.
        if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            let mut depth = 1;
            i += 2;
            while i + 1 < bytes.len() && depth > 0 {
                if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else if bytes[i] == b'/' && bytes[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            continue;
        }
        let start = i;
        // String literal / quoted identifier.
        if c == '\'' || c == '"' {
            let s = quoted(input, &mut i, c as u8)?;
            return Ok(Some((start, i, match c {
                '\'' => Lexeme::String(s),
                _ => Lexeme::QuotedIdent(s),
            })));
        }
        // Number.
        if c.is_ascii_digit()
            || (c == '.' && i + 1 < bytes.len() && (bytes[i + 1] as char).is_ascii_digit())
        {
            let mut is_float = false;
            while i < bytes.len() {
                let ch = bytes[i] as char;
                if ch.is_ascii_digit() {
                    i += 1;
                } else if ch == '.' && !is_float {
                    // Don't treat "1." followed by ".." as float.
                    is_float = true;
                    i += 1;
                } else if (ch == 'e' || ch == 'E')
                    && i + 1 < bytes.len()
                    && ((bytes[i + 1] as char).is_ascii_digit()
                        || bytes[i + 1] == b'+'
                        || bytes[i + 1] == b'-')
                {
                    is_float = true;
                    i += 2;
                } else {
                    break;
                }
            }
            let text = &input[start..i];
            let float = || {
                text.parse::<f64>()
                    .map(Lexeme::Number)
                    .map_err(|_| SqlError::Lex(format!("bad number {text:?}")))
            };
            let lexeme = match is_float {
                true => float()?,
                false => text.parse::<i64>().map(Lexeme::Integer).or_else(|_| float())?,
            };
            return Ok(Some((start, i, lexeme)));
        }
        // Identifier.
        if c.is_ascii_alphabetic() || c == '_' {
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            return Ok(Some((start, i, Lexeme::Ident(&input[start..i]))));
        }
        // Placeholder.
        if c == '$' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
            i += 1;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            let n = input[start + 1..i].parse::<usize>().ok().filter(|&n| n > 0);
            let n = n.ok_or_else(|| {
                SqlError::Lex(format!("bad placeholder {:?}", &input[start..i]))
            })?;
            return Ok(Some((start, i, Lexeme::Placeholder(n))));
        }
        // Symbols (longest match first). Match on bytes: a comment scan
        // can leave `i` inside a multi-byte char, where slicing the &str
        // would panic.
        if let Some(sym) = SYMBOLS.iter().find(|sym| bytes[i..].starts_with(sym.as_bytes())) {
            i += sym.len();
            return Ok(Some((start, i, Lexeme::Symbol(sym))));
        }
        return Err(unexpected(input, i));
    }
    Ok(None)
}

/// The body of a quoted string or identifier starting at `*i` (the
/// opening `quote`), a doubled quote standing for itself; leaves `*i`
/// after the closing quote.
fn quoted(input: &str, i: &mut usize, quote: u8) -> SqlResult<String> {
    let bytes = input.as_bytes();
    let what = if quote == b'\'' { "string literal" } else { "quoted identifier" };
    let mut s = String::new();
    *i += 1;
    loop {
        if *i >= bytes.len() {
            return Err(SqlError::Lex(format!("unterminated {what}")));
        }
        if bytes[*i] == quote {
            if *i + 1 < bytes.len() && bytes[*i + 1] == quote {
                s.push(quote as char);
                *i += 2;
            } else {
                *i += 1;
                return Ok(s);
            }
        } else {
            // Multi-byte safe: push the full char.
            let Some(ch) = input.get(*i..).and_then(|s| s.chars().next()) else {
                let what = if quote == b'\'' { "string" } else { "identifier" };
                return Err(SqlError::Lex(format!("invalid UTF-8 boundary in {what}")));
            };
            s.push(ch);
            *i += ch.len_utf8();
        }
    }
}

/// The error for a byte no token starts with. `input[i]` is a single
/// byte; decode the real char for the message so multi-byte input isn't
/// reported as its mangled first byte.
fn unexpected(input: &str, i: usize) -> SqlError {
    SqlError::Lex(match input.get(i..).and_then(|t| t.chars().next()) {
        Some(ch) => format!("unexpected character {ch:?} at offset {i}"),
        None => format!("unexpected byte {:#04x} at offset {i}", input.as_bytes()[i]),
    })
}

/// Tokenize a SQL string. A `$n` placeholder is only accepted through a
/// prepared statement ([`Shape`]); here it is an unexpected `$`.
pub fn tokenize(input: &str) -> SqlResult<Vec<Token>> {
    template_tokens(input, None)
}

/// Tokenize `input` as a statement template: with `placeholders` the
/// number of `$n` placeholders the statement's [`Shape`] counted, each
/// literal (integer, float or string) becomes a [`Token::Param`] — the
/// `k`-th literal slot `placeholders + k` — and `$n` becomes slot
/// `n - 1`. With `None`, literals stay literals.
pub fn template_tokens(input: &str, placeholders: Option<usize>) -> SqlResult<Vec<Token>> {
    let mut i = 0;
    let mut tokens = Vec::new();
    let mut literals = 0;
    let mut slot = |token: Token| match placeholders {
        Some(n) => {
            literals += 1;
            Token::Param(n + literals - 1)
        }
        None => token,
    };
    while let Some((at, end, lexeme)) = lex(input, i)? {
        i = end;
        tokens.push(match lexeme {
            Lexeme::Ident(s) => Token::Ident(s.to_string()),
            Lexeme::QuotedIdent(s) => Token::QuotedIdent(s),
            Lexeme::Symbol(s) => Token::Symbol(s),
            Lexeme::String(s) => slot(Token::String(s)),
            Lexeme::Integer(v) => slot(Token::Integer(v)),
            Lexeme::Number(v) => slot(Token::Number(v)),
            Lexeme::Placeholder(n) if placeholders.is_some() => Token::Param(n - 1),
            Lexeme::Placeholder(_) => return Err(unexpected(input, at)),
        });
    }
    tokens.push(Token::Eof);
    Ok(tokens)
}

/// A statement's shape, the key of the statement cache: its token stream
/// with each literal replaced by a marker of its kind (`NULL`, `TRUE` and
/// `FALSE` are identifiers and stay verbatim, and a typed literal keeps
/// its type name, the identifier before it), plus the literal values in
/// written order. Two statements of one shape differ only in those
/// values.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// The normalized token stream, one token per space-terminated word.
    pub key: String,
    /// The literals, in written order.
    pub literals: Vec<Value>,
    /// The highest `$n` placeholder, 0 when there is none.
    pub placeholders: usize,
}

impl Shape {
    /// The shape of `sql`. `$n` placeholders are accepted only when
    /// `prepared` (a prepared statement's text); elsewhere they
    /// fail as in [`tokenize`].
    pub fn of(sql: &str, prepared: bool) -> SqlResult<Shape> {
        let mut i = 0;
        let mut shape =
            Shape { key: String::with_capacity(sql.len()), literals: Vec::new(), placeholders: 0 };
        let key = &mut shape.key;
        while let Some((at, end, lexeme)) = lex(sql, i)? {
            i = end;
            match lexeme {
                Lexeme::Ident(s) => key.push_str(s),
                Lexeme::QuotedIdent(s) => {
                    key.push('"');
                    key.push_str(&s.replace('"', "\"\""));
                    key.push('"');
                }
                Lexeme::Symbol(s) => key.push_str(s),
                Lexeme::String(s) => {
                    key.push_str("?s");
                    shape.literals.push(Value::Text(s.into()));
                }
                Lexeme::Integer(v) => {
                    key.push_str("?i");
                    shape.literals.push(Value::Int(v));
                }
                Lexeme::Number(v) => {
                    key.push_str("?f");
                    shape.literals.push(Value::Float(v));
                }
                Lexeme::Placeholder(n) if prepared => {
                    key.push('$');
                    key.push_str(&n.to_string());
                    shape.placeholders = shape.placeholders.max(n);
                }
                Lexeme::Placeholder(_) => return Err(unexpected(sql, at)),
            }
            key.push(' ');
        }
        Ok(shape)
    }

    /// The key of this shape run with placeholder values `params`: the
    /// token key followed by each value's type, since a placeholder binds
    /// as a constant of its value's type.
    pub fn key_with(&self, params: &[Value]) -> String {
        let mut key = self.key.clone();
        for p in params {
            key.push('|');
            key.push_str(&p.logical_type().name());
        }
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_tokens() {
        let toks = tokenize("SELECT a, 1.5 FROM t WHERE x <= 'it''s'").unwrap();
        assert_eq!(toks[0], Token::Ident("SELECT".into()));
        assert_eq!(toks[2], Token::Symbol(","));
        assert_eq!(toks[3], Token::Number(1.5));
        assert!(toks.contains(&Token::Symbol("<=")));
        assert!(toks.contains(&Token::String("it's".into())));
    }

    #[test]
    fn custom_operators() {
        let toks = tokenize("a && b @> c <-> d -|- e").unwrap();
        assert!(toks.contains(&Token::Symbol("&&")));
        assert!(toks.contains(&Token::Symbol("@>")));
        assert!(toks.contains(&Token::Symbol("<->")));
        assert!(toks.contains(&Token::Symbol("-|-")));
    }

    #[test]
    fn cast_and_comments() {
        let toks = tokenize("x::stbox -- a comment\n/* block /* nested */ */ y").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("x".into()),
                Token::Symbol("::"),
                Token::Ident("stbox".into()),
                Token::Ident("y".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn quoted_identifiers() {
        let toks = tokenize(r#""times" timestamptz"#).unwrap();
        assert_eq!(toks[0], Token::QuotedIdent("times".into()));
    }

    #[test]
    fn errors() {
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("\"unterminated").is_err());
        assert!(tokenize("a ? b").is_err());
    }

    #[test]
    fn numbers() {
        let toks = tokenize("1 2.5 1e3 .5 10000000000000000000").unwrap();
        assert_eq!(toks[0], Token::Integer(1));
        assert_eq!(toks[1], Token::Number(2.5));
        assert_eq!(toks[2], Token::Number(1000.0));
        assert_eq!(toks[3], Token::Number(0.5));
        assert!(matches!(toks[4], Token::Number(_))); // overflows i64 → float
    }
}
