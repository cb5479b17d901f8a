//! Recursive-descent SQL parser covering the dialect the paper's queries
//! use: SELECT with CTEs / DISTINCT / comma joins / subqueries / GROUP BY /
//! ORDER BY / LIMIT, quantified comparisons (`<= ALL`), typed literals
//! (`tstzspan '[...]'`), `::` casts, custom operators (`&&`, `@>`, `<->`),
//! CREATE TABLE / CREATE INDEX ... USING TRTREE, INSERT, UPDATE, DELETE,
//! and EXPLAIN.

use std::sync::Arc;

use crate::ast::*;
use crate::error::{SqlError, SqlResult};
use crate::lexer::{template_tokens, tokenize, Token};
use crate::template::Slots;
use crate::value::Value;

/// The text of a typed literal: written, or a template's slot.
enum StringLit {
    Text(String),
    Slot(usize),
}

/// Keywords that cannot be used as bare aliases.
const RESERVED: &[&str] = &[
    "from", "where", "group", "having", "order", "limit", "offset", "union", "join", "inner",
    "left", "right", "on", "as", "and", "or", "not", "select", "distinct", "with", "asc",
    "desc", "using", "set", "values", "is", "in", "all", "any", "exists", "case", "when",
    "then", "else", "end", "by",
];

/// Hard ceiling on parser recursion (nested parens, subqueries, NOT/neg
/// chains). Recursion past the stack limit aborts the process — it cannot
/// be caught — so it must be refused up front. One level costs the whole
/// precedence chain (~10 frames), so the ceiling is sized for a 2 MiB
/// thread stack in debug builds, with headroom for the recursive
/// evaluator that later walks the same tree.
pub const MAX_PARSER_DEPTH: usize = 64;

/// Parse one statement (a trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> SqlResult<Statement> {
    Parser::new(tokenize(sql)?, None).statement_eof()
}

/// Parse one statement as a template: each literal, and each `$n`
/// placeholder, is read from `slots` ([`template_tokens`]); the parser
/// records the slots it negates or reads as structure there. Errors are
/// those of [`parse_statement`] on the same text.
pub fn parse_template(sql: &str, slots: &mut Slots) -> SqlResult<Statement> {
    let tokens = template_tokens(sql, Some(slots.placeholders()))?;
    match Parser::new(tokens, Some(slots)).statement_eof() {
        Ok(stmt) => Ok(stmt),
        // A message may quote a token: give the written statement's.
        Err(e) => Err(parse_statement(sql).err().unwrap_or(e)),
    }
}

/// Parse a sequence of `;`-separated statements.
pub fn parse_script(sql: &str) -> SqlResult<Vec<Statement>> {
    let mut p = Parser::new(tokenize(sql)?, None);
    let mut out = Vec::new();
    loop {
        while p.eat_symbol(";") {}
        if matches!(p.peek(), Token::Eof) {
            break;
        }
        out.push(p.statement()?);
    }
    Ok(out)
}

struct Parser<'s> {
    tokens: Vec<Token>,
    pos: usize,
    depth: usize,
    /// The template's slots, when parsing one.
    slots: Option<&'s mut Slots>,
}

impl<'s> Parser<'s> {
    fn new(tokens: Vec<Token>, slots: Option<&'s mut Slots>) -> Self {
        Parser { tokens, pos: 0, depth: 0, slots }
    }

    fn statement_eof(mut self) -> SqlResult<Statement> {
        let stmt = self.statement()?;
        self.eat_symbol(";");
        self.expect_eof()?;
        Ok(stmt)
    }

    /// Slot `index` as an expression leaf.
    fn slot(&self, index: usize) -> SqlResult<Slot> {
        let value = self.slots.as_ref().and_then(|s| s.values().get(index)).cloned();
        let value = value.ok_or_else(|| SqlError::Parse(format!("no value for slot {index}")))?;
        Ok(Slot { index, value })
    }

    /// The text of a string literal: a `String` token, or the slot of
    /// one in a template.
    fn string_at(&self, pos: usize) -> Option<StringLit> {
        match self.tokens.get(pos)? {
            Token::String(s) => Some(StringLit::Text(s.clone())),
            Token::Param(index) => {
                let slots = self.slots.as_ref()?;
                let is_text = matches!(slots.values().get(*index), Some(Value::Text(_)));
                (slots.is_literal(*index) && is_text).then_some(StringLit::Slot(*index))
            }
            _ => None,
        }
    }

    /// `type_name 'text'`, its string literal (the current token) consumed.
    fn typed_literal(&mut self, type_name: String, text: StringLit) -> SqlResult<Expr> {
        self.pos += 1;
        Ok(match text {
            StringLit::Text(text) => Expr::TypedLiteral { type_name, text },
            StringLit::Slot(index) => Expr::TypedParam { type_name, slot: self.slot(index)? },
        })
    }

    /// A LIMIT or OFFSET count: a non-negative integer literal. In a
    /// template its slot is structural.
    fn count(&mut self, what: &str) -> SqlResult<u64> {
        let token = self.next();
        let value = match &token {
            Token::Integer(n) => Some(*n),
            Token::Param(index) => match self.slots.as_mut() {
                Some(slots) => match slots.values().get(*index) {
                    Some(&Value::Int(n)) => {
                        slots.structural(*index);
                        Some(n)
                    }
                    _ => None,
                },
                None => None,
            },
            _ => None,
        };
        match value {
            Some(n) if n >= 0 => Ok(n as u64),
            _ => Err(SqlError::Parse(format!("bad {what} {token:?}"))),
        }
    }

    /// Run `f` one recursion level deeper, refusing past the ceiling.
    fn with_depth<T>(&mut self, f: impl FnOnce(&mut Self) -> SqlResult<T>) -> SqlResult<T> {
        if self.depth >= MAX_PARSER_DEPTH {
            return Err(SqlError::ResourceExhausted(format!(
                "query nesting exceeds {MAX_PARSER_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    fn peek(&self) -> &Token {
        self.tokens.get(self.pos).unwrap_or(&Token::Eof)
    }

    fn peek2(&self) -> &Token {
        self.tokens.get(self.pos + 1).unwrap_or(&Token::Eof)
    }

    fn next(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn error(&self, msg: &str) -> SqlError {
        SqlError::Parse(format!("{msg} (at token {:?})", self.peek()))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> SqlResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(&format!("expected keyword {kw}")))
        }
    }

    fn eat_symbol(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Token::Symbol(s) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, sym: &str) -> SqlResult<()> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(self.error(&format!("expected {sym:?}")))
        }
    }

    fn expect_eof(&self) -> SqlResult<()> {
        if matches!(self.peek(), Token::Eof) {
            Ok(())
        } else {
            Err(self.error("unexpected trailing input"))
        }
    }

    fn ident(&mut self) -> SqlResult<String> {
        match self.next() {
            Token::Ident(s) => Ok(s),
            Token::QuotedIdent(s) => Ok(s),
            other => Err(SqlError::Parse(format!("expected identifier, found {other:?}"))),
        }
    }

    // ------------------------------------------------------------ statements

    fn statement(&mut self) -> SqlResult<Statement> {
        if self.peek().is_kw("explain") {
            self.pos += 1;
            let analyze = self.eat_kw("analyze");
            return Ok(Statement::Explain {
                statement: Box::new(self.statement()?),
                analyze,
            });
        }
        if self.peek().is_kw("pragma") {
            self.pos += 1;
            let name = self.ident()?.to_ascii_lowercase();
            let value = if matches!(self.peek(), Token::Symbol("=")) {
                self.pos += 1;
                let neg = matches!(self.peek(), Token::Symbol("-"));
                if neg {
                    self.pos += 1;
                }
                match self.next() {
                    Token::Integer(n) => {
                        Some(PragmaValue::Int(if neg { -n } else { n }))
                    }
                    Token::String(s) if !neg => Some(PragmaValue::Str(s)),
                    t => {
                        return Err(self.error(&format!(
                            "expected integer or string after '=', got {t:?}"
                        )))
                    }
                }
            } else {
                None
            };
            return Ok(Statement::Pragma { name, value });
        }
        if self.peek().is_kw("select") || self.peek().is_kw("with") {
            return Ok(Statement::Select(self.select_stmt()?));
        }
        if self.peek().is_kw("create") {
            return self.create_stmt();
        }
        if self.peek().is_kw("drop") {
            self.pos += 1;
            self.expect_kw("table")?;
            let if_exists = if self.eat_kw("if") {
                self.expect_kw("exists")?;
                true
            } else {
                false
            };
            let name = self.ident()?;
            return Ok(Statement::DropTable { name, if_exists });
        }
        if self.peek().is_kw("insert") {
            return self.insert_stmt();
        }
        if self.peek().is_kw("update") {
            return self.update_stmt();
        }
        if self.peek().is_kw("delete") {
            self.pos += 1;
            self.expect_kw("from")?;
            let table = self.ident()?;
            let where_clause = if self.eat_kw("where") { Some(self.expr()?) } else { None };
            return Ok(Statement::Delete { table, where_clause });
        }
        if self.peek().is_kw("checkpoint") {
            self.pos += 1;
            return Ok(Statement::Checkpoint);
        }
        Err(self.error("expected a statement"))
    }

    fn create_stmt(&mut self) -> SqlResult<Statement> {
        self.expect_kw("create")?;
        if self.eat_kw("table") {
            let if_not_exists = if self.eat_kw("if") {
                self.expect_kw("not")?;
                self.expect_kw("exists")?;
                true
            } else {
                false
            };
            let name = self.ident()?;
            self.expect_symbol("(")?;
            let mut columns = Vec::new();
            loop {
                let col = self.ident()?;
                let ty = self.type_name()?;
                columns.push((col, ty));
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            return Ok(Statement::CreateTable { name, columns, if_not_exists });
        }
        if self.eat_kw("index") {
            let name = self.ident()?;
            self.expect_kw("on")?;
            let table = self.ident()?;
            let method = if self.eat_kw("using") { self.ident()? } else { String::new() };
            self.expect_symbol("(")?;
            let column = self.ident()?;
            self.expect_symbol(")")?;
            return Ok(Statement::CreateIndex { name, table, method, column });
        }
        Err(self.error("expected TABLE or INDEX after CREATE"))
    }

    /// A type name, possibly parameterized (`DECIMAL(10,2)`), normalized to
    /// lower case with parameters dropped.
    fn type_name(&mut self) -> SqlResult<String> {
        let base = self.ident()?.to_ascii_lowercase();
        if self.eat_symbol("(") {
            // Drop precision/scale parameters.
            let mut depth = 1;
            while depth > 0 {
                match self.next() {
                    Token::Symbol("(") => depth += 1,
                    Token::Symbol(")") => depth -= 1,
                    Token::Eof => return Err(self.error("unterminated type parameters")),
                    _ => {}
                }
            }
        }
        Ok(base)
    }

    fn insert_stmt(&mut self) -> SqlResult<Statement> {
        self.expect_kw("insert")?;
        self.expect_kw("into")?;
        let table = self.ident()?;
        let mut columns = None;
        if matches!(self.peek(), Token::Symbol("(")) && !self.peek2().is_kw("select") {
            self.expect_symbol("(")?;
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            columns = Some(cols);
        }
        let source = if self.eat_kw("values") {
            let mut rows = Vec::new();
            loop {
                self.expect_symbol("(")?;
                let mut row = Vec::new();
                loop {
                    row.push(self.expr()?);
                    if !self.eat_symbol(",") {
                        break;
                    }
                }
                self.expect_symbol(")")?;
                rows.push(row);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            InsertSource::Values(rows)
        } else {
            InsertSource::Select(Box::new(self.select_stmt()?))
        };
        Ok(Statement::Insert { table, columns, source })
    }

    fn update_stmt(&mut self) -> SqlResult<Statement> {
        self.expect_kw("update")?;
        let table = self.ident()?;
        self.expect_kw("set")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_symbol("=")?;
            sets.push((col, self.expr()?));
            if !self.eat_symbol(",") {
                break;
            }
        }
        let where_clause = if self.eat_kw("where") { Some(self.expr()?) } else { None };
        Ok(Statement::Update { table, sets, where_clause })
    }

    // ------------------------------------------------------------ select

    fn select_stmt(&mut self) -> SqlResult<SelectStmt> {
        self.with_depth(|p| p.select_stmt_inner())
    }

    fn select_stmt_inner(&mut self) -> SqlResult<SelectStmt> {
        let mut ctes = Vec::new();
        if self.eat_kw("with") {
            loop {
                let name = self.ident()?;
                let mut column_aliases = Vec::new();
                if self.eat_symbol("(") {
                    loop {
                        column_aliases.push(self.ident()?);
                        if !self.eat_symbol(",") {
                            break;
                        }
                    }
                    self.expect_symbol(")")?;
                }
                self.expect_kw("as")?;
                self.expect_symbol("(")?;
                let query = self.select_stmt()?;
                self.expect_symbol(")")?;
                ctes.push(Cte { name, column_aliases, query });
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut projections = Vec::new();
        loop {
            projections.push(self.select_item()?);
            if !self.eat_symbol(",") {
                break;
            }
            // Tolerate trailing comma before FROM (appears in the paper's
            // Query 6 listing).
            if self.peek().is_kw("from") {
                break;
            }
        }
        let mut from = Vec::new();
        if self.eat_kw("from") {
            loop {
                from.push(self.table_ref()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        let where_clause = if self.eat_kw("where") { Some(self.expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        let having = if self.eat_kw("having") { Some(self.expr()?) } else { None };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let asc = if self.eat_kw("desc") {
                    false
                } else {
                    self.eat_kw("asc");
                    true
                };
                order_by.push(OrderItem { expr, asc });
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") { Some(self.count("LIMIT")?) } else { None };
        let offset = if self.eat_kw("offset") { Some(self.count("OFFSET")?) } else { None };
        Ok(SelectStmt {
            ctes,
            distinct,
            projections,
            from,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
            offset,
        })
    }

    fn select_item(&mut self) -> SqlResult<SelectItem> {
        if self.eat_symbol("*") {
            return Ok(SelectItem::Wildcard { table: None });
        }
        // alias.* wildcard
        if let (Token::Ident(t), Token::Symbol(".")) = (self.peek(), self.peek2()) {
            if matches!(self.tokens.get(self.pos + 2), Some(Token::Symbol("*"))) {
                let table = t.clone();
                self.pos += 3;
                return Ok(SelectItem::Wildcard { table: Some(table) });
            }
        }
        let expr = self.expr()?;
        let alias = self.optional_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn optional_alias(&mut self) -> SqlResult<Option<String>> {
        if self.eat_kw("as") {
            return Ok(Some(self.ident()?));
        }
        match self.peek() {
            Token::Ident(s) if !RESERVED.contains(&s.to_ascii_lowercase().as_str()) => {
                let a = s.clone();
                self.pos += 1;
                Ok(Some(a))
            }
            Token::QuotedIdent(s) => {
                let a = s.clone();
                self.pos += 1;
                Ok(Some(a))
            }
            _ => Ok(None),
        }
    }

    fn table_ref(&mut self) -> SqlResult<TableRef> {
        let mut base = self.table_factor()?;
        // INNER JOIN chains.
        loop {
            let joined = if self.eat_kw("join") {
                true
            } else if self.peek().is_kw("inner") && self.peek2().is_kw("join") {
                self.pos += 2;
                true
            } else {
                false
            };
            if !joined {
                break;
            }
            let right = self.table_factor()?;
            self.expect_kw("on")?;
            let on = self.expr()?;
            base = TableRef::Join { left: Box::new(base), right: Box::new(right), on };
        }
        Ok(base)
    }

    fn table_factor(&mut self) -> SqlResult<TableRef> {
        if self.eat_symbol("(") {
            let query = self.select_stmt()?;
            self.expect_symbol(")")?;
            self.eat_kw("as");
            let alias = self.ident()?;
            return Ok(TableRef::Subquery { query: Box::new(query), alias });
        }
        let name = self.ident()?;
        // Table function?
        if matches!(self.peek(), Token::Symbol("(")) {
            self.expect_symbol("(")?;
            let mut args = Vec::new();
            if !matches!(self.peek(), Token::Symbol(")")) {
                loop {
                    args.push(self.expr()?);
                    if !self.eat_symbol(",") {
                        break;
                    }
                }
            }
            self.expect_symbol(")")?;
            let mut alias = None;
            let mut column_aliases = Vec::new();
            if self.eat_kw("as") {
                alias = Some(self.ident()?);
            } else if let Some(a) = self.optional_alias()? {
                alias = Some(a);
            }
            if alias.is_some() && self.eat_symbol("(") {
                loop {
                    column_aliases.push(self.ident()?);
                    if !self.eat_symbol(",") {
                        break;
                    }
                }
                self.expect_symbol(")")?;
            }
            return Ok(TableRef::Function { name, args, alias, column_aliases });
        }
        let alias = self.optional_alias()?;
        Ok(TableRef::Table { name, alias })
    }

    // ------------------------------------------------------------ expressions

    pub(crate) fn expr(&mut self) -> SqlResult<Expr> {
        self.with_depth(|p| p.or_expr())
    }

    fn or_expr(&mut self) -> SqlResult<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            let right = self.and_expr()?;
            left = Expr::Binary { op: BinaryOp::Or, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> SqlResult<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("and") {
            let right = self.not_expr()?;
            left = Expr::Binary { op: BinaryOp::And, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> SqlResult<Expr> {
        if self.eat_kw("not") {
            let inner = self.with_depth(|p| p.not_expr())?;
            return Ok(Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner) });
        }
        self.comparison_expr()
    }

    fn comparison_expr(&mut self) -> SqlResult<Expr> {
        let left = self.custom_op_expr()?;
        // IS [NOT] NULL
        if self.peek().is_kw("is") {
            self.pos += 1;
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        // [NOT] IN (...)
        let negated_in = if self.peek().is_kw("not") && self.peek2().is_kw("in") {
            self.pos += 2;
            true
        } else if self.eat_kw("in") {
            false
        } else {
            // Comparison operators (possibly quantified).
            let op = match self.peek() {
                Token::Symbol("=") => Some(BinaryOp::Eq),
                Token::Symbol("<>") | Token::Symbol("!=") => Some(BinaryOp::NotEq),
                Token::Symbol("<") => Some(BinaryOp::Lt),
                Token::Symbol("<=") => Some(BinaryOp::LtEq),
                Token::Symbol(">") => Some(BinaryOp::Gt),
                Token::Symbol(">=") => Some(BinaryOp::GtEq),
                _ => None,
            };
            if let Some(op) = op {
                self.pos += 1;
                // ALL / ANY quantifier?
                if self.peek().is_kw("all") || self.peek().is_kw("any") || self.peek().is_kw("some")
                {
                    let all = self.peek().is_kw("all");
                    self.pos += 1;
                    self.expect_symbol("(")?;
                    let query = self.select_stmt()?;
                    self.expect_symbol(")")?;
                    return Ok(Expr::Quantified {
                        left: Box::new(left),
                        op,
                        all,
                        query: Box::new(query),
                    });
                }
                let right = self.custom_op_expr()?;
                return Ok(Expr::Binary { op, left: Box::new(left), right: Box::new(right) });
            }
            return Ok(left);
        };
        // IN list / IN (subquery)
        self.expect_symbol("(")?;
        if self.peek().is_kw("select") || self.peek().is_kw("with") {
            let query = self.select_stmt()?;
            self.expect_symbol(")")?;
            // expr IN (subq)  ≡  expr = ANY (subq)
            let e = Expr::Quantified {
                left: Box::new(left),
                op: BinaryOp::Eq,
                all: false,
                query: Box::new(query),
            };
            return Ok(if negated_in {
                Expr::Unary { op: UnaryOp::Not, expr: Box::new(e) }
            } else {
                e
            });
        }
        let mut list = Vec::new();
        loop {
            list.push(self.expr()?);
            if !self.eat_symbol(",") {
                break;
            }
        }
        self.expect_symbol(")")?;
        Ok(Expr::InList { expr: Box::new(left), list, negated: negated_in })
    }

    /// Registered operators (`&&`, `@>`, `<->`, ...) bind tighter than
    /// comparisons and looser than `+`/`-`.
    fn custom_op_expr(&mut self) -> SqlResult<Expr> {
        let mut left = self.additive_expr()?;
        loop {
            let op = match self.peek() {
                Token::Symbol(s @ ("&&" | "@>" | "<@" | "<<" | ">>" | "-|-" | "<->" | "|=|")) => {
                    Some(s.to_string())
                }
                _ => None,
            };
            let Some(op) = op else { break };
            self.pos += 1;
            let right = self.additive_expr()?;
            left = Expr::CustomOp { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn additive_expr(&mut self) -> SqlResult<Expr> {
        let mut left = self.multiplicative_expr()?;
        loop {
            let op = match self.peek() {
                Token::Symbol("+") => Some(BinaryOp::Add),
                Token::Symbol("-") => Some(BinaryOp::Sub),
                Token::Symbol("||") => Some(BinaryOp::Concat),
                _ => None,
            };
            let Some(op) = op else { break };
            self.pos += 1;
            let right = self.multiplicative_expr()?;
            left = Expr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn multiplicative_expr(&mut self) -> SqlResult<Expr> {
        let mut left = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Token::Symbol("*") => Some(BinaryOp::Mul),
                Token::Symbol("/") => Some(BinaryOp::Div),
                Token::Symbol("%") => Some(BinaryOp::Mod),
                _ => None,
            };
            let Some(op) = op else { break };
            self.pos += 1;
            let right = self.unary_expr()?;
            left = Expr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> SqlResult<Expr> {
        if self.eat_symbol("-") {
            let inner = self.with_depth(|p| p.unary_expr())?;
            // Fold negative literals (in a template, a literal's slot).
            return Ok(match inner {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Float(f)) => Expr::Literal(Value::Float(-f)),
                Expr::Param(slot) => match self.slots.as_mut().and_then(|s| s.negate(slot.index)) {
                    Some(value) => Expr::Param(Slot { index: slot.index, value }),
                    None => Expr::Unary { op: UnaryOp::Neg, expr: Box::new(Expr::Param(slot)) },
                },
                other => Expr::Unary { op: UnaryOp::Neg, expr: Box::new(other) },
            });
        }
        if self.eat_symbol("+") {
            return self.with_depth(|p| p.unary_expr());
        }
        self.cast_expr()
    }

    fn cast_expr(&mut self) -> SqlResult<Expr> {
        let mut e = self.primary_expr()?;
        while self.eat_symbol("::") {
            let type_name = self.type_name()?;
            e = Expr::Cast { expr: Box::new(e), type_name };
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> SqlResult<Expr> {
        match self.peek().clone() {
            Token::Integer(n) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Int(n)))
            }
            Token::Number(v) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Float(v)))
            }
            Token::String(s) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Text(Arc::from(s.as_str()))))
            }
            Token::Param(index) => {
                self.pos += 1;
                Ok(Expr::Param(self.slot(index)?))
            }
            Token::Symbol("(") => {
                self.pos += 1;
                if self.peek().is_kw("select") || self.peek().is_kw("with") {
                    let q = self.select_stmt()?;
                    self.expect_symbol(")")?;
                    return Ok(Expr::Subquery(Box::new(q)));
                }
                let e = self.expr()?;
                self.expect_symbol(")")?;
                Ok(e)
            }
            Token::Symbol("*") => Err(self.error("unexpected *")),
            Token::QuotedIdent(name) => {
                self.pos += 1;
                Ok(Expr::Column { table: None, name })
            }
            Token::Ident(word) => {
                let lower = word.to_ascii_lowercase();
                match lower.as_str() {
                    "null" => {
                        self.pos += 1;
                        return Ok(Expr::Literal(Value::Null));
                    }
                    "true" => {
                        self.pos += 1;
                        return Ok(Expr::Literal(Value::Bool(true)));
                    }
                    "false" => {
                        self.pos += 1;
                        return Ok(Expr::Literal(Value::Bool(false)));
                    }
                    "exists" => {
                        self.pos += 1;
                        self.expect_symbol("(")?;
                        let q = self.select_stmt()?;
                        self.expect_symbol(")")?;
                        return Ok(Expr::Exists { query: Box::new(q), negated: false });
                    }
                    "case" => {
                        self.pos += 1;
                        return self.case_expr();
                    }
                    "interval" => {
                        // `interval '1 day'` or `INTERVAL (expr)`.
                        self.pos += 1;
                        if let Some(text) = self.string_at(self.pos) {
                            return self.typed_literal("interval".into(), text);
                        }
                        if self.eat_symbol("(") {
                            let e = self.expr()?;
                            self.expect_symbol(")")?;
                            return Ok(Expr::Cast {
                                expr: Box::new(e),
                                type_name: "interval".into(),
                            });
                        }
                        return Err(self.error("expected string or ( after INTERVAL"));
                    }
                    _ => {}
                }
                // Typed literal: IDENT 'string'.
                if let Some(text) = self.string_at(self.pos + 1) {
                    self.pos += 1;
                    return self.typed_literal(lower, text);
                }
                self.pos += 1;
                // Function call.
                if matches!(self.peek(), Token::Symbol("(")) {
                    self.pos += 1;
                    if self.eat_symbol("*") {
                        self.expect_symbol(")")?;
                        if lower == "count" {
                            return Ok(Expr::CountStar);
                        }
                        return Err(self.error("only count(*) accepts *"));
                    }
                    let distinct = self.eat_kw("distinct");
                    let mut args = Vec::new();
                    if !matches!(self.peek(), Token::Symbol(")")) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_symbol(",") {
                                break;
                            }
                        }
                    }
                    self.expect_symbol(")")?;
                    return Ok(Expr::Func { name: lower, args, distinct });
                }
                // Qualified column.
                if self.eat_symbol(".") {
                    let name = self.ident()?;
                    return Ok(Expr::Column { table: Some(word), name });
                }
                Ok(Expr::Column { table: None, name: word })
            }
            other => Err(SqlError::Parse(format!("unexpected token {other:?} in expression"))),
        }
    }

    fn case_expr(&mut self) -> SqlResult<Expr> {
        let operand = if !self.peek().is_kw("when") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        let mut branches = Vec::new();
        while self.eat_kw("when") {
            let cond = self.expr()?;
            self.expect_kw("then")?;
            let val = self.expr()?;
            branches.push((cond, val));
        }
        let else_expr = if self.eat_kw("else") { Some(Box::new(self.expr()?)) } else { None };
        self.expect_kw("end")?;
        Ok(Expr::Case { operand, branches, else_expr })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn simple_select() {
        let s = sel("SELECT a, b AS bee FROM t WHERE a < 5 ORDER BY b DESC LIMIT 10");
        assert_eq!(s.projections.len(), 2);
        assert_eq!(s.from.len(), 1);
        assert!(s.where_clause.is_some());
        assert!(!s.order_by[0].asc);
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn typed_literals_and_casts() {
        let s = sel("SELECT duration('{1@2025-01-01}'::TINT, true)");
        match &s.projections[0] {
            SelectItem::Expr { expr: Expr::Func { name, args, .. }, .. } => {
                assert_eq!(name, "duration");
                assert!(matches!(args[0], Expr::Cast { .. }));
                assert_eq!(args[1], Expr::Literal(Value::Bool(true)));
            }
            other => panic!("{other:?}"),
        }
        let s = sel("SELECT tstzspan '[2025-01-01, 2025-01-02]'");
        assert!(matches!(
            &s.projections[0],
            SelectItem::Expr { expr: Expr::TypedLiteral { type_name, .. }, .. } if type_name == "tstzspan"
        ));
        let s = sel("SELECT interval '1 day', INTERVAL (i || ' minutes')");
        assert_eq!(s.projections.len(), 2);
    }

    #[test]
    fn custom_operators_precedence() {
        let s = sel("SELECT 1 FROM t WHERE box && q AND a <-> b < 5");
        let Some(Expr::Binary { op: BinaryOp::And, left, right }) = s.where_clause else {
            panic!()
        };
        assert!(matches!(*left, Expr::CustomOp { ref op, .. } if op == "&&"));
        // a <-> b < 5 parses as (a <-> b) < 5.
        assert!(
            matches!(*right, Expr::Binary { op: BinaryOp::Lt, ref left, .. }
                if matches!(**left, Expr::CustomOp { ref op, .. } if op == "<->"))
        );
    }

    #[test]
    fn ctes_and_quantified() {
        let s = sel(
            "WITH Temp1(L, T) AS (SELECT a, b FROM x), Temp2 AS (SELECT 1) \
             SELECT * FROM Temp1 t1 WHERE t1.L <= ALL (SELECT L FROM Temp1)",
        );
        assert_eq!(s.ctes.len(), 2);
        assert_eq!(s.ctes[0].column_aliases, vec!["L", "T"]);
        assert!(matches!(s.where_clause, Some(Expr::Quantified { all: true, .. })));
    }

    #[test]
    fn from_subquery_and_table_function() {
        let s = sel(
            "SELECT * FROM (SELECT * FROM trajectories t1 LIMIT 100) t1, \
             generate_series(1, 1000) AS t(i)",
        );
        assert_eq!(s.from.len(), 2);
        assert!(matches!(&s.from[0], TableRef::Subquery { alias, .. } if alias == "t1"));
        match &s.from[1] {
            TableRef::Function { name, args, alias, column_aliases } => {
                assert_eq!(name, "generate_series");
                assert_eq!(args.len(), 2);
                assert_eq!(alias.as_deref(), Some("t"));
                assert_eq!(column_aliases, &vec!["i".to_string()]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ddl_statements() {
        let st = parse_statement(
            "CREATE TABLE test_geo(\"times\" timestamptz, \"box\" stbox)",
        )
        .unwrap();
        assert_eq!(
            st,
            Statement::CreateTable {
                name: "test_geo".into(),
                columns: vec![
                    ("times".into(), "timestamptz".into()),
                    ("box".into(), "stbox".into())
                ],
                if_not_exists: false,
            }
        );
        let st =
            parse_statement("CREATE INDEX rtree_stbox ON test_geo USING TRTREE(box)").unwrap();
        assert_eq!(
            st,
            Statement::CreateIndex {
                name: "rtree_stbox".into(),
                table: "test_geo".into(),
                method: "TRTREE".into(),
                column: "box".into(),
            }
        );
    }

    #[test]
    fn insert_and_update() {
        let st = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match st {
            Statement::Insert { source: InsertSource::Values(rows), columns, .. } => {
                assert_eq!(rows.len(), 2);
                assert_eq!(columns.unwrap(), vec!["a", "b"]);
            }
            other => panic!("{other:?}"),
        }
        let st = parse_statement("INSERT INTO t SELECT * FROM s").unwrap();
        assert!(matches!(
            st,
            Statement::Insert { source: InsertSource::Select(_), .. }
        ));
        let st = parse_statement("UPDATE t SET geom = geometry(box) WHERE a > 2").unwrap();
        assert!(matches!(st, Statement::Update { .. }));
    }

    #[test]
    fn explain_and_script() {
        let st = parse_statement("EXPLAIN SELECT * FROM t").unwrap();
        assert!(matches!(st, Statement::Explain { analyze: false, .. }));
        let st = parse_statement("EXPLAIN ANALYZE SELECT * FROM t").unwrap();
        assert!(matches!(st, Statement::Explain { analyze: true, .. }));
        let script = parse_script("SELECT 1; SELECT 2;").unwrap();
        assert_eq!(script.len(), 2);
    }

    #[test]
    fn pragma_statements_parse() {
        let st = parse_statement("PRAGMA metrics").unwrap();
        assert_eq!(st, Statement::Pragma { name: "metrics".into(), value: None });
        let st = parse_statement("pragma Reset_Metrics;").unwrap();
        assert_eq!(st, Statement::Pragma { name: "reset_metrics".into(), value: None });
        let st = parse_statement("PRAGMA threads = 4").unwrap();
        assert_eq!(
            st,
            Statement::Pragma { name: "threads".into(), value: Some(PragmaValue::Int(4)) }
        );
        let st = parse_statement("PRAGMA threads = -1").unwrap();
        assert_eq!(
            st,
            Statement::Pragma { name: "threads".into(), value: Some(PragmaValue::Int(-1)) }
        );
        let st = parse_statement("PRAGMA memory_limit = '8MB'").unwrap();
        assert_eq!(
            st,
            Statement::Pragma {
                name: "memory_limit".into(),
                value: Some(PragmaValue::Str("8MB".into())),
            }
        );
        assert!(parse_statement("PRAGMA").is_err());
        assert!(parse_statement("PRAGMA threads =").is_err());
        assert!(parse_statement("PRAGMA threads = x").is_err());
        assert!(parse_statement("PRAGMA threads = -'8MB'").is_err());
    }

    #[test]
    fn the_papers_query_10_parses() {
        let sql = "WITH Temp AS (
            SELECT l1.License AS License1, t2.VehicleId AS Car2Id,
                   whenTrue(tDwithin(t1.Trip, t2.Trip, 3.0)) AS Periods
            FROM Trips t1, Licenses1 l1, Trips t2, Vehicles v
            WHERE t1.VehicleId = l1.VehicleId AND t2.VehicleId = v.VehicleId AND
                  t1.VehicleId <> t2.VehicleId AND
                  t2.Trip && expandSpace(t1.trip::STBOX, 3.0))
        SELECT License1, Car2Id, Periods FROM Temp WHERE Periods IS NOT NULL";
        let s = sel(sql);
        assert_eq!(s.ctes.len(), 1);
        assert!(matches!(s.where_clause, Some(Expr::IsNull { negated: true, .. })));
    }

    #[test]
    fn is_null_and_in() {
        let s = sel("SELECT 1 FROM t WHERE a IS NULL AND b IN (1, 2, 3) AND c NOT IN (4)");
        assert!(s.where_clause.is_some());
        let s = sel("SELECT 1 FROM t WHERE a IN (SELECT x FROM y)");
        assert!(matches!(
            s.where_clause,
            Some(Expr::Quantified { all: false, .. })
        ));
    }

    #[test]
    fn case_expression() {
        let s = sel("SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t");
        assert!(matches!(
            &s.projections[0],
            SelectItem::Expr { expr: Expr::Case { .. }, .. }
        ));
    }
}
