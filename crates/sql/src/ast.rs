//! The abstract syntax tree produced by the parser.

use crate::value::Value;

/// A top-level SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(SelectStmt),
    CreateTable {
        name: String,
        /// (column name, type name as written)
        columns: Vec<(String, String)>,
        if_not_exists: bool,
    },
    CreateIndex {
        name: String,
        table: String,
        /// Index method from `USING <method>`; empty means the default.
        method: String,
        column: String,
    },
    DropTable {
        name: String,
        if_exists: bool,
    },
    Insert {
        table: String,
        columns: Option<Vec<String>>,
        source: InsertSource,
    },
    Update {
        table: String,
        sets: Vec<(String, Expr)>,
        where_clause: Option<Expr>,
    },
    Delete {
        table: String,
        where_clause: Option<Expr>,
    },
    Explain {
        statement: Box<Statement>,
        /// `EXPLAIN ANALYZE`: execute the statement and annotate the plan
        /// with actual per-operator timings and cardinalities.
        analyze: bool,
    },
    /// `PRAGMA <name>` / `PRAGMA <name> = <value>`: engine introspection
    /// (`metrics`, `reset_metrics`, `reset_spans`) and engine settings
    /// (`threads = N`, `memory_limit = '8MB'`, `query_log = 'q.jsonl'`).
    Pragma {
        name: String,
        value: Option<PragmaValue>,
    },
    /// `CHECKPOINT`: snapshot the catalog + all tables into the
    /// checkpoint file and truncate the WAL. A no-op when the database
    /// has no WAL attached.
    Checkpoint,
}

/// The value of a `PRAGMA name = <value>` assignment. Settings that take
/// sizes or paths use string form (`PRAGMA memory_limit='8MB'`).
#[derive(Debug, Clone, PartialEq)]
pub enum PragmaValue {
    Int(i64),
    Str(String),
}

impl PragmaValue {
    pub fn as_int(&self) -> Option<i64> {
        match self {
            PragmaValue::Int(n) => Some(*n),
            PragmaValue::Str(_) => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            PragmaValue::Int(_) => None,
            PragmaValue::Str(s) => Some(s),
        }
    }
}

/// The data source of an INSERT.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    Values(Vec<Vec<Expr>>),
    Select(Box<SelectStmt>),
}

/// A SELECT statement (optionally with CTEs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStmt {
    /// `WITH name(col, ...) AS (select)` entries, in order.
    pub ctes: Vec<Cte>,
    pub distinct: bool,
    pub projections: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
}

/// A common table expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Cte {
    pub name: String,
    pub column_aliases: Vec<String>,
    pub query: SelectStmt,
}

/// One projection in the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*` or `alias.*`
    Wildcard { table: Option<String> },
    /// An expression with an optional alias.
    Expr { expr: Expr, alias: Option<String> },
}

/// An ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub asc: bool,
}

/// A FROM item.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    Table {
        name: String,
        alias: Option<String>,
    },
    Subquery {
        query: Box<SelectStmt>,
        alias: String,
    },
    /// A table function such as `generate_series(1, 1000) AS t(i)`.
    Function {
        name: String,
        args: Vec<Expr>,
        alias: Option<String>,
        column_aliases: Vec<String>,
    },
    /// Explicit `a JOIN b ON cond` (inner joins only).
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        on: Expr,
    },
}

/// A literal's slot in a statement template
/// ([`crate::template::Slots`]), holding the value it has in the
/// statement the template is parsed from. Slots compare by that value, as
/// the literals they stand for do, so expressions match (GROUP BY keys,
/// ORDER BY items) exactly where the written statement's would.
#[derive(Debug, Clone)]
pub struct Slot {
    pub index: usize,
    pub value: Value,
}

impl PartialEq for Slot {
    fn eq(&self, other: &Slot) -> bool {
        self.value == other.value
    }
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Literal(Value),
    /// A literal (or `$n` placeholder) of a statement parsed as a template.
    Param(Slot),
    /// `tstzspan '[2025-01-01, 2025-01-02]'`, `interval '1 day'`, ...
    TypedLiteral { type_name: String, text: String },
    /// A typed literal of a statement parsed as a template: its text is
    /// the slot's.
    TypedParam { type_name: String, slot: Slot },
    /// A (possibly qualified) column reference.
    Column { table: Option<String>, name: String },
    Unary { op: UnaryOp, expr: Box<Expr> },
    Binary { op: BinaryOp, left: Box<Expr>, right: Box<Expr> },
    /// Registered operator symbol (`&&`, `@>`, `<->`, ...).
    CustomOp { op: String, left: Box<Expr>, right: Box<Expr> },
    Func { name: String, args: Vec<Expr>, distinct: bool },
    /// `count(*)`.
    CountStar,
    Cast { expr: Box<Expr>, type_name: String },
    IsNull { expr: Box<Expr>, negated: bool },
    InList { expr: Box<Expr>, list: Vec<Expr>, negated: bool },
    /// A scalar subquery.
    Subquery(Box<SelectStmt>),
    /// `expr op ALL (subquery)` / `expr op ANY (subquery)`.
    Quantified { left: Box<Expr>, op: BinaryOp, all: bool, query: Box<SelectStmt> },
    /// `EXISTS (subquery)`.
    Exists { query: Box<SelectStmt>, negated: bool },
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
}

impl Expr {
    /// Visit the template slot of every literal in `self`, subquery
    /// bodies included.
    pub fn for_each_slot(&self, f: &mut impl FnMut(usize)) {
        match self {
            Expr::Param(slot) | Expr::TypedParam { slot, .. } => f(slot.index),
            Expr::Literal(_) | Expr::TypedLiteral { .. } | Expr::Column { .. } | Expr::CountStar => {}
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::IsNull { expr, .. } => {
                expr.for_each_slot(f)
            }
            Expr::Binary { left, right, .. } | Expr::CustomOp { left, right, .. } => {
                left.for_each_slot(f);
                right.for_each_slot(f);
            }
            Expr::Func { args, .. } => args.iter().for_each(|a| a.for_each_slot(f)),
            Expr::InList { expr, list, .. } => {
                expr.for_each_slot(f);
                list.iter().for_each(|a| a.for_each_slot(f));
            }
            Expr::Subquery(q) | Expr::Exists { query: q, .. } => q.for_each_slot(f),
            Expr::Quantified { left, query, .. } => {
                left.for_each_slot(f);
                query.for_each_slot(f);
            }
            Expr::Case { operand, branches, else_expr } => {
                for e in operand.iter().chain(else_expr) {
                    e.for_each_slot(f);
                }
                for (c, v) in branches {
                    c.for_each_slot(f);
                    v.for_each_slot(f);
                }
            }
        }
    }
}

impl SelectStmt {
    /// Visit the template slot of every literal in the statement's
    /// expressions (LIMIT and OFFSET are read as structure by the parser).
    pub fn for_each_slot(&self, f: &mut impl FnMut(usize)) {
        fn table(t: &TableRef, f: &mut impl FnMut(usize)) {
            match t {
                TableRef::Table { .. } => {}
                TableRef::Subquery { query, .. } => query.for_each_slot(f),
                TableRef::Function { args, .. } => args.iter().for_each(|a| a.for_each_slot(f)),
                TableRef::Join { left, right, on } => {
                    table(left, f);
                    table(right, f);
                    on.for_each_slot(f);
                }
            }
        }
        for c in &self.ctes {
            c.query.for_each_slot(f);
        }
        for p in &self.projections {
            if let SelectItem::Expr { expr, .. } = p {
                expr.for_each_slot(f);
            }
        }
        self.from.iter().for_each(|t| table(t, f));
        let exprs = self.where_clause.iter().chain(&self.group_by).chain(&self.having);
        exprs.chain(self.order_by.iter().map(|o| &o.expr)).for_each(|e| e.for_each_slot(f));
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    And,
    Or,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Concat,
}

impl BinaryOp {
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Concat => "||",
        }
    }

    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }
}
