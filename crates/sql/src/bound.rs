//! Bound (name-resolved, type-checked) plans — the contract between the
//! shared frontend and the two executors (vectorized `quackdb`,
//! tuple-at-a-time `mduck-rowdb`).

use std::sync::Arc;

use crate::ast::BinaryOp;
use crate::registry::{AggState, ScalarFn};
use crate::value::{LogicalType, Value};

/// A named, typed output column.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    pub name: String,
    /// The binding alias of the FROM item the column came from.
    pub table: Option<String>,
    pub ty: LogicalType,
}

/// An ordered list of fields.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schema {
    pub fields: Vec<Field>,
}

impl Schema {
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Concatenate (for comma joins).
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        fields.extend(other.fields.iter().cloned());
        Schema { fields }
    }

    /// Find a column by (optional table alias, name); both lowercased.
    /// Returns `Err(true)` on ambiguity, `Err(false)` when absent.
    pub fn resolve(&self, table: Option<&str>, name: &str) -> Result<usize, bool> {
        let mut found = None;
        for (i, f) in self.fields.iter().enumerate() {
            let name_matches = f.name == name;
            let table_matches = match table {
                None => true,
                Some(t) => f.table.as_deref() == Some(t),
            };
            if name_matches && table_matches {
                if found.is_some() {
                    return Err(true);
                }
                found = Some(i);
            }
        }
        found.ok_or(false)
    }
}

/// A bound expression, evaluated against an environment row (plus a stack
/// of outer rows for correlated subqueries).
#[derive(Clone)]
pub enum BoundExpr {
    Literal(Value),
    /// Slot `index` of a statement template, a constant of type `ty`
    /// ([`crate::template::Slots`]). The planner treats it as a constant;
    /// instantiation ([`BoundSelect::set_params`]) replaces it by its
    /// [`BoundExpr::Literal`] before anything evaluates it.
    Param { index: usize, ty: LogicalType },
    /// Column of the current environment row.
    ColumnRef { index: usize, ty: LogicalType },
    /// Column of an enclosing query's row (`depth` scopes up, 1-based).
    OuterRef { depth: usize, index: usize, ty: LogicalType },
    /// A resolved scalar function / operator / cast call.
    Call {
        name: String,
        func: ScalarFn,
        args: Vec<BoundExpr>,
        ty: LogicalType,
        strict: bool,
    },
    /// Built-in comparison with SQL semantics.
    Compare { op: BinaryOp, left: Box<BoundExpr>, right: Box<BoundExpr> },
    /// Built-in arithmetic / concatenation.
    Arith { op: BinaryOp, left: Box<BoundExpr>, right: Box<BoundExpr>, ty: LogicalType },
    And(Vec<BoundExpr>),
    Or(Vec<BoundExpr>),
    Not(Box<BoundExpr>),
    IsNull { expr: Box<BoundExpr>, negated: bool },
    InList { expr: Box<BoundExpr>, list: Vec<BoundExpr>, negated: bool },
    Case {
        operand: Option<Box<BoundExpr>>,
        branches: Vec<(BoundExpr, BoundExpr)>,
        else_expr: Option<Box<BoundExpr>>,
        ty: LogicalType,
    },
    /// Uncorrelated or correlated scalar subquery.
    ScalarSubquery { plan: Box<BoundSelect>, ty: LogicalType },
    /// `expr op ALL/ANY (subquery)`.
    Quantified { op: BinaryOp, all: bool, left: Box<BoundExpr>, plan: Box<BoundSelect> },
    Exists { plan: Box<BoundSelect>, negated: bool },
}

impl std::fmt::Debug for BoundExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundExpr::Literal(v) => write!(f, "lit({v:?})"),
            BoundExpr::Param { index, .. } => write!(f, "${index}"),
            BoundExpr::ColumnRef { index, .. } => write!(f, "col#{index}"),
            BoundExpr::OuterRef { depth, index, .. } => write!(f, "outer#{depth}.{index}"),
            BoundExpr::Call { name, args, .. } => write!(f, "{name}({args:?})"),
            BoundExpr::Compare { op, left, right } => {
                write!(f, "({left:?} {} {right:?})", op.symbol())
            }
            BoundExpr::Arith { op, left, right, .. } => {
                write!(f, "({left:?} {} {right:?})", op.symbol())
            }
            BoundExpr::And(es) => write!(f, "and{es:?}"),
            BoundExpr::Or(es) => write!(f, "or{es:?}"),
            BoundExpr::Not(e) => write!(f, "not({e:?})"),
            BoundExpr::IsNull { expr, negated } => {
                write!(f, "({expr:?} is {}null)", if *negated { "not " } else { "" })
            }
            BoundExpr::InList { expr, list, .. } => write!(f, "({expr:?} in {list:?})"),
            BoundExpr::Case { .. } => write!(f, "case(...)"),
            BoundExpr::ScalarSubquery { .. } => write!(f, "subquery(...)"),
            BoundExpr::Quantified { op, all, left, .. } => {
                write!(f, "({left:?} {} {}(...))", op.symbol(), if *all { "ALL" } else { "ANY" })
            }
            BoundExpr::Exists { negated, .. } => {
                write!(f, "{}exists(...)", if *negated { "not " } else { "" })
            }
        }
    }
}

impl BoundExpr {
    pub fn ty(&self) -> LogicalType {
        match self {
            BoundExpr::Literal(v) => v.logical_type(),
            BoundExpr::Param { ty, .. }
            | BoundExpr::ColumnRef { ty, .. }
            | BoundExpr::OuterRef { ty, .. }
            | BoundExpr::Call { ty, .. }
            | BoundExpr::Arith { ty, .. }
            | BoundExpr::Case { ty, .. }
            | BoundExpr::ScalarSubquery { ty, .. } => ty.clone(),
            BoundExpr::Compare { .. }
            | BoundExpr::And(_)
            | BoundExpr::Or(_)
            | BoundExpr::Not(_)
            | BoundExpr::IsNull { .. }
            | BoundExpr::InList { .. }
            | BoundExpr::Quantified { .. }
            | BoundExpr::Exists { .. } => LogicalType::Bool,
        }
    }

    /// Does evaluation need anything beyond the current row (subqueries /
    /// outer references)? Vectorized fast paths bail out when true.
    pub fn is_complex(&self) -> bool {
        match self {
            BoundExpr::Literal(_) | BoundExpr::Param { .. } | BoundExpr::ColumnRef { .. } => false,
            BoundExpr::OuterRef { .. }
            | BoundExpr::ScalarSubquery { .. }
            | BoundExpr::Quantified { .. }
            | BoundExpr::Exists { .. } => true,
            BoundExpr::Call { args, .. } => args.iter().any(BoundExpr::is_complex),
            BoundExpr::Compare { left, right, .. } | BoundExpr::Arith { left, right, .. } => {
                left.is_complex() || right.is_complex()
            }
            BoundExpr::And(es) | BoundExpr::Or(es) => es.iter().any(BoundExpr::is_complex),
            BoundExpr::Not(e) => e.is_complex(),
            BoundExpr::IsNull { expr, .. } => expr.is_complex(),
            BoundExpr::InList { expr, list, .. } => {
                expr.is_complex() || list.iter().any(BoundExpr::is_complex)
            }
            BoundExpr::Case { operand, branches, else_expr, .. } => {
                operand.as_deref().is_some_and(BoundExpr::is_complex)
                    || branches.iter().any(|(c, v)| c.is_complex() || v.is_complex())
                    || else_expr.as_deref().is_some_and(BoundExpr::is_complex)
            }
        }
    }

    /// Collect column indices referenced at the current depth.
    pub fn collect_columns(&self, out: &mut Vec<usize>) {
        self.for_each_column(&mut |i| out.push(i));
    }

    /// Visit every column index referenced at the current depth, in
    /// written order. Subquery bodies have their own column space and are
    /// not entered.
    pub fn for_each_column(&self, f: &mut impl FnMut(usize)) {
        match self {
            BoundExpr::ColumnRef { index, .. } => f(*index),
            BoundExpr::Literal(_)
            | BoundExpr::Param { .. }
            | BoundExpr::OuterRef { .. }
            | BoundExpr::ScalarSubquery { .. }
            | BoundExpr::Exists { .. } => {}
            BoundExpr::Call { args, .. } => args.iter().for_each(|a| a.for_each_column(f)),
            BoundExpr::Compare { left, right, .. } | BoundExpr::Arith { left, right, .. } => {
                left.for_each_column(f);
                right.for_each_column(f);
            }
            BoundExpr::And(es) | BoundExpr::Or(es) => es.iter().for_each(|e| e.for_each_column(f)),
            BoundExpr::Not(e) => e.for_each_column(f),
            BoundExpr::IsNull { expr, .. } => expr.for_each_column(f),
            BoundExpr::InList { expr, list, .. } => {
                expr.for_each_column(f);
                list.iter().for_each(|e| e.for_each_column(f));
            }
            BoundExpr::Case { operand, branches, else_expr, .. } => {
                if let Some(o) = operand {
                    o.for_each_column(f);
                }
                for (c, v) in branches {
                    c.for_each_column(f);
                    v.for_each_column(f);
                }
                if let Some(e) = else_expr {
                    e.for_each_column(f);
                }
            }
            BoundExpr::Quantified { left, .. } => left.for_each_column(f),
        }
    }

    /// Does `f` hold for `self` or an expression inside it? Subquery
    /// bodies are not entered (a `Quantified`'s left operand is).
    pub fn any(&self, f: &mut impl FnMut(&BoundExpr) -> bool) -> bool {
        if f(self) {
            return true;
        }
        match self {
            BoundExpr::Literal(_)
            | BoundExpr::Param { .. }
            | BoundExpr::ColumnRef { .. }
            | BoundExpr::OuterRef { .. }
            | BoundExpr::ScalarSubquery { .. }
            | BoundExpr::Exists { .. } => false,
            BoundExpr::Call { args, .. } => args.iter().any(|a| a.any(f)),
            BoundExpr::Compare { left, right, .. } | BoundExpr::Arith { left, right, .. } => {
                left.any(f) || right.any(f)
            }
            BoundExpr::And(es) | BoundExpr::Or(es) => es.iter().any(|e| e.any(f)),
            BoundExpr::Not(e) | BoundExpr::IsNull { expr: e, .. } => e.any(f),
            BoundExpr::InList { expr, list, .. } => expr.any(f) || list.iter().any(|e| e.any(f)),
            BoundExpr::Case { operand, branches, else_expr, .. } => {
                operand.as_deref().is_some_and(|o| o.any(f))
                    || branches.iter().any(|(c, v)| c.any(f) || v.any(f))
                    || else_expr.as_deref().is_some_and(|e| e.any(f))
            }
            BoundExpr::Quantified { left, .. } => left.any(f),
        }
    }

    /// Does `self` hold a subquery (scalar, quantified or EXISTS)?
    pub fn has_subquery(&self) -> bool {
        self.any(&mut |e| {
            matches!(
                e,
                BoundExpr::ScalarSubquery { .. }
                    | BoundExpr::Quantified { .. }
                    | BoundExpr::Exists { .. }
            )
        })
    }

    /// A copy of `self` with every column index `i` at the current depth
    /// renumbered to `f(i)` — the columns [`BoundExpr::for_each_column`]
    /// visits. Pushes a predicate below a join, onto one relation, or onto
    /// a scan's predicate chunk.
    pub fn map_columns(&self, f: &dyn Fn(usize) -> usize) -> BoundExpr {
        use BoundExpr::*;
        let map = |e: &BoundExpr| Box::new(e.map_columns(f));
        match self {
            ColumnRef { index, ty } => ColumnRef { index: f(*index), ty: ty.clone() },
            Literal(_) | Param { .. } | OuterRef { .. } | ScalarSubquery { .. } | Exists { .. } => {
                self.clone()
            }
            Call { name, func, args, ty, strict } => Call {
                name: name.clone(),
                func: func.clone(),
                args: args.iter().map(|a| a.map_columns(f)).collect(),
                ty: ty.clone(),
                strict: *strict,
            },
            Compare { op, left, right } => Compare { op: *op, left: map(left), right: map(right) },
            Arith { op, left, right, ty } => {
                Arith { op: *op, left: map(left), right: map(right), ty: ty.clone() }
            }
            And(es) => And(es.iter().map(|x| x.map_columns(f)).collect()),
            Or(es) => Or(es.iter().map(|x| x.map_columns(f)).collect()),
            Not(x) => Not(map(x)),
            IsNull { expr, negated } => IsNull { expr: map(expr), negated: *negated },
            InList { expr, list, negated } => InList {
                expr: map(expr),
                list: list.iter().map(|x| x.map_columns(f)).collect(),
                negated: *negated,
            },
            Case { operand, branches, else_expr, ty } => Case {
                operand: operand.as_deref().map(map),
                branches: branches
                    .iter()
                    .map(|(c, v)| (c.map_columns(f), v.map_columns(f)))
                    .collect(),
                else_expr: else_expr.as_deref().map(map),
                ty: ty.clone(),
            },
            Quantified { op, all, left, plan } => {
                Quantified { op: *op, all: *all, left: map(left), plan: plan.clone() }
            }
        }
    }

    /// Replace each [`BoundExpr::Param`] in `self` by its value in
    /// `values`, in subquery bodies too: a template's expression
    /// instantiated.
    pub fn set_params(&mut self, values: &[Value]) {
        use BoundExpr::*;
        let list = |es: &mut [BoundExpr]| es.iter_mut().for_each(|e| e.set_params(values));
        match self {
            Param { index, .. } => *self = Literal(values.get(*index).cloned().unwrap_or_default()),
            Literal(_) | ColumnRef { .. } | OuterRef { .. } => {}
            Call { args: es, .. } | And(es) | Or(es) => list(es),
            Compare { left, right, .. } | Arith { left, right, .. } => {
                left.set_params(values);
                right.set_params(values);
            }
            Not(e) | IsNull { expr: e, .. } => e.set_params(values),
            InList { expr, list: es, .. } => {
                expr.set_params(values);
                list(es);
            }
            Case { operand, branches, else_expr, .. } => {
                for e in operand.iter_mut().chain(else_expr) {
                    e.set_params(values);
                }
                for (c, v) in branches {
                    c.set_params(values);
                    v.set_params(values);
                }
            }
            ScalarSubquery { plan, .. } | Exists { plan, .. } => plan.set_params(values),
            Quantified { left, plan, .. } => {
                left.set_params(values);
                plan.set_params(values);
            }
        }
    }
}

/// One bound aggregate call.
#[derive(Clone)]
pub struct BoundAggregate {
    pub name: String,
    pub args: Vec<BoundExpr>,
    pub distinct: bool,
    pub ty: LogicalType,
    pub factory: Arc<dyn Fn() -> Box<dyn AggState> + Send + Sync>,
}

impl std::fmt::Debug for BoundAggregate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}({:?}{})", self.name, self.args, if self.distinct { " distinct" } else { "" })
    }
}

/// How to obtain a sort key.
#[derive(Debug, Clone)]
pub enum SortKey {
    /// Index into the projected output row.
    Output(usize),
    /// Expression over the projection-input environment.
    Input(BoundExpr),
}

#[derive(Debug, Clone)]
pub struct BoundOrder {
    pub key: SortKey,
    pub asc: bool,
}

/// Compare two ORDER BY key vectors under `order` — the one comparator
/// shared by both engines, so ordering semantics (and ordering *errors*)
/// are identical everywhere.
///
/// NULLs sort last ascending / first descending. A pair of **non-null**
/// values that [`Value::sql_cmp`] refuses to order (incompatible types,
/// or a NaN float) is a type error, not a silent tie: the first such
/// pair is recorded in `err` and reported as `Equal` so the sort can run
/// to completion, after which the caller fails the statement with the
/// recorded error.
pub fn cmp_order_keys(
    a: &[Value],
    b: &[Value],
    order: &[BoundOrder],
    err: &mut Option<crate::error::SqlError>,
) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    for ((x, y), o) in a.iter().zip(b).zip(order) {
        let ord = match x.sql_cmp(y) {
            Some(ord) => ord,
            None => match (x.is_null(), y.is_null()) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Greater,
                (false, true) => Ordering::Less,
                (false, false) => {
                    if err.is_none() {
                        *err = Some(crate::error::SqlError::Type(format!(
                            "ORDER BY cannot compare {} with {}",
                            x.logical_type().name(),
                            y.logical_type().name()
                        )));
                    }
                    Ordering::Equal
                }
            },
        };
        let ord = if o.asc { ord } else { ord.reverse() };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// A bound FROM item.
#[derive(Debug, Clone)]
pub enum BoundFrom {
    Table { name: String, alias: String, schema: Schema },
    Cte { index: usize, alias: String, schema: Schema },
    Subquery { plan: Box<BoundSelect>, alias: String, schema: Schema },
    /// `generate_series(start, stop[, step])`.
    Series { args: Vec<BoundExpr>, alias: String, schema: Schema },
    /// `mduck_spans()`, `mduck_progress()` or `mduck_query_log()`.
    Introspect { function: crate::introspect::Introspection, alias: String, schema: Schema },
}

impl BoundFrom {
    pub fn schema(&self) -> &Schema {
        match self {
            BoundFrom::Table { schema, .. }
            | BoundFrom::Cte { schema, .. }
            | BoundFrom::Subquery { schema, .. }
            | BoundFrom::Series { schema, .. }
            | BoundFrom::Introspect { schema, .. } => schema,
        }
    }
}

/// A bound CTE (materialized once per execution, in order).
#[derive(Debug, Clone)]
pub struct BoundCte {
    pub name: String,
    /// Global CTE slot assigned by the binder; `BoundFrom::Cte` references
    /// use the same index space.
    pub index: usize,
    pub plan: BoundSelect,
}

/// A fully bound SELECT.
///
/// Evaluation model shared by both engines:
/// 1. materialize `ctes` in order;
/// 2. produce the cross product of `from` (engines extract equi-join and
///    index-join conditions from `filter`'s conjuncts);
/// 3. apply `filter`;
/// 4. if `aggregated`: group by `group_by`, compute `aggregates`, and form
///    the *aggregate environment row* `[group keys ++ agg results]`; apply
///    `having`; otherwise the environment row is the input row;
/// 5. evaluate `projections` over the environment row;
/// 6. DISTINCT, ORDER BY (`SortKey::Output` over the projected row,
///    `SortKey::Input` over the environment row), OFFSET/LIMIT.
#[derive(Debug, Clone, Default)]
pub struct BoundSelect {
    pub ctes: Vec<BoundCte>,
    pub from: Vec<BoundFrom>,
    pub filter: Option<BoundExpr>,
    pub aggregated: bool,
    pub group_by: Vec<BoundExpr>,
    pub aggregates: Vec<BoundAggregate>,
    pub having: Option<BoundExpr>,
    pub projections: Vec<BoundExpr>,
    pub distinct: bool,
    pub order_by: Vec<BoundOrder>,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
    /// Schema of the concatenated FROM items.
    pub input_schema: Schema,
    /// Schema of the aggregate environment (equals `input_schema` when not
    /// aggregated).
    pub env_schema: Schema,
    pub output_schema: Schema,
}

impl BoundSelect {
    /// Replace each [`BoundExpr::Param`] in `self` by its value in
    /// `values`: a template's plan instantiated.
    pub fn set_params(&mut self, values: &[Value]) {
        let list = |es: &mut [BoundExpr]| es.iter_mut().for_each(|e| e.set_params(values));
        for c in &mut self.ctes {
            c.plan.set_params(values);
        }
        for f in &mut self.from {
            match f {
                BoundFrom::Subquery { plan, .. } => plan.set_params(values),
                BoundFrom::Series { args, .. } => list(args),
                BoundFrom::Table { .. } | BoundFrom::Cte { .. } | BoundFrom::Introspect { .. } => {}
            }
        }
        for e in self.filter.iter_mut().chain(&mut self.having) {
            e.set_params(values);
        }
        list(&mut self.group_by);
        self.aggregates.iter_mut().for_each(|a| list(&mut a.args));
        list(&mut self.projections);
        for o in &mut self.order_by {
            if let SortKey::Input(e) = &mut o.key {
                e.set_params(values);
            }
        }
    }
}

/// Split a filter into top-level AND conjuncts.
pub fn split_conjuncts(expr: &BoundExpr, out: &mut Vec<BoundExpr>) {
    match expr {
        BoundExpr::And(es) => {
            for e in es {
                split_conjuncts(e, out);
            }
        }
        other => out.push(other.clone()),
    }
}

/// Catalog abstraction the binder resolves table names against.
pub trait Catalog {
    /// Column names and types of a base table (lower-cased names).
    fn table_schema(&self, name: &str) -> Option<Vec<(String, LogicalType)>>;
    /// Every base table's name, sorted.
    fn table_names(&self) -> Vec<String>;
}
