//! The binder: AST → [`BoundSelect`], resolving names against a catalog,
//! functions/operators/casts against a [`Registry`], and correlated
//! references against enclosing scopes.

use std::sync::Arc;

use crate::ast::{
    BinaryOp, Cte, Expr, SelectItem, SelectStmt, TableRef, UnaryOp,
};
use crate::bound::{
    BoundAggregate, BoundCte, BoundExpr, BoundFrom, BoundOrder, BoundSelect, Catalog, Field,
    Schema, SortKey,
};
use crate::error::{SqlError, SqlResult};
use crate::introspect::Introspection;
use crate::registry::Registry;
use crate::value::{LogicalType, Value};

/// Visible CTE during binding.
#[derive(Clone)]
struct CteInfo {
    name: String,
    global_index: usize,
    schema: Schema,
}

/// Binding context threaded through a statement.
pub struct Binder<'a> {
    pub catalog: &'a dyn Catalog,
    pub registry: &'a Registry,
    cte_visible: Vec<CteInfo>,
    next_cte: usize,
    /// Scope stack for correlated subqueries, innermost last.
    outer: Vec<Schema>,
    /// ON conditions collected while flattening explicit JOINs.
    pending_join_filters: Vec<Expr>,
}

impl<'a> Binder<'a> {
    pub fn new(catalog: &'a dyn Catalog, registry: &'a Registry) -> Self {
        Binder {
            catalog,
            registry,
            cte_visible: Vec::new(),
            next_cte: 0,
            outer: Vec::new(),
            pending_join_filters: Vec::new(),
        }
    }

    /// Total number of CTE slots allocated while binding (the execution
    /// context sizes its materialization array by this).
    pub fn cte_slots(&self) -> usize {
        self.next_cte
    }

    /// Bind a full SELECT statement.
    pub fn bind_select(&mut self, stmt: &SelectStmt) -> SqlResult<BoundSelect> {
        // ---- CTEs
        let mut bound_ctes = Vec::new();
        let visible_before = self.cte_visible.len();
        for cte in &stmt.ctes {
            let plan = self.bind_cte(cte)?;
            bound_ctes.push(plan);
        }

        // ---- FROM
        let mut from = Vec::new();
        for item in &stmt.from {
            self.bind_table_ref(item, &mut from)?;
        }
        let mut input_schema = Schema::default();
        for f in &from {
            input_schema = input_schema.concat(f.schema());
        }
        // Join ON conditions flattened by bind_table_ref are appended to
        // WHERE below via self.pending_join_filters.
        let mut filters: Vec<Expr> = std::mem::take(&mut self.pending_join_filters);
        if let Some(w) = &stmt.where_clause {
            filters.push(w.clone());
        }

        // ---- WHERE
        let filter = if filters.is_empty() {
            None
        } else {
            let combined = filters
                .into_iter()
                .reduce(|a, b| Expr::Binary {
                    op: BinaryOp::And,
                    left: Box::new(a),
                    right: Box::new(b),
                })
                .unwrap();
            Some(self.bind_expr(&combined, &input_schema)?)
        };

        // ---- expand wildcards
        let mut projection_exprs: Vec<(Expr, Option<String>)> = Vec::new();
        for item in &stmt.projections {
            match item {
                SelectItem::Wildcard { table } => {
                    let table = table.as_ref().map(|t| t.to_ascii_lowercase());
                    let mut any = false;
                    for f in &input_schema.fields {
                        if table.is_none() || f.table.as_deref() == table.as_deref() {
                            any = true;
                            projection_exprs.push((
                                Expr::Column { table: f.table.clone(), name: f.name.clone() },
                                Some(f.name.clone()),
                            ));
                        }
                    }
                    if !any {
                        return Err(SqlError::Bind(format!(
                            "wildcard {}.* matches nothing",
                            table.unwrap_or_default()
                        )));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    projection_exprs.push((expr.clone(), alias.clone()))
                }
            }
        }

        // ---- aggregation detection
        let has_agg = !stmt.group_by.is_empty()
            || projection_exprs.iter().any(|(e, _)| contains_aggregate(e, self.registry))
            || stmt
                .having
                .as_ref()
                .is_some_and(|e| contains_aggregate(e, self.registry));

        let (env_schema, group_by, aggregates, projections, having) = if has_agg {
            self.bind_aggregated(
                &stmt.group_by,
                &projection_exprs,
                stmt.having.as_ref(),
                &input_schema,
            )?
        } else {
            let mut projections = Vec::new();
            for (e, _) in &projection_exprs {
                projections.push(self.bind_expr(e, &input_schema)?);
            }
            if stmt.having.is_some() {
                return Err(SqlError::Bind(
                    "HAVING needs GROUP BY or an aggregate; use WHERE to filter rows".into(),
                ));
            }
            (input_schema.clone(), Vec::new(), Vec::new(), projections, None)
        };

        // ---- output schema
        let mut output_fields = Vec::new();
        for ((expr, alias), bound) in projection_exprs.iter().zip(&projections) {
            let name = alias
                .as_ref()
                .map(|a| a.to_ascii_lowercase())
                .unwrap_or_else(|| derive_name(expr));
            output_fields.push(Field { name, table: None, ty: bound.ty() });
        }
        let output_schema = Schema::new(output_fields);

        // ---- ORDER BY
        let mut order_by = Vec::new();
        for item in &stmt.order_by {
            let key = match &item.expr {
                Expr::Literal(Value::Int(n)) if *n >= 1 && (*n as usize) <= output_schema.len() => {
                    SortKey::Output(*n as usize - 1)
                }
                Expr::Column { table: None, name } => {
                    let lname = name.to_ascii_lowercase();
                    match output_schema.resolve(None, &lname) {
                        Ok(i) => SortKey::Output(i),
                        Err(_) => SortKey::Input(self.bind_expr(&item.expr, &env_schema)?),
                    }
                }
                other => {
                    // Prefer an exact match against a projection.
                    let pos = projection_exprs
                        .iter()
                        .position(|(e, _)| normalize_expr(e) == normalize_expr(other));
                    match pos {
                        Some(i) => SortKey::Output(i),
                        None => SortKey::Input(self.bind_expr(other, &env_schema)?),
                    }
                }
            };
            order_by.push(BoundOrder { key, asc: item.asc });
        }

        // Restore CTE visibility.
        self.cte_visible.truncate(visible_before);

        Ok(BoundSelect {
            ctes: bound_ctes,
            from,
            filter,
            aggregated: has_agg,
            group_by,
            aggregates,
            having,
            projections,
            distinct: stmt.distinct,
            order_by,
            limit: stmt.limit,
            offset: stmt.offset,
            input_schema,
            env_schema,
            output_schema,
        })
    }

    fn bind_cte(&mut self, cte: &Cte) -> SqlResult<BoundCte> {
        let plan = self.bind_select(&cte.query)?;
        let mut schema = plan.output_schema.clone();
        if !cte.column_aliases.is_empty() {
            if cte.column_aliases.len() != schema.len() {
                return Err(SqlError::Bind(format!(
                    "CTE {} declares {} columns but produces {}",
                    cte.name,
                    cte.column_aliases.len(),
                    schema.len()
                )));
            }
            for (f, a) in schema.fields.iter_mut().zip(&cte.column_aliases) {
                f.name = a.to_ascii_lowercase();
            }
        }
        let global_index = self.next_cte;
        self.next_cte += 1;
        self.cte_visible.push(CteInfo {
            name: cte.name.to_ascii_lowercase(),
            global_index,
            schema,
        });
        Ok(BoundCte { name: cte.name.to_ascii_lowercase(), index: global_index, plan })
    }

    fn bind_table_ref(&mut self, item: &TableRef, out: &mut Vec<BoundFrom>) -> SqlResult<()> {
        match item {
            TableRef::Table { name, alias } => {
                let lname = name.to_ascii_lowercase();
                let alias = alias
                    .as_ref()
                    .map(|a| a.to_ascii_lowercase())
                    .unwrap_or_else(|| lname.clone());
                // CTE reference?
                if let Some(info) =
                    self.cte_visible.iter().rev().find(|c| c.name == lname).cloned()
                {
                    let mut schema = info.schema.clone();
                    for f in &mut schema.fields {
                        f.table = Some(alias.clone());
                    }
                    out.push(BoundFrom::Cte { index: info.global_index, alias, schema });
                    return Ok(());
                }
                let cols = self.catalog.table_schema(&lname).ok_or_else(|| {
                    SqlError::Catalog(format!("table {name:?} does not exist"))
                })?;
                let schema = Schema::new(
                    cols.into_iter()
                        .map(|(n, ty)| Field {
                            name: n.to_ascii_lowercase(),
                            table: Some(alias.clone()),
                            ty,
                        })
                        .collect(),
                );
                out.push(BoundFrom::Table { name: lname, alias, schema });
                Ok(())
            }
            TableRef::Subquery { query, alias } => {
                let plan = self.bind_select(query)?;
                let alias = alias.to_ascii_lowercase();
                let mut schema = plan.output_schema.clone();
                for f in &mut schema.fields {
                    f.table = Some(alias.clone());
                }
                out.push(BoundFrom::Subquery { plan: Box::new(plan), alias, schema });
                Ok(())
            }
            TableRef::Function { name, args, alias, column_aliases } => {
                let lname = name.to_ascii_lowercase();
                // Zero-argument introspection table functions share one
                // shape: alias-qualified fields from `introspect`.
                if let Some(function) = Introspection::by_name(&lname) {
                    if !args.is_empty() {
                        return Err(SqlError::Bind(format!("{lname} takes no arguments")));
                    }
                    let alias = alias
                        .as_ref()
                        .map(|a| a.to_ascii_lowercase())
                        .unwrap_or_else(|| lname.clone());
                    let schema = Schema::new(function.fields(&alias));
                    out.push(BoundFrom::Introspect { function, alias, schema });
                    return Ok(());
                }
                if lname != "generate_series" && lname != "range" {
                    return Err(SqlError::Bind(format!("unknown table function {name:?}")));
                }
                if args.is_empty() || args.len() > 3 {
                    return Err(SqlError::Bind("generate_series takes 1-3 arguments".into()));
                }
                let empty = Schema::default();
                let bound_args: SqlResult<Vec<BoundExpr>> =
                    args.iter().map(|a| self.bind_expr(a, &empty)).collect();
                let alias = alias
                    .as_ref()
                    .map(|a| a.to_ascii_lowercase())
                    .unwrap_or_else(|| lname.clone());
                let col_name = column_aliases
                    .first()
                    .map(|c| c.to_ascii_lowercase())
                    .unwrap_or_else(|| lname.clone());
                let schema = Schema::new(vec![Field {
                    name: col_name,
                    table: Some(alias.clone()),
                    ty: LogicalType::Int,
                }]);
                out.push(BoundFrom::Series { args: bound_args?, alias, schema });
                Ok(())
            }
            TableRef::Join { left, right, on } => {
                self.bind_table_ref(left, out)?;
                self.bind_table_ref(right, out)?;
                self.pending_join_filters.push(on.clone());
                Ok(())
            }
        }
    }

    // -------------------------------------------------------- aggregation

    #[allow(clippy::type_complexity)]
    fn bind_aggregated(
        &mut self,
        group_by: &[Expr],
        projections: &[(Expr, Option<String>)],
        having: Option<&Expr>,
        input: &Schema,
    ) -> SqlResult<(Schema, Vec<BoundExpr>, Vec<BoundAggregate>, Vec<BoundExpr>, Option<BoundExpr>)>
    {
        let bound_groups: SqlResult<Vec<BoundExpr>> =
            group_by.iter().map(|g| self.bind_expr(g, input)).collect();
        let bound_groups = bound_groups?;
        let norm_groups: Vec<Expr> = group_by.iter().map(normalize_expr).collect();

        // Environment fields: group keys first.
        let mut env_fields: Vec<Field> = Vec::new();
        for (g, bg) in group_by.iter().zip(&bound_groups) {
            let (name, table) = match g {
                Expr::Column { table, name } => (
                    name.to_ascii_lowercase(),
                    table.as_ref().map(|t| t.to_ascii_lowercase()),
                ),
                other => (derive_name(other), None),
            };
            env_fields.push(Field { name, table, ty: bg.ty() });
        }

        let mut aggregates: Vec<BoundAggregate> = Vec::new();
        let mut proj_bound = Vec::new();
        for (e, _) in projections {
            proj_bound.push(self.bind_agg_expr(
                e,
                input,
                &norm_groups,
                &mut aggregates,
                &env_fields,
            )?);
        }
        let having_bound = match having {
            Some(h) => Some(self.bind_agg_expr(
                h,
                input,
                &norm_groups,
                &mut aggregates,
                &env_fields,
            )?),
            None => None,
        };
        let mut env_schema_fields = env_fields;
        for a in &aggregates {
            env_schema_fields.push(Field { name: a.name.clone(), table: None, ty: a.ty.clone() });
        }
        Ok((
            Schema::new(env_schema_fields),
            bound_groups,
            aggregates,
            proj_bound,
            having_bound,
        ))
    }

    /// Bind an expression in an aggregated query: group-key subexpressions
    /// become env column refs, aggregate calls are extracted.
    fn bind_agg_expr(
        &mut self,
        e: &Expr,
        input: &Schema,
        norm_groups: &[Expr],
        aggregates: &mut Vec<BoundAggregate>,
        env_fields: &[Field],
    ) -> SqlResult<BoundExpr> {
        // Group key match?
        let norm = normalize_expr(e);
        if let Some(i) = norm_groups.iter().position(|g| *g == norm) {
            return Ok(BoundExpr::ColumnRef { index: i, ty: env_fields[i].ty.clone() });
        }
        match e {
            Expr::CountStar => {
                let idx = self.push_aggregate(aggregates, "count", &[], false, input, norm_groups)?;
                Ok(BoundExpr::ColumnRef {
                    index: norm_groups.len() + idx,
                    ty: LogicalType::Int,
                })
            }
            Expr::Func { name, args, distinct }
                if self.registry.is_aggregate(name) =>
            {
                let idx =
                    self.push_aggregate(aggregates, name, args, *distinct, input, norm_groups)?;
                Ok(BoundExpr::ColumnRef {
                    index: norm_groups.len() + idx,
                    ty: aggregates[idx].ty.clone(),
                })
            }
            Expr::Column { table, name } => {
                // Not a group key: also try resolving against env fields by
                // name (e.g. GROUP BY listed a column that the projection
                // references unqualified).
                let lname = name.to_ascii_lowercase();
                let ltable = table.as_ref().map(|t| t.to_ascii_lowercase());
                for (i, f) in env_fields.iter().enumerate() {
                    if f.name == lname
                        && (ltable.is_none() || f.table.as_deref() == ltable.as_deref())
                    {
                        return Ok(BoundExpr::ColumnRef { index: i, ty: f.ty.clone() });
                    }
                }
                Err(SqlError::Bind(format!(
                    "column {} must appear in GROUP BY or inside an aggregate",
                    name
                )))
            }
            // Recurse structurally for everything else.
            Expr::Binary { op, left, right } => {
                let l = self.bind_agg_expr(left, input, norm_groups, aggregates, env_fields)?;
                let r = self.bind_agg_expr(right, input, norm_groups, aggregates, env_fields)?;
                self.finish_binary(*op, l, r)
            }
            Expr::CustomOp { op, left, right } => {
                let l = self.bind_agg_expr(left, input, norm_groups, aggregates, env_fields)?;
                let r = self.bind_agg_expr(right, input, norm_groups, aggregates, env_fields)?;
                self.resolve_call(op, vec![l, r])
            }
            Expr::Unary { op, expr } => {
                let inner = self.bind_agg_expr(expr, input, norm_groups, aggregates, env_fields)?;
                self.finish_unary(*op, inner)
            }
            Expr::Func { name, args, .. } => {
                let mut bound = Vec::new();
                for a in args {
                    bound.push(self.bind_agg_expr(a, input, norm_groups, aggregates, env_fields)?);
                }
                self.resolve_call(name, bound)
            }
            Expr::Cast { expr, type_name } => {
                let inner = self.bind_agg_expr(expr, input, norm_groups, aggregates, env_fields)?;
                self.finish_cast(inner, type_name)
            }
            Expr::IsNull { expr, negated } => {
                let inner = self.bind_agg_expr(expr, input, norm_groups, aggregates, env_fields)?;
                Ok(BoundExpr::IsNull { expr: Box::new(inner), negated: *negated })
            }
            Expr::Literal(v) => Ok(BoundExpr::Literal(v.clone())),
            Expr::TypedLiteral { type_name, text } => self.bind_typed_literal(type_name, text),
            other => Err(SqlError::Bind(format!(
                "unsupported expression in aggregated context: {other:?}"
            ))),
        }
    }

    fn push_aggregate(
        &mut self,
        aggregates: &mut Vec<BoundAggregate>,
        name: &str,
        args: &[Expr],
        distinct: bool,
        input: &Schema,
        _norm_groups: &[Expr],
    ) -> SqlResult<usize> {
        let mut bound_args = Vec::new();
        for a in args {
            bound_args.push(self.bind_expr(a, input)?);
        }
        let arg_types: Vec<LogicalType> = bound_args.iter().map(BoundExpr::ty).collect();
        let (ret, factory) = if name.eq_ignore_ascii_case("count") && args.is_empty() {
            let sig = self.registry.resolve_aggregate("count", &[LogicalType::Any])?;
            (LogicalType::Int, sig.factory.clone())
        } else {
            let sig = self.registry.resolve_aggregate(name, &arg_types)?;
            let ret = if sig.ret == LogicalType::Any {
                arg_types.first().cloned().unwrap_or(LogicalType::Null)
            } else {
                sig.ret.clone()
            };
            (ret, sig.factory.clone())
        };
        aggregates.push(BoundAggregate {
            name: name.to_ascii_lowercase(),
            args: bound_args,
            distinct,
            ty: ret,
            factory,
        });
        Ok(aggregates.len() - 1)
    }

    // -------------------------------------------------------- expressions

    /// Bind an expression against `schema` (the current scope).
    pub fn bind_expr(&mut self, e: &Expr, schema: &Schema) -> SqlResult<BoundExpr> {
        match e {
            Expr::Literal(v) => Ok(BoundExpr::Literal(v.clone())),
            Expr::TypedLiteral { type_name, text } => self.bind_typed_literal(type_name, text),
            Expr::Column { table, name } => {
                let lname = name.to_ascii_lowercase();
                let ltable = table.as_ref().map(|t| t.to_ascii_lowercase());
                match schema.resolve(ltable.as_deref(), &lname) {
                    Ok(i) => Ok(BoundExpr::ColumnRef {
                        index: i,
                        ty: schema.fields[i].ty.clone(),
                    }),
                    Err(true) => Err(SqlError::Bind(format!("ambiguous column {name:?}"))),
                    Err(false) => {
                        // Walk outer scopes, innermost first.
                        for (d, outer_schema) in self.outer.iter().rev().enumerate() {
                            if let Ok(i) = outer_schema.resolve(ltable.as_deref(), &lname) {
                                return Ok(BoundExpr::OuterRef {
                                    depth: d + 1,
                                    index: i,
                                    ty: outer_schema.fields[i].ty.clone(),
                                });
                            }
                        }
                        Err(SqlError::Bind(format!("unknown column {:?}", quality_name(table, name))))
                    }
                }
            }
            Expr::Unary { op, expr } => {
                let inner = self.bind_expr(expr, schema)?;
                self.finish_unary(*op, inner)
            }
            Expr::Binary { op, left, right } => {
                let l = self.bind_expr(left, schema)?;
                let r = self.bind_expr(right, schema)?;
                self.finish_binary(*op, l, r)
            }
            Expr::CustomOp { op, left, right } => {
                let l = self.bind_expr(left, schema)?;
                let r = self.bind_expr(right, schema)?;
                self.resolve_call(op, vec![l, r])
            }
            Expr::Func { name, args, .. } => {
                if self.registry.is_aggregate(name) {
                    return Err(SqlError::Bind(format!(
                        "aggregate {name:?} is not allowed here"
                    )));
                }
                let mut bound = Vec::new();
                for a in args {
                    bound.push(self.bind_expr(a, schema)?);
                }
                self.resolve_call(name, bound)
            }
            Expr::CountStar => Err(SqlError::Bind("count(*) is not allowed here".into())),
            Expr::Cast { expr, type_name } => {
                let inner = self.bind_expr(expr, schema)?;
                self.finish_cast(inner, type_name)
            }
            Expr::IsNull { expr, negated } => Ok(BoundExpr::IsNull {
                expr: Box::new(self.bind_expr(expr, schema)?),
                negated: *negated,
            }),
            Expr::InList { expr, list, negated } => {
                let e = self.bind_expr(expr, schema)?;
                let l: SqlResult<Vec<BoundExpr>> =
                    list.iter().map(|x| self.bind_expr(x, schema)).collect();
                Ok(BoundExpr::InList { expr: Box::new(e), list: l?, negated: *negated })
            }
            Expr::Case { operand, branches, else_expr } => {
                let operand = match operand {
                    Some(o) => Some(Box::new(self.bind_expr(o, schema)?)),
                    None => None,
                };
                let mut bs = Vec::new();
                let mut ty = LogicalType::Null;
                for (c, v) in branches {
                    let bc = self.bind_expr(c, schema)?;
                    let bv = self.bind_expr(v, schema)?;
                    if ty == LogicalType::Null {
                        ty = bv.ty();
                    }
                    bs.push((bc, bv));
                }
                let else_expr = match else_expr {
                    Some(e) => {
                        let b = self.bind_expr(e, schema)?;
                        if ty == LogicalType::Null {
                            ty = b.ty();
                        }
                        Some(Box::new(b))
                    }
                    None => None,
                };
                Ok(BoundExpr::Case { operand, branches: bs, else_expr, ty })
            }
            Expr::Subquery(q) => {
                self.outer.push(schema.clone());
                let plan = self.bind_select(q);
                self.outer.pop();
                let plan = plan?;
                if plan.output_schema.len() != 1 {
                    return Err(SqlError::Bind("scalar subquery must return one column".into()));
                }
                let ty = plan.output_schema.fields[0].ty.clone();
                Ok(BoundExpr::ScalarSubquery { plan: Box::new(plan), ty })
            }
            Expr::Quantified { left, op, all, query } => {
                let l = self.bind_expr(left, schema)?;
                self.outer.push(schema.clone());
                let plan = self.bind_select(query);
                self.outer.pop();
                let plan = plan?;
                if plan.output_schema.len() != 1 {
                    return Err(SqlError::Bind(
                        "quantified subquery must return one column".into(),
                    ));
                }
                Ok(BoundExpr::Quantified {
                    op: *op,
                    all: *all,
                    left: Box::new(l),
                    plan: Box::new(plan),
                })
            }
            Expr::Exists { query, negated } => {
                self.outer.push(schema.clone());
                let plan = self.bind_select(query);
                self.outer.pop();
                Ok(BoundExpr::Exists { plan: Box::new(plan?), negated: *negated })
            }
        }
    }

    fn bind_typed_literal(&mut self, type_name: &str, text: &str) -> SqlResult<BoundExpr> {
        let ty = self.registry.resolve_type(type_name)?;
        if ty == LogicalType::Text {
            return Ok(BoundExpr::Literal(Value::text(text)));
        }
        let cast = self
            .registry
            .resolve_cast(&LogicalType::Text, &ty)
            .ok_or_else(|| {
                SqlError::Bind(format!("no cast from VARCHAR to {}", ty.name()))
            })?;
        // Typed literals fold at bind time: the text is parsed once.
        let v = cast(&[Value::text(text)])?;
        Ok(BoundExpr::Literal(v))
    }

    fn finish_cast(&mut self, inner: BoundExpr, type_name: &str) -> SqlResult<BoundExpr> {
        let target = self.registry.resolve_type(type_name)?;
        let from = inner.ty();
        if from == target {
            return Ok(inner);
        }
        // NULL keeps flowing.
        if from == LogicalType::Null {
            return Ok(inner);
        }
        let cast = match self.registry.resolve_cast(&from, &target) {
            Some(c) => c,
            None if target == LogicalType::Text => {
                Arc::new(|args: &[Value]| Ok(Value::text(args[0].to_string())))
            }
            None => {
                return Err(SqlError::Bind(format!(
                    "no cast from {} to {}",
                    from.name(),
                    target.name()
                )))
            }
        };
        // Fold constant casts.
        if let BoundExpr::Literal(v) = &inner {
            if !v.is_null() {
                return Ok(BoundExpr::Literal(cast(std::slice::from_ref(v))?));
            }
        }
        Ok(BoundExpr::Call {
            name: format!("cast::{}", target.name()),
            func: cast,
            args: vec![inner],
            ty: target,
            strict: true,
        })
    }

    fn finish_unary(&mut self, op: UnaryOp, inner: BoundExpr) -> SqlResult<BoundExpr> {
        match op {
            UnaryOp::Not => Ok(BoundExpr::Not(Box::new(inner))),
            UnaryOp::Neg => {
                let ty = inner.ty();
                Ok(BoundExpr::Arith {
                    op: BinaryOp::Sub,
                    left: Box::new(BoundExpr::Literal(match ty {
                        LogicalType::Float => Value::Float(0.0),
                        _ => Value::Int(0),
                    })),
                    right: Box::new(inner),
                    ty,
                })
            }
        }
    }

    fn finish_binary(&mut self, op: BinaryOp, l: BoundExpr, r: BoundExpr) -> SqlResult<BoundExpr> {
        match op {
            BinaryOp::And => Ok(BoundExpr::And(vec![l, r])),
            BinaryOp::Or => Ok(BoundExpr::Or(vec![l, r])),
            op if op.is_comparison() => {
                // Extension types may override comparison operators.
                let lt = l.ty();
                let rt = r.ty();
                if matches!(lt, LogicalType::Ext(_)) || matches!(rt, LogicalType::Ext(_)) {
                    if let Ok(call) = self.resolve_call(op.symbol(), vec![l.clone(), r.clone()]) {
                        return Ok(call);
                    }
                }
                Ok(BoundExpr::Compare { op, left: Box::new(l), right: Box::new(r) })
            }
            BinaryOp::Concat => Ok(BoundExpr::Arith {
                op,
                left: Box::new(l),
                right: Box::new(r),
                ty: LogicalType::Text,
            }),
            _ => {
                let lt = l.ty();
                let rt = r.ty();
                // Extension arithmetic (e.g. tfloat + float) delegates to a
                // registered operator function.
                if matches!(lt, LogicalType::Ext(_)) || matches!(rt, LogicalType::Ext(_)) {
                    return self.resolve_call(op.symbol(), vec![l, r]);
                }
                let ty = arith_result_type(op, &lt, &rt)?;
                Ok(BoundExpr::Arith { op, left: Box::new(l), right: Box::new(r), ty })
            }
        }
    }

    fn resolve_call(&mut self, name: &str, args: Vec<BoundExpr>) -> SqlResult<BoundExpr> {
        let arg_types: Vec<LogicalType> = args.iter().map(BoundExpr::ty).collect();
        let sig = self.registry.resolve_scalar(name, &arg_types)?;
        let ret = if sig.ret == LogicalType::Any {
            arg_types.first().cloned().unwrap_or(LogicalType::Null)
        } else {
            sig.ret.clone()
        };
        // Constant folding for pure-literal calls.
        if args.iter().all(|a| matches!(a, BoundExpr::Literal(v) if !v.is_null())) {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| match a {
                    BoundExpr::Literal(v) => v.clone(),
                    _ => unreachable!(),
                })
                .collect();
            if let Ok(v) = (sig.func)(&vals) {
                return Ok(BoundExpr::Literal(v));
            }
        }
        Ok(BoundExpr::Call {
            name: sig.name.clone(),
            func: sig.func.clone(),
            args,
            ty: ret,
            strict: sig.strict,
        })
    }
}

fn quality_name(table: &Option<String>, name: &str) -> String {
    match table {
        Some(t) => format!("{t}.{name}"),
        None => name.to_string(),
    }
}

/// Infer the result type of built-in arithmetic.
fn arith_result_type(op: BinaryOp, l: &LogicalType, r: &LogicalType) -> SqlResult<LogicalType> {
    use LogicalType::*;
    let ty = match (op, l, r) {
        (_, Int, Int) => Int,
        (_, Float, Int) | (_, Int, Float) | (_, Float, Float) => Float,
        (BinaryOp::Add, Timestamp, Interval) | (BinaryOp::Sub, Timestamp, Interval) => Timestamp,
        (BinaryOp::Add, Interval, Timestamp) => Timestamp,
        (BinaryOp::Add, Date, Interval) | (BinaryOp::Sub, Date, Interval) => Timestamp,
        (BinaryOp::Sub, Timestamp, Timestamp) => Interval,
        (BinaryOp::Add, Date, Int) | (BinaryOp::Sub, Date, Int) => Date,
        (BinaryOp::Sub, Date, Date) => Int,
        (BinaryOp::Add, Interval, Interval) | (BinaryOp::Sub, Interval, Interval) => Interval,
        (BinaryOp::Mul, Interval, Int) | (BinaryOp::Mul, Int, Interval) => Interval,
        (_, Null, other) | (_, other, Null) => other.clone(),
        _ => {
            return Err(SqlError::Bind(format!(
                "operator {} undefined for {} and {}",
                op.symbol(),
                l.name(),
                r.name()
            )))
        }
    };
    Ok(ty)
}

/// Derive an output column name from an expression.
fn derive_name(e: &Expr) -> String {
    match e {
        Expr::Column { name, .. } => name.to_ascii_lowercase(),
        Expr::Func { name, .. } => name.to_ascii_lowercase(),
        Expr::CountStar => "count".into(),
        Expr::Cast { expr, .. } => derive_name(expr),
        Expr::TypedLiteral { type_name, .. } => type_name.clone(),
        _ => "expr".into(),
    }
}

/// Structural normalization for GROUP BY / ORDER BY matching: lowercases
/// identifiers so `v.License` matches `V.LICENSE`.
fn normalize_expr(e: &Expr) -> Expr {
    match e {
        Expr::Column { table, name } => Expr::Column {
            table: table.as_ref().map(|t| t.to_ascii_lowercase()),
            name: name.to_ascii_lowercase(),
        },
        Expr::Unary { op, expr } => {
            Expr::Unary { op: *op, expr: Box::new(normalize_expr(expr)) }
        }
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(normalize_expr(left)),
            right: Box::new(normalize_expr(right)),
        },
        Expr::CustomOp { op, left, right } => Expr::CustomOp {
            op: op.clone(),
            left: Box::new(normalize_expr(left)),
            right: Box::new(normalize_expr(right)),
        },
        Expr::Func { name, args, distinct } => Expr::Func {
            name: name.to_ascii_lowercase(),
            args: args.iter().map(normalize_expr).collect(),
            distinct: *distinct,
        },
        Expr::Cast { expr, type_name } => Expr::Cast {
            expr: Box::new(normalize_expr(expr)),
            type_name: type_name.to_ascii_lowercase(),
        },
        Expr::IsNull { expr, negated } => {
            Expr::IsNull { expr: Box::new(normalize_expr(expr)), negated: *negated }
        }
        other => other.clone(),
    }
}

/// Does the expression contain an aggregate call?
fn contains_aggregate(e: &Expr, registry: &Registry) -> bool {
    match e {
        Expr::CountStar => true,
        Expr::Func { name, args, .. } => {
            registry.is_aggregate(name) || args.iter().any(|a| contains_aggregate(a, registry))
        }
        Expr::Unary { expr, .. } => contains_aggregate(expr, registry),
        Expr::Binary { left, right, .. } | Expr::CustomOp { left, right, .. } => {
            contains_aggregate(left, registry) || contains_aggregate(right, registry)
        }
        Expr::Cast { expr, .. } => contains_aggregate(expr, registry),
        Expr::IsNull { expr, .. } => contains_aggregate(expr, registry),
        Expr::InList { expr, list, .. } => {
            contains_aggregate(expr, registry)
                || list.iter().any(|a| contains_aggregate(a, registry))
        }
        Expr::Case { operand, branches, else_expr } => {
            operand.as_deref().is_some_and(|o| contains_aggregate(o, registry))
                || branches
                    .iter()
                    .any(|(c, v)| contains_aggregate(c, registry) || contains_aggregate(v, registry))
                || else_expr.as_deref().is_some_and(|x| contains_aggregate(x, registry))
        }
        _ => false,
    }
}

/// Bind a statement's expression with no input columns (INSERT VALUES).
pub fn bind_constant_expr(
    e: &Expr,
    catalog: &dyn Catalog,
    registry: &Registry,
) -> SqlResult<BoundExpr> {
    let mut b = Binder::new(catalog, registry);
    let empty = Schema::default();
    b.bind_expr(e, &empty)
}
