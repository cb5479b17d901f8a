//! The fusion pass: the registry's fusion table
//! ([`mduck_sql::FusionRule`]), applied once per statement to every bound
//! expression of every block — WHERE conjuncts, GROUP BY keys, aggregate
//! arguments, HAVING, projections, ORDER BY keys, CTE bodies, FROM and
//! expression subqueries — before the join order is chosen. An extension
//! registers the rules, as a DuckDB extension registers an optimizer
//! extension; MobilityDuck's put kernels that read the instants in place
//! instead of compositions such as `ST_Intersects(trajectory(x), g)`
//! (DESIGN.md §13, "Fusion rules").
//!
//! The row engine never applies the table: it runs the written forms, the
//! oracle the fused ones are checked against.

use mduck_sql::{BoundExpr, BoundFrom, BoundSelect, FusionRule, LogicalType, Registry, SortKey};

/// Apply `registry`'s fusion table to every expression of `plan`.
pub fn fuse(registry: &Registry, plan: &mut BoundSelect) {
    if !registry.fusions().is_empty() {
        fuse_select(registry, plan);
    }
}

fn fuse_select(registry: &Registry, plan: &mut BoundSelect) {
    for cte in &mut plan.ctes {
        fuse_select(registry, &mut cte.plan);
    }
    let fuse = |e: &mut BoundExpr| fuse_expr(registry, e);
    for f in &mut plan.from {
        match f {
            BoundFrom::Subquery { plan, .. } => fuse_select(registry, plan),
            BoundFrom::Series { args, .. } => args.iter_mut().for_each(fuse),
            _ => {}
        }
    }
    plan.filter.iter_mut().for_each(fuse);
    plan.group_by.iter_mut().for_each(fuse);
    plan.aggregates.iter_mut().flat_map(|a| &mut a.args).for_each(fuse);
    plan.having.iter_mut().for_each(fuse);
    plan.projections.iter_mut().for_each(fuse);
    for o in &mut plan.order_by {
        if let SortKey::Input(e) = &mut o.key {
            fuse(e);
        }
    }
}

/// Fuse `e` bottom-up: its operands first, then `e` itself for as long as
/// a rule applies (a rule's output may match another rule).
fn fuse_expr(registry: &Registry, e: &mut BoundExpr) {
    use BoundExpr::*;
    match e {
        Literal(_) | ColumnRef { .. } | OuterRef { .. } => return,
        Call { args, .. } => args.iter_mut().for_each(|a| fuse_expr(registry, a)),
        Compare { left, right, .. } | Arith { left, right, .. } => {
            fuse_expr(registry, left);
            fuse_expr(registry, right);
        }
        And(es) | Or(es) => es.iter_mut().for_each(|x| fuse_expr(registry, x)),
        Not(x) | IsNull { expr: x, .. } => fuse_expr(registry, x),
        InList { expr, list, .. } => {
            fuse_expr(registry, expr);
            list.iter_mut().for_each(|x| fuse_expr(registry, x));
        }
        Case { operand, branches, else_expr, .. } => {
            for x in operand.iter_mut().chain(else_expr.iter_mut()) {
                fuse_expr(registry, x);
            }
            for (c, v) in branches {
                fuse_expr(registry, c);
                fuse_expr(registry, v);
            }
        }
        ScalarSubquery { plan, .. } | Exists { plan, .. } => fuse_select(registry, plan),
        Quantified { left, plan, .. } => {
            fuse_expr(registry, left);
            fuse_select(registry, plan);
        }
    }
    while registry.fusions().iter().any(|r| apply(registry, r, e)) {}
}

/// Rewrite `e` by `rule` when the rule matches it; whether it did. Every
/// call involved is strict, so the fused call is NULL exactly where the
/// written one is. The arguments move into the fused call.
fn apply(registry: &Registry, rule: &FusionRule, e: &mut BoundExpr) -> bool {
    let BoundExpr::Call { name, args, ty, strict: true, .. } = e else { return false };
    // Most calls read columns and constants: no rule can match them.
    if !args.iter().take(2).any(|a| matches!(a, BoundExpr::Call { .. })) || name != rule.outer {
        return false;
    }
    let positions = if rule.commutes && args.len() == 2 { 0..2 } else { 0..1 };
    for pos in positions {
        let rest = args.iter().enumerate().filter(|&(i, _)| i != pos);
        let rest: Vec<LogicalType> = rest.map(|(_, a)| a.ty()).collect();
        let Some(inner) = inner_args(rule, &mut args[pos]) else { continue };
        let types: Vec<LogicalType> = inner.iter().map(BoundExpr::ty).chain(rest).collect();
        let Ok(sig) = registry.resolve_scalar(rule.fused, &types) else { continue };
        if sig.ret != *ty || !sig.strict {
            continue;
        }
        let mut fused_args = std::mem::take(inner);
        let mut rest = std::mem::take(args);
        rest.remove(pos);
        fused_args.extend(rest);
        let (name, func, ty) = (sig.name.clone(), sig.func.clone(), sig.ret.clone());
        *e = BoundExpr::Call { name, func, args: fused_args, ty, strict: true };
        return true;
    }
    false
}

/// The arguments of `arg` when it is a strict call to `rule.inner`, seen
/// through a strict call to `rule.through`.
fn inner_args<'a>(rule: &FusionRule, mut arg: &'a mut BoundExpr) -> Option<&'a mut Vec<BoundExpr>> {
    if let BoundExpr::Call { name, args, strict: true, .. } = &*arg {
        if Some(name.as_str()) == rule.through && args.len() == 1 {
            let BoundExpr::Call { args, .. } = arg else { return None };
            arg = &mut args[0];
        }
    }
    match arg {
        BoundExpr::Call { name, args, strict: true, .. } if name == rule.inner => Some(args),
        _ => None,
    }
}
