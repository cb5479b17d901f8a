//! Decorrelating `x op ALL/ANY (subquery)` for an ordered `op`.
//!
//! Evaluated as written, the subquery runs once per outer row. When it
//! reads the outer row only through `outer column = inner expression`
//! equalities, an engine may instead run it once without them, its
//! projection followed by the inner key expressions
//! ([`decorrelate`]), and fold the rows into per-key summaries
//! ([`QuantifiedSets`]): whether the key's set holds a NULL, and the
//! minimum and maximum of its other values. For `<`, `<=`, `>` and `>=`
//! that decides each outer row exactly as comparing against every value
//! of its set does ([`crate::eval()`]), including NULL operands, NULLs in
//! the set, and empty sets (a NULL or unmatched key has one).

use std::cmp::Ordering;
use std::collections::HashMap;

use crate::ast::BinaryOp;
use crate::bound::{split_conjuncts, BoundExpr, BoundFrom, BoundSelect, Field};
use crate::eval::compare;
use crate::plan::{block_exprs, compares_by_identity};
use crate::value::Value;

/// A quantified subquery rewritten to run once for every outer row.
pub struct Decorrelated {
    /// The subquery without its correlating equalities; its output is the
    /// compared value followed by one column per key.
    pub plan: BoundSelect,
    /// Per key: the column of the outer row its equality reads.
    pub outer_keys: Vec<usize>,
}

/// Rewrite `left op ALL/ANY (plan)` to run `plan` once, when that is
/// exact: `op` is ordered; `plan` is one unaggregated column without
/// LIMIT or OFFSET, of `left`'s type; every type compared is one whose
/// equal values are identical; and `plan` reads the outer row only
/// through top-level `outer column = inner expression` conjuncts (any
/// other outer reference, at any depth, declines).
pub fn decorrelate(op: BinaryOp, left: &BoundExpr, plan: &BoundSelect) -> Option<Decorrelated> {
    let ordered = matches!(op, BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq);
    let ty = left.ty();
    if !ordered
        || plan.aggregated
        || plan.limit.is_some()
        || plan.offset.is_some()
        || plan.projections.len() != 1
        || plan.projections[0].ty() != ty
        || !compares_by_identity(&ty)
    {
        return None;
    }
    let mut conjuncts = Vec::new();
    if let Some(f) = &plan.filter {
        split_conjuncts(f, &mut conjuncts);
    }
    let mut rest = Vec::new();
    let mut outer_keys = Vec::new();
    let mut inner_keys = Vec::new();
    for c in conjuncts {
        match correlation(&c) {
            Some((outer, inner)) => {
                outer_keys.push(outer);
                inner_keys.push(inner.clone());
            }
            None => rest.push(c),
        }
    }
    let mut out = BoundSelect { filter: None, ..plan.clone() };
    out.filter = match rest.len() {
        0 => None,
        1 => rest.pop(),
        _ => Some(BoundExpr::And(rest)),
    };
    if reaches_out(&out, 0) {
        return None;
    }
    for k in inner_keys {
        out.output_schema.fields.push(Field { name: "key".into(), table: None, ty: k.ty() });
        out.projections.push(k);
    }
    Some(Decorrelated { plan: out, outer_keys })
}

/// `OuterRef(1, i) = e` either way round, `e` reading only the subquery's
/// own row, both of one type whose equal values are identical: `(i, e)`.
fn correlation(c: &BoundExpr) -> Option<(usize, &BoundExpr)> {
    let BoundExpr::Compare { op: BinaryOp::Eq, left, right } = c else { return None };
    let (index, ty, inner) = match (&**left, &**right) {
        (BoundExpr::OuterRef { depth: 1, index, ty }, e)
        | (e, BoundExpr::OuterRef { depth: 1, index, ty }) => (*index, ty, e),
        _ => return None,
    };
    (!inner.is_complex() && inner.ty() == *ty && compares_by_identity(ty)).then_some((index, inner))
}

/// Does a block at `level` subqueries below the decorrelated one read the
/// outer row, or a row further out? CTE bodies, FROM subqueries and
/// `generate_series` arguments run at their block's level; expression
/// subqueries one level deeper. At level 0: does `plan` read any row
/// outside itself?
pub fn reaches_out(plan: &BoundSelect, level: usize) -> bool {
    let expr_reaches = |e: &BoundExpr| {
        e.any(&mut |x| match x {
            BoundExpr::OuterRef { depth, .. } => *depth > level,
            BoundExpr::ScalarSubquery { plan, .. }
            | BoundExpr::Quantified { plan, .. }
            | BoundExpr::Exists { plan, .. } => reaches_out(plan, level + 1),
            _ => false,
        })
    };
    block_exprs(plan).any(expr_reaches)
        || plan.ctes.iter().any(|c| reaches_out(&c.plan, level))
        || plan.from.iter().any(|f| match f {
            BoundFrom::Subquery { plan, .. } => reaches_out(plan, level),
            BoundFrom::Series { args, .. } => args.iter().any(expr_reaches),
            _ => false,
        })
}

/// One key's set of compared values.
#[derive(Default)]
struct Summary {
    has_null: bool,
    min: Option<Value>,
    max: Option<Value>,
}

/// The per-key summaries of a decorrelated subquery's rows.
pub struct QuantifiedSets {
    sets: HashMap<Vec<u8>, Summary>,
    outer_keys: Vec<usize>,
}

impl QuantifiedSets {
    /// Fold the rows of [`Decorrelated::plan`]: the compared value, then
    /// the keys. Rows with a NULL key match no outer row and are dropped.
    pub fn new(rows: Vec<Vec<Value>>, outer_keys: Vec<usize>) -> Self {
        let mut sets: HashMap<Vec<u8>, Summary> = HashMap::new();
        for row in rows {
            let Some((v, keys)) = row.split_first() else { continue };
            let Some(key) = key_bytes(keys.iter()) else { continue };
            let s = sets.entry(key).or_default();
            if v.is_null() {
                s.has_null = true;
                continue;
            }
            if s.min.as_ref().is_none_or(|m| v.sql_cmp(m) == Some(Ordering::Less)) {
                s.min = Some(v.clone());
            }
            if s.max.as_ref().is_none_or(|m| v.sql_cmp(m) == Some(Ordering::Greater)) {
                s.max = Some(v.clone());
            }
        }
        QuantifiedSets { sets, outer_keys }
    }

    /// `left op ALL/ANY (set)` for the outer row `row`; `left` is not NULL.
    pub fn answer(&self, op: BinaryOp, all: bool, left: &Value, row: &[Value]) -> Value {
        let key = key_bytes(self.outer_keys.iter().map(|&i| &row[i]));
        let set = key.and_then(|k| self.sets.get(&k));
        let Some(set) = set else {
            // An empty set: ALL holds, ANY does not.
            return Value::Bool(all);
        };
        // The value deciding the outcome: ALL must hold against the
        // tightest bound, ANY against the loosest.
        let low_side = matches!(op, BinaryOp::Lt | BinaryOp::LtEq);
        let bound = if low_side == all { &set.min } else { &set.max };
        let hit = bound.as_ref().map(|b| compare(op, left, b));
        match (hit, all) {
            (Some(Value::Bool(false)), true) => Value::Bool(false),
            (Some(Value::Bool(true)), false) => Value::Bool(true),
            (Some(Value::Bool(b)), _) if !set.has_null => Value::Bool(b),
            _ => Value::Null,
        }
    }
}

/// The hash key of a key tuple, `None` when a key is NULL.
fn key_bytes<'v>(keys: impl Iterator<Item = &'v Value>) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    for k in keys {
        if k.is_null() {
            return None;
        }
        k.hash_key(&mut out);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sets(values: &[Option<i64>]) -> QuantifiedSets {
        let rows = values
            .iter()
            .map(|v| vec![v.map_or(Value::Null, Value::Int), Value::Int(7)])
            .collect();
        QuantifiedSets::new(rows, vec![0])
    }

    /// The per-row rule of `crate::eval` over an explicit set.
    fn per_row(op: BinaryOp, all: bool, l: i64, set: &[Option<i64>]) -> Value {
        let (mut any_hit, mut all_hit, mut saw_null) = (false, true, false);
        for v in set {
            match v.map(|v| compare(op, &Value::Int(l), &Value::Int(v))) {
                Some(Value::Bool(true)) => any_hit = true,
                Some(Value::Bool(false)) => all_hit = false,
                _ => saw_null = true,
            }
        }
        match (all, any_hit, all_hit, saw_null) {
            (true, _, false, _) => Value::Bool(false),
            (true, _, true, true) => Value::Null,
            (true, _, true, false) => Value::Bool(true),
            (false, true, _, _) => Value::Bool(true),
            (false, false, _, true) => Value::Null,
            (false, false, _, false) => Value::Bool(false),
        }
    }

    #[test]
    fn summaries_answer_like_the_per_row_rule() {
        let shapes: [&[Option<i64>]; 6] = [
            &[],
            &[None],
            &[Some(3)],
            &[Some(3), Some(3), Some(5)],
            &[Some(5), None, Some(1)],
            &[None, None, Some(4)],
        ];
        for set in shapes {
            let s = sets(set);
            for op in [BinaryOp::Lt, BinaryOp::LtEq, BinaryOp::Gt, BinaryOp::GtEq] {
                for all in [true, false] {
                    for l in 0..7 {
                        // Key 7 matches the set; key 8 misses it (empty).
                        let got = s.answer(op, all, &Value::Int(l), &[Value::Int(7)]);
                        assert_eq!(got, per_row(op, all, l, set), "{op:?} {all} {l} {set:?}");
                        let missing = s.answer(op, all, &Value::Int(l), &[Value::Int(8)]);
                        assert_eq!(missing, per_row(op, all, l, &[]));
                        let null_key = s.answer(op, all, &Value::Int(l), &[Value::Null]);
                        assert_eq!(null_key, per_row(op, all, l, &[]));
                    }
                }
            }
        }
    }
}
