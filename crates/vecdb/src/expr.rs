//! Vectorized expression evaluation over [`DataChunk`]s.
//!
//! Simple expressions (column refs, literals, built-in comparisons and
//! arithmetic over primitive payloads, AND/OR) run as tight typed loops;
//! extension calls dispatch per row through their registered scalar
//! function (as DuckDB does for extension UDFs); subquery-bearing
//! expressions fall back to the shared row-wise evaluator.

use std::borrow::Cow;
use std::cmp::Ordering;

use mduck_sql::ast::BinaryOp;
use mduck_sql::eval::{eval, OuterStack, SubqueryExec};
use mduck_sql::{BoundExpr, LogicalType, SqlError, SqlResult, Value};

use crate::column::{ColumnData, DataChunk, Payload};

/// Evaluate an expression over a chunk, producing one column.
pub fn eval_vector(
    expr: &BoundExpr,
    chunk: &DataChunk,
    outer: &OuterStack<'_>,
    exec: &dyn SubqueryExec,
) -> SqlResult<ColumnData> {
    match expr {
        BoundExpr::ColumnRef { index, .. } => chunk
            .columns
            .get(*index)
            .cloned()
            .ok_or_else(|| SqlError::execution(format!("column {index} out of range"))),
        BoundExpr::Literal(v) => {
            let ty = v.logical_type();
            let ty = if ty == LogicalType::Null { LogicalType::Int } else { ty };
            let mut c = ColumnData::new(&ty);
            for _ in 0..chunk.len {
                c.push(v)?;
            }
            Ok(c)
        }
        BoundExpr::Compare { op, left, right } => Ok(match (&**left, &**right) {
            // Against a literal: compare with the scalar directly instead
            // of broadcasting it into a chunk-long column.
            (e, BoundExpr::Literal(v)) => {
                let c = eval_borrowed(e, chunk, outer, exec)?;
                compare_scalar(*op, &c, v, false, chunk.len)
            }
            (BoundExpr::Literal(v), e) => {
                let c = eval_borrowed(e, chunk, outer, exec)?;
                compare_scalar(*op, &c, v, true, chunk.len)
            }
            _ => {
                let l = eval_borrowed(left, chunk, outer, exec)?;
                let r = eval_borrowed(right, chunk, outer, exec)?;
                compare_columns(*op, &l, &r, chunk.len)
            }
        }),
        BoundExpr::And(es) => {
            let mut acc: Option<ColumnData> = None;
            for e in es {
                let c = eval_vector(e, chunk, outer, exec)?;
                acc = Some(match acc {
                    None => c,
                    Some(a) => bool_combine(&a, &c, chunk.len, true)?,
                });
            }
            acc.ok_or_else(|| SqlError::execution("empty AND"))
        }
        BoundExpr::Or(es) => {
            let mut acc: Option<ColumnData> = None;
            for e in es {
                let c = eval_vector(e, chunk, outer, exec)?;
                acc = Some(match acc {
                    None => c,
                    Some(a) => bool_combine(&a, &c, chunk.len, false)?,
                });
            }
            acc.ok_or_else(|| SqlError::execution("empty OR"))
        }
        BoundExpr::Not(e) => {
            let c = eval_vector(e, chunk, outer, exec)?;
            let mut out = ColumnData::new(&LogicalType::Bool);
            for i in 0..chunk.len {
                match c.get(i) {
                    Value::Bool(b) => out.push(&Value::Bool(!b))?,
                    Value::Null => out.push_null(),
                    other => {
                        return Err(SqlError::execution(format!("NOT over {other:?}")))
                    }
                }
            }
            Ok(out)
        }
        BoundExpr::IsNull { expr, negated } => {
            let c = eval_vector(expr, chunk, outer, exec)?;
            let mut out = ColumnData::new(&LogicalType::Bool);
            for i in 0..chunk.len {
                let is_null = !c.validity[i]
                    || matches!(&c.payload, Payload::Ext(p) if p[i].is_none())
                    || matches!(&c.payload, Payload::List(p) if p[i].is_none());
                out.push(&Value::Bool(is_null != *negated))?;
            }
            Ok(out)
        }
        BoundExpr::Call { func, args, strict, ty, .. } if !expr.is_complex() => {
            // Evaluate arguments vectorized, then dispatch the scalar
            // function row by row (the DuckDB extension-UDF pattern).
            let arg_cols: SqlResult<Vec<Cow<'_, ColumnData>>> = args
                .iter()
                .map(|a| eval_borrowed(a, chunk, outer, exec))
                .collect();
            let arg_cols = arg_cols?;
            let mut out = ColumnData::new(ty);
            let mut scratch: Vec<Value> = Vec::with_capacity(args.len());
            'rows: for i in 0..chunk.len {
                scratch.clear();
                for c in &arg_cols {
                    let v = c.get(i);
                    if *strict && v.is_null() {
                        out.push_null();
                        continue 'rows;
                    }
                    scratch.push(v);
                }
                out.push(&func(&scratch)?)?;
            }
            Ok(out)
        }
        BoundExpr::Arith { op, left, right, ty } if !expr.is_complex() => {
            let l = eval_vector(left, chunk, outer, exec)?;
            let r = eval_vector(right, chunk, outer, exec)?;
            arith_columns(*op, &l, &r, ty, chunk.len)
        }
        _ => fallback_rows(expr, chunk, outer, exec),
    }
}

/// [`eval_vector`] that borrows a referenced column from the chunk
/// instead of cloning it.
fn eval_borrowed<'c>(
    expr: &BoundExpr,
    chunk: &'c DataChunk,
    outer: &OuterStack<'_>,
    exec: &dyn SubqueryExec,
) -> SqlResult<Cow<'c, ColumnData>> {
    match expr {
        BoundExpr::ColumnRef { index, .. } => chunk
            .columns
            .get(*index)
            .map(Cow::Borrowed)
            .ok_or_else(|| SqlError::execution(format!("column {index} out of range"))),
        _ => eval_vector(expr, chunk, outer, exec).map(Cow::Owned),
    }
}

/// Row-at-a-time fallback (subqueries, outer references, CASE, ...).
fn fallback_rows(
    expr: &BoundExpr,
    chunk: &DataChunk,
    outer: &OuterStack<'_>,
    exec: &dyn SubqueryExec,
) -> SqlResult<ColumnData> {
    let ty = expr.ty();
    let ty = if ty == LogicalType::Null || ty == LogicalType::Any {
        LogicalType::Int
    } else {
        ty
    };
    let mut out = ColumnData::new(&ty);
    let mut row: Vec<Value> = Vec::with_capacity(chunk.columns.len());
    for i in 0..chunk.len {
        row.clear();
        row.extend(chunk.columns.iter().map(|c| c.get(i)));
        let v = eval(expr, &row, outer, exec)?;
        out.push(&v)?;
    }
    Ok(out)
}

/// Vectorized arithmetic with typed fast paths for Int/Float payloads;
/// temporal and mixed payloads fall back to the shared scalar kernel.
fn arith_columns(
    op: BinaryOp,
    l: &ColumnData,
    r: &ColumnData,
    ty: &LogicalType,
    len: usize,
) -> SqlResult<ColumnData> {
    use mduck_sql::eval::arith;
    let mut out = ColumnData::new(ty);
    match (&l.payload, &r.payload, ty) {
        (Payload::Int(a), Payload::Int(b), LogicalType::Int) => {
            let overflow = |what: &str, x: i64, y: i64| {
                SqlError::overflow(format!("bigint {what} of {x} and {y} out of range"))
            };
            for i in 0..len {
                if !l.validity[i] || !r.validity[i] {
                    out.push_null();
                    continue;
                }
                let v = match op {
                    BinaryOp::Add => a[i]
                        .checked_add(b[i])
                        .ok_or_else(|| overflow("addition", a[i], b[i]))?,
                    BinaryOp::Sub => a[i]
                        .checked_sub(b[i])
                        .ok_or_else(|| overflow("subtraction", a[i], b[i]))?,
                    BinaryOp::Mul => a[i]
                        .checked_mul(b[i])
                        .ok_or_else(|| overflow("multiplication", a[i], b[i]))?,
                    BinaryOp::Div => {
                        if b[i] == 0 {
                            return Err(SqlError::execution("division by zero"));
                        }
                        // i64::MIN / -1 overflows.
                        a[i].checked_div(b[i]).ok_or_else(|| overflow("division", a[i], b[i]))?
                    }
                    BinaryOp::Mod => {
                        if b[i] == 0 {
                            return Err(SqlError::execution("modulo by zero"));
                        }
                        a[i].checked_rem(b[i]).ok_or_else(|| overflow("modulo", a[i], b[i]))?
                    }
                    _ => return Err(SqlError::execution("bad arithmetic op")),
                };
                out.push(&Value::Int(v))?;
            }
            Ok(out)
        }
        (Payload::Float(a), Payload::Float(b), LogicalType::Float) => {
            for i in 0..len {
                if !l.validity[i] || !r.validity[i] {
                    out.push_null();
                    continue;
                }
                let v = match op {
                    BinaryOp::Add => a[i] + b[i],
                    BinaryOp::Sub => a[i] - b[i],
                    BinaryOp::Mul => a[i] * b[i],
                    BinaryOp::Div => {
                        if b[i] == 0.0 {
                            return Err(SqlError::execution("division by zero"));
                        }
                        a[i] / b[i]
                    }
                    BinaryOp::Mod => a[i] % b[i],
                    _ => return Err(SqlError::execution("bad arithmetic op")),
                };
                out.push(&Value::Float(v))?;
            }
            Ok(out)
        }
        _ => {
            for i in 0..len {
                let v = arith(op, &l.get(i), &r.get(i))?;
                out.push(&v)?;
            }
            Ok(out)
        }
    }
}

/// The truth value of `op` for an ordering; `None` (SQL NULL) for an
/// operator that is not a comparison.
fn ordering_holds(op: BinaryOp, o: Ordering) -> Option<bool> {
    match op {
        BinaryOp::Eq => Some(o == Ordering::Equal),
        BinaryOp::NotEq => Some(o != Ordering::Equal),
        BinaryOp::Lt => Some(o == Ordering::Less),
        BinaryOp::LtEq => Some(o != Ordering::Greater),
        BinaryOp::Gt => Some(o == Ordering::Greater),
        BinaryOp::GtEq => Some(o != Ordering::Less),
        _ => None,
    }
}

/// A boolean column from per-row three-valued results.
fn bool_column(len: usize, mut f: impl FnMut(usize) -> Option<bool>) -> ColumnData {
    let mut values = Vec::with_capacity(len);
    let mut validity = Vec::with_capacity(len);
    for i in 0..len {
        let r = f(i);
        values.push(r.unwrap_or(false));
        validity.push(r.is_some());
    }
    ColumnData { ty: LogicalType::Bool, validity, payload: Payload::Bool(values) }
}

/// Vectorized comparison with typed fast paths.
fn compare_columns(op: BinaryOp, l: &ColumnData, r: &ColumnData, len: usize) -> ColumnData {
    macro_rules! fast {
        ($a:expr, $b:expr) => {
            bool_column(len, |i| {
                if !l.validity[i] || !r.validity[i] {
                    return None;
                }
                ordering_holds(op, $a[i].partial_cmp(&$b[i])?)
            })
        };
    }
    match (&l.payload, &r.payload) {
        (Payload::Int(a), Payload::Int(b)) => fast!(a, b),
        (Payload::Float(a), Payload::Float(b)) => fast!(a, b),
        (Payload::Timestamp(a), Payload::Timestamp(b)) => fast!(a, b),
        (Payload::Date(a), Payload::Date(b)) => fast!(a, b),
        (Payload::Text(a), Payload::Text(b)) => fast!(a, b),
        // Generic path (mixed numeric, ext values, ...).
        _ => bool_column(len, |i| match mduck_sql::compare(op, &l.get(i), &r.get(i)) {
            Value::Bool(b) => Some(b),
            _ => None,
        }),
    }
}

/// `col op lit` (or `lit op col` when `lit_left`), row for row the same
/// result as [`compare_columns`] against the literal broadcast into a
/// column, without building that column.
fn compare_scalar(
    op: BinaryOp,
    col: &ColumnData,
    lit: &Value,
    lit_left: bool,
    len: usize,
) -> ColumnData {
    macro_rules! fast {
        ($a:expr, $x:expr) => {
            bool_column(len, |i| {
                if !col.validity[i] {
                    return None;
                }
                let o = if lit_left { $x.partial_cmp(&$a[i]) } else { $a[i].partial_cmp($x) };
                ordering_holds(op, o?)
            })
        };
    }
    match (&col.payload, lit) {
        (_, Value::Null) => bool_column(len, |_| None),
        (Payload::Int(a), Value::Int(x)) => fast!(a, x),
        (Payload::Float(a), Value::Float(x)) => fast!(a, x),
        (Payload::Timestamp(a), Value::Timestamp(x)) => fast!(a, x),
        (Payload::Date(a), Value::Date(x)) => fast!(a, x),
        (Payload::Text(a), Value::Text(x)) => fast!(a, x),
        _ => bool_column(len, |i| {
            let v = col.get(i);
            let (l, r) = if lit_left { (lit, &v) } else { (&v, lit) };
            match mduck_sql::compare(op, l, r) {
                Value::Bool(b) => Some(b),
                _ => None,
            }
        }),
    }
}

/// Combine two boolean columns with three-valued AND/OR.
fn bool_combine(a: &ColumnData, b: &ColumnData, len: usize, is_and: bool) -> SqlResult<ColumnData> {
    let mut out = ColumnData::new(&LogicalType::Bool);
    let (Payload::Bool(pa), Payload::Bool(pb)) = (&a.payload, &b.payload) else {
        return Err(SqlError::execution("AND/OR over non-boolean columns"));
    };
    for i in 0..len {
        let av = a.validity[i].then(|| pa[i]);
        let bv = b.validity[i].then(|| pb[i]);
        let result = if is_and {
            match (av, bv) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            }
        } else {
            match (av, bv) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            }
        };
        match result {
            Some(v) => out.push(&Value::Bool(v))?,
            None => out.push_null(),
        }
    }
    Ok(out)
}

/// Evaluate a predicate over a chunk, returning the selected row indices.
pub fn filter_chunk(
    pred: &BoundExpr,
    chunk: &DataChunk,
    outer: &OuterStack<'_>,
    exec: &dyn SubqueryExec,
) -> SqlResult<Vec<usize>> {
    let c = eval_vector(pred, chunk, outer, exec)?;
    let Payload::Bool(p) = &c.payload else {
        return Err(SqlError::execution("filter predicate is not boolean"));
    };
    Ok((0..chunk.len).filter(|&i| c.validity[i] && p[i]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mduck_sql::eval::NoSubqueries;

    fn chunk() -> DataChunk {
        let mut a = ColumnData::new(&LogicalType::Int);
        let mut b = ColumnData::new(&LogicalType::Int);
        for i in 0..5 {
            a.push(&Value::Int(i)).unwrap();
            b.push(&Value::Int(10 - i)).unwrap();
        }
        DataChunk::from_columns(vec![a, b])
    }

    fn col(i: usize) -> BoundExpr {
        BoundExpr::ColumnRef { index: i, ty: LogicalType::Int }
    }

    #[test]
    fn vector_compare_and_filter() {
        let pred = BoundExpr::Compare {
            op: BinaryOp::Lt,
            left: Box::new(col(0)),
            right: Box::new(col(1)),
        };
        let sel = filter_chunk(&pred, &chunk(), &OuterStack::EMPTY, &NoSubqueries).unwrap();
        assert_eq!(sel, vec![0, 1, 2, 3, 4].into_iter().filter(|&i| i < (10 - i)).collect::<Vec<_>>());
    }

    #[test]
    fn and_with_nulls() {
        let mut a = ColumnData::new(&LogicalType::Bool);
        a.push(&Value::Bool(true)).unwrap();
        a.push_null();
        a.push(&Value::Bool(false)).unwrap();
        let mut b = ColumnData::new(&LogicalType::Bool);
        for _ in 0..3 {
            b.push(&Value::Bool(true)).unwrap();
        }
        let out = bool_combine(&a, &b, 3, true).unwrap();
        assert_eq!(out.get(0), Value::Bool(true));
        assert_eq!(out.get(1), Value::Null);
        assert_eq!(out.get(2), Value::Bool(false));
    }

    #[test]
    fn literal_broadcast() {
        let c = eval_vector(
            &BoundExpr::Literal(Value::Int(7)),
            &chunk(),
            &OuterStack::EMPTY,
            &NoSubqueries,
        )
        .unwrap();
        assert_eq!(c.len(), 5);
        assert_eq!(c.get(4), Value::Int(7));
    }
}
