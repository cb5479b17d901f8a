//! Shared row-wise expression evaluator.
//!
//! Both engines evaluate [`BoundExpr`] trees with this module — the
//! vectorized engine for expressions its kernels can't fuse (extension
//! calls, subqueries), the row engine for everything. Subquery evaluation
//! is delegated back to the engine through [`SubqueryExec`].

use std::cmp::Ordering;

use crate::ast::BinaryOp;
use crate::bound::{BoundExpr, BoundSelect};
use crate::error::{SqlError, SqlResult};
use crate::value::Value;

/// Engine callback used to run (possibly correlated) subplans.
pub trait SubqueryExec {
    /// Execute the plan with the given outer-row stack; returns all rows.
    fn execute(&self, plan: &BoundSelect, outer: &OuterStack<'_>) -> SqlResult<Vec<Vec<Value>>>;

    /// The value of `quantified` (a [`BoundExpr::Quantified`] whose left
    /// operand evaluated to the non-NULL `left`) for the environment row
    /// `row`, when the engine can answer it without running the subquery
    /// for this row ([`crate::quantified`]); `None` runs it.
    fn quantified(
        &self,
        _quantified: &BoundExpr,
        _left: &Value,
        _row: &[Value],
        _outer: &OuterStack<'_>,
    ) -> Option<SqlResult<Value>> {
        None
    }
}

/// Stack of environment rows for correlated evaluation. `frames[len-1]` is
/// the innermost (current) row; `OuterRef { depth: 1 }` reads
/// `frames[len-1-1]` from a subquery whose own row was pushed on top.
#[derive(Clone, Copy)]
pub struct OuterStack<'a> {
    frames: &'a [&'a [Value]],
}

impl<'a> OuterStack<'a> {
    pub const EMPTY: OuterStack<'static> = OuterStack { frames: &[] };

    pub fn new(frames: &'a [&'a [Value]]) -> Self {
        OuterStack { frames }
    }

    /// True when there is no correlated outer context (top-level query).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    fn get(&self, depth: usize, index: usize) -> SqlResult<&Value> {
        let n = self.frames.len();
        if depth == 0 || depth > n {
            return Err(SqlError::execution(format!(
                "outer reference depth {depth} with {n} frames"
            )));
        }
        let frame = self.frames[n - depth];
        frame.get(index).ok_or_else(|| {
            SqlError::execution(format!("outer column {index} out of range"))
        })
    }
}

/// The error of a failing call to `name`: an execution error names the
/// call it came from. Both engines' evaluators report call errors through
/// this, so one failing call reads the same wherever it is evaluated.
pub fn call_error(name: &str, e: SqlError) -> SqlError {
    match e {
        SqlError::Execution(m) => SqlError::Execution(format!("{name}: {m}")),
        other => other,
    }
}

/// Evaluate `expr` against `row`, with `outer` available to correlated
/// subexpressions and `exec` running subplans.
pub fn eval(
    expr: &BoundExpr,
    row: &[Value],
    outer: &OuterStack<'_>,
    exec: &dyn SubqueryExec,
) -> SqlResult<Value> {
    match expr {
        BoundExpr::Literal(v) => Ok(v.clone()),
        BoundExpr::Param { index, .. } => {
            Err(SqlError::internal(format!("template slot {index} was not instantiated")))
        }
        BoundExpr::ColumnRef { index, .. } => row
            .get(*index)
            .cloned()
            .ok_or_else(|| SqlError::execution(format!("column {index} out of range"))),
        BoundExpr::OuterRef { depth, index, .. } => outer.get(*depth, *index).cloned(),
        BoundExpr::Call { func, args, strict, name, .. } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                let v = eval(a, row, outer, exec)?;
                if *strict && v.is_null() {
                    return Ok(Value::Null);
                }
                vals.push(v);
            }
            func(&vals).map_err(|e| call_error(name, e))
        }
        BoundExpr::Compare { op, left, right } => {
            let l = eval(left, row, outer, exec)?;
            let r = eval(right, row, outer, exec)?;
            Ok(compare(*op, &l, &r))
        }
        BoundExpr::Arith { op, left, right, .. } => {
            let l = eval(left, row, outer, exec)?;
            let r = eval(right, row, outer, exec)?;
            arith(*op, &l, &r)
        }
        BoundExpr::And(es) => {
            let mut saw_null = false;
            for e in es {
                match eval(e, row, outer, exec)? {
                    Value::Bool(false) => return Ok(Value::Bool(false)),
                    Value::Bool(true) => {}
                    Value::Null => saw_null = true,
                    other => {
                        return Err(SqlError::execution(format!("AND over {other:?}")))
                    }
                }
            }
            Ok(if saw_null { Value::Null } else { Value::Bool(true) })
        }
        BoundExpr::Or(es) => {
            let mut saw_null = false;
            for e in es {
                match eval(e, row, outer, exec)? {
                    Value::Bool(true) => return Ok(Value::Bool(true)),
                    Value::Bool(false) => {}
                    Value::Null => saw_null = true,
                    other => return Err(SqlError::execution(format!("OR over {other:?}"))),
                }
            }
            Ok(if saw_null { Value::Null } else { Value::Bool(false) })
        }
        BoundExpr::Not(e) => match eval(e, row, outer, exec)? {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            Value::Null => Ok(Value::Null),
            other => Err(SqlError::execution(format!("NOT over {other:?}"))),
        },
        BoundExpr::IsNull { expr, negated } => {
            let v = eval(expr, row, outer, exec)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        BoundExpr::InList { expr, list, negated } => {
            let v = eval(expr, row, outer, exec)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let iv = eval(item, row, outer, exec)?;
                if iv.is_null() {
                    saw_null = true;
                } else if v.sql_eq(&iv) {
                    return Ok(Value::Bool(!*negated));
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        BoundExpr::Case { operand, branches, else_expr, .. } => {
            let op_val = match operand {
                Some(o) => Some(eval(o, row, outer, exec)?),
                None => None,
            };
            for (cond, result) in branches {
                let hit = match &op_val {
                    Some(v) => {
                        let c = eval(cond, row, outer, exec)?;
                        v.sql_eq(&c)
                    }
                    None => matches!(eval(cond, row, outer, exec)?, Value::Bool(true)),
                };
                if hit {
                    return eval(result, row, outer, exec);
                }
            }
            match else_expr {
                Some(e) => eval(e, row, outer, exec),
                None => Ok(Value::Null),
            }
        }
        BoundExpr::ScalarSubquery { plan, .. } => {
            let rows = run_subplan(plan, row, outer, exec)?;
            match rows.len() {
                0 => Ok(Value::Null),
                1 => Ok(rows.into_iter().next().unwrap().into_iter().next().unwrap_or(Value::Null)),
                n => Err(SqlError::execution(format!(
                    "scalar subquery returned {n} rows"
                ))),
            }
        }
        BoundExpr::Quantified { op, all, left, plan } => {
            let l = eval(left, row, outer, exec)?;
            if l.is_null() {
                return Ok(Value::Null);
            }
            if let Some(v) = exec.quantified(expr, &l, row, outer) {
                return v;
            }
            let rows = run_subplan(plan, row, outer, exec)?;
            let mut saw_null = false;
            let mut any_hit = false;
            let mut all_hit = true;
            for r in rows {
                let Some(v) = r.first() else { continue };
                if v.is_null() {
                    saw_null = true;
                    continue;
                }
                match compare(*op, &l, v) {
                    Value::Bool(true) => any_hit = true,
                    Value::Bool(false) => all_hit = false,
                    _ => saw_null = true,
                }
            }
            if *all {
                if !all_hit {
                    Ok(Value::Bool(false))
                } else if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(true))
                }
            } else if any_hit {
                Ok(Value::Bool(true))
            } else if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(false))
            }
        }
        BoundExpr::Exists { plan, negated } => {
            let rows = run_subplan(plan, row, outer, exec)?;
            Ok(Value::Bool(rows.is_empty() == *negated))
        }
    }
}

fn run_subplan(
    plan: &BoundSelect,
    row: &[Value],
    outer: &OuterStack<'_>,
    exec: &dyn SubqueryExec,
) -> SqlResult<Vec<Vec<Value>>> {
    // Push the current row as a new outer frame.
    let mut frames: Vec<&[Value]> = outer.frames.to_vec();
    frames.push(row);
    let stack = OuterStack::new(&frames);
    exec.execute(plan, &stack)
}

/// Built-in SQL comparison (three-valued).
pub fn compare(op: BinaryOp, l: &Value, r: &Value) -> Value {
    match l.sql_cmp(r) {
        None => Value::Null,
        Some(ord) => {
            let b = match op {
                BinaryOp::Eq => ord == Ordering::Equal,
                BinaryOp::NotEq => ord != Ordering::Equal,
                BinaryOp::Lt => ord == Ordering::Less,
                BinaryOp::LtEq => ord != Ordering::Greater,
                BinaryOp::Gt => ord == Ordering::Greater,
                BinaryOp::GtEq => ord != Ordering::Less,
                _ => return Value::Null,
            };
            Value::Bool(b)
        }
    }
}

/// Built-in arithmetic / concatenation.
pub fn arith(op: BinaryOp, l: &Value, r: &Value) -> SqlResult<Value> {
    use Value::*;
    if l.is_null() || r.is_null() {
        return Ok(Null);
    }
    if op == BinaryOp::Concat {
        return Ok(Value::text(format!("{l}{r}")));
    }
    let overflow =
        |what: &str| SqlError::overflow(format!("bigint {what} of {l} and {r} out of range"));
    let v = match (l, r) {
        (Int(a), Int(b)) => match op {
            BinaryOp::Add => Int(a.checked_add(*b).ok_or_else(|| overflow("addition"))?),
            BinaryOp::Sub => Int(a.checked_sub(*b).ok_or_else(|| overflow("subtraction"))?),
            BinaryOp::Mul => Int(a.checked_mul(*b).ok_or_else(|| overflow("multiplication"))?),
            BinaryOp::Div => {
                if *b == 0 {
                    return Err(SqlError::execution("division by zero"));
                }
                // i64::MIN / -1 overflows.
                Int(a.checked_div(*b).ok_or_else(|| overflow("division"))?)
            }
            BinaryOp::Mod => {
                if *b == 0 {
                    return Err(SqlError::execution("modulo by zero"));
                }
                Int(a.checked_rem(*b).ok_or_else(|| overflow("modulo"))?)
            }
            _ => return Err(SqlError::execution("bad arithmetic op")),
        },
        (Int(_) | Float(_), Int(_) | Float(_)) => {
            let a = l.as_float()?;
            let b = r.as_float()?;
            match op {
                BinaryOp::Add => Float(a + b),
                BinaryOp::Sub => Float(a - b),
                BinaryOp::Mul => Float(a * b),
                BinaryOp::Div => {
                    if b == 0.0 {
                        return Err(SqlError::execution("division by zero"));
                    }
                    Float(a / b)
                }
                BinaryOp::Mod => Float(a % b),
                _ => return Err(SqlError::execution("bad arithmetic op")),
            }
        }
        (Timestamp(t), Interval { months, days, usecs }) => {
            let ts = mduck_temporal::TimestampTz(*t);
            let iv = mduck_temporal::Interval { months: *months, days: *days, usecs: *usecs };
            match op {
                BinaryOp::Add => Timestamp(ts.add_interval(&iv).0),
                BinaryOp::Sub => Timestamp(ts.sub_interval(&iv).0),
                _ => return Err(SqlError::execution("bad timestamp arithmetic")),
            }
        }
        (Interval { months, days, usecs }, Timestamp(t)) if op == BinaryOp::Add => {
            let ts = mduck_temporal::TimestampTz(*t);
            let iv = mduck_temporal::Interval { months: *months, days: *days, usecs: *usecs };
            Timestamp(ts.add_interval(&iv).0)
        }
        (Timestamp(a), Timestamp(b)) if op == BinaryOp::Sub => Interval {
            months: 0,
            days: 0,
            usecs: a.checked_sub(*b).ok_or_else(|| overflow("timestamp difference"))?,
        },
        (Date(d), Interval { .. }) => {
            return arith(op, &Timestamp(*d as i64 * 86_400_000_000), r);
        }
        (Date(d), Int(n)) => {
            let n = i32::try_from(*n).map_err(|_| overflow("date shift"))?;
            match op {
                BinaryOp::Add => Date(d.checked_add(n).ok_or_else(|| overflow("date shift"))?),
                BinaryOp::Sub => Date(d.checked_sub(n).ok_or_else(|| overflow("date shift"))?),
                _ => return Err(SqlError::execution("bad date arithmetic")),
            }
        }
        (Date(a), Date(b)) if op == BinaryOp::Sub => Int(*a as i64 - *b as i64),
        (
            Interval { months: m1, days: d1, usecs: u1 },
            Interval { months: m2, days: d2, usecs: u2 },
        ) => match op {
            BinaryOp::Add => Interval {
                months: m1.checked_add(*m2).ok_or_else(|| overflow("interval addition"))?,
                days: d1.checked_add(*d2).ok_or_else(|| overflow("interval addition"))?,
                usecs: u1.checked_add(*u2).ok_or_else(|| overflow("interval addition"))?,
            },
            BinaryOp::Sub => Interval {
                months: m1.checked_sub(*m2).ok_or_else(|| overflow("interval subtraction"))?,
                days: d1.checked_sub(*d2).ok_or_else(|| overflow("interval subtraction"))?,
                usecs: u1.checked_sub(*u2).ok_or_else(|| overflow("interval subtraction"))?,
            },
            _ => return Err(SqlError::execution("bad interval arithmetic")),
        },
        (Interval { months, days, usecs }, Int(k)) if op == BinaryOp::Mul => {
            let k32 = i32::try_from(*k).map_err(|_| overflow("interval scaling"))?;
            Interval {
                months: months.checked_mul(k32).ok_or_else(|| overflow("interval scaling"))?,
                days: days.checked_mul(k32).ok_or_else(|| overflow("interval scaling"))?,
                usecs: usecs.checked_mul(*k).ok_or_else(|| overflow("interval scaling"))?,
            }
        }
        (Int(k), Interval { .. }) if op == BinaryOp::Mul => return arith(op, r, l),
        _ => {
            return Err(SqlError::execution(format!(
                "operator {} undefined for {l:?} and {r:?}",
                op.symbol()
            )))
        }
    };
    Ok(v)
}

/// A no-op subquery executor for expressions known to be subquery-free.
pub struct NoSubqueries;

impl SubqueryExec for NoSubqueries {
    fn execute(&self, _plan: &BoundSelect, _outer: &OuterStack<'_>) -> SqlResult<Vec<Vec<Value>>> {
        Err(SqlError::execution("subquery evaluation is not available in this context"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_three_valued() {
        assert_eq!(
            compare(BinaryOp::Lt, &Value::Int(1), &Value::Int(2)),
            Value::Bool(true)
        );
        assert!(compare(BinaryOp::Eq, &Value::Null, &Value::Int(2)).is_null());
        assert_eq!(
            compare(BinaryOp::GtEq, &Value::Float(2.0), &Value::Int(2)),
            Value::Bool(true)
        );
    }

    #[test]
    fn arith_numeric() {
        assert_eq!(arith(BinaryOp::Add, &Value::Int(2), &Value::Int(3)).unwrap().as_int().unwrap(), 5);
        assert_eq!(arith(BinaryOp::Div, &Value::Int(7), &Value::Int(2)).unwrap().as_int().unwrap(), 3);
        assert_eq!(
            arith(BinaryOp::Div, &Value::Float(7.0), &Value::Int(2)).unwrap().as_float().unwrap(),
            3.5
        );
        assert!(arith(BinaryOp::Div, &Value::Int(1), &Value::Int(0)).is_err());
        assert!(arith(BinaryOp::Add, &Value::Null, &Value::Int(1)).unwrap().is_null());
    }

    #[test]
    fn arith_temporal() {
        // 2025-01-01 + 1 day.
        let jan1 = 20_089i64 * 86_400_000_000;
        let v = arith(
            BinaryOp::Add,
            &Value::Timestamp(jan1),
            &Value::Interval { months: 0, days: 1, usecs: 0 },
        )
        .unwrap();
        assert_eq!(v.to_string(), "2025-01-02 00:00:00+00");
        let diff = arith(BinaryOp::Sub, &v, &Value::Timestamp(jan1)).unwrap();
        assert!(matches!(diff, Value::Interval { usecs: 86_400_000_000, .. }));
        let concat = arith(BinaryOp::Concat, &Value::Int(5), &Value::text(" minutes")).unwrap();
        assert_eq!(concat.as_text().unwrap(), "5 minutes");
    }

    #[test]
    fn eval_logic() {
        let expr = BoundExpr::And(vec![
            BoundExpr::Literal(Value::Bool(true)),
            BoundExpr::Compare {
                op: BinaryOp::Lt,
                left: Box::new(BoundExpr::ColumnRef { index: 0, ty: crate::value::LogicalType::Int }),
                right: Box::new(BoundExpr::Literal(Value::Int(10))),
            },
        ]);
        let row = vec![Value::Int(5)];
        let v = eval(&expr, &row, &OuterStack::EMPTY, &NoSubqueries).unwrap();
        assert_eq!(v, Value::Bool(true));
        let row = vec![Value::Int(15)];
        let v = eval(&expr, &row, &OuterStack::EMPTY, &NoSubqueries).unwrap();
        assert_eq!(v, Value::Bool(false));
    }
}
