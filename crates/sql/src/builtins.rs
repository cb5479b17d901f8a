//! Built-in types, casts, scalar functions, and aggregates — the baseline
//! SQL surface both engines share before any extension loads.

use std::sync::Arc;

use mduck_temporal::time::{parse_date, parse_interval, parse_timestamp};

use crate::error::{SqlError, SqlResult};
use crate::registry::{AggState, Registry};
use crate::value::{LogicalType, Value};

/// Install the built-in surface into a registry.
pub fn register_builtins(r: &mut Registry) {
    register_types(r);
    register_casts(r);
    register_math(r);
    register_strings(r);
    register_time(r);
    register_aggregates(r);
}

fn register_types(r: &mut Registry) {
    for (names, ty) in [
        (&["boolean", "bool"][..], LogicalType::Bool),
        (&["integer", "int", "int4", "int8", "bigint", "smallint", "tinyint"][..], LogicalType::Int),
        (
            &["double", "float", "float4", "float8", "real", "decimal", "numeric"][..],
            LogicalType::Float,
        ),
        (&["varchar", "text", "string", "char"][..], LogicalType::Text),
        (&["blob", "bytea", "wkb_blob"][..], LogicalType::Blob),
        (&["timestamptz", "timestamp"][..], LogicalType::Timestamp),
        (&["date"][..], LogicalType::Date),
        (&["interval"][..], LogicalType::Interval),
        (&["list"][..], LogicalType::List),
    ] {
        for n in names {
            r.register_type(n, ty.clone());
        }
    }
}

fn register_casts(r: &mut Registry) {
    r.register_cast(LogicalType::Int, LogicalType::Float, |a| {
        Ok(Value::Float(a[0].as_int()? as f64))
    });
    r.register_cast(LogicalType::Float, LogicalType::Int, |a| {
        Ok(Value::Int(a[0].as_float()?.round() as i64))
    });
    r.register_cast(LogicalType::Text, LogicalType::Timestamp, |a| {
        let t = parse_timestamp(a[0].as_text()?)
            .map_err(|e| SqlError::execution(e.to_string()))?;
        Ok(Value::Timestamp(t.0))
    });
    r.register_cast(LogicalType::Text, LogicalType::Date, |a| {
        let d = parse_date(a[0].as_text()?).map_err(|e| SqlError::execution(e.to_string()))?;
        Ok(Value::Date(d.0))
    });
    r.register_cast(LogicalType::Text, LogicalType::Interval, |a| {
        let iv =
            parse_interval(a[0].as_text()?).map_err(|e| SqlError::execution(e.to_string()))?;
        Ok(Value::Interval { months: iv.months, days: iv.days, usecs: iv.usecs })
    });
    r.register_cast(LogicalType::Timestamp, LogicalType::Date, |a| {
        Ok(Value::Date(a[0].as_timestamp()?.div_euclid(86_400_000_000) as i32))
    });
    r.register_cast(LogicalType::Date, LogicalType::Timestamp, |a| {
        Ok(Value::Timestamp(a[0].as_timestamp()?))
    });
    r.register_cast(LogicalType::Text, LogicalType::Int, |a| {
        a[0].as_text()?
            .trim()
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|e| SqlError::execution(format!("cannot cast to BIGINT: {e}")))
    });
    r.register_cast(LogicalType::Text, LogicalType::Float, |a| {
        a[0].as_text()?
            .trim()
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|e| SqlError::execution(format!("cannot cast to DOUBLE: {e}")))
    });
    // Everything renders to text through Display.
    for from in [
        LogicalType::Bool,
        LogicalType::Int,
        LogicalType::Float,
        LogicalType::Timestamp,
        LogicalType::Date,
        LogicalType::Interval,
    ] {
        r.register_cast(from, LogicalType::Text, |a| Ok(Value::text(a[0].to_string())));
    }
}

fn register_math(r: &mut Registry) {
    r.register_scalar("abs", vec![LogicalType::Float], LogicalType::Float, |a| {
        Ok(Value::Float(a[0].as_float()?.abs()))
    });
    r.register_scalar("abs", vec![LogicalType::Int], LogicalType::Int, |a| {
        Ok(Value::Int(a[0].as_int()?.abs()))
    });
    r.register_scalar("sqrt", vec![LogicalType::Float], LogicalType::Float, |a| {
        Ok(Value::Float(a[0].as_float()?.sqrt()))
    });
    r.register_scalar("floor", vec![LogicalType::Float], LogicalType::Float, |a| {
        Ok(Value::Float(a[0].as_float()?.floor()))
    });
    r.register_scalar("ceil", vec![LogicalType::Float], LogicalType::Float, |a| {
        Ok(Value::Float(a[0].as_float()?.ceil()))
    });
    r.register_scalar("round", vec![LogicalType::Float], LogicalType::Float, |a| {
        Ok(Value::Float(a[0].as_float()?.round()))
    });
    r.register_scalar(
        "round",
        vec![LogicalType::Float, LogicalType::Int],
        LogicalType::Float,
        |a| {
            let scale = 10f64.powi(a[1].as_int()? as i32);
            Ok(Value::Float((a[0].as_float()? * scale).round() / scale))
        },
    );
    r.register_scalar("power", vec![LogicalType::Float, LogicalType::Float], LogicalType::Float, |a| {
        Ok(Value::Float(a[0].as_float()?.powf(a[1].as_float()?)))
    });
    r.register_scalar("random_deterministic", vec![LogicalType::Int], LogicalType::Float, |a| {
        // Deterministic hash-based pseudo-random in [0,1): keeps query
        // results reproducible without a global RNG.
        let mut x = a[0].as_int()? as u64;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51afd7ed558ccd);
        x ^= x >> 33;
        Ok(Value::Float((x >> 11) as f64 / (1u64 << 53) as f64))
    });
    r.register_scalar("greatest", vec![LogicalType::Float, LogicalType::Float], LogicalType::Float, |a| {
        Ok(Value::Float(a[0].as_float()?.max(a[1].as_float()?)))
    });
    r.register_scalar("least", vec![LogicalType::Float, LogicalType::Float], LogicalType::Float, |a| {
        Ok(Value::Float(a[0].as_float()?.min(a[1].as_float()?)))
    });
}

fn register_strings(r: &mut Registry) {
    r.register_scalar("length", vec![LogicalType::Text], LogicalType::Int, |a| {
        Ok(Value::Int(a[0].as_text()?.chars().count() as i64))
    });
    r.register_scalar("lower", vec![LogicalType::Text], LogicalType::Text, |a| {
        Ok(Value::text(a[0].as_text()?.to_lowercase()))
    });
    r.register_scalar("upper", vec![LogicalType::Text], LogicalType::Text, |a| {
        Ok(Value::text(a[0].as_text()?.to_uppercase()))
    });
    r.register_scalar(
        "concat",
        vec![LogicalType::Any, LogicalType::Any],
        LogicalType::Text,
        |a| Ok(Value::text(format!("{}{}", a[0], a[1]))),
    );
    r.register_scalar(
        "substring",
        vec![LogicalType::Text, LogicalType::Int, LogicalType::Int],
        LogicalType::Text,
        |a| {
            let s = a[0].as_text()?;
            let start = (a[1].as_int()?.max(1) - 1) as usize;
            let len = a[2].as_int()?.max(0) as usize;
            Ok(Value::text(s.chars().skip(start).take(len).collect::<String>()))
        },
    );
    r.register_scalar("contains", vec![LogicalType::Text, LogicalType::Text], LogicalType::Bool, |a| {
        Ok(Value::Bool(a[0].as_text()?.contains(a[1].as_text()?)))
    });
}

fn register_time(r: &mut Registry) {
    r.register_scalar("epoch_us", vec![LogicalType::Timestamp], LogicalType::Int, |a| {
        Ok(Value::Int(a[0].as_timestamp()?))
    });
    r.register_scalar(
        "date_trunc",
        vec![LogicalType::Text, LogicalType::Timestamp],
        LogicalType::Timestamp,
        |a| {
            let unit = a[0].as_text()?.to_ascii_lowercase();
            let t = a[1].as_timestamp()?;
            let truncated = match unit.as_str() {
                "day" => t.div_euclid(86_400_000_000) * 86_400_000_000,
                "hour" => t.div_euclid(3_600_000_000) * 3_600_000_000,
                "minute" => t.div_euclid(60_000_000) * 60_000_000,
                "second" => t.div_euclid(1_000_000) * 1_000_000,
                other => {
                    return Err(SqlError::execution(format!("date_trunc unit {other:?}")))
                }
            };
            Ok(Value::Timestamp(truncated))
        },
    );
}

// ---------------------------------------------------------------- aggregates

struct CountState {
    n: i64,
}

impl AggState for CountState {
    fn update(&mut self, args: &[Value]) -> SqlResult<()> {
        if args.is_empty() || !args[0].is_null() {
            self.n += 1;
        }
        Ok(())
    }
    fn finalize(&mut self) -> SqlResult<Value> {
        Ok(Value::Int(self.n))
    }
}

struct SumState {
    sum: f64,
    any: bool,
    int_only: bool,
}

impl AggState for SumState {
    fn update(&mut self, args: &[Value]) -> SqlResult<()> {
        match &args[0] {
            Value::Null => {}
            Value::Int(i) => {
                self.sum += *i as f64;
                self.any = true;
            }
            Value::Float(f) => {
                self.sum += f;
                self.any = true;
                self.int_only = false;
            }
            other => return Err(SqlError::execution(format!("sum over {other:?}"))),
        }
        Ok(())
    }
    fn finalize(&mut self) -> SqlResult<Value> {
        if !self.any {
            Ok(Value::Null)
        } else if self.int_only {
            Ok(Value::Int(self.sum as i64))
        } else {
            Ok(Value::Float(self.sum))
        }
    }
}

struct AvgState {
    sum: f64,
    n: i64,
}

impl AggState for AvgState {
    fn update(&mut self, args: &[Value]) -> SqlResult<()> {
        if !args[0].is_null() {
            self.sum += args[0].as_float()?;
            self.n += 1;
        }
        Ok(())
    }
    fn finalize(&mut self) -> SqlResult<Value> {
        if self.n == 0 {
            Ok(Value::Null)
        } else {
            Ok(Value::Float(self.sum / self.n as f64))
        }
    }
}

struct MinMaxState {
    best: Value,
    min: bool,
}

impl AggState for MinMaxState {
    fn update(&mut self, args: &[Value]) -> SqlResult<()> {
        let v = &args[0];
        if v.is_null() {
            return Ok(());
        }
        let replace = match self.best.sql_cmp(v) {
            None => self.best.is_null(),
            Some(ord) => {
                if self.min {
                    ord == std::cmp::Ordering::Greater
                } else {
                    ord == std::cmp::Ordering::Less
                }
            }
        };
        if replace {
            self.best = v.clone();
        }
        Ok(())
    }
    fn finalize(&mut self) -> SqlResult<Value> {
        Ok(self.best.clone())
    }
}

struct ListState {
    items: Vec<Value>,
}

impl AggState for ListState {
    fn update(&mut self, args: &[Value]) -> SqlResult<()> {
        self.items.push(args[0].clone());
        Ok(())
    }
    fn finalize(&mut self) -> SqlResult<Value> {
        Ok(Value::List(Arc::new(std::mem::take(&mut self.items))))
    }
}

struct StringAggState {
    sep: String,
    parts: Vec<String>,
}

impl AggState for StringAggState {
    fn update(&mut self, args: &[Value]) -> SqlResult<()> {
        if !args[0].is_null() {
            self.parts.push(args[0].to_string());
            if args.len() > 1 {
                self.sep = args[1].to_string();
            }
        }
        Ok(())
    }
    fn finalize(&mut self) -> SqlResult<Value> {
        if self.parts.is_empty() {
            Ok(Value::Null)
        } else {
            Ok(Value::text(self.parts.join(&self.sep)))
        }
    }
}

fn register_aggregates(r: &mut Registry) {
    r.register_aggregate("count", vec![LogicalType::Any], LogicalType::Int, || {
        Box::new(CountState { n: 0 })
    });
    r.register_aggregate("sum", vec![LogicalType::Float], LogicalType::Float, || {
        Box::new(SumState { sum: 0.0, any: false, int_only: true })
    });
    r.register_aggregate("avg", vec![LogicalType::Float], LogicalType::Float, || {
        Box::new(AvgState { sum: 0.0, n: 0 })
    });
    r.register_aggregate("min", vec![LogicalType::Any], LogicalType::Any, || {
        Box::new(MinMaxState { best: Value::Null, min: true })
    });
    r.register_aggregate("max", vec![LogicalType::Any], LogicalType::Any, || {
        Box::new(MinMaxState { best: Value::Null, min: false })
    });
    r.register_aggregate("list", vec![LogicalType::Any], LogicalType::List, || {
        Box::new(ListState { items: Vec::new() })
    });
    r.register_aggregate(
        "string_agg",
        vec![LogicalType::Any, LogicalType::Text],
        LogicalType::Text,
        || Box::new(StringAggState { sep: ",".into(), parts: Vec::new() }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> Registry {
        Registry::with_builtins()
    }

    #[test]
    fn builtin_types_resolve() {
        let r = reg();
        assert_eq!(r.resolve_type("TIMESTAMPTZ").unwrap(), LogicalType::Timestamp);
        assert_eq!(r.resolve_type("decimal").unwrap(), LogicalType::Float);
        assert_eq!(r.resolve_type("wkb_blob").unwrap(), LogicalType::Blob);
    }

    #[test]
    fn text_to_timestamp_cast() {
        let r = reg();
        let cast = r.resolve_cast(&LogicalType::Text, &LogicalType::Timestamp).unwrap();
        let v = cast(&[Value::text("2025-08-11 12:00:00")]).unwrap();
        assert_eq!(v.to_string(), "2025-08-11 12:00:00+00");
    }

    #[test]
    #[allow(clippy::approx_constant)] // the literal is a rounding fixture, not π
    fn round_with_scale() {
        let r = reg();
        let sig = r.resolve_scalar("round", &[LogicalType::Float, LogicalType::Int]).unwrap();
        let v = (sig.func)(&[Value::Float(3.14159), Value::Int(3)]).unwrap();
        assert_eq!(v.as_float().unwrap(), 3.142);
    }

    #[test]
    fn aggregates_work() {
        let r = reg();
        let sig = r.resolve_aggregate("sum", &[LogicalType::Int]).unwrap();
        let mut st = (sig.factory)();
        st.update(&[Value::Int(1)]).unwrap();
        st.update(&[Value::Int(2)]).unwrap();
        st.update(&[Value::Null]).unwrap();
        assert_eq!(st.finalize().unwrap().as_int().unwrap(), 3);

        let sig = r.resolve_aggregate("min", &[LogicalType::Timestamp]).unwrap();
        let mut st = (sig.factory)();
        st.update(&[Value::Timestamp(5)]).unwrap();
        st.update(&[Value::Timestamp(3)]).unwrap();
        assert_eq!(st.finalize().unwrap().as_timestamp().unwrap(), 3);

        let sig = r.resolve_aggregate("list", &[LogicalType::Int]).unwrap();
        let mut st = (sig.factory)();
        st.update(&[Value::Int(1)]).unwrap();
        st.update(&[Value::Int(2)]).unwrap();
        let v = st.finalize().unwrap();
        assert_eq!(v.as_list().unwrap().len(), 2);
    }

    #[test]
    fn avg_and_empty_inputs() {
        let r = reg();
        let sig = r.resolve_aggregate("avg", &[LogicalType::Float]).unwrap();
        let mut st = (sig.factory)();
        assert!(st.finalize().unwrap().is_null());
        let mut st = (sig.factory)();
        st.update(&[Value::Float(2.0)]).unwrap();
        st.update(&[Value::Float(4.0)]).unwrap();
        assert_eq!(st.finalize().unwrap().as_float().unwrap(), 3.0);
    }
}
