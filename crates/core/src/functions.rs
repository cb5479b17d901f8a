//! Scalar functions and operators (§3.4): the MEOS functionality exposed
//! through the engines' function registries, operators registered as
//! binary scalar functions named by their symbol — exactly the paper's
//! `RegisterFunction(ScalarFunction("&&", ...))` pattern.

use std::sync::Arc;

use mduck_geo::algorithms;
use mduck_geo::Geometry;
use mduck_sql::{LogicalType, Registry, SqlError, SqlResult, Value};
use mduck_temporal::span::{Span, TstzSpan};
use mduck_temporal::spanset::TstzSpanSet;
use mduck_temporal::temporal::{Interp, TGeomPoint, TInstant, TSequence, Temporal};
use mduck_temporal::{Interval, STBox, TimestampTz};

use crate::types::*;

/// Register every scalar function and operator.
pub fn register_functions(reg: &mut Registry) {
    register_accessors(reg);
    register_restrictions(reg);
    register_transformations(reg);
    register_spatial_relationships(reg);
    register_box_functions(reg);
    register_operators(reg);
    register_span_set_functions(reg);
    register_constructors(reg);
    register_fusions(reg);
}

fn lt_any_temporal() -> Vec<LogicalType> {
    vec![
        lt("tbool"),
        lt("tint"),
        lt("tfloat"),
        lt("ttext"),
        lt("tgeompoint"),
        lt("tgeometry"),
    ]
}

/// Apply a closure to whatever concrete temporal hides in the value.
fn with_temporal<R>(
    v: &Value,
    f: impl Fn(TemporalRef<'_>) -> SqlResult<R>,
) -> SqlResult<R> {
    let e = v.as_ext()?;
    if let Some(t) = e.downcast::<MdTBool>() {
        return f(TemporalRef::Bool(&t.0));
    }
    if let Some(t) = e.downcast::<MdTInt>() {
        return f(TemporalRef::Int(&t.0));
    }
    if let Some(t) = e.downcast::<MdTFloat>() {
        return f(TemporalRef::Float(&t.0));
    }
    if let Some(t) = e.downcast::<MdTText>() {
        return f(TemporalRef::Text(&t.0));
    }
    if let Some(t) = e.downcast::<MdTGeomPoint>() {
        return f(TemporalRef::Geom(&t.0));
    }
    if let Some(t) = e.downcast::<MdTGeometry>() {
        return f(TemporalRef::Geom(&t.0));
    }
    Err(SqlError::execution(format!("expected a temporal value, got {}", e.type_name())))
}

/// A borrowed view over any temporal type.
pub enum TemporalRef<'a> {
    Bool(&'a Temporal<bool>),
    Int(&'a Temporal<i64>),
    Float(&'a Temporal<f64>),
    Text(&'a Temporal<String>),
    Geom(&'a TGeomPoint),
}

impl TemporalRef<'_> {
    fn timespan(&self) -> TstzSpan {
        match self {
            TemporalRef::Bool(t) => t.timespan(),
            TemporalRef::Int(t) => t.timespan(),
            TemporalRef::Float(t) => t.timespan(),
            TemporalRef::Text(t) => t.timespan(),
            TemporalRef::Geom(t) => t.temp.timespan(),
        }
    }

    fn duration(&self, boundspan: bool) -> Interval {
        match self {
            TemporalRef::Bool(t) => t.duration(boundspan),
            TemporalRef::Int(t) => t.duration(boundspan),
            TemporalRef::Float(t) => t.duration(boundspan),
            TemporalRef::Text(t) => t.duration(boundspan),
            TemporalRef::Geom(t) => t.temp.duration(boundspan),
        }
    }

    fn num_instants(&self) -> usize {
        match self {
            TemporalRef::Bool(t) => t.num_instants(),
            TemporalRef::Int(t) => t.num_instants(),
            TemporalRef::Float(t) => t.num_instants(),
            TemporalRef::Text(t) => t.num_instants(),
            TemporalRef::Geom(t) => t.temp.num_instants(),
        }
    }

    fn value_at(&self, ts: TimestampTz) -> Option<Value> {
        match self {
            TemporalRef::Bool(t) => t.value_at(ts).map(Value::Bool),
            TemporalRef::Int(t) => t.value_at(ts).map(Value::Int),
            TemporalRef::Float(t) => t.value_at(ts).map(Value::Float),
            TemporalRef::Text(t) => t.value_at(ts).map(Value::text),
            TemporalRef::Geom(t) => t
                .value_at(ts)
                .map(|g| Value::blob(mduck_geo::wkb::to_wkb(&g))),
        }
    }
}

// ---------------------------------------------------------------- accessors

fn register_accessors(reg: &mut Registry) {
    for tty in lt_any_temporal() {
        // duration(temp [, boundspan]).
        reg.register_scalar("duration", vec![tty.clone(), LogicalType::Bool], LogicalType::Interval, |a| {
            with_temporal(&a[0], |t| {
                let iv = t.duration(a[1].as_bool()?);
                Ok(Value::Interval { months: iv.months, days: iv.days, usecs: iv.usecs })
            })
        });
        reg.register_scalar("duration", vec![tty.clone()], LogicalType::Interval, |a| {
            with_temporal(&a[0], |t| {
                let iv = t.duration(false);
                Ok(Value::Interval { months: iv.months, days: iv.days, usecs: iv.usecs })
            })
        });
        reg.register_scalar("starttimestamp", vec![tty.clone()], LogicalType::Timestamp, |a| {
            with_temporal(&a[0], |t| Ok(Value::Timestamp(t.timespan().lower.0)))
        });
        reg.register_scalar("endtimestamp", vec![tty.clone()], LogicalType::Timestamp, |a| {
            with_temporal(&a[0], |t| Ok(Value::Timestamp(t.timespan().upper.0)))
        });
        reg.register_scalar("numinstants", vec![tty.clone()], LogicalType::Int, |a| {
            with_temporal(&a[0], |t| Ok(Value::Int(t.num_instants() as i64)))
        });
        reg.register_scalar("timespan", vec![tty.clone()], lt("tstzspan"), |a| {
            with_temporal(&a[0], |t| Ok(MdTstzSpan(t.timespan()).into_value()))
        });
    }
    // valueAtTimestamp with type-correct returns (Query 3 casts the
    // tgeompoint result to GEOMETRY, so it must be a WKB blob).
    for (tty, ret) in [
        (lt("tbool"), LogicalType::Bool),
        (lt("tint"), LogicalType::Int),
        (lt("tfloat"), LogicalType::Float),
        (lt("ttext"), LogicalType::Text),
        (lt("tgeompoint"), LogicalType::Blob),
        (lt("tgeometry"), LogicalType::Blob),
    ] {
        reg.register_scalar(
            "valueattimestamp",
            vec![tty, LogicalType::Timestamp],
            ret,
            |a| {
                with_temporal(&a[0], |t| {
                    Ok(t.value_at(value_to_ts(&a[1])?).unwrap_or(Value::Null))
                })
            },
        );
    }

    // time(temp) → tstzspanset.
    for tty in lt_any_temporal() {
        reg.register_scalar("gettime", vec![tty], lt("tstzspanset"), |a| {
            with_temporal(&a[0], |t| {
                let ps = match t {
                    TemporalRef::Bool(t) => t.time(),
                    TemporalRef::Int(t) => t.time(),
                    TemporalRef::Float(t) => t.time(),
                    TemporalRef::Text(t) => t.time(),
                    TemporalRef::Geom(t) => t.temp.time(),
                };
                Ok(MdTstzSpanSet(ps).into_value())
            })
        });
    }
    // startValue / endValue / min / max for tfloat and tint.
    reg.register_scalar("startvalue", vec![lt("tfloat")], LogicalType::Float, |a| {
        Ok(Value::Float(a[0].ext_as::<MdTFloat>()?.0.start_value()))
    });
    reg.register_scalar("endvalue", vec![lt("tfloat")], LogicalType::Float, |a| {
        Ok(Value::Float(a[0].ext_as::<MdTFloat>()?.0.end_value()))
    });
    reg.register_scalar("minvalue", vec![lt("tfloat")], LogicalType::Float, |a| {
        Ok(Value::Float(a[0].ext_as::<MdTFloat>()?.0.min_value()))
    });
    reg.register_scalar("maxvalue", vec![lt("tfloat")], LogicalType::Float, |a| {
        Ok(Value::Float(a[0].ext_as::<MdTFloat>()?.0.max_value()))
    });
    reg.register_scalar("startvalue", vec![lt("tint")], LogicalType::Int, |a| {
        Ok(Value::Int(a[0].ext_as::<MdTInt>()?.0.start_value()))
    });
    reg.register_scalar("minvalue", vec![lt("tint")], LogicalType::Int, |a| {
        Ok(Value::Int(a[0].ext_as::<MdTInt>()?.0.min_value()))
    });
    reg.register_scalar("maxvalue", vec![lt("tint")], LogicalType::Int, |a| {
        Ok(Value::Int(a[0].ext_as::<MdTInt>()?.0.max_value()))
    });

    // tgeompoint spatial accessors.
    for src in [lt("tgeompoint"), lt("tgeometry")] {
        // trajectory → WKB_BLOB (the §7 proxy layer) and trajectory_gs →
        // native GEOMETRY (the §6.3 optimization).
        reg.register_scalar("trajectory", vec![src.clone()], LogicalType::Blob, |a| {
            let t = value_to_tgeom(&a[0])?;
            Ok(Value::blob(mduck_geo::wkb::to_wkb(&t.trajectory())))
        });
        reg.register_scalar("trajectory_gs", vec![src.clone()], lt("geometry"), |a| {
            let t = value_to_tgeom(&a[0])?;
            Ok(MdGeom(t.trajectory()).into_value())
        });
        reg.register_scalar("length", vec![src.clone()], LogicalType::Float, |a| {
            Ok(Value::Float(value_to_tgeom(&a[0])?.length()))
        });
        reg.register_scalar("speed", vec![src.clone()], lt("tfloat"), |a| {
            let t = value_to_tgeom(&a[0])?;
            Ok(MdTFloat(t.speed().map_err(to_exec)?).into_value())
        });
        reg.register_scalar("srid", vec![src.clone()], LogicalType::Int, |a| {
            Ok(Value::Int(value_to_tgeom(&a[0])?.srid() as i64))
        });
        reg.register_scalar("astext", vec![src.clone()], LogicalType::Text, |a| {
            // tgeometry values print through their wrapper (which hides the
            // Interp=Step prefix, step being their default interpolation).
            let e = a[0].as_ext()?;
            if e.downcast::<MdTGeometry>().is_some() {
                return Ok(Value::text(e.obj.to_text()));
            }
            Ok(Value::text(value_to_tgeom(&a[0])?.as_text()))
        });
        reg.register_scalar("asewkt", vec![src.clone()], LogicalType::Text, |a| {
            let e = a[0].as_ext()?;
            if e.downcast::<MdTGeometry>().is_some() {
                return Ok(Value::text(e.obj.to_text()));
            }
            Ok(Value::text(value_to_tgeom(&a[0])?.as_ewkt()))
        });
    }
    // length(tstzspanset)/duration for period sets.
    reg.register_scalar("duration", vec![lt("tstzspanset")], LogicalType::Interval, |a| {
        let ps = &a[0].ext_as::<MdTstzSpanSet>()?.0;
        let iv = ps.duration();
        Ok(Value::Interval { months: iv.months, days: iv.days, usecs: iv.usecs })
    });
    reg.register_scalar(
        "duration",
        vec![lt("tstzspanset"), LogicalType::Bool],
        LogicalType::Interval,
        |a| {
            let ps = &a[0].ext_as::<MdTstzSpanSet>()?.0;
            let iv = if a[1].as_bool()? { ps.duration_bound() } else { ps.duration() };
            Ok(Value::Interval { months: iv.months, days: iv.days, usecs: iv.usecs })
        },
    );
    reg.register_scalar("duration", vec![lt("tstzspan")], LogicalType::Interval, |a| {
        let p = value_to_period(&a[0])?;
        let iv = p.duration();
        Ok(Value::Interval { months: iv.months, days: iv.days, usecs: iv.usecs })
    });
    // Span accessors.
    reg.register_scalar("lower", vec![lt("tstzspan")], LogicalType::Timestamp, |a| {
        Ok(Value::Timestamp(value_to_period(&a[0])?.lower.0))
    });
    reg.register_scalar("upper", vec![lt("tstzspan")], LogicalType::Timestamp, |a| {
        Ok(Value::Timestamp(value_to_period(&a[0])?.upper.0))
    });
    reg.register_scalar("starttimestamp", vec![lt("tstzspan")], LogicalType::Timestamp, |a| {
        Ok(Value::Timestamp(value_to_period(&a[0])?.lower.0))
    });
    reg.register_scalar("endtimestamp", vec![lt("tstzspan")], LogicalType::Timestamp, |a| {
        Ok(Value::Timestamp(value_to_period(&a[0])?.upper.0))
    });
    reg.register_scalar("numspans", vec![lt("tstzspanset")], LogicalType::Int, |a| {
        Ok(Value::Int(a[0].ext_as::<MdTstzSpanSet>()?.0.num_spans() as i64))
    });
    // Set accessors.
    reg.register_scalar("memsize", vec![lt("tstzset")], LogicalType::Int, |a| {
        Ok(Value::Int(a[0].ext_as::<MdTstzSet>()?.0.mem_size() as i64))
    });
    reg.register_scalar("memsize", vec![lt("intset")], LogicalType::Int, |a| {
        Ok(Value::Int(a[0].ext_as::<MdIntSet>()?.0.mem_size() as i64))
    });
    reg.register_scalar("memsize", vec![lt("floatset")], LogicalType::Int, |a| {
        Ok(Value::Int(a[0].ext_as::<MdFloatSet>()?.0.mem_size() as i64))
    });
    reg.register_scalar("numvalues", vec![lt("tstzset")], LogicalType::Int, |a| {
        Ok(Value::Int(a[0].ext_as::<MdTstzSet>()?.0.len() as i64))
    });
    // asEWKT(geomset [, digits]).
    reg.register_scalar("asewkt", vec![lt("geomset")], LogicalType::Text, |a| {
        Ok(Value::text(a[0].ext_as::<MdGeomSet>()?.0.as_ewkt(None)))
    });
    reg.register_scalar(
        "asewkt",
        vec![lt("geomset"), LogicalType::Int],
        LogicalType::Text,
        |a| {
            let digits = a[1].as_int()? as usize;
            Ok(Value::text(a[0].ext_as::<MdGeomSet>()?.0.as_ewkt(Some(digits))))
        },
    );
    reg.register_scalar("astext", vec![lt("geometry")], LogicalType::Text, |a| {
        Ok(Value::text(mduck_geo::wkt::to_wkt(&a[0].ext_as::<MdGeom>()?.0, None)))
    });
    reg.register_scalar("asewkt", vec![lt("geometry")], LogicalType::Text, |a| {
        Ok(Value::text(mduck_geo::wkt::to_ewkt(&a[0].ext_as::<MdGeom>()?.0, None)))
    });
}

// -------------------------------------------------------------- restriction

fn register_restrictions(reg: &mut Registry) {
    for src in [lt("tgeompoint"), lt("tgeometry")] {
        reg.register_scalar("attime", vec![src.clone(), lt("tstzspan")], src.clone(), |a| {
            let t = value_to_tgeom(&a[0])?;
            match t.at_period(&value_to_period(&a[1])?) {
                Some(r) => Ok(MdTGeomPoint(r).into_value()),
                None => Ok(Value::Null),
            }
        });
        reg.register_scalar("attime", vec![src.clone(), lt("tstzspanset")], src.clone(), |a| {
            let t = value_to_tgeom(&a[0])?;
            let ps = &a[1].ext_as::<MdTstzSpanSet>()?.0;
            match t.at_periodset(ps) {
                Some(r) => Ok(MdTGeomPoint(r).into_value()),
                None => Ok(Value::Null),
            }
        });
        // atGeometry over WKB_BLOB (the paper's §6.2 signature) and over
        // native GEOMETRY.
        for geom_ty in [LogicalType::Blob, lt("geometry")] {
            reg.register_scalar("atgeometry", vec![src.clone(), geom_ty.clone()], src.clone(), |a| {
                let t = value_to_tgeom(&a[0])?;
                let g = value_to_geometry(&a[1])?;
                match t.at_geometry(&g).map_err(to_exec)? {
                    Some(r) => Ok(MdTGeomPoint(r).into_value()),
                    None => Ok(Value::Null),
                }
            });
            reg.register_scalar("atvalues", vec![src.clone(), geom_ty.clone()], src.clone(), |a| {
                let t = value_to_tgeom(&a[0])?;
                let g = value_to_geometry(&a[1])?;
                let p = g.as_point().ok_or_else(|| {
                    SqlError::execution("atValues expects a point geometry")
                })?;
                match t.at_value(p) {
                    Some(r) => Ok(MdTGeomPoint(r).into_value()),
                    None => Ok(Value::Null),
                }
            });
        }
        reg.register_scalar("atstbox", vec![src.clone(), lt("stbox")], src.clone(), |a| {
            let t = value_to_tgeom(&a[0])?;
            let b = value_to_stbox(&a[1])?;
            match t.at_stbox(&b).map_err(to_exec)? {
                Some(r) => Ok(MdTGeomPoint(r).into_value()),
                None => Ok(Value::Null),
            }
        });
        reg.register_scalar("minustime", vec![src.clone(), lt("tstzspan")], src.clone(), |a| {
            let t = value_to_tgeom(&a[0])?;
            let p = value_to_period(&a[1])?;
            match t.temp.minus_period(&p) {
                Some(r) => Ok(MdTGeomPoint(TGeomPoint::new(r, t.srid())).into_value()),
                None => Ok(Value::Null),
            }
        });
    }
    // whenTrue(tbool) → tstzspanset (Query 10).
    reg.register_scalar("whentrue", vec![lt("tbool")], lt("tstzspanset"), |a| {
        let t = &a[0].ext_as::<MdTBool>()?.0;
        match t.when_true() {
            Some(ps) => Ok(MdTstzSpanSet(ps).into_value()),
            None => Ok(Value::Null),
        }
    });
    // atTime for tfloat (used by speed-restriction analyses).
    reg.register_scalar("attime", vec![lt("tfloat"), lt("tstzspan")], lt("tfloat"), |a| {
        let t = &a[0].ext_as::<MdTFloat>()?.0;
        match t.at_period(&value_to_period(&a[1])?) {
            Some(r) => Ok(MdTFloat(r).into_value()),
            None => Ok(Value::Null),
        }
    });
    reg.register_scalar("atvalues", vec![lt("tint"), LogicalType::Int], lt("tint"), |a| {
        let t = &a[0].ext_as::<MdTInt>()?.0;
        match t.at_value(&a[1].as_int()?) {
            Some(r) => Ok(MdTInt(r).into_value()),
            None => Ok(Value::Null),
        }
    });
    reg.register_scalar("atvalues", vec![lt("tfloat"), LogicalType::Float], lt("tfloat"), |a| {
        let t = &a[0].ext_as::<MdTFloat>()?.0;
        match t.at_value(&a[1].as_float()?) {
            Some(r) => Ok(MdTFloat(r).into_value()),
            None => Ok(Value::Null),
        }
    });
}

// ---------------------------------------------------------- transformations

fn register_transformations(reg: &mut Registry) {
    // shiftScale over tstzset (the paper's §3.5 sample).
    reg.register_scalar(
        "shiftscale",
        vec![lt("tstzset"), LogicalType::Interval, LogicalType::Interval],
        lt("tstzset"),
        |a| {
            let s = &a[0].ext_as::<MdTstzSet>()?.0;
            let shift = value_to_interval(&a[1])?;
            let width = value_to_interval(&a[2])?;
            Ok(MdTstzSet(
                s.shift_scale(Some(shift), Some(width.approx_usecs() as f64)).map_err(to_exec)?,
            )
            .into_value())
        },
    );
    reg.register_scalar(
        "shift",
        vec![lt("tstzset"), LogicalType::Interval],
        lt("tstzset"),
        |a| {
            let s = &a[0].ext_as::<MdTstzSet>()?.0;
            Ok(MdTstzSet(s.shift(value_to_interval(&a[1])?)).into_value())
        },
    );
    reg.register_scalar(
        "shiftscale",
        vec![lt("intset"), LogicalType::Int, LogicalType::Int],
        lt("intset"),
        |a| {
            let s = &a[0].ext_as::<MdIntSet>()?.0;
            Ok(MdIntSet(
                s.shift_scale(Some(a[1].as_int()?), Some(a[2].as_int()? as f64))
                    .map_err(to_exec)?,
            )
            .into_value())
        },
    );
    reg.register_scalar(
        "shifttime",
        vec![lt("tgeompoint"), LogicalType::Interval],
        lt("tgeompoint"),
        |a| {
            let t = value_to_tgeom(&a[0])?;
            Ok(MdTGeomPoint(t.shift_time(&value_to_interval(&a[1])?)).into_value())
        },
    );
    // transform(geomset, srid), transform(geometry, srid), transform(stbox?).
    reg.register_scalar("transform", vec![lt("geomset"), LogicalType::Int], lt("geomset"), |a| {
        let s = &a[0].ext_as::<MdGeomSet>()?.0;
        Ok(MdGeomSet(s.transform(a[1].as_int()? as i32).map_err(to_exec)?).into_value())
    });
    for geom_ty in [lt("geometry"), LogicalType::Blob] {
        reg.register_scalar("transform", vec![geom_ty, LogicalType::Int], lt("geometry"), |a| {
            let g = value_to_geometry(&a[0])?;
            Ok(MdGeom(
                mduck_geo::transform::transform(&g, a[1].as_int()? as i32).map_err(to_exec)?,
            )
            .into_value())
        });
    }
    reg.register_scalar(
        "transform",
        vec![lt("tgeompoint"), LogicalType::Int],
        lt("tgeompoint"),
        |a| {
            let t = value_to_tgeom(&a[0])?;
            let to = a[1].as_int()? as i32;
            let mapped = t.temp.map_values(|p| {
                let g = Geometry::from_point(*p).with_srid(t.srid());
                mduck_geo::transform::transform(&g, to)
                    .ok()
                    .and_then(|g| g.as_point())
                    .unwrap_or(*p)
            });
            Ok(MdTGeomPoint(TGeomPoint::new(mapped, to)).into_value())
        },
    );
    // setInterp-style: toLinear / toStep.
    reg.register_scalar("setinterp", vec![lt("tgeompoint"), LogicalType::Text], lt("tgeompoint"), |a| {
        let t = value_to_tgeom(&a[0])?;
        let interp = match a[1].as_text()?.to_ascii_lowercase().as_str() {
            "linear" => Interp::Linear,
            "step" => Interp::Step,
            "discrete" => Interp::Discrete,
            other => return Err(SqlError::execution(format!("unknown interpolation {other:?}"))),
        };
        let seqs: Vec<TSequence<mduck_geo::Point>> = t
            .temp
            .as_sequences()
            .iter()
            .map(|s| {
                TSequence::new(s.instants().to_vec(), s.lower_inc, s.upper_inc, interp)
                    .map_err(to_exec)
            })
            .collect::<SqlResult<_>>()?;
        Ok(MdTGeomPoint(TGeomPoint::new(
            Temporal::from_sequences(seqs).map_err(to_exec)?,
            t.srid(),
        ))
        .into_value())
    });
}

// ------------------------------------------------- spatial relationships

fn register_spatial_relationships(reg: &mut Registry) {
    for a_ty in [lt("tgeompoint"), lt("tgeometry")] {
        for b_ty in [lt("tgeompoint"), lt("tgeometry")] {
            // tDwithin (Query 10).
            reg.register_scalar(
                "tdwithin",
                vec![a_ty.clone(), b_ty.clone(), LogicalType::Float],
                lt("tbool"),
                |args| {
                    let a = value_to_tgeom(&args[0])?;
                    let b = value_to_tgeom(&args[1])?;
                    match a.tdwithin(b, args[2].as_float()?) {
                        Some(t) => Ok(MdTBool(t).into_value()),
                        None => Ok(Value::Null),
                    }
                },
            );
            // eDwithin (Query 6 / the demo).
            reg.register_scalar(
                "edwithin",
                vec![a_ty.clone(), b_ty.clone(), LogicalType::Float],
                LogicalType::Bool,
                |args| {
                    let a = value_to_tgeom(&args[0])?;
                    let b = value_to_tgeom(&args[1])?;
                    Ok(Value::Bool(a.edwithin(b, args[2].as_float()?)))
                },
            );
            reg.register_scalar(
                "adwithin",
                vec![a_ty.clone(), b_ty.clone(), LogicalType::Float],
                LogicalType::Bool,
                |args| {
                    let a = value_to_tgeom(&args[0])?;
                    let b = value_to_tgeom(&args[1])?;
                    Ok(Value::Bool(a.adwithin(b, args[2].as_float()?)))
                },
            );
            // tdistance.
            reg.register_scalar(
                "tdistance",
                vec![a_ty.clone(), b_ty.clone()],
                lt("tfloat"),
                |args| {
                    let a = value_to_tgeom(&args[0])?;
                    let b = value_to_tgeom(&args[1])?;
                    match a.tdistance(b) {
                        Some(t) => Ok(MdTFloat(t).into_value()),
                        None => Ok(Value::Null),
                    }
                },
            );
        }
        // eIntersects / aIntersects / eDwithin against static geometries.
        for geom_ty in [lt("geometry"), LogicalType::Blob] {
            reg.register_scalar(
                "eintersects",
                vec![a_ty.clone(), geom_ty.clone()],
                LogicalType::Bool,
                |args| {
                    let t = value_to_tgeom(&args[0])?;
                    let g = value_to_geometry(&args[1])?;
                    Ok(Value::Bool(t.eintersects(&g)))
                },
            );
            reg.register_scalar(
                "aintersects",
                vec![a_ty.clone(), geom_ty.clone()],
                LogicalType::Bool,
                |args| {
                    let t = value_to_tgeom(&args[0])?;
                    let g = value_to_geometry(&args[1])?;
                    Ok(Value::Bool(t.always_inside(&g)))
                },
            );
            reg.register_scalar(
                "edwithin",
                vec![a_ty.clone(), geom_ty.clone(), LogicalType::Float],
                LogicalType::Bool,
                |args| {
                    let t = value_to_tgeom(&args[0])?;
                    let g = value_to_geometry(&args[1])?;
                    Ok(Value::Bool(t.edwithin_geo(&g, args[2].as_float()?)))
                },
            );
        }
    }
}

// ------------------------------------------------------------ box functions

fn register_box_functions(reg: &mut Registry) {
    // stbox constructors: from geometry blob/ext, temporal, with timestamp.
    reg.register_scalar("stbox", vec![LogicalType::Text], lt("stbox"), |a| {
        let txt = a[0].as_text()?;
        // Accept either an stbox literal (the §4.4 STBOX('STBOX X(...)')
        // constructor) or WKT.
        if let Ok(b) = mduck_temporal::parse_stbox(txt) {
            return Ok(MdStbox(b).into_value());
        }
        let g = value_to_geometry(&a[0])?;
        Ok(MdStbox(STBox::from_geometry(&g).map_err(to_exec)?).into_value())
    });
    for geom_ty in [lt("geometry"), LogicalType::Blob] {
        reg.register_scalar("stbox", vec![geom_ty.clone()], lt("stbox"), |a| {
            let g = value_to_geometry(&a[0])?;
            Ok(MdStbox(STBox::from_geometry(&g).map_err(to_exec)?).into_value())
        });
        reg.register_scalar(
            "stbox",
            vec![geom_ty, LogicalType::Timestamp],
            lt("stbox"),
            |a| {
                let g = value_to_geometry(&a[0])?;
                Ok(MdStbox(
                    STBox::from_geometry_at(&g, value_to_ts(&a[1])?).map_err(to_exec)?,
                )
                .into_value())
            },
        );
    }
    reg.register_scalar(
        "stbox",
        vec![LogicalType::Text, LogicalType::Timestamp],
        lt("stbox"),
        |a| {
            let g = value_to_geometry(&a[0])?;
            Ok(MdStbox(STBox::from_geometry_at(&g, value_to_ts(&a[1])?).map_err(to_exec)?)
                .into_value())
        },
    );
    reg.register_scalar("stbox", vec![lt("stbox")], lt("stbox"), |a| Ok(a[0].clone()));
    for src in [lt("tgeompoint"), lt("tgeometry")] {
        reg.register_scalar("stbox", vec![src], lt("stbox"), |a| {
            Ok(MdStbox(value_to_stbox(&a[0])?).into_value())
        });
    }
    reg.register_scalar("stbox", vec![lt("tstzspan")], lt("stbox"), |a| {
        Ok(MdStbox(STBox::from_period(value_to_period(&a[0])?)).into_value())
    });
    // expandSpace / expandTime (§3.5, Query 10).
    reg.register_scalar("expandspace", vec![lt("stbox"), LogicalType::Float], lt("stbox"), |a| {
        let b = value_to_stbox(&a[0])?;
        Ok(MdStbox(b.expand_space(a[1].as_float()?).map_err(to_exec)?).into_value())
    });
    for src in [lt("tgeompoint"), lt("tgeometry")] {
        reg.register_scalar("expandspace", vec![src, LogicalType::Float], lt("stbox"), |a| {
            let b = value_to_stbox(&a[0])?;
            Ok(MdStbox(b.expand_space(a[1].as_float()?).map_err(to_exec)?).into_value())
        });
    }
    reg.register_scalar(
        "expandtime",
        vec![lt("stbox"), LogicalType::Interval],
        lt("stbox"),
        |a| {
            let b = value_to_stbox(&a[0])?;
            Ok(MdStbox(b.expand_time(&value_to_interval(&a[1])?).map_err(to_exec)?).into_value())
        },
    );
    reg.register_scalar(
        "expandtime",
        vec![lt("tbox"), LogicalType::Interval],
        lt("tbox"),
        |a| {
            let b = a[0].ext_as::<MdTbox>()?.0;
            Ok(MdTbox(b.expand_time(&value_to_interval(&a[1])?).map_err(to_exec)?).into_value())
        },
    );
    reg.register_scalar("expandvalue", vec![lt("tbox"), LogicalType::Float], lt("tbox"), |a| {
        let b = a[0].ext_as::<MdTbox>()?.0;
        Ok(MdTbox(b.expand_value(a[1].as_float()?).map_err(to_exec)?).into_value())
    });
    // geometry(stbox) → WKB_BLOB footprint (§4.4's UPDATE).
    reg.register_scalar("geometry", vec![lt("stbox")], LogicalType::Blob, |a| {
        let b = value_to_stbox(&a[0])?;
        Ok(Value::blob(mduck_geo::wkb::to_wkb(&b.to_geometry().map_err(to_exec)?)))
    });
}

// ---------------------------------------------------------------- operators

/// Register an operator as a binary scalar function whose name is the
/// symbol (the paper's §3.4 "Operators").
fn register_operators(reg: &mut Registry) {
    // && over stbox/tgeompoint/tbox combinations.
    let overlap_impl = |a: &Value, b: &Value| -> SqlResult<Value> {
        let ba = value_to_stbox(a)?;
        let bb = value_to_stbox(b)?;
        Ok(Value::Bool(ba.overlaps(&bb).map_err(to_exec)?))
    };
    for a_ty in [lt("stbox"), lt("tgeompoint"), lt("tgeometry")] {
        for b_ty in [lt("stbox"), lt("tgeompoint"), lt("tgeometry")] {
            reg.register_scalar("&&", vec![a_ty.clone(), b_ty.clone()], LogicalType::Bool, move |a| {
                overlap_impl(&a[0], &a[1])
            });
        }
    }
    reg.register_scalar("&&", vec![lt("tbox"), lt("tbox")], LogicalType::Bool, |a| {
        let x = a[0].ext_as::<MdTbox>()?.0;
        let y = a[1].ext_as::<MdTbox>()?.0;
        Ok(Value::Bool(x.overlaps(&y).map_err(to_exec)?))
    });
    // Span overlap/containment operators.
    macro_rules! span_ops {
        ($wrap:ty, $name:literal) => {
            reg.register_scalar("&&", vec![lt($name), lt($name)], LogicalType::Bool, |a| {
                let x = &a[0].ext_as::<$wrap>()?.0;
                let y = &a[1].ext_as::<$wrap>()?.0;
                Ok(Value::Bool(x.overlaps(y)))
            });
            reg.register_scalar("@>", vec![lt($name), lt($name)], LogicalType::Bool, |a| {
                let x = &a[0].ext_as::<$wrap>()?.0;
                let y = &a[1].ext_as::<$wrap>()?.0;
                Ok(Value::Bool(x.contains_span(y)))
            });
            reg.register_scalar("<@", vec![lt($name), lt($name)], LogicalType::Bool, |a| {
                let x = &a[0].ext_as::<$wrap>()?.0;
                let y = &a[1].ext_as::<$wrap>()?.0;
                Ok(Value::Bool(y.contains_span(x)))
            });
            reg.register_scalar("<<", vec![lt($name), lt($name)], LogicalType::Bool, |a| {
                let x = &a[0].ext_as::<$wrap>()?.0;
                let y = &a[1].ext_as::<$wrap>()?.0;
                Ok(Value::Bool(x.left_of(y)))
            });
            reg.register_scalar("-|-", vec![lt($name), lt($name)], LogicalType::Bool, |a| {
                let x = &a[0].ext_as::<$wrap>()?.0;
                let y = &a[1].ext_as::<$wrap>()?.0;
                Ok(Value::Bool(x.adjacent(y)))
            });
            reg.register_scalar("<->", vec![lt($name), lt($name)], LogicalType::Float, |a| {
                let x = &a[0].ext_as::<$wrap>()?.0;
                let y = &a[1].ext_as::<$wrap>()?.0;
                Ok(Value::Float(x.distance(y)))
            });
        };
    }
    span_ops!(MdIntSpan, "intspan");
    span_ops!(MdFloatSpan, "floatspan");
    span_ops!(MdTstzSpan, "tstzspan");
    span_ops!(MdDateSpan, "datespan");

    // tstzspan @> timestamptz (Query 3), and timestamptz <@ tstzspan.
    reg.register_scalar(
        "@>",
        vec![lt("tstzspan"), LogicalType::Timestamp],
        LogicalType::Bool,
        |a| {
            let p = value_to_period(&a[0])?;
            Ok(Value::Bool(p.contains_value(value_to_ts(&a[1])?)))
        },
    );
    reg.register_scalar(
        "<@",
        vec![LogicalType::Timestamp, lt("tstzspan")],
        LogicalType::Bool,
        |a| {
            let p = value_to_period(&a[1])?;
            Ok(Value::Bool(p.contains_value(value_to_ts(&a[0])?)))
        },
    );
    reg.register_scalar(
        "@>",
        vec![lt("tstzspanset"), LogicalType::Timestamp],
        LogicalType::Bool,
        |a| {
            let ps = &a[0].ext_as::<MdTstzSpanSet>()?.0;
            Ok(Value::Bool(ps.contains_value(value_to_ts(&a[1])?)))
        },
    );
    reg.register_scalar("&&", vec![lt("tstzspanset"), lt("tstzspan")], LogicalType::Bool, |a| {
        let ps = &a[0].ext_as::<MdTstzSpanSet>()?.0;
        Ok(Value::Bool(ps.overlaps_span(&value_to_period(&a[1])?)))
    });
    reg.register_scalar("&&", vec![lt("tstzspanset"), lt("tstzspanset")], LogicalType::Bool, |a| {
        let x = &a[0].ext_as::<MdTstzSpanSet>()?.0;
        let y = &a[1].ext_as::<MdTstzSpanSet>()?.0;
        Ok(Value::Bool(x.overlaps(y)))
    });
    // stbox @> stbox.
    reg.register_scalar("@>", vec![lt("stbox"), lt("stbox")], LogicalType::Bool, |a| {
        let x = value_to_stbox(&a[0])?;
        let y = value_to_stbox(&a[1])?;
        Ok(Value::Bool(x.contains(&y).map_err(to_exec)?))
    });
    reg.register_scalar("<@", vec![lt("stbox"), lt("stbox")], LogicalType::Bool, |a| {
        let x = value_to_stbox(&a[0])?;
        let y = value_to_stbox(&a[1])?;
        Ok(Value::Bool(y.contains(&x).map_err(to_exec)?))
    });
    // Geometry operators: <-> (distance) and && (bounding-box overlap,
    // PostGIS-style — the pattern the Figure 2 geometry-RTREE index scan
    // matches on).
    for a_ty in [lt("geometry"), LogicalType::Blob] {
        for b_ty in [lt("geometry"), LogicalType::Blob] {
            reg.register_scalar("<->", vec![a_ty.clone(), b_ty.clone()], LogicalType::Float, |a| {
                let x = value_to_geometry(&a[0])?;
                let y = value_to_geometry(&a[1])?;
                Ok(Value::Float(algorithms::distance(&x, &y)))
            });
            reg.register_scalar("&&", vec![a_ty.clone(), b_ty.clone()], LogicalType::Bool, |a| {
                let x = value_to_geometry(&a[0])?;
                let y = value_to_geometry(&a[1])?;
                Ok(Value::Bool(match (x.bounding_rect(), y.bounding_rect()) {
                    (Some(rx), Some(ry)) => rx.intersects(&ry),
                    _ => false,
                }))
            });
        }
    }
}

// ------------------------------------------------------- span/set functions

fn register_span_set_functions(reg: &mut Registry) {
    // span(lo, hi) constructors.
    reg.register_scalar(
        "span",
        vec![LogicalType::Timestamp, LogicalType::Timestamp],
        lt("tstzspan"),
        |a| {
            Ok(MdTstzSpan(
                Span::new(value_to_ts(&a[0])?, value_to_ts(&a[1])?, true, true)
                    .map_err(to_exec)?,
            )
            .into_value())
        },
    );
    reg.register_scalar(
        "tstzspan",
        vec![LogicalType::Timestamp, LogicalType::Timestamp],
        lt("tstzspan"),
        |a| {
            Ok(MdTstzSpan(
                Span::new(value_to_ts(&a[0])?, value_to_ts(&a[1])?, true, true)
                    .map_err(to_exec)?,
            )
            .into_value())
        },
    );
    reg.register_scalar(
        "span",
        vec![LogicalType::Float, LogicalType::Float],
        lt("floatspan"),
        |a| {
            Ok(MdFloatSpan(
                Span::new(a[0].as_float()?, a[1].as_float()?, true, true).map_err(to_exec)?,
            )
            .into_value())
        },
    );
    // set union/intersection/minus for tstzset.
    reg.register_scalar("set_union", vec![lt("tstzset"), lt("tstzset")], lt("tstzset"), |a| {
        let x = &a[0].ext_as::<MdTstzSet>()?.0;
        let y = &a[1].ext_as::<MdTstzSet>()?.0;
        Ok(MdTstzSet(x.union(y)).into_value())
    });
    reg.register_scalar(
        "set_intersection",
        vec![lt("tstzset"), lt("tstzset")],
        lt("tstzset"),
        |a| {
            let x = &a[0].ext_as::<MdTstzSet>()?.0;
            let y = &a[1].ext_as::<MdTstzSet>()?.0;
            match x.intersection(y) {
                Some(s) => Ok(MdTstzSet(s).into_value()),
                None => Ok(Value::Null),
            }
        },
    );
    // spanset union/intersection for periods.
    reg.register_scalar(
        "union",
        vec![lt("tstzspanset"), lt("tstzspanset")],
        lt("tstzspanset"),
        |a| {
            let x = &a[0].ext_as::<MdTstzSpanSet>()?.0;
            let y = &a[1].ext_as::<MdTstzSpanSet>()?.0;
            Ok(MdTstzSpanSet(x.union(y)).into_value())
        },
    );
    reg.register_scalar(
        "intersection",
        vec![lt("tstzspanset"), lt("tstzspanset")],
        lt("tstzspanset"),
        |a| {
            let x = &a[0].ext_as::<MdTstzSpanSet>()?.0;
            let y = &a[1].ext_as::<MdTstzSpanSet>()?.0;
            match x.intersection(y) {
                Some(s) => Ok(MdTstzSpanSet(s).into_value()),
                None => Ok(Value::Null),
            }
        },
    );
    reg.register_scalar(
        "intersection",
        vec![lt("tstzspan"), lt("tstzspan")],
        lt("tstzspan"),
        |a| {
            let x = value_to_period(&a[0])?;
            let y = value_to_period(&a[1])?;
            match x.intersection(&y) {
                Some(s) => Ok(MdTstzSpan(s).into_value()),
                None => Ok(Value::Null),
            }
        },
    );
}

// ------------------------------------------------------------- constructors

fn register_constructors(reg: &mut Registry) {
    // tgeometry(point-text, tstzspan, interp) — the §3.5 sample.
    for name in ["tgeometry", "tgeompoint"] {
        reg.register_scalar(
            name,
            vec![LogicalType::Text, lt("tstzspan"), LogicalType::Text],
            lt(name),
            move |a| {
                let g = mduck_geo::wkt::parse_wkt(a[0].as_text()?).map_err(to_exec)?;
                let p = g.as_point().ok_or_else(|| {
                    SqlError::execution("temporal geometry constructor expects a point")
                })?;
                let span = value_to_period(&a[1])?;
                let interp = match a[2].as_text()?.to_ascii_lowercase().as_str() {
                    "step" => Interp::Step,
                    "linear" => Interp::Linear,
                    "discrete" => Interp::Discrete,
                    other => {
                        return Err(SqlError::execution(format!(
                            "unknown interpolation {other:?}"
                        )))
                    }
                };
                let instants = if span.lower == span.upper {
                    vec![TInstant::new(p, span.lower)]
                } else {
                    vec![TInstant::new(p, span.lower), TInstant::new(p, span.upper)]
                };
                let seq = TSequence::new(instants, span.lower_inc, span.upper_inc, interp)
                    .map_err(to_exec)?;
                let t = TGeomPoint::new(Temporal::Sequence(seq), g.srid);
                Ok(MdTGeometry(t).into_value())
            },
        );
    }
    // tgeompoint(wkb/geom, timestamptz) — instant constructor used by data
    // loading.
    for geom_ty in [lt("geometry"), LogicalType::Blob, LogicalType::Text] {
        reg.register_scalar(
            "tgeompoint",
            vec![geom_ty, LogicalType::Timestamp],
            lt("tgeompoint"),
            |a| {
                let g = value_to_geometry(&a[0])?;
                let p = g
                    .as_point()
                    .ok_or_else(|| SqlError::execution("tgeompoint expects a point"))?;
                Ok(MdTGeomPoint(TGeomPoint::instant(p, value_to_ts(&a[1])?, g.srid))
                    .into_value())
            },
        );
    }
    // tgeompointseq(x, y, t) aggregation support arrives via the
    // `tgeompointseq` aggregate in aggregates.rs; here we add the pairwise
    // merge used by tests.
    reg.register_scalar(
        "appendinstant",
        vec![lt("tgeompoint"), lt("tgeompoint")],
        lt("tgeompoint"),
        |a| {
            let x = value_to_tgeom(&a[0])?;
            let y = value_to_tgeom(&a[1])?;
            let mut instants: Vec<TInstant<mduck_geo::Point>> =
                x.temp.instants().into_iter().cloned().collect();
            instants.extend(y.temp.instants().into_iter().cloned());
            instants.sort_by_key(|i| i.t);
            instants.dedup_by(|a, b| a.t == b.t);
            let seq = TSequence::new(instants, true, true, Interp::Linear).map_err(to_exec)?;
            Ok(MdTGeomPoint(TGeomPoint::new(Temporal::Sequence(seq), x.srid())).into_value())
        },
    );
    // tbool/tint/tfloat instant constructors.
    reg.register_scalar(
        "tint",
        vec![LogicalType::Int, LogicalType::Timestamp],
        lt("tint"),
        |a| {
            Ok(MdTInt(Temporal::Instant(TInstant::new(a[0].as_int()?, value_to_ts(&a[1])?)))
                .into_value())
        },
    );
    reg.register_scalar(
        "tfloat",
        vec![LogicalType::Float, LogicalType::Timestamp],
        lt("tfloat"),
        |a| {
            Ok(MdTFloat(Temporal::Instant(TInstant::new(
                a[0].as_float()?,
                value_to_ts(&a[1])?,
            )))
            .into_value())
        },
    );
    let _ = Arc::new(()); // keep Arc in scope for future constructors
    let _: Option<TstzSpanSet> = None;
}

// ------------------------------------------------------------- fusion rules

/// The fused kernels and the rules that put them in place of the written
/// compositions (DESIGN.md §13, "Fusion rules"). Each fused function
/// returns what its composition returns, NULL included, and raises the
/// same errors: it reads its geometry only where the composition would
/// have read it.
fn register_fusions(reg: &mut Registry) {
    use mduck_sql::FusionRule;

    // The fused overloads take the `tgeompoint`s BerlinMOD queries; over
    // any other type the compositions stay as written.
    let src = lt("tgeompoint");
    for geom_ty in [lt("geometry"), LogicalType::Blob] {
        // eIntersects(atTime(x, p), g): NULL where atTime is NULL, and
        // then `g` is not decoded.
        reg.register_scalar(
            "eintersects",
            vec![src.clone(), lt("tstzspan"), geom_ty.clone()],
            LogicalType::Bool,
            |args| {
                let t = value_to_tgeom(&args[0])?;
                let p = value_to_period(&args[1])?;
                let Some(during) = t.during(&p) else { return Ok(Value::Null) };
                let g = value_to_geometry(&args[2])?;
                Ok(Value::Bool(during.eintersects(&g)))
            },
        );
        // startTimestamp(atValues(x, g)).
        reg.register_scalar(
            "starttimestamp_atvalues",
            vec![src.clone(), geom_ty],
            LogicalType::Timestamp,
            |args| {
                let t = value_to_tgeom(&args[0])?;
                let g = value_to_geometry(&args[1])?;
                let p = g
                    .as_point()
                    .ok_or_else(|| SqlError::execution("atValues expects a point geometry"))?;
                Ok(t.first_time_at(p).map_or(Value::Null, |ts| Value::Timestamp(ts.0)))
            },
        );
    }
    // length(atTime(x, p)).
    reg.register_scalar("length", vec![src.clone(), lt("tstzspan")], LogicalType::Float, |a| {
        let t = value_to_tgeom(&a[0])?;
        let p = value_to_period(&a[1])?;
        Ok(t.during(&p).map_or(Value::Null, |d| Value::Float(d.length())))
    });
    // whenTrue(tDwithin(a, b, d)).
    reg.register_scalar(
        "whentrue_tdwithin",
        vec![src.clone(), src, LogicalType::Float],
        lt("tstzspanset"),
        |args| {
            let a = value_to_tgeom(&args[0])?;
            let b = value_to_tgeom(&args[1])?;
            match a.when_dwithin(b, args[2].as_float()?) {
                Some(ps) => Ok(MdTstzSpanSet(ps).into_value()),
                None => Ok(Value::Null),
            }
        },
    );

    let rule =
        |outer, inner, fused| FusionRule { outer, inner, fused, commutes: false, through: None };
    // ST_Intersects(trajectory(x)[::GEOMETRY], g), either way round.
    reg.register_fusion(FusionRule {
        commutes: true,
        through: Some("cast::GEOMETRY"),
        ..rule("st_intersects", "trajectory", "eintersects")
    });
    reg.register_fusion(rule("eintersects", "attime", "eintersects"));
    reg.register_fusion(rule("length", "attime", "length"));
    reg.register_fusion(rule("whentrue", "tdwithin", "whentrue_tdwithin"));
    reg.register_fusion(rule("starttimestamp", "atvalues", "starttimestamp_atvalues"));
}
