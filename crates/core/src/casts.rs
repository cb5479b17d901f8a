//! Type aliases and cast functions (§3.3–§3.4): every MEOS type registered
//! as a UDT, VARCHAR→type input casts (the `Tbox_in`-style functions of
//! the paper), type→VARCHAR output casts, and the cross-type casts the
//! benchmark queries use (`trip::tstzspan`, `trip::STBOX`,
//! `geom::WKB_BLOB`, ...).

use mduck_sql::{LogicalType, Registry, Value};
use mduck_temporal::set::{parse_geomset, parse_set, Set};
use mduck_temporal::span::parse_span;
use mduck_temporal::spanset::{parse_spanset, SpanSet};
use mduck_temporal::temporal::{
    parse_tbool, parse_tfloat, parse_tgeompoint, parse_tint, parse_ttext, parse_temporal,
};
use mduck_temporal::{parse_stbox, parse_tbox};

use crate::types::*;

/// Register every UDT alias and cast into a registry (engine-agnostic).
pub fn register_types_and_casts(reg: &mut Registry) {
    // ---- type aliases (CREATE TYPE x AS BLOB; CREATE ... ALIAS)
    for name in [
        "stbox",
        "tbox",
        "intspan",
        "bigintspan",
        "floatspan",
        "datespan",
        "tstzspan",
        "intspanset",
        "bigintspanset",
        "floatspanset",
        "datespanset",
        "tstzspanset",
        "intset",
        "bigintset",
        "floatset",
        "textset",
        "dateset",
        "tstzset",
        "geomset",
        "tbool",
        "tint",
        "tfloat",
        "ttext",
        "tgeompoint",
        "tgeometry",
        "geometry",
    ] {
        reg.register_type(name, LogicalType::ext(name));
    }
    // The paper's period aliases.
    reg.register_type("period", LogicalType::ext("tstzspan"));
    reg.register_type("periodset", LogicalType::ext("tstzspanset"));

    // ---- VARCHAR → type input casts (the `<type>_in` functions)
    macro_rules! in_cast {
        ($name:literal, $parse:expr) => {
            reg.register_cast(LogicalType::Text, LogicalType::ext($name), move |a| {
                let v = a[0].as_text()?;
                $parse(v)
            });
        };
    }
    in_cast!("stbox", |s: &str| Ok(MdStbox(parse_stbox(s).map_err(to_exec)?).into_value()));
    in_cast!("tbox", |s: &str| Ok(MdTbox(parse_tbox(s).map_err(to_exec)?).into_value()));
    in_cast!("intspan", |s: &str| Ok(
        MdIntSpan(parse_span(s).map_err(to_exec)?).into_value()
    ));
    in_cast!("bigintspan", |s: &str| Ok(MdBigintSpan(parse_span(s).map_err(to_exec)?)
        .into_value()));
    in_cast!("floatspan", |s: &str| Ok(MdFloatSpan(parse_span(s).map_err(to_exec)?)
        .into_value()));
    in_cast!("datespan", |s: &str| Ok(
        MdDateSpan(parse_span(s).map_err(to_exec)?).into_value()
    ));
    in_cast!("tstzspan", |s: &str| Ok(
        MdTstzSpan(parse_span(s).map_err(to_exec)?).into_value()
    ));
    in_cast!("intspanset", |s: &str| Ok(MdIntSpanSet(parse_spanset(s).map_err(to_exec)?)
        .into_value()));
    in_cast!("bigintspanset", |s: &str| Ok(MdBigintSpanSet(
        parse_spanset(s).map_err(to_exec)?
    )
    .into_value()));
    in_cast!("floatspanset", |s: &str| Ok(MdFloatSpanSet(
        parse_spanset(s).map_err(to_exec)?
    )
    .into_value()));
    in_cast!("datespanset", |s: &str| Ok(MdDateSpanSet(parse_spanset(s).map_err(to_exec)?)
        .into_value()));
    in_cast!("tstzspanset", |s: &str| Ok(MdTstzSpanSet(parse_spanset(s).map_err(to_exec)?)
        .into_value()));
    in_cast!("intset", |s: &str| Ok(MdIntSet(parse_set(s).map_err(to_exec)?).into_value()));
    in_cast!("bigintset", |s: &str| Ok(
        MdBigintSet(parse_set(s).map_err(to_exec)?).into_value()
    ));
    in_cast!("floatset", |s: &str| Ok(
        MdFloatSet(parse_set(s).map_err(to_exec)?).into_value()
    ));
    in_cast!("textset", |s: &str| Ok(MdTextSet(parse_set(s).map_err(to_exec)?).into_value()));
    in_cast!("dateset", |s: &str| Ok(MdDateSet(parse_set(s).map_err(to_exec)?).into_value()));
    in_cast!("tstzset", |s: &str| Ok(MdTstzSet(parse_set(s).map_err(to_exec)?).into_value()));
    in_cast!("geomset", |s: &str| Ok(
        MdGeomSet(parse_geomset(s).map_err(to_exec)?).into_value()
    ));
    in_cast!("tbool", |s: &str| Ok(MdTBool(parse_tbool(s).map_err(to_exec)?).into_value()));
    in_cast!("tint", |s: &str| Ok(MdTInt(parse_tint(s).map_err(to_exec)?).into_value()));
    in_cast!("tfloat", |s: &str| Ok(MdTFloat(parse_tfloat(s).map_err(to_exec)?).into_value()));
    in_cast!("ttext", |s: &str| Ok(MdTText(parse_ttext(s).map_err(to_exec)?).into_value()));
    in_cast!("tgeompoint", |s: &str| Ok(MdTGeomPoint(parse_tgeompoint(s).map_err(to_exec)?)
        .into_value()));
    in_cast!("tgeometry", |s: &str| {
        // tgeometry defaults to step interpolation.
        let (mut temp, srid) = parse_temporal::<mduck_geo::Point>(&format!("Interp=Step;{s}"))
            .or_else(|_| parse_temporal::<mduck_geo::Point>(s))
            .map_err(to_exec)?;
        if let mduck_temporal::temporal::Temporal::Instant(_) = temp {
            // instants carry no interpolation
        } else {
            // keep parsed interpolation
        }
        let _ = &mut temp;
        Ok(MdTGeometry(mduck_temporal::temporal::TGeomPoint::new(temp, srid.unwrap_or(0)))
            .into_value())
    });
    in_cast!("geometry", |s: &str| Ok(
        MdGeom(mduck_geo::wkt::parse_wkt(s).map_err(to_exec)?).into_value()
    ));

    // ---- type → VARCHAR output casts
    for name in [
        "stbox",
        "tbox",
        "intspan",
        "bigintspan",
        "floatspan",
        "datespan",
        "tstzspan",
        "intspanset",
        "bigintspanset",
        "floatspanset",
        "datespanset",
        "tstzspanset",
        "intset",
        "bigintset",
        "floatset",
        "textset",
        "dateset",
        "tstzset",
        "geomset",
        "tbool",
        "tint",
        "tfloat",
        "ttext",
        "tgeompoint",
        "tgeometry",
        "geometry",
    ] {
        reg.register_cast(LogicalType::ext(name), LogicalType::Text, |a| {
            Ok(Value::text(a[0].as_ext()?.obj.to_text()))
        });
    }

    // ---- cross-type casts used by the queries
    // trip::tstzspan (Query 3) — the temporal value's bounding period.
    for src in ["tgeompoint", "tgeometry"] {
        reg.register_cast(LogicalType::ext(src), LogicalType::ext("tstzspan"), |a| {
            let t = value_to_tgeom(&a[0])?;
            Ok(MdTstzSpan(t.timespan()).into_value())
        });
        // trip::STBOX (Query 10).
        reg.register_cast(LogicalType::ext(src), LogicalType::ext("stbox"), |a| {
            let t = value_to_tgeom(&a[0])?;
            Ok(MdStbox(t.stbox()).into_value())
        });
    }
    for src in ["tbool", "tint", "tfloat", "ttext"] {
        reg.register_cast(LogicalType::ext(src), LogicalType::ext("tstzspan"), move |a| {
            let e = a[0].as_ext()?;
            let span = if let Some(t) = e.downcast::<MdTBool>() {
                t.0.timespan()
            } else if let Some(t) = e.downcast::<MdTInt>() {
                t.0.timespan()
            } else if let Some(t) = e.downcast::<MdTFloat>() {
                t.0.timespan()
            } else if let Some(t) = e.downcast::<MdTText>() {
                t.0.timespan()
            } else {
                return Err(mduck_sql::SqlError::execution("not a temporal value"));
            };
            Ok(MdTstzSpan(span).into_value())
        });
    }
    // tint ↔ tfloat.
    reg.register_cast(LogicalType::ext("tint"), LogicalType::ext("tfloat"), |a| {
        let t = &a[0].ext_as::<MdTInt>()?.0;
        Ok(MdTFloat(t.map_values(|v| *v as f64)).into_value())
    });
    reg.register_cast(LogicalType::ext("tfloat"), LogicalType::ext("tint"), |a| {
        let t = &a[0].ext_as::<MdTFloat>()?.0;
        Ok(MdTInt(t.map_values(|v| v.round() as i64)).into_value())
    });
    // span → spanset.
    reg.register_cast(LogicalType::ext("tstzspan"), LogicalType::ext("tstzspanset"), |a| {
        let s = a[0].ext_as::<MdTstzSpan>()?.0;
        Ok(MdTstzSpanSet(SpanSet::from_span(s)).into_value())
    });
    // set casts of Table 1's cross-type functions.
    reg.register_cast(LogicalType::ext("intset"), LogicalType::ext("floatset"), |a| {
        let s = &a[0].ext_as::<MdIntSet>()?.0;
        Ok(MdFloatSet(Set::new(s.values().iter().map(|v| *v as f64).collect()).map_err(to_exec)?)
            .into_value())
    });
    reg.register_cast(LogicalType::ext("floatset"), LogicalType::ext("intset"), |a| {
        let s = &a[0].ext_as::<MdFloatSet>()?.0;
        Ok(MdIntSet(
            Set::new(s.values().iter().map(|v| v.round() as i64).collect()).map_err(to_exec)?,
        )
        .into_value())
    });
    reg.register_cast(LogicalType::ext("dateset"), LogicalType::ext("tstzset"), |a| {
        let s = &a[0].ext_as::<MdDateSet>()?.0;
        Ok(MdTstzSet(
            Set::new(s.values().iter().map(|d| d.at_midnight()).collect()).map_err(to_exec)?,
        )
        .into_value())
    });
    reg.register_cast(LogicalType::ext("tstzset"), LogicalType::ext("dateset"), |a| {
        let s = &a[0].ext_as::<MdTstzSet>()?.0;
        Ok(MdDateSet(Set::new(s.values().iter().map(|t| t.date()).collect()).map_err(to_exec)?)
            .into_value())
    });

    // ---- spatial proxy-layer casts (§6.2 / §7): GEOMETRY ↔ WKB_BLOB.
    // Serializing to WKB and parsing it back are real conversions — the
    // overhead the `_gs` functions avoid.
    reg.register_cast(LogicalType::ext("geometry"), LogicalType::Blob, |a| {
        let g = &a[0].ext_as::<MdGeom>()?.0;
        Ok(Value::blob(mduck_geo::wkb::to_wkb(g)))
    });
    reg.register_cast(LogicalType::Blob, LogicalType::ext("geometry"), |a| {
        Ok(MdGeom(value_to_geometry(&a[0])?.into_owned()).into_value())
    });
    reg.register_cast(LogicalType::Text, LogicalType::Blob, |a| {
        // WKT text → WKB blob (used when VARCHAR stands in for geometry).
        let g = mduck_geo::wkt::parse_wkt(a[0].as_text()?).map_err(to_exec)?;
        Ok(Value::blob(mduck_geo::wkb::to_wkb(&g)))
    });
    // stbox::geometry — the spatial footprint (§4.4's geometry(box)).
    reg.register_cast(LogicalType::ext("stbox"), LogicalType::ext("geometry"), |a| {
        let b = a[0].ext_as::<MdStbox>()?.0;
        Ok(MdGeom(b.to_geometry().map_err(to_exec)?).into_value())
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> Registry {
        let mut r = Registry::with_builtins();
        register_types_and_casts(&mut r);
        r
    }

    fn cast(r: &Registry, from: &LogicalType, to: &LogicalType, v: Value) -> Value {
        (r.resolve_cast(from, to).unwrap())(&[v]).unwrap()
    }

    #[test]
    fn text_to_types_roundtrip() {
        let r = reg();
        for (ty, lit) in [
            ("stbox", "STBOX X((1,2),(3,4))"),
            ("tstzspan", "[2025-01-01, 2025-01-02]"),
            ("tstzset", "{2025-01-01, 2025-01-02}"),
            ("tint", "{1@2025-01-01, 2@2025-01-02}"),
            ("tgeompoint", "[POINT(1 1)@2025-01-01 00:00:00+00]"),
        ] {
            let lt = LogicalType::ext(ty);
            let v = cast(&r, &LogicalType::Text, &lt, Value::text(lit));
            let back = cast(&r, &lt, &LogicalType::Text, v);
            // Parse the printed form again: must be identical (fixpoint).
            let v2 = cast(&r, &LogicalType::Text, &lt, back.clone());
            let back2 = cast(&r, &lt, &LogicalType::Text, v2);
            assert_eq!(back.to_string(), back2.to_string(), "fixpoint for {ty}");
        }
    }

    #[test]
    fn trip_to_period_and_stbox() {
        let r = reg();
        let trip = cast(
            &r,
            &LogicalType::Text,
            &LogicalType::ext("tgeompoint"),
            Value::text("[Point(0 0)@2025-01-01, Point(5 5)@2025-01-03]"),
        );
        let p = cast(&r, &LogicalType::ext("tgeompoint"), &LogicalType::ext("tstzspan"), trip.clone());
        assert_eq!(p.to_string(), "[2025-01-01 00:00:00+00, 2025-01-03 00:00:00+00]");
        let b = cast(&r, &LogicalType::ext("tgeompoint"), &LogicalType::ext("stbox"), trip);
        assert!(b.to_string().starts_with("STBOX XT"), "{b}");
    }

    #[test]
    fn geometry_wkb_roundtrip() {
        let r = reg();
        let g = cast(
            &r,
            &LogicalType::Text,
            &LogicalType::ext("geometry"),
            Value::text("POINT(1 2)"),
        );
        let blob = cast(&r, &LogicalType::ext("geometry"), &LogicalType::Blob, g.clone());
        assert!(matches!(blob, Value::Blob(_)));
        let back = cast(&r, &LogicalType::Blob, &LogicalType::ext("geometry"), blob);
        assert!(g.sql_eq(&back));
    }

    #[test]
    fn set_cross_casts() {
        let r = reg();
        let s = cast(&r, &LogicalType::Text, &LogicalType::ext("intset"), Value::text("{1, 2}"));
        let f = cast(&r, &LogicalType::ext("intset"), &LogicalType::ext("floatset"), s);
        assert_eq!(f.to_string(), "{1, 2}");
        let back = cast(&r, &LogicalType::ext("floatset"), &LogicalType::ext("intset"), f);
        assert_eq!(back.logical_type(), LogicalType::ext("intset"));
    }
}
