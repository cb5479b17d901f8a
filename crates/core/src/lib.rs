//! # mobilityduck — spatiotemporal data management for quackdb
//!
//! The Rust reproduction of the paper's contribution: an extension that
//! binds the MEOS-equivalent temporal algebra (`mduck-temporal`) into the
//! vectorized engine (`quackdb`), registering user-defined types, cast
//! functions, scalar functions, operators-as-functions, temporal
//! aggregates, and the TRTREE index type with optimizer scan injection.
//!
//! The same registration (minus the engine-specific index plumbing) loads
//! into the row engine (`mduck-rowdb`), reproducing MobilityDB on
//! PostgreSQL as the evaluation baseline.
//!
//! ```
//! use quackdb::Database;
//!
//! let db = Database::new();
//! mobilityduck::load(&db);
//! let r = db
//!     .execute("SELECT duration('{1@2025-01-01, 2@2025-01-02, 1@2025-01-03}'::TINT, true)")
//!     .unwrap();
//! assert_eq!(r.rows[0][0].to_string(), "2 days");
//! ```

#![forbid(unsafe_code)]

pub mod aggregates;
pub mod casts;
pub mod functions;
pub mod functions_ext;
pub mod index;
pub mod spatial;
pub mod types;

use std::sync::Arc;

use mduck_sql::Registry;

pub use types::*;

/// Populate a registry with the full MobilityDuck surface
/// (engine-agnostic part).
pub fn register_all(reg: &mut Registry) {
    casts::register_types_and_casts(reg);
    functions::register_functions(reg);
    functions_ext::register_extended(reg);
    spatial::register_spatial(reg);
    aggregates::register_aggregates(reg);
    register_codecs(reg);
}

/// Register the wire-format decoders of every extension type: the binary
/// MEOS-style format for the hot temporal types, the textual literal form
/// for the rest. Row stores use these to detoast values on tuple access
/// (see `mduck-rowdb`); they are also the storage format of BLOB exports.
fn register_codecs(reg: &mut Registry) {
    reg.register_ext_codec("tgeompoint", |b| {
        Ok(MdTGeomPoint(
            mduck_temporal::binser::tgeompoint_from_bytes(b).map_err(types::to_exec)?,
        )
        .into_value())
    });
    reg.register_ext_codec("tgeometry", |b| {
        Ok(MdTGeometry(
            mduck_temporal::binser::tgeompoint_from_bytes(b).map_err(types::to_exec)?,
        )
        .into_value())
    });
    // Text-literal codecs for the remaining types (their to_bytes is the
    // printed literal).
    macro_rules! text_codec {
        ($name:literal, $wrapper:ident, $parse:expr) => {
            reg.register_ext_codec($name, |b| {
                let s = std::str::from_utf8(b)
                    .map_err(|e| mduck_sql::SqlError::execution(e.to_string()))?;
                let parsed = $parse(s).map_err(types::to_exec)?;
                Ok(types::$wrapper(parsed).into_value())
            });
        };
    }
    text_codec!("tstzspan", MdTstzSpan, mduck_temporal::parse_span);
    text_codec!("tstzspanset", MdTstzSpanSet, mduck_temporal::parse_spanset);
    text_codec!("stbox", MdStbox, mduck_temporal::parse_stbox);
    text_codec!("tbox", MdTbox, mduck_temporal::parse_tbox);
    text_codec!("tbool", MdTBool, mduck_temporal::temporal::parse_tbool);
    text_codec!("tint", MdTInt, mduck_temporal::temporal::parse_tint);
    text_codec!("tfloat", MdTFloat, mduck_temporal::temporal::parse_tfloat);
    text_codec!("ttext", MdTText, mduck_temporal::temporal::parse_ttext);
    reg.register_ext_codec("geometry", |b| {
        Ok(MdGeom(mduck_geo::gserialized::from_native(b).map_err(types::to_exec)?).into_value())
    });
}

/// Load the extension into a quackdb instance: types, casts, functions,
/// operators, aggregates, and the TRTREE / RTREE index types.
pub fn load(db: &quackdb::Database) {
    register_all(&mut db.registry_mut());
    let mut idx = db.index_types_mut();
    idx.register(Arc::new(index::TRTreeIndexType));
    idx.register(Arc::new(index::GeomRTreeIndexType));
}

/// Load the extension into a rowdb instance (the MobilityDB-on-PostgreSQL
/// baseline): same SQL surface, GiST + B-tree access methods.
pub fn load_row(db: &mduck_rowdb::RowDatabase) {
    register_all(&mut db.registry_mut());
    db.index_types_mut().register(Arc::new(index::GistIndexType));
}

/// The Table-1 coverage matrix: (base type, [set, span, spanset, temporal])
/// support report generated from the live registry. Used by the
/// `table1_types` report binary.
pub fn type_coverage() -> Vec<(&'static str, [Option<&'static str>; 4])> {
    vec![
        ("bool", [None, None, None, Some("tbool")]),
        ("text", [Some("textset"), None, None, Some("ttext")]),
        ("integer", [Some("intset"), Some("intspan"), Some("intspanset"), Some("tint")]),
        (
            "bigint",
            [Some("bigintset"), Some("bigintspan"), Some("bigintspanset"), None],
        ),
        ("float", [Some("floatset"), Some("floatspan"), Some("floatspanset"), Some("tfloat")]),
        ("date", [Some("dateset"), Some("datespan"), Some("datespanset"), None]),
        ("timestamptz", [Some("tstzset"), Some("tstzspan"), Some("tstzspanset"), None]),
        ("geometry", [Some("geomset"), None, None, Some("tgeompoint")]),
        ("geometry (general)", [None, None, None, Some("tgeometry")]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_loads_without_conflicts() {
        let mut reg = Registry::with_builtins();
        register_all(&mut reg);
        assert!(reg.has_scalar("tdwithin"));
        assert!(reg.has_scalar("&&"));
        assert!(reg.has_scalar("st_intersects"));
        assert!(reg.is_aggregate("extent"));
        assert!(reg.resolve_type("stbox").is_ok());
        assert!(reg.resolve_type("tgeompoint").is_ok());
    }

    #[test]
    fn coverage_types_are_registered() {
        let mut reg = Registry::with_builtins();
        register_all(&mut reg);
        for (_, cols) in type_coverage() {
            for name in cols.into_iter().flatten() {
                assert!(reg.resolve_type(name).is_ok(), "type {name} missing");
            }
        }
    }
}
