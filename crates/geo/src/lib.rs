//! # mduck-geo — 2-D geometry substrate
//!
//! A from-scratch geometry kernel playing the role that GEOS/PostGIS's
//! `GSERIALIZED` machinery plays underneath MEOS in the MobilityDuck paper.
//! It provides:
//!
//! * [`Point`] and the [`Geometry`] enum (point, multipoint, linestring,
//!   multilinestring, polygon, geometry collection),
//! * WKT / EWKT parsing and printing ([`wkt`]),
//! * WKB and EWKB binary encoding ([`wkb`]) — the `WKB_BLOB` interchange
//!   format the paper's Spatial-extension proxy layer uses,
//! * a compact native binary encoding ([`gserialized`]) standing in for
//!   PostGIS `GSERIALIZED` (the `_gs` fast path of §6.3, Query 5),
//! * metric and topological predicates ([`algorithms`]): distance,
//!   intersection tests, point-in-polygon, clipping,
//! * planar SRID transforms ([`transform`]).
//!
//! Everything is 2-D; the paper's evaluation never exercises Z.

#![forbid(unsafe_code)]

pub mod algorithms;
pub mod error;
pub mod geometry;
pub mod gserialized;
pub mod point;
pub mod transform;
pub mod wkb;
pub mod wkt;

pub use error::{GeoError, GeoResult};
pub use geometry::{Geometry, GeometryKind};
pub use point::Point;

/// The SRID used when none was specified (matches PostGIS convention).
pub const SRID_UNKNOWN: i32 = 0;
/// WGS-84 geographic coordinates.
pub const SRID_WGS84: i32 = 4326;
/// Spherical web Mercator.
pub const SRID_WEB_MERCATOR: i32 = 3857;
/// Belgian Lambert 2008 (used by the paper's §3.5 transform example).
pub const SRID_LAMBERT_2008: i32 = 3812;
/// VN-2000 / Vietnam TM-3 zone (Hanoi) — used by BerlinMOD-Hanoi.
pub const SRID_VN2000: i32 = 3405;
