//! # mduck-temporal — the MEOS-equivalent temporal algebra
//!
//! A from-scratch Rust implementation of the temporal and spatiotemporal
//! type system that the MEOS C library provides to MobilityDB and (via the
//! extension this workspace reproduces) to MobilityDuck:
//!
//! * template types over ordered bases: [`span::Span`], [`set::Set`],
//!   [`spanset::SpanSet`] — `intspan`, `tstzset`, `floatspanset`, ...,
//! * bounding boxes: [`boxes::TBox`], [`boxes::STBox`],
//! * temporal types: [`temporal::Temporal`] over bool / int / float / text /
//!   geometry points (`tbool`, `tint`, `tfloat`, `ttext`, `tgeompoint`),
//!   with instant / discrete / step / linear subtypes,
//! * the MobilityDB literal grammar (parse and print),
//! * restriction, accessor, relationship, and aggregation operators,
//!   including the synchronized spatial relationships (`tDwithin`,
//!   `eDwithin`, `eIntersects`) the paper's benchmark queries use.

#![forbid(unsafe_code)]

pub mod binser;
pub mod boxes;
pub mod error;
pub mod set;
pub mod span;
pub mod spanset;
pub mod temporal;
pub mod time;

pub use boxes::{parse_stbox, parse_tbox, STBox, TBox};
pub use error::{TemporalError, TemporalResult};
pub use set::{parse_geomset, parse_set, GeomSet, Set};
pub use span::{parse_span, FloatSpan, IntSpan, Span, TstzSpan};
pub use spanset::{parse_spanset, SpanSet, TstzSpanSet};
pub use time::{parse_date, parse_interval, parse_timestamp, Date, Interval, TimestampTz};
