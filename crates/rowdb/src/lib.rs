//! # mduck-rowdb — a row-oriented, tuple-at-a-time SQL engine
//!
//! The PostgreSQL/MobilityDB baseline of the MobilityDuck reproduction:
//! heap tables stored row-major, one-row-at-a-time evaluation through the
//! shared expression interpreter, hash joins for equality predicates, and
//! — when indexes are created, reproducing the paper's "MobilityDB with
//! indexes" scenario — B-tree (equality) and GiST-style (spatiotemporal)
//! index scans plus index nested-loop joins.
//!
//! It shares the SQL frontend (`mduck-sql`) and the extension function
//! registry with `quackdb`, so benchmark differences isolate the execution
//! model — exactly the variable the paper's Figure 12 varies.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod database;
pub mod exec;
pub mod index;

pub use catalog::{HeapTable, RowCatalog};
pub use database::{RowDatabase, RowQueryResult};
pub use exec::{execute_select, RowCtx};
pub use index::{BTreeIndexType, RowIndex, RowIndexRegistry, RowIndexType};
