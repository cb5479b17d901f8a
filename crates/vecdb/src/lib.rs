//! # quackdb — a columnar, vectorized, embeddable analytical SQL engine
//!
//! The DuckDB substrate of the MobilityDuck reproduction: in-process,
//! columnar storage, 2048-row vectorized execution, an extension registry
//! for user-defined types / casts / scalar functions / operators, a
//! pluggable index framework with optimizer scan injection (§4), and
//! DuckDB-style EXPLAIN rendering (Figure 1).
//!
//! ```
//! use quackdb::Database;
//!
//! let db = Database::new();
//! db.execute("CREATE TABLE t(a INTEGER, b VARCHAR)").unwrap();
//! db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')").unwrap();
//! let r = db.execute("SELECT b FROM t WHERE a = 2").unwrap();
//! assert_eq!(r.rows[0][0].to_string(), "two");
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod catalog;
pub mod column;
pub mod database;
pub mod exec;
pub mod explain;
pub mod expr;
pub mod fusion;
pub mod index;
pub mod join_order;
pub mod parallel;
pub mod prune;

pub use cache::CacheStats;
pub use catalog::{DbCatalog, Table};
pub use column::{Chunks, ColumnData, DataChunk, Payload, VECTOR_SIZE};
pub use database::{Database, EpochGuard, PreparedStatement, QueryResult};
pub use exec::{execute_select, EngineCtx, PhysOp};
pub use index::{IndexType, IndexTypeRegistry, TableIndex};
pub use mduck_sql::{CancelHandle, ExecGuard, ExecLimits};
