//! # mduck-sql — the shared SQL frontend
//!
//! Lexer, parser, binder, registries, and runtime values shared by the two
//! execution engines of this workspace:
//!
//! * `quackdb` — the columnar, vectorized engine standing in for DuckDB,
//! * `mduck-rowdb` — the row-oriented Volcano engine standing in for
//!   PostgreSQL/MobilityDB.
//!
//! Sharing the frontend isolates exactly the variable the paper's
//! evaluation varies: the execution model.

#![forbid(unsafe_code)]

pub mod ast;
pub mod binder;
pub mod bound;
pub mod builtins;
pub mod catalog;
pub mod error;
pub mod eval;
pub mod guard;
pub mod index;
pub mod introspect;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod quantified;
pub mod registry;
pub mod session;
pub mod template;
pub mod value;

pub use ast::{BinaryOp, Expr, InsertSource, PragmaValue, SelectStmt, Statement, TableRef};
pub use binder::Binder;
pub use bound::{
    cmp_order_keys, split_conjuncts, BoundAggregate, BoundExpr, BoundFrom, BoundOrder,
    BoundSelect, Catalog, Field, Schema, SortKey,
};
pub use error::{SqlError, SqlResult};
pub use eval::{compare, eval, OuterStack, SubqueryExec};
pub use guard::{CancelHandle, ExecGuard, ExecLimits, GuardTrip};
pub use lexer::Shape;
pub use parser::{parse_script, parse_statement, parse_template};
pub use registry::{AggState, FusionRule, Registry, ScalarFn, ScalarSig};
pub use session::{QueryResult, Session};
pub use template::Slots;
pub use value::{ExtObject, ExtValue, LogicalType, Value};
