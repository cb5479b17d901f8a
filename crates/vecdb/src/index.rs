//! The pluggable index framework (§4.1), shared with the row engine:
//! see [`mduck_sql::index`].

pub use mduck_sql::index::{IndexType, IndexTypeRegistry, TableIndex};
