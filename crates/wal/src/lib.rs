//! # mduck-wal — crash-safe durability for the MobilityDuck engines
//!
//! The paper's engines inherit durability from DuckDB's storage layer;
//! this crate is our reproduction's equivalent: a length-prefixed,
//! CRC32-checksummed write-ahead log plus checkpoint/recovery, shared
//! by both the vectorized and the row engine through
//! [`DurabilityManager`]. The in-memory default is unchanged — a
//! database only pays for durability after `Database::open(path)` or
//! `PRAGMA wal='path'`.
//!
//! Module map:
//! * [`crc32`] — hand-rolled IEEE CRC-32 (zero external deps).
//! * [`codec`] — reversible binary encoding of `Value`/`LogicalType`.
//! * [`record`] — logical WAL records (one per committed statement).
//! * [`snapshot`] — checkpoint images and their atomic-rename protocol.
//! * [`wal`] — the log file, recovery, and the append/checkpoint path.
//! * [`durable`] — the commit path both engines share: attach/recover,
//!   the commit lock, DDL commit rules, checkpoints, the WAL pragmas.
//! * [`failpoint`] — deterministic fault injection for all of the above.

#![forbid(unsafe_code)]

pub mod codec;
pub mod crc32;
pub mod durable;
pub mod failpoint;
pub mod record;
pub mod snapshot;
pub mod wal;

pub use durable::{dml_record, Commit, Durability, DurableEngine};
pub use failpoint::{FailAction, FailDecision};
pub use record::WalRecord;
pub use snapshot::{IndexDef, Snapshot, TableSnapshot};
pub use wal::{DurabilityManager, Recovery, DEFAULT_AUTO_CHECKPOINT_BYTES, WAL_HEADER_LEN};
