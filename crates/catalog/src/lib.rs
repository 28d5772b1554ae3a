//! Schema catalog for the view-matching library.
//!
//! This crate provides the metadata substrate that the view-matching
//! algorithm of Goldstein & Larson (SIGMOD 2001) relies on:
//!
//! * scalar [`types::ColumnType`]s and runtime [`types::Value`]s,
//! * [`schema::Table`] and [`schema::Column`] definitions with the four
//!   kinds of constraints the paper exploits (`NOT NULL`, primary keys,
//!   unique constraints, foreign keys),
//! * per-column [`stats::ColumnStats`] used by the cost model and the
//!   workload generator,
//! * the full TPC-H schema ([`tpch::tpch_catalog`]) used by every worked
//!   example in the paper and by the experimental evaluation.
//!
//! The catalog is deliberately independent of expressions, plans and data:
//! everything else in the workspace builds on top of it.

pub mod schema;
pub mod stats;
pub mod tpch;
pub mod types;

pub use schema::{
    Catalog, Column, ColumnId, ForeignKey, ForeignKeyId, Key, KeyKind, SchemaError, Table,
    TableBuilder, TableId,
};
pub use stats::{ColumnStats, TableStats};
pub use types::{ColumnType, KeyHasher, Value};
