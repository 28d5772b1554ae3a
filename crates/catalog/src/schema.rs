//! Tables, columns and the four constraint kinds the matching algorithm
//! exploits (section 3 of the paper): `NOT NULL`, primary keys, unique
//! constraints, and foreign keys.

use crate::stats::TableStats;
use crate::types::ColumnType;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a base table within a [`Catalog`] (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

/// Identifier of a column within its table (position).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnId(pub u32);

/// Identifier of a foreign key within a [`Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ForeignKeyId(pub u32);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A column definition.
#[derive(Debug, Clone)]
pub struct Column {
    /// Column name (unique within the table).
    pub name: String,
    /// Static type.
    pub ty: ColumnType,
    /// `NOT NULL` declaration. Cardinality-preserving join detection
    /// (section 3.2) requires all foreign-key columns to be non-null.
    pub not_null: bool,
}

/// The kind of a declared key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyKind {
    /// Primary key: unique and implicitly `NOT NULL`.
    Primary,
    /// Unique constraint or unique index.
    Unique,
}

/// A uniqueness constraint over a set of columns.
#[derive(Debug, Clone)]
pub struct Key {
    /// Primary or merely unique.
    pub kind: KeyKind,
    /// The key columns, in declaration order.
    pub columns: Vec<ColumnId>,
}

/// A base-table definition.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name (unique within the catalog).
    pub name: String,
    /// Columns, addressed by [`ColumnId`] = position.
    pub columns: Vec<Column>,
    /// Declared keys (primary first by convention, but not required).
    pub keys: Vec<Key>,
}

impl Table {
    /// Look up a column by name.
    pub fn column_by_name(&self, name: &str) -> Option<(ColumnId, &Column)> {
        self.columns
            .iter()
            .enumerate()
            .find(|(_, c)| c.name == name)
            .map(|(i, c)| (ColumnId(i as u32), c))
    }

    /// The column definition for `id`. Panics if out of range.
    pub fn column(&self, id: ColumnId) -> &Column {
        &self.columns[id.0 as usize]
    }

    /// Whether `cols` is a superset of some declared key (i.e. uniquely
    /// identifies rows).
    ///
    /// The extra-table test of section 3.2 requires the *referenced* side of
    /// a foreign key to be a unique key of the referenced table.
    pub fn covers_key(&self, cols: &[ColumnId]) -> bool {
        self.keys
            .iter()
            .any(|k| k.columns.iter().all(|kc| cols.contains(kc)))
    }

    /// Whether `cols` is exactly equal (as a set) to some declared key.
    pub fn is_key(&self, cols: &[ColumnId]) -> bool {
        self.keys
            .iter()
            .any(|k| k.columns.len() == cols.len() && k.columns.iter().all(|kc| cols.contains(kc)))
    }
}

/// A foreign-key constraint from `from_table.from_columns[i]` to
/// `to_table.to_columns[i]` for each `i`.
///
/// The paper's cardinality-preserving-join test (section 3.2) requires an
/// equijoin between **all** columns of a non-null foreign key and a unique
/// key of the referenced table; `ForeignKey` carries everything needed to
/// check those requirements.
#[derive(Debug, Clone)]
pub struct ForeignKey {
    /// Constraint name (diagnostics only).
    pub name: String,
    /// Referencing table.
    pub from_table: TableId,
    /// Referencing columns.
    pub from_columns: Vec<ColumnId>,
    /// Referenced table.
    pub to_table: TableId,
    /// Referenced columns (must form a unique key of `to_table`).
    pub to_columns: Vec<ColumnId>,
}

/// The schema catalog: base tables plus foreign keys, and optional
/// statistics per table.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Vec<Table>,
    by_name: HashMap<String, TableId>,
    /// Every column of every table, by column name.
    columns_named: HashMap<String, Vec<(TableId, ColumnId)>>,
    foreign_keys: Vec<ForeignKey>,
    /// Outgoing foreign keys indexed by referencing table.
    fks_from: HashMap<TableId, Vec<ForeignKeyId>>,
    stats: HashMap<TableId, TableStats>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table. Panics if the name is already taken (schema
    /// definition bugs should fail fast).
    pub fn add_table(&mut self, table: Table) -> TableId {
        assert!(
            !self.by_name.contains_key(&table.name),
            "duplicate table name {}",
            table.name
        );
        let id = TableId(self.tables.len() as u32);
        self.by_name.insert(table.name.clone(), id);
        for (i, column) in table.columns.iter().enumerate() {
            self.columns_named
                .entry(column.name.clone())
                .or_default()
                .push((id, ColumnId(i as u32)));
        }
        self.tables.push(table);
        id
    }

    /// Register a foreign key. Validates that the referenced columns form a
    /// unique key of the referenced table, which the paper's extra-table
    /// test assumes. Panics on an invalid declaration; use
    /// [`Catalog::try_add_foreign_key`] to handle the error instead.
    pub fn add_foreign_key(&mut self, fk: ForeignKey) -> ForeignKeyId {
        self.try_add_foreign_key(fk)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Catalog::add_foreign_key`] with a typed error instead of a panic.
    pub fn try_add_foreign_key(&mut self, fk: ForeignKey) -> Result<ForeignKeyId, SchemaError> {
        if fk.from_columns.len() != fk.to_columns.len() {
            return Err(SchemaError::FkArityMismatch {
                name: fk.name.clone(),
            });
        }
        if !self.table(fk.to_table).covers_key(&fk.to_columns) {
            return Err(SchemaError::FkNotUniqueKey {
                name: fk.name.clone(),
            });
        }
        Ok(self.add_foreign_key_unchecked(fk))
    }

    /// Register a foreign key **without** validating it. For ingesting
    /// externally-sourced catalogs whose declarations cannot be trusted
    /// (and for seeding corrupt metadata in the `mv-audit` test suite);
    /// pair with `mv-audit`'s metadata validation pass, which reports
    /// broken declarations as MV12x diagnostics instead of panicking.
    pub fn add_foreign_key_unchecked(&mut self, fk: ForeignKey) -> ForeignKeyId {
        let id = ForeignKeyId(self.foreign_keys.len() as u32);
        self.fks_from.entry(fk.from_table).or_default().push(id);
        self.foreign_keys.push(fk);
        id
    }

    /// Attach (or replace) statistics for a table.
    pub fn set_stats(&mut self, table: TableId, stats: TableStats) {
        self.stats.insert(table, stats);
    }

    /// Statistics for a table, if collected.
    pub fn stats(&self, table: TableId) -> Option<&TableStats> {
        self.stats.get(&table)
    }

    /// The table definition for `id`. Panics if out of range.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.0 as usize]
    }

    /// Look up a table by name.
    pub fn table_by_name(&self, name: &str) -> Option<TableId> {
        self.by_name.get(name).copied()
    }

    /// Every column named `name`, in table registration order.
    pub fn columns_named(&self, name: &str) -> &[(TableId, ColumnId)] {
        self.columns_named.get(name).map_or(&[], Vec::as_slice)
    }

    /// All tables with their ids.
    pub fn tables(&self) -> impl Iterator<Item = (TableId, &Table)> {
        self.tables
            .iter()
            .enumerate()
            .map(|(i, t)| (TableId(i as u32), t))
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// The foreign key definition for `id`.
    pub fn foreign_key(&self, id: ForeignKeyId) -> &ForeignKey {
        &self.foreign_keys[id.0 as usize]
    }

    /// All foreign keys.
    pub fn foreign_keys(&self) -> impl Iterator<Item = (ForeignKeyId, &ForeignKey)> {
        self.foreign_keys
            .iter()
            .enumerate()
            .map(|(i, fk)| (ForeignKeyId(i as u32), fk))
    }

    /// Foreign keys whose referencing side is `table`.
    pub fn foreign_keys_from(&self, table: TableId) -> impl Iterator<Item = ForeignKeyId> + '_ {
        self.fks_from
            .get(&table)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .copied()
    }

    /// Whether all referencing columns of `fk` are declared `NOT NULL` —
    /// one of the five requirements for a cardinality-preserving join.
    pub fn fk_is_non_null(&self, fk: ForeignKeyId) -> bool {
        let fk = self.foreign_key(fk);
        let t = self.table(fk.from_table);
        fk.from_columns.iter().all(|c| t.column(*c).not_null)
    }

    /// Resolve `table.column` names to ids.
    pub fn resolve(&self, table: &str, column: &str) -> Option<(TableId, ColumnId)> {
        let t = self.table_by_name(table)?;
        let (c, _) = self.table(t).column_by_name(column)?;
        Some((t, c))
    }
}

/// Error raised while defining a table through [`TableBuilder`] or a
/// foreign key through [`Catalog::try_add_foreign_key`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// A key or unique constraint referenced a column name that was never
    /// added to the table.
    UnknownColumn {
        /// The table being built.
        table: String,
        /// The unresolved column name.
        column: String,
    },
    /// A foreign key's referencing and referenced column lists differ in
    /// length.
    FkArityMismatch {
        /// The constraint name.
        name: String,
    },
    /// A foreign key's referenced columns cover no unique key of the
    /// referenced table (required by the paper's §3.2 extra-table test).
    FkNotUniqueKey {
        /// The constraint name.
        name: String,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::UnknownColumn { table, column } => {
                write!(f, "unknown column {column} in {table}")
            }
            SchemaError::FkArityMismatch { name } => {
                write!(f, "foreign key {name} has mismatched column counts")
            }
            SchemaError::FkNotUniqueKey { name } => {
                write!(f, "foreign key {name} does not reference a unique key")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// Builder-style convenience for defining tables in tests and schemas.
pub struct TableBuilder {
    table: Table,
    /// First constraint-resolution failure, reported by
    /// [`TableBuilder::try_build`] (chained builder calls cannot return
    /// `Result` themselves).
    error: Option<SchemaError>,
}

impl TableBuilder {
    /// Start a table definition.
    pub fn new(name: &str) -> Self {
        TableBuilder {
            table: Table {
                name: name.to_string(),
                columns: Vec::new(),
                keys: Vec::new(),
            },
            error: None,
        }
    }

    /// Add a `NOT NULL` column.
    pub fn col(mut self, name: &str, ty: ColumnType) -> Self {
        self.table.columns.push(Column {
            name: name.to_string(),
            ty,
            not_null: true,
        });
        self
    }

    /// Add a nullable column.
    pub fn nullable_col(mut self, name: &str, ty: ColumnType) -> Self {
        self.table.columns.push(Column {
            name: name.to_string(),
            ty,
            not_null: false,
        });
        self
    }

    /// Declare the primary key by column names (must already be added).
    pub fn primary_key(mut self, cols: &[&str]) -> Self {
        if let Some(ids) = self.resolve_cols(cols) {
            self.table.keys.push(Key {
                kind: KeyKind::Primary,
                columns: ids,
            });
        }
        self
    }

    /// Declare a unique constraint by column names.
    pub fn unique(mut self, cols: &[&str]) -> Self {
        if let Some(ids) = self.resolve_cols(cols) {
            self.table.keys.push(Key {
                kind: KeyKind::Unique,
                columns: ids,
            });
        }
        self
    }

    /// Resolve names to ids, recording the first failure for
    /// [`TableBuilder::try_build`].
    fn resolve_cols(&mut self, cols: &[&str]) -> Option<Vec<ColumnId>> {
        let mut ids = Vec::with_capacity(cols.len());
        for n in cols {
            match self.table.column_by_name(n) {
                Some((id, _)) => ids.push(id),
                None => {
                    self.error
                        .get_or_insert_with(|| SchemaError::UnknownColumn {
                            table: self.table.name.clone(),
                            column: n.to_string(),
                        });
                    return None;
                }
            }
        }
        Some(ids)
    }

    /// Finish the definition, surfacing any constraint-resolution error.
    pub fn try_build(self) -> Result<Table, SchemaError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.table),
        }
    }

    /// Finish the definition. Panics on an invalid constraint; use
    /// [`TableBuilder::try_build`] to handle the error instead.
    pub fn build(self) -> Table {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_table_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let t = TableBuilder::new("t")
            .col("a", ColumnType::Int)
            .col("b", ColumnType::Int)
            .nullable_col("c", ColumnType::Str)
            .primary_key(&["a"])
            .build();
        let s = TableBuilder::new("s")
            .col("x", ColumnType::Int)
            .col("y", ColumnType::Float)
            .primary_key(&["x"])
            .unique(&["y"])
            .build();
        let tid = cat.add_table(t);
        let sid = cat.add_table(s);
        cat.add_foreign_key(ForeignKey {
            name: "t_b_fk".into(),
            from_table: tid,
            from_columns: vec![ColumnId(1)],
            to_table: sid,
            to_columns: vec![ColumnId(0)],
        });
        cat
    }

    #[test]
    fn lookup_by_name() {
        let cat = two_table_catalog();
        let tid = cat.table_by_name("t").unwrap();
        assert_eq!(cat.table(tid).name, "t");
        let (cid, col) = cat.table(tid).column_by_name("c").unwrap();
        assert_eq!(cid, ColumnId(2));
        assert!(!col.not_null);
        assert_eq!(cat.resolve("s", "y"), Some((TableId(1), ColumnId(1))));
        assert_eq!(cat.resolve("s", "nope"), None);
        assert_eq!(cat.resolve("nope", "y"), None);
        assert_eq!(cat.columns_named("c"), &[(tid, ColumnId(2))]);
        assert_eq!(cat.columns_named("nope"), &[]);
    }

    #[test]
    fn key_coverage() {
        let cat = two_table_catalog();
        let s = cat.table(cat.table_by_name("s").unwrap());
        assert!(s.covers_key(&[ColumnId(0)]));
        assert!(s.covers_key(&[ColumnId(0), ColumnId(1)]));
        assert!(s.covers_key(&[ColumnId(1)])); // unique(y)
        assert!(s.is_key(&[ColumnId(0)]));
        assert!(!s.is_key(&[ColumnId(0), ColumnId(1)]));
        let t = cat.table(cat.table_by_name("t").unwrap());
        assert!(!t.covers_key(&[ColumnId(1)]));
    }

    #[test]
    fn foreign_key_queries() {
        let cat = two_table_catalog();
        let tid = cat.table_by_name("t").unwrap();
        let fks: Vec<_> = cat.foreign_keys_from(tid).collect();
        assert_eq!(fks.len(), 1);
        assert!(cat.fk_is_non_null(fks[0]));
        let sid = cat.table_by_name("s").unwrap();
        assert_eq!(cat.foreign_keys_from(sid).count(), 0);
    }

    #[test]
    #[should_panic(expected = "does not reference a unique key")]
    fn fk_must_reference_unique_key() {
        let mut cat = two_table_catalog();
        let tid = cat.table_by_name("t").unwrap();
        let sid = cat.table_by_name("s").unwrap();
        // s has no key on column index 1 alone? It does (unique y). Use a
        // non-key column of t as target instead.
        cat.add_foreign_key(ForeignKey {
            name: "bad".into(),
            from_table: sid,
            from_columns: vec![ColumnId(0)],
            to_table: tid,
            to_columns: vec![ColumnId(1)],
        });
    }

    #[test]
    fn try_add_foreign_key_reports_typed_errors() {
        let mut cat = two_table_catalog();
        let tid = cat.table_by_name("t").unwrap();
        let sid = cat.table_by_name("s").unwrap();
        let err = cat
            .try_add_foreign_key(ForeignKey {
                name: "bad_arity".into(),
                from_table: sid,
                from_columns: vec![ColumnId(0), ColumnId(1)],
                to_table: tid,
                to_columns: vec![ColumnId(0)],
            })
            .unwrap_err();
        assert_eq!(
            err,
            SchemaError::FkArityMismatch {
                name: "bad_arity".into()
            }
        );
        let err = cat
            .try_add_foreign_key(ForeignKey {
                name: "bad_key".into(),
                from_table: sid,
                from_columns: vec![ColumnId(0)],
                to_table: tid,
                to_columns: vec![ColumnId(1)],
            })
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "foreign key bad_key does not reference a unique key"
        );
        // The unchecked path records the declaration as given.
        let before = cat.foreign_keys().count();
        cat.add_foreign_key_unchecked(ForeignKey {
            name: "bad_key".into(),
            from_table: sid,
            from_columns: vec![ColumnId(0)],
            to_table: tid,
            to_columns: vec![ColumnId(1)],
        });
        assert_eq!(cat.foreign_keys().count(), before + 1);
    }

    #[test]
    #[should_panic(expected = "duplicate table name")]
    fn duplicate_table_rejected() {
        let mut cat = two_table_catalog();
        cat.add_table(TableBuilder::new("t").col("z", ColumnType::Int).build());
    }

    #[test]
    fn try_build_reports_unknown_column() {
        let err = TableBuilder::new("t")
            .col("a", ColumnType::Int)
            .primary_key(&["missing"])
            .try_build()
            .unwrap_err();
        assert_eq!(
            err,
            SchemaError::UnknownColumn {
                table: "t".into(),
                column: "missing".into(),
            }
        );
        assert_eq!(err.to_string(), "unknown column missing in t");
    }

    #[test]
    #[should_panic(expected = "unknown column missing in t")]
    fn build_panics_on_unknown_column() {
        let _ = TableBuilder::new("t")
            .col("a", ColumnType::Int)
            .unique(&["missing"])
            .build();
    }
}
