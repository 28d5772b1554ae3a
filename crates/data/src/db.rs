//! In-memory row storage and statistics collection.

use mv_catalog::{Catalog, ColumnStats, TableId, TableStats, Value};
use std::collections::HashSet;

/// One row: values in column order.
pub type Row = Vec<Value>;

/// An in-memory database: the catalog plus the rows of every base table.
#[derive(Debug, Clone)]
pub struct Database {
    /// The schema. Statistics are written back here by
    /// [`Database::collect_stats`].
    pub catalog: Catalog,
    /// Rows per table, indexed densely by [`TableId`] — the prove loop
    /// resolves scans on every database, so lookups must not hash.
    tables: Vec<Vec<Row>>,
    /// Which slots of `tables` have actually been loaded (an empty loaded
    /// table still gets statistics; a never-loaded one does not).
    loaded: Vec<bool>,
}

impl Database {
    /// An empty database over a schema.
    pub fn new(catalog: Catalog) -> Self {
        Database {
            catalog,
            tables: Vec::new(),
            loaded: Vec::new(),
        }
    }

    /// Replace the rows of a table. Panics if a row has the wrong arity —
    /// loading malformed data is a programming error.
    pub fn load(&mut self, table: TableId, rows: Vec<Row>) {
        let arity = self.catalog.table(table).columns.len();
        assert!(
            rows.iter().all(|r| r.len() == arity),
            "row arity mismatch for table {}",
            self.catalog.table(table).name
        );
        let i = table.0 as usize;
        if self.tables.len() <= i {
            self.tables.resize_with(i + 1, Vec::new);
            self.loaded.resize(i + 1, false);
        }
        self.tables[i] = rows;
        self.loaded[i] = true;
    }

    /// Replace the rows of a table with clones of `candidates[combo[..]]`,
    /// reusing the table's row buffers. Equivalent to
    /// `load(table, combo.iter().map(|&i| candidates[i].clone()).collect())`
    /// without the per-call allocations — the enumerator swaps configurations
    /// hundreds of thousands of times per proof.
    pub fn load_rows_by_index(&mut self, table: TableId, candidates: &[Row], combo: &[usize]) {
        let i = table.0 as usize;
        if self.tables.len() <= i {
            self.tables.resize_with(i + 1, Vec::new);
            self.loaded.resize(i + 1, false);
        }
        let rows = &mut self.tables[i];
        rows.truncate(combo.len());
        for (slot, &ci) in rows.iter_mut().zip(combo) {
            slot.clone_from(&candidates[ci]);
        }
        for &ci in &combo[rows.len()..] {
            rows.push(candidates[ci].clone());
        }
        self.loaded[i] = true;
    }

    /// Append rows to a table (the insert half of a base-table delta).
    /// Panics on arity mismatch, like [`Database::load`]. Marks the table
    /// loaded: a write round defines its contents even if it was never
    /// bulk-loaded.
    pub fn insert_rows(&mut self, table: TableId, rows: &[Row]) {
        let arity = self.catalog.table(table).columns.len();
        assert!(
            rows.iter().all(|r| r.len() == arity),
            "row arity mismatch for table {}",
            self.catalog.table(table).name
        );
        let i = table.0 as usize;
        if self.tables.len() <= i {
            self.tables.resize_with(i + 1, Vec::new);
            self.loaded.resize(i + 1, false);
        }
        self.tables[i].extend(rows.iter().cloned());
        self.loaded[i] = true;
    }

    /// Delete rows from a table by value, with bag semantics: each row in
    /// `rows` removes *one* matching stored row (`k` copies in the delta
    /// remove `k` duplicates). Returns the rows actually removed; deltas
    /// naming absent rows simply fall short, which the caller can treat
    /// as an error or ignore. Row order of survivors is preserved.
    pub fn delete_rows(&mut self, table: TableId, rows: &[Row]) -> Vec<Row> {
        let Some(stored) = self.tables.get_mut(table.0 as usize) else {
            return Vec::new();
        };
        let mut pending: Vec<&Row> = rows.iter().collect();
        let mut removed = Vec::with_capacity(rows.len());
        stored.retain_mut(|r| match pending.iter().position(|p| *p == r) {
            Some(pos) => {
                pending.swap_remove(pos);
                removed.push(std::mem::take(r));
                false
            }
            None => true,
        });
        removed
    }

    /// The rows of a table (empty slice if never loaded).
    pub fn rows(&self, table: TableId) -> &[Row] {
        self.tables
            .get(table.0 as usize)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Row count of a table.
    pub fn row_count(&self, table: TableId) -> usize {
        self.rows(table).len()
    }

    /// Compute per-column statistics for every loaded table and store them
    /// in the catalog.
    pub fn collect_stats(&mut self) {
        let stats: Vec<(TableId, TableStats)> = self
            .tables
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.loaded[i])
            .map(|(i, rows)| {
                let table = TableId(i as u32);
                (table, table_stats(&self.catalog, table, rows))
            })
            .collect();
        for (table, s) in stats {
            self.catalog.set_stats(table, s);
        }
    }

    /// Verify referential integrity of every declared foreign key: for
    /// each row, the (non-null) foreign-key values must appear as a key of
    /// the referenced table. Returns the number of violations found.
    ///
    /// The extra-table elimination of section 3.2 is only sound on data
    /// that satisfies its constraints, so the generator's tests call this.
    pub fn check_foreign_keys(&self) -> usize {
        let mut violations = 0;
        for (_, fk) in self.catalog.foreign_keys() {
            let referenced: HashSet<Vec<&Value>> = self
                .rows(fk.to_table)
                .iter()
                .map(|r| fk.to_columns.iter().map(|c| &r[c.0 as usize]).collect())
                .collect();
            for row in self.rows(fk.from_table) {
                let vals: Vec<&Value> =
                    fk.from_columns.iter().map(|c| &row[c.0 as usize]).collect();
                if vals.iter().any(|v| v.is_null()) {
                    continue; // nulls are exempt from FK validation
                }
                if !referenced.contains(&vals) {
                    violations += 1;
                }
            }
        }
        violations
    }
}

fn table_stats(catalog: &Catalog, table: TableId, rows: &[Row]) -> TableStats {
    let n_cols = catalog.table(table).columns.len();
    let mut columns = Vec::with_capacity(n_cols);
    for c in 0..n_cols {
        let mut min: Option<Value> = None;
        let mut max: Option<Value> = None;
        let mut distinct: HashSet<&Value> = HashSet::new();
        let mut nulls = 0usize;
        for row in rows {
            let v = &row[c];
            if v.is_null() {
                nulls += 1;
                continue;
            }
            distinct.insert(v);
            match &min {
                None => min = Some(v.clone()),
                Some(m) if v.total_cmp(m).is_lt() => min = Some(v.clone()),
                _ => {}
            }
            match &max {
                None => max = Some(v.clone()),
                Some(m) if v.total_cmp(m).is_gt() => max = Some(v.clone()),
                _ => {}
            }
        }
        columns.push(ColumnStats {
            min: min.unwrap_or(Value::Null),
            max: max.unwrap_or(Value::Null),
            ndv: distinct.len() as u64,
            null_fraction: if rows.is_empty() {
                0.0
            } else {
                nulls as f64 / rows.len() as f64
            },
        });
    }
    TableStats {
        rows: rows.len() as u64,
        columns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_catalog::schema::TableBuilder;
    use mv_catalog::ColumnType;

    fn small_db() -> (Database, TableId) {
        let mut cat = Catalog::new();
        let t = cat.add_table(
            TableBuilder::new("t")
                .col("a", ColumnType::Int)
                .nullable_col("b", ColumnType::Int)
                .primary_key(&["a"])
                .build(),
        );
        let mut db = Database::new(cat);
        db.load(
            t,
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Null],
                vec![Value::Int(3), Value::Int(10)],
                vec![Value::Int(4), Value::Int(30)],
            ],
        );
        (db, t)
    }

    #[test]
    fn stats_collection() {
        let (mut db, t) = small_db();
        db.collect_stats();
        let stats = db.catalog.stats(t).unwrap();
        assert_eq!(stats.rows, 4);
        assert_eq!(stats.columns[0].ndv, 4);
        assert_eq!(stats.columns[0].min, Value::Int(1));
        assert_eq!(stats.columns[0].max, Value::Int(4));
        assert_eq!(stats.columns[1].ndv, 2);
        assert!((stats.columns[1].null_fraction - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fk_checking() {
        use mv_catalog::schema::ForeignKey;
        use mv_catalog::ColumnId;
        let mut cat = Catalog::new();
        let s = cat.add_table(
            TableBuilder::new("s")
                .col("k", ColumnType::Int)
                .primary_key(&["k"])
                .build(),
        );
        let t = cat.add_table(
            TableBuilder::new("t")
                .nullable_col("f", ColumnType::Int)
                .build(),
        );
        cat.add_foreign_key(ForeignKey {
            name: "t_f".into(),
            from_table: t,
            from_columns: vec![ColumnId(0)],
            to_table: s,
            to_columns: vec![ColumnId(0)],
        });
        let mut db = Database::new(cat);
        db.load(s, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        db.load(
            t,
            vec![
                vec![Value::Int(1)],
                vec![Value::Null],   // exempt
                vec![Value::Int(9)], // violation
            ],
        );
        assert_eq!(db.check_foreign_keys(), 1);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked_on_load() {
        let (mut db, t) = small_db();
        db.load(t, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn insert_and_delete_are_bag_operations() {
        let (mut db, t) = small_db();
        db.insert_rows(
            t,
            &[
                vec![Value::Int(5), Value::Int(10)],
                vec![Value::Int(5), Value::Int(10)],
            ],
        );
        assert_eq!(db.row_count(t), 6);
        // Deleting one copy leaves the other.
        let removed = db.delete_rows(t, &[vec![Value::Int(5), Value::Int(10)]]);
        assert_eq!(removed, vec![vec![Value::Int(5), Value::Int(10)]]);
        assert_eq!(db.row_count(t), 5);
        assert_eq!(
            db.rows(t).iter().filter(|r| r[0] == Value::Int(5)).count(),
            1
        );
        // Absent rows fall short rather than panic.
        let removed = db.delete_rows(t, &[vec![Value::Int(77), Value::Null]]);
        assert!(removed.is_empty());
    }

    #[test]
    fn unloaded_table_is_empty() {
        let (db, _) = small_db();
        let other = TableId(99);
        assert_eq!(db.rows(other).len(), 0);
        assert_eq!(db.row_count(other), 0);
    }
}
