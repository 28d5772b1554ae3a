//! Bounded, constraint-aware database enumeration for the `mv-prove`
//! bounded model checker (DESIGN.md §15).
//!
//! Given a per-column finite value domain and a row bound `k`, the
//! enumerator walks **every** database over the supplied tables with at
//! most `k` rows per table whose contents satisfy the schema's integrity
//! constraints:
//!
//! * declared keys are unique (SQL semantics: rows carrying a NULL in a
//!   key column never collide),
//! * single-column foreign keys take values only from the keys actually
//!   present in the referenced table (Chirkova-style *relative*
//!   equivalence: only constraint-satisfying databases are considered),
//!   with NULL still allowed on nullable referencing columns,
//! * multi-column foreign keys are validated row-by-row against the
//!   referenced table's contents,
//! * declared check constraints hold on every row (SQL semantics: a row
//!   is rejected only when the predicate evaluates to FALSE — UNKNOWN
//!   passes, exactly as `CHECK` behaves under NULL).
//!
//! Enumeration order is deterministic and independent of any budget, so
//! the running index doubles as a **replayable seed**: `database_at(i)`
//! reconstructs exactly the database a prior walk reported at index `i`.
//! Tables must be listed in foreign-key topological order (referenced
//! before referencing — see [`topo_order`]) so the FK domain restriction
//! can see the referenced rows.

use crate::db::{Database, Row};
use mv_catalog::{Catalog, ColumnType, TableId, Value};
use mv_expr::{ColRef, Conjunct};
use std::collections::HashMap;

/// Finite value domain of one column.
#[derive(Debug, Clone, Default)]
pub struct ColumnDomain {
    /// Candidate non-NULL values, in enumeration order.
    pub values: Vec<Value>,
    /// Additionally try NULL (only meaningful on nullable columns).
    pub with_null: bool,
}

impl ColumnDomain {
    /// A domain holding exactly the given values, never NULL.
    pub fn of(values: Vec<Value>) -> Self {
        ColumnDomain {
            values,
            with_null: false,
        }
    }

    /// The canonical single default value for a column type — used for
    /// columns the proved pair never references.
    pub fn default_value(ty: ColumnType) -> Value {
        match ty {
            ColumnType::Int => Value::Int(0),
            ColumnType::Float => Value::Float(0.0),
            ColumnType::Str => Value::Str("a".into()),
            ColumnType::Date => Value::Date(0),
        }
    }
}

/// The domain of one table: a [`ColumnDomain`] per column, in column
/// order (full arity).
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// The table.
    pub table: TableId,
    /// Per-column domains, `columns.len()` = the table's arity.
    pub columns: Vec<ColumnDomain>,
}

/// A full enumeration specification: tables in FK topological order plus
/// the row bound `k`.
#[derive(Debug, Clone)]
pub struct EnumSpec {
    /// Tables to populate, referenced tables before referencing ones.
    pub tables: Vec<TableSpec>,
    /// Maximum rows per table (the bound `k`).
    pub max_rows: usize,
}

/// How an enumeration walk ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnumOutcome {
    /// Every database up to the bound was visited.
    Exhausted,
    /// The database budget ran out first.
    BudgetExhausted,
    /// The visitor asked to stop (counterexample found).
    Stopped,
    /// A table's row domain exceeded [`MAX_ROW_DOMAIN`]; nothing visited.
    DomainTooLarge,
}

/// Result of an enumeration walk.
#[derive(Debug, Clone, Copy)]
pub struct EnumStats {
    /// Databases visited (equivalently: the next index to be assigned).
    pub databases: u64,
    /// Why the walk ended.
    pub outcome: EnumOutcome,
}

/// Hard cap on candidate rows per table; above this the spec is refused
/// rather than silently truncated (the caller reports it as a bound).
pub const MAX_ROW_DOMAIN: usize = 4096;

/// Order `tables` so every referenced table precedes its referencing
/// tables (foreign keys restricted to the set). `None` on an FK cycle.
/// Ties break by `TableId`, so the order is deterministic.
pub fn topo_order(catalog: &Catalog, tables: &[TableId]) -> Option<Vec<TableId>> {
    let mut set: Vec<TableId> = tables.to_vec();
    set.sort();
    set.dedup();
    let mut out = Vec::with_capacity(set.len());
    let mut placed: Vec<bool> = vec![false; set.len()];
    while out.len() < set.len() {
        let mut progressed = false;
        for (i, &t) in set.iter().enumerate() {
            if placed[i] {
                continue;
            }
            // A table is ready when every table it references (within the
            // set) is already placed.
            let ready = catalog.foreign_keys_from(t).all(|fkid| {
                let to = catalog.foreign_key(fkid).to_table;
                to == t || !set.contains(&to) || out.contains(&to)
            });
            if ready {
                out.push(t);
                placed[i] = true;
                progressed = true;
            }
        }
        if !progressed {
            return None; // cycle
        }
    }
    Some(out)
}

/// The bounded database enumerator. Borrows the catalog, the declared
/// check constraints (per table, column references in table space with
/// `occ = 0`), and the spec.
pub struct Enumerator<'a> {
    catalog: &'a Catalog,
    checks: &'a HashMap<TableId, Vec<Conjunct>>,
    spec: &'a EnumSpec,
}

impl<'a> Enumerator<'a> {
    /// Build an enumerator. The spec's tables must already be in FK
    /// topological order (see [`topo_order`]).
    pub fn new(
        catalog: &'a Catalog,
        checks: &'a HashMap<TableId, Vec<Conjunct>>,
        spec: &'a EnumSpec,
    ) -> Self {
        Enumerator {
            catalog,
            checks,
            spec,
        }
    }

    /// Visit every valid database up to the bound, in deterministic
    /// order, calling `f(index, db)` for each. `f` returns `false` to
    /// stop early. At most `budget` databases are visited.
    pub fn for_each(&self, budget: u64, mut f: impl FnMut(u64, &Database) -> bool) -> EnumStats {
        let mut db = Database::new(self.catalog.clone());
        let mut index = 0u64;
        let outcome = self.recurse(0, &mut db, budget, &mut index, &mut f);
        EnumStats {
            databases: index,
            outcome,
        }
    }

    /// Count the databases up to the bound, visiting at most `cap`.
    /// Returns the count and whether the space was exhausted.
    pub fn count(&self, cap: u64) -> (u64, bool) {
        let stats = self.for_each(cap, |_, _| true);
        (stats.databases, stats.outcome == EnumOutcome::Exhausted)
    }

    /// Reconstruct the database a walk assigned `index` — the replayable
    /// seed of an `MV302` counterexample. `None` when the space holds
    /// fewer databases.
    pub fn database_at(&self, index: u64) -> Option<Database> {
        let mut found = None;
        self.for_each(index.checked_add(1)?, |i, db| {
            if i == index {
                found = Some(db.clone());
                false
            } else {
                true
            }
        });
        found
    }

    fn recurse(
        &self,
        ti: usize,
        db: &mut Database,
        budget: u64,
        index: &mut u64,
        f: &mut impl FnMut(u64, &Database) -> bool,
    ) -> EnumOutcome {
        if ti == self.spec.tables.len() {
            if *index >= budget {
                return EnumOutcome::BudgetExhausted;
            }
            let i = *index;
            *index += 1;
            return if f(i, db) {
                EnumOutcome::Exhausted
            } else {
                EnumOutcome::Stopped
            };
        }
        let ts = &self.spec.tables[ti];
        let Some(rows) = self.row_candidates(ts, db) else {
            return EnumOutcome::DomainTooLarge;
        };
        let table = self.catalog.table(ts.table);
        let has_key = !table.keys.is_empty();
        let mut combo: Vec<usize> = Vec::new();
        for n_rows in 0..=self.spec.max_rows {
            combo.clear();
            if has_key {
                // Set semantics: strictly-increasing tuples start at 0..n.
                if n_rows > rows.len() {
                    break; // needs n_rows distinct rows
                }
                combo.extend(0..n_rows);
            } else {
                // Bag semantics: non-decreasing tuples start all-zero so
                // duplicate-row configurations are enumerated too.
                combo.resize(n_rows, 0);
            }
            loop {
                if combo.len() == n_rows
                    && (n_rows == 0 || *combo.last().unwrap() < rows.len())
                    && self.config_valid(ts.table, &rows, &combo, db)
                {
                    db.load_rows_by_index(ts.table, &rows, &combo);
                    let out = self.recurse(ti + 1, db, budget, index, f);
                    if out != EnumOutcome::Exhausted {
                        db.load_rows_by_index(ts.table, &[], &[]);
                        return out;
                    }
                }
                if n_rows == 0 || !next_combo(&mut combo, rows.len(), has_key) {
                    break;
                }
            }
        }
        db.load_rows_by_index(ts.table, &[], &[]);
        EnumOutcome::Exhausted
    }

    /// All candidate rows of one table, given the referenced tables
    /// already populated in `db`: the cartesian product of the column
    /// domains with single-column FK columns restricted to the keys
    /// present in the referenced table, filtered by the table's check
    /// constraints. `None` when the product exceeds [`MAX_ROW_DOMAIN`].
    fn row_candidates(&self, ts: &TableSpec, db: &Database) -> Option<Vec<Row>> {
        let in_spec = |t: TableId| self.spec.tables.iter().any(|s| s.table == t);
        let table = self.catalog.table(ts.table);
        let mut columns: Vec<Vec<Value>> = Vec::with_capacity(ts.columns.len());
        for (ci, dom) in ts.columns.iter().enumerate() {
            let mut vals = dom.values.clone();
            for fkid in self.catalog.foreign_keys_from(ts.table) {
                let fk = self.catalog.foreign_key(fkid);
                if fk.from_columns.len() == 1
                    && fk.from_columns[0].0 as usize == ci
                    && fk.to_table != ts.table
                    && in_spec(fk.to_table)
                {
                    // Values restricted to the referenced keys present.
                    let to_col = fk.to_columns[0].0 as usize;
                    let present: Vec<&Value> = db
                        .rows(fk.to_table)
                        .iter()
                        .map(|r| &r[to_col])
                        .filter(|v| !v.is_null())
                        .collect();
                    vals.retain(|v| present.contains(&v));
                }
            }
            if dom.with_null && !table.columns[ci].not_null {
                vals.push(Value::Null);
            }
            if vals.is_empty() {
                // This column admits no value: the table can only be empty.
                return Some(Vec::new());
            }
            columns.push(vals);
        }
        let mut total = 1usize;
        for c in &columns {
            total = total.checked_mul(c.len())?;
            if total > MAX_ROW_DOMAIN {
                return None;
            }
        }
        let checks = self.checks.get(&ts.table);
        let mut rows = Vec::with_capacity(total);
        let mut idx = vec![0usize; columns.len()];
        'outer: loop {
            let row: Row = idx
                .iter()
                .zip(&columns)
                .map(|(&i, c)| c[i].clone())
                .collect();
            if self.row_passes_checks(checks, &row) {
                rows.push(row);
            }
            // Odometer, last column fastest.
            for pos in (0..columns.len()).rev() {
                idx[pos] += 1;
                if idx[pos] < columns[pos].len() {
                    continue 'outer;
                }
                idx[pos] = 0;
            }
            break;
        }
        if columns.is_empty() {
            rows.clear(); // zero-column tables hold no enumerable rows
        }
        Some(rows)
    }

    /// SQL CHECK semantics: a row is invalid only when some constraint
    /// evaluates to FALSE; UNKNOWN (NULL involved) passes.
    fn row_passes_checks(&self, checks: Option<&Vec<Conjunct>>, row: &Row) -> bool {
        let Some(checks) = checks else { return true };
        let get = |c: ColRef| row[c.col.0 as usize].clone();
        checks.iter().all(|c| c.to_bool().eval(&get) != Some(false))
    }

    /// Key uniqueness plus multi-column FK validity for one candidate
    /// row combination.
    fn config_valid(&self, t: TableId, rows: &[Row], combo: &[usize], db: &Database) -> bool {
        let table = self.catalog.table(t);
        for key in &table.keys {
            for (a, &ia) in combo.iter().enumerate() {
                for &ib in combo.iter().skip(a + 1) {
                    let collide = key.columns.iter().all(|c| {
                        let (va, vb) = (&rows[ia][c.0 as usize], &rows[ib][c.0 as usize]);
                        // SQL uniqueness: NULLs never collide.
                        !va.is_null() && !vb.is_null() && va == vb
                    });
                    if collide {
                        return false;
                    }
                }
            }
        }
        let in_spec = |to: TableId| self.spec.tables.iter().any(|s| s.table == to);
        for fkid in self.catalog.foreign_keys_from(t) {
            let fk = self.catalog.foreign_key(fkid);
            if fk.from_columns.len() == 1 || fk.to_table == t || !in_spec(fk.to_table) {
                continue; // single-column FKs already restricted per column
            }
            for &i in combo {
                let vals: Vec<&Value> = fk
                    .from_columns
                    .iter()
                    .map(|c| &rows[i][c.0 as usize])
                    .collect();
                if vals.iter().any(|v| v.is_null()) {
                    continue;
                }
                let hit = db.rows(fk.to_table).iter().any(|r| {
                    fk.to_columns
                        .iter()
                        .zip(&vals)
                        .all(|(c, v)| &r[c.0 as usize] == *v)
                });
                if !hit {
                    return false;
                }
            }
        }
        true
    }
}

/// Advance a row-index combination in place: strictly increasing tuples
/// when `distinct` (set semantics, tables with declared keys), otherwise
/// non-decreasing (bag semantics). Returns `false` when exhausted.
fn next_combo(combo: &mut [usize], n: usize, distinct: bool) -> bool {
    let k = combo.len();
    if k == 0 {
        return false;
    }
    let mut i = k;
    while i > 0 {
        i -= 1;
        let limit = if distinct { n - (k - 1 - i) } else { n };
        if combo[i] + 1 < limit {
            combo[i] += 1;
            for j in i + 1..k {
                combo[j] = if distinct {
                    combo[j - 1] + 1
                } else {
                    combo[j - 1]
                };
            }
            return combo.iter().all(|&c| c < n);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_catalog::schema::{ForeignKey, TableBuilder};
    use mv_catalog::ColumnId;

    fn int(values: &[i64]) -> ColumnDomain {
        ColumnDomain::of(values.iter().map(|&v| Value::Int(v)).collect())
    }

    #[test]
    fn single_table_count_matches_closed_form() {
        let mut cat = Catalog::new();
        let t = cat.add_table(
            TableBuilder::new("t")
                .col("pk", ColumnType::Int)
                .col("x", ColumnType::Int)
                .primary_key(&["pk"])
                .build(),
        );
        let spec = EnumSpec {
            tables: vec![TableSpec {
                table: t,
                columns: vec![int(&[0, 1, 2]), int(&[10, 20])],
            }],
            max_rows: 2,
        };
        let checks = HashMap::new();
        let e = Enumerator::new(&cat, &checks, &spec);
        // 1 empty + d*m one-row + C(d,2)*m^2 two-row = 1 + 6 + 12 = 19.
        let (count, exhausted) = e.count(u64::MAX);
        assert!(exhausted);
        assert_eq!(count, 19);
    }

    #[test]
    fn fk_restriction_and_null_exemption() {
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
        let spec = EnumSpec {
            tables: vec![
                TableSpec {
                    table: s,
                    columns: vec![int(&[1, 2])],
                },
                TableSpec {
                    table: t,
                    columns: vec![ColumnDomain {
                        values: vec![Value::Int(1), Value::Int(2)],
                        with_null: true,
                    }],
                },
            ],
            max_rows: 1,
        };
        let checks = HashMap::new();
        let e = Enumerator::new(&cat, &checks, &spec);
        let mut violations = 0usize;
        let stats = e.for_each(u64::MAX, |_, db| {
            violations += db.check_foreign_keys();
            true
        });
        assert_eq!(stats.outcome, EnumOutcome::Exhausted);
        assert_eq!(violations, 0, "every enumerated database satisfies FKs");
        // s empty: t may hold only NULL (FK values gone) or be empty;
        // s = {1} or {2}: t in {empty, that key, NULL}; total 2 + 2*3 = 8.
        assert_eq!(stats.databases, 8);
    }

    #[test]
    fn database_at_replays_the_walk() {
        let mut cat = Catalog::new();
        let t = cat.add_table(
            TableBuilder::new("t")
                .col("pk", ColumnType::Int)
                .primary_key(&["pk"])
                .build(),
        );
        let spec = EnumSpec {
            tables: vec![TableSpec {
                table: t,
                columns: vec![int(&[0, 1, 2])],
            }],
            max_rows: 2,
        };
        let checks = HashMap::new();
        let e = Enumerator::new(&cat, &checks, &spec);
        let mut seen: Vec<Vec<Row>> = Vec::new();
        e.for_each(u64::MAX, |_, db| {
            seen.push(db.rows(t).to_vec());
            true
        });
        for (i, rows) in seen.iter().enumerate() {
            let db = e.database_at(i as u64).expect("index within space");
            assert_eq!(db.rows(t), rows.as_slice(), "seed {i} replays");
        }
        assert!(e.database_at(seen.len() as u64).is_none());
        assert!(e.database_at(u64::MAX).is_none());
    }

    #[test]
    fn checks_filter_rows_with_unknown_passing() {
        use mv_expr::{BoolExpr, CmpOp, ScalarExpr as S};
        let mut cat = Catalog::new();
        let t = cat.add_table(
            TableBuilder::new("t")
                .nullable_col("x", ColumnType::Int)
                .build(),
        );
        let mut checks: HashMap<TableId, Vec<Conjunct>> = HashMap::new();
        checks.insert(
            t,
            mv_expr::classify(BoolExpr::cmp(
                S::col(ColRef::new(0, 0)),
                CmpOp::Gt,
                S::lit(0i64),
            )),
        );
        let spec = EnumSpec {
            tables: vec![TableSpec {
                table: t,
                columns: vec![ColumnDomain {
                    values: vec![Value::Int(-1), Value::Int(1)],
                    with_null: true,
                }],
            }],
            max_rows: 1,
        };
        let e = Enumerator::new(&cat, &checks, &spec);
        let mut rows_seen = Vec::new();
        e.for_each(u64::MAX, |_, db| {
            if let Some(r) = db.rows(t).first() {
                rows_seen.push(r[0].clone());
            }
            true
        });
        // -1 fails the check; 1 passes; NULL passes (UNKNOWN).
        assert_eq!(rows_seen, vec![Value::Int(1), Value::Null]);
    }
}
