//! Incremental maintenance of materialized views, with a freshness audit.
//!
//! The matcher treats a substitute as an *equivalent* rewrite, which is
//! only true while the view's stored contents reflect the base tables. This
//! crate keeps them reflecting: base-table deltas (bags of inserted and
//! deleted rows) are propagated through each registered view's SPJ plan and
//! rolled up through its aggregates, so view contents track writes without
//! recomputation.
//!
//! Propagation rules (single-occurrence views — a table appearing once):
//!
//! * **SPJ**: the view is linear in each base table, so
//!   `V(T − Δ⁻ + Δ⁺) = V(T) − V[T↦Δ⁻] + V[T↦Δ⁺]` as bags, where
//!   `V[T↦X]` evaluates the view with `T`'s rows replaced by `X` and every
//!   other table at its current state. Each delta join runs the view's
//!   *delta schedule* for the written occurrence
//!   ([`PlanProgram::compile_delta`]): the join starts at the delta rows
//!   and reaches the other tables through their equijoin keys, so a write
//!   costs what it touches, not the join of everything before `T`.
//! * **Aggregates** (`COUNT(*)`/`SUM`): the same delta joins run over the
//!   view's SPJ core (group-by expressions plus sum arguments), then fold
//!   into counting state — per-group row count and per-sum
//!   [`mv_exec::agg::SumAcc`], the executor's own SUM state, stored flat
//!   beside the served rows. Inserts add, deletes remove; a group whose
//!   count reaches zero is deleted. Only the groups a delta row lands in
//!   are touched: their served rows are rewritten (or removed) in place.
//!   `SumAcc` is exact and independent of row order for `Int`s and
//!   `Float`s alike, so removing a value restores its state bit for bit
//!   and a folded sum equals a recompute's.
//!
//! Deletes are resolved against the base table first: only rows the table
//! actually held propagate, so a delta naming an absent row changes
//! nothing but [`DeltaReport::rows_deleted`]. A removed row and an inserted
//! row that are identical on every column of the table a view references
//! cancel for that view: only the unpaired rest is delta-joined, and a
//! view with no rest is unchanged ([`DeltaReport::unchanged`]).
//!
//! The strategy follows from structure alone. Only self-joins (a table
//! occurring twice) are recomputed from scratch: they need quadratic
//! delta terms, so a relevant write marks them *dirty* and
//! [`Maintainer::refresh`] recomputes them; every other view is
//! maintained in place. Initial materialization and refresh run the
//! view's compiled [`PlanProgram`]. Every run, full or delta, shares one
//! set of join indexes ([`JoinIndexes`]) over the base tables, kept
//! across views and write rounds; a round drops the indexes of the table
//! it writes.
//!
//! The audit side ([`Maintainer::audit`], [`audit_serving`]) checks the
//! MV4xx invariants: maintained contents equal recompute-from-scratch as
//! row bags (MV401), `Fresh`-stamped substitutes really are fresh and
//! execute to the query's rows (MV402), no zombie groups survive at count
//! zero (MV403), and no view's data-epoch stamp leads its tables (MV404).
//! Its reference is the tree-walk interpreter, which shares nothing with
//! the compiled programs maintenance runs.

use mv_catalog::{TableId, Value};
use mv_core::MatchingEngine;
use mv_data::{Database, Row};
use mv_exec::agg::SumAcc;
use mv_exec::chains::{hash_key, HashChains};
use mv_exec::{
    bag_diff, execute_spjg, execute_substitute_with, ExecScratch, JoinIndexes, PlanProgram, RowBag,
};
use mv_plan::{AggFunc, NamedExpr, OutputList, SpjgExpr, ViewDef, ViewId};
use mv_verify::{Diagnostic, RuleId, Severity};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;

/// One write round against a base table: a bag of inserted rows and a bag
/// of deleted rows (each delete removes one matching stored copy).
#[derive(Debug, Clone)]
pub struct TableDelta {
    /// The written table.
    pub table: TableId,
    /// Rows appended this round.
    pub inserts: Vec<Row>,
    /// Rows removed this round (must currently exist in the table).
    pub deletes: Vec<Row>,
}

impl TableDelta {
    /// An insert-only delta.
    pub fn insert(table: TableId, rows: Vec<Row>) -> Self {
        TableDelta {
            table,
            inserts: rows,
            deletes: Vec::new(),
        }
    }

    /// A delete-only delta.
    pub fn delete(table: TableId, rows: Vec<Row>) -> Self {
        TableDelta {
            table,
            inserts: Vec::new(),
            deletes: rows,
        }
    }
}

/// How a registered view is kept current. [`Maintainer::register`]
/// decides by structure alone: a self-join is recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintainStrategy {
    /// Delta joins applied in place after every write round.
    Incremental,
    /// A relevant write marks the view dirty; [`Maintainer::refresh`]
    /// recomputes it from the base tables.
    Recompute,
}

/// What one [`Maintainer::apply`] call did. `maintained + marked_dirty`
/// is the number of registered views reading the written table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Views whose contents track the round: updated in place by delta
    /// propagation, or left unchanged by it.
    pub maintained: usize,
    /// Of `maintained`, the views whose referenced columns the round left
    /// unchanged: every removed row cancelled against an inserted row
    /// identical on them, so nothing was delta-joined (and a recompute
    /// view was not dirtied).
    pub unchanged: usize,
    /// Views marked dirty (recompute strategy, or already dirty).
    pub marked_dirty: usize,
    /// Base rows actually removed (shortfall against `deletes.len()` means
    /// the delta named rows the table did not contain).
    pub rows_deleted: usize,
}

/// Which core-output slot feeds each aggregate of the view, and how a
/// `SUM` reads its state (`SumAcc::finish`, or `finish_zero` for
/// `SumZero`).
#[derive(Debug, Clone, Copy)]
enum AggSpec {
    CountStar,
    Sum {
        slot: usize,
        finish: fn(&SumAcc) -> Value,
    },
}

impl AggSpec {
    fn sum_slot(&self) -> Option<usize> {
        match self {
            AggSpec::CountStar => None,
            AggSpec::Sum { slot, .. } => Some(*slot),
        }
    }
}

/// The counting rollup of an aggregate view. The delta joins evaluate the
/// view's SPJ core — the group-by expressions followed by every sum
/// argument — and [`AggCore::fold`] rolls those rows up.
///
/// The state is flat and sits beside the view's served rows: group `g`
/// owns `counts[g]`, `sums[g * n_sums..]` and, for a grouped view,
/// `rows[g]`, whose first `n_keys` columns are the group key. `index`
/// finds a group by the hash of its key, and the key is compared in place
/// in the served row, so no key is stored twice. A scalar aggregate (no
/// group-by) has at most one group and always serves one row, `rows[0]`,
/// which its group — when it has one — owns.
#[derive(Debug)]
struct AggCore {
    n_keys: usize,
    n_sums: usize,
    aggs: Vec<AggSpec>,
    counts: Vec<i64>,
    sums: Vec<SumAcc>,
    index: HashChains,
    hasher: RandomState,
}

impl AggCore {
    /// Forget every group.
    fn clear(&mut self) {
        self.counts.clear();
        self.sums.clear();
        self.index.clear();
    }

    /// The served contents of a view with no groups: nothing, or — like
    /// the executor — the one row a scalar aggregate yields over empty
    /// input.
    fn empty_rows(&self) -> Vec<Row> {
        if self.n_keys > 0 {
            return Vec::new();
        }
        let mut row = vec![Value::Null; self.aggs.len()];
        let no_sums = vec![SumAcc::default(); self.n_sums];
        Self::write_aggs(&self.aggs, &mut row, 0, &no_sums);
        vec![row]
    }

    /// Write `out`, the aggregate columns of a served row (the ones after
    /// its group key), from counting state.
    fn write_aggs(aggs: &[AggSpec], out: &mut [Value], count: i64, sums: &[SumAcc]) {
        let mut sums = sums.iter();
        for (out, spec) in out.iter_mut().zip(aggs) {
            *out = match spec {
                AggSpec::CountStar => Value::Int(count),
                AggSpec::Sum { finish, .. } => finish(sums.next().expect("one state per sum")),
            };
        }
    }

    /// Rewrite the aggregate columns of group `g`'s served row.
    fn write_row(&self, rows: &mut [Row], g: usize) {
        let sums = &self.sums[g * self.n_sums..(g + 1) * self.n_sums];
        Self::write_aggs(
            &self.aggs,
            &mut rows[g][self.n_keys..],
            self.counts[g],
            sums,
        );
    }

    fn hash(&self, key: &[Value]) -> u64 {
        hash_key(&self.hasher, key.iter())
    }

    /// The group whose key (hashing to `hash`) is `key`.
    fn find(&self, rows: &[Row], key: &[Value], hash: u64) -> Option<usize> {
        self.index
            .chain(hash)
            .map(|g| g as usize)
            .find(|&g| rows[g][..self.n_keys] == *key)
    }

    /// Open a group at count zero; a grouped view's new row (key, then
    /// NULLs) is appended to `rows`.
    fn push_group(&mut self, rows: &mut Vec<Row>, key: &[Value], hash: u64) -> usize {
        if self.n_keys > 0 {
            let width = self.n_keys + self.aggs.len();
            let mut row = Vec::with_capacity(width);
            row.extend_from_slice(key);
            row.resize(width, Value::Null);
            rows.push(row);
        }
        self.index.push(hash);
        self.counts.push(0);
        self.sums
            .resize(self.sums.len() + self.n_sums, SumAcc::default());
        self.counts.len() - 1
    }

    /// Fold one bag of core rows into the counting state with the given
    /// sign (+1 insert, −1 delete) and bring `rows`, the view's served
    /// contents, up to date for exactly the groups the bag touches: a
    /// group's row is rewritten in place, appended when the group is new,
    /// and removed with the group when its count reaches zero.
    fn fold(&mut self, rows: &mut Vec<Row>, core: &[Row], sign: i64) {
        for core_row in core {
            let key = &core_row[..self.n_keys];
            let hash = self.hash(key);
            let g = match self.find(rows, key, hash) {
                Some(g) => g,
                // A delete from a group the rollup never held: the state
                // has drifted, which the audit reports.
                None if sign < 0 => continue,
                None => self.push_group(rows, key, hash),
            };
            self.counts[g] += sign;
            let slots = self.aggs.iter().filter_map(AggSpec::sum_slot);
            let sums = &mut self.sums[g * self.n_sums..(g + 1) * self.n_sums];
            let fold = if sign > 0 {
                SumAcc::add
            } else {
                SumAcc::remove
            };
            for (sum, slot) in sums.iter_mut().zip(slots) {
                fold(sum, &core_row[slot]);
            }
            self.write_row(rows, g);
            if self.counts[g] <= 0 {
                self.remove_group(rows, g);
            }
        }
    }

    /// Drop group `g` from every array, the way `Vec::swap_remove` does:
    /// the last group takes its number (and, for a grouped view, its row
    /// takes `g`'s place in `rows`). A scalar aggregate keeps its one row,
    /// which [`AggCore::fold`] has by then rewritten to the empty-input
    /// form.
    fn remove_group(&mut self, rows: &mut Vec<Row>, g: usize) {
        let n = self.n_sums;
        let last = self.counts.len() - 1;
        self.index.swap_remove(g as u32);
        self.counts.swap_remove(g);
        for i in 0..n {
            self.sums.swap(g * n + i, last * n + i);
        }
        self.sums.truncate(last * n);
        if self.n_keys > 0 {
            rows.swap_remove(g);
        }
    }
}

/// One registered view and its maintained state.
struct MaintainedView {
    id: ViewId,
    name: String,
    expr: SpjgExpr,
    strategy: MaintainStrategy,
    /// What materialization and refresh run: the view's plan, or — for an
    /// incrementally maintained aggregate view — its SPJ core, whose rows
    /// `agg` rolls up.
    prog: PlanProgram,
    /// Incremental views: the delta schedule of `prog`'s block for each
    /// table occurrence. Empty for recompute views.
    delta_progs: Vec<PlanProgram>,
    /// Incrementally maintained aggregate views: the counting rollup.
    agg: Option<AggCore>,
    /// The served contents, kept current by every delta.
    rows: Vec<Row>,
    /// Recompute pending: a write changed what a recomputed view reads,
    /// and it has not been refreshed since.
    dirty: bool,
}

impl MaintainedView {
    /// Recompute the contents (and the rollup) from the base tables.
    fn materialize(&mut self, db: &Database, exec: &mut ExecBuffers) {
        let ExecBuffers {
            scratch,
            indexes,
            bag,
            ..
        } = exec;
        self.prog.execute_indexed(db, indexes, scratch, bag);
        self.dirty = false;
        let Some(agg) = &mut self.agg else {
            self.rows = bag.rows().to_vec();
            return;
        };
        agg.clear();
        self.rows = agg.empty_rows();
        agg.fold(&mut self.rows, bag.rows(), 1);
    }
}

/// A view reading a table: its slot in [`Maintainer::views`], and the
/// columns of the table it references in any occurrence — conjuncts,
/// outputs, group-by and `SUM` arguments — ascending. The view's contents
/// depend on the table through these columns only.
struct Reader {
    slot: usize,
    cols: Box<[usize]>,
}

/// The maintenance driver: owns the base data and every registered view's
/// materialized state, and applies write rounds to both. The data is
/// exposed read-only ([`Maintainer::db`]), so a write round is the one
/// place a base table changes, and the join indexes the maintainer keeps
/// across runs are dropped there.
pub struct Maintainer {
    db: Database,
    /// In registration order.
    views: Vec<MaintainedView>,
    /// Where each registered id sits in `views`.
    slots: HashMap<ViewId, usize>,
    /// The views reading each base table, by ascending slot: a write visits
    /// these and no others.
    by_table: HashMap<TableId, Vec<Reader>>,
    /// Boxed: callers hold the driver by value (in enums, next to much
    /// smaller variants) and move it; the buffers need not move with it.
    exec: Box<ExecBuffers>,
}

/// The execution state every program run reuses.
#[derive(Default)]
struct ExecBuffers {
    scratch: ExecScratch,
    /// The join indexes of every run over the base tables: registrations,
    /// refreshes and every view's delta joins share them. A write round
    /// drops the written table's ([`JoinIndexes::invalidate`]); the rest
    /// stay valid, because nothing else writes the tables.
    indexes: JoinIndexes,
    /// Each materialization and delta join writes it, and its rows are
    /// applied before the next run.
    bag: RowBag,
    pairs: Pairs,
}

/// Up to this many (removed × inserted) row comparisons a round pairs its
/// rows by scanning; past it, by hashing.
const LINEAR_PAIRS: usize = 16;

/// Scratch for cancelling a round's removed rows against its inserted rows.
#[derive(Default)]
struct Pairs {
    index: HashChains,
    hasher: RandomState,
    /// Per removed row: cancelled against an inserted row?
    paired: Vec<bool>,
    /// Positions of the inserted rows nothing cancelled.
    lone: Vec<usize>,
    /// Copies of a partly cancelled round's remainder.
    minus: Vec<Row>,
    plus: Vec<Row>,
}

impl Pairs {
    /// Pair each removed row with an inserted row identical to it on
    /// `cols` ([`Value::identical`]: `0.0` does not cancel `-0.0`), and
    /// return the unpaired rest of each side. A view that references no
    /// other column of the table sees a cancelled pair as no change at
    /// all, so the rest is all it has to delta-join.
    fn remainder<'a>(
        &'a mut self,
        cols: &[usize],
        removed: &'a [Row],
        inserted: &'a [Row],
    ) -> (&'a [Row], &'a [Row]) {
        let same = |a: &Row, b: &Row| cols.iter().all(|&c| a[c].identical(&b[c]));
        self.paired.clear();
        self.paired.resize(removed.len(), false);
        self.lone.clear();
        if removed.len() * inserted.len() <= LINEAR_PAIRS {
            for (j, ins) in inserted.iter().enumerate() {
                match (0..removed.len()).find(|&i| !self.paired[i] && same(&removed[i], ins)) {
                    Some(i) => self.paired[i] = true,
                    None => self.lone.push(j),
                }
            }
        } else {
            let hash = |row: &Row| hash_key(&self.hasher, cols.iter().map(|&c| &row[c]));
            self.index.clear();
            for row in removed {
                self.index.push(hash(row));
            }
            for (j, ins) in inserted.iter().enumerate() {
                let found = self
                    .index
                    .chain(hash(ins))
                    .find(|&i| same(&removed[i as usize], ins));
                match found {
                    // Unlinked, so a later insert cannot pair with it too.
                    Some(i) => {
                        self.index.unlink(i);
                        self.paired[i as usize] = true;
                    }
                    None => self.lone.push(j),
                }
            }
        }
        if self.lone.len() == inserted.len() {
            return (removed, inserted);
        }
        self.minus.clear();
        self.plus.clear();
        let unpaired = removed.iter().zip(&self.paired).filter(|(_, &p)| !p);
        self.minus.extend(unpaired.map(|(row, _)| row.clone()));
        self.plus
            .extend(self.lone.iter().map(|&j| inserted[j].clone()));
        (&self.minus, &self.plus)
    }
}

impl Maintainer {
    /// Wrap a loaded database. Views are registered separately so their
    /// initial materialization sees the data.
    pub fn new(db: Database) -> Self {
        Maintainer {
            db,
            views: Vec::new(),
            slots: HashMap::new(),
            by_table: HashMap::new(),
            exec: Box::default(),
        }
    }

    /// The current base data (deltas applied so far included).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Materialize and register a view for maintenance under the id the
    /// matching engine knows it by (an id registered again answers to its
    /// latest registration). Returns the chosen strategy: incremental when
    /// every base table occurs once, recompute for a self-join.
    pub fn register(&mut self, id: ViewId, def: &ViewDef) -> MaintainStrategy {
        let expr = def.expr.clone();
        let strategy = classify(&expr);
        let incremental = strategy == MaintainStrategy::Incremental;
        let rollup = (incremental && expr.is_aggregate()).then(|| build_agg_core(&expr));
        // The block the programs evaluate: the view, or its SPJ core.
        let block = rollup.as_ref().map_or(&expr, |(_, core)| core);
        let delta_progs = if incremental {
            (0..block.tables.len())
                .map(|occ| PlanProgram::compile_delta(block, occ))
                .collect()
        } else {
            Vec::new()
        };
        let mut view = MaintainedView {
            id,
            name: def.name.clone(),
            prog: PlanProgram::compile(block),
            delta_progs,
            agg: rollup.map(|(agg, _)| agg),
            expr,
            strategy,
            rows: Vec::new(),
            dirty: false,
        };
        view.materialize(&self.db, &mut self.exec);
        let reads = read_columns(&view.expr);
        let slot = match self.slots.get(&id) {
            // Registered again: the new state takes the id's slot, and the
            // slot leaves the lists of the tables the old definition read.
            Some(&slot) => {
                for readers in self.by_table.values_mut() {
                    readers.retain(|r| r.slot != slot);
                }
                self.views[slot] = view;
                slot
            }
            None => {
                let slot = self.views.len();
                self.views.push(view);
                self.slots.insert(id, slot);
                slot
            }
        };
        for (table, cols) in reads {
            let readers = self.by_table.entry(table).or_default();
            let at = readers.partition_point(|r| r.slot < slot);
            readers.insert(at, Reader { slot, cols });
        }
        strategy
    }

    fn view(&self, id: ViewId) -> Option<&MaintainedView> {
        self.slots.get(&id).map(|&slot| &self.views[slot])
    }

    /// The strategy a registered view runs under.
    pub fn strategy(&self, id: ViewId) -> Option<MaintainStrategy> {
        self.view(id).map(|v| v.strategy)
    }

    /// The maintained contents of a registered view (the rows a substitute
    /// scanning the view reads). `None` for unregistered ids.
    pub fn contents(&self, id: ViewId) -> Option<&[Row]> {
        self.view(id).map(|v| v.rows.as_slice())
    }

    /// Is the view waiting for a [`Maintainer::refresh`]?
    pub fn is_dirty(&self, id: ViewId) -> bool {
        self.view(id).is_some_and(|v| v.dirty)
    }

    /// Reject a malformed delta before anything changes.
    ///
    /// # Panics
    ///
    /// If the delta's table is not in the catalog, or any inserted or
    /// deleted row's arity is not the table's.
    fn check_delta(&self, delta: &TableDelta) {
        let catalog = &self.db.catalog;
        assert!(
            (delta.table.0 as usize) < catalog.table_count(),
            "delta against table {} the catalog does not hold",
            delta.table.0
        );
        let table = catalog.table(delta.table);
        let arity = table.columns.len();
        assert!(
            delta
                .inserts
                .iter()
                .chain(&delta.deletes)
                .all(|r| r.len() == arity),
            "row arity mismatch for table {}",
            table.name
        );
    }

    /// Apply one write round: apply the delta to the base table, then
    /// propagate the rows actually removed and the rows inserted into
    /// every registered view that reads the table (or mark it dirty).
    ///
    /// # Panics
    ///
    /// If the delta names a table the catalog does not hold, or holds a
    /// row whose arity is not the table's. Both are checked before
    /// anything is changed, so the base data and every view are left as
    /// they were.
    pub fn apply(&mut self, delta: &TableDelta) -> DeltaReport {
        self.check_delta(delta);
        self.propagate(delta)
    }

    fn propagate(&mut self, delta: &TableDelta) -> DeltaReport {
        let Maintainer {
            db,
            views,
            by_table,
            exec,
            ..
        } = self;
        let ExecBuffers {
            scratch,
            indexes,
            bag,
            pairs,
        } = &mut **exec;
        // An incremental view reads the written table once, and that one
        // occurrence is what the delta rows stand in for: its delta joins
        // see only the *other* tables, which this round does not change,
        // so the base table can go first — and deletes it does not hold
        // never reach a view.
        let removed = db.delete_rows(delta.table, &delta.deletes);
        db.insert_rows(delta.table, &delta.inserts);
        indexes.invalidate(delta.table);
        let mut report = DeltaReport {
            rows_deleted: removed.len(),
            ..DeltaReport::default()
        };
        for reader in by_table.get(&delta.table).into_iter().flatten() {
            let view = &mut views[reader.slot];
            if view.dirty {
                report.marked_dirty += 1;
                continue;
            }
            let (minus, plus) = pairs.remainder(&reader.cols, &removed, &delta.inserts);
            if minus.is_empty() && plus.is_empty() {
                report.unchanged += 1;
                report.maintained += 1;
                continue;
            }
            if view.strategy == MaintainStrategy::Recompute {
                view.dirty = true;
                report.marked_dirty += 1;
                continue;
            }
            let occ = view
                .expr
                .tables
                .iter()
                .position(|&t| t == delta.table)
                .expect("by_table lists only views reading the table");
            let prog = &view.delta_progs[occ];
            prog.execute_delta(db, minus, indexes, scratch, bag);
            match &mut view.agg {
                Some(agg) => agg.fold(&mut view.rows, bag.rows(), -1),
                None => bag_remove(&mut view.rows, bag.rows()),
            }
            prog.execute_delta(db, plus, indexes, scratch, bag);
            match &mut view.agg {
                Some(agg) => agg.fold(&mut view.rows, bag.rows(), 1),
                None => view.rows.extend_from_slice(bag.rows()),
            }
            report.maintained += 1;
        }
        report
    }

    /// [`Maintainer::apply`] plus engine bookkeeping: records the write
    /// round ([`MatchingEngine::record_base_write`]) and restamps every
    /// view whose contents track the round — updated in place or left
    /// unchanged — with one [`MatchingEngine::mark_views_maintained`]
    /// publication, so freshness-aware matching sees exactly the views
    /// whose contents track the new data. Dirty views stay stale until
    /// [`Maintainer::refresh_with_engine`].
    ///
    /// # Panics
    ///
    /// As [`Maintainer::apply`], before the write is recorded: a malformed
    /// delta leaves the engine's epochs and stamps as they were too.
    pub fn apply_with_engine(
        &mut self,
        delta: &TableDelta,
        engine: &MatchingEngine,
    ) -> DeltaReport {
        self.check_delta(delta);
        engine.record_base_write(delta.table);
        let report = self.propagate(delta);
        let maintained: Vec<ViewId> = self
            .by_table
            .get(&delta.table)
            .into_iter()
            .flatten()
            .map(|r| &self.views[r.slot])
            .filter(|view| !view.dirty)
            .map(|view| view.id)
            .collect();
        engine.mark_views_maintained(&maintained);
        report
    }

    /// Recompute a view from the base tables and clear its dirty flag.
    /// Returns `false` for unregistered ids.
    pub fn refresh(&mut self, id: ViewId) -> bool {
        let Some(&slot) = self.slots.get(&id) else {
            return false;
        };
        self.views[slot].materialize(&self.db, &mut self.exec);
        true
    }

    /// [`Maintainer::refresh`] plus a
    /// [`MatchingEngine::mark_views_maintained`] restamp.
    pub fn refresh_with_engine(&mut self, id: ViewId, engine: &MatchingEngine) -> bool {
        if !self.refresh(id) {
            return false;
        }
        engine.mark_views_maintained(&[id]);
        true
    }

    /// The MV4xx state audit: every registered, non-dirty view's
    /// maintained contents must equal recompute-from-scratch as row bags
    /// (MV401 `maintained-drift`), and no aggregate rollup may hold a
    /// group at count ≤ 0 (MV403 `zombie-group`). Dirty views are exempt
    /// from MV401 — they are *declared* stale, not wrong.
    pub fn audit(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for view in &self.views {
            if let Some(agg) = &view.agg {
                for (g, &count) in agg.counts.iter().enumerate() {
                    if count <= 0 {
                        let key = view.rows.get(g).map_or(&[][..], |row| &row[..agg.n_keys]);
                        out.push(
                            Diagnostic::new(
                                RuleId::ZombieGroup,
                                Severity::Error,
                                format!("group {key:?} held at count {count} after maintenance"),
                            )
                            .with_view(&view.name),
                        );
                    }
                }
            }
            if view.dirty {
                continue;
            }
            let want = execute_spjg(&self.db, &view.expr);
            if let Some(diff) = bag_diff(&view.rows, &want) {
                out.push(
                    Diagnostic::new(
                        RuleId::MaintainedDrift,
                        Severity::Error,
                        format!("maintained contents differ from recompute: {diff}"),
                    )
                    .with_view(&view.name),
                );
            }
        }
        out
    }
}

/// Incremental when every base table occurs once; a self-join would need
/// the delta's cross terms, so it is recomputed.
fn classify(expr: &SpjgExpr) -> MaintainStrategy {
    let mut tables: Vec<TableId> = expr.tables.clone();
    tables.sort_unstable();
    if tables.windows(2).any(|w| w[0] == w[1]) {
        MaintainStrategy::Recompute
    } else {
        MaintainStrategy::Incremental
    }
}

/// Each table `expr` reads, with the columns of it the view references in
/// any occurrence, ascending (none, for a table only counted).
fn read_columns(expr: &SpjgExpr) -> Vec<(TableId, Box<[usize]>)> {
    let referenced = expr.referenced_columns();
    let mut tables = expr.tables.clone();
    tables.sort_unstable();
    tables.dedup();
    tables
        .into_iter()
        .map(|table| {
            let mut cols: Vec<usize> = referenced
                .iter()
                .filter(|c| expr.table_of(c.occ) == table)
                .map(|c| c.col.0 as usize)
                .collect();
            cols.sort_unstable();
            cols.dedup();
            (table, cols.into_boxed_slice())
        })
        .collect()
}

/// Build the counting rollup for an aggregate view, and the SPJ core its
/// delta joins evaluate: the group-by expressions, then one column per
/// `SUM` argument.
fn build_agg_core(expr: &SpjgExpr) -> (AggCore, SpjgExpr) {
    let OutputList::Aggregate {
        group_by,
        aggregates,
    } = &expr.output
    else {
        unreachable!("agg core over an SPJ view");
    };
    let n_keys = group_by.len();
    let mut outputs: Vec<NamedExpr> = group_by.clone();
    let mut aggs = Vec::with_capacity(aggregates.len());
    for na in aggregates {
        let (arg, finish): (_, fn(&SumAcc) -> Value) = match &na.func {
            AggFunc::CountStar => {
                aggs.push(AggSpec::CountStar);
                continue;
            }
            AggFunc::Sum(arg) => (arg, SumAcc::finish),
            AggFunc::SumZero(arg) => (arg, SumAcc::finish_zero),
        };
        let slot = outputs.len();
        aggs.push(AggSpec::Sum { slot, finish });
        outputs.push(NamedExpr::new(arg.clone(), &na.name));
    }
    let core = SpjgExpr {
        tables: expr.tables.clone(),
        conjuncts: expr.conjuncts.clone(),
        output: OutputList::Spj(outputs),
    };
    let n_sums = aggs.iter().filter_map(AggSpec::sum_slot).count();
    let agg = AggCore {
        n_keys,
        n_sums,
        aggs,
        counts: Vec::new(),
        sums: Vec::new(),
        index: HashChains::default(),
        hasher: RandomState::new(),
    };
    (agg, core)
}

/// Remove each row of `minus` from `rows` once, bag-style, matching rows
/// value by value with [`Value::identical`]: under `Value::eq` a removed
/// `[Int(3)]` could take a stored `[Float(3.0)]` instead, and a removed
/// `[Float(0.0)]` a stored `[Float(-0.0)]`. (A row of `minus` the
/// maintained bag does not hold is drift the audit will flag.)
fn bag_remove(rows: &mut Vec<Row>, minus: &[Row]) {
    let mut pending: Vec<&Row> = minus.iter().collect();
    if pending.is_empty() {
        return;
    }
    let same = |p: &Row, r: &Row| p.iter().zip(r).all(|(a, b)| a.identical(b));
    rows.retain(|r| match pending.iter().position(|p| same(p, r)) {
        Some(pos) => {
            pending.swap_remove(pos);
            false
        }
        None => true,
    });
}

/// The MV4xx serving audit: run every query through the engine and check
/// each substitute's freshness claim against the engine's epoch
/// bookkeeping and the maintainer's contents.
///
/// * A substitute stamped `Fresh` from a view whose data epochs trail the
///   current table epochs is MV402 `stale-serving` — the freshness gate
///   leaked a stale view.
/// * A `Fresh` substitute whose execution against the maintained contents
///   differs from the query against base data (row-bag comparison, the
///   `--exec-check` discipline) is also MV402: whatever the stamp says,
///   the rewrite served wrong rows.
/// * A view stamp *ahead* of a current table epoch is MV404
///   `stamp-regression` — stamps may only trail.
pub fn audit_serving(
    engine: &MatchingEngine,
    maintainer: &Maintainer,
    queries: &[SpjgExpr],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for view in &maintainer.views {
        if let Some(stamp) = engine.view_data_epochs(view.id) {
            out.extend(stamp_regressions(&view.name, &stamp, |t| {
                engine.data_epoch(t)
            }));
        }
    }
    for (qi, query) in queries.iter().enumerate() {
        let want = execute_spjg(maintainer.db(), query);
        for (id, sub) in engine.find_substitutes(query) {
            if !sub.freshness.is_fresh() {
                continue;
            }
            let label = || format!("q{qi}");
            match engine.view_staleness(id) {
                Some(0) => {}
                lag => {
                    out.push(
                        Diagnostic::new(
                            RuleId::StaleServing,
                            Severity::Error,
                            format!(
                                "substitute stamped Fresh from view {} at staleness {lag:?}",
                                id.0
                            ),
                        )
                        .with_query(label()),
                    );
                }
            }
            let Some(rows) = maintainer.contents(id) else {
                continue;
            };
            let got = execute_substitute_with(maintainer.db(), rows, &sub);
            if let Some(diff) = bag_diff(&got, &want) {
                out.push(
                    Diagnostic::new(
                        RuleId::StaleServing,
                        Severity::Error,
                        format!("Fresh substitute served wrong rows: {diff}"),
                    )
                    .with_query(label()),
                );
            }
        }
    }
    out
}

/// MV404 over one view's data-epoch stamp: every table whose stamped
/// epoch leads its `current` one.
fn stamp_regressions(
    view: &str,
    stamp: &[(TableId, u64)],
    current: impl Fn(TableId) -> u64,
) -> Vec<Diagnostic> {
    stamp
        .iter()
        .filter_map(|&(t, stamped)| {
            let cur = current(t);
            (stamped > cur).then(|| {
                Diagnostic::new(
                    RuleId::StampRegression,
                    Severity::Error,
                    format!(
                        "data-epoch stamp {stamped} for table {} leads current epoch {cur}",
                        t.0
                    ),
                )
                .with_view(view)
            })
        })
        .collect()
}

#[cfg(test)]
mod corruption;
