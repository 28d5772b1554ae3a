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
//! * **Aggregates** (`COUNT(*)`/`SUM` over integer arguments): the same
//!   delta joins run over the view's SPJ core (group-by expressions plus
//!   sum arguments), then fold into counting state — per-group row count
//!   and per-sum (non-null count, exact integer total). Inserts increment,
//!   deletes decrement; a group whose count reaches zero is deleted. Only
//!   the groups a delta row lands in are touched: their served rows are
//!   rewritten (or removed) in place. `SUM` yields NULL when its non-null
//!   count is zero, matching [`mv_exec::agg::SumAcc`].
//!
//! Deletes are resolved against the base table first: only rows the table
//! actually held propagate, so a delta naming an absent row changes
//! nothing but [`DeltaReport::rows_deleted`].
//!
//! Self-joins (a table occurring twice) and float-typed sums fall back to
//! recompute-from-scratch: the former needs quadratic delta terms, and the
//! latter cannot reproduce `SumAcc`'s order-dependent float accumulation
//! by adding and subtracting deltas. Such views are marked *dirty* by a
//! relevant delta and recomputed by [`Maintainer::refresh`]. Initial
//! materialization and refresh run the view's compiled [`PlanProgram`].
//!
//! The audit side ([`Maintainer::audit`], [`audit_serving`]) checks the
//! MV4xx invariants: maintained contents equal recompute-from-scratch as
//! row bags (MV401), `Fresh`-stamped substitutes really are fresh and
//! execute to the query's rows (MV402), no zombie groups survive at count
//! zero (MV403), and no view's data-epoch stamp leads its tables (MV404).
//! Its reference is the tree-walk interpreter, which shares nothing with
//! the compiled programs maintenance runs.

use mv_catalog::{ColumnType, TableId, Value};
use mv_core::MatchingEngine;
use mv_data::{Database, Row};
use mv_exec::{bag_diff, execute_spjg, execute_substitute_with, ExecScratch, PlanProgram, RowBag};
use mv_plan::{AggFunc, NamedExpr, OutputList, SpjgExpr, ViewDef, ViewId};
use mv_verify::{Diagnostic, RuleId, Severity};
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

/// How a registered view is kept current.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintainStrategy {
    /// Delta joins applied in place after every write round.
    Incremental,
    /// A relevant write marks the view dirty; [`Maintainer::refresh`]
    /// recomputes it from the base tables.
    Recompute,
}

/// What one [`Maintainer::apply`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Views updated in place by delta propagation.
    pub maintained: usize,
    /// Views marked dirty (recompute strategy, or already dirty).
    pub marked_dirty: usize,
    /// Base rows actually removed (shortfall against `deletes.len()` means
    /// the delta named rows the table did not contain).
    pub rows_deleted: usize,
}

/// Exact integer SUM state: NULLs are skipped (`nonnull` counts the rest),
/// and the total uses the same wrapping arithmetic as
/// [`mv_exec::agg::SumAcc`], so adding then subtracting a delta restores
/// the previous state bit-for-bit.
#[derive(Debug, Clone, Copy, Default)]
struct SumState {
    nonnull: i64,
    total: i64,
}

impl SumState {
    fn fold(&mut self, v: &Value, sign: i64) {
        if let Value::Int(i) = v {
            self.nonnull += sign;
            self.total = if sign >= 0 {
                self.total.wrapping_add(*i)
            } else {
                self.total.wrapping_sub(*i)
            };
        }
    }

    fn finish(&self, zero_default: bool) -> Value {
        if self.nonnull == 0 {
            if zero_default {
                Value::Int(0)
            } else {
                Value::Null
            }
        } else {
            Value::Int(self.total)
        }
    }
}

/// Counting state for one group.
#[derive(Debug, Clone)]
struct GroupState {
    count: i64,
    sums: Vec<SumState>,
    /// Index of the group's row in the view's served contents.
    row: usize,
}

/// Which core-output slot feeds each aggregate of the view.
#[derive(Debug, Clone, Copy)]
enum AggSpec {
    CountStar,
    Sum { slot: usize, zero_default: bool },
}

/// The counting rollup of an aggregate view. The delta joins evaluate the
/// view's SPJ core — the group-by expressions followed by every sum
/// argument — and [`AggCore::fold`] rolls those rows up.
#[derive(Debug)]
struct AggCore {
    n_keys: usize,
    aggs: Vec<AggSpec>,
    /// One entry per group with a positive count. A grouped view serves
    /// exactly one row per entry; a scalar aggregate (no group-by) serves
    /// one row always, which its single group — when it has one — owns.
    groups: HashMap<Vec<Value>, GroupState>,
}

impl AggCore {
    fn n_sums(&self) -> usize {
        self.aggs
            .iter()
            .filter(|a| matches!(a, AggSpec::Sum { .. }))
            .count()
    }

    /// The served contents of a view with no groups: nothing, or — like
    /// the executor — the one row a scalar aggregate yields over empty
    /// input.
    fn empty_rows(&self) -> Vec<Row> {
        if self.n_keys > 0 {
            return Vec::new();
        }
        let mut row = vec![Value::Null; self.aggs.len()];
        let no_sums = vec![SumState::default(); self.n_sums()];
        Self::write_aggs(&self.aggs, &mut row, 0, &no_sums);
        vec![row]
    }

    /// Write `out`, the aggregate columns of a served row (the ones after
    /// its group key), from counting state.
    fn write_aggs(aggs: &[AggSpec], out: &mut [Value], count: i64, sums: &[SumState]) {
        let mut sums = sums.iter();
        for (out, spec) in out.iter_mut().zip(aggs) {
            *out = match spec {
                AggSpec::CountStar => Value::Int(count),
                AggSpec::Sum { zero_default, .. } => sums
                    .next()
                    .expect("one state per sum")
                    .finish(*zero_default),
            };
        }
    }

    /// Fold one bag of core rows into the counting state with the given
    /// sign (+1 insert, −1 delete) and bring `rows`, the view's served
    /// contents, up to date for exactly the groups the bag touches: a
    /// group's row is rewritten in place, appended when the group is new,
    /// and removed with the group when its count reaches zero.
    fn fold(&mut self, rows: &mut Vec<Row>, core: &RowBag, sign: i64) {
        for core_row in core.rows() {
            let key = &core_row[..self.n_keys];
            let g = match self.groups.get_mut(key) {
                Some(g) => g,
                // A delete from a group the rollup never held: the state
                // has drifted, which the audit reports.
                None if sign < 0 => continue,
                None => {
                    if self.n_keys > 0 {
                        let mut row = key.to_vec();
                        row.resize(self.n_keys + self.aggs.len(), Value::Null);
                        rows.push(row);
                    }
                    let state = GroupState {
                        count: 0,
                        sums: vec![SumState::default(); self.n_sums()],
                        row: rows.len() - 1,
                    };
                    self.groups.entry(key.to_vec()).or_insert(state)
                }
            };
            g.count += sign;
            let mut sums = g.sums.iter_mut();
            for spec in &self.aggs {
                if let AggSpec::Sum { slot, .. } = spec {
                    sums.next()
                        .expect("one state per sum")
                        .fold(&core_row[*slot], sign);
                }
            }
            let out = &mut rows[g.row][self.n_keys..];
            Self::write_aggs(&self.aggs, out, g.count, &g.sums);
            if g.count <= 0 {
                self.remove_group(rows, key);
            }
        }
    }

    /// Drop a group and, for a grouped view, its served row; the row that
    /// takes its place in `rows` is re-pointed. (A scalar aggregate keeps
    /// its one row, which [`AggCore::fold`] has by then rewritten to the
    /// empty-input form.)
    fn remove_group(&mut self, rows: &mut Vec<Row>, key: &[Value]) {
        let Some(gone) = self.groups.remove(key) else {
            return;
        };
        if self.n_keys == 0 {
            return;
        }
        rows.swap_remove(gone.row);
        if let Some(moved) = rows.get(gone.row) {
            self.groups
                .get_mut(&moved[..self.n_keys])
                .expect("every served row of a grouped view has its group")
                .row = gone.row;
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
    /// Recompute pending: a relevant write happened and the view has not
    /// been refreshed since.
    dirty: bool,
}

impl MaintainedView {
    /// Recompute the contents (and the rollup) from the base tables.
    fn materialize(&mut self, db: &Database, exec: &mut ExecBuffers) {
        let ExecBuffers { scratch, bag } = exec;
        self.prog.execute(db, scratch, bag);
        match &mut self.agg {
            Some(agg) => {
                agg.groups.clear();
                self.rows = agg.empty_rows();
                agg.fold(&mut self.rows, bag, 1);
            }
            None => self.rows = bag.to_rows(),
        }
        self.dirty = false;
    }
}

/// The maintenance driver: owns the base data and every registered view's
/// materialized state, and applies write rounds to both.
pub struct Maintainer {
    db: Database,
    /// In registration order.
    views: Vec<MaintainedView>,
    /// Where each registered id sits in `views`.
    slots: HashMap<ViewId, usize>,
    /// The views (as `views` indices, ascending) reading each base table:
    /// a write visits these and no others.
    by_table: HashMap<TableId, Vec<usize>>,
    /// Boxed: callers hold the driver by value (in enums, next to much
    /// smaller variants) and move it; the buffers need not move with it.
    exec: Box<ExecBuffers>,
}

/// The execution state every program run reuses.
#[derive(Default)]
struct ExecBuffers {
    scratch: ExecScratch,
    bag: RowBag,
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
    /// latest registration). Returns the chosen strategy:
    /// incremental when every base table occurs once and (for aggregate
    /// views) every aggregate is `COUNT(*)` or an integer-typed `SUM`;
    /// recompute otherwise.
    pub fn register(&mut self, id: ViewId, def: &ViewDef) -> MaintainStrategy {
        let expr = def.expr.clone();
        let strategy = self.classify(&expr);
        let catalog = &self.db.catalog;
        let incremental = strategy == MaintainStrategy::Incremental;
        let rollup = (incremental && expr.is_aggregate()).then(|| build_agg_core(&expr));
        // The block the programs evaluate: the view, or its SPJ core.
        let block = rollup.as_ref().map_or(&expr, |(_, core)| core);
        let delta_progs = if incremental {
            (0..block.tables.len())
                .map(|occ| PlanProgram::compile_delta(catalog, block, occ))
                .collect()
        } else {
            Vec::new()
        };
        let mut view = MaintainedView {
            id,
            name: def.name.clone(),
            prog: PlanProgram::compile(catalog, block),
            delta_progs,
            agg: rollup.map(|(agg, _)| agg),
            expr,
            strategy,
            rows: Vec::new(),
            dirty: false,
        };
        view.materialize(&self.db, &mut self.exec);
        let mut tables = view.expr.tables.clone();
        tables.sort_unstable();
        tables.dedup();
        let slot = match self.slots.get(&id) {
            // Registered again: the new state takes the id's slot, and the
            // slot leaves the lists of the tables the old definition read.
            Some(&slot) => {
                for views in self.by_table.values_mut() {
                    views.retain(|&s| s != slot);
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
        for table in tables {
            let views = self.by_table.entry(table).or_default();
            let at = views.partition_point(|&s| s < slot);
            views.insert(at, slot);
        }
        strategy
    }

    fn classify(&self, expr: &SpjgExpr) -> MaintainStrategy {
        let mut tables: Vec<TableId> = expr.tables.clone();
        tables.sort_unstable();
        let single_occurrence = tables.windows(2).all(|w| w[0] != w[1]);
        if !single_occurrence {
            return MaintainStrategy::Recompute;
        }
        if let OutputList::Aggregate { aggregates, .. } = &expr.output {
            for agg in aggregates {
                if let Some(arg) = agg.func.argument() {
                    let ty = arg.infer_type(&|c| expr.col_type(&self.db.catalog, c));
                    if ty != Some(ColumnType::Int) {
                        // Float sums accumulate order-dependently; an
                        // add-then-subtract round trip need not restore
                        // the recompute value, so only exact integer sums
                        // self-maintain.
                        return MaintainStrategy::Recompute;
                    }
                }
            }
        }
        MaintainStrategy::Incremental
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

    /// Apply one write round: apply the delta to the base table, then
    /// propagate the rows actually removed and the rows inserted into
    /// every registered view that reads the table (or mark it dirty).
    pub fn apply(&mut self, delta: &TableDelta) -> DeltaReport {
        let Maintainer {
            db,
            views,
            by_table,
            exec,
            ..
        } = self;
        let ExecBuffers { scratch, bag } = &mut **exec;
        // An incremental view reads the written table once, and that one
        // occurrence is what the delta rows stand in for: its delta joins
        // see only the *other* tables, which this round does not change,
        // so the base table can go first — and deletes it does not hold
        // never reach a view.
        let removed = db.delete_rows(delta.table, &delta.deletes);
        db.insert_rows(delta.table, &delta.inserts);
        let mut report = DeltaReport {
            rows_deleted: removed.len(),
            ..DeltaReport::default()
        };
        for &slot in by_table.get(&delta.table).into_iter().flatten() {
            let view = &mut views[slot];
            if view.strategy == MaintainStrategy::Recompute || view.dirty {
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
            for (delta_rows, sign) in [(&removed, -1), (&delta.inserts, 1)] {
                if delta_rows.is_empty() {
                    continue;
                }
                prog.execute_delta(db, delta_rows, scratch, bag);
                match &mut view.agg {
                    Some(agg) => agg.fold(&mut view.rows, bag, sign),
                    None if sign < 0 => bag_remove(&mut view.rows, bag),
                    None => view.rows.extend(bag.rows().map(<[Value]>::to_vec)),
                }
            }
            report.maintained += 1;
        }
        report
    }

    /// [`Maintainer::apply`] plus engine bookkeeping: records the write
    /// round ([`MatchingEngine::record_base_write`]) and restamps every
    /// view updated in place with one
    /// [`MatchingEngine::mark_views_maintained`] publication, so
    /// freshness-aware matching sees exactly the views whose contents
    /// track the new data. Dirty views stay stale until
    /// [`Maintainer::refresh_with_engine`].
    pub fn apply_with_engine(
        &mut self,
        delta: &TableDelta,
        engine: &MatchingEngine,
    ) -> DeltaReport {
        engine.record_base_write(delta.table);
        let report = self.apply(delta);
        let maintained: Vec<ViewId> = self
            .by_table
            .get(&delta.table)
            .into_iter()
            .flatten()
            .map(|&slot| &self.views[slot])
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
    /// [`MatchingEngine::mark_view_maintained`] restamp.
    pub fn refresh_with_engine(&mut self, id: ViewId, engine: &MatchingEngine) -> bool {
        if !self.refresh(id) {
            return false;
        }
        engine.mark_view_maintained(id);
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
                for (key, g) in &agg.groups {
                    if g.count <= 0 {
                        out.push(
                            Diagnostic::new(
                                RuleId::ZombieGroup,
                                Severity::Error,
                                format!(
                                    "group {key:?} held at count {} after maintenance",
                                    g.count
                                ),
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

    /// Corruption hook for the audit suite: drop one row from a view's
    /// maintained contents (for a grouped aggregate view, the row's group
    /// with it), simulating a skipped insert delta. Never call outside
    /// tests.
    #[doc(hidden)]
    pub fn corrupt_drop_row_for_audit(&mut self, id: ViewId) -> bool {
        let Some(&slot) = self.slots.get(&id) else {
            return false;
        };
        let view = &mut self.views[slot];
        match &mut view.agg {
            _ if view.rows.is_empty() => false,
            // A scalar aggregate always serves its one row.
            Some(agg) if agg.n_keys == 0 => false,
            Some(agg) => {
                let key = view.rows[0][..agg.n_keys].to_vec();
                agg.remove_group(&mut view.rows, &key);
                true
            }
            None => {
                view.rows.remove(0);
                true
            }
        }
    }

    /// Corruption hook for the audit suite: insert a group at count zero
    /// into a grouped aggregate view's rollup and its served rows,
    /// simulating a counting bug that forgets to delete emptied groups.
    /// Never call outside tests.
    #[doc(hidden)]
    pub fn corrupt_zombie_group_for_audit(&mut self, id: ViewId, key: Vec<Value>) -> bool {
        let Some(&slot) = self.slots.get(&id) else {
            return false;
        };
        let view = &mut self.views[slot];
        let Some(agg) = &mut view.agg else {
            return false;
        };
        if key.len() != agg.n_keys || key.is_empty() || agg.groups.contains_key(&key) {
            return false;
        }
        let state = GroupState {
            count: 0,
            sums: vec![SumState::default(); agg.n_sums()],
            row: view.rows.len(),
        };
        let mut row = key.clone();
        row.resize(agg.n_keys + agg.aggs.len(), Value::Null);
        AggCore::write_aggs(&agg.aggs, &mut row[agg.n_keys..], 0, &state.sums);
        view.rows.push(row);
        agg.groups.insert(key, state);
        true
    }
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
        let (arg, zero_default) = match &na.func {
            AggFunc::CountStar => {
                aggs.push(AggSpec::CountStar);
                continue;
            }
            AggFunc::Sum(arg) => (arg, false),
            AggFunc::SumZero(arg) => (arg, true),
        };
        aggs.push(AggSpec::Sum {
            slot: outputs.len(),
            zero_default,
        });
        outputs.push(NamedExpr::new(arg.clone(), &na.name));
    }
    let core = SpjgExpr {
        tables: expr.tables.clone(),
        conjuncts: expr.conjuncts.clone(),
        output: OutputList::Spj(outputs),
    };
    let agg = AggCore {
        n_keys,
        aggs,
        groups: HashMap::new(),
    };
    (agg, core)
}

/// Remove each row of `minus` from `rows` once, bag-style. (A row of
/// `minus` the maintained bag does not hold is drift the audit will flag.)
fn bag_remove(rows: &mut Vec<Row>, minus: &RowBag) {
    let mut pending: Vec<&[Value]> = minus.rows().collect();
    if pending.is_empty() {
        return;
    }
    rows.retain(|r| match pending.iter().position(|p| *p == r.as_slice()) {
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
            for (t, stamped) in stamp {
                let cur = engine.data_epoch(t);
                if stamped > cur {
                    out.push(
                        Diagnostic::new(
                            RuleId::StampRegression,
                            Severity::Error,
                            format!(
                                "data-epoch stamp {stamped} for table {} leads current epoch {cur}",
                                t.0
                            ),
                        )
                        .with_view(&view.name),
                    );
                }
            }
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
