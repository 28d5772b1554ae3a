//! Served plans: [`execute_plan`] lowers an optimizer-produced
//! [`PhysicalPlan`] to a short sequence of [`PlanProgram`]s (*parts*) and
//! runs them. Inner joins reassociate, so a join tree's scans — base
//! tables, view contents ([`ViewStore`]), or the rows of an earlier part —
//! become the steps of one program; only a `HashAggregate` or a computing
//! `Project` below the root is a part of its own. Hash join keys become
//! equijoin keys, every other predicate a step filter.
//!
//! The steps start at the scan the plan's shape puts first — at a join
//! whose only single-scan input is the left one, the right input's,
//! otherwise the left's — when that scan has a filter of its own, and at
//! the scan with the most rows otherwise, the input a hash join would
//! stream. The scans then follow in a connected order
//! (`connected_order`), so no step is a Cartesian product the plan does
//! not ask for. A conjunct over one scan alone is evaluated on that scan's
//! rows before a keyed step indexes them (`JoinStep::scan_filters`).

use crate::program::{connected_order, ExecScratch, OutputProgram, PlanProgram, RowBag, Scan};
use mv_data::{Database, Row};
use mv_expr::{BoolExpr, ColRef, Conjunct, ScalarExpr};
use mv_plan::{PhysicalPlan, ViewId};
use std::cell::RefCell;
use std::collections::HashMap;

/// Storage for materialized view contents, addressed by [`ViewId`].
#[derive(Debug, Clone, Default)]
pub struct ViewStore {
    views: HashMap<ViewId, Vec<Row>>,
}

impl ViewStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store (or replace) the contents of a view.
    pub fn put(&mut self, view: ViewId, rows: Vec<Row>) {
        self.views.insert(view, rows);
    }

    /// The rows of a view (empty if never materialized).
    pub fn rows(&self, view: ViewId) -> &[Row] {
        self.views.get(&view).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Number of materialized views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }
}

thread_local! {
    /// The scratch of this thread's served plans, kept from call to call:
    /// a call then allocates no buffer that an earlier one has grown.
    static SCRATCH: RefCell<ExecScratch> = RefCell::default();
}

/// Execute a physical plan to completion.
///
/// The lowering reads each table's width from `db`'s catalog and each
/// view's from its rows, so it is done per call, against the data the call
/// reads; each part runs as soon as it is lowered. The parts share one set
/// of join indexes, valid for the call.
pub fn execute_plan(db: &Database, views: &ViewStore, plan: &PhysicalPlan) -> Vec<Row> {
    SCRATCH.with_borrow_mut(|scratch| {
        scratch.indexes.clear();
        let mut lowering = Lowering {
            db,
            views,
            scratch,
            outputs: Vec::new(),
        };
        lowering.part(plan);
        lowering.outputs.pop().expect("the root part's rows")
    })
}

/// What a [`Scan::Input`] step of a part reads.
#[derive(Debug, Clone, Copy)]
enum Input {
    View(ViewId),
    /// The rows of an earlier part.
    Part(usize),
}

struct Lowering<'a> {
    db: &'a Database,
    views: &'a ViewStore,
    scratch: &'a mut ExecScratch,
    /// The rows of every part run so far.
    outputs: Vec<Vec<Row>>,
}

/// The join block of one part, collected while its plan is flattened: one
/// scan per leaf, and every predicate with its columns as `(leaf, column)`
/// `ColRef`s.
#[derive(Default)]
struct Block {
    scans: Vec<Scan>,
    /// Each leaf's rows before any filter, and whether a conjunct filters
    /// it alone.
    rows: Vec<usize>,
    filtered: Vec<bool>,
    inputs: Vec<Input>,
    /// The hash joins' key pairs as `ColumnEq`s, and every other conjunct
    /// as a residual.
    conjuncts: Vec<Conjunct>,
}

/// A flattened operator.
struct Flat {
    /// Where each output position lives, as a `(leaf, column)` `ColRef`.
    cols: Vec<ColRef>,
    /// The leaf its shape starts at.
    first: usize,
    /// Whether it reads a single leaf (a scan under filters and bare
    /// projections).
    single: bool,
}

impl Block {
    fn leaf(&mut self, scan: Scan, width: usize, rows: usize) -> Flat {
        let leaf = self.scans.len();
        self.scans.push(scan);
        self.rows.push(rows);
        self.filtered.push(false);
        Flat {
            cols: (0..width)
                .map(|c| ColRef::new(leaf as u32, c as u32))
                .collect(),
            first: leaf,
            single: true,
        }
    }

    fn input(&mut self, input: Input, width: usize, rows: &[Row]) -> Flat {
        self.inputs.push(input);
        self.leaf(Scan::Input(self.inputs.len() - 1), width, rows.len())
    }

    /// Add `predicate`, over the positions `cols`, conjunct by conjunct.
    fn restrict(&mut self, predicate: &BoolExpr, cols: &[ColRef]) {
        let conjuncts = match predicate {
            BoolExpr::And(parts) => parts.as_slice(),
            single => std::slice::from_ref(single),
        };
        for p in conjuncts {
            let p = p.map_columns(&mut |c| cols[c.col.0 as usize]);
            if let [c, rest @ ..] = &p.columns()[..] {
                self.filtered[c.occ.0 as usize] |= rest.iter().all(|r| r.occ == c.occ);
            }
            self.conjuncts.push(Conjunct::Residual(p));
        }
    }

    /// `l` joined to `r` on `l_keys[i] = r_keys[i]`, restricted by
    /// `predicate` over the joined positions. Its shape starts at the side
    /// that is not a single scan, else at the left.
    fn join(
        &mut self,
        l: Flat,
        r: Flat,
        l_keys: &[usize],
        r_keys: &[usize],
        predicate: Option<&BoolExpr>,
    ) -> Flat {
        for (&lk, &rk) in l_keys.iter().zip(r_keys) {
            (self.conjuncts).push(Conjunct::ColumnEq(l.cols[lk], r.cols[rk]));
        }
        let first = if l.single && !r.single {
            r.first
        } else {
            l.first
        };
        let mut cols = l.cols;
        cols.extend(r.cols);
        if let Some(predicate) = predicate {
            self.restrict(predicate, &cols);
        }
        Flat {
            cols,
            first,
            single: false,
        }
    }
}

/// The output program of the part `plan` roots, given the packed position
/// `pos` of each of its input's `width` positions.
fn output(plan: &PhysicalPlan, pos: &dyn Fn(ColRef) -> usize, width: usize) -> OutputProgram {
    match plan {
        PhysicalPlan::Project { exprs, .. } if !is_bare(exprs) => {
            OutputProgram::project(exprs.iter(), &pos)
        }
        PhysicalPlan::HashAggregate {
            group_by,
            aggregates,
            ..
        } => OutputProgram::aggregate(group_by.iter(), aggregates.iter(), &pos),
        _ => OutputProgram::Columns((0..width).map(|p| pos(ColRef::new(0, p as u32))).collect()),
    }
}

fn is_bare(exprs: &[ScalarExpr]) -> bool {
    exprs.iter().all(|e| e.as_column().is_some())
}

impl Lowering<'_> {
    /// Lower the part `plan` roots, after the parts it reads, and run it;
    /// its rows are the last of `outputs`. Returns their width.
    fn part(&mut self, plan: &PhysicalPlan) -> usize {
        // A computing root reads its input; any other is a part's input.
        let input = match plan {
            PhysicalPlan::Project { input, exprs } if !is_bare(exprs) => input,
            PhysicalPlan::HashAggregate { input, .. } => input,
            other => other,
        };
        let mut block = Block::default();
        let program = match self.flatten(input, &mut block) {
            Some(flat) => {
                let rows = &block.rows;
                let first = match block.filtered[flat.first] {
                    true => flat.first,
                    false => (0..rows.len()).rev().max_by_key(|&l| rows[l]).unwrap_or(0),
                };
                let order = connected_order(block.scans.len(), &block.conjuncts, first);
                let Block {
                    scans, conjuncts, ..
                } = &block;
                PlanProgram::schedule(scans, conjuncts, true, &order, |map| {
                    let pos = |c: ColRef| map(flat.cols[c.col.0 as usize]);
                    output(plan, &pos, flat.cols.len())
                })
            }
            // A view under the part holds no row, so the join is empty: the
            // program scans that view, the last leaf, alone, and its output
            // reads nothing.
            None => {
                let empty = block.scans.len() - 1;
                PlanProgram::schedule(&block.scans[empty..], &[], true, &[0], |_| {
                    output(plan, &|_| 0, 0)
                })
            }
        };
        let inputs: Vec<&[Row]> = (block.inputs.iter())
            .map(|input| match *input {
                Input::View(view) => self.views.rows(view),
                Input::Part(p) => self.outputs[p].as_slice(),
            })
            .collect();
        let mut rows = RowBag::new();
        program.execute_rows(self.db, &inputs, self.scratch, &mut rows);
        self.outputs.push(rows.into_rows());
        program.arity()
    }

    /// Flatten `plan` into `block`'s leaves and predicates; `None` as soon
    /// as a view it scans holds no row.
    fn flatten(&mut self, plan: &PhysicalPlan, block: &mut Block) -> Option<Flat> {
        Some(match plan {
            PhysicalPlan::TableScan { table } => {
                let width = self.db.catalog.table(*table).columns.len();
                block.leaf(Scan::Table(*table), width, self.db.row_count(*table))
            }
            PhysicalPlan::ViewScan { view } => {
                // A view's width is its rows'; with no row it is unknown,
                // and nothing above the scan reads it.
                let rows = self.views.rows(*view);
                let flat = block.input(Input::View(*view), rows.first().map_or(0, Vec::len), rows);
                (!rows.is_empty()).then_some(flat)?
            }
            PhysicalPlan::Filter { input, predicate } => {
                let flat = self.flatten(input, block)?;
                block.restrict(predicate, &flat.cols);
                flat
            }
            PhysicalPlan::Project { input, exprs } if is_bare(exprs) => {
                let flat = self.flatten(input, block)?;
                let cols = exprs
                    .iter()
                    .filter_map(ScalarExpr::as_column)
                    .map(|c| flat.cols[c.col.0 as usize])
                    .collect();
                Flat { cols, ..flat }
            }
            PhysicalPlan::Project { .. } | PhysicalPlan::HashAggregate { .. } => {
                let width = self.part(plan);
                let part = self.outputs.len() - 1;
                block.input(Input::Part(part), width, &self.outputs[part])
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                residual,
            } => {
                let (l, r) = (self.flatten(left, block)?, self.flatten(right, block)?);
                block.join(l, r, left_keys, right_keys, residual.as_ref())
            }
            PhysicalPlan::NestedLoopJoin {
                left,
                right,
                predicate,
            } => {
                let (l, r) = (self.flatten(left, block)?, self.flatten(right, block)?);
                block.join(l, r, &[], &[], predicate.as_ref())
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::bag_eq;
    use crate::spjg::execute_spjg;
    use mv_catalog::Value;
    use mv_data::{generate_tpch, TpchScale};
    use mv_expr::BoolExpr;
    use mv_expr::{CmpOp, ScalarExpr as S};
    use mv_plan::{AggFunc, NamedExpr, SpjgExpr};

    fn cr(col: u32) -> ColRef {
        ColRef::new(0, col)
    }

    #[test]
    fn hash_join_plan_equals_spjg_oracle() {
        let (db, t) = generate_tpch(&TpchScale::tiny(), 23);
        // Plan: lineitem JOIN orders ON l_orderkey = o_orderkey, project
        // l_partkey and o_custkey.
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::HashJoin {
                left: Box::new(PhysicalPlan::TableScan { table: t.lineitem }),
                right: Box::new(PhysicalPlan::TableScan { table: t.orders }),
                left_keys: vec![0],
                right_keys: vec![0],
                residual: None,
            }),
            exprs: vec![S::col(cr(1)), S::col(cr(17))], // l_partkey, o_custkey
        };
        let got = execute_plan(&db, &ViewStore::new(), &plan);
        let oracle = SpjgExpr::spj(
            vec![t.lineitem, t.orders],
            BoolExpr::col_eq(ColRef::new(0, 0), ColRef::new(1, 0)),
            vec![
                NamedExpr::new(S::col(ColRef::new(0, 1)), "l_partkey"),
                NamedExpr::new(S::col(ColRef::new(1, 1)), "o_custkey"),
            ],
        );
        let want = execute_spjg(&db, &oracle);
        assert!(bag_eq(&got, &want));
    }

    #[test]
    fn filter_and_aggregate_plan() {
        let (db, t) = generate_tpch(&TpchScale::tiny(), 23);
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::TableScan { table: t.orders }),
                predicate: BoolExpr::cmp(S::col(cr(1)), CmpOp::Le, S::lit(10i64)),
            }),
            group_by: vec![S::col(cr(1))],
            aggregates: vec![AggFunc::CountStar, AggFunc::Sum(S::col(cr(3)))],
        };
        let got = execute_plan(&db, &ViewStore::new(), &plan);
        for row in &got {
            let Value::Int(ck) = row[0] else { panic!() };
            assert!(ck <= 10);
        }
        let total: i64 = got
            .iter()
            .map(|r| match r[1] {
                Value::Int(c) => c,
                _ => panic!(),
            })
            .sum();
        let expected = db
            .rows(t.orders)
            .iter()
            .filter(|r| matches!(r[1], Value::Int(v) if v <= 10))
            .count() as i64;
        assert_eq!(total, expected);
    }

    #[test]
    fn view_scan_reads_store() {
        let (db, _) = generate_tpch(&TpchScale::tiny(), 23);
        let mut store = ViewStore::new();
        store.put(ViewId(3), vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        let plan = PhysicalPlan::ViewScan { view: ViewId(3) };
        assert_eq!(execute_plan(&db, &store, &plan).len(), 2);
        let plan = PhysicalPlan::ViewScan { view: ViewId(9) };
        assert!(execute_plan(&db, &store, &plan).is_empty());
    }

    #[test]
    fn nested_loop_cross_join() {
        let (db, t) = generate_tpch(&TpchScale::tiny(), 23);
        let plan = PhysicalPlan::NestedLoopJoin {
            left: Box::new(PhysicalPlan::TableScan { table: t.region }),
            right: Box::new(PhysicalPlan::TableScan { table: t.nation }),
            predicate: Some(BoolExpr::cmp(
                S::col(cr(0)),
                CmpOp::Eq,
                S::col(ColRef::new(0, 5)), // r_regionkey = n_regionkey (pos 3+2)
            )),
        };
        let got = execute_plan(&db, &ViewStore::new(), &plan);
        assert_eq!(got.len(), 25); // every nation joins exactly one region
    }
}

/// `ViewStore` does not know a view's arity, so an empty (or never `put`)
/// view gives the operators above it no width to resolve positions
/// against. Nothing is fetched from an empty relation; these plans must
/// return empty results (or the scalar aggregate's one row), not panic.
#[cfg(test)]
mod empty_view_tests {
    use super::*;
    use mv_catalog::Value;
    use mv_data::{generate_tpch, TpchScale};
    use mv_expr::{BoolExpr, CmpOp, ScalarExpr as S};
    use mv_plan::AggFunc;

    const EMPTIED: ViewId = ViewId(4);
    const NEVER_PUT: ViewId = ViewId(5);

    fn col(pos: u32) -> S {
        S::col(ColRef::new(0, pos))
    }

    fn view_joined_to_orders(view: ViewId, view_on_left: bool) -> PhysicalPlan {
        let (_, t) = mv_catalog::tpch::tpch_catalog();
        let scan = Box::new(PhysicalPlan::ViewScan { view });
        let orders = Box::new(PhysicalPlan::TableScan { table: t.orders });
        let (left, right) = if view_on_left {
            (scan, orders)
        } else {
            (orders, scan)
        };
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys: vec![0],
            right_keys: vec![0],
            // Addresses positions on both sides of a width nobody knows.
            residual: Some(BoolExpr::cmp(col(1), CmpOp::Le, col(9))),
        }
    }

    fn for_each_empty_view(check: impl Fn(&Database, &ViewStore, ViewId)) {
        let (db, _) = generate_tpch(&TpchScale::tiny(), 23);
        let mut store = ViewStore::new();
        store.put(EMPTIED, Vec::new());
        for view in [EMPTIED, NEVER_PUT] {
            check(&db, &store, view);
        }
    }

    #[test]
    fn empty_view_on_the_left() {
        for_each_empty_view(|db, store, view| {
            let plan = view_joined_to_orders(view, true);
            assert!(execute_plan(db, store, &plan).is_empty());
        });
    }

    #[test]
    fn empty_view_on_the_right() {
        for_each_empty_view(|db, store, view| {
            let plan = view_joined_to_orders(view, false);
            assert!(execute_plan(db, store, &plan).is_empty());
        });
    }

    /// The shape the optimizer's `substitute_plan` emits for a substitute with
    /// a backjoin: view ⋈ base table, compensating filter, projection.
    fn backjoin_plan(view: ViewId) -> PhysicalPlan {
        let (_, t) = mv_catalog::tpch::tpch_catalog();
        PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::HashJoin {
                    left: Box::new(PhysicalPlan::ViewScan { view }),
                    right: Box::new(PhysicalPlan::TableScan { table: t.lineitem }),
                    left_keys: vec![0, 1],
                    right_keys: vec![0, 3],
                    residual: None,
                }),
                predicate: BoolExpr::cmp(col(6), CmpOp::Le, S::lit(25i64)),
            }),
            exprs: vec![col(0), col(7)],
        }
    }

    #[test]
    fn empty_view_under_a_backjoin_plan() {
        for_each_empty_view(|db, store, view| {
            assert!(execute_plan(db, store, &backjoin_plan(view)).is_empty());
        });
    }

    #[test]
    fn empty_view_under_a_scalar_aggregate() {
        for_each_empty_view(|db, store, view| {
            let plan = PhysicalPlan::HashAggregate {
                input: Box::new(backjoin_plan(view)),
                group_by: vec![],
                aggregates: vec![
                    AggFunc::CountStar,
                    AggFunc::Sum(col(1)),
                    AggFunc::SumZero(col(1)),
                ],
            };
            assert_eq!(
                execute_plan(db, store, &plan),
                vec![vec![Value::Int(0), Value::Null, Value::Int(0)]]
            );
            // Grouped, the same input has no group to report.
            let plan = PhysicalPlan::HashAggregate {
                input: Box::new(backjoin_plan(view)),
                group_by: vec![col(0)],
                aggregates: vec![AggFunc::CountStar],
            };
            assert!(execute_plan(db, store, &plan).is_empty());
        });
    }

    /// One plan serves whatever the store holds when it runs.
    #[test]
    fn a_plan_follows_the_store() {
        let (db, t) = generate_tpch(&TpchScale::tiny(), 23);
        let plan = backjoin_plan(EMPTIED);
        let mut store = ViewStore::new();
        assert!(execute_plan(&db, &store, &plan).is_empty());
        // (l_orderkey, l_linenumber) of every lineitem: each finds its row.
        let keys: Vec<Row> = db
            .rows(t.lineitem)
            .iter()
            .map(|r| vec![r[0].clone(), r[3].clone()])
            .collect();
        store.put(EMPTIED, keys);
        let kept = db
            .rows(t.lineitem)
            .iter()
            .filter(|r| matches!(r[4], Value::Int(q) if q <= 25))
            .count();
        assert!(kept > 0);
        assert_eq!(execute_plan(&db, &store, &plan).len(), kept);
    }
}

#[cfg(test)]
mod residual_tests {
    use super::*;
    use mv_catalog::Value;
    use mv_data::{generate_tpch, TpchScale};
    use mv_expr::{BoolExpr, CmpOp, ScalarExpr as S};

    /// Hash join with an extra residual predicate over the joined row.
    #[test]
    fn hash_join_residual_filters_pairs() {
        let (db, t) = generate_tpch(&TpchScale::tiny(), 31);
        // lineitem ⋈ orders on orderkey, keeping only pairs where the
        // lineitem shipped after the order date (always true by
        // construction) AND quantity <= 25 (roughly half).
        let residual = BoolExpr::and(vec![
            BoolExpr::cmp(
                S::col(ColRef::new(0, 10)),
                CmpOp::Gt,
                S::col(ColRef::new(0, 20)), // o_orderdate at 16 + 4
            ),
            BoolExpr::cmp(S::col(ColRef::new(0, 4)), CmpOp::Le, S::lit(25i64)),
        ]);
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(PhysicalPlan::TableScan { table: t.lineitem }),
            right: Box::new(PhysicalPlan::TableScan { table: t.orders }),
            left_keys: vec![0],
            right_keys: vec![0],
            residual: Some(residual),
        };
        let rows = execute_plan(&db, &ViewStore::new(), &plan);
        let expected = db
            .rows(t.lineitem)
            .iter()
            .filter(|r| matches!(r[4], Value::Int(q) if q <= 25))
            .count();
        assert_eq!(rows.len(), expected);
    }

    /// NULL join keys never match (SQL semantics).
    #[test]
    fn null_keys_do_not_join() {
        use mv_catalog::schema::TableBuilder;
        use mv_catalog::{Catalog, ColumnType};
        let mut cat = Catalog::new();
        let a = cat.add_table(
            TableBuilder::new("a")
                .nullable_col("x", ColumnType::Int)
                .build(),
        );
        let b = cat.add_table(
            TableBuilder::new("b")
                .nullable_col("y", ColumnType::Int)
                .build(),
        );
        let mut db = mv_data::Database::new(cat);
        db.load(a, vec![vec![Value::Int(1)], vec![Value::Null]]);
        db.load(b, vec![vec![Value::Int(1)], vec![Value::Null]]);
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(PhysicalPlan::TableScan { table: a }),
            right: Box::new(PhysicalPlan::TableScan { table: b }),
            left_keys: vec![0],
            right_keys: vec![0],
            residual: None,
        };
        let rows = execute_plan(&db, &ViewStore::new(), &plan);
        assert_eq!(rows.len(), 1, "only the 1-1 pair joins; NULLs never do");
    }
}
