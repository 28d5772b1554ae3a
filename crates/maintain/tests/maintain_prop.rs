//! Maintenance property: under an arbitrary stream of insert/delete
//! deltas against random base tables, every registered view's maintained
//! contents equal recompute-from-scratch as row bags after *every* step —
//! for SPJ and aggregate views on the incremental path, and for a
//! self-join view on the recompute-fallback path (refreshed each step).
//!
//! Around it: update-shaped deltas cancel for exactly the views that do
//! not reference the changed columns (checked against a model built from
//! `SpjgExpr::referenced_columns`), a `SUM` over a `Float`-declared column
//! is maintained in place whatever its values, a float `SUM` reads the same
//! bits in every row order, and a malformed delta changes nothing.

use mv_catalog::schema::TableBuilder;
use mv_catalog::{Catalog, ColumnType, TableId, Value};
use mv_core::{MatchConfig, MatchingEngine};
use mv_data::{Database, Row};
use mv_exec::{bag_diff, execute_spjg, ExecScratch, PlanProgram, RowBag};
use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_maintain::{MaintainStrategy, Maintainer, TableDelta};
use mv_plan::{AggFunc, NamedAgg, NamedExpr, SpjgExpr, ViewDef, ViewId};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn cr(occ: u32, col: u32) -> ColRef {
    ColRef::new(occ, col)
}

/// R(pk, g, x) and S(fk, y): a keyed fact table with a nullable group and
/// measure, and a narrow table joining to it.
fn schema() -> (Catalog, TableId, TableId) {
    let mut cat = Catalog::new();
    let r = cat.add_table(
        TableBuilder::new("r")
            .col("pk", ColumnType::Int)
            .nullable_col("g", ColumnType::Int)
            .nullable_col("x", ColumnType::Int)
            .primary_key(&["pk"])
            .build(),
    );
    let s = cat.add_table(
        TableBuilder::new("s")
            .nullable_col("fk", ColumnType::Int)
            .col("y", ColumnType::Int)
            .build(),
    );
    (cat, r, s)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A row for `r`: fresh pk from a counter, small group domain (with
/// NULLs, and a `Float(0.0)` that an update can flip to `-0.0`), small
/// measure domain (with NULLs) so groups collide, empty and refill.
fn r_row(seed: &mut u64, next_pk: &mut i64) -> Row {
    let pk = *next_pk;
    *next_pk += 1;
    let g = match splitmix64(seed) % 5 {
        0 => Value::Null,
        4 => Value::Float(0.0),
        v => Value::Int(v as i64),
    };
    let x = match splitmix64(seed) % 5 {
        0 => Value::Null,
        v => Value::Int(v as i64 * 10),
    };
    vec![Value::Int(pk), g, x]
}

fn s_row(seed: &mut u64) -> Row {
    let fk = match splitmix64(seed) % 6 {
        0 => Value::Null,
        v => Value::Int(v as i64),
    };
    vec![fk, Value::Int((splitmix64(seed) % 7) as i64)]
}

struct Fixture {
    maintainer: Maintainer,
    views: Vec<(ViewId, SpjgExpr)>,
}

fn fixture(seed: u64) -> (Fixture, TableId, TableId) {
    let (cat, r, s) = schema();
    let mut db = Database::new(cat);
    let mut st = seed;
    let mut next_pk = 0i64;
    let r_rows: Vec<Row> = (0..6).map(|_| r_row(&mut st, &mut next_pk)).collect();
    let s_rows: Vec<Row> = (0..6).map(|_| s_row(&mut st)).collect();
    db.load(r, r_rows);
    db.load(s, s_rows);
    let mut maintainer = Maintainer::new(db);

    // SPJ join with a compensatable filter.
    let spj = SpjgExpr::spj(
        vec![r, s],
        BoolExpr::and(vec![
            BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
            BoolExpr::cmp(S::col(cr(0, 2)), CmpOp::Lt, S::lit(35i64)),
        ]),
        vec![
            NamedExpr::new(S::col(cr(0, 0)), "pk"),
            NamedExpr::new(S::col(cr(0, 1)), "g"),
            NamedExpr::new(S::col(cr(1, 1)), "y"),
        ],
    );
    // Grouped aggregate with an integer sum (all-NULL groups, emptied
    // groups and the NULL-sum rule are all reachable from the domains).
    let agg = SpjgExpr::aggregate(
        vec![r],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(S::col(cr(0, 1)), "g")],
        vec![
            NamedAgg::new(AggFunc::CountStar, "cnt"),
            NamedAgg::new(AggFunc::Sum(S::col(cr(0, 2))), "sum_x"),
        ],
    );
    // Scalar aggregate: the one-row-over-empty-input rule.
    let scalar = SpjgExpr::aggregate(
        vec![s],
        BoolExpr::cmp(S::col(cr(0, 1)), CmpOp::Ge, S::lit(2i64)),
        vec![],
        vec![
            NamedAgg::new(AggFunc::CountStar, "cnt"),
            NamedAgg::new(AggFunc::Sum(S::col(cr(0, 1))), "sum_y"),
        ],
    );
    // Self-join: multi-occurrence, so the recompute fallback.
    let selfjoin = SpjgExpr::spj(
        vec![r, r],
        BoolExpr::col_eq(cr(0, 1), cr(1, 1)),
        vec![
            NamedExpr::new(S::col(cr(0, 0)), "pk_a"),
            NamedExpr::new(S::col(cr(1, 0)), "pk_b"),
        ],
    );
    let mut views = Vec::new();
    for (i, (name, expr, want_strategy)) in [
        ("spj_join", spj, MaintainStrategy::Incremental),
        ("agg_by_g", agg, MaintainStrategy::Incremental),
        ("scalar_s", scalar, MaintainStrategy::Incremental),
        ("self_join", selfjoin, MaintainStrategy::Recompute),
    ]
    .into_iter()
    .enumerate()
    {
        let id = ViewId(i as u32);
        let def = ViewDef::new(name, expr.clone());
        let got = maintainer.register(id, &def);
        assert_eq!(got, want_strategy, "strategy for {name}");
        views.push((id, expr));
    }
    (Fixture { maintainer, views }, r, s)
}

/// Check every view against recompute; recompute-strategy views are
/// refreshed first (the contract is refresh-then-read, not free currency).
fn check_all(f: &mut Fixture, step: usize) {
    let dirty: Vec<ViewId> = f
        .views
        .iter()
        .map(|(id, _)| *id)
        .filter(|&id| f.maintainer.is_dirty(id))
        .collect();
    for id in dirty {
        assert!(f.maintainer.refresh(id));
    }
    for (id, expr) in &f.views {
        let want = execute_spjg(f.maintainer.db(), expr);
        let got = f.maintainer.contents(*id).expect("registered view");
        assert!(
            mv_exec::bag_eq(got, &want),
            "step {}: view {} drifted: {:?}",
            step,
            id.0,
            bag_diff(got, &want)
        );
    }
    // The built-in audit must agree that nothing drifted.
    let diags = f.maintainer.audit();
    assert!(diags.is_empty(), "step {step}: audit found {diags:?}");
}

/// How many rows `deletes` can actually remove from `stored`, each
/// delete taking one matching copy: what `rows_deleted` must report.
fn satisfiable(stored: &[Row], deletes: &[Row]) -> usize {
    let mut left = stored.to_vec();
    deletes
        .iter()
        .filter(|d| match left.iter().position(|r| r == *d) {
            Some(at) => {
                left.swap_remove(at);
                true
            }
            None => false,
        })
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `steps` drives the delta stream: (table pick, op pick, seed).
    /// Inserts draw 1–4 fresh rows from the row generators and half the
    /// time repeat one of them; deletes name 1–4 stored rows picked by
    /// index — the same row twice when the picks collide, which the table
    /// can satisfy only if it holds two copies — and, for op 3, a row no
    /// table ever held; ops 2 and 3 do both in one round.
    #[test]
    fn maintained_contents_equal_recompute_after_every_step(
        steps in prop::collection::vec((0usize..2, 0usize..4, 0u64..u64::MAX), 1..18),
        seed in 0u64..u64::MAX,
    ) {
        let (mut f, r, s) = fixture(seed);
        let mut next_pk = 1000i64;
        check_all(&mut f, 0);
        for (i, &(tsel, op, sd)) in steps.iter().enumerate() {
            let table = if tsel == 0 { r } else { s };
            let mut st = sd;
            let existing = f.maintainer.db().rows(table).to_vec();
            let n = 1 + (splitmix64(&mut st) % 4) as usize;
            let mut delta = TableDelta { table, inserts: Vec::new(), deletes: Vec::new() };
            if op != 1 {
                for _ in 0..n {
                    delta.inserts.push(if tsel == 0 {
                        r_row(&mut st, &mut next_pk)
                    } else {
                        s_row(&mut st)
                    });
                }
                if splitmix64(&mut st).is_multiple_of(2) {
                    delta.inserts.push(delta.inserts[0].clone());
                }
            }
            if op != 0 && !existing.is_empty() {
                for _ in 0..n {
                    let pick = (splitmix64(&mut st) % existing.len() as u64) as usize;
                    delta.deletes.push(existing[pick].clone());
                }
            }
            if op == 3 {
                let arity = f.maintainer.db().catalog.table(table).columns.len();
                delta.deletes.push(vec![Value::Int(-1); arity]);
            }
            let report = f.maintainer.apply(&delta);
            prop_assert_eq!(
                report.rows_deleted,
                satisfiable(&existing, &delta.deletes),
                "step {}",
                i
            );
            check_all(&mut f, i + 1);
        }
    }
}

/// A delete naming a row the table does not hold removes nothing — from
/// the table or from any view — and `rows_deleted` reports the shortfall.
/// (Propagating it used to decrement the group of a look-alike row.)
#[test]
fn delete_of_an_absent_row_reaches_no_view() {
    let (mut f, r, s) = fixture(7);
    let before: Vec<Vec<Row>> = f
        .views
        .iter()
        .map(|(id, _)| f.maintainer.contents(*id).expect("registered").to_vec())
        .collect();
    // Same group and measure as a stored row, a key no row has.
    let mut ghost = f.maintainer.db().rows(r)[0].clone();
    ghost[0] = Value::Int(-1);
    for (table, row) in [(r, ghost), (s, vec![Value::Int(99), Value::Int(99)])] {
        let report = f.maintainer.apply(&TableDelta::delete(table, vec![row]));
        assert_eq!(report.rows_deleted, 0);
    }
    // Nothing left either table, so no view changed or was marked dirty.
    assert!(f.views.iter().all(|(id, _)| !f.maintainer.is_dirty(*id)));
    check_all(&mut f, 1);
    for ((id, _), rows) in f.views.iter().zip(&before) {
        let now = f.maintainer.contents(*id).expect("registered");
        assert!(mv_exec::bag_eq(now, rows), "view {} changed", id.0);
    }
}

/// The columns of `table` a view references, in any occurrence.
fn read_cols(expr: &SpjgExpr, table: TableId) -> Vec<usize> {
    expr.referenced_columns()
        .iter()
        .filter(|c| expr.table_of(c.occ) == table)
        .map(|c| c.col.0 as usize)
        .collect()
}

/// The rows a view reading `cols` must still delta-join after each removed
/// row cancels against an inserted row identical to it on `cols`
/// ([`Value::identical`]): the
/// unpaired removed rows, then the unpaired inserted rows. (Greedy
/// pairing is a maximum one: "identical on `cols`" is an equivalence.)
fn model_remainder(cols: &[usize], removed: &[Row], inserted: &[Row]) -> (Vec<Row>, Vec<Row>) {
    let mut minus = removed.to_vec();
    let mut plus = Vec::new();
    for ins in inserted {
        match minus
            .iter()
            .position(|r| cols.iter().all(|&c| r[c].identical(&ins[c])))
        {
            Some(at) => {
                minus.remove(at);
            }
            None => plus.push(ins.clone()),
        }
    }
    (minus, plus)
}

/// The stored rows `deletes` removes, as `Database::delete_rows` picks
/// them: each stored row, in storage order, that equals a pending delete.
fn removed_by(stored: &[Row], deletes: &[Row]) -> Vec<Row> {
    let mut pending: Vec<&Row> = deletes.iter().collect();
    stored
        .iter()
        .filter(|r| match pending.iter().position(|p| *p == *r) {
            Some(at) => {
                pending.swap_remove(at);
                true
            }
            None => false,
        })
        .cloned()
        .collect()
}

/// `old` with one column's value replaced: by itself (so `NULL → NULL`
/// stays `NULL`), by the equal `Float` of an `Int` (`Int(3) → Float(3.0)`,
/// equal under `Value::eq` but not identical), by a `Float` with its sign
/// flipped (`0.0 → -0.0` is the same pair again), by `NULL`, or by a small
/// integer. A key column only ever takes itself or a fresh key.
fn update_value(old: &Value, seed: &mut u64, fresh_key: Option<&mut i64>) -> Value {
    let pick = splitmix64(seed) % 4;
    if let Some(next) = fresh_key {
        if pick == 0 {
            return old.clone();
        }
        *next += 1;
        return Value::Int(*next);
    }
    match (pick, old) {
        (0, _) => old.clone(),
        (1, Value::Int(i)) => Value::Float(*i as f64),
        (1, Value::Float(x)) => Value::Float(-x),
        (1 | 2, _) => Value::Null,
        _ => Value::Int((splitmix64(seed) % 5) as i64 * 10),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Update-shaped rounds — 1–6 distinct stored rows deleted, each
    /// re-inserted with one column changed (past 4 × 4 rows the rows are
    /// paired by hashing, not scanning) — cancel for exactly the views
    /// that reference none of the changed columns of their pair, whether
    /// or not a `SUM` of theirs holds a `Float` (an update can turn
    /// `Int(v)` into `Float(v)`). Each view's fate follows the model:
    /// `unchanged` counts the views whose
    /// remainder is empty, those are neither dirtied nor touched (the
    /// self-join included), every view reading the table is maintained or
    /// dirty, and contents still equal recompute after every step.
    #[test]
    fn update_pairs_cancel_exactly_where_no_read_column_changed(
        steps in prop::collection::vec((0usize..2, 1usize..7, 0u64..u64::MAX), 1..14),
        seed in 0u64..u64::MAX,
    ) {
        let (mut f, r, s) = fixture(seed);
        let mut next_pk = 1000i64;
        for (i, &(tsel, k, sd)) in steps.iter().enumerate() {
            let table = if tsel == 0 { r } else { s };
            let mut st = sd;
            let existing = f.maintainer.db().rows(table).to_vec();
            let mut picks: Vec<usize> = (0..existing.len()).collect();
            let mut delta = TableDelta { table, inserts: Vec::new(), deletes: Vec::new() };
            for _ in 0..k.min(existing.len()) {
                let old = existing[picks.swap_remove((splitmix64(&mut st) % picks.len() as u64) as usize)].clone();
                let mut new = old.clone();
                let col = (splitmix64(&mut st) % old.len() as u64) as usize;
                let key = (table == r && col == 0).then_some(&mut next_pk);
                new[col] = update_value(&old[col], &mut st, key);
                delta.deletes.push(old);
                delta.inserts.push(new);
            }
            let removed = removed_by(&existing, &delta.deletes);
            let readers: Vec<(ViewId, bool)> = f
                .views
                .iter()
                .filter(|(_, e)| e.tables.contains(&table))
                .map(|(id, e)| {
                    let (minus, plus) = model_remainder(&read_cols(e, table), &removed, &delta.inserts);
                    (*id, minus.is_empty() && plus.is_empty())
                })
                .collect();
            let before: Vec<Vec<Row>> = readers
                .iter()
                .map(|(id, _)| f.maintainer.contents(*id).expect("registered").to_vec())
                .collect();
            let report = f.maintainer.apply(&delta);
            prop_assert_eq!(report.rows_deleted, delta.deletes.len(), "step {}", i);
            prop_assert_eq!(
                report.unchanged,
                readers.iter().filter(|(_, unchanged)| *unchanged).count(),
                "step {}", i
            );
            prop_assert_eq!(report.maintained + report.marked_dirty, readers.len(), "step {}", i);
            for ((id, unchanged), rows) in readers.iter().zip(&before) {
                if *unchanged {
                    prop_assert!(!f.maintainer.is_dirty(*id), "step {}: view {} dirtied", i, id.0);
                    let now = f.maintainer.contents(*id).expect("registered");
                    prop_assert!(now == rows.as_slice(), "step {}: view {} touched", i, id.0);
                } else if *id == ViewId(3) {
                    prop_assert!(f.maintainer.is_dirty(*id), "step {}: self-join not dirtied", i);
                }
            }
            check_all(&mut f, i + 1);
        }
    }
}

/// An update to a column the self-join never reads leaves it clean, and
/// is delta-joined only by the views that read the column.
#[test]
fn self_join_is_not_dirtied_by_an_update_it_does_not_read() {
    let (mut f, r, _) = fixture(3);
    let old = f.maintainer.db().rows(r)[0].clone();
    let mut new = old.clone();
    // `x`: read by `spj_join` (its filter) and `agg_by_g` (its sum), not
    // by `self_join` (pk and g).
    new[2] = match &old[2] {
        Value::Int(x) => Value::Int(x + 1),
        _ => Value::Int(7),
    };
    let report = f.maintainer.apply(&TableDelta {
        table: r,
        inserts: vec![new],
        deletes: vec![old],
    });
    assert_eq!(report.unchanged, 1);
    assert_eq!((report.maintained, report.marked_dirty), (3, 0));
    assert!(!f.maintainer.is_dirty(ViewId(3)));
    check_all(&mut f, 1);
}

/// `Int(v) → Float(v)` is equal under `Value::eq` but not a cancelled
/// pair: the views reading `x` take the round in place (the sum now holds
/// a float), and only the self-join, which does not read `x`, is
/// unchanged.
#[test]
fn int_to_equal_float_update_is_a_change() {
    let (mut f, r, _) = fixture(3);
    let old = f
        .maintainer
        .db()
        .rows(r)
        .iter()
        .find(|row| matches!(row[2], Value::Int(_)))
        .expect("a row with an integer x")
        .clone();
    let mut new = old.clone();
    let Value::Int(x) = old[2] else {
        unreachable!("picked for its integer x")
    };
    new[2] = Value::Float(x as f64);
    assert_eq!(old, new, "Value::eq equates the pair");
    let report = f.maintainer.apply(&TableDelta {
        table: r,
        inserts: vec![new],
        deletes: vec![old],
    });
    assert_eq!(report.unchanged, 1);
    assert_eq!((report.maintained, report.marked_dirty), (3, 0));
    assert!(!f.maintainer.is_dirty(ViewId(1)), "SUM(x) takes the float");
    assert!(!f.maintainer.is_dirty(ViewId(3)));
    check_all(&mut f, 1);
}

/// A delete takes its own derivation out of an SPJ view, not an equal
/// look-alike: with `(1, 3.0)` and `(2, Int 3)` stored, deleting `(2, 3)`
/// leaves `SELECT x FROM f` holding the `Float`, as recompute does.
/// (Matching rows with `Value::eq` used to take the `Float` instead, and
/// MV401 could not tell: its bag comparison treats `Int(3)` and
/// `Float(3.0)` as equal, so the variant left behind is checked here.)
#[test]
fn deleting_an_int_leaves_the_equal_float_behind() {
    let mut cat = Catalog::new();
    let f = cat.add_table(
        TableBuilder::new("f")
            .col("pk", ColumnType::Int)
            .nullable_col("x", ColumnType::Float)
            .primary_key(&["pk"])
            .build(),
    );
    let mut db = Database::new(cat);
    db.load(
        f,
        vec![
            vec![Value::Int(1), Value::Float(3.0)],
            vec![Value::Int(2), Value::Int(3)],
        ],
    );
    let mut maintainer = Maintainer::new(db);
    let view = SpjgExpr::spj(
        vec![f],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(S::col(cr(0, 1)), "x")],
    );
    maintainer.register(ViewId(0), &ViewDef::new("f_x", view.clone()));
    let report = maintainer.apply(&TableDelta::delete(
        f,
        vec![vec![Value::Int(2), Value::Int(3)]],
    ));
    assert_eq!((report.rows_deleted, report.maintained), (1, 1));
    let got = maintainer.contents(ViewId(0)).expect("registered");
    let want = execute_spjg(maintainer.db(), &view);
    for rows in [got, &want[..]] {
        assert!(
            matches!(rows, [row] if matches!(row[..], [Value::Float(x)] if x == 3.0)),
            "{rows:?}"
        );
    }
    assert!(maintainer.audit().is_empty());
}

/// `0.0 → -0.0` is equal under `Value::eq` but not a cancelled pair: the
/// view takes the round and holds `-0.0`, as recompute does. (Pairing
/// rows by variant and `Value::eq` used to cancel the pair, leave `0.0`
/// behind and report the view unchanged; MV401 compares with `Value::eq`
/// and cannot tell.)
#[test]
fn negative_zero_update_is_a_change() {
    let mut cat = Catalog::new();
    let f = cat.add_table(
        TableBuilder::new("f")
            .col("pk", ColumnType::Int)
            .nullable_col("x", ColumnType::Float)
            .primary_key(&["pk"])
            .build(),
    );
    let row = |x: f64| vec![Value::Int(1), Value::Float(x)];
    let mut db = Database::new(cat);
    db.load(f, vec![row(0.0)]);
    let mut maintainer = Maintainer::new(db);
    let view = SpjgExpr::spj(
        vec![f],
        BoolExpr::Literal(true),
        vec![
            NamedExpr::new(S::col(cr(0, 0)), "pk"),
            NamedExpr::new(S::col(cr(0, 1)), "x"),
        ],
    );
    maintainer.register(ViewId(0), &ViewDef::new("f_all", view.clone()));
    let report = maintainer.apply(&TableDelta {
        table: f,
        inserts: vec![row(-0.0)],
        deletes: vec![row(0.0)],
    });
    assert_eq!((report.maintained, report.unchanged), (1, 0));
    let got = maintainer.contents(ViewId(0)).expect("registered");
    let want = execute_spjg(maintainer.db(), &view);
    for rows in [got, &want[..]] {
        assert!(
            matches!(rows, [r] if r.iter().zip(&row(-0.0)).all(|(a, b)| a.identical(b))),
            "{rows:?}"
        );
    }
    assert!(maintainer.audit().is_empty());
}

/// `f(pk, g, x)` with `x` declared `Float`, as the TPC-H money columns
/// are, and two views summing it: grouped, and scalar with a zero default.
fn float_fixture(rows: Vec<Row>) -> (Maintainer, Vec<(ViewId, SpjgExpr)>, TableId) {
    let mut cat = Catalog::new();
    let t = cat.add_table(
        TableBuilder::new("f")
            .col("pk", ColumnType::Int)
            .nullable_col("g", ColumnType::Int)
            .nullable_col("x", ColumnType::Float)
            .primary_key(&["pk"])
            .build(),
    );
    let mut db = Database::new(cat);
    db.load(t, rows);
    let mut maintainer = Maintainer::new(db);
    let grouped = SpjgExpr::aggregate(
        vec![t],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(S::col(cr(0, 1)), "g")],
        vec![
            NamedAgg::new(AggFunc::CountStar, "cnt"),
            NamedAgg::new(AggFunc::Sum(S::col(cr(0, 2))), "sum_x"),
        ],
    );
    let scalar = SpjgExpr::aggregate(
        vec![t],
        BoolExpr::Literal(true),
        vec![],
        vec![NamedAgg::new(AggFunc::SumZero(S::col(cr(0, 2))), "sum_x")],
    );
    let mut views = Vec::new();
    for (i, (name, expr)) in [("f_by_g", grouped), ("f_total", scalar)]
        .into_iter()
        .enumerate()
    {
        let id = ViewId(i as u32);
        assert_eq!(
            maintainer.register(id, &ViewDef::new(name, expr.clone())),
            MaintainStrategy::Incremental,
            "a Float-declared sum is classified by structure, not type"
        );
        views.push((id, expr));
    }
    (maintainer, views, t)
}

/// A measure for `f`: NULL one time in five, otherwise an integer or —
/// with probability `floats / 2` — a float whose sums round.
fn f_measure(seed: &mut u64, floats: u64) -> Value {
    let v = splitmix64(seed) % 10;
    if v < 2 {
        Value::Null
    } else if splitmix64(seed) % 2 < floats {
        Value::Float(v as f64 * 0.1)
    } else {
        Value::Int(v as i64)
    }
}

/// Integers in a `Float`-declared column are summed exactly in place:
/// the views register `Incremental` and a stream of integer rounds never
/// dirties them.
#[test]
fn float_declared_sums_over_integers_stay_incremental() {
    let rows = (0..8)
        .map(|i| vec![Value::Int(i), Value::Int(i % 3), Value::Int(i * 10)])
        .collect();
    let (mut maintainer, views, t) = float_fixture(rows);
    for round in 0..6i64 {
        let old = maintainer.db().rows(t)[0].clone();
        let delta = TableDelta {
            table: t,
            inserts: vec![vec![
                Value::Int(100 + round),
                Value::Int(round % 4),
                Value::Int(round),
            ]],
            deletes: vec![old],
        };
        let report = maintainer.apply(&delta);
        assert_eq!((report.maintained, report.marked_dirty), (2, 0));
        for (id, expr) in &views {
            assert!(!maintainer.is_dirty(*id));
            let want = execute_spjg(maintainer.db(), expr);
            let got = maintainer.contents(*id).expect("registered");
            assert!(
                mv_exec::bag_eq(got, &want),
                "round {round}: {:?}",
                bag_diff(got, &want)
            );
        }
    }
    assert!(maintainer.audit().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Integer, mixed and float-valued streams into a `Float`-declared
    /// sum (`floats` 0, 1, 2). No round dirties either view: each takes
    /// every round in place, a round whose remainder is empty leaves it
    /// unchanged, and its contents equal `execute_spjg` (floats compared
    /// bit for bit) with the audit clean after every round.
    #[test]
    fn float_sums_stay_incremental(
        steps in prop::collection::vec((0usize..3, 0u64..u64::MAX), 1..16),
        floats in 0u64..3,
        seed in 0u64..u64::MAX,
    ) {
        let mut st = seed;
        let mut next_pk = 0i64;
        let mut row = |st: &mut u64| {
            next_pk += 1;
            vec![Value::Int(next_pk), Value::Int((splitmix64(st) % 3) as i64), f_measure(st, floats)]
        };
        let rows: Vec<Row> = (0..6).map(|_| row(&mut st)).collect();
        let (mut maintainer, views, t) = float_fixture(rows);
        for (i, &(op, sd)) in steps.iter().enumerate() {
            let mut st = sd;
            let existing = maintainer.db().rows(t).to_vec();
            let mut picks: Vec<usize> = (0..existing.len()).collect();
            let mut delta = TableDelta { table: t, inserts: Vec::new(), deletes: Vec::new() };
            if op != 0 {
                for _ in 0..(1 + splitmix64(&mut st) % 2).min(picks.len() as u64) {
                    let at = picks.swap_remove((splitmix64(&mut st) % picks.len() as u64) as usize);
                    delta.deletes.push(existing[at].clone());
                }
            }
            if op != 1 {
                for _ in 0..1 + splitmix64(&mut st) % 2 {
                    delta.inserts.push(row(&mut st));
                }
            }
            let removed = removed_by(&existing, &delta.deletes);
            let unchanged = views
                .iter()
                .filter(|(_, e)| {
                    let (minus, plus) = model_remainder(&read_cols(e, t), &removed, &delta.inserts);
                    minus.is_empty() && plus.is_empty()
                })
                .count();
            let report = maintainer.apply(&delta);
            prop_assert_eq!(
                (report.maintained, report.unchanged, report.marked_dirty),
                (2, unchanged, 0),
                "step {}", i
            );
            for (id, expr) in &views {
                prop_assert!(!maintainer.is_dirty(*id), "step {}: view {} dirtied", i, id.0);
                let want = execute_spjg(maintainer.db(), expr);
                let got = maintainer.contents(*id).expect("registered");
                prop_assert!(
                    mv_exec::bag_eq(got, &want),
                    "step {}: view {} differs: {:?}", i, id.0, bag_diff(got, &want)
                );
            }
            let diags = maintainer.audit();
            prop_assert!(diags.is_empty(), "step {}: audit found {:?}", i, diags);
        }
    }
}

/// `f`'s rows for the cancelled-pair regressions: a sum over `x` that
/// rounds differently once the `Int(8)` moves from first to last.
fn reordering_rows() -> Vec<Row> {
    let x = [
        Value::Int(8),
        Value::Float(0.5),
        Value::Float(0.2),
        Value::Float(0.6000000000000001),
        Value::Int(5),
    ];
    x.into_iter()
        .enumerate()
        .map(|(i, x)| vec![Value::Int(i as i64 + 3), Value::Int(2), x])
        .collect()
}

/// Delete `(3, 2, 8)` and insert `(11, 0, 8)`: to a view reading only `x`
/// the pair is identical, but the `8` now comes last in the table.
fn reordering_pair(t: TableId) -> TableDelta {
    TableDelta {
        table: t,
        inserts: vec![vec![Value::Int(11), Value::Int(0), Value::Int(8)]],
        deletes: vec![vec![Value::Int(3), Value::Int(2), Value::Int(8)]],
    }
}

/// Check a clean view against recompute as row bags, floats bit for bit
/// ([`Value::identical`]), and audit.
fn assert_current(maintainer: &Maintainer, id: ViewId, expr: &SpjgExpr) {
    assert!(!maintainer.is_dirty(id), "view {} dirtied", id.0);
    let got = maintainer.contents(id).expect("registered");
    let mut want = execute_spjg(maintainer.db(), expr);
    for row in got {
        let same = |w: &Row| w.iter().zip(row).all(|(a, b)| a.identical(b));
        let at = want.iter().position(same);
        let at = at.unwrap_or_else(|| panic!("view {}: {row:?} not in {want:?}", id.0));
        want.swap_remove(at);
    }
    assert!(want.is_empty(), "view {}: missing {want:?}", id.0);
    assert!(maintainer.audit().is_empty());
}

/// A `SUM(x)` over `reordering_rows` reads the same bits whatever the
/// order of the table's rows: through the interpreter, through the
/// compiled program, and in a view maintained through `reordering_pair`,
/// which moves the `8` from first to last. (A sum that adds in row order
/// reads 14.299999999999999 with the `8` first and 14.3 with it last.)
#[test]
fn float_sum_reads_the_same_bits_in_every_row_order() {
    let rows = reordering_rows();
    let n = rows.len();
    // Every n-digit base-n number whose digits are a permutation.
    let orders: Vec<Vec<usize>> = (0..n.pow(n as u32))
        .map(|k| (0..n).map(|d| k / n.pow(d as u32) % n).collect())
        .filter(|order: &Vec<usize>| (0..n).all(|i| order.contains(&i)))
        .collect();
    assert_eq!(orders.len(), 120);
    let sum = |rows: &[Row]| match rows {
        [row] => match row[0] {
            Value::Float(x) => x.to_bits(),
            ref v => panic!("a float sum, not {v:?}"),
        },
        _ => panic!("one row, not {rows:?}"),
    };
    let all_equal = |bits: &[u64]| {
        let floats: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        assert!(bits.iter().all(|&b| b == bits[0]), "{floats:?}");
    };
    let mut bits = Vec::new();
    let mut fixtures = Vec::new();
    for order in &orders {
        let permuted: Vec<Row> = order.iter().map(|&i| rows[i].clone()).collect();
        let (maintainer, views, t) = float_fixture(permuted);
        let scalar = &views[1].1;
        bits.push(sum(&execute_spjg(maintainer.db(), scalar)));
        let mut bag = RowBag::new();
        let mut scratch = ExecScratch::default();
        PlanProgram::compile(scalar).execute(maintainer.db(), &mut scratch, &mut bag);
        bits.push(sum(bag.rows()));
        fixtures.push((maintainer, views, t));
    }
    all_equal(&bits);
    for (mut maintainer, views, t) in fixtures {
        let (id, scalar) = &views[1];
        maintainer.apply(&reordering_pair(t));
        bits.push(sum(maintainer.contents(*id).expect("registered")));
        assert_current(&maintainer, *id, scalar);
    }
    all_equal(&bits);
}

/// A pair that cancels on the columns a float-summing view reads leaves
/// it unchanged: the scalar `SUM(x)` keeps its total in place, and
/// `f_by_g`, which reads the `g` the pair changes, takes the round in
/// place. Neither is dirtied.
#[test]
fn cancelled_pair_leaves_a_float_sum_unchanged() {
    let (mut maintainer, views, t) = float_fixture(reordering_rows());
    let report = maintainer.apply(&reordering_pair(t));
    assert_eq!((report.unchanged, report.marked_dirty), (1, 0));
    for (id, expr) in &views {
        assert_current(&maintainer, *id, expr);
    }
}

/// The same for a recomputed aggregate view: a self-join summing a float
/// reads only `x`, so the pair leaves it unchanged and clean too.
#[test]
fn cancelled_pair_leaves_a_recomputed_float_sum_unchanged() {
    let (mut maintainer, _, t) = float_fixture(reordering_rows());
    let cross = SpjgExpr::aggregate(
        vec![t, t],
        BoolExpr::Literal(true),
        vec![],
        vec![NamedAgg::new(AggFunc::Sum(S::col(cr(1, 2))), "sum_x")],
    );
    let id = ViewId(2);
    let def = ViewDef::new("f_cross", cross.clone());
    assert_eq!(maintainer.register(id, &def), MaintainStrategy::Recompute);
    let report = maintainer.apply(&reordering_pair(t));
    assert_eq!((report.unchanged, report.marked_dirty), (2, 0));
    assert_current(&maintainer, id, &cross);
}

/// A malformed delta — an insert of the wrong width behind a valid
/// delete, a delete of the wrong width, a table the catalog does not hold
/// — panics before anything changes: base rows, every view's contents,
/// the audit and the engine's epochs and stamps are all as they were.
/// (The wrong-width insert used to land the delete and record the write
/// first, leaving incremental views wrong.)
#[test]
fn malformed_delta_changes_nothing() {
    let (mut f, r, s) = fixture(5);
    let engine = MatchingEngine::new(f.maintainer.db().catalog.clone(), MatchConfig::default());
    for (id, expr) in &f.views {
        let def = ViewDef::new(format!("v{}", id.0), expr.clone());
        assert_eq!(engine.add_view(def).expect("view registers"), *id);
    }
    let snapshot = |f: &Fixture| {
        let tables: Vec<Vec<Row>> = [r, s]
            .iter()
            .map(|&t| f.maintainer.db().rows(t).to_vec())
            .collect();
        let contents: Vec<Vec<Row>> = f
            .views
            .iter()
            .map(|(id, _)| f.maintainer.contents(*id).expect("registered").to_vec())
            .collect();
        let epochs: Vec<u64> = [r, s].iter().map(|&t| engine.data_epoch(t)).collect();
        let stamps: Vec<_> = f
            .views
            .iter()
            .map(|(id, _)| engine.view_data_epochs(*id))
            .collect();
        let audit = format!("{:?}", f.maintainer.audit());
        (tables, contents, epochs, stamps, audit)
    };
    let before = snapshot(&f);
    assert_eq!(before.4, "[]");
    let stored = f.maintainer.db().rows(r)[0].clone();
    let bad = [
        TableDelta {
            table: r,
            inserts: vec![vec![Value::Int(1); 2]],
            deletes: vec![stored.clone()],
        },
        TableDelta::delete(r, vec![vec![Value::Int(1); 4]]),
        TableDelta::insert(TableId(9), vec![stored]),
    ];
    for (i, delta) in bad.iter().enumerate() {
        let with_engine = catch_unwind(AssertUnwindSafe(|| {
            f.maintainer.apply_with_engine(delta, &engine)
        }));
        assert!(with_engine.is_err(), "delta {i} was accepted");
        assert!(
            before == snapshot(&f),
            "delta {i} half-applied with the engine"
        );
        let alone = catch_unwind(AssertUnwindSafe(|| f.maintainer.apply(delta)));
        assert!(alone.is_err(), "delta {i} was accepted");
        assert!(before == snapshot(&f), "delta {i} half-applied");
    }
}
