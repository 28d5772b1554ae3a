//! Maintenance property: under an arbitrary stream of insert/delete
//! deltas against random base tables, every registered view's maintained
//! contents equal recompute-from-scratch as row bags after *every* step —
//! for SPJ and aggregate views on the incremental path, and for a
//! self-join view on the recompute-fallback path (refreshed each step).

use mv_catalog::schema::TableBuilder;
use mv_catalog::{Catalog, ColumnType, TableId, Value};
use mv_data::{Database, Row};
use mv_exec::{bag_diff, execute_spjg};
use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_maintain::{MaintainStrategy, Maintainer, TableDelta};
use mv_plan::{AggFunc, NamedAgg, NamedExpr, SpjgExpr, ViewDef, ViewId};
use proptest::prelude::*;

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
/// NULLs), small measure domain (with NULLs) so groups collide, empty and
/// refill.
fn r_row(seed: &mut u64, next_pk: &mut i64) -> Row {
    let pk = *next_pk;
    *next_pk += 1;
    let g = match splitmix64(seed) % 4 {
        0 => Value::Null,
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
                delta.deletes.push(vec![Value::Int(-1); existing.first().map_or(2, Vec::len)]);
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
    // The self-join view is marked dirty, not changed; the others must
    // hold exactly what they held.
    check_all(&mut f, 1);
    for ((id, _), rows) in f.views.iter().zip(&before) {
        let now = f.maintainer.contents(*id).expect("registered");
        assert!(mv_exec::bag_eq(now, rows), "view {} changed", id.0);
    }
}

/// Refreshing a view leaves it where it was registered: `audit` reports
/// views in registration order whatever the refresh history.
#[test]
fn refresh_keeps_registration_order() {
    let (mut f, r, _) = fixture(11);
    // Refresh the second view after the last, then break both: the
    // diagnostics must still come first-registered first.
    let row = f.maintainer.db().rows(r)[0].clone();
    f.maintainer.apply(&TableDelta::insert(r, vec![row]));
    assert!(f.maintainer.refresh(ViewId(3)));
    assert!(f.maintainer.refresh(ViewId(1)));
    assert!(f.maintainer.corrupt_drop_row_for_audit(ViewId(3)));
    assert!(f.maintainer.corrupt_drop_row_for_audit(ViewId(1)));
    let order: Vec<_> = f
        .maintainer
        .audit()
        .iter()
        .map(|d| {
            d.context
                .view
                .clone()
                .expect("state diagnostics name their view")
        })
        .collect();
    assert_eq!(order, ["agg_by_g", "self_join"]);
}
