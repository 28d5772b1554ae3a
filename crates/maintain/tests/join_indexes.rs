//! The maintainer keeps the join indexes of its program runs across views
//! and write rounds, so an index must never outlive a write to its table.
//! Each step here writes one table and then runs a join that probes the
//! other, on tables large enough that the joins probe indexes rather than
//! scan: a write to `a`, a delta on `b` whose delta join probes `a`, a
//! second write to `a`, and a refresh of a view over `a` and `b`. After
//! every step each view's contents equal recompute.

use mv_catalog::schema::TableBuilder;
use mv_catalog::{Catalog, ColumnType, TableId, Value};
use mv_data::{Database, Row};
use mv_exec::{bag_diff, bag_eq, execute_spjg};
use mv_expr::{BoolExpr, ColRef, ScalarExpr as S};
use mv_maintain::{MaintainStrategy, Maintainer, TableDelta};
use mv_plan::{AggFunc, NamedAgg, NamedExpr, SpjgExpr, ViewDef, ViewId};

fn cr(occ: u32, col: u32) -> ColRef {
    ColRef::new(occ, col)
}

/// `n` rows `(pk, k)` with `pk` from `first` and `k = pk % 5`: every key
/// is held by several rows.
fn rows(first: i64, n: i64) -> Vec<Row> {
    (first..first + n)
        .map(|pk| vec![Value::Int(pk), Value::Int(pk % 5)])
        .collect()
}

/// Every view not waiting for a refresh holds what recompute gives, and
/// the audit agrees.
fn check(m: &Maintainer, views: &[(ViewId, SpjgExpr)], step: &str) {
    for (id, expr) in views.iter().filter(|(id, _)| !m.is_dirty(*id)) {
        let got = m.contents(*id).expect("registered");
        let want = execute_spjg(m.db(), expr);
        assert!(
            bag_eq(got, &want),
            "{step}, view {}: {:?}",
            id.0,
            bag_diff(got, &want)
        );
    }
    assert!(m.audit().is_empty(), "{step}: {:?}", m.audit());
}

#[test]
fn no_join_index_outlives_a_write_to_its_table() {
    let mut cat = Catalog::new();
    let table = |cat: &mut Catalog, name: &str| -> TableId {
        cat.add_table(
            TableBuilder::new(name)
                .col("pk", ColumnType::Int)
                .col("k", ColumnType::Int)
                .primary_key(&["pk"])
                .build(),
        )
    };
    let (a, b) = (table(&mut cat, "a"), table(&mut cat, "b"));
    let mut db = Database::new(cat);
    db.load(a, rows(0, 20));
    db.load(b, rows(100, 20));
    let mut m = Maintainer::new(db);

    // `b` first, so a full run probes `a` on `k` with twenty prefix tuples.
    let joined = || BoolExpr::col_eq(cr(0, 1), cr(1, 1));
    let spj = SpjgExpr::spj(
        vec![b, a],
        joined(),
        vec![
            NamedExpr::new(S::col(cr(0, 0)), "b_pk"),
            NamedExpr::new(S::col(cr(1, 0)), "a_pk"),
        ],
    );
    let grouped = SpjgExpr::aggregate(
        vec![b, a],
        joined(),
        vec![NamedExpr::new(S::col(cr(1, 1)), "k")],
        vec![
            NamedAgg::new(AggFunc::CountStar, "cnt"),
            NamedAgg::new(AggFunc::Sum(S::col(cr(1, 0))), "sum_a_pk"),
        ],
    );
    // `a` twice: recomputed, by a full run, on refresh.
    let self_join = SpjgExpr::spj(
        vec![b, a, a],
        BoolExpr::and(vec![joined(), BoolExpr::col_eq(cr(1, 0), cr(2, 0))]),
        vec![NamedExpr::new(S::col(cr(2, 0)), "a_pk")],
    );
    let views: Vec<(ViewId, SpjgExpr)> = [spj, grouped, self_join]
        .into_iter()
        .enumerate()
        .map(|(i, expr)| (ViewId(i as u32), expr))
        .collect();
    for (id, expr) in &views {
        m.register(*id, &ViewDef::new(format!("v{}", id.0), expr.clone()));
    }
    assert_eq!(m.strategy(ViewId(2)), Some(MaintainStrategy::Recompute));
    check(&m, &views, "registered");

    // Deleting `a`'s first rows moves every row after them.
    let write_a = |m: &mut Maintainer, first: i64| TableDelta {
        table: a,
        inserts: rows(first, 3),
        deletes: m.db().rows(a)[..2].to_vec(),
    };
    let delta = write_a(&mut m, 1000);
    m.apply(&delta);
    assert!(m.is_dirty(ViewId(2)));
    check(&m, &views, "after a write to a");

    // Ten delta rows on `b`: the delta join probes `a` on `k`.
    let delta = TableDelta {
        table: b,
        inserts: rows(200, 10),
        deletes: m.db().rows(b)[..1].to_vec(),
    };
    m.apply(&delta);
    check(&m, &views, "after a delta on b");

    let delta = write_a(&mut m, 2000);
    m.apply(&delta);
    assert!(m.is_dirty(ViewId(2)));
    assert!(m.refresh(ViewId(2)));
    check(&m, &views, "after a second write to a and a refresh");
}
