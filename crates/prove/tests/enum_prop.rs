//! Properties of the bounded database enumerator (`mv_data::enumerate`):
//! exhaustive and duplicate-free up to k (counts match closed forms and
//! a brute-force cross-check), every visited database satisfies the
//! declared FK, key, and check constraints, and the enumeration order is
//! deterministic — which is what makes `MV302` seeds replayable. The last
//! test holds the prover to that contract end to end: a witness seed
//! replays to the witness, a seed outside the space is `None`, and a
//! starved budget is charged exactly.

use mv_catalog::schema::{ForeignKey, TableBuilder};
use mv_catalog::{Catalog, ColumnId, ColumnType, TableId, Value};
use mv_data::{topo_order, ColumnDomain, EnumOutcome, EnumSpec, Enumerator, TableSpec};
use mv_expr::{classify, BoolExpr, CmpOp, ColRef, Conjunct, ScalarExpr as S};
use std::collections::{HashMap, HashSet};

fn ints(values: &[i64]) -> ColumnDomain {
    ColumnDomain::of(values.iter().map(|&v| Value::Int(v)).collect())
}

/// A two-table FK schema: s(k pk) ← t(f nullable FK, x).
fn fk_schema() -> (Catalog, TableId, TableId) {
    let mut catalog = Catalog::new();
    let s = catalog.add_table(
        TableBuilder::new("s")
            .col("k", ColumnType::Int)
            .primary_key(&["k"])
            .build(),
    );
    let t = catalog.add_table(
        TableBuilder::new("t")
            .nullable_col("f", ColumnType::Int)
            .col("x", ColumnType::Int)
            .build(),
    );
    catalog.add_foreign_key(ForeignKey {
        name: "t_f".into(),
        from_table: t,
        from_columns: vec![ColumnId(0)],
        to_table: s,
        to_columns: vec![ColumnId(0)],
    });
    (catalog, s, t)
}

fn fk_spec(s: TableId, t: TableId, k: usize) -> EnumSpec {
    EnumSpec {
        tables: vec![
            TableSpec {
                table: s,
                columns: vec![ints(&[1, 2])],
            },
            TableSpec {
                table: t,
                columns: vec![
                    ColumnDomain {
                        values: vec![Value::Int(1), Value::Int(2)],
                        with_null: true,
                    },
                    ints(&[7]),
                ],
            },
        ],
        max_rows: k,
    }
}

fn serialize(db: &mv_data::Database, tables: &[TableId]) -> String {
    let mut out = String::new();
    for &t in tables {
        out.push('|');
        for row in db.rows(t) {
            out.push('[');
            for v in row {
                out.push_str(&v.to_string());
                out.push(',');
            }
            out.push(']');
        }
    }
    out
}

fn choose(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    (0..k).fold(1, |acc, i| acc * (n - i) / (i + 1))
}

/// Single keyed table: the database count matches the closed form
/// `sum_{j=0..k} C(d, j) * m^j` is wrong in general (pk collisions), but
/// with the pk column holding `d` values and a free column holding `m`,
/// the count is `sum_j C(d, j) * m^j` — each pk choice is a set, each
/// free column independent.
#[test]
fn keyed_table_count_matches_closed_form() {
    let mut catalog = Catalog::new();
    let t = catalog.add_table(
        TableBuilder::new("t")
            .col("pk", ColumnType::Int)
            .col("m", ColumnType::Int)
            .primary_key(&["pk"])
            .build(),
    );
    for k in 0..=3usize {
        let spec = EnumSpec {
            tables: vec![TableSpec {
                table: t,
                columns: vec![ints(&[0, 1, 2, 3]), ints(&[10, 20])],
            }],
            max_rows: k,
        };
        let checks = HashMap::new();
        let e = Enumerator::new(&catalog, &checks, &spec);
        let (count, exhausted) = e.count(u64::MAX);
        assert!(exhausted);
        let (d, m) = (4u64, 2u64);
        let expected: u64 = (0..=k as u64).map(|j| choose(d, j) * m.pow(j as u32)).sum();
        assert_eq!(count, expected, "bound k={k}");
    }
}

/// Keyless table: bag semantics — multisets of rows, `C(r + j - 1, j)`
/// per row count `j` over `r` candidate rows.
#[test]
fn keyless_table_count_matches_closed_form() {
    let mut catalog = Catalog::new();
    let t = catalog.add_table(TableBuilder::new("t").col("x", ColumnType::Int).build());
    let spec = EnumSpec {
        tables: vec![TableSpec {
            table: t,
            columns: vec![ints(&[0, 1, 2])],
        }],
        max_rows: 2,
    };
    let checks = HashMap::new();
    let e = Enumerator::new(&catalog, &checks, &spec);
    let (count, exhausted) = e.count(u64::MAX);
    assert!(exhausted);
    // 1 empty + 3 singletons + multisets of size 2: C(3+1,2) = 6.
    assert_eq!(count, 1 + 3 + 6);
}

/// Two-table FK schema: the enumerator's count equals an independent
/// brute-force count that builds every candidate database and filters by
/// the constraints directly.
#[test]
fn fk_schema_count_matches_brute_force() {
    let (catalog, s, t) = fk_schema();
    let spec = fk_spec(s, t, 2);
    let checks = HashMap::new();
    let e = Enumerator::new(&catalog, &checks, &spec);
    let (count, exhausted) = e.count(u64::MAX);
    assert!(exhausted);

    // Brute force: s-sets over {1,2} (pk => sets), t-bags over
    // {1,2,NULL} x {7} with FK validity: non-null f must be in s.
    let s_sets: Vec<Vec<i64>> = vec![vec![], vec![1], vec![2], vec![1, 2]];
    let t_rows = [Some(1i64), Some(2), None];
    let mut expected = 0u64;
    for s_set in &s_sets {
        // t-bags of size 0..=2 (multisets over valid rows).
        let valid: Vec<&Option<i64>> = t_rows
            .iter()
            .filter(|f| f.map(|v| s_set.contains(&v)).unwrap_or(true))
            .collect();
        let r = valid.len() as u64;
        expected += 1 + r + r * (r + 1) / 2; // sizes 0, 1, 2 (multisets)
    }
    assert_eq!(count, expected);
}

/// Every enumerated database satisfies FK constraints, key uniqueness,
/// and declared check constraints (UNKNOWN passes).
#[test]
fn all_databases_satisfy_constraints() {
    let (catalog, s, t) = fk_schema();
    let spec = fk_spec(s, t, 2);
    let mut checks: HashMap<TableId, Vec<Conjunct>> = HashMap::new();
    // CHECK (x <= 7) on t — trivially true for the domain, but exercises
    // the filter; and CHECK (k > 1) on s — prunes k = 1.
    checks.insert(
        t,
        classify(BoolExpr::cmp(
            S::col(ColRef::new(0, 1)),
            CmpOp::Le,
            S::lit(7i64),
        )),
    );
    checks.insert(
        s,
        classify(BoolExpr::cmp(
            S::col(ColRef::new(0, 0)),
            CmpOp::Gt,
            S::lit(1i64),
        )),
    );
    let e = Enumerator::new(&catalog, &checks, &spec);
    let mut seen = 0u64;
    let stats = e.for_each(u64::MAX, |_, db| {
        seen += 1;
        assert_eq!(db.check_foreign_keys(), 0, "FK violation enumerated");
        // Key uniqueness on s.
        let keys: Vec<_> = db.rows(s).iter().map(|r| r[0].clone()).collect();
        let set: HashSet<_> = keys.iter().cloned().collect();
        assert_eq!(keys.len(), set.len(), "pk collision enumerated");
        // The s check prunes k = 1 entirely.
        assert!(db.rows(s).iter().all(|r| r[0] != Value::Int(1)));
        true
    });
    assert_eq!(stats.outcome, EnumOutcome::Exhausted);
    assert_eq!(stats.databases, seen);
    assert!(seen > 0);
}

/// Duplicate-freeness: no database is visited twice.
#[test]
fn enumeration_is_duplicate_free() {
    let (catalog, s, t) = fk_schema();
    let spec = fk_spec(s, t, 2);
    let checks = HashMap::new();
    let e = Enumerator::new(&catalog, &checks, &spec);
    let mut seen: HashSet<String> = HashSet::new();
    let stats = e.for_each(u64::MAX, |_, db| {
        assert!(
            seen.insert(serialize(db, &[s, t])),
            "database enumerated twice"
        );
        true
    });
    assert_eq!(stats.databases as usize, seen.len());
}

/// Determinism: two walks produce the same sequence, and `database_at`
/// reconstructs exactly the i-th database — the seed-replay contract.
#[test]
fn enumeration_is_deterministic_and_seeds_replay() {
    let (catalog, s, t) = fk_schema();
    let spec = fk_spec(s, t, 2);
    let checks = HashMap::new();
    let e = Enumerator::new(&catalog, &checks, &spec);
    let walk = |budget: u64| {
        let mut v = Vec::new();
        e.for_each(budget, |i, db| {
            v.push((i, serialize(db, &[s, t])));
            true
        });
        v
    };
    let first = walk(u64::MAX);
    let second = walk(u64::MAX);
    assert_eq!(first, second, "enumeration order must be deterministic");
    // A budget-limited walk is a strict prefix.
    let prefix = walk(5);
    assert_eq!(prefix[..], first[..5]);
    // Seeds replay: every index reconstructs its database.
    for (i, ser) in first.iter().step_by(7) {
        let db = e.database_at(*i).expect("seed in space");
        assert_eq!(&serialize(&db, &[s, t]), ser, "seed {i}");
    }
    assert!(e.database_at(first.len() as u64).is_none());
}

/// `topo_order` places referenced tables first and refuses FK cycles.
#[test]
fn topo_order_respects_fks_and_rejects_cycles() {
    let (catalog, s, t) = fk_schema();
    assert_eq!(topo_order(&catalog, &[t, s]), Some(vec![s, t]));

    let mut cyc = Catalog::new();
    let a = cyc.add_table(
        TableBuilder::new("a")
            .col("x", ColumnType::Int)
            .primary_key(&["x"])
            .build(),
    );
    let b = cyc.add_table(
        TableBuilder::new("b")
            .col("y", ColumnType::Int)
            .primary_key(&["y"])
            .build(),
    );
    cyc.add_foreign_key_unchecked(ForeignKey {
        name: "a_b".into(),
        from_table: a,
        from_columns: vec![ColumnId(0)],
        to_table: b,
        to_columns: vec![ColumnId(0)],
    });
    cyc.add_foreign_key_unchecked(ForeignKey {
        name: "b_a".into(),
        from_table: b,
        from_columns: vec![ColumnId(0)],
        to_table: a,
        to_columns: vec![ColumnId(0)],
    });
    assert_eq!(topo_order(&cyc, &[a, b]), None);
}

/// The prover's side of the seed contract, on a one-table pair whose
/// verdicts come from the enumerative pass (`symbolic: false`): the
/// substitute `x < 10` for the query `x <= 10` is refuted and its seed
/// replays to the same database and the same two row bags; the genuine
/// substitute exhausts the space, and half that budget is charged in full.
#[test]
fn prover_seeds_replay_and_budgets_are_charged_exactly() {
    use mv_plan::{Freshness, NamedExpr, OutputList, SpjgExpr, Substitute, ViewId};
    use mv_prove::{prove, replay, ProveConfig, ProveCtx, ProveOutcome};

    let mut catalog = Catalog::new();
    let t = catalog.add_table(
        TableBuilder::new("t")
            .col("pk", ColumnType::Int)
            .nullable_col("x", ColumnType::Int)
            .primary_key(&["pk"])
            .build(),
    );
    let col = |c: u32| S::col(ColRef::new(0, c));
    let query = SpjgExpr::spj(
        vec![t],
        BoolExpr::cmp(col(1), CmpOp::Le, S::lit(10i64)),
        vec![NamedExpr::new(col(0), "pk")],
    );
    let view = SpjgExpr::spj(
        vec![t],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(col(0), "pk"), NamedExpr::new(col(1), "x")],
    );
    let good = Substitute {
        view: ViewId(0),
        backjoins: vec![],
        predicates: vec![BoolExpr::cmp(col(1), CmpOp::Le, S::lit(10i64))],
        output: OutputList::Spj(vec![NamedExpr::new(col(0), "pk")]),
        freshness: Freshness::Fresh,
    };
    let bad = Substitute {
        predicates: vec![BoolExpr::cmp(col(1), CmpOp::Lt, S::lit(10i64))],
        ..good.clone()
    };
    let checks = HashMap::new();
    let ctx = ProveCtx::new(&catalog, &checks);
    let cfg = ProveConfig {
        symbolic: false,
        ..ProveConfig::default()
    };

    let refuted = prove(&ctx, &query, &view, &bad, &cfg);
    let ProveOutcome::Counterexample(w) = refuted else {
        panic!("expected a counterexample, got {refuted:?}");
    };
    let replayed = replay(&ctx, &query, &view, &bad, &cfg, w.seed).expect("seed within the space");
    assert_eq!(replayed.database.rows(t), w.database.rows(t));
    assert_eq!(replayed.query_rows, w.query_rows);
    assert_eq!(replayed.substitute_rows, w.substitute_rows);
    assert!(!replayed.diff.is_empty(), "replayed database agrees");
    // A seed is plain input: one past any space is `None`, not a panic.
    assert!(replay(&ctx, &query, &view, &bad, &cfg, u64::MAX).is_none());

    let full = prove(&ctx, &query, &view, &good, &cfg);
    let ProveOutcome::ProvedBounded { databases: space } = full else {
        panic!("expected a bounded certificate, got {full:?}");
    };
    assert!(space > 8, "fixture space large enough to truncate");
    let starved = ProveConfig {
        max_databases: space / 2,
        ..cfg
    };
    let outcome = prove(&ctx, &query, &view, &good, &starved);
    let ProveOutcome::BudgetExhausted { databases } = outcome else {
        panic!("expected budget exhaustion, got {outcome:?}");
    };
    assert_eq!(databases, space / 2, "MV303 reports the budget it spent");
}
