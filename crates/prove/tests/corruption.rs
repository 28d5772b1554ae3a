//! The prover refutes deliberately corrupted substitutes while genuine
//! matcher-produced ones prove clean.
//!
//! Same shape as `mv-verify`'s corruption suite: run the real matcher
//! over a (query, view) pair, assert the produced substitute *proves*
//! (symbolically or by exhausting the k = 2 space), then apply one
//! targeted unsound mutation and assert the prover pins it to MV301
//! (symbolic separation) or MV302 (enumerated counterexample). Every
//! refutation is additionally forced through the enumerative pass
//! (`symbolic: false`) and its counterexample **replayed** from the seed,
//! so each mutation comes with a concrete disagreeing database.
//!
//! The final two tests document checker *independence*: substitutes that
//! `mv-verify`'s syntactic rules accept (both the matcher and the
//! analyzer fold CHECK constraints into the antecedent without a NOT
//! NULL guard) but that mv-prove refutes with a NULL-row witness.

use mv_catalog::schema::{ForeignKey, TableBuilder};
use mv_catalog::tpch::{tpch_catalog, TpchTables};
use mv_catalog::{Catalog, ColumnId, ColumnType};
use mv_core::{MatchConfig, MatchingEngine};
use mv_expr::{BinOp, BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_plan::{AggFunc, NamedAgg, NamedExpr, OutputList, SpjgExpr, Substitute, ViewDef};
use mv_prove::{prove, prove_diagnostics, replay, ProveConfig, ProveCtx, ProveOutcome, Witness};
use mv_verify::{verify_substitute, Severity, VerifyContext};

fn cr(occ: u32, col: u32) -> ColRef {
    ColRef::new(occ, col)
}

fn out(items: &[(u32, u32, &str)]) -> Vec<NamedExpr> {
    items
        .iter()
        .map(|(o, c, n)| NamedExpr::new(S::col(cr(*o, *c)), *n))
        .collect()
}

/// Run the matcher over one (query, view) pair and return the substitute
/// along with the engine (which owns the catalog and check constraints).
fn matched(query: &SpjgExpr, view: SpjgExpr, config: MatchConfig) -> (MatchingEngine, Substitute) {
    let (catalog, _) = tpch_catalog();
    let engine = MatchingEngine::new(catalog, config);
    engine.add_view(ViewDef::new("v", view)).unwrap();
    let mut subs = engine.find_substitutes(query);
    assert_eq!(subs.len(), 1, "the matcher must produce this substitute");
    let (_, sub) = subs.pop().unwrap();
    (engine, sub)
}

fn run_prove(
    engine: &MatchingEngine,
    query: &SpjgExpr,
    view: &SpjgExpr,
    sub: &Substitute,
    cfg: &ProveConfig,
) -> ProveOutcome {
    let checks = engine.check_constraints();
    let ctx = ProveCtx::new(engine.catalog(), &checks);
    prove(&ctx, query, view, sub, cfg)
}

/// The error codes the prover reports for the triple.
fn prove_codes(
    engine: &MatchingEngine,
    query: &SpjgExpr,
    view: &SpjgExpr,
    sub: &Substitute,
    cfg: &ProveConfig,
) -> Vec<&'static str> {
    let outcome = run_prove(engine, query, view, sub, cfg);
    let tables = mv_prove::pair_tables(query, view, sub);
    prove_diagnostics(&outcome, "v", "q", &tables, cfg)
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.rule.code())
        .collect()
}

fn assert_proves(engine: &MatchingEngine, query: &SpjgExpr, view: &SpjgExpr, sub: &Substitute) {
    let outcome = run_prove(engine, query, view, sub, &ProveConfig::default());
    assert!(
        outcome.is_proved(),
        "genuine substitute failed to prove: {outcome:?}"
    );
    // The enumerative pass must agree with the symbolic one.
    let enum_cfg = ProveConfig {
        symbolic: false,
        ..ProveConfig::default()
    };
    let outcome = run_prove(engine, query, view, sub, &enum_cfg);
    assert!(
        outcome.is_proved(),
        "genuine substitute refuted by enumeration: {outcome:?}"
    );
}

/// Force the enumerative pass, extract the witness, and replay it from
/// its seed: the replayed database must exhibit the same disagreement.
fn refute_and_replay(
    engine: &MatchingEngine,
    query: &SpjgExpr,
    view: &SpjgExpr,
    sub: &Substitute,
) -> Witness {
    let cfg = ProveConfig {
        symbolic: false,
        ..ProveConfig::default()
    };
    let outcome = run_prove(engine, query, view, sub, &cfg);
    let ProveOutcome::Counterexample(w) = outcome else {
        panic!("expected an enumerated counterexample, got {outcome:?}");
    };
    let checks = engine.check_constraints();
    let ctx = ProveCtx::new(engine.catalog(), &checks);
    let replayed = replay(&ctx, query, view, sub, &cfg, w.seed).expect("seed within space");
    assert!(
        !replayed.diff.is_empty(),
        "replayed database no longer disagrees"
    );
    for ts in &mv_prove::pair_tables(query, view, sub) {
        assert_eq!(
            replayed.database.rows(*ts),
            w.database.rows(*ts),
            "replayed database differs from the witness"
        );
    }
    // The rendered diagnostic must carry the witness and the seed.
    let tables = mv_prove::pair_tables(query, view, sub);
    let diags = prove_diagnostics(
        &ProveOutcome::Counterexample(w.clone()),
        "v",
        "q",
        &tables,
        &cfg,
    );
    let detail = diags[0].to_json();
    assert!(detail.contains(&format!("seed={}", w.seed)));
    *w
}

/// The SPJ running pair: view keeps l_quantity > 10, the query narrows
/// to (10, 30]; the matcher compensates with a range predicate.
fn range_pair(t: &TpchTables) -> (SpjgExpr, SpjgExpr) {
    let view = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::cmp(S::col(cr(0, 4)), CmpOp::Gt, S::lit(10i64)),
        out(&[
            (0, 0, "l_orderkey"),
            (0, 4, "l_quantity"),
            (0, 5, "l_extendedprice"),
        ]),
    );
    let query = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::and(vec![
            BoolExpr::cmp(S::col(cr(0, 4)), CmpOp::Gt, S::lit(10i64)),
            BoolExpr::cmp(S::col(cr(0, 4)), CmpOp::Le, S::lit(30i64)),
        ]),
        out(&[(0, 0, "l_orderkey"), (0, 5, "l_extendedprice")]),
    );
    (query, view)
}

/// Example 4's aggregate pair: view groups by o_custkey with
/// count_big(*) and sum(revenue); the scalar query rolls both up.
fn rollup_pair(t: &TpchTables) -> (SpjgExpr, SpjgExpr) {
    let revenue = S::col(cr(0, 4)).binary(BinOp::Mul, S::col(cr(0, 5)));
    let view = SpjgExpr::aggregate(
        vec![t.lineitem, t.orders],
        BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
        vec![NamedExpr::new(S::col(cr(1, 1)), "o_custkey")],
        vec![
            NamedAgg::new(AggFunc::CountStar, "cnt"),
            NamedAgg::new(AggFunc::Sum(revenue.clone()), "revenue"),
        ],
    );
    let query = SpjgExpr::aggregate(
        vec![t.lineitem, t.orders],
        BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
        vec![],
        vec![
            NamedAgg::new(AggFunc::Sum(revenue), "rev"),
            NamedAgg::new(AggFunc::CountStar, "n"),
        ],
    );
    (query, view)
}

// ---------------------------------------------------------------------
// Genuine substitutes prove
// ---------------------------------------------------------------------

#[test]
fn genuine_range_substitute_proves() {
    let (_, t) = tpch_catalog();
    let (query, view) = range_pair(&t);
    let (engine, sub) = matched(&query, view.clone(), MatchConfig::default());
    assert!(!sub.predicates.is_empty(), "this pair needs compensation");
    assert_proves(&engine, &query, &view, &sub);
    // The SPJ pair is within the symbolic fragment: discharged without
    // enumerating a single database.
    let outcome = run_prove(&engine, &query, &view, &sub, &ProveConfig::default());
    assert!(matches!(outcome, ProveOutcome::ProvedSymbolic));
}

#[test]
fn genuine_rollup_substitute_proves_by_enumeration() {
    let (_, t) = tpch_catalog();
    let (query, view) = rollup_pair(&t);
    let (engine, sub) = matched(&query, view.clone(), MatchConfig::default());
    assert!(sub.regroups());
    // Aggregation is outside the symbolic fragment; the bounded space
    // must be exhausted instead.
    let outcome = run_prove(&engine, &query, &view, &sub, &ProveConfig::default());
    let ProveOutcome::ProvedBounded { databases } = outcome else {
        panic!("expected a bounded certificate, got {outcome:?}");
    };
    assert!(databases > 0);
}

// ---------------------------------------------------------------------
// Seeded unsound mutations (≥ 8), each pinned to MV301 or MV302 with a
// replayed counterexample
// ---------------------------------------------------------------------

/// Mutation 1 — dropped compensating range conjunct.
#[test]
fn dropped_range_compensation_refuted() {
    let (_, t) = tpch_catalog();
    let (query, view) = range_pair(&t);
    let (engine, sub) = matched(&query, view.clone(), MatchConfig::default());

    let mut bad = sub;
    bad.predicates.clear();
    let cfg = ProveConfig::default();
    assert_eq!(prove_codes(&engine, &query, &view, &bad, &cfg), ["MV301"]);
    // The witness keeps a quantity the query filters out (> 30).
    let w = refute_and_replay(&engine, &query, &view, &bad);
    assert!(w.substitute_rows.len() > w.query_rows.len());
}

/// Mutation 2 — widened compensating range (`<= 30` loosened to
/// `<= 40`): the classic off-by-constant unsoundness.
#[test]
fn widened_range_compensation_refuted() {
    let (_, t) = tpch_catalog();
    let (query, view) = range_pair(&t);
    let (engine, sub) = matched(&query, view.clone(), MatchConfig::default());

    let mut bad = sub;
    bad.predicates = vec![BoolExpr::cmp(S::col(cr(0, 1)), CmpOp::Le, S::lit(40i64))];
    let cfg = ProveConfig::default();
    assert_eq!(prove_codes(&engine, &query, &view, &bad, &cfg), ["MV301"]);
    // 31..=40 lies inside the widened bound but outside the query's: the
    // domain contains 31 (30 + 1) and 39 (40 - 1), so k = 1 already
    // exhibits the gap.
    refute_and_replay(&engine, &query, &view, &bad);
}

/// Mutation 3 — over-strong compensating range drops query rows.
#[test]
fn contradictory_range_compensation_refuted() {
    let (_, t) = tpch_catalog();
    let (query, view) = range_pair(&t);
    let (engine, sub) = matched(&query, view.clone(), MatchConfig::default());

    let mut bad = sub;
    bad.predicates
        .push(BoolExpr::cmp(S::col(cr(0, 1)), CmpOp::Lt, S::lit(0i64)));
    let cfg = ProveConfig::default();
    assert_eq!(prove_codes(&engine, &query, &view, &bad, &cfg), ["MV301"]);
    let w = refute_and_replay(&engine, &query, &view, &bad);
    assert!(w.query_rows.len() > w.substitute_rows.len());
}

/// Mutation 4 — dropped compensating residual conjunct (a LIKE the
/// query needs).
#[test]
fn dropped_residual_compensation_refuted() {
    let (_, t) = tpch_catalog();
    let view = SpjgExpr::spj(
        vec![t.customer],
        BoolExpr::Literal(true),
        out(&[(0, 0, "c_custkey"), (0, 1, "c_name")]),
    );
    let query = SpjgExpr::spj(
        vec![t.customer],
        BoolExpr::Like {
            expr: S::col(cr(0, 1)),
            pattern: "%Best%".into(),
            negated: false,
        },
        out(&[(0, 0, "c_custkey")]),
    );
    let (engine, sub) = matched(&query, view.clone(), MatchConfig::default());
    assert!(!sub.predicates.is_empty(), "this pair needs compensation");
    assert_proves(&engine, &query, &view, &sub);

    let mut bad = sub;
    bad.predicates.clear();
    let cfg = ProveConfig::default();
    assert_eq!(prove_codes(&engine, &query, &view, &bad, &cfg), ["MV301"]);
    // The string domain carries the LIKE pattern text plus a fresh value
    // that misses it, so enumeration finds a non-matching name.
    refute_and_replay(&engine, &query, &view, &bad);
}

/// Mutation 5 — compensating equality rewritten to equate the wrong
/// columns.
#[test]
fn wrong_equality_compensation_refuted() {
    let (_, t) = tpch_catalog();
    let view = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::Literal(true),
        out(&[
            (0, 0, "l_orderkey"),
            (0, 10, "l_shipdate"),
            (0, 11, "l_commitdate"),
        ]),
    );
    let query = SpjgExpr::spj(
        vec![t.lineitem],
        BoolExpr::col_eq(cr(0, 10), cr(0, 11)),
        out(&[(0, 0, "l_orderkey")]),
    );
    let (engine, sub) = matched(&query, view.clone(), MatchConfig::default());
    assert!(!sub.predicates.is_empty(), "this pair needs compensation");
    assert_proves(&engine, &query, &view, &sub);

    let mut bad = sub;
    // shipdate = commitdate replaced by shipdate = shipdate's neighbour
    // output — an equality the query never implied.
    bad.predicates = vec![BoolExpr::col_eq(cr(0, 0), cr(0, 1))];
    let cfg = ProveConfig::default();
    assert_eq!(prove_codes(&engine, &query, &view, &bad, &cfg), ["MV301"]);
    refute_and_replay(&engine, &query, &view, &bad);
}

/// Mutation 6 — wrong sum rollup: SUM over the view's count output
/// instead of its sum output.
#[test]
fn wrong_sum_rollup_source_refuted() {
    let (_, t) = tpch_catalog();
    let (query, view) = rollup_pair(&t);
    let (engine, sub) = matched(&query, view.clone(), MatchConfig::default());

    let mut bad = sub;
    if let OutputList::Aggregate { aggregates, .. } = &mut bad.output {
        // The query's Sum(revenue) must roll up from view column 2
        // (revenue); point it at column 1 (cnt) instead.
        aggregates[0].func = AggFunc::Sum(S::col(cr(0, 1)));
    }
    let cfg = ProveConfig::default();
    // Aggregation is outside the symbolic fragment: straight to MV302.
    assert_eq!(prove_codes(&engine, &query, &view, &bad, &cfg), ["MV302"]);
    refute_and_replay(&engine, &query, &view, &bad);
}

/// Mutation 7 — swapped output columns.
#[test]
fn swapped_output_columns_refuted() {
    let (_, t) = tpch_catalog();
    let (query, view) = range_pair(&t);
    let (engine, sub) = matched(&query, view.clone(), MatchConfig::default());

    let mut bad = sub;
    if let OutputList::Spj(items) = &mut bad.output {
        items.swap(0, 1);
    }
    let cfg = ProveConfig::default();
    // Output expressions are compared only up to equivalence classes —
    // a swap is not a symbolic separation, so the enumerative pass must
    // deliver the verdict.
    assert_eq!(prove_codes(&engine, &query, &view, &bad, &cfg), ["MV302"]);
    refute_and_replay(&engine, &query, &view, &bad);
}

/// A two-table schema with a *nullable* foreign-key column: t(f) → s(k).
fn nullable_fk_catalog() -> (Catalog, mv_catalog::TableId, mv_catalog::TableId) {
    let mut catalog = Catalog::new();
    let s = catalog.add_table(
        TableBuilder::new("s")
            .col("k", ColumnType::Int)
            .primary_key(&["k"])
            .build(),
    );
    let t = catalog.add_table(
        TableBuilder::new("t")
            .col("id", ColumnType::Int)
            .nullable_col("f", ColumnType::Int)
            .primary_key(&["id"])
            .build(),
    );
    catalog.add_foreign_key(ForeignKey {
        name: "t_f".into(),
        from_table: t,
        from_columns: vec![ColumnId(1)],
        to_table: s,
        to_columns: vec![ColumnId(0)],
    });
    (catalog, t, s)
}

/// Mutation 8 — foreign-key join "elimination" over a *nullable* FK
/// column: the join t.f = s.k is not cardinality preserving because a
/// NULL f never joins, so answering `SELECT id, f FROM t` from a view
/// that joins t to s silently drops NULL rows. The witness is exactly
/// such a row.
#[test]
fn nullable_fk_elimination_refuted() {
    let (catalog, t, s) = nullable_fk_catalog();
    let query = SpjgExpr::spj(
        vec![t],
        BoolExpr::Literal(true),
        out(&[(0, 0, "id"), (0, 1, "f")]),
    );
    let view = SpjgExpr::spj(
        vec![t, s],
        BoolExpr::col_eq(cr(0, 1), cr(1, 0)),
        out(&[(0, 0, "id"), (0, 1, "f")]),
    );
    // Hand-crafted unsound substitute: a bare view scan.
    let sub = Substitute {
        view: mv_plan::ViewId(0),
        backjoins: vec![],
        predicates: vec![],
        output: OutputList::Spj(out(&[(0, 0, "id"), (0, 1, "f")])),
        freshness: mv_plan::Freshness::Fresh,
    };
    let checks = std::collections::HashMap::new();
    let ctx = ProveCtx::new(&catalog, &checks);
    let cfg = ProveConfig::default();
    let outcome = prove(&ctx, &query, &view, &sub, &cfg);
    let ProveOutcome::Counterexample(w) = outcome else {
        panic!("expected a counterexample, got {outcome:?}");
    };
    // The witness database must contain a NULL-f row the view loses.
    assert!(
        w.database
            .rows(t)
            .iter()
            .any(|r| r[1] == mv_catalog::Value::Null),
        "witness should hinge on a NULL foreign-key value"
    );
    let replayed = replay(&ctx, &query, &view, &sub, &cfg, w.seed).expect("replayable");
    assert!(!replayed.diff.is_empty());
}

// ---------------------------------------------------------------------
// CHECK constraints on nullable columns: no checker folds them
// ---------------------------------------------------------------------

/// SQL's CHECK passes on UNKNOWN, so `CHECK (x > 0)` on a *nullable*
/// column admits NULL rows that fail the view predicate `x > 0`. The
/// matcher, mv-verify and mv-prove all fold a check into the query's
/// antecedent only when its columns are NOT NULL, so the matcher finds no
/// substitute here, and the filter-free substitute it once built — made
/// by hand below — is an error to mv-verify and refuted by mv-prove with
/// a NULL-row witness.
#[test]
fn check_constraint_on_nullable_column_is_not_folded() {
    let mut catalog = Catalog::new();
    let t = catalog.add_table(
        TableBuilder::new("t")
            .col("id", ColumnType::Int)
            .nullable_col("x", ColumnType::Int)
            .primary_key(&["id"])
            .build(),
    );
    let engine = MatchingEngine::new(catalog, MatchConfig::default());
    engine
        .add_check_constraint(t, BoolExpr::cmp(S::col(cr(0, 1)), CmpOp::Gt, S::lit(0i64)))
        .unwrap();
    let view = SpjgExpr::spj(
        vec![t],
        BoolExpr::cmp(S::col(cr(0, 1)), CmpOp::Gt, S::lit(0i64)),
        out(&[(0, 0, "id"), (0, 1, "x")]),
    );
    let query = SpjgExpr::spj(
        vec![t],
        BoolExpr::Literal(true),
        out(&[(0, 0, "id"), (0, 1, "x")]),
    );
    engine.add_view(ViewDef::new("v", view.clone())).unwrap();
    assert!(
        engine.find_substitutes(&query).is_empty(),
        "the check does not imply the view's x > 0 for NULL rows"
    );

    // The filter-free substitute check folding used to produce.
    let sub = Substitute {
        view: mv_plan::ViewId(0),
        backjoins: vec![],
        predicates: vec![],
        output: OutputList::Spj(out(&[(0, 0, "id"), (0, 1, "x")])),
        freshness: mv_plan::Freshness::Fresh,
    };

    // mv-verify: the view's range is not subsumed by the query's.
    let checks = engine.check_constraints();
    let vctx = VerifyContext::new(engine.catalog(), &checks);
    let verify_errors: Vec<_> = verify_substitute(&vctx, &query, &view, &sub, "v", "q")
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.rule.code())
        .collect();
    assert_eq!(verify_errors, ["MV007"]);

    // mv-prove: refuted symbolically, and the enumerative pass produces
    // the concrete NULL-row witness.
    let cfg = ProveConfig::default();
    assert_eq!(prove_codes(&engine, &query, &view, &sub, &cfg), ["MV301"]);
    let w = refute_and_replay(&engine, &query, &view, &sub);
    assert!(
        w.database
            .rows(t)
            .iter()
            .any(|r| r[1] == mv_catalog::Value::Null),
        "witness should be a NULL row passing the CHECK but failing the view predicate"
    );
}

/// The same blind spot through the FK-elimination path does not arise on
/// the §5 workload (it declares no check constraints), so the lint gate
/// stays clean — this test pins that the prover's verdicts and the
/// analyzer's agree everywhere checks are absent: a mutated substitute
/// flagged by mv-verify is also refuted by mv-prove.
#[test]
fn prover_and_analyzer_agree_on_syntactic_mutations() {
    let (_, t) = tpch_catalog();
    let (query, view) = range_pair(&t);
    let (engine, sub) = matched(&query, view.clone(), MatchConfig::default());

    let mut bad = sub;
    bad.predicates.clear();
    let checks = engine.check_constraints();
    let vctx = VerifyContext::new(engine.catalog(), &checks);
    let verify_errors: Vec<_> = verify_substitute(&vctx, &query, &view, &bad, "v", "q")
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.rule.code())
        .collect();
    assert_eq!(verify_errors, ["MV008"]);
    let cfg = ProveConfig::default();
    assert_eq!(prove_codes(&engine, &query, &view, &bad, &cfg), ["MV301"]);
}
