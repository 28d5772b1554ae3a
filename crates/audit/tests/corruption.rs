//! The corruption suite: seed index and catalog mutations and pin each to
//! the MV1xx rule that must catch it — an index mutation as a damaged copy
//! of the stored entries handed to the pass — mirroring `crates/verify`'s
//! corruption tests for the soundness band. The dual sanity checks — the
//! unmutated fixture and the unmutated §5 workload audit clean — keep the
//! rules honest in both directions.

use mv_audit::{
    audit_all, audit_differential, audit_metadata, audit_redundancy, audit_stored_entries,
};
use mv_bench::{build_workload, engine_with};
use mv_catalog::tpch::tpch_catalog;
use mv_catalog::{
    Catalog, Column, ColumnId, ColumnType, ForeignKey, Key, KeyKind, Table, TableBuilder, TableId,
};
use mv_core::{
    col_token, table_token, ExprSummary, FilterTree, FreshnessPolicy, MatchConfig, MatchingEngine,
    AGG_NESTING, LEVEL_CONDITIONS, SPJ_LEVELS, SPJ_NESTING,
};
use mv_expr::{BoolExpr, CmpOp, ColRef, ScalarExpr as S};
use mv_plan::{AggFunc, NamedAgg, NamedExpr, SpjgExpr, ViewDef, ViewId};
use mv_verify::{Report, Severity};

fn cr(occ: u32, col: u32) -> ColRef {
    ColRef::new(occ, col)
}

fn part_view(lo: i64, hi: i64) -> SpjgExpr {
    let (_, t) = tpch_catalog();
    let pred = BoolExpr::and(vec![
        BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(lo)),
        BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Lt, S::lit(hi)),
    ]);
    SpjgExpr::spj(
        vec![t.part],
        pred,
        vec![
            NamedExpr::new(S::col(cr(0, 0)), "p_partkey"),
            NamedExpr::new(S::col(cr(0, 5)), "p_size"),
        ],
    )
}

fn part_query(lo: i64, hi: i64) -> SpjgExpr {
    let (_, t) = tpch_catalog();
    let pred = BoolExpr::and(vec![
        BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Ge, S::lit(lo)),
        BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Lt, S::lit(hi)),
    ]);
    SpjgExpr::spj(
        vec![t.part],
        pred,
        vec![NamedExpr::new(S::col(cr(0, 0)), "p_partkey")],
    )
}

/// Three overlapping-but-incomparable part views plus an unrelated orders
/// aggregate — the engine-test fixture, re-used so index corruptions have
/// live matching traffic to disturb.
fn fixture() -> MatchingEngine {
    fixture_with(MatchConfig::default())
}

fn fixture_with(config: MatchConfig) -> MatchingEngine {
    let (cat, t) = tpch_catalog();
    let engine = MatchingEngine::new(cat, config);
    for (name, lo, hi) in [
        ("parts_low", 0, 1000),
        ("parts_mid", 500, 2000),
        ("parts_high", 5000, 9000),
    ] {
        engine
            .add_view(ViewDef::new(name, part_view(lo, hi)))
            .unwrap();
    }
    let agg = SpjgExpr::aggregate(
        vec![t.orders],
        BoolExpr::Literal(true),
        vec![NamedExpr::new(S::col(cr(0, 1)), "o_custkey")],
        vec![NamedAgg::new(AggFunc::CountStar, "cnt")],
    );
    engine
        .add_view(ViewDef::new("orders_by_cust", agg))
        .unwrap();
    engine
}

fn queries() -> Vec<SpjgExpr> {
    vec![part_query(600, 900), part_query(5500, 6000)]
}

/// Deduplicated rule codes at a given severity.
fn codes(report: &Report, severity: Severity) -> Vec<&'static str> {
    let mut out: Vec<&'static str> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == severity)
        .map(|d| d.rule.code())
        .collect();
    out.sort();
    out.dedup();
    out
}

// ---------------------------------------------------------------------
// Sanity: unmutated fixtures audit clean (no errors).
// ---------------------------------------------------------------------

#[test]
fn clean_fixture_audits_without_errors() {
    let engine = fixture();
    let report = audit_all(&engine, &queries());
    assert_eq!(codes(&report, Severity::Error), Vec::<&str>::new());
}

#[test]
fn clean_workload_audits_without_errors() {
    // The §5 workload slice mv-lint audits in CI, shrunk for debug-build
    // test time.
    let workload = build_workload(40, 20);
    let engine = engine_with(&workload, 40, MatchConfig::default());
    let report = audit_all(&engine, &workload.queries);
    assert_eq!(codes(&report, Severity::Error), Vec::<&str>::new());
}

// ---------------------------------------------------------------------
// Index corruptions (MV101–MV104): the engine stays intact; each test
// hands the pass a damaged copy of its stored entries.
// ---------------------------------------------------------------------

type Entries = Vec<(ViewId, Vec<Vec<u64>>)>;

/// The engine's stored index entries with `parts_low` (view 0) taken out
/// and, given keys, filed again under them — normalized, as a tree stores
/// its keys.
fn refiled(engine: &MatchingEngine, keys: Option<Vec<Vec<u64>>>) -> Entries {
    let mut entries = engine.filter_entries();
    entries.retain(|(id, _)| *id != ViewId(0));
    if let Some(mut keys) = keys {
        for key in &mut keys {
            key.sort_unstable();
            key.dedup();
        }
        entries.push((ViewId(0), keys));
    }
    entries
}

/// `parts_low`'s derived SPJ keys, with `damage` applied.
fn parts_low_keys(engine: &MatchingEngine, damage: impl FnOnce(&mut [Vec<u64>])) -> Vec<Vec<u64>> {
    let mut keys = engine.view_filter_keys(ViewId(0)).unwrap();
    keys.truncate(SPJ_LEVELS);
    damage(&mut keys);
    keys
}

fn stored_report(engine: &MatchingEngine, entries: &Entries) -> Report {
    let mut report = Report::new();
    audit_stored_entries(engine, entries, &mut report);
    report
}

/// A search over real filter trees built from `entries`, posed the way
/// the engine searches its own.
fn tree_search<'a>(
    engine: &'a MatchingEngine,
    entries: &Entries,
) -> impl Fn(&SpjgExpr, &ExprSummary) -> Vec<ViewId> + 'a {
    let mut spj = FilterTree::new(&SPJ_NESTING, &LEVEL_CONDITIONS[..SPJ_LEVELS]);
    let mut agg = FilterTree::new(&AGG_NESTING, &LEVEL_CONDITIONS);
    for (id, keys) in entries {
        let tree = if keys.len() == SPJ_LEVELS {
            &mut spj
        } else {
            &mut agg
        };
        tree.insert(keys, *id);
    }
    move |query, qsum| {
        let (spj_search, agg_search) = engine.query_searches(query, qsum);
        let mut out = spj.search(&spj_search);
        if query.is_aggregate() {
            out.extend(agg.search(&agg_search));
        }
        out.sort_unstable();
        out
    }
}

fn differential_report(engine: &MatchingEngine, entries: &Entries) -> Report {
    let mut report = Report::new();
    audit_differential(
        engine,
        entries,
        tree_search(engine, entries),
        &queries(),
        &mut report,
    );
    report
}

/// Trees built from an undamaged copy return the engine's own
/// candidates, so a damaged copy's trees search as a damaged engine's
/// would.
#[test]
fn intact_copy_searches_like_the_engine() {
    let workload = build_workload(40, 20);
    let engine = engine_with(&workload, 40, MatchConfig::default());
    let search = tree_search(&engine, &engine.filter_entries());
    // Each view's definition as a query finds at least that view.
    let views: Vec<SpjgExpr> = engine.views().iter().map(|(_, v)| v.expr.clone()).collect();
    let mut found = 0;
    for query in workload.queries.iter().chain(&views) {
        let qsum = engine.query_summary(query);
        let candidates = engine.candidates(query, &qsum);
        found += candidates.len();
        assert_eq!(search(query, &qsum), candidates);
    }
    assert!(found > 0, "no query has a candidate");
}

#[test]
fn evicted_view_caught_by_mv101() {
    let engine = fixture();
    let report = stored_report(&engine, &refiled(&engine, None));
    assert_eq!(codes(&report, Severity::Error), vec!["MV101"]);
}

#[test]
fn evicted_view_differential_caught_by_mv102() {
    let engine = fixture();
    let report = differential_report(&engine, &refiled(&engine, None));
    assert_eq!(codes(&report, Severity::Error), vec!["MV102"]);
    let d = &report.diagnostics[0];
    assert_eq!(d.context.view.as_deref(), Some("parts_low"));
    assert!(d
        .context
        .detail
        .as_deref()
        .unwrap()
        .contains("missing from its tree"));
}

/// Completeness is a property of the index, not of what the freshness
/// gate serves: under `StrictFresh`, a base-table write leaves
/// `parts_low` stale, and its eviction from the tree is still MV102.
#[test]
fn evicted_stale_view_caught_by_mv102() {
    let (_, t) = tpch_catalog();
    let engine = fixture_with(MatchConfig {
        freshness: FreshnessPolicy::StrictFresh,
        ..MatchConfig::default()
    });
    engine.record_base_write(t.part);
    assert_eq!(engine.view_staleness(ViewId(0)), Some(1));
    let report = differential_report(&engine, &refiled(&engine, None));
    assert_eq!(codes(&report, Severity::Error), vec!["MV102"]);
    let d = &report.diagnostics[0];
    assert_eq!(d.context.view.as_deref(), Some("parts_low"));
}

#[test]
fn stale_residual_key_caught_by_mv102_naming_the_level() {
    let engine = fixture();
    // File parts_low as if it carried a residual predicate no query has:
    // the level-5 subset search now rejects it for every real query.
    let keys = parts_low_keys(&engine, |keys| keys[4].push(999_999));
    let report = differential_report(&engine, &refiled(&engine, Some(keys)));
    assert_eq!(codes(&report, Severity::Error), vec!["MV102"]);
    let detail = report.diagnostics[0].context.detail.as_deref().unwrap();
    assert!(
        detail.contains("residuals"),
        "detail must name the failing level: {detail}"
    );
}

#[test]
fn foreign_hub_caught_by_mv103() {
    let (_, t) = tpch_catalog();
    let engine = fixture();
    // A hub outside the view's own table set breaks the level-1
    // containment argument.
    let keys = parts_low_keys(&engine, |keys| keys[0] = vec![table_token(t.orders)]);
    let report = stored_report(&engine, &refiled(&engine, Some(keys)));
    let errs = codes(&report, Severity::Error);
    assert!(errs.contains(&"MV103"), "got {errs:?}");
}

#[test]
fn bogus_column_token_caught_by_mv104() {
    let engine = fixture();
    // No such table.
    let keys = parts_low_keys(&engine, |keys| {
        keys[5].push(col_token(TableId(999), ColumnId(7)))
    });
    let report = stored_report(&engine, &refiled(&engine, Some(keys)));
    let errs = codes(&report, Severity::Error);
    assert!(errs.contains(&"MV104"), "got {errs:?}");
    let levels: Vec<&str> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule.code() == "MV104")
        .map(|d| d.context.detail.as_deref().unwrap())
        .collect();
    assert_eq!(levels, vec!["level range-cols"]);
}

#[test]
fn bogus_text_token_caught_by_mv101() {
    // A template-text token is a hash, so any value is well formed
    // (no MV104); a wrong one differs from the re-derived key.
    let engine = fixture();
    let keys = parts_low_keys(&engine, |keys| keys[2].push(1_000_000));
    let report = stored_report(&engine, &refiled(&engine, Some(keys)));
    assert_eq!(codes(&report, Severity::Error), vec!["MV101"]);
    let detail = report.diagnostics[0].context.detail.as_deref().unwrap();
    assert!(detail.contains("output-exprs"), "{detail}");
}

// ---------------------------------------------------------------------
// Catalog redundancy (MV110–MV112).
// ---------------------------------------------------------------------

#[test]
fn equivalent_views_caught_by_mv110() {
    let engine = fixture();
    engine
        .add_view(ViewDef::new("parts_low_copy", part_view(0, 1000)))
        .unwrap();
    let (audit, report) = audit_redundancy(&engine, &[]);
    assert_eq!(audit.equivalent, vec![(ViewId(0), ViewId(4))]);
    assert_eq!(codes(&report, Severity::Warning), vec!["MV110"]);
}

#[test]
fn subsumed_view_caught_by_mv111() {
    let engine = fixture();
    // Strictly inside parts_low's range, same outputs: computable from
    // parts_low but not vice versa.
    engine
        .add_view(ViewDef::new("parts_narrow", part_view(100, 200)))
        .unwrap();
    let (audit, report) = audit_redundancy(&engine, &[]);
    assert!(audit.equivalent.is_empty());
    assert!(audit.subsumed.contains(&(ViewId(4), ViewId(0))));
    assert!(codes(&report, Severity::Warning).contains(&"MV111"));
}

#[test]
fn dead_view_caught_by_mv112() {
    let engine = fixture();
    // Part-only queries: the orders aggregate never matches.
    let (audit, report) = audit_redundancy(&engine, &queries());
    assert!(audit.dead.contains(&ViewId(3)));
    let dead: Vec<&str> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule.code() == "MV112")
        .map(|d| d.context.view.as_deref().unwrap())
        .collect();
    assert!(dead.contains(&"orders_by_cust"), "{dead:?}");
}

// ---------------------------------------------------------------------
// Metadata corruptions (MV120–MV126).
// ---------------------------------------------------------------------

/// Parent/child pair with a valid PK each; mutations below break specific
/// §3.2 preconditions.
fn meta_catalog() -> (Catalog, TableId, TableId) {
    let mut cat = Catalog::new();
    let parent = cat.add_table(
        TableBuilder::new("parent")
            .col("id", ColumnType::Int)
            .col("code", ColumnType::Str)
            .col("extra", ColumnType::Int)
            .primary_key(&["id"])
            .build(),
    );
    let child = cat.add_table(
        TableBuilder::new("child")
            .col("id", ColumnType::Int)
            .nullable_col("pref", ColumnType::Int)
            .col("pstr", ColumnType::Str)
            .primary_key(&["id"])
            .build(),
    );
    (cat, parent, child)
}

#[test]
fn clean_meta_catalog_audits_without_findings() {
    let (mut cat, parent, child) = meta_catalog();
    cat.add_foreign_key(ForeignKey {
        name: "child_parent".into(),
        from_table: child,
        from_columns: vec![ColumnId(0)],
        to_table: parent,
        to_columns: vec![ColumnId(0)],
    });
    let report = audit_metadata(&cat);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn nullable_fk_column_caught_by_mv120() {
    let (mut cat, parent, child) = meta_catalog();
    cat.add_foreign_key(ForeignKey {
        name: "nullable_ref".into(),
        from_table: child,
        from_columns: vec![ColumnId(1)], // child.pref is nullable
        to_table: parent,
        to_columns: vec![ColumnId(0)],
    });
    let report = audit_metadata(&cat);
    assert_eq!(codes(&report, Severity::Warning), vec!["MV120"]);
    assert!(!report.has_errors());
}

#[test]
fn fk_to_non_unique_key_caught_by_mv121() {
    let (mut cat, parent, child) = meta_catalog();
    cat.add_foreign_key_unchecked(ForeignKey {
        name: "not_a_key".into(),
        from_table: child,
        from_columns: vec![ColumnId(0)],
        to_table: parent,
        to_columns: vec![ColumnId(2)], // parent.extra covers no key
    });
    let report = audit_metadata(&cat);
    assert_eq!(codes(&report, Severity::Error), vec!["MV121"]);
}

#[test]
fn fk_type_mismatch_caught_by_mv122() {
    let (mut cat, parent, child) = meta_catalog();
    cat.add_foreign_key_unchecked(ForeignKey {
        name: "str_to_int".into(),
        from_table: child,
        from_columns: vec![ColumnId(2)], // child.pstr: VARCHAR
        to_table: parent,
        to_columns: vec![ColumnId(0)], // parent.id: INT
    });
    let report = audit_metadata(&cat);
    assert_eq!(codes(&report, Severity::Error), vec!["MV122"]);
}

#[test]
fn fk_structural_breakage_caught_by_mv123() {
    let (mut cat, parent, child) = meta_catalog();
    cat.add_foreign_key_unchecked(ForeignKey {
        name: "bad_arity".into(),
        from_table: child,
        from_columns: vec![ColumnId(0), ColumnId(1)],
        to_table: parent,
        to_columns: vec![ColumnId(0)],
    });
    cat.add_foreign_key_unchecked(ForeignKey {
        name: "bad_col".into(),
        from_table: child,
        from_columns: vec![ColumnId(0)],
        to_table: parent,
        to_columns: vec![ColumnId(42)],
    });
    let report = audit_metadata(&cat);
    assert_eq!(codes(&report, Severity::Error), vec!["MV123"]);
    assert_eq!(report.count(Severity::Error), 2);
}

#[test]
fn duplicate_fk_caught_by_mv124() {
    let (mut cat, parent, child) = meta_catalog();
    for name in ["dup_a", "dup_b"] {
        cat.add_foreign_key(ForeignKey {
            name: name.into(),
            from_table: child,
            from_columns: vec![ColumnId(0)],
            to_table: parent,
            to_columns: vec![ColumnId(0)],
        });
    }
    let report = audit_metadata(&cat);
    assert_eq!(codes(&report, Severity::Warning), vec!["MV124"]);
}

#[test]
fn nullable_primary_key_caught_by_mv125() {
    let mut cat = Catalog::new();
    cat.add_table(
        TableBuilder::new("t")
            .nullable_col("a", ColumnType::Int)
            .nullable_col("b", ColumnType::Int)
            .primary_key(&["a"])
            .unique(&["b"])
            .build(),
    );
    let report = audit_metadata(&cat);
    // Nullable PRIMARY KEY column is an error; nullable UNIQUE a warning.
    assert_eq!(codes(&report, Severity::Error), vec!["MV125"]);
    assert_eq!(codes(&report, Severity::Warning), vec!["MV125"]);
}

#[test]
fn broken_key_declaration_caught_by_mv126() {
    let mut cat = Catalog::new();
    cat.add_table(Table {
        name: "t".into(),
        columns: vec![Column {
            name: "a".into(),
            ty: ColumnType::Int,
            not_null: true,
        }],
        keys: vec![
            Key {
                kind: KeyKind::Unique,
                columns: vec![],
            },
            Key {
                kind: KeyKind::Primary,
                columns: vec![ColumnId(0), ColumnId(0)],
            },
            Key {
                kind: KeyKind::Unique,
                columns: vec![ColumnId(99)],
            },
        ],
    });
    let report = audit_metadata(&cat);
    assert_eq!(codes(&report, Severity::Error), vec!["MV126"]);
    assert_eq!(report.count(Severity::Error), 3);
}
