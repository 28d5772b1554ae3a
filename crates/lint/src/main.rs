//! `mv-lint` — the CI gate around the `mv-verify` analyzer.
//!
//! Builds the paper's section 5 workload (TPC-H catalog, random views and
//! queries with the benchmark seeds), registers the views in a matching
//! engine, and then:
//!
//! 1. lints every view definition (`verify_view_expr`),
//! 2. runs every query through the per-query [`Oracle`]: `verify_expr`,
//!    the matcher, `verify_substitute` on each produced substitute, and
//!    optionally (`--exec-check N`) the executed cross-check on tiny
//!    generated data — up to N substitutes and every query's optimized
//!    plan, each compared with the query's rows (rule MV018),
//! 3. optionally (`--audit`) runs the `mv-audit` completeness & catalog
//!    passes (rules MV101+) over the same engine and workload,
//! 4. optionally (`--maintain N`) registers every view with the
//!    `mv-maintain` driver, applies N insert/delete delta rounds to the
//!    generated base data, and audits after each round that maintained
//!    contents equal recompute-from-scratch (row-bag comparison, the
//!    `--exec-check` discipline) and that freshness-stamped serving is
//!    honest (rules MV401+).
//!
//! With `--source` the MV2xx source-discipline pass additionally lints
//! every workspace crate's `.rs` sources for concurrency hygiene (raw
//! sync primitives outside the `mv_parallel::sync` facade, relaxed
//! orderings, unguarded snapshot state, bare clock reads, lock unwraps
//! and expects); `--source-only` runs just that pass, skipping the
//! workload entirely.
//!
//! With `--prove` the oracle also runs every substitute the matcher
//! produces through the `mv-prove` bounded equivalence checker (MV3xx):
//! the symbolic pass first, then exhaustive enumeration of all
//! constraint-satisfying databases up to `--prove-k` rows per table. A
//! refuted rewrite reports MV301/MV302 with a replayable counterexample.
//!
//! The JSON report goes to stdout (or `--out FILE`); a human summary goes
//! to stderr. `--json` wraps the report in a machine-readable envelope
//! with per-gate counts (verify/audit/source/prove). Exit code 1 on any
//! ERROR diagnostic, and on warnings too under `--deny-warnings`.
//!
//! Phase wall times are for the report only: mv-lint: allow(MV204)

use mv_bench::{build_workload, engine_with, DATA_SEED};
use mv_core::MatchConfig;
use mv_data::{generate_tpch, TpchScale};
use mv_lint::oracle::{materialize_views, Counts, Oracle};
use mv_maintain::{audit_serving, Maintainer, TableDelta};
use mv_optimizer::OptimizerConfig;
use mv_prove::ProveConfig;
use mv_verify::{json_string, verify_view_expr, Report, Severity};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
mv-lint: static soundness lint over the TPC-H view-matching workload

USAGE:
    mv-lint [OPTIONS]

OPTIONS:
    --views N          views to generate and register   [default: 200]
    --queries N        queries to generate and match    [default: 100]
    --exec-check N     execute up to N (query, substitute) pairs, and every
                       query's plan, on tiny generated data and compare row
                       bags with the query's [default: 0]
    --audit            also run the mv-audit passes: filter-tree index
                       completeness, catalog redundancy, metadata (MV101+)
    --maintain N       apply N delta rounds through the mv-maintain driver
                       and audit maintained contents + freshness-stamped
                       serving (MV401+) [default: 0]
    --source           also run the MV2xx source-discipline pass over the
                       workspace's own .rs files
    --source-only      run only the MV2xx source pass (skips the workload)
    --source-root DIR  workspace root for --source [default: auto-detect]
    --prove            prove every produced substitute equivalent with the
                       mv-prove bounded checker (MV3xx)
    --prove-k N        rows-per-table bound for --prove [default: 2]
    --prove-budget N   databases enumerated per proof   [default: 20000]
    --prove-wall-ms N  fail the prove gate when its wall time exceeds N ms
                       (0 = no budget) [default: 0]
    --deny-warnings    exit nonzero on warnings, not just errors
    --json             wrap the report in a machine-readable envelope with
                       per-gate counts (verify/audit/source/prove)
    --out FILE         write the JSON report to FILE instead of stdout
    -h, --help         print this help
";

struct Args {
    views: usize,
    queries: usize,
    exec_check: usize,
    audit: bool,
    maintain: usize,
    source: bool,
    source_only: bool,
    source_root: Option<String>,
    prove: bool,
    prove_k: usize,
    prove_budget: u64,
    prove_wall_ms: u64,
    deny_warnings: bool,
    json: bool,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        views: 200,
        queries: 100,
        exec_check: 0,
        audit: false,
        maintain: 0,
        source: false,
        source_only: false,
        source_root: None,
        prove: false,
        prove_k: 2,
        prove_budget: 20_000,
        prove_wall_ms: 0,
        deny_warnings: false,
        json: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}\n{USAGE}");
            std::process::exit(2);
        })
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--views" => args.views = parse_num(&value(&mut it, "--views"), "--views"),
            "--queries" => args.queries = parse_num(&value(&mut it, "--queries"), "--queries"),
            "--exec-check" => {
                args.exec_check = parse_num(&value(&mut it, "--exec-check"), "--exec-check")
            }
            "--audit" => args.audit = true,
            "--maintain" => args.maintain = parse_num(&value(&mut it, "--maintain"), "--maintain"),
            "--source" => args.source = true,
            "--source-only" => {
                args.source = true;
                args.source_only = true;
            }
            "--source-root" => args.source_root = Some(value(&mut it, "--source-root")),
            "--prove" => args.prove = true,
            "--prove-k" => args.prove_k = parse_num(&value(&mut it, "--prove-k"), "--prove-k"),
            "--prove-budget" => {
                args.prove_budget =
                    parse_num(&value(&mut it, "--prove-budget"), "--prove-budget") as u64
            }
            "--prove-wall-ms" => {
                args.prove_wall_ms =
                    parse_num(&value(&mut it, "--prove-wall-ms"), "--prove-wall-ms") as u64
            }
            "--deny-warnings" => args.deny_warnings = true,
            "--json" => args.json = true,
            "--out" => args.out = Some(value(&mut it, "--out")),
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn parse_num(s: &str, flag: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("invalid number {s:?} for {flag}\n{USAGE}");
        std::process::exit(2);
    })
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut report = Report::new();

    // MV2xx source-discipline pass over the workspace's own sources.
    let mut source_summary = String::new();
    let mut source_ms = 0u128;
    if args.source {
        let source_start = Instant::now();
        let root = match &args.source_root {
            Some(dir) => std::path::PathBuf::from(dir),
            None => {
                let cwd = std::env::current_dir().unwrap_or_else(|_| ".".into());
                match mv_lint::source::find_workspace_root(&cwd) {
                    Some(r) => r,
                    None => {
                        eprintln!(
                            "mv-lint: cannot locate the workspace root for --source; \
                             pass --source-root DIR"
                        );
                        return ExitCode::from(2);
                    }
                }
            }
        };
        match mv_lint::source::lint_workspace(&root) {
            Ok((diags, scanned)) => {
                source_summary = format!(", {} source files / {} MV2xx", scanned, diags.len());
                report.extend(diags);
            }
            Err(e) => {
                eprintln!("mv-lint: source scan under {} failed: {e}", root.display());
                return ExitCode::from(2);
            }
        }
        source_ms = source_start.elapsed().as_millis();
    }

    let mut stats = if args.source_only {
        WorkloadStats::default()
    } else {
        workload_lint(&args, &mut report)
    };
    stats.source_ms = source_ms;
    let checked = &stats.checked;
    let substitutes = checked.substitutes;
    let prove_ms = checked.prove_time.as_millis();

    let prove_summary = if args.prove {
        format!(
            ", {} proved / {} refuted / {} inconclusive at k={} in {} ms",
            checked.proved, checked.refuted, checked.inconclusive, args.prove_k, prove_ms
        )
    } else {
        String::new()
    };
    let maintain_summary = if args.maintain > 0 {
        format!(
            ", {} maintain rounds ({} incremental / {} recompute views, {} of {} view visits \
             unchanged) in {} ms",
            stats.maintain_rounds,
            stats.maintain_incremental,
            stats.maintain_recompute,
            stats.maintain_unchanged,
            stats.maintain_visits,
            stats.maintain_ms
        )
    } else {
        String::new()
    };
    let title = if args.source_only {
        format!("mv-lint: source-discipline pass{source_summary}")
    } else {
        format!(
            "mv-lint: {} views, {} queries, {} substitutes, {} exec-checked, {} audit findings{}{}{}",
            args.views,
            args.queries,
            substitutes,
            checked.exec_checked,
            stats.audit_findings,
            source_summary,
            prove_summary,
            maintain_summary
        )
    };
    let json = if args.json {
        envelope_json(&args, &report, &stats, &title)
    } else {
        report.to_json(&title)
    };
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("mv-lint: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
        None => print!("{json}"),
    }

    let errors = report.count(Severity::Error);
    let warnings = report.count(Severity::Warning);
    eprintln!("mv-lint: {substitutes} substitutes verified, {errors} errors, {warnings} warnings");
    eprintln!(
        "mv-lint: phase wall: verify {} ms, exec {} ms, prove {} ms, audit {} ms, source {} ms, \
         maintain {} ms",
        checked.verify_time.as_millis(),
        checked.exec_time.as_millis(),
        prove_ms,
        stats.audit_ms,
        stats.source_ms,
        stats.maintain_ms
    );
    for d in &report.diagnostics {
        if d.severity == Severity::Error || (args.deny_warnings && d.severity == Severity::Warning)
        {
            eprintln!("  {d}");
        }
    }
    // The prove gate also has a wall-clock budget: a slow prover is a CI
    // regression even when every pair proves.
    let over_wall_budget =
        args.prove && args.prove_wall_ms > 0 && prove_ms > args.prove_wall_ms as u128;
    if over_wall_budget {
        eprintln!(
            "mv-lint: prove gate exceeded its wall budget: {} ms > {} ms",
            prove_ms, args.prove_wall_ms
        );
    }
    if errors > 0 || over_wall_budget || (args.deny_warnings && warnings > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Counters the workload lint reports back for the title line and the
/// `--json` envelope.
#[derive(Default)]
struct WorkloadStats {
    /// The oracle's counts; its verify time includes the view
    /// definitions' lint, its exec time the data setup.
    checked: Counts,
    audit_findings: usize,
    maintain_rounds: usize,
    maintain_incremental: usize,
    maintain_recompute: usize,
    /// Views reading a written table, summed over the rounds
    /// (`maintained + marked_dirty`), and those of them the round left
    /// unchanged.
    maintain_visits: usize,
    maintain_unchanged: usize,
    audit_ms: u128,
    source_ms: u128,
    maintain_ms: u128,
}

/// The workload lint: every view definition through `verify_view_expr`,
/// every query through the [`Oracle`] (MV0xx, MV018 under
/// `--exec-check`, MV3xx under `--prove`), then the maintain and audit
/// gates.
fn workload_lint(args: &Args, report: &mut Report) -> WorkloadStats {
    let workload = build_workload(args.views, args.queries);
    let engine = engine_with(&workload, args.views, MatchConfig::default());
    let mut counts = Counts::default();

    let start = Instant::now();
    let checks = engine.check_constraints();
    for (_, view) in engine.views().iter() {
        report.extend(verify_view_expr(
            &workload.catalog,
            &checks,
            &view.expr,
            &view.name,
        ));
    }
    counts.verify_time = start.elapsed();

    // The exec check runs on tiny generated data, every view materialized.
    let start = Instant::now();
    let data = (args.exec_check > 0).then(|| {
        let (db, _) = generate_tpch(&TpchScale::tiny(), DATA_SEED);
        let store = materialize_views(&engine, &db);
        (db, store)
    });
    counts.exec_time = start.elapsed();
    let mut oracle = Oracle {
        engine: &engine,
        data: data.as_ref().map(|(db, store)| (db, store)),
        optimizer: OptimizerConfig::default(),
        prove: args.prove.then_some(ProveConfig {
            k: args.prove_k,
            max_databases: args.prove_budget,
            symbolic: true,
        }),
        exec_limit: args.exec_check,
        counts,
    };
    for (i, query) in workload.queries.iter().enumerate() {
        report.extend(oracle.check_query(query, &format!("q{i}")).diagnostics);
    }
    let mut stats = WorkloadStats {
        checked: oracle.counts,
        ..WorkloadStats::default()
    };

    // Incremental-maintenance gate (MV401+): register every view with
    // the mv-maintain driver over the same tiny generated data the
    // exec-check uses, drive insert/delete delta rounds through base
    // tables the views actually read, and audit after each round that
    // maintained contents equal recompute-from-scratch; finish with a
    // freshness-stamped serving audit over the whole query workload.
    if args.maintain > 0 {
        let maintain_start = Instant::now();
        let (db, _) = generate_tpch(&TpchScale::tiny(), DATA_SEED);
        let mut maintainer = Maintainer::new(db);
        let views = engine.views();
        let mut tables: Vec<_> = Vec::new();
        for (id, view) in views.iter() {
            match maintainer.register(id, view) {
                mv_maintain::MaintainStrategy::Incremental => stats.maintain_incremental += 1,
                mv_maintain::MaintainStrategy::Recompute => stats.maintain_recompute += 1,
            }
            tables.extend(view.expr.tables.iter().copied());
        }
        tables.sort_unstable();
        tables.dedup();
        for round in 0..args.maintain {
            let Some(&table) = tables.get(round % tables.len().max(1)) else {
                break;
            };
            let rows = maintainer.db().rows(table);
            if rows.is_empty() {
                continue;
            }
            // One row leaves, a copy of another arrives: both delta
            // directions every round, net row count unchanged.
            let delta = TableDelta {
                table,
                inserts: vec![rows[(round + 1) % rows.len()].clone()],
                deletes: vec![rows[round % rows.len()].clone()],
            };
            let done = maintainer.apply_with_engine(&delta, &engine);
            stats.maintain_visits += done.maintained + done.marked_dirty;
            stats.maintain_unchanged += done.unchanged;
            for (id, _) in views.iter() {
                if maintainer.is_dirty(id) {
                    maintainer.refresh_with_engine(id, &engine);
                }
            }
            stats.maintain_rounds += 1;
            report.extend(maintainer.audit());
        }
        report.extend(audit_serving(&engine, &maintainer, &workload.queries));
        stats.maintain_ms = maintain_start.elapsed().as_millis();
    }

    // Completeness & catalog audit (MV101+) over the same engine/workload.
    if args.audit {
        let audit_start = Instant::now();
        let audit = mv_audit::audit_all(&engine, &workload.queries);
        stats.audit_findings = audit.diagnostics.len();
        report.extend(audit.diagnostics);
        stats.audit_ms = audit_start.elapsed().as_millis();
    }

    stats
}

/// The `--json` envelope: the standard report fields plus a `gates`
/// object with per-band diagnostic counts, so CI can route failures
/// without parsing rule codes out of the flat list. Band = code prefix:
/// MV0xx verify, MV1xx audit, MV2xx source, MV3xx prove, MV4xx maintain.
fn envelope_json(args: &Args, report: &Report, stats: &WorkloadStats, title: &str) -> String {
    let band = |prefix: &str| {
        report
            .diagnostics
            .iter()
            .filter(|d| d.rule.code().starts_with(prefix))
            .count()
    };
    let gate = |name: &str, enabled: bool, count: usize, extra: &str| {
        format!(
            "    {}: {{\"enabled\": {enabled}, \"diagnostics\": {count}{extra}}}",
            json_string(name)
        )
    };
    let checked = &stats.checked;
    let prove_extra = format!(
        ", \"proved\": {}, \"refuted\": {}, \"inconclusive\": {}, \
         \"wall_ms\": {}, \"wall_budget_ms\": {}",
        checked.proved,
        checked.refuted,
        checked.inconclusive,
        checked.prove_time.as_millis(),
        args.prove_wall_ms
    );
    let verify_extra = format!(
        ", \"exec_checked\": {}, \"plans_checked\": {}, \"wall_ms\": {}, \"exec_wall_ms\": {}",
        checked.exec_checked,
        checked.plans_checked,
        checked.verify_time.as_millis(),
        checked.exec_time.as_millis()
    );
    let audit_extra = format!(", \"wall_ms\": {}", stats.audit_ms);
    let source_extra = format!(", \"wall_ms\": {}", stats.source_ms);
    let maintain_extra = format!(
        ", \"rounds\": {}, \"incremental\": {}, \"recompute\": {}, \"visits\": {}, \
         \"unchanged\": {}, \"wall_ms\": {}",
        stats.maintain_rounds,
        stats.maintain_incremental,
        stats.maintain_recompute,
        stats.maintain_visits,
        stats.maintain_unchanged,
        stats.maintain_ms
    );
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"report\": {},\n", json_string(title)));
    out.push_str(&format!(
        "  \"errors\": {},\n  \"warnings\": {},\n  \"infos\": {},\n",
        report.count(Severity::Error),
        report.count(Severity::Warning),
        report.count(Severity::Info)
    ));
    out.push_str("  \"gates\": {\n");
    out.push_str(&gate(
        "verify",
        !args.source_only,
        band("MV0"),
        &verify_extra,
    ));
    out.push_str(",\n");
    out.push_str(&gate("audit", args.audit, band("MV1"), &audit_extra));
    out.push_str(",\n");
    out.push_str(&gate("source", args.source, band("MV2"), &source_extra));
    out.push_str(",\n");
    out.push_str(&gate("prove", args.prove, band("MV3"), &prove_extra));
    out.push_str(",\n");
    out.push_str(&gate(
        "maintain",
        args.maintain > 0,
        band("MV4"),
        &maintain_extra,
    ));
    out.push_str("\n  },\n");
    out.push_str("  \"diagnostics\": [\n");
    for (i, d) in report.diagnostics.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&d.to_json());
        if i + 1 < report.diagnostics.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}
