//! `mv-prove` — a bounded semantic equivalence prover for view-matching
//! rewrites (DESIGN.md §15).
//!
//! mv-verify re-derives the paper's §3 *syntactic* soundness conditions;
//! mv-audit proves filter-tree completeness. Neither proves the actual
//! semantics: that a substitute plan computes the same row bag as the
//! original query on **every** database. This crate closes that gap with
//! a small-scope bounded model checker in the Cosette/Alloy style:
//!
//! 1. a **symbolic pass** (`symbolic`) abstracts both plans into the
//!    shared `EquivClasses`/`Interval` domains and either discharges the
//!    pair outright or reports `MV301 symbolic-mismatch` naming the
//!    column/predicate where the abstractions separate;
//! 2. an **enumerative pass** exhaustively generates every database up to
//!    bound `k` rows per table over a constraint-respecting finite domain
//!    (predicate constants ±1 plus NULL, foreign-key columns restricted
//!    to referenced keys — Chirkova-style *relative* equivalence),
//!    executes both plans through `mv-exec`, and compares row bags,
//!    reporting `MV302 counterexample` with the witness database rendered
//!    in full and a replayable seed.
//!
//! **Bound-soundness caveat**: a pair the enumerative pass exhausts is
//! certified equivalent only *up to k* over the derived domain — the
//! bound (row count *and* value domain) is part of the claim. Refutations
//! (`MV301`/`MV302`) carry no such caveat: a witness is a witness.

mod domain;
mod enumerative;
mod symbolic;

pub use domain::MAX_FAMILY_VALUES;

use mv_catalog::{Catalog, TableId};
use mv_data::{Database, EnumOutcome, Enumerator, Row};
use mv_exec::{bag_diff, execute_spjg, execute_substitute_with};
use mv_expr::Conjunct;
use mv_plan::{SpjgExpr, Substitute};
use mv_verify::{Diagnostic, RuleId};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Shared prover context: the catalog plus the declared check
/// constraints (per table, column references with `occ = 0`).
pub struct ProveCtx<'a> {
    /// Schema and integrity constraints.
    pub catalog: &'a Catalog,
    /// Declared check constraints per table.
    pub checks: &'a HashMap<TableId, Vec<Conjunct>>,
}

impl<'a> ProveCtx<'a> {
    /// Bundle a catalog and its check constraints.
    pub fn new(catalog: &'a Catalog, checks: &'a HashMap<TableId, Vec<Conjunct>>) -> Self {
        ProveCtx { catalog, checks }
    }
}

/// Prover knobs.
#[derive(Debug, Clone)]
pub struct ProveConfig {
    /// Maximum rows per table in enumerated databases (the bound `k`).
    pub k: usize,
    /// Maximum databases the enumerative pass may visit.
    pub max_databases: u64,
    /// Try the symbolic pass first (disable to force an enumerated
    /// witness for a pair the abstraction would already separate).
    pub symbolic: bool,
}

impl Default for ProveConfig {
    fn default() -> Self {
        ProveConfig {
            k: 2,
            max_databases: 20_000,
            symbolic: true,
        }
    }
}

/// A concrete refutation: a constraint-satisfying database on which the
/// two plans disagree.
#[derive(Debug, Clone)]
pub struct Witness {
    /// Enumeration index of the database — the replayable seed:
    /// [`replay`] with the same pair, bound and seed reconstructs it.
    pub seed: u64,
    /// The witness database itself.
    pub database: Database,
    /// Rows the original query returns on it.
    pub query_rows: Vec<Row>,
    /// Rows the substitute returns on it.
    pub substitute_rows: Vec<Row>,
    /// Human-readable bag difference (from `mv_exec::bag_diff`).
    pub diff: String,
}

impl Witness {
    /// Render the witness for a diagnostic: every table's contents, both
    /// result bags, the bag difference, and the replay seed.
    pub fn render(&self, tables: &[TableId]) -> String {
        let mut out = String::new();
        for &t in tables {
            let table = self.database.catalog.table(t);
            let cols: Vec<&str> = table.columns.iter().map(|c| c.name.as_str()).collect();
            let _ = write!(out, "{}({})=[", table.name, cols.join(","));
            for (i, row) in self.database.rows(t).iter().enumerate() {
                let _ = write!(out, "{}{}", if i > 0 { " " } else { "" }, render_row(row));
            }
            out.push_str("] ");
        }
        let _ = write!(
            out,
            "query={} substitute={} | {} | seed={}",
            render_rows(&self.query_rows),
            render_rows(&self.substitute_rows),
            self.diff,
            self.seed
        );
        out
    }
}

fn render_row(row: &Row) -> String {
    let vals: Vec<String> = row.iter().map(|v| v.to_string()).collect();
    format!("({})", vals.join(","))
}

fn render_rows(rows: &[Row]) -> String {
    let items: Vec<String> = rows.iter().map(render_row).collect();
    format!("[{}]", items.join(" "))
}

/// What the prover concluded about one (query, substitute) pair.
#[derive(Debug, Clone)]
pub enum ProveOutcome {
    /// The symbolic abstractions are equal on an exact fragment:
    /// equivalent on **all** databases.
    ProvedSymbolic,
    /// Every database up to the bound agreed (count attached).
    /// Equivalence is certified *up to k* only.
    ProvedBounded {
        /// Databases checked (the whole bounded space).
        databases: u64,
    },
    /// The symbolic pass separates the pair (MV301).
    SymbolicMismatch {
        /// The offending column or predicate.
        detail: String,
    },
    /// The enumerative pass found a disagreeing database (MV302).
    Counterexample(Box<Witness>),
    /// Budget ran out (or a value domain was truncated) before the
    /// bounded space was exhausted; no disagreement seen (MV303).
    BudgetExhausted {
        /// Databases checked before stopping.
        databases: u64,
    },
    /// The pair is outside the supported fragment; nothing checked
    /// (MV304).
    Unsupported {
        /// Why.
        reason: String,
    },
}

impl ProveOutcome {
    /// Did the prover establish a definite non-equivalence?
    pub fn is_refuted(&self) -> bool {
        matches!(
            self,
            ProveOutcome::SymbolicMismatch { .. } | ProveOutcome::Counterexample(_)
        )
    }

    /// Did the prover certify the pair (symbolically, or up to the
    /// bound)?
    pub fn is_proved(&self) -> bool {
        matches!(
            self,
            ProveOutcome::ProvedSymbolic | ProveOutcome::ProvedBounded { .. }
        )
    }
}

/// Prove (or refute) that `sub`, evaluated over the view defined by
/// `view_expr`, is equivalent to `query` relative to the catalog's
/// integrity constraints.
pub fn prove(
    ctx: &ProveCtx<'_>,
    query: &SpjgExpr,
    view_expr: &SpjgExpr,
    sub: &Substitute,
    cfg: &ProveConfig,
) -> ProveOutcome {
    let mut sym_note = "";
    if cfg.symbolic {
        match symbolic::symbolic_pass(ctx.catalog, ctx.checks, query, view_expr, sub) {
            symbolic::Symbolic::Discharged => return ProveOutcome::ProvedSymbolic,
            symbolic::Symbolic::Separated(detail) => {
                return ProveOutcome::SymbolicMismatch { detail }
            }
            symbolic::Symbolic::Inconclusive(reason) => sym_note = reason,
        }
    }
    let dom = match domain::build_spec(ctx.catalog, ctx.checks, query, view_expr, sub, cfg.k) {
        Ok(d) => d,
        Err(reason) => {
            let reason = if sym_note.is_empty() {
                reason
            } else {
                format!("{reason} (symbolic pass: {sym_note})")
            };
            return ProveOutcome::Unsupported { reason };
        }
    };
    let res = enumerative::run(ctx, query, view_expr, sub, &dom.spec, cfg);
    if let Some(w) = res.witness {
        return ProveOutcome::Counterexample(Box::new(w));
    }
    match res.outcome {
        EnumOutcome::Exhausted if !dom.truncated => ProveOutcome::ProvedBounded {
            databases: res.databases,
        },
        EnumOutcome::Exhausted | EnumOutcome::BudgetExhausted => ProveOutcome::BudgetExhausted {
            databases: res.databases,
        },
        EnumOutcome::DomainTooLarge => ProveOutcome::Unsupported {
            reason: format!(
                "a table's row domain exceeds the enumerator cap ({})",
                mv_data::MAX_ROW_DOMAIN
            ),
        },
        EnumOutcome::Stopped => unreachable!("a stopped walk carries a witness"),
    }
}

/// Reconstruct the database behind an `MV302` seed and re-execute both
/// plans on it. `None` when the seed is outside the bounded space (wrong
/// pair, bound, or budget).
pub fn replay(
    ctx: &ProveCtx<'_>,
    query: &SpjgExpr,
    view_expr: &SpjgExpr,
    sub: &Substitute,
    cfg: &ProveConfig,
    seed: u64,
) -> Option<Witness> {
    let dom = domain::build_spec(ctx.catalog, ctx.checks, query, view_expr, sub, cfg.k).ok()?;
    let enumerator = Enumerator::new(ctx.catalog, ctx.checks, &dom.spec);
    let db = enumerator.database_at(seed)?;
    let query_rows = execute_spjg(&db, query);
    let view_rows = execute_spjg(&db, view_expr);
    let substitute_rows = execute_substitute_with(&db, &view_rows, sub);
    let diff = bag_diff(&substitute_rows, &query_rows).unwrap_or_default();
    Some(Witness {
        seed,
        database: db,
        query_rows,
        substitute_rows,
        diff,
    })
}

/// The tables a pair touches, in the enumerator's (FK-topological) order
/// — the order [`Witness::render`] lists them in.
pub fn pair_tables(query: &SpjgExpr, view_expr: &SpjgExpr, sub: &Substitute) -> Vec<TableId> {
    let mut tables: Vec<TableId> = query
        .tables
        .iter()
        .chain(&view_expr.tables)
        .copied()
        .collect();
    tables.extend(sub.backjoins.iter().map(|b| b.table));
    tables.sort();
    tables.dedup();
    tables
}

/// Render a prove outcome as `mv-verify` diagnostics (MV301–MV304;
/// proved outcomes produce none).
pub fn prove_diagnostics(
    outcome: &ProveOutcome,
    view_name: &str,
    query_name: &str,
    tables: &[TableId],
    cfg: &ProveConfig,
) -> Vec<Diagnostic> {
    match outcome {
        ProveOutcome::ProvedSymbolic | ProveOutcome::ProvedBounded { .. } => vec![],
        ProveOutcome::SymbolicMismatch { detail } => vec![Diagnostic::error(
            RuleId::SymbolicMismatch,
            "symbolic abstraction separates query and substitute",
        )
        .with_view(view_name)
        .with_query(query_name)
        .with_detail(detail)],
        ProveOutcome::Counterexample(w) => vec![Diagnostic::error(
            RuleId::Counterexample,
            format!(
                "counterexample database at bound k={}: substitute and query disagree",
                cfg.k
            ),
        )
        .with_view(view_name)
        .with_query(query_name)
        .with_detail(w.render(tables))],
        ProveOutcome::BudgetExhausted { databases } => vec![Diagnostic::warning(
            RuleId::ProveBudgetExhausted,
            format!(
                "bound k={} not exhausted after {} databases; no counterexample found",
                cfg.k, databases
            ),
        )
        .with_view(view_name)
        .with_query(query_name)],
        ProveOutcome::Unsupported { reason } => vec![Diagnostic::warning(
            RuleId::ProveUnsupported,
            "pair is outside the prover's supported fragment",
        )
        .with_view(view_name)
        .with_query(query_name)
        .with_detail(reason)],
    }
}
