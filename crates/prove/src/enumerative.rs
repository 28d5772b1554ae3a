//! The enumerative pass: compiled plan programs over a chunked,
//! cancellable walk of the bounded database space (DESIGN.md §16).
//!
//! Plans are compiled once per (query, substitute) pair into
//! [`PlanProgram`]/[`SubstituteProgram`] and evaluated over per-worker
//! reusable scratch buffers — the tree-walking interpreter is reserved for
//! [`crate::replay`] and the differential tests. The deterministic
//! enumeration index space `[0, total)` is split into one contiguous chunk
//! per worker via [`Enumerator::for_each_range`], so a counterexample found
//! in parallel reports exactly the global index a serial walk would have
//! reported first:
//!
//! * workers stop as soon as their next index is at or past the best
//!   (smallest) refutation index published so far — but any *smaller*
//!   index keeps being visited, so the minimum survives cancellation;
//! * the visited-database count is charged deterministically: the space
//!   is counted up to the budget once, chunks partition exactly that
//!   range, and the per-chunk quotas sum back to the same total a serial
//!   walk reports (MV303 parity).

use crate::{ProveConfig, ProveCtx, Witness};
use mv_data::{Database, EnumOutcome, EnumSpec, Enumerator};
use mv_exec::{bag_diff, rowbag_eq, ExecScratch, PlanProgram, RowBag, SubstitutePipeline};
use mv_parallel::sync::atomic::{AtomicU64, Ordering};
use mv_parallel::sync::{lock_or_recover, Mutex};
use mv_plan::{SpjgExpr, Substitute};

/// Below this many databases a fan-out costs more than it saves (each
/// chunk re-walks its prefix of the enumeration tree).
const PAR_MIN_DATABASES: u64 = 1024;

/// Outcome of the enumerative pass, before mapping to a
/// [`crate::ProveOutcome`].
pub(crate) struct EnumResult {
    /// The minimum-index refutation, if any.
    pub witness: Option<Witness>,
    /// Databases charged against the budget — identical for serial and
    /// parallel walks of the same pair.
    pub databases: u64,
    /// How the walk ended (`Stopped` never escapes: a stop is a witness).
    pub outcome: EnumOutcome,
}

/// The compiled pair: the query plan plus the (view, substitute) pipeline,
/// which fuses away view materialization for column-projection views.
struct Programs {
    query: PlanProgram,
    pipeline: SubstitutePipeline,
    /// The query compiled against the view's occurrence numbering, present
    /// when both sides join the same tuple stream (the common case: the
    /// view is the query's own SPJ block, possibly with occurrences
    /// numbered differently) — one join pass then feeds both outputs.
    shared_query: Option<PlanProgram>,
}

impl Programs {
    fn new(
        catalog: &mv_catalog::Catalog,
        query_expr: &SpjgExpr,
        view_expr: &SpjgExpr,
        sub: &Substitute,
    ) -> Self {
        let query = PlanProgram::compile(catalog, query_expr);
        let pipeline = SubstitutePipeline::compile(catalog, view_expr, sub);
        let shared_query = pipeline.shared_query(catalog, &query, query_expr, view_expr);
        Programs {
            query,
            pipeline,
            shared_query,
        }
    }
}

/// Per-worker reusable buffers.
#[derive(Default)]
struct Bags {
    scratch: ExecScratch,
    query: RowBag,
    view: RowBag,
    sub: RowBag,
}

/// Execute the compiled pair on one database; true iff the bags agree.
fn agree(progs: &Programs, db: &Database, b: &mut Bags) -> bool {
    if let Some(q) = &progs.shared_query {
        progs
            .pipeline
            .execute_shared(q, db, &mut b.scratch, &mut b.query, &mut b.sub);
    } else {
        progs.query.execute(db, &mut b.scratch, &mut b.query);
        progs
            .pipeline
            .execute(db, &mut b.scratch, &mut b.view, &mut b.sub);
    }
    rowbag_eq(&b.sub, &b.query, &mut b.scratch.matched)
}

/// Build the MV302 witness for a disagreeing database (cold path — the
/// only allocating step of the loop).
fn make_witness(seed: u64, db: &Database, b: &Bags) -> Witness {
    let query_rows = b.query.to_rows();
    let substitute_rows = b.sub.to_rows();
    let diff = bag_diff(&substitute_rows, &query_rows).unwrap_or_default();
    Witness {
        seed,
        database: db.clone(),
        query_rows,
        substitute_rows,
        diff,
    }
}

/// Run the enumerative pass for one pair over the derived spec.
pub(crate) fn run(
    ctx: &ProveCtx<'_>,
    query: &SpjgExpr,
    view_expr: &SpjgExpr,
    sub: &Substitute,
    spec: &EnumSpec,
    cfg: &ProveConfig,
) -> EnumResult {
    let progs = Programs::new(ctx.catalog, query, view_expr, sub);
    let enumerator = Enumerator::new(ctx.catalog, ctx.checks, spec);
    let jobs = if cfg.jobs == 0 {
        mv_parallel::workers_for(usize::MAX)
    } else {
        cfg.jobs
    };
    if jobs <= 1 || cfg!(mv_model) {
        return serial_pass(&progs, &enumerator, cfg.max_databases);
    }
    // Count the chargeable index space first (a walk without plan
    // execution). This is what makes budget accounting deterministic:
    // chunks partition exactly [0, total).
    let stats = enumerator.for_each(cfg.max_databases, |_, _| true);
    if stats.outcome == EnumOutcome::DomainTooLarge {
        return EnumResult {
            witness: None,
            databases: stats.databases,
            outcome: EnumOutcome::DomainTooLarge,
        };
    }
    let total = stats.databases;
    if total < PAR_MIN_DATABASES {
        return serial_pass(&progs, &enumerator, cfg.max_databases);
    }
    parallel_pass(
        &progs,
        &enumerator,
        total,
        stats.outcome == EnumOutcome::Exhausted,
        jobs,
    )
}

fn serial_pass(progs: &Programs, enumerator: &Enumerator<'_>, budget: u64) -> EnumResult {
    let mut bags = Bags::default();
    let mut witness = None;
    let stats = enumerator.for_each(budget, |seed, db| {
        if agree(progs, db, &mut bags) {
            true
        } else {
            witness = Some(make_witness(seed, db, &bags));
            false
        }
    });
    EnumResult {
        witness,
        databases: stats.databases,
        outcome: stats.outcome,
    }
}

/// Fan the index range `[0, total)` across `jobs` contiguous chunks with
/// early-exit cancellation on the smallest refutation index.
fn parallel_pass(
    progs: &Programs,
    enumerator: &Enumerator<'_>,
    total: u64,
    exhausted: bool,
    jobs: usize,
) -> EnumResult {
    // One chunk per worker: more chunks would re-walk more enumeration
    // prefix (a chunk must traverse [0, hi) to reach [lo, hi)).
    let n = (jobs as u64).min(total).max(1);
    let chunks: Vec<(u64, u64)> = (0..n)
        .map(|c| (c * total / n, (c + 1) * total / n))
        .collect();
    // The smallest refutation index published so far; u64::MAX = none.
    // Workers keep visiting indices below it, so the global minimum is
    // always reached even after cancellation kicks in.
    let best = AtomicU64::new(u64::MAX);
    let found: Mutex<Option<Witness>> = Mutex::new(None);
    mv_parallel::par_map(&chunks, jobs, |&(lo, hi)| {
        let mut bags = Bags::default();
        enumerator.for_each_range(lo, hi, |seed, db| {
            if seed >= best.load(Ordering::SeqCst) {
                return false; // a smaller refutation already exists
            }
            if agree(progs, db, &mut bags) {
                return true;
            }
            let w = make_witness(seed, db, &bags);
            let mut slot = lock_or_recover(&found);
            if slot.as_ref().is_none_or(|old| w.seed < old.seed) {
                best.store(w.seed, Ordering::SeqCst);
                *slot = Some(w);
            }
            false // later indices in this chunk are all larger
        });
    });
    let witness = lock_or_recover(&found).take();
    EnumResult {
        witness,
        databases: total,
        outcome: if exhausted {
            EnumOutcome::Exhausted
        } else {
            EnumOutcome::BudgetExhausted
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_catalog::{Catalog, TableId};
    use mv_expr::{BoolExpr, CmpOp, ColRef, Conjunct, ScalarExpr as S};
    use mv_plan::{NamedExpr, OutputList, SpjgExpr, ViewId};
    use std::collections::HashMap;

    fn cr(occ: u32, col: u32) -> ColRef {
        ColRef::new(occ, col)
    }

    /// One-table schema plus an equivalent and a subtly-off substitute.
    fn fixture(catalog: &mut Catalog) -> (TableId, SpjgExpr, SpjgExpr, Substitute, Substitute) {
        use mv_catalog::schema::TableBuilder;
        use mv_catalog::ColumnType;
        let t = catalog.add_table(
            TableBuilder::new("t")
                .col("pk", ColumnType::Int)
                .nullable_col("x", ColumnType::Int)
                .primary_key(&["pk"])
                .build(),
        );
        let query = SpjgExpr::spj(
            vec![t],
            BoolExpr::cmp(S::col(cr(0, 1)), CmpOp::Le, S::lit(10i64)),
            vec![NamedExpr::new(S::col(cr(0, 0)), "pk")],
        );
        let view = SpjgExpr::spj(
            vec![t],
            BoolExpr::Literal(true),
            vec![
                NamedExpr::new(S::col(cr(0, 0)), "pk"),
                NamedExpr::new(S::col(cr(0, 1)), "x"),
            ],
        );
        let good = Substitute {
            view: ViewId(0),
            backjoins: vec![],
            predicates: vec![BoolExpr::cmp(S::col(cr(0, 1)), CmpOp::Le, S::lit(10i64))],
            output: OutputList::Spj(vec![NamedExpr::new(S::col(cr(0, 0)), "pk")]),
            freshness: mv_plan::Freshness::Fresh,
        };
        let bad = Substitute {
            predicates: vec![BoolExpr::cmp(S::col(cr(0, 1)), CmpOp::Lt, S::lit(10i64))],
            ..good.clone()
        };
        (t, query, view, good, bad)
    }

    fn spec_for(
        ctx: &ProveCtx<'_>,
        query: &SpjgExpr,
        view: &SpjgExpr,
        sub: &Substitute,
        k: usize,
    ) -> EnumSpec {
        crate::domain::build_spec(ctx.catalog, ctx.checks, query, view, sub, k)
            .expect("supported fragment")
            .spec
    }

    #[test]
    fn parallel_pass_matches_serial_verdict_and_seed() {
        let mut catalog = Catalog::new();
        let (_t, query, view, good, bad) = fixture(&mut catalog);
        let checks: HashMap<TableId, Vec<Conjunct>> = HashMap::new();
        let ctx = ProveCtx::new(&catalog, &checks);
        let cfg = ProveConfig {
            k: 2,
            ..Default::default()
        };
        for sub in [&good, &bad] {
            let spec = spec_for(&ctx, &query, &view, sub, cfg.k);
            let progs = Programs::new(ctx.catalog, &query, &view, sub);
            let en = Enumerator::new(ctx.catalog, ctx.checks, &spec);
            let serial = serial_pass(&progs, &en, cfg.max_databases);
            let (total, exhausted) = en.count(cfg.max_databases);
            // Force the chunked path regardless of the size threshold.
            let par = parallel_pass(&progs, &en, total, exhausted, 3);
            match (&serial.witness, &par.witness) {
                (None, None) => {
                    assert_eq!(serial.databases, par.databases, "MV303 parity");
                    assert_eq!(serial.outcome, par.outcome);
                }
                (Some(s), Some(p)) => {
                    assert_eq!(s.seed, p.seed, "same global counterexample index");
                    assert_eq!(s.query_rows, p.query_rows);
                    assert_eq!(s.substitute_rows, p.substitute_rows);
                }
                other => panic!("verdicts diverge: {other:?}"),
            }
        }
    }

    #[test]
    fn budget_accounting_is_deterministic_under_parallelism() {
        let mut catalog = Catalog::new();
        let (_t, query, view, good, _bad) = fixture(&mut catalog);
        let checks: HashMap<TableId, Vec<Conjunct>> = HashMap::new();
        let ctx = ProveCtx::new(&catalog, &checks);
        let cfg = ProveConfig {
            k: 2,
            ..Default::default()
        };
        let spec = spec_for(&ctx, &query, &view, &good, cfg.k);
        let progs = Programs::new(ctx.catalog, &query, &view, &good);
        let en = Enumerator::new(ctx.catalog, ctx.checks, &spec);
        let (space, _) = en.count(u64::MAX);
        assert!(space > 8, "fixture space large enough to truncate");
        let budget = space / 2;
        let serial = serial_pass(&progs, &en, budget);
        assert_eq!(serial.outcome, EnumOutcome::BudgetExhausted);
        assert_eq!(serial.databases, budget);
        let (total, exhausted) = en.count(budget);
        assert!(!exhausted);
        for jobs in [2usize, 3, 5] {
            let par = parallel_pass(&progs, &en, total, exhausted, jobs);
            assert_eq!(par.databases, serial.databases, "jobs={jobs}");
            assert_eq!(par.outcome, EnumOutcome::BudgetExhausted);
            assert!(par.witness.is_none());
        }
    }
}
