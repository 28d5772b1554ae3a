//! The enumerative pass: compiled plan programs over one serial walk of
//! the bounded database space (DESIGN.md §16).
//!
//! Plans are compiled once per (query, substitute) pair into
//! [`PlanProgram`]/[`SubstitutePipeline`] and evaluated over reusable
//! scratch buffers — the tree-walking interpreter is reserved for
//! [`crate::replay`] and the differential tests. [`Enumerator::for_each`]
//! hands every database of the space to the pair in its deterministic
//! order; the first disagreeing index is the witness seed, and the number
//! of databases visited is what MV303 reports. The walk is serial on
//! purpose: enumeration is stateful, so a chunk of the index space can
//! only be reached by walking its prefix, and a chunked fan-out measured
//! slower than this pass on every space tried (DESIGN.md §16.2).

use crate::{ProveConfig, ProveCtx, Witness};
use mv_data::{Database, EnumOutcome, EnumSpec, Enumerator};
use mv_exec::{bag_diff, rowbag_eq, ExecScratch, PlanProgram, RowBag, SubstitutePipeline};
use mv_plan::{SpjgExpr, Substitute};

/// Outcome of the enumerative pass, before mapping to a
/// [`crate::ProveOutcome`].
pub(crate) struct EnumResult {
    /// The first (minimum-index) refutation, if any.
    pub witness: Option<Witness>,
    /// Databases charged against the budget.
    pub databases: u64,
    /// How the walk ended (`Stopped` never escapes: a stop is a witness).
    pub outcome: EnumOutcome,
}

/// The compiled pair: the query plan plus the (view, substitute) pipeline,
/// which fuses away view materialization for column-projection views. The
/// two are compiled from two expressions and share no join, so the query
/// side always runs the query's own conjuncts (DESIGN.md §16.3).
struct Programs {
    query: PlanProgram,
    pipeline: SubstitutePipeline,
}

/// Reusable buffers of one pass.
#[derive(Default)]
struct Bags {
    scratch: ExecScratch,
    query: RowBag,
    sub: RowBag,
}

/// Execute the compiled pair on one database; true iff the bags agree.
fn agree(progs: &Programs, db: &Database, b: &mut Bags) -> bool {
    progs.query.execute(db, &mut b.scratch, &mut b.query);
    progs.pipeline.execute(db, &mut b.scratch, &mut b.sub);
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
    let progs = Programs {
        query: PlanProgram::compile(query),
        pipeline: SubstitutePipeline::compile(ctx.catalog, view_expr, sub),
    };
    let enumerator = Enumerator::new(ctx.catalog, ctx.checks, spec);
    let mut bags = Bags::default();
    let mut witness = None;
    let stats = enumerator.for_each(cfg.max_databases, |seed, db| {
        if agree(&progs, db, &mut bags) {
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
