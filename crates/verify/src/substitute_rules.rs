//! Substitute-level rules: an independent re-derivation of the paper's
//! §3.1.2–§3.3 soundness conditions for one `(query, view, substitute)`
//! triple.
//!
//! The verifier never calls into the matcher. It re-enumerates the
//! view-occurrence → query-occurrence correspondence from table identity,
//! re-derives equivalence classes, folded ranges, and residual templates
//! from the raw conjunct lists, re-runs foreign-key join elimination from
//! the catalog, and then checks that the substitute — view, backjoins,
//! compensating predicates, output list — computes exactly the query.
//!
//! A substitute passes if *some* occurrence correspondence passes every
//! rule; diagnostics reported are those of the best (fewest-errors)
//! correspondence, so a corrupted substitute names the rule it broke
//! rather than drowning in mapping noise.

use crate::analysis::{checks_for_occ, ec_of, null_rejecting, Profile};
use crate::diag::{Diagnostic, RuleId, Severity};
use mv_catalog::{Catalog, ColumnId, TableId};
use mv_expr::{classify, BoolExpr, ColRef, Conjunct, EquivClasses, Interval, ScalarExpr, Template};
use mv_plan::{AggFunc, OutputList, SpjgExpr, Substitute};
use std::collections::{BTreeSet, HashMap};

/// Everything the rules need besides the triple itself: the catalog, and
/// the check constraints declared on base tables (the matcher may rely on
/// them, so the verifier must know them to avoid false alarms).
pub struct VerifyContext<'a> {
    pub catalog: &'a Catalog,
    pub checks: &'a HashMap<TableId, Vec<Conjunct>>,
}

impl<'a> VerifyContext<'a> {
    pub fn new(catalog: &'a Catalog, checks: &'a HashMap<TableId, Vec<Conjunct>>) -> Self {
        VerifyContext { catalog, checks }
    }
}

/// The check conjuncts of `table` that hold of every row, on occurrence
/// `occ`: those whose columns are all NOT NULL. SQL's CHECK passes on
/// UNKNOWN, so a check over a nullable column admits NULL rows it says
/// nothing about; folding it would accept a substitute that loses them
/// (mv-prove's rule, DESIGN.md §15.1).
fn folded_checks(ctx: &VerifyContext, table: TableId, occ: u32) -> Vec<Conjunct> {
    let def = ctx.catalog.table(table);
    let mut checks = checks_for_occ(ctx.checks, table, occ);
    checks.retain(|c| c.columns().iter().all(|r| def.column(r.col).not_null));
    checks
}

/// Cap on occurrence correspondences (and backjoin resolutions) tried per
/// substitute. Far above anything real workloads produce.
const MAX_MAPPINGS: usize = 4096;

/// Verify one substitute. Returns all diagnostics of the best occurrence
/// correspondence — empty (or warnings only) means the substitute passed.
pub fn verify_substitute(
    ctx: &VerifyContext,
    query: &SpjgExpr,
    view: &SpjgExpr,
    sub: &Substitute,
    view_label: &str,
    query_label: &str,
) -> Vec<Diagnostic> {
    let tag = |mut d: Diagnostic| {
        d.context.view.get_or_insert_with(|| view_label.to_string());
        d.context
            .query
            .get_or_insert_with(|| query_label.to_string());
        d
    };

    // ---- Substitute column space and basic bounds (MV001/MV012/MV014) ----
    let arity = view.output_arity();
    let mut bases = Vec::with_capacity(sub.backjoins.len());
    let mut total = arity;
    for bj in &sub.backjoins {
        bases.push(total);
        total += ctx.catalog.table(bj.table).columns.len();
    }

    let mut diags = Vec::new();
    let mut refs: Vec<ColRef> = Vec::new();
    for p in &sub.predicates {
        refs.extend(p.columns());
    }
    match &sub.output {
        OutputList::Spj(items) => {
            for it in items {
                refs.extend(it.expr.columns());
            }
        }
        OutputList::Aggregate {
            group_by,
            aggregates,
        } => {
            for it in group_by {
                refs.extend(it.expr.columns());
            }
            for a in aggregates {
                if let Some(arg) = a.func.argument() {
                    refs.extend(arg.columns());
                }
            }
        }
    }
    for c in refs {
        if c.occ.0 != 0 {
            diags.push(Diagnostic::error(
                RuleId::SubstituteColumn,
                format!("substitute references {c}; only occurrence 0 (the view) is addressable"),
            ));
        } else if (c.col.0 as usize) >= total {
            diags.push(Diagnostic::error(
                RuleId::ColumnBounds,
                format!(
                    "substitute references output column {} but the view + backjoin \
                     column space has {total} columns",
                    c.col.0
                ),
            ));
        }
    }
    for (i, bj) in sub.backjoins.iter().enumerate() {
        let table = ctx.catalog.table(bj.table);
        for (pos, col) in &bj.key {
            if *pos >= bases[i] {
                diags.push(Diagnostic::error(
                    RuleId::BackjoinKey,
                    format!(
                        "backjoin {i} key position {pos} is not an already-available \
                         substitute column (base {})",
                        bases[i]
                    ),
                ));
            }
            if (col.0 as usize) >= table.columns.len() {
                diags.push(Diagnostic::error(
                    RuleId::ColumnBounds,
                    format!(
                        "backjoin {i} key column c{} is outside table {}",
                        col.0, table.name
                    ),
                ));
            }
        }
        let cols: Vec<ColumnId> = bj.key.iter().map(|(_, c)| *c).collect();
        if !table.covers_key(&cols) {
            diags.push(Diagnostic::error(
                RuleId::BackjoinKey,
                format!(
                    "backjoin {i} key columns {cols:?} do not cover a unique key of {}",
                    table.name
                ),
            ));
        }
        for c in &cols {
            if (c.0 as usize) < table.columns.len() && !table.column(*c).not_null {
                diags.push(Diagnostic::error(
                    RuleId::BackjoinKey,
                    format!(
                        "backjoin {i} joins on nullable column {}.{}; NULL keys drop rows",
                        table.name,
                        table.column(*c).name
                    ),
                ));
            }
        }
    }
    if !diags.is_empty() {
        return diags.into_iter().map(tag).collect();
    }

    // ---- Occurrence correspondences (MV004) ----
    let mappings = enumerate_mappings(query, view);
    if mappings.is_empty() {
        return vec![tag(Diagnostic::error(
            RuleId::TableCorrespondence,
            "no view-occurrence to query-occurrence correspondence exists: the query's \
             tables are not covered by the view's",
        ))];
    }

    let mut best: Option<Vec<Diagnostic>> = None;
    for m in &mappings {
        let d = check_mapping(ctx, query, view, sub, m, arity, &bases);
        let errs = d.iter().filter(|d| d.severity == Severity::Error).count();
        if errs == 0 {
            return d.into_iter().map(tag).collect();
        }
        let better = match &best {
            None => true,
            Some(b) => errs < b.iter().filter(|d| d.severity == Severity::Error).count(),
        };
        if better {
            best = Some(d);
        }
    }
    best.unwrap_or_default().into_iter().map(tag).collect()
}

/// All injective assignments of view occurrences onto query occurrences
/// with matching base tables; unassigned view occurrences are extras.
/// Every query occurrence must be covered.
fn enumerate_mappings(query: &SpjgExpr, view: &SpjgExpr) -> Vec<Vec<Option<u32>>> {
    let nq = query.tables.len();
    let nv = view.tables.len();
    let mut out = Vec::new();
    let mut current: Vec<Option<u32>> = Vec::with_capacity(nv);
    let mut used = vec![false; nq];

    fn rec(
        i: usize,
        nv: usize,
        query: &SpjgExpr,
        view: &SpjgExpr,
        used: &mut Vec<bool>,
        current: &mut Vec<Option<u32>>,
        out: &mut Vec<Vec<Option<u32>>>,
    ) {
        if out.len() >= MAX_MAPPINGS {
            return;
        }
        if i == nv {
            if used.iter().all(|&u| u) {
                out.push(current.clone());
            }
            return;
        }
        for j in 0..query.tables.len() {
            if !used[j] && query.tables[j] == view.tables[i] {
                used[j] = true;
                current.push(Some(j as u32));
                rec(i + 1, nv, query, view, used, current, out);
                current.pop();
                used[j] = false;
            }
        }
        // Leave view occurrence `i` unmapped (an extra).
        current.push(None);
        rec(i + 1, nv, query, view, used, current, out);
        current.pop();
    }

    rec(0, nv, query, view, &mut used, &mut current, &mut out);
    out
}

/// How one substitute column position expands in view-occurrence space
/// (already remapped into query space).
#[derive(Debug, Clone)]
enum Exp {
    /// A base-table column (simple view output or backjoin column).
    Col(ColRef),
    /// A complex scalar view output.
    Expr(ScalarExpr),
    /// The `k`-th aggregate output of an aggregate view.
    Agg(usize),
}

struct Expander {
    /// Scalar view outputs in query space (SPJ outputs, or group-by items).
    scalars: Vec<ScalarExpr>,
    /// Aggregate functions with arguments remapped to query space.
    aggs: Vec<AggFunc>,
    arity: usize,
    bases: Vec<usize>,
    /// Resolved view occurrence (query space) per backjoin.
    bj_occ: Vec<u32>,
}

impl Expander {
    fn expand_pos(&self, p: usize) -> Exp {
        if p < self.arity {
            if p < self.scalars.len() {
                let e = &self.scalars[p];
                match e.as_column() {
                    Some(c) => Exp::Col(c),
                    None => Exp::Expr(e.clone()),
                }
            } else {
                Exp::Agg(p - self.scalars.len())
            }
        } else {
            let mut k = self.bases.len() - 1;
            while self.bases[k] > p {
                k -= 1;
            }
            Exp::Col(ColRef::new(self.bj_occ[k], (p - self.bases[k]) as u32))
        }
    }

    /// Expand a scalar expression over substitute columns into view space;
    /// `Err(k)` when it touches aggregate output `k`.
    fn expand_scalar(&self, e: &ScalarExpr) -> Result<ScalarExpr, usize> {
        match e {
            ScalarExpr::Column(c) => match self.expand_pos(c.col.0 as usize) {
                Exp::Col(cr) => Ok(ScalarExpr::col(cr)),
                Exp::Expr(ex) => Ok(ex),
                Exp::Agg(k) => Err(k),
            },
            ScalarExpr::Literal(_) => Ok(e.clone()),
            ScalarExpr::Binary { op, left, right } => Ok(ScalarExpr::Binary {
                op: *op,
                left: Box::new(self.expand_scalar(left)?),
                right: Box::new(self.expand_scalar(right)?),
            }),
        }
    }

    fn expand_bool(&self, b: &BoolExpr) -> Result<BoolExpr, usize> {
        Ok(match b {
            BoolExpr::And(v) => BoolExpr::And(
                v.iter()
                    .map(|p| self.expand_bool(p))
                    .collect::<Result<_, _>>()?,
            ),
            BoolExpr::Or(v) => BoolExpr::Or(
                v.iter()
                    .map(|p| self.expand_bool(p))
                    .collect::<Result<_, _>>()?,
            ),
            BoolExpr::Not(p) => BoolExpr::Not(Box::new(self.expand_bool(p)?)),
            BoolExpr::Compare { op, left, right } => BoolExpr::Compare {
                op: *op,
                left: self.expand_scalar(left)?,
                right: self.expand_scalar(right)?,
            },
            BoolExpr::Like {
                expr,
                pattern,
                negated,
            } => BoolExpr::Like {
                expr: self.expand_scalar(expr)?,
                pattern: pattern.clone(),
                negated: *negated,
            },
            BoolExpr::IsNull { expr, negated } => BoolExpr::IsNull {
                expr: self.expand_scalar(expr)?,
                negated: *negated,
            },
            BoolExpr::Literal(x) => BoolExpr::Literal(*x),
        })
    }
}

/// Check one occurrence correspondence end to end.
#[allow(clippy::too_many_arguments)]
fn check_mapping(
    ctx: &VerifyContext,
    query: &SpjgExpr,
    view: &SpjgExpr,
    sub: &Substitute,
    m: &[Option<u32>],
    arity: usize,
    bases: &[usize],
) -> Vec<Diagnostic> {
    let catalog = ctx.catalog;
    let nq = query.tables.len();
    let nv = view.tables.len();
    let mut diags: Vec<Diagnostic> = Vec::new();

    // Query-space occurrence ids: mapped view occs take the query occ id,
    // extras get fresh ids nq, nq+1, ...
    let mut qocc_of_vocc = vec![0u32; nv];
    let mut extras: Vec<u32> = Vec::new();
    let mut table_of: Vec<TableId> = query.tables.clone();
    let mut next = nq as u32;
    for (i, slot) in m.iter().enumerate() {
        match slot {
            Some(j) => qocc_of_vocc[i] = *j,
            None => {
                qocc_of_vocc[i] = next;
                extras.push(next);
                table_of.push(view.tables[i]);
                next += 1;
            }
        }
    }
    let mapf = |c: ColRef| ColRef::new(qocc_of_vocc[c.occ.0 as usize], c.col.0);

    // View conjuncts in query space.
    let v_conjs_q: Vec<Conjunct> = view
        .conjuncts
        .iter()
        .filter_map(|c| c.try_map_columns(&mut |cr| Some(mapf(cr))))
        .collect();

    // Check-constraint conjuncts: per query occurrence and per extra.
    let mut q_checks: Vec<Conjunct> = Vec::new();
    for (j, t) in query.tables.iter().enumerate() {
        q_checks.extend(folded_checks(ctx, *t, j as u32));
    }
    let mut x_checks: Vec<Conjunct> = Vec::new();
    for (k, e) in extras.iter().enumerate() {
        x_checks.extend(folded_checks(ctx, table_of[nq + k], *e));
    }

    // Equivalence classes.
    let vec_q_own = ec_of([v_conjs_q.as_slice()]);
    let vec_q_ext = ec_of([
        v_conjs_q.as_slice(),
        q_checks.as_slice(),
        x_checks.as_slice(),
    ]);
    let mut qec_full = ec_of([query.conjuncts.as_slice(), q_checks.as_slice()]);

    // ---- MV013: re-derive FK join elimination for the extras ----
    let q_all: Vec<Conjunct> = query
        .conjuncts
        .iter()
        .chain(q_checks.iter())
        .cloned()
        .collect();
    let n_occ = next as usize;
    // edges[a] = (target, fk column pairs in query space)
    type FkEdge = (usize, Vec<(ColRef, ColRef)>);
    let mut edges: Vec<Vec<FkEdge>> = vec![Vec::new(); n_occ];
    for a in 0..n_occ {
        for fkid in catalog.foreign_keys_from(table_of[a]) {
            let fk = catalog.foreign_key(fkid);
            for (b, tb) in table_of.iter().enumerate() {
                if b == a || *tb != fk.to_table {
                    continue;
                }
                let pairs: Vec<(ColRef, ColRef)> = fk
                    .from_columns
                    .iter()
                    .zip(&fk.to_columns)
                    .map(|(f, t)| {
                        (
                            ColRef {
                                occ: mv_expr::OccId(a as u32),
                                col: *f,
                            },
                            ColRef {
                                occ: mv_expr::OccId(b as u32),
                                col: *t,
                            },
                        )
                    })
                    .collect();
                let joined = pairs.iter().all(|(f, t)| vec_q_ext.same(*f, *t));
                if !joined {
                    continue;
                }
                let safe = pairs.iter().all(|(f, _)| {
                    catalog.table(fk.from_table).column(f.col).not_null
                        || (a < nq && null_rejecting(&q_all, &qec_full, *f))
                });
                if safe {
                    edges[a].push((b, pairs));
                }
            }
        }
    }
    // Eliminate extras: repeatedly delete an extra with no outgoing edge
    // and exactly one incoming edge (the cardinality-preserving FK join),
    // folding the join's column equalities into the query's classes.
    let mut alive = vec![true; n_occ];
    let mut remaining: BTreeSet<usize> = extras.iter().map(|e| *e as usize).collect();
    let mut deleted_pairs: Vec<(ColRef, ColRef)> = Vec::new();
    loop {
        let mut victim = None;
        'scan: for &e in &remaining {
            if edges[e].iter().any(|(b, _)| alive[*b]) {
                continue; // outgoing edges remain
            }
            let mut incoming = Vec::new();
            for a in 0..n_occ {
                if !alive[a] || a == e {
                    continue;
                }
                for (b, pairs) in &edges[a] {
                    if *b == e {
                        incoming.push(pairs.clone());
                        if incoming.len() > 1 {
                            continue 'scan;
                        }
                    }
                }
            }
            if incoming.len() == 1 {
                victim = Some((e, incoming.pop().unwrap()));
                break;
            }
        }
        match victim {
            Some((e, pairs)) => {
                alive[e] = false;
                remaining.remove(&e);
                deleted_pairs.extend(pairs);
            }
            None => break,
        }
    }
    for &e in &remaining {
        diags.push(Diagnostic::error(
            RuleId::FkElimination,
            format!(
                "extra view table {} (occurrence t{e}) is not eliminable by a \
                 cardinality-preserving foreign-key join",
                catalog.table(table_of[e]).name
            ),
        ));
    }
    for (a, b) in &deleted_pairs {
        qec_full.union(*a, *b);
    }

    // ---- Backjoin resolution (MV014) ----
    // A backjoin must re-bind some view occurrence of its table: each key
    // column must be view-equal to the substitute column it is equated to.
    // Resolutions can be ambiguous (self-joins with equal keys), so try
    // every combination.
    let resolutions = resolve_backjoins(
        view,
        sub,
        arity,
        bases,
        &vec_q_ext,
        &table_of,
        &qocc_of_vocc,
    );
    if resolutions.is_empty() && !sub.backjoins.is_empty() {
        diags.push(Diagnostic::error(
            RuleId::BackjoinKey,
            "no view occurrence matches the backjoin key: key columns are not \
             view-equal to the substitute columns they join on",
        ));
        return diags;
    }
    let combos: Vec<Vec<u32>> = if sub.backjoins.is_empty() {
        vec![Vec::new()]
    } else {
        resolutions
    };

    let mut best: Option<Vec<Diagnostic>> = None;
    for combo in combos.iter().take(MAX_MAPPINGS) {
        let scalars: Vec<ScalarExpr> = view
            .scalar_outputs()
            .iter()
            .map(|ne| ne.expr.map_columns(&mut |c| mapf(c)))
            .collect();
        let aggs: Vec<AggFunc> = view
            .aggregate_outputs()
            .iter()
            .map(|na| match &na.func {
                AggFunc::CountStar => AggFunc::CountStar,
                AggFunc::Sum(e) => AggFunc::Sum(e.map_columns(&mut |c| mapf(c))),
                AggFunc::SumZero(e) => AggFunc::SumZero(e.map_columns(&mut |c| mapf(c))),
            })
            .collect();
        let exp = Expander {
            scalars,
            aggs,
            arity,
            bases: bases.to_vec(),
            bj_occ: combo.clone(),
        };
        let mut d = diags.clone();
        check_predicates_and_outputs(
            query,
            view,
            sub,
            &exp,
            &v_conjs_q,
            &q_checks,
            &x_checks,
            &vec_q_own,
            &qec_full,
            &deleted_pairs,
            &mut d,
        );
        let errs = d.iter().filter(|x| x.severity == Severity::Error).count();
        if errs == 0 {
            return d;
        }
        let better = match &best {
            None => true,
            Some(b) => errs < b.iter().filter(|x| x.severity == Severity::Error).count(),
        };
        if better {
            best = Some(d);
        }
    }
    best.unwrap_or(diags)
}

/// All ways of binding each backjoin to a view occurrence whose key
/// columns are view-equal to the joined substitute columns.
#[allow(clippy::too_many_arguments)]
fn resolve_backjoins(
    view: &SpjgExpr,
    sub: &Substitute,
    arity: usize,
    bases: &[usize],
    vec_q_ext: &EquivClasses,
    table_of: &[TableId],
    qocc_of_vocc: &[u32],
) -> Vec<Vec<u32>> {
    let mut out: Vec<Vec<u32>> = Vec::new();
    let mapf = |c: ColRef| ColRef::new(qocc_of_vocc[c.occ.0 as usize], c.col.0);
    let scalars: Vec<ScalarExpr> = view
        .scalar_outputs()
        .iter()
        .map(|ne| ne.expr.map_columns(&mut |c| mapf(c)))
        .collect();

    fn rec(
        i: usize,
        sub: &Substitute,
        scalars: &[ScalarExpr],
        arity: usize,
        bases: &[usize],
        vec_q_ext: &EquivClasses,
        table_of: &[TableId],
        resolved: &mut Vec<u32>,
        out: &mut Vec<Vec<u32>>,
    ) {
        if out.len() >= MAX_MAPPINGS {
            return;
        }
        if i == sub.backjoins.len() {
            out.push(resolved.clone());
            return;
        }
        let bj = &sub.backjoins[i];
        // Expand a key position to a base column, given resolutions so far.
        fn expand(
            p: usize,
            i: usize,
            arity: usize,
            scalars: &[ScalarExpr],
            bases: &[usize],
            resolved: &[u32],
        ) -> Option<ColRef> {
            if p < arity {
                scalars.get(p).and_then(|e| e.as_column())
            } else {
                let mut k = bases.len() - 1;
                while bases[k] > p {
                    k -= 1;
                }
                if k >= i {
                    return None;
                }
                Some(ColRef::new(resolved[k], (p - bases[k]) as u32))
            }
        }
        for (o, t) in table_of.iter().enumerate() {
            if *t != bj.table {
                continue;
            }
            let ok = bj.key.iter().all(|(pos, col)| {
                match expand(*pos, i, arity, scalars, bases, resolved) {
                    Some(c) => vec_q_ext.same(c, ColRef::new(o as u32, col.0)),
                    None => false,
                }
            });
            if ok {
                resolved.push(o as u32);
                rec(
                    i + 1,
                    sub,
                    scalars,
                    arity,
                    bases,
                    vec_q_ext,
                    table_of,
                    resolved,
                    out,
                );
                resolved.pop();
            }
        }
    }

    let mut resolved = Vec::new();
    rec(
        0,
        sub,
        &scalars,
        arity,
        bases,
        vec_q_ext,
        table_of,
        &mut resolved,
        &mut out,
    );
    out
}

/// The predicate- and output-level rules, once expansion is fixed.
#[allow(clippy::too_many_arguments)]
fn check_predicates_and_outputs(
    query: &SpjgExpr,
    view: &SpjgExpr,
    sub: &Substitute,
    exp: &Expander,
    v_conjs_q: &[Conjunct],
    q_checks: &[Conjunct],
    x_checks: &[Conjunct],
    vec_q_own: &EquivClasses,
    qec_full: &EquivClasses,
    deleted_pairs: &[(ColRef, ColRef)],
    diags: &mut Vec<Diagnostic>,
) {
    let same = |a: ColRef, b: ColRef| a == b || qec_full.same(a, b);

    // ---- Parse the compensating predicates ----
    let mut comp_eqs: Vec<(ColRef, ColRef)> = Vec::new();
    let mut comp_ranges: HashMap<ColRef, Option<Interval>> = HashMap::new();
    let mut comp_residuals: Vec<Template> = Vec::new();
    for p in &sub.predicates {
        for conj in classify(p.clone()) {
            match &conj {
                Conjunct::ColumnEq(a, b) => {
                    let ea = exp.expand_pos(a.col.0 as usize);
                    let eb = exp.expand_pos(b.col.0 as usize);
                    match (ea, eb) {
                        (Exp::Col(ca), Exp::Col(cb)) => comp_eqs.push((ca, cb)),
                        (Exp::Agg(_), _) | (_, Exp::Agg(_)) => {
                            diags.push(Diagnostic::error(
                                RuleId::SubstituteColumn,
                                "compensating predicate references an aggregate output; \
                                 only (simple) scalar view outputs are addressable (§3.1.3)",
                            ));
                        }
                        _ => match exp.expand_bool(&conj.to_bool()) {
                            Ok(eb) => comp_residuals.push(Template::of_bool(&eb)),
                            Err(_) => diags.push(Diagnostic::error(
                                RuleId::SubstituteColumn,
                                "compensating predicate references an aggregate output",
                            )),
                        },
                    }
                }
                Conjunct::Range { col, op, value } => match exp.expand_pos(col.col.0 as usize) {
                    Exp::Col(c) => {
                        let mut iv = Interval::unconstrained();
                        if iv.apply(*op, value) {
                            let root = qec_full.find(c);
                            let slot = comp_ranges
                                .entry(root)
                                .or_insert_with(|| Some(Interval::unconstrained()));
                            *slot = match slot.take() {
                                Some(cur) => cur.intersect(&iv),
                                None => None,
                            };
                        } else if let Ok(eb) = exp.expand_bool(&conj.to_bool()) {
                            comp_residuals.push(Template::of_bool(&eb));
                        }
                    }
                    Exp::Expr(_) => {
                        if let Ok(eb) = exp.expand_bool(&conj.to_bool()) {
                            comp_residuals.push(Template::of_bool(&eb));
                        }
                    }
                    Exp::Agg(_) => diags.push(Diagnostic::error(
                        RuleId::SubstituteColumn,
                        "compensating range predicate applies to an aggregate output",
                    )),
                },
                Conjunct::Residual(b) => match exp.expand_bool(b) {
                    Ok(eb) => comp_residuals.push(Template::of_bool(&eb)),
                    Err(_) => diags.push(Diagnostic::error(
                        RuleId::SubstituteColumn,
                        "compensating residual predicate references an aggregate output",
                    )),
                },
            }
        }
    }

    // ---- Profiles (folded by the query's classes) ----
    let q_gen = Profile::build(query.conjuncts.iter(), qec_full);
    let chk = Profile::build(q_checks.iter().chain(x_checks.iter()), qec_full);
    let v_prof = Profile::build(v_conjs_q.iter(), qec_full);

    // ---- MV005: equijoin subsumption ----
    for class in vec_q_own.nontrivial_classes() {
        let root = qec_full.find(class[0]);
        if let Some(c) = class.iter().find(|c| qec_full.find(**c) != root) {
            diags.push(Diagnostic::error(
                RuleId::EquijoinSubsumption,
                format!(
                    "view enforces column equality {} = {} that the query does not \
                     imply; the view is missing query rows (§3.1.2)",
                    class[0], c
                ),
            ));
        }
    }

    // ---- MV006: equijoin compensation, both directions ----
    let mut ec_subst = EquivClasses::new();
    for conj in v_conjs_q
        .iter()
        .chain(q_checks.iter())
        .chain(x_checks.iter())
    {
        if let Conjunct::ColumnEq(a, b) = conj {
            ec_subst.union(*a, *b);
        }
    }
    for (a, b) in deleted_pairs {
        ec_subst.union(*a, *b);
    }
    for (a, b) in &comp_eqs {
        ec_subst.union(*a, *b);
    }
    for (a, b) in &q_gen.equalities {
        if !ec_subst.same(*a, *b) {
            diags.push(Diagnostic::error(
                RuleId::EquijoinCompensation,
                format!(
                    "query equality {a} = {b} is enforced neither by the view nor by a \
                     compensating predicate (§3.1.3)"
                ),
            ));
        }
    }
    for (a, b) in &comp_eqs {
        if !same(*a, *b) {
            diags.push(Diagnostic::error(
                RuleId::EquijoinCompensation,
                format!(
                    "compensating equality {a} = {b} is stronger than anything the \
                     query implies; it would drop query rows"
                ),
            ));
        }
    }

    // ---- MV007/MV008: range subsumption and compensation ----
    let mut roots: BTreeSet<ColRef> = BTreeSet::new();
    roots.extend(q_gen.ranges.keys());
    roots.extend(chk.ranges.keys());
    roots.extend(v_prof.ranges.keys());
    roots.extend(comp_ranges.keys());
    for root in roots {
        let (Some(qg), Some(ch), Some(vv)) = (
            q_gen.range_at(root),
            chk.range_at(root),
            v_prof.range_at(root),
        ) else {
            diags.push(Diagnostic::warning(
                RuleId::EcContradiction,
                format!("incomparable values meet on the class of {root}; range rules skipped"),
            ));
            continue;
        };
        let cp = match comp_ranges.get(&root) {
            None => Interval::unconstrained(),
            Some(Some(iv)) => iv.clone(),
            Some(None) => {
                diags.push(Diagnostic::warning(
                    RuleId::EcContradiction,
                    format!("incomparable compensating bounds on the class of {root}"),
                ));
                continue;
            }
        };
        let Some(q_eff) = qg.clone().intersect(&ch) else {
            continue;
        };
        if q_eff.is_empty() {
            continue; // the query selects nothing on this class
        }
        let Some(v_eff) = vv.clone().intersect(&ch) else {
            continue;
        };
        match v_eff.contains(&q_eff) {
            Some(true) => {}
            Some(false) => {
                diags.push(Diagnostic::error(
                    RuleId::RangeSubsumption,
                    format!(
                        "view range {v_eff:?} on the class of {root} does not contain \
                         the query range {q_eff:?} (§3.1.2)"
                    ),
                ));
                continue;
            }
            None => continue,
        }
        let Some(subst) = v_eff.clone().intersect(&cp) else {
            continue;
        };
        let equal = (subst.is_empty() && q_eff.is_empty())
            || (subst.contains(&q_eff) == Some(true) && q_eff.contains(&subst) == Some(true));
        if !equal {
            let direction = if subst.contains(&q_eff) == Some(true) {
                "a compensating range conjunct is missing: the substitute keeps rows the \
                 query filters out"
            } else {
                "the compensating range is over-strong or contradictory: the substitute \
                 drops query rows"
            };
            diags.push(Diagnostic::error(
                RuleId::RangeCompensation,
                format!(
                    "on the class of {root}: substitute range {subst:?} != query range \
                     {q_eff:?}; {direction} (§3.1.3)"
                ),
            ));
        }
    }

    // ---- MV009: residual subsumption ----
    for (vt, vb) in &v_prof.residuals {
        let matched = q_gen
            .residuals
            .iter()
            .chain(chk.residuals.iter())
            .any(|(qt, _)| vt.matches(qt, &same));
        if !matched {
            diags.push(Diagnostic::error(
                RuleId::ResidualSubsumption,
                format!(
                    "view residual predicate `{vb:?}` matches no query conjunct; the \
                     view is missing query rows (§3.1.2)"
                ),
            ));
        }
    }

    // ---- MV010: residual compensation, both directions ----
    for (qt, qb) in &q_gen.residuals {
        let by_view = v_prof.residuals.iter().any(|(vt, _)| vt.matches(qt, &same));
        let by_comp = comp_residuals.iter().any(|ct| ct.matches(qt, &same));
        if !(by_view || by_comp) {
            diags.push(Diagnostic::error(
                RuleId::ResidualCompensation,
                format!(
                    "query residual predicate `{qb:?}` is enforced neither by the view \
                     nor by a compensating predicate (§3.1.3)"
                ),
            ));
        }
    }
    for ct in &comp_residuals {
        let justified = q_gen
            .residuals
            .iter()
            .chain(chk.residuals.iter())
            .any(|(qt, _)| ct.matches(qt, &same));
        if !justified {
            diags.push(Diagnostic::error(
                RuleId::ResidualCompensation,
                format!(
                    "compensating predicate `{}` is not implied by the query; it would \
                     drop query rows",
                    ct.text
                ),
            ));
        }
    }

    // ---- MV011/MV015: output mapping and aggregate rollup ----
    check_outputs(query, view, sub, exp, qec_full, diags);
}

/// Output-list rules (§3.1.4, §3.3).
fn check_outputs(
    query: &SpjgExpr,
    view: &SpjgExpr,
    sub: &Substitute,
    exp: &Expander,
    qec_full: &EquivClasses,
    diags: &mut Vec<Diagnostic>,
) {
    let same = |a: ColRef, b: ColRef| a == b || qec_full.same(a, b);
    let scalar_match = |e: &ScalarExpr, q: &ScalarExpr| {
        Template::of_scalar(e).matches(&Template::of_scalar(q), &same)
    };

    if !query.is_aggregate() {
        if view.is_aggregate() {
            diags.push(Diagnostic::error(
                RuleId::AggRollup,
                "an SPJ query cannot be answered from an aggregate view: grouping \
                 collapses duplicate rows (§3.3)",
            ));
            return;
        }
        let OutputList::Spj(items) = &sub.output else {
            diags.push(Diagnostic::error(
                RuleId::OutputMapping,
                "SPJ query answered with an aggregated substitute output",
            ));
            return;
        };
        let q_out = query.scalar_outputs();
        if items.len() != q_out.len() {
            diags.push(Diagnostic::error(
                RuleId::OutputMapping,
                format!(
                    "substitute outputs {} columns, the query outputs {}",
                    items.len(),
                    q_out.len()
                ),
            ));
            return;
        }
        for (it, q) in items.iter().zip(q_out) {
            match exp.expand_scalar(&it.expr) {
                Ok(e) => {
                    if !scalar_match(&e, &q.expr) {
                        diags.push(Diagnostic::error(
                            RuleId::OutputMapping,
                            format!(
                                "substitute output `{}` is not equivalent to the query \
                                 output `{}` (§3.1.4)",
                                Template::of_scalar(&e),
                                q.name
                            ),
                        ));
                    }
                }
                Err(_) => diags.push(Diagnostic::error(
                    RuleId::SubstituteColumn,
                    format!("output `{}` references an aggregate view output", q.name),
                )),
            }
        }
        return;
    }

    // Aggregate query.
    let (q_gb, q_aggs) = match &query.output {
        OutputList::Aggregate {
            group_by,
            aggregates,
        } => (group_by, aggregates),
        OutputList::Spj(_) => unreachable!("is_aggregate"),
    };

    if !view.is_aggregate() {
        // Aggregation is pushed on top of the SPJ substitute.
        let OutputList::Aggregate {
            group_by: g,
            aggregates: a,
        } = &sub.output
        else {
            diags.push(Diagnostic::error(
                RuleId::OutputMapping,
                "aggregate query over an SPJ view requires an aggregating substitute",
            ));
            return;
        };
        check_scalar_items(
            g.iter().map(|it| &it.expr),
            q_gb.iter().map(|it| (&it.expr, it.name.as_str())),
            exp,
            &scalar_match,
            diags,
        );
        if a.len() != q_aggs.len() {
            diags.push(Diagnostic::error(
                RuleId::OutputMapping,
                "substitute aggregate list differs in length from the query's",
            ));
            return;
        }
        for (sa, qa) in a.iter().zip(q_aggs) {
            let ok = match (&sa.func, &qa.func) {
                (AggFunc::CountStar, AggFunc::CountStar) => true,
                (AggFunc::Sum(e), AggFunc::Sum(qe))
                | (AggFunc::SumZero(e), AggFunc::SumZero(qe)) => match exp.expand_scalar(e) {
                    Ok(ee) => scalar_match(&ee, qe),
                    Err(_) => false,
                },
                _ => false,
            };
            if !ok {
                diags.push(Diagnostic::error(
                    RuleId::OutputMapping,
                    format!(
                        "substitute aggregate for `{}` does not recompute the query \
                         aggregate (§3.1.4)",
                        qa.name
                    ),
                ));
            }
        }
        return;
    }

    // Aggregate query over an aggregate view (§3.3).
    let scalar_len = exp.scalars.len();
    match &sub.output {
        OutputList::Spj(items) => {
            // No regrouping: view grouping must coincide with the query's.
            if items.len() != q_gb.len() + q_aggs.len() {
                diags.push(Diagnostic::error(
                    RuleId::OutputMapping,
                    "substitute output arity differs from the query's",
                ));
                return;
            }
            let mut covered: BTreeSet<usize> = BTreeSet::new();
            for (it, q) in items.iter().take(q_gb.len()).zip(q_gb) {
                if let ScalarExpr::Column(c) = &it.expr {
                    let p = c.col.0 as usize;
                    if p < scalar_len {
                        covered.insert(p);
                    }
                }
                match exp.expand_scalar(&it.expr) {
                    Ok(e) => {
                        if !scalar_match(&e, &q.expr) {
                            diags.push(Diagnostic::error(
                                RuleId::OutputMapping,
                                format!(
                                    "substitute group-by output for `{}` is not \
                                     equivalent to the query's (§3.1.4)",
                                    q.name
                                ),
                            ));
                        }
                    }
                    Err(_) => diags.push(Diagnostic::error(
                        RuleId::AggRollup,
                        format!(
                            "group-by output `{}` drawn from an aggregate view output (§3.3)",
                            q.name
                        ),
                    )),
                }
            }
            // Every view grouping column must be pinned by the query's
            // grouping, else view groups are finer and rows multiply.
            for p in 0..scalar_len {
                if covered.contains(&p) {
                    continue;
                }
                let fine = match &exp.scalars[p] {
                    ScalarExpr::Literal(_) => true,
                    ScalarExpr::Column(c) => covered.iter().any(
                        |q| matches!(&exp.scalars[*q], ScalarExpr::Column(c2) if same(*c, *c2)),
                    ),
                    _ => false,
                };
                if !fine {
                    diags.push(Diagnostic::error(
                        RuleId::AggRollup,
                        format!(
                            "view grouping column {p} is not part of the query's \
                             grouping: the view partitions finer than the query, so the \
                             ungrouped substitute returns multiple rows per group (§3.3)"
                        ),
                    ));
                }
            }
            for (it, qa) in items.iter().skip(q_gb.len()).zip(q_aggs) {
                let target = match &it.expr {
                    ScalarExpr::Column(c) => match exp.expand_pos(c.col.0 as usize) {
                        Exp::Agg(k) => Some(k),
                        _ => None,
                    },
                    _ => None,
                };
                let ok = match target {
                    Some(k) => agg_rollup_compatible(&qa.func, &exp.aggs[k], &scalar_match),
                    None => false,
                };
                if !ok {
                    diags.push(Diagnostic::error(
                        RuleId::AggRollup,
                        format!(
                            "query aggregate `{}` does not map to a matching view \
                             aggregate output (§3.3)",
                            qa.name
                        ),
                    ));
                }
            }
        }
        OutputList::Aggregate {
            group_by: g,
            aggregates: a,
        } => {
            // Regrouping: group-by compensation must be a coarsening — it
            // may only reference the view's grouping outputs.
            if g.len() != q_gb.len() || a.len() != q_aggs.len() {
                diags.push(Diagnostic::error(
                    RuleId::OutputMapping,
                    "substitute regrouping output arity differs from the query's",
                ));
                return;
            }
            for (it, q) in g.iter().zip(q_gb) {
                match exp.expand_scalar(&it.expr) {
                    Ok(e) => {
                        if !scalar_match(&e, &q.expr) {
                            diags.push(Diagnostic::error(
                                RuleId::OutputMapping,
                                format!(
                                    "regrouping output for `{}` is not equivalent to \
                                     the query's group-by expression",
                                    q.name
                                ),
                            ));
                        }
                    }
                    Err(_) => diags.push(Diagnostic::error(
                        RuleId::AggRollup,
                        format!(
                            "regrouping for `{}` references an aggregate view output — \
                             grouping compensation must be a coarsening of the view's \
                             grouping (§3.3)",
                            q.name
                        ),
                    )),
                }
            }
            for (sa, qa) in a.iter().zip(q_aggs) {
                let ok = match (&qa.func, &sa.func) {
                    (AggFunc::CountStar, AggFunc::SumZero(arg)) => {
                        matches!(agg_target(exp, arg), Some(AggFunc::CountStar))
                    }
                    (AggFunc::CountStar, AggFunc::CountStar) => {
                        diags.push(Diagnostic::error(
                            RuleId::AggRollup,
                            format!(
                                "`{}`: COUNT(*) over regrouped view rows counts view \
                                 groups, not base rows; it must roll up as \
                                 SUM(view COUNT(*)) (§3.3)",
                                qa.name
                            ),
                        ));
                        continue;
                    }
                    (AggFunc::Sum(qe), AggFunc::Sum(arg))
                    | (AggFunc::SumZero(qe), AggFunc::SumZero(arg)) => match agg_target(exp, arg) {
                        Some(AggFunc::Sum(ve)) | Some(AggFunc::SumZero(ve)) => scalar_match(ve, qe),
                        _ => false,
                    },
                    _ => false,
                };
                if !ok {
                    diags.push(Diagnostic::error(
                        RuleId::AggRollup,
                        format!(
                            "query aggregate `{}` does not roll up from a matching view \
                             aggregate (§3.3)",
                            qa.name
                        ),
                    ));
                }
            }
        }
    }
}

/// The view aggregate a rollup argument refers to, if it is a direct
/// reference to an aggregate output position.
fn agg_target<'e>(exp: &'e Expander, arg: &ScalarExpr) -> Option<&'e AggFunc> {
    match arg {
        ScalarExpr::Column(c) if c.occ.0 == 0 => match exp.expand_pos(c.col.0 as usize) {
            Exp::Agg(k) => Some(&exp.aggs[k]),
            _ => None,
        },
        _ => None,
    }
}

/// Does view aggregate `va` answer query aggregate `qa` without
/// regrouping (one view group per query group)?
fn agg_rollup_compatible(
    qa: &AggFunc,
    va: &AggFunc,
    scalar_match: &impl Fn(&ScalarExpr, &ScalarExpr) -> bool,
) -> bool {
    match (qa, va) {
        (AggFunc::CountStar, AggFunc::CountStar) => true,
        (AggFunc::Sum(qe), AggFunc::Sum(ve))
        | (AggFunc::Sum(qe), AggFunc::SumZero(ve))
        | (AggFunc::SumZero(qe), AggFunc::Sum(ve))
        | (AggFunc::SumZero(qe), AggFunc::SumZero(ve)) => scalar_match(ve, qe),
        _ => false,
    }
}

/// Compare substitute scalar items against query items positionally.
fn check_scalar_items<'a, 'b>(
    items: impl ExactSizeIterator<Item = &'a ScalarExpr>,
    q_items: impl ExactSizeIterator<Item = (&'b ScalarExpr, &'b str)>,
    exp: &Expander,
    scalar_match: &impl Fn(&ScalarExpr, &ScalarExpr) -> bool,
    diags: &mut Vec<Diagnostic>,
) {
    if items.len() != q_items.len() {
        diags.push(Diagnostic::error(
            RuleId::OutputMapping,
            "substitute group-by list differs in length from the query's",
        ));
        return;
    }
    for (it, (qe, name)) in items.zip(q_items) {
        match exp.expand_scalar(it) {
            Ok(e) => {
                if !scalar_match(&e, qe) {
                    diags.push(Diagnostic::error(
                        RuleId::OutputMapping,
                        format!(
                            "substitute output for `{name}` is not equivalent to the \
                             query's expression (§3.1.4)"
                        ),
                    ));
                }
            }
            Err(_) => diags.push(Diagnostic::error(
                RuleId::SubstituteColumn,
                format!("output for `{name}` references an aggregate view output"),
            )),
        }
    }
}
