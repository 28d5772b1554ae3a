//! Compiled plan programs for the prove hot path.
//!
//! The enumerative prover evaluates the same `(query, view, substitute)`
//! triple over hundreds of thousands of tiny databases. Walking the
//! expression trees for every row of every database dominates that loop:
//! each `eval` call allocates closures, clones `Value`s for the accessor,
//! and rebuilds hash maps per database. This module flattens a plan into a
//! [`PlanProgram`] once — a postfix instruction stream per predicate and
//! output expression plus a precomputed join schedule — and evaluates it
//! over flat, reusable scratch buffers ([`ExecScratch`]).
//!
//! The execution representation never materializes joined rows: a joined
//! "row" is a tuple of `u32` row indices, one per table occurrence, and
//! every column reference resolves lazily through a [`Fetch`] back to the
//! database's own storage. Values are cloned only where the output must
//! own them — projected cells, and a group's key values when its row is
//! built (the group table keeps a bare-column key as the group's first
//! index tuple) — so the per-database cost is a few tight loops over
//! integer tuples with no allocation on the common path (the per-call
//! table of scans, one slice per table occurrence, sits on the stack up to
//! `INLINE_OCCS` occurrences and on the heap past that).
//! [`SubstitutePipeline`] extends the same idea across the view boundary:
//! when the view's output is a bare column projection, the substitute runs
//! directly over the view's join tuples and the view rows are never
//! materialized at all.
//!
//! The tree-walking interpreter in [`crate::spjg`] / [`crate::substitute`]
//! stays as the differential oracle: the compiled path must produce exactly
//! the same row bags, which `exec/tests/program_differential.rs` checks over
//! random plans × enumerated databases.

use crate::agg::SumAcc;
use crate::chains::{hash_key, HashChains};
use mv_catalog::{Catalog, TableId, Value};
use mv_data::{Database, Row};
use mv_expr::like::like_match;
use mv_expr::scalar::eval_binop;
use mv_expr::{BinOp, BoolExpr, CmpOp, ColRef, Conjunct, ScalarExpr};
use mv_plan::{AggFunc, OutputList, SpjgExpr, Substitute};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;

/// Bits of an [`Op::Col`] operand holding the column index; the rest holds
/// the join step of the column's table occurrence (plan programs) —
/// substitute programs use the whole operand as a flat position instead.
const COL_BITS: usize = 16;
const COL_MASK: usize = (1 << COL_BITS) - 1;

/// Table occurrences per plan (and backjoins per substitute) whose
/// per-call tables fit on the stack. A wider plan's spill to the heap:
/// width costs an allocation per execution, it is not a limit.
const INLINE_OCCS: usize = 16;

/// A per-call table with one slot per table occurrence or backjoin.
#[derive(Default)]
struct Slots<T> {
    inline: [T; INLINE_OCCS],
    spill: Vec<T>,
}

impl<T: Copy + Default> Slots<T> {
    /// `n` slots to fill.
    fn take(&mut self, n: usize) -> &mut [T] {
        if n <= INLINE_OCCS {
            &mut self.inline[..n]
        } else {
            self.grow(n)
        }
    }

    /// Out of line: with the heap branch inlined the per-database loops
    /// measured ≈ 10 % slower on prover-sized databases.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, n: usize) -> &mut [T] {
        self.spill.resize(n, T::default());
        &mut self.spill
    }
}

/// Resolve a fetch position to a value for the current index tuple. The
/// executors address columns differently (packed `(occ, col)`, flat
/// substitute-space positions, or a physical operator's input positions —
/// [`crate::physical`]), so the resolution is a trait and the programs stay
/// agnostic.
pub(crate) trait Fetch {
    fn at<'a>(&'a self, tuple: &'a [u32], pos: usize) -> &'a Value;
}

/// Plan-program resolution: `pos` packs `(join step, column)`;
/// `tuple[step]` indexes the scan of the occurrence joined at that step.
struct PlanFetch<'a> {
    occ_rows: &'a [&'a [Row]],
}

impl Fetch for PlanFetch<'_> {
    #[inline]
    fn at<'a>(&'a self, tuple: &'a [u32], pos: usize) -> &'a Value {
        let occ = pos >> COL_BITS;
        &self.occ_rows[occ][tuple[occ] as usize][pos & COL_MASK]
    }
}

/// Substitute resolution over materialized view rows: positions below the
/// view arity index the view bag row `tuple[0]`; later positions fall into
/// backjoin segments, resolved against the backjoin table's own rows.
struct SubFetch<'a> {
    view: &'a RowBag,
    /// Flat position where each backjoin's column segment starts.
    bj_offs: &'a [usize],
    bj_rows: &'a [&'a [Row]],
}

impl Fetch for SubFetch<'_> {
    #[inline]
    fn at<'a>(&'a self, tuple: &'a [u32], pos: usize) -> &'a Value {
        if pos < self.view.arity {
            return &self.view.vals[tuple[0] as usize * self.view.arity + pos];
        }
        let seg = self
            .bj_offs
            .iter()
            .rposition(|&o| o <= pos)
            .expect("position past view arity with no backjoin segment");
        &self.bj_rows[seg][tuple[1 + seg] as usize][pos - self.bj_offs[seg]]
    }
}

/// Fused substitute resolution ([`SubstitutePipeline`]): view positions
/// compose through the view's column projection straight to base-table
/// storage; the view row is never materialized.
struct FusedFetch<'a> {
    /// Packed `(occ, col)` per view output position.
    view_cols: &'a [usize],
    /// Scans of the view plan's occurrences (`tuple[..n_view_occs]`).
    occ_rows: &'a [&'a [Row]],
    n_view_occs: usize,
    bj_offs: &'a [usize],
    bj_rows: &'a [&'a [Row]],
}

impl Fetch for FusedFetch<'_> {
    #[inline]
    fn at<'a>(&'a self, tuple: &'a [u32], pos: usize) -> &'a Value {
        if pos < self.view_cols.len() {
            let packed = self.view_cols[pos];
            let occ = packed >> COL_BITS;
            return &self.occ_rows[occ][tuple[occ] as usize][packed & COL_MASK];
        }
        let seg = self
            .bj_offs
            .iter()
            .rposition(|&o| o <= pos)
            .expect("position past view arity with no backjoin segment");
        &self.bj_rows[seg][tuple[self.n_view_occs + seg] as usize][pos - self.bj_offs[seg]]
    }
}

/// One postfix instruction. Value-producing ops work a value stack of
/// [`Slot`]s (fetch positions or literal-pool indices, so pushing a column
/// never clones); predicate ops work a tri-bool stack.
#[derive(Debug, Clone)]
enum Op {
    /// Push a fetch position onto the value stack.
    Col(usize),
    /// Push literal-pool entry onto the value stack.
    Lit(usize),
    /// Pop two values, push the arithmetic result.
    Bin(BinOp),
    /// Pop two values, push a tri-bool comparison result.
    Cmp(CmpOp),
    /// Pop one value, push `expr [NOT] LIKE pattern`.
    Like { pat: usize, negated: bool },
    /// Pop one value, push `expr IS [NOT] NULL` (two-valued).
    IsNull { negated: bool },
    /// Push a constant tri-bool.
    PushBool(bool),
    /// Pop one tri-bool, push its 3VL negation.
    Not,
    /// Pop `n` tri-bools, push their 3VL conjunction.
    And(usize),
    /// Pop `n` tri-bools, push their 3VL disjunction.
    Or(usize),
}

/// A value-stack entry. Column and literal pushes are indices — only
/// arithmetic results are owned, and those are always numeric or NULL, so
/// the stack never heap-allocates.
#[derive(Debug, Clone)]
enum Slot {
    Pos(usize),
    Lit(usize),
    Owned(Value),
}

fn slot<'a, F: Fetch>(s: &'a Slot, f: &'a F, tuple: &'a [u32], lits: &'a [Value]) -> &'a Value {
    match s {
        Slot::Pos(i) => f.at(tuple, *i),
        Slot::Lit(i) => &lits[*i],
        Slot::Owned(v) => v,
    }
}

/// Reusable evaluation stacks, cleared (not freed) per program run.
#[derive(Debug, Default)]
pub struct EvalStacks {
    vals: Vec<Slot>,
    bools: Vec<Option<bool>>,
}

/// A compiled expression: postfix ops plus literal and LIKE-pattern pools.
#[derive(Debug, Clone)]
pub(crate) struct Program {
    ops: Vec<Op>,
    lits: Vec<Value>,
    pats: Vec<String>,
    /// Peephole for the dominant predicate shape `column <op> literal`
    /// (`(fetch position, op, literal index)`): evaluated directly, no
    /// stack traffic.
    fast_cmp: Option<(usize, CmpOp, usize)>,
}

impl Program {
    fn new() -> Self {
        Program {
            ops: Vec::new(),
            lits: Vec::new(),
            pats: Vec::new(),
            fast_cmp: None,
        }
    }

    pub(crate) fn compile_scalar(e: &ScalarExpr, map: &impl Fn(ColRef) -> usize) -> Self {
        let mut p = Program::new();
        p.push_scalar(e, map);
        p
    }

    pub(crate) fn compile_bool(e: &BoolExpr, map: &impl Fn(ColRef) -> usize) -> Self {
        let mut p = Program::new();
        p.push_bool(e, map);
        if let [Op::Col(pos), Op::Lit(lit), Op::Cmp(c)] = p.ops.as_slice() {
            p.fast_cmp = Some((*pos, *c, *lit));
        }
        p
    }

    /// The fetch position when this program is a single bare column.
    pub(crate) fn single_col(&self) -> Option<usize> {
        match self.ops.as_slice() {
            [Op::Col(i)] => Some(*i),
            _ => None,
        }
    }

    fn push_scalar(&mut self, e: &ScalarExpr, map: &impl Fn(ColRef) -> usize) {
        match e {
            ScalarExpr::Column(c) => self.ops.push(Op::Col(map(*c))),
            ScalarExpr::Literal(v) => {
                self.lits.push(v.clone());
                self.ops.push(Op::Lit(self.lits.len() - 1));
            }
            ScalarExpr::Binary { op, left, right } => {
                self.push_scalar(left, map);
                self.push_scalar(right, map);
                self.ops.push(Op::Bin(*op));
            }
        }
    }

    fn push_bool(&mut self, e: &BoolExpr, map: &impl Fn(ColRef) -> usize) {
        match e {
            BoolExpr::Literal(b) => self.ops.push(Op::PushBool(*b)),
            BoolExpr::And(parts) => {
                for p in parts {
                    self.push_bool(p, map);
                }
                self.ops.push(Op::And(parts.len()));
            }
            BoolExpr::Or(parts) => {
                for p in parts {
                    self.push_bool(p, map);
                }
                self.ops.push(Op::Or(parts.len()));
            }
            BoolExpr::Not(p) => {
                self.push_bool(p, map);
                self.ops.push(Op::Not);
            }
            BoolExpr::Compare { op, left, right } => {
                self.push_scalar(left, map);
                self.push_scalar(right, map);
                self.ops.push(Op::Cmp(*op));
            }
            BoolExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                self.push_scalar(expr, map);
                self.pats.push(pattern.clone());
                self.ops.push(Op::Like {
                    pat: self.pats.len() - 1,
                    negated: *negated,
                });
            }
            BoolExpr::IsNull { expr, negated } => {
                self.push_scalar(expr, map);
                self.ops.push(Op::IsNull { negated: *negated });
            }
        }
    }

    fn run<F: Fetch>(&self, f: &F, tuple: &[u32], st: &mut EvalStacks) {
        st.vals.clear();
        st.bools.clear();
        for op in &self.ops {
            match op {
                Op::Col(i) => st.vals.push(Slot::Pos(*i)),
                Op::Lit(i) => st.vals.push(Slot::Lit(*i)),
                Op::Bin(b) => {
                    let r = st.vals.pop().expect("value stack underflow");
                    let l = st.vals.pop().expect("value stack underflow");
                    let v = eval_binop(
                        *b,
                        slot(&l, f, tuple, &self.lits),
                        slot(&r, f, tuple, &self.lits),
                    );
                    st.vals.push(Slot::Owned(v));
                }
                Op::Cmp(c) => {
                    let r = st.vals.pop().expect("value stack underflow");
                    let l = st.vals.pop().expect("value stack underflow");
                    let res = slot(&l, f, tuple, &self.lits)
                        .sql_cmp(slot(&r, f, tuple, &self.lits))
                        .map(|ord| c.evaluate(ord));
                    st.bools.push(res);
                }
                Op::Like { pat, negated } => {
                    let s = st.vals.pop().expect("value stack underflow");
                    let res = match slot(&s, f, tuple, &self.lits) {
                        Value::Null => None,
                        Value::Str(s) => Some(like_match(s, &self.pats[*pat]) != *negated),
                        // LIKE over a non-string is a type error; unknown.
                        _ => None,
                    };
                    st.bools.push(res);
                }
                Op::IsNull { negated } => {
                    let s = st.vals.pop().expect("value stack underflow");
                    st.bools
                        .push(Some(slot(&s, f, tuple, &self.lits).is_null() != *negated));
                }
                Op::PushBool(b) => st.bools.push(Some(*b)),
                Op::Not => {
                    let b = st.bools.pop().expect("bool stack underflow");
                    st.bools.push(b.map(|x| !x));
                }
                Op::And(n) => {
                    let mut saw_false = false;
                    let mut saw_unknown = false;
                    for _ in 0..*n {
                        match st.bools.pop().expect("bool stack underflow") {
                            Some(false) => saw_false = true,
                            None => saw_unknown = true,
                            Some(true) => {}
                        }
                    }
                    st.bools.push(if saw_false {
                        Some(false)
                    } else if saw_unknown {
                        None
                    } else {
                        Some(true)
                    });
                }
                Op::Or(n) => {
                    let mut saw_true = false;
                    let mut saw_unknown = false;
                    for _ in 0..*n {
                        match st.bools.pop().expect("bool stack underflow") {
                            Some(true) => saw_true = true,
                            None => saw_unknown = true,
                            Some(false) => {}
                        }
                    }
                    st.bools.push(if saw_true {
                        Some(true)
                    } else if saw_unknown {
                        None
                    } else {
                        Some(false)
                    });
                }
            }
        }
    }

    pub(crate) fn eval_bool<F: Fetch>(
        &self,
        f: &F,
        tuple: &[u32],
        st: &mut EvalStacks,
    ) -> Option<bool> {
        if let Some((pos, op, lit)) = self.fast_cmp {
            return f
                .at(tuple, pos)
                .sql_cmp(&self.lits[lit])
                .map(|ord| op.evaluate(ord));
        }
        self.run(f, tuple, st);
        st.bools.pop().expect("bool program left empty stack")
    }

    fn eval_scalar_owned<F: Fetch>(&self, f: &F, tuple: &[u32], st: &mut EvalStacks) -> Value {
        if let Some(pos) = self.single_col() {
            return f.at(tuple, pos).clone();
        }
        self.run(f, tuple, st);
        let s = st.vals.pop().expect("scalar program left empty stack");
        match s {
            Slot::Owned(v) => v,
            other => slot(&other, f, tuple, &self.lits).clone(),
        }
    }

    fn eval_scalar_into_sum<F: Fetch>(
        &self,
        f: &F,
        tuple: &[u32],
        st: &mut EvalStacks,
        acc: &mut SumAcc,
    ) {
        self.run(f, tuple, st);
        let s = st.vals.pop().expect("scalar program left empty stack");
        acc.add(slot(&s, f, tuple, &self.lits));
    }
}

/// One join step: append a table occurrence to the index-tuple prefix.
#[derive(Debug, Clone)]
struct JoinStep {
    table: TableId,
    /// Equijoin pairs `(packed prefix position, column of the new scan)`,
    /// consumed from `ColumnEq` conjuncts exactly as the interpreter does,
    /// ordered by scan column.
    keys: Vec<(usize, usize)>,
    /// Conjuncts that become fully bound once this occurrence is joined,
    /// compiled and applied in conjunct order.
    filters: Vec<Program>,
}

/// Aggregate kinds mirroring [`AggFunc`] without the argument tree.
#[derive(Debug, Clone, Copy)]
enum AggKind {
    CountStar,
    Sum,
    SumZero,
}

/// One compiled aggregate: the kind, its argument program, and — for the
/// dominant bare-column argument shape — the direct fetch position, which
/// skips the program stack entirely.
#[derive(Debug, Clone)]
pub(crate) struct AggProg {
    kind: AggKind,
    arg: Option<Program>,
    arg_col: Option<usize>,
}

/// Compiled output side: projection programs or group-by/aggregate programs.
#[derive(Debug, Clone)]
pub(crate) enum OutputProgram {
    Project(Vec<Program>),
    Aggregate {
        keys: Vec<Program>,
        /// Fast path: every group key is a bare column (its fetch
        /// position). Group lookups then compare in place and clone only
        /// on first insert.
        key_cols: Option<Vec<usize>>,
        aggs: Vec<AggProg>,
    },
}

impl OutputProgram {
    fn compile(output: &OutputList, map: &impl Fn(ColRef) -> usize) -> Self {
        match output {
            OutputList::Spj(items) => Self::project(items.iter().map(|ne| &ne.expr), map),
            OutputList::Aggregate {
                group_by,
                aggregates,
            } => Self::aggregate(
                group_by.iter().map(|ne| &ne.expr),
                aggregates.iter().map(|na| &na.func),
                map,
            ),
        }
    }

    /// A projection onto `exprs`.
    pub(crate) fn project<'e>(
        exprs: impl Iterator<Item = &'e ScalarExpr>,
        map: &impl Fn(ColRef) -> usize,
    ) -> Self {
        OutputProgram::Project(exprs.map(|e| Program::compile_scalar(e, map)).collect())
    }

    /// Grouping on `group_by` with one accumulator per aggregate.
    pub(crate) fn aggregate<'e>(
        group_by: impl Iterator<Item = &'e ScalarExpr>,
        aggregates: impl Iterator<Item = &'e AggFunc>,
        map: &impl Fn(ColRef) -> usize,
    ) -> Self {
        let keys: Vec<Program> = group_by.map(|e| Program::compile_scalar(e, map)).collect();
        let key_cols = keys.iter().map(Program::single_col).collect();
        OutputProgram::Aggregate {
            keys,
            key_cols,
            aggs: aggregates
                .map(|func| {
                    let kind = match func {
                        AggFunc::CountStar => AggKind::CountStar,
                        AggFunc::Sum(_) => AggKind::Sum,
                        AggFunc::SumZero(_) => AggKind::SumZero,
                    };
                    let arg = func.argument().map(|e| Program::compile_scalar(e, map));
                    let arg_col = arg.as_ref().and_then(Program::single_col);
                    AggProg { kind, arg, arg_col }
                })
                .collect(),
        }
    }

    pub(crate) fn arity(&self) -> usize {
        match self {
            OutputProgram::Project(items) => items.len(),
            OutputProgram::Aggregate { keys, aggs, .. } => keys.len() + aggs.len(),
        }
    }

    pub(crate) fn begin(&self, groups: &mut GroupTable) {
        if let OutputProgram::Aggregate { .. } = self {
            groups.clear();
        }
    }

    /// Feed one surviving tuple: push the projected row, or accumulate it
    /// into its group.
    pub(crate) fn feed<F: Fetch>(
        &self,
        f: &F,
        tuple: &[u32],
        st: &mut EvalStacks,
        key_buf: &mut Vec<Value>,
        groups: &mut GroupTable,
        out: &mut impl RowSink,
    ) {
        match self {
            OutputProgram::Project(items) => {
                out.push_row(
                    items
                        .iter()
                        .map(|item| item.eval_scalar_owned(f, tuple, st)),
                );
            }
            OutputProgram::Aggregate {
                keys,
                key_cols,
                aggs,
            } => {
                let g = match key_cols {
                    Some(cols) => groups.find_or_insert_tuple(f, tuple, cols, aggs.len()),
                    None => {
                        key_buf.clear();
                        for k in keys {
                            key_buf.push(k.eval_scalar_owned(f, tuple, st));
                        }
                        groups.find_or_insert_values(key_buf, aggs.len())
                    }
                };
                groups.counts[g] += 1;
                let sums = &mut groups.sums[g * aggs.len()..(g + 1) * aggs.len()];
                for (agg, sum) in aggs.iter().zip(sums) {
                    if let Some(pos) = agg.arg_col {
                        sum.add(f.at(tuple, pos));
                    } else if let Some(p) = &agg.arg {
                        p.eval_scalar_into_sum(f, tuple, st, sum);
                    }
                }
            }
        }
    }

    /// Flush accumulated groups into the output (no-op for projections,
    /// whose rows were emitted by [`OutputProgram::feed`]). `f` resolves
    /// the tuples fed, for the bare-column keys a group keeps as its first
    /// tuple.
    pub(crate) fn finish<F: Fetch>(&self, f: &F, groups: &mut GroupTable, out: &mut impl RowSink) {
        let OutputProgram::Aggregate {
            keys,
            key_cols,
            aggs,
        } = self
        else {
            return;
        };
        // SQL: a scalar aggregate over empty input yields one row.
        if groups.counts.is_empty() && keys.is_empty() {
            groups.open(aggs.len(), None, |_, _| {
                unreachable!("one group is never hashed")
            });
        }
        // Computed keys are moved, not cloned: the table is cleared before
        // its next use.
        let mut computed = groups.keys.drain(..);
        for (g, &count) in groups.counts.iter().enumerate() {
            let sums = &groups.sums[g * aggs.len()..(g + 1) * aggs.len()];
            let results = aggs.iter().zip(sums).map(|(agg, sum)| match agg.kind {
                AggKind::CountStar => Value::Int(count),
                AggKind::Sum => sum.finish(),
                AggKind::SumZero => sum.finish_zero(),
            });
            match key_cols {
                Some(cols) => {
                    // `GroupTable::first` would borrow all of `groups`,
                    // whose `keys` `computed` holds.
                    let first = &groups.reps[g * groups.stride..(g + 1) * groups.stride];
                    out.push_row(cols.iter().map(|&c| f.at(first, c).clone()).chain(results));
                }
                None => out.push_row(computed.by_ref().take(keys.len()).chain(results)),
            }
        }
    }
}

/// Where an [`OutputProgram`] writes its rows: a flat [`RowBag`] for the
/// prover's and maintenance's programs, owned rows for the physical
/// executor.
pub(crate) trait RowSink {
    fn push_row(&mut self, row: impl Iterator<Item = Value>);
}

impl RowSink for RowBag {
    fn push_row(&mut self, row: impl Iterator<Item = Value>) {
        self.vals.extend(row);
        self.count += 1;
    }
}

impl RowSink for Vec<Row> {
    fn push_row(&mut self, row: impl Iterator<Item = Value>) {
        self.push(row.collect());
    }
}

/// Group count up to which [`GroupTable`] finds a group by scanning; past
/// it the table hashes. The prover's databases hold a handful of rows, so
/// their groups never leave the scan; a served query's thousands must.
const LINEAR_GROUPS: usize = 16;

/// A reusable group table over flat storage (group `g` owns `counts[g]`,
/// `sums[g * n_aggs..]` and its key, so a new group allocates nothing once
/// the vectors have grown): a linear scan while the groups are few (it
/// beats hashing every key), a [`HashChains`] index once they are not.
///
/// A group's key is kept one of two ways. Bare-column keys keep the
/// group's first index tuple (`reps[g * stride..]`, copied, because the
/// programs reuse their tuple buffers) and compare candidates in place
/// through the [`Fetch`]; no value is cloned until
/// [`OutputProgram::finish`] builds the group's row. Computed keys keep
/// their values (`keys[g * n_keys..]`).
#[derive(Debug, Default)]
pub(crate) struct GroupTable {
    reps: Vec<u32>,
    /// Index-tuple width of `reps`.
    stride: usize,
    keys: Vec<Value>,
    counts: Vec<i64>,
    sums: Vec<SumAcc>,
    /// Covers exactly the groups whenever there are more than
    /// [`LINEAR_GROUPS`] of them, and is empty otherwise.
    index: HashChains,
    hasher: RandomState,
}

impl GroupTable {
    fn clear(&mut self) {
        self.reps.clear();
        self.stride = 0;
        self.keys.clear();
        self.counts.clear();
        self.sums.clear();
        self.index.clear();
    }

    /// The group of `tuple`'s values at the fetch positions `cols`,
    /// opened with `tuple` as its first tuple when absent.
    fn find_or_insert_tuple<F: Fetch>(
        &mut self,
        f: &F,
        tuple: &[u32],
        cols: &[usize],
        n_aggs: usize,
    ) -> usize {
        self.stride = tuple.len();
        let hash = self.hashed().then(|| {
            let key = cols.iter().map(|&c| f.at(tuple, c));
            hash_key(&self.hasher, key)
        });
        let is_group = |g| {
            let first = self.first(g);
            cols.iter().all(|&c| f.at(first, c) == f.at(tuple, c))
        };
        if let Some(g) = self.find(hash, is_group) {
            return g;
        }
        self.reps.extend_from_slice(tuple);
        self.open(n_aggs, hash, |t, g| {
            hash_key(&t.hasher, cols.iter().map(|&c| f.at(t.first(g), c)))
        })
    }

    /// Group `g`'s first tuple (bare-column keys).
    fn first(&self, g: usize) -> &[u32] {
        &self.reps[g * self.stride..(g + 1) * self.stride]
    }

    /// The group whose computed key is `key`, opened with `key`'s values
    /// (moved out, leaving `key` empty) when absent.
    fn find_or_insert_values(&mut self, key: &mut Vec<Value>, n_aggs: usize) -> usize {
        let n = key.len();
        let hash = self.hashed().then(|| hash_key(&self.hasher, key.iter()));
        if let Some(g) = self.find(hash, |g| self.keys[g * n..(g + 1) * n] == key[..]) {
            return g;
        }
        self.keys.append(key);
        self.open(n_aggs, hash, |t, g| {
            hash_key(&t.hasher, t.keys[g * n..(g + 1) * n].iter())
        })
    }

    /// Whether lookups go through the index (else they scan).
    fn hashed(&self) -> bool {
        self.counts.len() > LINEAR_GROUPS
    }

    /// The group `is_group` accepts: among those chained under `hash`
    /// when the table is hashed, else among all.
    fn find(&self, hash: Option<u64>, is_group: impl Fn(usize) -> bool) -> Option<usize> {
        match hash {
            Some(hash) => self
                .index
                .chain(hash)
                .map(|g| g as usize)
                .find(|&g| is_group(g)),
            None => (0..self.counts.len()).find(|&g| is_group(g)),
        }
    }

    /// Open the next group, whose key the caller has just stored, and
    /// return its number. `hash` is its key's hash when the table is
    /// hashed; the group that ends the scan indexes every group by
    /// `stored_hash`.
    fn open(
        &mut self,
        n_aggs: usize,
        hash: Option<u64>,
        stored_hash: impl Fn(&Self, usize) -> u64,
    ) -> usize {
        let g = self.counts.len();
        self.counts.push(0);
        self.sums
            .resize(self.sums.len() + n_aggs, SumAcc::default());
        match hash {
            Some(hash) => self.index.push(hash),
            None if g == LINEAR_GROUPS => {
                for old in 0..=g {
                    let hash = stored_hash(self, old);
                    self.index.push(hash);
                }
            }
            None => {}
        }
        g
    }
}

/// A flat, reusable bag of fixed-arity rows.
#[derive(Debug, Default)]
pub struct RowBag {
    vals: Vec<Value>,
    arity: usize,
    count: usize,
}

impl RowBag {
    /// An empty bag.
    pub fn new() -> Self {
        RowBag::default()
    }

    pub(crate) fn reset(&mut self, arity: usize) {
        self.vals.clear();
        self.arity = arity;
        self.count = 0;
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True iff the bag holds no rows.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The rows, borrowed from the flat storage.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> {
        (0..self.count).map(|i| &self.vals[i * self.arity..(i + 1) * self.arity])
    }

    /// Materialize as owned rows.
    pub fn to_rows(&self) -> Vec<Row> {
        self.rows().map(<[Value]>::to_vec).collect()
    }

    /// The rows, moved out of the flat storage.
    pub fn into_rows(self) -> Vec<Row> {
        let mut vals = self.vals.into_iter();
        (0..self.count)
            .map(|_| vals.by_ref().take(self.arity).collect())
            .collect()
    }
}

/// Multiset equality over two flat bags without allocating (the `matched`
/// bitmap is caller-provided scratch). Quadratic, but prove-time bags hold
/// at most a few dozen rows.
pub fn rowbag_eq(a: &RowBag, b: &RowBag, matched: &mut Vec<bool>) -> bool {
    if a.count != b.count {
        return false;
    }
    if a.count == 0 {
        return true;
    }
    if a.arity != b.arity {
        return false;
    }
    let w = a.arity;
    matched.clear();
    matched.resize(b.count, false);
    'outer: for i in 0..a.count {
        let ra = &a.vals[i * w..(i + 1) * w];
        for (j, m) in matched.iter_mut().enumerate() {
            if !*m && &b.vals[j * w..(j + 1) * w] == ra {
                *m = true;
                continue 'outer;
            }
        }
        return false;
    }
    true
}

/// Reusable per-worker scratch: index-tuple ping-pong buffers, evaluation
/// stacks, the group table, the join indexes of one run, and the
/// bag-equality bitmap. One of these per prove worker amortizes every
/// allocation across all enumerated databases.
#[derive(Debug, Default)]
pub struct ExecScratch {
    bufs: Buffers,
    /// Emptied at the start of every run that uses them, so a scratch
    /// reused over another database never reads an index of the last one.
    indexes: JoinIndexes,
    /// Scratch bitmap for [`rowbag_eq`].
    pub matched: Vec<bool>,
}

/// The buffers a program run works in.
#[derive(Debug, Default)]
struct Buffers {
    cur: Vec<u32>,
    nxt: Vec<u32>,
    st: EvalStacks,
    key_buf: Vec<Value>,
    groups: GroupTable,
}

impl ExecScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> Self {
        ExecScratch::default()
    }

    /// The buffers, and this scratch's join indexes emptied for a new run.
    fn for_run(&mut self) -> (&mut JoinIndexes, &mut Buffers) {
        self.indexes.clear();
        (&mut self.indexes, &mut self.bufs)
    }
}

/// What hashing one key (to link a row under it, or to probe with it)
/// costs, in the nested loop's key comparisons. A keyed join step probes
/// an index when both sides of that trade pay: its scan holds at least
/// this many rows (a probe then beats a pass over the scan), and at least
/// this many prefix tuples have looked the (table, key columns) up since
/// its table last changed (the passes they would have cost then pay for
/// building the index). The prover's scans of at most three rows never
/// probe.
///
/// Measured on a 2-core Xeon, release build, a two-table join on one
/// `Int` key: a comparison costs ≈ 6 ns and hashing and linking a row
/// ≈ 36 ns. 1,000 prefix tuples probing and scanning tie at an 8-row scan
/// (63 against 65 µs); over a 1,000-row scan, building and probing beats
/// the nested loop from 8 prefix tuples on (38 against 48 µs) and loses at
/// 4 (38 against 24 µs).
const HASH_COMPARES: usize = 8;

/// Hash indexes over table rows, one per (table, equijoin key columns) a
/// join step has read, which a [`PlanProgram`]'s join steps probe instead
/// of scanning the table. An index is valid only while its table is
/// unchanged: whoever owns a set must [`JoinIndexes::invalidate`] a table
/// whenever it writes it, and run over other data with a new set.
/// [`ExecScratch`] empties its own set at the start of every run; a caller
/// that owns its data can keep one set across runs and programs, and pass
/// it to [`PlanProgram::execute_indexed`] and
/// [`PlanProgram::execute_delta`].
#[derive(Debug, Default)]
pub struct JoinIndexes {
    by_table: HashMap<TableId, Vec<JoinIndex>>,
    /// Hashes every key of every index in the set.
    hasher: RandomState,
}

/// One table's rows under one key: chained by the key's hash, and linked
/// last row first, so a chain yields row ids in ascending order.
#[derive(Debug)]
struct JoinIndex {
    cols: Box<[usize]>,
    /// Prefix tuples that looked the key up before the index was built.
    lookups: usize,
    chains: Option<HashChains>,
}

impl JoinIndexes {
    /// An empty set.
    pub fn new() -> Self {
        JoinIndexes::default()
    }

    /// Forget every index.
    fn clear(&mut self) {
        self.by_table.clear();
    }

    /// Forget the indexes over `table`, which has just been written.
    pub fn invalidate(&mut self, table: TableId) {
        self.by_table.remove(&table);
    }

    /// The index `step` probes for `prefix_tuples` tuples over `scan`, the
    /// rows of its table, and the hasher of its keys; `None` when the step
    /// keeps the nested loop ([`HASH_COMPARES`]).
    fn for_step(
        &mut self,
        step: &JoinStep,
        scan: &[Row],
        prefix_tuples: usize,
    ) -> Option<(&HashChains, &RandomState)> {
        if step.keys.is_empty() || scan.len() < HASH_COMPARES {
            return None;
        }
        let cols = step.keys.iter().map(|&(_, c)| c);
        let entries = self.by_table.entry(step.table).or_default();
        let at = match entries
            .iter()
            .position(|e| e.cols.iter().copied().eq(cols.clone()))
        {
            Some(at) => at,
            None => {
                entries.push(JoinIndex {
                    cols: cols.collect(),
                    lookups: 0,
                    chains: None,
                });
                entries.len() - 1
            }
        };
        let index = &mut entries[at];
        if index.chains.is_none() {
            index.lookups += prefix_tuples;
            if index.lookups < HASH_COMPARES {
                return None;
            }
            index.chains = Some(index_rows(&self.hasher, scan, &index.cols));
        }
        index.chains.as_ref().map(|chains| (chains, &self.hasher))
    }
}

/// Chain `rows`' ids under the hash of their `cols`, leaving out the rows
/// whose key holds a NULL (SQL equality: it joins nothing).
fn index_rows(hasher: &RandomState, rows: &[Row], cols: &[usize]) -> HashChains {
    let mut chains = HashChains::with_ids(rows.len(), 2 * rows.len());
    for (id, row) in rows.iter().enumerate().rev() {
        let key = || cols.iter().map(|&c| &row[c]);
        if !key().any(Value::is_null) {
            chains.link(id as u32, hash_key(hasher, key()));
        }
    }
    chains
}

/// A join order for `expr` that starts at occurrence `first` and reaches
/// the others through their equijoin conjuncts: each next occurrence is
/// the lowest-numbered one with a `ColumnEq` to an occurrence already
/// placed, or — when the join graph is disconnected — the lowest-numbered
/// one left (a Cartesian step either way).
fn delta_order(expr: &SpjgExpr, first: usize) -> Vec<usize> {
    let n = expr.tables.len();
    let mut placed = vec![false; n];
    placed[first] = true;
    let mut order = vec![first];
    while order.len() < n {
        let joins_placed = |occ: usize| {
            expr.conjuncts.iter().any(|conj| match conj {
                Conjunct::ColumnEq(a, b) => {
                    let (a, b) = (a.occ.0 as usize, b.occ.0 as usize);
                    (a == occ && placed[b]) || (b == occ && placed[a])
                }
                _ => false,
            })
        };
        let mut unplaced = (0..n).filter(|&occ| !placed[occ]);
        let next = unplaced
            .clone()
            .find(|&occ| joins_placed(occ))
            .or_else(|| unplaced.next())
            .expect("an occurrence is left while order.len() < n");
        placed[next] = true;
        order.push(next);
    }
    order
}

/// Apply compiled filters in place over the tuple buffer, compacting
/// surviving tuples to the front. Returns the new tuple count.
pub(crate) fn filter_tuples<F: Fetch>(
    filters: &[Program],
    tuples: &mut Vec<u32>,
    stride: usize,
    mut n_rows: usize,
    f: &F,
    st: &mut EvalStacks,
) -> usize {
    for prog in filters {
        let mut w = 0;
        for r in 0..n_rows {
            let keep = prog.eval_bool(f, &tuples[r * stride..(r + 1) * stride], st) == Some(true);
            if keep {
                if w != r {
                    tuples.copy_within(r * stride..(r + 1) * stride, w * stride);
                }
                w += 1;
            }
        }
        tuples.truncate(w * stride);
        n_rows = w;
    }
    n_rows
}

/// Run the join schedule, leaving the surviving index tuples (stride =
/// number of steps) in `cur`. Returns the tuple count.
///
/// A keyed step finds each prefix tuple's matches by scanning its table or,
/// when [`HASH_COMPARES`] says it pays, by probing its index in `indexes`.
/// Either way the matches come out in ascending row order within each
/// prefix tuple, so the tuples, and every sum folded over them, are the
/// same whichever way a step ran.
fn join_steps(
    steps: &[JoinStep],
    f: &PlanFetch<'_>,
    indexes: &mut JoinIndexes,
    bufs: &mut Buffers,
) -> usize {
    let Buffers { cur, nxt, st, .. } = bufs;
    cur.clear();
    let mut n_rows = 1usize; // one empty prefix tuple
    for (occ, step) in steps.iter().enumerate() {
        let scan = f.occ_rows[occ];
        let index = indexes.for_step(step, scan, n_rows);
        nxt.clear();
        for r in 0..n_rows {
            let prefix = &cur[r * occ..r * occ + occ];
            let joins = |trow: &Row| {
                step.keys.iter().all(|&(pp, rc)| {
                    let (a, b) = (f.at(prefix, pp), &trow[rc]);
                    // SQL equality: NULL keys never join.
                    !a.is_null() && !b.is_null() && a == b
                })
            };
            match index {
                Some((chains, hasher)) => {
                    let key = step.keys.iter().map(|&(pp, _)| f.at(prefix, pp));
                    for ri in chains.chain(hash_key(hasher, key)) {
                        if joins(&scan[ri as usize]) {
                            nxt.extend_from_slice(prefix);
                            nxt.push(ri);
                        }
                    }
                }
                None => {
                    for (ri, trow) in scan.iter().enumerate() {
                        if joins(trow) {
                            nxt.extend_from_slice(prefix);
                            nxt.push(ri as u32);
                        }
                    }
                }
            }
        }
        std::mem::swap(cur, nxt);
        n_rows = cur.len() / (occ + 1);
        if !step.filters.is_empty() {
            n_rows = filter_tuples(&step.filters, cur, occ + 1, n_rows, f, st);
        }
    }
    n_rows
}

/// An [`SpjgExpr`] compiled once: the join schedule plus predicate and
/// output programs, all addressed by packed `(step, column)` fetch
/// positions. [`PlanProgram::compile`] schedules the occurrences in
/// `expr.tables` order, so step and occurrence coincide;
/// [`PlanProgram::compile_delta`] puts a chosen occurrence first.
#[derive(Debug, Clone)]
pub struct PlanProgram {
    steps: Vec<JoinStep>,
    output: OutputProgram,
    /// Packed per-output column positions when the output is a pure column
    /// projection — the hook [`SubstitutePipeline`] uses to fuse a view
    /// into the substitute without materializing its rows.
    out_cols: Option<Vec<usize>>,
}

impl PlanProgram {
    /// Compile an SPJG block. The conjunct schedule (which `ColumnEq`s
    /// become join keys at which step, and when each remaining conjunct is
    /// applied) replicates [`crate::spjg::execute_spj_part`] exactly.
    pub fn compile(catalog: &Catalog, expr: &SpjgExpr) -> Self {
        let order: Vec<usize> = (0..expr.tables.len()).collect();
        Self::compile_in_order(catalog, expr, &order)
    }

    /// Compile the *delta schedule* of occurrence `occ`: the same block,
    /// joined starting from `occ` and reaching the other occurrences
    /// through their equijoin keys, for [`PlanProgram::execute_delta`] to
    /// run with a handful of delta rows standing in for `occ`'s table. A
    /// one-row delta then costs one pass over each other table instead of
    /// the full join of everything scheduled before `occ`. The output bag
    /// equals [`PlanProgram::compile`]'s over a database whose `occ`
    /// table holds the delta rows (row order aside).
    pub fn compile_delta(catalog: &Catalog, expr: &SpjgExpr, occ: usize) -> Self {
        Self::compile_in_order(catalog, expr, &delta_order(expr, occ))
    }

    /// Compile with step `k` joining occurrence `order[k]`. A `ColumnEq`
    /// becomes a join key at the step that binds its later side; every
    /// other conjunct is applied at the first step that binds all its
    /// columns.
    fn compile_in_order(catalog: &Catalog, expr: &SpjgExpr, order: &[usize]) -> Self {
        let mut step_of = vec![0usize; order.len()];
        for (step, &occ) in order.iter().enumerate() {
            step_of[occ] = step;
        }
        let step_of = |c: ColRef| step_of[c.occ.0 as usize];
        let map = |c: ColRef| (step_of(c) << COL_BITS) | c.col.0 as usize;

        let mut applied = vec![false; expr.conjuncts.len()];
        let mut steps = Vec::with_capacity(order.len());
        for (step, &occ) in order.iter().enumerate() {
            let mut keys = Vec::new();
            for (i, conj) in expr.conjuncts.iter().enumerate() {
                if applied[i] {
                    continue;
                }
                if let Conjunct::ColumnEq(a, b) = conj {
                    if step_of(*a) < step && step_of(*b) == step {
                        keys.push((map(*a), b.col.0 as usize));
                        applied[i] = true;
                    } else if step_of(*b) < step && step_of(*a) == step {
                        keys.push((map(*b), a.col.0 as usize));
                        applied[i] = true;
                    }
                }
            }
            // By scan column, so steps that join a table on the same
            // columns share one index (`JoinIndexes`).
            keys.sort_by_key(|&(_, col)| col);
            let mut filters = Vec::new();
            for (i, conj) in expr.conjuncts.iter().enumerate() {
                if applied[i] || !conj.columns().iter().all(|c| step_of(*c) <= step) {
                    continue;
                }
                applied[i] = true;
                filters.push(Program::compile_bool(&conj.to_bool(), &map));
            }
            steps.push(JoinStep {
                table: expr.tables[occ],
                keys,
                filters,
            });
        }
        debug_assert!(applied.iter().all(|a| *a), "unapplied conjunct");
        let output = OutputProgram::compile(&expr.output, &map);
        let out_cols = match &output {
            OutputProgram::Project(items) => items.iter().map(Program::single_col).collect(),
            OutputProgram::Aggregate { .. } => None,
        };
        let _ = catalog; // schema is implied by the packed addressing
        PlanProgram {
            steps,
            output,
            out_cols,
        }
    }

    /// Fill the per-step scan table for `db`.
    fn scans<'t, 'a>(
        &self,
        db: &'a Database,
        table: &'t mut Slots<&'a [Row]>,
    ) -> &'t mut [&'a [Row]] {
        let occ_rows = table.take(self.steps.len());
        for (scan, s) in occ_rows.iter_mut().zip(&self.steps) {
            *scan = db.rows(s.table);
        }
        occ_rows
    }

    /// Evaluate against one database, writing the output bag into `out`.
    pub fn execute(&self, db: &Database, scratch: &mut ExecScratch, out: &mut RowBag) {
        let (indexes, bufs) = scratch.for_run();
        self.run(self.scans(db, &mut Slots::default()), indexes, bufs, out);
    }

    /// [`PlanProgram::execute`] with the caller's join indexes, which must
    /// be valid for `db`'s tables ([`JoinIndexes`]); the indexes the run
    /// builds stay in the set for the next run over the same tables.
    pub fn execute_indexed(
        &self,
        db: &Database,
        indexes: &mut JoinIndexes,
        scratch: &mut ExecScratch,
        out: &mut RowBag,
    ) {
        let scans = &mut Slots::default();
        self.run(self.scans(db, scans), indexes, &mut scratch.bufs, out);
    }

    /// Evaluate with `delta` standing in for the first step's table and
    /// every other table read from `db` — for a program compiled by
    /// [`PlanProgram::compile_delta`], the block over the delta rows of
    /// its chosen occurrence. The delta is borrowed, never copied. The
    /// join indexes are the caller's, as in [`PlanProgram::execute_indexed`]:
    /// the first step has no key, so no index is built over the delta.
    pub fn execute_delta(
        &self,
        db: &Database,
        delta: &[Row],
        indexes: &mut JoinIndexes,
        scratch: &mut ExecScratch,
        out: &mut RowBag,
    ) {
        debug_assert!(self.steps[0].keys.is_empty(), "a first step has no key");
        let mut table = Slots::default();
        let occ_rows = self.scans(db, &mut table);
        occ_rows[0] = delta;
        self.run(occ_rows, indexes, &mut scratch.bufs, out);
    }

    fn run(
        &self,
        occ_rows: &[&[Row]],
        indexes: &mut JoinIndexes,
        bufs: &mut Buffers,
        out: &mut RowBag,
    ) {
        let f = PlanFetch { occ_rows };
        let n_rows = join_steps(&self.steps, &f, indexes, bufs);
        let Buffers {
            cur,
            st,
            key_buf,
            groups,
            ..
        } = bufs;
        let stride = self.steps.len();
        out.reset(self.output.arity());
        self.output.begin(groups);
        for r in 0..n_rows {
            self.output.feed(
                &f,
                &cur[r * stride..(r + 1) * stride],
                st,
                key_buf,
                groups,
                out,
            );
        }
        self.output.finish(&f, groups, out);
    }
}

/// One compiled backjoin: extend each tuple with the base-table row its key
/// identifies.
#[derive(Debug, Clone)]
struct BackJoinStep {
    table: TableId,
    /// `(position in the substitute row so far, column of the base table)`.
    key: Vec<(usize, usize)>,
    width: usize,
}

/// A [`Substitute`] compiled once: backjoin schedule, the ANDed
/// compensating predicate, and the output programs, addressed by position
/// in the substitute column space (view outputs, then backjoin columns).
#[derive(Debug, Clone)]
pub struct SubstituteProgram {
    backjoins: Vec<BackJoinStep>,
    pred: Program,
    output: OutputProgram,
}

impl SubstituteProgram {
    /// Compile a substitute. Column references resolve by position in the
    /// substitute column space, so the view's arity is implicit.
    pub fn compile(catalog: &Catalog, sub: &Substitute) -> Self {
        let map = |c: ColRef| c.col.0 as usize;
        SubstituteProgram {
            backjoins: sub
                .backjoins
                .iter()
                .map(|bj| BackJoinStep {
                    table: bj.table,
                    key: bj.key.iter().map(|(p, c)| (*p, c.0 as usize)).collect(),
                    width: catalog.table(bj.table).columns.len(),
                })
                .collect(),
            pred: Program::compile_bool(&BoolExpr::and(sub.predicates.clone()), &map),
            output: OutputProgram::compile(&sub.output, &map),
        }
    }

    /// Fill the backjoin scan/offset tables; segment offsets start at the
    /// view arity (backjoin key positions may reach into earlier segments).
    fn backjoin_tables<'t, 'a>(
        &self,
        db: &'a Database,
        view_arity: usize,
        rows: &'t mut Slots<&'a [Row]>,
        offs: &'t mut Slots<usize>,
    ) -> (&'t [&'a [Row]], &'t [usize]) {
        let nb = self.backjoins.len();
        let (rows, offs) = (rows.take(nb), offs.take(nb));
        let mut off = view_arity;
        for (i, bj) in self.backjoins.iter().enumerate() {
            rows[i] = db.rows(bj.table);
            offs[i] = off;
            off += bj.width;
        }
        (rows, offs)
    }

    /// Run the backjoins, predicate, and output over tuples whose view
    /// segment is already seeded (one tuple at a time — backjoins never fan
    /// out, they extend a tuple or drop it).
    ///
    /// Backjoin semantics replicate [`crate::substitute::execute_substitute_with`]:
    /// the interpreter's key index is built by inserting base rows in order
    /// (so on duplicate keys the *last* row wins — hence the reverse scan)
    /// and keys compare with `Value::eq`, under which NULL equals NULL.
    #[allow(clippy::too_many_arguments)]
    fn feed_tuple<F: Fetch>(
        &self,
        f: &F,
        tup: &mut [u32],
        view_slots: usize,
        bj_rows: &[&[Row]],
        st: &mut EvalStacks,
        key_buf: &mut Vec<Value>,
        groups: &mut GroupTable,
        out: &mut RowBag,
    ) {
        for (i, bj) in self.backjoins.iter().enumerate() {
            let scan = bj_rows[i];
            let hit = scan
                .iter()
                .enumerate()
                .rev()
                .find(|(_, trow)| bj.key.iter().all(|&(p, c)| *f.at(tup, p) == trow[c]));
            match hit {
                Some((ri, _)) => tup[view_slots + i] = ri as u32,
                None => return,
            }
        }
        if self.pred.eval_bool(f, tup, st) != Some(true) {
            return;
        }
        self.output.feed(f, tup, st, key_buf, groups, out);
    }

    /// Evaluate against materialized view rows (and base tables for
    /// backjoins), writing the output bag into `out`.
    pub fn execute(
        &self,
        db: &Database,
        view_rows: &RowBag,
        scratch: &mut ExecScratch,
        out: &mut RowBag,
    ) {
        let Buffers {
            cur,
            st,
            key_buf,
            groups,
            ..
        } = &mut scratch.bufs;
        let (mut bj_rows, mut bj_offs) = (Slots::default(), Slots::default());
        let (bj_rows, bj_offs) =
            self.backjoin_tables(db, view_rows.arity, &mut bj_rows, &mut bj_offs);
        let nb = self.backjoins.len();
        let f = SubFetch {
            view: view_rows,
            bj_offs,
            bj_rows,
        };
        out.reset(self.output.arity());
        self.output.begin(groups);
        cur.clear();
        cur.resize(1 + nb, 0);
        for r in 0..view_rows.count {
            cur[0] = r as u32;
            self.feed_tuple(&f, cur, 1, bj_rows, st, key_buf, groups, out);
        }
        self.output.finish(&f, groups, out);
    }
}

/// A compiled `(view, substitute)` pair. When the view's output is a bare
/// column projection (`out_cols`), the substitute runs *fused* over the
/// view's join tuples — view rows are never materialized, and every column
/// reference resolves through the projection straight to base-table
/// storage. Otherwise (aggregate or computed-output views) the view is
/// materialized into the caller's bag and the substitute runs over it.
#[derive(Debug, Clone)]
pub struct SubstitutePipeline {
    view: PlanProgram,
    sub: SubstituteProgram,
}

impl SubstitutePipeline {
    /// Compile the pair.
    pub fn compile(catalog: &Catalog, view_expr: &SpjgExpr, sub: &Substitute) -> Self {
        SubstitutePipeline {
            view: PlanProgram::compile(catalog, view_expr),
            sub: SubstituteProgram::compile(catalog, sub),
        }
    }

    /// Evaluate the substitute against one database. `view_bag` is scratch
    /// for the unfused fallback (left untouched on the fused path).
    pub fn execute(
        &self,
        db: &Database,
        scratch: &mut ExecScratch,
        view_bag: &mut RowBag,
        out: &mut RowBag,
    ) {
        let Some(view_cols) = &self.view.out_cols else {
            self.view.execute(db, scratch, view_bag);
            self.sub.execute(db, view_bag, scratch, out);
            return;
        };
        let n_vocc = self.view.steps.len();
        let mut occ_rows = Slots::default();
        let occ_rows = &*self.view.scans(db, &mut occ_rows);
        let pf = PlanFetch { occ_rows };
        let (indexes, bufs) = scratch.for_run();
        let n_view = join_steps(&self.view.steps, &pf, indexes, bufs);
        let Buffers {
            cur,
            st,
            key_buf,
            groups,
            ..
        } = bufs;
        let (mut bj_rows, mut bj_offs) = (Slots::default(), Slots::default());
        let (bj_rows, bj_offs) =
            self.sub
                .backjoin_tables(db, view_cols.len(), &mut bj_rows, &mut bj_offs);
        let f = FusedFetch {
            view_cols,
            occ_rows,
            n_view_occs: n_vocc,
            bj_offs,
            bj_rows,
        };
        out.reset(self.sub.output.arity());
        self.sub.output.begin(groups);
        // The join is done, so its ping-pong buffer holds the one tuple
        // the backjoins extend.
        let mut tup = Slots::default();
        let tup = tup.take(n_vocc + bj_rows.len());
        for r in 0..n_view {
            tup[..n_vocc].copy_from_slice(&cur[r * n_vocc..(r + 1) * n_vocc]);
            self.sub
                .feed_tuple(&f, tup, n_vocc, bj_rows, st, key_buf, groups, out);
        }
        self.sub.output.finish(&f, groups, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::bag_eq;
    use crate::spjg::execute_spjg;
    use crate::substitute::{execute_substitute_with, materialize_view};
    use mv_data::{generate_tpch, TpchScale};
    use mv_expr::ScalarExpr as S;
    use mv_plan::{NamedAgg, NamedExpr, ViewDef, ViewId};

    fn cr(occ: u32, col: u32) -> ColRef {
        ColRef::new(occ, col)
    }

    fn run_plan(db: &Database, e: &SpjgExpr) -> Vec<Row> {
        let prog = PlanProgram::compile(&db.catalog, e);
        let mut scratch = ExecScratch::new();
        let mut out = RowBag::new();
        prog.execute(db, &mut scratch, &mut out);
        out.to_rows()
    }

    #[test]
    fn compiled_matches_interpreter_on_join_filter_project() {
        let (db, t) = generate_tpch(&TpchScale::tiny(), 5);
        let pred = BoolExpr::and(vec![
            BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
            BoolExpr::col_eq(cr(1, 1), cr(2, 0)),
            BoolExpr::cmp(S::col(cr(2, 0)), CmpOp::Le, S::lit(10i64)),
        ]);
        let e = SpjgExpr::spj(
            vec![t.lineitem, t.orders, t.customer],
            pred,
            vec![
                NamedExpr::new(S::col(cr(0, 0)), "l_orderkey"),
                NamedExpr::new(
                    S::col(cr(0, 4)).binary(BinOp::Mul, S::col(cr(0, 5))),
                    "product",
                ),
            ],
        );
        let want = execute_spjg(&db, &e);
        let got = run_plan(&db, &e);
        assert!(!want.is_empty());
        assert!(bag_eq(&got, &want));
    }

    #[test]
    fn compiled_matches_interpreter_on_aggregation() {
        let (db, t) = generate_tpch(&TpchScale::tiny(), 5);
        let e = SpjgExpr::aggregate(
            vec![t.orders],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 1)), "o_custkey")],
            vec![
                NamedAgg::new(AggFunc::CountStar, "cnt"),
                NamedAgg::new(AggFunc::Sum(S::col(cr(0, 3))), "total"),
            ],
        );
        let want = execute_spjg(&db, &e);
        let got = run_plan(&db, &e);
        assert!(bag_eq(&got, &want));
    }

    #[test]
    fn compiled_scalar_aggregate_over_empty_input() {
        let (db, t) = generate_tpch(&TpchScale::tiny(), 5);
        let e = SpjgExpr::aggregate(
            vec![t.part],
            BoolExpr::cmp(S::col(cr(0, 0)), CmpOp::Lt, S::lit(0i64)),
            vec![],
            vec![
                NamedAgg::new(AggFunc::CountStar, "cnt"),
                NamedAgg::new(AggFunc::Sum(S::col(cr(0, 5))), "s"),
                NamedAgg::new(AggFunc::SumZero(S::col(cr(0, 5))), "z"),
            ],
        );
        let got = run_plan(&db, &e);
        assert_eq!(got, vec![vec![Value::Int(0), Value::Null, Value::Int(0)]]);
    }

    #[test]
    fn compiled_substitute_matches_interpreter() {
        let (db, t) = generate_tpch(&TpchScale::tiny(), 17);
        let view = ViewDef::new(
            "v",
            SpjgExpr::spj(
                vec![t.part],
                BoolExpr::Literal(true),
                vec![
                    NamedExpr::new(S::col(cr(0, 0)), "p_partkey"),
                    NamedExpr::new(S::col(cr(0, 5)), "p_size"),
                ],
            ),
        );
        let view_rows = materialize_view(&db, &view);
        let sub = Substitute {
            view: ViewId(0),
            backjoins: vec![],
            predicates: vec![BoolExpr::cmp(S::col(cr(0, 1)), CmpOp::Lt, S::lit(20i64))],
            output: OutputList::Spj(vec![NamedExpr::new(S::col(cr(0, 0)), "p_partkey")]),
            freshness: mv_plan::Freshness::Fresh,
        };
        let want = execute_substitute_with(&db, &view_rows, &sub);

        let vprog = PlanProgram::compile(&db.catalog, &view.expr);
        let sprog = SubstituteProgram::compile(&db.catalog, &sub);
        let mut scratch = ExecScratch::new();
        let mut vbag = RowBag::new();
        let mut obag = RowBag::new();
        vprog.execute(&db, &mut scratch, &mut vbag);
        sprog.execute(&db, &vbag, &mut scratch, &mut obag);
        assert!(bag_eq(&obag.to_rows(), &want));
        assert!(!want.is_empty());

        // The fused pipeline (column-projection view) agrees too.
        let pipe = SubstitutePipeline::compile(&db.catalog, &view.expr, &sub);
        let mut vscratch = RowBag::new();
        let mut fused = RowBag::new();
        pipe.execute(&db, &mut scratch, &mut vscratch, &mut fused);
        assert!(bag_eq(&fused.to_rows(), &want));
        // Fused path never touched the view scratch bag.
        assert!(vscratch.is_empty());
    }

    #[test]
    fn delta_schedule_starts_at_any_occurrence() {
        let (db, t) = generate_tpch(&TpchScale::tiny(), 5);
        // A three-way join chain plus a table no equijoin reaches.
        let e = SpjgExpr::aggregate(
            vec![t.lineitem, t.orders, t.customer, t.region],
            BoolExpr::and(vec![
                BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
                BoolExpr::col_eq(cr(1, 1), cr(2, 0)),
                BoolExpr::cmp(S::col(cr(2, 0)), CmpOp::Ge, S::lit(1i64)),
                BoolExpr::cmp(S::col(cr(3, 0)), CmpOp::Le, S::lit(1i64)),
            ]),
            vec![NamedExpr::new(S::col(cr(2, 0)), "c_custkey")],
            vec![
                NamedAgg::new(AggFunc::CountStar, "cnt"),
                NamedAgg::new(AggFunc::Sum(S::col(cr(0, 4))), "qty"),
            ],
        );
        assert_eq!(delta_order(&e, 2), vec![2, 1, 0, 3]);
        assert_eq!(delta_order(&e, 3), vec![3, 0, 1, 2]);
        let mut scratch = ExecScratch::new();
        let mut out = RowBag::new();
        for (occ, &table) in e.tables.iter().enumerate() {
            // Two stored rows, one of them twice.
            let stored = db.rows(table);
            let delta = vec![stored[0].clone(), stored[1].clone(), stored[0].clone()];
            let mut swapped = db.clone();
            swapped.load(table, delta.clone());
            let want = execute_spjg(&swapped, &e);
            PlanProgram::compile_delta(&db.catalog, &e, occ).execute_delta(
                &db,
                &delta,
                &mut JoinIndexes::new(),
                &mut scratch,
                &mut out,
            );
            assert!(!want.is_empty());
            assert!(bag_eq(&out.to_rows(), &want), "delta on occurrence {occ}");
        }
    }

    /// `prog` with each step's equijoin keys turned into filters of that
    /// step, applied before its own: the same block, joined by the nested
    /// loop whatever the size of the data.
    fn nested_only(prog: &PlanProgram) -> PlanProgram {
        let mut prog = prog.clone();
        for (step, js) in prog.steps.iter_mut().enumerate() {
            let eqs = js.keys.drain(..).map(|(pp, col)| Program {
                ops: vec![
                    Op::Col(pp),
                    Op::Col((step << COL_BITS) | col),
                    Op::Cmp(CmpOp::Eq),
                ],
                ..Program::new()
            });
            js.filters.splice(0..0, eqs);
        }
        prog
    }

    /// Rows with every value's variant and bits spelled out: `Int(3)` and
    /// `Float(3.0)` differ here, and so do two sums that round apart.
    fn exact(bag: &RowBag) -> Vec<String> {
        bag.rows().map(|row| format!("{row:?}")).collect()
    }

    /// Did the last run over `scratch` build an index?
    fn probed(scratch: &ExecScratch) -> bool {
        (scratch.indexes.by_table.values().flatten()).any(|ix| ix.chains.is_some())
    }

    /// Probing returns what the nested loop does, row for row and in the
    /// same order, with the data on both sides of [`HASH_COMPARES`]: NULL
    /// keys, `Int` keys meeting equal `Float`s, duplicate and two-column
    /// keys, a Cartesian step beside a keyed one, an empty scan on either
    /// side, a self-join, float sums, and delta schedules sharing one index
    /// set across runs.
    #[test]
    fn probing_and_the_nested_loop_agree_row_for_row() {
        let mut catalog = Catalog::new();
        let mut table = |name: &str| {
            catalog.add_table(
                mv_catalog::schema::TableBuilder::new(name)
                    .col("id", mv_catalog::ColumnType::Int)
                    .nullable_col("k", mv_catalog::ColumnType::Int)
                    .nullable_col("k2", mv_catalog::ColumnType::Int)
                    .nullable_col("v", mv_catalog::ColumnType::Float)
                    .build(),
            )
        };
        let (r, t, u, e) = (table("r"), table("t"), table("u"), table("e"));
        let eq = |a: (u32, u32), b: (u32, u32)| BoolExpr::col_eq(cr(a.0, a.1), cr(b.0, b.1));
        let ids = |occs: u32| -> Vec<NamedExpr> {
            (0..occs)
                .map(|o| NamedExpr::new(S::col(cr(o, 0)), format!("id{o}")))
                .collect()
        };
        let plans = [
            SpjgExpr::spj(vec![r, t], eq((0, 1), (1, 1)), ids(2)),
            SpjgExpr::spj(
                vec![r, t],
                BoolExpr::and(vec![eq((0, 2), (1, 2)), eq((0, 1), (1, 1))]),
                ids(2),
            ),
            SpjgExpr::spj(vec![r, u, t], eq((0, 1), (2, 1)), ids(3)),
            SpjgExpr::spj(vec![r, e], eq((0, 1), (1, 1)), ids(2)),
            SpjgExpr::spj(vec![e, r], eq((0, 1), (1, 1)), ids(2)),
            SpjgExpr::spj(vec![t, t], eq((0, 1), (1, 1)), ids(2)),
            SpjgExpr::aggregate(
                vec![r, t],
                BoolExpr::and(vec![
                    eq((0, 1), (1, 1)),
                    BoolExpr::cmp(S::col(cr(1, 2)), CmpOp::Ne, S::lit(1i64)),
                ]),
                vec![NamedExpr::new(S::col(cr(0, 2)), "k2")],
                vec![
                    NamedAgg::new(AggFunc::CountStar, "cnt"),
                    NamedAgg::new(AggFunc::Sum(S::col(cr(1, 3))), "sum_v"),
                ],
            ),
        ];
        // Keys drawn from NULL, Ints and Floats, 1.0 among them; every
        // value recurs, so every key is duplicated in the larger data.
        let keys = [
            Value::Null,
            Value::Int(0),
            Value::Int(1),
            Value::Float(1.0),
            Value::Int(2),
            Value::Float(2.5),
        ];
        let rows = |n: usize, salt: usize| -> Vec<Row> {
            (0..n)
                .map(|i| {
                    let key = |at: usize| keys[(at + salt) % keys.len()].clone();
                    let v = Value::Float(0.1 * i as f64);
                    vec![Value::Int(i as i64), key(5 * i), key(i / 3), v]
                })
                .collect()
        };
        for (n, probes) in [(HASH_COMPARES - 2, false), (5 * HASH_COMPARES, true)] {
            let mut db = Database::new(catalog.clone());
            db.load(r, rows(n, 0));
            db.load(t, rows(n, 1));
            db.load(u, rows(2, 2));
            db.load(e, Vec::new());
            let mut scratch = ExecScratch::new();
            let (mut got, mut want) = (RowBag::new(), RowBag::new());
            let mut shared = JoinIndexes::new();
            for (i, plan) in plans.iter().enumerate() {
                let prog = PlanProgram::compile(&catalog, plan);
                nested_only(&prog).execute(&db, &mut scratch, &mut want);
                assert!(!probed(&scratch));
                prog.execute(&db, &mut scratch, &mut got);
                let keyed_and_full = !plan.tables.contains(&e);
                assert_eq!(
                    probed(&scratch),
                    probes && keyed_and_full,
                    "plan {i}, n {n}"
                );
                assert_eq!(exact(&got), exact(&want), "plan {i}, n {n}");
                assert!(bag_eq(&got.to_rows(), &execute_spjg(&db, plan)));
                if probes && keyed_and_full {
                    assert!(!got.is_empty(), "plan {i}, n {n}");
                }
                for occ in 0..plan.tables.len() {
                    let prog = PlanProgram::compile_delta(&catalog, plan, occ);
                    let stored = db.rows(plan.tables[occ]);
                    let delta = &stored[..stored.len().min(n / 2)];
                    let mut fresh = JoinIndexes::new();
                    nested_only(&prog).execute_delta(
                        &db,
                        delta,
                        &mut fresh,
                        &mut scratch,
                        &mut want,
                    );
                    prog.execute_delta(&db, delta, &mut shared, &mut scratch, &mut got);
                    assert_eq!(exact(&got), exact(&want), "plan {i} delta {occ}, n {n}");
                }
            }
        }
    }

    #[test]
    fn rowbag_eq_detects_multiplicity() {
        let (db, t) = generate_tpch(&TpchScale::tiny(), 3);
        let e = SpjgExpr::spj(
            vec![t.region],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 0)), "k")],
        );
        let prog = PlanProgram::compile(&db.catalog, &e);
        let mut scratch = ExecScratch::new();
        let mut a = RowBag::new();
        let mut b = RowBag::new();
        prog.execute(&db, &mut scratch, &mut a);
        prog.execute(&db, &mut scratch, &mut b);
        let mut matched = Vec::new();
        assert!(rowbag_eq(&a, &b, &mut matched));
        // Perturb one value.
        b.vals[0] = Value::Int(-999);
        assert!(!rowbag_eq(&a, &b, &mut matched));
    }
}
