//! Compiled plan programs: the crate's one executor.
//!
//! A [`PlanProgram`] is a join schedule — one step per scan, each step a
//! base table or rows its caller supplies — plus a postfix instruction
//! stream per predicate and output expression, compiled once and
//! evaluated over flat, reusable scratch buffers ([`ExecScratch`]). It
//! serves every caller: the prover's enumeration over hundreds of
//! thousands of tiny databases, [`crate::substitute::materialize_view`],
//! `mv-maintain`'s refresh and delta joins, every checked substitute
//! ([`SubstitutePipeline`]), and the optimizer's plans, which
//! [`crate::physical::execute_plan`] lowers to a short sequence of
//! programs.
//!
//! The execution representation never materializes joined rows: a joined
//! "row" is a tuple of `u32` row indices, one per join step, and every
//! column reference is a packed `(step, column)` position that
//! `PlanFetch` resolves back to the scanned rows. Values are cloned only
//! where the output must own them — projected cells, and a group's key
//! values when its row is built (the group table keeps a bare-column key
//! as the group's first index tuple) — so a run is a few tight loops over
//! integer tuples with no allocation on the common path (the per-call
//! table of scans, one slice per join step, sits on the stack up to
//! `INLINE_OCCS` steps and on the heap past that).
//!
//! A substitute compiles, with its view, to one plan program too
//! ([`SubstitutePipeline`]): when the view outputs bare columns, it runs
//! over the view's own join and the view rows are never materialized.
//!
//! Every run writes its output into a [`RowBag`], the one row buffer:
//! the prover's and the maintainer's bags, the view rows a materializing
//! substitute scans, and a served plan's parts, which are moved out of
//! theirs. A bag keeps its rows' allocations for the next run.
//!
//! The tree-walking interpreter in [`crate::spjg`] / [`crate::substitute`]
//! stays as the differential oracle: the compiled path must produce exactly
//! the same row bags, which `exec/tests/program_differential.rs` checks over
//! random plans × enumerated databases and `physical_differential.rs` over
//! the optimizer's plans.

use crate::agg::SumAcc;
use crate::chains::{hash_key, HashChains};
use mv_catalog::{Catalog, KeyHasher, TableId, Value};
use mv_data::{Database, Row};
use mv_expr::like::like_match;
use mv_expr::scalar::eval_binop;
use mv_expr::{BinOp, BoolExpr, CmpOp, ColRef, Conjunct, ScalarExpr};
use mv_plan::{AggFunc, OutputList, SpjgExpr, Substitute};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Bits of an [`Op::Col`] operand holding the column index; the rest holds
/// the join step that reads the column's row.
const COL_BITS: usize = 16;
const COL_MASK: usize = (1 << COL_BITS) - 1;

/// Join steps per plan whose per-call tables fit on the stack. A wider
/// plan's spill to the heap: width costs an allocation per execution, it
/// is not a limit.
const INLINE_OCCS: usize = 16;

/// A per-call table with one slot per join step.
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

/// Resolves a fetch position to a value for the current index tuple: `pos`
/// packs `(join step, column)`; `tuple[step]` indexes the rows that step
/// scans.
struct PlanFetch<'a> {
    occ_rows: &'a [&'a [Row]],
}

impl PlanFetch<'_> {
    #[inline]
    fn at<'a>(&'a self, tuple: &'a [u32], pos: usize) -> &'a Value {
        let occ = pos >> COL_BITS;
        &self.occ_rows[occ][tuple[occ] as usize][pos & COL_MASK]
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

fn slot<'a>(s: &'a Slot, f: &'a PlanFetch<'_>, tuple: &'a [u32], lits: &'a [Value]) -> &'a Value {
    match s {
        Slot::Pos(i) => f.at(tuple, *i),
        Slot::Lit(i) => &lits[*i],
        Slot::Owned(v) => v,
    }
}

/// Reusable evaluation stacks, cleared (not freed) per program run.
#[derive(Debug, Default)]
struct EvalStacks {
    vals: Vec<Slot>,
    bools: Vec<Option<bool>>,
}

/// A compiled expression: postfix ops plus literal and LIKE-pattern pools.
#[derive(Debug, Clone, Default)]
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
    fn compile_scalar(e: &ScalarExpr, map: &impl Fn(ColRef) -> usize) -> Self {
        let mut p = Program::default();
        p.push_scalar(e, map);
        p
    }

    fn compile_bool(e: &BoolExpr, map: &impl Fn(ColRef) -> usize) -> Self {
        let mut p = Program::default();
        p.push_bool(e, map);
        if let [Op::Col(pos), Op::Lit(lit), Op::Cmp(c)] = p.ops.as_slice() {
            p.fast_cmp = Some((*pos, *c, *lit));
        }
        p
    }

    /// The fetch position when this program is a single bare column.
    fn single_col(&self) -> Option<usize> {
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

    fn run(&self, f: &PlanFetch, tuple: &[u32], st: &mut EvalStacks) {
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
                        Value::Str(s) => Some(like_match(s, &self.pats[*pat]) != *negated),
                        // NULL, or LIKE over a non-string (a type error).
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
                // 3VL: FALSE decides an AND and TRUE an OR; else any
                // unknown makes the result unknown.
                Op::And(n) | Op::Or(n) => {
                    let decides = matches!(op, Op::Or(_));
                    let at = st.bools.len() - n;
                    let parts = &st.bools[at..];
                    let res = if parts.contains(&Some(decides)) {
                        Some(decides)
                    } else if parts.contains(&None) {
                        None
                    } else {
                        Some(!decides)
                    };
                    st.bools.truncate(at);
                    st.bools.push(res);
                }
            }
        }
    }

    fn eval_bool(&self, f: &PlanFetch, tuple: &[u32], st: &mut EvalStacks) -> Option<bool> {
        if let Some((pos, op, lit)) = self.fast_cmp {
            return f
                .at(tuple, pos)
                .sql_cmp(&self.lits[lit])
                .map(|ord| op.evaluate(ord));
        }
        self.run(f, tuple, st);
        st.bools.pop().expect("bool program left empty stack")
    }

    fn eval_scalar_owned(&self, f: &PlanFetch, tuple: &[u32], st: &mut EvalStacks) -> Value {
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
}

/// What a join step scans.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Scan {
    /// A base table of the database.
    Table(TableId),
    /// Rows the caller supplies with the run, `inputs[i]`: view rows, a
    /// delta, or the output of an earlier program.
    Input(usize),
}

/// One join step: append a row of the step's scan to the index-tuple
/// prefix.
#[derive(Debug, Clone)]
struct JoinStep {
    scan: Scan,
    /// Equijoin pairs `(packed prefix position, column of the new scan)`,
    /// consumed from `ColumnEq` conjuncts exactly as the interpreter does,
    /// ordered by scan column.
    keys: Vec<(usize, usize)>,
    /// A keyed step's conjuncts over its own scan alone: evaluated on the
    /// scan rows before an index is built over those that pass, or on the
    /// joined tuples when the step keeps the nested loop.
    scan_filters: Vec<Program>,
    /// Conjuncts that become fully bound once this occurrence is joined,
    /// compiled and applied in conjunct order.
    filters: Vec<Program>,
}

/// One compiled aggregate: `COUNT(*)` without an argument program, else
/// `SUM`, or with `zero` the `SUM` that is 0 over no value. A bare-column
/// argument also keeps its fetch position, which skips the program stack
/// and the clone.
#[derive(Debug, Clone)]
pub(crate) struct AggProg {
    arg: Option<Program>,
    arg_col: Option<usize>,
    zero: bool,
}

/// Compiled output side: projection programs or group-by/aggregate programs.
#[derive(Debug, Clone)]
pub(crate) enum OutputProgram {
    /// A projection of bare columns, by fetch position: the cells are
    /// cloned straight from the rows.
    Columns(Vec<usize>),
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
        exprs: impl Iterator<Item = &'e ScalarExpr> + Clone,
        map: &impl Fn(ColRef) -> usize,
    ) -> Self {
        let bare = exprs.clone().map(|e| Some(map(e.as_column()?)));
        match bare.collect() {
            Some(cols) => OutputProgram::Columns(cols),
            None => {
                OutputProgram::Project(exprs.map(|e| Program::compile_scalar(e, map)).collect())
            }
        }
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
                    let arg = func.argument().map(|e| Program::compile_scalar(e, map));
                    let arg_col = arg.as_ref().and_then(Program::single_col);
                    let zero = matches!(func, AggFunc::SumZero(_));
                    AggProg { arg, arg_col, zero }
                })
                .collect(),
        }
    }

    fn arity(&self) -> usize {
        match self {
            OutputProgram::Columns(cols) => cols.len(),
            OutputProgram::Project(items) => items.len(),
            OutputProgram::Aggregate { keys, aggs, .. } => keys.len() + aggs.len(),
        }
    }

    /// Feed one surviving tuple: push the projected row, or accumulate it
    /// into its group.
    fn feed(
        &self,
        f: &PlanFetch,
        tuple: &[u32],
        st: &mut EvalStacks,
        key_buf: &mut Vec<Value>,
        groups: &mut GroupTable,
        out: &mut RowBag,
    ) {
        match self {
            OutputProgram::Columns(cols) => {
                out.push_row(cols.iter().map(|&c| f.at(tuple, c).clone()));
            }
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
                        sum.add(&p.eval_scalar_owned(f, tuple, st));
                    }
                }
            }
        }
    }

    /// Flush accumulated groups into the output (no-op for projections,
    /// whose rows were emitted by [`OutputProgram::feed`]). `f` resolves
    /// the tuples fed, for the bare-column keys a group keeps as its first
    /// tuple.
    fn finish(&self, f: &PlanFetch, groups: &mut GroupTable, out: &mut RowBag) {
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
            let results = aggs.iter().zip(sums).map(|(agg, sum)| match agg {
                AggProg { arg: None, .. } => Value::Int(count),
                AggProg { zero: true, .. } => sum.finish_zero(),
                AggProg { zero: false, .. } => sum.finish(),
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
/// through the `PlanFetch`; no value is cloned until
/// [`OutputProgram::finish`] builds the group's row. Computed keys keep
/// their values (`keys[g * n_keys..]`).
#[derive(Debug, Default)]
struct GroupTable {
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
    fn find_or_insert_tuple(
        &mut self,
        f: &PlanFetch,
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

/// The rows a program run writes: the bag is `rows[..len]`, and a row
/// past `len` keeps its allocation for the next run, so a warm run over
/// rows no wider than an earlier one allocates nothing.
#[derive(Debug, Default)]
pub struct RowBag {
    rows: Vec<Row>,
    len: usize,
}

impl RowBag {
    /// An empty bag.
    pub fn new() -> Self {
        RowBag::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the bag holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows[..self.len]
    }

    /// The rows, moved out.
    pub(crate) fn into_rows(mut self) -> Vec<Row> {
        self.rows.truncate(self.len);
        self.rows
    }

    /// Empty the bag, keeping its rows' allocations.
    fn clear(&mut self) {
        self.len = 0;
    }

    fn push_row(&mut self, row: impl Iterator<Item = Value>) {
        if self.len == self.rows.len() {
            self.rows.push(Row::new());
        }
        let slot = &mut self.rows[self.len];
        slot.clear();
        slot.extend(row);
        self.len += 1;
    }
}

/// Multiset equality over two bags without allocating (the `matched`
/// bitmap is caller-provided scratch). Quadratic, but prove-time bags hold
/// at most a few dozen rows.
pub fn rowbag_eq(a: &RowBag, b: &RowBag, matched: &mut Vec<bool>) -> bool {
    if a.len != b.len {
        return false;
    }
    matched.clear();
    matched.resize(b.len, false);
    'outer: for ra in a.rows() {
        for (rb, m) in b.rows().iter().zip(matched.iter_mut()) {
            if !*m && rb == ra {
                *m = true;
                continue 'outer;
            }
        }
        return false;
    }
    true
}

/// Reusable per-worker scratch: index-tuple ping-pong buffers, evaluation
/// stacks, the group table, the join indexes of one run, the [`RowBag`] of
/// view rows a materializing substitute scans, and the bag-equality
/// bitmap. One of these per prove worker, with its output bags, amortizes
/// every allocation across all enumerated databases.
#[derive(Debug, Default)]
pub struct ExecScratch {
    bufs: Buffers,
    /// Emptied at the start of every run that uses them, so a scratch
    /// reused over another database never reads an index of the last one.
    pub(crate) indexes: JoinIndexes,
    /// The view rows a materializing [`SubstitutePipeline`] scans.
    view_rows: RowBag,
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

/// Inside ±2^53 every `i64` converts to `f64` and back exactly, so an
/// integral `Float` equals (by `Value::eq`) exactly one `Int` there.
const EXACT_INT: i64 = 1 << 53;

/// Rows of a scan chained under their key's bucket, by id, linked last id
/// first, so a chain yields ids in ascending order. A key holding a NULL
/// is never linked (SQL equality: it joins nothing).
#[derive(Debug, Default)]
struct KeyIndex {
    /// `(min, span)` when the keys indexed are one column over a dense
    /// range of `Int`s ([`dense_int_range`]): a key's bucket is then its
    /// offset from `min`, and nothing is hashed. Else it is the keyed hash.
    direct: Option<(i64, u64)>,
    chains: HashChains,
    hasher: RandomState,
    /// The rows indexed when a step's scan filters chose them, ascending:
    /// id `i` is row `ids[i]`. Empty when every row is indexed (id `i` is
    /// row `i`), or when no row passed, and then no chain yields an id.
    ids: Vec<u32>,
}

impl KeyIndex {
    /// Index `scan`'s rows — those of `ids` when `filtered` — on the scan
    /// columns of `keys`, reusing this index's allocations.
    fn build(&mut self, scan: &[Row], keys: &[(usize, usize)], filtered: bool) {
        let n = if filtered { self.ids.len() } else { scan.len() };
        let row = |id: usize| &scan[if filtered { self.ids[id] as usize } else { id }];
        self.direct = dense_int_range(keys, n, row);
        (self.chains).reset(n, self.direct.map_or(2 * n, |(_, span)| span as usize));
        for id in (0..n).rev() {
            let key = keys.iter().map(|&(_, c)| &row(id)[c]);
            if let Some(bucket) = self.bucket(key) {
                self.chains.link(id as u32, bucket);
            }
        }
    }

    /// The scan row of id `id`.
    fn row(&self, id: u32) -> u32 {
        self.ids.get(id as usize).copied().unwrap_or(id)
    }

    /// The bucket of `key`, or `None` when it can equal no indexed key: it
    /// holds a NULL, or under the direct layout it is anything but an
    /// `Int` or integral `Float` inside the range.
    fn bucket<'v>(&self, mut key: impl Iterator<Item = &'v Value>) -> Option<u64> {
        match self.direct {
            Some((min, span)) => {
                let k = match *key.next()? {
                    Value::Int(k) => k,
                    Value::Float(x) if x.fract() == 0.0 && x.abs() < EXACT_INT as f64 => x as i64,
                    _ => return None,
                };
                let offset = k as i128 - min as i128;
                (0..span as i128).contains(&offset).then_some(offset as u64)
            }
            None => {
                let mut h = KeyHasher::new(self.hasher.build_hasher());
                for v in key {
                    if v.is_null() {
                        return None;
                    }
                    h.push(v);
                }
                Some(h.finish())
            }
        }
    }
}

/// `(min, span)` of the keys of the `n` rows `row(id)` when the key is one
/// column whose non-NULL values are `Int`s inside ±[`EXACT_INT`] and take
/// fewer than `4 × n + 64` distinct places.
fn dense_int_range<'r>(
    keys: &[(usize, usize)],
    n: usize,
    row: impl Fn(usize) -> &'r Row,
) -> Option<(i64, u64)> {
    let [(_, col)] = keys[..] else {
        return None;
    };
    let (mut min, mut max) = (i64::MAX, i64::MIN);
    for id in 0..n {
        match row(id)[col] {
            Value::Int(k) => (min, max) = (min.min(k), max.max(k)),
            Value::Null => {}
            _ => return None,
        }
    }
    // Empty (every key NULL) when `min > max`.
    let span = max as i128 - min as i128 + 1;
    let dense = (1..=4 * n as i128 + 64).contains(&span) && -EXACT_INT < min && max < EXACT_INT;
    dense.then_some((min, span as u64))
}

/// Hash indexes over table rows, one per (table, equijoin key columns) a
/// join step has read, which a [`PlanProgram`]'s join steps probe instead
/// of scanning the table. An index is valid only while its table is
/// unchanged: whoever owns a set must [`JoinIndexes::invalidate`] a table
/// whenever it writes it, and run over other data with a new set.
/// [`ExecScratch`] empties its own set at the start of every run; a caller
/// that owns its data can keep one set across runs and programs, and pass
/// it to [`PlanProgram::execute_indexed`] and
/// [`PlanProgram::execute_delta`].
///
/// A step over rows the caller supplies, or with scan filters, probes an
/// index of its own, built for that step of that run when its prefix
/// tuples alone pay for it; its allocations are reused.
#[derive(Debug, Default)]
pub struct JoinIndexes {
    by_key: Vec<JoinIndex>,
    /// The index of the step joining now, when the shared set cannot hold it.
    local: KeyIndex,
}

/// One table's rows under one key, built once enough lookups ask for it.
#[derive(Debug)]
struct JoinIndex {
    table: TableId,
    cols: Box<[usize]>,
    /// Prefix tuples that looked the key up before the index was built.
    lookups: usize,
    index: Option<KeyIndex>,
}

impl JoinIndexes {
    /// An empty set.
    pub fn new() -> Self {
        JoinIndexes::default()
    }

    /// Forget every index.
    pub(crate) fn clear(&mut self) {
        self.by_key.clear();
    }

    /// Forget the indexes over `table`, which has just been written.
    pub fn invalidate(&mut self, table: TableId) {
        self.by_key.retain(|e| e.table != table);
    }

    /// The index step `occ` probes for `prefix_tuples` tuples; `None` when
    /// the step keeps the nested loop ([`HASH_COMPARES`]).
    fn for_step(
        &mut self,
        occ: usize,
        step: &JoinStep,
        f: &PlanFetch,
        prefix_tuples: usize,
        st: &mut EvalStacks,
    ) -> Option<&KeyIndex> {
        let scan = f.occ_rows[occ];
        if step.keys.is_empty() || scan.len() < HASH_COMPARES {
            return None;
        }
        let table = match step.scan {
            Scan::Table(table) if step.scan_filters.is_empty() => table,
            _ if prefix_tuples < HASH_COMPARES => return None,
            // The step's own index, over the scan rows that pass its scan
            // filters (every row when it has none).
            _ => {
                let filtered = !step.scan_filters.is_empty();
                self.local.ids.clear();
                if filtered {
                    // An index tuple whose slot `occ` holds the row filtered.
                    let mut tuple = vec![0; occ + 1];
                    for ri in 0..scan.len() as u32 {
                        tuple[occ] = ri;
                        let mut filters = step.scan_filters.iter();
                        if filters.all(|p| p.eval_bool(f, &tuple, st) == Some(true)) {
                            self.local.ids.push(ri);
                        }
                    }
                }
                self.local.build(scan, &step.keys, filtered);
                return Some(&self.local);
            }
        };
        let cols = step.keys.iter().map(|&(_, c)| c);
        let at = self
            .by_key
            .iter()
            .position(|e| e.table == table && e.cols.iter().copied().eq(cols.clone()));
        let entry = match at {
            Some(at) => &mut self.by_key[at],
            None => {
                self.by_key.push(JoinIndex {
                    table,
                    cols: cols.collect(),
                    lookups: 0,
                    index: None,
                });
                self.by_key.last_mut()?
            }
        };
        if entry.index.is_none() {
            entry.lookups += prefix_tuples;
            if entry.lookups < HASH_COMPARES {
                return None;
            }
            let mut index = KeyIndex::default();
            index.build(scan, &step.keys, false);
            entry.index = Some(index);
        }
        entry.index.as_ref()
    }
}

/// A join order over `n` occurrences that starts at occurrence `first` and
/// reaches the others through the `ColumnEq`s among `conjuncts`: each next
/// occurrence is the lowest-numbered one with a `ColumnEq` to an
/// occurrence already placed, or — when the join graph is disconnected —
/// the lowest-numbered one left (a Cartesian step either way).
pub(crate) fn connected_order(n: usize, conjuncts: &[Conjunct], first: usize) -> Vec<usize> {
    let mut order = vec![first];
    while order.len() < n {
        let placed = |occ: usize| order.contains(&occ);
        let joins_placed = |occ: usize| {
            conjuncts.iter().any(|conj| match conj {
                Conjunct::ColumnEq(a, b) => {
                    let (a, b) = (a.occ.0 as usize, b.occ.0 as usize);
                    (a == occ && placed(b)) || (b == occ && placed(a))
                }
                _ => false,
            })
        };
        let mut unplaced = (0..n).filter(|&occ| !placed(occ));
        let next = unplaced
            .clone()
            .find(|&occ| joins_placed(occ))
            .or_else(|| unplaced.next())
            .expect("an occurrence is left while order.len() < n");
        order.push(next);
    }
    order
}

/// Apply compiled filters in place over the tuple buffer, compacting
/// surviving tuples to the front. Returns the new tuple count.
fn filter_tuples(
    filters: &[Program],
    tuples: &mut Vec<u32>,
    stride: usize,
    mut n_rows: usize,
    f: &PlanFetch,
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
/// A keyed step finds each prefix tuple's matches by scanning its rows or,
/// when [`HASH_COMPARES`] says it pays, by probing an index of `indexes`
/// (shared, or the step's own). Either way the matches come out in
/// ascending row order within each prefix tuple, so the tuples, and every
/// sum folded over them, are the same whichever way a step ran.
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
        let index = indexes.for_step(occ, step, f, n_rows, st);
        // An index has applied the scan filters already.
        let filtered = index.is_some() && !step.scan_filters.is_empty();
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
                Some(index) => {
                    let key = step.keys.iter().map(|&(pp, _)| f.at(prefix, pp));
                    let Some(bucket) = index.bucket(key) else {
                        continue;
                    };
                    for id in index.chains.chain(bucket) {
                        let ri = index.row(id);
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
        if !filtered && !step.scan_filters.is_empty() {
            n_rows = filter_tuples(&step.scan_filters, cur, occ + 1, n_rows, f, st);
        }
        if !step.filters.is_empty() {
            n_rows = filter_tuples(&step.filters, cur, occ + 1, n_rows, f, st);
        }
    }
    n_rows
}

/// A join block compiled once: the join schedule plus predicate and output
/// programs, all addressed by packed `(step, column)` fetch positions.
/// [`PlanProgram::compile`] schedules an [`SpjgExpr`]'s occurrences in
/// `expr.tables` order, so step and occurrence coincide;
/// [`PlanProgram::compile_delta`] puts a chosen occurrence first, and
/// `execute_plan` schedules the scans of a served plan.
#[derive(Debug, Clone)]
pub struct PlanProgram {
    steps: Vec<JoinStep>,
    output: OutputProgram,
}

impl PlanProgram {
    /// Compile an SPJG block. The conjunct schedule (which `ColumnEq`s
    /// become join keys at which step, and when each remaining conjunct is
    /// applied) replicates [`crate::spjg::execute_spj_part`] exactly.
    pub fn compile(expr: &SpjgExpr) -> Self {
        let order: Vec<usize> = (0..expr.tables.len()).collect();
        Self::compile_block(expr, &table_scans(expr), &order)
    }

    /// Compile the *delta schedule* of occurrence `occ`: the same block,
    /// joined starting from `occ` and reaching the other occurrences
    /// through their equijoin keys, for [`PlanProgram::execute_delta`] to
    /// run with a handful of delta rows standing in for `occ`'s table (the
    /// program runs only that way). A one-row delta then costs one pass
    /// over each other table instead of the full join of everything
    /// scheduled before `occ`. The output bag equals
    /// [`PlanProgram::compile`]'s over a database whose `occ` table holds
    /// the delta rows (row order aside).
    pub fn compile_delta(expr: &SpjgExpr, occ: usize) -> Self {
        let mut scans = table_scans(expr);
        scans[occ] = Scan::Input(0);
        let order = connected_order(expr.tables.len(), &expr.conjuncts, occ);
        Self::compile_block(expr, &scans, &order)
    }

    fn compile_block(expr: &SpjgExpr, scans: &[Scan], order: &[usize]) -> Self {
        Self::schedule(scans, &expr.conjuncts, false, order, |map| {
            OutputProgram::compile(&expr.output, &map)
        })
    }

    /// Compile a join block with step `k` joining occurrence `order[k]`,
    /// which scans `scans[order[k]]`. A `ColumnEq` among `conjuncts`
    /// becomes a join key at the step that binds its later side; every
    /// other conjunct is applied at the first step that binds all its
    /// columns. With `filter_scans`, a keyed step evaluates the conjuncts
    /// over its own scan alone on the scan rows
    /// ([`JoinStep::scan_filters`]). `output` compiles the output, given
    /// the packed position of every column.
    pub(crate) fn schedule(
        scans: &[Scan],
        conjuncts: &[Conjunct],
        filter_scans: bool,
        order: &[usize],
        output: impl FnOnce(&dyn Fn(ColRef) -> usize) -> OutputProgram,
    ) -> Self {
        let mut step_of = vec![0usize; order.len()];
        for (step, &occ) in order.iter().enumerate() {
            step_of[occ] = step;
        }
        let step_of = |c: ColRef| step_of[c.occ.0 as usize];
        let map = |c: ColRef| (step_of(c) << COL_BITS) | c.col.0 as usize;

        let mut steps: Vec<JoinStep> = (order.iter())
            .map(|&occ| JoinStep {
                scan: scans[occ],
                keys: Vec::new(),
                scan_filters: Vec::new(),
                filters: Vec::new(),
            })
            .collect();
        for conj in conjuncts {
            let columns = conj.columns();
            let step = columns.iter().map(|&c| step_of(c)).max().unwrap_or(0);
            let filter = match conj {
                &Conjunct::ColumnEq(a, b) if step_of(a) != step_of(b) => {
                    let (prior, new) = if step_of(a) < step { (a, b) } else { (b, a) };
                    steps[step].keys.push((map(prior), new.col.0 as usize));
                    continue;
                }
                Conjunct::Residual(p) => Program::compile_bool(p, &map),
                other => Program::compile_bool(&other.to_bool(), &map),
            };
            let own_scan = !columns.is_empty() && columns.iter().all(|&c| step_of(c) == step);
            match filter_scans && own_scan {
                true => steps[step].scan_filters.push(filter),
                false => steps[step].filters.push(filter),
            }
        }
        for js in &mut steps {
            // By scan column, so steps that join a table on the same
            // columns share one index (`JoinIndexes`).
            js.keys.sort_by_key(|&(_, col)| col);
            if js.keys.is_empty() {
                js.filters.append(&mut js.scan_filters);
            }
        }
        PlanProgram {
            steps,
            output: output(&map),
        }
    }

    /// The width of the rows the program outputs.
    pub(crate) fn arity(&self) -> usize {
        self.output.arity()
    }

    /// Evaluate against one database, writing the output bag into `out`.
    pub fn execute(&self, db: &Database, scratch: &mut ExecScratch, out: &mut RowBag) {
        scratch.indexes.clear();
        self.run(db, &[], &mut scratch.indexes, &mut scratch.bufs, out);
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
        self.run(db, &[], indexes, &mut scratch.bufs, out);
    }

    /// Evaluate a program compiled by [`PlanProgram::compile_delta`] with
    /// `delta` standing in for its chosen occurrence's table and every
    /// other table read from `db`. The delta is borrowed, never copied.
    /// The join indexes are the caller's, as in
    /// [`PlanProgram::execute_indexed`]: the first step has no key, so no
    /// index is built over the delta.
    pub fn execute_delta(
        &self,
        db: &Database,
        delta: &[Row],
        indexes: &mut JoinIndexes,
        scratch: &mut ExecScratch,
        out: &mut RowBag,
    ) {
        self.run(db, &[delta], indexes, &mut scratch.bufs, out);
    }

    /// Evaluate with `inputs` supplying the rows of the [`Scan::Input`]
    /// steps. The scratch's join indexes are kept: the caller empties them
    /// when the data changes.
    pub(crate) fn execute_rows(
        &self,
        db: &Database,
        inputs: &[&[Row]],
        scratch: &mut ExecScratch,
        out: &mut RowBag,
    ) {
        self.run(db, inputs, &mut scratch.indexes, &mut scratch.bufs, out);
    }

    /// Run over `db`'s tables and the caller's `inputs`. When a step scans
    /// no row, the join is empty, and no step runs.
    fn run(
        &self,
        db: &Database,
        inputs: &[&[Row]],
        indexes: &mut JoinIndexes,
        bufs: &mut Buffers,
        out: &mut RowBag,
    ) {
        let mut table = Slots::default();
        let occ_rows = table.take(self.steps.len());
        for (scan, s) in occ_rows.iter_mut().zip(&self.steps) {
            *scan = match s.scan {
                Scan::Table(t) => db.rows(t),
                Scan::Input(i) => inputs[i],
            };
        }
        let f = PlanFetch { occ_rows };
        let n_rows = if f.occ_rows.iter().any(|rows| rows.is_empty()) {
            0
        } else {
            join_steps(&self.steps, &f, indexes, bufs)
        };
        let (stride, groups) = (self.steps.len(), &mut bufs.groups);
        out.clear();
        groups.clear();
        for r in 0..n_rows {
            let tuple = &bufs.cur[r * stride..(r + 1) * stride];
            (self.output).feed(&f, tuple, &mut bufs.st, &mut bufs.key_buf, groups, out);
        }
        self.output.finish(&f, groups, out);
    }
}

/// One table scan per occurrence of `expr`.
fn table_scans(expr: &SpjgExpr) -> Vec<Scan> {
    expr.tables.iter().map(|&t| Scan::Table(t)).collect()
}

/// A [`Substitute`] compiled, with its view, into one [`PlanProgram`]: a
/// view scan, one keyed join step per backjoin, the compensating
/// predicates as filters of the first step that binds all their columns,
/// and the substitute's output, every column resolved to a packed
/// `(step, column)` position.
///
/// The view scan is the view's own join steps when the view's output is a
/// bare column projection (*fused*: the view rows are never materialized,
/// and a view column resolves through the projection straight to its base
/// row). Otherwise (an aggregate or computed-output view) it is one step
/// over the view rows, which [`SubstitutePipeline::execute`] materializes
/// first into allocations it reuses from one database to the next.
///
/// A backjoin step joins what the served plan's `HashJoin` joins: every
/// base row whose key equals the row's, and none for a NULL key.
#[derive(Debug, Clone)]
pub struct SubstitutePipeline {
    /// The view's program when its rows are materialized; `None` when fused.
    view: Option<PlanProgram>,
    sub: PlanProgram,
}

impl SubstitutePipeline {
    /// Compile the pair. The catalog gives each backjoined table's width.
    pub fn compile(catalog: &Catalog, view_expr: &SpjgExpr, sub: &Substitute) -> Self {
        let bare: Option<Vec<ColRef>> = match &view_expr.output {
            OutputList::Spj(items) => items.iter().map(|ne| ne.expr.as_column()).collect(),
            OutputList::Aggregate { .. } => None,
        };
        // The view's scans and conjuncts, or one scan of its rows; `cols[i]`
        // is substitute column `i`: the view's outputs, then each
        // backjoined table's columns.
        let (view, mut scans, mut conjuncts, mut cols) = match bare {
            Some(cols) => (
                None,
                table_scans(view_expr),
                view_expr.conjuncts.clone(),
                cols,
            ),
            None => {
                let view = PlanProgram::compile(view_expr);
                let cols = (0..view.output.arity() as u32).map(|c| ColRef::new(0, c));
                (Some(view), vec![Scan::Input(0)], Vec::new(), cols.collect())
            }
        };
        for bj in &sub.backjoins {
            let leaf = scans.len() as u32;
            scans.push(Scan::Table(bj.table));
            let key = bj
                .key
                .iter()
                .map(|&(p, c)| (cols[p], ColRef::new(leaf, c.0)));
            conjuncts.extend(key.map(|(v, b)| Conjunct::ColumnEq(v, b)));
            let width = catalog.table(bj.table).columns.len() as u32;
            cols.extend((0..width).map(|c| ColRef::new(leaf, c)));
        }
        let at = |c: ColRef| cols[c.col.0 as usize];
        let preds = sub.predicates.iter().map(|p| p.map_columns(&mut { at }));
        conjuncts.extend(preds.map(Conjunct::Residual));
        let order: Vec<usize> = (0..scans.len()).collect();
        let sub = PlanProgram::schedule(&scans, &conjuncts, false, &order, |map| {
            OutputProgram::compile(&sub.output, &|c| map(at(c)))
        });
        SubstitutePipeline { view, sub }
    }

    /// Evaluate the substitute against one database.
    pub fn execute(&self, db: &Database, scratch: &mut ExecScratch, out: &mut RowBag) {
        let ExecScratch {
            bufs,
            indexes,
            view_rows,
            ..
        } = scratch;
        indexes.clear();
        if let Some(view) = &self.view {
            view.run(db, &[], indexes, bufs, view_rows);
        }
        self.sub.run(db, &[view_rows.rows()], indexes, bufs, out);
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
        let prog = PlanProgram::compile(e);
        let mut scratch = ExecScratch::new();
        let mut out = RowBag::new();
        prog.execute(db, &mut scratch, &mut out);
        out.into_rows()
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
        assert!(!want.is_empty());

        // Fused (the view outputs bare columns): the substitute filters
        // the view's own join and never fills the view rows.
        let mut scratch = ExecScratch::new();
        let mut got = RowBag::new();
        let pipe = SubstitutePipeline::compile(&db.catalog, &view.expr, &sub);
        assert!(pipe.view.is_none());
        pipe.execute(&db, &mut scratch, &mut got);
        assert!(bag_eq(got.rows(), &want));
        assert!(scratch.view_rows.rows.is_empty());

        // Materialized (a computed output): the substitute scans the view
        // rows, whose allocations the next run reuses.
        let mut computed = view.expr.clone();
        if let OutputList::Spj(items) = &mut computed.output {
            items[1].expr = S::col(cr(0, 5)).binary(BinOp::Add, S::lit(0i64));
        }
        let pipe = SubstitutePipeline::compile(&db.catalog, &computed, &sub);
        assert!(pipe.view.is_some());
        for _ in 0..2 {
            pipe.execute(&db, &mut scratch, &mut got);
            assert!(bag_eq(got.rows(), &want));
        }
        assert_eq!(scratch.view_rows.rows.len(), view_rows.len());
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
        assert_eq!(connected_order(4, &e.conjuncts, 2), vec![2, 1, 0, 3]);
        assert_eq!(connected_order(4, &e.conjuncts, 3), vec![3, 0, 1, 2]);
        let mut scratch = ExecScratch::new();
        let mut out = RowBag::new();
        for (occ, &table) in e.tables.iter().enumerate() {
            // Two stored rows, one of them twice.
            let stored = db.rows(table);
            let delta = vec![stored[0].clone(), stored[1].clone(), stored[0].clone()];
            let mut swapped = db.clone();
            swapped.load(table, delta.clone());
            let want = execute_spjg(&swapped, &e);
            PlanProgram::compile_delta(&e, occ).execute_delta(
                &db,
                &delta,
                &mut JoinIndexes::new(),
                &mut scratch,
                &mut out,
            );
            assert!(!want.is_empty());
            assert!(bag_eq(out.rows(), &want), "delta on occurrence {occ}");
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
                ..Program::default()
            });
            js.filters.splice(0..0, eqs);
        }
        prog
    }

    /// Rows with every value's variant and bits spelled out: `Int(3)` and
    /// `Float(3.0)` differ here, and so do two sums that round apart.
    fn exact(bag: &RowBag) -> Vec<String> {
        bag.rows().iter().map(|row| format!("{row:?}")).collect()
    }

    /// The direct layouts (or `None`, hashed) of the indexes the last run
    /// over `scratch` built.
    fn layouts(scratch: &ExecScratch) -> Vec<Option<(i64, u64)>> {
        let entries = scratch.indexes.by_key.iter();
        entries
            .filter_map(|ix| Some(ix.index.as_ref()?.direct))
            .collect()
    }

    /// Rows `[id, k, k2, v]` whose keys `k` and `k2` are drawn from NULL,
    /// Ints and Floats, 1.0 among them; every value recurs, so every key is
    /// duplicated in the larger data.
    fn mixed_rows(n: usize, salt: usize) -> Vec<Row> {
        let keys = [
            Value::Null,
            Value::Int(0),
            Value::Int(1),
            Value::Float(1.0),
            Value::Int(2),
            Value::Float(2.5),
        ];
        (0..n)
            .map(|i| {
                let key = |at: usize| keys[(at + salt) % keys.len()].clone();
                let v = Value::Float(0.1 * i as f64);
                vec![Value::Int(i as i64), key(5 * i), key(i / 3), v]
            })
            .collect()
    }

    /// Rows `[id, k, k2, v]` whose single `Int` key `k` is dense: ten
    /// values from `base` on, and NULL. Salt 0 (`r`, the probing side of
    /// most plans) mixes in probes of an index addressed by offset: the
    /// `Float` equal to a key, NULL, `Int`s just past either end of the
    /// range, a non-integral `Float`, and `Int`s and `Float`s at ±2^53.
    fn dense_rows(n: usize, salt: usize, base: i64) -> Vec<Row> {
        let edge = EXACT_INT;
        let probes = [
            Value::Float((base + 3) as f64),
            Value::Null,
            Value::Int(base - 1),
            Value::Int(base + 10),
            Value::Float(base as f64 + 2.5),
            Value::Int(edge),
            Value::Int(-edge),
            Value::Float(edge as f64),
            Value::Float(-edge as f64),
        ];
        (0..n)
            .map(|i| {
                let k = match i % 7 {
                    _ if salt == 0 && i % 4 == 0 => probes[i / 4 % probes.len()].clone(),
                    6 => Value::Null,
                    _ => Value::Int(base + ((i + salt) % 10) as i64),
                };
                let k2 = Value::Int(((i + salt) / 3 % 4) as i64);
                vec![Value::Int(i as i64), k, k2, Value::Float(0.1 * i as f64)]
            })
            .collect()
    }

    /// Probing returns what the nested loop does, row for row and in the
    /// same order, with the data on both sides of [`HASH_COMPARES`]: NULL
    /// keys, `Int` keys meeting equal `Float`s, duplicate and two-column
    /// keys, a Cartesian step beside a keyed one, an empty scan on either
    /// side, a self-join, float sums, and delta schedules sharing one index
    /// set across runs. Each data set runs twice: keys of mixed types,
    /// which the index hashes, and a dense single `Int` key near 0 and near
    /// either end of ±2^53, which it addresses by offset.
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
        // Mixed keys, then a dense key from each base.
        let data_sets = [
            ("mixed", None),
            ("dense at 0", Some(0)),
            ("dense below 2^53", Some(EXACT_INT - 10)),
            ("dense above -2^53", Some(1 - EXACT_INT)),
        ];
        for (data, base) in data_sets {
            let rows = |n, salt| match base {
                None => mixed_rows(n, salt),
                Some(base) => dense_rows(n, salt, base),
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
                    let at = format!("{data}, plan {i}, n {n}");
                    let prog = PlanProgram::compile(plan);
                    nested_only(&prog).execute(&db, &mut scratch, &mut want);
                    assert!(layouts(&scratch).is_empty());
                    prog.execute(&db, &mut scratch, &mut got);
                    let keyed_and_full = !plan.tables.contains(&e);
                    let built = layouts(&scratch);
                    assert_eq!(!built.is_empty(), probes && keyed_and_full, "{at}");
                    // One dense `Int` key column is addressed by offset.
                    if base.is_some() && probes && i == 0 {
                        assert!(matches!(built[..], [Some(_)]), "{at}");
                    }
                    assert_eq!(exact(&got), exact(&want), "{at}");
                    assert!(bag_eq(got.rows(), &execute_spjg(&db, plan)));
                    if probes && keyed_and_full {
                        assert!(!got.is_empty(), "{at}");
                    }
                    for occ in 0..plan.tables.len() {
                        let prog = PlanProgram::compile_delta(plan, occ);
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
                        assert_eq!(exact(&got), exact(&want), "{at}, delta {occ}");
                    }
                }
            }
        }
    }

    /// Whether an index over `rows` (those of `ids` when given) keyed on
    /// the columns `key` addresses its keys by offset. The probing test
    /// above and `physical_differential.rs` check both layouts' answers.
    fn direct(rows: &[Row], ids: Option<&[u32]>, key: &[usize]) -> bool {
        let keys: Vec<(usize, usize)> = key.iter().map(|&c| (0, c)).collect();
        let mut index = KeyIndex::default();
        index.ids.extend(ids.into_iter().flatten());
        index.build(rows, &keys, ids.is_some());
        index.direct.is_some()
    }

    fn one_key(keys: &[Value]) -> bool {
        let rows: Vec<Row> = keys.iter().map(|k| vec![k.clone()]).collect();
        direct(&rows, None, &[0])
    }

    #[test]
    fn the_indexed_keys_choose_the_layout() {
        let ints = |ks: &[i64]| ks.iter().map(|&k| Value::Int(k)).collect::<Vec<_>>();
        assert!(one_key(&ints(&[-5, -3, -3, -1])));
        assert!(one_key(&[Value::Int(7), Value::Null]));
        // Three rows may span 4 × 3 + 64 = 76 places.
        assert!(one_key(&ints(&[0, 40, 75])));
        assert!(!one_key(&ints(&[0, 40, 76])));
        assert!(!one_key(&ints(&[i64::MIN, 0, i64::MAX])));
        // Only inside ±2^53 does an integral Float equal one Int.
        let big = 1i64 << 53;
        assert!(one_key(&ints(&[-big + 1, -big + 2])));
        assert!(!one_key(&ints(&[big - 1, big])));
        assert!(!one_key(&[Value::Null, Value::Null]));
        assert!(!one_key(&[Value::Int(1), Value::Float(2.0)]));
        assert!(!one_key(&[Value::Date(1), Value::Date(2)]));
        let pairs = [ints(&[1, 2]), ints(&[2, 3])];
        assert!(!direct(&pairs, None, &[0, 1]));
        assert!(direct(&pairs, None, &[1]));
        // Only the rows indexed count: the scan filters of a step leave
        // out the key that makes the column sparse.
        let sparse: Vec<Row> = ints(&[0, 1, 1_000]).into_iter().map(|k| vec![k]).collect();
        assert!(!direct(&sparse, None, &[0]));
        assert!(direct(&sparse, Some(&[0, 1]), &[0]));
    }

    #[test]
    fn rowbag_eq_detects_multiplicity() {
        let (db, t) = generate_tpch(&TpchScale::tiny(), 3);
        let e = SpjgExpr::spj(
            vec![t.region],
            BoolExpr::Literal(true),
            vec![NamedExpr::new(S::col(cr(0, 0)), "k")],
        );
        let prog = PlanProgram::compile(&e);
        let mut scratch = ExecScratch::new();
        let mut a = RowBag::new();
        let mut b = RowBag::new();
        prog.execute(&db, &mut scratch, &mut a);
        prog.execute(&db, &mut scratch, &mut b);
        let mut matched = Vec::new();
        assert!(rowbag_eq(&a, &b, &mut matched));
        // Perturb one value.
        b.rows[0][0] = Value::Int(-999);
        assert!(!rowbag_eq(&a, &b, &mut matched));
    }
}
