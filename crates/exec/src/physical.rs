//! Late-materializing executor for optimizer-produced physical plans.
//!
//! A plan is compiled ([`CompiledPlan`]) into *fragments*: trees of scan,
//! filter, column-remap and join operators over borrowed leaves (base
//! tables, [`ViewStore`] contents, or the owned output of a fragment
//! below). Operators exchange index tuples, not rows — see [`Rel`] — and
//! each fragment clones values exactly once, straight into the rows it
//! returns: a group's key values are cloned from the group's first tuple
//! when the group's row is built.
//!
//! A hash join indexes its build side by what the keys turn out to be
//! (`BuildTable`): one dense `Int` key column is addressed by offset,
//! anything else is chained by its keyed hash.

use crate::chains::HashChains;
use crate::program::{filter_tuples, EvalStacks, Fetch, GroupTable, OutputProgram, Program};
use mv_catalog::{KeyHasher, TableId, Value};
use mv_data::{Database, Row};
use mv_expr::{BoolExpr, ColRef, ScalarExpr};
use mv_plan::{PhysicalPlan, ViewId};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;

/// Storage for materialized view contents, addressed by [`ViewId`].
#[derive(Debug, Clone, Default)]
pub struct ViewStore {
    views: HashMap<ViewId, Vec<Row>>,
}

impl ViewStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store (or replace) the contents of a view.
    pub fn put(&mut self, view: ViewId, rows: Vec<Row>) {
        self.views.insert(view, rows);
    }

    /// The rows of a view (empty if never materialized).
    pub fn rows(&self, view: ViewId) -> &[Row] {
        self.views.get(&view).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Number of materialized views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }
}

/// Operator expressions address their input row by position (`occ`
/// ignored, `col` = input position).
fn input_pos(c: ColRef) -> usize {
    c.col.0 as usize
}

/// Where an operator's output position lives: `(slot, column)` — a leaf of
/// the operator's subtree and a column of that leaf's rows.
type ColAddr = (usize, usize);

/// Resolution of a program's fetch positions over one relation: position
/// → [`ColAddr`] → the leaf row the tuple's slot indexes.
struct RelFetch<'a> {
    leaves: &'a [&'a [Row]],
    cols: &'a [ColAddr],
}

impl Fetch for RelFetch<'_> {
    #[inline]
    fn at<'a>(&'a self, tuple: &'a [u32], pos: usize) -> &'a Value {
        let (slot, col) = self.cols[pos];
        &self.leaves[slot][tuple[slot] as usize][col]
    }
}

/// An intermediate relation: index tuples with one slot per leaf of the
/// subtree that produced it, and the address of each output position. No
/// row is copied to build one.
struct Rel {
    /// `stride` row indices per tuple, slot order = leaf order.
    tuples: Vec<u32>,
    stride: usize,
    /// Not to be read when the relation has no tuple: an empty `ViewScan`
    /// has no row to take its width from, so the map may be unset then —
    /// and nothing will be fetched.
    cols: Vec<ColAddr>,
}

impl Rel {
    fn empty(stride: usize) -> Self {
        Rel {
            tuples: Vec::new(),
            stride,
            cols: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.tuples.len() / self.stride
    }

    fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    fn tuple(&self, i: usize) -> &[u32] {
        &self.tuples[i * self.stride..(i + 1) * self.stride]
    }
}

/// One join input with its key columns resolved to leaf addresses.
struct JoinSide<'a> {
    rel: &'a Rel,
    leaves: &'a [&'a [Row]],
    keys: Vec<ColAddr>,
}

impl<'a> JoinSide<'a> {
    fn new(rel: &'a Rel, leaves: &'a [&'a [Row]], key_positions: &[usize]) -> Self {
        JoinSide {
            rel,
            leaves,
            keys: key_positions.iter().map(|&p| rel.cols[p]).collect(),
        }
    }

    /// The key values of tuple `i`, borrowed from the leaves.
    fn key(&self, i: usize) -> impl Iterator<Item = &'a Value> + '_ {
        let tuple = self.rel.tuple(i);
        self.keys
            .iter()
            .map(move |&(slot, col)| &self.leaves[slot][tuple[slot] as usize][col])
    }

    /// Hash of tuple `i`'s key; `None` when a key value is NULL (SQL
    /// equality: NULL keys never join).
    fn hash(&self, i: usize, state: &RandomState) -> Option<u64> {
        let mut h = KeyHasher::new(state.build_hasher());
        for v in self.key(i) {
            if v.is_null() {
                return None;
            }
            h.push(v);
        }
        Some(h.finish())
    }

    /// `(min, span)` of the key when it is one column whose non-NULL
    /// values are `Int`s inside ±[`EXACT_INT`] and take fewer than
    /// `4 × tuples + 64` distinct places.
    fn dense_int_range(&self) -> Option<(i64, u64)> {
        let [(slot, col)] = self.keys[..] else {
            return None;
        };
        let (mut min, mut max) = (i64::MAX, i64::MIN);
        for tuple in self.rel.tuples.chunks_exact(self.rel.stride) {
            match self.leaves[slot][tuple[slot] as usize][col] {
                Value::Int(k) => (min, max) = (min.min(k), max.max(k)),
                Value::Null => {}
                _ => return None,
            }
        }
        // Empty (every key NULL) when `min > max`.
        let span = max as i128 - min as i128 + 1;
        let dense = (1..=4 * self.rel.len() as i128 + 64).contains(&span)
            && -EXACT_INT < min
            && max < EXACT_INT;
        dense.then_some((min, span as u64))
    }
}

/// Inside ±2^53 every `i64` converts to `f64` and back exactly, so an
/// integral `Float` equals (by `Value::eq`) exactly one `Int` there.
const EXACT_INT: i64 = 1 << 53;

/// How a hash join's build side is indexed. The layout is chosen from the
/// build keys each time the join runs.
enum BuildLayout {
    /// One key column over a dense range of `Int`s
    /// ([`JoinSide::dense_int_range`]): a key's bucket is its offset from
    /// `min`, and nothing is hashed.
    Direct { min: i64, span: u64 },
    /// Any other key: chained by its keyed hash.
    Hashed(RandomState),
}

/// The build side's tuple ids, chained under their key's bucket.
struct BuildTable {
    layout: BuildLayout,
    chains: HashChains,
}

impl BuildTable {
    fn new(build: &JoinSide) -> Self {
        let n = build.rel.len();
        let (layout, buckets) = match build.dense_int_range() {
            Some((min, span)) => (BuildLayout::Direct { min, span }, span as usize),
            None => (BuildLayout::Hashed(RandomState::new()), 2 * n),
        };
        let mut table = BuildTable {
            layout,
            chains: HashChains::with_ids(n, buckets),
        };
        for i in 0..n {
            if let Some(bucket) = table.bucket(build, i) {
                table.chains.link(i as u32, bucket);
            }
        }
        table
    }

    /// The bucket of `side`'s tuple `i`, or `None` when its key can equal
    /// no build key: NULL, or under [`BuildLayout::Direct`] anything but
    /// an `Int` or integral `Float` inside the range.
    fn bucket(&self, side: &JoinSide, i: usize) -> Option<u64> {
        match &self.layout {
            BuildLayout::Direct { min, span } => {
                let k = match *side.key(i).next()? {
                    Value::Int(k) => k,
                    Value::Float(x) if x.fract() == 0.0 && x.abs() < EXACT_INT as f64 => x as i64,
                    _ => return None,
                };
                let offset = k as i128 - *min as i128;
                (0..*span as i128)
                    .contains(&offset)
                    .then_some(offset as u64)
            }
            BuildLayout::Hashed(state) => side.hash(i, state),
        }
    }
}

/// A relational operator over the leaves of its fragment. Every variant
/// produces index tuples; none owns a value.
#[derive(Debug, Clone)]
enum Node {
    /// The subtree's single leaf, every row.
    Scan,
    /// Keeps the tuples on which every program is TRUE: the predicate's
    /// top-level conjuncts, compiled one by one so that each `column <op>
    /// literal` takes the program's stack-free path.
    Filter {
        input: Box<Node>,
        conjuncts: Vec<Program>,
    },
    /// A `Project` of bare columns: output position `i` is input position
    /// `positions[i]`. Tuples pass through untouched.
    Remap {
        input: Box<Node>,
        positions: Vec<usize>,
    },
    HashJoin {
        left: Box<Node>,
        right: Box<Node>,
        /// Leaves under `left`; the rest of the subtree's leaves are
        /// `right`'s.
        n_left: usize,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        residual: Option<Program>,
    },
    NestedLoopJoin {
        left: Box<Node>,
        right: Box<Node>,
        n_left: usize,
        predicate: Option<Program>,
    },
}

/// What a fragment's leaf slot reads.
#[derive(Debug, Clone)]
enum Leaf {
    Table(TableId),
    View(ViewId),
    /// The owned output of an operator that has to compute values below
    /// the root: a `HashAggregate` or a non-column `Project`.
    Sub(Box<Fragment>),
}

/// How a fragment's surviving tuples become owned rows — the one place
/// values are cloned.
#[derive(Debug, Clone)]
enum Output {
    /// Every output position (the plan's root is not a `HashAggregate` or
    /// a `Project` that computes).
    All,
    Program(OutputProgram),
}

/// A tree of [`Node`]s over borrowed leaves, ending in an [`Output`].
#[derive(Debug, Clone)]
struct Fragment {
    leaves: Vec<Leaf>,
    root: Node,
    output: Output,
}

/// A [`PhysicalPlan`] compiled for late materialization: base tables and
/// view contents are borrowed, every intermediate relation is a vector of
/// `u32` row-index tuples, predicates and output expressions are postfix
/// programs, and values are cloned once, into the result rows (and into
/// the owned output of an aggregate or computed projection that sits
/// under a join).
///
/// Compiling needs neither the data nor the schema, so a caller that
/// caches plans can compile once and [`CompiledPlan::run`] many times.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    root: Fragment,
}

impl CompiledPlan {
    /// Compile a plan.
    pub fn compile(plan: &PhysicalPlan) -> Self {
        CompiledPlan {
            root: Fragment::compile(plan),
        }
    }

    /// Execute to completion.
    pub fn run(&self, db: &Database, views: &ViewStore) -> Vec<Row> {
        self.root.run(db, views)
    }
}

/// Execute a physical plan to completion.
pub fn execute_plan(db: &Database, views: &ViewStore, plan: &PhysicalPlan) -> Vec<Row> {
    CompiledPlan::compile(plan).run(db, views)
}

impl Fragment {
    fn compile(plan: &PhysicalPlan) -> Self {
        let mut leaves = Vec::new();
        let (root, output) = match plan {
            // A `Project` of bare columns falls through to a `Remap` under
            // `Output::All`.
            PhysicalPlan::Project { input, exprs }
                if exprs.iter().any(|e| e.as_column().is_none()) =>
            {
                (
                    Node::compile(input, &mut leaves),
                    Output::Program(OutputProgram::project(exprs.iter(), &input_pos)),
                )
            }
            PhysicalPlan::HashAggregate {
                input,
                group_by,
                aggregates,
            } => (
                Node::compile(input, &mut leaves),
                Output::Program(OutputProgram::aggregate(
                    group_by.iter(),
                    aggregates.iter(),
                    &input_pos,
                )),
            ),
            other => (Node::compile(other, &mut leaves), Output::All),
        };
        Fragment {
            leaves,
            root,
            output,
        }
    }

    fn run(&self, db: &Database, views: &ViewStore) -> Vec<Row> {
        let owned: Vec<Vec<Row>> = self
            .leaves
            .iter()
            .map(|leaf| match leaf {
                Leaf::Sub(fragment) => fragment.run(db, views),
                Leaf::Table(_) | Leaf::View(_) => Vec::new(),
            })
            .collect();
        let leaves: Vec<&[Row]> = self
            .leaves
            .iter()
            .zip(&owned)
            .map(|(leaf, owned)| match leaf {
                Leaf::Table(table) => db.rows(*table),
                Leaf::View(view) => views.rows(*view),
                Leaf::Sub(_) => owned.as_slice(),
            })
            .collect();
        debug_assert!(
            leaves.iter().all(|rows| rows.len() <= u32::MAX as usize),
            "a leaf holds more rows than a u32 index can address"
        );
        let mut st = EvalStacks::default();
        let rel = self.root.run(&leaves, &mut st);
        match &self.output {
            Output::All => rel
                .tuples
                .chunks_exact(rel.stride)
                .map(|tuple| {
                    rel.cols
                        .iter()
                        .map(|&(slot, col)| leaves[slot][tuple[slot] as usize][col].clone())
                        .collect()
                })
                .collect(),
            Output::Program(program) => {
                let fetch = RelFetch {
                    leaves: &leaves,
                    cols: &rel.cols,
                };
                let mut rows = Vec::new();
                let mut groups = GroupTable::default();
                let mut key_buf = Vec::new();
                program.begin(&mut groups);
                for tuple in rel.tuples.chunks_exact(rel.stride) {
                    program.feed(&fetch, tuple, &mut st, &mut key_buf, &mut groups, &mut rows);
                }
                // A scalar aggregate over no tuples still yields its row.
                program.finish(&fetch, &mut groups, &mut rows);
                rows
            }
        }
    }
}

impl Node {
    /// Compile the operators of one fragment, appending the leaves they
    /// read to `leaves` in left-to-right order (a subtree's leaves are a
    /// contiguous run, which is what makes a join's output tuple the
    /// concatenation of its inputs').
    fn compile(plan: &PhysicalPlan, leaves: &mut Vec<Leaf>) -> Self {
        match plan {
            PhysicalPlan::TableScan { table } => {
                leaves.push(Leaf::Table(*table));
                Node::Scan
            }
            PhysicalPlan::ViewScan { view } => {
                leaves.push(Leaf::View(*view));
                Node::Scan
            }
            PhysicalPlan::Filter { input, predicate } => {
                let conjuncts = match predicate {
                    BoolExpr::And(parts) => parts.as_slice(),
                    single => std::slice::from_ref(single),
                };
                Node::Filter {
                    input: Box::new(Node::compile(input, leaves)),
                    conjuncts: conjuncts
                        .iter()
                        .map(|p| Program::compile_bool(p, &input_pos))
                        .collect(),
                }
            }
            PhysicalPlan::Project { input, exprs } => {
                let positions: Option<Vec<usize>> = exprs
                    .iter()
                    .map(|e| match e {
                        ScalarExpr::Column(c) => Some(input_pos(*c)),
                        _ => None,
                    })
                    .collect();
                match positions {
                    Some(positions) => Node::Remap {
                        input: Box::new(Node::compile(input, leaves)),
                        positions,
                    },
                    None => {
                        leaves.push(Leaf::Sub(Box::new(Fragment::compile(plan))));
                        Node::Scan
                    }
                }
            }
            PhysicalPlan::HashAggregate { .. } => {
                leaves.push(Leaf::Sub(Box::new(Fragment::compile(plan))));
                Node::Scan
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                residual,
            } => {
                let (left, right, n_left) = Node::compile_join_inputs(left, right, leaves);
                Node::HashJoin {
                    left,
                    right,
                    n_left,
                    left_keys: left_keys.clone(),
                    right_keys: right_keys.clone(),
                    residual: residual
                        .as_ref()
                        .map(|p| Program::compile_bool(p, &input_pos)),
                }
            }
            PhysicalPlan::NestedLoopJoin {
                left,
                right,
                predicate,
            } => {
                let (left, right, n_left) = Node::compile_join_inputs(left, right, leaves);
                Node::NestedLoopJoin {
                    left,
                    right,
                    n_left,
                    predicate: predicate
                        .as_ref()
                        .map(|p| Program::compile_bool(p, &input_pos)),
                }
            }
        }
    }

    /// Both inputs of a join, and how many leaves the left one reads.
    fn compile_join_inputs(
        left: &PhysicalPlan,
        right: &PhysicalPlan,
        leaves: &mut Vec<Leaf>,
    ) -> (Box<Node>, Box<Node>, usize) {
        let first = leaves.len();
        let left = Box::new(Node::compile(left, leaves));
        let n_left = leaves.len() - first;
        (left, Box::new(Node::compile(right, leaves)), n_left)
    }

    /// Both inputs of a join evaluated, or `None` as soon as one is empty
    /// (an inner join of nothing is nothing; the right input is then not
    /// run at all).
    fn run_join_inputs(
        left: &Node,
        right: &Node,
        n_left: usize,
        leaves: &[&[Row]],
        st: &mut EvalStacks,
    ) -> Option<(Rel, Rel)> {
        let (l_leaves, r_leaves) = leaves.split_at(n_left);
        let l = left.run(l_leaves, st);
        if l.is_empty() {
            return None;
        }
        let r = right.run(r_leaves, st);
        (!r.is_empty()).then_some((l, r))
    }

    /// Evaluate over `leaves`, the leaves of this subtree. An empty input
    /// short-circuits every operator above it before any position is
    /// resolved.
    fn run(&self, leaves: &[&[Row]], st: &mut EvalStacks) -> Rel {
        let stride = leaves.len();
        let rel = match self {
            Node::Scan => match leaves[0].first() {
                None => Rel::empty(1),
                Some(row) => Rel {
                    tuples: (0..leaves[0].len() as u32).collect(),
                    stride: 1,
                    cols: (0..row.len()).map(|col| (0, col)).collect(),
                },
            },
            Node::Filter { input, conjuncts } => {
                let mut rel = input.run(leaves, st);
                if !rel.is_empty() {
                    let fetch = RelFetch {
                        leaves,
                        cols: &rel.cols,
                    };
                    let n_rows = rel.len();
                    filter_tuples(conjuncts, &mut rel.tuples, stride, n_rows, &fetch, st);
                }
                rel
            }
            Node::Remap { input, positions } => {
                let rel = input.run(leaves, st);
                if rel.is_empty() {
                    return rel;
                }
                Rel {
                    cols: positions.iter().map(|&p| rel.cols[p]).collect(),
                    ..rel
                }
            }
            Node::HashJoin {
                left,
                right,
                n_left,
                left_keys,
                right_keys,
                residual,
            } => {
                let Some((l, r)) = Node::run_join_inputs(left, right, *n_left, leaves, st) else {
                    return Rel::empty(stride);
                };
                let (l_leaves, r_leaves) = leaves.split_at(*n_left);
                let l_side = JoinSide::new(&l, l_leaves, left_keys);
                let r_side = JoinSide::new(&r, r_leaves, right_keys);
                // Output tuples are left ++ right whichever side builds, so
                // the table goes on the input that is smaller right now.
                let build_left = l.len() <= r.len();
                let (build, probe) = if build_left {
                    (&l_side, &r_side)
                } else {
                    (&r_side, &l_side)
                };
                let table = BuildTable::new(build);
                let mut out = JoinOutput::new(&l, &r, leaves, residual.as_ref());
                for j in 0..probe.rel.len() {
                    let Some(bucket) = table.bucket(probe, j) else {
                        continue;
                    };
                    for i in table.chains.chain(bucket).map(|i| i as usize) {
                        if build.key(i).eq(probe.key(j)) {
                            let (li, ri) = if build_left { (i, j) } else { (j, i) };
                            out.push(li, ri, st);
                        }
                    }
                }
                out.finish()
            }
            Node::NestedLoopJoin {
                left,
                right,
                n_left,
                predicate,
            } => {
                let Some((l, r)) = Node::run_join_inputs(left, right, *n_left, leaves, st) else {
                    return Rel::empty(stride);
                };
                let mut out = JoinOutput::new(&l, &r, leaves, predicate.as_ref());
                for li in 0..l.len() {
                    for ri in 0..r.len() {
                        out.push(li, ri, st);
                    }
                }
                out.finish()
            }
        };
        debug_assert_eq!(rel.stride, stride, "relation stride is its leaf count");
        debug_assert_eq!(rel.tuples.len() % stride, 0, "partial index tuple");
        rel
    }
}

/// The output side of a join: candidate pairs are written as concatenated
/// index tuples and kept only if the residual predicate holds on them.
struct JoinOutput<'a> {
    l: &'a Rel,
    r: &'a Rel,
    leaves: &'a [&'a [Row]],
    predicate: Option<&'a Program>,
    cols: Vec<ColAddr>,
    tuples: Vec<u32>,
}

impl<'a> JoinOutput<'a> {
    fn new(
        l: &'a Rel,
        r: &'a Rel,
        leaves: &'a [&'a [Row]],
        predicate: Option<&'a Program>,
    ) -> Self {
        // Right-hand slots follow the left-hand ones in the output tuple.
        let shifted = r.cols.iter().map(|&(slot, col)| (slot + l.stride, col));
        JoinOutput {
            l,
            r,
            leaves,
            predicate,
            cols: l.cols.iter().copied().chain(shifted).collect(),
            tuples: Vec::new(),
        }
    }

    fn push(&mut self, li: usize, ri: usize, st: &mut EvalStacks) {
        let start = self.tuples.len();
        self.tuples.extend_from_slice(self.l.tuple(li));
        self.tuples.extend_from_slice(self.r.tuple(ri));
        if let Some(predicate) = self.predicate {
            let fetch = RelFetch {
                leaves: self.leaves,
                cols: &self.cols,
            };
            if predicate.eval_bool(&fetch, &self.tuples[start..], st) != Some(true) {
                self.tuples.truncate(start);
            }
        }
    }

    fn finish(self) -> Rel {
        Rel {
            tuples: self.tuples,
            stride: self.l.stride + self.r.stride,
            cols: self.cols,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::bag_eq;
    use crate::spjg::execute_spjg;
    use mv_data::{generate_tpch, TpchScale};
    use mv_expr::BoolExpr;
    use mv_expr::{CmpOp, ScalarExpr as S};
    use mv_plan::{AggFunc, NamedExpr, SpjgExpr};

    fn cr(col: u32) -> ColRef {
        ColRef::new(0, col)
    }

    #[test]
    fn hash_join_plan_equals_spjg_oracle() {
        let (db, t) = generate_tpch(&TpchScale::tiny(), 23);
        // Plan: lineitem JOIN orders ON l_orderkey = o_orderkey, project
        // l_partkey and o_custkey.
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::HashJoin {
                left: Box::new(PhysicalPlan::TableScan { table: t.lineitem }),
                right: Box::new(PhysicalPlan::TableScan { table: t.orders }),
                left_keys: vec![0],
                right_keys: vec![0],
                residual: None,
            }),
            exprs: vec![S::col(cr(1)), S::col(cr(17))], // l_partkey, o_custkey
        };
        let got = execute_plan(&db, &ViewStore::new(), &plan);
        let oracle = SpjgExpr::spj(
            vec![t.lineitem, t.orders],
            BoolExpr::col_eq(ColRef::new(0, 0), ColRef::new(1, 0)),
            vec![
                NamedExpr::new(S::col(ColRef::new(0, 1)), "l_partkey"),
                NamedExpr::new(S::col(ColRef::new(1, 1)), "o_custkey"),
            ],
        );
        let want = execute_spjg(&db, &oracle);
        assert!(bag_eq(&got, &want));
    }

    #[test]
    fn filter_and_aggregate_plan() {
        let (db, t) = generate_tpch(&TpchScale::tiny(), 23);
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::TableScan { table: t.orders }),
                predicate: BoolExpr::cmp(S::col(cr(1)), CmpOp::Le, S::lit(10i64)),
            }),
            group_by: vec![S::col(cr(1))],
            aggregates: vec![AggFunc::CountStar, AggFunc::Sum(S::col(cr(3)))],
        };
        let got = execute_plan(&db, &ViewStore::new(), &plan);
        for row in &got {
            let Value::Int(ck) = row[0] else { panic!() };
            assert!(ck <= 10);
        }
        let total: i64 = got
            .iter()
            .map(|r| match r[1] {
                Value::Int(c) => c,
                _ => panic!(),
            })
            .sum();
        let expected = db
            .rows(t.orders)
            .iter()
            .filter(|r| matches!(r[1], Value::Int(v) if v <= 10))
            .count() as i64;
        assert_eq!(total, expected);
    }

    #[test]
    fn view_scan_reads_store() {
        let (db, _) = generate_tpch(&TpchScale::tiny(), 23);
        let mut store = ViewStore::new();
        store.put(ViewId(3), vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        let plan = PhysicalPlan::ViewScan { view: ViewId(3) };
        assert_eq!(execute_plan(&db, &store, &plan).len(), 2);
        let plan = PhysicalPlan::ViewScan { view: ViewId(9) };
        assert!(execute_plan(&db, &store, &plan).is_empty());
    }

    #[test]
    fn nested_loop_cross_join() {
        let (db, t) = generate_tpch(&TpchScale::tiny(), 23);
        let plan = PhysicalPlan::NestedLoopJoin {
            left: Box::new(PhysicalPlan::TableScan { table: t.region }),
            right: Box::new(PhysicalPlan::TableScan { table: t.nation }),
            predicate: Some(BoolExpr::cmp(
                S::col(cr(0)),
                CmpOp::Eq,
                S::col(ColRef::new(0, 5)), // r_regionkey = n_regionkey (pos 3+2)
            )),
        };
        let got = execute_plan(&db, &ViewStore::new(), &plan);
        assert_eq!(got.len(), 25); // every nation joins exactly one region
    }
}

/// `ViewStore` does not know a view's arity, so an empty (or never `put`)
/// view gives the operators above it no width to resolve positions
/// against. Nothing is fetched from an empty relation; these plans must
/// return empty results (or the scalar aggregate's one row), not panic.
#[cfg(test)]
mod empty_view_tests {
    use super::*;
    use mv_data::{generate_tpch, TpchScale};
    use mv_expr::{BoolExpr, CmpOp, ScalarExpr as S};
    use mv_plan::AggFunc;

    const EMPTIED: ViewId = ViewId(4);
    const NEVER_PUT: ViewId = ViewId(5);

    fn col(pos: u32) -> S {
        S::col(ColRef::new(0, pos))
    }

    fn view_joined_to_orders(view: ViewId, view_on_left: bool) -> PhysicalPlan {
        let (_, t) = mv_catalog::tpch::tpch_catalog();
        let scan = Box::new(PhysicalPlan::ViewScan { view });
        let orders = Box::new(PhysicalPlan::TableScan { table: t.orders });
        let (left, right) = if view_on_left {
            (scan, orders)
        } else {
            (orders, scan)
        };
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys: vec![0],
            right_keys: vec![0],
            // Addresses positions on both sides of a width nobody knows.
            residual: Some(BoolExpr::cmp(col(1), CmpOp::Le, col(9))),
        }
    }

    fn for_each_empty_view(check: impl Fn(&Database, &ViewStore, ViewId)) {
        let (db, _) = generate_tpch(&TpchScale::tiny(), 23);
        let mut store = ViewStore::new();
        store.put(EMPTIED, Vec::new());
        for view in [EMPTIED, NEVER_PUT] {
            check(&db, &store, view);
        }
    }

    #[test]
    fn empty_view_as_build_side() {
        // The empty left input is the smaller one, hence the build side.
        for_each_empty_view(|db, store, view| {
            let plan = view_joined_to_orders(view, true);
            assert!(execute_plan(db, store, &plan).is_empty());
        });
    }

    #[test]
    fn empty_view_as_probe_side() {
        for_each_empty_view(|db, store, view| {
            let plan = view_joined_to_orders(view, false);
            assert!(execute_plan(db, store, &plan).is_empty());
        });
    }

    /// The shape the optimizer's `substitute_plan` emits for a substitute with
    /// a backjoin: view ⋈ base table, compensating filter, projection.
    fn backjoin_plan(view: ViewId) -> PhysicalPlan {
        let (_, t) = mv_catalog::tpch::tpch_catalog();
        PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::HashJoin {
                    left: Box::new(PhysicalPlan::ViewScan { view }),
                    right: Box::new(PhysicalPlan::TableScan { table: t.lineitem }),
                    left_keys: vec![0, 1],
                    right_keys: vec![0, 3],
                    residual: None,
                }),
                predicate: BoolExpr::cmp(col(6), CmpOp::Le, S::lit(25i64)),
            }),
            exprs: vec![col(0), col(7)],
        }
    }

    #[test]
    fn empty_view_under_a_backjoin_plan() {
        for_each_empty_view(|db, store, view| {
            assert!(execute_plan(db, store, &backjoin_plan(view)).is_empty());
        });
    }

    #[test]
    fn empty_view_under_a_scalar_aggregate() {
        for_each_empty_view(|db, store, view| {
            let plan = PhysicalPlan::HashAggregate {
                input: Box::new(backjoin_plan(view)),
                group_by: vec![],
                aggregates: vec![
                    AggFunc::CountStar,
                    AggFunc::Sum(col(1)),
                    AggFunc::SumZero(col(1)),
                ],
            };
            assert_eq!(
                execute_plan(db, store, &plan),
                vec![vec![Value::Int(0), Value::Null, Value::Int(0)]]
            );
            // Grouped, the same input has no group to report.
            let plan = PhysicalPlan::HashAggregate {
                input: Box::new(backjoin_plan(view)),
                group_by: vec![col(0)],
                aggregates: vec![AggFunc::CountStar],
            };
            assert!(execute_plan(db, store, &plan).is_empty());
        });
    }

    /// One compiled plan serves whatever the store holds when it runs.
    #[test]
    fn compiled_plan_follows_the_store() {
        let (db, t) = generate_tpch(&TpchScale::tiny(), 23);
        let compiled = CompiledPlan::compile(&backjoin_plan(EMPTIED));
        let mut store = ViewStore::new();
        assert!(compiled.run(&db, &store).is_empty());
        // (l_orderkey, l_linenumber) of every lineitem: each finds its row.
        let keys: Vec<Row> = db
            .rows(t.lineitem)
            .iter()
            .map(|r| vec![r[0].clone(), r[3].clone()])
            .collect();
        store.put(EMPTIED, keys);
        let kept = db
            .rows(t.lineitem)
            .iter()
            .filter(|r| matches!(r[4], Value::Int(q) if q <= 25))
            .count();
        assert!(kept > 0);
        assert_eq!(compiled.run(&db, &store).len(), kept);
        assert_eq!(compiled.run(&db, &store).len(), kept);
    }
}

#[cfg(test)]
mod layout_tests {
    use super::*;

    /// Whether a build side of `rows` keyed on `key` is addressed by
    /// offset. `physical_differential.rs` checks both layouts' answers.
    fn direct(rows: &[Row], key: &[usize]) -> bool {
        let leaves: [&[Row]; 1] = [rows];
        let rel = Rel {
            tuples: (0..rows.len() as u32).collect(),
            stride: 1,
            cols: (0..rows[0].len()).map(|col| (0, col)).collect(),
        };
        let side = JoinSide::new(&rel, &leaves, key);
        matches!(BuildTable::new(&side).layout, BuildLayout::Direct { .. })
    }

    fn one_key(keys: &[Value]) -> bool {
        let rows: Vec<Row> = keys.iter().map(|k| vec![k.clone()]).collect();
        direct(&rows, &[0])
    }

    #[test]
    fn the_build_keys_choose_the_layout() {
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
        assert!(!direct(&pairs, &[0, 1]));
        assert!(direct(&pairs, &[1]));
    }
}

#[cfg(test)]
mod residual_tests {
    use super::*;
    use mv_data::{generate_tpch, TpchScale};
    use mv_expr::{BoolExpr, CmpOp, ScalarExpr as S};

    /// Hash join with an extra residual predicate over the joined row.
    #[test]
    fn hash_join_residual_filters_pairs() {
        let (db, t) = generate_tpch(&TpchScale::tiny(), 31);
        // lineitem ⋈ orders on orderkey, keeping only pairs where the
        // lineitem shipped after the order date (always true by
        // construction) AND quantity <= 25 (roughly half).
        let residual = BoolExpr::and(vec![
            BoolExpr::cmp(
                S::col(ColRef::new(0, 10)),
                CmpOp::Gt,
                S::col(ColRef::new(0, 20)), // o_orderdate at 16 + 4
            ),
            BoolExpr::cmp(S::col(ColRef::new(0, 4)), CmpOp::Le, S::lit(25i64)),
        ]);
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(PhysicalPlan::TableScan { table: t.lineitem }),
            right: Box::new(PhysicalPlan::TableScan { table: t.orders }),
            left_keys: vec![0],
            right_keys: vec![0],
            residual: Some(residual),
        };
        let rows = execute_plan(&db, &ViewStore::new(), &plan);
        let expected = db
            .rows(t.lineitem)
            .iter()
            .filter(|r| matches!(r[4], Value::Int(q) if q <= 25))
            .count();
        assert_eq!(rows.len(), expected);
    }

    /// NULL join keys never match (SQL semantics).
    #[test]
    fn null_keys_do_not_join() {
        use mv_catalog::schema::TableBuilder;
        use mv_catalog::{Catalog, ColumnType};
        let mut cat = Catalog::new();
        let a = cat.add_table(
            TableBuilder::new("a")
                .nullable_col("x", ColumnType::Int)
                .build(),
        );
        let b = cat.add_table(
            TableBuilder::new("b")
                .nullable_col("y", ColumnType::Int)
                .build(),
        );
        let mut db = mv_data::Database::new(cat);
        db.load(a, vec![vec![Value::Int(1)], vec![Value::Null]]);
        db.load(b, vec![vec![Value::Int(1)], vec![Value::Null]]);
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(PhysicalPlan::TableScan { table: a }),
            right: Box::new(PhysicalPlan::TableScan { table: b }),
            left_keys: vec![0],
            right_keys: vec![0],
            residual: None,
        };
        let rows = execute_plan(&db, &ViewStore::new(), &plan);
        assert_eq!(rows.len(), 1, "only the 1-1 pair joins; NULLs never do");
    }
}
