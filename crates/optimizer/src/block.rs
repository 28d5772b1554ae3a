//! Analysis of a query block for the memo: conjunct coverage, join-graph
//! connectivity, and the required output columns of every table subset.

use mv_expr::{ColRef, OccId};
use mv_plan::{OutputList, SpjgExpr};
use std::collections::BTreeSet;

/// A subset of table occurrences as a bitmask (bit `i` = occurrence `i`).
pub type Subset = u64;

/// Precomputed per-block analysis shared by the optimizer's groups.
#[derive(Debug)]
pub struct BlockInfo<'a> {
    /// The query block.
    pub expr: &'a SpjgExpr,
    /// Occurrence bitmask of each conjunct.
    pub conjunct_masks: Vec<Subset>,
    /// Columns referenced by the block's output (projection or grouping
    /// plus aggregate arguments).
    pub output_columns: Vec<ColRef>,
    /// The full set of occurrences.
    pub all: Subset,
    /// The connected subsets, highest mask first.
    connected: Vec<Subset>,
}

/// Bitmask of the occurrences referenced by a set of columns.
fn mask_of(cols: &[ColRef]) -> Subset {
    cols.iter().fold(0, |m, c| m | (1 << c.occ.0))
}

impl<'a> BlockInfo<'a> {
    /// Analyze a block.
    pub fn new(expr: &'a SpjgExpr) -> Self {
        let conjunct_masks: Vec<Subset> = expr
            .conjuncts
            .iter()
            .map(|c| mask_of(&c.columns()))
            .collect();
        let mut output_columns = Vec::new();
        match &expr.output {
            OutputList::Spj(items) => {
                for ne in items {
                    ne.expr.collect_columns(&mut output_columns);
                }
            }
            OutputList::Aggregate {
                group_by,
                aggregates,
            } => {
                for ne in group_by {
                    ne.expr.collect_columns(&mut output_columns);
                }
                for na in aggregates {
                    if let Some(arg) = na.func.argument() {
                        arg.collect_columns(&mut output_columns);
                    }
                }
            }
        }
        output_columns.sort();
        output_columns.dedup();
        let all = if expr.tables.is_empty() {
            0
        } else {
            (1u64 << expr.tables.len()) - 1
        };
        let connected = grow_connected(expr.tables.len(), &conjunct_masks);
        BlockInfo {
            expr,
            conjunct_masks,
            output_columns,
            all,
            connected,
        }
    }

    /// Occurrences in a subset, ascending.
    pub fn members(&self, s: Subset) -> impl Iterator<Item = OccId> {
        (0..self.expr.tables.len() as u32)
            .filter(move |i| s & (1 << i) != 0)
            .map(OccId)
    }

    /// Conjunct indices fully covered by `s` (every referenced occurrence
    /// inside the subset). A conjunct with no columns (constant) has mask 0
    /// and is covered by every subset.
    pub fn covered(&self, s: Subset) -> impl Iterator<Item = usize> + '_ {
        self.conjunct_masks
            .iter()
            .enumerate()
            .filter(move |(_, &m)| m & !s == 0)
            .map(|(i, _)| i)
    }

    /// Conjunct indices covered by `s` but by neither `a` nor `b` — the
    /// predicates applied when joining `a` and `b` into `s = a | b`.
    pub fn newly_covered(&self, a: Subset, b: Subset) -> impl Iterator<Item = usize> + '_ {
        let s = a | b;
        self.conjunct_masks
            .iter()
            .enumerate()
            .filter(move |(_, &m)| m & !s == 0 && (m & !a != 0) && (m & !b != 0))
            .map(|(i, _)| i)
    }

    /// Is the subset connected in the join graph (occurrences linked by
    /// conjuncts)? Singletons are connected; a cross join is not, so the
    /// memo never enumerates cartesian intermediates unless the whole
    /// query is a cross product.
    pub fn connected(&self, s: Subset) -> bool {
        self.connected.binary_search_by(|c| s.cmp(c)).is_ok()
    }

    /// The *required* columns of a subset: every column of an occurrence in
    /// `s` that is referenced either by a conjunct not yet fully covered by
    /// `s` (it will be applied higher up) or by the block's output.
    /// Returned in canonical (sorted) order — this is the output layout of
    /// the subset's memo group.
    pub fn required_columns(&self, s: Subset) -> Vec<ColRef> {
        let mut out: Vec<ColRef> = Vec::new();
        for (conj, &m) in self.expr.conjuncts.iter().zip(&self.conjunct_masks) {
            if m & !s != 0 {
                for c in conj.columns() {
                    if s & (1 << c.occ.0) != 0 {
                        out.push(c);
                    }
                }
            }
        }
        for &c in &self.output_columns {
            if s & (1 << c.occ.0) != 0 {
                out.push(c);
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// All connected subsets, ordered by size (singletons first), and by
    /// mask within a size.
    pub fn connected_subsets(&self) -> Vec<Subset> {
        let mut subsets = self.connected.clone();
        subsets.sort_by_key(|&s| (s.count_ones(), s));
        subsets
    }

    /// The splits of `s` into two connected parts, each given by its left
    /// part `a` (the right one is `s & !a`), highest `a` first: the order
    /// of a walk down the submasks of `s`, so ties between splits break
    /// the way such a walk breaks them. Only connected subsets are
    /// visited, not every submask.
    pub fn splits(&self, s: Subset) -> impl Iterator<Item = Subset> + '_ {
        let below = self.connected.partition_point(|&a| a >= s);
        self.connected[below..]
            .iter()
            .copied()
            .filter(move |&a| a & !s == 0 && self.connected(s & !a))
    }
}

/// The connected subsets of `n` occurrences under conjuncts of the given
/// masks, highest mask first. Each is grown from a smaller one by a
/// conjunct that reaches out of it: a conjunct connects its occurrences
/// only inside a subset that holds all of them. A chain of `n` has
/// `n (n + 1) / 2` of them, found without looking at the other masks; a
/// star or a clique still has exponentially many.
fn grow_connected(n: usize, conjunct_masks: &[Subset]) -> Vec<Subset> {
    let mut edges: Vec<Subset> = conjunct_masks
        .iter()
        .copied()
        .filter(|m| m.count_ones() > 1)
        .collect();
    edges.sort_unstable();
    edges.dedup();
    let mut found: BTreeSet<Subset> = (0..n).map(|i| 1 << i).collect();
    let mut todo: Vec<Subset> = found.iter().copied().collect();
    while let Some(s) = todo.pop() {
        for &m in &edges {
            if m & s != 0 && m & !s != 0 && found.insert(s | m) {
                todo.push(s | m);
            }
        }
    }
    found.into_iter().rev().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_catalog::tpch::tpch_catalog;
    use mv_expr::{BoolExpr, CmpOp, ScalarExpr as S};
    use mv_plan::NamedExpr;

    fn cr(occ: u32, col: u32) -> ColRef {
        ColRef::new(occ, col)
    }

    /// lineitem(0) ⋈ orders(1) ⋈ customer(2) chain.
    fn chain_block() -> SpjgExpr {
        let (_, t) = tpch_catalog();
        let pred = BoolExpr::and(vec![
            BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
            BoolExpr::col_eq(cr(1, 1), cr(2, 0)),
            BoolExpr::cmp(S::col(cr(2, 5)), CmpOp::Gt, S::lit(0i64)),
        ]);
        SpjgExpr::spj(
            vec![t.lineitem, t.orders, t.customer],
            pred,
            vec![NamedExpr::new(S::col(cr(0, 4)), "l_quantity")],
        )
    }

    #[test]
    fn connectivity_follows_join_graph() {
        let block = chain_block();
        let info = BlockInfo::new(&block);
        assert!(info.connected(0b001));
        assert!(info.connected(0b011)); // lineitem-orders
        assert!(info.connected(0b110)); // orders-customer
        assert!(!info.connected(0b101)); // lineitem-customer: no direct edge
        assert!(info.connected(0b111));
        assert!(!info.connected(0));
        // Connected subsets: 3 singletons + 2 pairs + 1 triple.
        assert_eq!(info.connected_subsets().len(), 6);
        // Splits of the whole chain, highest left part first; {lineitem,
        // customer} is no part.
        assert!(info.splits(0b111).eq([0b110, 0b100, 0b011, 0b001]));
    }

    #[test]
    fn grown_subsets_are_the_connected_masks() {
        // Occurrences 0-2 linked only by one three-way conjunct, 2-3 and
        // 4-5 by edges, 6 by nothing; a constant and a local conjunct.
        let masks = [0b000_0111, 0b000_1100, 0b011_0000, 0b100_0000, 0];
        // The definition: a conjunct spreads reach only inside `s`.
        let connected = |s: Subset| {
            let mut reached = s & s.wrapping_neg();
            loop {
                let grown = masks
                    .iter()
                    .filter(|&&m| m & !s == 0 && m & reached != 0)
                    .fold(reached, |r, m| r | m);
                if grown == reached {
                    return reached == s;
                }
                reached = grown;
            }
        };
        let want: Vec<Subset> = (1..1 << 7).rev().filter(|&s| connected(s)).collect();
        assert_eq!(grow_connected(7, &masks), want);
        // {0, 1} alone does not hold the three-way conjunct.
        assert!(!want.contains(&0b011) && want.contains(&0b111) && want.contains(&0b1111));
    }

    #[test]
    fn conjunct_coverage() {
        let block = chain_block();
        let info = BlockInfo::new(&block);
        // Joining {lineitem} with {orders} covers the first equijoin only.
        assert!(info.newly_covered(0b001, 0b010).eq([0]));
        // Joining {lineitem, orders} with {customer} covers the second.
        assert!(info.newly_covered(0b011, 0b100).eq([1]));
        // The single-table range on customer is covered by {customer}.
        assert!(info.covered(0b100).any(|i| i == 2));
    }

    #[test]
    fn required_columns_shrink_at_the_top() {
        let block = chain_block();
        let info = BlockInfo::new(&block);
        // {lineitem} must keep the join column and the output column.
        assert_eq!(info.required_columns(0b001), vec![cr(0, 0), cr(0, 4)]);
        // {lineitem, orders} still owes o_custkey to the customer join.
        let req = info.required_columns(0b011);
        assert!(req.contains(&cr(1, 1)));
        assert!(req.contains(&cr(0, 4)));
        assert!(!req.contains(&cr(0, 0)), "l_orderkey applied inside");
        // At the top only the output column remains.
        assert_eq!(info.required_columns(0b111), vec![cr(0, 4)]);
    }

    #[test]
    fn aggregate_arguments_are_output_columns() {
        let (_, t) = tpch_catalog();
        use mv_plan::{AggFunc, NamedAgg};
        let block = SpjgExpr::aggregate(
            vec![t.lineitem, t.orders],
            BoolExpr::col_eq(cr(0, 0), cr(1, 0)),
            vec![NamedExpr::new(S::col(cr(1, 1)), "o_custkey")],
            vec![NamedAgg::new(AggFunc::Sum(S::col(cr(0, 5))), "total")],
        );
        let info = BlockInfo::new(&block);
        assert!(info.output_columns.contains(&cr(0, 5)));
        assert!(info.output_columns.contains(&cr(1, 1)));
        assert!(info.required_columns(0b01).contains(&cr(0, 5)));
    }
}
