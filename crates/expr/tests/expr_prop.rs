//! Property tests for the expression layer.

use mv_catalog::Value;
use mv_expr::{classify, BoolExpr, Bound, CmpOp, ColRef, EquivClasses, Interval, ScalarExpr as S};
use proptest::prelude::*;

/// Strategy: a random interval built from a sequence of range predicates
/// over integers.
fn ops() -> impl Strategy<Value = (CmpOp, i64)> {
    (
        prop::sample::select(vec![CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ge, CmpOp::Gt]),
        -50i64..50,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// The accumulated interval accepts exactly the values every source
    /// predicate accepts (intervals = conjunction of range predicates).
    #[test]
    fn interval_accumulation_equals_predicate_conjunction(
        preds in prop::collection::vec(ops(), 0..5),
        samples in prop::collection::vec(-60i64..60, 20),
    ) {
        let mut iv = Interval::unconstrained();
        let mut applied = Vec::new();
        for (op, v) in &preds {
            if iv.apply(*op, &Value::Int(*v)) {
                applied.push((*op, *v));
            }
        }
        for x in samples {
            let expect = applied
                .iter()
                .all(|(op, v)| op.evaluate(x.cmp(v)));
            prop_assert_eq!(
                iv.contains_value(&Value::Int(x)),
                expect,
                "x={} iv={} preds={:?}", x, iv, applied
            );
        }
    }

    /// Containment really means containment: if `a.contains(b)` then every
    /// value in `b` is in `a`; and compensation narrows `a` exactly to `b`.
    #[test]
    fn containment_and_compensation_are_exact(
        pa in prop::collection::vec(ops(), 0..4),
        pb in prop::collection::vec(ops(), 0..4),
        samples in prop::collection::vec(-60i64..60, 30),
    ) {
        let mut a = Interval::unconstrained();
        for (op, v) in &pa { a.apply(*op, &Value::Int(*v)); }
        let mut b = a.clone();
        for (op, v) in &pb { b.apply(*op, &Value::Int(*v)); }
        // b was built by tightening a, so a must contain b.
        prop_assert_eq!(a.contains(&b), Some(true));
        let comp = a.compensation(&b);
        for x in samples {
            let in_a = a.contains_value(&Value::Int(x));
            let in_b = b.contains_value(&Value::Int(x));
            let passes_comp = comp
                .iter()
                .all(|(op, v)| match v {
                    Value::Int(v) => op.evaluate(x.cmp(v)),
                    _ => unreachable!(),
                });
            prop_assert_eq!(in_a && passes_comp, in_b,
                "x={} a={} b={} comp={:?}", x, a, b, comp);
        }
    }

    /// Equivalence classes equal the transitive closure of the equality
    /// edges.
    #[test]
    fn union_find_is_transitive_closure(
        edges in prop::collection::vec((0u32..8, 0u32..8), 0..15),
        qa in 0u32..8,
        qb in 0u32..8,
    ) {
        let col = |i: u32| ColRef::new(0, i);
        let ec = EquivClasses::from_pairs(edges.iter().map(|&(a, b)| (col(a), col(b))));
        // Floyd-Warshall style closure over 8 nodes.
        let mut reach = [[false; 8]; 8];
        #[allow(clippy::needless_range_loop)]
        for i in 0..8 { reach[i][i] = true; }
        for &(a, b) in &edges {
            reach[a as usize][b as usize] = true;
            reach[b as usize][a as usize] = true;
        }
        for k in 0..8 {
            for i in 0..8 {
                for j in 0..8 {
                    if reach[i][k] && reach[k][j] {
                        reach[i][j] = true;
                    }
                }
            }
        }
        prop_assert_eq!(ec.same(col(qa), col(qb)), reach[qa as usize][qb as usize]);
    }

    /// CNF conversion preserves three-valued semantics on random
    /// assignments (including NULLs).
    #[test]
    fn cnf_preserves_semantics(
        seed_vals in prop::collection::vec(prop::option::of(-5i64..5), 4),
        shape in 0u32..64,
    ) {
        let col = |i: u32| S::col(ColRef::new(0, i));
        // Build a small random boolean expression from the shape bits.
        let leaf = |i: u32, negate: bool| {
            let c = BoolExpr::cmp(col(i % 4), CmpOp::Lt, S::lit(((i as i64) % 3) - 1));
            if negate { BoolExpr::Not(Box::new(c)) } else { c }
        };
        let e = BoolExpr::or(vec![
            BoolExpr::and(vec![leaf(shape & 3, shape & 4 != 0), leaf((shape >> 3) & 3, shape & 8 != 0)]),
            BoolExpr::Not(Box::new(BoolExpr::or(vec![
                leaf((shape >> 4) & 3, false),
                leaf(shape & 3, true),
            ]))),
        ]);
        let row = |c: ColRef| match seed_vals[c.col.0 as usize] {
            Some(v) => Value::Int(v),
            None => Value::Null,
        };
        let direct = e.eval(&row);
        let cnf = BoolExpr::and(e.clone().to_cnf()).eval(&row);
        prop_assert_eq!(direct, cnf);
        // Classification + reassembly also preserves semantics.
        let conjuncts = classify(e);
        let again = mv_expr::conjuncts_to_bool(&conjuncts).eval(&row);
        prop_assert_eq!(direct, again);
    }
}

/// Strategy: a raw interval endpoint — kind 0 is unbounded, 1 inclusive,
/// 2 exclusive. Building bounds directly (instead of via `apply`) reaches
/// open/closed corner cases such as `(4, 5)` and `[5, 5)` that predicate
/// accumulation rarely produces.
fn endpoint() -> impl Strategy<Value = (u32, i64)> {
    (0u32..3, -10i64..10)
}

fn mk_bound((kind, v): (u32, i64)) -> Bound {
    match kind {
        0 => Bound::Unbounded,
        1 => Bound::Incl(Value::Int(v)),
        _ => Bound::Excl(Value::Int(v)),
    }
}

fn mk_interval(lo: (u32, i64), hi: (u32, i64)) -> Interval {
    Interval {
        lo: mk_bound(lo),
        hi: mk_bound(hi),
    }
}

/// Integer points straddling the endpoint range, used as the brute-force
/// point-membership model. Note the model is one-sided for emptiness and
/// non-containment: open real intervals like `(4, 5)` contain no integers,
/// so only the sound directions are asserted.
const POINTS: std::ops::RangeInclusive<i64> = -12..=12;

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Intersection is pointwise conjunction of memberships, and is
    /// commutative, for arbitrary open/closed/unbounded endpoints.
    #[test]
    fn intersect_agrees_with_point_model(
        alo in endpoint(), ahi in endpoint(),
        blo in endpoint(), bhi in endpoint(),
    ) {
        let a = mk_interval(alo, ahi);
        let b = mk_interval(blo, bhi);
        let c = a.clone().intersect(&b).expect("Int bounds are comparable");
        let c2 = b.clone().intersect(&a).expect("Int bounds are comparable");
        prop_assert_eq!(&c, &c2, "intersection must be commutative");
        for x in POINTS {
            let v = Value::Int(x);
            prop_assert_eq!(
                c.contains_value(&v),
                a.contains_value(&v) && b.contains_value(&v),
                "x={} a={} b={} c={}", x, a, b, c
            );
        }
    }

    /// `contains` and `is_empty` are sound against the point model: a
    /// claimed containment implies pointwise subset, a pointwise
    /// counterexample refutes containment, and an empty interval holds no
    /// integer points.
    #[test]
    fn contains_and_is_empty_are_sound_on_points(
        alo in endpoint(), ahi in endpoint(),
        blo in endpoint(), bhi in endpoint(),
    ) {
        let a = mk_interval(alo, ahi);
        let b = mk_interval(blo, bhi);
        let subset = POINTS.clone().all(|x| {
            !b.contains_value(&Value::Int(x)) || a.contains_value(&Value::Int(x))
        });
        if a.contains(&b) == Some(true) {
            prop_assert!(subset, "a={} claims to contain b={}", a, b);
        }
        if !subset {
            prop_assert_ne!(a.contains(&b), Some(true), "a={} b={}", a, b);
        }
        for iv in [&a, &b] {
            if iv.is_empty() {
                for x in POINTS {
                    prop_assert!(!iv.contains_value(&Value::Int(x)),
                        "empty interval {} contains {}", iv, x);
                }
            }
        }
    }

    /// Compensation narrows the containing interval exactly to the
    /// contained one, for arbitrary endpoint kinds (the contained interval
    /// is built by intersection, which guarantees containment).
    #[test]
    fn compensation_exact_on_contained_pairs(
        alo in endpoint(), ahi in endpoint(),
        rlo in endpoint(), rhi in endpoint(),
    ) {
        let a = mk_interval(alo, ahi);
        let r = mk_interval(rlo, rhi);
        let b = a.clone().intersect(&r).expect("Int bounds are comparable");
        prop_assert_eq!(a.contains(&b), Some(true), "a={} b=a∩{}={}", a, r, b);
        let comp = a.compensation(&b);
        for x in POINTS {
            let v = Value::Int(x);
            let passes = comp.iter().all(|(op, cv)| match cv {
                Value::Int(cv) => op.evaluate(x.cmp(cv)),
                _ => unreachable!("integer intervals compensate with Int"),
            });
            prop_assert_eq!(
                a.contains_value(&v) && passes,
                b.contains_value(&v),
                "x={} a={} b={} comp={:?}", x, a, b, comp
            );
        }
    }

    /// `absorb` is idempotent: absorbing the same classes a second time —
    /// or absorbing a structure into itself — changes nothing.
    #[test]
    fn absorb_is_idempotent(
        ea in prop::collection::vec((0u32..8, 0u32..8), 0..12),
        eb in prop::collection::vec((0u32..8, 0u32..8), 0..12),
    ) {
        let col = |i: u32| ColRef::new(0, i);
        let mut a = EquivClasses::from_pairs(ea.iter().map(|&(x, y)| (col(x), col(y))));
        let b = EquivClasses::from_pairs(eb.iter().map(|&(x, y)| (col(x), col(y))));
        a.absorb(&b);
        let once = a.nontrivial_classes();
        a.absorb(&b);
        prop_assert_eq!(&a.nontrivial_classes(), &once, "second absorb changed classes");
        let self_copy = a.clone();
        a.absorb(&self_copy);
        prop_assert_eq!(&a.nontrivial_classes(), &once, "self-absorb changed classes");
    }

    /// `from_pairs` is order-independent: reversing the edge list and
    /// swapping edge endpoints yields the same equivalence classes.
    #[test]
    fn from_pairs_order_independent(
        edges in prop::collection::vec((0u32..8, 0u32..8), 0..15),
    ) {
        let col = |i: u32| ColRef::new(0, i);
        let forward = EquivClasses::from_pairs(edges.iter().map(|&(a, b)| (col(a), col(b))));
        let backward =
            EquivClasses::from_pairs(edges.iter().rev().map(|&(a, b)| (col(b), col(a))));
        prop_assert_eq!(forward.nontrivial_classes(), backward.nontrivial_classes());
    }

    /// `nontrivial_classes` is in canonical form: every class sorted with
    /// at least two members, classes sorted by first member, pairwise
    /// disjoint, and membership agrees with `same`.
    #[test]
    fn nontrivial_classes_canonical(
        edges in prop::collection::vec((0u32..8, 0u32..8), 0..15),
    ) {
        let col = |i: u32| ColRef::new(0, i);
        let ec = EquivClasses::from_pairs(edges.iter().map(|&(a, b)| (col(a), col(b))));
        let classes = ec.nontrivial_classes();
        let mut seen = std::collections::HashSet::new();
        for class in &classes {
            prop_assert!(class.len() >= 2, "trivial class {:?}", class);
            prop_assert!(class.windows(2).all(|w| w[0] < w[1]),
                "class not strictly sorted: {:?}", class);
            for &m in class {
                prop_assert!(seen.insert(m), "member {:?} appears in two classes", m);
                prop_assert!(ec.same(class[0], m));
            }
        }
        prop_assert!(
            classes.windows(2).all(|w| w[0][0] < w[1][0]),
            "classes not sorted by first member"
        );
    }
}

/// The two-`HashMap` union-find `EquivClasses` was before it became one
/// sorted vector, kept as the reference the flat structure must agree
/// with: same roots, same union results, same enumerations.
mod reference {
    use mv_expr::ColRef;
    use std::collections::HashMap;

    #[derive(Default)]
    pub struct HashClasses {
        parent: HashMap<ColRef, ColRef>,
        size: HashMap<ColRef, u32>,
    }

    impl HashClasses {
        fn find_internal(&mut self, c: ColRef) -> ColRef {
            match self.parent.get(&c) {
                None => c,
                Some(&p) if p == c => c,
                Some(&p) => {
                    let root = self.find_internal(p);
                    if root != p {
                        self.parent.insert(c, root);
                    }
                    root
                }
            }
        }

        pub fn find(&self, mut c: ColRef) -> ColRef {
            while let Some(&p) = self.parent.get(&c) {
                if p == c {
                    break;
                }
                c = p;
            }
            c
        }

        pub fn union(&mut self, a: ColRef, b: ColRef) -> bool {
            let ra = self.find_internal(a);
            let rb = self.find_internal(b);
            if ra == rb {
                return false;
            }
            let sa = *self.size.get(&ra).unwrap_or(&1);
            let sb = *self.size.get(&rb).unwrap_or(&1);
            let (big, small) = if sa >= sb { (ra, rb) } else { (rb, ra) };
            self.parent.insert(small, big);
            self.parent.entry(big).or_insert(big);
            self.size.insert(big, sa + sb);
            true
        }

        pub fn same(&self, a: ColRef, b: ColRef) -> bool {
            self.find(a) == self.find(b)
        }

        pub fn is_trivial(&self, c: ColRef) -> bool {
            match self.parent.get(&c) {
                None => true,
                Some(_) => *self.size.get(&self.find(c)).unwrap_or(&1) <= 1,
            }
        }

        pub fn class_of(&self, c: ColRef) -> Vec<ColRef> {
            let root = self.find(c);
            let mut members: Vec<ColRef> = self
                .parent
                .keys()
                .copied()
                .filter(|&k| self.find(k) == root)
                .collect();
            if members.is_empty() {
                members.push(c);
            }
            members.sort();
            members
        }

        /// `(root, sorted members)` per class, sorted by root: what
        /// `class_index` materializes.
        pub fn classes_by_root(&self) -> Vec<(ColRef, Vec<ColRef>)> {
            let mut by_root: HashMap<ColRef, Vec<ColRef>> = HashMap::new();
            for &k in self.parent.keys() {
                by_root.entry(self.find(k)).or_default().push(k);
            }
            let mut classes: Vec<(ColRef, Vec<ColRef>)> = by_root
                .into_iter()
                .map(|(root, mut members)| {
                    members.sort();
                    (root, members)
                })
                .collect();
            classes.sort_by_key(|(root, _)| *root);
            classes
        }

        pub fn nontrivial_classes(&self) -> Vec<Vec<ColRef>> {
            let mut classes: Vec<Vec<ColRef>> = self
                .classes_by_root()
                .into_iter()
                .map(|(_, members)| members)
                .filter(|v| v.len() >= 2)
                .collect();
            classes.sort();
            classes
        }
    }
}

/// Columns the union sequences draw from: 20 over three occurrences; the
/// property also probes the 4 columns past them, which no union touches.
const UNION_COLS: u32 = 20;
const PROBE_COLS: u32 = 24;

fn ucol(i: u32) -> ColRef {
    ColRef::new(i % 3, i / 3)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// The flat union-find agrees with the two-`HashMap` reference on
    /// random union sequences — self-unions, repeated pairs and a long
    /// chain spliced in at a random point included: every `union` returns
    /// the same, `find` names the same root after each union, and at the
    /// end `same`, `is_trivial`, `class_of`, `nontrivial_classes` and
    /// `class_index` agree on every column, seen or not.
    #[test]
    fn flat_union_find_matches_hashmap_reference(
        ops in prop::collection::vec((0..UNION_COLS, 0..UNION_COLS, any::<bool>()), 0..40),
        chain_at in 0usize..40,
        chain_len in 0u32..UNION_COLS,
        chain_reversed in any::<bool>(),
    ) {
        // A self-union when the flag is set; the chain links consecutive
        // columns, in either direction, so path compression has long paths
        // to shorten.
        let mut pairs: Vec<(u32, u32)> =
            ops.iter().map(|&(a, b, selfie)| (a, if selfie { a } else { b })).collect();
        let chain = (0..chain_len).map(|i| {
            if chain_reversed { (i + 1, i) } else { (i, i + 1) }
        });
        let at = chain_at.min(pairs.len());
        pairs.splice(at..at, chain);

        let mut flat = EquivClasses::new();
        let mut reference = reference::HashClasses::default();
        for (step, &(a, b)) in pairs.iter().enumerate() {
            let (a, b) = (ucol(a), ucol(b));
            prop_assert_eq!(flat.union(a, b), reference.union(a, b),
                "union({:?}, {:?}) at step {}", a, b, step);
            for i in 0..PROBE_COLS {
                prop_assert_eq!(flat.find(ucol(i)), reference.find(ucol(i)),
                    "root of {:?} after step {}", ucol(i), step);
            }
        }

        let index = flat.class_index();
        let reference_classes = reference.classes_by_root();
        for i in 0..PROBE_COLS {
            let c = ucol(i);
            prop_assert_eq!(flat.is_trivial(c), reference.is_trivial(c), "is_trivial({:?})", c);
            prop_assert_eq!(flat.class_of(c), reference.class_of(c), "class_of({:?})", c);
            let root = reference.find(c);
            let expected = reference_classes
                .iter()
                .find(|(r, _)| *r == root)
                .map(|(_, m)| m.as_slice());
            prop_assert_eq!(index.members(flat.find(c)), expected, "members of {:?}", c);
            for j in 0..PROBE_COLS {
                prop_assert_eq!(flat.same(c, ucol(j)), reference.same(c, ucol(j)));
            }
        }
        prop_assert_eq!(flat.nontrivial_classes(), reference.nontrivial_classes());
        let nontrivial: Vec<&[ColRef]> = index.nontrivial().collect();
        let expected: Vec<&[ColRef]> = reference_classes
            .iter()
            .filter(|(_, m)| m.len() >= 2)
            .map(|(_, m)| m.as_slice())
            .collect();
        prop_assert_eq!(nontrivial, expected);
    }
}
