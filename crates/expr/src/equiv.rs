//! Column equivalence classes (section 3.1.1 of the paper).
//!
//! "Knowledge about column equivalences can be captured compactly by
//! computing a set of equivalence classes based on the column equality
//! predicates in `PE`. ... Begin with each column of the tables referenced
//! by the expression in a separate set. Then loop through the column
//! equality predicates in any order ... if they are in different sets merge
//! the two sets."
//!
//! Implemented as a union-find over [`ColRef`]s with path compression and
//! union by size, plus enumeration of class members (needed for *extended*
//! output lists in section 4.2.3 and for rerouting column references).
//!
//! The structure is one vector of `(column, parent, size)` entries sorted by
//! column and searched by binary search: a block's classes hold a few dozen
//! columns, so a search over one contiguous array beats hashing, and a clone
//! is one copy (the matcher clones the query's classes per join core it
//! extends, DESIGN.md §13.6).

use crate::colref::ColRef;

/// Union-find over column references.
///
/// Columns never mentioned in any predicate or registration implicitly form
/// trivial singleton classes; [`EquivClasses::class_of`] handles them
/// without requiring registration.
///
/// Which column is a class's root is part of the contract: range maps are
/// keyed by roots, and compensations and substitutes visit classes in root
/// order. Union by size with ties to the first argument's root fixes it.
#[derive(Debug, Clone, Default)]
pub struct EquivClasses {
    /// One entry per column a merging [`EquivClasses::union`] touched,
    /// sorted by column.
    nodes: Vec<Node>,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    col: ColRef,
    /// The column itself for a root.
    parent: ColRef,
    /// The class size; read for roots only.
    size: u32,
}

impl EquivClasses {
    /// Empty structure: every column is its own class.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build directly from a list of equality pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (ColRef, ColRef)>) -> Self {
        let mut ec = Self::new();
        for (a, b) in pairs {
            ec.union(a, b);
        }
        ec
    }

    fn pos(&self, c: ColRef) -> Result<usize, usize> {
        self.nodes.binary_search_by_key(&c, |n| n.col)
    }

    /// [`EquivClasses::find`], then point every column on the path at the
    /// root.
    fn find_internal(&mut self, c: ColRef) -> ColRef {
        let root = self.find(c);
        let mut x = c;
        while x != root {
            let i = self.pos(x).expect("a column on a path has an entry");
            x = std::mem::replace(&mut self.nodes[i].parent, root);
        }
        root
    }

    /// Size of the class rooted at `root`.
    fn root_size(&self, root: ColRef) -> u32 {
        self.pos(root).map_or(1, |i| self.nodes[i].size)
    }

    /// Canonical representative of the class containing `c` (no mutation;
    /// follows parent pointers without compressing).
    pub fn find(&self, mut c: ColRef) -> ColRef {
        while let Ok(i) = self.pos(c) {
            let p = self.nodes[i].parent;
            if p == c {
                break;
            }
            c = p;
        }
        c
    }

    /// Merge the classes of `a` and `b` (applying one column-equality
    /// predicate). Returns `true` if the classes were previously distinct.
    pub fn union(&mut self, a: ColRef, b: ColRef) -> bool {
        let ra = self.find_internal(a);
        let rb = self.find_internal(b);
        if ra == rb {
            return false;
        }
        let sa = self.root_size(ra);
        let sb = self.root_size(rb);
        let (big, small) = if sa >= sb { (ra, rb) } else { (rb, ra) };
        match self.pos(small) {
            Ok(i) => self.nodes[i].parent = big,
            Err(i) => self.nodes.insert(
                i,
                Node {
                    col: small,
                    parent: big,
                    size: 1,
                },
            ),
        }
        match self.pos(big) {
            Ok(i) => self.nodes[i].size = sa + sb,
            Err(i) => self.nodes.insert(
                i,
                Node {
                    col: big,
                    parent: big,
                    size: sa + sb,
                },
            ),
        }
        debug_assert!(
            self.nodes.windows(2).all(|w| w[0].col < w[1].col),
            "entries sorted by column"
        );
        true
    }

    /// Are `a` and `b` known to be equal?
    pub fn same(&self, a: ColRef, b: ColRef) -> bool {
        self.find(a) == self.find(b)
    }

    /// Is `c` part of a non-trivial class (equal to at least one other
    /// column)? Used by the *reduced range constraint list* (section 4.2.5)
    /// and the hub refinement (section 4.2.2).
    pub fn is_trivial(&self, c: ColRef) -> bool {
        self.pos(c).is_err() || self.root_size(self.find(c)) <= 1
    }

    /// All members of the class containing `c` (at least `[c]` itself).
    pub fn class_of(&self, c: ColRef) -> Vec<ColRef> {
        let root = self.find(c);
        let mut members: Vec<ColRef> = self
            .nodes
            .iter()
            .map(|n| n.col)
            .filter(|&k| self.find(k) == root)
            .collect();
        if members.is_empty() {
            members.push(c);
        }
        members
    }

    /// Every class with two or more members, each sorted, classes sorted by
    /// first member. These are the "non-trivial equivalence classes" whose
    /// containment the equijoin subsumption test checks.
    pub fn nontrivial_classes(&self) -> Vec<Vec<ColRef>> {
        let mut classes: Vec<Vec<ColRef>> = self
            .by_root()
            .into_iter()
            .filter(|(_, v)| v.len() >= 2)
            .map(|(_, v)| v)
            .collect();
        classes.sort();
        classes
    }

    /// Materialize every class once, for hot loops that would otherwise
    /// call [`EquivClasses::class_of`] (a full scan) per probed column.
    pub fn class_index(&self) -> ClassIndex {
        ClassIndex {
            classes: self.by_root(),
        }
    }

    /// Every class with an entry as `(root, sorted members)`, sorted by
    /// root.
    fn by_root(&self) -> Vec<(ColRef, Vec<ColRef>)> {
        let mut pairs: Vec<(ColRef, ColRef)> = self
            .nodes
            .iter()
            .map(|n| (self.find(n.col), n.col))
            .collect();
        pairs.sort_unstable();
        let mut classes: Vec<(ColRef, Vec<ColRef>)> = Vec::new();
        for (root, c) in pairs {
            match classes.last_mut() {
                Some((r, members)) if *r == root => members.push(c),
                _ => classes.push((root, vec![c])),
            }
        }
        classes
    }

    /// Merge every equality from `other` into `self`. Used when the query's
    /// equivalence classes are extended with the join conditions of
    /// eliminated extra tables (section 3.2): "we scan the join conditions
    /// of all foreign-key edges deleted during the elimination process and
    /// apply them to query equivalence classes".
    pub fn absorb(&mut self, other: &EquivClasses) {
        for class in other.nontrivial_classes() {
            for pair in class.windows(2) {
                self.union(pair[0], pair[1]);
            }
        }
    }
}

/// Every class of an [`EquivClasses`] materialized once: `(root, sorted
/// members)` pairs sorted by root. Built by
/// [`EquivClasses::class_index`]; lookups replace the per-probe full
/// scan of [`EquivClasses::class_of`] with a binary search.
#[derive(Debug, Clone, Default)]
pub struct ClassIndex {
    classes: Vec<(ColRef, Vec<ColRef>)>,
}

impl ClassIndex {
    /// The sorted members of the class rooted at `root` (the caller
    /// passes `ec.find(c)`), or `None` for a column the structure never
    /// saw — the probe's class is then just `[c]` itself.
    pub fn members(&self, root: ColRef) -> Option<&[ColRef]> {
        self.classes
            .binary_search_by_key(&root, |(r, _)| *r)
            .ok()
            .map(|i| self.classes[i].1.as_slice())
    }

    /// The classes with two or more members, ascending by root — the same
    /// class set as [`EquivClasses::nontrivial_classes`] (which orders by
    /// smallest member instead; callers whose per-class work is
    /// order-independent can iterate this without re-deriving the list).
    pub fn nontrivial(&self) -> impl Iterator<Item = &[ColRef]> {
        self.classes
            .iter()
            .filter(|(_, m)| m.len() >= 2)
            .map(|(_, m)| m.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(occ: u32, col: u32) -> ColRef {
        ColRef::new(occ, col)
    }

    #[test]
    fn transitivity() {
        // Paper, equijoin subsumption test discussion: view (A=B, B=C),
        // query (A=C, C=B) — both imply A=B=C.
        let mut v = EquivClasses::new();
        v.union(c(0, 0), c(0, 1)); // A=B
        v.union(c(0, 1), c(0, 2)); // B=C
        let mut q = EquivClasses::new();
        q.union(c(0, 0), c(0, 2)); // A=C
        q.union(c(0, 2), c(0, 1)); // C=B
        assert_eq!(v.nontrivial_classes(), q.nontrivial_classes());
        assert!(v.same(c(0, 0), c(0, 2)));
    }

    #[test]
    fn union_returns_whether_merged() {
        let mut ec = EquivClasses::new();
        assert!(ec.union(c(0, 0), c(1, 0)));
        assert!(!ec.union(c(1, 0), c(0, 0)));
    }

    #[test]
    fn trivial_classes() {
        let mut ec = EquivClasses::new();
        ec.union(c(0, 0), c(1, 0));
        assert!(!ec.is_trivial(c(0, 0)));
        assert!(ec.is_trivial(c(5, 5))); // never seen
        assert_eq!(ec.class_of(c(5, 5)), vec![c(5, 5)]);
    }

    #[test]
    fn class_enumeration() {
        let mut ec = EquivClasses::new();
        ec.union(c(0, 0), c(1, 0));
        ec.union(c(1, 0), c(2, 0));
        ec.union(c(0, 5), c(1, 5));
        let classes = ec.nontrivial_classes();
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0], vec![c(0, 0), c(1, 0), c(2, 0)]);
        assert_eq!(classes[1], vec![c(0, 5), c(1, 5)]);
    }

    #[test]
    fn absorb_merges_classes() {
        let mut a = EquivClasses::new();
        a.union(c(0, 0), c(1, 0));
        let mut b = EquivClasses::new();
        b.union(c(1, 0), c(2, 0));
        b.union(c(3, 3), c(4, 4));
        a.absorb(&b);
        assert!(a.same(c(0, 0), c(2, 0)));
        assert!(a.same(c(3, 3), c(4, 4)));
    }

    #[test]
    fn find_without_mutation() {
        let mut ec = EquivClasses::new();
        ec.union(c(0, 0), c(1, 0));
        ec.union(c(1, 0), c(2, 0));
        let ec2 = ec.clone();
        // Chains resolve to the same root from both endpoints.
        assert_eq!(ec2.find(c(0, 0)), ec2.find(c(2, 0)));
    }
}
