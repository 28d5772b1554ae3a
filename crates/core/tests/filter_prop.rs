//! Property tests for the path-compressed filter tree: under arbitrary
//! insert / remove sequences a tree must answer exactly like the flat list
//! of its entries. Keys are drawn from a small token alphabet as variations
//! of a few base key tuples — two views usually agree on every level but
//! one — so chains split at every level, and equal keys land in the chain
//! that already holds them. A third property is the one the engine's
//! hashed text tokens rest on: merging tokens never drops a view. The
//! fourth draws tokens that share signature bits, so the indexes'
//! signature tests pass keys only the exact test rejects.
//!
//! Every property draws the tree's shape: each level's condition kind and
//! the order the tree nests the levels in. So a hitting level, which a
//! posting index holds, can be the root, a middle level or the last, as
//! can a lattice level of either kind.

use mv_core::{Condition, FilterTree, LevelSearch, TokenSet, AGG_NESTING, LEVEL_CONDITIONS};
use mv_plan::ViewId;
use proptest::prelude::*;
use Condition::{Hitting, Subset, Superset};

type Keys = Vec<Vec<u64>>;

/// A tree's shape: the condition of each level, in key order, and the
/// order the tree nests the levels in, root first.
#[derive(Debug, Clone)]
struct Shape {
    conditions: Vec<Condition>,
    nesting: Vec<usize>,
}

impl Shape {
    /// The first `depth` of the drawn conditions (0, 1, 2: subset,
    /// superset, hitting), nested in the order that sorts the levels by
    /// their drawn ranks.
    fn drawn(depth: usize, conditions: &[u8], ranks: &[u64]) -> Self {
        let mut nesting: Vec<usize> = (0..depth).collect();
        nesting.sort_by_key(|&level| ranks[level]);
        let kinds = [Subset, Superset, Hitting];
        Shape {
            conditions: conditions[..depth]
                .iter()
                .map(|&c| kinds[c as usize])
                .collect(),
            nesting,
        }
    }

    fn depth(&self) -> usize {
        self.conditions.len()
    }

    fn tree(&self) -> FilterTree {
        FilterTree::new(&self.nesting, &self.conditions)
    }
}

/// Each level's condition kind, for [`Shape::drawn`].
fn conditions() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..3, 8)
}

/// Each level's rank in the nesting, for [`Shape::drawn`].
fn ranks() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 8)
}

fn normalize(key: &[u64]) -> Vec<u64> {
    let mut key = key.to_vec();
    key.sort_unstable();
    key.dedup();
    key
}

fn set(tokens: &[u64]) -> TokenSet {
    TokenSet::new(tokens.iter().copied())
}

fn sets_of(classes: &[Vec<u64>]) -> Vec<TokenSet> {
    classes.iter().map(|c| set(c)).collect()
}

/// A probe for every level of a tree from drawn token sets.
fn searches(conditions: &[Condition], sets: &[Vec<u64>], classes: &[Vec<u64>]) -> Vec<LevelSearch> {
    conditions
        .iter()
        .zip(sets)
        .map(|(condition, drawn)| match condition {
            Subset => LevelSearch::Subset(set(drawn)),
            Superset => LevelSearch::Superset(set(drawn)),
            Hitting => LevelSearch::Hitting(sets_of(classes)),
        })
        .collect()
}

/// The probe a stored entry poses to itself: every level accepts its key.
fn self_searches(conditions: &[Condition], keys: &Keys) -> Vec<LevelSearch> {
    keys.iter()
        .zip(conditions)
        .map(|(key, condition)| match condition {
            Subset => LevelSearch::Subset(set(key)),
            Superset => LevelSearch::Superset(set(key)),
            Hitting => LevelSearch::Hitting(key.iter().map(|&t| set(&[t])).collect()),
        })
        .collect()
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

/// `search` by a flat scan of the entries.
fn scan(entries: &[(ViewId, Keys)], probe: &[LevelSearch]) -> Vec<ViewId> {
    sorted(
        entries
            .iter()
            .filter(|(_, keys)| probe.iter().zip(keys).all(|(s, key)| s.accepts(key)))
            .map(|(view, _)| *view)
            .collect(),
    )
}

/// One step: the base tuple to vary, the level to vary it at (a level past
/// the tree's depth leaves the base as it is), the key to put there, and
/// whether the step removes instead of inserting.
type Step = (usize, usize, Vec<u64>, bool);

fn run(shape: &Shape, bases: &[Keys], steps: &[Step], sets: &[Vec<u64>], classes: &[Vec<u64>]) {
    let (depth, conditions) = (shape.depth(), &shape.conditions);
    let mut tree = shape.tree();
    let mut model: Vec<(ViewId, Keys)> = Vec::new();
    let probe = searches(conditions, sets, classes);
    let mut next_view = 0;
    for (base, level, key, remove) in steps {
        let mut keys: Keys = bases[*base][..depth].to_vec();
        if *level < depth {
            keys[*level] = key.clone();
        }
        let stored: Keys = keys.iter().map(|k| normalize(k)).collect();
        if *remove {
            // Take out a view filed under exactly these keys, if any;
            // whichever view it is, the keys decide.
            let at = model.iter().position(|(_, k)| *k == stored);
            let view = at.map_or(ViewId(u32::MAX), |i| model[i].0);
            prop_assert_eq!(tree.remove(&keys, view), at.is_some());
            if let Some(i) = at {
                model.remove(i);
                prop_assert!(!tree.remove(&keys, view));
            }
        } else {
            tree.insert(&keys, ViewId(next_view));
            model.push((ViewId(next_view), stored.clone()));
            next_view += 1;
        }

        let entries = tree.entries();
        prop_assert_eq!(sorted(entries.clone()), sorted(model.clone()));
        prop_assert_eq!(tree.len(), entries.len());
        prop_assert_eq!(tree.is_empty(), entries.is_empty());
        for view in (0..next_view).map(ViewId) {
            let filed = entries.contains(&(view, stored.clone()));
            prop_assert_eq!(tree.contains(&keys, view), filed);
        }
        for (view, keys) in &entries {
            prop_assert!(tree.contains(keys, *view));
        }
        prop_assert_eq!(sorted(tree.search(&probe)), scan(&entries, &probe));
        let own = self_searches(conditions, &stored);
        let found = sorted(tree.search(&own));
        prop_assert_eq!(&found, &scan(&entries, &own));
        let mut filed = entries.iter().filter(|(_, k)| *k == stored);
        prop_assert!(filed.all(|(view, _)| found.contains(view)));
        // A probe around the step's keys: every level accepts them through
        // sets and classes that hold other tokens too.
        let around = probe_around(conditions, &stored, sets, classes);
        prop_assert_eq!(sorted(tree.search(&around)), scan(&entries, &around));
    }

    // The shape follows the stored set, not the order it arrived in: a
    // tree rebuilt from the entries back to front, odd positions first,
    // answers alike.
    let entries = tree.entries();
    let (even, odd): (Vec<_>, Vec<_>) = entries
        .iter()
        .rev()
        .enumerate()
        .partition(|(i, _)| i % 2 == 0);
    let mut rebuilt = shape.tree();
    for (_, (view, keys)) in odd.into_iter().chain(even) {
        rebuilt.insert(keys, *view);
    }
    prop_assert_eq!(sorted(rebuilt.entries()), sorted(entries.clone()));
    prop_assert_eq!(sorted(rebuilt.search(&probe)), scan(&entries, &probe));
    for (_, keys) in &entries {
        let own = self_searches(conditions, keys);
        prop_assert_eq!(sorted(rebuilt.search(&own)), sorted(tree.search(&own)));
    }
}

/// `key` with every token sent through `merge`, a map on the alphabet.
fn merged(key: &[u64], merge: &[u64]) -> Vec<u64> {
    key.iter().map(|&t| merge[t as usize]).collect()
}

/// A probe that accepts `keys` and, by chance, others: each subset set is
/// the key plus drawn tokens, each superset set the drawn tokens the key
/// holds, each class a drawn one plus a token of the key (no class for
/// an empty key, which none can hit).
fn probe_around(
    conditions: &[Condition],
    keys: &[Vec<u64>],
    sets: &[Vec<u64>],
    classes: &[Vec<u64>],
) -> Vec<LevelSearch> {
    keys.iter()
        .zip(conditions)
        .zip(sets)
        .map(|((key, condition), drawn)| match condition {
            Subset => LevelSearch::Subset(set(&[key.as_slice(), drawn].concat())),
            Superset => LevelSearch::Superset(TokenSet::new(
                drawn.iter().copied().filter(|t| key.contains(t)),
            )),
            Hitting => LevelSearch::Hitting(match key.first() {
                Some(&t) => classes
                    .iter()
                    .map(|c| set(&[c.as_slice(), &[t]].concat()))
                    .collect(),
                None => Vec::new(),
            }),
        })
        .collect()
}

/// The same probe with every token sent through `merge`.
fn merged_probe(probe: &[LevelSearch], merge: &[u64]) -> Vec<LevelSearch> {
    probe
        .iter()
        .map(|search| match search {
            LevelSearch::Subset(s) => LevelSearch::Subset(set(&merged(s.tokens(), merge))),
            LevelSearch::Superset(s) => LevelSearch::Superset(set(&merged(s.tokens(), merge))),
            LevelSearch::Hitting(classes) => LevelSearch::Hitting(
                classes
                    .iter()
                    .map(|c| set(&merged(c.tokens(), merge)))
                    .collect(),
            ),
        })
        .collect()
}

/// The engine's template-text tokens are hashes, and two texts whose
/// hashes collide share one token. That is safe because merging tokens
/// never drops a view: each level condition that holds between a stored
/// key and a search still holds once any token-merging map is applied to
/// both, so a merged search returns every view the unmerged one did. The
/// probes are built around the stored views, so each returns at least one.
fn merging_keeps_every_view(
    shape: &Shape,
    views: &[Keys],
    sets: &[Vec<u64>],
    classes: &[Vec<u64>],
    merge: &[u64],
) {
    let depth = shape.depth();
    let mut tree = shape.tree();
    let mut merged_tree = shape.tree();
    for (i, keys) in views.iter().enumerate() {
        let keys = &keys[..depth];
        tree.insert(keys, ViewId(i as u32));
        let keys: Keys = keys.iter().map(|k| merged(k, merge)).collect();
        merged_tree.insert(&keys, ViewId(i as u32));
    }
    for keys in views {
        let probe = probe_around(&shape.conditions, &keys[..depth], sets, classes);
        let before = tree.search(&probe);
        let after = merged_tree.search(&merged_probe(&probe, merge));
        prop_assert!(!before.is_empty());
        prop_assert!(
            before.iter().all(|view| after.contains(view)),
            "merged search {:?} lost a view of {:?}",
            sorted(after),
            sorted(before)
        );
    }
}

fn key() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..4, 0..3)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn six_level_tree_equals_flat_scan(
        conditions in conditions(),
        ranks in ranks(),
        bases in prop::collection::vec(prop::collection::vec(key(), 8), 3),
        steps in prop::collection::vec((0usize..3, 0usize..9, key(), any::<bool>()), 1..40),
        sets in prop::collection::vec(prop::collection::vec(0u64..4, 0..5), 8),
        classes in prop::collection::vec(prop::collection::vec(0u64..4, 1..3), 0..3),
    ) {
        run(&Shape::drawn(6, &conditions, &ranks), &bases, &steps, &sets, &classes);
    }

    #[test]
    fn eight_level_tree_equals_flat_scan(
        conditions in conditions(),
        ranks in ranks(),
        bases in prop::collection::vec(prop::collection::vec(key(), 8), 3),
        steps in prop::collection::vec((0usize..3, 0usize..9, key(), any::<bool>()), 1..40),
        sets in prop::collection::vec(prop::collection::vec(0u64..4, 0..5), 8),
        classes in prop::collection::vec(prop::collection::vec(0u64..4, 1..3), 0..3),
    ) {
        run(&Shape::drawn(8, &conditions, &ranks), &bases, &steps, &sets, &classes);
    }

    #[test]
    fn merging_tokens_never_drops_a_view(
        depth in prop::sample::select(vec![6usize, 8]),
        conditions in conditions(),
        ranks in ranks(),
        views in prop::collection::vec(prop::collection::vec(key(), 8), 1..24),
        sets in prop::collection::vec(prop::collection::vec(0u64..4, 0..5), 8),
        classes in prop::collection::vec(prop::collection::vec(0u64..4, 1..3), 0..3),
        merge in prop::collection::vec(0u64..4, 4),
    ) {
        let shape = Shape::drawn(depth, &conditions, &ranks);
        merging_keeps_every_view(&shape, &views, &sets, &classes, &merge);
    }
}

/// Twelve tokens in four groups of three; the tokens of a group share
/// their one signature bit, and the groups' bits differ.
fn colliding_tokens() -> Vec<u64> {
    let bit = |t: u64| TokenSet::new([t]).sig();
    let mut groups: Vec<Vec<u64>> = Vec::new();
    for t in 0u64.. {
        match groups.iter().position(|g| bit(g[0]) == bit(t)) {
            Some(at) if groups[at].len() < 3 => groups[at].push(t),
            Some(_) => {}
            None if groups.len() < 4 => groups.push(vec![t]),
            None => {}
        }
        if groups.len() == 4 && groups.iter().all(|g| g.len() == 3) {
            return groups.concat();
        }
    }
    unreachable!("every bit is hit")
}

fn colliding_key() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(prop::sample::select(colliding_tokens()), 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The flat-scan properties over tokens that share signature bits: an
    /// index search whose signature test passed a key the exact test
    /// rejects must still answer like the scan, at every condition kind.
    #[test]
    fn colliding_signatures_equal_flat_scan(
        depth in prop::sample::select(vec![6usize, 8]),
        conditions in conditions(),
        ranks in ranks(),
        bases in prop::collection::vec(prop::collection::vec(colliding_key(), 8), 3),
        steps in prop::collection::vec((0usize..3, 0usize..9, colliding_key(), any::<bool>()), 1..40),
        sets in prop::collection::vec(colliding_key(), 8),
        classes in prop::collection::vec(
            prop::collection::vec(prop::sample::select(colliding_tokens()), 1..4),
            0..3,
        ),
    ) {
        run(&Shape::drawn(depth, &conditions, &ranks), &bases, &steps, &sets, &classes);
    }
}

/// The copy-on-write contract the online catalog relies on, at the layer
/// that implements it: a clone shares the original's nodes, and a write to
/// the clone that splits one of the original's chains — at any level —
/// leaves the original as it was. The shapes are the engine's, nested as
/// the engine nests them and in key order.
#[test]
fn splitting_a_chain_in_a_clone_leaves_the_original_alone() {
    let engine = |depth: usize| Shape {
        conditions: LEVEL_CONDITIONS[..depth].to_vec(),
        nesting: AGG_NESTING.iter().copied().filter(|&l| l < depth).collect(),
    };
    let key_order = |depth: usize| Shape {
        nesting: (0..depth).collect(),
        ..engine(depth)
    };
    for shape in [engine(6), engine(8), key_order(6), key_order(8)] {
        let depth = shape.depth();
        let keys: Keys = (0..depth as u64).map(|level| vec![1, 10 + level]).collect();
        let other: Keys = (0..depth as u64).map(|level| vec![2, 10 + level]).collect();
        let mut original = shape.tree();
        original.insert(&keys, ViewId(0));
        original.insert(&keys, ViewId(1));
        original.insert(&other, ViewId(2));
        let entries = sorted(original.entries());
        let own = self_searches(&shape.conditions, &keys);

        for level in 0..depth {
            let mut clone = original.clone();
            let mut split = keys.clone();
            split[level] = vec![1, 99];
            clone.insert(&split, ViewId(3));
            assert!(clone.remove(&keys, ViewId(1)));
            assert_eq!(clone.len(), 3);
            assert!(clone.contains(&split, ViewId(3)));
            assert_eq!(sorted(clone.search(&own)), [ViewId(0)]);

            assert_eq!(original.len(), 3);
            assert_eq!(sorted(original.entries()), entries);
            assert_eq!(sorted(original.search(&own)), [ViewId(0), ViewId(1)]);
            assert!(!original.contains(&split, ViewId(3)));
        }
    }
}
