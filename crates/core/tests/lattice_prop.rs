//! Property tests for the lattice index: under arbitrary insertion
//! sequences (and edits to the filed values), subset/superset/monotone
//! searches must visit exactly what a naive scan over the stored key sets
//! returns. The index files one value per key set, so the tests file a
//! `Vec<usize>` per key and push every insertion's number onto it.

use mv_core::LatticeIndex;
use proptest::prelude::*;

type Index = LatticeIndex<u8, Vec<usize>>;

fn is_subset(a: &[u8], b: &[u8]) -> bool {
    a.iter().all(|x| b.contains(x))
}

fn normalize(mut v: Vec<u8>) -> Vec<u8> {
    v.sort();
    v.dedup();
    v
}

/// File insertion `i` under each `keys[i]`.
fn build(keys: &[Vec<u8>]) -> Index {
    let mut idx = Index::new();
    for (i, k) in keys.iter().enumerate() {
        idx.get_or_insert_with(&normalize(k.clone()), Vec::new)
            .push(i);
    }
    idx
}

fn subsets_of(idx: &Index, probe: &[u8]) -> Vec<usize> {
    let mut out = Vec::new();
    idx.for_each_subset_value(probe, |v| out.extend(v));
    out.sort();
    out
}

fn supersets_of(idx: &Index, probe: &[u8]) -> Vec<usize> {
    let mut out = Vec::new();
    idx.for_each_superset_value(probe, |v| out.extend(v));
    out.sort();
    out
}

/// The insertions whose key satisfies `keep`, by a scan of `keys`.
fn naive(keys: &[Vec<u8>], keep: impl Fn(&[u8]) -> bool) -> Vec<usize> {
    keys.iter()
        .enumerate()
        .filter(|(_, k)| keep(&normalize((*k).clone())))
        .map(|(i, _)| i)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn search_equals_naive_scan(
        keys in prop::collection::vec(prop::collection::vec(0u8..12, 0..6), 1..40),
        probe in prop::collection::vec(0u8..12, 0..6),
    ) {
        let idx = build(&keys);
        let probe = normalize(probe);
        prop_assert_eq!(subsets_of(&idx, &probe), naive(&keys, |k| is_subset(k, &probe)));
        prop_assert_eq!(supersets_of(&idx, &probe), naive(&keys, |k| is_subset(&probe, k)));
        // Insertion order changes the links built, never the answers.
        let reversed: Vec<Vec<u8>> = keys.iter().rev().cloned().collect();
        let ridx = build(&reversed);
        let renumbered = |found: Vec<usize>| {
            let mut found: Vec<usize> = found.iter().map(|i| keys.len() - 1 - i).collect();
            found.sort();
            found
        };
        prop_assert_eq!(renumbered(subsets_of(&ridx, &probe)), subsets_of(&idx, &probe));
        prop_assert_eq!(renumbered(supersets_of(&ridx, &probe)), supersets_of(&idx, &probe));
        // Exact lookup and iteration see every stored key set once.
        let mut stored: Vec<Vec<u8>> = keys.iter().cloned().map(normalize).collect();
        stored.sort();
        stored.dedup();
        prop_assert_eq!(idx.node_count(), stored.len());
        let mut listed: Vec<Vec<u8>> = idx.iter().map(|(k, _)| k.to_vec()).collect();
        listed.sort();
        prop_assert_eq!(&listed, &stored);
        prop_assert_eq!(idx.peek(&probe).is_some(), stored.contains(&probe));
    }

    #[test]
    fn edits_through_peek_mut_respect_searches(
        keys in prop::collection::vec(prop::collection::vec(0u8..10, 0..5), 1..25),
        remove_mask in prop::collection::vec(any::<bool>(), 1..25),
        probe in prop::collection::vec(0u8..10, 0..5),
    ) {
        // The filter tree takes a view out by editing the value filed
        // under its key; the node stays as structure.
        let mut idx = build(&keys);
        let nodes = idx.node_count();
        let mut alive: Vec<bool> = vec![true; keys.len()];
        for (i, k) in keys.iter().enumerate() {
            if *remove_mask.get(i).unwrap_or(&false) {
                let filed = idx.peek_mut(&normalize(k.clone())).expect("key was filed");
                let at = filed.iter().position(|&v| v == i).expect("insertion was filed");
                filed.remove(at);
                alive[i] = false;
            }
        }
        prop_assert_eq!(idx.node_count(), nodes);
        let probe = normalize(probe);
        let mut expected = naive(&keys, |k| is_subset(k, &probe));
        expected.retain(|&i| alive[i]);
        prop_assert_eq!(subsets_of(&idx, &probe), expected);
    }

    #[test]
    fn refiling_a_key_reuses_its_node(
        key in prop::collection::vec(0u8..8, 0..5),
        copies in 1usize..6,
        probe_extra in prop::collection::vec(0u8..8, 0..3),
    ) {
        // Filing under the same key set again (including the empty key)
        // must reach the one node, and every search that reaches the key
        // must visit its value exactly once.
        let keys = vec![key.clone(); copies];
        let idx = build(&keys);
        prop_assert_eq!(idx.node_count(), 1);
        let all: Vec<usize> = (0..copies).collect();

        let key_n = normalize(key);
        let mut probe = key_n.clone();
        probe.extend(probe_extra.iter().copied());
        let probe = normalize(probe);
        prop_assert_eq!(subsets_of(&idx, &probe), all.clone());

        // The empty probe finds the key via the superset search, and via
        // the subset search exactly when the key itself is empty.
        prop_assert_eq!(supersets_of(&idx, &[]), all.clone());
        let subs = subsets_of(&idx, &[]);
        prop_assert_eq!(subs, if key_n.is_empty() { all } else { Vec::new() });
    }

    #[test]
    fn monotone_hitting_search_equals_naive(
        keys in prop::collection::vec(prop::collection::vec(0u8..10, 0..5), 1..30),
        classes in prop::collection::vec(prop::collection::vec(0u8..10, 1..4), 0..4),
    ) {
        let idx = build(&keys);
        let hits = |k: &[u8]| classes.iter().all(|cl| cl.iter().any(|e| k.contains(e)));
        let mut found: Vec<usize> = Vec::new();
        idx.for_each_monotone_down_value(hits, |v| found.extend(v));
        found.sort();
        prop_assert_eq!(found, naive(&keys, hits));
    }
}
