//! Property tests for the lattice index and the posting index: under
//! arbitrary insertion sequences (and edits to the filed values), the
//! lattice's subset/superset searches and the posting index's hitting
//! searches must visit exactly what a naive scan over the stored key sets
//! returns. Each index files one value per key set, so the tests file a
//! `Vec<usize>` per key and push every insertion's number onto it.
//!
//! Every node carries its key's signature, and a search tests it before
//! the key. Small alphabets give each token a bit of its own; the
//! colliding-signature properties draw from tokens that share bits, where
//! the signature test passes keys that only the exact test rejects.

use mv_core::{LatticeIndex, PostingIndex, TokenSet};
use proptest::prelude::*;

type Index = LatticeIndex<Vec<usize>>;
type Postings = PostingIndex<Vec<usize>>;

fn is_subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().all(|x| b.contains(x))
}

fn normalize(mut v: Vec<u64>) -> Vec<u64> {
    v.sort();
    v.dedup();
    v
}

/// File insertion `i` under each `keys[i]`.
fn build(keys: &[Vec<u64>]) -> Index {
    let mut idx = Index::new();
    for (i, k) in keys.iter().enumerate() {
        idx.get_or_insert_with(&normalize(k.clone()), Vec::new)
            .push(i);
    }
    idx
}

/// File insertion `i` under each `keys[i]` in a posting index.
fn build_postings(keys: &[Vec<u64>]) -> Postings {
    let mut idx = Postings::new();
    for (i, k) in keys.iter().enumerate() {
        idx.get_or_insert_with(&normalize(k.clone()), Vec::new)
            .push(i);
    }
    idx
}

fn subsets_of(idx: &Index, probe: &[u64]) -> Vec<usize> {
    let mut out = Vec::new();
    idx.for_each_subset_value(&TokenSet::new(probe.iter().copied()), |v| out.extend(v));
    out.sort();
    out
}

fn supersets_of(idx: &Index, probe: &[u64]) -> Vec<usize> {
    let mut out = Vec::new();
    idx.for_each_superset_value(&TokenSet::new(probe.iter().copied()), |v| out.extend(v));
    out.sort();
    out
}

fn hitting(idx: &Postings, classes: &[Vec<u64>]) -> Vec<usize> {
    let classes: Vec<TokenSet> = classes.iter().map(|c| TokenSet::new(c.clone())).collect();
    let mut found: Vec<usize> = Vec::new();
    idx.for_each_hitting_value(&classes, |v| found.extend(v));
    found.sort();
    found
}

/// The insertions whose key satisfies `keep`, by a scan of `keys`.
fn naive(keys: &[Vec<u64>], keep: impl Fn(&[u64]) -> bool) -> Vec<usize> {
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
        keys in prop::collection::vec(prop::collection::vec(0u64..12, 0..6), 1..40),
        probe in prop::collection::vec(0u64..12, 0..6),
    ) {
        let idx = build(&keys);
        let probe = normalize(probe);
        prop_assert_eq!(subsets_of(&idx, &probe), naive(&keys, |k| is_subset(k, &probe)));
        prop_assert_eq!(supersets_of(&idx, &probe), naive(&keys, |k| is_subset(&probe, k)));
        // Insertion order changes the links built, never the answers.
        let reversed: Vec<Vec<u64>> = keys.iter().rev().cloned().collect();
        let ridx = build(&reversed);
        let renumbered = |found: Vec<usize>| {
            let mut found: Vec<usize> = found.iter().map(|i| keys.len() - 1 - i).collect();
            found.sort();
            found
        };
        prop_assert_eq!(renumbered(subsets_of(&ridx, &probe)), subsets_of(&idx, &probe));
        prop_assert_eq!(renumbered(supersets_of(&ridx, &probe)), supersets_of(&idx, &probe));
        // Exact lookup and iteration see every stored key set once.
        let mut stored: Vec<Vec<u64>> = keys.iter().cloned().map(normalize).collect();
        stored.sort();
        stored.dedup();
        prop_assert_eq!(idx.node_count(), stored.len());
        let mut listed: Vec<Vec<u64>> = idx.iter().map(|(k, _)| k.to_vec()).collect();
        listed.sort();
        prop_assert_eq!(&listed, &stored);
        prop_assert_eq!(idx.peek(&probe).is_some(), stored.contains(&probe));
    }

    #[test]
    fn edits_through_peek_mut_respect_searches(
        keys in prop::collection::vec(prop::collection::vec(0u64..10, 0..5), 1..25),
        remove_mask in prop::collection::vec(any::<bool>(), 1..25),
        probe in prop::collection::vec(0u64..10, 0..5),
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
        key in prop::collection::vec(0u64..8, 0..5),
        copies in 1usize..6,
        probe_extra in prop::collection::vec(0u64..8, 0..3),
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
        keys in prop::collection::vec(prop::collection::vec(0u64..10, 0..5), 1..30),
        classes in prop::collection::vec(prop::collection::vec(0u64..10, 1..4), 0..4),
    ) {
        let idx = build_postings(&keys);
        prop_assert_eq!(hitting(&idx, &classes), naive(&keys, |k| hits(k, &classes)));
        // Insertion order changes the node ids and the lists' order, never
        // the answers; exact lookup and iteration see every key set once.
        let reversed: Vec<Vec<u64>> = keys.iter().rev().cloned().collect();
        let mut found: Vec<usize> = hitting(&build_postings(&reversed), &classes)
            .iter()
            .map(|i| keys.len() - 1 - i)
            .collect();
        found.sort();
        prop_assert_eq!(found, hitting(&idx, &classes));
        let mut stored: Vec<Vec<u64>> = keys.iter().cloned().map(normalize).collect();
        stored.sort();
        stored.dedup();
        prop_assert_eq!(idx.node_count(), stored.len());
        let mut listed: Vec<Vec<u64>> = idx.iter().map(|(k, _)| k.to_vec()).collect();
        listed.sort();
        prop_assert_eq!(&listed, &stored);
        for key in &stored {
            prop_assert!(idx.peek(key).is_some());
        }
    }

    #[test]
    fn edits_through_peek_mut_respect_hitting_searches(
        keys in prop::collection::vec(prop::collection::vec(0u64..10, 0..5), 1..25),
        remove_mask in prop::collection::vec(any::<bool>(), 1..25),
        classes in prop::collection::vec(prop::collection::vec(0u64..10, 1..4), 0..3),
    ) {
        let mut idx = build_postings(&keys);
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
        let mut expected = naive(&keys, |k| hits(k, &classes));
        expected.retain(|&i| alive[i]);
        prop_assert_eq!(hitting(&idx, &classes), expected);
    }

    #[test]
    fn colliding_signatures_leave_answers_exact(
        keys in prop::collection::vec(prop::collection::vec(colliding(), 0..5), 1..40),
        probe in prop::collection::vec(colliding(), 0..6),
        classes in prop::collection::vec(prop::collection::vec(colliding(), 1..4), 0..4),
    ) {
        // Keys, probes and classes all come from tokens that share
        // signature bits, so the signature test passes many keys the exact
        // test rejects; all three searches must still equal the scan, and
        // so must every stored key's own searches, which walk the links
        // inserting the keys built and the lists of the keys' tokens.
        let idx = build(&keys);
        let postings = build_postings(&keys);
        let probe = normalize(probe);
        prop_assert_eq!(subsets_of(&idx, &probe), naive(&keys, |k| is_subset(k, &probe)));
        prop_assert_eq!(supersets_of(&idx, &probe), naive(&keys, |k| is_subset(&probe, k)));
        prop_assert_eq!(hitting(&postings, &classes), naive(&keys, |k| hits(k, &classes)));
        for key in &keys {
            let key = normalize(key.clone());
            prop_assert_eq!(subsets_of(&idx, &key), naive(&keys, |k| is_subset(k, &key)));
            prop_assert_eq!(supersets_of(&idx, &key), naive(&keys, |k| is_subset(&key, k)));
            // Every stored key's own classes, one token each: the node
            // itself and every key that holds all of its tokens.
            let own: Vec<Vec<u64>> = key.iter().map(|&t| vec![t]).collect();
            prop_assert_eq!(hitting(&postings, &own), naive(&keys, |k| hits(k, &own)));
        }
    }
}

/// Does `key` meet every class?
fn hits(key: &[u64], classes: &[Vec<u64>]) -> bool {
    classes.iter().all(|cl| cl.iter().any(|e| key.contains(e)))
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

fn colliding() -> impl Strategy<Value = u64> {
    prop::sample::select(colliding_tokens())
}

/// The alphabet really collides: a token's set and its group-mate's share
/// a signature, and each search still tells them apart.
#[test]
fn tokens_sharing_a_bit_are_told_apart_by_their_keys() {
    let tokens = colliding_tokens();
    let (a, b, c) = (tokens[0], tokens[1], tokens[3]);
    assert_eq!(TokenSet::new([a]).sig(), TokenSet::new([b]).sig());
    assert_ne!(TokenSet::new([a]).sig(), TokenSet::new([c]).sig());
    let idx = build(&[vec![a], vec![a, c]]);
    assert_eq!(subsets_of(&idx, &[b]), Vec::<usize>::new());
    assert_eq!(subsets_of(&idx, &[b, c]), Vec::<usize>::new());
    assert_eq!(supersets_of(&idx, &[b]), Vec::<usize>::new());
    let postings = build_postings(&[vec![a], vec![a, c]]);
    assert_eq!(hitting(&postings, &[vec![b, c]]), vec![1]);
    assert_eq!(hitting(&postings, &[vec![b]]), Vec::<usize>::new());
    assert_eq!(hitting(&postings, &[vec![a, b], vec![c]]), vec![1]);
}
