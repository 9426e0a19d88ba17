//! Property tests for the Merkle Patricia Trie: model equivalence against
//! a BTreeMap, canonical-form convergence (incremental ≡ rebuilt), history
//! independence of the root, and structural sharing: updating one clone in
//! place never changes another.

use std::collections::BTreeMap;

use proptest::prelude::*;

use dmvcc_state::{empty_root, Mpt};

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>, Vec<u8>),
    Remove(Vec<u8>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = prop::collection::vec(0u8..=3, 0..6); // narrow alphabet → collisions
    let value = prop::collection::vec(any::<u8>(), 1..20);
    prop_oneof![
        3 => (key.clone(), value).prop_map(|(k, v)| Op::Insert(k, v)),
        1 => key.prop_map(Op::Remove),
    ]
}

/// An operation on one of several live trie versions (`usize` picks the
/// version, modulo how many exist).
#[derive(Debug, Clone)]
enum VersionOp {
    Update(usize, Op),
    /// Overwrite version `.1` with a clone of version `.0` (or push a new
    /// version while there are fewer than four).
    Clone(usize, usize),
    Root(usize),
    RootParallel(usize),
}

fn version_op_strategy() -> impl Strategy<Value = VersionOp> {
    prop_oneof![
        6 => (any::<usize>(), op_strategy()).prop_map(|(v, op)| VersionOp::Update(v, op)),
        1 => (any::<usize>(), any::<usize>()).prop_map(|(from, to)| VersionOp::Clone(from, to)),
        1 => any::<usize>().prop_map(VersionOp::Root),
        1 => any::<usize>().prop_map(VersionOp::RootParallel),
    ]
}

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

fn rebuilt_root(model: &Model) -> dmvcc_primitives::H256 {
    let mut rebuilt = Mpt::new();
    for (k, v) in model {
        rebuilt.insert(k, v.clone());
    }
    rebuilt.root()
}

proptest! {
    #[test]
    fn clones_survive_updates_to_each_other(
        ops in prop::collection::vec(version_op_strategy(), 0..160),
    ) {
        let mut versions: Vec<(Mpt, Model)> = vec![(Mpt::new(), Model::new())];
        for op in &ops {
            let n = versions.len();
            match op {
                VersionOp::Update(v, Op::Insert(k, value)) => {
                    let (trie, model) = &mut versions[v % n];
                    trie.insert(k, value.clone());
                    model.insert(k.clone(), value.clone());
                }
                VersionOp::Update(v, Op::Remove(k)) => {
                    let (trie, model) = &mut versions[v % n];
                    prop_assert_eq!(trie.remove(k), model.remove(k).is_some());
                }
                VersionOp::Clone(from, to) => {
                    let copy = versions[from % n].clone();
                    if n < 4 {
                        versions.push(copy);
                    } else {
                        versions[to % n] = copy;
                    }
                }
                VersionOp::Root(v) => {
                    let (trie, model) = &versions[v % n];
                    prop_assert_eq!(trie.root(), rebuilt_root(model));
                }
                VersionOp::RootParallel(v) => {
                    let (trie, model) = &versions[v % n];
                    prop_assert_eq!(trie.root_parallel(2), rebuilt_root(model));
                }
            }
        }
        for (trie, model) in &versions {
            for (k, v) in model {
                prop_assert_eq!(trie.get(k), Some(v.clone()));
            }
            prop_assert_eq!(trie.root(), rebuilt_root(model));
        }
    }

    #[test]
    fn matches_btreemap_model(ops in prop::collection::vec(op_strategy(), 0..120)) {
        let mut trie = Mpt::new();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in &ops {
            match op {
                Op::Insert(k, v) => {
                    trie.insert(k, v.clone());
                    model.insert(k.clone(), v.clone());
                }
                Op::Remove(k) => {
                    let trie_removed = trie.remove(k);
                    let model_removed = model.remove(k).is_some();
                    prop_assert_eq!(trie_removed, model_removed);
                }
            }
        }
        for (k, v) in &model {
            prop_assert_eq!(trie.get(k), Some(v.clone()));
        }
        // Canonical form: incremental updates reach the same root as a
        // fresh build from the final contents.
        let mut rebuilt = Mpt::new();
        for (k, v) in &model {
            rebuilt.insert(k, v.clone());
        }
        prop_assert_eq!(trie.root(), rebuilt.root());
        if model.is_empty() {
            prop_assert_eq!(trie.root(), empty_root());
        }
    }

    #[test]
    fn root_is_history_independent(
        pairs in prop::collection::btree_map(
            prop::collection::vec(any::<u8>(), 1..8),
            prop::collection::vec(any::<u8>(), 1..8),
            1..40,
        ),
        seed in any::<u64>(),
    ) {
        let ordered: Vec<_> = pairs.iter().collect();
        let mut forward = Mpt::new();
        for (k, v) in &ordered {
            forward.insert(k, (*v).clone());
        }
        // A deterministic pseudo-shuffle of the insertion order.
        let mut shuffled = ordered.clone();
        let mut state = seed;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let mut backward = Mpt::new();
        for (k, v) in shuffled {
            backward.insert(k, v.clone());
        }
        prop_assert_eq!(forward.root(), backward.root());
    }

    #[test]
    fn insert_then_remove_is_identity(
        base in prop::collection::btree_map(
            prop::collection::vec(any::<u8>(), 1..6),
            prop::collection::vec(any::<u8>(), 1..6),
            0..20,
        ),
        extra_key in prop::collection::vec(any::<u8>(), 1..6),
        extra_value in prop::collection::vec(any::<u8>(), 1..6),
    ) {
        prop_assume!(!base.contains_key(&extra_key));
        let mut trie = Mpt::new();
        for (k, v) in &base {
            trie.insert(k, v.clone());
        }
        let before = trie.root();
        trie.insert(&extra_key, extra_value);
        prop_assert_ne!(trie.root(), before);
        prop_assert!(trie.remove(&extra_key));
        prop_assert_eq!(trie.root(), before);
    }
}
