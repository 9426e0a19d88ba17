//! A persistent (structurally-shared) hexary Merkle Patricia Trie.
//!
//! The paper validates deterministic serializability by comparing the Merkle
//! roots produced by parallel and serial execution (RQ1). This module
//! provides that oracle: a from-scratch MPT following Ethereum's node
//! encoding (hex-prefix paths, RLP node serialization, the `< 32` byte
//! inline-node rule and Keccak-256 hashing), so the canonical Ethereum trie
//! test vectors hold.
//!
//! Nodes are shared via [`Arc`], so a clone is O(1) and committing a block
//! only touches the paths it writes. An update changes a node in place
//! when this trie is its only owner and copies it when a clone shares it,
//! so clones never change. Each node caches one thing: its reference as
//! seen from its parent (at most 33 bytes, held inline), which makes
//! repeated root computation cheap.
//!
//! # Examples
//!
//! ```
//! use dmvcc_state::Mpt;
//!
//! let mut trie = Mpt::new();
//! trie.insert(b"dog", b"puppy".to_vec());
//! let root_one = trie.root();
//! trie.insert(b"doge", b"coin".to_vec());
//! assert_ne!(trie.root(), root_one);
//! trie.remove(b"doge");
//! assert_eq!(trie.root(), root_one);
//! ```

use std::sync::{Arc, OnceLock};

use dmvcc_primitives::rlp::{encode_bytes, encode_length, length_prefix_len};
use dmvcc_primitives::{keccak256, H256};

/// Root hash of the empty trie: `keccak256(rlp(""))`.
pub fn empty_root() -> H256 {
    keccak256(&encode_bytes(b""))
}

/// RLP of an absent branch child or value: the empty string.
const EMPTY_ITEM: &[u8] = &[0x80];

#[derive(Debug, Clone)]
enum NodeKind {
    Leaf {
        path: Vec<u8>, // nibbles
        value: Vec<u8>,
    },
    Extension {
        path: Vec<u8>, // nibbles, never empty
        child: Arc<Node>,
    },
    Branch {
        children: [Option<Arc<Node>>; 16],
        value: Option<Vec<u8>>,
    },
}

/// A node's reference as seen from its parent: the node's RLP encoding
/// itself when shorter than 32 bytes, otherwise `0xa0 ‖ keccak(encoding)`.
#[derive(Debug, Clone, Copy)]
struct NodeRef {
    len: u8,
    bytes: [u8; 33],
}

impl NodeRef {
    fn of(encoding: &[u8]) -> NodeRef {
        let mut bytes = [0u8; 33];
        if encoding.len() < 32 {
            bytes[..encoding.len()].copy_from_slice(encoding);
            NodeRef {
                len: encoding.len() as u8,
                bytes,
            }
        } else {
            bytes[0] = 0xa0;
            bytes[1..].copy_from_slice(keccak256(encoding).as_bytes());
            NodeRef { len: 33, bytes }
        }
    }

    fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// The hash of the referenced node, as the root commitment.
    fn hash(&self) -> H256 {
        if self.len == 33 {
            H256(self.bytes[1..].try_into().expect("32-byte digest"))
        } else {
            keccak256(self.as_slice())
        }
    }
}

#[derive(Debug)]
struct Node {
    kind: NodeKind,
    /// Cached reference; unset while the node (or anything beneath it)
    /// has changed since it was last hashed.
    reference: OnceLock<NodeRef>,
}

/// A copy made for a write starts unhashed.
impl Clone for Node {
    fn clone(&self) -> Self {
        Node {
            kind: self.kind.clone(),
            reference: OnceLock::new(),
        }
    }
}

impl Node {
    fn new(kind: NodeKind) -> Arc<Node> {
        Arc::new(Node {
            kind,
            reference: OnceLock::new(),
        })
    }

    fn leaf(path: Vec<u8>, value: Vec<u8>) -> Arc<Node> {
        Node::new(NodeKind::Leaf { path, value })
    }

    /// The node in `slot`, ready to change: updated in place when this
    /// trie is its only owner, copied first when a clone shares it. Its
    /// cached reference is cleared either way.
    fn make_mut(slot: &mut Arc<Node>) -> &mut Node {
        let node = Arc::make_mut(slot);
        node.reference.take();
        node
    }

    fn reference(&self) -> &NodeRef {
        self.reference.get_or_init(|| NodeRef::of(&self.encode()))
    }

    /// The node's RLP encoding, written once into a buffer sized from its
    /// items (children contribute their cached references).
    fn encode(&self) -> Vec<u8> {
        match &self.kind {
            NodeKind::Leaf { path, value } => {
                encode_node(&[Item::Path(path, true), Item::Bytes(value)])
            }
            NodeKind::Extension { path, child } => encode_node(&[
                Item::Path(path, false),
                Item::Raw(child.reference().as_slice()),
            ]),
            NodeKind::Branch { children, value } => {
                let mut items = [Item::Raw(EMPTY_ITEM); 17];
                for (item, child) in items.iter_mut().zip(children) {
                    if let Some(child) = child {
                        *item = Item::Raw(child.reference().as_slice());
                    }
                }
                if let Some(value) = value {
                    items[16] = Item::Bytes(value);
                }
                encode_node(&items)
            }
        }
    }
}

/// One item of a node's RLP list.
#[derive(Clone, Copy)]
enum Item<'a> {
    /// A nibble path, hex-prefix encoded with the leaf flag.
    Path(&'a [u8], bool),
    /// A byte string, RLP-encoded.
    Bytes(&'a [u8]),
    /// An item that is already RLP (a child reference or the empty string).
    Raw(&'a [u8]),
}

impl Item<'_> {
    fn encoded_len(&self) -> usize {
        match *self {
            Item::Path(nibbles, _) => string_len(nibbles.len() / 2 + 1, nibbles.len() < 2),
            Item::Bytes(data) => string_len(data.len(), is_lone_byte(data)),
            Item::Raw(raw) => raw.len(),
        }
    }

    fn write(&self, out: &mut Vec<u8>) {
        match *self {
            Item::Path(nibbles, leaf) => {
                let len = nibbles.len() / 2 + 1;
                if len > 1 {
                    encode_length(len, 0x80, out);
                }
                write_hex_prefix(nibbles, leaf, out);
            }
            Item::Bytes(data) => {
                if !is_lone_byte(data) {
                    encode_length(data.len(), 0x80, out);
                }
                out.extend_from_slice(data);
            }
            Item::Raw(raw) => out.extend_from_slice(raw),
        }
    }
}

/// A single byte below `0x80`, which RLP encodes as itself.
fn is_lone_byte(data: &[u8]) -> bool {
    data.len() == 1 && data[0] < 0x80
}

/// Encoded size of a `len`-byte RLP string; `single` marks a lone byte
/// that encodes as itself.
fn string_len(len: usize, single: bool) -> usize {
    if single {
        1
    } else {
        length_prefix_len(len) + len
    }
}

/// RLP-encodes `items` as a list into one exactly-sized buffer.
fn encode_node(items: &[Item]) -> Vec<u8> {
    let payload: usize = items.iter().map(Item::encoded_len).sum();
    let mut out = Vec::with_capacity(length_prefix_len(payload) + payload);
    encode_length(payload, 0xc0, &mut out);
    for item in items {
        item.write(&mut out);
    }
    out
}

/// Hex-prefix encodes a nibble path with the leaf/extension flag.
fn write_hex_prefix(nibbles: &[u8], leaf: bool, out: &mut Vec<u8>) {
    let flag: u8 = if leaf { 2 } else { 0 };
    let rest = if nibbles.len() % 2 == 1 {
        out.push(((flag | 1) << 4) | nibbles[0]);
        &nibbles[1..]
    } else {
        out.push(flag << 4);
        nibbles
    };
    out.extend(rest.chunks(2).map(|pair| (pair[0] << 4) | pair[1]));
}

/// Expands bytes into nibbles (high nibble first).
fn to_nibbles(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(b >> 4);
        out.push(b & 0x0f);
    }
    out
}

fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// A persistent Merkle Patricia Trie mapping byte keys to byte values.
///
/// Cloning is O(1): clones share structure and diverge copy-on-write as they
/// are updated — exactly what per-block state versioning needs.
#[derive(Debug, Clone, Default)]
pub struct Mpt {
    root: Option<Arc<Node>>,
}

impl Mpt {
    /// Creates an empty trie.
    pub fn new() -> Self {
        Mpt { root: None }
    }

    /// Returns the Keccak-256 root commitment of the current contents.
    pub fn root(&self) -> H256 {
        match &self.root {
            Some(node) => node.reference().hash(),
            None => empty_root(),
        }
    }

    /// Returns `true` if the trie holds no entries.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Inserts or replaces `key → value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is empty; encode absence by [`Mpt::remove`]
    /// instead (the MPT format cannot distinguish an empty value from a
    /// missing key).
    pub fn insert(&mut self, key: &[u8], value: Vec<u8>) {
        assert!(!value.is_empty(), "Mpt::insert: empty value, use remove");
        let nibbles = to_nibbles(key);
        match &mut self.root {
            Some(root) => insert_at(root, &nibbles, value),
            None => self.root = Some(Node::leaf(nibbles, value)),
        }
    }

    /// Removes `key` if present. Returns `true` if an entry was removed.
    pub fn remove(&mut self, key: &[u8]) -> bool {
        let nibbles = to_nibbles(key);
        // A miss must leave every node (and its cached reference) alone.
        if self.lookup(&nibbles).is_none() {
            return false;
        }
        let root = self.root.as_mut().expect("a found key has a root");
        if !remove_at(root, &nibbles) {
            self.root = None;
        }
        true
    }

    /// Looks up the value stored at `key`, copying it out.
    ///
    /// Prefer [`Mpt::get_ref`] on hot paths — it borrows the value from
    /// the shared node instead of allocating a fresh `Vec` per read.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.get_ref(key).map(<[u8]>::to_vec)
    }

    /// Looks up the value stored at `key`, borrowing it from the trie.
    ///
    /// Allocation-free for keys up to 32 bytes (every trie key in this
    /// repo is a 32-byte Keccak digest): the nibble expansion lives in a
    /// stack buffer and the returned slice aliases the `Arc`-shared node,
    /// so an oracle-path SLOAD compare costs zero heap traffic.
    pub fn get_ref(&self, key: &[u8]) -> Option<&[u8]> {
        let mut stack = [0u8; 64];
        let heap; // spill for oversized keys only
        let nibbles: &[u8] = if key.len() <= 32 {
            for (i, &b) in key.iter().enumerate() {
                stack[2 * i] = b >> 4;
                stack[2 * i + 1] = b & 0x0f;
            }
            &stack[..key.len() * 2]
        } else {
            heap = to_nibbles(key);
            &heap
        };
        self.lookup(nibbles)
    }

    fn lookup(&self, nibbles: &[u8]) -> Option<&[u8]> {
        let mut node = self.root.as_deref()?;
        let mut path: &[u8] = nibbles;
        loop {
            match &node.kind {
                NodeKind::Leaf { path: p, value } => {
                    return if p == path {
                        Some(value.as_slice())
                    } else {
                        None
                    };
                }
                NodeKind::Extension { path: p, child } => {
                    path = path.strip_prefix(p.as_slice())?;
                    node = child;
                }
                NodeKind::Branch { children, value } => {
                    if path.is_empty() {
                        return value.as_deref();
                    }
                    node = children[path[0] as usize].as_deref()?;
                    path = &path[1..];
                }
            }
        }
    }

    /// The top-level branch node (descending through a root extension),
    /// if any: the fanout that parallel hashing partitions across workers.
    fn top_branch(&self) -> Option<&Arc<Node>> {
        let mut node = self.root.as_ref()?;
        loop {
            match &node.kind {
                NodeKind::Branch { .. } => return Some(node),
                NodeKind::Extension { child, .. } => node = child,
                NodeKind::Leaf { .. } => return None,
            }
        }
    }

    /// Number of top-level subtrees whose hashes must be recomputed for
    /// the next [`Mpt::root`] call.
    ///
    /// Dirty tracking falls out of the update rule for free: an update
    /// clears the cached reference of every node on its path (copying the
    /// node first if a clone shares it), so a cached reference proves the
    /// entire subtree beneath it is clean.
    pub fn dirty_top_subtrees(&self) -> usize {
        match self.top_branch() {
            Some(branch) => match &branch.kind {
                NodeKind::Branch { children, .. } => children
                    .iter()
                    .flatten()
                    .filter(|c| c.reference.get().is_none())
                    .count(),
                _ => unreachable!("top_branch returns branches only"),
            },
            None => usize::from(
                self.root
                    .as_ref()
                    .is_some_and(|n| n.reference.get().is_none()),
            ),
        }
    }

    /// Returns `true` if the root hash is fully cached (a [`Mpt::root`]
    /// call would be a pure cache read).
    pub fn root_cached(&self) -> bool {
        self.root
            .as_ref()
            .is_none_or(|node| node.reference.get().is_some())
    }

    /// Computes the root, hashing dirty top-level subtrees on up to
    /// `threads` worker threads.
    ///
    /// Identical to [`Mpt::root`] by construction — both force the same
    /// thread-safe `OnceLock` caches, only the forcing order differs.
    /// Keccak-derived keys spread uniformly over the 16-way fanout, so
    /// partitioning the dirty children of the top branch balances well.
    /// Serial fallback when `threads <= 1` or fewer than two subtrees are
    /// dirty.
    pub fn root_parallel(&self, threads: usize) -> H256 {
        let Some(root) = self.root.as_ref() else {
            return empty_root();
        };
        if threads > 1 {
            if let Some(branch) = self.top_branch() {
                if let NodeKind::Branch { children, .. } = &branch.kind {
                    let dirty: Vec<&Arc<Node>> = children
                        .iter()
                        .flatten()
                        .filter(|c| c.reference.get().is_none())
                        .collect();
                    if dirty.len() > 1 {
                        let per_worker = dirty.len().div_ceil(threads.min(dirty.len()));
                        std::thread::scope(|scope| {
                            for chunk in dirty.chunks(per_worker) {
                                scope.spawn(move || {
                                    for child in chunk {
                                        child.reference();
                                    }
                                });
                            }
                        });
                    }
                }
            }
        }
        root.reference().hash()
    }
}

/// Inserts `value` at `path` beneath the node in `slot`, updating the
/// path's nodes in place where this trie owns them alone.
fn insert_at(slot: &mut Arc<Node>, path: &[u8], value: Vec<u8>) {
    let node = Node::make_mut(slot);
    match &mut node.kind {
        NodeKind::Leaf {
            path: leaf_path,
            value: leaf_value,
        } => {
            if leaf_path.as_slice() == path {
                *leaf_value = value;
                return;
            }
            let common = common_prefix_len(leaf_path, path);
            let branch = make_branch(
                &leaf_path[common..],
                std::mem::take(leaf_value),
                &path[common..],
                value,
            );
            *slot = wrap_extension(&path[..common], branch);
        }
        NodeKind::Extension {
            path: ext_path,
            child,
        } => {
            let common = common_prefix_len(ext_path, path);
            if common == ext_path.len() {
                insert_at(child, &path[common..], value);
                return;
            }
            // Split the extension at the divergence point.
            let mut children: [Option<Arc<Node>>; 16] = Default::default();
            let remaining_ext = &ext_path[common + 1..];
            children[ext_path[common] as usize] = Some(if remaining_ext.is_empty() {
                Arc::clone(child)
            } else {
                Node::new(NodeKind::Extension {
                    path: remaining_ext.to_vec(),
                    child: Arc::clone(child),
                })
            });
            let mut branch_value = None;
            if common == path.len() {
                branch_value = Some(value);
            } else {
                children[path[common] as usize] =
                    Some(Node::leaf(path[common + 1..].to_vec(), value));
            }
            let branch = Node::new(NodeKind::Branch {
                children,
                value: branch_value,
            });
            *slot = wrap_extension(&path[..common], branch);
        }
        NodeKind::Branch {
            children,
            value: branch_value,
        } => match path.split_first() {
            None => *branch_value = Some(value),
            Some((&nibble, rest)) => match &mut children[nibble as usize] {
                Some(child) => insert_at(child, rest, value),
                empty => *empty = Some(Node::leaf(rest.to_vec(), value)),
            },
        },
    }
}

/// Builds a branch holding two divergent suffixes (at least one non-empty).
fn make_branch(a_path: &[u8], a_value: Vec<u8>, b_path: &[u8], b_value: Vec<u8>) -> Arc<Node> {
    let mut children: [Option<Arc<Node>>; 16] = Default::default();
    let mut value = None;
    debug_assert!(
        !(a_path.is_empty() && b_path.is_empty()),
        "identical paths must be handled by the caller"
    );
    for (path, leaf_value) in [(a_path, a_value), (b_path, b_value)] {
        match path.split_first() {
            None => value = Some(leaf_value),
            Some((&nibble, rest)) => {
                children[nibble as usize] = Some(Node::leaf(rest.to_vec(), leaf_value));
            }
        }
    }
    Node::new(NodeKind::Branch { children, value })
}

fn wrap_extension(prefix: &[u8], node: Arc<Node>) -> Arc<Node> {
    if prefix.is_empty() {
        node
    } else {
        Node::new(NodeKind::Extension {
            path: prefix.to_vec(),
            child: node,
        })
    }
}

/// Removes the entry at `path`, which must be present beneath the node in
/// `slot`, restoring the canonical form (no extension above a leaf or
/// extension, no branch with fewer than two entries). Returns `false` if
/// that node held only the removed entry: the caller drops the slot.
fn remove_at(slot: &mut Arc<Node>, path: &[u8]) -> bool {
    if matches!(slot.kind, NodeKind::Leaf { .. }) {
        return false; // the entry itself
    }
    match &mut Node::make_mut(slot).kind {
        NodeKind::Leaf { .. } => unreachable!("checked above"),
        NodeKind::Extension {
            path: ext_path,
            child,
        } => {
            let kept = remove_at(child, &path[ext_path.len()..]);
            debug_assert!(kept, "an extension's branch keeps an entry");
            if !matches!(child.kind, NodeKind::Branch { .. }) {
                // The branch collapsed: its leaf or extension absorbs the
                // prefix. The child is unique (the removal just updated
                // it), and stays so once the extension is dropped.
                prepend_path(child, ext_path);
                *slot = Arc::clone(child);
            }
        }
        NodeKind::Branch { children, value } => {
            match path.split_first() {
                None => *value = None,
                Some((&nibble, rest)) => {
                    let child = &mut children[nibble as usize];
                    if !remove_at(child.as_mut().expect("a found key's child"), rest) {
                        *child = None;
                    }
                }
            }
            let mut populated = (0..16).filter(|&i| children[i].is_some());
            match (populated.next(), populated.next()) {
                (None, _) => {
                    let value = value.take().expect("a branch keeps an entry");
                    *slot = Node::leaf(Vec::new(), value);
                }
                (Some(nibble), None) if value.is_none() => {
                    let mut only = children[nibble].take().expect("populated");
                    if matches!(only.kind, NodeKind::Branch { .. }) {
                        only = Node::new(NodeKind::Extension {
                            path: vec![nibble as u8],
                            child: only,
                        });
                    } else {
                        prepend_path(&mut only, &[nibble as u8]);
                    }
                    *slot = only;
                }
                _ => {}
            }
        }
    }
    true
}

/// Prepends `prefix` to the path of the leaf or extension in `slot`.
fn prepend_path(slot: &mut Arc<Node>, prefix: &[u8]) {
    match &mut Node::make_mut(slot).kind {
        NodeKind::Leaf { path, .. } | NodeKind::Extension { path, .. } => {
            path.splice(0..0, prefix.iter().copied());
        }
        NodeKind::Branch { .. } => unreachable!("a branch takes an extension above it"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn root_hex(trie: &Mpt) -> String {
        format!("{}", trie.root())
    }

    #[test]
    fn empty_trie_root_matches_ethereum() {
        let trie = Mpt::new();
        assert_eq!(
            root_hex(&trie),
            "0x56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"
        );
        assert!(trie.is_empty());
    }

    #[test]
    fn canonical_ethereum_vector_dogs_and_horse() {
        // From the ethereum/tests trietest suite ("branchingTests"/"dogs").
        let mut trie = Mpt::new();
        trie.insert(b"do", b"verb".to_vec());
        trie.insert(b"dog", b"puppy".to_vec());
        trie.insert(b"doge", b"coin".to_vec());
        trie.insert(b"horse", b"stallion".to_vec());
        assert_eq!(
            root_hex(&trie),
            "0x5991bb8c6514148a29db676a14ac506cd2cd5775ace63c30a4fe457715e9ac84"
        );
    }

    #[test]
    fn canonical_ethereum_vector_single_pair() {
        // trietest "singleItem": {"A": "aaaa..a" (50 chars)}
        let mut trie = Mpt::new();
        trie.insert(b"A", vec![b'a'; 50]);
        assert_eq!(
            root_hex(&trie),
            "0xd23786fb4a010da3ce639d66d5e904a11dbc02746d1ce25029e53290cabf28ab"
        );
    }

    #[test]
    fn insert_get_round_trip() {
        let mut trie = Mpt::new();
        trie.insert(b"alpha", b"1".to_vec());
        trie.insert(b"beta", b"2".to_vec());
        trie.insert(b"alphabet", b"3".to_vec());
        assert_eq!(trie.get(b"alpha"), Some(b"1".to_vec()));
        assert_eq!(trie.get(b"beta"), Some(b"2".to_vec()));
        assert_eq!(trie.get(b"alphabet"), Some(b"3".to_vec()));
        assert_eq!(trie.get(b"alph"), None);
        assert_eq!(trie.get(b"gamma"), None);
    }

    #[test]
    fn overwrite_changes_root_and_value() {
        let mut trie = Mpt::new();
        trie.insert(b"key", b"one".to_vec());
        let r1 = trie.root();
        trie.insert(b"key", b"two".to_vec());
        assert_ne!(trie.root(), r1);
        assert_eq!(trie.get(b"key"), Some(b"two".to_vec()));
    }

    #[test]
    fn insertion_order_independent() {
        let pairs: Vec<(&[u8], &[u8])> = vec![
            (b"do", b"verb"),
            (b"dog", b"puppy"),
            (b"doge", b"coin"),
            (b"horse", b"stallion"),
            (b"dodge", b"car"),
        ];
        let mut forward = Mpt::new();
        for (k, v) in &pairs {
            forward.insert(k, v.to_vec());
        }
        let mut backward = Mpt::new();
        for (k, v) in pairs.iter().rev() {
            backward.insert(k, v.to_vec());
        }
        assert_eq!(forward.root(), backward.root());
    }

    #[test]
    fn remove_restores_previous_root() {
        let mut trie = Mpt::new();
        trie.insert(b"do", b"verb".to_vec());
        trie.insert(b"dog", b"puppy".to_vec());
        let before = trie.root();
        trie.insert(b"doge", b"coin".to_vec());
        assert!(trie.remove(b"doge"));
        assert_eq!(trie.root(), before);
        assert_eq!(trie.get(b"doge"), None);
    }

    #[test]
    fn remove_missing_returns_false() {
        let mut trie = Mpt::new();
        trie.insert(b"dog", b"puppy".to_vec());
        let root = trie.root();
        assert!(!trie.remove(b"cat"));
        assert!(!trie.remove(b"do"));
        assert!(!trie.remove(b"doge"));
        assert_eq!(trie.root(), root);
    }

    #[test]
    fn remove_all_returns_to_empty() {
        let mut trie = Mpt::new();
        let keys: Vec<Vec<u8>> = (0u32..50).map(|i| i.to_be_bytes().to_vec()).collect();
        for k in &keys {
            trie.insert(k, b"value".to_vec());
        }
        for k in &keys {
            assert!(trie.remove(k), "failed to remove {:?}", k);
        }
        assert_eq!(trie.root(), empty_root());
    }

    #[test]
    fn clone_is_independent() {
        let mut a = Mpt::new();
        a.insert(b"x", b"1".to_vec());
        let b = a.clone();
        a.insert(b"y", b"2".to_vec());
        assert_eq!(b.get(b"y"), None);
        assert_eq!(a.get(b"y"), Some(b"2".to_vec()));
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn get_ref_matches_get_without_copying() {
        let mut trie = Mpt::new();
        trie.insert(b"alpha", b"1".to_vec());
        trie.insert(b"beta", b"2".to_vec());
        trie.insert(b"alphabet", b"3".to_vec());
        for key in [b"alpha".as_slice(), b"beta", b"alphabet", b"alph", b"zz"] {
            assert_eq!(trie.get_ref(key).map(<[u8]>::to_vec), trie.get(key));
        }
        // Oversized keys take the heap spill path.
        let long = vec![7u8; 48];
        trie.insert(&long, b"long".to_vec());
        assert_eq!(trie.get_ref(&long), Some(b"long".as_slice()));
    }

    #[test]
    fn dirty_tracking_follows_mutation_and_hashing() {
        let mut trie = Mpt::new();
        for i in 0u32..64 {
            trie.insert(keccak256(&i.to_be_bytes()).as_bytes(), vec![1, 2, 3]);
        }
        assert!(!trie.root_cached());
        assert!(trie.dirty_top_subtrees() > 0);
        trie.root();
        assert!(trie.root_cached());
        assert_eq!(trie.dirty_top_subtrees(), 0);
        // One more insert into the hashed, unshared trie updates its path
        // in place and dirties exactly the touched subtree.
        trie.insert(keccak256(&99u32.to_be_bytes()).as_bytes(), vec![9]);
        assert!(!trie.root_cached());
        assert_eq!(trie.dirty_top_subtrees(), 1);
        // So do an in-place overwrite and an in-place removal.
        trie.root();
        trie.insert(keccak256(&7u32.to_be_bytes()).as_bytes(), vec![7]);
        assert_eq!(trie.dirty_top_subtrees(), 1);
        trie.root();
        assert!(trie.remove(keccak256(&7u32.to_be_bytes()).as_bytes()));
        assert_eq!(trie.dirty_top_subtrees(), 1);
        // A removal that misses touches nothing.
        let hashed = trie.root();
        assert!(!trie.remove(keccak256(&1000u32.to_be_bytes()).as_bytes()));
        assert!(trie.root_cached());
        // Updating a shared trie copies the path and leaves the clone clean.
        let clone = trie.clone();
        trie.insert(keccak256(&100u32.to_be_bytes()).as_bytes(), vec![1]);
        assert_eq!(trie.dirty_top_subtrees(), 1);
        assert!(clone.root_cached());
        assert_eq!(clone.dirty_top_subtrees(), 0);
        assert_eq!(clone.root(), hashed);
    }

    #[test]
    fn parallel_root_equals_serial_root() {
        // Two independently-built tries with identical contents: one
        // hashed serially, one in parallel.
        for threads in [1usize, 2, 4, 8] {
            let mut serial = Mpt::new();
            let mut parallel = Mpt::new();
            for i in 0u32..300 {
                let key = keccak256(&i.to_be_bytes());
                let value = i.to_be_bytes().to_vec();
                serial.insert(key.as_bytes(), value.clone());
                parallel.insert(key.as_bytes(), value);
            }
            assert_eq!(serial.root(), parallel.root_parallel(threads));
            // Incremental re-dirtying hashes identically too.
            let key = keccak256(&1234u32.to_be_bytes());
            serial.insert(key.as_bytes(), b"x".to_vec());
            parallel.insert(key.as_bytes(), b"x".to_vec());
            assert_eq!(serial.root(), parallel.root_parallel(threads));
        }
    }

    #[test]
    fn parallel_root_handles_small_tries() {
        let trie = Mpt::new();
        assert_eq!(trie.root_parallel(8), empty_root());
        let mut one = Mpt::new();
        one.insert(b"k", b"v".to_vec());
        assert_eq!(one.root_parallel(8), one.root());
    }

    #[test]
    fn matches_reference_model_on_random_ops() {
        // Differential test against a BTreeMap model with a deterministic
        // pseudo-random operation stream.
        let mut trie = Mpt::new();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut seed = 0x12345678u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed
        };
        for _ in 0..2000 {
            let r = next();
            let key = (r % 200).to_be_bytes().to_vec();
            if r % 3 == 0 {
                trie.remove(&key);
                model.remove(&key);
            } else {
                let value = (r % 1000).to_be_bytes().to_vec();
                trie.insert(&key, value.clone());
                model.insert(key, value);
            }
        }
        for (k, v) in &model {
            assert_eq!(trie.get(k), Some(v.clone()));
        }
        // Rebuild from the model and compare roots: proves the incremental
        // updates reached the canonical form.
        let mut rebuilt = Mpt::new();
        for (k, v) in &model {
            rebuilt.insert(k, v.clone());
        }
        assert_eq!(trie.root(), rebuilt.root());
    }
}
