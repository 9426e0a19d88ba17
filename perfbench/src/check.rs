//! Correctness, checked after the timed region: every block of every
//! engine must produce the serial oracle's write set, and every async
//! root must equal the root of a synchronously committed `StateDb`.

use dmvcc_primitives::{Keccak256, H256, U256};
use dmvcc_state::{StateDb, StateKey, WriteSet};

/// Order-sensitive digest of a write set (`WriteSet` iterates in key
/// order), so a run keeps 32 bytes per block instead of the whole set.
pub fn digest(writes: &WriteSet) -> H256 {
    let mut hasher = Keccak256::new();
    for (key, value) in writes {
        hasher.update(&key.to_bytes());
        hasher.update(&value.to_be_bytes());
    }
    hasher.finalize()
}

/// The serial oracle: `execute_block_serial`'s write set per block, and
/// the roots of committing them synchronously from genesis.
pub struct Oracle {
    pub digests: Vec<H256>,
    pub roots: Vec<H256>,
}

impl Oracle {
    pub fn new(genesis: &[(StateKey, U256)], serial_writes: &[WriteSet]) -> Oracle {
        let mut db = StateDb::with_genesis(genesis.iter().copied());
        Oracle {
            digests: serial_writes.iter().map(digest).collect(),
            roots: serial_writes.iter().map(|w| db.commit(w)).collect(),
        }
    }

    /// Indices of the blocks whose digest (or root, when `roots` is
    /// given) differs from the oracle's. A block the engine did not
    /// produce mismatches.
    pub fn mismatches(&self, digests: &[H256], roots: Option<&[H256]>) -> Vec<usize> {
        (0..self.digests.len())
            .filter(|&i| {
                digests.get(i) != Some(&self.digests[i])
                    || roots.is_some_and(|roots| roots.get(i) != Some(&self.roots[i]))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmvcc_primitives::Address;

    fn key(i: u64) -> StateKey {
        StateKey::balance(Address::from_u64(i))
    }

    fn chain() -> (Vec<(StateKey, U256)>, Vec<WriteSet>) {
        let genesis = (1..=4).map(|i| (key(i), U256::from(100u64))).collect();
        let blocks = (0..3u64)
            .map(|b| {
                [
                    (key(1), U256::from(90 - b)),
                    (key(5 + b), U256::from(b + 1)),
                ]
                .into()
            })
            .collect();
        (genesis, blocks)
    }

    #[test]
    fn the_oracle_agrees_with_itself() {
        let (genesis, blocks) = chain();
        let oracle = Oracle::new(&genesis, &blocks);
        assert!(oracle
            .mismatches(&oracle.digests, Some(&oracle.roots))
            .is_empty());
    }

    #[test]
    fn a_corrupted_write_set_fails_its_block() {
        let (genesis, mut blocks) = chain();
        let oracle = Oracle::new(&genesis, &blocks);
        // Key 6 is written by block 1 alone, so the error persists.
        *blocks[1].get_mut(&key(6)).expect("written") += U256::ONE;
        let digests: Vec<_> = blocks.iter().map(digest).collect();
        assert_eq!(oracle.mismatches(&digests, None), vec![1]);
        // The corrupted state also moves every later root.
        let roots = Oracle::new(&genesis, &blocks).roots;
        assert_eq!(oracle.mismatches(&oracle.digests, Some(&roots)), vec![1, 2]);
    }

    #[test]
    fn a_missing_block_fails() {
        let (genesis, blocks) = chain();
        let oracle = Oracle::new(&genesis, &blocks);
        assert_eq!(oracle.mismatches(&oracle.digests[..2], None), vec![2]);
    }
}
