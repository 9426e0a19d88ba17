//! A VM-only serial reference: the block runs through `dmvcc_vm::execute`
//! over a per-transaction write overlay, with no trace recorded. Its write
//! set is checked against the oracle's, so `vm.execute_ms` times verified
//! interpretation and nothing else.

use std::collections::HashMap;

use dmvcc_primitives::U256;
use dmvcc_state::{Snapshot, StateKey, WriteSet};
use dmvcc_vm::{
    execute, BlockEnv, CodeRegistry, ExecParams, Host, HostError, Transaction, TxKind,
    INTRINSIC_GAS,
};

/// Reads fall through the transaction's own writes, then the block's
/// committed writes, then the snapshot. Commutative adds stay deltas until
/// the transaction commits, with the oracle's semantics.
struct ReplayHost<'a> {
    snapshot: &'a Snapshot,
    committed: HashMap<StateKey, U256>,
    writes: HashMap<StateKey, U256>,
    adds: HashMap<StateKey, U256>,
}

impl ReplayHost<'_> {
    fn base(&self, key: &StateKey) -> U256 {
        match self.committed.get(key) {
            Some(value) => *value,
            None => self.snapshot.get(key),
        }
    }

    fn commit_tx(&mut self) {
        for (key, value) in self.writes.drain() {
            self.committed.insert(key, value);
        }
        let adds: Vec<_> = self.adds.drain().collect();
        for (key, delta) in adds {
            let value = self.base(&key).wrapping_add(delta);
            self.committed.insert(key, value);
        }
    }

    fn discard_tx(&mut self) {
        self.writes.clear();
        self.adds.clear();
    }
}

impl Host for ReplayHost<'_> {
    fn sload(&mut self, key: StateKey) -> Result<U256, HostError> {
        let own_delta = self.adds.get(&key).copied().unwrap_or(U256::ZERO);
        let value = match self.writes.get(&key) {
            Some(value) => *value,
            None => self.base(&key),
        };
        Ok(value.wrapping_add(own_delta))
    }

    fn sstore(&mut self, key: StateKey, value: U256) -> Result<(), HostError> {
        self.adds.remove(&key);
        self.writes.insert(key, value);
        Ok(())
    }

    fn sadd(&mut self, key: StateKey, delta: U256) -> Result<(), HostError> {
        match self.writes.get_mut(&key) {
            Some(value) => *value = value.wrapping_add(delta),
            None => {
                let entry = self.adds.entry(key).or_insert(U256::ZERO);
                *entry = entry.wrapping_add(delta);
            }
        }
        Ok(())
    }
}

/// Executes `txs` serially against `snapshot`; returns the block's final
/// writes (keys whose value differs from the snapshot) and its gas.
pub fn execute_block(
    txs: &[Transaction],
    snapshot: &Snapshot,
    registry: &CodeRegistry,
    block_env: &BlockEnv,
) -> (WriteSet, u64) {
    let mut host = ReplayHost {
        snapshot,
        committed: HashMap::new(),
        writes: HashMap::new(),
        adds: HashMap::new(),
    };
    let mut gas = 0u64;
    for tx in txs {
        let success = match tx.kind {
            TxKind::Transfer => {
                gas += INTRINSIC_GAS;
                let from = StateKey::balance(tx.sender());
                let balance = host.sload(from).expect("replay host never aborts");
                let funded = balance >= tx.env.value;
                if funded {
                    host.sstore(from, balance - tx.env.value)
                        .expect("replay host never aborts");
                    host.sadd(StateKey::balance(tx.to()), tx.env.value)
                        .expect("replay host never aborts");
                }
                funded
            }
            TxKind::Call => match registry.code(&tx.to()) {
                // An unknown contract trivially succeeds without touching state.
                None => {
                    gas += INTRINSIC_GAS;
                    true
                }
                Some(code) => {
                    let params = ExecParams {
                        code: &code,
                        tx: &tx.env,
                        block: block_env,
                        release_points: None,
                        registry: Some(registry),
                    };
                    let outcome = execute(&params, &mut host);
                    gas += outcome.gas_used;
                    outcome.status.is_success()
                }
            },
        };
        if success {
            host.commit_tx();
        } else {
            host.discard_tx();
        }
    }
    let writes = host
        .committed
        .into_iter()
        .filter(|(key, value)| snapshot.get(key) != *value)
        .collect();
    (writes, gas)
}
