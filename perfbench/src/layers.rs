//! The traced pass: each layer's public function called in sequence on
//! every block and timed from outside, in the order
//! `refine_csags` → sharded `execute_block_with_csags` →
//! `StmExecutor::execute_block` → `execute_block_serial` → VM replay →
//! `Snapshot::apply` → `commit_async` → `RootHandle::wait`.

use std::time::Instant;

use dmvcc_analysis::RefinementTier;
use dmvcc_core::{
    execute_block_serial, refine_csags, simulate_dmvcc, DmvccConfig, ParallelExecutor, StmExecutor,
};
use dmvcc_primitives::H256;
use dmvcc_state::WriteSet;

use crate::check::digest;
use crate::replay;
use crate::setup::{env_of, parallel_config, GenesisDb, Setup, THREADS};

/// Per-block layer times in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockTimes {
    pub refine: f64,
    pub execute: f64,
    pub stm_execute: f64,
    pub serial: f64,
    pub vm: f64,
    pub snapshot_apply: f64,
    pub apply: f64,
    pub hash: f64,
}

/// Per-block counters. `txs`, `speculative`, `gas` and `writes` repeat
/// exactly for the same seed; the scheduler counters depend on how the
/// threads interleave.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlockCounts {
    pub txs: u64,
    pub speculative: u64,
    pub gas: u64,
    pub writes: u64,
    pub parks: u64,
    pub publishes: u64,
    pub publish_batches: u64,
    pub shard_locks: u64,
    pub rank_inversions: u64,
    pub stm_validations: u64,
    pub stm_validation_failures: u64,
    /// `simulate_dmvcc` and `speedup_bound` are virtual-time figures:
    /// pure functions of the block, its trace and its C-SAGs.
    pub sim_speedup: f64,
    pub speedup_bound: f64,
}

/// One traced pass over the chain.
pub struct TracedPass {
    pub times: Vec<BlockTimes>,
    pub counts: Vec<BlockCounts>,
    /// Write-set digests of the sharded engine, STM, the serial oracle
    /// and the VM replay, per block.
    pub digests: [Vec<H256>; 4],
    /// Roots of committing the sharded engine's writes.
    pub roots: Vec<H256>,
    pub serial_writes: Vec<WriteSet>,
    /// Blocks whose VM-replay gas differs from the oracle's.
    pub vm_gas_mismatches: Vec<usize>,
    pub lsm_flushes: u64,
    pub segment_reads: u64,
    pub segment_bytes_written: u64,
}

pub struct Layers {
    sharded: ParallelExecutor,
    stm: StmExecutor,
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

impl Layers {
    pub fn new(setup: &Setup) -> Layers {
        Layers {
            sharded: ParallelExecutor::new(setup.analyzer.clone(), parallel_config()),
            stm: StmExecutor::new(setup.analyzer.clone(), parallel_config()),
        }
    }

    pub fn pass(&self, setup: &Setup, mut genesis: GenesisDb) -> TracedPass {
        let db = &mut genesis.db;
        let registry = setup.analyzer.registry();
        let mut snapshot = db.latest().clone();
        let backend_before = db.backend_stats().unwrap_or_default();
        let n = setup.blocks.len();
        let mut pass = TracedPass {
            times: Vec::with_capacity(n),
            counts: Vec::with_capacity(n),
            digests: Default::default(),
            roots: Vec::with_capacity(n),
            serial_writes: Vec::with_capacity(n),
            vm_gas_mismatches: Vec::new(),
            lsm_flushes: 0,
            segment_reads: 0,
            segment_bytes_written: 0,
        };
        for (i, txs) in setup.blocks.iter().enumerate() {
            let env = env_of(i);
            let mut t = BlockTimes::default();

            let started = Instant::now();
            let csags = refine_csags(&setup.analyzer, txs, &snapshot, &env, THREADS);
            t.refine = ms_since(started);

            let started = Instant::now();
            let sharded = self
                .sharded
                .execute_block_with_csags(txs, &snapshot, &env, &csags);
            t.execute = ms_since(started);

            let started = Instant::now();
            let stm = self.stm.execute_block(txs, &snapshot, &env);
            t.stm_execute = ms_since(started);

            let started = Instant::now();
            let trace = execute_block_serial(txs, &snapshot, &setup.analyzer, &env);
            t.serial = ms_since(started);

            let started = Instant::now();
            let (vm_writes, vm_gas) = replay::execute_block(txs, &snapshot, registry, &env);
            t.vm = ms_since(started);

            let started = Instant::now();
            let next = snapshot.apply(&sharded.final_writes);
            t.snapshot_apply = ms_since(started);

            let started = Instant::now();
            let handle = db.commit_async(&sharded.final_writes);
            t.apply = ms_since(started);

            let started = Instant::now();
            let root = handle.wait();
            t.hash = ms_since(started);

            let stats = &sharded.stats;
            pass.counts.push(BlockCounts {
                txs: txs.len() as u64,
                speculative: csags
                    .iter()
                    .filter(|c| c.tier == RefinementTier::Speculative)
                    .count() as u64,
                gas: trace.total_gas,
                writes: trace.final_writes.len() as u64,
                parks: stats.parks,
                publishes: stats.publishes,
                publish_batches: stats.publish_batches,
                shard_locks: stats.shard_lock_acquisitions,
                rank_inversions: stats.rank_inversions,
                stm_validations: stm.stats.validations,
                stm_validation_failures: stm.stats.validation_failures,
                sim_speedup: simulate_dmvcc(&trace, &csags, &DmvccConfig::new(THREADS)).speedup(),
                speedup_bound: stats.speedup_bound(),
            });
            let written = [
                &sharded.final_writes,
                &stm.final_writes,
                &trace.final_writes,
                &vm_writes,
            ];
            for (digests, writes) in pass.digests.iter_mut().zip(written) {
                digests.push(digest(writes));
            }
            pass.roots.push(root);
            if vm_gas != trace.total_gas {
                pass.vm_gas_mismatches.push(i);
            }
            pass.serial_writes.push(trace.final_writes);
            pass.times.push(t);
            snapshot = next;
        }
        let backend = db.backend_stats().unwrap_or_default();
        pass.lsm_flushes = backend.flushes - backend_before.flushes;
        pass.segment_reads = backend.segment_reads - backend_before.segment_reads;
        pass.segment_bytes_written =
            backend.segment_bytes_written - backend_before.segment_bytes_written;
        pass
    }
}
