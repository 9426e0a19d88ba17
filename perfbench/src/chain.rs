//! End-to-end chains: each engine commits the block stream to its own
//! `StateDb` through its public block-execution path plus
//! `StateDb::commit_async`. The engines take turns segment by segment, so
//! host noise falls on all of them alike, and each segment is timed from
//! its first block's start until its last root has resolved.

use std::time::{Duration, Instant};

use dmvcc_core::{execute_block_serial, BlockPipeline, ParallelExecutor, StmExecutor};
use dmvcc_primitives::H256;
use dmvcc_state::{RootHandle, Snapshot, WriteSet};

use crate::check::digest;
use crate::setup::{env_of, parallel_config, GenesisDb, Setup};

/// Blocks per timed segment. A segment ends by waiting for its roots, so
/// one root hash per segment is never hidden behind a next block.
pub const SEGMENT_BLOCKS: usize = 20;

#[derive(Debug, Clone, Copy)]
pub enum Engine {
    /// Sharded DMVCC with the critical-path policy, driven by
    /// `BlockPipeline::run_blocks_with` (refinement one block ahead).
    Dmvcc,
    /// `StmExecutor::execute_block`, one block at a time, the way
    /// `run_pipelined_chain` drives STM.
    Stm,
    /// `execute_block_serial`, the 1.0× reference.
    Serial,
}

/// One timed segment of a chain.
pub struct Segment {
    pub wall: Duration,
    pub txs: u64,
    /// Intervals between consecutive commit-hook firings, the first
    /// measured from the segment start.
    pub intervals_ms: Vec<f64>,
    /// Executor attempts and aborts (DMVCC only).
    pub attempts: u64,
    pub aborts: u64,
    /// Refinement wall time and the part the pipeline hid behind
    /// execution (DMVCC only).
    pub refine_nanos: u64,
    pub refine_hidden_nanos: u64,
    /// Background hashing time, and the wait for roots after the last
    /// block.
    pub hash_nanos: u64,
    pub stall_nanos: u64,
}

impl Segment {
    pub fn tps(&self) -> f64 {
        self.txs as f64 / self.wall.as_secs_f64()
    }
}

enum Executor {
    Dmvcc(BlockPipeline),
    Stm(StmExecutor),
    Serial,
}

/// One engine's chain: its executor, its `StateDb` and everything it
/// committed so far.
pub struct EngineChain {
    executor: Executor,
    genesis: GenesisDb,
    snapshot: Snapshot,
    pub segments: Vec<Segment>,
    pub digests: Vec<H256>,
    pub roots: Vec<H256>,
    /// Every committed write set, kept for the serial chain only: they
    /// are the oracle's.
    pub writes: Vec<WriteSet>,
}

impl EngineChain {
    /// The executor is built once: a validator keeps it (and its recycled
    /// block arenas) across blocks.
    pub fn new(engine: Engine, setup: &Setup, genesis: GenesisDb) -> EngineChain {
        let analyzer = setup.analyzer.clone();
        let executor = match engine {
            Engine::Dmvcc => Executor::Dmvcc(BlockPipeline::new(ParallelExecutor::new(
                analyzer,
                parallel_config(),
            ))),
            Engine::Stm => Executor::Stm(StmExecutor::new(analyzer, parallel_config())),
            Engine::Serial => Executor::Serial,
        };
        EngineChain {
            executor,
            snapshot: genesis.db.latest().clone(),
            genesis,
            segments: Vec::new(),
            digests: Vec::new(),
            roots: Vec::new(),
            writes: Vec::new(),
        }
    }

    pub fn blocks(&self) -> usize {
        self.digests.len()
    }

    /// Runs the next [`SEGMENT_BLOCKS`] blocks of the stream, which cycles
    /// through the set-up's pre-drawn blocks (their transactions do not
    /// depend on state, so any state can take them).
    pub fn run_segment(&mut self, setup: &Setup) {
        let first = self.blocks();
        let offset = first % setup.blocks.len();
        let blocks = &setup.blocks[offset..offset + SEGMENT_BLOCKS];
        let env = |i: usize| env_of(first + i);
        let db = &mut self.genesis.db;
        let mut handles: Vec<RootHandle> = Vec::with_capacity(SEGMENT_BLOCKS);
        let mut fired: Vec<Duration> = Vec::with_capacity(SEGMENT_BLOCKS);
        let mut writes: Vec<WriteSet> = Vec::with_capacity(SEGMENT_BLOCKS);
        let mut segment = Segment {
            wall: Duration::ZERO,
            txs: blocks.iter().map(|b| b.len() as u64).sum(),
            intervals_ms: Vec::with_capacity(SEGMENT_BLOCKS),
            attempts: 0,
            aborts: 0,
            refine_nanos: 0,
            refine_hidden_nanos: 0,
            hash_nanos: 0,
            stall_nanos: 0,
        };

        let started = Instant::now();
        if let Executor::Dmvcc(pipeline) = &self.executor {
            let (outcomes, snapshot, stats) =
                pipeline.run_blocks_with(blocks, &self.snapshot, env, |_, outcome| {
                    fired.push(started.elapsed());
                    handles.push(db.commit_async(&outcome.final_writes));
                });
            self.snapshot = snapshot;
            segment.refine_nanos = stats.refine_nanos;
            segment.refine_hidden_nanos = stats.overlapped_refine_nanos;
            for outcome in outcomes {
                segment.attempts += outcome.stats.attempts;
                segment.aborts += outcome.aborts;
                writes.push(outcome.final_writes);
            }
        } else {
            for (i, txs) in blocks.iter().enumerate() {
                let block_writes = match &self.executor {
                    Executor::Stm(stm) => {
                        stm.execute_block(txs, &self.snapshot, &env(i)).final_writes
                    }
                    _ => {
                        execute_block_serial(txs, &self.snapshot, &setup.analyzer, &env(i))
                            .final_writes
                    }
                };
                self.snapshot = self.snapshot.apply(&block_writes);
                fired.push(started.elapsed());
                handles.push(db.commit_async(&block_writes));
                writes.push(block_writes);
            }
        }
        let stall_started = Instant::now();
        self.roots.extend(handles.iter().map(RootHandle::wait));
        segment.stall_nanos = stall_started.elapsed().as_nanos() as u64;
        segment.wall = started.elapsed();

        let mut previous = Duration::ZERO;
        for at in fired {
            segment
                .intervals_ms
                .push((at - previous).as_secs_f64() * 1e3);
            previous = at;
        }
        segment.hash_nanos = handles.iter().map(RootHandle::hash_nanos).sum();
        self.digests.extend(writes.iter().map(digest));
        if let Executor::Serial = self.executor {
            self.writes.extend(writes);
        }
        self.segments.push(segment);
    }
}

pub fn intervals_ms(segments: &[Segment]) -> Vec<f64> {
    segments
        .iter()
        .flat_map(|s| s.intervals_ms.iter().copied())
        .collect()
}

/// Median segment throughput of a chain.
pub fn tps(segments: &[Segment]) -> f64 {
    crate::stats::median(segments.iter().map(Segment::tps))
}
