//! Workloads and set-up: generator, registry, analyzer, genesis state,
//! the pre-drawn chain and the untimed warm-up refine.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dmvcc_analysis::Analyzer;
use dmvcc_core::{refine_csags, ParallelConfig, SchedulerPolicy};
use dmvcc_primitives::U256;
use dmvcc_state::{LsmBackend, LsmOptions, MemBackend, StateBackend, StateDb, StateKey};
use dmvcc_vm::{BlockEnv, Transaction};
use dmvcc_workload::{WorkloadConfig, WorkloadGenerator};

/// Worker threads of every engine, refinement stage and root hasher: the
/// core count of the 2-core host the benchmark was defined on, fixed so
/// that runs on other hosts measure the same load shape.
pub const THREADS: usize = 2;

/// Transactions per block, as in the paper's repacked mainnet stream.
pub const BLOCK_SIZE: usize = 1000;

/// Directory (relative to the working directory) that holds the LSM
/// segment files of the `airdrop_lsm` workload while a run lasts.
const LSM_ROOT: &str = ".bench_lsm";

static LSM_SEQ: AtomicU64 = AtomicU64::new(0);

/// One benchmark workload: a transaction mix on a state backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `ethereum_mix` on the in-memory backend: low contention, large
    /// state, root commitment dominates.
    Mainnet,
    /// `call_heavy` on the in-memory backend: analysis and VM dominate.
    CallHeavy,
    /// `loop_heavy` on the LSM backend: many writes, segment reads,
    /// loop-summarized binding and the only mispredictions.
    AirdropLsm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Mainnet, Workload::CallHeavy, Workload::AirdropLsm];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Mainnet => "mainnet",
            Workload::CallHeavy => "call_heavy",
            Workload::AirdropLsm => "airdrop_lsm",
        }
    }

    fn config(self, seed: u64) -> WorkloadConfig {
        match self {
            Workload::Mainnet => WorkloadConfig::ethereum_mix(seed),
            Workload::CallHeavy => WorkloadConfig::call_heavy(seed),
            Workload::AirdropLsm => WorkloadConfig::loop_heavy(seed),
        }
    }

    pub fn lsm(self) -> bool {
        self == Workload::AirdropLsm
    }

    /// Blocks drawn at set-up: a multiple of the segment length. The block
    /// stream cycles through them for as long as a run lasts.
    pub fn chain_blocks(self) -> usize {
        match self {
            Workload::Mainnet => 60,
            Workload::CallHeavy => 40,
            Workload::AirdropLsm => 20,
        }
    }
}

/// The block environment of chain block `i` (the same numbering
/// `run_pipelined_chain` uses).
pub fn env_of(i: usize) -> BlockEnv {
    BlockEnv::new(1 + i as u64, 1_700_000_000 + (1 + i as u64) * 12)
}

/// The executor configuration `run_pipelined_chain` builds at 2 threads.
pub fn parallel_config() -> ParallelConfig {
    ParallelConfig {
        threads: THREADS,
        max_attempts: 64,
        scheduler: SchedulerPolicy::CriticalPath,
        pin_cores: false,
    }
}

/// A genesis `StateDb` whose LSM segment directory, if any, is removed
/// when it drops.
pub struct GenesisDb {
    pub db: StateDb,
    dir: Option<PathBuf>,
}

impl Drop for GenesisDb {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            // Open segment files stay readable after the unlink, so a
            // snapshot that outlives the db is still sound.
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Everything a run needs before its first timed block.
pub struct Setup {
    pub workload: Workload,
    pub analyzer: Analyzer,
    pub genesis: Vec<(StateKey, U256)>,
    pub blocks: Vec<Vec<Transaction>>,
    /// Seconds the genesis `StateDb` build took.
    pub genesis_build_s: f64,
    /// Milliseconds per drawn block.
    pub block_gen_ms: f64,
}

impl Setup {
    /// Builds the set-up and the genesis db of the first replay. The whole
    /// call is what `setup_s` times.
    pub fn build(workload: Workload, seed: u64) -> (Setup, GenesisDb) {
        let mut generator = WorkloadGenerator::new(workload.config(seed));
        let analyzer = Analyzer::new(generator.registry().clone());
        let genesis = generator.genesis_entries();

        let started = Instant::now();
        let blocks: Vec<Vec<Transaction>> = (0..workload.chain_blocks())
            .map(|_| generator.block(BLOCK_SIZE))
            .collect();
        let block_gen_ms = started.elapsed().as_secs_f64() * 1e3 / blocks.len() as f64;
        let warmup = generator.block(BLOCK_SIZE);

        let mut setup = Setup {
            workload,
            analyzer,
            genesis,
            blocks,
            genesis_build_s: 0.0,
            block_gen_ms,
        };
        let started = Instant::now();
        let db = setup.genesis_db();
        setup.genesis_build_s = started.elapsed().as_secs_f64();

        // Warm the P-SAG and summary caches on a block that is never timed.
        refine_csags(
            &setup.analyzer,
            &warmup,
            db.db.latest(),
            &env_of(0),
            THREADS,
        );
        (setup, db)
    }

    /// A fresh genesis db on the workload's backend, hashing on
    /// [`THREADS`] threads.
    pub fn genesis_db(&self) -> GenesisDb {
        let (backend, dir): (Arc<dyn StateBackend>, _) = if self.workload.lsm() {
            let dir = PathBuf::from(LSM_ROOT).join(format!(
                "{}-{}",
                std::process::id(),
                LSM_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let options = LsmOptions {
                dir: Some(dir.clone()),
                ..LsmOptions::default()
            };
            (Arc::new(LsmBackend::new(options)), Some(dir))
        } else {
            (Arc::new(MemBackend::new()), None)
        };
        let mut db = StateDb::with_backend(backend, self.genesis.iter().copied());
        db.set_hash_threads(THREADS);
        GenesisDb { db, dir }
    }

    /// Transactions in stream block `k`; the stream cycles through
    /// [`Setup::blocks`].
    fn block_txs(&self, k: usize) -> u64 {
        self.blocks[k % self.blocks.len()].len() as u64
    }

    pub fn txs_in(&self, blocks: std::ops::Range<usize>) -> u64 {
        blocks.map(|k| self.block_txs(k)).sum()
    }

    pub fn txs_of(&self, blocks: &[usize]) -> u64 {
        blocks.iter().map(|&k| self.block_txs(k)).sum()
    }
}

/// Removes the LSM root directory once every run-local store is gone
/// (a no-op if another run still has stores there).
pub fn remove_lsm_root() {
    let _ = std::fs::remove_dir(LSM_ROOT);
}
