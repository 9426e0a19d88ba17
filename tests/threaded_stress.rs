//! Stress tests for the multi-threaded executor: consecutive workload
//! blocks, both contention profiles, pool-style stale C-SAGs, and a
//! DST-driven injected-misprediction variant — the root chain must match
//! serial execution block for block.

use std::sync::Arc;

use dmvcc_analysis::{AnalysisConfig, Analyzer};
use dmvcc_core::{
    build_csags, execute_block_serial, HybridExecutor, ParallelConfig, ParallelExecutor,
    SchedulerPolicy, StmExecutor,
};
use dmvcc_dst::{FaultPlan, SchedConfig, VirtualScheduler};
use dmvcc_state::{Snapshot, StateDb};
use dmvcc_vm::BlockEnv;
use dmvcc_workload::{WorkloadConfig, WorkloadGenerator};

fn small(base: WorkloadConfig) -> WorkloadConfig {
    WorkloadConfig {
        accounts: 120,
        token_contracts: 6,
        amm_contracts: 3,
        nft_contracts: 2,
        counter_contracts: 1,
        ballot_contracts: 1,
        fig1_contracts: 1,
        auction_contracts: 1,
        crowdsale_contracts: 1,
        batch_pay_contracts: 1,
        router_contracts: 2,
        ..base
    }
}

fn run_chain(
    workload: WorkloadConfig,
    blocks: usize,
    block_size: usize,
    hide: f64,
    threads: usize,
) {
    let mut generator = WorkloadGenerator::new(workload);
    let analyzer = Analyzer::with_config(
        generator.registry().clone(),
        AnalysisConfig {
            hide_fraction: hide,
            seed: 3,
            ..Default::default()
        },
    );
    let executor = ParallelExecutor::new(
        analyzer.clone(),
        ParallelConfig {
            threads,
            max_attempts: 64,
            scheduler: SchedulerPolicy::CriticalPath,
            pin_cores: false,
        },
    );
    let mut serial_db = StateDb::with_genesis(generator.genesis_entries());
    let mut parallel_db = serial_db.clone();
    for height in 1..=blocks as u64 {
        let txs = generator.block(block_size);
        let env = BlockEnv::new(height, 1_700_000_000 + height * 12);
        let snapshot = serial_db.latest().clone();
        let trace = execute_block_serial(&txs, &snapshot, &analyzer, &env);
        let outcome = executor.execute_block(&txs, &snapshot, &env);
        let serial_root = serial_db.commit(&trace.final_writes);
        let parallel_root = parallel_db.commit(&outcome.final_writes);
        assert_eq!(
            serial_root, parallel_root,
            "root mismatch at block {height} (hide={hide})"
        );
    }
}

#[test]
fn realistic_chain_three_blocks() {
    run_chain(small(WorkloadConfig::ethereum_mix(21)), 3, 120, 0.0, 4);
}

#[test]
fn hot_chain_three_blocks() {
    run_chain(small(WorkloadConfig::high_contention(22)), 3, 120, 0.0, 4);
}

#[test]
fn hot_chain_with_lossy_analysis() {
    // A quarter of the state keys invisible to the analyzer: the abort
    // machinery must still converge to serial roots on every block.
    run_chain(small(WorkloadConfig::high_contention(23)), 3, 100, 0.25, 4);
}

#[test]
fn hot_chain_eight_threads_matches_serial_roots() {
    // Oversubscribed high-contention stress: eight workers hammer the
    // sharded sequences, the waiter index and the abort cascades far past
    // the physical core count; the MPT root chain must still match serial
    // block for block.
    run_chain(small(WorkloadConfig::high_contention(25)), 3, 150, 0.0, 8);
}

#[test]
fn hot_chain_eight_threads_lossy_analysis() {
    // Same, with a fifth of the keys hidden from the analyzer so dynamic
    // insertions and cascading aborts are exercised under oversubscription.
    run_chain(small(WorkloadConfig::high_contention(26)), 2, 120, 0.2, 8);
}

#[test]
fn stm_hot_chain_eight_threads_matches_serial_roots() {
    // The optimistic executor on oversubscribed high-contention blocks:
    // no predictions, pure optimism, validation-ordered commit — the MPT
    // root chain must match serial block for block.
    let mut generator = WorkloadGenerator::new(small(WorkloadConfig::high_contention(28)));
    let analyzer = Analyzer::new(generator.registry().clone());
    let executor = StmExecutor::new(
        analyzer.clone(),
        ParallelConfig {
            threads: 8,
            max_attempts: 64,
            scheduler: SchedulerPolicy::CriticalPath,
            pin_cores: false,
        },
    );
    let mut serial_db = StateDb::with_genesis(generator.genesis_entries());
    let mut parallel_db = serial_db.clone();
    for height in 1..=3u64 {
        let txs = generator.block(150);
        let env = BlockEnv::new(height, 1_700_000_000 + height * 12);
        let snapshot = serial_db.latest().clone();
        let trace = execute_block_serial(&txs, &snapshot, &analyzer, &env);
        let outcome = executor.execute_block(&txs, &snapshot, &env);
        let serial_root = serial_db.commit(&trace.final_writes);
        let parallel_root = parallel_db.commit(&outcome.final_writes);
        assert_eq!(
            serial_root, parallel_root,
            "stm root mismatch at block {height}"
        );
        // Convergence bound: each transaction runs at most twice.
        assert!(
            outcome.stats.attempts <= 2 * txs.len() as u64,
            "stm executed more than twice per transaction"
        );
    }
}

#[test]
fn hybrid_all_unanalyzable_eight_threads_under_storm() {
    // Every transaction lint-flagged as unanalyzable: the hybrid executor
    // degenerates to a fully optimistic run (all predictions stripped),
    // on eight oversubscribed workers, under the stormy virtual scheduler
    // AND a fault plan grafting phantom/dropped keys onto the (already
    // withheld) predictions — the serial oracle must still be matched key
    // for key and status for status.
    let mut generator = WorkloadGenerator::new(small(WorkloadConfig::high_contention(29)));
    let analyzer = Analyzer::with_config(
        generator.registry().clone(),
        AnalysisConfig {
            hide_fraction: 0.15,
            seed: 29,
            ..Default::default()
        },
    );
    let genesis = Snapshot::from_entries(generator.genesis_entries());
    let env = BlockEnv::new(1, 1_700_000_000);
    let txs: Vec<_> = generator
        .block(120)
        .into_iter()
        .map(|tx| tx.unanalyzable())
        .collect();
    let trace = execute_block_serial(&txs, &genesis, &analyzer, &env);
    let serial_statuses: Vec<_> = trace.txs.iter().map(|t| t.status.clone()).collect();
    let mut csags = build_csags(&txs, &genesis, &analyzer, &env);
    FaultPlan::standard(0xD58).perturb_csags(&mut csags);

    for policy in [SchedulerPolicy::Fifo, SchedulerPolicy::CriticalPath] {
        let hybrid = HybridExecutor::new(
            analyzer.clone(),
            ParallelConfig {
                threads: 8,
                max_attempts: 64,
                scheduler: policy,
                pin_cores: false,
            },
        )
        .with_hook(Arc::new(VirtualScheduler::new(SchedConfig::stormy(29))));
        let outcome = hybrid.execute_block_with_csags(&txs, &genesis, &env, &csags);
        assert_eq!(
            outcome.final_writes,
            trace.final_writes,
            "all-unanalyzable hybrid diverged from serial ({})",
            policy.label()
        );
        assert_eq!(
            outcome.statuses,
            serial_statuses,
            "all-unanalyzable hybrid statuses diverged ({})",
            policy.label()
        );
        assert_eq!(
            outcome.stats.optimistic_txs,
            txs.len() as u64,
            "every transaction must have routed optimistic ({})",
            policy.label()
        );
    }

    // The same flagged block through the pure STM engine under the same
    // storm (the perturbed C-SAGs ride along as an interning hint only).
    let stm = StmExecutor::new(
        analyzer,
        ParallelConfig {
            threads: 8,
            max_attempts: 64,
            scheduler: SchedulerPolicy::CriticalPath,
            pin_cores: false,
        },
    )
    .with_hook(Arc::new(VirtualScheduler::new(SchedConfig::stormy(29))));
    let outcome = stm.execute_block_with_csags(&txs, &genesis, &env, &csags);
    assert_eq!(
        outcome.final_writes, trace.final_writes,
        "stm diverged under storm"
    );
    assert_eq!(
        outcome.statuses, serial_statuses,
        "stm statuses diverged under storm"
    );
}

#[test]
fn stale_csags_from_previous_snapshot() {
    // The pool scenario: C-SAGs built against the PREVIOUS block's
    // snapshot (stale predictions), executed against the current one.
    let mut generator = WorkloadGenerator::new(small(WorkloadConfig::high_contention(24)));
    let analyzer = Analyzer::new(generator.registry().clone());
    let executor = ParallelExecutor::new(
        analyzer.clone(),
        ParallelConfig {
            threads: 4,
            max_attempts: 64,
            scheduler: SchedulerPolicy::CriticalPath,
            pin_cores: false,
        },
    );
    let mut db = StateDb::with_genesis(generator.genesis_entries());
    let stale_snapshot = db.latest().clone();

    // Advance one block so the live snapshot differs from the stale one.
    let env1 = BlockEnv::new(1, 1_700_000_000);
    let warmup = generator.block(100);
    let trace1 = execute_block_serial(&warmup, &stale_snapshot, &analyzer, &env1);
    db.commit(&trace1.final_writes);

    let env2 = BlockEnv::new(2, 1_700_000_012);
    let txs = generator.block(100);
    let live_snapshot = db.latest().clone();
    // Predictions against the stale snapshot…
    let stale_csags = build_csags(&txs, &stale_snapshot, &analyzer, &env2);
    // …executed against the live one.
    let trace = execute_block_serial(&txs, &live_snapshot, &analyzer, &env2);
    let outcome = executor.execute_block_with_csags(&txs, &live_snapshot, &env2, &stale_csags);
    assert_eq!(outcome.final_writes, trace.final_writes);
}

#[test]
fn injected_mispredictions_eight_threads_match_serial() {
    // The DST plane turned on the stress suite: the fault plan drops
    // predicted keys and grafts phantom writes onto the C-SAGs, the
    // virtual scheduler perturbs the interleaving (preemption bursts,
    // delayed publishes, injected abort storms, forced release gates) on
    // eight oversubscribed workers — and both the sharded engine and the
    // independent optimistic (STM) engine must still agree with the
    // serial oracle, key for key and status for status. STM takes the
    // perturbed C-SAGs as an interning hint only.
    let mut generator = WorkloadGenerator::new(small(WorkloadConfig::high_contention(27)));
    let analyzer = Analyzer::with_config(
        generator.registry().clone(),
        AnalysisConfig {
            hide_fraction: 0.15,
            seed: 27,
            ..Default::default()
        },
    );
    let genesis = Snapshot::from_entries(generator.genesis_entries());
    let env = BlockEnv::new(1, 1_700_000_000);
    let txs = generator.block(120);
    let trace = execute_block_serial(&txs, &genesis, &analyzer, &env);
    let mut csags = build_csags(&txs, &genesis, &analyzer, &env);
    FaultPlan::standard(0xD57).perturb_csags(&mut csags);

    let serial_statuses: Vec<_> = trace.txs.iter().map(|t| t.status.clone()).collect();

    for policy in [SchedulerPolicy::Fifo, SchedulerPolicy::CriticalPath] {
        let config = ParallelConfig {
            threads: 8,
            max_attempts: 64,
            scheduler: policy,
            pin_cores: false,
        };

        let sharded = ParallelExecutor::new(analyzer.clone(), config)
            .with_hook(Arc::new(VirtualScheduler::new(SchedConfig::stormy(27))));
        let outcome = sharded.execute_block_with_csags(&txs, &genesis, &env, &csags);
        assert_eq!(
            outcome.final_writes,
            trace.final_writes,
            "sharded executor diverged from serial under injected mispredictions ({})",
            policy.label()
        );
        assert_eq!(
            outcome.statuses,
            serial_statuses,
            "sharded statuses diverged ({})",
            policy.label()
        );

        let stm = StmExecutor::new(analyzer.clone(), config)
            .with_hook(Arc::new(VirtualScheduler::new(SchedConfig::stormy(27))));
        let outcome = stm.execute_block_with_csags(&txs, &genesis, &env, &csags);
        assert_eq!(
            outcome.final_writes,
            trace.final_writes,
            "STM executor diverged from serial under injected mispredictions ({})",
            policy.label()
        );
        assert_eq!(
            outcome.statuses,
            serial_statuses,
            "STM statuses diverged ({})",
            policy.label()
        );
    }
}
