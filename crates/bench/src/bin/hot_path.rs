//! Hot-path micro-benchmarks: the three memory-layout optimizations of the
//! raw-speed pass, each measured against the structure it replaced.
//!
//! 1. **Key interning** — `StateKey → KeyId` probes through the frozen
//!    FxHash tier of [`KeyInterner`] vs the SipHash `HashMap<StateKey, u32>`
//!    lookups the executor used to do on every shard/waiter/DAG access.
//! 2. **Pooled spill buffers** — [`take_spill`]/[`recycle_spill`] recycling
//!    vs a fresh heap allocation per overflowing `SourceList` (the old
//!    `Vec::with_capacity` path).
//! 3. **Batched publishes** — grouping a release set by shard and taking
//!    each shard lock once vs locking per key, over the real
//!    [`ShardedSequences`] mutexes.
//!
//! Prints ns/op per variant and writes `bench-results/hot_path.json`.
//! Scale knobs: `DMVCC_HOT_KEYS` (distinct keys, default 4096),
//! `DMVCC_HOT_ITERS` (operations per timed loop, default 2_000_000).

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use serde::Serialize;

use dmvcc_bench::{env_usize, Lcg};
use dmvcc_core::{recycle_spill, take_spill, ShardedSequences, DEFAULT_SHARDS};
use dmvcc_primitives::{Address, U256};
use dmvcc_state::{KeyInterner, StateKey};

/// One before/after pair of a micro-benchmark.
#[derive(Debug, Serialize)]
struct HotPathPoint {
    /// What is being compared.
    benchmark: &'static str,
    /// The replaced structure.
    baseline: &'static str,
    /// Nanoseconds per operation through the replaced structure.
    baseline_ns_per_op: f64,
    /// The hot-path structure this PR lands.
    optimized: &'static str,
    /// Nanoseconds per operation through the new structure.
    optimized_ns_per_op: f64,
    /// `baseline / optimized` (higher is better).
    speedup: f64,
}

/// The full report written to `bench-results/hot_path.json`.
#[derive(Debug, Serialize)]
struct HotPathReport {
    distinct_keys: usize,
    iterations: usize,
    points: Vec<HotPathPoint>,
}

/// Builds `n` distinct storage keys spread over a handful of contracts —
/// the shape a real block's working set has.
fn make_keys(n: usize) -> Vec<StateKey> {
    (0..n)
        .map(|i| {
            let contract = Address::from_u64(1000 + (i % 8) as u64);
            StateKey::storage(contract, U256::from(i as u64))
        })
        .collect()
}

/// Times `iters` runs of `op` and returns ns/op.
fn time_per_op(iters: usize, mut op: impl FnMut(usize)) -> f64 {
    // Untimed warmup so both variants start with warm caches.
    for i in 0..iters / 10 {
        op(i);
    }
    let start = Instant::now();
    for i in 0..iters {
        op(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Interner probe vs SipHash map lookup over the same access pattern.
fn bench_interning(keys: &[StateKey], iters: usize) -> HotPathPoint {
    let mut interner = KeyInterner::new();
    let mut map: HashMap<StateKey, u32> = HashMap::with_capacity(keys.len());
    for (i, key) in keys.iter().enumerate() {
        interner.preintern(*key);
        map.insert(*key, i as u32);
    }
    let order: Vec<usize> = {
        let mut lcg = Lcg(0x5eed);
        (0..iters)
            .map(|_| lcg.next_u64() as usize % keys.len())
            .collect()
    };

    let baseline_ns = time_per_op(iters, |i| {
        let key = &keys[order[i % iters]];
        black_box(map.get(black_box(key)));
    });
    let optimized_ns = time_per_op(iters, |i| {
        let key = &keys[order[i % iters]];
        black_box(interner.intern(black_box(*key)));
    });
    HotPathPoint {
        benchmark: "key lookup",
        baseline: "HashMap<StateKey, u32> (SipHash)",
        baseline_ns_per_op: baseline_ns,
        optimized: "KeyInterner frozen tier (FxHash)",
        optimized_ns_per_op: optimized_ns,
        speedup: baseline_ns / optimized_ns,
    }
}

/// Pooled spill recycling vs a fresh allocation per spill.
///
/// A spilled merge chain is long by definition (the 4 inline slots already
/// overflowed) and keeps growing as upstream writers accumulate; the old
/// path started every spill at `Vec::with_capacity(8)` and paid the
/// reallocation-and-copy ladder on each chain, while pooled buffers come
/// back with their high-water capacity intact.
fn bench_spill_pool(iters: usize) -> HotPathPoint {
    const CHAIN: usize = 24;
    let baseline_ns = time_per_op(iters, |i| {
        let mut buffer: Vec<usize> = Vec::with_capacity(8);
        for s in 0..CHAIN {
            buffer.push(i + s);
        }
        black_box(&buffer);
        drop(buffer);
    });
    let optimized_ns = time_per_op(iters, |i| {
        let mut buffer = take_spill();
        for s in 0..CHAIN {
            buffer.push(i + s);
        }
        black_box(&buffer);
        recycle_spill(buffer);
    });
    HotPathPoint {
        benchmark: "spill buffer",
        baseline: "Vec::with_capacity per spill",
        baseline_ns_per_op: baseline_ns,
        optimized: "thread-local spill pool",
        optimized_ns_per_op: optimized_ns,
        speedup: baseline_ns / optimized_ns,
    }
}

/// Per-key shard locking vs one lock per shard over a release set, on the
/// real `ShardedSequences` mutexes with worker threads contending the way
/// a parallel block does.
///
/// The merge ratio is bounded by the shard count: a transfer's ~8-key
/// release set touching ~7 distinct shards saves little, while a
/// loop-summarized release (airdrop writing dozens of recipient balances)
/// collapses to at most one lock per shard. Both shapes are measured.
fn bench_batched_publish(
    benchmark: &'static str,
    release_set: usize,
    keys: &[StateKey],
    iters: usize,
) -> HotPathPoint {
    const WORKERS: usize = 4;
    let sequences = ShardedSequences::with_shards(DEFAULT_SHARDS);
    let ids: Vec<_> = keys.iter().map(|k| sequences.intern(*k)).collect();
    let rounds = (iters / release_set / WORKERS).max(1);
    let sets: Vec<Vec<_>> = {
        let mut lcg = Lcg(0xb10c);
        (0..4096)
            .map(|_| {
                (0..release_set)
                    .map(|_| ids[lcg.next_u64() as usize % ids.len()])
                    .collect()
            })
            .collect()
    };

    // Both variants run the same round count on WORKERS threads; wall time
    // over total published keys gives contended ns/key.
    let run = |batched: bool| -> f64 {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for worker in 0..WORKERS {
                let sequences = &sequences;
                let sets = &sets;
                scope.spawn(move || {
                    // Same grouping the executor's release path uses: sort
                    // the set by shard, walk it in same-shard chunks.
                    let mut scratch = Vec::with_capacity(release_set);
                    for i in 0..rounds {
                        let set = &sets[(i * WORKERS + worker) % sets.len()];
                        if batched {
                            scratch.clear();
                            scratch.extend_from_slice(set);
                            scratch.sort_unstable_by_key(|&id| sequences.shard_index_of(id));
                            for group in scratch.chunk_by(|a, b| {
                                sequences.shard_index_of(*a) == sequences.shard_index_of(*b)
                            }) {
                                let shard = sequences.shard_for(group[0]);
                                for &id in group {
                                    black_box(id);
                                }
                                black_box(&*shard);
                            }
                        } else {
                            for &id in set {
                                let shard = sequences.shard_for(id);
                                black_box(&*shard);
                            }
                        }
                    }
                });
            }
        });
        start.elapsed().as_nanos() as f64 / (rounds * WORKERS * release_set) as f64
    };

    run(true); // warmup (threads spawned, locks touched)
    let baseline_ns = run(false);
    let optimized_ns = run(true);
    HotPathPoint {
        benchmark,
        baseline: "one shard lock per key (4 threads)",
        baseline_ns_per_op: baseline_ns,
        optimized: "grouped by shard, one lock each",
        optimized_ns_per_op: optimized_ns,
        speedup: baseline_ns / optimized_ns,
    }
}

fn main() {
    let distinct_keys = env_usize("DMVCC_HOT_KEYS", 4096);
    let iterations = env_usize("DMVCC_HOT_ITERS", 2_000_000);
    let keys = make_keys(distinct_keys);

    let points = vec![
        bench_interning(&keys, iterations),
        bench_spill_pool(iterations),
        bench_batched_publish("publish (transfer, 8)", 8, &keys, iterations),
        bench_batched_publish("publish (airdrop, 48)", 48, &keys, iterations),
    ];

    println!(
        "{:<22} {:>34} {:>10} {:>38} {:>10} {:>8}",
        "benchmark", "baseline", "ns/op", "optimized", "ns/op", "speedup"
    );
    for p in &points {
        println!(
            "{:<22} {:>34} {:>10.2} {:>38} {:>10.2} {:>7.2}x",
            p.benchmark,
            p.baseline,
            p.baseline_ns_per_op,
            p.optimized,
            p.optimized_ns_per_op,
            p.speedup
        );
    }

    let report = HotPathReport {
        distinct_keys,
        iterations,
        points,
    };
    dmvcc_bench::write_json("hot_path", &report);
}
