//! The repository benchmark: wall-clock chain throughput and block latency
//! per engine (`--trace 0`), and an outside-in per-layer trace
//! (`--trace 1`). See `perfbench/README.md` for the workloads, the layer
//! map and the baseline.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload mainnet --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod chain;
mod check;
mod layers;
mod replay;
mod setup;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use chain::{Engine, EngineChain, Segment, SEGMENT_BLOCKS};
use check::Oracle;
use layers::{Layers, TracedPass};
use setup::{GenesisDb, Setup, Workload};
use stats::{median, quantile, Metrics};

/// Set-ups per run: at least [`MIN_SETUPS`], then more until
/// [`SETUP_SECONDS`] have passed. `setup_s` is their median, so a cheap
/// set-up is sampled often enough to be steady. The first three
/// set-ups' genesis dbs serve the three engine chains.
const MIN_SETUPS: usize = 3;
const SETUP_SECONDS: f64 = 3.0;

/// DMVCC block intervals a run must collect so that at least ten lie
/// above the reported p90.
const MIN_BLOCK_SAMPLES: usize = 100;

/// Traced passes a run makes at least, so the count metrics can be
/// compared between two passes.
const MIN_TRACED_PASSES: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("invalid value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let steal = stats::StealClock::start();
    let mut report = if args.trace {
        traced_run(&args)
    } else {
        end_to_end_run(&args)
    };
    setup::remove_lsm_root();
    if args.trace {
        report
            .metrics
            .push("host.steal_frac", steal.frac(), "fraction");
    } else {
        println!("host: steal {:.3} of CPU time", steal.frac());
    }
    report.print();
    ExitCode::SUCCESS
}

/// What a run prints as its last line.
struct Report {
    attempted: u64,
    failed: u64,
    /// False on any failed transaction or a count that did not repeat.
    correct: bool,
    metrics: Metrics,
}

impl Report {
    fn print(&self) {
        self.metrics.print_table();
        println!(
            "failed share: {} of {} transactions",
            self.failed, self.attempted
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        );
    }
}

/// Timings of one set-up build.
struct SetupTiming {
    total_s: f64,
    genesis_build_s: f64,
    block_gen_ms: f64,
}

/// Builds the set-up as often as [`MIN_SETUPS`] and [`SETUP_SECONDS`]
/// say; returns the last set-up, the genesis dbs of the first
/// [`MIN_SETUPS`] builds and the timings of all.
fn timed_setups(args: &Args) -> (Setup, Vec<GenesisDb>, Vec<SetupTiming>) {
    let mut timings: Vec<SetupTiming> = Vec::new();
    let mut dbs = Vec::with_capacity(MIN_SETUPS);
    let mut last = None;
    let spent = |timings: &[SetupTiming]| timings.iter().map(|t| t.total_s).sum::<f64>();
    while timings.len() < MIN_SETUPS || spent(&timings) < SETUP_SECONDS {
        drop(last.take());
        let started = Instant::now();
        let (setup, db) = Setup::build(args.workload, args.seed);
        timings.push(SetupTiming {
            total_s: started.elapsed().as_secs_f64(),
            genesis_build_s: setup.genesis_build_s,
            block_gen_ms: setup.block_gen_ms,
        });
        if dbs.len() < MIN_SETUPS {
            dbs.push(db);
        }
        last = Some(setup);
    }
    (last.expect("MIN_SETUPS > 0"), dbs, timings)
}

fn end_to_end_run(args: &Args) -> Report {
    let (setup, dbs, setup_timings) = timed_setups(args);
    let engines = [Engine::Dmvcc, Engine::Stm, Engine::Serial];
    let mut chains: Vec<EngineChain> = engines
        .into_iter()
        .zip(dbs)
        .map(|(engine, db)| EngineChain::new(engine, &setup, db))
        .collect();
    // One untimed segment per engine fills caches, arenas and the
    // allocator; its blocks are still checked.
    for chain in &mut chains {
        chain.run_segment(&setup);
        chain.segments.clear();
    }
    let samples = |chains: &[EngineChain]| chain::intervals_ms(&chains[0].segments).len();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let measured = |chains: &[EngineChain]| -> Duration {
        chains
            .iter()
            .flat_map(|c| &c.segments)
            .map(|s| s.wall)
            .sum()
    };
    let mut peak_rss_mb = None;
    while samples(&chains) < MIN_BLOCK_SAMPLES || measured(&chains) < budget {
        for chain in &mut chains {
            chain.run_segment(&setup);
        }
        // Sampled after a fixed amount of work, so a faster program is
        // not charged for the history of the extra blocks it had time for.
        if samples(&chains) >= MIN_BLOCK_SAMPLES {
            peak_rss_mb.get_or_insert_with(stats::peak_rss_mb);
        }
    }
    let loop_s = started.elapsed().as_secs_f64();
    let measured_s = measured(&chains).as_secs_f64();

    // Check after the timed region, with the engine dbs dropped first so
    // the oracle's db is the only one alive.
    let results: Vec<_> = chains
        .iter_mut()
        .map(|c| (std::mem::take(&mut c.digests), std::mem::take(&mut c.roots)))
        .collect();
    // The serial chain (last in `engines`) kept the oracle's write sets.
    let serial_writes = std::mem::take(&mut chains[2].writes);
    let segments: Vec<Vec<Segment>> = chains.into_iter().map(|c| c.segments).collect();
    let check_started = Instant::now();
    let oracle = Oracle::new(&setup.genesis, &serial_writes);
    let attempted = results.iter().map(|(d, _)| setup.txs_in(0..d.len())).sum();
    let failed = results
        .iter()
        .map(|(digests, roots)| setup.txs_of(&oracle.mismatches(digests, Some(roots))))
        .sum();
    let check_s = check_started.elapsed().as_secs_f64();

    let [dmvcc, stm, serial] = &segments[..] else {
        unreachable!("one chain per engine")
    };
    let intervals = chain::intervals_ms(dmvcc);
    let mut metrics = Metrics::default();
    metrics.push("chain_tps", chain::tps(dmvcc), "tx/s");
    metrics.push("block_ms_p50", quantile(&intervals, 0.5), "ms");
    metrics.push("block_ms_p90", quantile(&intervals, 0.9), "ms");
    metrics.push("stm_chain_tps", chain::tps(stm), "tx/s");
    metrics.push("serial_chain_tps", chain::tps(serial), "tx/s");
    metrics.push(
        "setup_s",
        median(setup_timings.iter().map(|t| t.total_s)),
        "s",
    );
    metrics.push("peak_rss_mb", peak_rss_mb.unwrap_or_default(), "MiB");
    for (engine, segments) in engines.iter().zip(&segments) {
        let tps: Vec<String> = segments.iter().map(|s| format!("{:.0}", s.tps())).collect();
        println!("{engine:?} tx/s per segment: {}", tps.join(" "));
    }
    println!(
        "{}: {} blocks of {} txs per engine in segments of {SEGMENT_BLOCKS}, {} DMVCC block intervals",
        setup.workload.name(),
        results[0].0.len(),
        setup::BLOCK_SIZE,
        intervals.len(),
    );
    println!(
        "{} set-ups {:.1} s, measured {measured_s:.1} s in a {loop_s:.1} s loop, check {check_s:.1} s; host: nproc {}, cpu_ref {:.3} ms",
        setup_timings.len(),
        setup_timings.iter().map(|t| t.total_s).sum::<f64>(),
        stats::nproc(),
        stats::cpu_ref_ms()
    );
    Report {
        attempted,
        failed,
        correct: failed == 0,
        metrics,
    }
}

/// The count fields that must repeat exactly for the same seed: per
/// block the transactions, speculative refinements, gas and writes, then
/// the pass's LSM flushes and segment bytes.
fn fixed_counts(pass: &TracedPass) -> Vec<u64> {
    let mut counts: Vec<u64> = pass
        .counts
        .iter()
        .flat_map(|c| [c.txs, c.speculative, c.gas, c.writes])
        .collect();
    counts.extend([pass.lsm_flushes, pass.segment_bytes_written]);
    counts
}

fn traced_run(args: &Args) -> Report {
    let (setup, mut spare_dbs, setup_timings) = timed_setups(args);
    let mut genesis = || spare_dbs.pop().unwrap_or_else(|| setup.genesis_db());

    let layers = Layers::new(&setup);
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_TRACED_PASSES || started.elapsed() < budget {
        passes.push(layers.pass(&setup, genesis()));
    }
    drop(layers);

    // The untraced DMVCC and serial chains over the same blocks, for the
    // pipeline's own accounting.
    let mut dmvcc = EngineChain::new(Engine::Dmvcc, &setup, genesis());
    let mut serial = EngineChain::new(Engine::Serial, &setup, genesis());
    for _ in 0..setup.blocks.len() / SEGMENT_BLOCKS {
        dmvcc.run_segment(&setup);
        serial.run_segment(&setup);
    }

    // Blocks that failed, per checked path: the two chains, then per pass
    // the sharded engine (with its roots), STM, the serial oracle and the
    // VM replay (whose gas must match the oracle's too).
    let oracle = Oracle::new(&setup.genesis, &passes[0].serial_writes);
    let mut failed_blocks = vec![
        oracle.mismatches(&dmvcc.digests, Some(&dmvcc.roots)),
        oracle.mismatches(&serial.digests, Some(&serial.roots)),
    ];
    for pass in &passes {
        let [sharded, stm, serial, vm] = &pass.digests;
        failed_blocks.push(oracle.mismatches(sharded, Some(&pass.roots)));
        failed_blocks.push(oracle.mismatches(stm, None));
        failed_blocks.push(oracle.mismatches(serial, None));
        let mut vm = oracle.mismatches(vm, None);
        vm.extend(&pass.vm_gas_mismatches);
        vm.sort_unstable();
        vm.dedup();
        failed_blocks.push(vm);
    }
    let attempted = failed_blocks.len() as u64 * setup.txs_in(0..setup.blocks.len());
    let failed = failed_blocks.iter().map(|b| setup.txs_of(b)).sum();
    let repeatable = passes
        .iter()
        .all(|p| fixed_counts(p) == fixed_counts(&passes[0]));
    if !repeatable {
        eprintln!("error: count metrics differ between traced passes of one seed");
    }

    let times: Vec<_> = passes
        .iter()
        .flat_map(|p| p.times.iter().copied())
        .collect();
    let counts: Vec<_> = passes
        .iter()
        .flat_map(|p| p.counts.iter().copied())
        .collect();
    let layer = |f: fn(&layers::BlockTimes) -> f64| median(times.iter().map(f));
    let sum = |f: fn(&layers::BlockCounts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    let first = &passes[0];
    let first_sum =
        |f: fn(&layers::BlockCounts) -> u64| first.counts.iter().map(f).sum::<u64>() as f64;
    let segment_sum =
        |f: fn(&chain::Segment) -> u64| dmvcc.segments.iter().map(f).sum::<u64>() as f64;
    let blocks = setup.blocks.len() as f64;
    let chain_txs = segment_sum(|s| s.txs);
    let txs = sum(|c| c.txs);

    let refine_ms = layer(|t| t.refine);
    let execute_ms = layer(|t| t.execute);
    let serial_ms = layer(|t| t.serial);
    let vm_ms = layer(|t| t.vm);
    let snapshot_apply_ms = layer(|t| t.snapshot_apply);
    let apply_ms = layer(|t| t.apply);
    let hash_ms = layer(|t| t.hash);
    let hash_nanos = segment_sum(|s| s.hash_nanos);

    let mut m = Metrics::default();
    m.push("analysis.refine_ms", refine_ms, "ms");
    m.push(
        "analysis.speculative_frac",
        first_sum(|c| c.speculative) / first_sum(|c| c.txs),
        "fraction",
    );
    m.push(
        "analysis.speculative_txs",
        first_sum(|c| c.speculative),
        "count",
    );
    m.push("core.execute_ms", execute_ms, "ms");
    m.push("core.stm_execute_ms", layer(|t| t.stm_execute), "ms");
    m.push("core.serial_ms", serial_ms, "ms");
    m.push(
        "core.attempts_per_tx",
        segment_sum(|s| s.attempts) / chain_txs,
        "count",
    );
    m.push(
        "core.pipeline_aborts_per_ktx",
        segment_sum(|s| s.aborts) * 1e3 / chain_txs,
        "count",
    );
    m.push("core.parks_per_ktx", sum(|c| c.parks) * 1e3 / txs, "count");
    m.push("core.publishes_per_tx", sum(|c| c.publishes) / txs, "count");
    m.push(
        "core.publish_batch_size",
        sum(|c| c.publishes) / sum(|c| c.publish_batches),
        "count",
    );
    m.push(
        "core.shard_locks_per_tx",
        sum(|c| c.shard_locks) / txs,
        "count",
    );
    m.push(
        "core.rank_inversions",
        sum(|c| c.rank_inversions) / counts.len() as f64,
        "count",
    );
    m.push(
        "core.speedup_bound",
        median(first.counts.iter().map(|c| c.speedup_bound)),
        "x",
    );
    m.push(
        "core.stm_validation_fail_frac",
        sum(|c| c.stm_validation_failures) / sum(|c| c.stm_validations),
        "fraction",
    );
    m.push("core.exec_speedup_vs_serial", serial_ms / execute_ms, "x");
    m.push("vm.execute_ms", vm_ms, "ms");
    m.push(
        "vm.mgas_per_s",
        median(
            times
                .iter()
                .zip(&counts)
                .map(|(t, c)| c.gas as f64 / t.vm / 1e3),
        ),
        "Mgas/s",
    );
    m.push("vm.share_of_serial", vm_ms / serial_ms, "fraction");
    m.push("vm.gas_per_block", first_sum(|c| c.gas) / blocks, "gas");
    m.push("state.apply_ms", apply_ms, "ms");
    m.push("state.hash_ms", hash_ms, "ms");
    m.push("state.snapshot_apply_ms", snapshot_apply_ms, "ms");
    m.push(
        "state.writes_per_block",
        first_sum(|c| c.writes) / blocks,
        "count",
    );
    m.push(
        "state.genesis_build_s",
        median(setup_timings.iter().map(|t| t.genesis_build_s)),
        "s",
    );
    m.push(
        "state.segment_reads_per_block",
        first.segment_reads as f64 / blocks,
        "count",
    );
    m.push("state.lsm_flushes", first.lsm_flushes as f64, "count");
    m.push(
        "state.segment_mb_written",
        first.segment_bytes_written as f64 / (1024.0 * 1024.0),
        "MiB",
    );
    m.push(
        "chain.refine_hidden_frac",
        segment_sum(|s| s.refine_hidden_nanos) / segment_sum(|s| s.refine_nanos),
        "fraction",
    );
    m.push(
        "chain.commit_hidden_frac",
        (hash_nanos - segment_sum(|s| s.stall_nanos)).max(0.0) / hash_nanos,
        "fraction",
    );
    m.push(
        "chain.root_stall_ms",
        median(dmvcc.segments.iter().map(|s| s.stall_nanos as f64 / 1e6)),
        "ms",
    );
    m.push(
        "chain.speedup_vs_serial",
        chain::tps(&dmvcc.segments) / chain::tps(&serial.segments),
        "x",
    );
    m.push(
        "chain.pipeline_hidden_ms",
        refine_ms + execute_ms + snapshot_apply_ms + apply_ms + hash_ms
            - quantile(&chain::intervals_ms(&dmvcc.segments), 0.5),
        "ms",
    );
    m.push(
        "workload.block_gen_ms",
        median(setup_timings.iter().map(|t| t.block_gen_ms)),
        "ms",
    );
    m.push(
        "model.sim_speedup",
        median(first.counts.iter().map(|c| c.sim_speedup)),
        "x",
    );
    m.push("host.cpu_ref_ms", stats::cpu_ref_ms(), "ms");
    m.push("host.nproc", stats::nproc() as f64, "count");
    println!(
        "{}: {} traced passes of {} blocks ({} block samples per layer)",
        setup.workload.name(),
        passes.len(),
        setup.blocks.len(),
        times.len()
    );
    Report {
        attempted,
        failed,
        correct: failed == 0 && repeatable,
        metrics: m,
    }
}
