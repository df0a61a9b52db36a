//! The pipeline experiment: how much of the paper's predicted concurrency does a
//! block *producer* recover when it packs dependency-aware instead of fee-greedy?
//!
//! Streams one hot-spot-heavy Ethereum-style workload through the
//! `blockconc-pipeline` driver for every packer × engine × thread-count combination,
//! prints the comparison, and records the grid in `BENCH_pipeline.json` at the
//! repository root so future changes have a perf trajectory to regress against.
//!
//! A second experiment, the **pool-size sweep**, regression-guards the O(Δ)
//! incrementality claim: blocks are packed out of standing pools of 1k / 10k /
//! 100k transactions, once with the maintained ready-chain index + deletion-capable
//! TDG (what the driver does) and once with the pre-refactor per-block rebuild
//! (full TDG rebuild + O(pool) ready-chain materialization). Pack-phase cost per
//! block must grow sublinearly in the pool size — at the 100k point the maintained
//! path must be ≥ 5× cheaper than the rebuild baseline.
//!
//! A third experiment, the **wall-clock grid**, makes real time a primary axis
//! alongside the paper's model units: engine × threads × conflict profile
//! (`low-conflict` / `hotspot` / `adversarial`, the last a hot-account chainsim
//! profile where most transactions hit one exchange). Every cell reports
//! `model_units`, `wall_nanos` and `wall_tx_per_sec`; the headline row —
//! optimistic (Block-STM-style) engine ÷ sequential wall-clock tx/s at 8
//! threads on the low-conflict profile — is printed and recorded. No
//! wall-clock ratio in this binary is asserted (they read the host, and
//! `benchmark/` owns the clock); every deterministic property — unit
//! identity, roots, receipts, abort counts — is.
//!
//! A fourth experiment, the **hot-share sweep**, measures the hot-account wall
//! directly: the commutative-hotspot profile funnels 0% → 80% of traffic into
//! an exchange-deposit sink plus a fee-sink contract, and the headline is how
//! flat the delta-cell engine's wall-clock tx/s stays (reference: ≥ 0.8× its
//! cold throughput) where per-key tracking serializes.
//!
//! Run with `cargo run --release -p blockconc-bench --bin fig_pipeline`; pass
//! `--smoke` for the fast CI path (sweep at reduced sizes, relaxed assertions;
//! the reduced artifact goes to `target/bench-smoke/` for the CI
//! `obs bench-diff` step).

use blockconc::account::{AccountBlock, Receipt};
use blockconc::pipeline::{
    block_group_sizes, block_group_sizes_weak, BlockRecord, BlockTemplate, ConcurrencyAwarePacker,
    FeeGreedyPacker, TrackedPool,
};
use blockconc::prelude::*;
use blockconc::telemetry::Clock;
use blockconc_bench::{print_telemetry, write_artifact, BenchMeta, TelemetrySection};
use serde::{Deserialize, Serialize};

/// Shared dataset seed (same convention as the figure binaries).
const STREAM_SEED: u64 = 2020;
/// Transactions emitted by the arrival stream per cell.
const TOTAL_TXS: usize = 3_600;
/// Mean arrival rate, transactions per second.
const TX_RATE: f64 = 16.0;
/// Blocks produced per run.
const BLOCKS: usize = 16;
/// Thread grid for the parallel engines.
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// The headline comparison runs at this thread count.
const HEADLINE_THREADS: usize = 8;
/// Thread count of the headline wall-clock comparison (optimistic vs sequential).
const WALL_FLOOR_THREADS: usize = 8;
/// Reference for optimistic ÷ sequential wall-clock tx/s on the low-conflict
/// profile (printed beside the measured ratio).
const WALL_FLOOR_RATIO: f64 = 1.0;
/// Conflict profiles of the wall-clock grid.
const WALL_PROFILES: [&str; 3] = ["low-conflict", "hotspot", "adversarial"];
/// Hot-share sweep grid: the fraction of traffic funneled into commutative hot
/// spots (half exchange deposits, half fee-sink increments).
const HOT_SHARES: [f64; 5] = [0.0, 0.2, 0.4, 0.6, 0.8];
/// Reference for the hot-share sweep: the fraction of its own cold-workload
/// (0% hot share) throughput the delta-cell engine should hold at the hottest
/// point — the "near-flat hot-account wall" headline, printed beside the
/// measured ratio.
const HOT_SHARE_FLOOR: f64 = 0.8;

/// A hot-spot-heavy workload: one dominant exchange, a popular contract and a small
/// payout pool — the regime where fee-greedy packing leaves the most speed-up behind.
fn hotspot_params() -> AccountWorkloadParams {
    AccountWorkloadParams {
        txs_per_block: 200.0, // unused by the stream; block size is arrival-driven
        user_population: 20_000,
        fresh_receiver_share: 0.5,
        zipf_exponent: 0.4,
        hotspots: vec![
            HotspotSpec::exchange(0.40),
            HotspotSpec::contract(0.12, 3),
            HotspotSpec::pool(0.03),
        ],
        contract_create_share: 0.01,
    }
}

fn stream() -> ArrivalStream {
    ArrivalStream::new(hotspot_params(), TX_RATE, TOTAL_TXS, STREAM_SEED)
}

/// Conflict profiles for the wall-clock grid.
///
/// * `low-conflict` — every payment goes to a fresh receiver drawn from a huge
///   population: transactions are (almost) all pairwise independent, the regime
///   where optimistic execution should win outright.
/// * `hotspot` — the standard packer-grid workload (one dominant exchange plus a
///   contract and a payout pool).
/// * `adversarial` — the hot-account worst case: a small population where ~70% of
///   payments hit one exchange, plus contract and pool traffic on top. Optimistic
///   execution degrades toward bounded re-execution chains here; the grid records
///   how gracefully.
fn wall_profile_params(profile: &str) -> AccountWorkloadParams {
    match profile {
        "low-conflict" => AccountWorkloadParams {
            txs_per_block: 200.0,
            user_population: 200_000,
            fresh_receiver_share: 1.0,
            zipf_exponent: 0.0,
            hotspots: Vec::new(),
            contract_create_share: 0.0,
        },
        "hotspot" => hotspot_params(),
        "adversarial" => AccountWorkloadParams {
            txs_per_block: 200.0,
            user_population: 2_000,
            fresh_receiver_share: 0.05,
            zipf_exponent: 0.9,
            hotspots: vec![
                HotspotSpec::exchange(0.70),
                HotspotSpec::contract(0.15, 3),
                HotspotSpec::pool(0.05),
            ],
            contract_create_share: 0.01,
        },
        other => unreachable!("unknown conflict profile {other:?}"),
    }
}

fn config(threads: usize) -> PipelineConfig {
    PipelineConfig {
        threads,
        max_blocks: BLOCKS,
        // Every cell collects: per-stage quantiles land in the artifact's
        // telemetry section (each call builds a fresh registry, so cells
        // never share counters).
        telemetry: TelemetryRegistry::enabled(),
        ..PipelineConfig::default()
    }
}

fn run_cell(packer: &str, engine: &str, threads: usize) -> PipelineRunReport {
    let config = config(threads);
    match (packer, engine) {
        ("fee-greedy", "sequential") => {
            PipelineDriver::new(FeeGreedyPacker::new(), SequentialEngine::new(), config)
                .run(stream())
        }
        ("fee-greedy", "speculative") => PipelineDriver::new(
            FeeGreedyPacker::new(),
            SpeculativeEngine::new(threads),
            config,
        )
        .run(stream()),
        ("fee-greedy", "scheduled") => PipelineDriver::new(
            FeeGreedyPacker::new(),
            ScheduledEngine::new(threads),
            config,
        )
        .run(stream()),
        ("fee-greedy", "optimistic") => PipelineDriver::new(
            FeeGreedyPacker::new(),
            OptimisticEngine::new(threads),
            config,
        )
        .run(stream()),
        ("concurrency-aware", "sequential") => PipelineDriver::new(
            ConcurrencyAwarePacker::new(threads),
            SequentialEngine::new(),
            config,
        )
        .run(stream()),
        ("concurrency-aware", "speculative") => PipelineDriver::new(
            ConcurrencyAwarePacker::new(threads),
            SpeculativeEngine::new(threads),
            config,
        )
        .run(stream()),
        ("concurrency-aware", "scheduled") => PipelineDriver::new(
            ConcurrencyAwarePacker::new(threads),
            ScheduledEngine::new(threads),
            config,
        )
        .run(stream()),
        ("concurrency-aware", "optimistic") => PipelineDriver::new(
            ConcurrencyAwarePacker::new(threads),
            OptimisticEngine::new(threads),
            config,
        )
        .run(stream()),
        other => unreachable!("unknown cell {other:?}"),
    }
    .expect("pipeline run failed")
}

/// One grid cell's summary, as persisted to `BENCH_pipeline.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CellSummary {
    packer: String,
    engine: String,
    threads: usize,
    total_txs: usize,
    total_failed: usize,
    leftover_mempool: usize,
    mean_measured_speedup: f64,
    mean_predicted_speedup: f64,
    throughput_tps: f64,
    mean_mempool_len: f64,
    /// Abstract execution cost across the run (sum of per-block parallel units —
    /// the paper's model axis).
    model_units: u64,
    /// Execute-stage wall nanoseconds across the run (the hardware axis).
    wall_nanos: u64,
    /// Wall-clock execution throughput, transactions per second.
    wall_tx_per_sec: f64,
}

impl CellSummary {
    fn from_report(report: &PipelineRunReport) -> Self {
        CellSummary {
            packer: report.packer.clone(),
            engine: report.engine.clone(),
            threads: report.threads,
            total_txs: report.total_txs,
            total_failed: report.total_failed,
            leftover_mempool: report.leftover_mempool,
            mean_measured_speedup: report.mean_measured_speedup(),
            mean_predicted_speedup: report.mean_predicted_speedup(),
            throughput_tps: report.throughput_tps(),
            mean_mempool_len: report.mean_mempool_len(),
            model_units: report
                .blocks
                .iter()
                .map(|b| b.measured_parallel_units)
                .sum(),
            wall_nanos: report.total_execute_wall().as_nanos() as u64,
            wall_tx_per_sec: report.throughput_tps(),
        }
    }
}

/// One wall-clock grid cell: engine × threads × conflict profile, carrying both
/// the model axis and the hardware axis.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct WallCell {
    profile: String,
    engine: String,
    threads: usize,
    total_txs: usize,
    /// Abstract execution cost (sum of per-block parallel units).
    model_units: u64,
    /// Execute-stage wall nanoseconds across the run.
    wall_nanos: u64,
    /// Wall-clock execution throughput, transactions per second.
    wall_tx_per_sec: f64,
}

/// Runs one wall-clock grid cell: fee-greedy packing (packing strategy is the
/// *other* experiment's variable) over the given conflict profile, with telemetry
/// disabled so the wall numbers are as clean as the registry guard promises.
fn wall_cell(profile: &str, engine: &str, threads: usize, total_txs: usize) -> WallCell {
    let config = PipelineConfig {
        threads,
        max_blocks: BLOCKS,
        telemetry: TelemetryRegistry::disabled(),
        ..PipelineConfig::default()
    };
    let stream = ArrivalStream::new(
        wall_profile_params(profile),
        TX_RATE,
        total_txs,
        STREAM_SEED,
    );
    let report = match engine {
        "sequential" => {
            PipelineDriver::new(FeeGreedyPacker::new(), SequentialEngine::new(), config).run(stream)
        }
        "speculative" => PipelineDriver::new(
            FeeGreedyPacker::new(),
            SpeculativeEngine::new(threads),
            config,
        )
        .run(stream),
        "scheduled" => PipelineDriver::new(
            FeeGreedyPacker::new(),
            ScheduledEngine::new(threads),
            config,
        )
        .run(stream),
        "optimistic" => PipelineDriver::new(
            FeeGreedyPacker::new(),
            OptimisticEngine::new(threads),
            config,
        )
        .run(stream),
        other => unreachable!("unknown engine {other:?}"),
    }
    .expect("wall-grid run failed");
    WallCell {
        profile: profile.to_string(),
        engine: engine.to_string(),
        threads,
        total_txs: report.total_txs,
        model_units: report
            .blocks
            .iter()
            .map(|b| b.measured_parallel_units)
            .sum(),
        wall_nanos: report.total_execute_wall().as_nanos() as u64,
        wall_tx_per_sec: report.throughput_tps(),
    }
}

/// The wall-clock floor row: the optimistic engine at `WALL_FLOOR_THREADS`
/// threads against the sequential engine's wall-clock tx/s on the low-conflict
/// profile, interleaved best-of-N, printed next to the `WALL_FLOOR_RATIO`×
/// reference and recorded in the artifact. It asserts nothing: the ratio is a
/// reading of the host (0.2× on the 2-vCPU machines this repo is built on), and
/// `benchmark/` is where wall clock gates a change — paired runs, both commits.
fn wall_floor_guard(total_txs: usize) -> (WallCell, WallCell) {
    const ROUNDS: usize = 3;
    eprintln!(
        "[fig_pipeline] wall-clock floor guard ({ROUNDS} interleaved rounds, \
         {total_txs} txs)..."
    );
    let mut best_seq: Option<WallCell> = None;
    let mut best_opt: Option<WallCell> = None;
    for _ in 0..ROUNDS {
        let seq = wall_cell("low-conflict", "sequential", 1, total_txs);
        if best_seq
            .as_ref()
            .map_or(true, |b| seq.wall_tx_per_sec > b.wall_tx_per_sec)
        {
            best_seq = Some(seq);
        }
        let opt = wall_cell("low-conflict", "optimistic", WALL_FLOOR_THREADS, total_txs);
        if best_opt
            .as_ref()
            .map_or(true, |b| opt.wall_tx_per_sec > b.wall_tx_per_sec)
        {
            best_opt = Some(opt);
        }
    }
    let seq = best_seq.expect("floor guard ran");
    let opt = best_opt.expect("floor guard ran");
    let ratio = opt.wall_tx_per_sec / seq.wall_tx_per_sec.max(1.0);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "wall-clock floor: optimistic @ {} threads {:.0} tx/s vs sequential {:.0} tx/s \
         on low-conflict — {ratio:.2}x (reference {WALL_FLOOR_RATIO}x, {cores} core(s), \
         {} txs, seed {STREAM_SEED}; recorded, not asserted)",
        WALL_FLOOR_THREADS, opt.wall_tx_per_sec, seq.wall_tx_per_sec, opt.total_txs
    );
    (seq, opt)
}

/// One conflict-granularity grid cell: an engine on the shared-contract /
/// disjoint-slots profile, where every transaction touches one contract account
/// but each caller writes its own storage slot.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct GranularityCell {
    engine: String,
    threads: usize,
    blocks: usize,
    total_txs: usize,
    /// Validation aborts across the run.
    aborts: u64,
    /// Re-executed incarnations across the run.
    re_executions: u64,
    sequential_fallbacks: u64,
    wall_nanos: u64,
    wall_tx_per_sec: f64,
}

/// Executes the pre-generated `blocks` over a clone of `pre_state`, returning
/// the aggregated cell plus the committed receipts and final state root for the
/// equivalence checks.
fn run_granularity_engine(
    engine: &mut dyn ExecutionEngine,
    threads: usize,
    pre_state: &WorldState,
    blocks: &[AccountBlock],
) -> (GranularityCell, Hash, Vec<Receipt>) {
    let mut state = pre_state.clone();
    let mut aborts = 0u64;
    let mut re_executions = 0u64;
    let mut fallbacks = 0u64;
    let mut wall_nanos = 0u64;
    let mut receipts = Vec::new();
    let mut total_txs = 0usize;
    for block in blocks {
        total_txs += block.transaction_count();
        let (executed, report) = engine.execute(&mut state, block).expect("granularity run");
        aborts += report.aborts;
        re_executions += report.re_executions;
        fallbacks += report.sequential_fallbacks;
        wall_nanos += report.wall_time.as_nanos() as u64;
        receipts.extend(executed.receipts().iter().cloned());
    }
    let cell = GranularityCell {
        engine: engine.name().to_string(),
        threads,
        blocks: blocks.len(),
        total_txs,
        aborts,
        re_executions,
        sequential_fallbacks: fallbacks,
        wall_nanos,
        wall_tx_per_sec: total_txs as f64 / (wall_nanos.max(1) as f64 / 1e9),
    };
    (cell, state.state_root(), receipts)
}

/// The conflict-granularity guard: on the shared-contract / disjoint-slots
/// profile, per-`StateKey` tracking — with and without delta cells — must run
/// (almost) abort-free and stay bit-identical to sequential execution. (The
/// retired whole-account mode aborted on most of these calls; its last recorded
/// row is in `crates/execution/README.md`.)
fn granularity_guard(blocks: usize, txs_per_block: usize, threads: usize) -> Vec<GranularityCell> {
    eprintln!(
        "[fig_pipeline] conflict-granularity guard ({blocks} blocks x {txs_per_block} txs, \
         {threads} threads)..."
    );
    let mut gen = AccountWorkloadGen::new(
        AccountWorkloadParams::shared_contract_disjoint_slots(),
        STREAM_SEED,
    );
    let pre_state = gen.state().clone();
    let built: Vec<AccountBlock> = (0..blocks)
        .map(|h| {
            let txs = gen.generate_transactions(txs_per_block);
            AccountBlockBuilder::new(h as u64 + 1, 0, Address::from_low(999_999_999))
                .transactions(txs)
                .build()
        })
        .collect();

    let (seq_cell, seq_root, seq_receipts) =
        run_granularity_engine(&mut SequentialEngine::new(), 1, &pre_state, &built);
    let (key_cell, key_root, key_receipts) = run_granularity_engine(
        &mut OptimisticEngine::new(threads),
        threads,
        &pre_state,
        &built,
    );
    let (delta_cell, delta_root, delta_receipts) = run_granularity_engine(
        &mut OptimisticEngine::new(threads).with_delta_cells(),
        threads,
        &pre_state,
        &built,
    );
    assert_eq!(
        seq_receipts, key_receipts,
        "granularity guard: key-granular receipts diverge from sequential"
    );
    assert_eq!(
        seq_root, key_root,
        "granularity guard: key-granular state root diverges from sequential"
    );
    assert_eq!(
        seq_receipts, delta_receipts,
        "granularity guard: delta-cell receipts diverge from sequential"
    );
    assert_eq!(
        seq_root, delta_root,
        "granularity guard: delta-cell state root diverges from sequential"
    );

    println!(
        "\n{:<20} {:>7} {:>8} {:>8} {:>8} {:>14} {:>12}",
        "engine", "threads", "txs", "aborts", "re-exec", "wall ms", "wall tx/s"
    );
    for cell in [&seq_cell, &key_cell, &delta_cell] {
        println!(
            "{:<20} {:>7} {:>8} {:>8} {:>8} {:>14.2} {:>12.0}",
            cell.engine,
            cell.threads,
            cell.total_txs,
            cell.aborts,
            cell.re_executions,
            cell.wall_nanos as f64 / 1e6,
            cell.wall_tx_per_sec,
        );
    }

    // Per-key tracking dissolves the shared-contract conflicts by construction,
    // independent of scheduling — allow only stray same-sender collisions. The
    // delta-cell mode subsumes per-key tracking on this profile, so the same
    // near-zero bound applies.
    let total = key_cell.total_txs as u64;
    assert!(
        key_cell.aborts <= (total / 20).max(4),
        "granularity guard: key-granular engine must run the disjoint-slots profile \
         (nearly) abort-free, got {} aborts over {} txs",
        key_cell.aborts,
        total
    );
    assert!(
        delta_cell.aborts <= (total / 20).max(4),
        "granularity guard: delta-cell engine must run the disjoint-slots profile \
         (nearly) abort-free, got {} aborts over {} txs",
        delta_cell.aborts,
        total
    );
    vec![seq_cell, key_cell, delta_cell]
}

/// One hot-share sweep cell: an engine on the commutative-hotspot profile at a
/// given hot share, with the predicted group structure of both TDG variants
/// alongside the executed wall numbers.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct HotShareCell {
    /// Fraction of traffic hitting the commutative hot spots (split evenly
    /// between an exchange-deposit sink and a fee-sink contract).
    hot_share: f64,
    engine: String,
    threads: usize,
    blocks: usize,
    total_txs: usize,
    aborts: u64,
    re_executions: u64,
    sequential_fallbacks: u64,
    wall_nanos: u64,
    wall_tx_per_sec: f64,
    /// Share of the sweep point's transactions sitting in the largest
    /// strong-TDG component (summed largest group per block ÷ total txs) —
    /// the serialization wall a delta-blind scheduler predicts.
    strong_largest_group_share: f64,
    /// Same statistic under weak (delta-aware) edges: pure-credit transfers
    /// no longer fuse components, so the exchange half of the wall dissolves.
    weak_largest_group_share: f64,
}

/// The hot-share sweep: streams the commutative-hotspot profile at each
/// `HOT_SHARES` point through sequential, key-granular and delta-cell engines
/// over identical pre-generated blocks, recording wall tx/s plus the
/// strong-vs-weak predicted group structure. Every parallel run is asserted
/// bit-identical to sequential execution; the headline — how much of its cold
/// throughput the delta-cell engine holds as the hot share climbs to 80%,
/// against the `HOT_SHARE_FLOOR`× reference — is printed and recorded, not
/// asserted (wall clock; see [`wall_floor_guard`]).
fn hot_share_sweep(blocks: usize, txs_per_block: usize, threads: usize) -> Vec<HotShareCell> {
    eprintln!(
        "[fig_pipeline] hot-share sweep ({blocks} blocks x {txs_per_block} txs, \
         {threads} threads, shares {HOT_SHARES:?})..."
    );
    let mut cells: Vec<HotShareCell> = Vec::new();
    let mut delta_cold: Option<f64> = None;
    let mut delta_hot: Option<f64> = None;
    for &share in &HOT_SHARES {
        let mut gen = AccountWorkloadGen::new(
            AccountWorkloadParams::commutative_hotspot(share),
            STREAM_SEED,
        );
        let pre_state = gen.state().clone();
        let built: Vec<AccountBlock> = (0..blocks)
            .map(|h| {
                let txs = gen.generate_transactions(txs_per_block);
                AccountBlockBuilder::new(h as u64 + 1, 0, Address::from_low(999_999_999))
                    .transactions(txs)
                    .build()
            })
            .collect();
        let total: usize = built.iter().map(|b| b.transaction_count()).sum();
        let strong_largest: u64 = built
            .iter()
            .map(|b| {
                block_group_sizes(b.transactions())
                    .into_iter()
                    .max()
                    .unwrap_or(0)
            })
            .sum();
        let weak_largest: u64 = built
            .iter()
            .map(|b| {
                block_group_sizes_weak(b.transactions())
                    .into_iter()
                    .max()
                    .unwrap_or(0)
            })
            .sum();
        let strong_share = strong_largest as f64 / total.max(1) as f64;
        let weak_share = weak_largest as f64 / total.max(1) as f64;
        assert!(
            weak_share <= strong_share + 1e-9,
            "hot-share sweep @ {share}: the weak partition must refine the strong one, \
             got weak largest-group share {weak_share:.3} > strong {strong_share:.3}"
        );

        let (seq_cell, seq_root, seq_receipts) =
            run_granularity_engine(&mut SequentialEngine::new(), 1, &pre_state, &built);
        let (key_cell, key_root, key_receipts) = run_granularity_engine(
            &mut OptimisticEngine::new(threads),
            threads,
            &pre_state,
            &built,
        );
        // Best-of-3 for the delta engine: the flatness headline below compares
        // two of these cells against each other, and at smoke sizes a single
        // noisy scheduler tick would move it on unchanged code.
        let mut delta_best: Option<(GranularityCell, Hash, Vec<Receipt>)> = None;
        for _ in 0..3 {
            let run = run_granularity_engine(
                &mut OptimisticEngine::new(threads).with_delta_cells(),
                threads,
                &pre_state,
                &built,
            );
            if delta_best
                .as_ref()
                .map_or(true, |best| run.0.wall_tx_per_sec > best.0.wall_tx_per_sec)
            {
                delta_best = Some(run);
            }
        }
        let (delta_cell, delta_root, delta_receipts) = delta_best.expect("delta rounds ran");
        assert_eq!(
            seq_receipts, key_receipts,
            "hot-share sweep @ {share}: key-granular receipts diverge from sequential"
        );
        assert_eq!(
            seq_root, key_root,
            "hot-share sweep @ {share}: key-granular state root diverges from sequential"
        );
        assert_eq!(
            seq_receipts, delta_receipts,
            "hot-share sweep @ {share}: delta-cell receipts diverge from sequential"
        );
        assert_eq!(
            seq_root, delta_root,
            "hot-share sweep @ {share}: delta-cell state root diverges from sequential"
        );

        if share == HOT_SHARES[0] {
            delta_cold = Some(delta_cell.wall_tx_per_sec);
        }
        if share == HOT_SHARES[HOT_SHARES.len() - 1] {
            delta_hot = Some(delta_cell.wall_tx_per_sec);
        }
        for cell in [seq_cell, key_cell, delta_cell] {
            cells.push(HotShareCell {
                hot_share: share,
                engine: cell.engine,
                threads: cell.threads,
                blocks: cell.blocks,
                total_txs: cell.total_txs,
                aborts: cell.aborts,
                re_executions: cell.re_executions,
                sequential_fallbacks: cell.sequential_fallbacks,
                wall_nanos: cell.wall_nanos,
                wall_tx_per_sec: cell.wall_tx_per_sec,
                strong_largest_group_share: strong_share,
                weak_largest_group_share: weak_share,
            });
        }
    }

    println!(
        "\n{:>9} {:<20} {:>7} {:>8} {:>8} {:>12} {:>10} {:>10}",
        "hot", "engine", "threads", "txs", "aborts", "wall tx/s", "strongGrp", "weakGrp"
    );
    for cell in &cells {
        println!(
            "{:>8.0}% {:<20} {:>7} {:>8} {:>8} {:>12.0} {:>9.2} {:>9.2}",
            cell.hot_share * 100.0,
            cell.engine,
            cell.threads,
            cell.total_txs,
            cell.aborts,
            cell.wall_tx_per_sec,
            cell.strong_largest_group_share,
            cell.weak_largest_group_share,
        );
    }

    let cold = delta_cold.expect("sweep ran the cold point");
    let hot = delta_hot.expect("sweep ran the hottest point");
    let ratio = hot / cold.max(1.0);
    println!(
        "hot-share headline: delta-cell engine holds {ratio:.2}x of its cold throughput \
         at {:.0}% hot share ({hot:.0} vs {cold:.0} wall tx/s; reference {HOT_SHARE_FLOOR}x, \
         {threads} threads, {blocks} blocks x {txs_per_block} txs, seed {STREAM_SEED}; \
         recorded, not asserted)",
        HOT_SHARES[HOT_SHARES.len() - 1] * 100.0
    );
    cells
}

/// One pool-size sweep point: pack-phase cost per block out of a standing pool of
/// `pool_txs` transactions, maintained structures vs the per-block rebuild
/// baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SweepPoint {
    pool_txs: usize,
    blocks: usize,
    /// Mean wall nanoseconds per block: maintained ready index + incremental TDG.
    maintained_pack_nanos_per_block: f64,
    /// Mean wall nanoseconds per block: full TDG rebuild + O(pool) ready-chain
    /// materialization before the same pack (the pre-refactor hot path).
    rebuild_pack_nanos_per_block: f64,
    /// Mean incremental-TDG maintenance units per block (O(Δ) accounting).
    tdg_units_per_block: f64,
    /// Mean candidates the packer examined per block (O(Δ) accounting).
    pack_considered_per_block: f64,
    /// rebuild ÷ maintained cost (the regression-guarded speedup).
    rebuild_over_maintained: f64,
}

/// Builds a standing pool of `n` transactions — mostly independent payments with
/// a slice of deposits into 8 hot addresses, distinct fees for realistic fee
/// ordering — together with its incrementally maintained TDG.
fn standing_pool(n: usize) -> TrackedPool {
    let mut pool = TrackedPool::new(n + 1, false);
    for i in 0..n {
        let sender = Address::from_low(1_000_000 + i as u64);
        let receiver = if i % 7 == 0 {
            Address::from_low(500 + (i % 8) as u64) // hot spot
        } else {
            Address::from_low(5_000_000 + i as u64)
        };
        let tx = AccountTransaction::transfer(sender, receiver, Amount::from_sats(1), 0);
        let effects = pool.offer(&tx, 10 + (i % 1_000) as u64, i as f64, 0, None);
        assert_eq!(
            effects.outcome,
            blockconc::pipeline::AdmitOutcome::Admitted,
            "sweep pool build must admit"
        );
    }
    pool
}

fn sweep_template(height: u64) -> BlockTemplate {
    BlockTemplate {
        height,
        timestamp: 1_600_000_000,
        beneficiary: Address::from_low(999_999_998),
        gas_limit: Gas::new(12_000_000),
    }
}

/// Packs `blocks` blocks out of a standing pool of `pool_txs` transactions with
/// both strategies and reports the per-block pack-phase cost of each.
fn sweep_point(pool_txs: usize, blocks: usize) -> SweepPoint {
    eprintln!("[fig_pipeline] pool sweep @ {pool_txs} pooled txs...");
    let pool0 = standing_pool(pool_txs);

    // Maintained path: exactly what `NodePipeline` does per block — pack from
    // the maintained index, settle the block as incremental edits.
    let mut pool = pool0.clone();
    let mut packer = ConcurrencyAwarePacker::new(THREADS[THREADS.len() - 1]);
    let state = WorldState::new();
    let units_before = pool.tdg().op_units();
    let mut considered = 0u64;
    let clock = WallClock::new();
    let started = clock.now_nanos();
    for height in 1..=blocks as u64 {
        let (view, tdg) = pool.packing_view();
        let packed = packer.pack(view, tdg, &state, &sweep_template(height));
        considered += packed.considered;
        pool.settle_packed(packed.block.transactions());
    }
    let maintained_nanos = clock.now_nanos().saturating_sub(started) as f64 / blocks as f64;
    let tdg_units = (pool.tdg().op_units() - units_before) as f64 / blocks as f64;
    let considered_per_block = considered as f64 / blocks as f64;

    // Rebuild baseline: the pre-refactor hot path — a full TDG rebuild plus an
    // O(pool) ready-chain materialization before every pack.
    let mut pool = pool0.pool().clone();
    let mut packer = ConcurrencyAwarePacker::new(THREADS[THREADS.len() - 1]);
    let started = clock.now_nanos();
    for height in 1..=blocks as u64 {
        let mut tdg = IncrementalTdg::rebuild_from(pool.iter().map(|p| &p.tx));
        let chains = pool.ready_chains(|_| 0);
        std::hint::black_box(chains.len());
        drop(chains);
        let packed = packer.pack(&pool, &mut tdg, &state, &sweep_template(height));
        pool.remove_packed(packed.block.transactions());
    }
    let rebuild_nanos = clock.now_nanos().saturating_sub(started) as f64 / blocks as f64;

    SweepPoint {
        pool_txs,
        blocks,
        maintained_pack_nanos_per_block: maintained_nanos,
        rebuild_pack_nanos_per_block: rebuild_nanos,
        tdg_units_per_block: tdg_units,
        pack_considered_per_block: considered_per_block,
        rebuild_over_maintained: rebuild_nanos / maintained_nanos.max(1.0),
    }
}

fn run_sweep(sizes: &[usize], blocks: usize) -> Vec<SweepPoint> {
    let points: Vec<SweepPoint> = sizes.iter().map(|&n| sweep_point(n, blocks)).collect();
    println!(
        "\n{:>9} {:>14} {:>14} {:>10} {:>12} {:>9}",
        "pool", "maintained/ns", "rebuild/ns", "tdg u/blk", "scan/blk", "speedup"
    );
    for point in &points {
        println!(
            "{:>9} {:>14.0} {:>14.0} {:>10.1} {:>12.1} {:>8.1}x",
            point.pool_txs,
            point.maintained_pack_nanos_per_block,
            point.rebuild_pack_nanos_per_block,
            point.tdg_units_per_block,
            point.pack_considered_per_block,
            point.rebuild_over_maintained,
        );
    }
    points
}

/// The persisted benchmark artifact.
#[derive(Debug, Serialize, Deserialize)]
struct BenchArtifact {
    /// Provenance: `obs bench-diff` refuses artifacts whose metas differ.
    meta: BenchMeta,
    seed: u64,
    total_txs: usize,
    tx_rate: f64,
    blocks: usize,
    cells: Vec<CellSummary>,
    /// measured speed-up of concurrency-aware ÷ fee-greedy packing, both on the
    /// TDG-scheduled engine at the headline thread count.
    headline_speedup_ratio: f64,
    /// Pack-phase cost per block vs pool size, maintained vs rebuild (the O(Δ)
    /// incrementality regression guard).
    pool_sweep: Vec<SweepPoint>,
    /// The wall-clock grid: engine × threads × conflict profile, each cell with
    /// model units and wall nanoseconds / tx-per-second.
    wall_grid: Vec<WallCell>,
    /// Wall-clock tx/s of optimistic @ 8 threads ÷ sequential on the
    /// low-conflict profile (the guarded hardware-axis headline).
    wall_headline_ratio: f64,
    /// The conflict-granularity contrast on the shared-contract /
    /// disjoint-slots profile: sequential, key-granular, whole-account and
    /// delta-cell optimistic, with abort counts and wall tx/s.
    granularity_grid: Vec<GranularityCell>,
    /// The hot-share sweep on the commutative-hotspot profile: engine wall
    /// tx/s and strong-vs-weak predicted group structure as the share of
    /// traffic hitting commutative hot spots climbs 0% → 80%.
    hot_share_sweep: Vec<HotShareCell>,
    /// Per-stage wall/unit quantiles and counters for the two headline runs.
    telemetry: Vec<TelemetrySection>,
    /// Per-block detail for the two headline runs.
    headline_runs: Vec<PipelineRunReport>,
}

/// One timed headline-shaped run with the telemetry registry either enabled or
/// disabled, returning (wall nanoseconds, report). Used by the `--smoke`
/// overhead guard.
fn overhead_run(enabled: bool) -> (u64, PipelineRunReport) {
    let config = PipelineConfig {
        threads: 4,
        max_blocks: 8,
        telemetry: if enabled {
            TelemetryRegistry::enabled()
        } else {
            TelemetryRegistry::disabled()
        },
        ..PipelineConfig::default()
    };
    let clock = WallClock::new();
    let started = clock.now_nanos();
    let report = PipelineDriver::new(
        ConcurrencyAwarePacker::new(4),
        ScheduledEngine::new(4),
        config,
    )
    .run(ArrivalStream::new(
        hotspot_params(),
        TX_RATE,
        1_800,
        STREAM_SEED,
    ))
    .expect("overhead-guard run failed");
    (clock.now_nanos().saturating_sub(started), report)
}

/// The disabled-registry overhead guard: interleaved min-of-N runs with
/// telemetry off vs on. The model-unit output must be *identical* (telemetry
/// must never perturb what the simulation computes) — that is asserted. The
/// wall ratio of the enabled registry over the disabled one is printed beside
/// its 1.10 reference and not asserted: min-of-3 at ~25 ms per run reads 1.12
/// on unchanged code on a shared 2-vCPU host, and `benchmark/`'s
/// `driver.trace_overhead_share` measures the same thing under pairing.
fn overhead_guard() {
    const ROUNDS: usize = 3;
    eprintln!("[fig_pipeline] telemetry overhead guard ({ROUNDS} interleaved rounds)...");
    let mut disabled_min = u64::MAX;
    let mut enabled_min = u64::MAX;
    let mut disabled_report = None;
    let mut enabled_report = None;
    for _ in 0..ROUNDS {
        let (wall, report) = overhead_run(false);
        disabled_min = disabled_min.min(wall);
        disabled_report.get_or_insert(report);
        let (wall, report) = overhead_run(true);
        enabled_min = enabled_min.min(wall);
        enabled_report.get_or_insert(report);
    }
    let disabled = disabled_report.expect("overhead guard ran");
    let enabled = enabled_report.expect("overhead guard ran");

    // Model-unit equality: telemetry may only observe, never steer. Blocks are
    // compared with wall/backend-cost fields zeroed, then the backend cost and
    // final state are checked separately (same backend on both sides).
    let normalize = |report: &PipelineRunReport| -> Vec<BlockRecord> {
        report.blocks.iter().map(BlockRecord::normalized).collect()
    };
    assert_eq!(
        normalize(&disabled),
        normalize(&enabled),
        "overhead guard: enabling telemetry changed the model-unit block records"
    );
    assert_eq!(
        disabled.mempool_stats, enabled.mempool_stats,
        "overhead guard: enabling telemetry changed mempool admission behaviour"
    );
    let store_units =
        |report: &PipelineRunReport| -> u64 { report.blocks.iter().map(|b| b.store_units).sum() };
    assert_eq!(
        store_units(&disabled),
        store_units(&enabled),
        "overhead guard: enabling telemetry changed the store-unit cost"
    );
    assert_eq!(
        disabled.final_state_root, enabled.final_state_root,
        "overhead guard: enabling telemetry changed the final state root"
    );

    let ratio = enabled_min as f64 / disabled_min.max(1) as f64;
    println!(
        "overhead guard: telemetry off {} ns vs on {} ns (min of {ROUNDS} interleaved \
         runs, concurrency-aware/scheduled, 4 threads x 8 blocks x 1800 txs, seed \
         {STREAM_SEED}) — ratio {:.4} (reference 1.10; recorded, not asserted); model \
         units identical",
        disabled_min, enabled_min, ratio
    );
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    if smoke {
        // CI path: the sweep at reduced sizes regression-guards the O(Δ) pack
        // phase without the multi-minute grid (covered by the full local run).
        // The floor is relaxed vs the full run's 5x@100k (measured ~4.6x@10k on
        // an idle machine) to absorb noisy shared runners, but a maintained path
        // that degenerates back to O(pool) rescans (ratio → 1) still fails CI.
        let points = run_sweep(&[1_000, 10_000], 4);
        let at_10k = points.last().expect("sweep has points");
        assert!(
            at_10k.rebuild_over_maintained >= 2.0,
            "smoke: maintained pack phase must be >= 2x cheaper than the rebuild \
             baseline, got {:.2}x (violating row: pool {} txs, {} blocks, \
             maintained {:.0} ns/block, rebuild {:.0} ns/block)",
            at_10k.rebuild_over_maintained,
            at_10k.pool_txs,
            at_10k.blocks,
            at_10k.maintained_pack_nanos_per_block,
            at_10k.rebuild_pack_nanos_per_block
        );
        overhead_guard();
        // Wall-clock floor row at the smoke workload size (the full run records
        // the same row at full size).
        let (floor_seq, floor_opt) = wall_floor_guard(1_800);
        let wall_headline_ratio = floor_opt.wall_tx_per_sec / floor_seq.wall_tx_per_sec.max(1.0);
        // Conflict-granularity contrast at reduced size: equivalence and the
        // key-granular ~zero-abort claim hold at any scale.
        let granularity_grid = granularity_guard(3, 120, WALL_FLOOR_THREADS);
        // Hot-share sweep at reduced size: equivalence at every point plus the
        // delta-cell flatness headline.
        let hot_shares = hot_share_sweep(2, 120, WALL_FLOOR_THREADS);
        // The reduced artifact carries the sweep and the floor cells only (the
        // grids didn't run); the CI diff step compares it against itself plus an
        // injected-regression self-test, so the shape just has to be stable.
        let meta = BenchMeta::new(
            "pipeline",
            true,
            STREAM_SEED,
            HEADLINE_THREADS,
            &["sequential", "scheduled", "optimistic"],
        )
        .knob("pool_sizes", [1_000usize, 10_000])
        .knob("sweep_blocks", 4)
        .knob("wall_floor_threads", WALL_FLOOR_THREADS)
        .knob("granularity_profile", "shared-contract-disjoint-slots")
        .knob("hot_shares", HOT_SHARES);
        write_artifact(
            "pipeline",
            true,
            &BenchArtifact {
                meta,
                seed: STREAM_SEED,
                total_txs: TOTAL_TXS,
                tx_rate: TX_RATE,
                blocks: BLOCKS,
                cells: Vec::new(),
                headline_speedup_ratio: 0.0,
                pool_sweep: points,
                wall_grid: vec![floor_seq, floor_opt],
                wall_headline_ratio,
                granularity_grid,
                hot_share_sweep: hot_shares,
                telemetry: Vec::new(),
                headline_runs: Vec::new(),
            },
        );
        println!("smoke mode: skipping grid and full acceptance assertions");
        return;
    }
    let mut cells = Vec::new();
    let mut headline_runs = Vec::new();
    let mut headline = [0.0f64; 2];

    println!(
        "{:<18} {:<12} {:>7} {:>8} {:>9} {:>9} {:>10} {:>9}",
        "packer", "engine", "threads", "txs", "measured", "predicted", "tx/s", "pool"
    );
    for packer in ["fee-greedy", "concurrency-aware"] {
        for engine in ["sequential", "speculative", "scheduled", "optimistic"] {
            let thread_grid: &[usize] = if engine == "sequential" {
                &[1]
            } else {
                &THREADS
            };
            for &threads in thread_grid {
                eprintln!("[fig_pipeline] {packer} × {engine} × {threads} threads...");
                let report = run_cell(packer, engine, threads);
                assert_eq!(
                    report.total_failed, 0,
                    "{packer}/{engine}/{threads}: failing receipts"
                );
                let summary = CellSummary::from_report(&report);
                println!(
                    "{:<18} {:<12} {:>7} {:>8} {:>9.2} {:>9.2} {:>10.0} {:>9.1}",
                    summary.packer,
                    summary.engine,
                    summary.threads,
                    summary.total_txs,
                    summary.mean_measured_speedup,
                    summary.mean_predicted_speedup,
                    summary.throughput_tps,
                    summary.mean_mempool_len,
                );
                if engine == "scheduled" && threads == HEADLINE_THREADS {
                    headline[usize::from(packer == "concurrency-aware")] =
                        summary.mean_measured_speedup;
                    headline_runs.push(report.clone());
                }
                cells.push(summary);
            }
        }
    }

    let ratio = headline[1] / headline[0];
    println!(
        "\nheadline: at {HEADLINE_THREADS} threads on the scheduled engine, \
         concurrency-aware packing executes {:.2}x faster than fee-greedy packing \
         ({:.2}x vs {:.2}x measured block-execution speedup; acceptance floor 1.5x)",
        ratio, headline[1], headline[0]
    );
    assert!(
        ratio >= 1.5,
        "concurrency-aware packing must beat fee-greedy by >= 1.5x (got {ratio:.2}x)"
    );

    // The O(Δ) pool-size sweep: pack-phase cost per block must grow sublinearly
    // in the pool size, and the maintained path must beat the per-block rebuild
    // baseline ≥ 5× at the 100k point.
    let pool_sweep = run_sweep(&[1_000, 10_000, 100_000], 6);
    let at_100k = pool_sweep.last().expect("sweep has points");
    println!(
        "\npool sweep: at {} pooled txs the maintained pack phase costs {:.0} ns/block \
         vs {:.0} ns/block for the rebuild baseline — {:.1}x cheaper (acceptance floor 5x)",
        at_100k.pool_txs,
        at_100k.maintained_pack_nanos_per_block,
        at_100k.rebuild_pack_nanos_per_block,
        at_100k.rebuild_over_maintained
    );
    assert!(
        at_100k.rebuild_over_maintained >= 5.0,
        "maintained pack phase must be >= 5x cheaper than the rebuild baseline, \
         got {:.2}x (violating row: pool {} txs, {} blocks, maintained {:.0} ns/block, \
         rebuild {:.0} ns/block)",
        at_100k.rebuild_over_maintained,
        at_100k.pool_txs,
        at_100k.blocks,
        at_100k.maintained_pack_nanos_per_block,
        at_100k.rebuild_pack_nanos_per_block
    );

    // The wall-clock grid: engine × threads × conflict profile, with the guarded
    // optimistic-vs-sequential headline on the low-conflict profile.
    println!(
        "\n{:<14} {:<12} {:>7} {:>8} {:>12} {:>14} {:>12}",
        "profile", "engine", "threads", "txs", "model units", "wall ms", "wall tx/s"
    );
    let mut wall_grid = Vec::new();
    for profile in WALL_PROFILES {
        for engine in ["sequential", "speculative", "scheduled", "optimistic"] {
            let thread_grid: &[usize] = if engine == "sequential" {
                &[1]
            } else {
                &[2, 8]
            };
            for &threads in thread_grid {
                eprintln!("[fig_pipeline] wall grid: {profile} × {engine} × {threads} threads...");
                let cell = wall_cell(profile, engine, threads, TOTAL_TXS);
                println!(
                    "{:<14} {:<12} {:>7} {:>8} {:>12} {:>14.2} {:>12.0}",
                    cell.profile,
                    cell.engine,
                    cell.threads,
                    cell.total_txs,
                    cell.model_units,
                    cell.wall_nanos as f64 / 1e6,
                    cell.wall_tx_per_sec,
                );
                wall_grid.push(cell);
            }
        }
    }
    let (floor_seq, floor_opt) = wall_floor_guard(TOTAL_TXS);
    let wall_headline_ratio = floor_opt.wall_tx_per_sec / floor_seq.wall_tx_per_sec.max(1.0);
    println!(
        "wall headline: optimistic @ {WALL_FLOOR_THREADS} threads runs {wall_headline_ratio:.2}x \
         sequential wall-clock tx/s on the low-conflict profile"
    );
    wall_grid.push(floor_seq);
    wall_grid.push(floor_opt);

    // The conflict-granularity contrast: per-StateKey cells vs whole-account
    // cells on the profile built to separate them.
    let granularity_grid = granularity_guard(8, 200, WALL_FLOOR_THREADS);

    // The hot-share sweep: the delta-cell engine must hold near-flat wall tx/s
    // as commutative hot-spot traffic climbs to 80% of the block.
    let hot_shares = hot_share_sweep(6, 200, WALL_FLOOR_THREADS);

    // Per-stage quantiles for the two headline runs (the drivers collect them
    // because `config()` enables the registry for every cell).
    let telemetry: Vec<TelemetrySection> = headline_runs
        .iter()
        .map(|report| {
            let snapshot = report
                .telemetry
                .as_ref()
                .expect("headline run collected telemetry (enabled in config())");
            TelemetrySection::from_snapshot(
                format!("{}/{}/{}", report.packer, report.engine, report.threads),
                snapshot,
            )
        })
        .collect();
    for section in &telemetry {
        print_telemetry(section);
    }

    let meta = BenchMeta::new(
        "pipeline",
        false,
        STREAM_SEED,
        HEADLINE_THREADS,
        &["sequential", "speculative", "scheduled", "optimistic"],
    )
    .knob("packers", ["fee-greedy", "concurrency-aware"])
    .knob("threads", THREADS)
    .knob("pool_sizes", [1_000usize, 10_000, 100_000])
    .knob("wall_profiles", WALL_PROFILES)
    .knob("wall_floor_threads", WALL_FLOOR_THREADS)
    .knob("granularity_profile", "shared-contract-disjoint-slots")
    .knob("hot_shares", HOT_SHARES)
    .knob("total_txs", TOTAL_TXS)
    .knob("tx_rate", TX_RATE)
    .knob("blocks", BLOCKS);
    let artifact = BenchArtifact {
        meta,
        seed: STREAM_SEED,
        total_txs: TOTAL_TXS,
        tx_rate: TX_RATE,
        blocks: BLOCKS,
        cells,
        headline_speedup_ratio: ratio,
        pool_sweep,
        wall_grid,
        wall_headline_ratio,
        granularity_grid,
        hot_share_sweep: hot_shares,
        telemetry,
        headline_runs,
    };
    write_artifact("pipeline", false, &artifact);
}
