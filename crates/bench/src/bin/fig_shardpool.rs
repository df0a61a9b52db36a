//! The shardpool experiment: how much of the admission → pack critical path does
//! the component-sharded mempool recover, and how does it scale with shards and
//! producer bins — in the model? (Ingest admits in order on one thread; what
//! the layout costs by the clock is `benchmark/`'s `shardpool_hot`.)
//!
//! Streams one backlogged hot-spot workload through the sharded pipeline for a
//! grid of shard × producer-bin layouts plus the single-pool
//! `ConcurrencyAwarePacker` baseline, prints the comparison, and records the grid
//! in `BENCH_shardpool.json` at the repository root.
//!
//! Costs are reported in the workspace's abstract work units (one unit ≈ one
//! per-transaction touch of a phase's critical path — the execution engines'
//! `parallel_units` convention), so the scaling shown is the *structural*
//! parallelism of the pipeline, independent of this machine's core count. Wall
//! clocks are recorded alongside for reference.
//!
//! Run with `cargo run --release -p blockconc-bench --bin fig_shardpool`; pass
//! `--smoke` for the fast CI path (small workload, basic health assertions;
//! the reduced artifact goes to `target/bench-smoke/` for the CI
//! `obs bench-diff` step).

use blockconc::pipeline::BlockTemplate;
use blockconc::prelude::*;
use blockconc::shardpool::baseline_pipeline_units;
use blockconc::telemetry::Clock;
use blockconc_bench::{print_telemetry, write_artifact, BenchMeta, TelemetrySection};
use serde::{Deserialize, Serialize};

/// Shared dataset seed (same convention as the figure binaries).
const STREAM_SEED: u64 = 2020;
/// The headline comparison runs at this thread count.
const THREADS: usize = 8;

/// Workload / run shape, scaled down by `--smoke`.
#[derive(Debug, Clone, Copy)]
struct Scale {
    total_txs: usize,
    tx_rate: f64,
    blocks: usize,
}

const FULL: Scale = Scale {
    total_txs: 9_000,
    tx_rate: 42.0,
    blocks: 14,
};
const SMOKE: Scale = Scale {
    total_txs: 900,
    tx_rate: 18.0,
    blocks: 5,
};

/// A hot-spot-heavy workload with *many simultaneous* moderate hot spots — three
/// exchanges, three popular contracts and a payout pool all active at once, the
/// way real chains see several hot services in the same block window. More than a
/// quarter of all traffic hits a hot spot, so packing stays conflict-bound; but
/// because the hot components are distinct, the deferred backlog they create can
/// spread over shards. (One dominant exchange instead would fuse the whole backlog
/// into a single component, which *no* mempool sharding can split — that regime is
/// bounded by the component structure itself, not by the pool implementation.)
/// The arrival rate outpaces block capacity, so a standing backlog builds — the
/// regime where admission and pool scans dominate the loop and a single-threaded
/// pool is the bottleneck.
fn hotspot_params() -> AccountWorkloadParams {
    AccountWorkloadParams {
        txs_per_block: 200.0, // unused by the stream; block size is arrival-driven
        user_population: 30_000,
        fresh_receiver_share: 0.7,
        zipf_exponent: 0.15,
        hotspots: vec![
            HotspotSpec::exchange(0.05),
            HotspotSpec::exchange(0.04),
            HotspotSpec::exchange(0.03),
            HotspotSpec::contract(0.04, 3),
            HotspotSpec::contract(0.04, 2),
            HotspotSpec::contract(0.03, 2),
            HotspotSpec::exchange(0.03),
        ],
        contract_create_share: 0.01,
    }
}

fn stream(scale: Scale) -> ArrivalStream {
    ArrivalStream::new(
        hotspot_params(),
        scale.tx_rate,
        scale.total_txs,
        STREAM_SEED,
    )
}

fn config(scale: Scale, shards: usize, producers: usize) -> PipelineConfig {
    PipelineConfig {
        threads: THREADS,
        max_blocks: scale.blocks,
        shards,
        producer_threads: producers,
        max_deferral_blocks: 2,
        // Per-stage quantiles for the artifact's telemetry section; a fresh
        // registry per call keeps cells from sharing counters.
        telemetry: TelemetryRegistry::enabled(),
        ..PipelineConfig::default()
    }
}

/// One sharded grid cell's summary, as persisted to `BENCH_shardpool.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CellSummary {
    shards: usize,
    producers: usize,
    total_txs: usize,
    total_failed: usize,
    leftover_mempool: usize,
    /// Ingest critical path, abstract work units.
    ingest_units: u64,
    /// Pack critical path, abstract work units.
    pack_units: u64,
    /// Ingest + pack critical path, abstract work units.
    ingest_pack_units: u64,
    /// Full pipeline critical path (ingest + pack + execute), abstract work units.
    total_units: u64,
    /// Transactions per abstract work unit, end to end.
    unit_throughput: f64,
    /// Ingest+pack throughput in transactions per work unit (the producer-scaling
    /// signal).
    ingest_pack_throughput: f64,
    migrated_chains: u64,
    rebalances: u64,
    /// Wall-clock seconds summed over ingest + pack + execute phases (reference
    /// only — this host's core count bounds it, unlike the unit accounting).
    wall_secs: f64,
}

impl CellSummary {
    fn from_report(report: &blockconc::shardpool::ShardedRunReport) -> Self {
        let ingest_pack = report.ingest_pack_units();
        let total_units = report.total_units();
        let wall_nanos: u64 = report
            .phases
            .iter()
            .map(|p| p.ingest_wall_nanos)
            .sum::<u64>()
            + report
                .run
                .blocks
                .iter()
                .map(|b| b.pack_wall_nanos + b.execute_wall_nanos)
                .sum::<u64>();
        CellSummary {
            shards: report.shards,
            producers: report.producers,
            total_txs: report.run.total_txs,
            total_failed: report.run.total_failed,
            leftover_mempool: report.run.leftover_mempool,
            ingest_units: report.phases.iter().map(|p| p.ingest_units).sum(),
            pack_units: report.phases.iter().map(|p| p.pack_units).sum(),
            ingest_pack_units: ingest_pack,
            total_units,
            unit_throughput: report.unit_throughput(),
            ingest_pack_throughput: if ingest_pack == 0 {
                0.0
            } else {
                report.run.total_txs as f64 / ingest_pack as f64
            },
            migrated_chains: report.migrated_chains,
            rebalances: report.rebalances,
            wall_secs: wall_nanos as f64 / 1e9,
        }
    }
}

/// The single-pool baseline's summary.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BaselineSummary {
    packer: String,
    total_txs: usize,
    total_failed: usize,
    leftover_mempool: usize,
    /// Serial ingest + pool-scan units (see `baseline_pipeline_units`).
    ingest_pack_units: u64,
    total_units: u64,
    unit_throughput: f64,
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
    threads: usize,
    baseline: BaselineSummary,
    cells: Vec<CellSummary>,
    /// End-to-end unit-throughput of the widest sharded layout ÷ the single-pool
    /// baseline. Historical note: PR 2 measured 1.60× against a baseline that
    /// paid an O(pool) rebuild + rescan per block; the incremental-maintenance
    /// refactor removed that cost from the *single* pipeline too (see
    /// `pool_sweep`, 30×+ cheaper pack at 100k), so the sharded layout's
    /// remaining end-to-end edge on this workload is the parallel ingest and
    /// pack scan — the acceptance floor is now "never worse than the single
    /// pool" (≥ 1.0) plus the ingest/producer-scaling assertions below.
    headline_e2e_ratio: f64,
    /// Ingest+pack unit-throughput at 8 shards for each producer count — the
    /// producer-scaling curve.
    producer_scaling: Vec<(usize, f64)>,
    /// Pack-phase cost per block vs standing pool size, maintained vs per-block
    /// rebuild (the O(Δ) incrementality regression guard).
    pool_sweep: Vec<SweepPoint>,
    /// Per-stage wall/unit quantiles and counters, one section per grid cell
    /// (plus the single-pool baseline).
    telemetry: Vec<TelemetrySection>,
}

/// One pool-size sweep point for the sharded pipeline: pack-phase cost per block
/// out of a standing sharded pool, maintained shard TDGs + ready indexes vs the
/// pre-refactor per-block rebuild (per-shard `ensure_tdg` + full ready scans).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SweepPoint {
    pool_txs: usize,
    shards: usize,
    blocks: usize,
    maintained_pack_nanos_per_block: f64,
    rebuild_pack_nanos_per_block: f64,
    rebuild_over_maintained: f64,
}

/// Fills a sharded pool with `n` standing transactions (mostly independent, a
/// slice of deposits into 8 hot addresses).
fn standing_shard_pool(n: usize, shards: usize) -> ShardedMempool {
    let pool = ShardedMempool::new(shards, n + 1);
    for i in 0..n {
        let sender = Address::from_low(1_000_000 + i as u64);
        let receiver = if i % 7 == 0 {
            Address::from_low(500 + (i % 8) as u64)
        } else {
            Address::from_low(5_000_000 + i as u64)
        };
        let tx = AccountTransaction::transfer(sender, receiver, Amount::from_sats(1), 0);
        pool.insert(tx, 10 + (i % 1_000) as u64, i as f64, 0, Some(i as u64));
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

fn sweep_point(pool_txs: usize, shards: usize, blocks: usize) -> SweepPoint {
    eprintln!("[fig_shardpool] pool sweep @ {pool_txs} pooled txs x {shards} shards...");
    let state = WorldState::new();

    // Maintained path: exactly what `ShardedPipelineDriver` does per block.
    let pool = standing_shard_pool(pool_txs, shards);
    let mut packer = ShardedPacker::new(shards, THREADS);
    let clock = WallClock::new();
    let started = clock.now_nanos();
    for height in 1..=blocks as u64 {
        let (packed, _) = packer.pack(&pool, &state, &sweep_template(height));
        pool.remove_packed(packed.block.transactions());
    }
    let maintained_nanos = clock.now_nanos().saturating_sub(started) as f64 / blocks as f64;

    // Rebuild baseline: the pre-refactor per-block cost — every shard's TDG
    // rebuilt from its residents plus a full per-shard ready-chain scan before
    // the same pack.
    let pool = standing_shard_pool(pool_txs, shards);
    let mut packer = ShardedPacker::new(shards, THREADS);
    let started = clock.now_nanos();
    for height in 1..=blocks as u64 {
        for index in 0..shards {
            pool.with_shard(index, |shard_pool, shard_tdg| {
                *shard_tdg = IncrementalTdg::rebuild_from(shard_pool.iter().map(|p| &p.tx));
                let chains = shard_pool.ready_chains(|_| 0);
                std::hint::black_box(chains.len());
            });
        }
        let (packed, _) = packer.pack(&pool, &state, &sweep_template(height));
        pool.remove_packed(packed.block.transactions());
    }
    let rebuild_nanos = clock.now_nanos().saturating_sub(started) as f64 / blocks as f64;

    SweepPoint {
        pool_txs,
        shards,
        blocks,
        maintained_pack_nanos_per_block: maintained_nanos,
        rebuild_pack_nanos_per_block: rebuild_nanos,
        rebuild_over_maintained: rebuild_nanos / maintained_nanos.max(1.0),
    }
}

fn run_sweep(sizes: &[usize], shards: usize, blocks: usize) -> Vec<SweepPoint> {
    let points: Vec<SweepPoint> = sizes
        .iter()
        .map(|&n| sweep_point(n, shards, blocks))
        .collect();
    println!(
        "\n{:>9} {:>7} {:>14} {:>14} {:>9}",
        "pool", "shards", "maintained/ns", "rebuild/ns", "speedup"
    );
    for point in &points {
        println!(
            "{:>9} {:>7} {:>14.0} {:>14.0} {:>8.1}x",
            point.pool_txs,
            point.shards,
            point.maintained_pack_nanos_per_block,
            point.rebuild_pack_nanos_per_block,
            point.rebuild_over_maintained,
        );
    }
    points
}

fn run_cell(scale: Scale, shards: usize, producers: usize) -> (CellSummary, TelemetrySection) {
    eprintln!("[fig_shardpool] {shards} shards x {producers} producers...");
    let report = ShardedPipelineDriver::new(
        ScheduledEngine::new(THREADS),
        config(scale, shards, producers),
    )
    // Rebalance often: the zipf tail keeps bridging hot components, and un-fusing
    // them promptly is what keeps the backlog spreadable.
    .with_rebalance_every(1)
    .run(stream(scale))
    .expect("sharded pipeline run");
    assert_eq!(
        report.run.total_failed, 0,
        "{shards}x{producers}: failing receipts"
    );
    let snapshot = report
        .run
        .telemetry
        .as_ref()
        .expect("cell collected telemetry (enabled in config())");
    let section = TelemetrySection::from_snapshot(format!("{shards}x{producers}"), snapshot);
    (CellSummary::from_report(&report), section)
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let scale = if smoke { SMOKE } else { FULL };

    // Baseline: one pool, one packer, serial admission.
    eprintln!("[fig_shardpool] single-pool baseline...");
    let baseline_report = PipelineDriver::new(
        ConcurrencyAwarePacker::new(THREADS),
        ScheduledEngine::new(THREADS),
        config(scale, 1, 1),
    )
    .run(stream(scale))
    .expect("baseline run");
    assert_eq!(
        baseline_report.total_failed, 0,
        "baseline: failing receipts"
    );
    let baseline_ingest_pack: u64 = baseline_report
        .blocks
        .iter()
        .map(|b| b.ingested as u64 + b.pack_considered)
        .sum();
    let baseline_units = baseline_pipeline_units(&baseline_report);
    let baseline = BaselineSummary {
        packer: baseline_report.packer.clone(),
        total_txs: baseline_report.total_txs,
        total_failed: baseline_report.total_failed,
        leftover_mempool: baseline_report.leftover_mempool,
        ingest_pack_units: baseline_ingest_pack,
        total_units: baseline_units,
        unit_throughput: baseline_report.total_txs as f64 / baseline_units.max(1) as f64,
    };

    // The grid: square layouts plus a producer sweep at the widest shard count.
    let layouts: &[(usize, usize)] = if smoke {
        &[(1, 1), (4, 4)]
    } else {
        &[(1, 1), (2, 2), (4, 4), (8, 1), (8, 2), (8, 4), (8, 8)]
    };
    let mut telemetry: Vec<TelemetrySection> = vec![TelemetrySection::from_snapshot(
        "baseline/1x1",
        baseline_report
            .telemetry
            .as_ref()
            .expect("baseline collected telemetry (enabled in config())"),
    )];
    let cells: Vec<CellSummary> = layouts
        .iter()
        .map(|&(shards, producers)| {
            let (cell, section) = run_cell(scale, shards, producers);
            telemetry.push(section);
            cell
        })
        .collect();

    println!(
        "{:<8} {:<10} {:>8} {:>10} {:>10} {:>10} {:>12} {:>10} {:>9}",
        "shards",
        "producers",
        "txs",
        "leftover",
        "ingest u",
        "pack u",
        "total u",
        "tx/unit",
        "migrated"
    );
    println!(
        "{:<8} {:<10} {:>8} {:>10} {:>10} {:>10} {:>12} {:>10.4} {:>9}",
        "pool=1",
        baseline.packer,
        baseline.total_txs,
        baseline.leftover_mempool,
        "-",
        "-",
        baseline.total_units,
        baseline.unit_throughput,
        "-"
    );
    for cell in &cells {
        println!(
            "{:<8} {:<10} {:>8} {:>10} {:>10} {:>10} {:>12} {:>10.4} {:>9}",
            cell.shards,
            cell.producers,
            cell.total_txs,
            cell.leftover_mempool,
            cell.ingest_units,
            cell.pack_units,
            cell.total_units,
            cell.unit_throughput,
            cell.migrated_chains,
        );
    }

    let widest = cells
        .iter()
        .filter(|c| c.shards == layouts.last().expect("non-empty grid").0)
        .max_by_key(|c| c.producers)
        .expect("widest cell present");
    let ratio = widest.unit_throughput / baseline.unit_throughput;
    let producer_scaling: Vec<(usize, f64)> = cells
        .iter()
        .filter(|c| c.shards == widest.shards)
        .map(|c| (c.producers, c.ingest_pack_throughput))
        .collect();

    println!(
        "\nheadline: {} shards x {} producers moves {:.4} tx/unit end-to-end vs {:.4} \
         single-pool — {ratio:.2}x the pipeline throughput (acceptance floor: never \
         worse; the O(Δ) refactor removed the single pool's per-block rescans, so \
         the old 1.5x floor measured against the rebuild-era baseline no longer \
         applies)",
        widest.shards, widest.producers, widest.unit_throughput, baseline.unit_throughput
    );
    println!(
        "producer scaling at {} shards (tx per ingest+pack unit): {:?}",
        widest.shards, producer_scaling
    );
    for section in &telemetry {
        print_telemetry(section);
    }

    if smoke {
        // The O(Δ) sweep still runs (reduced sizes) so CI regression-guards the
        // incremental pack phase. The floor is relaxed vs the full run's 5x@100k
        // (measured ~2.1x@10k on an idle machine — the sharded pack has a higher
        // fixed cost, so the O(pool) term dominates later than in the single
        // pipeline) but a maintained path that degenerates back to O(shard)
        // rescans still fails CI; the grid/headline assertions stay full-run only.
        let points = run_sweep(&[1_000, 10_000], 8, 4);
        let at_10k = points.last().expect("sweep has points");
        assert!(
            at_10k.rebuild_over_maintained >= 1.2,
            "smoke: maintained sharded pack phase must be >= 1.2x cheaper than the \
             rebuild baseline, got {:.2}x (violating row: pool {} txs, {} shards, \
             {} blocks, maintained {:.0} ns/block, rebuild {:.0} ns/block)",
            at_10k.rebuild_over_maintained,
            at_10k.pool_txs,
            at_10k.shards,
            at_10k.blocks,
            at_10k.maintained_pack_nanos_per_block,
            at_10k.rebuild_pack_nanos_per_block
        );
        let meta = BenchMeta::new("shardpool", true, STREAM_SEED, THREADS, &["scheduled"])
            .knob("layouts", layouts)
            .knob("pool_sizes", [1_000usize, 10_000])
            .knob("total_txs", scale.total_txs)
            .knob("tx_rate", scale.tx_rate)
            .knob("blocks", scale.blocks);
        write_artifact(
            "shardpool",
            true,
            &BenchArtifact {
                meta,
                seed: STREAM_SEED,
                total_txs: scale.total_txs,
                tx_rate: scale.tx_rate,
                blocks: scale.blocks,
                threads: THREADS,
                baseline,
                cells,
                headline_e2e_ratio: ratio,
                producer_scaling,
                pool_sweep: points,
                telemetry,
            },
        );
        println!("smoke mode: skipping full acceptance assertions");
        return;
    }

    assert!(
        ratio >= 1.0,
        "sharded pipeline must never be worse than the single pool, got {ratio:.2}x \
         (violating row: {} shards x {} producers at {:.4} tx/unit vs single-pool \
         {:.4} tx/unit)",
        widest.shards,
        widest.producers,
        widest.unit_throughput,
        baseline.unit_throughput
    );
    // What sharding buys post-refactor: the serial admission path parallelizes.
    let serial_ingest = cells
        .iter()
        .find(|c| c.shards == widest.shards && c.producers == 1)
        .expect("producer sweep includes 1 producer")
        .ingest_units;
    assert!(
        widest.ingest_units * 2 <= serial_ingest,
        "{} producers must at least halve the ingest critical path ({} -> {})",
        widest.producers,
        serial_ingest,
        widest.ingest_units
    );
    let first_scaling = producer_scaling.first().expect("scaling curve").1;
    let last_scaling = producer_scaling.last().expect("scaling curve").1;
    assert!(
        last_scaling > first_scaling,
        "ingest+pack throughput must scale with producers ({first_scaling:.4} -> {last_scaling:.4})"
    );

    // The O(Δ) pool-size sweep over the sharded pipeline's pack phase.
    let pool_sweep = run_sweep(&[1_000, 10_000, 100_000], 8, 6);
    let at_100k = pool_sweep.last().expect("sweep has points");
    println!(
        "\npool sweep: at {} pooled txs x {} shards the maintained pack phase costs \
         {:.0} ns/block vs {:.0} ns/block for the rebuild baseline — {:.1}x cheaper \
         (acceptance floor 5x)",
        at_100k.pool_txs,
        at_100k.shards,
        at_100k.maintained_pack_nanos_per_block,
        at_100k.rebuild_pack_nanos_per_block,
        at_100k.rebuild_over_maintained
    );
    assert!(
        at_100k.rebuild_over_maintained >= 5.0,
        "maintained sharded pack phase must be >= 5x cheaper than the rebuild baseline, \
         got {:.2}x (violating row: pool {} txs, {} shards, {} blocks, maintained \
         {:.0} ns/block, rebuild {:.0} ns/block)",
        at_100k.rebuild_over_maintained,
        at_100k.pool_txs,
        at_100k.shards,
        at_100k.blocks,
        at_100k.maintained_pack_nanos_per_block,
        at_100k.rebuild_pack_nanos_per_block
    );

    let meta = BenchMeta::new("shardpool", false, STREAM_SEED, THREADS, &["scheduled"])
        .knob("layouts", layouts)
        .knob("pool_sizes", [1_000usize, 10_000, 100_000])
        .knob("total_txs", scale.total_txs)
        .knob("tx_rate", scale.tx_rate)
        .knob("blocks", scale.blocks);
    let artifact = BenchArtifact {
        meta,
        seed: STREAM_SEED,
        total_txs: scale.total_txs,
        tx_rate: scale.tx_rate,
        blocks: scale.blocks,
        threads: THREADS,
        baseline,
        cells,
        headline_e2e_ratio: ratio,
        producer_scaling,
        pool_sweep,
        telemetry,
    };
    write_artifact("shardpool", false, &artifact);
}
