//! Cross-node cluster demo: the same arrival stream driven through the
//! single-node pipeline and through an 8-node-shard cluster, printing each
//! stage's modelled units and showing the cross-shard credit protocol at work
//! on a deposit-heavy workload. What the cluster costs by the clock is the
//! `cluster_xshard` workload of `benchmark/`.
//!
//! Run with `cargo run --release --example cluster_demo`.

use blockconc::cluster::{ClusterConfig, ClusterDriver};
use blockconc::pipeline::ConcurrencyAwarePacker;
use blockconc::prelude::*;

const THREADS: usize = 4;
const SHARDS: u32 = 8;

fn stream(params: AccountWorkloadParams) -> ArrivalStream {
    // Arrivals outpace a single node's block capacity, so a backlog builds —
    // the regime where one node's serial admission and packing bound throughput
    // and spreading components over nodes pays off.
    ArrivalStream::new(params, 30.0, 4_000, 77)
}

fn pipeline_config(max_blocks: usize) -> PipelineConfig {
    PipelineConfig {
        threads: THREADS,
        max_blocks,
        max_deferral_blocks: 2,
        ..PipelineConfig::default()
    }
}

/// One stage's modelled units summed over a run's per-block records.
fn total<T>(records: &[T], units: impl Fn(&T) -> u64) -> u64 {
    records.iter().map(units).sum()
}

fn run_cluster(params: AccountWorkloadParams, label: &str) {
    let mut config = ClusterConfig::new(SHARDS);
    config.pipeline = pipeline_config(12);
    config.blocks_per_epoch = 6; // one epoch rotation mid-run
    let engines = (0..SHARDS).map(|_| ScheduledEngine::new(THREADS)).collect();
    let report = ClusterDriver::new(engines, config)
        .run(stream(params))
        .expect("cluster run");
    assert_eq!(report.total_failed, 0);
    println!(
        "{label}: {} txs over {} blocks on {} shards — modelled units: ingest {}, \
         pack {}, execute {}, critical path {}; cross-shard {:.1}% ({} hops, {} receipts \
         applied, mean latency {:.1} blocks), {} components re-homed / {} accounts \
         handed over, {} rotations",
        report.total_txs,
        report.blocks.len(),
        report.shards,
        total(&report.blocks, |b| b.ingest_units),
        total(&report.blocks, |b| b.pack_units),
        total(&report.blocks, |b| b.execute_units),
        report.total_units(),
        report.cross_shard_fraction() * 100.0,
        report.cross_shard_hops,
        report.receipts_applied,
        report.mean_receipt_latency(),
        report.rehomed_components,
        report.moved_accounts,
        report.rotations,
    );
}

fn main() {
    // Baseline: one node, one pool, one packer.
    let single = PipelineDriver::new(
        ConcurrencyAwarePacker::new(THREADS),
        ScheduledEngine::new(THREADS),
        pipeline_config(12),
    )
    .run(stream(AccountWorkloadParams::cross_shard_light()))
    .expect("single-node run");
    assert_eq!(single.total_failed, 0);
    println!(
        "single node: {} txs over {} blocks — modelled units: ingest {}, pack {}, execute {}",
        single.total_txs,
        single.blocks.len(),
        total(&single.blocks, |b| b.ingested as u64),
        total(&single.blocks, |b| b.pack_considered),
        total(&single.blocks, |b| b.measured_parallel_units),
    );

    run_cluster(
        AccountWorkloadParams::cross_shard_light(),
        "cluster (cross-shard-light)",
    );
    run_cluster(
        AccountWorkloadParams::cross_shard_heavy(),
        "cluster (cross-shard-heavy)",
    );
}
