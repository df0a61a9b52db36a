//! Sharded-mempool pipeline demo: the same hot-spot workload driven through the
//! single-pool pipeline and through the component-sharded pool with parallel
//! per-shard packers, printing each stage's counts side by side: the whole run's,
//! and for the sharded layout the busiest shard's per block. What either layout
//! costs by the clock is the `shardpool_hot` workload of `benchmark/`.
//!
//! Run with `cargo run --release --example shardpool_demo`.

use blockconc::prelude::*;

fn params() -> AccountWorkloadParams {
    AccountWorkloadParams {
        txs_per_block: 120.0,
        user_population: 8_000,
        fresh_receiver_share: 0.7,
        zipf_exponent: 0.35,
        hotspots: vec![
            HotspotSpec::exchange(0.12),
            HotspotSpec::contract(0.08, 2),
            HotspotSpec::pool(0.04),
        ],
        contract_create_share: 0.01,
    }
}

fn stream() -> ArrivalStream {
    // Arrivals outpace block capacity, so a backlog builds — the regime where the
    // pool scan and admission path dominate the loop. A third of senders re-bid
    // with a 10% bump after two block intervals (the fee-escalation model).
    ArrivalStream::new(params(), 24.0, 4_000, 77)
        .with_fee_escalation(FeeEscalationSpec::standard(14.0))
}

/// One stage's count summed over a run's per-block records.
fn total<T>(records: &[T], count: impl Fn(&T) -> u64) -> u64 {
    records.iter().map(count).sum()
}

fn main() {
    let threads = 8;

    // Baseline: one pool, one packer, serial admission.
    let single_config = PipelineConfig {
        threads,
        max_blocks: 12,
        ..PipelineConfig::default()
    };
    let single = PipelineDriver::new(
        ConcurrencyAwarePacker::new(threads),
        ScheduledEngine::new(threads),
        single_config.clone(),
    )
    .run(stream())
    .expect("single-pool run");

    // Sharded: 8 component shards.
    let sharded_config = PipelineConfig {
        shards: 8,
        ..single_config
    };
    let sharded = ShardedPipelineDriver::new(ScheduledEngine::new(threads), sharded_config)
        .run(stream())
        .expect("sharded run");

    println!("single-pool pipeline:");
    println!("  txs executed              {:>8}", single.total_txs);
    println!("  leftover mempool          {:>8}", single.leftover_mempool);
    println!(
        "  arrivals offered          {:>8}",
        total(&single.blocks, |b| b.ingested as u64)
    );
    println!(
        "  candidates considered     {:>8}",
        total(&single.blocks, |b| b.pack_considered)
    );
    println!();
    println!("sharded pipeline ({} shards):", sharded.shards);
    println!("  txs executed              {:>8}", sharded.run.total_txs);
    println!(
        "  leftover mempool          {:>8}",
        sharded.run.leftover_mempool
    );
    println!(
        "  arrivals offered          {:>8}",
        total(&sharded.run.blocks, |b| b.ingested as u64)
    );
    println!(
        "    to the busiest shard    {:>8}",
        total(&sharded.phases, |p| p.max_shard_offered)
    );
    println!(
        "  candidates considered     {:>8}",
        total(&sharded.run.blocks, |b| b.pack_considered)
    );
    println!(
        "    by the busiest shard    {:>8}",
        total(&sharded.phases, |p| p.max_shard_considered)
    );
    println!("  chains migrated           {:>8}", sharded.migrated_chains);
    println!("  rebalance passes          {:>8}", sharded.rebalances);
    let deferred: u64 = sharded.run.blocks.iter().map(|b| b.deferred_by_cap).sum();
    println!("  cap deferrals             {:>8}", deferred);
    assert_eq!(single.total_failed + sharded.run.total_failed, 0);
}
