//! Sharded-mempool pipeline demo: the same hot-spot workload driven through the
//! single-pool pipeline and through the component-sharded pool with parallel
//! per-shard packers, printing each stage's modelled critical path side by side
//! (ingest admits in order; its producer split is a model). The stages' units are
//! not commensurable, so they are not summed; what either layout costs by the
//! clock is the `shardpool_hot` workload of `benchmark/`.
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

/// One stage's modelled units summed over a run's per-block records.
fn total<T>(records: &[T], units: impl Fn(&T) -> u64) -> u64 {
    records.iter().map(units).sum()
}

fn main() {
    let threads = 8;

    // Baseline: one pool, one packer, serial admission.
    let single_config = PipelineConfig {
        threads,
        max_blocks: 12,
        max_deferral_blocks: 6,
        ..PipelineConfig::default()
    };
    let single = PipelineDriver::new(
        ConcurrencyAwarePacker::new(threads),
        ScheduledEngine::new(threads),
        single_config.clone(),
    )
    .run(stream())
    .expect("single-pool run");

    // Sharded: 8 component shards, 8 modelled producer bins.
    let sharded_config = PipelineConfig {
        shards: 8,
        producer_threads: 8,
        ..single_config
    };
    let sharded = ShardedPipelineDriver::new(ScheduledEngine::new(threads), sharded_config)
        .run(stream())
        .expect("sharded run");

    println!("single-pool pipeline:");
    println!("  txs executed        {:>8}", single.total_txs);
    println!("  leftover mempool    {:>8}", single.leftover_mempool);
    println!(
        "  ingest units        {:>8}",
        total(&single.blocks, |b| b.ingested as u64)
    );
    println!(
        "  pack units          {:>8}",
        total(&single.blocks, |b| b.pack_considered)
    );
    println!(
        "  execute units       {:>8}",
        total(&single.blocks, |b| b.measured_parallel_units)
    );
    println!();
    println!(
        "sharded pipeline ({} shards, {} producers):",
        sharded.shards, sharded.producers
    );
    println!("  txs executed        {:>8}", sharded.run.total_txs);
    println!("  leftover mempool    {:>8}", sharded.run.leftover_mempool);
    println!(
        "  ingest units        {:>8}",
        total(&sharded.phases, |p| p.ingest_units)
    );
    println!(
        "  pack units          {:>8}",
        total(&sharded.phases, |p| p.pack_units)
    );
    println!(
        "  execute units       {:>8}",
        total(&sharded.phases, |p| p.execute_units)
    );
    println!("  chains migrated     {:>8}", sharded.migrated_chains);
    println!("  rebalance passes    {:>8}", sharded.rebalances);
    let aged: u64 = sharded.run.blocks.iter().map(|b| b.aged_included).sum();
    let deferred: u64 = sharded.run.blocks.iter().map(|b| b.deferred_by_cap).sum();
    println!("  cap deferrals       {:>8}", deferred);
    println!("  aged inclusions     {:>8}", aged);
    assert_eq!(single.total_failed + sharded.run.total_failed, 0);
}
