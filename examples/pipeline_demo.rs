//! End-to-end pipeline demo: stream a hot-spot workload into the mempool, pack
//! blocks with the fee-greedy and the concurrency-aware packer, execute them on the
//! TDG-scheduled engine, and compare the group conflict rate *l* of the blocks each
//! packing strategy builds, with Equation 2's speed-up bound `min(n, 1/l)`.
//!
//! Run with `cargo run --release -p blockconc --example pipeline_demo`.

use blockconc::pipeline::{ConcurrencyAwarePacker, FeeGreedyPacker};
use blockconc::prelude::*;

fn workload() -> AccountWorkloadParams {
    AccountWorkloadParams {
        txs_per_block: 100.0,
        user_population: 10_000,
        fresh_receiver_share: 0.5,
        zipf_exponent: 0.4,
        hotspots: vec![HotspotSpec::exchange(0.4), HotspotSpec::contract(0.1, 3)],
        contract_create_share: 0.01,
    }
}

fn main() {
    let threads = 8;
    // Each run gets its own enabled registry: the run records hold counts only,
    // and the clock readings live in the registry's stage histograms.
    let config = || PipelineConfig {
        threads,
        max_blocks: 8,
        telemetry: TelemetryRegistry::enabled(),
        ..PipelineConfig::default()
    };
    let stream = || ArrivalStream::new(workload(), 10.0, 1_000, 42);

    let greedy = PipelineDriver::new(
        FeeGreedyPacker::new(),
        ScheduledEngine::new(threads),
        config(),
    )
    .run(stream())
    .expect("pipeline run");
    let aware = PipelineDriver::new(
        ConcurrencyAwarePacker::new(threads),
        ScheduledEngine::new(threads),
        config(),
    )
    .run(stream())
    .expect("pipeline run");

    println!("same transaction stream, same engine ({threads} threads), two packers:\n");
    for report in [&greedy, &aware] {
        let l = report.mean_group_conflict_rate();
        let execute_nanos = report
            .telemetry
            .as_ref()
            .and_then(|snapshot| snapshot.stage("execute"))
            .map_or(0, |stage| stage.wall_nanos.sum);
        println!(
            "  {:<18} {:>4} blocks, {:>5} txs, l {:>5.3}, Eq. 2 bound {:>5.2}x, execute {:>6.2} ms",
            report.packer,
            report.blocks.len(),
            report.total_txs,
            l,
            group_speedup(l, threads),
            execute_nanos as f64 / 1e6,
        );
    }
}
