//! The trace-analysis layer's schema checks on a real run: a 4-shard cluster's
//! flight-recorder export must lower to a valid Chrome trace (B/E pairing,
//! monotone timestamps, every track named) and its critical-path attribution
//! must sum exactly to the end-to-end wall — the same library calls
//! `obs trace --check` and `obs critpath --check` make on a JSONL file.

use blockconc::cluster::{ClusterConfig, ClusterDriver};
use blockconc::prelude::*;
use blockconc_obsctl::{critpath, trace, trees_from_jsonl};

#[test]
fn cluster_flight_recording_exports_a_valid_trace_and_an_exact_critical_path() {
    const SHARDS: u32 = 4;
    let telemetry = TelemetryRegistry::enabled();
    let mut config = ClusterConfig::new(SHARDS);
    config.pipeline = PipelineConfig {
        threads: 2,
        max_blocks: 5,
        telemetry: telemetry.clone(),
        ..PipelineConfig::default()
    };
    // One epoch rotation mid-run, so a `rehome` span is among the exported.
    config.blocks_per_epoch = 2;
    let engines = (0..SHARDS).map(|_| SequentialEngine::new()).collect();
    let report = ClusterDriver::new(engines, config)
        .run(ArrivalStream::new(
            AccountWorkloadParams::cross_shard_heavy(),
            18.0,
            900,
            2020,
        ))
        .expect("cluster run");
    assert!(report.cross_shard_hops > 0 && report.rotations > 0);

    let trees = trees_from_jsonl(&telemetry.flight_jsonl()).expect("JSONL round-trips");
    assert_eq!(
        trees.len(),
        report.blocks.len(),
        "one sealed tree per block"
    );
    let stats = trace::validate_chrome_trace(&trace::chrome_trace(&trees)).expect("valid trace");
    // The serial driver track plus one per shard.
    assert_eq!(stats.tracks, 1 + SHARDS as usize);
    critpath::analyze(&trees)
        .check()
        .expect("attribution sums to the wall");
}
