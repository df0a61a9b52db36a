//! Telemetry demo: run the block-production pipeline with the observability
//! layer enabled, print the per-stage latency/work quantiles and counters it
//! collected, export the flight recorder's span trees as JSONL, and
//! schema-check the export (every span closed, every parent resolving inside
//! its tree, timestamps monotone). The JSONL is then lowered to a Chrome
//! trace-event file via `blockconc-obsctl` and validated (B/E pairing, monotone
//! timestamps, named tracks) — CI runs this example as both schema gates, so a
//! violation in either format fails loudly.
//!
//! The second half shows the other half of the clock story: the same run on a
//! deterministic [`MockClock`] produces *bit-identical* telemetry snapshots,
//! wall times included — which is what makes timing-sensitive tests
//! reproducible.
//!
//! Run with `cargo run --release -p blockconc --example telemetry_demo`.

use blockconc::pipeline::ConcurrencyAwarePacker;
use blockconc::prelude::*;
use blockconc::telemetry::SpanRecord;

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

fn stream() -> ArrivalStream {
    ArrivalStream::new(workload(), 10.0, 1_000, 42)
}

/// Schema check over the flight recorder's JSONL export. Returns the number of
/// spans checked; panics with the offending line on any violation.
fn check_jsonl_schema(jsonl: &str) -> usize {
    let mut tree_ids: Vec<u64> = Vec::new(); // ids of the tree being read
    let mut tree_root_interval = (0u64, 0u64);
    let mut last_id = 0u64;
    let mut checked = 0usize;
    for line in jsonl.lines() {
        let span: SpanRecord = serde_json::from_str(line)
            .unwrap_or_else(|err| panic!("unparseable span {line}: {err}"));
        assert!(
            span.end_nanos >= span.start_nanos,
            "span {} is not closed monotonically: end {} < start {}",
            span.id,
            span.end_nanos,
            span.start_nanos
        );
        assert!(
            span.id > last_id,
            "span ids must increase across the export ({} after {})",
            span.id,
            last_id
        );
        last_id = span.id;
        if span.parent == 0 {
            // A new root starts a new tree.
            tree_ids = vec![span.id];
            tree_root_interval = (span.start_nanos, span.end_nanos);
        } else {
            assert!(
                tree_ids.contains(&span.parent),
                "span {} ({}) references parent {} outside its tree",
                span.id,
                span.name,
                span.parent
            );
            assert!(
                span.start_nanos >= tree_root_interval.0 && span.end_nanos <= tree_root_interval.1,
                "span {} ({}) [{}, {}] escapes its root's interval [{}, {}]",
                span.id,
                span.name,
                span.start_nanos,
                span.end_nanos,
                tree_root_interval.0,
                tree_root_interval.1
            );
            tree_ids.push(span.id);
        }
        checked += 1;
    }
    assert!(checked > 0, "the flight recorder exported no spans");
    checked
}

fn mock_run(step: u64) -> TelemetrySnapshot {
    let telemetry = TelemetryRegistry::enabled_with(MockClock::shared(step), 64);
    let config = PipelineConfig {
        threads: 4,
        max_blocks: 4,
        telemetry: telemetry.clone(),
        ..PipelineConfig::default()
    };
    PipelineDriver::new(
        ConcurrencyAwarePacker::new(4),
        SequentialEngine::new(),
        config,
    )
    .run(stream())
    .expect("mock-clock run");
    telemetry.snapshot().expect("enabled registry snapshots")
}

fn main() {
    // 1. A real run on the wall clock, registry enabled.
    let telemetry = TelemetryRegistry::enabled();
    let config = PipelineConfig {
        threads: 4,
        max_blocks: 6,
        telemetry: telemetry.clone(),
        ..PipelineConfig::default()
    };
    let report = PipelineDriver::new(
        ConcurrencyAwarePacker::new(4),
        ScheduledEngine::new(4),
        config,
    )
    .run(stream())
    .expect("pipeline run");

    let snapshot = report.telemetry.as_ref().expect("telemetry enabled");
    println!(
        "pipeline run: {} blocks, {} txs — per-stage quantiles (wall ns / stage count):\n",
        report.blocks.len(),
        report.total_txs
    );
    println!(
        "  {:<9} {:>8} {:>12} {:>12} {:>10} {:>10}",
        "stage", "samples", "wall p50", "wall p99", "count p50", "count p99"
    );
    for stage in &snapshot.stages {
        println!(
            "  {:<9} {:>8} {:>12} {:>12} {:>10} {:>10}",
            stage.stage,
            stage.wall_nanos.count,
            stage.wall_nanos.p50(),
            stage.wall_nanos.p99(),
            stage.units.p50(),
            stage.units.p99(),
        );
    }
    println!("\n  counters:");
    for counter in &snapshot.counters {
        println!("    {:<24} {}", counter.name, counter.value);
    }

    // 2. Export the flight recorder's span trees and schema-check them.
    let jsonl = telemetry.flight_jsonl();
    let checked = check_jsonl_schema(&jsonl);
    let path = std::env::temp_dir().join(format!(
        "blockconc-telemetry-demo-{}.jsonl",
        std::process::id()
    ));
    std::fs::write(&path, &jsonl).expect("write JSONL export");
    println!(
        "\nflight recorder: {} spans in {} sealed block trees — schema OK \
         (all spans closed, parents resolve, timestamps monotone)",
        checked, snapshot.blocks_sealed
    );
    println!("JSONL export written to {}", path.display());

    // 3. Lower the same trees to the Chrome trace-event format and validate it
    //    the way the CI gate does: ph B/E pairing per track, monotone
    //    timestamps, every track named by metadata.
    let trees = blockconc_obsctl::trees_from_jsonl(&jsonl).expect("JSONL round-trips");
    let chrome = blockconc_obsctl::trace::chrome_trace(&trees);
    let stats =
        blockconc_obsctl::trace::validate_chrome_trace(&chrome).expect("Chrome trace is valid");
    let trace_path = std::env::temp_dir().join(format!(
        "blockconc-telemetry-demo-{}.trace.json",
        std::process::id()
    ));
    std::fs::write(&trace_path, &chrome).expect("write Chrome trace");
    println!(
        "chrome trace: {} events over {} spans on {} tracks — schema OK; written to {} \
         (open in chrome://tracing or https://ui.perfetto.dev)",
        stats.events,
        stats.spans,
        stats.tracks,
        trace_path.display()
    );

    // 4. Determinism: the same run on a stepping mock clock twice over —
    //    identical snapshots, wall nanos included.
    let first = mock_run(10);
    let second = mock_run(10);
    assert_eq!(first, second, "mock-clock runs must be bit-identical");
    let execute = first.stage("execute").expect("execute stage recorded");
    println!(
        "\nmock clock: two runs at 10 ns/step produced identical snapshots \
         (execute-stage wall total {} ns over {} blocks, deterministic)",
        execute.wall_nanos.sum, execute.wall_nanos.count
    );
}
