//! Run reports of the sharded pipeline.

use blockconc_pipeline::PipelineRunReport;
use serde::{Deserialize, Serialize};

/// Per-block phase accounting of the sharded pipeline, in **modelled** work units
/// (the same hardware-independent convention as the execution engines'
/// `parallel_units`): one unit ≈ one per-transaction touch of the respective phase,
/// on the critical path the layout would have with a thread per parallel part.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockPhaseRecord {
    /// Block height.
    pub height: u64,
    /// Modelled ingest critical path: the larger of the largest producer bin and
    /// the largest per-shard share of the batch (admission itself runs in order on
    /// one thread; see [`IngestReport`](crate::IngestReport)).
    pub ingest_units: u64,
    /// Pack critical path: the largest single-shard scan plus the serial merge.
    pub pack_units: u64,
    /// The engine's parallel execution units for this block (copied from the block
    /// record so each phase reads from one place).
    pub execute_units: u64,
    /// Ingest wall-clock nanoseconds (actual, hardware-dependent).
    pub ingest_wall_nanos: u64,
    /// Shard pool lengths after this block.
    pub shard_lens: Vec<usize>,
}

/// Aggregate results of one sharded pipeline run: the familiar per-block pipeline
/// report plus shard-level phase accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedRunReport {
    /// The standard pipeline run report (packer name `sharded-concurrency-aware`).
    pub run: PipelineRunReport,
    /// Number of mempool shards.
    pub shards: usize,
    /// Producer bins the ingest model splits a batch across.
    pub producers: usize,
    /// Per-block phase records, in height order.
    pub phases: Vec<BlockPhaseRecord>,
    /// Chains migrated between shards (component fusions + rebalances).
    pub migrated_chains: u64,
    /// Rebalance passes run.
    pub rebalances: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockconc_pipeline::MempoolStats;

    #[test]
    fn sharded_reports_serialize_to_json() {
        let report = ShardedRunReport {
            run: PipelineRunReport {
                packer: "p".into(),
                engine: "e".into(),
                threads: 1,
                blocks: vec![],
                total_txs: 0,
                total_failed: 0,
                leftover_mempool: 0,
                mempool_stats: MempoolStats::default(),
                final_state_root: String::new(),
                store: blockconc_pipeline::StoreStats::default(),
                telemetry: None,
            },
            shards: 2,
            producers: 2,
            phases: vec![],
            migrated_chains: 3,
            rebalances: 1,
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        let parsed: ShardedRunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, report);
    }
}
