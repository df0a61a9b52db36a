//! Run reports of the sharded pipeline.

use blockconc_pipeline::PipelineRunReport;

/// Per-block shard counts of the sharded pipeline: how unevenly the block's
/// ingest and pack work fell across the shards.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPhaseRecord {
    /// Block height.
    pub height: u64,
    /// Most arrivals offered to any one shard
    /// ([`IngestReport::max_consumer_items`](crate::IngestReport::max_consumer_items)).
    pub max_shard_offered: u64,
    /// Most candidates any one shard's packing loop examined
    /// ([`ShardPackReport::sub_considered`](crate::ShardPackReport::sub_considered)).
    pub max_shard_considered: u64,
    /// Shard pool lengths after this block.
    pub shard_lens: Vec<usize>,
}

/// Aggregate results of one sharded pipeline run: the familiar per-block pipeline
/// report plus shard-level phase accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedRunReport {
    /// The standard pipeline run report (packer name `sharded-concurrency-aware`).
    pub run: PipelineRunReport,
    /// Number of mempool shards.
    pub shards: usize,
    /// Per-block phase records, in height order.
    pub phases: Vec<BlockPhaseRecord>,
    /// Chains migrated between shards (component fusions + rebalances).
    pub migrated_chains: u64,
    /// Rebalance passes run.
    pub rebalances: u64,
}
