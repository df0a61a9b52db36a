//! Cluster configuration: the shard count and rotation cadence composed with
//! the per-shard pipeline configuration.

use blockconc_pipeline::PipelineConfig;

/// Configuration of a cluster run: how many node shards, how many blocks
/// between placement-epoch rotations, and one [`PipelineConfig`] (what each
/// node shard's pipeline looks like).
///
/// Per-shard semantics of the embedded pipeline configuration:
///
/// * `threads` — engine workers *per shard* (the cluster models N nodes, each a
///   machine of its own);
/// * `mempool_capacity` — per-shard pool capacity (each node admits
///   independently; there is no cluster-wide eviction, because no real network
///   has one);
/// * `state_backend` — partitioned per shard via
///   [`StateBackendConfig::partition`](blockconc_store::StateBackendConfig::partition),
///   so N shards own N disjoint stores;
/// * `shards` / `producer_threads` — ignored: intra-node pool sharding is
///   `blockconc-shardpool`'s axis, orthogonal to this crate's cross-node one.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    shards: usize,
    /// Blocks between epoch rotations, each of which re-homes live components
    /// under the next epoch's canonical placement (0 = never rotate).
    pub blocks_per_epoch: u64,
    /// Each node shard's pipeline configuration (see the type-level docs for the
    /// fields' per-shard meaning).
    pub pipeline: PipelineConfig,
}

impl ClusterConfig {
    /// A cluster of `shards` node shards with default pipeline settings,
    /// rotating every 50 blocks.
    pub fn new(shards: u32) -> Self {
        assert!(shards > 0, "cluster needs at least one shard");
        ClusterConfig {
            shards: shards as usize,
            blocks_per_epoch: 50,
            pipeline: PipelineConfig::default(),
        }
    }

    /// Number of node shards.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_compose_sharding_and_pipeline() {
        let config = ClusterConfig::new(4);
        assert_eq!(config.shards(), 4);
        assert_eq!(config.blocks_per_epoch, 50);
        assert_eq!(
            config.pipeline.mempool_capacity,
            PipelineConfig::default().mempool_capacity
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ClusterConfig::new(0);
    }
}
