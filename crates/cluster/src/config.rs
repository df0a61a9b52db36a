//! Cluster configuration: the network-sharding shape composed with the
//! per-shard pipeline configuration.

use blockconc_pipeline::PipelineConfig;
use blockconc_sharding::ShardingConfig;

/// Configuration of a cluster run: one [`ShardingConfig`] (how many node shards,
/// how many blocks between DS-epoch rotations; its PoW population `num_nodes`
/// only shapes `ShardedNetwork`'s committees, the cluster does not read it)
/// composed with one [`PipelineConfig`] (what each node shard's pipeline looks
/// like).
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
    /// The network shape: shard count and rotation cadence.
    pub sharding: ShardingConfig,
    /// Each node shard's pipeline configuration (see the type-level docs for the
    /// fields' per-shard meaning).
    pub pipeline: PipelineConfig,
}

impl ClusterConfig {
    /// A cluster of `shards` node shards with default pipeline settings and a
    /// committee population of 100 PoW nodes per shard, rotating every 50 blocks.
    pub fn new(shards: u32) -> Self {
        assert!(shards > 0, "cluster needs at least one shard");
        ClusterConfig {
            sharding: ShardingConfig {
                num_shards: shards,
                num_nodes: shards as u64 * 100,
                tx_blocks_per_ds_epoch: 50,
            },
            pipeline: PipelineConfig::default(),
        }
    }

    /// Number of node shards.
    pub fn shards(&self) -> usize {
        self.sharding.num_shards as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_compose_sharding_and_pipeline() {
        let config = ClusterConfig::new(4);
        assert_eq!(config.shards(), 4);
        assert_eq!(config.sharding.num_nodes, 400);
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
