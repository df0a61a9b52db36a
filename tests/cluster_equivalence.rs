//! Equivalence properties of the cross-node cluster.
//!
//! The cluster layer may change *where* work happens — never *what* is computed:
//!
//! 1. A **1-shard cluster is bit-identical to the single `PipelineDriver`**: the
//!    same arrival stream produces the same normalized block records (packed
//!    transactions, gas, speed-ups, receipts digests), the same mempool
//!    statistics and the same final state root, on both state backends and on
//!    sequential, scheduled and optimistic engines — the optimistic one
//!    commutes deltas, so its nodes must pack under the same weak-edge graph. Every
//!    cluster-only mechanism (routing, receipts, rotation, settlement) must be
//!    a perfect no-op at one shard.
//! 2. For a **fixed routing** (same stream, same configuration), the N-shard
//!    final state is **interleaving-independent**: whether shard micro-blocks
//!    are produced in parallel or serially in any permutation, every shard root
//!    — and therefore the folded cluster root — is identical.
//! 3. The **canonical placement rule is shared across layers**: the
//!    thread-sharded pool places a fresh component exactly where
//!    `canonical_shard` says, and the cluster's epoch-salted rule is that same
//!    function at epoch 0.

use blockconc::cluster::{ClusterConfig, ClusterDriver};
use blockconc::pipeline::{BlockRecord, ConcurrencyAwarePacker, DiskConfig, StateBackendConfig};
use blockconc::prelude::*;
use blockconc::shardpool::ShardedMempool;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique, throwaway store directory per proptest case.
fn store_dir(tag: &str) -> PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "blockconc-cluster-eq-{tag}-{}-{seq}",
        std::process::id()
    ))
}

fn stream(seed: u64) -> ArrivalStream {
    ArrivalStream::new(AccountWorkloadParams::cross_shard_heavy(), 8.0, 400, seed)
}

/// A deposit-and-contract hot-spot stream on which the component cap defers
/// under strong and weak edges alike — the regime where a node packing under
/// the wrong graph produces different blocks.
fn hotspot_stream(seed: u64) -> ArrivalStream {
    let params = AccountWorkloadParams {
        txs_per_block: 60.0,
        user_population: 3_000,
        fresh_receiver_share: 0.5,
        zipf_exponent: 0.5,
        hotspots: vec![HotspotSpec::exchange(0.45), HotspotSpec::contract(0.25, 2)],
        contract_create_share: 0.0,
    };
    ArrivalStream::new(params, 4.0, 700, seed)
}

/// The same stream through `PipelineDriver` and a 1-shard `ClusterDriver`.
fn single_and_cluster<E: ExecutionEngine + Send>(
    engine: impl Fn() -> E,
    stream: impl Fn() -> ArrivalStream,
    pipeline_config: PipelineConfig,
    config: ClusterConfig,
) -> (PipelineRunReport, ClusterRunReport) {
    let single = PipelineDriver::new(ConcurrencyAwarePacker::new(4), engine(), pipeline_config)
        .run(stream())
        .expect("pipeline run");
    let cluster = ClusterDriver::new(vec![engine()], config)
        .run(stream())
        .expect("cluster run");
    (single, cluster)
}

/// [`BlockRecord::normalized`] minus what a Block-STM engine measures about its
/// own run: abort-driven execution counts depend on how its worker threads
/// interleave, so they are diagnostics, not invariants. Everything the pool,
/// the graph and the packer decided stays.
fn normalized_for(record: &BlockRecord, optimistic: bool) -> BlockRecord {
    let record = record.normalized();
    if !optimistic {
        return record;
    }
    BlockRecord {
        measured_parallel_units: 0,
        measured_speedup: 0.0,
        conflict_rate: 0.0,
        group_conflict_rate: 0.0,
        ..record
    }
}

fn cluster_config(shards: u32, backend: StateBackendConfig) -> ClusterConfig {
    let mut config = ClusterConfig::new(shards);
    config.pipeline = PipelineConfig {
        threads: 4,
        max_blocks: 8,
        state_backend: backend,
        ..PipelineConfig::default()
    };
    config
}

fn normalized_micro(report: &ClusterRunReport) -> Vec<Vec<BlockRecord>> {
    report
        .blocks
        .iter()
        .map(|block| block.micro.iter().map(BlockRecord::normalized).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    // Property 1: the 1-shard cluster degenerates to the single pipeline, bit
    // for bit, on either backend and every engine family.
    #[test]
    fn one_shard_cluster_is_bit_identical_to_the_pipeline(
        seed in 1u64..500,
        backend_sel in 0u8..2,
    ) {
        for engine_sel in 0u8..3 {
            let (pipeline_backend, cluster_backend, dirs) = if backend_sel == 1 {
                let pipeline_dir = store_dir("pipe");
                let cluster_dir = store_dir("cluster");
                (
                    StateBackendConfig::Disk(DiskConfig::new(&pipeline_dir)),
                    StateBackendConfig::Disk(DiskConfig::new(&cluster_dir)),
                    vec![pipeline_dir, cluster_dir],
                )
            } else {
                (StateBackendConfig::InMemory, StateBackendConfig::InMemory, vec![])
            };

            let config = cluster_config(1, cluster_backend);
            let pipeline_config = PipelineConfig {
                state_backend: pipeline_backend,
                ..config.pipeline.clone()
            };
            // The optimistic row runs the hot-spot stream: the cap must defer
            // for the strong-vs-weak graph choice to show in the blocks.
            let optimistic = engine_sel == 2;
            let (cross, hot) = (|| stream(seed), || hotspot_stream(seed));
            let (single, cluster) = match engine_sel {
                0 => single_and_cluster(SequentialEngine::new, cross, pipeline_config, config),
                1 => single_and_cluster(|| ScheduledEngine::new(4), cross, pipeline_config, config),
                _ => single_and_cluster(|| OptimisticEngine::new(2), hot, pipeline_config, config),
            };

            prop_assert_eq!(cluster.total_failed + single.total_failed, 0);
            prop_assert_eq!(cluster.total_txs, single.total_txs);
            prop_assert_eq!(cluster.cross_shard_txs, 0);
            prop_assert_eq!(cluster.receipts_applied, 0);
            prop_assert_eq!(cluster.blocks.len(), single.blocks.len());
            for (cluster_block, single_block) in cluster.blocks.iter().zip(&single.blocks) {
                prop_assert_eq!(
                    normalized_for(&cluster_block.micro[0], optimistic),
                    normalized_for(single_block, optimistic),
                    "engine {} height {} diverged",
                    &single.engine,
                    single_block.height
                );
                prop_assert!(
                    !cluster_block.micro[0].receipts_digest.is_empty()
                        || cluster_block.micro[0].tx_count == 0,
                    "records must carry receipts digests"
                );
            }
            if optimistic {
                prop_assert!(
                    single.blocks.iter().map(|b| b.deferred_by_cap).sum::<u64>() > 0,
                    "engine {}: the hot-spot stream must exercise the component cap",
                    &single.engine
                );
            }
            prop_assert_eq!(&cluster.mempool_stats, &single.mempool_stats);
            prop_assert_eq!(cluster.leftover_mempool(), single.leftover_mempool);
            prop_assert_eq!(&cluster.shard_roots[0], &single.final_state_root);
            for dir in dirs {
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    // Property 2: for a fixed routing, the N-shard run is independent of how
    // shard executions interleave — parallel or any serial permutation.
    #[test]
    fn n_shard_final_state_is_interleaving_independent(
        seed in 1u64..500,
        shards in 2u32..6,
        rotate_by in 0usize..5,
    ) {
        let engines = |n: u32| -> Vec<SequentialEngine> {
            (0..n).map(|_| SequentialEngine::new()).collect()
        };
        let parallel = ClusterDriver::new(
            engines(shards),
            cluster_config(shards, StateBackendConfig::InMemory),
        )
        .run(stream(seed))
        .expect("parallel run");

        // Two deterministic permutations derived from the draw: a rotation and
        // its reversal.
        let n = shards as usize;
        let rotation: Vec<usize> = (0..n).map(|i| (i + rotate_by) % n).collect();
        let reversed: Vec<usize> = rotation.iter().rev().copied().collect();
        for order in [rotation, reversed] {
            let serial = ClusterDriver::new(
                engines(shards),
                cluster_config(shards, StateBackendConfig::InMemory),
            )
            .with_serial_shard_order(order.clone())
            .run(stream(seed))
            .expect("serial run");
            prop_assert_eq!(&serial.cluster_root, &parallel.cluster_root, "order {:?}", &order);
            prop_assert_eq!(&serial.shard_roots, &parallel.shard_roots);
            prop_assert_eq!(serial.total_txs, parallel.total_txs);
            prop_assert_eq!(serial.cross_shard_hops, parallel.cross_shard_hops);
            prop_assert_eq!(serial.total_supply_sats, parallel.total_supply_sats);
            prop_assert_eq!(normalized_micro(&serial), normalized_micro(&parallel));
        }
    }

    // Property 3: one placement function across layers. A fresh two-address
    // component lands exactly where `canonical_shard(anchor)` says in the
    // thread-sharded pool, and the cluster's salted rule agrees at epoch 0.
    #[test]
    fn canonical_placement_is_shared_across_layers(
        sender_low in 1u64..1_000_000,
        receiver_low in 1_000_001u64..2_000_000,
        shards in 1usize..9,
    ) {
        let sender = Address::from_low(sender_low);
        let receiver = Address::from_low(receiver_low);
        let anchor = sender.min(receiver);
        let expected = canonical_shard(anchor, shards);

        // The thread-sharded pool: a fresh component occupies exactly the
        // canonical shard.
        let pool = ShardedMempool::new(shards, 16);
        pool.insert(
            AccountTransaction::transfer(sender, receiver, Amount::from_sats(1), 0),
            10,
            0.0,
            0,
            Some(0),
        );
        let lens = pool.shard_lens();
        prop_assert_eq!(lens[expected], 1, "shardpool placement diverged: {:?}", lens);

        // The epoch-0 salted rule is the same function.
        prop_assert_eq!(canonical_shard_epoch(anchor, 0, shards), expected);
    }
}
