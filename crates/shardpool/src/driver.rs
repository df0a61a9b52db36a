//! The sharded pipeline driver: arrival stream → in-order batch ingest → sharded
//! pool → parallel packers → merge → engine.

use crate::{
    BlockPhaseRecord, IngestItem, IngestRouter, ShardedMempool, ShardedPacker, ShardedRunReport,
};
use blockconc_chainsim::ArrivalStream;
use blockconc_execution::ExecutionEngine;
use blockconc_pipeline::{
    begin_block_span, emit_admissions, emit_ingest, mount_state, ArrivalWindow, BlockTail,
    NodeRound, PipelineConfig, PipelineRunReport,
};
use blockconc_telemetry::Dist;
use blockconc_types::Result;

/// Drives the sharded mempool and per-shard packers over an arrival stream — the
/// sharded counterpart of `blockconc_pipeline::PipelineDriver`, selected by the
/// [`PipelineConfig::shards`] switch (`1` reproduces the single-pool pipeline's
/// behaviour on the sharded machinery).
///
/// It runs the pipeline crate's block step (see *The block step* in its README)
/// with two phases swapped for sharded ones: admission goes through the
/// [`IngestRouter`] — the window's due arrivals, stamped with their stream position
/// (the deterministic admission sequence), admitted in that order on this thread
/// under one hold of the pool's router lock — and packing through the
/// [`ShardedPacker`] (parallel per-shard sub-blocks, one makespan-aware merge).
/// After settling it periodically [rebalances](ShardedMempool::rebalance)
/// components across shards. Nothing in a run depends on thread timing except
/// an optimistic engine's abort counts.
///
/// The report carries both the familiar per-block pipeline records and per-block
/// shard counts (see [`ShardedRunReport`]): the most arrivals offered to, and the
/// most candidates examined by, any one shard. [`PipelineConfig::producer_threads`]
/// is read by nothing.
///
/// # Examples
///
/// ```
/// use blockconc_chainsim::{AccountWorkloadParams, ArrivalStream, HotspotSpec};
/// use blockconc_execution::ScheduledEngine;
/// use blockconc_pipeline::PipelineConfig;
/// use blockconc_shardpool::ShardedPipelineDriver;
///
/// let params = AccountWorkloadParams {
///     txs_per_block: 40.0,
///     user_population: 2_000,
///     fresh_receiver_share: 0.5,
///     zipf_exponent: 0.5,
///     hotspots: vec![HotspotSpec::exchange(0.3)],
///     contract_create_share: 0.01,
/// };
/// let config = PipelineConfig {
///     threads: 4, max_blocks: 4, shards: 4,
///     ..PipelineConfig::default()
/// };
/// let stream = ArrivalStream::new(params, 3.0, 150, 11);
/// let report = ShardedPipelineDriver::new(ScheduledEngine::new(4), config)
///     .run(stream)
///     .unwrap();
/// assert_eq!(report.run.total_failed, 0);
/// assert_eq!(report.shards, 4);
/// ```
#[derive(Debug)]
pub struct ShardedPipelineDriver<E> {
    engine: E,
    config: PipelineConfig,
    packer: ShardedPacker,
    ingest: IngestRouter,
}

impl<E: ExecutionEngine> ShardedPipelineDriver<E> {
    /// Vestigial: ingest has no queues any more. Kept, like
    /// [`IngestRouter::new`]'s second argument, until the benchmark that names it
    /// is updated.
    pub const DEFAULT_QUEUE_DEPTH: usize = 1_024;
    /// Rebalance cadence in blocks: the pool rebalances after every block whose
    /// height is a multiple of it.
    pub const DEFAULT_REBALANCE_EVERY: usize = 4;

    /// Creates a driver from an engine and a pipeline configuration
    /// ([`PipelineConfig::shards`] selects the layout).
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` or `config.threads` is zero.
    pub fn new(engine: E, config: PipelineConfig) -> Self {
        ShardedPipelineDriver {
            ingest: IngestRouter::new(config.producer_threads, Self::DEFAULT_QUEUE_DEPTH),
            packer: ShardedPacker::new(config.shards, config.threads),
            engine,
            config,
        }
    }

    /// The driver's configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs the pipeline over `stream` until `max_blocks` blocks have been produced
    /// or the stream and the pool are both exhausted.
    ///
    /// # Errors
    ///
    /// Propagates engine-level execution failures (worker panics); per-transaction
    /// failures are recorded in the block records instead.
    pub fn run(mut self, stream: ArrivalStream) -> Result<ShardedRunReport> {
        let config = &self.config;
        let telemetry = config.telemetry.clone();
        let mut state = mount_state(stream.base_state().clone(), &config.state_backend)?;
        let pool = ShardedMempool::new(config.shards, config.mempool_capacity);
        let mut window = ArrivalWindow::new(stream, config);
        let mut tail = BlockTail::new(config);
        let mut blocks = Vec::with_capacity(config.max_blocks);
        let mut phases: Vec<BlockPhaseRecord> = Vec::with_capacity(config.max_blocks);
        let mut stamp = 0u64;
        let mut stats_seen = pool.stats();

        for height in 1..=config.max_blocks as u64 {
            let block_span = begin_block_span(&telemetry, height);
            state.begin_block(height)?;

            // Collect the due arrivals, snapshotting each sender's account nonce
            // (state does not change during ingest).
            let mut batch: Vec<IngestItem> = Vec::new();
            while let Some(arrival) = window.next_due(height) {
                window.fund_on_first_sight(arrival.tx.sender(), &mut state);
                batch.push(IngestItem {
                    account_nonce: state.nonce(arrival.tx.sender()),
                    fee_per_gas: arrival.fee_per_gas,
                    arrival_secs: arrival.arrival_secs,
                    tx: arrival.tx,
                    stamp,
                });
                stamp += 1;
            }
            let ingested = batch.len();

            // In-order batch admission.
            let ingest_started = telemetry.now_nanos();
            let ingest_report = self.ingest.ingest(&pool, batch);
            let ingest_wall = telemetry.now_nanos().saturating_sub(ingest_started);
            // Only ingest moves the admission counters, so one reading per
            // block is both this window's end and the next one's start.
            let stats = pool.stats();
            emit_admissions(&telemetry, &stats_seen, &stats);
            stats_seen = stats;
            // With no queue to measure, the distribution records the largest
            // per-shard share of the batch.
            telemetry.dist(
                Dist::IngestQueueDepth,
                ingest_report.max_consumer_items as u64,
            );
            emit_ingest(
                &telemetry,
                block_span,
                ingest_started,
                ingest_wall,
                ingest_report.items as u64,
                &[("items", ingest_report.items as u64)],
            );

            if pool.is_empty() && window.is_exhausted() {
                // Flush any funding credited during the final (blockless) ingest.
                state.commit_block()?;
                telemetry.end_span(block_span, 0);
                break;
            }

            // Parallel pack + merge, then execute.
            let template = window.template(height);
            let mut max_shard_considered = 0;
            let packer = &mut self.packer;
            let round = NodeRound::produce(&telemetry, &mut self.engine, &mut state, |state| {
                let (packed, pack_report) = packer.pack(&pool, state, &template);
                max_shard_considered = pack_report.sub_considered.into_iter().max().unwrap_or(0);
                packed
            })?;

            // Settle the pool, rebalance on cadence.
            pool.remove_packed(round.packed.block.transactions());
            for (tx, receipt) in round.executed.iter() {
                if !receipt.succeeded() {
                    pool.resync_sender(tx.sender(), state.nonce(tx.sender()));
                }
            }
            if height % Self::DEFAULT_REBALANCE_EVERY as u64 == 0 {
                pool.rebalance();
            }

            let (record, _) = tail.commit(
                &mut state,
                &round,
                ingested,
                pool.len(),
                pool.tdg_op_units(),
                Some(block_span),
            )?;
            phases.push(BlockPhaseRecord {
                height,
                max_shard_offered: ingest_report.max_consumer_items as u64,
                max_shard_considered,
                shard_lens: pool.shard_lens(),
            });
            blocks.push(record);
        }

        Ok(ShardedRunReport {
            run: PipelineRunReport::from_blocks(
                self.packer.name(),
                self.engine.name(),
                config,
                blocks,
                pool.len(),
                pool.stats(),
                &state,
            ),
            shards: config.shards,
            phases,
            migrated_chains: pool.migrated_chains(),
            rebalances: pool.rebalances(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockconc_chainsim::{AccountWorkloadParams, FeeEscalationSpec, HotspotSpec};
    use blockconc_execution::{ScheduledEngine, SequentialEngine};
    use blockconc_pipeline::{ConcurrencyAwarePacker, PipelineDriver};
    use blockconc_telemetry::TelemetryRegistry;

    fn hotspot_params() -> AccountWorkloadParams {
        AccountWorkloadParams {
            txs_per_block: 60.0,
            user_population: 3_000,
            fresh_receiver_share: 0.5,
            zipf_exponent: 0.5,
            hotspots: vec![HotspotSpec::exchange(0.45), HotspotSpec::contract(0.1, 2)],
            contract_create_share: 0.01,
        }
    }

    fn stream(seed: u64) -> ArrivalStream {
        ArrivalStream::new(hotspot_params(), 4.0, 700, seed)
    }

    fn config(shards: usize) -> PipelineConfig {
        PipelineConfig {
            threads: 4,
            max_blocks: 10,
            shards,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn sharded_pipeline_executes_every_packed_transaction_successfully() {
        let report = ShardedPipelineDriver::new(SequentialEngine::new(), config(4))
            .run(stream(1))
            .unwrap();
        assert!(!report.run.blocks.is_empty());
        assert!(report.run.total_txs > 100, "only {}", report.run.total_txs);
        assert_eq!(report.run.total_failed, 0);
        assert_eq!(report.run.packer, "sharded-concurrency-aware");
        assert_eq!(report.shards, 4);
        // Conservation: every admitted transaction was packed or is leftover.
        let stats = report.run.mempool_stats;
        assert_eq!(
            stats.admitted - stats.evicted - stats.dropped_unpackable,
            stats.packed + report.run.leftover_mempool as u64
        );
    }

    #[test]
    fn sharded_run_matches_single_pool_totals_at_one_shard() {
        let sharded = ShardedPipelineDriver::new(SequentialEngine::new(), config(1))
            .run(stream(2))
            .unwrap();
        let single = PipelineDriver::new(
            ConcurrencyAwarePacker::new(4),
            SequentialEngine::new(),
            config(1),
        )
        .run(stream(2))
        .unwrap();
        assert_eq!(sharded.run.total_txs, single.total_txs);
        assert_eq!(sharded.run.leftover_mempool, single.leftover_mempool);
        let sharded_sizes: Vec<usize> = sharded.run.blocks.iter().map(|b| b.tx_count).collect();
        let single_sizes: Vec<usize> = single.blocks.iter().map(|b| b.tx_count).collect();
        assert_eq!(sharded_sizes, single_sizes);
    }

    #[test]
    fn sharding_shrinks_the_pipeline_critical_path() {
        // Several moderate hot spots and a high fresh-receiver share: components
        // stay medium-sized, so shards can actually spread them. (One dominant
        // exchange would fuse most of the pool into a single unsplittable
        // component, which no sharding can parallelize.)
        let params = AccountWorkloadParams {
            txs_per_block: 60.0,
            user_population: 6_000,
            fresh_receiver_share: 0.75,
            zipf_exponent: 0.3,
            hotspots: vec![
                HotspotSpec::exchange(0.10),
                HotspotSpec::contract(0.08, 2),
                HotspotSpec::pool(0.04),
            ],
            contract_create_share: 0.01,
        };
        let stream = |seed| ArrivalStream::new(params.clone(), 6.0, 900, seed);
        let narrow = ShardedPipelineDriver::new(ScheduledEngine::new(4), config(1))
            .run(stream(3))
            .unwrap();
        let wide = ShardedPipelineDriver::new(ScheduledEngine::new(4), config(4))
            .run(stream(3))
            .unwrap();
        assert_eq!(wide.run.total_failed + narrow.run.total_failed, 0);
        // Stage by stage, as counts: the busiest shard's offered arrivals and
        // examined candidates.
        let stages = |report: &ShardedRunReport| -> (u64, u64) {
            let phases = &report.phases;
            (
                phases.iter().map(|p| p.max_shard_offered).sum(),
                phases.iter().map(|p| p.max_shard_considered).sum(),
            )
        };
        let (wide_stages, narrow_stages) = (stages(&wide), stages(&narrow));
        println!("(offered, considered) on the busiest shard: wide {wide_stages:?} vs narrow {narrow_stages:?}");
        assert!(
            wide_stages.0 < narrow_stages.0 && wide_stages.1 < narrow_stages.1,
            "(offered, considered) on the busiest shard: wide {wide_stages:?} vs narrow \
             {narrow_stages:?}"
        );
        assert!(wide.migrated_chains > 0 || wide.rebalances > 0);
    }

    #[test]
    fn sharded_run_is_deterministic_in_structure() {
        let a = ShardedPipelineDriver::new(SequentialEngine::new(), config(4))
            .run(stream(4))
            .unwrap();
        let b = ShardedPipelineDriver::new(SequentialEngine::new(), config(4))
            .run(stream(4))
            .unwrap();
        // In-order ingest leaves no thread timing in the run: every record
        // repeats, block for block.
        assert_eq!(a.run.blocks, b.run.blocks);
        assert_eq!(a.run.mempool_stats, b.run.mempool_stats);
        assert_eq!(a.migrated_chains, b.migrated_chains);
        assert!(a.migrated_chains > 0, "the run must exercise migration");
        assert_eq!(a.phases, b.phases);
    }

    #[test]
    fn an_enabled_registry_only_observes() {
        // The sharded layout under a disabled and an enabled registry, both on
        // the wall clock: block and phase records hold counts only, so they
        // compare whole.
        let run = |telemetry: TelemetryRegistry| {
            let config = PipelineConfig {
                telemetry,
                ..config(4)
            };
            ShardedPipelineDriver::new(ScheduledEngine::new(4), config)
                .run(stream(4))
                .unwrap()
        };
        let (plain, traced) = (
            run(TelemetryRegistry::disabled()),
            run(TelemetryRegistry::enabled()),
        );
        assert!(traced.run.telemetry.is_some() && plain.run.telemetry.is_none());
        assert_eq!(plain.run.blocks, traced.run.blocks);
        assert_eq!(plain.phases, traced.phases);
        assert_eq!(plain.run.mempool_stats, traced.run.mempool_stats);
        assert_eq!(plain.run.final_state_root, traced.run.final_state_root);
    }

    #[test]
    fn sharded_pipeline_survives_fee_escalation_replacement_pressure() {
        let escalating = stream(5).with_fee_escalation(FeeEscalationSpec::standard(14.0));
        let report = ShardedPipelineDriver::new(SequentialEngine::new(), config(4))
            .run(escalating)
            .unwrap();
        assert_eq!(report.run.total_failed, 0);
        let stats = report.run.mempool_stats;
        assert!(
            stats.replaced + stats.rejected_underpriced + stats.rejected_nonce > 0,
            "escalation must exercise replacement/stale paths: {stats:?}"
        );
    }
}
