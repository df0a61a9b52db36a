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
/// [`PipelineConfig::shards`] / [`PipelineConfig::producer_threads`] switch (both
/// `1` reproduces the single-pool pipeline's behaviour on the sharded machinery).
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
/// The report carries both the familiar per-block pipeline records and per-phase
/// **modelled** work units (see [`ShardedRunReport`]): what the sharded layout's
/// critical path would be with a thread per producer bin and per shard, for
/// comparison against the single pool's serial one independently of this
/// machine's core count. `producer_threads` sizes that model only.
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
///     threads: 4, max_blocks: 4, shards: 4, producer_threads: 2,
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
    rebalance_every: usize,
}

impl<E: ExecutionEngine> ShardedPipelineDriver<E> {
    /// Vestigial: ingest has no queues any more. Kept, like
    /// [`IngestRouter::new`]'s second argument, until the benchmark that names it
    /// is updated.
    pub const DEFAULT_QUEUE_DEPTH: usize = 1_024;
    /// Default rebalance cadence in blocks (0 disables rebalancing).
    pub const DEFAULT_REBALANCE_EVERY: usize = 4;

    /// Creates a driver from an engine and a pipeline configuration
    /// ([`PipelineConfig::shards`] and [`PipelineConfig::producer_threads`] select
    /// the parallel layout).
    ///
    /// # Panics
    ///
    /// Panics if `config.shards`, `config.producer_threads` or `config.threads` is
    /// zero.
    pub fn new(engine: E, config: PipelineConfig) -> Self {
        let mut packer = ShardedPacker::new(config.shards, config.threads);
        packer.configure(&config);
        ShardedPipelineDriver {
            ingest: IngestRouter::new(config.producer_threads, Self::DEFAULT_QUEUE_DEPTH)
                .with_clock(config.telemetry.clock().clone()),
            packer,
            engine,
            config,
            rebalance_every: Self::DEFAULT_REBALANCE_EVERY,
        }
    }

    /// Overrides the rebalance cadence in blocks; 0 disables rebalancing
    /// (builder-style).
    pub fn with_rebalance_every(mut self, blocks: usize) -> Self {
        self.rebalance_every = blocks;
        self
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
                ingest_report.wall_nanos,
                ingest_report.parallel_units(),
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
            let mut pack_units = 0;
            let packer = &mut self.packer;
            let round = NodeRound::produce(&telemetry, &mut self.engine, &mut state, |state| {
                let (packed, pack_report) = packer.pack(&pool, state, &template);
                pack_units = pack_report.parallel_units;
                packed
            })?;

            // Settle the pool, rebalance on cadence.
            pool.remove_packed(round.packed.block.transactions());
            for (tx, receipt) in round.executed.iter() {
                if !receipt.succeeded() {
                    pool.resync_sender(tx.sender(), state.nonce(tx.sender()));
                }
            }
            if self.rebalance_every > 0 && height % self.rebalance_every as u64 == 0 {
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
                ingest_units: ingest_report.parallel_units(),
                pack_units,
                execute_units: record.measured_parallel_units,
                ingest_wall_nanos: ingest_report.wall_nanos,
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
            producers: config.producer_threads,
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

    fn config(shards: usize, producers: usize) -> PipelineConfig {
        PipelineConfig {
            threads: 4,
            max_blocks: 10,
            shards,
            producer_threads: producers,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn sharded_pipeline_executes_every_packed_transaction_successfully() {
        let report = ShardedPipelineDriver::new(SequentialEngine::new(), config(4, 3))
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
        let sharded = ShardedPipelineDriver::new(SequentialEngine::new(), config(1, 1))
            .run(stream(2))
            .unwrap();
        let single = PipelineDriver::new(
            ConcurrencyAwarePacker::new(4),
            SequentialEngine::new(),
            config(1, 1),
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
        let narrow = ShardedPipelineDriver::new(ScheduledEngine::new(4), config(1, 1))
            .run(stream(3))
            .unwrap();
        let wide = ShardedPipelineDriver::new(ScheduledEngine::new(4), config(4, 4))
            .run(stream(3))
            .unwrap();
        assert_eq!(wide.run.total_failed + narrow.run.total_failed, 0);
        // Stage by stage: an ingest unit and a pack unit are not the same cost.
        let stages = |report: &ShardedRunReport| -> (u64, u64) {
            let phases = &report.phases;
            (
                phases.iter().map(|p| p.ingest_units).sum(),
                phases.iter().map(|p| p.pack_units).sum(),
            )
        };
        let (wide_stages, narrow_stages) = (stages(&wide), stages(&narrow));
        assert!(
            wide_stages.0 < narrow_stages.0 && wide_stages.1 < narrow_stages.1,
            "(ingest, pack) units: wide {wide_stages:?} vs narrow {narrow_stages:?}"
        );
        assert!(wide.migrated_chains > 0 || wide.rebalances > 0);
    }

    #[test]
    fn modelled_ingest_path_halves_with_eight_producer_bins() {
        // A modelled quantity of one stage: admission runs in order on one
        // thread, and `ingest_units` is the critical path it would have with a
        // thread per producer bin and per shard. Seven simultaneous moderate hot
        // spots under an arrival rate above block capacity keep a backlog
        // standing that eight shards can spread.
        let params = AccountWorkloadParams {
            txs_per_block: 200.0,
            user_population: 30_000,
            fresh_receiver_share: 0.7,
            zipf_exponent: 0.15,
            hotspots: vec![
                HotspotSpec::exchange(0.05),
                HotspotSpec::exchange(0.04),
                HotspotSpec::exchange(0.03),
                HotspotSpec::contract(0.04, 3),
                HotspotSpec::contract(0.04, 2),
                HotspotSpec::contract(0.03, 2),
                HotspotSpec::exchange(0.03),
            ],
            contract_create_share: 0.01,
        };
        let ingest_units = |producers: usize| -> u64 {
            let config = PipelineConfig {
                threads: 8,
                max_blocks: 14,
                shards: 8,
                producer_threads: producers,
                max_deferral_blocks: 2,
                ..PipelineConfig::default()
            };
            let report = ShardedPipelineDriver::new(SequentialEngine::new(), config)
                .with_rebalance_every(1)
                .run(ArrivalStream::new(params.clone(), 42.0, 9_000, 2020))
                .unwrap();
            assert_eq!(report.run.total_failed, 0);
            report.phases.iter().map(|p| p.ingest_units).sum()
        };
        let (serial, split) = (ingest_units(1), ingest_units(8));
        assert!(
            split * 2 <= serial,
            "8 producer bins must at least halve the modelled ingest path ({serial} -> {split})"
        );
    }

    #[test]
    fn sharded_run_is_deterministic_in_structure() {
        let a = ShardedPipelineDriver::new(SequentialEngine::new(), config(4, 4))
            .run(stream(4))
            .unwrap();
        let b = ShardedPipelineDriver::new(SequentialEngine::new(), config(4, 4))
            .run(stream(4))
            .unwrap();
        // In-order ingest leaves no thread timing in the run: everything but the
        // wall-clock fields repeats, block for block.
        let records = |report: &ShardedRunReport| -> Vec<_> {
            report.run.blocks.iter().map(|r| r.normalized()).collect()
        };
        assert_eq!(records(&a), records(&b));
        assert_eq!(a.run.mempool_stats, b.run.mempool_stats);
        assert_eq!(a.migrated_chains, b.migrated_chains);
        assert!(a.migrated_chains > 0, "the run must exercise migration");
        let structure = |report: &ShardedRunReport| -> Vec<_> {
            let phases = report.phases.iter();
            phases
                .map(|p| (p.ingest_units, p.pack_units, p.shard_lens.clone()))
                .collect()
        };
        assert_eq!(structure(&a), structure(&b));
    }

    #[test]
    fn sharded_pipeline_survives_fee_escalation_replacement_pressure() {
        let escalating = stream(5).with_fee_escalation(FeeEscalationSpec::standard(14.0));
        let report = ShardedPipelineDriver::new(SequentialEngine::new(), config(4, 3))
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
