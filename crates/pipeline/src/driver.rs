//! The end-to-end pipeline driver: arrival stream → mempool → packer → engine.

use crate::{
    begin_block_span, emit_ingest, mount_state, ArrivalWindow, BlockPacker, NodePipeline,
    PipelineRunReport,
};
use blockconc_chainsim::ArrivalStream;
use blockconc_execution::ExecutionEngine;
use blockconc_store::StateBackendConfig;
use blockconc_telemetry::TelemetryRegistry;
use blockconc_types::{Gas, Result};

/// Configuration of a pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Worker threads for the engine (and the concurrency-aware packer's target).
    pub threads: usize,
    /// Block gas limit handed to the packer.
    pub block_gas_limit: Gas,
    /// Simulated seconds between block productions (the arrival clock drives
    /// ingestion; every arrival with a timestamp before a block's deadline is offered
    /// to the mempool before that block is packed).
    pub block_interval_secs: f64,
    /// Number of blocks to produce.
    pub max_blocks: usize,
    /// Mempool capacity in transactions.
    pub mempool_capacity: usize,
    /// Bounded-deferral blocks for the concurrency-aware packer's aging rule: a
    /// sender capped out of this many consecutive blocks bypasses the component cap
    /// once. `0` disables aging (components may be deferred indefinitely). Adopted by
    /// packers through [`BlockPacker::configure`](crate::BlockPacker::configure).
    pub max_deferral_blocks: usize,
    /// Mempool shards, keyed by TDG component (the sharded-pipeline switch; `1`
    /// reproduces the single-pool pipeline). Only honoured by drivers that understand
    /// sharding — `blockconc-shardpool`'s `ShardedPipelineDriver` — and ignored by
    /// [`PipelineDriver`], which always runs one pool.
    pub shards: usize,
    /// Producer bins the sharded pool's ingest report models a batch split across
    /// (`1` = the serial model; admission itself always runs in order on one
    /// thread). Ignored by [`PipelineDriver`], like
    /// [`shards`](PipelineConfig::shards).
    pub producer_threads: usize,
    /// Which state backend the driver mounts under its `WorldState`: the in-memory
    /// map behind the `blockconc_store::StateBackend` trait (default,
    /// bit-identical to the historical behaviour) or the journaled disk store
    /// (`StateBackendConfig::Disk`), which bounds resident state by the configured
    /// working-set cap and makes every block commit durable.
    pub state_backend: StateBackendConfig,
    /// Observability handle. Disabled by default (a disabled registry is a
    /// single branch per record call, and an enabled one only observes: see
    /// `an_enabled_registry_only_observes`); drivers route all wall-clock
    /// measurements through its [`Clock`](blockconc_telemetry::Clock) either
    /// way, so a mock clock makes the report's timing fields deterministic even
    /// with collection off.
    pub telemetry: TelemetryRegistry,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            threads: 8,
            block_gas_limit: blockconc_account::BlockBuilder::DEFAULT_GAS_LIMIT,
            block_interval_secs: 14.0,
            max_blocks: 20,
            mempool_capacity: 100_000,
            max_deferral_blocks: 0,
            shards: 1,
            producer_threads: 1,
            state_backend: StateBackendConfig::InMemory,
            telemetry: TelemetryRegistry::default(),
        }
    }
}

/// Drives one packer and one engine over an arrival stream, producing blocks on a
/// fixed interval and reporting predicted vs. measured concurrency per block.
///
/// The driver owns the executable world state: it starts from the stream's
/// [`base_state`](ArrivalStream::base_state) (hot-spot contracts deployed) and funds
/// each sender on first sight exactly as the workload generator does, so every
/// admitted transaction is executable once its nonce predecessors are packed — which
/// the mempool's gap-free chain rule guarantees.
///
/// # Examples
///
/// See the crate-level documentation.
#[derive(Debug)]
pub struct PipelineDriver<P, E> {
    config: PipelineConfig,
    packer: P,
    engine: E,
}

impl<P: BlockPacker, E: ExecutionEngine> PipelineDriver<P, E> {
    /// Creates a driver from a packer, an engine and a configuration.
    pub fn new(packer: P, engine: E, config: PipelineConfig) -> Self {
        PipelineDriver {
            config,
            packer,
            engine,
        }
    }

    /// The driver's configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs the pipeline over `stream` until `max_blocks` blocks have been produced
    /// or the stream and the mempool are both exhausted: one [`NodePipeline`]
    /// stepped under an [`ArrivalWindow`].
    ///
    /// # Errors
    ///
    /// Propagates engine-level execution failures (worker panics); per-transaction
    /// failures are recorded in the block records instead.
    pub fn run(self, stream: ArrivalStream) -> Result<PipelineRunReport> {
        let config = self.config;
        let telemetry = config.telemetry.clone();
        let (packer_name, engine_name) = (self.packer.name(), self.engine.name());
        let state = mount_state(stream.base_state().clone(), &config.state_backend)?;
        let mut node = NodePipeline::new(self.packer, self.engine, state, &config);
        let mut window = ArrivalWindow::new(stream, &config);
        let mut blocks = Vec::with_capacity(config.max_blocks);

        for height in 1..=config.max_blocks as u64 {
            let block_span = begin_block_span(&telemetry, height);
            node.begin_block(height)?;

            let ingest_started = telemetry.now_nanos();
            while let Some(arrival) = window.next_due(height) {
                window.fund_on_first_sight(arrival.tx.sender(), &mut node.state);
                node.admit(&arrival);
            }
            let ingest_wall = telemetry.now_nanos().saturating_sub(ingest_started);
            node.emit_admissions();
            emit_ingest(
                &telemetry,
                block_span,
                ingest_started,
                ingest_wall,
                node.ingested() as u64,
                &[],
            );

            if node.pool.pool().is_empty() && window.is_exhausted() {
                // Flush any funding credited during the final (blockless) ingest.
                node.state.commit_block()?;
                telemetry.end_span(block_span, 0);
                break;
            }

            let round = node.produce(&window.template(height))?;
            blocks.push(node.settle_and_commit(&round, block_span)?);
        }

        Ok(PipelineRunReport::from_blocks(
            packer_name,
            engine_name,
            &config,
            blocks,
            node.pool.pool().len(),
            node.pool.pool().stats(),
            &node.state,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConcurrencyAwarePacker, FeeGreedyPacker};
    use blockconc_chainsim::{AccountWorkloadParams, HotspotSpec};
    use blockconc_execution::{ScheduledEngine, SequentialEngine};

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
        // ~56 tx per 14 s block interval for 10 blocks, plus backlog.
        ArrivalStream::new(hotspot_params(), 4.0, 700, seed)
    }

    fn config() -> PipelineConfig {
        PipelineConfig {
            threads: 4,
            max_blocks: 10,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn pipeline_executes_every_packed_transaction_successfully() {
        let driver = PipelineDriver::new(FeeGreedyPacker::new(), SequentialEngine::new(), config());
        let report = driver.run(stream(1)).unwrap();
        assert!(!report.blocks.is_empty());
        assert!(report.total_txs > 100, "only {} txs", report.total_txs);
        assert_eq!(
            report.total_failed, 0,
            "pipeline produced failing transactions"
        );
        assert_eq!(report.engine, "sequential");
        assert_eq!(report.packer, "fee-greedy");
        // Conservation: every admitted transaction was either packed or is leftover.
        let stats = report.mempool_stats;
        assert_eq!(
            stats.admitted - stats.evicted,
            stats.packed + report.leftover_mempool as u64
        );
    }

    #[test]
    fn concurrency_aware_packing_beats_fee_greedy_on_hotspot_load() {
        // A model claim about one stage: the engine's measured unit speed-up of
        // the blocks each packer builds, at 8 threads, on a stream where one
        // exchange takes 40% of the traffic (3.44x, modelled, at PR 20).
        let params = AccountWorkloadParams {
            txs_per_block: 200.0,
            user_population: 20_000,
            fresh_receiver_share: 0.5,
            zipf_exponent: 0.4,
            hotspots: vec![
                HotspotSpec::exchange(0.40),
                HotspotSpec::contract(0.12, 3),
                HotspotSpec::pool(0.03),
            ],
            contract_create_share: 0.01,
        };
        let stream = || ArrivalStream::new(params.clone(), 16.0, 3_600, 2020);
        let config = PipelineConfig {
            threads: 8,
            max_blocks: 16,
            ..PipelineConfig::default()
        };
        let greedy = PipelineDriver::new(
            FeeGreedyPacker::new(),
            ScheduledEngine::new(8),
            config.clone(),
        )
        .run(stream())
        .unwrap();
        let aware = PipelineDriver::new(
            ConcurrencyAwarePacker::new(8),
            ScheduledEngine::new(8),
            config,
        )
        .run(stream())
        .unwrap();
        assert_eq!(greedy.total_failed + aware.total_failed, 0);
        assert!(
            aware.mean_measured_speedup() >= greedy.mean_measured_speedup() * 1.5,
            "aware {} vs greedy {}",
            aware.mean_measured_speedup(),
            greedy.mean_measured_speedup()
        );
    }

    #[test]
    fn predicted_makespan_tracks_measured_parallel_units() {
        let report = PipelineDriver::new(
            ConcurrencyAwarePacker::new(4),
            ScheduledEngine::new(4),
            config(),
        )
        .run(stream(3))
        .unwrap();
        for block in &report.blocks {
            if block.tx_count == 0 {
                continue;
            }
            // The static prediction can miss internal-transaction edges, so it may
            // under-estimate, but it must stay within a factor of two of the engine's
            // measured schedule on this workload.
            let ratio =
                block.measured_parallel_units as f64 / block.predicted_makespan.max(1) as f64;
            assert!(
                (0.5..=2.5).contains(&ratio),
                "block {}: predicted {} vs measured {}",
                block.height,
                block.predicted_makespan,
                block.measured_parallel_units
            );
        }
    }

    #[test]
    fn aging_fires_under_sustained_hotspot_overload() {
        // One dominant exchange at a rate far above block capacity: the giant
        // component's serial work exceeds threads × capacity, so without aging the
        // cap defers most of it every block.
        let params = AccountWorkloadParams {
            txs_per_block: 60.0,
            user_population: 2_000,
            fresh_receiver_share: 0.2,
            zipf_exponent: 0.4,
            hotspots: vec![HotspotSpec::exchange(0.85)],
            contract_create_share: 0.0,
        };
        let config = PipelineConfig {
            threads: 4,
            max_blocks: 8,
            block_gas_limit: blockconc_types::Gas::new(21_000 * 40),
            max_deferral_blocks: 2,
            ..PipelineConfig::default()
        };
        let report = PipelineDriver::new(
            ConcurrencyAwarePacker::new(4),
            SequentialEngine::new(),
            config,
        )
        .run(ArrivalStream::new(params, 12.0, 900, 6))
        .unwrap();
        let deferred: u64 = report.blocks.iter().map(|b| b.deferred_by_cap).sum();
        let aged: u64 = report.blocks.iter().map(|b| b.aged_included).sum();
        assert!(deferred > 0, "workload must exercise the component cap");
        assert!(
            aged > 0,
            "bounded deferral must include aged senders (deferred {deferred})"
        );
        assert_eq!(report.total_failed, 0);
    }

    #[test]
    fn fee_replacements_stay_incremental_and_consistent() {
        // A fee-escalating stream exercises the replacement path every block; the
        // regression this pins down: a replacement must be an incremental edge
        // swap (zero-degree fast path when the superseded edge is still covered),
        // never a pool-wide rebuild — and the maintained graph must stay
        // consistent enough that every packed block still executes cleanly.
        use blockconc_chainsim::FeeEscalationSpec;
        let escalating = stream(7).with_fee_escalation(FeeEscalationSpec::standard(14.0));
        let report = PipelineDriver::new(
            ConcurrencyAwarePacker::new(4),
            SequentialEngine::new(),
            config(),
        )
        .run(escalating)
        .unwrap();
        assert_eq!(report.total_failed, 0);
        let stats = report.mempool_stats;
        assert!(
            stats.replaced > 0,
            "escalation must exercise replacements: {stats:?}"
        );
        assert_eq!(
            stats.admitted - stats.evicted - stats.dropped_unpackable,
            stats.packed + report.leftover_mempool as u64
        );
    }

    #[test]
    fn per_block_maintenance_is_delta_bound_not_pool_bound() {
        // With a standing backlog, the per-block TDG maintenance and pack scan
        // must track the block-window delta (arrivals + packed + examined
        // candidates), not the pool size. The generous factor absorbs compaction
        // amortization and per-candidate rejections.
        let report = PipelineDriver::new(
            ConcurrencyAwarePacker::new(4),
            SequentialEngine::new(),
            config(),
        )
        .run(stream(8))
        .unwrap();
        // Compaction is amortized, so a single block may spike while the work it
        // pays for accumulated over several: bound the *cumulative* maintenance by
        // the cumulative delta, and each block's pack scan by its own delta.
        let total_delta: u64 = report
            .blocks
            .iter()
            .map(|b| (b.ingested + b.tx_count + 1) as u64)
            .sum();
        let total_tdg: u64 = report.blocks.iter().map(|b| b.tdg_units).sum();
        assert!(
            total_tdg <= total_delta * 8,
            "cumulative tdg_units {total_tdg} vs cumulative delta {total_delta}"
        );
        for block in &report.blocks {
            let delta = (block.ingested + block.tx_count + 1) as u64;
            assert!(
                block.pack_considered <= delta + block.deferred_by_cap + 64,
                "block {}: pack_considered {} vs delta {}",
                block.height,
                block.pack_considered,
                delta
            );
            assert!(block.tx_count == 0 || block.pack_considered >= block.tx_count as u64);
        }
    }

    #[test]
    fn per_block_pack_and_settle_cost_is_independent_of_the_standing_pool() {
        // The same claim with the backlog as the only variable: per block, a
        // standing pool ten times the size costs the graph and the packer the
        // same (op counts, so the floor does not read the host).
        let small = standing_pool_costs(5_000);
        let large = standing_pool_costs(50_000);
        for (small, large) in small.iter().zip(&large) {
            assert!(
                large.0 * 100 <= small.0 * 105 && large.1 * 100 <= small.1 * 105,
                "(tdg op units, considered) per block: {large:?} out of 50k pooled vs \
                 {small:?} out of 5k"
            );
        }
    }

    /// Packs and settles four blocks out of a standing pool of `n` transfers —
    /// one in seven a deposit into one of 8 hot addresses, fees cycling over
    /// 1 000 levels — returning each block's `(op_units delta, considered)`.
    fn standing_pool_costs(n: usize) -> Vec<(u64, u64)> {
        use crate::{BlockTemplate, TrackedPool};
        use blockconc_account::{AccountTransaction, WorldState};
        use blockconc_types::{Address, Amount};
        let mut pool = TrackedPool::new(n + 1, false);
        for i in 0..n as u64 {
            let receiver = if i % 7 == 0 {
                500 + i % 8
            } else {
                5_000_000 + i
            };
            let tx = AccountTransaction::transfer(
                Address::from_low(1_000_000 + i),
                Address::from_low(receiver),
                Amount::from_sats(1),
                0,
            );
            pool.offer(&tx, 10 + i % 1_000, i as f64, 0, None);
        }
        assert_eq!(pool.pool().len(), n, "every standing transfer is admitted");
        let mut packer = ConcurrencyAwarePacker::new(8);
        let state = WorldState::new();
        (1..=4)
            .map(|height| {
                let before = pool.tdg().op_units();
                let (view, tdg) = pool.packing_view();
                let template = BlockTemplate {
                    height,
                    timestamp: 1_600_000_000,
                    beneficiary: Address::from_low(999_999_998),
                    gas_limit: Gas::new(12_000_000),
                };
                let packed = packer.pack(view, tdg, &state, &template);
                pool.settle_packed(packed.block.transactions());
                (pool.tdg().op_units() - before, packed.considered)
            })
            .collect()
    }

    #[test]
    fn a_node_over_the_optimistic_engine_keeps_a_weak_edge_pool_graph() {
        use blockconc_account::WorldState;
        use blockconc_execution::OptimisticEngine;
        let weak = NodePipeline::new(
            ConcurrencyAwarePacker::new(4),
            OptimisticEngine::new(2),
            WorldState::new(),
            &config(),
        );
        assert!(weak.pool.tdg().weak_edges());
        let strong = NodePipeline::new(
            ConcurrencyAwarePacker::new(4),
            ScheduledEngine::new(2),
            WorldState::new(),
            &config(),
        );
        assert!(!strong.pool.tdg().weak_edges());
    }

    #[test]
    fn delta_engine_dissolves_the_deposit_hotspot_end_to_end() {
        // The weak-TDG propagation test: with the delta-commuting optimistic
        // engine the driver's maintained graph treats exchange deposits as
        // weak edges, so the concurrency-aware cap no longer sees one giant
        // component and stops deferring the hot traffic — while the same
        // stream under the scheduled evaluator, whose storage-level conflict
        // model orders credits, keeps fusing and deferring.
        use blockconc_execution::OptimisticEngine;
        let params = AccountWorkloadParams {
            txs_per_block: 60.0,
            user_population: 3_000,
            fresh_receiver_share: 0.5,
            zipf_exponent: 0.5,
            hotspots: vec![HotspotSpec::exchange(0.6)],
            contract_create_share: 0.0,
        };
        fn run<E: ExecutionEngine>(engine: E, params: &AccountWorkloadParams) -> PipelineRunReport {
            PipelineDriver::new(ConcurrencyAwarePacker::new(4), engine, config())
                .run(ArrivalStream::new(params.clone(), 4.0, 700, 11))
                .unwrap()
        }
        let strong = run(ScheduledEngine::new(2), &params);
        let weak = run(OptimisticEngine::new(2), &params);
        assert_eq!(strong.engine, "scheduled");
        assert_eq!(weak.engine, "optimistic");
        assert_eq!(weak.total_failed, 0);
        let strong_deferred: u64 = strong.blocks.iter().map(|b| b.deferred_by_cap).sum();
        let weak_deferred: u64 = weak.blocks.iter().map(|b| b.deferred_by_cap).sum();
        assert!(
            weak_deferred * 4 <= strong_deferred.max(1),
            "weak TDG must stop the cap from deferring deposits: weak {weak_deferred} vs strong {strong_deferred}"
        );
        assert!(
            weak.total_txs >= strong.total_txs,
            "dissolved components must not shrink throughput"
        );
    }

    #[test]
    fn run_is_deterministic_in_structure() {
        let a = PipelineDriver::new(FeeGreedyPacker::new(), SequentialEngine::new(), config())
            .run(stream(4))
            .unwrap();
        let b = PipelineDriver::new(FeeGreedyPacker::new(), SequentialEngine::new(), config())
            .run(stream(4))
            .unwrap();
        assert_eq!(a.total_txs, b.total_txs);
        let sizes_a: Vec<usize> = a.blocks.iter().map(|r| r.tx_count).collect();
        let sizes_b: Vec<usize> = b.blocks.iter().map(|r| r.tx_count).collect();
        assert_eq!(sizes_a, sizes_b);
    }

    #[test]
    fn an_enabled_registry_only_observes() {
        // The same run under a disabled and an enabled registry computes the same
        // blocks, admissions, store cost and final state.
        let run = |telemetry: TelemetryRegistry| {
            let config = PipelineConfig {
                telemetry,
                ..config()
            };
            PipelineDriver::new(
                ConcurrencyAwarePacker::new(4),
                ScheduledEngine::new(4),
                config,
            )
            .run(stream(4))
            .unwrap()
        };
        let (plain, traced) = (
            run(TelemetryRegistry::disabled()),
            run(TelemetryRegistry::enabled()),
        );
        assert!(traced.telemetry.is_some() && plain.telemetry.is_none());
        let normalized = |report: &PipelineRunReport| -> Vec<crate::BlockRecord> {
            report.blocks.iter().map(|r| r.normalized()).collect()
        };
        assert_eq!(normalized(&plain), normalized(&traced));
        assert_eq!(plain.mempool_stats, traced.mempool_stats);
        let store_units = |report: &PipelineRunReport| -> u64 {
            report.blocks.iter().map(|r| r.store_units).sum()
        };
        assert_eq!(store_units(&plain), store_units(&traced));
        assert_eq!(plain.final_state_root, traced.final_state_root);
    }
}
