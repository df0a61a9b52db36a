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
    /// Mempool shards, keyed by TDG component (the sharded-pipeline switch; `1`
    /// reproduces the single-pool pipeline). Only honoured by drivers that understand
    /// sharding — `blockconc-shardpool`'s `ShardedPipelineDriver` — and ignored by
    /// [`PipelineDriver`], which always runs one pool.
    pub shards: usize,
    /// Vestigial and read by nothing: admission runs in order on one thread in
    /// every layout. Kept until the benchmark that sets it is updated.
    pub producer_threads: usize,
    /// Which state backend the driver mounts under its `WorldState`: the
    /// in-memory journal that only counts (default, bit-identical to a state
    /// without a backend) or the journaled disk store
    /// (`StateBackendConfig::Disk`), which makes every block commit durable.
    /// The state stays wholly resident either way.
    pub state_backend: StateBackendConfig,
    /// Observability handle and the one home of the run's clock readings.
    /// Disabled by default (a disabled registry is a single branch per record
    /// call, and an enabled one only observes: see
    /// `an_enabled_registry_only_observes`); drivers take every wall-clock
    /// reading on its [`Clock`](blockconc_telemetry::Clock), and the run
    /// report's records hold counts only.
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
            shards: 1,
            producer_threads: 1,
            state_backend: StateBackendConfig::InMemory,
            telemetry: TelemetryRegistry::default(),
        }
    }
}

/// Drives one packer and one engine over an arrival stream, producing blocks on a
/// fixed interval and reporting what each block packed, executed and committed.
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
        // A model claim about the blocks each packer builds, on a stream where
        // one exchange takes 40% of the traffic: the scheduled engine's group
        // conflict rate l, weighted by block size, and Equation 2's bound
        // min(n, 1/l) on it at 8 threads.
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
        let config = PipelineConfig {
            threads: 8,
            max_blocks: 16,
            ..PipelineConfig::default()
        };
        fn run<P: BlockPacker>(
            packer: P,
            params: &AccountWorkloadParams,
            config: &PipelineConfig,
        ) -> PipelineRunReport {
            PipelineDriver::new(packer, ScheduledEngine::new(8), config.clone())
                .run(ArrivalStream::new(params.clone(), 16.0, 3_600, 2020))
                .unwrap()
        }
        let greedy = run(FeeGreedyPacker::new(), &params, &config);
        let aware = run(ConcurrencyAwarePacker::new(8), &params, &config);
        assert_eq!(greedy.total_failed + aware.total_failed, 0);
        let (greedy_l, aware_l) = (
            greedy.mean_group_conflict_rate(),
            aware.mean_group_conflict_rate(),
        );
        let bound = |l: f64| blockconc_model::group_speedup(l, 8);
        println!(
            "l: fee-greedy {greedy_l:.3} (Eq. 2 bound {:.2}x), concurrency-aware {aware_l:.3} \
             (Eq. 2 bound {:.2}x)",
            bound(greedy_l),
            bound(aware_l)
        );
        assert!(
            bound(aware_l) >= bound(greedy_l) * 1.5,
            "aware l {aware_l} vs greedy l {greedy_l}"
        );
    }

    #[test]
    fn packed_largest_group_tracks_the_engines_largest_group() {
        // The block step by hand, so each packed block is in view: its static
        // block-local grouping can miss internal-transaction edges, so its
        // largest group may under-estimate the scheduled engine's, but by no
        // more than a factor of two on this workload (they are equal today).
        let config = config();
        let mut window = ArrivalWindow::new(stream(3), &config);
        let state = mount_state(stream(3).base_state().clone(), &config.state_backend).unwrap();
        let mut node = NodePipeline::new(
            ConcurrencyAwarePacker::new(4),
            ScheduledEngine::new(4),
            state,
            &config,
        );
        let mut checked = 0;
        for height in 1..=config.max_blocks as u64 {
            node.begin_block(height).unwrap();
            while let Some(arrival) = window.next_due(height) {
                window.fund_on_first_sight(arrival.tx.sender(), &mut node.state);
                node.admit(&arrival);
            }
            let round = node.produce(&window.template(height)).unwrap();
            node.settle(&round);
            node.commit(&round, None).unwrap();
            let packed = crate::block_group_sizes(round.packed.block.transactions())
                .into_iter()
                .max()
                .unwrap_or(0) as f64;
            let engine = round.exec_report.largest_group as f64;
            if engine == 0.0 {
                continue;
            }
            checked += 1;
            assert!(
                (1.0..=2.0).contains(&(engine / packed)),
                "block {height}: packed largest group {packed} vs engine {engine}"
            );
        }
        assert!(checked > 0, "no block was packed");
    }

    #[test]
    fn capped_components_drain_once_arrivals_stop() {
        // One dominant exchange at a rate far above block capacity: the giant
        // component's serial work exceeds threads × capacity, so the cap defers
        // most of it every block while arrivals last. Once they stop, the other
        // components empty, the cap search widens the cap, and the run must end
        // on exhaustion with every arrival committed.
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
            max_blocks: 200,
            block_gas_limit: blockconc_types::Gas::new(21_000 * 40),
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
        assert!(deferred > 0, "workload must exercise the component cap");
        assert_eq!(report.total_failed, 0);
        assert_eq!(report.leftover_mempool, 0, "capped components must drain");
        assert_eq!(report.total_txs, 900);
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
        // The same run under a disabled and an enabled registry, both on the wall
        // clock, computes the same blocks, admissions, store counters and final
        // state: block records hold counts only, so they compare whole.
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
        assert_eq!(plain.blocks, traced.blocks);
        assert_eq!(plain.mempool_stats, traced.mempool_stats);
        assert_eq!(plain.store, traced.store);
        assert_eq!(plain.final_state_root, traced.final_state_root);
    }
}
