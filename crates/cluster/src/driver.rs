//! The cluster driver: arrival stream → cluster router → N node pipelines →
//! per-shard micro-blocks → merged final block, with the cross-shard credit
//! protocol and epoch re-homing.

use crate::router::{ClusterRouter, MemberMove};
use crate::{ClusterBlockRecord, ClusterConfig, ClusterRunReport, CrossShardReceipt};
use blockconc_account::{account_to_stored, WorldState};
use blockconc_chainsim::ArrivalStream;
use blockconc_execution::ExecutionEngine;
use blockconc_pipeline::{
    begin_block_span, effective_receiver, emit_ingest, mount_state, AdmitOutcome, ArrivalWindow,
    BlockRecord, ConcurrencyAwarePacker, MempoolStats, NodePipeline, NodeRound,
};
use blockconc_store::StoredAccount;
use blockconc_telemetry::{Count, Dist, Stage, TelemetryRegistry};
use blockconc_types::{Address, Amount, Hash, Result};
use std::collections::BTreeSet;

/// One shard's full node: exactly what `PipelineDriver` steps.
type ShardNode<E> = NodePipeline<ConcurrencyAwarePacker, E>;

/// Executes member-move orders physically: account records hand over between
/// shard partitions, pooled chains (with their graph edges) between shard pools.
/// Returns the move's cost in one-touch work units.
fn apply_moves<E: ExecutionEngine>(
    nodes: &mut [ShardNode<E>],
    moves: &[MemberMove],
    moved_accounts: &mut u64,
    moved_chains: &mut u64,
) -> u64 {
    let mut units = 0u64;
    for mv in moves {
        if let Some(stored) = nodes[mv.from].state.export_account(mv.address) {
            nodes[mv.from].state.remove_account(mv.address);
            nodes[mv.to].state.install_account(mv.address, &stored);
            *moved_accounts += 1;
            units += 1;
        }
        let chain = nodes[mv.from].pool.take_sender(mv.address);
        if !chain.is_empty() {
            *moved_chains += 1;
            units += chain.len() as u64;
            for pooled in chain {
                nodes[mv.to].pool.restore(pooled);
            }
        }
    }
    units
}

/// Credits every due receipt on its owner shard; returns how many were applied
/// and the sum of their latencies in blocks.
fn apply_receipts<E: ExecutionEngine>(
    nodes: &mut [ShardNode<E>],
    router: &ClusterRouter,
    due: Vec<CrossShardReceipt>,
    height: u64,
    receipts_in: &mut [u64],
    telemetry: &TelemetryRegistry,
) -> (u64, u64) {
    let (mut applied, mut latency) = (0u64, 0u64);
    for receipt in due {
        let dest = router
            .owner_of(receipt.to)
            .expect("cross-shard receipts only target claimed accounts");
        nodes[dest]
            .state
            .credit(receipt.to, Amount::from_sats(receipt.value_sats));
        receipts_in[dest] += 1;
        applied += 1;
        latency += height - receipt.emit_height;
        telemetry.dist(Dist::ReceiptLatencyBlocks, height - receipt.emit_height);
    }
    telemetry.count(Count::CrossShardReceipts, applied);
    (applied, latency)
}

/// Drives a cluster of node shards over one arrival stream — the cross-node
/// counterpart of `blockconc_pipeline::PipelineDriver` and
/// `blockconc_shardpool::ShardedPipelineDriver`.
///
/// Every shard is a [`NodePipeline`] — own mempool and dependency graph, own
/// packer, own engine, own partitioned state backend — stepped exactly as
/// `PipelineDriver` steps its one (see *The block step* in the pipeline crate's
/// README). Around that step, per height, the driver does what only a cluster
/// needs:
///
/// 1. at epoch boundaries it advances the epoch and re-homes live
///    components under the new epoch's canonical placement (accounts and pooled
///    chains move whole);
/// 2. it applies the previous round's in-flight [`CrossShardReceipt`] credits on
///    their owner shards;
/// 3. it routes the due arrivals through the cluster router — whole dependency
///    components to home shards, sender chains never splitting — before each
///    node admits its own;
/// 4. it produces every shard's micro-block **in parallel**;
/// 5. between each node's settle and commit it reverses every successful credit
///    to a foreign-owned account ([`WorldState::withdraw_phantom`]) and ships it
///    as a receipt — the Zilliqa-style debit/credit protocol;
/// 6. it merges the micro-blocks into the round's final block — the sum of
///    their transaction counts — recording per-phase model units.
///
/// After the last round, in-flight receipts settle in one extra commit, so the
/// reported shard roots describe a fully settled cluster.
///
/// With **one shard** every cluster-only step is a no-op, so the run *is*
/// `PipelineDriver`'s by construction — the equivalence property tests assert
/// it bit for bit (normalized records, receipts digests, roots) for every
/// engine, delta-commuting ones included.
///
/// # Examples
///
/// ```
/// use blockconc_chainsim::{AccountWorkloadParams, ArrivalStream};
/// use blockconc_cluster::{ClusterConfig, ClusterDriver};
/// use blockconc_execution::SequentialEngine;
/// use blockconc_pipeline::PipelineConfig;
///
/// let mut config = ClusterConfig::new(4);
/// config.pipeline = PipelineConfig { threads: 2, max_blocks: 4, ..PipelineConfig::default() };
/// let engines = (0..4).map(|_| SequentialEngine::new()).collect();
/// let stream = ArrivalStream::new(AccountWorkloadParams::cross_shard_light(), 6.0, 150, 9);
/// let report = ClusterDriver::new(engines, config).run(stream).unwrap();
/// assert_eq!(report.total_failed, 0);
/// assert_eq!(report.shards, 4);
/// ```
#[derive(Debug)]
pub struct ClusterDriver<E> {
    config: ClusterConfig,
    engines: Vec<E>,
    serial_order: Option<Vec<usize>>,
}

impl<E: ExecutionEngine + Send> ClusterDriver<E> {
    /// Creates a driver from one engine per shard and a cluster configuration.
    ///
    /// # Panics
    ///
    /// Panics if the engine count does not match the configured shard count, or
    /// `config.pipeline.threads` is zero.
    pub fn new(engines: Vec<E>, config: ClusterConfig) -> Self {
        assert_eq!(
            engines.len(),
            config.shards(),
            "one engine per node shard required"
        );
        assert!(config.pipeline.threads > 0, "thread count must be positive");
        ClusterDriver {
            config,
            engines,
            serial_order: None,
        }
    }

    /// Runs the per-shard pack+execute phase serially in the given shard order
    /// instead of on scoped threads (builder-style). Shards touch disjoint
    /// partitions, so every order — and the parallel default — must produce the
    /// identical run; the interleaving-independence property tests drive this
    /// hook with random permutations.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the shard indices.
    pub fn with_serial_shard_order(mut self, order: Vec<usize>) -> Self {
        let mut seen: Vec<usize> = order.clone();
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..self.config.shards()).collect::<Vec<_>>(),
            "order must be a permutation of the shard indices"
        );
        self.serial_order = Some(order);
        self
    }

    /// The driver's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Runs the cluster over `stream` until `max_blocks` final blocks have been
    /// produced or the stream, every pool and the receipt queue are exhausted.
    ///
    /// # Errors
    ///
    /// Propagates engine-level execution failures and state-backend I/O errors;
    /// per-transaction failures are recorded in the micro-block records instead.
    pub fn run(self, stream: ArrivalStream) -> Result<ClusterRunReport> {
        let shards = self.config.shards();
        let pipeline = self.config.pipeline.clone();
        let telemetry = pipeline.telemetry.clone();
        let mut router = ClusterRouter::new(shards);
        // The placement epoch: every rotation advances it by one from 0.
        let mut rotations = 0u64;
        let mut blocks_in_epoch = 0u64;

        // Partition the base state by canonical address home and build the
        // nodes: each shard's world state holds exactly its partition, committed
        // as that shard's genesis into its own backend.
        let engine_name = self
            .engines
            .first()
            .map(|engine| engine.name().to_string())
            .unwrap_or_default();
        let mut partitions: Vec<Vec<(Address, StoredAccount)>> =
            (0..shards).map(|_| Vec::new()).collect();
        for (address, account) in stream.base_state().iter() {
            let home = router.claim_base(*address, account.is_contract());
            partitions[home].push((*address, account_to_stored(account)));
        }
        let mut nodes: Vec<ShardNode<E>> = Vec::with_capacity(shards);
        for (index, engine) in self.engines.into_iter().enumerate() {
            let mut partition = std::mem::take(&mut partitions[index]);
            partition.sort_by_key(|(address, _)| *address);
            let mut state = WorldState::new();
            for (address, stored) in &partition {
                state.install_account(*address, stored);
            }
            let state = mount_state(state, &pipeline.state_backend.partition(index))?;
            let packer = ConcurrencyAwarePacker::new(pipeline.threads);
            nodes.push(NodePipeline::new(packer, engine, state, &pipeline));
        }

        let mut window = ArrivalWindow::new(stream, &pipeline);
        let mut pending: Vec<CrossShardReceipt> = Vec::new();
        let mut records: Vec<ClusterBlockRecord> = Vec::with_capacity(pipeline.max_blocks);
        let mut applied_total = 0u64;
        let mut latency_total = 0u64;
        let mut moved_accounts = 0u64;
        let mut moved_chains = 0u64;
        let mut last_height = 0u64;

        for height in 1..=pipeline.max_blocks as u64 {
            for node in &mut nodes {
                node.begin_block(height)?;
            }
            // Receipt-carried credits each shard applies this height.
            let mut receipts_in = vec![0u64; shards];
            last_height = height;
            let mut rehome_units = 0u64;
            let mut rehome_wall = 0u64;
            let moved_accounts_before = moved_accounts;
            let block_span = begin_block_span(&telemetry, height);

            // Epoch rotation: re-home live components under the new
            // epoch's canonical placement.
            if self.config.blocks_per_epoch > 0 && blocks_in_epoch >= self.config.blocks_per_epoch {
                rotations += 1;
                blocks_in_epoch = 0;
                let moves = router.rotate(rotations);
                let rehome_started = telemetry.now_nanos();
                rehome_units +=
                    apply_moves(&mut nodes, &moves, &mut moved_accounts, &mut moved_chains);
                rehome_wall = telemetry.now_nanos().saturating_sub(rehome_started);
                telemetry.record_span(
                    "rehome",
                    block_span,
                    rehome_started,
                    rehome_started + rehome_wall,
                    rehome_units,
                    &[("epoch", rotations)],
                );
            }

            // Apply the previous round's in-flight credits on their owner shards
            // (inside the open block, so they join that shard's write-set delta).
            // Totals accrue at application time: the exhaustion break below
            // commits these credits without pushing a block record, and they
            // must still be accounted for.
            let (applied_this, latency_this) = apply_receipts(
                &mut nodes,
                &router,
                std::mem::take(&mut pending),
                height,
                &mut receipts_in,
                &telemetry,
            );
            applied_total += applied_this;
            latency_total += latency_this;

            // Route every due arrival to its home node, which admits it.
            let ingest_started = telemetry.now_nanos();
            while let Some(arrival) = window.next_due(height) {
                // Routing is monotone, like the shardpool router: an edge once
                // seen is never forgotten, even if admission then rejects the
                // transaction — forgetting it could let two conflicting
                // transactions drift onto different shards later. Contract
                // registration, by contrast, is gated on admission below: a
                // rejected create deploys nothing, so transfers to its target
                // must keep using the credit protocol.
                let decision = router.route(&arrival.tx);
                rehome_units += apply_moves(
                    &mut nodes,
                    &decision.moves,
                    &mut moved_accounts,
                    &mut moved_chains,
                );
                let sender = arrival.tx.sender();
                let node = &mut nodes[decision.shard];
                window.fund_on_first_sight(sender, &mut node.state);
                let effects = node.admit(&arrival);
                match effects.outcome {
                    AdmitOutcome::Admitted => {
                        router.note_admitted(sender);
                        if let Some(evicted) = &effects.evicted {
                            router.note_removed(evicted.tx.sender(), 1);
                        }
                    }
                    AdmitOutcome::Replaced => {}
                    _ => continue,
                }
                if arrival.tx.is_contract_creation() {
                    router.register_contract(effective_receiver(&arrival.tx));
                }
            }
            let ingest_wall = telemetry.now_nanos().saturating_sub(ingest_started);
            let ingest_units = nodes
                .iter()
                .zip(&receipts_in)
                .map(|(node, credits)| node.ingested() as u64 + credits)
                .max()
                .unwrap_or(0);
            for node in &nodes {
                node.emit_admissions();
            }
            emit_ingest(
                &telemetry,
                block_span,
                ingest_started,
                ingest_wall,
                ingest_units,
                &[],
            );

            if nodes.iter().all(|node| node.pool.pool().is_empty()) && window.is_exhausted() {
                // Flush funding (and any just-applied credits) before stopping.
                for node in &mut nodes {
                    node.state.commit_block()?;
                }
                telemetry.end_span(block_span, 0);
                break;
            }

            // Parallel micro-block production: every shard packs and executes on
            // its own state. The serial-order hook exists so the equivalence
            // tests can prove any interleaving yields the identical run.
            let template = window.template(height);
            let rounds: Vec<NodeRound> = match &self.serial_order {
                Some(order) => {
                    let mut slots: Vec<Option<NodeRound>> = (0..shards).map(|_| None).collect();
                    for &index in order {
                        slots[index] = Some(nodes[index].produce(&template)?);
                    }
                    slots
                        .into_iter()
                        .map(|slot| slot.expect("every shard produced"))
                        .collect()
                }
                None => {
                    let template = &template;
                    let results: Vec<Result<NodeRound>> = std::thread::scope(|scope| {
                        let handles: Vec<_> = nodes
                            .iter_mut()
                            .map(|node| scope.spawn(move || node.produce(template)))
                            .collect();
                        handles
                            .into_iter()
                            .map(|handle| handle.join().expect("shard producer panicked"))
                            .collect()
                    });
                    results.into_iter().collect::<Result<Vec<_>>>()?
                }
            };

            // Serial tail, shard by shard in index order: each node settles its
            // pool, foreign credits convert into receipts (the debit half of the
            // protocol), and the node commits.
            let settle_started = telemetry.now_nanos();
            let mut cross_txs_this = 0u64;
            let mut hops_this = 0u64;
            let mut micro: Vec<BlockRecord> = Vec::with_capacity(shards);
            let mut bytes_total = 0u64;
            for (index, round) in rounds.into_iter().enumerate() {
                let node = &mut nodes[index];
                for departed in node.settle(&round) {
                    router.note_removed(departed.tx.sender(), 1);
                }

                for (tx, receipt) in round.executed.iter() {
                    if !receipt.succeeded() {
                        continue;
                    }
                    let mut ship = |to: Address, value: Amount| -> Result<()> {
                        node.state.withdraw_phantom(to, value)?;
                        pending.push(CrossShardReceipt {
                            to,
                            value_sats: value.sats(),
                            source_shard: index as u32,
                            emit_height: height,
                        });
                        hops_this += 1;
                        Ok(())
                    };
                    // Top-level cross-shard settlement: the executed transfer
                    // credited a locally materialized phantom of a foreign-owned
                    // account; reverse it and ship the credit.
                    let receiver = effective_receiver(tx);
                    if !tx.is_contract_creation()
                        && router
                            .owner_of(receiver)
                            .is_some_and(|owner| owner != index)
                    {
                        ship(receiver, tx.value())?;
                        cross_txs_this += 1;
                    }
                    // Internal transactions (contract payouts) can also pay
                    // foreign-owned accounts — each such credit is a hop of its
                    // own. Fresh internal receivers are claimed where execution
                    // created them.
                    for internal in receipt.internal_transactions() {
                        let to = internal.to();
                        match router.owner_of(to) {
                            None => router.claim_created(to, index),
                            Some(owner) if owner != index => ship(to, internal.value())?,
                            _ => {}
                        }
                    }
                }

                let (record, commit) = node.commit(&round, None)?;
                bytes_total += commit.bytes;
                telemetry.record_span(
                    "shard",
                    block_span,
                    round.started_nanos,
                    round.started_nanos + round.pack_wall_nanos + round.execute_wall_nanos,
                    record.pack_considered + record.measured_parallel_units,
                    &[("shard", index as u64), ("txs", record.tx_count as u64)],
                );
                micro.push(record);
            }

            // One stage sample per height: shards pack and execute side by
            // side, so those take the slowest shard; the serial commits add up.
            let slowest = |f: fn(&BlockRecord) -> u64| micro.iter().map(f).max().unwrap_or(0);
            let total = |f: fn(&BlockRecord) -> u64| micro.iter().map(f).sum::<u64>();
            let pack_units = slowest(|r| r.pack_considered);
            let execute_units = slowest(|r| r.measured_parallel_units);
            let store_units = total(|r| r.store_units);
            telemetry.record_span(
                "settle",
                block_span,
                settle_started,
                telemetry.now_nanos(),
                store_units,
                &[("bytes", bytes_total)],
            );

            // The DS merge: the round's final block is the union of its
            // micro-blocks, so its transaction count is theirs summed.
            let merge_started = telemetry.now_nanos();
            let tx_count: usize = micro.iter().map(|record| record.tx_count).sum();
            let merge_wall = telemetry.now_nanos().saturating_sub(merge_started);
            blocks_in_epoch += 1;

            let merge_units = shards as u64;
            // The critical path takes the slowest *single shard's* whole round
            // (phases of one shard do not overlap), not the max of each phase.
            let critical_units = micro
                .iter()
                .zip(&receipts_in)
                .map(|(record, credits)| {
                    record.ingested as u64
                        + credits
                        + record.pack_considered
                        + record.measured_parallel_units
                })
                .max()
                .unwrap_or(0)
                + merge_units
                + rehome_units;

            telemetry.stage(Stage::Pack, slowest(|r| r.pack_wall_nanos), pack_units);
            telemetry.stage(
                Stage::Execute,
                slowest(|r| r.execute_wall_nanos),
                execute_units,
            );
            telemetry.stage(Stage::Store, total(|r| r.store_wall_nanos), store_units);
            telemetry.stage(Stage::Merge, merge_wall, merge_units);
            telemetry.stage(Stage::Rehome, rehome_wall, rehome_units);
            telemetry.count(
                Count::RehomedAccounts,
                moved_accounts - moved_accounts_before,
            );
            telemetry.dist(Dist::BlockTxs, tx_count as u64);
            telemetry.record_span(
                "merge",
                block_span,
                merge_started,
                merge_started + merge_wall,
                merge_units,
                &[("txs", tx_count as u64)],
            );
            telemetry.end_span(block_span, critical_units);

            records.push(ClusterBlockRecord {
                height,
                micro,
                tx_count,
                cross_shard_txs: cross_txs_this,
                cross_shard_hops: hops_this,
                receipts_applied: applied_this,
                receipt_latency_blocks: latency_this,
                ingest_units,
                pack_units,
                execute_units,
                merge_units,
                rehome_units,
                critical_units,
            });
        }

        // Final settlement: in-flight credits from the last round commit in one
        // extra block on their owner shards, so the reported roots describe a
        // fully settled cluster (value conservation restored).
        if !pending.is_empty() {
            let settle_height = last_height + 1;
            let due = std::mem::take(&mut pending);
            let involved: BTreeSet<usize> = due
                .iter()
                .map(|receipt| {
                    router
                        .owner_of(receipt.to)
                        .expect("cross-shard receipts only target claimed accounts")
                })
                .collect();
            for &shard in &involved {
                nodes[shard].state.begin_block(settle_height)?;
            }
            let (applied, latency) = apply_receipts(
                &mut nodes,
                &router,
                due,
                settle_height,
                &mut vec![0; shards],
                &telemetry,
            );
            applied_total += applied;
            latency_total += latency;
            for &shard in &involved {
                nodes[shard].state.commit_block()?;
            }
        }

        let shard_roots: Vec<Hash> = nodes.iter().map(|node| node.state.state_root()).collect();
        let mut root_bytes = Vec::with_capacity(shard_roots.len() * 32);
        for root in &shard_roots {
            root_bytes.extend_from_slice(root.as_bytes());
        }
        let cluster_root = Hash::of_bytes(&root_bytes);
        let mut mempool_stats = MempoolStats::default();
        for node in &nodes {
            mempool_stats.merge(&node.pool.pool().stats());
        }

        Ok(ClusterRunReport {
            shards,
            threads: pipeline.threads,
            engine: engine_name,
            total_txs: records.iter().map(|r| r.tx_count).sum(),
            total_failed: records
                .iter()
                .flat_map(|r| &r.micro)
                .map(|micro| micro.failed_receipts)
                .sum(),
            cross_shard_txs: records.iter().map(|r| r.cross_shard_txs).sum(),
            cross_shard_hops: records.iter().map(|r| r.cross_shard_hops).sum(),
            blocks: records,
            receipts_applied: applied_total,
            receipt_latency_blocks: latency_total,
            rehomed_components: router.rehomed_components,
            moved_accounts,
            moved_chains,
            rotations,
            per_shard_leftover: nodes.iter().map(|node| node.pool.pool().len()).collect(),
            total_supply_sats: nodes
                .iter()
                .map(|node| node.state.total_supply().sats())
                .sum(),
            mempool_stats,
            shard_roots: shard_roots.iter().map(|root| root.to_hex()).collect(),
            cluster_root: cluster_root.to_hex(),
            telemetry: telemetry.snapshot(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockconc_chainsim::{AccountWorkloadParams, HotspotSpec};
    use blockconc_execution::{ScheduledEngine, SequentialEngine};
    use blockconc_pipeline::{BlockRecord, PipelineConfig, PipelineDriver};
    use blockconc_telemetry::TelemetryRegistry;

    fn heavy_stream(seed: u64) -> ArrivalStream {
        ArrivalStream::new(AccountWorkloadParams::cross_shard_heavy(), 8.0, 400, seed)
    }

    fn config(shards: u32, max_blocks: usize) -> ClusterConfig {
        let mut config = ClusterConfig::new(shards);
        config.pipeline = PipelineConfig {
            threads: 2,
            max_blocks,
            ..PipelineConfig::default()
        };
        config
    }

    fn engines(shards: usize) -> Vec<SequentialEngine> {
        (0..shards).map(|_| SequentialEngine::new()).collect()
    }

    #[test]
    fn cluster_executes_cleanly_and_settles_every_receipt() {
        let report = ClusterDriver::new(engines(4), config(4, 8))
            .run(heavy_stream(1))
            .unwrap();
        assert!(report.total_txs > 100, "only {}", report.total_txs);
        assert_eq!(report.total_failed, 0);
        assert!(
            report.cross_shard_txs > 0,
            "heavy profile must cross shards"
        );
        assert_eq!(
            report.receipts_applied, report.cross_shard_hops,
            "every shipped credit must be applied"
        );
        assert!(report.mean_receipt_latency() >= 1.0);
        // Pool conservation, exactly like the single pipeline.
        let stats = &report.mempool_stats;
        assert_eq!(
            stats.admitted - stats.evicted - stats.dropped_unpackable,
            stats.packed + report.leftover_mempool() as u64
        );
    }

    /// One cell of the protocol-health grid: a backlogged stream (9 000 arrivals
    /// at 42/s, 14 blocks, one placement rotation mid-run) whose `heaviness`
    /// interpolates from fresh-receiver-dominated traffic (0) to four popular
    /// exchange wallets taking every third transaction (1). No receipt may fail,
    /// every shipped credit must be applied, none faster than the one-block
    /// protocol latency. Returns the measured cross-shard fraction.
    fn healthy_cross_shard_fraction(shards: u32, heaviness: f64) -> f64 {
        let exchanges = 0.05 + 0.31 * heaviness;
        let params = AccountWorkloadParams {
            fresh_receiver_share: 0.85 - 0.70 * heaviness,
            hotspots: [0.34, 0.28, 0.22, 0.16]
                .map(|part| HotspotSpec::exchange(exchanges * part))
                .to_vec(),
            contract_create_share: 0.0,
            ..AccountWorkloadParams::cross_shard_light()
        };
        let mut config = config(shards, 14);
        config.pipeline.threads = 8;
        config.pipeline.max_deferral_blocks = 2;
        config.blocks_per_epoch = 7;
        let report = ClusterDriver::new(engines(shards as usize), config)
            .run(ArrivalStream::new(params, 42.0, 9_000, 2020))
            .unwrap();
        let cell = format!("{shards} shards @ heaviness {heaviness}");
        assert_eq!(report.total_failed, 0, "{cell}");
        assert_eq!(report.receipts_applied, report.cross_shard_hops, "{cell}");
        assert!(
            report.cross_shard_hops == 0 || report.mean_receipt_latency() >= 1.0,
            "{cell}: {} blocks mean latency",
            report.mean_receipt_latency()
        );
        report.cross_shard_fraction()
    }

    #[test]
    fn protocol_stays_healthy_across_shard_counts() {
        for shards in [1, 2, 4] {
            healthy_cross_shard_fraction(shards, 0.0);
        }
        let widest = healthy_cross_shard_fraction(8, 0.0);
        assert!(widest < 0.15, "the light profile crossed shards {widest}");
    }

    #[test]
    fn protocol_stays_healthy_as_cross_shard_pressure_grows() {
        let fractions = [0.0, 0.25, 0.5, 0.75, 1.0].map(|h| healthy_cross_shard_fraction(8, h));
        assert!(
            fractions[4] > fractions[0] + 0.05,
            "the heaviness knob must move the measured fraction: {fractions:?}"
        );
    }

    #[test]
    fn cross_shard_value_is_conserved_across_layouts() {
        let one = ClusterDriver::new(engines(1), config(1, 8))
            .run(heavy_stream(2))
            .unwrap();
        let four = ClusterDriver::new(engines(4), config(4, 8))
            .run(heavy_stream(2))
            .unwrap();
        assert_eq!(one.cross_shard_txs, 0, "one shard has no foreign accounts");
        assert!(four.cross_shard_txs > 0);
        assert_eq!(
            one.total_supply_sats, four.total_supply_sats,
            "in-flight value must fully settle"
        );
    }

    #[test]
    fn one_shard_cluster_matches_the_single_pipeline() {
        let cluster = ClusterDriver::new(engines(1), config(1, 8))
            .run(heavy_stream(3))
            .unwrap();
        let single = PipelineDriver::new(
            ConcurrencyAwarePacker::new(2),
            SequentialEngine::new(),
            config(1, 8).pipeline,
        )
        .run(heavy_stream(3))
        .unwrap();
        assert_eq!(cluster.total_txs, single.total_txs);
        assert_eq!(cluster.leftover_mempool(), single.leftover_mempool);
        assert_eq!(cluster.blocks.len(), single.blocks.len());
        for (cluster_block, single_block) in cluster.blocks.iter().zip(&single.blocks) {
            assert_eq!(
                cluster_block.micro[0].normalized(),
                single_block.normalized(),
                "height {} diverged",
                single_block.height
            );
        }
        assert_eq!(cluster.shard_roots[0], single.final_state_root);
        assert_eq!(cluster.mempool_stats, single.mempool_stats);
    }

    #[test]
    fn one_shard_cluster_and_pipeline_report_equal_counters() {
        // One emission family serves both drivers, so on the same stream every
        // counter both report must agree — on a mock clock, so nothing about
        // the comparison depends on the host. A single-worker optimistic
        // engine on a fee-escalating hot-spot stream through a small pool
        // makes the admission, engine and delta counters all non-zero and
        // deterministic (blocks hold half of what arrives, so entries wait,
        // re-bid and evict).
        use blockconc_chainsim::FeeEscalationSpec;
        use blockconc_execution::OptimisticEngine;
        use blockconc_telemetry::MockClock;
        let params = AccountWorkloadParams {
            txs_per_block: 60.0,
            user_population: 3_000,
            fresh_receiver_share: 0.5,
            zipf_exponent: 0.5,
            hotspots: vec![HotspotSpec::exchange(0.45), HotspotSpec::contract(0.2, 2)],
            contract_create_share: 0.01,
        };
        let stream = || {
            ArrivalStream::new(params.clone(), 6.0, 700, 12)
                .with_fee_escalation(FeeEscalationSpec::standard(14.0))
        };
        let traced = || {
            let mut config = config(1, 8);
            config.pipeline.mempool_capacity = 150;
            config.pipeline.block_gas_limit = blockconc_types::Gas::new(21_000 * 40);
            config.pipeline.telemetry = TelemetryRegistry::enabled_with(MockClock::shared(10), 64);
            config
        };
        let engine = || OptimisticEngine::new(1);
        let single =
            PipelineDriver::new(ConcurrencyAwarePacker::new(2), engine(), traced().pipeline)
                .run(stream())
                .unwrap()
                .telemetry
                .expect("registry enabled");
        let cluster = ClusterDriver::new(vec![engine()], traced())
            .run(stream())
            .unwrap()
            .telemetry
            .expect("registry enabled");

        for name in [
            "mempool_admitted",
            "mempool_replaced",
            "mempool_evicted",
            "mempool_rejected",
            "tdg_ops",
            "engine_validations",
            "delta_merges",
        ] {
            assert!(single.counter(name) > 0, "{name} must be exercised");
        }
        for counter in &single.counters {
            assert_eq!(
                cluster.counter(&counter.name),
                counter.value,
                "{} diverged",
                counter.name
            );
        }
        for counter in &cluster.counters {
            assert_eq!(
                single.counter(&counter.name),
                counter.value,
                "{} is cluster-only at one shard",
                counter.name
            );
        }
    }

    #[test]
    fn shard_execution_interleaving_does_not_change_the_run() {
        let parallel = ClusterDriver::new(engines(4), config(4, 6))
            .run(heavy_stream(4))
            .unwrap();
        for order in [vec![3, 1, 0, 2], vec![2, 3, 1, 0]] {
            let serial = ClusterDriver::new(engines(4), config(4, 6))
                .with_serial_shard_order(order.clone())
                .run(heavy_stream(4))
                .unwrap();
            assert_eq!(
                serial.cluster_root, parallel.cluster_root,
                "order {order:?}"
            );
            assert_eq!(serial.shard_roots, parallel.shard_roots);
            assert_eq!(serial.total_txs, parallel.total_txs);
            let normalize = |report: &ClusterRunReport| -> Vec<Vec<BlockRecord>> {
                report
                    .blocks
                    .iter()
                    .map(|b| b.micro.iter().map(BlockRecord::normalized).collect())
                    .collect()
            };
            assert_eq!(normalize(&serial), normalize(&parallel));
        }
    }

    #[test]
    fn epoch_rotation_rehomes_components_and_stays_clean() {
        let mut config = config(4, 9);
        config.blocks_per_epoch = 2;
        let stream = ArrivalStream::new(AccountWorkloadParams::cross_shard_heavy(), 8.0, 800, 5);
        let report = ClusterDriver::new(engines(4), config).run(stream).unwrap();
        assert!(report.rotations >= 2, "rotations: {}", report.rotations);
        assert!(
            report.moved_accounts > 0,
            "rotation must hand accounts over"
        );
        assert_eq!(report.total_failed, 0);
        assert_eq!(report.receipts_applied, report.cross_shard_hops);
    }

    #[test]
    fn scheduled_engines_match_sequential_results() {
        let sequential = ClusterDriver::new(engines(4), config(4, 6))
            .run(heavy_stream(6))
            .unwrap();
        let scheduled_engines: Vec<ScheduledEngine> =
            (0..4).map(|_| ScheduledEngine::new(2)).collect();
        let scheduled = ClusterDriver::new(scheduled_engines, config(4, 6))
            .run(heavy_stream(6))
            .unwrap();
        assert_eq!(scheduled.cluster_root, sequential.cluster_root);
        assert_eq!(scheduled.total_txs, sequential.total_txs);
        assert_eq!(scheduled.total_failed + sequential.total_failed, 0);
    }
}
