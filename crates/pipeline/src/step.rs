//! The block step every driver layout runs: admit, keep the dependency graph
//! current, pack, execute, settle, commit — and the one telemetry family that
//! describes it. See the crate README, section *The block step*.

use crate::{
    receipts_digest, AdmitEffects, BlockPacker, BlockRecord, BlockTemplate, MempoolStats,
    PackedBlock, PipelineConfig, PooledTx, TrackedPool,
};
use blockconc_account::{ExecutedBlock, WorldState};
use blockconc_chainsim::{ArrivalStream, TxArrival};
use blockconc_execution::{ExecutionEngine, ExecutionReport};
use blockconc_store::{CommitStats, StateBackendConfig};
use blockconc_telemetry::{Count, Dist, SpanId, Stage, TelemetryRegistry};
use blockconc_types::{Address, Amount, Gas, Result};
use std::collections::HashSet;

/// Mounts the configured backend under `state`: the state becomes the genesis
/// commit (height 0) and every produced block commits its write-set delta.
///
/// # Errors
///
/// Propagates backend construction and attachment (I/O) errors.
pub fn mount_state(mut state: WorldState, backend: &StateBackendConfig) -> Result<WorldState> {
    state.attach_backend(backend.build()?, backend.working_set_cap())?;
    Ok(state)
}

/// The arrival side of a run, shared by every driver: the stream with its
/// one-arrival lookahead, the block deadlines of the simulated clock, first-sight
/// sender funding and the exhaustion test.
#[derive(Debug)]
pub struct ArrivalWindow {
    stream: ArrivalStream,
    lookahead: Option<TxArrival>,
    funded: HashSet<Address>,
    block_interval_secs: f64,
    block_gas_limit: Gas,
}

impl ArrivalWindow {
    /// Wraps `stream` under the block interval and gas limit of `config`.
    pub fn new(stream: ArrivalStream, config: &PipelineConfig) -> Self {
        ArrivalWindow {
            stream,
            lookahead: None,
            funded: HashSet::new(),
            block_interval_secs: config.block_interval_secs,
            block_gas_limit: config.block_gas_limit,
        }
    }

    fn deadline(&self, height: u64) -> f64 {
        height as f64 * self.block_interval_secs
    }

    /// The next arrival due before block `height`'s deadline, if any.
    pub fn next_due(&mut self, height: u64) -> Option<TxArrival> {
        let arrival = self.lookahead.take().or_else(|| self.stream.next())?;
        if arrival.arrival_secs > self.deadline(height) {
            self.lookahead = Some(arrival);
            return None;
        }
        Some(arrival)
    }

    /// Mirrors the generator's lazy funding: credits `sender` in `state` the
    /// first time the run sees it, so its transactions are executable.
    pub fn fund_on_first_sight(&mut self, sender: Address, state: &mut WorldState) {
        if self.funded.insert(sender) {
            state.credit(
                sender,
                Amount::from_coins(ArrivalStream::SENDER_FUNDING_COINS),
            );
        }
    }

    /// Whether every arrival has been handed out.
    pub fn is_exhausted(&self) -> bool {
        self.lookahead.is_none() && self.stream.remaining() == 0
    }

    /// The header every layout stamps on block `height`. The beneficiary is a
    /// header field only — fees are abstract bids, never credited.
    pub fn template(&self, height: u64) -> BlockTemplate {
        BlockTemplate {
            height,
            timestamp: 1_600_000_000 + self.deadline(height) as u64,
            beneficiary: Address::from_low(999_999_998),
            gas_limit: self.block_gas_limit,
        }
    }
}

/// What one node packed and executed for one height, timed on the run's clock.
#[derive(Debug)]
pub struct NodeRound {
    /// The packer's proposal.
    pub packed: PackedBlock,
    /// The executed block with its receipts.
    pub executed: ExecutedBlock,
    /// The engine's measurements.
    pub exec_report: ExecutionReport,
    /// Clock reading when packing started; execution starts where packing ends.
    pub started_nanos: u64,
    /// Wall nanoseconds spent packing.
    pub pack_wall_nanos: u64,
    /// Wall nanoseconds spent executing.
    pub execute_wall_nanos: u64,
}

impl NodeRound {
    /// Packs with `pack`, executes the proposal on `engine` against `state`, and
    /// times both phases on `telemetry`'s clock.
    ///
    /// # Errors
    ///
    /// Propagates engine-level failures (worker panics).
    pub fn produce<E: ExecutionEngine>(
        telemetry: &TelemetryRegistry,
        engine: &mut E,
        state: &mut WorldState,
        pack: impl FnOnce(&WorldState) -> PackedBlock,
    ) -> Result<NodeRound> {
        let started_nanos = telemetry.now_nanos();
        let packed = pack(state);
        let pack_done = telemetry.now_nanos();
        let (executed, exec_report) = engine.execute(state, &packed.block)?;
        let execute_done = telemetry.now_nanos();
        Ok(NodeRound {
            packed,
            executed,
            exec_report,
            started_nanos,
            pack_wall_nanos: pack_done.saturating_sub(started_nanos),
            execute_wall_nanos: execute_done.saturating_sub(pack_done),
        })
    }
}

/// The commit → telemetry → [`BlockRecord`] tail of the block step, with the
/// watermarks that turn cumulative counters (graph op units, backend flushes and
/// compactions) into per-block deltas.
#[derive(Debug)]
pub struct BlockTail {
    telemetry: TelemetryRegistry,
    threads: usize,
    tdg_units_seen: u64,
    flushes_seen: u64,
    compactions_seen: u64,
}

impl BlockTail {
    /// A tail for a node configured by `config`.
    pub fn new(config: &PipelineConfig) -> Self {
        BlockTail {
            telemetry: config.telemetry.clone(),
            threads: config.threads,
            tdg_units_seen: 0,
            flushes_seen: 0,
            compactions_seen: 0,
        }
    }

    /// Commits the open block of `state` to its backend, emits the block's
    /// engine, graph and store counters, and builds its record. `ingested`,
    /// `mempool_len_after` and the graph's cumulative `tdg_op_units` describe the
    /// pool `round` was packed from, after it was settled.
    ///
    /// `block_span` is `Some` when this block is the whole height (the
    /// single-node layouts): the pack/execute/store stage samples and child spans
    /// are then recorded under it and it is closed. A cluster shard passes `None`
    /// and its driver records one stage sample per height from the slowest shard.
    ///
    /// # Errors
    ///
    /// Propagates state-backend I/O errors.
    pub fn commit(
        &mut self,
        state: &mut WorldState,
        round: &NodeRound,
        ingested: usize,
        mempool_len_after: usize,
        tdg_op_units: u64,
        block_span: Option<SpanId>,
    ) -> Result<(BlockRecord, CommitStats)> {
        let telemetry = &self.telemetry;
        let store_started = telemetry.now_nanos();
        let commit = state.commit_block()?;
        let store_wall_nanos = telemetry.now_nanos().saturating_sub(store_started);

        let NodeRound {
            packed,
            executed,
            exec_report,
            ..
        } = round;
        let tdg_units = tdg_op_units - self.tdg_units_seen;
        self.tdg_units_seen = tdg_op_units;
        let record = BlockRecord {
            height: packed.block.height().value(),
            ingested,
            tx_count: packed.block.transaction_count(),
            deferred_by_cap: packed.deferred_by_cap,
            aged_included: packed.aged_included,
            failed_receipts: executed
                .receipts()
                .iter()
                .filter(|r| !r.succeeded())
                .count(),
            estimated_gas: packed.estimated_gas.value(),
            gas_used: executed.gas_used().value(),
            total_fee_per_gas: packed.total_fee_per_gas,
            predicted_makespan: packed.predicted_makespan(self.threads),
            predicted_speedup: packed.predicted_speedup(self.threads),
            measured_parallel_units: exec_report.parallel_units,
            measured_speedup: exec_report.unit_speedup(),
            conflict_rate: exec_report.conflict_rate(),
            group_conflict_rate: exec_report.group_conflict_rate(),
            mempool_len_after,
            tdg_units,
            pack_considered: packed.considered,
            pack_wall_nanos: round.pack_wall_nanos,
            execute_wall_nanos: round.execute_wall_nanos,
            receipts_digest: receipts_digest(executed.receipts()),
            store_units: commit.store_units,
            store_wall_nanos,
        };
        if !telemetry.is_enabled() {
            return Ok((record, commit));
        }

        if let Some(span) = block_span {
            let tx_count = record.tx_count as u64;
            let pack_done = round.started_nanos + round.pack_wall_nanos;
            let execute_done = pack_done + round.execute_wall_nanos;
            telemetry.stage(Stage::Pack, round.pack_wall_nanos, packed.considered);
            telemetry.record_span(
                "pack",
                span,
                round.started_nanos,
                pack_done,
                packed.considered,
                &[("txs", tx_count)],
            );
            telemetry.stage(
                Stage::Execute,
                round.execute_wall_nanos,
                exec_report.parallel_units,
            );
            telemetry.record_span(
                "execute",
                span,
                pack_done,
                execute_done,
                exec_report.parallel_units,
                &[
                    ("conflicts", exec_report.conflicted_transactions as u64),
                    ("aborts", exec_report.aborts),
                    ("re_executions", exec_report.re_executions),
                ],
            );
            telemetry.stage(Stage::Store, store_wall_nanos, commit.store_units);
            telemetry.record_span(
                "store",
                span,
                store_started,
                store_started + store_wall_nanos,
                commit.store_units,
                &[("bytes", commit.bytes)],
            );
            telemetry.dist(Dist::BlockTxs, tx_count);
        }
        telemetry.count(
            Count::EngineConflicts,
            exec_report.conflicted_transactions as u64,
        );
        telemetry.count(Count::EngineValidations, exec_report.validations);
        telemetry.count(Count::EngineAborts, exec_report.aborts);
        telemetry.count(Count::EngineReExecutions, exec_report.re_executions);
        telemetry.count(Count::DeltaMerges, exec_report.delta_merges);
        telemetry.count(Count::DeltaDowngrades, exec_report.delta_downgrades);
        telemetry.count(Count::TdgOps, tdg_units);
        telemetry.dist(Dist::TdgBlockUnits, tdg_units);
        telemetry.count(Count::JournalBytes, commit.bytes);
        telemetry.dist(Dist::CommitBytes, commit.bytes);
        // Flush/compaction counts live in the backend's cumulative stats.
        if let Some(stats) = state.backend_stats() {
            telemetry.count(
                Count::JournalFlushes,
                stats.group_flushes.saturating_sub(self.flushes_seen),
            );
            telemetry.count(
                Count::StoreCompactions,
                stats
                    .snapshots_written
                    .saturating_sub(self.compactions_seen),
            );
            self.flushes_seen = stats.group_flushes;
            self.compactions_seen = stats.snapshots_written;
        }
        if let Some(span) = block_span {
            telemetry.end_span(
                span,
                exec_report.parallel_units + commit.store_units + tdg_units,
            );
        }
        Ok((record, commit))
    }
}

/// One full node: a [`TrackedPool`], a packer, an engine and the world state they
/// act on. `PipelineDriver` runs one; the cluster runs one per shard, which is
/// what makes its 1-shard layout the single pipeline by construction.
#[derive(Debug)]
pub struct NodePipeline<P, E> {
    /// The node's pool and dependency graph.
    pub pool: TrackedPool,
    /// The node's world state. Outside the block step it takes sender funding
    /// and, in a cluster, cross-shard credits and account handovers.
    pub state: WorldState,
    packer: P,
    engine: E,
    telemetry: TelemetryRegistry,
    tail: BlockTail,
    ingested: usize,
    stats_seen: MempoolStats,
}

impl<P: BlockPacker, E: ExecutionEngine> NodePipeline<P, E> {
    /// Builds a node over `state` (backend already mounted). A delta-commuting
    /// engine never conflicts on pure-credit receivers, so its node maintains the
    /// graph with weak edges — hot deposit sinks stop fusing the pool into one
    /// giant component, and the packer's component cap sees the parallelism the
    /// engine will find.
    pub fn new(mut packer: P, engine: E, state: WorldState, config: &PipelineConfig) -> Self {
        packer.configure(config);
        NodePipeline {
            pool: TrackedPool::new(config.mempool_capacity, engine.commutes_deltas()),
            state,
            packer,
            engine,
            telemetry: config.telemetry.clone(),
            tail: BlockTail::new(config),
            ingested: 0,
            stats_seen: MempoolStats::default(),
        }
    }

    /// Opens block `height`'s write-set scope (ingest-time funding and the
    /// block's execution effects commit together) and its admission window.
    ///
    /// # Errors
    ///
    /// Propagates state-backend errors.
    pub fn begin_block(&mut self, height: u64) -> Result<()> {
        self.ingested = 0;
        self.stats_seen = self.pool.pool().stats();
        self.state.begin_block(height)
    }

    /// Offers one arrival to the pool against the sender's current account nonce.
    pub fn admit(&mut self, arrival: &TxArrival) -> AdmitEffects {
        self.ingested += 1;
        self.pool.offer(
            &arrival.tx,
            arrival.fee_per_gas,
            arrival.arrival_secs,
            self.state.nonce(arrival.tx.sender()),
            None,
        )
    }

    /// Arrivals offered since [`begin_block`](NodePipeline::begin_block).
    pub fn ingested(&self) -> usize {
        self.ingested
    }

    /// Emits the `mempool_*` counters for the admissions since
    /// [`begin_block`](NodePipeline::begin_block).
    pub fn emit_admissions(&self) {
        emit_admissions(&self.telemetry, &self.stats_seen, &self.pool.pool().stats());
    }

    /// Packs and executes this node's block for `template`.
    ///
    /// # Errors
    ///
    /// Propagates engine-level failures (worker panics).
    pub fn produce(&mut self, template: &BlockTemplate) -> Result<NodeRound> {
        let (pool, tdg) = self.pool.packing_view();
        let packer = &mut self.packer;
        NodeRound::produce(
            &self.telemetry,
            &mut self.engine,
            &mut self.state,
            |state| packer.pack(pool, tdg, state, template),
        )
    }

    /// Settles the pool after `round`: the packed transactions leave pool and
    /// graph as O(Δ) edits, and every sender whose transaction failed validation
    /// — its account nonce stays behind the packed nonce, stranding its later
    /// entries behind a gap no arrival will fill — is swept. Returns every entry
    /// that left the pool.
    pub fn settle(&mut self, round: &NodeRound) -> Vec<PooledTx> {
        let mut departed = self.pool.settle_packed(round.packed.block.transactions());
        for (tx, receipt) in round.executed.iter() {
            if !receipt.succeeded() {
                let sender = tx.sender();
                departed.extend(self.pool.resync_sender(sender, self.state.nonce(sender)));
            }
        }
        departed
    }

    /// Commits the open block to the state backend; see [`BlockTail::commit`].
    ///
    /// # Errors
    ///
    /// Propagates state-backend I/O errors.
    pub fn commit(
        &mut self,
        round: &NodeRound,
        block_span: Option<SpanId>,
    ) -> Result<(BlockRecord, CommitStats)> {
        self.tail.commit(
            &mut self.state,
            round,
            self.ingested,
            self.pool.pool().len(),
            self.pool.tdg().op_units(),
            block_span,
        )
    }

    /// [`settle`](NodePipeline::settle) then [`commit`](NodePipeline::commit)
    /// under `block_span`: the whole tail of the step for a layout whose node is
    /// the whole height, with nothing in between.
    ///
    /// # Errors
    ///
    /// Propagates state-backend I/O errors.
    pub fn settle_and_commit(
        &mut self,
        round: &NodeRound,
        block_span: SpanId,
    ) -> Result<BlockRecord> {
        self.settle(round);
        Ok(self.commit(round, Some(block_span))?.0)
    }
}

/// Opens the root span of block `height`.
pub fn begin_block_span(telemetry: &TelemetryRegistry, height: u64) -> SpanId {
    let span = telemetry.begin_span("block", SpanId::ROOT);
    telemetry.span_attr(span, "height", height);
    span
}

/// Emits the `mempool_*` counters for the admissions between two readings of a
/// pool's cumulative counters.
pub fn emit_admissions(telemetry: &TelemetryRegistry, before: &MempoolStats, after: &MempoolStats) {
    let rejected = |s: &MempoolStats| s.rejected_underpriced + s.rejected_full + s.rejected_nonce;
    telemetry.count(Count::MempoolAdmitted, after.admitted - before.admitted);
    telemetry.count(Count::MempoolReplaced, after.replaced - before.replaced);
    telemetry.count(Count::MempoolEvicted, after.evicted - before.evicted);
    telemetry.count(Count::MempoolRejected, rejected(after) - rejected(before));
}

/// Emits a height's ingest stage sample and `ingest` span.
pub fn emit_ingest(
    telemetry: &TelemetryRegistry,
    block_span: SpanId,
    started_nanos: u64,
    wall_nanos: u64,
    units: u64,
    attrs: &[(&str, u64)],
) {
    telemetry.stage(Stage::Ingest, wall_nanos, units);
    telemetry.record_span(
        "ingest",
        block_span,
        started_nanos,
        started_nanos + wall_nanos,
        units,
        attrs,
    );
}
