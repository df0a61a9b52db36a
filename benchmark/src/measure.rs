//! The timed pieces of a run: the three public drivers, the block replay, the
//! engine ladder, the isolated shardpool calls and the store reopen.
//!
//! Every number is taken from outside: an `Instant` read before and after a call
//! into a public function of the facade.

use crate::host;
use crate::workload::{
    block_template, funding, EngineKind, Inputs, Layout, Workload, BLOCK_INTERVAL_SECS,
    LADDER_BLOCKS, SHARDS,
};
use blockconc::account::{AccountBlock, WorldState};
use blockconc::cluster::{ClusterConfig, ClusterDriver, ClusterRunReport};
use blockconc::execution::ExecutionEngine;
use blockconc::graph::build_account_tdg;
use blockconc::pipeline::{MempoolStats, PipelineDriver, PipelineRunReport};
use blockconc::shardpool::{
    IngestItem, IngestRouter, ShardedMempool, ShardedPacker, ShardedPipelineDriver,
    ShardedRunReport,
};
use blockconc::store::{shared, DiskBackend, DiskConfig, StateBackendConfig};
use blockconc::telemetry::{TelemetryRegistry, TelemetrySnapshot};
use blockconc::types::Address;
use std::collections::HashSet;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

fn text<E: std::fmt::Display>(err: E) -> String {
    err.to_string()
}

/// The run report of whichever driver the workload's layout names.
#[derive(Debug)]
pub enum Report {
    Pipeline(PipelineRunReport),
    Shardpool(ShardedRunReport),
    Cluster(ClusterRunReport),
}

impl Report {
    /// Transactions in produced blocks, failed receipts included.
    pub fn packed(&self) -> usize {
        match self {
            Report::Pipeline(r) => r.total_txs,
            Report::Shardpool(r) => r.run.total_txs,
            Report::Cluster(r) => r.total_txs,
        }
    }

    pub fn failed_receipts(&self) -> usize {
        match self {
            Report::Pipeline(r) => r.total_failed,
            Report::Shardpool(r) => r.run.total_failed,
            Report::Cluster(r) => r.total_failed,
        }
    }

    pub fn leftover(&self) -> usize {
        match self {
            Report::Pipeline(r) => r.leftover_mempool,
            Report::Shardpool(r) => r.run.leftover_mempool,
            Report::Cluster(r) => r.leftover_mempool(),
        }
    }

    pub fn pool_stats(&self) -> MempoolStats {
        match self {
            Report::Pipeline(r) => r.mempool_stats,
            Report::Shardpool(r) => r.run.mempool_stats,
            Report::Cluster(r) => r.mempool_stats,
        }
    }

    pub fn telemetry(&self) -> Option<&TelemetrySnapshot> {
        match self {
            Report::Pipeline(r) => r.telemetry.as_ref(),
            Report::Shardpool(r) => r.run.telemetry.as_ref(),
            Report::Cluster(r) => r.telemetry.as_ref(),
        }
    }
}

/// Every admitted transaction is accounted for:
/// `admitted − evicted − dropped = packed + leftover`.
pub fn pool_conserved(stats: &MempoolStats, leftover: usize) -> bool {
    stats.admitted - stats.evicted - stats.dropped_unpackable == stats.packed + leftover as u64
}

/// One drained producer run.
#[derive(Debug)]
pub struct Produced {
    pub report: Report,
    /// Wall of `Driver::run`, generation included.
    pub run_ns: u64,
    /// Wall of draining an identical-seed stream immediately before.
    pub gen_ns: u64,
}

impl Produced {
    /// Wall of the driver's own work.
    pub fn net_ns(&self) -> u64 {
        self.run_ns.saturating_sub(self.gen_ns).max(1)
    }
}

/// Runs the workload's driver over the first `total` emissions of the seeded
/// stream. All three drivers take a lazy stream, so generation happens inside
/// `run`; an identical stream is drained first to time it.
pub fn produce(
    workload: &Workload,
    seed: u64,
    total: usize,
    store_dir: &Path,
    telemetry: TelemetryRegistry,
) -> Result<Produced, String> {
    let config = workload.config(total, store_dir, telemetry);

    let drained = workload.stream(seed, total);
    let started = Instant::now();
    for arrival in drained {
        black_box(arrival);
    }
    let gen_ns = started.elapsed().as_nanos() as u64;

    let stream = workload.stream(seed, total);
    let (report, run_ns) = match workload.layout {
        Layout::Pipeline => {
            let driver =
                PipelineDriver::new(workload.build_packer(), workload.build_engine(), config);
            let started = Instant::now();
            let report = driver.run(stream).map_err(text)?;
            (Report::Pipeline(report), started.elapsed())
        }
        Layout::Shardpool => {
            let driver = ShardedPipelineDriver::new(workload.build_engine(), config);
            let started = Instant::now();
            let report = driver.run(stream).map_err(text)?;
            (Report::Shardpool(report), started.elapsed())
        }
        Layout::Cluster => {
            let mut cluster = ClusterConfig::new(SHARDS as u32);
            // One engine thread per node: the shards are the parallelism.
            cluster.pipeline = blockconc::pipeline::PipelineConfig {
                threads: 1,
                ..config
            };
            let engines = (0..SHARDS).map(|_| workload.engine.build(1)).collect();
            let driver = ClusterDriver::new(engines, cluster);
            let started = Instant::now();
            let report = driver.run(stream).map_err(text)?;
            (Report::Cluster(report), started.elapsed())
        }
    };
    Ok(Produced {
        report,
        run_ns: run_ns.as_nanos() as u64,
        gen_ns,
    })
}

/// One replay of packed blocks against a fresh pre-funded state.
#[derive(Debug)]
pub struct Replayed {
    /// Execute + commit wall per block.
    pub block_ns: Vec<u64>,
    /// Wall of the `execute` calls alone.
    pub execute_ns: u64,
    pub txs: usize,
    pub state_root: String,
}

impl Replayed {
    pub fn total_ns(&self) -> u64 {
        self.block_ns.iter().sum::<u64>().max(1)
    }
}

/// The paper's setting — a validator executing given blocks: per block,
/// `t0; engine.execute(&mut state, &block); state.commit_block(); t1`.
pub fn replay(
    inputs: &Inputs,
    blocks: &[AccountBlock],
    engine: EngineKind,
    backend: &StateBackendConfig,
) -> Result<Replayed, String> {
    let mut engine = engine.build(host::threads());
    let mut state = inputs.prefunded_state();
    state
        .attach_backend(backend.build().map_err(text)?, backend.working_set_cap())
        .map_err(text)?;
    let mut block_ns = Vec::with_capacity(blocks.len());
    let (mut execute_ns, mut txs) = (0, 0);
    for block in blocks {
        state.begin_block(block.height().value()).map_err(text)?;
        let started = Instant::now();
        let executed = engine.execute(&mut state, block).map_err(text)?;
        execute_ns += started.elapsed().as_nanos() as u64;
        state.commit_block().map_err(text)?;
        block_ns.push(started.elapsed().as_nanos() as u64);
        txs += block.transaction_count();
        black_box(executed);
    }
    Ok(Replayed {
        block_ns,
        execute_ns,
        txs,
        state_root: state.state_root().to_hex(),
    })
}

/// What the sequential oracle found.
#[derive(Debug)]
pub struct Oracle {
    pub state_root: String,
    /// The paper's single-transaction conflict rate, block mean.
    pub conflict_rate: f64,
    /// The paper's group conflict rate (largest component ÷ block), block mean.
    pub group_conflict_rate: f64,
}

/// Executes `blocks` sequentially against a pre-funded in-memory state: the
/// root every other execution of them is held to, and the paper's two conflict
/// metrics from each executed block's dependency graph (the engines' own
/// reports count what their threads happened to collide on, which does not
/// repeat).
pub fn oracle(inputs: &Inputs, blocks: &[AccountBlock]) -> Result<Oracle, String> {
    let mut engine = EngineKind::Sequential.build(1);
    let mut state = inputs.prefunded_state();
    let (mut conflict, mut group) = (0.0, 0.0);
    for block in blocks {
        let (executed, _) = engine.execute(&mut state, block).map_err(text)?;
        let analysis = build_account_tdg(&executed);
        conflict += analysis.metrics().single_tx_conflict_rate();
        group += analysis.metrics().group_conflict_rate();
    }
    let count = blocks.len().max(1) as f64;
    Ok(Oracle {
        state_root: state.state_root().to_hex(),
        conflict_rate: conflict / count,
        group_conflict_rate: group / count,
    })
}

/// One rung of the engine ladder.
#[derive(Debug)]
pub struct Rung {
    pub engine: EngineKind,
    pub ns_per_tx: f64,
    pub state_root: String,
}

/// The first [`LADDER_BLOCKS`] packed blocks through every engine, each against
/// its own pre-funded in-memory state.
pub fn ladder(inputs: &Inputs, blocks: &[AccountBlock]) -> Result<Vec<Rung>, String> {
    let blocks = &blocks[..blocks.len().min(LADDER_BLOCKS)];
    EngineKind::LADDER
        .iter()
        .map(|&engine| {
            let run = replay(inputs, blocks, engine, &StateBackendConfig::InMemory)?;
            Ok(Rung {
                engine,
                ns_per_tx: run.execute_ns as f64 / run.txs.max(1) as f64,
                state_root: run.state_root,
            })
        })
        .collect()
}

/// Wall of the sharded pool's two parallel calls, timed in isolation.
#[derive(Debug, Default)]
pub struct ShardpoolCalls {
    pub ingest_ns: u64,
    pub ingested: u64,
    pub pack_ns: u64,
    pub packed: u64,
}

/// A block loop over the sharded pool that times only `IngestRouter::ingest`
/// and `ShardedPacker::pack`; execution and settling run untimed so that the
/// pool sees the same sequence of states as in the driver.
pub fn shardpool_calls(workload: &Workload, inputs: &Inputs) -> Result<ShardpoolCalls, String> {
    // The sharded workload runs on the memory backend: no store directory.
    let config = workload.config(
        inputs.arrivals.len(),
        Path::new(""),
        TelemetryRegistry::disabled(),
    );
    let pool = ShardedMempool::new(config.shards, config.mempool_capacity);
    let router = IngestRouter::new(
        config.producer_threads,
        ShardedPipelineDriver::<crate::workload::Engine>::DEFAULT_QUEUE_DEPTH,
    );
    let mut packer = ShardedPacker::new(config.shards, config.threads);
    packer.configure(&config);
    let mut engine = workload.build_engine();
    let mut state: WorldState = inputs.base.clone();
    let mut funded: HashSet<Address> = HashSet::new();
    let mut calls = ShardpoolCalls::default();
    let mut cursor = 0usize;
    let mut stamp = 0u64;

    for height in 1..=config.max_blocks as u64 {
        let deadline = height as f64 * BLOCK_INTERVAL_SECS;
        let mut batch = Vec::new();
        while let Some(arrival) = inputs.arrivals.get(cursor) {
            if arrival.arrival_secs > deadline {
                break;
            }
            cursor += 1;
            let sender = arrival.tx.sender();
            if funded.insert(sender) {
                state.credit(sender, funding());
            }
            batch.push(IngestItem {
                account_nonce: state.nonce(sender),
                fee_per_gas: arrival.fee_per_gas,
                arrival_secs: arrival.arrival_secs,
                tx: arrival.tx.clone(),
                stamp,
            });
            stamp += 1;
        }
        calls.ingested += batch.len() as u64;
        let started = Instant::now();
        black_box(router.ingest(&pool, batch));
        calls.ingest_ns += started.elapsed().as_nanos() as u64;

        if pool.is_empty() && cursor == inputs.arrivals.len() {
            break;
        }
        let template = block_template(height, config.block_gas_limit);
        let started = Instant::now();
        let (packed, _) = packer.pack(&pool, &state, &template);
        calls.pack_ns += started.elapsed().as_nanos() as u64;
        calls.packed += packed.block.transaction_count() as u64;

        let (executed, _) = engine.execute(&mut state, &packed.block).map_err(text)?;
        pool.remove_packed(packed.block.transactions());
        for (tx, receipt) in executed.iter() {
            if !receipt.succeeded() {
                pool.resync_sender(tx.sender(), state.nonce(tx.sender()));
            }
        }
        let every = ShardedPipelineDriver::<crate::workload::Engine>::DEFAULT_REBALANCE_EVERY;
        if height % every as u64 == 0 {
            pool.rebalance();
        }
    }
    Ok(calls)
}

/// Reopens the disk store a finished run left in `dir`: wall of the recovery and
/// the state root it recovers.
pub fn reopen(dir: &Path) -> Result<(f64, String), String> {
    let started = Instant::now();
    let backend = DiskBackend::open(&DiskConfig::new(dir)).map_err(text)?;
    let mut state = WorldState::new();
    state.attach_backend(shared(backend), None).map_err(text)?;
    let ms = started.elapsed().as_secs_f64() * 1e3;
    Ok((ms, state.state_root().to_hex()))
}
