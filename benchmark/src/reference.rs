//! The benchmark's own block loop: ingest → TDG edit → pack → execute → settle →
//! commit over the materialised arrivals, with one span per layer call-batch per
//! block.
//!
//! It performs `PipelineDriver::run`'s sequence out of the same public
//! functions, so its final state root must equal the producer run's; the blocks
//! it packs are the ones the replay and the engine ladder execute.

use crate::spans::{Spans, ROOT};
use crate::workload::{block_template, funding, Inputs, Workload, BLOCK_INTERVAL_SECS};
use blockconc::account::AccountBlock;
use blockconc::execution::{ExecutionEngine, ExecutionReport};
use blockconc::pipeline::{
    AdmitEffects, AdmitOutcome, BlockPacker, IncrementalTdg, Mempool, MempoolStats,
};
use blockconc::store::StoreStats;
use blockconc::telemetry::TelemetryRegistry;
use blockconc::types::Address;
use std::collections::HashSet;
use std::path::Path;

/// What one pass of the reference loop produced and counted.
#[derive(Debug, Default)]
pub struct Reference {
    pub blocks: Vec<AccountBlock>,
    pub state_root: String,
    /// Transactions committed with a success receipt.
    pub committed: usize,
    pub failed_receipts: usize,
    pub offered: u64,
    pub rejected: u64,
    pub pool: MempoolStats,
    pub pool_leftover: usize,
    pub pool_len_max: usize,
    pub itdg_op_units: u64,
    pub itdg_compactions: u64,
    /// Block mean of largest component ÷ pooled transactions, after ingest.
    pub itdg_largest_component_share: f64,
    pub pack_considered: u64,
    pub pack_deferred_by_cap: u64,
    pub exec: Vec<ExecutionReport>,
    pub journal_bytes: u64,
    pub store: StoreStats,
    pub wall_ns: u64,
}

/// Runs the loop over `inputs`, recording spans into `spans`.
pub fn run(
    workload: &Workload,
    inputs: &Inputs,
    store_dir: &Path,
    spans: &mut Spans,
) -> Result<Reference, String> {
    let config = workload.config(
        inputs.arrivals.len(),
        store_dir,
        TelemetryRegistry::disabled(),
    );
    let mut engine = workload.build_engine();
    let mut packer = workload.build_packer();
    packer.configure(&config);

    let started = spans.now();
    let mut state = inputs.base.clone();
    let backend = config.state_backend.build().map_err(|e| e.to_string())?;
    state
        .attach_backend(backend, config.state_backend.working_set_cap())
        .map_err(|e| e.to_string())?;
    let mut funded: HashSet<Address> = HashSet::new();
    let mut pool = Mempool::new(config.mempool_capacity);
    let mut tdg = if engine.commutes_deltas() {
        IncrementalTdg::new().with_weak_edges()
    } else {
        IncrementalTdg::new()
    };

    let mut out = Reference::default();
    let mut component_share_sum = 0.0;
    let mut cursor = 0usize;
    let mut nonces: Vec<u64> = Vec::new();
    let mut effects: Vec<AdmitEffects> = Vec::new();

    for height in 1..=config.max_blocks as u64 {
        let deadline = height as f64 * BLOCK_INTERVAL_SECS;
        let block = spans.begin("block.loop", ROOT, height);
        state.begin_block(height).map_err(|e| e.to_string())?;
        let due = inputs.arrivals[cursor..]
            .iter()
            .take_while(|a| a.arrival_secs <= deadline)
            .count();
        let batch = &inputs.arrivals[cursor..cursor + due];
        cursor += due;

        // Ingest runs as three passes over the block's arrivals, one per layer.
        // State nonces do not change during ingest and the pool never reads the
        // graph, so the passes do exactly what the driver's interleaved loop does.
        let t = spans.now();
        nonces.clear();
        for arrival in batch {
            let sender = arrival.tx.sender();
            if funded.insert(sender) {
                state.credit(sender, funding());
            }
            nonces.push(state.nonce(sender));
        }
        let t = spans.leaf("account.fund", block, t, due as u64);

        effects.clear();
        for (arrival, &nonce) in batch.iter().zip(&nonces) {
            effects.push(pool.offer(
                arrival.tx.clone(),
                arrival.fee_per_gas,
                arrival.arrival_secs,
                nonce,
                None,
            ));
        }
        let t = spans.leaf("pool.offer", block, t, due as u64);

        for (arrival, effect) in batch.iter().zip(&effects) {
            match effect.outcome {
                AdmitOutcome::Admitted => {
                    tdg.insert(&arrival.tx);
                    if let Some(evicted) = &effect.evicted {
                        tdg.remove(&evicted.tx);
                    }
                }
                AdmitOutcome::Replaced => {
                    let superseded = effect.replaced.as_ref().expect("replacement payload");
                    tdg.remove(&superseded.tx);
                    tdg.insert(&arrival.tx);
                }
                _ => out.rejected += 1,
            }
        }
        spans.leaf("itdg.insert", block, t, due as u64);
        out.offered += due as u64;
        out.pool_len_max = out.pool_len_max.max(pool.len());

        if pool.is_empty() && cursor == inputs.arrivals.len() {
            state.commit_block().map_err(|e| e.to_string())?;
            spans.end(block, 0);
            break;
        }
        if tdg.tx_count() > 0 {
            component_share_sum += tdg.largest_component_tx_count() as f64 / tdg.tx_count() as f64;
        }

        let template = block_template(height, config.block_gas_limit);
        // The component scan above is the benchmark's own cost: start the pack
        // span after it.
        let t = spans.now();
        let packed = packer.pack(&pool, &mut tdg, &state, &template);
        let txs = packed.block.transaction_count() as u64;
        let t = spans.leaf("packer.pack", block, t, txs);

        let (executed, report) = engine
            .execute(&mut state, &packed.block)
            .map_err(|e| e.to_string())?;
        let t = spans.leaf("execution.execute", block, t, txs);

        let removed = pool.remove_packed_returning(packed.block.transactions());
        let mut dropped = Vec::new();
        for (tx, receipt) in executed.iter() {
            if !receipt.succeeded() {
                dropped.extend(pool.resync_sender_removed(tx.sender(), state.nonce(tx.sender())));
            }
        }
        let t = spans.leaf("pool.settle", block, t, txs);
        tdg.remove_batch(removed.iter().map(|p| &p.tx));
        if !dropped.is_empty() {
            tdg.remove_batch(dropped.iter().map(|p| &p.tx));
        }
        let t = spans.leaf("itdg.remove", block, t, txs);

        let commit = state.commit_block().map_err(|e| e.to_string())?;
        spans.leaf("store.commit", block, t, txs);

        let failed = executed
            .receipts()
            .iter()
            .filter(|r| !r.succeeded())
            .count();
        out.failed_receipts += failed;
        out.committed += txs as usize - failed;
        out.pack_considered += packed.considered;
        out.pack_deferred_by_cap += packed.deferred_by_cap;
        out.journal_bytes += commit.bytes;
        out.exec.push(report);
        out.blocks.push(packed.block);
        spans.end(block, txs);
    }

    let root = spans.begin("account.state_root", ROOT, 0);
    out.state_root = state.state_root().to_hex();
    spans.end(root, 1);
    out.wall_ns = spans.now() - started;

    out.pool = pool.stats();
    out.pool_leftover = pool.len();
    out.itdg_op_units = tdg.op_units();
    out.itdg_compactions = tdg.compactions();
    out.itdg_largest_component_share = component_share_sum / out.blocks.len().max(1) as f64;
    out.store = state.backend_stats().unwrap_or_default();
    Ok(out)
}
