//! Per-block and per-run pipeline reports.

use crate::{MempoolStats, PipelineConfig};
use blockconc_account::{Receipt, WorldState};
use blockconc_store::StoreStats;
use blockconc_types::Hash;
use serde::{Deserialize, Serialize};

/// A deterministic digest of a block's receipts (transaction ids, outcomes, gas,
/// internal transactions and logs): the per-block oracle the backend-equivalence
/// tests compare across state backends.
pub fn receipts_digest(receipts: &[Receipt]) -> String {
    let mut data = Vec::with_capacity(receipts.len() * 64);
    for receipt in receipts {
        data.extend_from_slice(receipt.tx_id().hash().as_bytes());
        data.push(receipt.succeeded() as u8);
        data.extend_from_slice(&receipt.gas_used().value().to_le_bytes());
        data.extend_from_slice(&(receipt.internal_transactions().len() as u64).to_le_bytes());
        for internal in receipt.internal_transactions() {
            data.extend_from_slice(internal.from().as_bytes());
            data.extend_from_slice(internal.to().as_bytes());
            data.extend_from_slice(&internal.value().sats().to_le_bytes());
        }
        // Length-prefixed like the internal transactions: without the count, a
        // trailing log word would be indistinguishable from the next receipt's
        // leading tx-hash bytes.
        data.extend_from_slice(&(receipt.logs().len() as u64).to_le_bytes());
        for log in receipt.logs() {
            data.extend_from_slice(&log.to_le_bytes());
        }
    }
    Hash::of_bytes(&data).to_hex()
}

/// What the pipeline measured for one produced block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockRecord {
    /// Block height.
    pub height: u64,
    /// Arrivals offered to the mempool while waiting for this block's deadline.
    pub ingested: usize,
    /// Number of packed transactions.
    pub tx_count: usize,
    /// Ready transactions deferred to later blocks by the packer's component cap.
    pub deferred_by_cap: u64,
    /// Receipts that failed (always 0 when the pipeline invariants hold).
    pub failed_receipts: usize,
    /// The packer's estimated gas for the block.
    pub estimated_gas: u64,
    /// Gas actually consumed by execution.
    pub gas_used: u64,
    /// Sum of the included transactions' fee bids.
    pub total_fee_per_gas: u64,
    /// Single-transaction conflict rate the engine observed.
    pub conflict_rate: f64,
    /// Group conflict rate the engine observed.
    pub group_conflict_rate: f64,
    /// Transactions left in the mempool after packing this block.
    pub mempool_len_after: usize,
    /// Incremental-TDG maintenance work units attributable to this block window
    /// (edge inserts/removes plus amortized compaction touches) — O(Δ) in the
    /// arrivals and departures, independent of the pool size.
    pub tdg_units: u64,
    /// Candidates the packer's fee-ordered loop examined for this block — the
    /// pack phase's O(Δ) scan cost (no pool-wide rescan behind it).
    pub pack_considered: u64,
    /// Digest of this block's receipts (see [`receipts_digest`]).
    pub receipts_digest: String,
}

/// Aggregate results of one pipeline run (one packer × engine × thread combination
/// over one arrival stream).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineRunReport {
    /// Packer name.
    pub packer: String,
    /// Engine name.
    pub engine: String,
    /// Worker threads used by the engine (and targeted by the packer).
    pub threads: usize,
    /// Per-block measurements, in height order.
    pub blocks: Vec<BlockRecord>,
    /// Total transactions packed and executed.
    pub total_txs: usize,
    /// Total failed receipts (expected 0).
    pub total_failed: usize,
    /// Transactions still pooled when the run ended.
    pub leftover_mempool: usize,
    /// The mempool's admission counters for the run.
    pub mempool_stats: MempoolStats,
    /// Digest of the complete post-run state (committed ⊕ resident), hex-encoded —
    /// identical across state backends for the same arrival stream.
    pub final_state_root: String,
    /// The state backend's cumulative counters for the run.
    pub store: StoreStats,
    /// Telemetry summary when the run's registry was enabled (`None` — and the
    /// report bit-identical to pre-telemetry runs — when it was disabled, which
    /// is what the backend-equivalence tests compare).
    pub telemetry: Option<blockconc_telemetry::TelemetrySnapshot>,
}

impl PipelineRunReport {
    /// Assembles a run's report from its block records and what the run left
    /// behind: the pool's leftover and counters, the final state and the
    /// configured registry's snapshot.
    pub fn from_blocks(
        packer: &str,
        engine: &str,
        config: &PipelineConfig,
        blocks: Vec<BlockRecord>,
        leftover_mempool: usize,
        mempool_stats: MempoolStats,
        state: &WorldState,
    ) -> Self {
        PipelineRunReport {
            packer: packer.to_string(),
            engine: engine.to_string(),
            threads: config.threads,
            total_txs: blocks.iter().map(|b| b.tx_count).sum(),
            total_failed: blocks.iter().map(|b| b.failed_receipts).sum(),
            blocks,
            leftover_mempool,
            mempool_stats,
            final_state_root: state.state_root().to_hex(),
            store: state.backend_stats().unwrap_or_default(),
            telemetry: config.telemetry.snapshot(),
        }
    }

    /// The engine-observed group conflict rate *l* (largest group over block
    /// size) of the run's blocks, weighted by block size: Σ largest group / Σ
    /// transactions (0 for a run without transactions).
    pub fn mean_group_conflict_rate(&self) -> f64 {
        let largest: f64 = self
            .blocks
            .iter()
            .map(|b| b.group_conflict_rate * b.tx_count as f64)
            .sum();
        if self.total_txs == 0 {
            0.0
        } else {
            largest / self.total_txs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(tx_count: usize, group_conflict_rate: f64) -> BlockRecord {
        BlockRecord {
            height: 1,
            ingested: tx_count,
            tx_count,
            deferred_by_cap: 0,
            failed_receipts: 0,
            estimated_gas: 0,
            gas_used: 0,
            total_fee_per_gas: 0,
            conflict_rate: 0.0,
            group_conflict_rate,
            mempool_len_after: 10,
            tdg_units: 0,
            pack_considered: 0,
            receipts_digest: String::new(),
        }
    }

    fn report(blocks: Vec<BlockRecord>) -> PipelineRunReport {
        PipelineRunReport {
            packer: "p".into(),
            engine: "e".into(),
            threads: 8,
            total_txs: blocks.iter().map(|b| b.tx_count).sum(),
            total_failed: 0,
            leftover_mempool: 0,
            mempool_stats: MempoolStats::default(),
            final_state_root: String::new(),
            store: StoreStats::default(),
            telemetry: None,
            blocks,
        }
    }

    #[test]
    fn aggregates_weight_by_block_size() {
        let r = report(vec![record(100, 0.25), record(50, 1.0)]);
        assert!((r.mean_group_conflict_rate() - 75.0 / 150.0).abs() < 1e-12);
        assert_eq!(r.total_txs, 150);
    }

    #[test]
    fn empty_run_is_all_zeroes() {
        let r = report(vec![]);
        assert_eq!(r.mean_group_conflict_rate(), 0.0);
    }

    #[test]
    fn receipts_digest_is_deterministic_and_content_sensitive() {
        use blockconc_types::{Gas, TxId};
        let a = Receipt::success(TxId::from_low(1), Gas::new(21_000), vec![], vec![]);
        let b = Receipt::failure(TxId::from_low(1), Gas::new(21_000), "nope");
        assert_eq!(
            receipts_digest(std::slice::from_ref(&a)),
            receipts_digest(std::slice::from_ref(&a))
        );
        assert_ne!(receipts_digest(&[a]), receipts_digest(&[b]));
    }

    #[test]
    fn reports_serialize_to_json() {
        let r = report(vec![record(10, 0.5)]);
        let json = serde_json::to_string_pretty(&r).unwrap();
        assert!(json.contains("\"packer\""));
        let parsed: PipelineRunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, r);
    }
}
