//! Run reports of the cluster driver, the cluster counterpart of
//! `PipelineRunReport` / `ShardedRunReport`.

use blockconc_pipeline::{BlockRecord, MempoolStats};

/// One cluster height: the merged final block plus every shard's micro-block
/// record and the round's critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterBlockRecord {
    /// Final-block height.
    pub height: u64,
    /// Per-shard micro-block records, indexed by shard id. Each is the *same*
    /// [`BlockRecord`] the single-node pipeline emits, so a 1-shard cluster's
    /// records are directly (bit-)comparable to `PipelineDriver`'s.
    pub micro: Vec<BlockRecord>,
    /// Transactions in the merged final block (sum of the micro-blocks).
    pub tx_count: usize,
    /// Top-level transactions this round whose credit shipped to another shard.
    pub cross_shard_txs: u64,
    /// Cross-shard credit hops this round (top-level transfers plus internal
    /// transactions paying foreign-owned accounts).
    pub cross_shard_hops: u64,
    /// Receipt-carried credits applied by this round's blocks.
    pub receipts_applied: u64,
    /// Sum of the applied receipts' latencies, in blocks (emit → apply).
    pub receipt_latency_blocks: u64,
    /// The round's cluster-wide critical path in abstract work units: the
    /// slowest shard's arrivals offered + credits applied + candidates
    /// considered + its engine's `ExecutionReport::parallel_units`, plus one
    /// per micro-block merged, plus the accounts and pooled transactions moved
    /// between shard partitions (fusions, anchor decreases, epoch rotations).
    /// The one modelled value the runtime keeps, read by the benchmark as
    /// `cluster.critical_units_per_tx` through
    /// [`ClusterRunReport::total_units`].
    pub critical_units: u64,
}

/// Aggregate results of one cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRunReport {
    /// Node shards in the cluster.
    pub shards: usize,
    /// Engine worker threads per shard.
    pub threads: usize,
    /// Engine name (every shard runs the same engine type).
    pub engine: String,
    /// Per-height records, in height order.
    pub blocks: Vec<ClusterBlockRecord>,
    /// Total transactions packed and executed across all shards.
    pub total_txs: usize,
    /// Total failed receipts (expected 0).
    pub total_failed: usize,
    /// Top-level cross-shard transactions over the run.
    pub cross_shard_txs: u64,
    /// Cross-shard credit hops over the run (incl. internal transactions).
    pub cross_shard_hops: u64,
    /// Receipt-carried credits applied over the run (incl. final settlement).
    pub receipts_applied: u64,
    /// Sum of applied receipts' latencies in blocks.
    pub receipt_latency_blocks: u64,
    /// Components re-homed (fusions crossing shards, anchor decreases, epoch
    /// rotations).
    pub rehomed_components: u64,
    /// Account records handed between shard partitions.
    pub moved_accounts: u64,
    /// Pooled sender chains handed between shard mempools.
    pub moved_chains: u64,
    /// Epoch rotations performed — also the final placement epoch.
    pub rotations: u64,
    /// Transactions still pooled per shard when the run ended.
    pub per_shard_leftover: Vec<usize>,
    /// Merged admission counters across all shard mempools.
    pub mempool_stats: MempoolStats,
    /// Sum of all shard partitions' account balances after final settlement, in
    /// base units. Cross-shard value is conserved end to end: this equals the
    /// base-state supply plus sender funding, independent of the shard count —
    /// the equivalence tests compare it across cluster layouts.
    pub total_supply_sats: u64,
    /// Each shard partition's final state root, hex-encoded.
    pub shard_roots: Vec<String>,
    /// The cluster root: a digest folding every shard's root in shard order.
    pub cluster_root: String,
    /// Telemetry summary when the run's registry was enabled (`None` — and the
    /// report bit-identical to pre-telemetry runs — when it was disabled, which
    /// is what the layout-equivalence tests compare).
    pub telemetry: Option<blockconc_telemetry::TelemetrySnapshot>,
}

impl ClusterRunReport {
    /// Total cluster critical path over the run, in abstract work units.
    pub fn total_units(&self) -> u64 {
        self.blocks.iter().map(|b| b.critical_units).sum()
    }

    /// Share of executed transactions whose credit crossed shards.
    pub fn cross_shard_fraction(&self) -> f64 {
        if self.total_txs == 0 {
            0.0
        } else {
            self.cross_shard_txs as f64 / self.total_txs as f64
        }
    }

    /// Mean credit latency in blocks (0 when nothing crossed shards).
    pub fn mean_receipt_latency(&self) -> f64 {
        if self.receipts_applied == 0 {
            0.0
        } else {
            self.receipt_latency_blocks as f64 / self.receipts_applied as f64
        }
    }

    /// Transactions left pooled across all shards.
    pub fn leftover_mempool(&self) -> usize {
        self.per_shard_leftover.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record whose critical path is the slowest shard's `ingest + pack +
    /// execute` over `parts`, plus one per micro-block merged.
    fn record(height: u64, parts: &[(u64, u64, u64)]) -> ClusterBlockRecord {
        let slowest = parts.iter().map(|&(i, p, e)| i + p + e).max().unwrap_or(0);
        ClusterBlockRecord {
            height,
            micro: Vec::new(),
            tx_count: 10,
            cross_shard_txs: 1,
            cross_shard_hops: 2,
            receipts_applied: 1,
            receipt_latency_blocks: 1,
            critical_units: slowest + parts.len() as u64,
        }
    }

    fn report(blocks: Vec<ClusterBlockRecord>) -> ClusterRunReport {
        ClusterRunReport {
            shards: 2,
            threads: 4,
            engine: "e".into(),
            total_txs: blocks.iter().map(|b| b.tx_count).sum(),
            total_failed: 0,
            cross_shard_txs: blocks.iter().map(|b| b.cross_shard_txs).sum(),
            cross_shard_hops: blocks.iter().map(|b| b.cross_shard_hops).sum(),
            receipts_applied: blocks.iter().map(|b| b.receipts_applied).sum(),
            receipt_latency_blocks: blocks.iter().map(|b| b.receipt_latency_blocks).sum(),
            rehomed_components: 0,
            moved_accounts: 0,
            moved_chains: 0,
            rotations: 0,
            per_shard_leftover: vec![1, 2],
            total_supply_sats: 0,
            mempool_stats: MempoolStats::default(),
            shard_roots: vec![String::new(); 2],
            cluster_root: String::new(),
            telemetry: None,
            blocks,
        }
    }

    #[test]
    fn unit_accounting_takes_the_max_shard_path() {
        let r = report(vec![record(1, &[(10, 5, 8), (4, 6, 2)])]);
        assert_eq!(r.total_units(), 10 + 5 + 8 + 2);
        assert!((r.cross_shard_fraction() - 0.1).abs() < 1e-12);
        assert!((r.mean_receipt_latency() - 1.0).abs() < 1e-12);
        assert_eq!(r.leftover_mempool(), 3);
    }

    #[test]
    fn empty_run_reports_zeroes() {
        let r = report(vec![]);
        assert_eq!(r.total_units(), 0);
        assert_eq!(r.cross_shard_fraction(), 0.0);
        assert_eq!(r.mean_receipt_latency(), 0.0);
    }
}
