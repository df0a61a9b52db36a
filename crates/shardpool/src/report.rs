//! Run reports of the sharded pipeline.

use blockconc_pipeline::PipelineRunReport;
use serde::{Deserialize, Serialize};

/// Per-block phase accounting of the sharded pipeline, in **modelled** work units
/// (the same hardware-independent convention as the execution engines'
/// `parallel_units`): one unit ≈ one per-transaction touch of the respective phase,
/// on the critical path the layout would have with a thread per parallel part.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockPhaseRecord {
    /// Block height.
    pub height: u64,
    /// Modelled ingest critical path: the larger of the largest producer bin and
    /// the largest per-shard share of the batch (admission itself runs in order on
    /// one thread; see [`IngestReport`](crate::IngestReport)).
    pub ingest_units: u64,
    /// Pack critical path: the largest single-shard scan plus the serial merge.
    pub pack_units: u64,
    /// The engine's parallel execution units for this block (copied from the block
    /// record for one-stop phase summation).
    pub execute_units: u64,
    /// Ingest wall-clock nanoseconds (actual, hardware-dependent).
    pub ingest_wall_nanos: u64,
    /// Shard pool lengths after this block.
    pub shard_lens: Vec<usize>,
}

/// Aggregate results of one sharded pipeline run: the familiar per-block pipeline
/// report plus shard-level phase accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedRunReport {
    /// The standard pipeline run report (packer name `sharded-concurrency-aware`).
    pub run: PipelineRunReport,
    /// Number of mempool shards.
    pub shards: usize,
    /// Producer bins the ingest model splits a batch across.
    pub producers: usize,
    /// Per-block phase records, in height order.
    pub phases: Vec<BlockPhaseRecord>,
    /// Chains migrated between shards (component fusions + rebalances).
    pub migrated_chains: u64,
    /// Rebalance passes run.
    pub rebalances: u64,
}

impl ShardedRunReport {
    /// Total abstract pipeline cost: ingest + pack + execute critical paths summed
    /// over all blocks.
    pub fn total_units(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.ingest_units + p.pack_units + p.execute_units)
            .sum()
    }

    /// End-to-end pipeline throughput in transactions per abstract work unit —
    /// the quantity the shardpool benchmark compares against the single-pool
    /// baseline (see [`baseline_pipeline_units`]).
    pub fn unit_throughput(&self) -> f64 {
        let units = self.total_units();
        if units == 0 {
            0.0
        } else {
            self.run.total_txs as f64 / units as f64
        }
    }

    /// Total ingest + pack units (the part the sharded subsystem parallelizes).
    pub fn ingest_pack_units(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.ingest_units + p.pack_units)
            .sum()
    }
}

/// The single-pool pipeline's cost under the same unit convention, computed from
/// its run report: serial ingest (one admission unit per offered arrival), the
/// serial pack scan (`pack_considered` — the candidates the fee-ordered loop
/// examined), and the engine's measured parallel units. This is the denominator
/// of the shardpool benchmark's end-to-end comparison.
///
/// Before the incremental-maintenance refactor the single pipeline paid an
/// O(pool) rescan per block, and this baseline charged one unit per pooled
/// transaction at pack time; with maintained ready chains and a deletion-capable
/// TDG, both pipelines' pack costs are O(Δ) and the baseline charges what the
/// single pipeline actually scans. Graph-maintenance units (`tdg_units`) are
/// excluded on *both* sides of the comparison — they are Δ-proportional for both
/// pipelines and reported per block in the [`BlockRecord`]
/// (blockconc_pipeline::BlockRecord) instead.
pub fn baseline_pipeline_units(report: &PipelineRunReport) -> u64 {
    report
        .blocks
        .iter()
        .map(|b| b.ingested as u64 + b.pack_considered + b.measured_parallel_units)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockconc_pipeline::{BlockRecord, MempoolStats};

    fn block(height: u64, ingested: usize, tx_count: usize, parallel: u64) -> BlockRecord {
        BlockRecord {
            height,
            ingested,
            tx_count,
            deferred_by_cap: 0,
            aged_included: 0,
            failed_receipts: 0,
            estimated_gas: 0,
            gas_used: 0,
            total_fee_per_gas: 0,
            predicted_makespan: 0,
            predicted_speedup: 0.0,
            measured_parallel_units: parallel,
            measured_speedup: 0.0,
            conflict_rate: 0.0,
            group_conflict_rate: 0.0,
            mempool_len_after: 10,
            tdg_units: 2 * ingested as u64,
            pack_considered: tx_count as u64,
            pack_wall_nanos: 0,
            execute_wall_nanos: 1,
            receipts_digest: String::new(),
            store_units: 0,
            store_wall_nanos: 0,
        }
    }

    #[test]
    fn unit_accounting_sums_phases() {
        let run = PipelineRunReport {
            packer: "sharded-concurrency-aware".into(),
            engine: "e".into(),
            threads: 8,
            blocks: vec![block(1, 40, 30, 10)],
            total_txs: 30,
            total_failed: 0,
            leftover_mempool: 10,
            mempool_stats: MempoolStats::default(),
            final_state_root: String::new(),
            store: blockconc_pipeline::StoreStats::default(),
            telemetry: None,
        };
        let report = ShardedRunReport {
            run,
            shards: 4,
            producers: 4,
            phases: vec![BlockPhaseRecord {
                height: 1,
                ingest_units: 10,
                pack_units: 15,
                execute_units: 10,
                ingest_wall_nanos: 1,
                shard_lens: vec![3, 3, 2, 2],
            }],
            migrated_chains: 0,
            rebalances: 0,
        };
        assert_eq!(report.total_units(), 35);
        assert_eq!(report.ingest_pack_units(), 25);
        assert!((report.unit_throughput() - 30.0 / 35.0).abs() < 1e-12);
        // The single-pool baseline for the same block: 40 serial ingest units +
        // 30 pack-scan units + 10 execute units.
        let baseline = baseline_pipeline_units(&report.run);
        assert_eq!(baseline, 80);
    }

    #[test]
    fn sharded_reports_serialize_to_json() {
        let report = ShardedRunReport {
            run: PipelineRunReport {
                packer: "p".into(),
                engine: "e".into(),
                threads: 1,
                blocks: vec![],
                total_txs: 0,
                total_failed: 0,
                leftover_mempool: 0,
                mempool_stats: MempoolStats::default(),
                final_state_root: String::new(),
                store: blockconc_pipeline::StoreStats::default(),
                telemetry: None,
            },
            shards: 2,
            producers: 2,
            phases: vec![],
            migrated_chains: 3,
            rebalances: 1,
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        let parsed: ShardedRunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, report);
        assert_eq!(report.unit_throughput(), 0.0);
    }
}
