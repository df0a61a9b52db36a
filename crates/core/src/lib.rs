//! `blockconc` — a full reproduction of *On Exploiting Transaction Concurrency To
//! Speed Up Blockchains* (Reijsbergen & Dinh, ICDCS 2020) as a Rust library.
//!
//! The paper asks how much blockchains could be sped up by executing the transactions
//! of a block in parallel instead of sequentially. It measures the concurrency
//! available in seven public blockchains through two per-block metrics — the
//! single-transaction conflict rate and the group conflict rate, both derived from a
//! *transaction dependency graph* (TDG) — and feeds those metrics into an analytical
//! model that predicts up to ~6× speed-ups for Ethereum on 8 cores.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`types`] | shared primitives (hashes, addresses, amounts, gas, deterministic RNG) |
//! | [`utxo`] | UTXO ledger substrate (Bitcoin family) |
//! | [`account`] | account/contract substrate with a gas-metered VM (Ethereum family) |
//! | [`graph`] | TDG construction, connected components, conflict metrics, the canonical shard placement |
//! | [`model`] | the analytical speed-up model (Equations 1 and 2) |
//! | [`chainsim`] | calibrated workload/history simulators for the seven chains |
//! | [`execution`] | sequential, speculative, TDG-scheduled and optimistic (Block-STM-style MVCC, per-key cells for conflicts and data, commutative delta cells) execution engines |
//! | [`pipeline`] | concurrency-aware mempool and block-building pipeline |
//! | [`shardpool`] | concurrent TDG-component-sharded mempool with parallel per-shard packers |
//! | [`cluster`] | cross-node sharded mempool fabric: per-shard pipelines over partitioned state with a cross-shard credit protocol |
//! | [`store`] | journaled persistent state backends (in-memory and log-structured disk) |
//! | [`telemetry`] | zero-dependency observability: clocks, histograms, counters, span flight recorder |
//! | [`analysis`] | bucketed weighted aggregation, chain comparisons, figure data, export |
//!
//! # Quickstart
//!
//! ```
//! use blockconc::prelude::*;
//!
//! // Simulate a small Ethereum history, measure its concurrency, and ask the model
//! // how much faster execution could be on 8 cores.
//! let history = HistoryConfig::new(10, 2, 42).generate(ChainId::Ethereum);
//! let group_rate = bucketed_series(
//!     history.blocks(), MetricKind::GroupConflictRate, BlockWeight::TxCount, 10);
//! let latest = group_rate.last_value().unwrap();
//! let speedup = group_speedup(latest, 8);
//! assert!(speedup > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use blockconc_account as account;
pub use blockconc_analysis as analysis;
pub use blockconc_chainsim as chainsim;
pub use blockconc_cluster as cluster;
pub use blockconc_execution as execution;
pub use blockconc_graph as graph;
pub use blockconc_model as model;
pub use blockconc_pipeline as pipeline;
pub use blockconc_shardpool as shardpool;
pub use blockconc_store as store;
pub use blockconc_telemetry as telemetry;
pub use blockconc_types as types;
pub use blockconc_utxo as utxo;

/// The most commonly used items, importable with a single `use blockconc::prelude::*`.
pub mod prelude {
    pub use blockconc_account::{
        AccountTransaction, BlockBuilder as AccountBlockBuilder, BlockExecutor, ExecutedBlock,
        StateAccess, WorldState,
    };
    pub use blockconc_analysis::{
        bucketed_series, compare, export, report, speedup, Dataset, MetricKind, Series, SeriesPoint,
    };
    pub use blockconc_chainsim::{
        AccountWorkloadGen, AccountWorkloadParams, ArrivalStream, ChainHistory, ChainId,
        FeeEscalationSpec, HistoryConfig, HotspotSpec, SimulatedBlock, TxArrival, UtxoWorkloadGen,
        UtxoWorkloadParams,
    };
    pub use blockconc_cluster::{
        ClusterConfig, ClusterDriver, ClusterRunReport, CrossShardReceipt,
    };
    pub use blockconc_execution::{
        ExecutionEngine, ExecutionReport, OptimisticEngine, ScheduledEngine, SequentialEngine,
        SpeculativeEngine,
    };
    pub use blockconc_graph::{
        build_account_tdg, build_utxo_tdg, canonical_shard, canonical_shard_epoch, tdg_to_dot,
        BlockMetrics, BlockWeight, Tdg,
    };
    pub use blockconc_model::{
        exact_speedup, group_speedup, lpt_makespan, oracle_speedup, scheduled_speedup,
        speculative_speedup, CoreSweep,
    };
    pub use blockconc_pipeline::{
        BlockPacker, ConcurrencyAwarePacker, FeeGreedyPacker, IncrementalTdg, Mempool,
        PipelineConfig, PipelineDriver, PipelineRunReport,
    };
    pub use blockconc_shardpool::{
        IngestItem, IngestRouter, ShardedMempool, ShardedPacker, ShardedPipelineDriver,
        ShardedRunReport,
    };
    pub use blockconc_store::{
        DiskBackend, DiskConfig, MemoryBackend, StateBackend, StateBackendConfig, StoreStats,
    };
    pub use blockconc_telemetry::{MockClock, TelemetryRegistry, TelemetrySnapshot, WallClock};
    pub use blockconc_types::{Address, Amount, BlockHeight, Gas, Hash, Timestamp, TxId};
    pub use blockconc_utxo::{
        BlockBuilder as UtxoBlockBuilder, TransactionBuilder, UtxoBlock, UtxoSet,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_cross_crate_pipeline() {
        let history = HistoryConfig::new(4, 1, 7).generate(ChainId::Litecoin);
        let series = bucketed_series(
            history.blocks(),
            MetricKind::SingleTxConflictRate,
            BlockWeight::TxCount,
            2,
        );
        assert_eq!(series.len(), 2);
        let speedup = group_speedup(0.2, 8);
        assert!((speedup - 5.0).abs() < 1e-9);
    }
}
