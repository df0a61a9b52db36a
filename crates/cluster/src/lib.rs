//! Cross-node sharded mempool fabric: the workspace's pipeline stack mounted on
//! Zilliqa-style network shards.
//!
//! `blockconc-shardpool` exploits transaction concurrency across the *threads*
//! of one node; this crate exploits it across *nodes*. A [`ClusterDriver`] owns
//! N node shards, each a full single-node pipeline — its own
//! [`Mempool`](blockconc_pipeline::Mempool), incremental TDG, concurrency-aware
//! packer, [`ExecutionEngine`](blockconc_execution::ExecutionEngine), and its
//! own **partitioned state backend** (address-partitioned, each shard a disjoint
//! [`StateBackend`](blockconc_store::StateBackend) store) — plus the cluster
//! fabric around them:
//!
//! * a **cluster router** placing whole TDG components on home shards through
//!   the workspace-wide canonical anchor hash
//!   ([`blockconc_graph::canonical_shard_epoch`]), with sender chains moving
//!   whole on fusion — conflicts stay shard-local, Conflux-style;
//! * an explicit **cross-shard transaction protocol** ([`CrossShardReceipt`]):
//!   a transfer to a foreign-owned account executes its debit half in the
//!   sender shard's micro-block and ships a receipt-carried credit that the
//!   owner shard applies next height, modeled after Zilliqa — a hot exchange
//!   wallet therefore *never* fuses the whole network into one component;
//! * **per-epoch rotation** with component-affine re-homing: every
//!   [`ClusterConfig::blocks_per_epoch`] blocks the epoch salt advances and live
//!   components migrate whole (accounts + pooled chains) to their new-epoch
//!   canonical homes;
//! * a **final-block merge** folding the per-shard micro-block records into
//!   one [`ClusterBlockRecord`] per height, with per-phase model-unit
//!   accounting in the convention of
//!   `PipelineRunReport`'s block records (what the layout costs by the clock
//!   is the `cluster_xshard` workload of `benchmark/`).
//!
//! A 1-shard cluster degenerates to exactly the single `PipelineDriver` run,
//! bit for bit (normalized records, receipts digests, state roots) — pinned by
//! the `cluster_equivalence` property tests, which also prove the N-shard final
//! state is independent of how shard executions interleave.
//!
//! # Examples
//!
//! ```
//! use blockconc_chainsim::{AccountWorkloadParams, ArrivalStream};
//! use blockconc_cluster::{ClusterConfig, ClusterDriver};
//! use blockconc_execution::ScheduledEngine;
//! use blockconc_pipeline::PipelineConfig;
//!
//! let mut config = ClusterConfig::new(4);
//! config.pipeline = PipelineConfig { threads: 2, max_blocks: 4, ..PipelineConfig::default() };
//! let engines = (0..4).map(|_| ScheduledEngine::new(2)).collect();
//! let stream = ArrivalStream::new(AccountWorkloadParams::cross_shard_heavy(), 8.0, 200, 5);
//! let report = ClusterDriver::new(engines, config).run(stream).unwrap();
//! assert_eq!(report.total_failed, 0);
//! // The heavy profile exercises the credit protocol.
//! assert!(report.cross_shard_txs > 0);
//! // Every shipped credit was applied (the run settles fully).
//! assert_eq!(report.receipts_applied, report.cross_shard_hops);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod driver;
mod protocol;
mod report;
mod router;

pub use config::ClusterConfig;
pub use driver::ClusterDriver;
pub use protocol::CrossShardReceipt;
pub use report::{ClusterBlockRecord, ClusterRunReport};
