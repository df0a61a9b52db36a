//! Concurrent sharded mempool with parallel per-shard block production.
//!
//! `blockconc-pipeline` proved that a dependency-aware block *producer* recovers
//! most of the concurrency the paper finds; but that pipeline still funnels every
//! arriving transaction through one single-threaded pool and one packer. This crate
//! parallelizes the admission → pack path itself, in the spirit of Conflux-style
//! concurrent-structure scaling and conflict-aware partitioning:
//!
//! * [`ShardedMempool`] — the pool partitioned across N shards **by TDG
//!   component**, routed through a `blockconc_graph::ComponentIndex` (payload:
//!   the component's anchor and pinned senders) with absolute sender affinity, so
//!   nonce chains never split. Admission semantics — nonce discipline, the 10%
//!   replacement rule, and a *global* cheapest-tail eviction — are identical to the
//!   single `Mempool`; the equivalence property tests hold the two bit-compatible.
//!   When an arriving edge fuses components on different shards, the losing chains
//!   migrate, preserving the invariant that different shards never conflict; an
//!   admission costs what it moves, never a scan of the component it lands in.
//! * [`IngestRouter`] — in-order batch admission: a block's arrivals go through
//!   the pool's one admission step in stream order, on the caller's thread, under
//!   a single hold of the router lock. Its report *models* the producer × shard
//!   split the layout allows; nothing about a batch depends on thread timing.
//! * [`ShardedPacker`] — one `ConcurrencyAwarePacker` per shard builds
//!   non-conflicting sub-blocks in parallel (components are shard-disjoint, so no
//!   cross-checking); a **predicted-makespan-aware merge** then re-caps the
//!   candidate union with the same speed-up-optimal component-cap search the
//!   single-pool packer uses and k-way merges by fee, deferring capped chains.
//! * [`ShardedPipelineDriver`] — wires an `ArrivalStream` through ingest, pack,
//!   merge and any `ExecutionEngine`, with periodic component
//!   [rebalancing](ShardedMempool::rebalance); selected via the
//!   [`PipelineConfig::shards`](blockconc_pipeline::PipelineConfig) /
//!   `producer_threads` switch (1/1 reproduces the single-pool pipeline exactly).
//!
//! Reports account each phase's *modelled* critical path in hardware-independent
//! work units (the execution engines' `parallel_units` convention), read stage by
//! stage and never summed (a unit is worth a different time in each); what the
//! layout costs by the clock is the `shardpool_hot` workload of `benchmark/`.
//!
//! # Examples
//!
//! ```
//! use blockconc_chainsim::{AccountWorkloadParams, ArrivalStream, HotspotSpec};
//! use blockconc_execution::ScheduledEngine;
//! use blockconc_pipeline::PipelineConfig;
//! use blockconc_shardpool::ShardedPipelineDriver;
//!
//! let params = AccountWorkloadParams {
//!     txs_per_block: 40.0,
//!     user_population: 2_000,
//!     fresh_receiver_share: 0.5,
//!     zipf_exponent: 0.5,
//!     hotspots: vec![HotspotSpec::exchange(0.3)],
//!     contract_create_share: 0.01,
//! };
//! let config = PipelineConfig {
//!     threads: 4, max_blocks: 4, shards: 4, producer_threads: 2,
//!     ..PipelineConfig::default()
//! };
//! let report = ShardedPipelineDriver::new(ScheduledEngine::new(4), config)
//!     .run(ArrivalStream::new(params, 3.0, 150, 7))
//!     .unwrap();
//! assert_eq!(report.run.total_failed, 0);
//! // The sharded layout's modelled ingest critical path is below the serial cost
//! // of the same work.
//! let serial: u64 = report.run.blocks.iter().map(|b| b.ingested as u64).sum();
//! let parallel: u64 = report.phases.iter().map(|p| p.ingest_units).sum();
//! assert!(parallel <= serial);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod ingest;
mod packer;
mod pool;
mod report;
mod router;

pub use driver::ShardedPipelineDriver;
pub use ingest::{IngestItem, IngestReport, IngestRouter};
pub use packer::{ShardPackReport, ShardedPacker};
pub use pool::ShardedMempool;
pub use report::{BlockPhaseRecord, ShardedRunReport};
