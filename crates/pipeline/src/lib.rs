//! Concurrency-aware mempool and block-building pipeline.
//!
//! The paper measures how much concurrency *historical* blocks happen to contain —
//! blocks that fee-greedy miners packed blind to the transaction dependency graph.
//! Its own speed-up model (Equations 1 and 2) implies that the block *producer* is
//! where most of the available parallelism is won or lost: a builder that packs
//! blocks to minimize dependency-component skew realizes far more of Equation 2's
//! `min(n, 1/l)` bound than one that maximizes fees alone. This crate builds that
//! producer side, turning the workspace from a block-at-a-time analyzer into an
//! end-to-end node pipeline:
//!
//! * [`Mempool`] — a fee-prioritized, nonce-ordered, sender-indexed transaction pool
//!   with production-style admission rules: same-nonce replacement requires a 10%
//!   fee bump, and capacity eviction removes only the cheapest *chain tail*, so
//!   per-sender nonce chains never acquire gaps. The pool *maintains* its packing
//!   and eviction views instead of rebuilding them: a fee-ordered ready-chain-head
//!   index ([`Mempool::ready_heads`]), a cheapest-tail eviction index, and a gas
//!   aggregate are updated in O(log pool) on every insert/remove/replace/
//!   nonce-advance and consumed by reference — the packers never rescan the pool.
//! * [`IncrementalTdg`] — the address-level dependency graph maintained *online* as
//!   transactions arrive **and leave**, built on `blockconc-graph`'s
//!   [`ComponentIndex`] (address interning, union-with-fold, whole-component
//!   release and reuse of released nodes in one place) with one record per
//!   component. Insertions are amortized near-constant time; removals (packed
//!   blocks, evictions, replacements) are amortized O(1) via edge reference
//!   counts, exact component release, and component-local epoch compaction — no
//!   call site rebuilds the graph on the hot path, so graph maintenance per block
//!   is O(Δ), not O(pool). The one per-block term that is not is the
//!   concurrency-aware cap search, which collects and sorts every pooled
//!   component's size: O(C log C) over the C components.
//! * [`BlockPacker`] — the packing strategy trait, with two implementations:
//!   [`FeeGreedyPacker`] reproduces today's miners (highest fee bid first under the
//!   gas limit), while [`ConcurrencyAwarePacker`] additionally caps how many
//!   transactions any dependency component contributes to a block, keeping the
//!   block's largest group near the balanced optimum `block / threads`. Capped
//!   transactions are deferred to later blocks, never dropped.
//! * [`TrackedPool`] and [`NodePipeline`] — the block step every driver layout
//!   runs (this crate's, `blockconc-shardpool`'s, `blockconc-cluster`'s): a pool
//!   whose mutators keep its graph current themselves, and the node — pool, packer,
//!   engine, world state — that admits, produces, settles and commits a block. See
//!   the README's *The block step*.
//! * [`PipelineDriver`] — one [`NodePipeline`] under an [`ArrivalWindow`]: wires a
//!   `blockconc-chainsim` [`ArrivalStream`] through the mempool and a packer into
//!   any `blockconc-execution` [`ExecutionEngine`], producing blocks on a fixed
//!   interval and reporting per block what was packed, the conflict rates the
//!   engine observed, the graph and store counts and the wall clock of each
//!   stage ([`PipelineRunReport`]).
//!
//! Both packers emit blocks that execute to the identical `WorldState` and receipts
//! on every engine (the serializability property the workspace's engines already
//! guarantee), because packing only ever reorders *independent* transactions and
//! preserves each sender's nonce order — enforced by the packer property tests.
//!
//! [`ComponentIndex`]: blockconc_graph::ComponentIndex
//! [`ArrivalStream`]: blockconc_chainsim::ArrivalStream
//! [`ExecutionEngine`]: blockconc_execution::ExecutionEngine
//!
//! # Examples
//!
//! Stream a hot-spot workload through both packers and compare the group conflict
//! rate *l* the TDG-scheduled engine finds in the blocks each one builds:
//!
//! ```
//! use blockconc_chainsim::{AccountWorkloadParams, ArrivalStream, HotspotSpec};
//! use blockconc_execution::ScheduledEngine;
//! use blockconc_pipeline::{
//!     ConcurrencyAwarePacker, FeeGreedyPacker, PipelineConfig, PipelineDriver,
//! };
//!
//! let params = AccountWorkloadParams {
//!     txs_per_block: 40.0,
//!     user_population: 2_000,
//!     fresh_receiver_share: 0.5,
//!     zipf_exponent: 0.5,
//!     hotspots: vec![HotspotSpec::exchange(0.4)],
//!     contract_create_share: 0.01,
//! };
//! let config = PipelineConfig { threads: 4, max_blocks: 4, ..PipelineConfig::default() };
//!
//! let stream = ArrivalStream::new(params.clone(), 3.0, 200, 11);
//! let greedy = PipelineDriver::new(FeeGreedyPacker::new(), ScheduledEngine::new(4), config.clone())
//!     .run(stream)
//!     .unwrap();
//!
//! let stream = ArrivalStream::new(params, 3.0, 200, 11);
//! let aware = PipelineDriver::new(ConcurrencyAwarePacker::new(4), ScheduledEngine::new(4), config)
//!     .run(stream)
//!     .unwrap();
//!
//! assert_eq!(greedy.total_failed + aware.total_failed, 0);
//! assert!(aware.mean_group_conflict_rate() <= greedy.mean_group_conflict_rate());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod itdg;
mod packer;
mod pool;
mod report;
mod step;
mod tracked;

// Re-exported so driver configuration reads naturally without a direct
// `blockconc-store` dependency.
pub use blockconc_store::{DiskConfig, StateBackendConfig, StoreStats};
pub use driver::{PipelineConfig, PipelineDriver};
pub use itdg::{block_group_sizes, effective_receiver, receiver_edge_is_weak, IncrementalTdg};
pub use packer::{
    block_capacity_txs, choose_component_cap, pack_capped, BlockPacker, BlockTemplate,
    ConcurrencyAwarePacker, FeeGreedyPacker, PackedBlock,
};
pub use pool::{
    gas_estimate, AdmitEffects, AdmitOutcome, Mempool, MempoolStats, PooledTx, ReadyChain,
    ReadyHeadKey,
};
pub use report::{receipts_digest, BlockRecord, PipelineRunReport};
pub use step::{
    begin_block_span, emit_admissions, emit_ingest, mount_state, ArrivalWindow, BlockTail,
    NodePipeline, NodeRound,
};
pub use tracked::TrackedPool;
