//! Transaction dependency graphs (TDGs), connected components and conflict metrics —
//! the heart of the paper's methodology (Section III).
//!
//! A block is modelled as a graph whose structure depends on the data model:
//!
//! * **UTXO-based** blocks: each node is a (non-coinbase) transaction, and an edge runs
//!   from transaction `a` to transaction `b` when a TXO created by `a` is spent by `b`
//!   inside the same block ([`build_utxo_tdg`]).
//! * **Account-based** blocks: each node is an address referenced by a transaction in
//!   the block, and an edge runs from sender to receiver for every regular *and
//!   internal* transaction ([`build_account_tdg`]).
//!
//! From the graph's connected components two conflict metrics are derived per block
//! ([`BlockMetrics`]):
//!
//! * the **single-transaction conflict rate** — conflicted transactions / total
//!   transactions, and
//! * the **group conflict rate** — size of the largest connected component (in
//!   transactions) / total transactions.
//!
//! Beside the paper's address-level TDG sits the storage-level relation the
//! execution evaluators and the contention profiler measure: [`conflict_groups`]
//! groups a block's transactions by the keys their recorded
//! [`AccessSet`](blockconc_account::AccessSet)s share, under exactly
//! [`AccessSet::conflicts_with`](blockconc_account::AccessSet::conflicts_with)
//! (reads, writes and commutative deltas), in one pass with no list of pairs.
//!
//! Streaming consumers (the mempool's incremental TDG, the thread- and node-level
//! routers, the packers' block-local grouping) track components of a changing
//! transaction set rather than of one block. They all sit on [`ComponentIndex`]:
//! key interning, the [`UnionFind`], one payload per component, the fold on union,
//! whole-component release and the reuse of released nodes live there and
//! nowhere else. Where a component lives is [`canonical_shard`] /
//! [`canonical_shard_epoch`]: one placement rule for every sharded layer.
//!
//! # Examples
//!
//! ```
//! use blockconc_types::{Address, Amount};
//! use blockconc_account::{AccountTransaction, BlockBuilder, BlockExecutor, WorldState};
//! use blockconc_graph::build_account_tdg;
//!
//! // Three independent transfers and one sharing a sender: 2 of 4 conflicted.
//! let mut state = WorldState::new();
//! for i in 1..=5u64 {
//!     state.credit(Address::from_low(i), Amount::from_coins(1));
//! }
//! let block = BlockBuilder::new(1, 0, Address::from_low(99))
//!     .transaction(AccountTransaction::transfer(Address::from_low(1), Address::from_low(10), Amount::from_sats(1), 0))
//!     .transaction(AccountTransaction::transfer(Address::from_low(2), Address::from_low(11), Amount::from_sats(1), 0))
//!     .transaction(AccountTransaction::transfer(Address::from_low(3), Address::from_low(12), Amount::from_sats(1), 0))
//!     .transaction(AccountTransaction::transfer(Address::from_low(3), Address::from_low(13), Amount::from_sats(1), 1))
//!     .build();
//! let executed = BlockExecutor::new().execute_block(&mut state, &block).unwrap();
//! let analysis = build_account_tdg(&executed);
//! let metrics = analysis.metrics();
//! assert_eq!(metrics.tx_count(), 4);
//! assert_eq!(metrics.conflicted_count(), 2);
//! assert!((metrics.single_tx_conflict_rate() - 0.5).abs() < 1e-9);
//! assert!((metrics.group_conflict_rate() - 0.5).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder_account;
mod builder_utxo;
mod component_index;
mod components;
mod conflicts;
mod dot;
mod metrics;
mod placement;
mod tdg;
mod union_find;
mod weights;

pub use builder_account::{
    build_account_tdg, effective_receiver, receiver_edge_is_weak, AccountTdgAnalysis,
};
pub use builder_utxo::{build_utxo_tdg, UtxoTdgAnalysis};
pub use component_index::{ComponentIndex, ComponentPayload};
pub use components::{connected_components, largest_component_size};
pub use conflicts::{conflict_groups, ConflictGroups};
pub use dot::tdg_to_dot;
pub use metrics::BlockMetrics;
pub use placement::{canonical_shard, canonical_shard_epoch};
pub use tdg::Tdg;
pub use union_find::UnionFind;
pub use weights::{weighted_average, BlockWeight};
