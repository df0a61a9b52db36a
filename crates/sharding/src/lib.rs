//! Zilliqa-style network-sharding vocabulary and substrate.
//!
//! Zilliqa is the only sharded public blockchain in the paper's dataset. Its relevant
//! properties for the concurrency analysis are:
//!
//! * nodes run PoW to join a directory-service (DS) epoch and are assigned to small
//!   committees (shards) based on their solution ([`solve_pow`], [`CommitteeAssignment`]);
//! * transactions are routed to a shard **by sender address**, so one user's
//!   transactions always serialize on the same shard;
//! * cross-shard transactions (receiver homed on another shard) execute their debit
//!   half on the processing shard and ship a receipt-carrying credit to the
//!   receiver's home shard (the protocol `blockconc-cluster` implements);
//!   [`RoutedTransactions`] counts them as one credit *hop* each;
//! * each shard produces a microblock per round, and the DS committee merges the
//!   microblocks into a final transaction block.
//!
//! Since the cluster layer landed, this crate plays a **delegating role**: it owns
//! the shared vocabulary ([`NodeId`], [`ShardId`], [`Committee`], [`DsEpoch`],
//! [`MicroBlock`], [`FinalBlock`]) and the workspace-wide canonical placement rule
//! ([`canonical_shard`] / [`canonical_shard_epoch`]) that the thread-sharded
//! mempool (`blockconc-shardpool`), the cross-node cluster (`blockconc-cluster`)
//! and [`ShardedNetwork`] all route through — one hash, three layers, no drift.
//! The real per-shard pipelines (mempool, packer, engine, partitioned state
//! backend) live in `blockconc-cluster`; [`ShardedNetwork`] remains as the
//! lightweight static-routing model the paper's Zilliqa analysis uses.
//!
//! The analysis pipeline treats each *final block* as the unit of conflict analysis,
//! matching how the paper queried Zilliqa's chain.
//!
//! # Examples
//!
//! ```
//! use blockconc_types::{Address, Amount};
//! use blockconc_account::AccountTransaction;
//! use blockconc_sharding::{ShardedNetwork, ShardingConfig};
//!
//! let mut network = ShardedNetwork::new(ShardingConfig::small(), 42);
//! let txs = vec![
//!     AccountTransaction::transfer(Address::from_low(1), Address::from_low(2), Amount::from_sats(1), 0),
//!     AccountTransaction::transfer(Address::from_low(3), Address::from_low(4), Amount::from_sats(1), 0),
//! ];
//! let routed = network.route_transactions(txs);
//! assert_eq!(routed.total_transactions(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod committee;
mod ds_epoch;
mod network;
mod placement;
mod pow;
mod shard_chain;

pub use committee::{Committee, CommitteeAssignment, NodeId, ShardId};
pub use ds_epoch::DsEpoch;
pub use network::{RoutedTransactions, ShardedNetwork, ShardingConfig};
pub use placement::{canonical_shard, canonical_shard_epoch};
pub use pow::{solve_pow, PowSolution};
pub use shard_chain::{FinalBlock, MicroBlock, ShardChain};
