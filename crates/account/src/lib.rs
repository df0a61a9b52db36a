//! Account-based ledger substrate with a gas-metered contract virtual machine
//! (Ethereum, Ethereum Classic, Zilliqa).
//!
//! The paper's account-model analysis needs three things from the substrate:
//!
//! 1. **Addresses and transactions** — every transaction has a sender and a receiver
//!    address, and those addresses become the nodes of the transaction dependency
//!    graph (TDG).
//! 2. **Internal transactions** — contract-to-contract calls that do not appear as
//!    block transactions but still create TDG edges (the paper extracts them from geth
//!    traces). Here they are produced by actually executing contracts in a small
//!    stack-based virtual machine ([`vm`]) with gas metering.
//! 3. **Gas accounting** — Ethereum's conflict metrics are additionally weighted by
//!    gas, so every execution reports the gas it consumed.
//!
//! The crate therefore provides a world state ([`WorldState`]), transactions
//! ([`AccountTransaction`]), a contract VM, a sequential block executor
//! ([`BlockExecutor`]) that produces receipts with call traces, and the
//! per-transaction read/write [`AccessSet`]s that the parallel execution engines in
//! `blockconc-execution` rely on for conflict detection. The executor runs over
//! the [`StateAccess`] trait: on the resident [`WorldState`], or on a
//! [`ScratchState`] — the private, sparse view of state an engine executes one
//! transaction in, read cell by cell through a [`CellView`].
//!
//! # Examples
//!
//! ```
//! use blockconc_types::{Address, Amount, Gas};
//! use blockconc_account::{AccountTransaction, BlockBuilder, BlockExecutor, WorldState};
//!
//! let alice = Address::from_low(1);
//! let bob = Address::from_low(2);
//! let mut state = WorldState::new();
//! state.credit(alice, Amount::from_coins(10));
//!
//! let tx = AccountTransaction::transfer(alice, bob, Amount::from_coins(1), 0);
//! let block = BlockBuilder::new(1, 1_500_000_000, Address::from_low(99))
//!     .transaction(tx)
//!     .build();
//!
//! let executed = BlockExecutor::new().execute_block(&mut state, &block).unwrap();
//! assert_eq!(executed.receipts().len(), 1);
//! assert!(executed.receipts()[0].succeeded());
//! assert_eq!(state.balance(bob), Amount::from_coins(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod account;
mod block;
mod executor;
mod journal;
mod receipt;
mod scratch;
mod state;
mod transaction;
pub mod vm;

pub use account::Account;
pub use block::{AccountBlock, BlockBuilder, ExecutedBlock};
// `StateKey` moved to `blockconc-store` (the unit of backend storage); re-exported
// here so existing `blockconc_account::StateKey` imports keep working.
pub use access::AccessSet;
pub use blockconc_store::StateKey;
pub use executor::{BlockExecutor, TxContext};
pub use journal::Journal;
pub use receipt::{InternalTransaction, Receipt};
pub use scratch::{CellView, ScratchState};
pub use state::{account_to_stored, decode_contract, stored_to_account, StateAccess, WorldState};
pub use transaction::{AccountTransaction, TxPayload};
