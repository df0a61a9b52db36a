//! A small stack-based, gas-metered contract virtual machine.
//!
//! The VM exists so that the Ethereum-style workloads in `blockconc-chainsim` produce
//! *internal transactions* (contract-to-contract calls and value transfers) the same
//! way real ones do: by executing contract code. The paper defines internal
//! transactions as the interactions between contracts that generate a trace in geth;
//! here they are the [`InternalTransaction`](crate::InternalTransaction) records
//! emitted by [`Interpreter::call`].
//!
//! The instruction set is intentionally small — arithmetic, storage access, value
//! transfers, calls to other contracts, and control flow — but each instruction is gas
//! metered with EVM-like magnitudes so gas-weighted metrics behave realistically.
//!
//! # Examples
//!
//! A "splitter" contract that forwards its entire call value to a hard-coded address:
//!
//! ```
//! use std::sync::Arc;
//! use blockconc_types::{Address, Amount, Gas};
//! use blockconc_account::{StateAccess, WorldState};
//! use blockconc_account::vm::{CallParams, Contract, Interpreter, OpCode};
//!
//! let beneficiary = Address::from_low(7);
//! let splitter_addr = Address::from_low(100);
//! let splitter = Contract::new(vec![
//!     OpCode::CallValue,                  // push the value sent with the call
//!     OpCode::Transfer(beneficiary),      // forward it
//!     OpCode::Stop,
//! ]);
//!
//! let mut state = WorldState::new();
//! state.deploy_contract(splitter_addr, Arc::new(splitter));
//! state.credit(Address::from_low(1), Amount::from_coins(1));
//!
//! let mut interp = Interpreter::new();
//! let outcome = interp
//!     .call(&mut state, CallParams {
//!         caller: Address::from_low(1),
//!         target: splitter_addr,
//!         value: Amount::from_sats(500),
//!         args: vec![],
//!         gas_limit: Gas::new(100_000),
//!     })
//!     .unwrap();
//! assert_eq!(state.balance(beneficiary), Amount::from_sats(500));
//! assert_eq!(outcome.internal_transactions.len(), 1);
//! ```

mod contract;
mod interpreter;
mod opcode;

pub use contract::Contract;
pub use interpreter::{CallOutcome, CallParams, Interpreter};
pub use opcode::{GasSchedule, OpCode};
