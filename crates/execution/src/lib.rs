//! Parallel block-execution engines.
//!
//! The paper stops at *estimating* speed-ups analytically and explicitly lists the
//! missing execution engine as future work ("One major limitation is that we have not
//! designed and implemented an execution engine that can exploit the available
//! concurrency"). This crate builds that engine, and evaluates the paper's two
//! models on real blocks so the analytical model of `blockconc-model` can be
//! validated against what executions actually touch — two engines and two
//! evaluators behind one trait:
//!
//! * [`SequentialEngine`] — the baseline: one transaction at a time, in block order,
//!   exactly like the clients of the chains the paper studies.
//! * [`SpeculativeEngine`] — evaluates the two-phase technique modelled by
//!   Equation (1): a parallel discovery pass executes every transaction against the
//!   pre-block state and keeps its read/write set, storage-level conflicts between
//!   the sets give the sequential bin, and the report charges `⌈x/n⌉ + bin` units.
//! * [`ScheduledEngine`] — evaluates the group-concurrency technique modelled by
//!   Equation (2): the same discovery pass, the conflict graph split into connected
//!   components, and the report charges the makespan of scheduling whole
//!   components (each internally sequential) LPT-style onto the worker threads.
//!
//!   Both evaluators commit by executing the block sequentially: what discovery
//!   observed against the pre-block state decides the reported units, never the
//!   committed state.
//! * [`OptimisticEngine`] — the Block-STM-style MVCC engine: every transaction
//!   executes optimistically over a multi-version view of the pre-block state on a
//!   persistent worker pool, read sets are validated lazily against the highest
//!   finished versions, invalidated transactions re-execute (bounded), and the block
//!   commits by installing the buffered write sets directly — nothing is re-executed
//!   to commit. Conflicts are tracked *and data is moved* per
//!   [`StateKey`](blockconc_store::StateKey) cell (balance/nonce, each storage
//!   slot and the code versioned independently): transactions writing different
//!   slots of one shared contract never conflict, and each pays for the cells it
//!   touches, not for the slots the contract holds. Pure credits and `SAdd`
//!   increments to one cell install as commutative delta cells, so they do not
//!   conflict either until some transaction reads the cell.
//!
//! Every engine returns both the canonical [`ExecutedBlock`](blockconc_account::ExecutedBlock)
//! (the committed state transition is always identical to sequential execution —
//! asserted for all four, on generated blocks over memory and cold disk state, by
//! `tests/equivalence_oracle.rs`) and an [`ExecutionReport`] of abstract time units
//! and counters that map one-to-one onto the quantities in the paper's model. The
//! engines do not time themselves: wall clock is the caller's (`benchmark/`'s
//! `execution.ladder.*.ns_per_tx`).
//!
//! # Examples
//!
//! ```
//! use blockconc_types::{Address, Amount};
//! use blockconc_account::{AccountTransaction, BlockBuilder, WorldState};
//! use blockconc_execution::{ExecutionEngine, SequentialEngine, SpeculativeEngine};
//!
//! let mut txs = Vec::new();
//! for i in 0..16u64 {
//!     txs.push(AccountTransaction::transfer(
//!         Address::from_low(100 + i), Address::from_low(200 + i), Amount::from_sats(1), 0));
//! }
//! let block = BlockBuilder::new(1, 0, Address::from_low(9)).transactions(txs).build();
//!
//! let mut seq_state = WorldState::new();
//! let mut spec_state = WorldState::new();
//! for i in 0..16u64 {
//!     seq_state.credit(Address::from_low(100 + i), Amount::from_coins(1));
//!     spec_state.credit(Address::from_low(100 + i), Amount::from_coins(1));
//! }
//!
//! let (seq_block, _) = SequentialEngine::new().execute(&mut seq_state, &block).unwrap();
//! let (spec_block, report) = SpeculativeEngine::new(4).execute(&mut spec_state, &block).unwrap();
//! assert_eq!(seq_block.receipts().len(), spec_block.receipts().len());
//! assert_eq!(report.conflicted_transactions, 0);
//! assert!(report.parallel_units < report.sequential_units);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod mvcc;
mod occ;
mod optimistic;
mod report;
mod scheduled;
mod sequential;
mod speculative;
mod thread_pool;

pub use engine::ExecutionEngine;
pub use occ::{detect_conflicts, ConflictMatrix};
pub use optimistic::{AbortInjection, OptimisticEngine};
pub use report::ExecutionReport;
pub use scheduled::ScheduledEngine;
pub use sequential::SequentialEngine;
pub use speculative::SpeculativeEngine;
pub use thread_pool::{Job, WorkerPool};
