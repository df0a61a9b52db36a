//! Journaled persistent state backends for the blockconc workspace.
//!
//! The paper's pipeline assumes the executor can materialize post-block state for
//! arbitrarily long histories; an in-memory map caps history at RAM. This crate
//! inverts the ownership of state: a [`StateBackend`] owns the *committed* state in
//! block-scoped commits, while `WorldState` (in `blockconc-account`) keeps only a
//! working set of resident accounts and pushes each block's write-set delta down at
//! commit time.
//!
//! Two implementations:
//!
//! * [`MemoryBackend`] — the historical in-memory map behind the trait; zero I/O,
//!   bit-identical pipeline behaviour to the pre-trait `WorldState`.
//! * [`DiskBackend`] — a log-structured store: an append-only journal of framed,
//!   CRC-guarded per-block write-set deltas, an in-memory address → record index,
//!   periodic snapshot compaction into a fresh journal epoch, and
//!   recovery-by-replay on open (torn tails discarded, torn snapshots falling back
//!   one generation). See `crates/store/README.md` for the format and protocol.
//!
//! Every commit reports its records and bytes ([`CommitStats`]) and every backend
//! its cumulative counters ([`StoreStats`]): records and bytes written, point
//! reads, flushes, snapshots and what replay read at open. What a commit costs by
//! the clock is the pipeline's store stage.
//!
//! # Examples
//!
//! ```
//! use blockconc_store::{
//!     BlockDelta, DeltaRecord, MemoryBackend, StateBackend, StoredAccount,
//! };
//! use blockconc_types::Address;
//!
//! let mut backend = MemoryBackend::new();
//! backend.begin_block(1).unwrap();
//! let stats = backend
//!     .commit_block(&BlockDelta {
//!         height: 1,
//!         records: vec![DeltaRecord {
//!             address: Address::from_low(1),
//!             account: Some(StoredAccount {
//!                 balance_sats: 42,
//!                 nonce: 0,
//!                 storage: vec![],
//!                 code_json: None,
//!             }),
//!         }],
//!     })
//!     .unwrap();
//! assert_eq!(stats.records, 1);
//! assert_eq!(backend.get_account(Address::from_low(1)).unwrap().balance_sats, 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod disk;
mod fragment;
pub mod journal;
mod key;
mod memory;

pub use backend::{
    shared, BlockDelta, CommitStats, DeltaRecord, DiskConfig, SharedBackend, StateBackend,
    StateBackendConfig, StoreStats, StoredAccount,
};
pub use disk::DiskBackend;
pub use fragment::{apply_fragment, diff_account_fragments, FragmentValue, StateFragment};
pub use key::{StateKey, StateValue};
pub use memory::MemoryBackend;
