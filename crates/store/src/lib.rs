//! Journaled persistent state backends for the blockconc workspace.
//!
//! `WorldState` (in `blockconc-account`) holds the whole state in memory: every
//! committed account is resident, as a validator executing a block holds the
//! state it executes over. A [`StateBackend`] is the *journal* of that state. It
//! takes each block's write-set delta at commit time, and it is read exactly
//! once, when a state is mounted on a store that already holds commits.
//!
//! Two implementations:
//!
//! * [`MemoryBackend`] — no I/O and no copy of the state: it enforces the block
//!   protocol and counts records, so a pipeline on it behaves bit-identically to
//!   a `WorldState` without a backend.
//! * [`DiskBackend`] — a log-structured store: an append-only journal of framed,
//!   CRC-guarded per-block write-set deltas, periodic snapshots of the state its
//!   owner hands down, each starting a fresh journal epoch, and
//!   recovery-by-replay on open (torn tails discarded, torn snapshots falling back
//!   one generation). It keeps nothing per account while a state runs on it.
//!   See `crates/store/README.md` for the format and protocol.
//!
//! Every commit reports its records and bytes ([`CommitStats`]) and every backend
//! its cumulative counters ([`StoreStats`]): records and bytes written, records
//! read at mount, flushes, snapshots and what replay read at open. What a commit
//! costs by the clock is the pipeline's store stage.
//!
//! # Examples
//!
//! ```
//! use blockconc_store::{DeltaRecord, MemoryBackend, StateBackend, StoredAccount};
//! use blockconc_types::Address;
//!
//! let mut backend = MemoryBackend::new();
//! backend.begin_block(1).unwrap();
//! let records = vec![DeltaRecord {
//!     address: Address::from_low(1),
//!     account: Some(StoredAccount {
//!         balance_sats: 42,
//!         nonce: 0,
//!         storage: vec![],
//!         code: None,
//!     }),
//! }];
//! // The memory backend pulls neither the records nor the state after the block.
//! let stats = backend
//!     .commit_block(1, &mut records.into_iter(), &mut std::iter::empty())
//!     .unwrap();
//! assert_eq!(stats.records, 1);
//! assert_eq!(backend.committed_block(), Some(1));
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
    shared, CommitStats, DeltaRecord, DiskConfig, SharedBackend, StateBackend, StateBackendConfig,
    StoreStats, StoredAccount,
};
pub use disk::DiskBackend;
pub use fragment::{apply_fragment, diff_account_fragments, FragmentValue, StateFragment};
pub use key::StateKey;
pub use memory::MemoryBackend;
