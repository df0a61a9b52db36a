//! The [`StateBackend`] trait, its write-set commit model and shared plumbing.

use blockconc_types::{Address, Error, Result};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// One account's full persisted value: the unit of journal records and snapshots.
///
/// Contract code is carried as an opaque, canonical JSON blob (produced by
/// `blockconc-account`'s adapter) so this crate stays independent of the VM.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoredAccount {
    /// Balance in base units.
    pub balance_sats: u64,
    /// Transaction nonce.
    pub nonce: u64,
    /// Non-zero storage slots, sorted by slot key (canonical order).
    pub storage: Vec<(u64, u64)>,
    /// Serialized contract code, if the account is a contract.
    pub code_json: Option<String>,
}

impl StoredAccount {
    /// Appends this account's canonical bytes to `buf`: the one encoding the
    /// state root digests every account through.
    pub fn digest_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.balance_sats.to_le_bytes());
        buf.extend_from_slice(&self.nonce.to_le_bytes());
        buf.extend_from_slice(&(self.storage.len() as u64).to_le_bytes());
        for (k, v) in &self.storage {
            buf.extend_from_slice(&k.to_le_bytes());
            buf.extend_from_slice(&v.to_le_bytes());
        }
        match &self.code_json {
            Some(code) => {
                buf.extend_from_slice(&(code.len() as u64).to_le_bytes());
                buf.extend_from_slice(code.as_bytes());
            }
            None => buf.extend_from_slice(&u64::MAX.to_le_bytes()),
        }
    }
}

/// One record of a block's write set: the new full value of a touched account, or
/// its deletion (an account created and rolled back within the block).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaRecord {
    /// The touched account.
    pub address: Address,
    /// The account's post-block value; `None` deletes it.
    pub account: Option<StoredAccount>,
}

/// What one [`StateBackend::commit_block`] cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommitStats {
    /// The committed height.
    pub height: u64,
    /// Delta records written.
    pub records: u64,
    /// Serialized bytes appended to the journal (0 for the in-memory backend).
    pub bytes: u64,
}

/// Cumulative counters of one backend instance, for run reports and the
/// snapshot-compaction invariant tests.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Backend name (`"memory"` or `"disk-journal"`).
    pub backend: String,
    /// Blocks committed through this instance.
    pub committed_blocks: u64,
    /// Delta records written.
    pub records_written: u64,
    /// Journal bytes appended (0 for the in-memory backend).
    pub bytes_written: u64,
    /// Account records read back to mount a recovered store
    /// ([`StateBackend::for_each_account`]); 0 for a store that was only
    /// written.
    pub backend_reads: u64,
    /// Bytes of those records.
    pub read_bytes: u64,
    /// Snapshot compactions performed.
    pub snapshots_written: u64,
    /// Journal writes (append + flush): one per committed block, so this
    /// equals `committed_blocks` on the disk backend and is 0 on the memory
    /// backend.
    pub group_flushes: u64,
    /// Blocks replayed from the journal when the backend was opened.
    pub replayed_blocks: u64,
    /// Records replayed when the backend was opened — bounded by the records
    /// written since the last snapshot (the compaction invariant the tests
    /// assert).
    pub replayed_records: u64,
}

/// The block journal under `WorldState`.
///
/// The resident `WorldState` is the whole state; a backend only records it. The
/// owner opens a block with [`begin_block`](StateBackend::begin_block) and
/// [`commit_block`](StateBackend::commit_block)s the block's write set, which the
/// backend pulls record by record.
/// Nothing is read back while the state runs: a backend is read exactly once,
/// through [`for_each_account`](StateBackend::for_each_account), when a state is
/// mounted on a store that already holds commits.
pub trait StateBackend: Send + std::fmt::Debug {
    /// A short, stable name for reports and benchmark labels.
    fn name(&self) -> &'static str;

    /// Opens block `height` (must be greater than the committed height).
    ///
    /// # Errors
    ///
    /// Returns an error if a block is already open or `height` is not ahead of the
    /// committed height.
    fn begin_block(&mut self, height: u64) -> Result<()>;

    /// Commits `records` as block `height`'s write set and makes it durable.
    ///
    /// The owner hands the write set over as an iterator that builds each
    /// record when it is pulled, in ascending address order, and knows its
    /// length up front. A backend pulls only what it keeps: the disk backend
    /// pulls every record and journals it; the memory backend reads `len()`
    /// and pulls none, so a state mounted on it never builds a record.
    ///
    /// # Errors
    ///
    /// Returns an error if `height` does not match the open block (or, with no
    /// open block, is not ahead of the committed height), or on I/O failure.
    fn commit_block(
        &mut self,
        height: u64,
        records: &mut dyn ExactSizeIterator<Item = DeltaRecord>,
    ) -> Result<CommitStats>;

    /// The last committed block's height, or `None` if nothing has ever been
    /// committed. Genesis commits at height 0 by convention, so this is what
    /// tells a fresh store from a reopened one whose genesis was empty.
    fn committed_block(&self) -> Option<u64>;

    /// Hands every committed account to `f`, in ascending address order: the
    /// one read of a store, when a state is mounted on it.
    ///
    /// # Errors
    ///
    /// Returns an error if a committed record cannot be read or decoded (a
    /// mount without the account would be a different state), if `f` fails, or
    /// if the backend keeps no accounts to hand over.
    fn for_each_account(
        &mut self,
        f: &mut dyn FnMut(Address, StoredAccount) -> Result<()>,
    ) -> Result<()>;

    /// Cumulative counters.
    fn stats(&self) -> StoreStats;
}

/// The block protocol both backends enforce: at most one open block, and every
/// height strictly ahead of the committed one. Checking a commit and marking it
/// committed are separate steps, so a backend moves the committed height only
/// once its write has succeeded.
#[derive(Debug, Default)]
pub(crate) struct BlockScope {
    open: Option<u64>,
    committed: Option<u64>,
}

impl BlockScope {
    /// A scope with nothing open at `committed` (a recovered store's height).
    pub(crate) fn at(committed: Option<u64>) -> Self {
        BlockScope {
            open: None,
            committed,
        }
    }

    /// The last committed height.
    pub(crate) fn committed(&self) -> Option<u64> {
        self.committed
    }

    /// Opens block `height`.
    pub(crate) fn begin(&mut self, height: u64) -> Result<()> {
        if let Some(open) = self.open {
            return Err(Error::validation(format!(
                "block {open} is already open, cannot begin {height}"
            )));
        }
        if let Some(committed) = self.committed {
            if height <= committed {
                return Err(Error::validation(format!(
                    "cannot begin block {height} at committed height {committed}"
                )));
            }
        }
        self.open = Some(height);
        Ok(())
    }

    /// Checks that block `height` may commit: it is the open block, or, with
    /// none open, it is ahead of the committed height.
    pub(crate) fn check_commit(&self, height: u64) -> Result<()> {
        match self.open {
            Some(open) if open != height => Err(Error::validation(format!(
                "delta height {height} does not match open block {open}"
            ))),
            None if self.committed.is_some_and(|c| height <= c) => Err(Error::validation(format!(
                "cannot commit block {height} behind committed height"
            ))),
            _ => Ok(()),
        }
    }

    /// Records block `height` as committed and closes it.
    pub(crate) fn mark_committed(&mut self, height: u64) {
        self.open = None;
        self.committed = Some(height);
    }
}

/// A backend handle shareable across `WorldState` clones (each clone owns its
/// working set; all clones read the same committed store).
pub type SharedBackend = Arc<Mutex<dyn StateBackend>>;

/// Wraps a backend into a [`SharedBackend`] handle.
pub fn shared(backend: impl StateBackend + 'static) -> SharedBackend {
    Arc::new(Mutex::new(backend))
}

/// Configuration of the disk-backed journal store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskConfig {
    /// Directory holding the journal and snapshot files (created if missing).
    pub dir: PathBuf,
    /// Snapshot-compact the journal every this many committed blocks; 0 disables
    /// compaction (the journal grows with history).
    pub snapshot_every: u64,
}

impl DiskConfig {
    /// A disk store rooted at `dir` with compaction every 64 blocks.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskConfig {
            dir: dir.into(),
            snapshot_every: 64,
        }
    }
}

/// Which state backend a pipeline run mounts under its `WorldState` — the
/// `PipelineConfig::state_backend` switch.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum StateBackendConfig {
    /// The in-memory journal that keeps only its counters (the default; behaves
    /// bit-identically to a `WorldState` without a backend).
    #[default]
    InMemory,
    /// The log-structured disk journal with snapshot compaction.
    Disk(DiskConfig),
}

impl StateBackendConfig {
    /// Builds the configured backend.
    ///
    /// # Errors
    ///
    /// Returns an error if the disk store cannot be created or recovered.
    pub fn build(&self) -> Result<SharedBackend> {
        match self {
            StateBackendConfig::InMemory => Ok(shared(crate::MemoryBackend::new())),
            StateBackendConfig::Disk(config) => Ok(shared(crate::DiskBackend::open(config)?)),
        }
    }

    /// Returns `None`. A mounted `WorldState` keeps every account resident, so
    /// there is no cap to configure; the method stays only because the
    /// wall-clock benchmark's frozen surface still calls it.
    pub fn working_set_cap(&self) -> Option<usize> {
        None
    }

    /// A short label for benchmark tables.
    pub fn label(&self) -> &'static str {
        match self {
            StateBackendConfig::InMemory => "memory",
            StateBackendConfig::Disk(_) => "disk",
        }
    }

    /// This configuration specialized to one shard of an address-partitioned
    /// cluster: the in-memory backend partitions trivially (each shard gets its
    /// own), the disk backend roots each shard's journal in a `shard-N`
    /// subdirectory so N node-shards own N disjoint stores.
    pub fn partition(&self, shard: usize) -> StateBackendConfig {
        match self {
            StateBackendConfig::InMemory => StateBackendConfig::InMemory,
            StateBackendConfig::Disk(config) => StateBackendConfig::Disk(DiskConfig {
                dir: config.dir.join(format!("shard-{shard:03}")),
                ..config.clone()
            }),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A write set of the given length that panics when a record is pulled.
    pub(crate) struct Unpullable(pub(crate) usize);

    impl Iterator for Unpullable {
        type Item = DeltaRecord;

        fn next(&mut self) -> Option<DeltaRecord> {
            panic!("the backend pulled a record")
        }

        fn size_hint(&self) -> (usize, Option<usize>) {
            (self.0, Some(self.0))
        }
    }

    impl ExactSizeIterator for Unpullable {}

    /// The block protocol on a fresh `backend`: a second open block, a commit
    /// at another height and a commit behind the committed height all fail
    /// before a record is pulled, and move nothing.
    pub(crate) fn assert_block_scope_is_enforced(backend: &mut dyn StateBackend) {
        backend.begin_block(1).unwrap();
        assert!(backend.begin_block(2).is_err());
        assert!(
            backend.commit_block(9, &mut Unpullable(1)).is_err(),
            "not the open height"
        );
        assert_eq!(backend.committed_block(), None);
        backend
            .commit_block(1, &mut Vec::new().into_iter())
            .unwrap();
        assert!(
            backend.begin_block(1).is_err(),
            "not ahead of the committed height"
        );
        assert!(
            backend.commit_block(1, &mut Unpullable(1)).is_err(),
            "nothing open, and not ahead of the committed height"
        );
        assert_eq!(backend.committed_block(), Some(1));
        let totals = backend.stats();
        assert_eq!((totals.committed_blocks, totals.records_written), (1, 0));
    }

    #[test]
    fn digest_distinguishes_code_presence() {
        let mut plain = Vec::new();
        let mut coded = Vec::new();
        let acct = StoredAccount {
            balance_sats: 1,
            nonce: 0,
            storage: vec![],
            code_json: None,
        };
        acct.digest_into(&mut plain);
        StoredAccount {
            code_json: Some("[]".to_string()),
            ..acct
        }
        .digest_into(&mut coded);
        assert_ne!(plain, coded);
    }

    #[test]
    fn partition_roots_each_shard_in_its_own_subdirectory() {
        assert_eq!(
            StateBackendConfig::InMemory.partition(3),
            StateBackendConfig::InMemory
        );
        let disk = StateBackendConfig::Disk(DiskConfig::new("/tmp/cluster"));
        match disk.partition(2) {
            StateBackendConfig::Disk(config) => {
                assert_eq!(config.dir, PathBuf::from("/tmp/cluster/shard-002"));
                assert_eq!(config.snapshot_every, DiskConfig::new("/x").snapshot_every);
            }
            other => panic!("expected a disk partition, got {other:?}"),
        }
    }

    #[test]
    fn config_defaults_to_memory_and_labels() {
        assert_eq!(StateBackendConfig::default(), StateBackendConfig::InMemory);
        assert_eq!(StateBackendConfig::InMemory.label(), "memory");
        assert_eq!(StateBackendConfig::InMemory.working_set_cap(), None);
        let disk = StateBackendConfig::Disk(DiskConfig::new("/tmp/x"));
        assert_eq!(disk.label(), "disk");
        assert_eq!(disk.working_set_cap(), None);
    }
}
