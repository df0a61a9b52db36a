//! The [`StateBackend`] trait, its block-delta commit model and shared plumbing.

use crate::{StateKey, StateValue};
use blockconc_types::{Address, Result};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// A commit of `records` delta records totalling `bytes` serialized bytes costs this
/// many abstract model units per [`STORE_RECORDS_PER_UNIT`] records…
pub const STORE_RECORDS_PER_UNIT: u64 = 8;
/// …plus this many bytes per unit: appending a framed ~100-byte record is roughly an
/// order of magnitude cheaper than executing one intrinsic-gas transfer, which is the
/// workspace's 1-unit reference. The conversion is documented in
/// `crates/store/README.md` and recorded per block in `BlockRecord::store_units`.
pub const STORE_BYTES_PER_UNIT: u64 = 4096;

/// Converts a commit's record and byte counts into abstract model units, the same
/// currency as the execution engines' `parallel_units` (1 unit ≈ one transaction
/// execution).
pub fn store_units(records: u64, bytes: u64) -> u64 {
    records.div_ceil(STORE_RECORDS_PER_UNIT) + bytes.div_ceil(STORE_BYTES_PER_UNIT)
}

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
    /// Reads a storage slot (missing slots read as zero).
    pub fn storage_get(&self, key: u64) -> u64 {
        match self.storage.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(pos) => self.storage[pos].1,
            Err(_) => 0,
        }
    }

    /// This account's value under `key` (which must address this account): what
    /// [`StateBackend::get`] answers once the account is in hand.
    pub fn value_of(&self, key: &StateKey) -> StateValue {
        match key {
            StateKey::Balance(_) => StateValue::AccountMeta {
                balance_sats: self.balance_sats,
                nonce: self.nonce,
            },
            StateKey::Storage(_, slot) => StateValue::Slot(self.storage_get(*slot)),
            StateKey::Code(_) => StateValue::CodeDigest(self.code_digest()),
        }
    }

    /// Identity digest of the deployed code (FNV-1a over the canonical JSON),
    /// `0` when the account has no code. Backing value of
    /// [`StateValue::CodeDigest`](crate::StateValue::CodeDigest).
    pub fn code_digest(&self) -> u64 {
        let Some(code) = &self.code_json else {
            return 0;
        };
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in code.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// Appends this account's canonical bytes to `buf` (used for state roots: both
    /// cached and persisted views digest through this one encoding).
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

/// The write set of one committed block, in canonical (address-sorted) order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockDelta {
    /// The committed block's height.
    pub height: u64,
    /// The touched accounts' new values, sorted by address.
    pub records: Vec<DeltaRecord>,
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
    /// The commit's cost in abstract model units (see [`store_units`]).
    pub store_units: u64,
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
    /// Total commit cost in model units.
    pub commit_units: u64,
    /// Point reads answered by the backend (cache misses in the working set).
    pub backend_reads: u64,
    /// Bytes read from disk to answer point reads.
    pub read_bytes: u64,
    /// Snapshot compactions performed.
    pub snapshots_written: u64,
    /// Commit groups sealed (journal write + flush). With `group_commit_every`
    /// = 1 this equals the committed blocks; larger groups amortize flushes.
    pub group_flushes: u64,
    /// Blocks replayed from the journal when the backend was opened.
    pub replayed_blocks: u64,
    /// Records replayed when the backend was opened.
    pub replayed_records: u64,
    /// Replay cost at open, in model units — bounded by blocks since the last
    /// snapshot (the compaction invariant the tests assert).
    pub replay_units: u64,
}

/// A block-scoped key–value state store under `WorldState`.
///
/// The contract mirrors how execution clients commit state: the owner opens a block
/// with [`begin_block`](StateBackend::begin_block), accumulates writes in its own
/// working set, and either [`commit_block`](StateBackend::commit_block)s the block's
/// write-set delta or [`rollback_block`](StateBackend::rollback_block)s it. Point
/// reads ([`get_account`](StateBackend::get_account)) always observe the last
/// *committed* state — uncommitted writes live in the caller's working set, which is
/// exactly what makes per-block rollback free.
pub trait StateBackend: Send + std::fmt::Debug {
    /// A short, stable name for reports and benchmark labels.
    fn name(&self) -> &'static str;

    /// Reads an account's last committed value.
    fn get_account(&mut self, address: Address) -> Option<StoredAccount>;

    /// Returns `true` if the account exists in committed state.
    fn contains_account(&mut self, address: Address) -> bool {
        self.get_account(address).is_some()
    }

    /// Reads one [`StateKey`]'s committed value (`None` when the account does not
    /// exist). The default loads the whole account and picks the key out of it —
    /// right for a store whose unit of I/O is the account record; a backend that
    /// can answer one key without assembling the account overrides it, and
    /// `WorldState` takes this call on every resident miss of a value accessor.
    fn get(&mut self, key: &StateKey) -> Option<StateValue> {
        Some(self.get_account(key.address())?.value_of(key))
    }

    /// Opens block `height` (must be greater than the committed height).
    ///
    /// # Errors
    ///
    /// Returns an error if a block is already open or `height` is not ahead of the
    /// committed height.
    fn begin_block(&mut self, height: u64) -> Result<()>;

    /// Commits `delta` as the open block's write set and makes it durable.
    ///
    /// # Errors
    ///
    /// Returns an error if the delta's height does not match the open block (or, with
    /// no open block, is not ahead of the committed height), or on I/O failure.
    fn commit_block(&mut self, delta: &BlockDelta) -> Result<CommitStats>;

    /// Abandons the open block. Nothing was persisted for it, so this only clears
    /// the block scope.
    ///
    /// # Errors
    ///
    /// Returns an error if no block is open.
    fn rollback_block(&mut self) -> Result<()>;

    /// The last committed block's height, or `None` if nothing has ever been
    /// committed. Genesis commits at height 0 by convention, so this (not
    /// [`committed_height`](StateBackend::committed_height)) is what tells a
    /// fresh store from a reopened one whose genesis was empty.
    fn committed_block(&self) -> Option<u64>;

    /// The height of the last committed block (0 before any commit).
    fn committed_height(&self) -> u64 {
        self.committed_block().unwrap_or(0)
    }

    /// The currently open block, if any.
    fn open_height(&self) -> Option<u64>;

    /// Number of accounts in committed state.
    fn account_count(&self) -> usize;

    /// Visits every committed account in ascending address order, except those
    /// `skip` returns `true` for.
    ///
    /// `skip` is asked first, once per committed address: a skipped account is
    /// neither read nor cloned, so a caller that already holds the current value
    /// of an account (a resident or dirty one in `WorldState`'s working set)
    /// pays nothing for it. An account that is not skipped but cannot be read is
    /// store corruption, as in [`get_account`](StateBackend::get_account): the
    /// walk panics rather than leave it out. Pass `&|_| false` to visit all.
    fn for_each_account(
        &mut self,
        skip: &dyn Fn(Address) -> bool,
        f: &mut dyn FnMut(Address, StoredAccount),
    );

    /// Cumulative counters.
    fn stats(&self) -> StoreStats;

    /// Flushes buffered writes to the underlying medium.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure.
    fn flush(&mut self) -> Result<()> {
        Ok(())
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
    /// Soft cap on `WorldState`'s resident account cache; 0 means unbounded.
    /// Contract accounts are always kept resident.
    pub working_set_cap: usize,
    /// Snapshot-compact the journal every this many committed blocks; 0 disables
    /// compaction (the journal grows with history).
    pub snapshot_every: u64,
    /// Group commits: flush the journal to disk every this many committed blocks
    /// (1 — the default — flushes every block, today's behaviour; 0 behaves like
    /// 1). Blocks committed since the last group flush are readable and recorded
    /// in the live index, but a crash loses them: recovery lands exactly on the
    /// last *sealed* group boundary. Explicit [`StateBackend::flush`], snapshot
    /// compaction and a clean drop all seal the open group.
    pub group_commit_every: u64,
}

impl DiskConfig {
    /// A disk store rooted at `dir` with an unbounded working set, compaction
    /// every 64 blocks, and per-block journal flushes (no commit grouping).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskConfig {
            dir: dir.into(),
            working_set_cap: 0,
            snapshot_every: 64,
            group_commit_every: 1,
        }
    }
}

/// Which state backend a pipeline run mounts under its `WorldState` — the
/// `PipelineConfig::state_backend` switch.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum StateBackendConfig {
    /// The in-memory map behind the [`StateBackend`] trait (the default; behaves
    /// bit-identically to the pre-trait `WorldState`).
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

    /// The working-set cap the `WorldState` cache should honour, if any.
    pub fn working_set_cap(&self) -> Option<usize> {
        match self {
            StateBackendConfig::InMemory => None,
            StateBackendConfig::Disk(config) => {
                (config.working_set_cap > 0).then_some(config.working_set_cap)
            }
        }
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
    /// own map), the disk backend roots each shard's journal in a `shard-N`
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
mod tests {
    use super::*;

    #[test]
    fn store_units_round_up_per_component() {
        assert_eq!(store_units(0, 0), 0);
        assert_eq!(store_units(1, 1), 2);
        assert_eq!(store_units(8, 4096), 2);
        assert_eq!(store_units(9, 4097), 4);
    }

    #[test]
    fn stored_account_storage_get_binary_searches() {
        let acct = StoredAccount {
            balance_sats: 1,
            nonce: 2,
            storage: vec![(1, 10), (5, 50), (9, 90)],
            code_json: None,
        };
        assert_eq!(acct.storage_get(5), 50);
        assert_eq!(acct.storage_get(4), 0);
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
        let disk = StateBackendConfig::Disk(DiskConfig {
            working_set_cap: 16,
            ..DiskConfig::new("/tmp/x")
        });
        assert_eq!(disk.label(), "disk");
        assert_eq!(disk.working_set_cap(), Some(16));
    }
}
