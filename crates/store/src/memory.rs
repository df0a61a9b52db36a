//! The in-memory backend: a block journal that keeps its counters and nothing
//! else.

use crate::backend::BlockScope;
use crate::{CommitStats, DeltaRecord, StateBackend, StoreStats, StoredAccount};
use blockconc_types::{Address, Error, Result};

/// A block journal with no medium.
///
/// Zero I/O and no copy of the state: [`commit_block`](StateBackend::commit_block)
/// checks the block protocol and counts the write set's records by its
/// `len()`, without pulling (and so without building) a single one, and never
/// pulls the state. A pipeline
/// mounted on this backend behaves bit-identically to a `WorldState` without
/// one while exercising the same block-scoped commit protocol as the disk
/// journal. Nothing it is handed outlives the process, so there is never a
/// recovered state to mount:
/// [`for_each_account`](StateBackend::for_each_account) on a backend that
/// holds commits is an error.
///
/// # Examples
///
/// ```
/// use blockconc_store::{DeltaRecord, MemoryBackend, StateBackend, StoredAccount};
/// use blockconc_types::Address;
///
/// let mut backend = MemoryBackend::new();
/// backend.begin_block(1).unwrap();
/// let records = vec![DeltaRecord {
///     address: Address::from_low(7),
///     account: Some(StoredAccount {
///         balance_sats: 100,
///         nonce: 0,
///         storage: vec![],
///         code: None,
///     }),
/// }];
/// // The memory backend pulls neither the records nor the state after the block.
/// backend
///     .commit_block(1, &mut records.into_iter(), &mut std::iter::empty())
///     .unwrap();
/// assert_eq!(backend.committed_block(), Some(1));
/// assert_eq!(backend.stats().records_written, 1);
/// ```
#[derive(Debug, Default)]
pub struct MemoryBackend {
    scope: BlockScope,
    stats: StoreStats,
}

impl MemoryBackend {
    /// Creates an empty in-memory backend.
    pub fn new() -> Self {
        MemoryBackend {
            stats: StoreStats {
                backend: "memory".to_string(),
                ..StoreStats::default()
            },
            ..MemoryBackend::default()
        }
    }
}

impl StateBackend for MemoryBackend {
    fn name(&self) -> &'static str {
        "memory"
    }

    fn begin_block(&mut self, height: u64) -> Result<()> {
        self.scope.begin(height)
    }

    fn commit_block(
        &mut self,
        height: u64,
        records: &mut dyn ExactSizeIterator<Item = DeltaRecord>,
        _state: &mut dyn ExactSizeIterator<Item = (Address, StoredAccount)>,
    ) -> Result<CommitStats> {
        self.scope.check_commit(height)?;
        self.scope.mark_committed(height);
        let records = records.len() as u64;
        self.stats.committed_blocks += 1;
        self.stats.records_written += records;
        Ok(CommitStats {
            height,
            records,
            bytes: 0,
        })
    }

    fn committed_block(&self) -> Option<u64> {
        self.scope.committed()
    }

    /// A fresh backend holds no accounts; one that holds commits kept none of
    /// them, so mounting it fails instead of recovering an empty state.
    fn for_each_account(
        &mut self,
        _f: &mut dyn FnMut(Address, StoredAccount) -> Result<()>,
    ) -> Result<()> {
        match self.scope.committed() {
            None => Ok(()),
            Some(height) => Err(Error::validation(format!(
                "the memory backend keeps no accounts: nothing to mount at height {height}"
            ))),
        }
    }

    fn stats(&self) -> StoreStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::tests::{assert_block_scope_is_enforced, commit, unpullable};
    use std::collections::BTreeMap;

    fn upsert(addr: u64, balance: u64) -> DeltaRecord {
        DeltaRecord {
            address: Address::from_low(addr),
            account: Some(StoredAccount {
                balance_sats: balance,
                nonce: 0,
                storage: vec![],
                code: None,
            }),
        }
    }

    #[test]
    fn commit_counts_records_and_keeps_no_accounts() {
        let mut backend = MemoryBackend::new();
        let mut visit = |_: Address, _: StoredAccount| -> Result<()> { panic!("no account") };
        backend.for_each_account(&mut visit).unwrap();
        let mut model = BTreeMap::new();
        backend.begin_block(1).unwrap();
        commit(
            &mut backend,
            &mut model,
            1,
            vec![upsert(1, 10), upsert(2, 20)],
        )
        .unwrap();
        backend.begin_block(2).unwrap();
        let delete = DeltaRecord {
            address: Address::from_low(1),
            account: None,
        };
        let stats = commit(&mut backend, &mut model, 2, vec![delete]).unwrap();
        assert_eq!((stats.height, stats.records, stats.bytes), (2, 1, 0));
        assert_eq!(backend.committed_block(), Some(2));
        let totals = backend.stats();
        assert_eq!((totals.committed_blocks, totals.records_written), (2, 3));
        assert!(backend.for_each_account(&mut visit).is_err());
    }

    #[test]
    fn commits_a_write_set_without_pulling_a_record() {
        let mut backend = MemoryBackend::new();
        backend.begin_block(1).unwrap();
        let stats = backend
            .commit_block(1, &mut unpullable(3), &mut unpullable(3))
            .unwrap();
        assert_eq!((stats.height, stats.records, stats.bytes), (1, 3, 0));
        backend.begin_block(2).unwrap();
        assert_eq!(
            backend
                .commit_block(2, &mut unpullable(2), &mut unpullable(4))
                .unwrap()
                .records,
            2
        );
        let totals = backend.stats();
        assert_eq!((totals.committed_blocks, totals.records_written), (2, 5));
    }

    #[test]
    fn block_scope_is_enforced() {
        assert_block_scope_is_enforced(&mut MemoryBackend::new());
    }
}
