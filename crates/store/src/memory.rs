//! The in-memory backend: a block journal that keeps its counters and nothing
//! else.

use crate::{CommitStats, DeltaRecord, StateBackend, StoreStats, StoredAccount};
use blockconc_types::{Address, Error, Result};

/// A block journal with no medium.
///
/// Zero I/O and no copy of the state: [`commit_block`](StateBackend::commit_block)
/// checks the block protocol and counts the write set's records by its
/// `len()`, without pulling (and so without building) a single one. A pipeline
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
///         code_json: None,
///     }),
/// }];
/// backend.commit_block(1, &mut records.into_iter()).unwrap();
/// assert_eq!(backend.committed_block(), Some(1));
/// assert_eq!(backend.stats().records_written, 1);
/// ```
#[derive(Debug, Default)]
pub struct MemoryBackend {
    committed: Option<u64>,
    open_height: Option<u64>,
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
        if let Some(open) = self.open_height {
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
        self.open_height = Some(height);
        Ok(())
    }

    fn commit_block(
        &mut self,
        height: u64,
        records: &mut dyn ExactSizeIterator<Item = DeltaRecord>,
    ) -> Result<CommitStats> {
        match self.open_height {
            Some(open) if open != height => {
                return Err(Error::validation(format!(
                    "delta height {height} does not match open block {open}"
                )))
            }
            None if self.committed.is_some_and(|c| height <= c) => {
                return Err(Error::validation(format!(
                    "cannot commit block {height} behind committed height"
                )))
            }
            _ => {}
        }
        self.open_height = None;
        self.committed = Some(height);
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
        self.committed
    }

    /// A fresh backend holds no accounts; one that holds commits kept none of
    /// them, so mounting it fails instead of recovering an empty state.
    fn for_each_account(
        &mut self,
        _f: &mut dyn FnMut(Address, StoredAccount) -> Result<()>,
    ) -> Result<()> {
        match self.committed {
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

    fn upsert(addr: u64, balance: u64) -> DeltaRecord {
        DeltaRecord {
            address: Address::from_low(addr),
            account: Some(StoredAccount {
                balance_sats: balance,
                nonce: 0,
                storage: vec![],
                code_json: None,
            }),
        }
    }

    /// A write set of the given length that panics when a record is pulled.
    struct Unpullable(usize);

    impl Iterator for Unpullable {
        type Item = DeltaRecord;

        fn next(&mut self) -> Option<DeltaRecord> {
            panic!("the memory backend pulled a record")
        }

        fn size_hint(&self) -> (usize, Option<usize>) {
            (self.0, Some(self.0))
        }
    }

    impl ExactSizeIterator for Unpullable {}

    #[test]
    fn commit_counts_records_and_keeps_no_accounts() {
        let mut backend = MemoryBackend::new();
        let mut visit = |_: Address, _: StoredAccount| -> Result<()> { panic!("no account") };
        backend.for_each_account(&mut visit).unwrap();
        backend.begin_block(1).unwrap();
        backend
            .commit_block(1, &mut vec![upsert(1, 10), upsert(2, 20)].into_iter())
            .unwrap();
        backend.begin_block(2).unwrap();
        let delete = DeltaRecord {
            address: Address::from_low(1),
            account: None,
        };
        let stats = backend
            .commit_block(2, &mut vec![delete].into_iter())
            .unwrap();
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
        let stats = backend.commit_block(1, &mut Unpullable(3)).unwrap();
        assert_eq!((stats.height, stats.records, stats.bytes), (1, 3, 0));
        backend.begin_block(2).unwrap();
        assert_eq!(
            backend.commit_block(2, &mut Unpullable(2)).unwrap().records,
            2
        );
        let totals = backend.stats();
        assert_eq!((totals.committed_blocks, totals.records_written), (2, 5));
    }

    #[test]
    fn block_scope_is_enforced() {
        let mut backend = MemoryBackend::new();
        backend.begin_block(1).unwrap();
        assert!(backend.begin_block(2).is_err());
        assert!(
            backend.commit_block(9, &mut Unpullable(1)).is_err(),
            "not the open height"
        );
        assert_eq!(backend.committed_block(), None);
        backend.commit_block(1, &mut Unpullable(0)).unwrap();
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
}
