//! The in-memory map backend: the pre-trait `WorldState` map refactored behind
//! [`StateBackend`].

use crate::{
    BlockDelta, CommitStats, StateBackend, StateKey, StateValue, StoreStats, StoredAccount,
};
use blockconc_types::{Address, Error, Result};
use std::collections::BTreeMap;

/// Committed state held in an ordered in-memory map.
///
/// Zero I/O: [`commit_block`](StateBackend::commit_block) applies the delta records
/// to the map and only counts records, so pipelines mounted on this backend
/// behave bit-identically to the historical map-only `WorldState` while exercising
/// the same block-scoped commit protocol as the disk journal.
///
/// # Examples
///
/// ```
/// use blockconc_store::{BlockDelta, DeltaRecord, MemoryBackend, StateBackend, StoredAccount};
/// use blockconc_types::Address;
///
/// let mut backend = MemoryBackend::new();
/// backend.begin_block(1).unwrap();
/// backend
///     .commit_block(&BlockDelta {
///         height: 1,
///         records: vec![DeltaRecord {
///             address: Address::from_low(7),
///             account: Some(StoredAccount {
///                 balance_sats: 100,
///                 nonce: 0,
///                 storage: vec![],
///                 code_json: None,
///             }),
///         }],
///     })
///     .unwrap();
/// assert_eq!(backend.get_account(Address::from_low(7)).unwrap().balance_sats, 100);
/// assert_eq!(backend.committed_height(), 1);
/// ```
#[derive(Debug, Default)]
pub struct MemoryBackend {
    accounts: BTreeMap<Address, StoredAccount>,
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

    fn get_account(&mut self, address: Address) -> Option<StoredAccount> {
        let account = self.accounts.get(&address).cloned();
        if account.is_some() {
            self.stats.backend_reads += 1;
        }
        account
    }

    fn contains_account(&mut self, address: Address) -> bool {
        self.accounts.contains_key(&address)
    }

    /// One key out of the map, without cloning the account around it.
    fn get(&mut self, key: &StateKey) -> Option<StateValue> {
        let value = self.accounts.get(&key.address())?.value_of(key);
        self.stats.backend_reads += 1;
        Some(value)
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

    fn commit_block(&mut self, delta: &BlockDelta) -> Result<CommitStats> {
        match self.open_height {
            Some(open) if open != delta.height => {
                return Err(Error::validation(format!(
                    "delta height {} does not match open block {open}",
                    delta.height
                )))
            }
            None if self.committed.is_some_and(|c| delta.height <= c) => {
                return Err(Error::validation(format!(
                    "cannot commit block {} behind committed height",
                    delta.height
                )))
            }
            _ => {}
        }
        for record in &delta.records {
            match &record.account {
                Some(account) => {
                    self.accounts.insert(record.address, account.clone());
                }
                None => {
                    self.accounts.remove(&record.address);
                }
            }
        }
        self.open_height = None;
        self.committed = Some(delta.height);
        let records = delta.records.len() as u64;
        self.stats.committed_blocks += 1;
        self.stats.records_written += records;
        Ok(CommitStats {
            height: delta.height,
            records,
            bytes: 0,
        })
    }

    fn rollback_block(&mut self) -> Result<()> {
        self.open_height
            .take()
            .map(|_| ())
            .ok_or_else(|| Error::validation("no open block to roll back"))
    }

    fn committed_block(&self) -> Option<u64> {
        self.committed
    }

    fn open_height(&self) -> Option<u64> {
        self.open_height
    }

    fn account_count(&self) -> usize {
        self.accounts.len()
    }

    fn for_each_account(
        &mut self,
        skip: &dyn Fn(Address) -> bool,
        f: &mut dyn FnMut(Address, StoredAccount),
    ) {
        for (address, account) in &self.accounts {
            if !skip(*address) {
                f(*address, account.clone());
            }
        }
    }

    fn stats(&self) -> StoreStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeltaRecord;

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

    #[test]
    fn commit_applies_upserts_and_deletes() {
        let mut backend = MemoryBackend::new();
        backend.begin_block(1).unwrap();
        backend
            .commit_block(&BlockDelta {
                height: 1,
                records: vec![upsert(1, 10), upsert(2, 20)],
            })
            .unwrap();
        backend.begin_block(2).unwrap();
        backend
            .commit_block(&BlockDelta {
                height: 2,
                records: vec![DeltaRecord {
                    address: Address::from_low(1),
                    account: None,
                }],
            })
            .unwrap();
        assert!(backend.get_account(Address::from_low(1)).is_none());
        assert_eq!(backend.account_count(), 1);
        assert_eq!(backend.committed_height(), 2);
        assert_eq!(backend.stats().committed_blocks, 2);
    }

    #[test]
    fn per_key_get_equals_the_trait_default() {
        /// Forwards `get_account` only, so `get` is the trait's default.
        #[derive(Debug)]
        struct ViaAccount(MemoryBackend);
        impl StateBackend for ViaAccount {
            fn name(&self) -> &'static str {
                "via-account"
            }
            fn get_account(&mut self, address: Address) -> Option<StoredAccount> {
                self.0.get_account(address)
            }
            fn begin_block(&mut self, height: u64) -> Result<()> {
                self.0.begin_block(height)
            }
            fn commit_block(&mut self, delta: &BlockDelta) -> Result<CommitStats> {
                self.0.commit_block(delta)
            }
            fn rollback_block(&mut self) -> Result<()> {
                self.0.rollback_block()
            }
            fn committed_block(&self) -> Option<u64> {
                self.0.committed_block()
            }
            fn open_height(&self) -> Option<u64> {
                self.0.open_height()
            }
            fn account_count(&self) -> usize {
                self.0.account_count()
            }
            fn for_each_account(
                &mut self,
                skip: &dyn Fn(Address) -> bool,
                f: &mut dyn FnMut(Address, StoredAccount),
            ) {
                self.0.for_each_account(skip, f)
            }
            fn stats(&self) -> StoreStats {
                self.0.stats()
            }
        }

        let contract = DeltaRecord {
            address: Address::from_low(2),
            account: Some(StoredAccount {
                balance_sats: 7,
                nonce: 3,
                storage: vec![(1, 10), (9, 90)],
                code_json: Some("[\"Stop\"]".to_string()),
            }),
        };
        let delta = BlockDelta {
            height: 1,
            records: vec![upsert(1, 10), contract],
        };
        let mut direct = MemoryBackend::new();
        direct.commit_block(&delta).unwrap();
        let mut default = ViaAccount(MemoryBackend::new());
        default.commit_block(&delta).unwrap();
        for low in 1..=3u64 {
            let address = Address::from_low(low);
            for key in [
                StateKey::Balance(address),
                StateKey::Storage(address, 1),
                StateKey::Storage(address, 5),
                StateKey::Code(address),
            ] {
                assert_eq!(direct.get(&key), default.get(&key), "{key:?}");
            }
        }
        // Both count one backend read per key served, none for a missing account.
        assert_eq!(direct.stats().backend_reads, 8);
        assert_eq!(default.stats().backend_reads, 8);
    }

    #[test]
    fn block_scope_is_enforced() {
        let mut backend = MemoryBackend::new();
        backend.begin_block(1).unwrap();
        assert!(backend.begin_block(2).is_err());
        assert!(backend
            .commit_block(&BlockDelta {
                height: 9,
                records: vec![]
            })
            .is_err());
        backend.rollback_block().unwrap();
        assert!(backend.rollback_block().is_err());
        assert_eq!(backend.committed_height(), 0);
    }

    #[test]
    fn for_each_visits_in_address_order() {
        let mut backend = MemoryBackend::new();
        backend.begin_block(1).unwrap();
        backend
            .commit_block(&BlockDelta {
                height: 1,
                records: vec![upsert(5, 1), upsert(2, 1), upsert(9, 1)],
            })
            .unwrap();
        let mut seen = Vec::new();
        backend.for_each_account(&|_| false, &mut |addr, _| seen.push(addr));
        let mut sorted = seen.clone();
        sorted.sort();
        assert_eq!(seen, sorted);
        assert_eq!(seen.len(), 3);
        // A skipped address is left out; the rest keep their order.
        seen.clear();
        backend.for_each_account(&|addr| addr == Address::from_low(5), &mut |addr, _| {
            seen.push(addr)
        });
        assert_eq!(seen, vec![Address::from_low(2), Address::from_low(9)]);
    }
}
