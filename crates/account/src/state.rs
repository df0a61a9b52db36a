//! The resident world state, and the state-access trait transaction execution
//! runs on.

use crate::journal::{Source, WorkingSet};
use crate::vm::Contract;
use crate::{Account, Journal};
use blockconc_store::{
    CommitStats, DeltaRecord, FragmentValue, SharedBackend, StateKey, StoreStats, StoredAccount,
};
use blockconc_types::{Address, Amount, Error, Hash, Result};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The state operations transaction execution needs: reads, journalled writes,
/// contract deployment and journal rollback. [`BlockExecutor`] and the
/// [`Interpreter`] run generically over it, on the resident [`WorldState`] or
/// on an engine's [`ScratchState`].
///
/// Reads take `&mut self` because a scratch state's cell view may record what
/// it served.
///
/// [`BlockExecutor`]: crate::BlockExecutor
/// [`Interpreter`]: crate::vm::Interpreter
/// [`ScratchState`]: crate::ScratchState
pub trait StateAccess {
    /// The nonce of `address` (zero if the account does not exist).
    fn nonce(&mut self, address: Address) -> u64;

    /// The balance of `address` (zero if the account does not exist).
    fn balance(&mut self, address: Address) -> Amount;

    /// A storage slot of `address` (zero when absent).
    fn storage(&mut self, address: Address, key: u64) -> u64;

    /// The contract deployed at `address`, if any.
    fn contract(&mut self, address: Address) -> Option<Arc<Contract>>;

    /// Adds `value` to the balance of `address` (creating the account if
    /// needed), journalling the old balance.
    fn credit_journalled(&mut self, address: Address, value: Amount, journal: Option<&mut Journal>);

    /// Removes `value` from the balance of `address`, journalling the old
    /// balance.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InsufficientFunds`] (without modifying state) if the
    /// balance is too low, or [`Error::MissingState`] if the account does not
    /// exist.
    fn debit_journalled(
        &mut self,
        address: Address,
        value: Amount,
        journal: Option<&mut Journal>,
    ) -> Result<()>;

    /// Increments the nonce of `address`, journalling the old nonce.
    fn bump_nonce(&mut self, address: Address, journal: Option<&mut Journal>);

    /// Writes a storage slot, journalling the previous value.
    fn storage_set(
        &mut self,
        address: Address,
        key: u64,
        value: u64,
        journal: Option<&mut Journal>,
    );

    /// Deploys a contract at `address` (overwriting any existing code).
    fn deploy_contract(&mut self, address: Address, contract: Arc<Contract>);

    /// Reverts (and removes) every journal operation recorded after
    /// `checkpoint`, most recent first, leaving earlier operations in place.
    ///
    /// Used for nested-call rollback: a failing inner contract call undoes only
    /// its own state changes while the enclosing transaction continues.
    fn revert_to(&mut self, journal: &mut Journal, checkpoint: usize);

    /// Credits `address` as a blind commutative delta, if this state can:
    /// returns `true` when it did (the caller records a *delta* access) and
    /// `false`, changing nothing, when the caller must
    /// [`credit_journalled`](StateAccess::credit_journalled) instead. Only a
    /// [`ScratchState`](crate::ScratchState) ever accumulates deltas.
    fn credit_delta(
        &mut self,
        _address: Address,
        _value: Amount,
        _journal: Option<&mut Journal>,
    ) -> bool {
        false
    }

    /// Adds `value` (wrapping) to a storage slot as a blind commutative delta,
    /// if this state can (see [`credit_delta`](StateAccess::credit_delta));
    /// `false` means the caller performs the classic read-modify-write.
    fn storage_add_delta(
        &mut self,
        _address: Address,
        _key: u64,
        _value: u64,
        _journal: Option<&mut Journal>,
    ) -> bool {
        false
    }
}

/// Converts a cached [`Account`] into its canonical persisted form. The code
/// blob is the encoding cached at deployment, so this never re-encodes contracts.
pub fn account_to_stored(account: &Account) -> StoredAccount {
    StoredAccount {
        balance_sats: account.balance().sats(),
        nonce: account.nonce(),
        storage: account.storage_entries(),
        code: account.code_bytes().cloned(),
    }
}

/// Decodes a persisted contract-code blob (a [`StoredAccount::code`] or a
/// [`FragmentValue::Code`]) written by [`Contract::encode`].
///
/// # Errors
///
/// Undecodable code means the store and this build disagree about the contract
/// format, or the blob was corrupted past the frame CRC. Executing the account
/// as if it had no code would silently diverge from the committed history.
pub fn decode_contract(code: &[u8]) -> Result<Arc<Contract>> {
    Contract::decode(code)
        .map(Arc::new)
        .map_err(|e| Error::execution(format!("contract code does not decode: {e}")))
}

/// Materializes a persisted account back into its resident form.
///
/// # Errors
///
/// Fails if the account carries contract code this build cannot decode (see
/// [`decode_contract`]).
pub fn stored_to_account(stored: &StoredAccount) -> Result<Account> {
    let mut account = Account::with_balance(Amount::from_sats(stored.balance_sats));
    account.set_nonce(stored.nonce);
    for &(key, value) in &stored.storage {
        account.storage_set(key, value);
    }
    if let Some(code) = &stored.code {
        account.set_code_with_bytes(decode_contract(code)?, code.clone());
    }
    Ok(account)
}

/// The global state of an account-based blockchain.
///
/// Every account lives in the resident map, with or without a backend: the
/// state a block executes over is the whole state, held in memory. A
/// [`StateBackend`](blockconc_store::StateBackend) mounted with
/// [`WorldState::attach_backend`] is the state's journal. Writes are tracked as
/// the open block's dirty set, an unordered hashed set that costs O(1) per
/// write, and [`commit_block`](WorldState::commit_block) hands the block's
/// write set to the backend as an iterator: the dirty addresses are sorted
/// once, on the first record pulled, and each record is built as it is
/// pulled. The whole state goes down with it the same way, every account in
/// address order. The disk backend pulls every record (journaling them to
/// disk, by `blockconc_store::DiskBackend`) and the state only when a snapshot
/// is due; the memory backend only counts the records, so no record is ever
/// built on it. The backend is read once, when a state is mounted on a store
/// that already holds commits. Clones share the backend handle but own their
/// accounts.
///
/// All mutating operations can be journalled (pass a [`Journal`]) so that a failed
/// transaction can be reverted precisely; this mirrors how real execution clients
/// handle reverts.
///
/// # Examples
///
/// ```
/// use blockconc_types::{Address, Amount};
/// use blockconc_account::WorldState;
///
/// let mut state = WorldState::new();
/// state.credit(Address::from_low(1), Amount::from_coins(5));
/// assert_eq!(state.balance(Address::from_low(1)), Amount::from_coins(5));
/// assert_eq!(state.balance(Address::from_low(2)), Amount::ZERO);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WorldState {
    /// The accounts, the open block's dirty set and the mount.
    set: WorkingSet<Mount>,
    open_height: Option<u64>,
}

/// What a resident state is mounted on, and what the open block did that
/// [`WorldState::withdraw_phantom`] must tell apart. Both sets are kept only
/// while a backend is mounted: without one there is no block scope. Nothing
/// reads them in order, so they are hashed sets, like the dirty set.
#[derive(Debug, Clone, Default)]
struct Mount {
    backend: Option<SharedBackend>,
    /// Addresses the open block reached with nothing committed under them.
    born: HashSet<Address>,
    /// Committed addresses the open block removed (handed off).
    departed: HashSet<Address>,
}

/// Address-keyed entries in ascending address order, sorted on the first
/// pull. Its [`len`](ExactSizeIterator::len) needs no sort, so a backend that
/// only counts the records a state hands it sorts and builds none.
struct SortedOnPull<'a, V, I> {
    unsorted: Option<I>,
    sorted: std::vec::IntoIter<(&'a Address, V)>,
}

impl<'a, V, I: ExactSizeIterator<Item = (&'a Address, V)>> SortedOnPull<'a, V, I> {
    fn new(entries: I) -> Self {
        SortedOnPull {
            unsorted: Some(entries),
            sorted: Vec::new().into_iter(),
        }
    }
}

impl<'a, V, I: ExactSizeIterator<Item = (&'a Address, V)>> Iterator for SortedOnPull<'a, V, I> {
    type Item = (&'a Address, V);

    fn next(&mut self) -> Option<(&'a Address, V)> {
        if let Some(entries) = self.unsorted.take() {
            let mut sorted: Vec<(&'a Address, V)> = entries.collect();
            sorted.sort_unstable_by_key(|&(address, _)| *address);
            self.sorted = sorted.into_iter();
        }
        self.sorted.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self
            .unsorted
            .as_ref()
            .map_or(self.sorted.len(), ExactSizeIterator::len);
        (len, Some(len))
    }
}

impl<'a, V, I: ExactSizeIterator<Item = (&'a Address, V)>> ExactSizeIterator
    for SortedOnPull<'a, V, I>
{
}

impl Source for Mount {
    fn tracks_writes(&self) -> bool {
        self.backend.is_some()
    }

    /// Nothing to load: every committed account is resident. The working set
    /// asks only about an address that is neither resident nor written in the
    /// open block, so nothing is committed there, and the block scope notes it.
    fn load(&mut self, address: Address) -> Option<Account> {
        if self.backend.is_some() {
            self.born.insert(address);
        }
        None
    }
}

impl WorldState {
    /// Creates an empty world state (no backend).
    pub fn new() -> Self {
        WorldState::default()
    }

    /// Mounts `backend` under this state.
    ///
    /// If the backend holds no commits, the current accounts are committed to
    /// it as the genesis delta (height 0). If it holds commits (a reopened
    /// store), every committed account is read back and replaces the current
    /// ones: that state is authoritative, and the backend is not read again.
    ///
    /// `_working_set_cap` is ignored: every account stays resident. The
    /// parameter stays only because the wall-clock benchmark's frozen surface
    /// still passes it.
    ///
    /// # Errors
    ///
    /// Propagates a failed genesis commit, and a committed record that cannot
    /// be read or decoded. A memory backend that holds commits has no accounts
    /// to hand back, which is an error too.
    pub fn attach_backend(
        &mut self,
        backend: SharedBackend,
        _working_set_cap: Option<usize>,
    ) -> Result<()> {
        {
            let mut guard = backend.lock().expect("backend lock");
            if guard.committed_block().is_none() {
                // Genesis: every account is block 0's write set.
                self.set.dirty.extend(self.set.accounts.keys().copied());
                let genesis = guard.begin_block(0).and_then(|()| {
                    guard.commit_block(0, &mut self.write_set(), &mut self.records())
                });
                if genesis.is_err() {
                    self.set.dirty.clear();
                }
                genesis?;
            } else {
                let mut accounts = HashMap::new();
                guard.for_each_account(&mut |address, stored| {
                    accounts.insert(address, stored_to_account(&stored)?);
                    Ok(())
                })?;
                self.set.accounts = accounts;
            }
        }
        self.set.source.backend = Some(backend);
        self.close_block();
        Ok(())
    }

    /// The mounted backend handle, if any.
    pub fn backend(&self) -> Option<&SharedBackend> {
        self.set.source.backend.as_ref()
    }

    /// The mounted backend's cumulative counters, if any.
    pub fn backend_stats(&self) -> Option<StoreStats> {
        self.backend()
            .map(|b| b.lock().expect("backend lock").stats())
    }

    /// Opens block `height`: subsequent writes form its write-set delta.
    ///
    /// # Errors
    ///
    /// Propagates the backend's block-scope validation.
    pub fn begin_block(&mut self, height: u64) -> Result<()> {
        if let Some(backend) = self.backend() {
            backend.lock().expect("backend lock").begin_block(height)?;
        }
        self.open_height = Some(height);
        Ok(())
    }

    /// Commits the open block: the backend is handed the dirty accounts' new
    /// values as one write set, in ascending address order, and the whole state
    /// after the block, and pulls what it keeps (the disk backend journals
    /// every record and pulls the state when a snapshot is due; the memory
    /// backend counts the records and builds none). The block scope is then
    /// cleared.
    ///
    /// Dirty marking is conservative: an account touched and then fully reverted
    /// within the block still commits its (unchanged) value. Detecting no-op
    /// records would cost a pre-image per dirty account on every commit, so the
    /// rare reverted-transaction record is the cheaper trade.
    ///
    /// Without a backend this only clears the block scope and reports zero cost.
    ///
    /// # Errors
    ///
    /// Returns an error if no block is open (with a backend mounted), or if the
    /// backend commit fails; the block then stays open.
    pub fn commit_block(&mut self) -> Result<CommitStats> {
        let Some(backend) = self.backend().cloned() else {
            self.close_block();
            return Ok(CommitStats::default());
        };
        let height = self
            .open_height
            .ok_or_else(|| Error::validation("no open block to commit"))?;
        let stats = backend.lock().expect("backend lock").commit_block(
            height,
            &mut self.write_set(),
            &mut self.records(),
        )?;
        self.close_block();
        Ok(stats)
    }

    /// The open block's write set, for a backend or a harvest to pull: each
    /// record is built from the resident account as it is pulled (a deletion
    /// when the account is gone).
    fn write_set(&self) -> impl ExactSizeIterator<Item = DeltaRecord> + '_ {
        let accounts = &self.set.accounts;
        let dirty = self.set.dirty.iter();
        SortedOnPull::new(dirty.map(|address| (address, accounts.get(address)))).map(
            |(&address, account)| DeltaRecord {
                address,
                account: account.map(account_to_stored),
            },
        )
    }

    /// Every resident account in ascending address order, sorted on the
    /// first pull: the one ordered walk of the state, which a backend
    /// snapshots and the root digests.
    fn ordered(&self) -> impl ExactSizeIterator<Item = (&Address, &Account)> + '_ {
        SortedOnPull::new(self.set.accounts.iter())
    }

    /// [`ordered`](WorldState::ordered) as records, each built as it is
    /// pulled: the whole state a backend is handed at commit.
    fn records(&self) -> impl ExactSizeIterator<Item = (Address, StoredAccount)> + '_ {
        self.ordered()
            .map(|(&address, account)| (address, account_to_stored(account)))
    }

    /// Clears the block scope: the open height, the dirty set and what the
    /// block created or removed.
    fn close_block(&mut self) {
        self.open_height = None;
        self.set.dirty.clear();
        self.set.source.born.clear();
        self.set.source.departed.clear();
    }

    /// Number of accounts that exist (have been touched at least once).
    pub fn account_count(&self) -> usize {
        self.set.accounts.len()
    }

    /// Returns a reference to an account.
    pub fn account(&self, address: Address) -> Option<&Account> {
        self.set.accounts.get(&address)
    }

    /// Returns `true` if the account exists.
    pub fn contains(&self, address: Address) -> bool {
        self.set.accounts.contains_key(&address)
    }

    /// The balance of `address` (zero if the account does not exist).
    pub fn balance(&self, address: Address) -> Amount {
        self.account(address).map_or(Amount::ZERO, Account::balance)
    }

    /// The nonce of `address` (zero if the account does not exist).
    pub fn nonce(&self, address: Address) -> u64 {
        self.account(address).map_or(0, Account::nonce)
    }

    /// The contract deployed at `address`, if any.
    pub fn contract(&self, address: Address) -> Option<Arc<Contract>> {
        self.account(address)?.code().cloned()
    }

    /// Reads a storage slot of `address` (zero when absent).
    pub fn storage(&self, address: Address, key: u64) -> u64 {
        self.account(address)
            .map_or(0, |account| account.storage_get(key))
    }

    /// Adds `value` to the balance of `address` (creating the account if needed).
    pub fn credit(&mut self, address: Address, value: Amount) {
        self.set.credit(address, value, None);
    }

    /// Removes `value` from the balance of `address`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InsufficientFunds`] (without modifying state) if the balance is
    /// too low, or [`Error::MissingState`] if the account does not exist.
    pub fn debit(&mut self, address: Address, value: Amount) -> Result<()> {
        self.set.debit(address, value, None)
    }

    /// Reverts every operation recorded in `journal`, most recent first.
    pub fn revert(&mut self, mut journal: Journal) {
        self.revert_to(&mut journal, 0);
    }

    /// Collects the dirty accounts' current values into `out`, in ascending
    /// address order — exactly the records
    /// [`commit_block`](WorldState::commit_block) would hand the backend —
    /// then clears the block scope *without notifying the backend*. `out` is
    /// cleared first and its capacity reused.
    pub fn take_write_set(&mut self, out: &mut Vec<DeltaRecord>) {
        out.clear();
        out.extend(self.write_set());
        self.close_block();
    }

    /// Sets one committed cell on the resident account in place — the in-place
    /// counterpart of `blockconc_store::apply_fragment`, with the same rules: a
    /// balance/nonce fragment creates the account if need be, its deletion
    /// removes the account, and slot or code fragments of an account that does
    /// not exist are ignored. The address joins the open block's write set
    /// either way.
    pub fn set_cell(&mut self, key: &StateKey, value: Option<&FragmentValue>) {
        let address = key.address();
        match (key, value) {
            (StateKey::Balance(_), None) => self.remove_account(address),
            (
                StateKey::Balance(_),
                Some(FragmentValue::Meta {
                    balance_sats,
                    nonce,
                }),
            ) => {
                let account = self.set.entry(address, None);
                account.set_balance(Amount::from_sats(*balance_sats));
                account.set_nonce(*nonce);
            }
            (StateKey::Storage(_, slot), None) => {
                if let Some(account) = self.set.touch(address) {
                    account.storage_set(*slot, 0);
                }
            }
            (StateKey::Storage(_, slot), Some(FragmentValue::Slot(new))) => {
                if let Some(account) = self.set.touch(address) {
                    account.storage_set(*slot, *new);
                }
            }
            (StateKey::Code(_), None) => {
                if let Some(account) = self.set.touch(address) {
                    account.clear_code();
                }
            }
            (StateKey::Code(_), Some(FragmentValue::Code(code))) => {
                if let Some(account) = self.set.touch(address) {
                    let contract = decode_contract(code).expect("code this build encoded");
                    account.set_code_with_bytes(contract, code.clone());
                }
            }
            (key, fragment) => {
                debug_assert!(
                    false,
                    "fragment value {fragment:?} does not fit key {key:?}"
                );
            }
        }
    }

    /// Joins `address` to the open block's write set without changing its
    /// value: what sequential execution leaves behind for an account it wrote
    /// back unchanged.
    pub fn touch(&mut self, address: Address) {
        self.set.touch(address);
    }

    /// The complete persisted view of one account, or `None` if the account
    /// does not exist. This is the export half of a cross-partition state
    /// handoff: the cluster layer moves an account between shard partitions by
    /// exporting it here, removing it ([`WorldState::remove_account`]) and
    /// installing it on the destination ([`WorldState::install_account`]).
    pub fn export_account(&self, address: Address) -> Option<StoredAccount> {
        self.account(address).map(account_to_stored)
    }

    /// Installs an account's persisted value into this state (the import half of a
    /// cross-partition handoff). The account joins the open block's write set, so
    /// the commit journals it into this partition's backend.
    ///
    /// # Panics
    ///
    /// Panics if the account carries code this build cannot decode: a handoff
    /// only moves what [`export_account`](WorldState::export_account) produced.
    pub fn install_account(&mut self, address: Address, stored: &StoredAccount) {
        let account = stored_to_account(stored).expect("an account this build exported");
        self.set.accounts.insert(address, account);
        self.set.mark_dirty(address);
    }

    /// Removes an account from this state (the eviction half of a cross-partition
    /// handoff). The address joins the open block's write set as a deletion, so
    /// the commit journals the departure; reads of the address afterwards see
    /// nothing, exactly as if the account never lived here.
    pub fn remove_account(&mut self, address: Address) {
        if self.set.accounts.remove(&address).is_some() && self.set.source.tracks_writes() {
            self.set.source.departed.insert(address);
        }
        self.set.mark_dirty(address);
    }

    /// Withdraws `value` credited to a *phantom* account — one materialized by
    /// executing the local debit half of a cross-shard transaction, whose real
    /// home is another shard's partition. If the withdrawal leaves the account
    /// exactly as if it had never been touched (zero balance, zero nonce, no
    /// storage, no code), the phantom goes:
    ///
    /// - nothing was committed for it in this partition: every trace is erased,
    ///   resident entry *and* dirty mark, so the block's write-set delta carries
    ///   no record of the visit (without a backend, always);
    /// - it was committed here and removed earlier in this block (handed off to
    ///   its new home): the removal stands, and the delta deletes it;
    /// - it was committed here and never removed: it stays, as committed.
    ///
    /// # Errors
    ///
    /// Returns the usual debit errors if the account does not hold `value` (which
    /// would indicate the caller mis-tracked the phantom credit).
    pub fn withdraw_phantom(&mut self, address: Address, value: Amount) -> Result<()> {
        self.debit(address, value)?;
        let untouched = self.account(address).is_some_and(|account| {
            account.balance() == Amount::ZERO
                && account.nonce() == 0
                && !account.is_contract()
                && account.storage_len() == 0
        });
        if !untouched {
            return Ok(());
        }
        let mount = &self.set.source;
        if mount.backend.is_none() || mount.born.contains(&address) {
            self.set.accounts.remove(&address);
            self.set.dirty.remove(&address);
        } else if mount.departed.contains(&address) {
            self.set.accounts.remove(&address);
        }
        Ok(())
    }

    /// Iterates over every (address, account) pair, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&Address, &Account)> {
        self.set.accounts.iter()
    }

    /// Sum of all account balances (conserved by transfers; useful as an invariant).
    pub fn total_supply(&self) -> Amount {
        Amount::from_sats(
            self.iter()
                .map(|(_, account)| account.balance().sats())
                .sum(),
        )
    }

    /// A deterministic digest of the complete state, independent of which
    /// backend journals it — the oracle the backend-equivalence tests compare
    /// across pipelines. It digests the ordered records a snapshot writes.
    pub fn state_root(&self) -> Hash {
        let mut data = Vec::new();
        for (address, account) in self.ordered() {
            data.extend_from_slice(address.as_bytes());
            account_to_stored(account).digest_into(&mut data);
        }
        Hash::of_bytes(&data)
    }
}

/// The journalled writes live here only; the reads forward to the inherent
/// `&self` accessors.
impl StateAccess for WorldState {
    fn nonce(&mut self, address: Address) -> u64 {
        WorldState::nonce(self, address)
    }

    fn balance(&mut self, address: Address) -> Amount {
        WorldState::balance(self, address)
    }

    fn storage(&mut self, address: Address, key: u64) -> u64 {
        WorldState::storage(self, address, key)
    }

    fn contract(&mut self, address: Address) -> Option<Arc<Contract>> {
        WorldState::contract(self, address)
    }

    fn credit_journalled(
        &mut self,
        address: Address,
        value: Amount,
        journal: Option<&mut Journal>,
    ) {
        self.set.credit(address, value, journal);
    }

    fn debit_journalled(
        &mut self,
        address: Address,
        value: Amount,
        journal: Option<&mut Journal>,
    ) -> Result<()> {
        self.set.debit(address, value, journal)
    }

    fn bump_nonce(&mut self, address: Address, journal: Option<&mut Journal>) {
        self.set.bump_nonce(address, journal);
    }

    fn storage_set(
        &mut self,
        address: Address,
        key: u64,
        value: u64,
        journal: Option<&mut Journal>,
    ) {
        self.set.storage_set(address, key, value, journal);
    }

    fn deploy_contract(&mut self, address: Address, contract: Arc<Contract>) {
        self.set.entry(address, None).set_code(contract);
    }

    fn revert_to(&mut self, journal: &mut Journal, checkpoint: usize) {
        self.set.revert_to(journal, checkpoint, |op| {
            unreachable!(
                "blind-delta undo {op:?} on a resident state: only a ScratchState journals deltas"
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::tests::{commit_harvest, MapCells};
    use crate::vm::OpCode;
    use crate::{AccessSet, ScratchState};
    use blockconc_store::{
        apply_fragment, diff_account_fragments, shared, DiskBackend, DiskConfig, MemoryBackend,
    };
    use std::collections::BTreeMap;

    #[test]
    fn credit_creates_accounts_and_debit_requires_existence() {
        let mut state = WorldState::new();
        assert!(state
            .debit(Address::from_low(1), Amount::from_sats(1))
            .is_err());
        state.credit(Address::from_low(1), Amount::from_sats(10));
        assert!(state
            .debit(Address::from_low(1), Amount::from_sats(4))
            .is_ok());
        assert_eq!(state.balance(Address::from_low(1)), Amount::from_sats(6));
        assert!(state
            .debit(Address::from_low(1), Amount::from_sats(100))
            .is_err());
    }

    #[test]
    fn journal_revert_restores_balances_nonces_storage_and_creations() {
        let mut state = WorldState::new();
        let a = Address::from_low(1);
        let b = Address::from_low(2);
        state.credit(a, Amount::from_sats(100));
        state.storage_set(a, 3, 7, None);
        let snapshot_balance = state.balance(a);
        let snapshot_accounts = state.account_count();

        let mut journal = Journal::new();
        state
            .debit_journalled(a, Amount::from_sats(30), Some(&mut journal))
            .unwrap();
        state.credit_journalled(b, Amount::from_sats(30), Some(&mut journal));
        state.bump_nonce(a, Some(&mut journal));
        state.storage_set(a, 3, 99, Some(&mut journal));
        state.storage_set(a, 4, 1, Some(&mut journal));
        assert!(!journal.is_empty());

        state.revert(journal);
        assert_eq!(state.balance(a), snapshot_balance);
        assert_eq!(state.nonce(a), 0);
        assert_eq!(state.storage(a, 3), 7);
        assert_eq!(state.storage(a, 4), 0);
        assert_eq!(state.account_count(), snapshot_accounts);
        assert!(!state.contains(b));
    }

    #[test]
    fn total_supply_is_conserved_by_transfers() {
        let mut state = WorldState::new();
        state.credit(Address::from_low(1), Amount::from_coins(3));
        state.credit(Address::from_low(2), Amount::from_coins(2));
        let before = state.total_supply();
        state
            .debit(Address::from_low(1), Amount::from_coins(1))
            .unwrap();
        state.credit(Address::from_low(2), Amount::from_coins(1));
        assert_eq!(state.total_supply(), before);
    }

    #[test]
    fn contract_deployment_is_visible() {
        let mut state = WorldState::new();
        let addr = Address::from_low(42);
        assert!(state.contract(addr).is_none());
        state.deploy_contract(addr, Arc::new(Contract::new(vec![OpCode::Stop])));
        assert!(state.contract(addr).is_some());
        assert!(state.account(addr).unwrap().is_contract());
    }

    #[test]
    fn access_set_conflict_rules() {
        let k1 = StateKey::Balance(Address::from_low(1));
        let k2 = StateKey::Storage(Address::from_low(1), 0);

        let mut w1 = AccessSet::new();
        w1.record_write(k1);
        let mut r1 = AccessSet::new();
        r1.record_read(k1);
        let mut rw2 = AccessSet::new();
        rw2.record_read(k2);
        rw2.record_write(k2);

        assert!(w1.conflicts_with(&r1));
        assert!(r1.conflicts_with(&w1));
        assert!(!r1.conflicts_with(&r1.clone())); // read-read never conflicts
        assert!(!w1.conflicts_with(&rw2)); // disjoint keys
        assert!(w1.conflicts_with(&w1.clone())); // write-write conflicts

        let mut d1 = AccessSet::new();
        d1.record_delta(k1);
        assert!(!d1.conflicts_with(&d1.clone())); // delta-delta commutes
        assert!(d1.conflicts_with(&w1)); // delta-write conflicts
        assert!(w1.conflicts_with(&d1));
        assert!(d1.conflicts_with(&r1)); // delta-read conflicts (observer orders)
        assert!(r1.conflicts_with(&d1));
        assert!(!d1.conflicts_with(&rw2)); // disjoint keys
    }

    #[test]
    fn access_set_write_subsumes_delta() {
        let k = StateKey::Balance(Address::from_low(1));
        let mut set = AccessSet::new();
        set.record_delta(k);
        assert_eq!(set.deltas(), &[k]);
        set.record_write(k);
        assert!(set.deltas().is_empty(), "write promotes the delta");
        assert_eq!(set.writes(), &[k]);
        set.record_delta(k);
        assert!(set.deltas().is_empty(), "delta on a written key is a no-op");
        assert!(!set.is_empty());
    }

    #[test]
    fn access_set_merge_unions_keys() {
        let k1 = StateKey::Balance(Address::from_low(1));
        let k2 = StateKey::Balance(Address::from_low(2));
        let mut a = AccessSet::new();
        a.record_read(k1);
        let mut b = AccessSet::new();
        b.record_write(k2);
        a.merge(&b);
        assert!(a.reads().contains(&k1));
        assert!(a.writes().contains(&k2));
        assert!(!a.is_empty());
    }

    #[test]
    fn access_set_stays_sorted_and_deduplicated() {
        let mut set = AccessSet::new();
        for low in [5u64, 1, 9, 5, 1] {
            set.record_write(StateKey::Balance(Address::from_low(low)));
        }
        assert_eq!(set.writes().len(), 3);
        let mut sorted = set.writes().to_vec();
        sorted.sort();
        assert_eq!(set.writes(), &sorted[..]);
    }

    #[test]
    fn access_set_conflicts_match_naive_oracle() {
        // Cross-check the merge-based conflict walk against the O(n·m) definition.
        let key = |i: u64| {
            if i % 2 == 0 {
                StateKey::Balance(Address::from_low(i / 2))
            } else {
                StateKey::Storage(Address::from_low(i / 3), i % 5)
            }
        };
        let mut sets = Vec::new();
        for s in 0..12u64 {
            let mut set = AccessSet::new();
            for i in 0..6u64 {
                let k = key((s * 7 + i * 13) % 10);
                match (s + i) % 4 {
                    0 => set.record_write(k),
                    1 => set.record_delta(k),
                    _ => set.record_read(k),
                }
            }
            sets.push(set);
        }
        for a in &sets {
            for b in &sets {
                let naive = a.writes().iter().any(|k| {
                    b.writes().contains(k) || b.reads().contains(k) || b.deltas().contains(k)
                }) || b
                    .writes()
                    .iter()
                    .any(|k| a.reads().contains(k) || a.deltas().contains(k))
                    || a.deltas().iter().any(|k| b.reads().contains(k))
                    || b.deltas().iter().any(|k| a.reads().contains(k));
                assert_eq!(a.conflicts_with(b), naive);
            }
        }
    }

    /// Two funded accounts and a counter contract, no backend.
    fn genesis() -> WorldState {
        let mut state = WorldState::new();
        state.credit(Address::from_low(1), Amount::from_coins(10));
        state.credit(Address::from_low(2), Amount::from_coins(20));
        state.deploy_contract(Address::from_low(9), Arc::new(Contract::counter()));
        state
    }

    /// The genesis on a memory backend.
    fn backed_state() -> WorldState {
        let mut state = genesis();
        state
            .attach_backend(shared(MemoryBackend::new()), None)
            .unwrap();
        state
    }

    /// The genesis as committed state under an empty scratch state.
    fn scratch_state() -> ScratchState<MapCells> {
        ScratchState::new(MapCells::of(&genesis()))
    }

    /// [`backed_state`] with block 1 open.
    fn open_block() -> WorldState {
        let mut state = backed_state();
        state.begin_block(1).unwrap();
        state
    }

    /// The records the open block would commit, off a clone.
    fn write_set(state: &WorldState) -> Vec<DeltaRecord> {
        let mut records = Vec::new();
        state.clone().take_write_set(&mut records);
        records
    }

    #[test]
    fn attach_backend_commits_genesis_and_keeps_every_account() {
        let state = backed_state();
        assert_eq!(state.account_count(), 3);
        assert_eq!(state.balance(Address::from_low(1)), Amount::from_coins(10));
        assert_eq!(state.balance(Address::from_low(2)), Amount::from_coins(20));
        assert!(state.contract(Address::from_low(9)).is_some());
        assert_eq!(state.total_supply(), Amount::from_coins(30));
        let stats = state.backend_stats().unwrap();
        assert_eq!((stats.committed_blocks, stats.records_written), (1, 3));
        // A memory backend keeps no accounts, so a second state cannot mount
        // its commits.
        let backend = SharedBackend::clone(state.backend().unwrap());
        assert!(WorldState::new().attach_backend(backend, None).is_err());
    }

    #[test]
    fn commit_block_pushes_write_set_and_preserves_values() {
        let mut state = backed_state();
        let root_before = state.state_root();
        state.begin_block(1).unwrap();
        state
            .debit(Address::from_low(2), Amount::from_coins(5))
            .unwrap();
        state.credit(Address::from_low(3), Amount::from_coins(5));
        state.bump_nonce(Address::from_low(2), None);
        let stats = state.commit_block().unwrap();
        assert_eq!(stats.records, 2);
        assert_ne!(state.state_root(), root_before);
        assert_eq!(state.balance(Address::from_low(2)), Amount::from_coins(15));
        assert_eq!(state.balance(Address::from_low(3)), Amount::from_coins(5));
        assert_eq!(state.nonce(Address::from_low(2)), 1);
        assert_eq!(state.total_supply(), Amount::from_coins(30));
        let backend_stats = state.backend_stats().unwrap();
        assert_eq!(backend_stats.committed_blocks, 2); // genesis + block 1
    }

    fn disk_store(tag: &str) -> (SharedBackend, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("blockconc-account-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = DiskConfig::new(&dir);
        (shared(DiskBackend::open(&config).unwrap()), dir)
    }

    #[test]
    fn state_root_is_identical_with_and_without_backend() {
        let mut genesis = WorldState::new();
        for i in 1..=40u64 {
            genesis.credit(Address::from_low(i), Amount::from_coins(i));
        }
        genesis.storage_set(Address::from_low(3), 7, 70, None);
        genesis.deploy_contract(Address::from_low(99), Arc::new(Contract::counter()));
        let (disk, dir) = disk_store("root");
        let cases = [("memory", shared(MemoryBackend::new())), ("disk", disk)];
        for (label, backend) in cases {
            let mut plain = genesis.clone();
            let mut backed = genesis.clone();
            backed.attach_backend(backend, None).unwrap();
            let check = |plain: &WorldState, backed: &WorldState, step: &str| {
                assert_eq!(plain.state_root(), backed.state_root(), "{label}: {step}");
                assert_eq!(
                    plain.total_supply(),
                    backed.total_supply(),
                    "{label}: {step}"
                );
            };
            check(&plain, &backed, "genesis");

            // Same mutation on both sides keeps the roots in lockstep.
            for state in [&mut plain, &mut backed] {
                state.begin_block(1).unwrap();
                state.bump_nonce(Address::from_low(1), None);
                state.commit_block().unwrap();
            }
            check(&plain, &backed, "block 1");

            // An open block: a committed account deleted, then the harvest of
            // a scratch state's blind credits to a committed account and to a
            // new one, and its blind slot add on the contract.
            let (payee, fresh, contract) = (
                Address::from_low(5),
                Address::from_low(500),
                Address::from_low(99),
            );
            let mut scratch = ScratchState::new(MapCells::of(&plain));
            assert!(scratch.credit_delta(payee, Amount::from_sats(3), None));
            assert!(scratch.credit_delta(fresh, Amount::from_sats(9), None));
            assert!(scratch.storage_add_delta(contract, 1, 4, None));
            let mut ops = Vec::new();
            scratch.clone().take_delta_ops(&mut ops);
            assert_eq!(
                ops,
                [
                    (StateKey::Balance(payee), 3),
                    (StateKey::Storage(contract, 1), 4),
                    (StateKey::Balance(fresh), 9),
                ],
                "{label}"
            );
            for state in [&mut plain, &mut backed] {
                state.begin_block(2).unwrap();
                state.remove_account(Address::from_low(2));
                commit_harvest(state, &mut scratch.clone());
            }
            check(&plain, &backed, "open block");

            plain.commit_block().unwrap();
            backed.commit_block().unwrap();
            check(&plain, &backed, "block 2");
        }
        // The disk store mounts back onto the same state.
        let mut recovered = WorldState::new();
        let reopened = shared(DiskBackend::open(&DiskConfig::new(&dir)).unwrap());
        recovered.attach_backend(reopened, None).unwrap();
        let mut expected = genesis;
        expected.bump_nonce(Address::from_low(1), None);
        expected.remove_account(Address::from_low(2));
        expected.credit(Address::from_low(5), Amount::from_sats(3));
        expected.credit(Address::from_low(500), Amount::from_sats(9));
        expected.storage_set(Address::from_low(99), 1, 4, None);
        assert_eq!(recovered.account_count(), expected.account_count());
        assert_eq!(recovered.state_root(), expected.state_root());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupted_committed_record_fails_the_reopen_mount() {
        // A committed record the mount cannot decode is corruption: the mount
        // fails rather than recover a state without the account.
        let (backend, dir) = disk_store("undecodable");
        let mut state = WorldState::new();
        state.credit(Address::from_low(1), Amount::from_sats(1_234_567));
        state.credit(Address::from_low(2), Amount::from_sats(20));
        state.attach_backend(backend, None).unwrap();
        // A frame with a valid CRC around code this build cannot run.
        let record = DeltaRecord {
            address: Address::from_low(3),
            account: Some(StoredAccount {
                balance_sats: 1,
                nonce: 0,
                storage: vec![],
                // A Push whose u64 operand is cut short.
                code: Some(Arc::from(&[1, 0, 0, 0, 0, 0, 0, 0, 1, 0xff][..])),
            }),
        };
        {
            let mut guard = state.backend().unwrap().lock().unwrap();
            guard.begin_block(1).unwrap();
            // No snapshot is due at height 1, so the state is not pulled.
            guard
                .commit_block(1, &mut vec![record].into_iter(), &mut std::iter::empty())
                .unwrap();
        }
        drop(state);
        let reopened = DiskBackend::open(&DiskConfig::new(&dir)).unwrap();
        let mut recovered = WorldState::new();
        let outcome = recovered.attach_backend(shared(reopened), None);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(outcome.is_err(), "a mount without the account");
        assert_eq!(recovered.account_count(), 0, "nothing half-mounted");
        assert!(recovered.backend().is_none());
    }

    #[test]
    fn the_disk_store_reads_its_files_only_at_open() {
        // A snapshot is written from the running state, not read back from
        // the store's files: with every file garbled after `open`, commits
        // across a snapshot boundary still succeed, and the store reopens to
        // the running state.
        let dir = std::env::temp_dir().join(format!(
            "blockconc-account-read-once-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = DiskConfig {
            snapshot_every: 4,
            ..DiskConfig::new(&dir)
        };
        let run = |state: &mut WorldState, heights: std::ops::RangeInclusive<u64>| {
            for height in heights {
                state.begin_block(height).unwrap();
                state.credit(Address::from_low(height % 5), Amount::from_sats(height));
                state.storage_set(Address::from_low(9), height, height * 7, None);
                state.commit_block().unwrap();
            }
        };
        {
            let mut state = genesis();
            state
                .attach_backend(shared(DiskBackend::open(&config).unwrap()), None)
                .unwrap();
            run(&mut state, 1..=5);
        }
        let mut state = WorldState::new();
        state
            .attach_backend(shared(DiskBackend::open(&config).unwrap()), None)
            .unwrap();
        let mut garbled = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let len = std::fs::metadata(&path).unwrap().len() as usize;
            let garbage: Vec<u8> = (0..len)
                .map(|i| (i as u8).wrapping_mul(31) ^ 0xa5)
                .collect();
            std::fs::write(&path, garbage).unwrap();
            garbled += 1;
        }
        assert!(garbled >= 2, "a snapshot and a journal were garbled");
        run(&mut state, 6..=9);
        let stats = state.backend_stats().unwrap();
        assert_eq!(stats.snapshots_written, 1, "the snapshot at height 8");
        let mut reopened = WorldState::new();
        reopened
            .attach_backend(shared(DiskBackend::open(&config).unwrap()), None)
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(reopened.state_root(), state.state_root());
        assert_eq!(reopened.account_count(), state.account_count());
    }

    #[test]
    fn created_and_reverted_account_is_deleted_from_committed_state() {
        let mut state = backed_state();
        state.begin_block(1).unwrap();
        let ghost = Address::from_low(77);
        let mut journal = Journal::new();
        state.credit_journalled(ghost, Amount::from_coins(1), Some(&mut journal));
        assert!(state.contains(ghost));
        state.revert(journal);
        assert!(!state.contains(ghost));
        assert_eq!(state.balance(ghost), Amount::ZERO);
        let deletion = DeltaRecord {
            address: ghost,
            account: None,
        };
        assert_eq!(write_set(&state), [deletion]);
        state.commit_block().unwrap();
        assert!(!state.contains(ghost));
    }

    #[test]
    fn reattaching_a_reopened_store_with_empty_genesis_succeeds() {
        // A store whose only commit was an empty genesis (height 0, no accounts)
        // must reopen as "already initialized", not retake the fresh path and
        // fail trying to re-commit block 0.
        let dir =
            std::env::temp_dir().join(format!("blockconc-account-reattach-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = DiskConfig::new(&dir);
        {
            let backend = DiskBackend::open(&config).unwrap();
            let mut state = WorldState::new();
            state.attach_backend(shared(backend), None).unwrap();
            assert_eq!(state.account_count(), 0);
        }
        let backend = DiskBackend::open(&config).unwrap();
        let mut state = WorldState::new();
        state.attach_backend(shared(backend), None).unwrap();
        state.begin_block(1).unwrap();
        state.credit(Address::from_low(1), Amount::from_coins(1));
        state.commit_block().unwrap();
        assert_eq!(state.balance(Address::from_low(1)), Amount::from_coins(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn take_write_set_matches_what_commit_would_push() {
        let mut state = backed_state();
        state.begin_block(1).unwrap();
        state.credit(Address::from_low(3), Amount::from_coins(5));
        state
            .debit(Address::from_low(1), Amount::from_coins(5))
            .unwrap();
        let mut out = vec![DeltaRecord {
            address: Address::from_low(99),
            account: None,
        }];
        state.take_write_set(&mut out);
        assert_eq!(out.len(), 2, "stale buffer contents are replaced");
        let addresses: Vec<Address> = out.iter().map(|r| r.address).collect();
        assert!(addresses.contains(&Address::from_low(1)));
        assert!(addresses.contains(&Address::from_low(3)));
        // The dirty set is consumed: a second take is empty.
        state.take_write_set(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn reset_working_set_drops_uncommitted_state_but_keeps_the_backend() {
        let mut state = scratch_state();
        let (contract, fresh) = (Address::from_low(9), Address::from_low(55));
        state.credit_journalled(fresh, Amount::from_coins(9), None);
        state
            .debit_journalled(Address::from_low(1), Amount::from_coins(1), None)
            .unwrap();
        state.storage_set(contract, 0, 5, None);
        assert!(state.credit_delta(Address::from_low(70), Amount::from_sats(1), None));
        state.reset_working_set();
        assert!(state.set.accounts.is_empty());
        // Uncommitted writes are gone; committed values read through again.
        assert!(!state.contains(fresh));
        assert_eq!(state.balance(Address::from_low(1)), Amount::from_coins(10));
        assert_eq!(state.storage(contract, 0), 0);
        // Nothing is left to harvest, and the state is usable again.
        let (mut fragments, mut touched, mut deltas) = (Vec::new(), Vec::new(), Vec::new());
        state.take_write_fragments(&mut fragments, &mut touched);
        state.take_delta_ops(&mut deltas);
        assert!(fragments.is_empty() && touched.is_empty() && deltas.is_empty());
        state.bump_nonce(Address::from_low(1), None);
        assert_eq!(state.nonce(Address::from_low(1)), 1);
    }

    #[test]
    fn account_handoff_moves_value_between_partitions() {
        let mut source = backed_state();
        let mut dest = WorldState::new();
        dest.attach_backend(shared(MemoryBackend::new()), None)
            .unwrap();
        source.begin_block(1).unwrap();
        dest.begin_block(1).unwrap();

        let moved = Address::from_low(2);
        let stored = source.export_account(moved).expect("account exists");
        source.remove_account(moved);
        dest.install_account(moved, &stored);
        // The source journals the departure, the destination the arrival.
        let departure = DeltaRecord {
            address: moved,
            account: None,
        };
        assert_eq!(write_set(&source), [departure]);
        let arrival = DeltaRecord {
            address: moved,
            account: Some(stored),
        };
        assert_eq!(write_set(&dest), [arrival]);
        source.commit_block().unwrap();
        dest.commit_block().unwrap();

        assert!(!source.contains(moved));
        assert_eq!(dest.balance(moved), Amount::from_coins(20));
    }

    #[test]
    fn withdraw_phantom_erases_every_trace_of_a_reversed_credit() {
        let mut state = backed_state();
        state.begin_block(1).unwrap();
        let root_before = state.state_root();
        let phantom = Address::from_low(7_777);
        // The debit half of a cross-shard transfer credits the foreign receiver
        // locally; the reversal must leave the partition bit-identical.
        state.credit(phantom, Amount::from_coins(3));
        state
            .withdraw_phantom(phantom, Amount::from_coins(3))
            .unwrap();
        assert!(!state.contains(phantom));
        assert_eq!(state.state_root(), root_before);
        let stats = state.commit_block().unwrap();
        assert_eq!(stats.records, 0, "no write-set record for the phantom");
    }

    #[test]
    fn withdraw_phantom_keeps_real_accounts() {
        let mut genesis = genesis();
        let empty = Address::from_low(4);
        genesis.credit(empty, Amount::ZERO);
        let mut state = genesis;
        state
            .attach_backend(shared(MemoryBackend::new()), None)
            .unwrap();
        state.begin_block(1).unwrap();
        // A pre-existing account that receives and loses a credit stays (it is
        // committed state, not a phantom), even if the balance returns to its
        // prior value — an empty one included.
        for (address, balance) in [
            (Address::from_low(1), Amount::from_coins(10)),
            (empty, Amount::ZERO),
        ] {
            state.credit(address, Amount::from_coins(2));
            state
                .withdraw_phantom(address, Amount::from_coins(2))
                .unwrap();
            assert!(state.contains(address));
            assert_eq!(state.balance(address), balance);
        }
    }

    #[test]
    fn a_phantom_credit_to_a_departed_account_commits_its_deletion() {
        // An account handed off to another partition earlier in the block, then
        // credited here by a transfer that still reaches it as a phantom: the
        // withdrawal must leave the departure in place, not an empty account.
        let mut state = open_block();
        let departed = Address::from_low(2);
        state.remove_account(departed);
        state.credit(departed, Amount::from_coins(1));
        state
            .withdraw_phantom(departed, Amount::from_coins(1))
            .unwrap();
        assert!(!state.contains(departed));
        let deletion = DeltaRecord {
            address: departed,
            account: None,
        };
        assert_eq!(write_set(&state), [deletion]);
        state.commit_block().unwrap();
        assert!(!state.contains(departed));
        assert_eq!(state.account_count(), 2);
    }

    #[test]
    fn blind_credit_folds_virtually_and_commits_classically() {
        let mut classic = open_block();
        let mut delta = scratch_state(); // the same genesis, read cell by cell
        let hot = Address::from_low(2); // committed, never materialized below
        let ghost = Address::from_low(70); // never existed
        let spender = Address::from_low(1);

        classic.credit(hot, Amount::from_sats(5));
        classic.credit(hot, Amount::from_sats(6));
        classic.credit(ghost, Amount::from_sats(9));

        assert!(delta.credit_delta(hot, Amount::from_sats(5), None));
        assert!(delta.credit_delta(hot, Amount::from_sats(6), None));
        assert!(delta.credit_delta(ghost, Amount::from_sats(9), None));
        // Nothing materialized, yet every observer sees the folded values.
        assert!(delta.set.accounts.is_empty());
        assert_eq!(delta.balance(hot), classic.balance(hot));
        assert_eq!(delta.balance(ghost), Amount::from_sats(9));
        assert!(delta.contains(ghost));

        // A materialized account's balance is already ordered: the classic
        // path takes over.
        classic.bump_nonce(spender, None);
        delta.bump_nonce(spender, None);
        assert!(!delta.credit_delta(spender, Amount::from_sats(1), None));
        classic.credit(spender, Amount::from_sats(1));
        delta.credit_journalled(spender, Amount::from_sats(1), None);

        // Harvested onto the same pre-state, the blind credits commit exactly
        // what the classic ones do.
        let mut committed = open_block();
        commit_harvest(&mut committed, &mut delta);
        assert_eq!(committed.total_supply(), classic.total_supply());
        assert_eq!(committed.account_count(), classic.account_count());
        assert_eq!(committed.state_root(), classic.state_root());
        assert_eq!(committed.export_account(hot), classic.export_account(hot));
        let (mut expected, mut actual) = (Vec::new(), Vec::new());
        classic.clone().take_write_set(&mut expected);
        committed.clone().take_write_set(&mut actual);
        assert_eq!(actual, expected);

        classic.commit_block().unwrap();
        committed.commit_block().unwrap();
        assert_eq!(committed.state_root(), classic.state_root());
        assert_eq!(committed.balance(hot), classic.balance(hot));
    }

    #[test]
    fn blind_credit_reverts_and_leaves_the_classic_touch_marker() {
        let mut state = scratch_state();
        let ghost = Address::from_low(71);
        let mut journal = Journal::new();
        assert!(state.credit_delta(ghost, Amount::from_sats(4), Some(&mut journal)));
        assert!(state.contains(ghost));
        state.revert_to(&mut journal, 0);
        assert!(!state.contains(ghost));
        assert_eq!(state.balance(ghost), Amount::ZERO);
        // The reverted entry still surfaces as a zero-addend touch marker.
        let mut ops = Vec::new();
        state.clone().take_delta_ops(&mut ops);
        assert_eq!(ops, vec![(StateKey::Balance(ghost), 0)]);

        // Committed, the marker is the write-set record a reverted classic
        // creation leaves, and no account.
        let mut classic = open_block();
        let mut journal = Journal::new();
        classic.credit_journalled(ghost, Amount::from_sats(4), Some(&mut journal));
        classic.revert(journal);
        let mut committed = open_block();
        commit_harvest(&mut committed, &mut state);
        let (mut expected, mut actual) = (Vec::new(), Vec::new());
        classic.clone().take_write_set(&mut expected);
        committed.clone().take_write_set(&mut actual);
        assert_eq!(actual, expected);
        committed.commit_block().unwrap();
        assert!(!committed.contains(ghost));
    }

    #[test]
    fn debit_folds_pending_credit_and_revert_restores_it() {
        let mut state = scratch_state();
        let ghost = Address::from_low(72);
        assert!(state.credit_delta(ghost, Amount::from_sats(10), None));
        let mut journal = Journal::new();
        state
            .debit_journalled(ghost, Amount::from_sats(3), Some(&mut journal))
            .unwrap();
        assert_eq!(state.balance(ghost), Amount::from_sats(7));
        state.revert_to(&mut journal, 0);
        // The fold reversed: the credit is pending again, the account is gone.
        assert_eq!(state.balance(ghost), Amount::from_sats(10));
        assert!(state.set.accounts.is_empty());
        let mut ops = Vec::new();
        state.take_delta_ops(&mut ops);
        assert_eq!(ops, vec![(StateKey::Balance(ghost), 10)]);
    }

    /// The classic `SAdd`: an ordered read-modify-write.
    fn classic_add<S: StateAccess>(state: &mut S, address: Address, slot: u64, v: u64) {
        let cur = state.storage(address, slot);
        state.storage_set(address, slot, cur.wrapping_add(v), None);
    }

    #[test]
    fn storage_add_delta_agrees_with_classic_read_modify_write() {
        let mut classic = open_block();
        let mut delta = scratch_state();
        let sink = Address::from_low(73);

        // add, add, absolute store, add — the absolute write must override the
        // pending addends on both paths.
        classic_add(&mut classic, sink, 0, 5);
        classic_add(&mut classic, sink, 0, 6);
        classic.storage_set(sink, 0, 100, None);
        classic_add(&mut classic, sink, 0, 1);
        classic_add(&mut classic, sink, 1, 9);

        assert!(delta.storage_add_delta(sink, 0, 5, None));
        assert!(delta.storage_add_delta(sink, 0, 6, None));
        assert_eq!(delta.storage(sink, 0), 11);
        delta.storage_set(sink, 0, 100, None); // drops the pending addend
        assert!(!delta.storage_add_delta(sink, 0, 1, None)); // stored slot: classic path
        classic_add(&mut delta, sink, 0, 1);
        // A *different* slot of the now-resident account still goes blind: the
        // Meta and Slot cell parts are independent.
        assert!(delta.storage_add_delta(sink, 1, 9, None));

        assert_eq!(
            delta.storage(sink, 0),
            WorldState::storage(&classic, sink, 0)
        );
        assert_eq!(
            delta.storage(sink, 1),
            WorldState::storage(&classic, sink, 1)
        );
        let mut committed = open_block();
        commit_harvest(&mut committed, &mut delta);
        assert_eq!(committed.state_root(), classic.state_root());
        classic.commit_block().unwrap();
        committed.commit_block().unwrap();
        assert_eq!(committed.state_root(), classic.state_root());
    }

    /// SplitMix64 step for the generated-mutation tests.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Six committed accounts: plain ones, one with slots, one contract with slots.
    fn committed_universe() -> BTreeMap<Address, StoredAccount> {
        let mut world = WorldState::new();
        for i in 1..=6u64 {
            world.credit(Address::from_low(i), Amount::from_sats(1_000 * i));
        }
        for slot in 0..40u64 {
            world.storage_set(Address::from_low(5), slot, 100 + slot, None);
            world.storage_set(Address::from_low(6), slot * 3, 7 + slot, None);
        }
        world.deploy_contract(Address::from_low(6), Arc::new(Contract::counter()));
        world
            .iter()
            .map(|(address, account)| (*address, account_to_stored(account)))
            .collect()
    }

    /// `committed` as the genesis of a state on a memory backend: whole
    /// accounts, every write tracked.
    fn backed(committed: &BTreeMap<Address, StoredAccount>) -> WorldState {
        let mut state = WorldState::new();
        for (address, stored) in committed {
            state.install_account(*address, stored);
        }
        state
            .attach_backend(shared(MemoryBackend::new()), None)
            .unwrap();
        state
    }

    /// One generated mutation, applied identically to any state.
    fn mutate<S: StateAccess>(state: &mut S, rng: &mut u64, journal: &mut Journal) {
        // Addresses 1..=6 are committed, 7..=8 never existed.
        let address = Address::from_low(1 + mix(rng) % 8);
        let slot = match mix(rng) % 3 {
            0 => mix(rng) % 40, // a committed slot of accounts 5 / 6
            1 => 3 * (mix(rng) % 40),
            _ => 500 + mix(rng) % 4, // never committed
        };
        match mix(rng) % 9 {
            0 => state.credit_journalled(address, Amount::from_sats(mix(rng) % 50), Some(journal)),
            1 => {
                let _ = state.debit_journalled(
                    address,
                    Amount::from_sats(mix(rng) % 1_500),
                    Some(journal),
                );
            }
            2 => state.bump_nonce(address, Some(journal)),
            // Stores: fresh values, zero (deletion), and the value already there.
            3 => state.storage_set(address, slot, 1 + mix(rng) % 9, Some(journal)),
            4 => state.storage_set(address, slot, 0, Some(journal)),
            5 => {
                let same = state.storage(address, slot);
                state.storage_set(address, slot, same, Some(journal));
            }
            6 => state.deploy_contract(
                address,
                Arc::new(if mix(rng) % 2 == 0 {
                    Contract::counter() // identical to account 6's code
                } else {
                    Contract::fee_sink()
                }),
            ),
            // Roll back everything journalled so far (creations included).
            7 => state.revert_to(journal, 0),
            _ => {}
        }
    }

    #[test]
    fn sparse_write_fragments_equal_the_full_account_diff_on_generated_mutations() {
        let committed = committed_universe();
        for seed in 0..200u64 {
            let mut scratch = ScratchState::new(MapCells {
                accounts: committed.clone(),
            });
            // The oracle side: the same committed accounts, whole and resident.
            let mut full = backed(&committed);

            let (mut rng_a, mut rng_b) = (seed, seed);
            let (mut journal_a, mut journal_b) = (Journal::new(), Journal::new());
            for _ in 0..(1 + seed % 12) {
                mutate(&mut scratch, &mut rng_a, &mut journal_a);
                mutate(&mut full, &mut rng_b, &mut journal_b);
                // Every observer agrees on the way, sparse or not.
                for i in 1..=8u64 {
                    let address = Address::from_low(i);
                    assert_eq!(
                        scratch.balance(address),
                        full.balance(address),
                        "seed {seed}"
                    );
                    assert_eq!(scratch.nonce(address), full.nonce(address), "seed {seed}");
                    assert_eq!(
                        scratch.contains(address),
                        full.contains(address),
                        "seed {seed}"
                    );
                    assert_eq!(
                        scratch.contract(address),
                        WorldState::contract(&full, address),
                        "seed {seed}"
                    );
                    for slot in [0, 3, 39, 117, 500, 503] {
                        assert_eq!(
                            scratch.storage(address, slot),
                            full.storage(address, slot),
                            "seed {seed}: slot {slot} of {address}"
                        );
                    }
                }
            }

            let mut expected = Vec::new();
            let mut dirty = Vec::new();
            full.clone().take_write_set(&mut dirty);
            for record in &dirty {
                diff_account_fragments(
                    record.address,
                    committed.get(&record.address),
                    record.account.as_ref(),
                    &mut expected,
                );
            }
            let (mut fragments, mut touched) = (Vec::new(), Vec::new());
            scratch.take_write_fragments(&mut fragments, &mut touched);
            assert_eq!(fragments, expected, "seed {seed}");
            assert_eq!(
                touched,
                dirty.iter().map(|r| r.address).collect::<Vec<_>>(),
                "seed {seed}"
            );
            // Sparse means sparse: no resident account outgrew what was stored.
            // (Nothing can be read whole: a cell view has no such question.)
            assert!(scratch
                .set
                .accounts
                .values()
                .all(|account| account.storage_len() <= 12));
        }
    }

    #[test]
    fn in_place_cell_commit_equals_sequential_replay() {
        let committed = committed_universe();
        let open = || {
            let mut state = backed(&committed);
            state.begin_block(1).unwrap();
            state
        };
        for seed in 0..100u64 {
            let mut sequential = open();
            let mut rng = seed;
            let mut journal = Journal::new();
            for _ in 0..(1 + seed % 16) {
                mutate(&mut sequential, &mut rng, &mut journal);
            }
            let mut write_set = Vec::new();
            sequential.clone().take_write_set(&mut write_set);

            // The same transition as final cells: each journalled account's diff
            // against committed state, set in place; unchanged ones only touched.
            let mut in_place = open();
            for record in &write_set {
                let mut fragments = Vec::new();
                diff_account_fragments(
                    record.address,
                    committed.get(&record.address),
                    record.account.as_ref(),
                    &mut fragments,
                );
                // `set_cell` is `apply_fragment` in place.
                let mut replayed = committed.get(&record.address).cloned();
                for fragment in &fragments {
                    apply_fragment(&mut replayed, &fragment.key, fragment.value.as_ref());
                    in_place.set_cell(&fragment.key, fragment.value.as_ref());
                }
                assert_eq!(replayed, record.account, "seed {seed}");
                in_place.touch(record.address);
            }
            assert_eq!(
                in_place.state_root(),
                sequential.state_root(),
                "seed {seed}"
            );
            let mut journalled = Vec::new();
            in_place.clone().take_write_set(&mut journalled);
            assert_eq!(journalled, write_set, "seed {seed}: journalled records");
            sequential.commit_block().unwrap();
            in_place.commit_block().unwrap();
            assert_eq!(
                in_place.state_root(),
                sequential.state_root(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn stored_account_round_trips_through_conversion() {
        let mut account = Account::with_balance(Amount::from_sats(123));
        account.set_nonce(7);
        account.storage_set(3, 9);
        account.set_code(Arc::new(Contract::counter()));
        let stored = account_to_stored(&account);
        let back = stored_to_account(&stored).unwrap();
        assert_eq!(back.balance(), account.balance());
        assert_eq!(back.nonce(), account.nonce());
        assert_eq!(back.storage_get(3), 9);
        assert!(back.is_contract());
        assert_eq!(account_to_stored(&back), stored);
    }

    /// A block that writes its addresses in descending order, deletes one
    /// account and reverts one creation; `mount` is the backend under it.
    fn descending_block(mount: SharedBackend) -> WorldState {
        let mut state = WorldState::new();
        for low in 1..=40u64 {
            state.credit(Address::from_low(low), Amount::from_sats(low));
        }
        state.attach_backend(mount, None).unwrap();
        state.begin_block(1).unwrap();
        let mut journal = Journal::new();
        state.credit_journalled(
            Address::from_low(50),
            Amount::from_sats(5),
            Some(&mut journal),
        );
        state.revert(journal);
        for low in (1..=40u64).rev() {
            state.credit(Address::from_low(low), Amount::from_sats(1));
        }
        state.remove_account(Address::from_low(17));
        state
    }

    #[test]
    fn write_sets_come_out_in_ascending_address_order() {
        use blockconc_store::journal::{FrameScanner, JournalRecord};

        // What every pull point must yield: addresses ascending, the removed
        // account and the reverted creation as deletions.
        let expected: Vec<(Address, bool)> = (1..=40u64)
            .chain([50])
            .map(|low| (Address::from_low(low), low != 17 && low != 50))
            .collect();
        let shape = |records: &[DeltaRecord]| -> Vec<(Address, bool)> {
            records
                .iter()
                .map(|r| (r.address, r.account.is_some()))
                .collect()
        };
        // Every state below is built afresh, and each hashed set draws its
        // own keys, so an order leaking out of a hash set fails a run.
        for run in 0..2 {
            let mut harvested = Vec::new();
            descending_block(shared(MemoryBackend::new())).take_write_set(&mut harvested);
            assert_eq!(shape(&harvested), expected, "run {run}: take_write_set");

            let mut counted = descending_block(shared(MemoryBackend::new()));
            let dirty = counted.set.dirty.len() as u64;
            assert_eq!(dirty, 41);
            assert_eq!(counted.commit_block().unwrap().records, dirty, "run {run}");

            let (backend, dir) = disk_store(&format!("write-set-order-{run}"));
            let mut journaled = descending_block(backend);
            let dirty = journaled.set.dirty.len() as u64;
            assert_eq!(
                journaled.commit_block().unwrap().records,
                dirty,
                "run {run}"
            );
            drop(journaled);
            let bytes = std::fs::read(dir.join("journal-000000.log")).unwrap();
            let frames: Vec<JournalRecord> = FrameScanner::new(&bytes)
                .map(|frame| frame.unwrap().record)
                .skip_while(|record| !matches!(record, JournalRecord::BlockBegin { height: 1 }))
                .collect();
            let frames: Vec<(Address, bool)> = frames
                .iter()
                .filter_map(|record| match record {
                    JournalRecord::Upsert { address, .. } => Some((*address, true)),
                    JournalRecord::Delete { address } => Some((*address, false)),
                    _ => None,
                })
                .collect();
            assert_eq!(frames, expected, "run {run}: journal frames");
            let _ = std::fs::remove_dir_all(&dir);

            let mut committed = WorldState::new();
            for low in 1..=40u64 {
                committed.credit(Address::from_low(low), Amount::from_sats(low));
            }
            let mut scratch = ScratchState::new(MapCells::of(&committed));
            let mut journal = Journal::new();
            scratch.credit_journalled(
                Address::from_low(50),
                Amount::from_sats(5),
                Some(&mut journal),
            );
            scratch.revert_to(&mut journal, 0);
            for low in (1..=40u64).rev() {
                scratch.credit_journalled(Address::from_low(low), Amount::from_sats(1), None);
            }
            let (mut fragments, mut touched) = (Vec::new(), Vec::new());
            scratch.take_write_fragments(&mut fragments, &mut touched);
            let ascending: Vec<Address> = expected.iter().map(|&(address, _)| address).collect();
            assert_eq!(touched, ascending, "run {run}: touched");
            let written: Vec<Address> = fragments.iter().map(|f| f.key.address()).collect();
            assert_eq!(written, ascending[..40], "run {run}: fragments");
        }
    }
}
