//! World state, rollback journal and per-transaction access sets.

use crate::vm::Contract;
use crate::Account;
use blockconc_store::{
    BlockDelta, CommitStats, DeltaRecord, FragmentValue, SharedBackend, StateBackend,
    StateFragment, StateKey, StateValue, StoreStats, StoredAccount,
};
use blockconc_types::{Address, Amount, Error, Hash, Result};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

/// The read, write and delta sets collected while executing one transaction.
///
/// A *delta* access is a commutative merge on a key — a pure balance credit or a
/// counter increment — whose final value does not depend on the order in which
/// concurrent deltas land. Two transactions conflict at the storage layer iff one
/// writes a key the other reads, writes or delta-merges, or one delta-merges a
/// key the other reads. Delta∧delta on the same key does **not** conflict: that
/// is the property that dissolves hot fee-sink accounts into independent work.
///
/// Keys are kept in sorted, deduplicated small vectors rather than hash sets: the
/// typical transaction touches a handful of keys, so [`conflicts_with`] is a linear
/// two-pointer merge over cache-friendly slices instead of per-key re-hashing — the
/// hot loop of optimistic-concurrency conflict detection (benchmarked in
/// `crates/bench/benches/access_set.rs`).
///
/// [`conflicts_with`]: AccessSet::conflicts_with
///
/// # Examples
///
/// ```
/// use blockconc_types::Address;
/// use blockconc_account::{AccessSet, StateKey};
///
/// let mut a = AccessSet::new();
/// a.record_delta(StateKey::Balance(Address::from_low(1)));
/// let mut b = AccessSet::new();
/// b.record_delta(StateKey::Balance(Address::from_low(1)));
/// assert!(!a.conflicts_with(&b)); // commutative credits never conflict
/// let mut r = AccessSet::new();
/// r.record_read(StateKey::Balance(Address::from_low(1)));
/// assert!(a.conflicts_with(&r)); // an observer still orders against them
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessSet {
    reads: Vec<StateKey>,
    writes: Vec<StateKey>,
    deltas: Vec<StateKey>,
}

/// Inserts `key` into a sorted vector, keeping it sorted and duplicate-free.
fn insert_sorted(set: &mut Vec<StateKey>, key: StateKey) {
    if let Err(pos) = set.binary_search(&key) {
        set.insert(pos, key);
    }
}

/// Returns `true` if two sorted slices share an element (two-pointer merge).
fn sorted_intersects(a: &[StateKey], b: &[StateKey]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => return true,
        }
    }
    false
}

impl AccessSet {
    /// Creates an empty access set.
    pub fn new() -> Self {
        AccessSet::default()
    }

    /// Records a read of `key`.
    pub fn record_read(&mut self, key: StateKey) {
        insert_sorted(&mut self.reads, key);
    }

    /// Records a write of `key`. An absolute write subsumes any delta previously
    /// recorded on the same key (the order-dependent access is the stronger one).
    pub fn record_write(&mut self, key: StateKey) {
        insert_sorted(&mut self.writes, key);
        if let Ok(pos) = self.deltas.binary_search(&key) {
            self.deltas.remove(pos);
        }
    }

    /// Records a commutative delta merge on `key`. A no-op when the key is
    /// already in the write set — the write already carries the stronger class.
    pub fn record_delta(&mut self, key: StateKey) {
        if self.writes.binary_search(&key).is_ok() {
            return;
        }
        insert_sorted(&mut self.deltas, key);
    }

    /// Keys read by the transaction, in sorted order.
    pub fn reads(&self) -> &[StateKey] {
        &self.reads
    }

    /// Keys written by the transaction, in sorted order.
    pub fn writes(&self) -> &[StateKey] {
        &self.writes
    }

    /// Keys delta-merged by the transaction, in sorted order.
    pub fn deltas(&self) -> &[StateKey] {
        &self.deltas
    }

    /// Returns `true` if this access set conflicts with `other`: a write in one
    /// intersects a read, write or delta in the other, or a delta in one
    /// intersects a read in the other. Delta∧delta never conflicts — commutative
    /// merges reorder freely.
    pub fn conflicts_with(&self, other: &AccessSet) -> bool {
        sorted_intersects(&self.writes, &other.writes)
            || sorted_intersects(&self.writes, &other.reads)
            || sorted_intersects(&other.writes, &self.reads)
            || sorted_intersects(&self.writes, &other.deltas)
            || sorted_intersects(&other.writes, &self.deltas)
            || sorted_intersects(&self.deltas, &other.reads)
            || sorted_intersects(&other.deltas, &self.reads)
    }

    /// Merges another access set into this one (used when a transaction triggers
    /// nested contract calls).
    pub fn merge(&mut self, other: &AccessSet) {
        for key in &other.reads {
            insert_sorted(&mut self.reads, *key);
        }
        for key in &other.writes {
            self.record_write(*key);
        }
        for key in &other.deltas {
            self.record_delta(*key);
        }
    }

    /// Returns `true` if no reads, writes or deltas were recorded.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty() && self.deltas.is_empty()
    }
}

/// An undo journal recording the previous values of everything a transaction mutated,
/// so a failing transaction can be rolled back without cloning the whole state.
#[derive(Debug, Default)]
pub struct Journal {
    ops: Vec<UndoOp>,
}

#[derive(Debug)]
enum UndoOp {
    Balance(Address, Amount),
    Nonce(Address, u64),
    Storage(Address, u64, u64),
    Created(Address),
    /// A blind delta was accumulated on `key`: undo subtracts the addend back out
    /// of the pending map.
    DeltaAdded(StateKey, u64),
    /// A pending delta on `key` was folded into (or overridden on) the resident
    /// account: undo restores the pending addend. The account-side effects of the
    /// fold are journalled separately (Balance/Created ops), so LIFO replay first
    /// restores the pending entry, then the account.
    DeltaFolded(StateKey, u64),
}

impl Journal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        Journal::default()
    }

    /// Number of recorded undo operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if nothing has been journalled.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// A checkpoint that can later be passed to [`WorldState::revert_to`] to undo only
    /// the operations recorded after this point (nested-call rollback).
    pub fn checkpoint(&self) -> usize {
        self.ops.len()
    }
}

/// Converts a cached [`Account`] into its canonical persisted form. The code
/// blob is the JSON cached at deployment, so this never re-serializes contracts.
pub fn account_to_stored(account: &Account) -> StoredAccount {
    StoredAccount {
        balance_sats: account.balance().sats(),
        nonce: account.nonce(),
        storage: account.storage_entries(),
        code_json: account.code_json().map(str::to_string),
    }
}

/// Decodes a persisted contract-code blob (a [`StoredAccount::code_json`] or a
/// [`FragmentValue::Code`]).
///
/// # Panics
///
/// Undecodable code means the store and this build disagree about the contract
/// format (or the blob was corrupted past the frame CRC) — executing the account
/// as if it had no code would silently diverge from the committed history, so
/// fail loudly instead.
pub fn decode_contract(code: &str) -> Arc<Contract> {
    Arc::new(
        serde_json::from_str::<Contract>(code)
            .expect("persisted contract code must deserialize (format skew or corruption)"),
    )
}

/// Materializes a persisted account back into the working-set form.
///
/// # Panics
///
/// Panics if the account carries contract code this build cannot decode (see
/// [`decode_contract`]): continuing without the code would corrupt execution.
pub fn stored_to_account(stored: &StoredAccount) -> Account {
    let mut account = Account::with_balance(Amount::from_sats(stored.balance_sats));
    account.set_nonce(stored.nonce);
    for &(key, value) in &stored.storage {
        account.storage_set(key, value);
    }
    if let Some(code) = &stored.code_json {
        account.set_code_with_json(decode_contract(code), Arc::from(code.as_str()));
    }
    account
}

/// A [`StateBackend`] that serves a *scratch* [`WorldState`] one cell at a time
/// ([`WorldState::scratch_over`]): balance/nonce pairs and slots through
/// [`StateBackend::get`], and deployed code through this trait — `blockconc_store`
/// cannot name [`Contract`], and a digest is not something the interpreter can run.
pub trait CellBackend: StateBackend {
    /// The contract deployed at `address` as this backend sees it, if any.
    fn contract(&mut self, address: Address) -> Option<Arc<Contract>>;
}

/// The global state of an account-based blockchain.
///
/// Without a backend this is exactly the historical in-memory map: every account
/// lives in the resident map, and nothing else exists. With a
/// [`StateBackend`](blockconc_store::StateBackend) mounted
/// ([`WorldState::attach_backend`]), the map becomes a *working set* over the
/// backend's committed state: reads fall through to the backend on a resident miss,
/// writes are tracked as the open block's dirty set, and
/// [`commit_block`](WorldState::commit_block) pushes the block's write-set delta
/// down (journaled to disk by `blockconc_store::DiskBackend`). Clones share the
/// backend handle but own their resident map.
///
/// All mutating operations can be journalled (pass a [`Journal`]) so that a failed
/// transaction can be reverted precisely; this mirrors how real execution clients
/// handle reverts and is also what allows speculative executors to roll back
/// conflicting transactions.
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
    accounts: HashMap<Address, Account>,
    backend: Option<SharedBackend>,
    working_set_cap: Option<usize>,
    dirty: BTreeSet<Address>,
    open_height: Option<u64>,
    /// Blind commutative contributions to non-resident accounts: accumulated
    /// without reading the account, folded over the authoritative value only
    /// when observed (value accessors), ordered against (debit, absolute slot
    /// write) or harvested ([`take_delta_ops`](WorldState::take_delta_ops) /
    /// [`commit_block`](WorldState::commit_block)).
    pending: HashMap<Address, AccountDeltas>,
    /// Slots absolutely written (`storage_set`) in the current working set.
    /// A blind slot delta must not coexist with an absolute write to the same
    /// slot inside one write-set harvest (the engine would emit two cell
    /// writes for one part), so `SAdd` on a stored slot falls back to the
    /// classic read-modify-write. On a scratch state these are also exactly
    /// the slots a sparse resident account holds authoritatively (ordered, so
    /// the harvest walks one account's slots ascending).
    stored_slots: BTreeSet<(Address, u64)>,
    /// The mounted backend again, typed, when this is a scratch state
    /// ([`WorldState::scratch_over`]). Its presence is what makes first writes
    /// materialize *sparse* accounts.
    cells: Option<Arc<Mutex<dyn CellBackend>>>,
}

/// The unmaterialized commutative contributions to one account: a balance
/// credit sum plus per-slot wrapping addends. A zero entry is *not* removed —
/// it is the conservative "was touched, then fully reverted" marker that keeps
/// the delta path's write sets bit-identical to classic execution's dirty
/// marks.
#[derive(Debug, Clone, Default)]
struct AccountDeltas {
    balance: u64,
    slots: BTreeMap<u64, u64>,
}

impl AccountDeltas {
    /// True when every addend is zero — nothing to fold, only the touch marker.
    fn is_noop(&self) -> bool {
        self.balance == 0 && self.slots.values().all(|&v| v == 0)
    }
}

/// Folds pending deltas over a persisted account value in place: balance adds
/// are checked (mirroring [`Account::credit`]'s overflow panic), slot adds wrap
/// and a slot reaching zero is removed (mirroring [`Account::storage_set`]).
fn fold_deltas_into(stored: &mut StoredAccount, deltas: &AccountDeltas) {
    stored.balance_sats = stored
        .balance_sats
        .checked_add(deltas.balance)
        .expect("amount overflow");
    for (&slot, &add) in &deltas.slots {
        if add == 0 {
            continue;
        }
        match stored.storage.binary_search_by_key(&slot, |&(k, _)| k) {
            Ok(pos) => {
                let new = stored.storage[pos].1.wrapping_add(add);
                if new == 0 {
                    stored.storage.remove(pos);
                } else {
                    stored.storage[pos].1 = new;
                }
            }
            Err(pos) => stored.storage.insert(pos, (slot, add)),
        }
    }
}

/// A backend's answer to a storage key as a slot value (absent reads zero).
fn slot_value(answer: Option<StateValue>) -> u64 {
    match answer {
        Some(StateValue::Slot(value)) => value,
        None => 0,
        Some(other) => unreachable!("backend answered a storage key with {other:?}"),
    }
}

impl WorldState {
    /// Creates an empty world state (no backend: the resident map is the state).
    pub fn new() -> Self {
        WorldState::default()
    }

    /// Mounts `backend` under this state.
    ///
    /// If the backend is empty, the current resident accounts are committed to it as
    /// the genesis delta (height 0). If the backend already holds committed state (a
    /// reopened store), that state becomes authoritative and the resident map is
    /// reset to a cold working set.
    ///
    /// `working_set_cap` softly bounds the resident map: after each committed block,
    /// accounts that are neither contracts nor part of the just-committed write set
    /// are evicted down to the cap.
    ///
    /// # Errors
    ///
    /// Propagates backend commit failures for the genesis delta.
    pub fn attach_backend(
        &mut self,
        backend: SharedBackend,
        working_set_cap: Option<usize>,
    ) -> Result<()> {
        let fresh = backend
            .lock()
            .expect("backend lock")
            .committed_block()
            .is_none();
        if fresh {
            // Fresh store: current accounts are the genesis.
            let mut records: Vec<DeltaRecord> = self
                .accounts
                .iter()
                .map(|(address, account)| DeltaRecord {
                    address: *address,
                    account: Some(account_to_stored(account)),
                })
                .collect();
            records.sort_by_key(|r| r.address);
            let mut guard = backend.lock().expect("backend lock");
            guard.begin_block(0)?;
            guard.commit_block(&BlockDelta { height: 0, records })?;
        } else {
            // Recovered store: its committed state wins.
            self.accounts.clear();
        }
        self.backend = Some(backend);
        self.working_set_cap = working_set_cap;
        self.dirty.clear();
        self.pending.clear();
        self.stored_slots.clear();
        self.evict_to_cap(&BTreeSet::new());
        Ok(())
    }

    /// A scratch state over `cells`: an empty working set whose reads resolve one
    /// cell at a time through the backend and whose first write to an account
    /// materializes it *sparse* — balance and nonce, code only if this state
    /// deploys it, and only the slots it stores — so a call into a contract
    /// costs the keys it touches, not the slots the contract holds. Nothing is
    /// committed through it: the owner harvests
    /// [`take_write_fragments`](WorldState::take_write_fragments) /
    /// [`take_delta_ops`](WorldState::take_delta_ops) and
    /// [`reset_working_set`](WorldState::reset_working_set)s. Whole-account
    /// operations (`export_account`, `commit_block`, …) have no meaning on sparse
    /// accounts and are debug-asserted against.
    pub fn scratch_over<B: CellBackend + 'static>(cells: Arc<Mutex<B>>) -> Self {
        WorldState {
            backend: Some(Arc::clone(&cells) as SharedBackend),
            cells: Some(cells),
            ..WorldState::default()
        }
    }

    /// Whole-account operations on a scratch state would read or publish sparse
    /// accounts as if they were complete: stop at the call site, by name.
    fn assert_whole_accounts(&self, operation: &str) {
        debug_assert!(
            self.cells.is_none(),
            "WorldState::{operation} on a scratch state: its accounts are sparse"
        );
    }

    /// The mounted backend handle, if any.
    pub fn backend(&self) -> Option<&SharedBackend> {
        self.backend.as_ref()
    }

    /// The mounted backend's cumulative counters, if any.
    pub fn backend_stats(&self) -> Option<StoreStats> {
        self.backend
            .as_ref()
            .map(|b| b.lock().expect("backend lock").stats())
    }

    /// Accounts currently materialized in the resident working set.
    pub fn resident_accounts(&self) -> usize {
        self.accounts.len()
    }

    /// Opens block `height`: subsequent writes form its write-set delta.
    ///
    /// # Errors
    ///
    /// Propagates the backend's block-scope validation.
    pub fn begin_block(&mut self, height: u64) -> Result<()> {
        if let Some(backend) = &self.backend {
            backend.lock().expect("backend lock").begin_block(height)?;
        }
        self.open_height = Some(height);
        Ok(())
    }

    /// Commits the open block: the dirty accounts' new values are pushed to the
    /// backend as one write-set delta (journaled, for the disk backend), the dirty
    /// set is cleared, and the working set is evicted down to the cap.
    ///
    /// Dirty marking is conservative: an account touched and then fully reverted
    /// within the block still commits its (unchanged) value. Detecting no-op
    /// records would cost a backend pre-image read per dirty account on every
    /// commit, so the rare reverted-transaction record is the cheaper trade.
    ///
    /// Without a backend this only clears the block scope and reports zero cost.
    ///
    /// # Errors
    ///
    /// Returns an error if no block is open (with a backend mounted), or if the
    /// backend commit fails.
    pub fn commit_block(&mut self) -> Result<CommitStats> {
        self.assert_whole_accounts("commit_block");
        self.flush_pending_deltas();
        let Some(backend) = self.backend.clone() else {
            self.open_height = None;
            self.dirty.clear();
            return Ok(CommitStats::default());
        };
        let height = self
            .open_height
            .ok_or_else(|| Error::validation("no open block to commit"))?;
        let records: Vec<DeltaRecord> = self
            .dirty
            .iter()
            .map(|address| DeltaRecord {
                address: *address,
                account: self.accounts.get(address).map(account_to_stored),
            })
            .collect();
        // Close the block scope only after the backend accepted the delta: a
        // failed commit (e.g. disk full) leaves the block open on both sides so
        // the caller can still `rollback_block`.
        let stats = backend
            .lock()
            .expect("backend lock")
            .commit_block(&BlockDelta { height, records })?;
        self.open_height = None;
        self.stored_slots.clear();
        let last_dirty = std::mem::take(&mut self.dirty);
        self.evict_to_cap(&last_dirty);
        Ok(stats)
    }

    /// Abandons the open block: uncommitted writes are dropped from the working set
    /// (they re-materialize from the backend's committed state on next access).
    ///
    /// # Errors
    ///
    /// Returns an error without a backend (the map alone cannot restore overwritten
    /// values) or if no block is open.
    pub fn rollback_block(&mut self) -> Result<()> {
        let Some(backend) = &self.backend else {
            return Err(Error::validation("rollback_block requires a state backend"));
        };
        self.open_height
            .take()
            .ok_or_else(|| Error::validation("no open block to roll back"))?;
        backend.lock().expect("backend lock").rollback_block()?;
        for address in std::mem::take(&mut self.dirty) {
            self.accounts.remove(&address);
        }
        self.pending.clear();
        self.stored_slots.clear();
        Ok(())
    }

    /// Evicts clean, non-contract accounts until the resident map is back at the
    /// cap (`keep` is the just-committed write set — the hottest accounts, spared
    /// from eviction). Deterministic: candidates leave in ascending address order,
    /// and only as many as the excess demands.
    fn evict_to_cap(&mut self, keep: &BTreeSet<Address>) {
        let Some(cap) = self.working_set_cap else {
            return;
        };
        if self.backend.is_none() || self.accounts.len() <= cap {
            return;
        }
        let mut evictable: Vec<Address> = self
            .accounts
            .iter()
            .filter(|(address, account)| !account.is_contract() && !keep.contains(address))
            .map(|(address, _)| *address)
            .collect();
        evictable.sort_unstable();
        let excess = self.accounts.len() - cap;
        for address in evictable.into_iter().take(excess) {
            self.accounts.remove(&address);
        }
    }

    fn backend_stored(&self, address: Address) -> Option<StoredAccount> {
        self.backend
            .as_ref()?
            .lock()
            .expect("backend lock")
            .get_account(address)
    }

    /// The committed value visible to a read that misses the resident map: `None`
    /// without a backend, when the account was deleted in the open block (dirty
    /// but not resident — the committed value is stale), or when the backend has
    /// no such account. Every read-through path resolves through here so the
    /// dirty-deletion rule lives in one place.
    fn fallback_stored(&self, address: Address) -> Option<StoredAccount> {
        if self.dirty.contains(&address) {
            return None;
        }
        self.backend_stored(address)
    }

    /// The committed value of one key visible to a read that misses the resident
    /// map — the per-key face of [`fallback_stored`](WorldState::fallback_stored),
    /// same dirty-deletion rule. What it costs is the backend's business: the
    /// key alone on the memory backend and under a scratch state, the account
    /// record on disk.
    fn fallback_value(&self, key: &StateKey) -> Option<StateValue> {
        if self.dirty.contains(&key.address()) {
            return None;
        }
        self.backend_value(key)
    }

    /// [`fallback_value`](WorldState::fallback_value) without the dirty rule: the
    /// backend's own answer. A sparse resident account's unstored slots and the
    /// harvest's served pre-values read through here.
    fn backend_value(&self, key: &StateKey) -> Option<StateValue> {
        self.backend
            .as_ref()?
            .lock()
            .expect("backend lock")
            .get(key)
    }

    fn fallback_meta(&self, address: Address) -> Option<(Amount, u64)> {
        match self.fallback_value(&StateKey::Balance(address))? {
            StateValue::AccountMeta {
                balance_sats,
                nonce,
            } => Some((Amount::from_sats(balance_sats), nonce)),
            other => unreachable!("backend answered a balance key with {other:?}"),
        }
    }

    fn backend_slot(&self, address: Address, key: u64) -> u64 {
        slot_value(self.backend_value(&StateKey::Storage(address, key)))
    }

    /// The committed account behind a resident miss, materialized whole (`None`
    /// when deleted in the open block or unknown to the backend) — one
    /// whole-account backend read. Readers that serve many keys of a
    /// non-resident account (the optimistic engine's view of its base state)
    /// call this once and keep the result.
    pub fn load_account(&self, address: Address) -> Option<Account> {
        self.fallback_stored(address)
            .map(|stored| stored_to_account(&stored))
    }

    /// The resident-miss half of every first write: brings the committed account
    /// into the working set if there is one. A scratch state loads it sparse —
    /// balance and nonce only; slots and code stay behind the backend until
    /// this state writes them.
    fn load(&mut self, address: Address) -> bool {
        let account = if self.cells.is_some() {
            self.fallback_meta(address).map(|(balance, nonce)| {
                let mut account = Account::with_balance(balance);
                account.set_nonce(nonce);
                account
            })
        } else {
            self.load_account(address)
        };
        match account {
            Some(account) => {
                self.accounts.insert(address, account);
                true
            }
            None => false,
        }
    }

    fn mark_dirty(&mut self, address: Address) {
        if self.backend.is_some() {
            self.dirty.insert(address);
        }
    }

    /// Number of accounts that exist (have been touched at least once).
    pub fn account_count(&self) -> usize {
        self.assert_whole_accounts("account_count");
        let Some(backend) = &self.backend else {
            return self.accounts.len();
        };
        let mut guard = backend.lock().expect("backend lock");
        let mut count = guard.account_count();
        for address in &self.dirty {
            let resident = self.accounts.contains_key(address);
            let committed = guard.contains_account(*address);
            if resident && !committed {
                count += 1; // created this block, not yet committed
            } else if !resident && committed {
                count -= 1; // deleted this block, not yet committed
            }
        }
        for (address, deltas) in &self.pending {
            if !deltas.is_noop()
                && !self.accounts.contains_key(address)
                && !self.dirty.contains(address)
                && !guard.contains_account(*address)
            {
                count += 1; // will be created when the blind credit folds
            }
        }
        count
    }

    /// Returns a reference to an account **in the resident working set**. With a
    /// backend mounted, evicted accounts return `None` even though they exist in
    /// committed state — use the value accessors ([`balance`](WorldState::balance),
    /// [`nonce`](WorldState::nonce), …) for authoritative reads.
    pub fn account(&self, address: Address) -> Option<&Account> {
        self.accounts.get(&address)
    }

    /// Returns `true` if the account exists (resident, committed, or about to be
    /// created by a pending blind credit).
    pub fn contains(&self, address: Address) -> bool {
        self.accounts.contains_key(&address)
            || self.pending.get(&address).is_some_and(|d| !d.is_noop())
            || self.fallback_value(&StateKey::Balance(address)).is_some()
    }

    /// The balance of `address` (zero if the account does not exist). Pending
    /// blind credits are folded in virtually — observing the value does not
    /// materialize it.
    pub fn balance(&self, address: Address) -> Amount {
        let base = if let Some(account) = self.accounts.get(&address) {
            account.balance()
        } else {
            self.fallback_meta(address)
                .map_or(Amount::ZERO, |(balance, _)| balance)
        };
        match self.pending.get(&address) {
            Some(deltas) if deltas.balance != 0 => Amount::from_sats(
                base.sats()
                    .checked_add(deltas.balance)
                    .expect("amount overflow"),
            ),
            _ => base,
        }
    }

    /// The nonce of `address` (zero if the account does not exist).
    pub fn nonce(&self, address: Address) -> u64 {
        if let Some(account) = self.accounts.get(&address) {
            return account.nonce();
        }
        self.fallback_meta(address).map_or(0, |(_, nonce)| nonce)
    }

    /// The contract deployed at `address`, if any.
    pub fn contract(&self, address: Address) -> Option<Arc<Contract>> {
        let resident = self.accounts.get(&address);
        if let Some(code) = resident.and_then(Account::code) {
            return Some(Arc::clone(code));
        }
        if let Some(cells) = &self.cells {
            // Scratch state: a resident account is sparse (it carries code only
            // if this state deployed it), so resident or not the backend
            // answers — unless the account was deleted in this working set.
            if resident.is_none() && self.dirty.contains(&address) {
                return None;
            }
            return cells.lock().expect("backend lock").contract(address);
        }
        if resident.is_some() {
            return None;
        }
        let stored = self.fallback_stored(address)?;
        stored.code_json.as_deref().map(decode_contract)
    }

    /// Reads a storage slot of `address` (zero when absent). Pending blind slot
    /// addends are folded in virtually.
    pub fn storage(&self, address: Address, key: u64) -> u64 {
        let base = if let Some(account) = self.accounts.get(&address) {
            if self.cells.is_none() || self.stored_slots.contains(&(address, key)) {
                account.storage_get(key)
            } else {
                // A sparse account holds only the slots this state stored.
                self.backend_slot(address, key)
            }
        } else {
            slot_value(self.fallback_value(&StateKey::Storage(address, key)))
        };
        match self.pending.get(&address).and_then(|d| d.slots.get(&key)) {
            Some(add) => base.wrapping_add(*add),
            None => base,
        }
    }

    fn entry(&mut self, address: Address, journal: Option<&mut Journal>) -> &mut Account {
        if self.backend.is_some() {
            if !self.accounts.contains_key(&address) && !self.load(address) {
                if let Some(j) = journal {
                    j.ops.push(UndoOp::Created(address));
                }
                self.accounts.insert(address, Account::new());
            }
            self.dirty.insert(address);
            return self.accounts.get_mut(&address).expect("just materialized");
        }
        self.accounts.entry(address).or_insert_with(|| {
            if let Some(j) = journal {
                j.ops.push(UndoOp::Created(address));
            }
            Account::new()
        })
    }

    /// Adds `value` to the balance of `address` (creating the account if needed).
    pub fn credit(&mut self, address: Address, value: Amount) {
        self.credit_journalled(address, value, None);
    }

    /// True when a commutative merge on `address` can be accumulated *blind* —
    /// without reading the account: a backend is mounted (so the authoritative
    /// value exists somewhere to fold over) and the account is not resident (a
    /// resident value is already order-materialized, so the classic path is both
    /// correct and cheaper).
    fn delta_eligible(&self, address: Address) -> bool {
        self.backend.is_some() && !self.accounts.contains_key(&address)
    }

    /// Slot deltas are finer-grained than balance deltas: a resident account is
    /// fine (the `Meta` and `Slot` cell parts are independent), only a slot the
    /// working set has already absolutely written must stay classic.
    fn slot_delta_eligible(&self, address: Address, key: u64) -> bool {
        self.backend.is_some() && !self.stored_slots.contains(&(address, key))
    }

    /// Credits `address` as a commutative delta when possible: the addend is
    /// accumulated blind (no account read, no dirty mark) and folded over the
    /// authoritative value only when observed or committed. Returns `true` on
    /// the blind path — the caller records a *delta* access. Otherwise falls
    /// back to [`credit_journalled`](WorldState::credit_journalled) and returns
    /// `false` — the caller records a write.
    pub fn credit_delta(
        &mut self,
        address: Address,
        value: Amount,
        journal: Option<&mut Journal>,
    ) -> bool {
        if value.is_zero() || !self.delta_eligible(address) {
            // An ordered credit observes the balance: fold any blind pending
            // credit first so the account never carries both a `Meta` value
            // change and a pending balance addend in one harvest.
            let mut journal = journal;
            self.fold_pending_balance(address, journal.as_deref_mut());
            self.credit_journalled(address, value, journal);
            return false;
        }
        let deltas = self.pending.entry(address).or_default();
        deltas.balance = deltas
            .balance
            .checked_add(value.sats())
            .expect("amount overflow");
        if let Some(j) = journal {
            j.ops
                .push(UndoOp::DeltaAdded(StateKey::Balance(address), value.sats()));
        }
        true
    }

    /// Adds `value` (wrapping) to a storage slot of `address` as a commutative
    /// delta when possible (see [`credit_delta`](WorldState::credit_delta)).
    /// Returns `true` on the blind path; `false` means the caller must perform
    /// the classic read-modify-write (which keeps a zero-valued add's
    /// account-creation side effect identical to classic execution).
    pub fn storage_add_delta(
        &mut self,
        address: Address,
        key: u64,
        value: u64,
        journal: Option<&mut Journal>,
    ) -> bool {
        if value == 0 || !self.slot_delta_eligible(address, key) {
            return false;
        }
        let deltas = self.pending.entry(address).or_default();
        let slot = deltas.slots.entry(key).or_insert(0);
        *slot = slot.wrapping_add(value);
        if let Some(j) = journal {
            j.ops
                .push(UndoOp::DeltaAdded(StateKey::Storage(address, key), value));
        }
        true
    }

    /// Folds any pending blind balance credit into the resident account — the
    /// point where a commutative contribution is upgraded to an ordered one,
    /// because the caller is about to observe or overwrite the true balance.
    fn fold_pending_balance(&mut self, address: Address, mut journal: Option<&mut Journal>) {
        let amount = match self.pending.get_mut(&address) {
            Some(deltas) if deltas.balance != 0 => std::mem::take(&mut deltas.balance),
            _ => return,
        };
        self.credit_journalled(address, Amount::from_sats(amount), journal.as_deref_mut());
        if let Some(j) = journal {
            j.ops
                .push(UndoOp::DeltaFolded(StateKey::Balance(address), amount));
        }
    }

    /// Adds `value` to the balance of `address`, journalling the old balance.
    pub fn credit_journalled(
        &mut self,
        address: Address,
        value: Amount,
        mut journal: Option<&mut Journal>,
    ) {
        let acct = self.entry(address, journal.as_deref_mut());
        if let Some(j) = journal {
            j.ops.push(UndoOp::Balance(address, acct.balance()));
        }
        acct.credit(value);
    }

    /// Removes `value` from the balance of `address`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InsufficientFunds`] (without modifying state) if the balance is
    /// too low, or [`Error::MissingState`] if the account does not exist.
    pub fn debit(&mut self, address: Address, value: Amount) -> Result<()> {
        self.debit_journalled(address, value, None)
    }

    /// Removes `value` from the balance of `address`, journalling the old balance.
    ///
    /// # Errors
    ///
    /// Same as [`WorldState::debit`].
    pub fn debit_journalled(
        &mut self,
        address: Address,
        value: Amount,
        mut journal: Option<&mut Journal>,
    ) -> Result<()> {
        // A debit observes the true balance: fold any blind pending credit
        // first, so a blind-credited account can be spent from in-block.
        self.fold_pending_balance(address, journal.as_deref_mut());
        // Materialize a committed-but-evicted account before debiting it.
        if self.backend.is_some() && !self.accounts.contains_key(&address) {
            self.load(address);
        }
        let acct = self
            .accounts
            .get_mut(&address)
            .ok_or_else(|| Error::missing_state(format!("account {address} does not exist")))?;
        let old = acct.balance();
        if !acct.debit(value) {
            return Err(Error::insufficient_funds(format!(
                "account {address} holds {} but tried to spend {}",
                old.sats(),
                value.sats()
            )));
        }
        if let Some(j) = journal {
            j.ops.push(UndoOp::Balance(address, old));
        }
        self.mark_dirty(address);
        Ok(())
    }

    /// Increments the nonce of `address`, journalling the old nonce.
    pub fn bump_nonce(&mut self, address: Address, mut journal: Option<&mut Journal>) {
        let acct = self.entry(address, journal.as_deref_mut());
        if let Some(j) = journal {
            j.ops.push(UndoOp::Nonce(address, acct.nonce()));
        }
        acct.bump_nonce();
    }

    /// Writes a storage slot, journalling the previous value.
    pub fn storage_set(
        &mut self,
        address: Address,
        key: u64,
        value: u64,
        mut journal: Option<&mut Journal>,
    ) {
        // An absolute write overrides any blind pending addend on the slot, so
        // add-then-store agrees with the classic read-modify-write order.
        if let Some(deltas) = self.pending.get_mut(&address) {
            if let Some(pending) = deltas.slots.remove(&key) {
                if pending != 0 {
                    if let Some(j) = journal.as_deref_mut() {
                        j.ops.push(UndoOp::DeltaFolded(
                            StateKey::Storage(address, key),
                            pending,
                        ));
                    }
                }
            }
        }
        // A sparse account learns a slot's served value on its first store, so
        // the journalled `old` and every later read of the slot are the
        // account's own.
        let served = if self.stored_slots.insert((address, key)) && self.cells.is_some() {
            self.backend_slot(address, key)
        } else {
            0
        };
        let acct = self.entry(address, journal.as_deref_mut());
        if served != 0 {
            acct.storage_set(key, served);
        }
        let old = acct.storage_set(key, value);
        if let Some(j) = journal {
            j.ops.push(UndoOp::Storage(address, key, old));
        }
    }

    /// Deploys a contract at `address` (overwriting any existing code).
    pub fn deploy_contract(&mut self, address: Address, contract: Arc<Contract>) {
        self.entry(address, None).set_code(contract);
    }

    /// Reverts every operation recorded in `journal`, most recent first.
    pub fn revert(&mut self, mut journal: Journal) {
        self.revert_to(&mut journal, 0);
    }

    /// Reverts (and removes) every journal operation recorded after `checkpoint`,
    /// most recent first, leaving earlier operations in place.
    ///
    /// Used for nested-call rollback: a failing inner contract call undoes only its own
    /// state changes while the enclosing transaction continues.
    pub fn revert_to(&mut self, journal: &mut Journal, checkpoint: usize) {
        while journal.ops.len() > checkpoint {
            let op = journal.ops.pop().expect("length checked");
            self.apply_undo(op);
        }
    }

    fn apply_undo(&mut self, op: UndoOp) {
        match op {
            UndoOp::Balance(addr, old) => {
                if let Some(acct) = self.accounts.get_mut(&addr) {
                    acct.set_balance(old);
                }
            }
            UndoOp::Nonce(addr, old) => {
                if let Some(acct) = self.accounts.get_mut(&addr) {
                    acct.set_nonce(old);
                }
            }
            UndoOp::Storage(addr, key, old) => {
                if let Some(acct) = self.accounts.get_mut(&addr) {
                    acct.storage_set(key, old);
                }
            }
            UndoOp::Created(addr) => {
                self.accounts.remove(&addr);
                // The account never existed in committed state (Created is only
                // journalled when neither the working set nor the backend had it),
                // so the delta does not need a deletion record... unless an earlier
                // transaction in the same block committed it. Keeping the dirty
                // mark emits a harmless Delete record in that edge case and none
                // otherwise would lose it, so the mark stays.
            }
            UndoOp::DeltaAdded(key, amount) => {
                // Subtract the addend back out. The entry is kept even at zero:
                // it is the touch marker mirroring the dirty mark Created leaves.
                match key {
                    StateKey::Balance(addr) => {
                        if let Some(deltas) = self.pending.get_mut(&addr) {
                            deltas.balance = deltas.balance.wrapping_sub(amount);
                        }
                    }
                    StateKey::Storage(addr, slot) => {
                        if let Some(deltas) = self.pending.get_mut(&addr) {
                            if let Some(value) = deltas.slots.get_mut(&slot) {
                                *value = value.wrapping_sub(amount);
                            }
                        }
                    }
                    StateKey::Code(_) => debug_assert!(false, "code keys carry no deltas"),
                }
            }
            UndoOp::DeltaFolded(key, amount) => match key {
                StateKey::Balance(addr) => {
                    let deltas = self.pending.entry(addr).or_default();
                    deltas.balance = deltas.balance.checked_add(amount).expect("amount overflow");
                }
                StateKey::Storage(addr, slot) => {
                    let deltas = self.pending.entry(addr).or_default();
                    let value = deltas.slots.entry(slot).or_insert(0);
                    *value = value.wrapping_add(amount);
                }
                StateKey::Code(_) => debug_assert!(false, "code keys carry no deltas"),
            },
        }
    }

    /// Drops the resident working set, the dirty set and any open block scope
    /// (rolled back on the backend), keeping the mounted backend. The next read
    /// re-materializes from the backend's committed state, exactly as after
    /// [`attach_backend`](WorldState::attach_backend) to a recovered store — but
    /// cheap enough to call between transactions. Executors that recycle a
    /// scratch state across independent transactions (the optimistic engine's
    /// per-worker scratch) use this instead of rebuilding the whole state.
    pub fn reset_working_set(&mut self) {
        self.accounts.clear();
        self.dirty.clear();
        self.pending.clear();
        self.stored_slots.clear();
        if self.open_height.take().is_some() {
            if let Some(backend) = &self.backend {
                // With a block open on our side the backend cannot refuse the
                // rollback; ignore the impossible error rather than propagate
                // fallibility into every reset call site.
                let _ = backend.lock().expect("backend lock").rollback_block();
            }
        }
    }

    /// Collects the dirty accounts' current values into `out` — exactly the
    /// records [`commit_block`](WorldState::commit_block) would push — then
    /// clears the dirty set and closes any open block scope *without notifying
    /// the backend*. `out` is cleared first and its capacity reused.
    ///
    /// This is the write-set half of a virtual-backend interposition: the
    /// optimistic engine executes each transaction on a scratch state mounted
    /// over a versioned view, and consumes the write set directly instead of
    /// round-tripping it through a backend commit (which would build the same
    /// records, clone them, and take a backend lock — per transaction).
    pub fn take_write_set(&mut self, out: &mut Vec<DeltaRecord>) {
        self.assert_whole_accounts("take_write_set");
        self.flush_pending_deltas();
        out.clear();
        out.extend(self.dirty.iter().map(|address| DeltaRecord {
            address: *address,
            account: self.accounts.get(address).map(account_to_stored),
        }));
        self.dirty.clear();
        self.open_height = None;
    }

    /// Drains the blind pending contributions as `(key, addend)` delta ops in
    /// ascending address order (balance first, then slots). The optimistic
    /// engine harvests these into delta cells next to the write fragments of
    /// [`take_write_fragments`](WorldState::take_write_fragments) — the two key
    /// sets are disjoint by construction (a fold or an absolute write always
    /// consumes the pending entry first). A fully reverted entry is emitted as a
    /// zero balance addend: the conservative touch marker matching the dirty
    /// mark classic execution leaves behind.
    pub fn take_delta_ops(&mut self, out: &mut Vec<(StateKey, u64)>) {
        out.clear();
        if self.pending.is_empty() {
            return;
        }
        let mut addresses: Vec<Address> = self.pending.keys().copied().collect();
        addresses.sort_unstable();
        for address in addresses {
            let deltas = self.pending.remove(&address).expect("key from this map");
            if deltas.is_noop() {
                out.push((StateKey::Balance(address), 0));
                continue;
            }
            if deltas.balance != 0 {
                out.push((StateKey::Balance(address), deltas.balance));
            }
            for (slot, add) in deltas.slots {
                if add != 0 {
                    out.push((StateKey::Storage(address, slot), add));
                }
            }
        }
    }

    /// Folds every pending blind contribution into the resident working set —
    /// the sequential counterpart of [`take_delta_ops`](WorldState::take_delta_ops),
    /// run by the commit/write-set paths so a state executed with delta accesses
    /// commits exactly what classic execution would.
    fn flush_pending_deltas(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        let mut entries: Vec<(Address, AccountDeltas)> = pending.into_iter().collect();
        entries.sort_unstable_by_key(|&(address, _)| address);
        for (address, deltas) in entries {
            if deltas.is_noop() {
                // Fully reverted: keep only the conservative dirty mark, the
                // same trace a reverted classic creation leaves.
                self.mark_dirty(address);
                continue;
            }
            let acct = self.entry(address, None);
            if deltas.balance != 0 {
                acct.credit(Amount::from_sats(deltas.balance));
            }
            for (&slot, &add) in &deltas.slots {
                if add != 0 {
                    let new = acct.storage_get(slot).wrapping_add(add);
                    acct.storage_set(slot, new);
                }
            }
        }
    }

    /// The per-[`StateKey`] write set of a scratch state
    /// ([`scratch_over`](WorldState::scratch_over)): compares every key this
    /// working set *touched* — each dirty account's balance/nonce pair, the slots
    /// it stored, the code it deployed — with the value the backend served for
    /// it, and collects the keys that actually changed into `fragments`
    /// (address-major, canonical part order). Cost is the touched keys; the
    /// slots the account holds besides are never visited.
    /// `blockconc_store::diff_account_fragments` over the full accounts is the
    /// oracle this is tested against. `touched` receives every dirty address,
    /// changed or not — the optimistic engine needs the full set to reproduce
    /// the sequential write set at commit, since an untouched-value record
    /// still appears in a block delta.
    ///
    /// The pre-values are re-read from the backend, not the dirty-aware
    /// fallback: for a scratch state mounted over a versioned view the
    /// backend's answer *is* the pre-state this execution observed, which is
    /// what makes an unchanged key diff to no fragment even when the served
    /// value was itself speculative.
    ///
    /// Clears the dirty set and closes any open block scope without notifying
    /// the backend. Pending blind deltas are *not* folded here — the optimistic
    /// engine harvests them separately via
    /// [`take_delta_ops`](WorldState::take_delta_ops).
    pub fn take_write_fragments(
        &mut self,
        fragments: &mut Vec<StateFragment>,
        touched: &mut Vec<Address>,
    ) {
        fragments.clear();
        touched.clear();
        let cells = self
            .cells
            .as_ref()
            .expect("take_write_fragments harvests a scratch state");
        let mut cells = cells.lock().expect("backend lock");
        for &address in &self.dirty {
            touched.push(address);
            let Some(post) = self.accounts.get(&address) else {
                // Created and rolled back: nothing was served for it, nothing
                // remains of it. (A *committed* account cannot vanish from a
                // scratch working set — execution has no operation for that.)
                debug_assert!(cells.get(&StateKey::Balance(address)).is_none());
                continue;
            };
            let meta = StateValue::AccountMeta {
                balance_sats: post.balance().sats(),
                nonce: post.nonce(),
            };
            if cells.get(&StateKey::Balance(address)) != Some(meta) {
                fragments.push(StateFragment {
                    key: StateKey::Balance(address),
                    value: Some(FragmentValue::Meta {
                        balance_sats: post.balance().sats(),
                        nonce: post.nonce(),
                    }),
                });
            }
            for &(_, slot) in self
                .stored_slots
                .range((address, u64::MIN)..=(address, u64::MAX))
            {
                let key = StateKey::Storage(address, slot);
                let value = post.storage_get(slot);
                if slot_value(cells.get(&key)) != value {
                    fragments.push(StateFragment {
                        key,
                        value: (value != 0).then_some(FragmentValue::Slot(value)),
                    });
                }
            }
            if let Some(code) = post.code() {
                if cells.contract(address).as_ref() != Some(code) {
                    fragments.push(StateFragment {
                        key: StateKey::Code(address),
                        value: post.code_json().map(|c| FragmentValue::Code(c.to_string())),
                    });
                }
            }
        }
        drop(cells);
        self.dirty.clear();
        self.open_height = None;
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
                let account = self.entry(address, None);
                account.set_balance(Amount::from_sats(*balance_sats));
                account.set_nonce(*nonce);
            }
            (StateKey::Storage(_, slot), None) => {
                if let Some(account) = self.touched(address) {
                    account.storage_set(*slot, 0);
                }
            }
            (StateKey::Storage(_, slot), Some(FragmentValue::Slot(new))) => {
                if let Some(account) = self.touched(address) {
                    account.storage_set(*slot, *new);
                }
            }
            (StateKey::Code(_), None) => {
                if let Some(account) = self.touched(address) {
                    account.clear_code();
                }
            }
            (StateKey::Code(_), Some(FragmentValue::Code(code))) => {
                if let Some(account) = self.touched(address) {
                    account.set_code_with_json(decode_contract(code), Arc::from(code.as_str()));
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

    /// [`touch`](WorldState::touch)es `address` and hands out the resident
    /// account, if it exists.
    fn touched(&mut self, address: Address) -> Option<&mut Account> {
        self.touch(address);
        self.accounts.get_mut(&address)
    }

    /// Joins `address` to the open block's write set without changing its value
    /// (materializing the committed account first, so the mark does not read as
    /// a deletion): what sequential execution leaves behind for an account it
    /// wrote back unchanged.
    pub fn touch(&mut self, address: Address) {
        if self.backend.is_some() && !self.accounts.contains_key(&address) {
            self.load(address);
        }
        self.mark_dirty(address);
    }

    /// The complete persisted view of one account (resident value if cached,
    /// committed value otherwise), or `None` if the account does not exist. This
    /// is the export half of a cross-partition state handoff: the cluster layer
    /// moves an account between shard partitions by exporting it here, removing it
    /// ([`WorldState::remove_account`]) and installing it on the destination
    /// ([`WorldState::install_account`]).
    pub fn export_account(&self, address: Address) -> Option<StoredAccount> {
        self.assert_whole_accounts("export_account");
        let mut stored = if let Some(account) = self.accounts.get(&address) {
            Some(account_to_stored(account))
        } else {
            self.fallback_stored(address)
        };
        if let Some(deltas) = self.pending.get(&address) {
            if !deltas.is_noop() {
                let account = stored.get_or_insert_with(|| StoredAccount {
                    balance_sats: 0,
                    nonce: 0,
                    storage: Vec::new(),
                    code_json: None,
                });
                fold_deltas_into(account, deltas);
            }
        }
        stored
    }

    /// Installs an account's persisted value into this state (the import half of a
    /// cross-partition handoff). The account joins the open block's write set, so
    /// the commit journals it into this partition's backend.
    pub fn install_account(&mut self, address: Address, stored: &StoredAccount) {
        self.accounts.insert(address, stored_to_account(stored));
        self.mark_dirty(address);
    }

    /// Removes an account from this state (the eviction half of a cross-partition
    /// handoff). The address joins the open block's write set as a deletion, so
    /// the commit journals the departure; reads of the address afterwards see
    /// nothing, exactly as if the account never lived here.
    pub fn remove_account(&mut self, address: Address) {
        self.accounts.remove(&address);
        self.mark_dirty(address);
    }

    /// Withdraws `value` credited to a *phantom* account — one materialized by
    /// executing the local debit half of a cross-shard transaction, whose real
    /// home is another shard's partition. If the withdrawal leaves the account
    /// exactly as if it had never been touched (zero balance, zero nonce, no
    /// storage, no code, nothing committed for it in this partition), every trace
    /// is erased — resident entry *and* dirty mark — so the block's write-set
    /// delta carries no record of the visit.
    ///
    /// # Errors
    ///
    /// Returns the usual debit errors if the account does not hold `value` (which
    /// would indicate the caller mis-tracked the phantom credit).
    pub fn withdraw_phantom(&mut self, address: Address, value: Amount) -> Result<()> {
        self.assert_whole_accounts("withdraw_phantom");
        self.debit(address, value)?;
        let untouched = self.accounts.get(&address).is_some_and(|account| {
            account.balance() == Amount::ZERO
                && account.nonce() == 0
                && !account.is_contract()
                && account.storage_entries().is_empty()
        });
        if untouched {
            let committed = self
                .backend
                .as_ref()
                .is_some_and(|b| b.lock().expect("backend lock").contains_account(address));
            if !committed {
                self.accounts.remove(&address);
                self.dirty.remove(&address);
            }
        }
        Ok(())
    }

    /// Iterates over the **resident** (address, account) pairs. Without a backend
    /// this is every account; with one, evicted accounts are not visited — use
    /// [`WorldState::state_root`] or [`WorldState::total_supply`] for whole-state
    /// aggregates.
    pub fn iter(&self) -> impl Iterator<Item = (&Address, &Account)> {
        self.accounts.iter()
    }

    /// Sum of all account balances (conserved by transfers; useful as an invariant).
    /// Merges committed and resident state when a backend is mounted.
    pub fn total_supply(&self) -> Amount {
        let Some(backend) = &self.backend else {
            return self.accounts.values().map(|a| a.balance()).sum();
        };
        let mut total: u64 = 0;
        backend
            .lock()
            .expect("backend lock")
            .for_each_account(&|address| self.holds_current(address), &mut |_, stored| {
                total += stored.balance_sats
            });
        total += self
            .accounts
            .values()
            .map(|a| a.balance().sats())
            .sum::<u64>();
        total += self.pending.values().map(|d| d.balance).sum::<u64>();
        Amount::from_sats(total)
    }

    /// A deterministic digest of the complete logical state (committed accounts
    /// overlaid with the resident working set), independent of which backend holds
    /// it — the oracle the backend-equivalence tests compare across pipelines.
    pub fn state_root(&self) -> Hash {
        // Committed accounts the working set lacks, ascending. A dirty account
        // that is not resident was deleted this block and stays out.
        let mut cold: Vec<(Address, StoredAccount)> = Vec::new();
        if let Some(backend) = &self.backend {
            backend.lock().expect("backend lock").for_each_account(
                &|address| self.holds_current(address),
                &mut |address, stored| cold.push((address, stored)),
            );
        }
        // Pending blind contributions to a non-resident account fold over its
        // committed value, or over nothing (the credit creates it). A resident
        // account's fold happens as it is digested.
        let mut created: Vec<(Address, StoredAccount)> = Vec::new();
        for (address, deltas) in &self.pending {
            if deltas.is_noop() || self.accounts.contains_key(address) {
                continue;
            }
            match cold.binary_search_by_key(address, |(a, _)| *a) {
                Ok(pos) => fold_deltas_into(&mut cold[pos].1, deltas),
                Err(_) => {
                    let mut stored = StoredAccount {
                        balance_sats: 0,
                        nonce: 0,
                        storage: Vec::new(),
                        code_json: None,
                    };
                    fold_deltas_into(&mut stored, deltas);
                    created.push((*address, stored));
                }
            }
        }

        /// One account of the root, borrowed where it lives.
        enum RootEntry<'a> {
            Resident(&'a Account, Option<&'a AccountDeltas>),
            Stored(&'a StoredAccount),
        }
        let mut entries: Vec<(Address, RootEntry<'_>)> =
            Vec::with_capacity(self.accounts.len() + cold.len() + created.len());
        entries.extend(self.accounts.iter().map(|(address, account)| {
            let deltas = self.pending.get(address).filter(|d| !d.is_noop());
            (*address, RootEntry::Resident(account, deltas))
        }));
        entries.extend(
            cold.iter()
                .chain(&created)
                .map(|(address, stored)| (*address, RootEntry::Stored(stored))),
        );
        entries.sort_unstable_by_key(|(address, _)| *address);

        let mut data = Vec::new();
        for (address, entry) in &entries {
            data.extend_from_slice(address.as_bytes());
            match entry {
                RootEntry::Resident(account, deltas) => {
                    let mut stored = account_to_stored(account);
                    if let Some(deltas) = deltas {
                        fold_deltas_into(&mut stored, deltas);
                    }
                    stored.digest_into(&mut data);
                }
                RootEntry::Stored(stored) => stored.digest_into(&mut data),
            }
        }
        Hash::of_bytes(&data)
    }

    /// Whether the working set already holds `address`'s current value, so a
    /// whole-state walk of the backend can skip it: resident, or deleted in the
    /// open block (dirty but not resident).
    fn holds_current(&self, address: Address) -> bool {
        self.accounts.contains_key(&address) || self.dirty.contains(&address)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::OpCode;
    use blockconc_store::{apply_fragment, diff_account_fragments, shared, MemoryBackend};
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

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

    fn backed_state() -> WorldState {
        let mut state = WorldState::new();
        state.credit(Address::from_low(1), Amount::from_coins(10));
        state.credit(Address::from_low(2), Amount::from_coins(20));
        state.deploy_contract(Address::from_low(9), Arc::new(Contract::counter()));
        state
            .attach_backend(shared(MemoryBackend::new()), Some(1))
            .unwrap();
        state
    }

    #[test]
    fn attach_backend_commits_genesis_and_reads_fall_through() {
        let state = backed_state();
        // The cap evicted non-contract accounts, but reads fall through.
        assert!(state.resident_accounts() < state.account_count());
        assert_eq!(state.balance(Address::from_low(1)), Amount::from_coins(10));
        assert_eq!(state.balance(Address::from_low(2)), Amount::from_coins(20));
        assert!(state.contract(Address::from_low(9)).is_some());
        assert_eq!(state.account_count(), 3);
        assert_eq!(state.total_supply(), Amount::from_coins(30));
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

    #[test]
    fn rollback_block_discards_uncommitted_writes() {
        let mut state = backed_state();
        let root = state.state_root();
        state.begin_block(1).unwrap();
        state.credit(Address::from_low(50), Amount::from_coins(1));
        state
            .debit(Address::from_low(1), Amount::from_coins(1))
            .unwrap();
        state.rollback_block().unwrap();
        assert_eq!(state.state_root(), root);
        assert_eq!(state.balance(Address::from_low(1)), Amount::from_coins(10));
        assert!(!state.contains(Address::from_low(50)));
    }

    /// A [`MemoryBackend`] that counts the committed accounts it materializes,
    /// by point read or by walk (the `Counting` pattern of the execution
    /// crate's `slot_count_independence` test).
    #[derive(Debug)]
    struct Counting {
        inner: MemoryBackend,
        materialized: Arc<AtomicUsize>,
    }

    impl StateBackend for Counting {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn get_account(&mut self, address: Address) -> Option<StoredAccount> {
            let account = self.inner.get_account(address)?;
            self.materialized.fetch_add(1, AtomicOrdering::Relaxed);
            Some(account)
        }
        fn contains_account(&mut self, address: Address) -> bool {
            self.inner.contains_account(address)
        }
        fn begin_block(&mut self, height: u64) -> Result<()> {
            self.inner.begin_block(height)
        }
        fn commit_block(&mut self, delta: &BlockDelta) -> Result<CommitStats> {
            self.inner.commit_block(delta)
        }
        fn rollback_block(&mut self) -> Result<()> {
            self.inner.rollback_block()
        }
        fn committed_block(&self) -> Option<u64> {
            self.inner.committed_block()
        }
        fn open_height(&self) -> Option<u64> {
            self.inner.open_height()
        }
        fn account_count(&self) -> usize {
            self.inner.account_count()
        }
        fn for_each_account(
            &mut self,
            skip: &dyn Fn(Address) -> bool,
            f: &mut dyn FnMut(Address, StoredAccount),
        ) {
            let materialized = &self.materialized;
            self.inner.for_each_account(skip, &mut |address, account| {
                materialized.fetch_add(1, AtomicOrdering::Relaxed);
                f(address, account);
            });
        }
        fn stats(&self) -> StoreStats {
            self.inner.stats()
        }
    }

    fn disk_store(tag: &str) -> (SharedBackend, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("blockconc-account-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = blockconc_store::DiskConfig::new(&dir);
        (
            shared(blockconc_store::DiskBackend::open(&config).unwrap()),
            dir,
        )
    }

    #[test]
    fn state_root_is_identical_with_and_without_backend() {
        let mut genesis = WorldState::new();
        for i in 1..=40u64 {
            genesis.credit(Address::from_low(i), Amount::from_coins(i));
        }
        genesis.storage_set(Address::from_low(3), 7, 70, None);
        genesis.deploy_contract(Address::from_low(99), Arc::new(Contract::counter()));
        let materialized = Arc::new(AtomicUsize::new(0));
        let counting = || {
            shared(Counting {
                inner: MemoryBackend::new(),
                materialized: Arc::clone(&materialized),
            })
        };
        let (disk_uncapped, uncapped_dir) = disk_store("root-cap0");
        let (disk_capped, capped_dir) = disk_store("root-cap16");
        // (label, backend, working-set cap, counted)
        let cases = [
            (
                "memory, cap 1",
                shared(MemoryBackend::new()),
                Some(1),
                false,
            ),
            ("disk, cap 0", disk_uncapped, None, false),
            ("disk, cap 16", disk_capped, Some(16), false),
            ("counted, cap 0", counting(), None, true),
            ("counted, cap 16", counting(), Some(16), true),
        ];
        for (label, backend, cap, counted) in cases {
            let mut plain = genesis.clone();
            let mut backed = genesis.clone();
            backed.attach_backend(backend, cap).unwrap();
            let check = |plain: &WorldState, backed: &WorldState, step: &str| {
                assert_eq!(plain.state_root(), backed.state_root(), "{label}: {step}");
                assert_eq!(
                    plain.total_supply(),
                    backed.total_supply(),
                    "{label}: {step}"
                );
                if !counted {
                    return;
                }
                // The root and the supply materialize exactly the committed
                // accounts the working set lacks: evicted, not deleted.
                let mut committed = Vec::new();
                let backend = backed.backend().unwrap();
                backend
                    .lock()
                    .unwrap()
                    .for_each_account(&|_| false, &mut |address, _| committed.push(address));
                let evicted = committed
                    .iter()
                    .filter(|a| !backed.accounts.contains_key(a) && !backed.dirty.contains(a))
                    .count();
                if cap.is_none() {
                    assert_eq!(evicted, 0, "{label}: {step}: everything is resident");
                }
                materialized.store(0, AtomicOrdering::Relaxed);
                backed.state_root();
                let by_root = materialized.swap(0, AtomicOrdering::Relaxed);
                backed.total_supply();
                let by_supply = materialized.swap(0, AtomicOrdering::Relaxed);
                assert_eq!((by_root, by_supply), (evicted, evicted), "{label}: {step}");
            };
            check(&plain, &backed, "genesis");
            if counted && cap == Some(16) {
                assert_eq!(backed.resident_accounts(), 16);
            }

            // Same mutation on both sides keeps the roots in lockstep.
            for state in [&mut plain, &mut backed] {
                state.begin_block(1).unwrap();
                state.bump_nonce(Address::from_low(1), None);
                state.commit_block().unwrap();
            }
            check(&plain, &backed, "block 1");

            // An open block: a committed account deleted, blind credits to a
            // committed account (non-resident under a cap) and to a new one, a
            // blind slot add on the resident contract.
            let (evictee, fresh, contract) = (
                Address::from_low(5),
                Address::from_low(500),
                Address::from_low(99),
            );
            for state in [&mut plain, &mut backed] {
                state.begin_block(2).unwrap();
                state.remove_account(Address::from_low(2));
                state.credit_delta(evictee, Amount::from_sats(3), None);
                state.credit_delta(fresh, Amount::from_sats(9), None);
                if !state.storage_add_delta(contract, 1, 4, None) {
                    let current = state.storage(contract, 1);
                    state.storage_set(contract, 1, current + 4, None);
                }
            }
            assert_eq!(
                backed.pending.contains_key(&evictee),
                cap.is_some(),
                "{label}"
            );
            assert!(backed.pending.contains_key(&fresh), "{label}");
            assert!(backed.pending.contains_key(&contract), "{label}");
            check(&plain, &backed, "open block");

            plain.commit_block().unwrap();
            backed.commit_block().unwrap();
            check(&plain, &backed, "block 2");
        }
        let _ = std::fs::remove_dir_all(&uncapped_dir);
        let _ = std::fs::remove_dir_all(&capped_dir);
    }

    #[test]
    fn an_unreadable_evicted_record_fails_the_root_instead_of_vanishing_from_it() {
        // The walk reads an evicted account's record; a record that no longer
        // passes its CRC is corruption and must stop the root and the supply,
        // not drop the account out of them.
        fn root(state: &WorldState) {
            state.state_root();
        }
        fn supply(state: &WorldState) {
            state.total_supply();
        }
        let aggregates = [
            ("unreadable-root", root as fn(&WorldState)),
            ("unreadable-supply", supply),
        ];
        for (tag, aggregate) in aggregates {
            let (backend, dir) = disk_store(tag);
            let mut state = WorldState::new();
            state.credit(Address::from_low(1), Amount::from_sats(1_234_567));
            state.credit(Address::from_low(2), Amount::from_sats(20));
            state.attach_backend(backend, Some(1)).unwrap();
            assert!(state.account(Address::from_low(1)).is_none(), "evicted");
            // Flip one digit of the evicted balance inside its genesis frame.
            let journal = dir.join("journal-000000.log");
            let mut bytes = std::fs::read(&journal).unwrap();
            let at = bytes
                .windows(7)
                .position(|w| w == b"1234567")
                .expect("the balance is in the journal");
            bytes[at] ^= 0x01;
            std::fs::write(&journal, &bytes).unwrap();
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| aggregate(&state)));
            let _ = std::fs::remove_dir_all(&dir);
            assert!(outcome.is_err(), "{tag}: an aggregate without the account");
        }
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
        state.commit_block().unwrap();
        assert!(!state.contains(ghost));
        let backend = state.backend().unwrap();
        assert!(!backend.lock().unwrap().contains_account(ghost));
    }

    #[test]
    fn reattaching_a_reopened_store_with_empty_genesis_succeeds() {
        // A store whose only commit was an empty genesis (height 0, no accounts)
        // must reopen as "already initialized", not retake the fresh path and
        // fail trying to re-commit block 0.
        let dir =
            std::env::temp_dir().join(format!("blockconc-account-reattach-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = blockconc_store::DiskConfig::new(&dir);
        {
            let backend = blockconc_store::DiskBackend::open(&config).unwrap();
            let mut state = WorldState::new();
            state.attach_backend(shared(backend), None).unwrap();
            assert_eq!(state.account_count(), 0);
        }
        let backend = blockconc_store::DiskBackend::open(&config).unwrap();
        let mut state = WorldState::new();
        state.attach_backend(shared(backend), None).unwrap();
        state.begin_block(1).unwrap();
        state.credit(Address::from_low(1), Amount::from_coins(1));
        state.commit_block().unwrap();
        assert_eq!(state.balance(Address::from_low(1)), Amount::from_coins(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_removes_only_the_excess_in_address_order() {
        let mut state = WorldState::new();
        for i in 1..=10u64 {
            state.credit(Address::from_low(i), Amount::from_coins(i));
        }
        state.deploy_contract(Address::from_low(99), Arc::new(Contract::counter()));
        state
            .attach_backend(shared(MemoryBackend::new()), Some(8))
            .unwrap();
        // 11 residents, cap 8: exactly 3 clean non-contract accounts leave, the
        // lowest addresses first; the contract always stays.
        assert_eq!(state.resident_accounts(), 8);
        assert!(state.account(Address::from_low(99)).is_some());
        for i in 1..=3u64 {
            assert!(state.account(Address::from_low(i)).is_none(), "address {i}");
        }
        for i in 4..=10u64 {
            assert!(state.account(Address::from_low(i)).is_some(), "address {i}");
        }
        // Evicted values still read through.
        assert_eq!(state.balance(Address::from_low(1)), Amount::from_coins(1));
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
        let mut state = backed_state();
        state.begin_block(1).unwrap();
        state.credit(Address::from_low(55), Amount::from_coins(9));
        state
            .debit(Address::from_low(1), Amount::from_coins(1))
            .unwrap();
        state.reset_working_set();
        assert_eq!(state.resident_accounts(), 0);
        // Uncommitted writes are gone; committed values read through again.
        assert!(!state.contains(Address::from_low(55)));
        assert_eq!(state.balance(Address::from_low(1)), Amount::from_coins(10));
        // The block scope is closed on our side: a fresh block can open.
        state.begin_block(1).unwrap();
        state.bump_nonce(Address::from_low(1), None);
        state.commit_block().unwrap();
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
        source.commit_block().unwrap();
        dest.commit_block().unwrap();

        assert!(!source.contains(moved));
        assert_eq!(dest.balance(moved), Amount::from_coins(20));
        // The departure was committed: a reopened view of the source backend has
        // no trace of the account.
        let source_backend = source.backend().unwrap();
        assert!(!source_backend.lock().unwrap().contains_account(moved));
        let dest_backend = dest.backend().unwrap();
        assert!(dest_backend.lock().unwrap().contains_account(moved));
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
        let mut state = backed_state();
        state.begin_block(1).unwrap();
        // A pre-existing account that receives and loses a credit stays (it is
        // committed state, not a phantom), even if the balance returns to its
        // prior value.
        state.credit(Address::from_low(1), Amount::from_coins(2));
        state
            .withdraw_phantom(Address::from_low(1), Amount::from_coins(2))
            .unwrap();
        assert!(state.contains(Address::from_low(1)));
        assert_eq!(state.balance(Address::from_low(1)), Amount::from_coins(10));
    }

    #[test]
    fn blind_credit_folds_virtually_and_commits_classically() {
        let mut classic = backed_state();
        let mut delta = backed_state(); // same genesis, independent backend
        classic.begin_block(1).unwrap();
        delta.begin_block(1).unwrap();
        let hot = Address::from_low(2); // committed but evicted by the cap
        let ghost = Address::from_low(70); // never existed

        classic.credit(hot, Amount::from_sats(5));
        classic.credit(hot, Amount::from_sats(6));
        classic.credit(ghost, Amount::from_sats(9));

        assert!(delta.credit_delta(hot, Amount::from_sats(5), None));
        assert!(delta.credit_delta(hot, Amount::from_sats(6), None));
        assert!(delta.credit_delta(ghost, Amount::from_sats(9), None));
        // Nothing materialized, yet every observer sees the folded values.
        assert_eq!(delta.resident_accounts(), classic.resident_accounts() - 2);
        assert_eq!(delta.balance(hot), classic.balance(hot));
        assert_eq!(delta.balance(ghost), Amount::from_sats(9));
        assert!(delta.contains(ghost));
        assert_eq!(delta.total_supply(), classic.total_supply());
        assert_eq!(delta.account_count(), classic.account_count());
        assert_eq!(delta.state_root(), classic.state_root());
        assert_eq!(delta.export_account(hot), classic.export_account(hot));

        classic.commit_block().unwrap();
        delta.commit_block().unwrap();
        assert_eq!(delta.state_root(), classic.state_root());
        assert_eq!(delta.balance(hot), classic.balance(hot));
    }

    #[test]
    fn blind_credit_reverts_and_leaves_the_classic_touch_marker() {
        let mut state = backed_state();
        state.begin_block(1).unwrap();
        let ghost = Address::from_low(71);
        let mut journal = Journal::new();
        assert!(state.credit_delta(ghost, Amount::from_sats(4), Some(&mut journal)));
        assert!(state.contains(ghost));
        state.revert(journal);
        assert!(!state.contains(ghost));
        assert_eq!(state.balance(ghost), Amount::ZERO);
        // The reverted entry still surfaces as a zero-addend touch marker.
        let mut ops = Vec::new();
        state.clone().take_delta_ops(&mut ops);
        assert_eq!(ops, vec![(StateKey::Balance(ghost), 0)]);
        state.commit_block().unwrap();
        assert!(!state.contains(ghost));
    }

    #[test]
    fn debit_folds_pending_credit_and_revert_restores_it() {
        let mut state = backed_state();
        state.begin_block(1).unwrap();
        let ghost = Address::from_low(72);
        assert!(state.credit_delta(ghost, Amount::from_sats(10), None));
        let mut journal = Journal::new();
        state
            .debit_journalled(ghost, Amount::from_sats(3), Some(&mut journal))
            .unwrap();
        assert_eq!(state.balance(ghost), Amount::from_sats(7));
        state.revert(journal);
        // The fold reversed: the credit is pending again, the account is gone.
        assert_eq!(state.balance(ghost), Amount::from_sats(10));
        assert_eq!(state.resident_accounts(), 1); // only the contract survives the cap
        let mut ops = Vec::new();
        state.take_delta_ops(&mut ops);
        assert_eq!(ops, vec![(StateKey::Balance(ghost), 10)]);
    }

    #[test]
    fn storage_add_delta_agrees_with_classic_read_modify_write() {
        let mut classic = backed_state();
        let mut delta = backed_state(); // same genesis, independent backend
        classic.begin_block(1).unwrap();
        delta.begin_block(1).unwrap();
        let sink = Address::from_low(73);

        // add, add, absolute store, add — the absolute write must override the
        // pending addends on both paths.
        let classic_add = |state: &mut WorldState, slot: u64, v: u64| {
            let cur = state.storage(sink, slot);
            state.storage_set(sink, slot, cur.wrapping_add(v), None);
        };
        classic_add(&mut classic, 0, 5);
        classic_add(&mut classic, 0, 6);
        classic.storage_set(sink, 0, 100, None);
        classic_add(&mut classic, 0, 1);
        classic_add(&mut classic, 1, 9);

        assert!(delta.storage_add_delta(sink, 0, 5, None));
        assert!(delta.storage_add_delta(sink, 0, 6, None));
        assert_eq!(delta.storage(sink, 0), 11);
        delta.storage_set(sink, 0, 100, None); // drops the pending addend
        assert!(!delta.storage_add_delta(sink, 0, 1, None)); // stored slot: classic path
        classic_add(&mut delta, 0, 1);
        // A *different* slot of the now-resident account still goes blind: the
        // Meta and Slot cell parts are independent.
        assert!(delta.storage_add_delta(sink, 1, 9, None));

        assert_eq!(delta.storage(sink, 0), classic.storage(sink, 0));
        classic.commit_block().unwrap();
        delta.commit_block().unwrap();
        assert_eq!(delta.state_root(), classic.state_root());
    }

    /// A committed account map that serves cells: the scratch-state test double
    /// (the production implementor is the optimistic engine's versioned view).
    #[derive(Debug, Default)]
    struct MapCells {
        accounts: BTreeMap<Address, StoredAccount>,
        whole_reads: usize,
    }

    impl StateBackend for MapCells {
        fn name(&self) -> &'static str {
            "map-cells"
        }
        fn get_account(&mut self, address: Address) -> Option<StoredAccount> {
            self.whole_reads += 1;
            self.accounts.get(&address).cloned()
        }
        fn get(&mut self, key: &StateKey) -> Option<StateValue> {
            Some(self.accounts.get(&key.address())?.value_of(key))
        }
        fn begin_block(&mut self, _height: u64) -> Result<()> {
            Ok(())
        }
        fn commit_block(&mut self, _delta: &BlockDelta) -> Result<CommitStats> {
            Ok(CommitStats::default())
        }
        fn rollback_block(&mut self) -> Result<()> {
            Ok(())
        }
        fn committed_block(&self) -> Option<u64> {
            Some(0)
        }
        fn open_height(&self) -> Option<u64> {
            None
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
            StoreStats::default()
        }
    }

    impl CellBackend for MapCells {
        fn contract(&mut self, address: Address) -> Option<Arc<Contract>> {
            let code = self.accounts.get(&address)?.code_json.as_deref()?;
            Some(decode_contract(code))
        }
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

    /// One generated mutation, applied identically to any state.
    fn mutate(state: &mut WorldState, rng: &mut u64, journal: &mut Journal) {
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
            let cells = Arc::new(Mutex::new(MapCells {
                accounts: committed.clone(),
                whole_reads: 0,
            }));
            let mut scratch = WorldState::scratch_over(Arc::clone(&cells));
            // The oracle side: the same committed accounts under a full state
            // (cold working set, whole-account loads).
            let mut full = WorldState::new();
            full.attach_backend(
                shared(MapCells {
                    accounts: committed.clone(),
                    whole_reads: 0,
                }),
                None,
            )
            .unwrap();

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
                        full.contract(address),
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
            // Sparse means sparse: no resident account outgrew what was stored,
            // and nothing was ever read whole.
            assert!(scratch
                .iter()
                .all(|(_, account)| account.storage_len() <= 12));
            assert_eq!(cells.lock().unwrap().whole_reads, 0, "seed {seed}");
        }
    }

    #[test]
    fn in_place_cell_commit_equals_sequential_replay() {
        let committed = committed_universe();
        let backed = |cap| {
            let mut state = WorldState::new();
            for (address, stored) in &committed {
                state.install_account(*address, stored);
            }
            state
                .attach_backend(shared(MemoryBackend::new()), cap)
                .unwrap();
            state.begin_block(1).unwrap();
            state
        };
        for seed in 0..100u64 {
            // Cap 1 evicts every plain account: cells land on non-resident ones too.
            let cap = (seed % 2 == 0).then_some(1);
            let mut sequential = backed(cap);
            let mut rng = seed;
            let mut journal = Journal::new();
            for _ in 0..(1 + seed % 16) {
                mutate(&mut sequential, &mut rng, &mut journal);
            }
            let mut write_set = Vec::new();
            sequential.clone().take_write_set(&mut write_set);

            // The same transition as final cells: each journalled account's diff
            // against committed state, set in place; unchanged ones only touched.
            let mut in_place = backed(cap);
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "WorldState::export_account on a scratch state")]
    fn whole_account_calls_on_a_scratch_state_fail_at_the_call_site() {
        let cells = Arc::new(Mutex::new(MapCells {
            accounts: committed_universe(),
            whole_reads: 0,
        }));
        let scratch = WorldState::scratch_over(cells);
        let _ = scratch.export_account(Address::from_low(5));
    }

    #[test]
    fn stored_account_round_trips_through_conversion() {
        let mut account = Account::with_balance(Amount::from_sats(123));
        account.set_nonce(7);
        account.storage_set(3, 9);
        account.set_code(Arc::new(Contract::counter()));
        let stored = account_to_stored(&account);
        let back = stored_to_account(&stored);
        assert_eq!(back.balance(), account.balance());
        assert_eq!(back.nonce(), account.nonce());
        assert_eq!(back.storage_get(3), 9);
        assert!(back.is_contract());
        assert_eq!(account_to_stored(&back), stored);
    }
}
