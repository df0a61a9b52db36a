//! The undo journal, and the journalled operations both state types run on it.

use crate::Account;
use blockconc_store::StateKey;
use blockconc_types::{Address, Amount, Error, Result};
use std::collections::hash_map::{Entry, VacantEntry};
use std::collections::{HashMap, HashSet};

/// An undo journal recording the previous values of everything a transaction mutated,
/// so a failing transaction can be rolled back without cloning the whole state.
#[derive(Debug, Default)]
pub struct Journal {
    ops: Vec<UndoOp>,
}

#[derive(Debug)]
pub(crate) enum UndoOp {
    Balance(Address, Amount),
    Nonce(Address, u64),
    Storage(Address, u64, u64),
    Created(Address),
    /// A blind-delta operation: only a scratch state records these.
    Delta(DeltaUndo),
}

/// The undo of one blind-delta operation of a [`ScratchState`](crate::ScratchState).
#[derive(Debug)]
pub(crate) enum DeltaUndo {
    /// A blind delta was accumulated on the key: undo subtracts the addend back
    /// out of the pending map.
    Added(StateKey, u64),
    /// A pending delta on the key was folded into (or overridden on) the
    /// account: undo restores the pending addend. The account-side effects of
    /// the fold are journalled separately, so LIFO replay first restores the
    /// pending entry, then the account.
    Folded(StateKey, u64),
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

    /// Forgets every recorded operation, keeping the allocation: the
    /// sequential block path reuses one journal for all of a block's
    /// transactions, and each engine worker one for all of its executions.
    pub fn clear(&mut self) {
        self.ops.clear();
    }

    /// A checkpoint that can later be passed to
    /// [`StateAccess::revert_to`](crate::StateAccess::revert_to) to undo only the
    /// operations recorded after this point (nested-call rollback).
    pub fn checkpoint(&self) -> usize {
        self.ops.len()
    }
}

/// Records `op` when the caller keeps a journal.
pub(crate) fn record(journal: Option<&mut Journal>, op: UndoOp) {
    if let Some(journal) = journal {
        journal.ops.push(op);
    }
}

/// Where a [`WorkingSet`] finds the committed account behind a miss.
pub(crate) trait Source {
    /// Whether writes join the dirty set. Only a resident state without a
    /// backend has nothing to commit them to.
    fn tracks_writes(&self) -> bool;

    /// The committed account at `address`, as much of it as this state
    /// materializes (sparse, for a scratch state), or `None` if there is none
    /// (always, for the resident state, which holds every committed account).
    /// Asked only about an address that is neither resident nor written here.
    fn load(&mut self, address: Address) -> Option<Account>;
}

/// The accounts a state holds in memory, the addresses it wrote, and the one
/// implementation of every journalled operation on them. [`WorldState`] and
/// [`ScratchState`] differ only in their [`Source`].
///
/// Both maps hash under the standard library's keyed `RandomState`: addresses
/// are chosen by senders, so an unkeyed hasher would let them pick colliding
/// keys. The dirty set keeps no order; whoever pulls records out of it sorts
/// the addresses once, at that point, so records still come out in ascending
/// address order. Each operation hashes the accounts map once.
///
/// [`WorldState`]: crate::WorldState
/// [`ScratchState`]: crate::ScratchState
#[derive(Debug, Clone, Default)]
pub(crate) struct WorkingSet<S> {
    pub(crate) accounts: HashMap<Address, Account>,
    pub(crate) dirty: HashSet<Address>,
    pub(crate) source: S,
}

impl<S: Source> WorkingSet<S> {
    pub(crate) fn new(source: S) -> Self {
        WorkingSet {
            accounts: HashMap::new(),
            dirty: HashSet::new(),
            source,
        }
    }

    /// Joins `address` to the dirty set if this state tracks writes; returns
    /// whether it was there already.
    pub(crate) fn mark_dirty(&mut self, address: Address) -> bool {
        self.source.tracks_writes() && !self.dirty.insert(address)
    }

    /// Whether `address` was deleted in this working set: written (dirty) but
    /// not resident, so its committed value is stale.
    pub(crate) fn deleted(&self, address: Address) -> bool {
        self.dirty.contains(&address) && !self.accounts.contains_key(&address)
    }

    /// The resident account at `address`, or else the committed one brought
    /// in from the source, unless `was_dirty` says it was deleted here. On a
    /// miss the vacant slot comes back, so a caller can create the account
    /// without hashing the address again.
    fn resident(
        &mut self,
        address: Address,
        was_dirty: bool,
    ) -> std::result::Result<&mut Account, VacantEntry<'_, Address, Account>> {
        match self.accounts.entry(address) {
            Entry::Occupied(resident) => Ok(resident.into_mut()),
            Entry::Vacant(slot) if was_dirty => Err(slot),
            Entry::Vacant(slot) => match self.source.load(address) {
                Some(loaded) => Ok(slot.insert(loaded)),
                None => Err(slot),
            },
        }
    }

    /// Joins `address` to the dirty set without changing its value, and hands
    /// out the account if it exists. A miss still asks the source, which lets
    /// the resident state's block scope note an address with nothing
    /// committed under it.
    pub(crate) fn touch(&mut self, address: Address) -> Option<&mut Account> {
        let was_dirty = self.mark_dirty(address);
        self.resident(address, was_dirty).ok()
    }

    /// The account every first write lands on: resident, loaded, or created
    /// (journalled as such). The address joins the dirty set.
    pub(crate) fn entry(
        &mut self,
        address: Address,
        journal: Option<&mut Journal>,
    ) -> &mut Account {
        let was_dirty = self.mark_dirty(address);
        self.resident(address, was_dirty).unwrap_or_else(|slot| {
            record(journal, UndoOp::Created(address));
            slot.insert(Account::new())
        })
    }

    pub(crate) fn credit(
        &mut self,
        address: Address,
        value: Amount,
        mut journal: Option<&mut Journal>,
    ) {
        let acct = self.entry(address, journal.as_deref_mut());
        record(journal, UndoOp::Balance(address, acct.balance()));
        acct.credit(value);
    }

    pub(crate) fn debit(
        &mut self,
        address: Address,
        value: Amount,
        journal: Option<&mut Journal>,
    ) -> Result<()> {
        let was_dirty = self.dirty.contains(&address);
        let Ok(acct) = self.resident(address, was_dirty) else {
            return Err(Error::missing_state(format!(
                "account {address} does not exist"
            )));
        };
        let old = acct.balance();
        if !acct.debit(value) {
            return Err(Error::insufficient_funds(format!(
                "account {address} holds {} but tried to spend {}",
                old.sats(),
                value.sats()
            )));
        }
        record(journal, UndoOp::Balance(address, old));
        self.mark_dirty(address);
        Ok(())
    }

    pub(crate) fn bump_nonce(&mut self, address: Address, mut journal: Option<&mut Journal>) {
        let acct = self.entry(address, journal.as_deref_mut());
        record(journal, UndoOp::Nonce(address, acct.nonce()));
        acct.bump_nonce();
    }

    pub(crate) fn storage_set(
        &mut self,
        address: Address,
        key: u64,
        value: u64,
        mut journal: Option<&mut Journal>,
    ) {
        let old = self
            .entry(address, journal.as_deref_mut())
            .storage_set(key, value);
        record(journal, UndoOp::Storage(address, key, old));
    }

    /// Reverts (and removes) every journal operation recorded after
    /// `checkpoint`, most recent first. Blind-delta undos go to `delta`.
    pub(crate) fn revert_to(
        &mut self,
        journal: &mut Journal,
        checkpoint: usize,
        mut delta: impl FnMut(DeltaUndo),
    ) {
        while journal.ops.len() > checkpoint {
            match journal.ops.pop().expect("length checked") {
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
                    // The account never existed in committed state (Created is
                    // only journalled when neither the working set nor the
                    // source had it), so the delta does not need a deletion
                    // record... unless an earlier transaction in the same block
                    // committed it. Keeping the dirty mark emits a harmless
                    // Delete record in that edge case and none otherwise would
                    // lose it, so the mark stays.
                }
                UndoOp::Delta(op) => delta(op),
            }
        }
    }
}
