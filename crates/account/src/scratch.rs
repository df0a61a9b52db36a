//! The execution engines' scratch state: a private, sparse view of committed
//! state read one cell at a time.

use crate::journal::{record, DeltaUndo, Journal, Source, UndoOp, WorkingSet};
use crate::state::StateAccess;
use crate::vm::Contract;
use crate::Account;
use blockconc_store::{FragmentValue, StateFragment, StateKey};
use blockconc_types::{Address, Amount, Result};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Committed state as a [`ScratchState`] reads it: one cell at a time.
/// `blockconc_store` cannot name [`Contract`], and a digest is not something
/// the interpreter can run, so deployed code is served as a contract.
pub trait CellView {
    /// The balance and nonce of `address`, or `None` if no such account exists.
    fn meta(&mut self, address: Address) -> Option<(Amount, u64)>;

    /// One storage slot of `address`: zero when absent, and zero when the
    /// account does not exist (existence is the meta cell's question).
    fn slot(&mut self, address: Address, key: u64) -> u64;

    /// The contract deployed at `address`, if any.
    fn contract(&mut self, address: Address) -> Option<Arc<Contract>>;
}

/// A scratch state materializes a miss *sparse*: balance and nonce only; slots
/// and code stay behind the view until this state writes them.
impl<C: CellView> Source for C {
    fn tracks_writes(&self) -> bool {
        true
    }

    fn load(&mut self, address: Address) -> Option<Account> {
        let (balance, nonce) = self.meta(address)?;
        let mut account = Account::with_balance(balance);
        account.set_nonce(nonce);
        Some(account)
    }
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

/// A private working set over a [`CellView`], in which an engine executes one
/// transaction at a time and harvests what it wrote.
///
/// Reads resolve one cell at a time through the view; the first write to an
/// account materializes it *sparse* — balance and nonce, code only if this
/// state deploys it, and only the slots it stores — so a call into a contract
/// costs the keys it touches, not the slots the contract holds. Nothing is
/// committed through it: the owner harvests
/// [`take_write_fragments`](ScratchState::take_write_fragments) and
/// [`take_delta_ops`](ScratchState::take_delta_ops), then
/// [`reset_working_set`](ScratchState::reset_working_set)s.
///
/// With a delta-emitting executor, pure credits and `SAdd` increments to keys
/// this state has not materialized accumulate *blind* (without reading the
/// key) and fold over the served value only when observed or overwritten.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use blockconc_account::vm::Contract;
/// use blockconc_account::{CellView, ScratchState, StateAccess};
/// use blockconc_types::{Address, Amount};
///
/// /// Committed state: one account holding 10 sats.
/// struct OneAccount;
///
/// impl CellView for OneAccount {
///     fn meta(&mut self, address: Address) -> Option<(Amount, u64)> {
///         (address == Address::from_low(1)).then_some((Amount::from_sats(10), 0))
///     }
///     fn slot(&mut self, _address: Address, _key: u64) -> u64 {
///         0
///     }
///     fn contract(&mut self, _address: Address) -> Option<Arc<Contract>> {
///         None
///     }
/// }
///
/// let mut scratch = ScratchState::new(OneAccount);
/// scratch.debit_journalled(Address::from_low(1), Amount::from_sats(4), None).unwrap();
/// scratch.credit_journalled(Address::from_low(2), Amount::from_sats(4), None);
/// let (mut fragments, mut touched) = (Vec::new(), Vec::new());
/// scratch.take_write_fragments(&mut fragments, &mut touched);
/// assert_eq!(touched, [Address::from_low(1), Address::from_low(2)]);
/// assert_eq!(fragments.len(), 2); // one balance/nonce fragment per account
/// ```
///
/// Its accounts are sparse, so whole-account operations do not exist on it —
/// calling one is a compile error, not a run-time surprise:
///
/// ```compile_fail
/// # use blockconc_account::{CellView, ScratchState};
/// fn commit<C: CellView>(scratch: &mut ScratchState<C>) {
///     let _ = scratch.commit_block();
/// }
/// ```
///
/// ```compile_fail
/// # use blockconc_account::{CellView, ScratchState};
/// # use blockconc_types::Address;
/// fn export<C: CellView>(scratch: &ScratchState<C>) {
///     let _ = scratch.export_account(Address::from_low(1));
/// }
/// ```
///
/// ```compile_fail
/// # use blockconc_account::{CellView, ScratchState};
/// fn root<C: CellView>(scratch: &ScratchState<C>) {
///     let _ = scratch.state_root();
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ScratchState<C> {
    /// The sparse accounts, the addresses written and the view itself.
    pub(crate) set: WorkingSet<C>,
    /// Slots absolutely written (`storage_set`) in this working set: exactly
    /// the slots a sparse account holds authoritatively (ordered, so the
    /// harvest walks one account's slots ascending). A blind slot delta must
    /// not coexist with an absolute write to the same slot inside one harvest
    /// (the engine would emit two cell writes for one key), so `SAdd` on a
    /// stored slot falls back to the classic read-modify-write.
    stored_slots: BTreeSet<(Address, u64)>,
    /// Blind commutative contributions to keys this state has not
    /// materialized: folded over the served value only when observed, ordered
    /// against (debit, absolute slot write) or harvested
    /// ([`take_delta_ops`](ScratchState::take_delta_ops)).
    pending: HashMap<Address, AccountDeltas>,
    /// Where [`take_delta_ops`](ScratchState::take_delta_ops) sorts the
    /// pending entries: empty between harvests, kept for its capacity.
    drained: Vec<(Address, AccountDeltas)>,
}

impl<C: CellView> ScratchState<C> {
    /// An empty scratch state over `cells`.
    pub fn new(cells: C) -> Self {
        ScratchState {
            set: WorkingSet::new(cells),
            stored_slots: BTreeSet::new(),
            pending: HashMap::new(),
            drained: Vec::new(),
        }
    }

    /// The cell view this state reads through.
    pub fn cells(&self) -> &C {
        &self.set.source
    }

    /// The cell view this state reads through, mutably.
    pub fn cells_mut(&mut self) -> &mut C {
        &mut self.set.source
    }

    /// Returns `true` if the account exists (materialized here, served by the
    /// view, or about to be created by a pending blind credit).
    pub fn contains(&mut self, address: Address) -> bool {
        self.set.accounts.contains_key(&address)
            || self.pending.get(&address).is_some_and(|d| !d.is_noop())
            || self.meta(address).is_some()
    }

    /// Drops the working set — sparse accounts, dirty set, stored slots and
    /// pending deltas — keeping the view. Cheap enough to call between
    /// transactions: the engines recycle one scratch state per worker.
    pub fn reset_working_set(&mut self) {
        self.set.accounts.clear();
        self.set.dirty.clear();
        self.pending.clear();
        self.stored_slots.clear();
    }

    /// The per-[`StateKey`] write set: compares every key this working set
    /// *touched* — each dirty account's balance/nonce pair, the slots it
    /// stored, the code it deployed — with the value the view serves for it,
    /// and collects the keys that actually changed into `fragments`
    /// (address-major in ascending address order, canonical part order). Cost
    /// is the touched keys; the slots the account holds besides are never
    /// visited. `blockconc_store::diff_account_fragments` over the full
    /// accounts is the oracle this is tested against. `touched` receives every
    /// dirty address, changed or not, in ascending order (the dirty set keeps
    /// none, so it is sorted here, once per harvest) — the optimistic engine
    /// needs the full set to reproduce the sequential write set at commit,
    /// since an untouched-value record still appears in a block delta.
    ///
    /// For a view over a version map the served value *is* the pre-state this
    /// execution observed, which is what makes an unchanged key diff to no
    /// fragment even when the served value was itself speculative.
    ///
    /// Clears the dirty set. Pending blind deltas are *not* folded here — they
    /// are harvested separately by
    /// [`take_delta_ops`](ScratchState::take_delta_ops).
    pub fn take_write_fragments(
        &mut self,
        fragments: &mut Vec<StateFragment>,
        touched: &mut Vec<Address>,
    ) {
        fragments.clear();
        touched.clear();
        touched.extend(self.set.dirty.drain());
        touched.sort_unstable();
        let cells = &mut self.set.source;
        for &address in touched.iter() {
            let Some(post) = self.set.accounts.get(&address) else {
                // Created and rolled back: nothing was served for it, nothing
                // remains of it. (A *committed* account cannot vanish from a
                // scratch working set — execution has no operation for that.)
                debug_assert!(cells.meta(address).is_none());
                continue;
            };
            if cells.meta(address) != Some((post.balance(), post.nonce())) {
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
                let value = post.storage_get(slot);
                if cells.slot(address, slot) != value {
                    fragments.push(StateFragment {
                        key: StateKey::Storage(address, slot),
                        value: (value != 0).then_some(FragmentValue::Slot(value)),
                    });
                }
            }
            if let Some(code) = post.code() {
                if cells.contract(address).as_ref() != Some(code) {
                    fragments.push(StateFragment {
                        key: StateKey::Code(address),
                        value: post.code_bytes().map(|c| FragmentValue::Code(c.clone())),
                    });
                }
            }
        }
    }

    /// Drains the blind pending contributions as `(key, addend)` delta ops in
    /// ascending address order (balance first, then slots). The optimistic
    /// engine harvests these into delta cells next to the write fragments of
    /// [`take_write_fragments`](ScratchState::take_write_fragments) — the two
    /// key sets are disjoint by construction (a fold or an absolute write
    /// always consumes the pending entry first). A fully reverted entry is
    /// emitted as a zero balance addend: the conservative touch marker matching
    /// the dirty mark classic execution leaves behind.
    pub fn take_delta_ops(&mut self, out: &mut Vec<(StateKey, u64)>) {
        out.clear();
        if self.pending.is_empty() {
            return;
        }
        self.drained.extend(self.pending.drain());
        self.drained.sort_unstable_by_key(|&(address, _)| address);
        for (address, deltas) in self.drained.drain(..) {
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

    /// The balance and nonce as this working set sees them, before pending
    /// credits.
    fn meta(&mut self, address: Address) -> Option<(Amount, u64)> {
        match self.set.accounts.get(&address) {
            Some(account) => Some((account.balance(), account.nonce())),
            None if self.set.dirty.contains(&address) => None,
            None => self.set.source.meta(address),
        }
    }

    /// Folds any pending blind balance credit into the account — the point
    /// where a commutative contribution is upgraded to an ordered one, because
    /// the caller is about to observe or overwrite the true balance.
    fn fold_pending_balance(&mut self, address: Address, mut journal: Option<&mut Journal>) {
        let amount = match self.pending.get_mut(&address) {
            Some(deltas) if deltas.balance != 0 => std::mem::take(&mut deltas.balance),
            _ => return,
        };
        self.set
            .credit(address, Amount::from_sats(amount), journal.as_deref_mut());
        record(
            journal,
            UndoOp::Delta(DeltaUndo::Folded(StateKey::Balance(address), amount)),
        );
    }
}

impl<C: CellView> StateAccess for ScratchState<C> {
    fn nonce(&mut self, address: Address) -> u64 {
        self.meta(address).map_or(0, |(_, nonce)| nonce)
    }

    /// Pending blind credits are folded in virtually — observing the value
    /// does not materialize it.
    fn balance(&mut self, address: Address) -> Amount {
        let base = self
            .meta(address)
            .map_or(Amount::ZERO, |(balance, _)| balance);
        match self.pending.get(&address) {
            Some(deltas) if deltas.balance != 0 => Amount::from_sats(
                base.sats()
                    .checked_add(deltas.balance)
                    .expect("amount overflow"),
            ),
            _ => base,
        }
    }

    /// A sparse account holds only the slots this state stored; the rest read
    /// through the view. Pending blind slot addends are folded in virtually.
    fn storage(&mut self, address: Address, key: u64) -> u64 {
        let base = match self.set.accounts.get(&address) {
            Some(account) if self.stored_slots.contains(&(address, key)) => {
                account.storage_get(key)
            }
            None if self.set.dirty.contains(&address) => 0,
            _ => self.set.source.slot(address, key),
        };
        match self.pending.get(&address).and_then(|d| d.slots.get(&key)) {
            Some(add) => base.wrapping_add(*add),
            None => base,
        }
    }

    /// A sparse account carries code only if this state deployed it, so
    /// resident or not the view answers — unless the account was deleted in
    /// this working set.
    fn contract(&mut self, address: Address) -> Option<Arc<Contract>> {
        if let Some(code) = self.set.accounts.get(&address).and_then(Account::code) {
            return Some(Arc::clone(code));
        }
        if self.set.deleted(address) {
            return None;
        }
        self.set.source.contract(address)
    }

    /// An ordered credit observes the balance: any pending blind credit folds
    /// first, so an account never carries both a `Meta` value change and a
    /// pending balance addend in one harvest.
    fn credit_journalled(
        &mut self,
        address: Address,
        value: Amount,
        mut journal: Option<&mut Journal>,
    ) {
        self.fold_pending_balance(address, journal.as_deref_mut());
        self.set.credit(address, value, journal);
    }

    /// A debit observes the true balance: any pending blind credit folds
    /// first, so a blind-credited account can be spent from in-block.
    fn debit_journalled(
        &mut self,
        address: Address,
        value: Amount,
        mut journal: Option<&mut Journal>,
    ) -> Result<()> {
        self.fold_pending_balance(address, journal.as_deref_mut());
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
        mut journal: Option<&mut Journal>,
    ) {
        // An absolute write overrides any blind pending addend on the slot, so
        // add-then-store agrees with the classic read-modify-write order.
        let pending = self
            .pending
            .get_mut(&address)
            .and_then(|deltas| deltas.slots.remove(&key));
        if let Some(pending @ 1..) = pending {
            let folded = DeltaUndo::Folded(StateKey::Storage(address, key), pending);
            record(journal.as_deref_mut(), UndoOp::Delta(folded));
        }
        // A sparse account learns a slot's served value on its first store, so
        // the journalled `old` and every later read of the slot are the
        // account's own.
        if self.stored_slots.insert((address, key)) {
            let served = self.set.source.slot(address, key);
            if served != 0 {
                self.set
                    .entry(address, journal.as_deref_mut())
                    .storage_set(key, served);
            }
        }
        self.set.storage_set(address, key, value, journal);
    }

    fn deploy_contract(&mut self, address: Address, contract: Arc<Contract>) {
        self.set.entry(address, None).set_code(contract);
    }

    fn revert_to(&mut self, journal: &mut Journal, checkpoint: usize) {
        let pending = &mut self.pending;
        self.set
            .revert_to(journal, checkpoint, |op| undo_delta(pending, op));
    }

    /// Blind when the account is not materialized here: a resident value is
    /// already order-materialized, so the classic path is both correct and
    /// cheaper.
    fn credit_delta(
        &mut self,
        address: Address,
        value: Amount,
        journal: Option<&mut Journal>,
    ) -> bool {
        if value.is_zero() || self.set.accounts.contains_key(&address) {
            return false;
        }
        let deltas = self.pending.entry(address).or_default();
        deltas.balance = deltas
            .balance
            .checked_add(value.sats())
            .expect("amount overflow");
        record(
            journal,
            UndoOp::Delta(DeltaUndo::Added(StateKey::Balance(address), value.sats())),
        );
        true
    }

    /// Slot deltas are finer-grained than balance deltas: a materialized
    /// account is fine (the `Meta` and `Slot` cell parts are independent), only
    /// a slot this working set has already absolutely written must stay
    /// classic. A zero add also stays classic, which keeps its
    /// account-creation side effect identical to classic execution.
    fn storage_add_delta(
        &mut self,
        address: Address,
        key: u64,
        value: u64,
        journal: Option<&mut Journal>,
    ) -> bool {
        if value == 0 || self.stored_slots.contains(&(address, key)) {
            return false;
        }
        let deltas = self.pending.entry(address).or_default();
        let slot = deltas.slots.entry(key).or_insert(0);
        *slot = slot.wrapping_add(value);
        record(
            journal,
            UndoOp::Delta(DeltaUndo::Added(StateKey::Storage(address, key), value)),
        );
        true
    }
}

/// Applies one blind-delta undo to the pending map: an added addend is
/// subtracted back out (the entry is kept even at zero — it is the touch
/// marker mirroring the dirty mark `Created` leaves), a folded one restored.
fn undo_delta(pending: &mut HashMap<Address, AccountDeltas>, op: DeltaUndo) {
    let (key, amount, folded) = match op {
        DeltaUndo::Added(key, amount) => (key, amount, false),
        DeltaUndo::Folded(key, amount) => (key, amount, true),
    };
    let deltas = pending.entry(key.address()).or_default();
    let addend = match key {
        StateKey::Balance(_) => &mut deltas.balance,
        StateKey::Storage(_, slot) if folded => deltas.slots.entry(slot).or_insert(0),
        // An absolute store may have dropped a slot addend that summed to
        // zero without journalling the fold: nothing is left to subtract.
        StateKey::Storage(_, slot) => match deltas.slots.get_mut(&slot) {
            Some(addend) => addend,
            None => return,
        },
        StateKey::Code(_) => unreachable!("code keys carry no deltas"),
    };
    *addend = if folded {
        addend.wrapping_add(amount)
    } else {
        addend.wrapping_sub(amount)
    };
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{account_to_stored, decode_contract, WorldState};
    use blockconc_store::StoredAccount;

    /// A committed account map that serves cells: the scratch-state test view
    /// (the production implementor is the optimistic engine's versioned view).
    #[derive(Debug, Clone, Default)]
    pub(crate) struct MapCells {
        pub(crate) accounts: BTreeMap<Address, StoredAccount>,
    }

    impl MapCells {
        /// The accounts of a backend-less state, as committed state.
        pub(crate) fn of(state: &WorldState) -> Self {
            MapCells {
                accounts: state
                    .iter()
                    .map(|(address, account)| (*address, account_to_stored(account)))
                    .collect(),
            }
        }
    }

    impl CellView for MapCells {
        fn meta(&mut self, address: Address) -> Option<(Amount, u64)> {
            let account = self.accounts.get(&address)?;
            Some((Amount::from_sats(account.balance_sats), account.nonce))
        }

        fn slot(&mut self, address: Address, key: u64) -> u64 {
            let Some(account) = self.accounts.get(&address) else {
                return 0;
            };
            account
                .storage
                .binary_search_by_key(&key, |&(slot, _)| slot)
                .map_or(0, |pos| account.storage[pos].1)
        }

        fn contract(&mut self, address: Address) -> Option<Arc<Contract>> {
            let code = self.accounts.get(&address)?.code.as_deref()?;
            Some(decode_contract(code).expect("committed code decodes"))
        }
    }

    /// Commits what `scratch` wrote onto `resident` the way the optimistic
    /// engine commits a transaction's cells: each fragment set in place, each
    /// delta folded on top, and every address the scratch state wrote touched.
    pub(crate) fn commit_harvest<C: CellView>(
        resident: &mut WorldState,
        scratch: &mut ScratchState<C>,
    ) {
        let (mut fragments, mut touched, mut deltas) = (Vec::new(), Vec::new(), Vec::new());
        scratch.take_write_fragments(&mut fragments, &mut touched);
        scratch.take_delta_ops(&mut deltas);
        for fragment in &fragments {
            resident.set_cell(&fragment.key, fragment.value.as_ref());
        }
        for &(key, amount) in &deltas {
            // A zero addend is a touch marker: no cell, only the touch below.
            touched.push(key.address());
            if amount == 0 {
                continue;
            }
            match key {
                StateKey::Balance(address) => resident.credit(address, Amount::from_sats(amount)),
                StateKey::Storage(address, slot) => {
                    let value = resident.storage(address, slot).wrapping_add(amount);
                    resident.storage_set(address, slot, value, None);
                }
                StateKey::Code(_) => unreachable!("code keys carry no deltas"),
            }
        }
        for address in touched {
            resident.touch(address);
        }
    }
}
