//! Per-address account state.

use crate::vm::Contract;
use blockconc_types::Amount;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// The state of one account: balance, nonce, optional contract code and storage.
///
/// Contract code is shared via [`Arc`] because workload simulations deploy one
/// contract (an exchange wallet, a token, …) and reference it from millions of
/// transactions; the code itself is immutable after deployment.
///
/// # Layout
///
/// Most accounts are plain: a balance and a nonce. Those two stay inline, and
/// everything only a contract or a slot holder carries — the code, its cached
/// encoding and the storage map — lives behind one `Option<Box<…>>`, so an
/// account is 24 bytes and a resident `(Address, Account)` map entry 48. The
/// box exists exactly while the account has code or a non-zero slot: zeroing
/// the last slot of an account without code, or clearing the code of one
/// without slots, frees it, so an emptied account holds no heap.
///
/// # Examples
///
/// ```
/// use blockconc_types::Amount;
/// use blockconc_account::Account;
///
/// let mut acct = Account::new();
/// acct.credit(Amount::from_sats(500));
/// assert_eq!(acct.balance(), Amount::from_sats(500));
/// assert!(!acct.is_contract());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Account {
    balance: Amount,
    nonce: u64,
    /// Present exactly when `code` is set or `storage` holds a slot (but for
    /// the carriers on a [`Spares`] list, which are no state's accounts).
    extras: Option<Box<Extras>>,
}

/// What only contracts and slot holders carry, boxed out of [`Account`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Extras {
    code: Option<Arc<Contract>>,
    /// The [binary encoding](Contract::encode) of `code`, computed lazily on
    /// first persistence so that committing a dirty contract account never
    /// re-encodes the (immutable) code — and runs that never persist never
    /// encode at all.
    code_bytes: OnceLock<Arc<[u8]>>,
    storage: HashMap<u64, u64>,
}

impl Extras {
    /// No code and no slot: the account no longer needs the box.
    fn is_empty(&self) -> bool {
        self.code.is_none() && self.storage.is_empty()
    }
}

/// Accounts a scratch state dropped, each emptied but for a cleared box that
/// the next account needing one takes over before it allocates one. A scratch
/// state keeps one list across its working sets, so once the list is warm a
/// sparse account's first slot or code costs no allocation, and its storage
/// map arrives with the capacity an earlier account grew it to.
#[derive(Debug, Clone, Default)]
pub(crate) struct Spares(Vec<Account>);

impl Spares {
    /// Keeps `account`'s box, if it has one, cleared for the next taker.
    pub(crate) fn recycle(&mut self, account: Account) {
        if let Some(extras) = account.extras {
            self.keep(extras);
        }
    }

    fn keep(&mut self, mut extras: Box<Extras>) {
        extras.code = None;
        extras.code_bytes = OnceLock::new();
        extras.storage.clear();
        self.0.push(Account {
            extras: Some(extras),
            ..Account::default()
        });
    }

    fn take(&mut self) -> Option<Box<Extras>> {
        self.0.pop()?.extras
    }
}

impl Account {
    /// Creates an empty account with zero balance and nonce.
    pub fn new() -> Self {
        Account::default()
    }

    /// Creates an account holding `balance`.
    pub fn with_balance(balance: Amount) -> Self {
        Account {
            balance,
            ..Account::default()
        }
    }

    /// Creates a contract account with the given code.
    pub fn contract(code: Arc<Contract>) -> Self {
        let mut account = Account::default();
        account.set_code(code);
        account
    }

    /// The account's balance.
    pub fn balance(&self) -> Amount {
        self.balance
    }

    /// The account's transaction nonce.
    pub fn nonce(&self) -> u64 {
        self.nonce
    }

    /// Returns the deployed contract, if any.
    pub fn code(&self) -> Option<&Arc<Contract>> {
        self.extras.as_ref()?.code.as_ref()
    }

    /// Returns `true` if this account has contract code.
    pub fn is_contract(&self) -> bool {
        self.code().is_some()
    }

    /// Sets the contract code (used at deployment).
    pub fn set_code(&mut self, code: Arc<Contract>) {
        self.set_code_with(code, None);
    }

    /// [`set_code`](Account::set_code), taking the box from `spares` if it
    /// needs one.
    pub(crate) fn set_code_with(&mut self, code: Arc<Contract>, spares: Option<&mut Spares>) {
        let extras = self.extras_mut(spares);
        extras.code = Some(code);
        extras.code_bytes = OnceLock::new();
    }

    /// Sets contract code together with its already-known encoding (used when
    /// materializing a persisted account, avoiding a re-encoding).
    pub(crate) fn set_code_with_bytes(&mut self, code: Arc<Contract>, bytes: Arc<[u8]>) {
        let extras = self.extras_mut(None);
        extras.code = Some(code);
        let cell = OnceLock::new();
        cell.set(bytes).expect("fresh cell");
        extras.code_bytes = cell;
    }

    /// Removes the contract code.
    pub(crate) fn clear_code(&mut self) {
        if let Some(extras) = &mut self.extras {
            extras.code = None;
            extras.code_bytes = OnceLock::new();
        }
        self.shed_if_empty(None);
    }

    /// The binary encoding of the deployed code, if any — encoded once on
    /// first access and cached (clones of this account share the cache via
    /// `Arc` only after cloning a filled cell; an unfilled clone fills its own).
    pub fn code_bytes(&self) -> Option<&Arc<[u8]>> {
        let extras = self.extras.as_ref()?;
        let code = extras.code.as_ref()?;
        Some(extras.code_bytes.get_or_init(|| Arc::from(code.encode())))
    }

    /// Adds `value` to the balance.
    ///
    /// # Panics
    ///
    /// Panics on balance overflow (indicates a simulator bug).
    pub fn credit(&mut self, value: Amount) {
        self.balance += value;
    }

    /// Removes `value` from the balance; returns `false` (leaving the balance
    /// unchanged) if the funds are insufficient.
    pub fn debit(&mut self, value: Amount) -> bool {
        match self.balance.checked_sub(value) {
            Some(rest) => {
                self.balance = rest;
                true
            }
            None => false,
        }
    }

    /// Overwrites the balance (used by the journal when rolling back).
    pub fn set_balance(&mut self, value: Amount) {
        self.balance = value;
    }

    /// Increments the nonce.
    pub fn bump_nonce(&mut self) {
        self.nonce += 1;
    }

    /// Overwrites the nonce (used by the journal when rolling back).
    pub fn set_nonce(&mut self, nonce: u64) {
        self.nonce = nonce;
    }

    /// Reads a storage slot (missing slots read as zero, as in the EVM).
    pub fn storage_get(&self, key: u64) -> u64 {
        self.extras
            .as_ref()
            .and_then(|extras| extras.storage.get(&key))
            .copied()
            .unwrap_or(0)
    }

    /// Writes a storage slot and returns the previous value.
    pub fn storage_set(&mut self, key: u64, value: u64) -> u64 {
        self.storage_set_with(key, value, None)
    }

    /// [`storage_set`](Account::storage_set), taking the box from `spares` if
    /// it needs one and handing it back there if it empties.
    pub(crate) fn storage_set_with(
        &mut self,
        key: u64,
        value: u64,
        spares: Option<&mut Spares>,
    ) -> u64 {
        if value != 0 {
            return self
                .extras_mut(spares)
                .storage
                .insert(key, value)
                .unwrap_or(0);
        }
        let Some(extras) = &mut self.extras else {
            return 0;
        };
        let old = extras.storage.remove(&key).unwrap_or(0);
        self.shed_if_empty(spares);
        old
    }

    /// Number of non-zero storage slots.
    pub fn storage_len(&self) -> usize {
        self.extras
            .as_ref()
            .map_or(0, |extras| extras.storage.len())
    }

    /// All non-zero storage slots in canonical (slot-sorted) order — the form the
    /// persistent state backends journal.
    pub fn storage_entries(&self) -> Vec<(u64, u64)> {
        let Some(extras) = &self.extras else {
            return Vec::new();
        };
        let mut entries: Vec<(u64, u64)> = extras.storage.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable();
        entries
    }

    /// The box, taken from `spares` or allocated if the account has none yet.
    fn extras_mut(&mut self, spares: Option<&mut Spares>) -> &mut Extras {
        self.extras
            .get_or_insert_with(|| spares.and_then(Spares::take).unwrap_or_default())
    }

    /// Frees the box once it holds neither code nor a slot (into `spares`, if
    /// given), keeping the layout invariant.
    fn shed_if_empty(&mut self, spares: Option<&mut Spares>) {
        if !self.extras.as_deref().is_some_and(Extras::is_empty) {
            return;
        }
        let extras = self.extras.take();
        if let (Some(spares), Some(extras)) = (spares, extras) {
            spares.keep(extras);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::tests::mix;
    use crate::vm::{Contract, OpCode};
    use crate::{Journal, StateAccess, StateKey, WorldState};
    use blockconc_store::FragmentValue;
    use blockconc_types::Address;
    use std::collections::BTreeMap;
    use std::mem::size_of;

    #[test]
    fn credit_and_debit() {
        let mut acct = Account::new();
        acct.credit(Amount::from_sats(100));
        assert!(acct.debit(Amount::from_sats(40)));
        assert_eq!(acct.balance(), Amount::from_sats(60));
        assert!(!acct.debit(Amount::from_sats(61)));
        assert_eq!(acct.balance(), Amount::from_sats(60));
    }

    #[test]
    fn storage_reads_default_to_zero_and_zero_writes_delete() {
        let mut acct = Account::new();
        assert_eq!(acct.storage_get(5), 0);
        assert_eq!(acct.storage_set(5, 7), 0);
        assert_eq!(acct.storage_get(5), 7);
        assert_eq!(acct.storage_set(5, 0), 7);
        assert_eq!(acct.storage_len(), 0);
    }

    #[test]
    fn contract_accounts_report_code() {
        let code = Arc::new(Contract::new(vec![OpCode::Stop]));
        let acct = Account::contract(code);
        assert!(acct.is_contract());
        assert!(Account::new().code().is_none());
    }

    #[test]
    fn nonce_bumping() {
        let mut acct = Account::new();
        acct.bump_nonce();
        acct.bump_nonce();
        assert_eq!(acct.nonce(), 2);
        acct.set_nonce(0);
        assert_eq!(acct.nonce(), 0);
    }

    /// The box holds what only contracts and slot holders have, so a plain
    /// account and its resident map entry stay small.
    #[test]
    fn a_plain_account_is_24_bytes_and_its_entry_48() {
        assert_eq!(size_of::<Account>(), 24);
        assert_eq!(size_of::<(Address, Account)>(), 48);
    }

    /// The box exists exactly while the account has code or a non-zero slot.
    fn assert_boxed_iff_needed(account: &Account) {
        assert_eq!(
            account.extras.is_some(),
            account.is_contract() || account.storage_len() > 0,
            "box invariant broken on {account:?}"
        );
    }

    #[test]
    fn zeroing_the_last_slot_keeps_the_code() {
        let mut acct = Account::contract(Arc::new(Contract::counter()));
        acct.storage_set(0, 5);
        acct.storage_set(0, 0);
        assert!(acct.is_contract());
        assert_eq!(
            acct.code().map(|c| c.encode()),
            Some(Contract::counter().encode())
        );
        assert_boxed_iff_needed(&acct);

        // And clearing the code keeps the slots.
        acct.storage_set(7, 1);
        acct.clear_code();
        assert_eq!(acct.storage_get(7), 1);
        assert_boxed_iff_needed(&acct);
    }

    #[test]
    fn an_emptied_account_holds_no_box() {
        // A slot written and zeroed.
        let mut acct = Account::with_balance(Amount::from_sats(3));
        acct.storage_set(1, 9);
        acct.storage_set(1, 0);
        assert!(acct.extras.is_none());

        // Code and a slot, both taken away, in either order.
        let mut acct = Account::contract(Arc::new(Contract::counter()));
        acct.storage_set(2, 4);
        acct.clear_code();
        acct.storage_set(2, 0);
        assert!(acct.extras.is_none());
        let mut acct = Account::contract(Arc::new(Contract::counter()));
        acct.storage_set(2, 4);
        acct.storage_set(2, 0);
        acct.clear_code();
        assert!(acct.extras.is_none());

        // A reverted creation leaves no account; a reverted slot write on a
        // committed plain account leaves it unboxed.
        let (plain, fresh) = (Address::from_low(1), Address::from_low(2));
        let mut state = WorldState::new();
        state.credit(plain, Amount::from_sats(10));
        let mut journal = Journal::new();
        state.storage_set(fresh, 4, 8, Some(&mut journal));
        state.storage_set(plain, 4, 8, Some(&mut journal));
        state.revert_to(&mut journal, 0);
        assert!(state.account(fresh).is_none());
        assert!(state.account(plain).unwrap().extras.is_none());

        // A withdrawn phantom leaves nothing behind either.
        state.credit(fresh, Amount::from_sats(5));
        state.withdraw_phantom(fresh, Amount::from_sats(5)).unwrap();
        assert!(state.account(fresh).is_none());
    }

    /// What the observers of one account should read: the naive model.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct Model {
        balance: u64,
        nonce: u64,
        code: Option<Vec<u8>>,
        storage: BTreeMap<u64, u64>,
    }

    fn check(state: &WorldState, model: &BTreeMap<Address, Model>, universe: u64) {
        for low in 1..=universe {
            let address = Address::from_low(low);
            let (Some(acct), Some(want)) = (state.account(address), model.get(&address)) else {
                assert_eq!(
                    state.account(address).is_some(),
                    model.contains_key(&address)
                );
                continue;
            };
            assert_eq!(acct.balance().sats(), want.balance);
            assert_eq!(acct.nonce(), want.nonce);
            assert_eq!(acct.code().map(|c| c.encode()), want.code);
            assert_eq!(acct.code_bytes().map(|b| b.to_vec()), want.code);
            assert_eq!(acct.is_contract(), want.code.is_some());
            assert_eq!(acct.storage_len(), want.storage.len());
            let entries: Vec<(u64, u64)> = want.storage.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(acct.storage_entries(), entries);
            for slot in 0..6 {
                assert_eq!(
                    acct.storage_get(slot),
                    want.storage.get(&slot).copied().unwrap_or(0)
                );
            }
            assert_boxed_iff_needed(acct);
        }
    }

    /// A seeded stream of every account operation through `WorldState`, each
    /// journalled write undone by reverts, holding every observer to the model.
    #[test]
    fn generated_operations_match_the_naive_model() {
        const UNIVERSE: u64 = 5;
        let codes = [Contract::counter(), Contract::fee_sink()];
        for seed in 0..64u64 {
            let mut rng = seed;
            let mut state = WorldState::new();
            let mut journal = Journal::new();
            let mut model: BTreeMap<Address, Model> = BTreeMap::new();
            // The model as of the journal's start: what a revert goes back to.
            let mut checkpoint = model.clone();
            for _ in 0..200 {
                let address = Address::from_low(1 + mix(&mut rng) % UNIVERSE);
                let slot = mix(&mut rng) % 6;
                match mix(&mut rng) % 10 {
                    0 => {
                        let value = mix(&mut rng) % 50;
                        state.credit_journalled(
                            address,
                            Amount::from_sats(value),
                            Some(&mut journal),
                        );
                        model.entry(address).or_default().balance += value;
                    }
                    1 => {
                        let value = mix(&mut rng) % 60;
                        let ok = state
                            .debit_journalled(address, Amount::from_sats(value), Some(&mut journal))
                            .is_ok();
                        let have = model.get_mut(&address).filter(|m| m.balance >= value);
                        assert_eq!(ok, have.is_some());
                        if let Some(want) = have {
                            want.balance -= value;
                        }
                    }
                    2 => {
                        state.bump_nonce(address, Some(&mut journal));
                        model.entry(address).or_default().nonce += 1;
                    }
                    // Slot writes, a third of them zeros (deletions).
                    3 | 4 => {
                        let value = [0, 0, 1 + mix(&mut rng) % 9][(mix(&mut rng) % 3) as usize];
                        state.storage_set(address, slot, value, Some(&mut journal));
                        let storage = &mut model.entry(address).or_default().storage;
                        if value == 0 {
                            storage.remove(&slot);
                        } else {
                            storage.insert(slot, value);
                        }
                    }
                    5 => {
                        // Code is not journalled: the write commits the journal.
                        journal.clear();
                        let code = codes[(mix(&mut rng) % 2) as usize].clone();
                        model.entry(address).or_default().code = Some(code.encode());
                        state.deploy_contract(address, Arc::new(code));
                        checkpoint = model.clone();
                    }
                    6 => {
                        journal.clear();
                        let code = codes[(mix(&mut rng) % 2) as usize].encode();
                        let value = FragmentValue::Code(Arc::from(code.clone()));
                        state.set_cell(&StateKey::Code(address), Some(&value));
                        if let Some(want) = model.get_mut(&address) {
                            want.code = Some(code);
                        }
                        checkpoint = model.clone();
                    }
                    7 => {
                        journal.clear();
                        state.set_cell(&StateKey::Code(address), None);
                        if let Some(want) = model.get_mut(&address) {
                            want.code = None;
                        }
                        checkpoint = model.clone();
                    }
                    8 => {
                        state.revert_to(&mut journal, 0);
                        model = checkpoint.clone();
                    }
                    _ => {
                        journal.clear();
                        checkpoint = model.clone();
                    }
                }
                check(&state, &model, UNIVERSE);
            }
        }
    }
}
