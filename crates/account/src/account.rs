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
    code: Option<Arc<Contract>>,
    /// The [binary encoding](Contract::encode) of `code`, computed lazily on
    /// first persistence so that committing a dirty contract account never
    /// re-encodes the (immutable) code — and runs that never persist never
    /// encode at all.
    code_bytes: OnceLock<Arc<[u8]>>,
    storage: HashMap<u64, u64>,
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
        self.code.as_ref()
    }

    /// Returns `true` if this account has contract code.
    pub fn is_contract(&self) -> bool {
        self.code.is_some()
    }

    /// Sets the contract code (used at deployment).
    pub fn set_code(&mut self, code: Arc<Contract>) {
        self.code = Some(code);
        self.code_bytes = OnceLock::new();
    }

    /// Sets contract code together with its already-known encoding (used when
    /// materializing a persisted account, avoiding a re-encoding).
    pub(crate) fn set_code_with_bytes(&mut self, code: Arc<Contract>, bytes: Arc<[u8]>) {
        self.code = Some(code);
        let cell = OnceLock::new();
        cell.set(bytes).expect("fresh cell");
        self.code_bytes = cell;
    }

    /// Removes the contract code.
    pub(crate) fn clear_code(&mut self) {
        self.code = None;
        self.code_bytes = OnceLock::new();
    }

    /// The binary encoding of the deployed code, if any — encoded once on
    /// first access and cached (clones of this account share the cache via
    /// `Arc` only after cloning a filled cell; an unfilled clone fills its own).
    pub fn code_bytes(&self) -> Option<&Arc<[u8]>> {
        let code = self.code.as_ref()?;
        Some(self.code_bytes.get_or_init(|| Arc::from(code.encode())))
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
        self.storage.get(&key).copied().unwrap_or(0)
    }

    /// Writes a storage slot and returns the previous value.
    pub fn storage_set(&mut self, key: u64, value: u64) -> u64 {
        if value == 0 {
            self.storage.remove(&key).unwrap_or(0)
        } else {
            self.storage.insert(key, value).unwrap_or(0)
        }
    }

    /// Number of non-zero storage slots.
    pub fn storage_len(&self) -> usize {
        self.storage.len()
    }

    /// All non-zero storage slots in canonical (slot-sorted) order — the form the
    /// persistent state backends journal.
    pub fn storage_entries(&self) -> Vec<(u64, u64)> {
        let mut entries: Vec<(u64, u64)> = self.storage.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable();
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::{Contract, OpCode};

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
}
