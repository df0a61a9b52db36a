//! The set of unspent transaction outputs.

use crate::{OutPoint, TxOut, UtxoTransaction};
use blockconc_types::{Error, Result};
use std::collections::HashMap;

/// The set of unspent transaction outputs (UTXOs) maintained by every full node of a
/// UTXO-based blockchain.
///
/// Applying a transaction removes its inputs from the set and inserts its outputs;
/// [`UtxoSet::undo_transaction`] reverses that, which simulators use to roll blocks
/// back cheaply.
///
/// # Examples
///
/// ```
/// use blockconc_types::{Address, Amount};
/// use blockconc_utxo::{TransactionBuilder, UtxoSet};
///
/// let mut set = UtxoSet::new();
/// let coinbase = TransactionBuilder::coinbase(Address::from_low(1), Amount::COIN, 0);
/// set.apply_transaction(&coinbase).unwrap();
/// assert_eq!(set.len(), 1);
/// assert!(set.contains(&coinbase.outpoint(0)));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UtxoSet {
    entries: HashMap<OutPoint, TxOut>,
}

impl UtxoSet {
    /// Creates an empty UTXO set.
    pub fn new() -> Self {
        UtxoSet {
            entries: HashMap::new(),
        }
    }

    /// Number of unspent outputs in the set.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` if `outpoint` is unspent.
    pub fn contains(&self, outpoint: &OutPoint) -> bool {
        self.entries.contains_key(outpoint)
    }

    /// Looks up the output referenced by `outpoint`, if unspent.
    pub fn get(&self, outpoint: &OutPoint) -> Option<&TxOut> {
        self.entries.get(outpoint)
    }

    /// Inserts an output directly (used when bootstrapping simulated state).
    pub fn insert(&mut self, outpoint: OutPoint, output: TxOut) {
        self.entries.insert(outpoint, output);
    }

    /// Removes and returns an output.
    pub fn remove(&mut self, outpoint: &OutPoint) -> Option<TxOut> {
        self.entries.remove(outpoint)
    }

    /// Iterates over all unspent outpoints and outputs.
    pub fn iter(&self) -> impl Iterator<Item = (&OutPoint, &TxOut)> {
        self.entries.iter()
    }

    /// Applies a transaction: removes spent inputs, inserts created outputs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MissingState`] if any input is not currently unspent; in that
    /// case the set is left unchanged.
    pub fn apply_transaction(&mut self, tx: &UtxoTransaction) -> Result<()> {
        for input in tx.inputs() {
            if !self.entries.contains_key(input) {
                return Err(Error::missing_state(format!(
                    "input {input} of transaction {} is not in the UTXO set",
                    tx.id()
                )));
            }
        }
        for input in tx.inputs() {
            self.entries.remove(input);
        }
        for (vout, output) in tx.outputs().iter().enumerate() {
            self.entries.insert(tx.outpoint(vout as u32), *output);
        }
        Ok(())
    }

    /// Undoes a previously applied transaction, re-inserting the given spent outputs.
    ///
    /// `spent` must contain, for each input of `tx` in order, the output that the input
    /// had consumed (as returned by [`UtxoSet::get`] before the apply).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Execution`] if `spent` does not have one entry per input.
    pub fn undo_transaction(&mut self, tx: &UtxoTransaction, spent: &[TxOut]) -> Result<()> {
        if spent.len() != tx.inputs().len() {
            return Err(Error::execution(format!(
                "undo of {} expected {} spent outputs, got {}",
                tx.id(),
                tx.inputs().len(),
                spent.len()
            )));
        }
        for vout in 0..tx.outputs().len() {
            self.entries.remove(&tx.outpoint(vout as u32));
        }
        for (input, output) in tx.inputs().iter().zip(spent) {
            self.entries.insert(*input, *output);
        }
        Ok(())
    }

    /// Total value of all unspent outputs.
    pub fn total_value(&self) -> blockconc_types::Amount {
        self.entries.values().map(|o| o.value()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TransactionBuilder;
    use blockconc_types::{Address, Amount};

    fn coinbase(n: u64) -> UtxoTransaction {
        TransactionBuilder::coinbase(Address::from_low(n), Amount::from_coins(50), n)
    }

    #[test]
    fn apply_inserts_outputs_and_removes_inputs() {
        let mut set = UtxoSet::new();
        let cb = coinbase(1);
        set.apply_transaction(&cb).unwrap();
        assert_eq!(set.len(), 1);

        let spend = TransactionBuilder::new()
            .input(cb.outpoint(0))
            .output(Address::from_low(2), Amount::from_coins(50))
            .build();
        set.apply_transaction(&spend).unwrap();
        assert!(!set.contains(&cb.outpoint(0)));
        assert!(set.contains(&spend.outpoint(0)));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn apply_missing_input_fails_atomically() {
        let mut set = UtxoSet::new();
        let cb = coinbase(1);
        set.apply_transaction(&cb).unwrap();
        let bad = TransactionBuilder::new()
            .input(cb.outpoint(0))
            .input(OutPoint::new(blockconc_types::TxId::from_low(99), 0))
            .output(Address::from_low(3), Amount::from_coins(1))
            .build();
        assert!(set.apply_transaction(&bad).is_err());
        // The valid input must still be present (atomicity).
        assert!(set.contains(&cb.outpoint(0)));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn undo_restores_previous_state() {
        let mut set = UtxoSet::new();
        let cb = coinbase(1);
        set.apply_transaction(&cb).unwrap();
        let before = set.clone();

        let spend = TransactionBuilder::new()
            .input(cb.outpoint(0))
            .output(Address::from_low(2), Amount::from_coins(49))
            .build();
        let spent = vec![*set.get(&cb.outpoint(0)).unwrap()];
        set.apply_transaction(&spend).unwrap();
        assert_ne!(set, before);
        set.undo_transaction(&spend, &spent).unwrap();
        assert_eq!(set, before);
    }

    #[test]
    fn undo_rejects_mismatched_spent_list() {
        let mut set = UtxoSet::new();
        let cb = coinbase(1);
        set.apply_transaction(&cb).unwrap();
        assert!(set
            .undo_transaction(&cb, &[TxOut::new(Address::ZERO, Amount::ZERO)])
            .is_err());
    }

    #[test]
    fn total_value_sums_outputs() {
        let mut set = UtxoSet::new();
        set.apply_transaction(&coinbase(1)).unwrap();
        set.apply_transaction(&coinbase(2)).unwrap();
        assert_eq!(set.total_value(), Amount::from_coins(100));
    }

    #[test]
    fn double_spend_is_rejected() {
        let mut set = UtxoSet::new();
        let cb = coinbase(1);
        set.apply_transaction(&cb).unwrap();
        let spend1 = TransactionBuilder::new()
            .input(cb.outpoint(0))
            .output(Address::from_low(2), Amount::from_coins(50))
            .build();
        let spend2 = TransactionBuilder::new()
            .input(cb.outpoint(0))
            .output(Address::from_low(3), Amount::from_coins(50))
            .build();
        set.apply_transaction(&spend1).unwrap();
        assert!(set.apply_transaction(&spend2).is_err());
    }
}
