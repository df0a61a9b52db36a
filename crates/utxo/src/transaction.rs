//! UTXO transactions.

use crate::{OutPoint, TxOut};
use blockconc_types::{Address, Amount, TxId};

/// Whether a transaction is a coinbase (block reward) or a regular spend.
///
/// The paper ignores coinbase transactions when building dependency graphs, so the
/// kind is carried explicitly rather than inferred from an empty input list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxKind {
    /// The miner-reward transaction; has no inputs.
    Coinbase,
    /// An ordinary transaction spending existing TXOs.
    Regular,
}

/// A UTXO-model transaction: a list of inputs (outpoints being spent) and a list of
/// newly created outputs.
///
/// The transaction id is derived deterministically from the inputs, outputs and a
/// caller-supplied nonce, so identical payment patterns in different simulated blocks
/// still receive distinct ids.
///
/// # Examples
///
/// ```
/// use blockconc_types::{Address, Amount};
/// use blockconc_utxo::{TransactionBuilder, TxKind};
///
/// let coinbase = TransactionBuilder::coinbase(Address::from_low(1), Amount::COIN, 0);
/// assert_eq!(coinbase.kind(), TxKind::Coinbase);
/// assert!(coinbase.inputs().is_empty());
/// assert_eq!(coinbase.outputs().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UtxoTransaction {
    id: TxId,
    kind: TxKind,
    inputs: Vec<OutPoint>,
    outputs: Vec<TxOut>,
}

impl UtxoTransaction {
    /// Creates a regular transaction from inputs and outputs.
    ///
    /// The `nonce` disambiguates transactions that would otherwise have identical
    /// content (it is mixed into the id).
    pub fn new(inputs: Vec<OutPoint>, outputs: Vec<TxOut>, nonce: u64) -> Self {
        let id = Self::compute_id(TxKind::Regular, &inputs, &outputs, nonce);
        UtxoTransaction {
            id,
            kind: TxKind::Regular,
            inputs,
            outputs,
        }
    }

    /// Creates a coinbase transaction paying `reward` to `miner`.
    pub fn coinbase(miner: Address, reward: Amount, nonce: u64) -> Self {
        let outputs = vec![TxOut::new(miner, reward)];
        let id = Self::compute_id(TxKind::Coinbase, &[], &outputs, nonce);
        UtxoTransaction {
            id,
            kind: TxKind::Coinbase,
            inputs: Vec::new(),
            outputs,
        }
    }

    fn compute_id(kind: TxKind, inputs: &[OutPoint], outputs: &[TxOut], nonce: u64) -> TxId {
        let mut data = Vec::with_capacity(16 + inputs.len() * 36 + outputs.len() * 28);
        data.extend_from_slice(&nonce.to_le_bytes());
        data.push(match kind {
            TxKind::Coinbase => 0,
            TxKind::Regular => 1,
        });
        for input in inputs {
            data.extend_from_slice(input.txid().hash().as_bytes());
            data.extend_from_slice(&input.vout().to_le_bytes());
        }
        for output in outputs {
            data.extend_from_slice(output.owner().as_bytes());
            data.extend_from_slice(&output.value().sats().to_le_bytes());
        }
        TxId::of_bytes(&data)
    }

    /// The transaction id.
    pub fn id(&self) -> TxId {
        self.id
    }

    /// Whether this is a coinbase or regular transaction.
    pub fn kind(&self) -> TxKind {
        self.kind
    }

    /// Returns `true` for coinbase transactions.
    pub fn is_coinbase(&self) -> bool {
        self.kind == TxKind::Coinbase
    }

    /// The outpoints spent by this transaction (empty for coinbase).
    pub fn inputs(&self) -> &[OutPoint] {
        &self.inputs
    }

    /// The outputs created by this transaction.
    pub fn outputs(&self) -> &[TxOut] {
        &self.outputs
    }

    /// The outpoint referring to this transaction's output at `vout`.
    ///
    /// # Panics
    ///
    /// Panics if `vout` is out of range.
    pub fn outpoint(&self, vout: u32) -> OutPoint {
        assert!(
            (vout as usize) < self.outputs.len(),
            "vout {vout} out of range ({} outputs)",
            self.outputs.len()
        );
        OutPoint::new(self.id, vout)
    }

    /// Total value of all outputs.
    pub fn output_value(&self) -> Amount {
        self.outputs.iter().map(|o| o.value()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_regular(nonce: u64) -> UtxoTransaction {
        UtxoTransaction::new(
            vec![OutPoint::new(TxId::from_low(1), 0)],
            vec![TxOut::new(Address::from_low(2), Amount::from_sats(10))],
            nonce,
        )
    }

    #[test]
    fn ids_are_content_addressed() {
        assert_eq!(sample_regular(0).id(), sample_regular(0).id());
        assert_ne!(sample_regular(0).id(), sample_regular(1).id());
    }

    #[test]
    fn coinbase_has_no_inputs_and_correct_kind() {
        let cb = UtxoTransaction::coinbase(Address::from_low(1), Amount::COIN, 7);
        assert!(cb.is_coinbase());
        assert!(cb.inputs().is_empty());
        assert_eq!(cb.output_value(), Amount::COIN);
    }

    #[test]
    fn coinbase_and_regular_with_same_outputs_differ() {
        let outputs = vec![TxOut::new(Address::from_low(3), Amount::from_sats(5))];
        let regular = UtxoTransaction::new(Vec::new(), outputs.clone(), 1);
        let coinbase = UtxoTransaction::coinbase(Address::from_low(3), Amount::from_sats(5), 1);
        assert_ne!(regular.id(), coinbase.id());
    }

    #[test]
    fn outpoint_accessor_checks_bounds() {
        let tx = sample_regular(0);
        assert_eq!(tx.outpoint(0).txid(), tx.id());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn outpoint_out_of_range_panics() {
        sample_regular(0).outpoint(5);
    }

    #[test]
    fn output_value_sums_all_outputs() {
        let tx = UtxoTransaction::new(
            vec![OutPoint::new(TxId::from_low(1), 0)],
            vec![
                TxOut::new(Address::from_low(2), Amount::from_sats(10)),
                TxOut::new(Address::from_low(3), Amount::from_sats(32)),
            ],
            0,
        );
        assert_eq!(tx.output_value().sats(), 42);
    }
}
