//! UTXO blocks.

use crate::{validate_block, UtxoSet, UtxoTransaction};
use blockconc_types::{BlockHeight, Hash, Result, Timestamp};

/// A block of a UTXO-based blockchain: an ordered list of transactions plus the
/// metadata the analysis pipeline needs (height and timestamp).
///
/// The transaction order matters: a transaction may spend an output created by an
/// *earlier* transaction in the same block (this is precisely what produces dependency
/// edges in the paper's TDG), but never by a later one.
///
/// # Examples
///
/// ```
/// use blockconc_types::{Address, Amount};
/// use blockconc_utxo::{BlockBuilder, UtxoSet};
///
/// let block = BlockBuilder::new(0, 1_231_006_505)
///     .coinbase(Address::from_low(1), Amount::from_coins(50))
///     .build();
/// assert_eq!(block.transactions().len(), 1);
/// assert_eq!(block.regular_transactions().count(), 0);
/// block.validate(&UtxoSet::new()).unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UtxoBlock {
    height: BlockHeight,
    timestamp: Timestamp,
    transactions: Vec<UtxoTransaction>,
}

impl UtxoBlock {
    /// Creates a block from already-ordered transactions.
    pub fn new(
        height: BlockHeight,
        timestamp: Timestamp,
        transactions: Vec<UtxoTransaction>,
    ) -> Self {
        UtxoBlock {
            height,
            timestamp,
            transactions,
        }
    }

    /// The block's height.
    pub fn height(&self) -> BlockHeight {
        self.height
    }

    /// The block's timestamp.
    pub fn timestamp(&self) -> Timestamp {
        self.timestamp
    }

    /// All transactions, including the coinbase, in block order.
    pub fn transactions(&self) -> &[UtxoTransaction] {
        &self.transactions
    }

    /// Iterates over non-coinbase transactions in block order.
    pub fn regular_transactions(&self) -> impl Iterator<Item = &UtxoTransaction> {
        self.transactions.iter().filter(|tx| !tx.is_coinbase())
    }

    /// Number of non-coinbase transactions.
    pub fn regular_count(&self) -> usize {
        self.regular_transactions().count()
    }

    /// Total number of inputs across regular transactions (the paper's "input TXOs per
    /// block" series in Fig. 5a).
    pub fn input_count(&self) -> usize {
        self.regular_transactions()
            .map(|tx| tx.inputs().len())
            .sum()
    }

    /// A content-derived identifier for the block.
    pub fn block_hash(&self) -> Hash {
        let mut acc = Hash::from_low(self.height.value());
        for tx in &self.transactions {
            acc = acc.combine(&tx.id().hash());
        }
        acc
    }

    /// Validates the block against `utxo_set` (see [`validate_block`]).
    ///
    /// # Errors
    ///
    /// Returns the first validation error encountered.
    pub fn validate(&self, utxo_set: &UtxoSet) -> Result<()> {
        validate_block(self, utxo_set)
    }

    /// Applies all transactions to `utxo_set` in block order.
    ///
    /// # Errors
    ///
    /// Returns an error if any transaction's inputs are missing; transactions before
    /// the failing one remain applied (callers wanting atomicity should validate first).
    pub fn apply(&self, utxo_set: &mut UtxoSet) -> Result<()> {
        for tx in &self.transactions {
            utxo_set.apply_transaction(tx)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockBuilder, TransactionBuilder};
    use blockconc_types::{Address, Amount};

    #[test]
    fn counts_distinguish_coinbase() {
        let cb_addr = Address::from_low(1);
        let mut set = UtxoSet::new();
        let funding = TransactionBuilder::coinbase(cb_addr, Amount::from_coins(50), 99);
        set.apply_transaction(&funding).unwrap();

        let spend = TransactionBuilder::new()
            .input(funding.outpoint(0))
            .output(Address::from_low(2), Amount::from_coins(50))
            .build();
        let block = BlockBuilder::new(1, 0)
            .coinbase(cb_addr, Amount::from_coins(50))
            .transaction(spend)
            .build();
        assert_eq!(block.transactions().len(), 2);
        assert_eq!(block.regular_count(), 1);
        assert_eq!(block.input_count(), 1);
    }

    #[test]
    fn block_hash_changes_with_content() {
        let a = BlockBuilder::new(1, 0)
            .coinbase(Address::from_low(1), Amount::from_coins(50))
            .build();
        let b = BlockBuilder::new(1, 0)
            .coinbase(Address::from_low(2), Amount::from_coins(50))
            .build();
        assert_ne!(a.block_hash(), b.block_hash());
    }

    #[test]
    fn apply_threads_state_through_block_order() {
        let miner = Address::from_low(1);
        let mut set = UtxoSet::new();
        let funding = TransactionBuilder::coinbase(miner, Amount::from_coins(10), 7);
        set.apply_transaction(&funding).unwrap();

        // tx1 spends funding, tx2 spends tx1's output: an intra-block chain.
        let tx1 = TransactionBuilder::new()
            .input(funding.outpoint(0))
            .output(Address::from_low(2), Amount::from_coins(10))
            .build();
        let tx2 = TransactionBuilder::new()
            .input(tx1.outpoint(0))
            .output(Address::from_low(3), Amount::from_coins(10))
            .build();
        let block = BlockBuilder::new(1, 0)
            .coinbase(miner, Amount::from_coins(50))
            .transaction(tx1)
            .transaction(tx2.clone())
            .build();
        block.validate(&set).unwrap();
        block.apply(&mut set).unwrap();
        assert!(set.contains(&tx2.outpoint(0)));
    }
}
