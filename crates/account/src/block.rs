//! Account-model blocks and executed blocks.

use crate::{AccountTransaction, Receipt};
use blockconc_types::{Address, BlockHeight, Gas, Hash, Timestamp};
use std::sync::Arc;

/// A block of an account-based blockchain: an ordered list of transactions plus the
/// beneficiary (miner) address that receives fees.
///
/// The transactions are shared, not owned: cloning a block — as every engine
/// does to pair it with its receipts — copies no transaction.
///
/// # Examples
///
/// ```
/// use blockconc_types::{Address, Amount};
/// use blockconc_account::{AccountTransaction, BlockBuilder};
///
/// let block = BlockBuilder::new(1_000_007, 1_455_404_000, Address::from_low(0xf8b))
///     .transaction(AccountTransaction::transfer(
///         Address::from_low(1), Address::from_low(2), Amount::from_sats(1), 0))
///     .build();
/// assert_eq!(block.transactions().len(), 1);
/// assert_eq!(block.height().value(), 1_000_007);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AccountBlock {
    height: BlockHeight,
    timestamp: Timestamp,
    beneficiary: Address,
    gas_limit: Gas,
    transactions: Arc<[AccountTransaction]>,
}

impl AccountBlock {
    /// Creates a block from ordered transactions.
    pub fn new(
        height: BlockHeight,
        timestamp: Timestamp,
        beneficiary: Address,
        gas_limit: Gas,
        transactions: Vec<AccountTransaction>,
    ) -> Self {
        AccountBlock {
            height,
            timestamp,
            beneficiary,
            gas_limit,
            transactions: transactions.into(),
        }
    }

    /// The block height.
    pub fn height(&self) -> BlockHeight {
        self.height
    }

    /// The block timestamp.
    pub fn timestamp(&self) -> Timestamp {
        self.timestamp
    }

    /// The fee-collecting (miner / validator) address.
    pub fn beneficiary(&self) -> Address {
        self.beneficiary
    }

    /// The block gas limit.
    pub fn gas_limit(&self) -> Gas {
        self.gas_limit
    }

    /// The block's transactions in execution order.
    pub fn transactions(&self) -> &[AccountTransaction] {
        &self.transactions
    }

    /// Number of (regular) transactions.
    pub fn transaction_count(&self) -> usize {
        self.transactions.len()
    }

    /// A content-derived block identifier.
    pub fn block_hash(&self) -> Hash {
        let mut acc = Hash::from_low(self.height.value());
        for tx in self.transactions.iter() {
            acc = acc.combine(&tx.id().hash());
        }
        acc
    }
}

/// Builder for [`AccountBlock`].
#[derive(Debug)]
pub struct BlockBuilder {
    height: BlockHeight,
    timestamp: Timestamp,
    beneficiary: Address,
    gas_limit: Gas,
    transactions: Vec<AccountTransaction>,
}

impl BlockBuilder {
    /// Ethereum-like default block gas limit.
    pub const DEFAULT_GAS_LIMIT: Gas = Gas::new(12_000_000);

    /// Starts a block at `height`/`timestamp` whose fees go to `beneficiary`.
    pub fn new(height: u64, timestamp: u64, beneficiary: Address) -> Self {
        BlockBuilder {
            height: BlockHeight::new(height),
            timestamp: Timestamp::from_unix(timestamp),
            beneficiary,
            gas_limit: Self::DEFAULT_GAS_LIMIT,
            transactions: Vec::new(),
        }
    }

    /// Overrides the block gas limit.
    pub fn gas_limit(mut self, gas_limit: Gas) -> Self {
        self.gas_limit = gas_limit;
        self
    }

    /// Appends one transaction.
    pub fn transaction(mut self, tx: AccountTransaction) -> Self {
        self.transactions.push(tx);
        self
    }

    /// Appends several transactions in order.
    pub fn transactions(mut self, txs: impl IntoIterator<Item = AccountTransaction>) -> Self {
        self.transactions.extend(txs);
        self
    }

    /// Builds the block.
    pub fn build(self) -> AccountBlock {
        AccountBlock::new(
            self.height,
            self.timestamp,
            self.beneficiary,
            self.gas_limit,
            self.transactions,
        )
    }
}

/// A block paired with the receipts produced by executing it — the unit the analysis
/// pipeline consumes, because internal transactions only exist after execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutedBlock {
    block: AccountBlock,
    receipts: Vec<Receipt>,
}

impl ExecutedBlock {
    /// Pairs a block with its receipts.
    ///
    /// # Panics
    ///
    /// Panics if the number of receipts does not match the number of transactions.
    pub fn new(block: AccountBlock, receipts: Vec<Receipt>) -> Self {
        assert_eq!(
            block.transaction_count(),
            receipts.len(),
            "one receipt per transaction required"
        );
        ExecutedBlock { block, receipts }
    }

    /// The underlying block.
    pub fn block(&self) -> &AccountBlock {
        &self.block
    }

    /// The execution receipts, one per transaction, in block order.
    pub fn receipts(&self) -> &[Receipt] {
        &self.receipts
    }

    /// Iterates over `(transaction, receipt)` pairs in block order.
    pub fn iter(&self) -> impl Iterator<Item = (&AccountTransaction, &Receipt)> {
        self.block.transactions().iter().zip(self.receipts.iter())
    }

    /// Total gas used by the block.
    pub fn gas_used(&self) -> Gas {
        self.receipts.iter().map(|r| r.gas_used()).sum()
    }

    /// Total number of internal transactions across all receipts.
    pub fn internal_transaction_count(&self) -> usize {
        self.receipts
            .iter()
            .map(|r| r.internal_transactions().len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockconc_types::{Amount, TxId};

    fn tx(n: u64) -> AccountTransaction {
        AccountTransaction::transfer(
            Address::from_low(n),
            Address::from_low(n + 1),
            Amount::from_sats(1),
            0,
        )
    }

    #[test]
    fn builder_accumulates_transactions_in_order() {
        let block = BlockBuilder::new(10, 1_600_000_000, Address::from_low(99))
            .transaction(tx(1))
            .transactions(vec![tx(2), tx(3)])
            .build();
        assert_eq!(block.transaction_count(), 3);
        assert_eq!(block.transactions()[2].sender(), Address::from_low(3));
        assert_eq!(block.beneficiary(), Address::from_low(99));
        assert_eq!(block.gas_limit(), BlockBuilder::DEFAULT_GAS_LIMIT);
    }

    #[test]
    fn block_hash_reflects_content() {
        let a = BlockBuilder::new(10, 0, Address::from_low(1))
            .transaction(tx(1))
            .build();
        let b = BlockBuilder::new(10, 0, Address::from_low(1))
            .transaction(tx(2))
            .build();
        assert_ne!(a.block_hash(), b.block_hash());
    }

    #[test]
    fn executed_block_aggregates() {
        let block = BlockBuilder::new(10, 0, Address::from_low(1))
            .transaction(tx(1))
            .transaction(tx(2))
            .build();
        let receipts = vec![
            Receipt::success(TxId::from_low(1), Gas::new(21_000), vec![], vec![]),
            Receipt::failure(TxId::from_low(2), Gas::new(30_000), "revert"),
        ];
        let executed = ExecutedBlock::new(block, receipts);
        assert_eq!(executed.gas_used(), Gas::new(51_000));
        assert_eq!(executed.internal_transaction_count(), 0);
        assert_eq!(executed.iter().count(), 2);
    }

    #[test]
    #[should_panic(expected = "one receipt per transaction")]
    fn executed_block_requires_matching_receipts() {
        let block = BlockBuilder::new(10, 0, Address::from_low(1))
            .transaction(tx(1))
            .build();
        let _ = ExecutedBlock::new(block, vec![]);
    }
}
