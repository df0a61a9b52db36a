//! Per-block concurrency metrics.

use blockconc_types::{BlockHeight, Gas, Timestamp};

/// The per-block quantities the paper's analysis extracts from every block: transaction
/// counts, conflict counts, the largest-connected-component (LCC) size and gas usage.
///
/// A transaction is *conflicted* when it shares a connected component of the TDG with
/// at least one other transaction; the *LCC size* is measured in transactions.
/// Coinbase transactions are excluded throughout, as in the paper.
///
/// # Examples
///
/// ```
/// use blockconc_graph::BlockMetrics;
///
/// // Ethereum block 1000007 of the paper: 5 transactions, 2 conflicted, LCC of 2.
/// let m = BlockMetrics::new(1_000_007, 0, 5, 2, 2, 4);
/// assert!((m.single_tx_conflict_rate() - 0.4).abs() < 1e-12);
/// assert!((m.group_conflict_rate() - 0.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockMetrics {
    height: BlockHeight,
    timestamp: Timestamp,
    tx_count: usize,
    conflicted_count: usize,
    lcc_size: usize,
    component_count: usize,
    input_count: usize,
    internal_tx_count: usize,
    gas_used: Gas,
    gas_conflicted: Gas,
}

impl BlockMetrics {
    /// Creates metrics from the core counts. Auxiliary quantities (inputs, internal
    /// transactions, gas) default to zero and can be filled in with the `with_*`
    /// builder methods.
    ///
    /// # Panics
    ///
    /// Panics if `conflicted_count` or `lcc_size` exceeds `tx_count`, or if
    /// `lcc_size == 1` is reported as conflicted-free inconsistently (`lcc_size` must
    /// be 0 when `tx_count` is 0).
    pub fn new(
        height: u64,
        timestamp: u64,
        tx_count: usize,
        conflicted_count: usize,
        lcc_size: usize,
        component_count: usize,
    ) -> Self {
        assert!(
            conflicted_count <= tx_count,
            "conflicted ({conflicted_count}) exceeds total ({tx_count})"
        );
        assert!(
            lcc_size <= tx_count,
            "LCC size ({lcc_size}) exceeds total ({tx_count})"
        );
        BlockMetrics {
            height: BlockHeight::new(height),
            timestamp: Timestamp::from_unix(timestamp),
            tx_count,
            conflicted_count,
            lcc_size,
            component_count,
            input_count: 0,
            internal_tx_count: 0,
            gas_used: Gas::ZERO,
            gas_conflicted: Gas::ZERO,
        }
    }

    /// Sets the number of input TXOs (UTXO chains; the paper's Fig. 5a series).
    pub fn with_input_count(mut self, input_count: usize) -> Self {
        self.input_count = input_count;
        self
    }

    /// Sets the number of internal transactions (account chains; Fig. 4a "all TXs").
    pub fn with_internal_tx_count(mut self, internal_tx_count: usize) -> Self {
        self.internal_tx_count = internal_tx_count;
        self
    }

    /// Sets gas totals: all gas used by the block and the share used by conflicted
    /// transactions.
    pub fn with_gas(mut self, gas_used: Gas, gas_conflicted: Gas) -> Self {
        self.gas_used = gas_used;
        self.gas_conflicted = gas_conflicted;
        self
    }

    /// The block height.
    pub fn height(&self) -> BlockHeight {
        self.height
    }

    /// The block timestamp.
    pub fn timestamp(&self) -> Timestamp {
        self.timestamp
    }

    /// Number of (non-coinbase) transactions in the block.
    pub fn tx_count(&self) -> usize {
        self.tx_count
    }

    /// Number of conflicted transactions.
    pub fn conflicted_count(&self) -> usize {
        self.conflicted_count
    }

    /// Size of the largest connected component, in transactions.
    pub fn lcc_size(&self) -> usize {
        self.lcc_size
    }

    /// Number of connected components (among transactions).
    pub fn component_count(&self) -> usize {
        self.component_count
    }

    /// Number of input TXOs (zero for account-model blocks).
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// Number of internal transactions (zero for UTXO-model blocks).
    pub fn internal_tx_count(&self) -> usize {
        self.internal_tx_count
    }

    /// Total number of transactions including internal ones.
    pub fn total_tx_count(&self) -> usize {
        self.tx_count + self.internal_tx_count
    }

    /// Total gas used by the block.
    pub fn gas_used(&self) -> Gas {
        self.gas_used
    }

    /// Gas used by conflicted transactions.
    pub fn gas_conflicted(&self) -> Gas {
        self.gas_conflicted
    }

    /// The single-transaction conflict rate `c`: conflicted / total (0 for empty blocks).
    pub fn single_tx_conflict_rate(&self) -> f64 {
        if self.tx_count == 0 {
            0.0
        } else {
            self.conflicted_count as f64 / self.tx_count as f64
        }
    }

    /// The group conflict rate `l`: LCC size / total (0 for empty blocks).
    pub fn group_conflict_rate(&self) -> f64 {
        if self.tx_count == 0 {
            0.0
        } else {
            self.lcc_size as f64 / self.tx_count as f64
        }
    }

    /// The gas-share conflict rate: gas used by conflicted transactions / total gas
    /// (0 when no gas was recorded).
    pub fn gas_conflict_share(&self) -> f64 {
        if self.gas_used.is_zero() {
            0.0
        } else {
            self.gas_conflicted.as_f64() / self.gas_used.as_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_for_paper_block_1000007() {
        let m = BlockMetrics::new(1_000_007, 0, 5, 2, 2, 4);
        assert!((m.single_tx_conflict_rate() - 0.4).abs() < 1e-12);
        assert!((m.group_conflict_rate() - 0.4).abs() < 1e-12);
        assert_eq!(m.component_count(), 4);
    }

    #[test]
    fn rates_for_paper_block_1000124() {
        // 16 transactions, 14 conflicted, LCC of 9 -> 87.5% and 56.25%.
        let m = BlockMetrics::new(1_000_124, 0, 16, 14, 9, 5);
        assert!((m.single_tx_conflict_rate() - 0.875).abs() < 1e-12);
        assert!((m.group_conflict_rate() - 0.5625).abs() < 1e-12);
    }

    #[test]
    fn empty_block_rates_are_zero() {
        let m = BlockMetrics::new(1, 0, 0, 0, 0, 0);
        assert_eq!(m.single_tx_conflict_rate(), 0.0);
        assert_eq!(m.group_conflict_rate(), 0.0);
        assert_eq!(m.gas_conflict_share(), 0.0);
    }

    #[test]
    fn group_rate_never_exceeds_single_rate() {
        // By definition every transaction in the LCC is conflicted (when LCC >= 2).
        let m = BlockMetrics::new(1, 0, 10, 6, 4, 5);
        assert!(m.group_conflict_rate() <= m.single_tx_conflict_rate());
    }

    #[test]
    fn gas_share() {
        let m = BlockMetrics::new(1, 0, 4, 2, 2, 3).with_gas(Gas::new(100_000), Gas::new(25_000));
        assert!((m.gas_conflict_share() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exceeds total")]
    fn inconsistent_counts_panic() {
        let _ = BlockMetrics::new(1, 0, 3, 5, 1, 1);
    }

    #[test]
    fn auxiliary_builders() {
        let m = BlockMetrics::new(1, 0, 3, 0, 1, 3)
            .with_input_count(7)
            .with_internal_tx_count(4);
        assert_eq!(m.input_count(), 7);
        assert_eq!(m.internal_tx_count(), 4);
        assert_eq!(m.total_tx_count(), 7);
    }
}
