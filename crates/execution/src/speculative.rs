//! The single-transaction-concurrency evaluator (Equation 1).

use crate::occ::discover_access_sets;
use crate::thread_pool::WorkerPool;
use crate::{detect_conflicts, ExecutionEngine, ExecutionReport};
use blockconc_account::{AccountBlock, BlockExecutor, ExecutedBlock, WorldState};
use blockconc_types::Result;

/// The speculative two-phase technique modelled by the paper's Equation (1),
/// evaluated over the sequential commit:
///
/// 1. **Discovery** — every transaction is executed against the pre-block state,
///    spread across worker threads, and leaves only its read/write set behind.
///    Transactions whose sets conflict with another transaction's form the
///    *sequential bin* a two-phase engine would have to re-execute in block order.
/// 2. **Commit** — the block is executed sequentially, in block order. Pre-block
///    access sets are not a sound basis for committing anything out of order (an
///    earlier transaction of the block can flip a later one's branch, and with it
///    the keys it touches), so they decide what is *reported*, never what is
///    committed.
///
/// The report's `parallel_units` is the modelled `⌈x/n⌉ + bin`.
///
/// # Examples
///
/// See the [crate documentation](crate).
#[derive(Debug)]
pub struct SpeculativeEngine {
    pool: WorkerPool,
    executor: BlockExecutor,
}

impl SpeculativeEngine {
    /// Creates an engine whose persistent worker pool holds `threads` threads
    /// (spawned once here, reused for every block).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        SpeculativeEngine {
            pool: WorkerPool::new(threads),
            executor: BlockExecutor::new(),
        }
    }

    /// The number of worker threads.
    pub fn threads(&self) -> usize {
        self.pool.size()
    }
}

impl ExecutionEngine for SpeculativeEngine {
    fn name(&self) -> &'static str {
        "speculative"
    }

    fn execute(
        &mut self,
        state: &mut WorldState,
        block: &AccountBlock,
    ) -> Result<(ExecutedBlock, ExecutionReport)> {
        let conflicts = detect_conflicts(&discover_access_sets(&self.pool, state, block)?);
        let executed = self.executor.execute_block(state, block)?;

        let x = block.transaction_count();
        let bin_size = conflicts.conflicted_count();
        let parallel_units = (x as u64).div_ceil(self.threads() as u64) + bin_size as u64;
        let report = ExecutionReport::new(
            self.name(),
            self.threads(),
            x,
            bin_size,
            bin_size,
            parallel_units,
        );
        Ok((executed, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SequentialEngine;
    use blockconc_account::{AccountTransaction, BlockBuilder};
    use blockconc_types::{Address, Amount};

    fn funded(users: std::ops::Range<u64>) -> WorldState {
        let mut state = WorldState::new();
        for i in users {
            state.credit(Address::from_low(i), Amount::from_coins(10));
        }
        state
    }

    fn independent_block(n: u64) -> AccountBlock {
        let txs = (0..n).map(|i| {
            AccountTransaction::transfer(
                Address::from_low(100 + i),
                Address::from_low(10_000 + i),
                Amount::from_sats(5),
                0,
            )
        });
        BlockBuilder::new(1, 0, Address::from_low(1))
            .transactions(txs)
            .build()
    }

    #[test]
    fn independent_transactions_have_empty_bin() {
        let block = independent_block(32);
        let mut state = funded(100..140);
        let (executed, report) = SpeculativeEngine::new(8)
            .execute(&mut state, &block)
            .unwrap();
        assert_eq!(report.conflicted_transactions, 0);
        assert_eq!(report.parallel_units, 4); // ceil(32/8)
        assert!(report.unit_speedup() > 7.9);
        assert!(executed.receipts().iter().all(|r| r.succeeded()));
    }

    #[test]
    fn shared_receiver_lands_in_the_bin() {
        let exchange = Address::from_low(5_000);
        let mut txs: Vec<_> = (0..10)
            .map(|i| {
                AccountTransaction::transfer(
                    Address::from_low(100 + i),
                    exchange,
                    Amount::from_sats(5),
                    0,
                )
            })
            .collect();
        txs.push(AccountTransaction::transfer(
            Address::from_low(200),
            Address::from_low(201),
            Amount::from_sats(5),
            0,
        ));
        let block = BlockBuilder::new(1, 0, Address::from_low(1))
            .transactions(txs)
            .build();
        let mut state = funded(100..250);
        let (_, report) = SpeculativeEngine::new(4)
            .execute(&mut state, &block)
            .unwrap();
        assert_eq!(report.conflicted_transactions, 10);
        assert!((report.conflict_rate() - 10.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn final_state_matches_sequential_execution() {
        // Mixed workload: same-sender chains, shared receivers, independent transfers.
        let mut txs = Vec::new();
        for i in 0..6u64 {
            txs.push(AccountTransaction::transfer(
                Address::from_low(100 + i),
                Address::from_low(300),
                Amount::from_sats(10 + i),
                0,
            ));
        }
        txs.push(AccountTransaction::transfer(
            Address::from_low(100),
            Address::from_low(400),
            Amount::from_sats(7),
            1,
        ));
        for i in 0..5u64 {
            txs.push(AccountTransaction::transfer(
                Address::from_low(150 + i),
                Address::from_low(500 + i),
                Amount::from_sats(3),
                0,
            ));
        }
        let block = BlockBuilder::new(1, 0, Address::from_low(1))
            .transactions(txs)
            .build();

        let mut seq_state = funded(100..200);
        let mut spec_state = funded(100..200);
        let (seq_block, _) = SequentialEngine::new()
            .execute(&mut seq_state, &block)
            .unwrap();
        let (spec_block, _) = SpeculativeEngine::new(4)
            .execute(&mut spec_state, &block)
            .unwrap();

        assert_eq!(seq_block.receipts(), spec_block.receipts());
        for i in 100..600u64 {
            let addr = Address::from_low(i);
            assert_eq!(
                seq_state.balance(addr),
                spec_state.balance(addr),
                "address {i}"
            );
            assert_eq!(seq_state.nonce(addr), spec_state.nonce(addr));
        }
    }

    #[test]
    fn fully_conflicted_block_degenerates_to_sequential_plus_overhead() {
        let hot = Address::from_low(900);
        let txs = (0..12u64).map(|i| {
            AccountTransaction::transfer(Address::from_low(100 + i), hot, Amount::from_sats(1), 0)
        });
        let block = BlockBuilder::new(1, 0, Address::from_low(1))
            .transactions(txs)
            .build();
        let mut state = funded(100..120);
        let (_, report) = SpeculativeEngine::new(4)
            .execute(&mut state, &block)
            .unwrap();
        assert_eq!(report.conflicted_transactions, 12);
        // ceil(12/4) + 12 = 15 > 12: slower than sequential, as the paper's model predicts.
        assert_eq!(report.parallel_units, 15);
        assert!(report.unit_speedup() < 1.0);
    }

    #[test]
    fn empty_block_is_handled() {
        let block = BlockBuilder::new(1, 0, Address::from_low(1)).build();
        let mut state = WorldState::new();
        let (executed, report) = SpeculativeEngine::new(4)
            .execute(&mut state, &block)
            .unwrap();
        assert_eq!(executed.receipts().len(), 0);
        assert_eq!(report.conflicted_transactions, 0);
    }

    #[test]
    #[should_panic(expected = "thread count")]
    fn zero_threads_panics() {
        let _ = SpeculativeEngine::new(0);
    }
}
