//! The group-concurrency evaluator (Equation 2).

use crate::occ::discover_access_sets;
use crate::thread_pool::WorkerPool;
use crate::{detect_conflicts, ExecutionEngine, ExecutionReport};
use blockconc_account::{AccountBlock, BlockExecutor, ExecutedBlock, WorldState};
use blockconc_graph::UnionFind;
use blockconc_model::lpt_makespan;
use blockconc_types::Result;

/// The group-concurrency technique modelled by the paper's Equation (2),
/// evaluated over the sequential commit:
///
/// 1. **Preprocessing** — a parallel discovery pass records each transaction's
///    read/write set against the pre-block state (this plays the role of building
///    the transaction dependency graph, and corresponds to the preprocessing cost
///    `K` in the paper's refinement of Equation 2).
/// 2. **Grouping** — transactions are partitioned into connected components of the
///    conflict graph with a union–find structure.
/// 3. **Commit** — the block is executed sequentially, in block order; as in
///    [`SpeculativeEngine`](crate::SpeculativeEngine), the discovered structure
///    decides what is reported, never what is committed.
///
/// The report's `parallel_units` is the makespan of scheduling whole components
/// onto the worker threads longest-first (LPT, the classic
/// multiprocessor-scheduling heuristic the paper cites), each component
/// internally sequential.
///
/// # Examples
///
/// See the [crate documentation](crate).
#[derive(Debug)]
pub struct ScheduledEngine {
    pool: WorkerPool,
    executor: BlockExecutor,
}

impl ScheduledEngine {
    /// Creates an engine whose persistent worker pool holds `threads` threads
    /// (spawned once here, reused for every block).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        ScheduledEngine {
            pool: WorkerPool::new(threads),
            executor: BlockExecutor::new(),
        }
    }

    /// The number of worker threads.
    pub fn threads(&self) -> usize {
        self.pool.size()
    }
}

impl ExecutionEngine for ScheduledEngine {
    fn name(&self) -> &'static str {
        "scheduled"
    }

    fn execute(
        &mut self,
        state: &mut WorldState,
        block: &AccountBlock,
    ) -> Result<(ExecutedBlock, ExecutionReport)> {
        let conflicts = detect_conflicts(&discover_access_sets(&self.pool, state, block)?);
        let executed = self.executor.execute_block(state, block)?;

        let x = block.transaction_count();
        let mut components = UnionFind::new(x);
        for &(a, b) in conflicts.edges() {
            components.union(a, b);
        }
        let group_sizes: Vec<u64> = components
            .component_sizes()
            .into_iter()
            .map(|size| size as u64)
            .collect();
        let report = ExecutionReport::new(
            self.name(),
            self.threads(),
            x,
            group_sizes.iter().filter(|&&size| size > 1).sum::<u64>() as usize,
            group_sizes.iter().copied().max().unwrap_or(0) as usize,
            lpt_makespan(&group_sizes, self.threads()),
        );
        Ok((executed, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SequentialEngine;
    use blockconc_account::{AccountTransaction, BlockBuilder};
    use blockconc_model::group_speedup;
    use blockconc_types::{Address, Amount};

    fn funded(range: std::ops::Range<u64>) -> WorldState {
        let mut state = WorldState::new();
        for i in range {
            state.credit(Address::from_low(i), Amount::from_coins(10));
        }
        state
    }

    /// A block mimicking the paper's Fig. 1b structure: one group of 9 deposits to an
    /// exchange, one group of 3 contract-style transfers to a shared address, a
    /// two-transaction sender chain, and two independent transfers.
    fn figure1b_like_block() -> AccountBlock {
        let exchange = Address::from_low(700);
        let contract = Address::from_low(701);
        let mut txs = Vec::new();
        for i in 0..9u64 {
            txs.push(AccountTransaction::transfer(
                Address::from_low(100 + i),
                exchange,
                Amount::from_sats(1),
                0,
            ));
        }
        for i in 0..3u64 {
            txs.push(AccountTransaction::transfer(
                Address::from_low(200 + i),
                contract,
                Amount::from_sats(1),
                0,
            ));
        }
        txs.push(AccountTransaction::transfer(
            Address::from_low(300),
            Address::from_low(301),
            Amount::from_sats(1),
            0,
        ));
        txs.push(AccountTransaction::transfer(
            Address::from_low(300),
            Address::from_low(302),
            Amount::from_sats(1),
            1,
        ));
        txs.push(AccountTransaction::transfer(
            Address::from_low(400),
            Address::from_low(401),
            Amount::from_sats(1),
            0,
        ));
        txs.push(AccountTransaction::transfer(
            Address::from_low(500),
            Address::from_low(501),
            Amount::from_sats(1),
            0,
        ));
        BlockBuilder::new(1_000_124, 0, Address::from_low(1))
            .transactions(txs)
            .build()
    }

    #[test]
    fn groups_match_expected_structure() {
        let block = figure1b_like_block();
        let mut state = funded(100..600);
        let (_, report) = ScheduledEngine::new(8).execute(&mut state, &block).unwrap();
        assert_eq!(report.tx_count, 16);
        assert_eq!(report.largest_group, 9);
        assert_eq!(report.conflicted_transactions, 14);
        assert!((report.group_conflict_rate() - 0.5625).abs() < 1e-9);
        assert!((report.conflict_rate() - 0.875).abs() < 1e-9);
    }

    #[test]
    fn unit_speedup_respects_equation_two_bound() {
        let block = figure1b_like_block();
        for threads in [1usize, 2, 4, 8] {
            let mut state = funded(100..600);
            let (_, report) = ScheduledEngine::new(threads)
                .execute(&mut state, &block)
                .unwrap();
            let bound = group_speedup(report.group_conflict_rate(), threads);
            assert!(
                report.unit_speedup() <= bound + 1e-9,
                "threads {threads}: {} > {bound}",
                report.unit_speedup()
            );
        }
    }

    #[test]
    fn final_state_matches_sequential_execution() {
        let block = figure1b_like_block();
        let mut seq_state = funded(100..600);
        let mut sched_state = funded(100..600);
        let (seq_block, _) = SequentialEngine::new()
            .execute(&mut seq_state, &block)
            .unwrap();
        let (sched_block, _) = ScheduledEngine::new(4)
            .execute(&mut sched_state, &block)
            .unwrap();
        assert_eq!(seq_block.receipts(), sched_block.receipts());
        for i in 100..800u64 {
            let addr = Address::from_low(i);
            assert_eq!(
                seq_state.balance(addr),
                sched_state.balance(addr),
                "address {i}"
            );
        }
    }

    #[test]
    fn independent_transactions_scale_with_threads() {
        let txs = (0..32u64).map(|i| {
            AccountTransaction::transfer(
                Address::from_low(100 + i),
                Address::from_low(1_000 + i),
                Amount::from_sats(1),
                0,
            )
        });
        let block = BlockBuilder::new(1, 0, Address::from_low(1))
            .transactions(txs)
            .build();
        let mut state = funded(100..140);
        let (_, report) = ScheduledEngine::new(8).execute(&mut state, &block).unwrap();
        assert_eq!(report.largest_group, 1);
        assert_eq!(report.parallel_units, 4); // 32 singleton groups over 8 threads
        assert!((report.unit_speedup() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn empty_block_is_handled() {
        let block = BlockBuilder::new(1, 0, Address::from_low(1)).build();
        let mut state = WorldState::new();
        let (executed, report) = ScheduledEngine::new(4).execute(&mut state, &block).unwrap();
        assert_eq!(executed.receipts().len(), 0);
        assert_eq!(report.parallel_units, 0);
    }
}
