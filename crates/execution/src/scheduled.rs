//! The TDG-scheduled group-concurrency engine (Equation 2).

use crate::occ::discover_access_sets;
use crate::thread_pool::{Job, WorkerPool};
use crate::{detect_conflicts, ExecutionEngine, ExecutionReport};
use blockconc_account::{AccountBlock, BlockExecutor, ExecutedBlock, Receipt, WorldState};
use blockconc_graph::UnionFind;
use blockconc_model::lpt_makespan;
use blockconc_telemetry::{SharedClock, WallClock};
use blockconc_types::{Gas, Result};
use std::sync::Arc;
use std::time::Duration;

/// The group-concurrency engine modelled by the paper's Equation (2):
///
/// 1. **Preprocessing** — a parallel speculative pass discovers each transaction's
///    read/write set (this plays the role of building the transaction dependency
///    graph, and corresponds to the preprocessing cost `K` in the paper's refinement
///    of Equation 2).
/// 2. **Grouping** — transactions are partitioned into connected components of the
///    conflict graph with a union–find structure.
/// 3. **Parallel execution** — whole components are scheduled onto the worker threads
///    longest-first (LPT, the classic multiprocessor-scheduling heuristic the paper
///    cites) and executed in parallel; within a component execution is sequential in
///    block order.
///
/// As with the speculative engine, the committed state transition is identical to
/// sequential execution; the parallel phase runs against per-thread snapshots and the
/// final installation is excluded from the reported wall time.
///
/// # Examples
///
/// See the [crate documentation](crate).
#[derive(Debug)]
pub struct ScheduledEngine {
    threads: usize,
    pool: WorkerPool,
    executor: BlockExecutor,
    clock: SharedClock,
}

impl ScheduledEngine {
    /// Creates an engine whose persistent worker pool holds `threads` threads
    /// (spawned once here, reused for every block), timing itself on the
    /// wall clock.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        ScheduledEngine {
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

    /// Groups transaction indices into connected components of the conflict graph.
    fn build_groups(
        &self,
        base: &Arc<WorldState>,
        block: &Arc<AccountBlock>,
    ) -> Result<Vec<Vec<usize>>> {
        let tx_count = block.transaction_count();
        let access_sets = discover_access_sets(&self.pool, self.threads, base, block)?;
        let conflicts = detect_conflicts(&access_sets);
        let mut uf = UnionFind::new(tx_count);
        for &(a, b) in conflicts.edges() {
            uf.union(a, b);
        }
        let mut groups_by_root: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for idx in 0..tx_count {
            groups_by_root.entry(uf.find(idx)).or_default().push(idx);
        }
        let mut groups: Vec<Vec<usize>> = groups_by_root.into_values().collect();
        for group in &mut groups {
            group.sort_unstable();
        }
        groups.sort_by_key(|g| g[0]);
        Ok(groups)
    }

    /// Runs the timed parallel phase: executes each worker's assigned groups on the
    /// pool against per-worker snapshots of the pre-block state. Results are
    /// discarded — the canonical install happens sequentially afterwards.
    fn parallel_phase(
        &self,
        base: &Arc<WorldState>,
        block: &Arc<AccountBlock>,
        groups: &Arc<Vec<Vec<usize>>>,
        assignments: Vec<Vec<usize>>,
    ) -> Result<()> {
        let tasks: Vec<Job> = assignments
            .into_iter()
            .map(|group_ids| {
                let base = Arc::clone(base);
                let block = Arc::clone(block);
                let groups = Arc::clone(groups);
                Box::new(move || {
                    let mut local = WorldState::clone(&base);
                    let mut executor = BlockExecutor::new();
                    for &gid in &group_ids {
                        for &tx_idx in &groups[gid] {
                            let tx = &block.transactions()[tx_idx];
                            let _ = executor.execute_transaction(&mut local, tx);
                        }
                    }
                }) as Job
            })
            .collect();
        self.pool.run_tasks(tasks)
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
        let x = block.transaction_count();
        // Pool jobs are 'static: move the state behind an Arc for the parallel
        // phases and reclaim it afterwards (the jobs only read it).
        let base = Arc::new(std::mem::take(state));
        let shared_block = Arc::new(block.clone());
        let phases: Result<(Vec<Vec<usize>>, Vec<u64>, u64)> = (|| {
            let groups = Arc::new(self.build_groups(&base, &shared_block)?);
            let group_sizes: Vec<u64> = groups.iter().map(|g| g.len() as u64).collect();

            // LPT schedule: assign groups (largest first) to the currently
            // least-loaded worker, then execute each worker's groups in parallel
            // against a snapshot.
            let mut order: Vec<usize> = (0..groups.len()).collect();
            order.sort_by_key(|&g| std::cmp::Reverse(groups[g].len()));
            let mut assignments: Vec<Vec<usize>> =
                vec![Vec::new(); self.threads.min(groups.len()).max(1)];
            let mut loads: Vec<u64> = vec![0; assignments.len()];
            for g in order {
                let (idx, _) = loads
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &load)| load)
                    .expect("at least one worker");
                assignments[idx].push(g);
                loads[idx] += groups[g].len() as u64;
            }

            let parallel_start = self.clock.now_nanos();
            self.parallel_phase(&base, &shared_block, &groups, assignments)?;
            let parallel_wall = self.clock.now_nanos().saturating_sub(parallel_start);
            let groups = Arc::try_unwrap(groups).unwrap_or_else(|arc| (*arc).clone());
            Ok((groups, group_sizes, parallel_wall))
        })();
        drop(shared_block);
        *state = Arc::try_unwrap(base).unwrap_or_else(|arc| WorldState::clone(&arc));
        let (groups, group_sizes, parallel_wall) = phases?;
        let largest_group = group_sizes.iter().copied().max().unwrap_or(0) as usize;
        let conflicted: usize = groups.iter().filter(|g| g.len() > 1).map(|g| g.len()).sum();

        // Install the canonical result (excluded from the reported wall time).
        let mut receipts: Vec<Receipt> = Vec::with_capacity(x);
        for tx in block.transactions() {
            let receipt = match self.executor.execute_transaction(state, tx) {
                Ok(ctx) => ctx.receipt,
                Err(err) => Receipt::failure(tx.id(), Gas::ZERO, err.to_string()),
            };
            receipts.push(receipt);
        }
        let executed = ExecutedBlock::new(block.clone(), receipts);

        let report = ExecutionReport {
            engine: self.name().to_string(),
            threads: self.threads,
            tx_count: x,
            conflicted_transactions: conflicted,
            largest_group,
            sequential_units: x as u64,
            parallel_units: lpt_makespan(&group_sizes, self.threads),
            validations: 0,
            aborts: 0,
            re_executions: 0,
            sequential_fallbacks: 0,
            delta_merges: 0,
            delta_downgrades: 0,
            wall_time: Duration::from_nanos(parallel_wall),
        };
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
