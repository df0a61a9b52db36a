//! The sequential baseline engine.

use crate::{ExecutionEngine, ExecutionReport};
use blockconc_account::{AccountBlock, BlockExecutor, ExecutedBlock, WorldState};
use blockconc_telemetry::{SharedClock, WallClock};
use blockconc_types::Result;
use std::time::Duration;

/// Executes transactions one at a time in block order — exactly what the clients of
/// the studied blockchains do today, and the baseline every speed-up is measured
/// against.
///
/// # Examples
///
/// See the [crate documentation](crate).
#[derive(Debug)]
pub struct SequentialEngine {
    executor: BlockExecutor,
    clock: SharedClock,
}

impl Default for SequentialEngine {
    fn default() -> Self {
        SequentialEngine::new()
    }
}

impl SequentialEngine {
    /// Creates a sequential engine timing itself on the wall clock.
    pub fn new() -> Self {
        SequentialEngine {
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
}

impl ExecutionEngine for SequentialEngine {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn execute(
        &mut self,
        state: &mut WorldState,
        block: &AccountBlock,
    ) -> Result<(ExecutedBlock, ExecutionReport)> {
        let start = self.clock.now_nanos();
        let executed = self.executor.execute_block(state, block)?;
        let elapsed = Duration::from_nanos(self.clock.now_nanos().saturating_sub(start));
        let x = block.transaction_count() as u64;
        let report = ExecutionReport {
            engine: self.name().to_string(),
            threads: 1,
            tx_count: block.transaction_count(),
            conflicted_transactions: 0,
            largest_group: 0,
            sequential_units: x,
            parallel_units: x,
            validations: 0,
            aborts: 0,
            re_executions: 0,
            sequential_fallbacks: 0,
            delta_merges: 0,
            delta_downgrades: 0,
            wall_time: elapsed,
        };
        Ok((executed, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockconc_account::{AccountTransaction, BlockBuilder};
    use blockconc_types::{Address, Amount};

    #[test]
    fn sequential_engine_matches_block_executor() {
        let mut state = WorldState::new();
        state.credit(Address::from_low(1), Amount::from_coins(5));
        let block = BlockBuilder::new(1, 0, Address::from_low(9))
            .transaction(AccountTransaction::transfer(
                Address::from_low(1),
                Address::from_low(2),
                Amount::from_coins(1),
                0,
            ))
            .build();
        let (executed, report) = SequentialEngine::new().execute(&mut state, &block).unwrap();
        assert_eq!(executed.receipts().len(), 1);
        assert!(executed.receipts()[0].succeeded());
        assert_eq!(report.engine, "sequential");
        assert_eq!(report.sequential_units, 1);
        assert!((report.unit_speedup() - 1.0).abs() < 1e-12);
        assert_eq!(state.balance(Address::from_low(2)), Amount::from_coins(1));
    }

    #[test]
    fn mock_clock_makes_wall_time_deterministic() {
        use blockconc_telemetry::MockClock;
        let mut state = WorldState::new();
        state.credit(Address::from_low(1), Amount::from_coins(5));
        let block = BlockBuilder::new(1, 0, Address::from_low(9))
            .transaction(AccountTransaction::transfer(
                Address::from_low(1),
                Address::from_low(2),
                Amount::from_coins(1),
                0,
            ))
            .build();
        // Two clock reads (start, end) at step 7 → exactly 7ns, every run.
        let mut engine = SequentialEngine::new().with_clock(MockClock::shared(7));
        let (_, report) = engine.execute(&mut state, &block).unwrap();
        assert_eq!(report.wall_time, Duration::from_nanos(7));
    }
}
