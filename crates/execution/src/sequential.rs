//! The sequential baseline engine.

use crate::{ExecutionEngine, ExecutionReport};
use blockconc_account::{AccountBlock, BlockExecutor, ExecutedBlock, WorldState};
use blockconc_types::Result;

/// Executes transactions one at a time in block order — exactly what the clients of
/// the studied blockchains do today, and the baseline every speed-up is measured
/// against.
///
/// # Examples
///
/// See the [crate documentation](crate).
#[derive(Debug, Default)]
pub struct SequentialEngine {
    executor: BlockExecutor,
}

impl SequentialEngine {
    /// Creates a sequential engine.
    pub fn new() -> Self {
        SequentialEngine::default()
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
        let executed = self.executor.execute_block(state, block)?;
        let x = block.transaction_count();
        Ok((
            executed,
            ExecutionReport::new(self.name(), 1, x, 0, 0, x as u64),
        ))
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
}
