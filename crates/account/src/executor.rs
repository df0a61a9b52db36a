//! Sequential block execution.

use crate::vm::{CallParams, Interpreter};
use crate::{AccessSet, Journal, StateAccess, StateKey};
use crate::{AccountBlock, AccountTransaction, ExecutedBlock, Receipt, TxPayload};
use blockconc_types::{Error, Result};

/// Per-transaction execution context, returned alongside the receipt so that callers
/// (in particular the parallel execution engines of `blockconc-execution`) can reason
/// about what the transaction touched and undo it if necessary.
#[derive(Debug)]
pub struct TxContext {
    /// The receipt of the execution.
    pub receipt: Receipt,
    /// Keys read and written while executing.
    pub access: AccessSet,
    /// Undo journal for all state mutations the transaction committed.
    pub journal: Journal,
}

/// The reference sequential executor: executes a block's transactions one at a time,
/// in block order, exactly like the client software of the chains the paper studies.
///
/// # Examples
///
/// See the [crate documentation](crate).
#[derive(Debug, Default)]
pub struct BlockExecutor {
    interpreter: Interpreter,
}

impl BlockExecutor {
    /// Creates an executor with the default gas schedule.
    pub fn new() -> Self {
        BlockExecutor::default()
    }

    /// Creates an executor that records commutative credits and `SAdd`
    /// increments as *delta* accesses instead of ordered read/write pairs.
    ///
    /// Receipts, state changes and gas are bit-identical to the classic
    /// executor; only the [`AccessSet`] classification (and the blind-delta
    /// journal entries backing it) differ. Used by the delta-cell granularity
    /// of the optimistic engine: only a [`ScratchState`](crate::ScratchState)
    /// accumulates blind deltas, so on a [`WorldState`](crate::WorldState) the
    /// receiver side is recorded as a precise write instead.
    pub fn with_delta_accesses() -> Self {
        BlockExecutor {
            interpreter: Interpreter::new().with_delta_accesses(),
        }
    }

    /// Executes a single transaction against `state`, committing its effects.
    ///
    /// The returned [`TxContext`] carries the receipt, the access set and the undo
    /// journal (which allows the caller to revert the committed transaction later).
    ///
    /// Failed transactions (revert / out of gas) still consume gas and bump the
    /// sender's nonce but leave no other state changes behind.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Validation`] if the transaction's nonce does not match the
    /// sender's account nonce, or an error from the value transfer if the sender cannot
    /// cover the transferred value. In both cases the state is unchanged.
    pub fn execute_transaction<S: StateAccess>(
        &mut self,
        state: &mut S,
        tx: &AccountTransaction,
    ) -> Result<TxContext> {
        let mut journal = Journal::new();
        let mut access = AccessSet::new();

        let expected_nonce = state.nonce(tx.sender());
        if tx.nonce() != expected_nonce {
            return Err(Error::validation(format!(
                "transaction {} has nonce {}, sender {} expects {}",
                tx.id(),
                tx.nonce(),
                tx.sender(),
                expected_nonce
            )));
        }

        // Nonce bump and sender-balance access are part of every transaction.
        access.record_write(StateKey::Balance(tx.sender()));
        state.bump_nonce(tx.sender(), Some(&mut journal));

        let schedule = self.interpreter.schedule().clone();
        let intrinsic = if tx.is_contract_creation() {
            schedule.creation_cost()
        } else {
            schedule.intrinsic_tx_cost()
        };
        if tx.gas_limit() < intrinsic {
            // Gas limit cannot even cover the intrinsic cost: the transaction fails,
            // consuming its entire gas limit.
            let receipt = Receipt::failure(tx.id(), tx.gas_limit(), "intrinsic gas too low");
            return Ok(TxContext {
                receipt,
                access,
                journal,
            });
        }
        let execution_gas = tx.gas_limit() - intrinsic;

        let receipt = match tx.payload() {
            TxPayload::Transfer | TxPayload::ContractCall { .. } => {
                let args = match tx.payload() {
                    TxPayload::ContractCall { args } => args.clone(),
                    _ => Vec::new(),
                };
                if !self.interpreter.delta_accesses() {
                    // Classic mode pre-declares the receiver balance write; in
                    // delta mode the interpreter records the receiver side
                    // precisely (delta for blind credits, write otherwise).
                    access.record_write(StateKey::Balance(tx.receiver()));
                }
                let outcome = self.interpreter.call_tracked(
                    state,
                    CallParams {
                        caller: tx.sender(),
                        target: tx.receiver(),
                        value: tx.value(),
                        args,
                        gas_limit: execution_gas,
                    },
                    &mut journal,
                    &mut access,
                );
                match outcome {
                    Ok(outcome) => {
                        let gas_used = intrinsic + outcome.gas_used;
                        if outcome.success {
                            Receipt::success(
                                tx.id(),
                                gas_used,
                                outcome.internal_transactions,
                                outcome.logs,
                            )
                        } else {
                            Receipt::failure(
                                tx.id(),
                                gas_used,
                                outcome.failure.unwrap_or_else(|| "failed".to_string()),
                            )
                        }
                    }
                    Err(err) => {
                        // Fatal errors (sender cannot fund the transfer) invalidate the
                        // transaction: roll back the nonce bump and report the error.
                        state.revert_to(&mut journal, 0);
                        return Err(err);
                    }
                }
            }
            TxPayload::ContractCreate { code } => {
                let deploy_addr = code.deployment_address(tx.sender(), tx.nonce());
                access.record_write(StateKey::Balance(deploy_addr));
                access.record_write(StateKey::Code(deploy_addr));
                state.deploy_contract(deploy_addr, code.clone());
                Receipt::success(tx.id(), intrinsic, Vec::new(), Vec::new())
            }
        };

        Ok(TxContext {
            receipt,
            access,
            journal,
        })
    }

    /// Executes every transaction of `block` in order against `state`.
    ///
    /// Transactions that fail validation (bad nonce, unfunded transfer) are recorded as
    /// failed receipts consuming zero gas, mirroring how a simulator-produced block may
    /// contain transactions invalidated by earlier ones; the block as a whole still
    /// executes.
    ///
    /// # Errors
    ///
    /// Currently never returns an error (the signature leaves room for stricter
    /// validation modes).
    pub fn execute_block<S: StateAccess>(
        &mut self,
        state: &mut S,
        block: &AccountBlock,
    ) -> Result<ExecutedBlock> {
        let mut receipts = Vec::with_capacity(block.transaction_count());
        for tx in block.transactions() {
            match self.execute_transaction(state, tx) {
                Ok(ctx) => receipts.push(ctx.receipt),
                Err(err) => receipts.push(Receipt::failure(
                    tx.id(),
                    blockconc_types::Gas::ZERO,
                    err.to_string(),
                )),
            }
        }
        Ok(ExecutedBlock::new(block.clone(), receipts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::tests::{commit_harvest, MapCells};
    use crate::vm::Contract;
    use crate::{BlockBuilder, ScratchState, WorldState};
    use blockconc_types::{Address, Amount, Gas};
    use std::sync::Arc;

    fn funded_state(users: u64) -> WorldState {
        let mut state = WorldState::new();
        for i in 1..=users {
            state.credit(Address::from_low(i), Amount::from_coins(100));
        }
        state
    }

    #[test]
    fn simple_transfer_moves_value_and_charges_intrinsic_gas() {
        let mut state = funded_state(2);
        let tx = AccountTransaction::transfer(
            Address::from_low(1),
            Address::from_low(2),
            Amount::from_coins(1),
            0,
        );
        let ctx = BlockExecutor::new()
            .execute_transaction(&mut state, &tx)
            .unwrap();
        assert!(ctx.receipt.succeeded());
        assert_eq!(ctx.receipt.gas_used(), Gas::BASE_TX);
        assert_eq!(state.balance(Address::from_low(2)), Amount::from_coins(101));
        assert_eq!(state.nonce(Address::from_low(1)), 1);
    }

    #[test]
    fn wrong_nonce_is_rejected_without_state_change() {
        let mut state = funded_state(2);
        let tx = AccountTransaction::transfer(
            Address::from_low(1),
            Address::from_low(2),
            Amount::from_coins(1),
            5,
        );
        assert!(BlockExecutor::new()
            .execute_transaction(&mut state, &tx)
            .is_err());
        assert_eq!(state.nonce(Address::from_low(1)), 0);
        assert_eq!(state.balance(Address::from_low(2)), Amount::from_coins(100));
    }

    #[test]
    fn unfunded_transfer_is_rejected_and_nonce_rolled_back() {
        let mut state = funded_state(1);
        let pauper = Address::from_low(50);
        let tx =
            AccountTransaction::transfer(pauper, Address::from_low(1), Amount::from_coins(1), 0);
        assert!(BlockExecutor::new()
            .execute_transaction(&mut state, &tx)
            .is_err());
        assert_eq!(state.nonce(pauper), 0);
    }

    #[test]
    fn contract_call_produces_internal_transactions_in_receipt() {
        let mut state = funded_state(1);
        let sink = Address::from_low(400);
        let fwd = Address::from_low(500);
        state.deploy_contract(fwd, Arc::new(Contract::forwarder(sink)));

        let tx = AccountTransaction::contract_call(
            Address::from_low(1),
            fwd,
            Amount::from_sats(777),
            vec![],
            0,
        );
        let ctx = BlockExecutor::new()
            .execute_transaction(&mut state, &tx)
            .unwrap();
        assert!(ctx.receipt.succeeded());
        assert_eq!(ctx.receipt.internal_transactions().len(), 1);
        assert_eq!(ctx.receipt.internal_transactions()[0].to(), sink);
        assert!(ctx.receipt.gas_used() > Gas::BASE_TX);
        assert_eq!(state.balance(sink), Amount::from_sats(777));
    }

    #[test]
    fn contract_creation_deploys_at_derived_address() {
        let mut state = funded_state(1);
        let code = Arc::new(Contract::counter());
        let tx = AccountTransaction::contract_create(Address::from_low(1), code.clone(), 0);
        let ctx = BlockExecutor::new()
            .execute_transaction(&mut state, &tx)
            .unwrap();
        assert!(ctx.receipt.succeeded());
        let addr = code.deployment_address(Address::from_low(1), 0);
        assert!(state.contract(addr).is_some());
        assert!(ctx.receipt.gas_used() > Gas::BASE_TX);
    }

    #[test]
    fn failed_contract_call_keeps_nonce_and_charges_gas() {
        let mut state = funded_state(1);
        let bad = Address::from_low(600);
        state.deploy_contract(bad, Arc::new(Contract::always_revert()));
        let tx = AccountTransaction::contract_call(
            Address::from_low(1),
            bad,
            Amount::from_sats(10),
            vec![],
            0,
        );
        let ctx = BlockExecutor::new()
            .execute_transaction(&mut state, &tx)
            .unwrap();
        assert!(!ctx.receipt.succeeded());
        assert!(ctx.receipt.gas_used() >= Gas::BASE_TX);
        // Value transfer was reverted, but the nonce advanced.
        assert_eq!(state.balance(bad), Amount::ZERO);
        assert_eq!(state.nonce(Address::from_low(1)), 1);
    }

    #[test]
    fn executing_a_block_produces_one_receipt_per_transaction() {
        let mut state = funded_state(3);
        let block = BlockBuilder::new(1, 0, Address::from_low(99))
            .transaction(AccountTransaction::transfer(
                Address::from_low(1),
                Address::from_low(2),
                Amount::from_coins(1),
                0,
            ))
            .transaction(AccountTransaction::transfer(
                Address::from_low(2),
                Address::from_low(3),
                Amount::from_coins(1),
                0,
            ))
            // Bad nonce: recorded as failed receipt, not an error.
            .transaction(AccountTransaction::transfer(
                Address::from_low(3),
                Address::from_low(1),
                Amount::from_coins(1),
                7,
            ))
            .build();
        let executed = BlockExecutor::new()
            .execute_block(&mut state, &block)
            .unwrap();
        assert_eq!(executed.receipts().len(), 3);
        assert!(executed.receipts()[0].succeeded());
        assert!(executed.receipts()[1].succeeded());
        assert!(!executed.receipts()[2].succeeded());
    }

    #[test]
    fn journal_in_context_can_revert_a_committed_transaction() {
        let mut state = funded_state(2);
        let before_balance = state.balance(Address::from_low(2));
        let tx = AccountTransaction::transfer(
            Address::from_low(1),
            Address::from_low(2),
            Amount::from_coins(5),
            0,
        );
        let ctx = BlockExecutor::new()
            .execute_transaction(&mut state, &tx)
            .unwrap();
        assert_ne!(state.balance(Address::from_low(2)), before_balance);
        state.revert(ctx.journal);
        assert_eq!(state.balance(Address::from_low(2)), before_balance);
        assert_eq!(state.nonce(Address::from_low(1)), 0);
    }

    fn delta_genesis() -> WorldState {
        let mut state = WorldState::new();
        for i in 1..=4u64 {
            state.credit(Address::from_low(i), Amount::from_coins(100));
        }
        state.deploy_contract(Address::from_low(700), Arc::new(Contract::fee_sink()));
        state.deploy_contract(
            Address::from_low(701),
            Arc::new(Contract::per_caller_counter()),
        );
        state
    }

    /// The genesis on a memory backend, block 1 open.
    fn delta_backed_state() -> WorldState {
        use blockconc_store::{shared, MemoryBackend};
        let mut state = delta_genesis();
        state
            .attach_backend(shared(MemoryBackend::new()), None)
            .unwrap();
        state.begin_block(1).unwrap();
        state
    }

    /// The genesis as committed state under an empty scratch state: where
    /// blind deltas accumulate.
    fn delta_scratch_state() -> ScratchState<MapCells> {
        ScratchState::new(MapCells::of(&delta_genesis()))
    }

    fn delta_workload() -> Vec<AccountTransaction> {
        let fresh = Address::from_low(4_000);
        vec![
            // Blind credit: the receiver is not materialized in the scratch state.
            AccountTransaction::transfer(Address::from_low(1), fresh, Amount::from_sats(11), 0),
            // Commutative fee-sink accumulation (zero-value call, nonzero addend).
            AccountTransaction::contract_call(
                Address::from_low(2),
                Address::from_low(700),
                Amount::ZERO,
                vec![33],
                0,
            ),
            AccountTransaction::contract_call(
                Address::from_low(3),
                Address::from_low(700),
                Amount::ZERO,
                vec![44],
                0,
            ),
            // Classic read-modify-write counter call for contrast.
            AccountTransaction::contract_call(
                Address::from_low(4),
                Address::from_low(701),
                Amount::ZERO,
                vec![],
                0,
            ),
            // Second credit onto the same fresh receiver merges into one delta.
            AccountTransaction::transfer(Address::from_low(1), fresh, Amount::from_sats(5), 1),
        ]
    }

    #[test]
    fn delta_executor_emits_delta_accesses_for_credits_and_sadd() {
        let mut state = delta_scratch_state();
        let mut exec = BlockExecutor::with_delta_accesses();
        let txs = delta_workload();

        let ctx = exec.execute_transaction(&mut state, &txs[0]).unwrap();
        assert!(ctx.receipt.succeeded());
        let fresh = Address::from_low(4_000);
        assert!(ctx.access.deltas().contains(&StateKey::Balance(fresh)));
        assert!(!ctx.access.writes().contains(&StateKey::Balance(fresh)));
        // The sender side stays an ordered write.
        assert!(ctx
            .access
            .writes()
            .contains(&StateKey::Balance(Address::from_low(1))));

        let ctx = exec.execute_transaction(&mut state, &txs[1]).unwrap();
        assert!(ctx.receipt.succeeded());
        let sink_slot = StateKey::Storage(Address::from_low(700), 0);
        assert!(ctx.access.deltas().contains(&sink_slot));
        assert!(!ctx.access.writes().contains(&sink_slot));
        assert!(!ctx.access.reads().contains(&sink_slot));

        // The per-caller counter uses SLoad/SStore: ordered as before.
        let ctx = exec.execute_transaction(&mut state, &txs[3]).unwrap();
        assert!(ctx.receipt.succeeded());
        assert!(ctx.access.deltas().is_empty());
    }

    #[test]
    fn delta_executor_matches_classic_receipts_and_state_root() {
        let mut classic_state = delta_backed_state();
        let mut delta_state = delta_scratch_state();
        let mut classic = BlockExecutor::new();
        let mut delta = BlockExecutor::with_delta_accesses();

        let block = {
            let mut b = BlockBuilder::new(1, 0, Address::from_low(99));
            for tx in delta_workload() {
                b = b.transaction(tx);
            }
            b.build()
        };

        let classic_block = classic.execute_block(&mut classic_state, &block).unwrap();
        let delta_block = delta.execute_block(&mut delta_state, &block).unwrap();
        assert_eq!(classic_block.receipts(), delta_block.receipts());
        // Virtual folds make the pending deltas observable before any harvest.
        assert_eq!(
            classic_state.balance(Address::from_low(4_000)),
            Amount::from_sats(16)
        );
        assert_eq!(
            delta_state.balance(Address::from_low(4_000)),
            Amount::from_sats(16)
        );
        assert_eq!(delta_state.storage(Address::from_low(700), 0), 77);

        // Harvested onto the same pre-state, the delta run commits the classic
        // write set and root.
        let mut committed = delta_backed_state();
        commit_harvest(&mut committed, &mut delta_state);
        assert_eq!(classic_state.state_root(), committed.state_root());
        let mut classic_ws = Vec::new();
        classic_state.take_write_set(&mut classic_ws);
        let mut delta_ws = Vec::new();
        committed.take_write_set(&mut delta_ws);
        assert_eq!(classic_ws, delta_ws);
    }

    #[test]
    fn intrinsic_gas_too_low_fails_but_advances_nonce() {
        let mut state = funded_state(2);
        let tx = AccountTransaction::transfer(
            Address::from_low(1),
            Address::from_low(2),
            Amount::from_coins(1),
            0,
        )
        .with_gas_limit(Gas::new(1_000));
        let ctx = BlockExecutor::new()
            .execute_transaction(&mut state, &tx)
            .unwrap();
        assert!(!ctx.receipt.succeeded());
        assert_eq!(ctx.receipt.gas_used(), Gas::new(1_000));
        assert_eq!(state.nonce(Address::from_low(1)), 1);
        assert_eq!(state.balance(Address::from_low(2)), Amount::from_coins(100));
    }
}
