//! The VM interpreter.

use crate::vm::{GasSchedule, OpCode};
use crate::{AccessSet, InternalTransaction, Journal, StateAccess, StateKey};
use blockconc_types::{Address, Amount, Error, Gas, Result};

/// Maximum nested call depth (top-level call is depth 1).
const MAX_CALL_DEPTH: usize = 8;
/// Maximum instructions per call frame, a backstop against non-terminating loops even
/// when gas limits are very large.
const MAX_STEPS_PER_FRAME: usize = 100_000;

/// Parameters of one contract call.
#[derive(Debug, Clone)]
pub struct CallParams {
    /// The externally owned account (or contract) initiating the call.
    pub caller: Address,
    /// The contract being called.
    pub target: Address,
    /// Value transferred from `caller` to `target` before the code runs.
    pub value: Amount,
    /// Call arguments, readable via [`OpCode::Arg`].
    pub args: Vec<u64>,
    /// Gas available for this call (including nested calls).
    pub gas_limit: Gas,
}

/// Result of a contract call.
#[derive(Debug, Clone, PartialEq)]
pub struct CallOutcome {
    /// Whether the call completed without reverting or running out of gas.
    pub success: bool,
    /// Gas consumed (the full limit when the call ran out of gas).
    pub gas_used: Gas,
    /// Internal transactions produced by nested `Call`/`Transfer` instructions.
    pub internal_transactions: Vec<InternalTransaction>,
    /// Event-log words produced by `Log` instructions.
    pub logs: Vec<u64>,
    /// Failure description for unsuccessful calls.
    pub failure: Option<String>,
}

/// The virtual-machine interpreter.
///
/// An [`Interpreter`] owns only configuration (gas schedule, limits); every call runs
/// against caller-provided [`StateAccess`] state, and rollback of failing calls is
/// precise via the journal.
///
/// See the [module documentation](crate::vm) for an end-to-end example.
#[derive(Debug, Clone, Default)]
pub struct Interpreter {
    schedule: GasSchedule,
    /// When set, pure credits and `SAdd` accumulations the state accepts blind
    /// ([`StateAccess::credit_delta`]) are recorded as commutative *delta*
    /// accesses (blind, unordered) instead of read/write pairs. Off by default:
    /// classic executors keep the exact access sets and conflict structure they
    /// always had.
    delta_accesses: bool,
}

struct Frame<'a, S> {
    interpreter: &'a Interpreter,
    state: &'a mut S,
    journal: &'a mut Journal,
    access: &'a mut AccessSet,
    internal: &'a mut Vec<InternalTransaction>,
    logs: &'a mut Vec<u64>,
    gas_left: Gas,
}

impl Interpreter {
    /// Creates an interpreter with the default gas schedule.
    pub fn new() -> Self {
        Interpreter::default()
    }

    /// Enables commutative delta accounting: pure credits and `SAdd`
    /// accumulations the state accepts blind ([`StateAccess::credit_delta`],
    /// [`StateAccess::storage_add_delta`]) are recorded as delta accesses. Gas,
    /// receipts and final state are identical to the classic mode — only the
    /// access classification (and hence the conflict structure) weakens.
    pub fn with_delta_accesses(mut self) -> Self {
        self.delta_accesses = true;
        self
    }

    /// Whether delta accounting is enabled.
    pub fn delta_accesses(&self) -> bool {
        self.delta_accesses
    }

    /// The interpreter's gas schedule.
    pub fn schedule(&self) -> &GasSchedule {
        &self.schedule
    }

    /// Executes a call, journalling changes into a fresh journal and discarding access
    /// tracking. Failed calls leave the state untouched (their changes are reverted).
    ///
    /// # Errors
    ///
    /// Returns an error only for caller-level problems (the caller lacks the funds for
    /// the value transfer); VM-level failures (revert, out of gas) are reported through
    /// [`CallOutcome::success`].
    pub fn call<S: StateAccess>(
        &mut self,
        state: &mut S,
        params: CallParams,
    ) -> Result<CallOutcome> {
        let mut journal = Journal::new();
        let mut access = AccessSet::new();
        let outcome = self.call_tracked(state, params, &mut journal, &mut access)?;
        Ok(outcome)
    }

    /// Executes a call with caller-provided journal and access tracking.
    ///
    /// On VM failure the state changes made by the call (and only those) are reverted
    /// from `journal`; the access set keeps everything that was touched, which is what
    /// optimistic-concurrency conflict detection needs.
    ///
    /// # Errors
    ///
    /// Returns an error only if the caller cannot fund the value transfer.
    pub fn call_tracked<S: StateAccess>(
        &mut self,
        state: &mut S,
        params: CallParams,
        journal: &mut Journal,
        access: &mut AccessSet,
    ) -> Result<CallOutcome> {
        let mut internal = Vec::new();
        let mut logs = Vec::new();
        let checkpoint = journal.checkpoint();
        let gas_limit = params.gas_limit;

        let result = {
            let mut frame = Frame {
                interpreter: self,
                state,
                journal,
                access,
                internal: &mut internal,
                logs: &mut logs,
                gas_left: gas_limit,
            };
            frame.run_call(params.caller, params.target, params.value, &params.args, 1)
        };

        match result {
            Ok(gas_left) => Ok(CallOutcome {
                success: true,
                gas_used: gas_limit - gas_left,
                internal_transactions: internal,
                logs,
                failure: None,
            }),
            Err(VmFailure::Fatal(err)) => {
                state.revert_to(journal, checkpoint);
                Err(err)
            }
            Err(VmFailure::Reverted(reason, gas_left)) => {
                state.revert_to(journal, checkpoint);
                Ok(CallOutcome {
                    success: false,
                    gas_used: gas_limit - gas_left,
                    internal_transactions: Vec::new(),
                    logs: Vec::new(),
                    failure: Some(reason),
                })
            }
            Err(VmFailure::OutOfGas) => {
                state.revert_to(journal, checkpoint);
                Ok(CallOutcome {
                    success: false,
                    gas_used: gas_limit,
                    internal_transactions: Vec::new(),
                    logs: Vec::new(),
                    failure: Some("out of gas".to_string()),
                })
            }
        }
    }
}

/// Internal failure modes of a call frame.
enum VmFailure {
    /// The transaction should be treated as invalid at the caller level.
    Fatal(Error),
    /// The contract reverted (or trapped); remaining gas is refunded.
    Reverted(String, Gas),
    /// Gas was exhausted.
    OutOfGas,
}

impl<S: StateAccess> Frame<'_, S> {
    /// Runs one call (value transfer + code execution). Returns remaining gas.
    fn run_call(
        &mut self,
        caller: Address,
        target: Address,
        value: Amount,
        args: &[u64],
        depth: usize,
    ) -> std::result::Result<Gas, VmFailure> {
        if depth > MAX_CALL_DEPTH {
            return Err(VmFailure::Reverted(
                format!("call depth {depth} exceeds maximum {MAX_CALL_DEPTH}"),
                self.gas_left,
            ));
        }

        // Value transfer from caller to target.
        if !value.is_zero() {
            self.access.record_write(StateKey::Balance(caller));
            if !self.interpreter.delta_accesses {
                self.access.record_write(StateKey::Balance(target));
            }
            self.state
                .debit_journalled(caller, value, Some(&mut *self.journal))
                .map_err(|e| {
                    if depth == 1 {
                        VmFailure::Fatal(e)
                    } else {
                        VmFailure::Reverted(e.to_string(), self.gas_left)
                    }
                })?;
            self.credit_side(target, value);
        }

        // Which program is installed at `target` decides everything below —
        // plain transfer vs execution, and which instructions run — so the code
        // cell is a consumed read even when no code is deployed.
        self.access.record_read(StateKey::Code(target));
        let Some(contract) = self.state.contract(target) else {
            // Plain value transfer to a non-contract account: nothing to execute.
            return Ok(self.gas_left);
        };

        let mut stack: Vec<u64> = Vec::with_capacity(16);
        let mut pc = 0usize;
        let mut steps = 0usize;

        while let Some(op) = contract.instruction(pc) {
            steps += 1;
            if steps > MAX_STEPS_PER_FRAME {
                return Err(VmFailure::Reverted(
                    "instruction limit exceeded".to_string(),
                    self.gas_left,
                ));
            }
            self.charge(op)?;
            pc += 1;
            match *op {
                OpCode::Push(v) => stack.push(v),
                OpCode::Pop => {
                    self.pop(&mut stack)?;
                }
                OpCode::Dup => {
                    let top = *stack.last().ok_or_else(|| self.underflow())?;
                    stack.push(top);
                }
                OpCode::Swap => {
                    let len = stack.len();
                    if len < 2 {
                        return Err(self.underflow());
                    }
                    stack.swap(len - 1, len - 2);
                }
                OpCode::Add => self.binop(&mut stack, |a, b| a.wrapping_add(b))?,
                OpCode::Sub => self.binop(&mut stack, |a, b| a.wrapping_sub(b))?,
                OpCode::Mul => self.binop(&mut stack, |a, b| a.wrapping_mul(b))?,
                OpCode::Div => self.binop(&mut stack, |a, b| a.checked_div(b).unwrap_or(0))?,
                OpCode::SLoad => {
                    let key = self.pop(&mut stack)?;
                    self.access.record_read(StateKey::Storage(target, key));
                    stack.push(self.state.storage(target, key));
                }
                OpCode::SStore => {
                    let key = self.pop(&mut stack)?;
                    let value = self.pop(&mut stack)?;
                    self.access.record_write(StateKey::Storage(target, key));
                    self.state
                        .storage_set(target, key, value, Some(&mut *self.journal));
                }
                OpCode::SAdd => {
                    let key = self.pop(&mut stack)?;
                    let value = self.pop(&mut stack)?;
                    if self.interpreter.delta_accesses
                        && self.state.storage_add_delta(
                            target,
                            key,
                            value,
                            Some(&mut *self.journal),
                        )
                    {
                        self.access.record_delta(StateKey::Storage(target, key));
                    } else {
                        // Classic read-modify-write: the slot is observed, so the
                        // access is an ordered read + write pair.
                        self.access.record_read(StateKey::Storage(target, key));
                        self.access.record_write(StateKey::Storage(target, key));
                        let current = self.state.storage(target, key);
                        self.state.storage_set(
                            target,
                            key,
                            current.wrapping_add(value),
                            Some(&mut *self.journal),
                        );
                    }
                }
                OpCode::Caller => stack.push(caller.low_u64()),
                OpCode::CallValue => stack.push(value.sats()),
                OpCode::SelfBalance => {
                    self.access.record_read(StateKey::Balance(target));
                    stack.push(self.state.balance(target).sats());
                }
                OpCode::Arg(n) => stack.push(args.get(n as usize).copied().unwrap_or(0)),
                OpCode::Jump(dest) => {
                    pc = dest;
                }
                OpCode::JumpIfZero(dest) => {
                    if self.pop(&mut stack)? == 0 {
                        pc = dest;
                    }
                }
                OpCode::Transfer(to) => {
                    let amount = Amount::from_sats(self.pop(&mut stack)?);
                    self.do_transfer(target, to, amount, depth)?;
                }
                OpCode::TransferArg(n) => {
                    let to = Address::from_low(args.get(n as usize).copied().unwrap_or(0));
                    let amount = Amount::from_sats(self.pop(&mut stack)?);
                    self.do_transfer(target, to, amount, depth)?;
                }
                OpCode::Call(to) => {
                    let amount = Amount::from_sats(self.pop(&mut stack)?);
                    self.do_call(target, to, amount, args, depth)?;
                }
                OpCode::CallArg(n) => {
                    let to = Address::from_low(args.get(n as usize).copied().unwrap_or(0));
                    let amount = Amount::from_sats(self.pop(&mut stack)?);
                    self.do_call(target, to, amount, args, depth)?;
                }
                OpCode::Log => {
                    let top = *stack.last().ok_or_else(|| self.underflow())?;
                    self.logs.push(top);
                }
                OpCode::Stop => return Ok(self.gas_left),
                OpCode::Revert => {
                    return Err(VmFailure::Reverted(
                        "explicit revert".to_string(),
                        self.gas_left,
                    ))
                }
            }
        }
        // Falling off the end of the code is a successful stop.
        Ok(self.gas_left)
    }

    /// Credits the receiving side of a value transfer. In delta mode a credit
    /// the state accepts blind is recorded as a commutative delta, anything
    /// else as an ordered write; classic mode recorded the write ahead of the
    /// debit already.
    fn credit_side(&mut self, to: Address, amount: Amount) {
        if self.interpreter.delta_accesses {
            if self
                .state
                .credit_delta(to, amount, Some(&mut *self.journal))
            {
                self.access.record_delta(StateKey::Balance(to));
                return;
            }
            self.access.record_write(StateKey::Balance(to));
        }
        self.state
            .credit_journalled(to, amount, Some(&mut *self.journal));
    }

    fn do_transfer(
        &mut self,
        from: Address,
        to: Address,
        amount: Amount,
        depth: usize,
    ) -> std::result::Result<(), VmFailure> {
        self.access.record_write(StateKey::Balance(from));
        if !self.interpreter.delta_accesses {
            self.access.record_write(StateKey::Balance(to));
        }
        self.state
            .debit_journalled(from, amount, Some(&mut *self.journal))
            .map_err(|e| VmFailure::Reverted(e.to_string(), self.gas_left))?;
        self.credit_side(to, amount);
        self.internal
            .push(InternalTransaction::new(from, to, amount, depth));
        Ok(())
    }

    fn do_call(
        &mut self,
        from: Address,
        to: Address,
        amount: Amount,
        args: &[u64],
        depth: usize,
    ) -> std::result::Result<(), VmFailure> {
        self.internal
            .push(InternalTransaction::new(from, to, amount, depth));
        let gas_left = self.run_call(from, to, amount, args, depth + 1)?;
        self.gas_left = gas_left;
        Ok(())
    }

    fn charge(&mut self, op: &OpCode) -> std::result::Result<(), VmFailure> {
        let cost = self.interpreter.schedule.cost(op);
        match self.gas_left.checked_sub(cost) {
            Some(rest) => {
                self.gas_left = rest;
                Ok(())
            }
            None => Err(VmFailure::OutOfGas),
        }
    }

    fn pop(&self, stack: &mut Vec<u64>) -> std::result::Result<u64, VmFailure> {
        stack.pop().ok_or_else(|| self.underflow())
    }

    fn underflow(&self) -> VmFailure {
        VmFailure::Reverted("stack underflow".to_string(), self.gas_left)
    }

    fn binop(
        &self,
        stack: &mut Vec<u64>,
        f: impl Fn(u64, u64) -> u64,
    ) -> std::result::Result<(), VmFailure> {
        let top = self.pop(stack)?;
        let second = self.pop(stack)?;
        stack.push(f(second, top));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::Contract;
    use crate::WorldState;
    use std::sync::Arc;

    fn setup(contract: Contract) -> (WorldState, Address, Address) {
        let mut state = WorldState::new();
        let user = Address::from_low(1);
        let contract_addr = Address::from_low(1000);
        state.credit(user, Amount::from_coins(10));
        state.deploy_contract(contract_addr, Arc::new(contract));
        (state, user, contract_addr)
    }

    fn call(
        state: &mut WorldState,
        caller: Address,
        target: Address,
        value: u64,
        args: Vec<u64>,
    ) -> CallOutcome {
        Interpreter::new()
            .call(
                state,
                CallParams {
                    caller,
                    target,
                    value: Amount::from_sats(value),
                    args,
                    gas_limit: Gas::new(1_000_000),
                },
            )
            .unwrap()
    }

    #[test]
    fn counter_contract_increments_storage() {
        let (mut state, user, counter) = setup(Contract::counter());
        for expected in 1..=3u64 {
            let outcome = call(&mut state, user, counter, 0, vec![]);
            assert!(outcome.success, "{:?}", outcome.failure);
            assert_eq!(state.storage(counter, 0), expected);
        }
    }

    #[test]
    fn forwarder_moves_value_and_emits_internal_tx() {
        let beneficiary = Address::from_low(77);
        let (mut state, user, fwd) = setup(Contract::forwarder(beneficiary));
        let outcome = call(&mut state, user, fwd, 500, vec![]);
        assert!(outcome.success);
        assert_eq!(state.balance(beneficiary), Amount::from_sats(500));
        assert_eq!(state.balance(fwd), Amount::ZERO);
        assert_eq!(outcome.internal_transactions.len(), 1);
        assert_eq!(outcome.internal_transactions[0].to(), beneficiary);
        assert_eq!(outcome.internal_transactions[0].depth(), 1);
    }

    #[test]
    fn proxy_chain_produces_depth_two_internal_txs() {
        let sink = Address::from_low(55);
        let mut state = WorldState::new();
        let user = Address::from_low(1);
        state.credit(user, Amount::from_coins(1));
        let inner_addr = Address::from_low(2000);
        let outer_addr = Address::from_low(2001);
        state.deploy_contract(inner_addr, Arc::new(Contract::forwarder(sink)));
        state.deploy_contract(outer_addr, Arc::new(Contract::proxy(inner_addr)));

        let outcome = call(&mut state, user, outer_addr, 300, vec![]);
        assert!(outcome.success, "{:?}", outcome.failure);
        assert_eq!(state.balance(sink), Amount::from_sats(300));
        // outer -> inner call, then inner -> sink transfer.
        assert_eq!(outcome.internal_transactions.len(), 2);
        assert_eq!(outcome.internal_transactions[0].to(), inner_addr);
        assert_eq!(outcome.internal_transactions[1].to(), sink);
        assert_eq!(outcome.internal_transactions[1].depth(), 2);
    }

    #[test]
    fn revert_restores_state_and_reports_failure() {
        let (mut state, user, addr) = setup(Contract::new(vec![
            OpCode::Push(1),
            OpCode::Push(0),
            OpCode::SStore,
            OpCode::Revert,
        ]));
        let outcome = call(&mut state, user, addr, 100, vec![]);
        assert!(!outcome.success);
        assert_eq!(outcome.failure.as_deref(), Some("explicit revert"));
        // Both the storage write and the value transfer must be rolled back.
        assert_eq!(state.storage(addr, 0), 0);
        assert_eq!(state.balance(addr), Amount::ZERO);
        assert_eq!(state.balance(user), Amount::from_coins(10));
    }

    #[test]
    fn out_of_gas_consumes_entire_limit_and_reverts() {
        let (mut state, user, addr) = setup(Contract::counter());
        let outcome = Interpreter::new()
            .call(
                &mut state,
                CallParams {
                    caller: user,
                    target: addr,
                    value: Amount::ZERO,
                    args: vec![],
                    gas_limit: Gas::new(10),
                },
            )
            .unwrap();
        assert!(!outcome.success);
        assert_eq!(outcome.gas_used, Gas::new(10));
        assert_eq!(state.storage(addr, 0), 0);
    }

    #[test]
    fn insufficient_caller_funds_is_a_fatal_error() {
        let (mut state, _user, addr) = setup(Contract::noop());
        let poor = Address::from_low(9999);
        let result = Interpreter::new().call(
            &mut state,
            CallParams {
                caller: poor,
                target: addr,
                value: Amount::from_sats(1),
                args: vec![],
                gas_limit: Gas::new(100_000),
            },
        );
        assert!(result.is_err());
    }

    #[test]
    fn token_contract_moves_storage_balances_between_slots() {
        let (mut state, user, token) = setup(Contract::token());
        // Seed the user's token balance in the slot keyed by their address bits.
        state.storage_set(token, user.low_u64(), 1_000, None);
        let recipient = Address::from_low(2);
        let outcome = call(&mut state, user, token, 0, vec![recipient.low_u64(), 250]);
        assert!(outcome.success, "{:?}", outcome.failure);
        assert_eq!(state.storage(token, user.low_u64()), 750);
        assert_eq!(state.storage(token, recipient.low_u64()), 250);
        assert_eq!(outcome.logs.len(), 1);
    }

    #[test]
    fn exchange_wallet_pays_out_to_argument_address() {
        let (mut state, user, wallet) = setup(Contract::exchange_wallet());
        let customer = Address::from_low(321);
        let outcome = call(&mut state, user, wallet, 10_000, vec![customer.low_u64()]);
        assert!(outcome.success, "{:?}", outcome.failure);
        assert_eq!(state.balance(customer), Amount::from_sats(10_000));
        assert_eq!(outcome.internal_transactions.len(), 1);
    }

    #[test]
    fn deep_recursion_is_cut_off() {
        // A contract that calls itself forever.
        let mut state = WorldState::new();
        let user = Address::from_low(1);
        state.credit(user, Amount::from_coins(1));
        let addr = Address::from_low(3000);
        state.deploy_contract(
            addr,
            Arc::new(Contract::new(vec![
                OpCode::Push(0),
                OpCode::Call(addr),
                OpCode::Stop,
            ])),
        );
        let outcome = call(&mut state, user, addr, 0, vec![]);
        // Recursion bottoms out at MAX_CALL_DEPTH and the call reverts; the transaction
        // must not loop forever or overflow the Rust stack.
        assert!(!outcome.success);
    }

    #[test]
    fn access_set_records_storage_and_balance_keys() {
        let (mut state, user, counter) = setup(Contract::counter());
        let mut journal = Journal::new();
        let mut access = AccessSet::new();
        let outcome = Interpreter::new()
            .call_tracked(
                &mut state,
                CallParams {
                    caller: user,
                    target: counter,
                    value: Amount::from_sats(5),
                    args: vec![],
                    gas_limit: Gas::new(1_000_000),
                },
                &mut journal,
                &mut access,
            )
            .unwrap();
        assert!(outcome.success);
        assert!(access.writes().contains(&StateKey::Storage(counter, 0)));
        assert!(access.reads().contains(&StateKey::Storage(counter, 0)));
        assert!(access.writes().contains(&StateKey::Balance(user)));
        assert!(access.writes().contains(&StateKey::Balance(counter)));
        assert!(!journal.is_empty());
    }

    #[test]
    fn plain_transfer_to_non_contract_succeeds_without_code() {
        let mut state = WorldState::new();
        let a = Address::from_low(1);
        let b = Address::from_low(2);
        state.credit(a, Amount::from_coins(1));
        let outcome = call(&mut state, a, b, 123, vec![]);
        assert!(outcome.success);
        assert_eq!(state.balance(b), Amount::from_sats(123));
        assert!(outcome.internal_transactions.is_empty());
    }

    #[test]
    fn div_by_zero_yields_zero_not_trap() {
        let (mut state, user, addr) = setup(Contract::new(vec![
            OpCode::Push(10),
            OpCode::Push(0),
            OpCode::Div,
            OpCode::Push(0),
            OpCode::SStore,
            OpCode::Stop,
        ]));
        let outcome = call(&mut state, user, addr, 0, vec![]);
        assert!(outcome.success);
        assert_eq!(state.storage(addr, 0), 0);
    }

    #[test]
    fn stack_underflow_reverts() {
        let (mut state, user, addr) = setup(Contract::new(vec![OpCode::Add, OpCode::Stop]));
        let outcome = call(&mut state, user, addr, 0, vec![]);
        assert!(!outcome.success);
        assert!(outcome.failure.unwrap().contains("underflow"));
    }

    #[test]
    fn jump_if_zero_controls_flow() {
        // if arg0 == 0 { skip the store } else { store 9 at key 0 }
        let contract = Contract::new(vec![
            OpCode::Arg(0),
            OpCode::JumpIfZero(6),
            OpCode::Push(9),
            OpCode::Push(0),
            OpCode::SStore,
            OpCode::Stop,
            OpCode::Stop,
        ]);
        let (mut state, user, addr) = setup(contract);
        let outcome = call(&mut state, user, addr, 0, vec![0]);
        assert!(outcome.success);
        assert_eq!(state.storage(addr, 0), 0);
        let outcome = call(&mut state, user, addr, 0, vec![1]);
        assert!(outcome.success);
        assert_eq!(state.storage(addr, 0), 9);
    }

    #[test]
    fn infinite_loop_without_gas_pressure_hits_step_limit() {
        let contract = Contract::new(vec![OpCode::Jump(0)]);
        let (mut state, user, addr) = setup(contract);
        let outcome = Interpreter::new()
            .call(
                &mut state,
                CallParams {
                    caller: user,
                    target: addr,
                    value: Amount::ZERO,
                    args: vec![],
                    gas_limit: Gas::new(u64::MAX / 2),
                },
            )
            .unwrap();
        assert!(!outcome.success);
    }
}
