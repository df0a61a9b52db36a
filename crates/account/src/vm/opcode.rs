//! The instruction set and its gas schedule.

use blockconc_types::{Address, Gas};

/// One instruction of the contract virtual machine.
///
/// Values on the operand stack are `u64`. Addresses appear as immediate operands
/// (real contracts hard-code counterparties in storage or code; for workload modelling
/// immediates are sufficient) or are taken from the per-call argument list via the
/// `*Arg` variants, where the argument's low 64 bits are interpreted through
/// [`Address::from_low`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpCode {
    /// Push an immediate value.
    Push(u64),
    /// Discard the top of the stack.
    Pop,
    /// Duplicate the top of the stack.
    Dup,
    /// Swap the top two stack values.
    Swap,
    /// Pop two values, push their sum (wrapping).
    Add,
    /// Pop two values, push `second - top` (wrapping).
    Sub,
    /// Pop two values, push their product (wrapping).
    Mul,
    /// Pop two values, push `second / top` (zero when dividing by zero).
    Div,
    /// Pop a key, push the current contract's storage slot at that key.
    SLoad,
    /// Pop a key then a value, store value at key in the current contract's storage.
    SStore,
    /// Pop a key then a value, add the value (wrapping) to the current contract's
    /// storage slot at that key. Semantically a read-modify-write, but because
    /// addition commutes the interpreter may record it as a *delta* access — the
    /// operation-level conflict class that lets concurrent accumulators on one
    /// hot slot run unordered.
    SAdd,
    /// Push the low 64 bits of the caller's address.
    Caller,
    /// Push the value (in base units) sent with the current call.
    CallValue,
    /// Push the current contract's balance (in base units).
    SelfBalance,
    /// Push call argument `n` (zero if absent).
    Arg(u8),
    /// Unconditional jump to an instruction index.
    Jump(usize),
    /// Pop a value; jump to the instruction index if the value is zero.
    JumpIfZero(usize),
    /// Pop a value; transfer that many base units from the contract to the immediate
    /// address. Emits an internal transaction.
    Transfer(Address),
    /// Pop a value; transfer that many base units from the contract to the address
    /// encoded in call argument `n`. Emits an internal transaction.
    TransferArg(u8),
    /// Pop a value; call the contract at the immediate address, forwarding that many
    /// base units and the current call's arguments. Emits an internal transaction.
    Call(Address),
    /// Pop a value; call the contract at the address encoded in call argument `n`,
    /// forwarding that many base units. Emits an internal transaction.
    CallArg(u8),
    /// Append the top of the stack to the call's event log (not popped).
    Log,
    /// Stop successfully.
    Stop,
    /// Abort and revert the transaction.
    Revert,
}

/// Gas costs per instruction, with magnitudes mirroring the EVM's so that gas-weighted
/// analyses behave like the paper's.
///
/// # Examples
///
/// ```
/// use blockconc_types::Gas;
/// use blockconc_account::vm::{GasSchedule, OpCode};
///
/// let schedule = GasSchedule::default();
/// assert!(schedule.cost(&OpCode::SStore) > schedule.cost(&OpCode::Add));
/// assert_eq!(schedule.intrinsic_tx_cost(), Gas::BASE_TX);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GasSchedule {
    /// Cost of cheap stack / arithmetic operations.
    pub base: u64,
    /// Cost of reading a storage slot.
    pub sload: u64,
    /// Cost of writing a storage slot.
    pub sstore: u64,
    /// Base cost of an internal value transfer.
    pub transfer: u64,
    /// Base cost of calling another contract (excluding the callee's own execution).
    pub call: u64,
    /// Cost of appending to the event log.
    pub log: u64,
    /// Intrinsic cost charged to every transaction before execution.
    pub intrinsic: u64,
    /// Extra intrinsic cost for contract creation transactions.
    pub create: u64,
}

impl Default for GasSchedule {
    fn default() -> Self {
        GasSchedule {
            base: 3,
            sload: 200,
            sstore: 5_000,
            transfer: 9_000,
            call: 700,
            log: 375,
            intrinsic: Gas::BASE_TX.value(),
            create: 32_000,
        }
    }
}

impl GasSchedule {
    /// The gas cost of executing `op` (excluding any nested call's own execution).
    pub fn cost(&self, op: &OpCode) -> Gas {
        let raw = match op {
            OpCode::SLoad => self.sload,
            // SAdd is priced like the absolute store it replaces, so classic and
            // delta-aware interpretation burn identical gas (receipts stay
            // bit-identical across the two modes).
            OpCode::SStore | OpCode::SAdd => self.sstore,
            OpCode::Transfer(_) | OpCode::TransferArg(_) => self.transfer,
            OpCode::Call(_) | OpCode::CallArg(_) => self.call,
            OpCode::Log => self.log,
            OpCode::Stop | OpCode::Revert => 0,
            _ => self.base,
        };
        Gas::new(raw)
    }

    /// The intrinsic gas charged to every transaction.
    pub fn intrinsic_tx_cost(&self) -> Gas {
        Gas::new(self.intrinsic)
    }

    /// The intrinsic gas charged to contract-creation transactions.
    pub fn creation_cost(&self) -> Gas {
        Gas::new(self.intrinsic + self.create)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_writes_cost_more_than_arithmetic() {
        let s = GasSchedule::default();
        assert!(s.cost(&OpCode::SStore) > s.cost(&OpCode::SLoad));
        assert!(s.cost(&OpCode::SLoad) > s.cost(&OpCode::Add));
        assert!(s.cost(&OpCode::Transfer(Address::ZERO)) > s.cost(&OpCode::Call(Address::ZERO)));
    }

    #[test]
    fn terminators_are_free() {
        let s = GasSchedule::default();
        assert_eq!(s.cost(&OpCode::Stop), Gas::ZERO);
        assert_eq!(s.cost(&OpCode::Revert), Gas::ZERO);
    }

    #[test]
    fn creation_costs_more_than_plain_transactions() {
        let s = GasSchedule::default();
        assert!(s.creation_cost() > s.intrinsic_tx_cost());
    }
}
