//! Contract code.

use crate::vm::OpCode;
use blockconc_types::{Address, Hash};

/// An immutable piece of contract code: a flat list of instructions.
///
/// # Examples
///
/// ```
/// use blockconc_account::vm::{Contract, OpCode};
///
/// let c = Contract::new(vec![OpCode::Push(1), OpCode::Push(2), OpCode::Add, OpCode::Stop]);
/// assert_eq!(c.len(), 4);
/// assert!(!c.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contract {
    code: Vec<OpCode>,
}

impl Contract {
    /// Creates a contract from instructions.
    pub fn new(code: Vec<OpCode>) -> Self {
        Contract { code }
    }

    /// The instruction at `pc`, if in range.
    pub fn instruction(&self, pc: usize) -> Option<&OpCode> {
        self.code.get(pc)
    }

    /// The full instruction list.
    pub fn code(&self) -> &[OpCode] {
        &self.code
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Returns `true` if the contract has no instructions.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// A content hash of the code: the hash of its [binary encoding](Contract::encode),
    /// the bytes the state root digests. Derives deterministic deployment
    /// addresses and identifies creation transactions.
    pub fn code_hash(&self) -> Hash {
        Hash::of_bytes(&self.encode())
    }

    /// Derives a deterministic deployment address from a deployer and nonce.
    pub fn deployment_address(&self, deployer: Address, nonce: u64) -> Address {
        let mut data = Vec::with_capacity(60);
        data.extend_from_slice(deployer.as_bytes());
        data.extend_from_slice(&nonce.to_le_bytes());
        data.extend_from_slice(self.code_hash().as_bytes());
        Address::from_hash(Hash::of_bytes(&data))
    }

    // ----- Commonly used contract templates (shared by tests, examples, simulators) -----

    /// A contract that does nothing and succeeds.
    pub fn noop() -> Self {
        Contract::new(vec![OpCode::Stop])
    }

    /// A contract that always reverts.
    pub fn always_revert() -> Self {
        Contract::new(vec![OpCode::Revert])
    }

    /// A counter contract: increments storage slot 0 on every call.
    pub fn counter() -> Self {
        Contract::new(vec![
            OpCode::Push(0),
            OpCode::SLoad,
            OpCode::Push(1),
            OpCode::Add,
            OpCode::Push(0),
            OpCode::SStore,
            OpCode::Stop,
        ])
    }

    /// A counter keyed by caller: each caller increments the storage slot at its
    /// own address word, so transactions from distinct senders write *disjoint*
    /// slots of one shared contract. Whole-account conflict tracking serializes
    /// every call to this contract; per-`StateKey` tracking runs them
    /// conflict-free — the contrast the granularity benchmarks measure.
    pub fn per_caller_counter() -> Self {
        Contract::new(vec![
            OpCode::Caller,
            OpCode::SLoad,
            OpCode::Push(1),
            OpCode::Add,
            OpCode::Caller,
            OpCode::SStore,
            OpCode::Stop,
        ])
    }

    /// A fee sink: accumulates argument 0 into storage slot 0 via the
    /// commutative [`OpCode::SAdd`]. Designed for zero-value calls — every
    /// caller contributes an addend and nothing else, so a delta-aware engine
    /// runs arbitrarily many calls to one sink conflict-free, while classic
    /// read-modify-write accounting (see [`Contract::per_caller_counter`])
    /// serializes them on the shared slot.
    pub fn fee_sink() -> Self {
        Contract::new(vec![
            OpCode::Arg(0),
            OpCode::Push(0),
            OpCode::SAdd,
            OpCode::Stop,
        ])
    }

    /// A forwarding wallet: sends the received value on to `beneficiary`.
    pub fn forwarder(beneficiary: Address) -> Self {
        Contract::new(vec![
            OpCode::CallValue,
            OpCode::Transfer(beneficiary),
            OpCode::Stop,
        ])
    }

    /// A proxy that forwards the received value into a call of `target` (producing a
    /// deeper internal-transaction chain, as in the ElcoinDb example of the paper).
    pub fn proxy(target: Address) -> Self {
        Contract::new(vec![OpCode::CallValue, OpCode::Call(target), OpCode::Stop])
    }

    /// A simple token ledger: transfers `amount` (argument 1) of a token balance from
    /// the caller's storage slot to the recipient's slot (argument 0 holds the
    /// recipient address' low bits, which double as the storage key).
    pub fn token() -> Self {
        Contract::new(vec![
            // load sender balance (key = caller low bits)
            OpCode::Caller,
            OpCode::SLoad,
            // subtract amount
            OpCode::Arg(1),
            OpCode::Sub,
            // store back to sender slot
            OpCode::Caller,
            OpCode::SStore,
            // load recipient balance
            OpCode::Arg(0),
            OpCode::SLoad,
            // add amount
            OpCode::Arg(1),
            OpCode::Add,
            // store back to recipient slot
            OpCode::Arg(0),
            OpCode::SStore,
            OpCode::Push(1),
            OpCode::Log,
            OpCode::Pop,
            OpCode::Stop,
        ])
    }

    /// An exchange hot wallet: pays out the call value to the address given in
    /// argument 0 (used to model Poloniex-style hubs that conflict many transactions).
    pub fn exchange_wallet() -> Self {
        Contract::new(vec![
            OpCode::CallValue,
            OpCode::TransferArg(0),
            OpCode::Push(1),
            OpCode::Log,
            OpCode::Pop,
            OpCode::Stop,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_hash_is_content_addressed() {
        assert_eq!(
            Contract::counter().code_hash(),
            Contract::counter().code_hash()
        );
        assert_ne!(
            Contract::counter().code_hash(),
            Contract::noop().code_hash()
        );
    }

    #[test]
    fn deployment_address_depends_on_deployer_and_nonce() {
        let c = Contract::counter();
        let a1 = c.deployment_address(Address::from_low(1), 0);
        let a2 = c.deployment_address(Address::from_low(1), 1);
        let a3 = c.deployment_address(Address::from_low(2), 0);
        assert_ne!(a1, a2);
        assert_ne!(a1, a3);
        assert_eq!(a1, c.deployment_address(Address::from_low(1), 0));
    }

    #[test]
    fn templates_are_nonempty_except_noop_and_revert() {
        assert_eq!(Contract::noop().len(), 1);
        assert_eq!(Contract::always_revert().len(), 1);
        assert!(Contract::counter().len() > 3);
        assert!(Contract::token().len() > 10);
    }

    #[test]
    fn instruction_accessor_bounds() {
        let c = Contract::noop();
        assert_eq!(c.instruction(0), Some(&OpCode::Stop));
        assert_eq!(c.instruction(1), None);
    }
}
