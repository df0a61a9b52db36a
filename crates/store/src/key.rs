//! State keys: the unit of access tracking and of per-key write fragments.

use blockconc_types::Address;

/// A key identifying one piece of mutable state, used by access tracking, by the
/// optimistic-concurrency engines in `blockconc-execution`, and by the write
/// fragments in this crate.
///
/// Balance and nonce are tracked at account granularity; contract storage is tracked
/// per slot, matching the storage-level conflict definition of Saraph & Herlihy that
/// the paper compares against. Deployed code is its own key: which program runs at an
/// address is consulted on every call (even a plain transfer checks for code), so it
/// must be a first-class conflict cell rather than folded into the account meta.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StateKey {
    /// The balance (and nonce) of an account.
    Balance(Address),
    /// One storage slot of a contract account.
    Storage(Address, u64),
    /// The contract code deployed at an account (or its absence).
    Code(Address),
}

impl StateKey {
    /// The account the key belongs to.
    pub fn address(&self) -> Address {
        match self {
            StateKey::Balance(addr) => *addr,
            StateKey::Storage(addr, _) => *addr,
            StateKey::Code(addr) => *addr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_expose_their_address_and_order_deterministically() {
        let a = Address::from_low(1);
        let b = Address::from_low(2);
        assert_eq!(StateKey::Balance(a).address(), a);
        assert_eq!(StateKey::Storage(b, 7).address(), b);
        assert_eq!(StateKey::Code(b).address(), b);
        let mut keys = [
            StateKey::Storage(a, 1),
            StateKey::Balance(b),
            StateKey::Balance(a),
            StateKey::Storage(a, 0),
        ];
        keys.sort();
        assert_eq!(keys[0], StateKey::Balance(a));
    }
}
