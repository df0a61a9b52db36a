//! Transaction outputs.

use blockconc_types::{Address, Amount};

/// A transaction output: a value locked to an owner.
///
/// Real Bitcoin locks outputs with a script; the paper's analysis never inspects
/// scripts, only the ownership relation needed by the workload generators, so the
/// "script" here is simply the owning address.
///
/// # Examples
///
/// ```
/// use blockconc_types::{Address, Amount};
/// use blockconc_utxo::TxOut;
///
/// let out = TxOut::new(Address::from_low(1), Amount::from_coins(2));
/// assert_eq!(out.value(), Amount::from_coins(2));
/// assert_eq!(out.owner(), Address::from_low(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxOut {
    owner: Address,
    value: Amount,
}

impl TxOut {
    /// Creates an output of `value` owned by `owner`.
    pub const fn new(owner: Address, value: Amount) -> Self {
        TxOut { owner, value }
    }

    /// The address that can spend this output.
    pub const fn owner(&self) -> Address {
        self.owner
    }

    /// The value carried by this output.
    pub const fn value(&self) -> Amount {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let out = TxOut::new(Address::from_low(9), Amount::from_sats(123));
        assert_eq!(out.owner(), Address::from_low(9));
        assert_eq!(out.value().sats(), 123);
    }

    #[test]
    fn equality_is_structural() {
        let a = TxOut::new(Address::from_low(1), Amount::from_sats(5));
        let b = TxOut::new(Address::from_low(1), Amount::from_sats(5));
        let c = TxOut::new(Address::from_low(1), Amount::from_sats(6));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
