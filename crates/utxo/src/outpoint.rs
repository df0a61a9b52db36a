//! References to transaction outputs.

use blockconc_types::TxId;
use std::fmt;

/// A reference to a specific output of a specific transaction.
///
/// `OutPoint` is the key of the UTXO set: spending a TXO means removing its outpoint
/// from the set.
///
/// # Examples
///
/// ```
/// use blockconc_types::TxId;
/// use blockconc_utxo::OutPoint;
///
/// let op = OutPoint::new(TxId::from_low(7), 0);
/// assert_eq!(op.vout(), 0);
/// assert_eq!(op.txid(), TxId::from_low(7));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OutPoint {
    txid: TxId,
    vout: u32,
}

impl OutPoint {
    /// Creates an outpoint referring to output `vout` of transaction `txid`.
    pub const fn new(txid: TxId, vout: u32) -> Self {
        OutPoint { txid, vout }
    }

    /// The transaction that created the referenced output.
    pub const fn txid(&self) -> TxId {
        self.txid
    }

    /// The index of the referenced output within that transaction.
    pub const fn vout(&self) -> u32 {
        self.vout
    }
}

impl fmt::Debug for OutPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OutPoint({}:{})", self.txid, self.vout)
    }
}

impl fmt::Display for OutPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.txid, self.vout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let op = OutPoint::new(TxId::from_low(3), 5);
        assert_eq!(op.txid(), TxId::from_low(3));
        assert_eq!(op.vout(), 5);
    }

    #[test]
    fn equality_and_hash_distinguish_vouts() {
        use std::collections::HashSet;
        let a = OutPoint::new(TxId::from_low(1), 0);
        let b = OutPoint::new(TxId::from_low(1), 1);
        let c = OutPoint::new(TxId::from_low(2), 0);
        let set: HashSet<_> = [a, b, c].into_iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn display_contains_vout() {
        let op = OutPoint::new(TxId::from_low(1), 9);
        assert!(format!("{op}").ends_with(":9"));
    }
}
