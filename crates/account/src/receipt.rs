//! Execution receipts and internal transactions.

use blockconc_types::{Address, Amount, Gas, TxId};

/// A contract-to-contract interaction observed while executing a transaction.
///
/// The paper defines an internal transaction as "any interaction between contracts
/// that generates a trace in the geth client, and which is not a regular or coinbase
/// transaction". In this substrate they are emitted by the VM whenever executing a
/// `Call`/`Transfer` instruction, and the dependency-graph builder treats each one as
/// an extra (sender, receiver) edge.
///
/// # Examples
///
/// ```
/// use blockconc_types::{Address, Amount};
/// use blockconc_account::InternalTransaction;
///
/// let itx = InternalTransaction::new(Address::from_low(1), Address::from_low(2),
///                                    Amount::from_sats(10), 1);
/// assert_eq!(itx.depth(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternalTransaction {
    from: Address,
    to: Address,
    value: Amount,
    depth: usize,
}

impl InternalTransaction {
    /// Creates an internal transaction record.
    pub fn new(from: Address, to: Address, value: Amount, depth: usize) -> Self {
        InternalTransaction {
            from,
            to,
            value,
            depth,
        }
    }

    /// The calling contract (or externally owned account at depth 0 proxies).
    pub fn from(&self) -> Address {
        self.from
    }

    /// The called contract or credited account.
    pub fn to(&self) -> Address {
        self.to
    }

    /// The value transferred (possibly zero for pure calls).
    pub fn value(&self) -> Amount {
        self.value
    }

    /// The call depth at which this interaction happened (1 = directly below the
    /// externally submitted transaction).
    pub fn depth(&self) -> usize {
        self.depth
    }
}

/// The result of executing one transaction: success flag, gas used, internal
/// transactions and event-log words.
///
/// # Examples
///
/// ```
/// use blockconc_types::{Gas, TxId};
/// use blockconc_account::Receipt;
///
/// let r = Receipt::success(TxId::from_low(1), Gas::new(21_000), vec![], vec![]);
/// assert!(r.succeeded());
/// assert_eq!(r.gas_used(), Gas::new(21_000));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Receipt {
    tx_id: TxId,
    success: bool,
    gas_used: Gas,
    internal_transactions: Vec<InternalTransaction>,
    logs: Vec<u64>,
    failure_reason: Option<String>,
}

impl Receipt {
    /// Creates a receipt for a successful execution.
    pub fn success(
        tx_id: TxId,
        gas_used: Gas,
        internal_transactions: Vec<InternalTransaction>,
        logs: Vec<u64>,
    ) -> Self {
        Receipt {
            tx_id,
            success: true,
            gas_used,
            internal_transactions,
            logs,
            failure_reason: None,
        }
    }

    /// Creates a receipt for a failed (reverted) execution.
    pub fn failure(tx_id: TxId, gas_used: Gas, reason: impl Into<String>) -> Self {
        Receipt {
            tx_id,
            success: false,
            gas_used,
            internal_transactions: Vec::new(),
            logs: Vec::new(),
            failure_reason: Some(reason.into()),
        }
    }

    /// The id of the executed transaction.
    pub fn tx_id(&self) -> TxId {
        self.tx_id
    }

    /// Whether the transaction succeeded.
    pub fn succeeded(&self) -> bool {
        self.success
    }

    /// Gas consumed by the transaction (charged even on failure).
    pub fn gas_used(&self) -> Gas {
        self.gas_used
    }

    /// Internal transactions produced during execution (empty on failure).
    pub fn internal_transactions(&self) -> &[InternalTransaction] {
        &self.internal_transactions
    }

    /// Event-log words emitted during execution.
    pub fn logs(&self) -> &[u64] {
        &self.logs
    }

    /// The reason a failed transaction gave, if any.
    pub fn failure_reason(&self) -> Option<&str> {
        self.failure_reason.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_and_failure_receipts() {
        let ok = Receipt::success(TxId::from_low(1), Gas::new(100), vec![], vec![7]);
        assert!(ok.succeeded());
        assert_eq!(ok.logs(), &[7]);
        assert!(ok.failure_reason().is_none());

        let bad = Receipt::failure(TxId::from_low(2), Gas::new(21_000), "out of gas");
        assert!(!bad.succeeded());
        assert_eq!(bad.failure_reason(), Some("out of gas"));
        assert!(bad.internal_transactions().is_empty());
    }

    #[test]
    fn internal_transaction_accessors() {
        let itx = InternalTransaction::new(
            Address::from_low(3),
            Address::from_low(4),
            Amount::from_sats(5),
            2,
        );
        assert_eq!(itx.from(), Address::from_low(3));
        assert_eq!(itx.to(), Address::from_low(4));
        assert_eq!(itx.value().sats(), 5);
        assert_eq!(itx.depth(), 2);
    }
}
