//! The cross-shard transaction protocol: debit micro-block + receipt-carried
//! credit, modeled after Zilliqa's two-phase cross-shard transfers.
//!
//! A transaction whose (top-level or internal) credit targets an account owned
//! by another shard's partition executes its *debit half* on the processing
//! shard: the sender is debited and its nonce bumped exactly as usual, the
//! locally materialized phantom credit is reversed
//! ([`WorldState::withdraw_phantom`](blockconc_account::WorldState::withdraw_phantom)),
//! and a [`CrossShardReceipt`] is emitted into the cluster's in-flight queue.
//! The owner shard applies the *credit half* at the next height, inside its own
//! block's write set — so the credit is journaled, rolled into that shard's
//! state root, and visible to every later transaction it processes.
//!
//! Value conservation: while a receipt is in flight the cluster's summed shard
//! supply is short by exactly the receipt's value; once applied (latest at the
//! final settlement block) the books balance again. The equivalence tests pin
//! this down by comparing total supply after settlement.
//!
//! Receipts are *commutative*: the credit half is a pure addition, so a batch
//! of receipts due at the same height can be applied in any order — across
//! receipts from different source shards and even onto the same hot account —
//! and the owner shard reaches the same state root. This is the cross-shard
//! face of the delta-cell access class: a foreign credit is a delta
//! contribution, never an ordered read-modify-write, which is why the driver
//! drains its in-flight queue without sorting and why no cross-shard ordering
//! protocol (sequence numbers, per-pair channels) is needed for value moves.

use blockconc_types::Address;

/// One in-flight cross-shard credit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossShardReceipt {
    /// The credited account (owned by the destination shard).
    pub to: Address,
    /// The credited value in base units.
    pub value_sats: u64,
    /// The shard whose micro-block executed the debit half.
    pub source_shard: u32,
    /// The height of the debit micro-block.
    pub emit_height: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockconc_account::WorldState;
    use blockconc_types::{Amount, Hash};

    /// The commutativity claim in module docs, pinned: a height's due receipts
    /// applied in any permutation — including many onto one hot account —
    /// produce bit-identical state roots and balances on the owner shard.
    #[test]
    fn receipt_application_order_is_irrelevant() {
        let receipts: Vec<CrossShardReceipt> = (0..12u64)
            .map(|i| CrossShardReceipt {
                // Three hot accounts, four receipts each, mixed source shards.
                to: Address::from_low(50 + i % 3),
                value_sats: 1_000 + i * 37,
                source_shard: (i % 4) as u32,
                emit_height: 1 + i % 2,
            })
            .collect();

        let apply = |order: &[usize]| -> (Hash, u64) {
            let mut state = WorldState::new();
            state.credit(Address::from_low(50), Amount::from_sats(5));
            for &i in order {
                let receipt = &receipts[i];
                state.credit(receipt.to, Amount::from_sats(receipt.value_sats));
            }
            (
                state.state_root(),
                state.balance(Address::from_low(50)).sats(),
            )
        };

        let forward: Vec<usize> = (0..receipts.len()).collect();
        let baseline = apply(&forward);
        let mut reversed = forward.clone();
        reversed.reverse();
        assert_eq!(apply(&reversed), baseline);
        // Deterministic shuffles: rotate + stride permutations.
        for stride in [5usize, 7, 11] {
            let permuted: Vec<usize> = (0..receipts.len())
                .map(|i| (i * stride) % receipts.len())
                .collect();
            assert_eq!(apply(&permuted), baseline, "stride {stride}");
        }
    }
}
