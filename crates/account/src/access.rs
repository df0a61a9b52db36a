//! Per-transaction access sets and the storage-layer conflict relation.
//!
//! [`AccessSet::conflicts_with`] is the swappability condition of Bartoletti
//! et al., *A theory of transaction parallelism in blockchains*
//! (arXiv:2011.13837), extended with commutative deltas: two transactions whose
//! access sets do not conflict can run in either order from the same state and
//! reach the same state with the same receipts. The tests below check exactly
//! that on generated pairs, for the classic executor's access sets and for
//! the delta executor's, whose pairs are harvested off a scratch state and
//! committed the way the optimistic engine commits them.

use blockconc_store::StateKey;
use std::cmp::Ordering;

/// The read, write and delta sets collected while executing one transaction.
///
/// A *delta* access is a commutative merge on a key — a pure balance credit or a
/// counter increment — whose final value does not depend on the order in which
/// concurrent deltas land. Two transactions conflict at the storage layer iff one
/// writes a key the other reads, writes or delta-merges, or one delta-merges a
/// key the other reads. Delta∧delta on the same key does **not** conflict: that
/// is the property that dissolves hot fee-sink accounts into independent work.
///
/// Keys are kept in sorted, deduplicated small vectors rather than hash sets: the
/// typical transaction touches a handful of keys, so [`conflicts_with`] is a linear
/// two-pointer merge over cache-friendly slices instead of per-key re-hashing — the
/// hot loop of optimistic-concurrency conflict detection (benchmarked in
/// `crates/bench/benches/access_set.rs`).
///
/// [`conflicts_with`]: AccessSet::conflicts_with
///
/// # Examples
///
/// ```
/// use blockconc_types::Address;
/// use blockconc_account::{AccessSet, StateKey};
///
/// let mut a = AccessSet::new();
/// a.record_delta(StateKey::Balance(Address::from_low(1)));
/// let mut b = AccessSet::new();
/// b.record_delta(StateKey::Balance(Address::from_low(1)));
/// assert!(!a.conflicts_with(&b)); // commutative credits never conflict
/// let mut r = AccessSet::new();
/// r.record_read(StateKey::Balance(Address::from_low(1)));
/// assert!(a.conflicts_with(&r)); // an observer still orders against them
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessSet {
    reads: Vec<StateKey>,
    writes: Vec<StateKey>,
    deltas: Vec<StateKey>,
}

/// Inserts `key` into a sorted vector, keeping it sorted and duplicate-free.
fn insert_sorted(set: &mut Vec<StateKey>, key: StateKey) {
    if let Err(pos) = set.binary_search(&key) {
        set.insert(pos, key);
    }
}

/// Returns `true` if two sorted slices share an element (two-pointer merge).
fn sorted_intersects(a: &[StateKey], b: &[StateKey]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => return true,
        }
    }
    false
}

impl AccessSet {
    /// Creates an empty access set.
    pub fn new() -> Self {
        AccessSet::default()
    }

    /// Records a read of `key`.
    pub fn record_read(&mut self, key: StateKey) {
        insert_sorted(&mut self.reads, key);
    }

    /// Records a write of `key`. An absolute write subsumes any delta previously
    /// recorded on the same key (the order-dependent access is the stronger one).
    pub fn record_write(&mut self, key: StateKey) {
        insert_sorted(&mut self.writes, key);
        if let Ok(pos) = self.deltas.binary_search(&key) {
            self.deltas.remove(pos);
        }
    }

    /// Records a commutative delta merge on `key`. A no-op when the key is
    /// already in the write set — the write already carries the stronger class.
    pub fn record_delta(&mut self, key: StateKey) {
        if self.writes.binary_search(&key).is_ok() {
            return;
        }
        insert_sorted(&mut self.deltas, key);
    }

    /// Keys read by the transaction, in sorted order.
    pub fn reads(&self) -> &[StateKey] {
        &self.reads
    }

    /// Keys written by the transaction, in sorted order.
    pub fn writes(&self) -> &[StateKey] {
        &self.writes
    }

    /// Keys delta-merged by the transaction, in sorted order.
    pub fn deltas(&self) -> &[StateKey] {
        &self.deltas
    }

    /// Returns `true` if this access set conflicts with `other`: a write in one
    /// intersects a read, write or delta in the other, or a delta in one
    /// intersects a read in the other. Delta∧delta never conflicts — commutative
    /// merges reorder freely.
    pub fn conflicts_with(&self, other: &AccessSet) -> bool {
        sorted_intersects(&self.writes, &other.writes)
            || sorted_intersects(&self.writes, &other.reads)
            || sorted_intersects(&other.writes, &self.reads)
            || sorted_intersects(&self.writes, &other.deltas)
            || sorted_intersects(&other.writes, &self.deltas)
            || sorted_intersects(&self.deltas, &other.reads)
            || sorted_intersects(&other.deltas, &self.reads)
    }

    /// Merges another access set into this one (used when a transaction triggers
    /// nested contract calls).
    pub fn merge(&mut self, other: &AccessSet) {
        for key in &other.reads {
            insert_sorted(&mut self.reads, *key);
        }
        for key in &other.writes {
            self.record_write(*key);
        }
        for key in &other.deltas {
            self.record_delta(*key);
        }
    }

    /// Forgets every recorded key, keeping the allocations, so one set can
    /// record transaction after transaction.
    pub fn clear(&mut self) {
        self.reads.clear();
        self.writes.clear();
        self.deltas.clear();
    }

    /// Returns `true` if no reads, writes or deltas were recorded.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty() && self.deltas.is_empty()
    }
}

/// Where the executor and the interpreter record the keys a transaction
/// touches. The recorder's type decides whether anything is recorded:
/// [`AccessSet`] keeps the keys for the engines that read them, and the
/// crate's zero-sized no-op recorder keeps nothing, so a path no caller
/// reads an access set on compiles to no recording at all.
pub trait AccessRecorder {
    /// Records a read of `key`.
    fn record_read(&mut self, key: StateKey);
    /// Records an ordered write of `key`.
    fn record_write(&mut self, key: StateKey);
    /// Records a commutative delta merge on `key`.
    fn record_delta(&mut self, key: StateKey);
}

impl AccessRecorder for AccessSet {
    fn record_read(&mut self, key: StateKey) {
        AccessSet::record_read(self, key);
    }

    fn record_write(&mut self, key: StateKey) {
        AccessSet::record_write(self, key);
    }

    fn record_delta(&mut self, key: StateKey) {
        AccessSet::record_delta(self, key);
    }
}

/// The recorder that records nothing: the sequential block path
/// ([`BlockExecutor::execute_block`](crate::BlockExecutor::execute_block)) and
/// [`Interpreter::call`](crate::vm::Interpreter::call) run on it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NoAccesses;

impl AccessRecorder for NoAccesses {
    fn record_read(&mut self, _: StateKey) {}

    fn record_write(&mut self, _: StateKey) {}

    fn record_delta(&mut self, _: StateKey) {}
}

#[cfg(test)]
mod tests {
    use crate::scratch::tests::{commit_harvest, MapCells};
    use crate::vm::{Contract, OpCode};
    use crate::{
        AccessSet, AccountTransaction, BlockBuilder, BlockExecutor, Journal, Receipt, ScratchState,
        StateAccess, WorldState,
    };
    use blockconc_store::{shared, MemoryBackend};
    use blockconc_types::{Address, Amount, Gas, Hash};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Plain accounts are `1..PLAIN` (funded) and `PLAIN` (never funded); the
    /// lab contract lives at `LAB`, and a proxy into it at `PROXY`. A call
    /// through the proxy reaches the lab's slots without the classic receiver
    /// write on the lab's balance, so only a slot read orders it against a
    /// direct lab call.
    const PLAIN: u64 = 5;
    const PROXY: u64 = 8;
    const LAB: u64 = 9;

    /// A contract dispatching on argument 0, slot in argument 1, operand in
    /// argument 2: `1` stores the operand, `2` loads the slot and logs it, `3`
    /// `SAdd`s the operand, `4` pays the operand to the address in argument 3
    /// (reverting when the contract cannot cover it), `5` stores and then
    /// reverts. Anything else — a plain credit carries no arguments — stops.
    fn lab_contract() -> Contract {
        use OpCode::*;
        let mut code = Vec::new();
        for (op, target) in [(1, 21), (2, 25), (3, 30), (4, 34), (5, 37)] {
            code.extend([Arg(0), Push(op), Sub, JumpIfZero(target)]);
        }
        code.extend([
            // 20: no operation.
            Stop,
            // 21: store.
            Arg(2),
            Arg(1),
            SStore,
            Stop,
            // 25: load and log.
            Arg(1),
            SLoad,
            Log,
            Pop,
            Stop,
            // 30: accumulate.
            Arg(2),
            Arg(1),
            SAdd,
            Stop,
            // 34: pay.
            Arg(2),
            TransferArg(3),
            Stop,
            // 37: store, then revert.
            Arg(2),
            Arg(1),
            SStore,
            Revert,
        ]);
        Contract::new(code)
    }

    /// The funded plain accounts, the lab holding two live slots and fewer sats
    /// than some payouts ask for, and the proxy.
    fn pre_state() -> WorldState {
        let mut state = WorldState::new();
        for i in 1..PLAIN {
            state.credit(Address::from_low(i), Amount::from_sats(1_000));
        }
        let lab = Address::from_low(LAB);
        state.deploy_contract(lab, Arc::new(lab_contract()));
        state.credit(lab, Amount::from_sats(500));
        state.storage_set(lab, 0, 10, None);
        state.storage_set(lab, 1, 20, None);
        state.deploy_contract(Address::from_low(PROXY), Arc::new(Contract::proxy(lab)));
        state
    }

    /// One raw generated transaction: `(sender, kind, roll, sats)`.
    type RawTx = (u64, u64, u64, u64);

    fn raw_tx() -> impl Strategy<Value = RawTx> {
        (1..PLAIN, 0u64..5, 0u64..1_000, 0u64..1_200)
    }

    /// Kind 0 is a plain transfer (one that overdraws fails validation), 1 a
    /// credit into the lab, 2 and 3 a lab call over slots 0..=2 without and
    /// with value attached, 4 the same call through the proxy.
    fn transaction((sender, kind, roll, sats): RawTx) -> AccountTransaction {
        let (sender, lab) = (Address::from_low(sender), Address::from_low(LAB));
        match kind {
            0 => AccountTransaction::transfer(
                sender,
                Address::from_low(1 + roll % PLAIN),
                Amount::from_sats(sats),
                0,
            ),
            1 => AccountTransaction::transfer(sender, lab, Amount::from_sats(1 + sats % 100), 0),
            _ => AccountTransaction::contract_call(
                sender,
                Address::from_low(if kind == 4 { PROXY } else { LAB }),
                Amount::from_sats(if kind == 3 { sats % 50 } else { 0 }),
                vec![
                    1 + roll % 5,
                    roll / 5 % 3,
                    1 + sats % 700,
                    1 + roll / 15 % PLAIN,
                ],
                0,
            ),
        }
    }

    /// `first` then `second` from the pre-state: the root and the receipts.
    fn run_in_order(
        first: &AccountTransaction,
        second: &AccountTransaction,
    ) -> (Hash, Vec<Receipt>) {
        let mut state = pre_state();
        let block = BlockBuilder::new(1, 0, Address::from_low(99))
            .transaction(first.clone())
            .transaction(second.clone())
            .build();
        let executed = BlockExecutor::new()
            .execute_block(&mut state, &block)
            .expect("a block always executes");
        (state.state_root(), executed.receipts().to_vec())
    }

    /// Whether `a` and `b` are swappable — both valid on the pre-state, with
    /// non-conflicting access sets there — after checking that, if so, either
    /// order reaches the same state with the same per-transaction receipts.
    fn swappable_pair_commutes(a: &AccountTransaction, b: &AccountTransaction) -> bool {
        let access = |tx| {
            BlockExecutor::new()
                .execute_transaction(&mut pre_state(), tx)
                .ok()
                .map(|ctx| ctx.access)
        };
        let (Some(access_a), Some(access_b)) = (access(a), access(b)) else {
            return false;
        };
        if access_a.conflicts_with(&access_b) {
            return false;
        }
        let (root_ab, receipts_ab) = run_in_order(a, b);
        let (root_ba, mut receipts_ba) = run_in_order(b, a);
        receipts_ba.reverse();
        assert_eq!(root_ab, root_ba, "{a:?}\n{b:?}");
        assert_eq!(receipts_ab, receipts_ba, "{a:?}\n{b:?}");
        true
    }

    /// `first` then `second` from the pre-state, each executed by the delta
    /// executor on a scratch state over the state its predecessor committed,
    /// and each harvest — write fragments and delta ops — committed the way
    /// the optimistic engine commits a transaction's cells: the root and the
    /// receipts.
    fn run_in_order_harvested(
        first: &AccountTransaction,
        second: &AccountTransaction,
    ) -> (Hash, Vec<Receipt>) {
        let mut state = pre_state();
        state
            .attach_backend(shared(MemoryBackend::new()), None)
            .expect("attach backend");
        state.begin_block(1).expect("begin block");
        let mut executor = BlockExecutor::with_delta_accesses();
        let (mut journal, mut access) = (Journal::new(), AccessSet::new());
        let receipts = [first, second]
            .into_iter()
            .map(|tx| {
                let mut scratch = ScratchState::new(MapCells::of(&state));
                let receipt = executor
                    .execute_recorded(&mut scratch, tx, &mut journal, &mut access)
                    .unwrap_or_else(|err| Receipt::failure(tx.id(), Gas::ZERO, err.to_string()));
                commit_harvest(&mut state, &mut scratch);
                receipt
            })
            .collect();
        (state.state_root(), receipts)
    }

    /// The delta-mode twin of [`swappable_pair_commutes`]: whether `a` and
    /// `b` are swappable under the delta executor's access sets on the
    /// pre-state, after checking that, if so, both orders harvest and commit
    /// to the same state with the same per-transaction receipts.
    fn delta_swappable_pair_commutes(a: &AccountTransaction, b: &AccountTransaction) -> bool {
        let access = |tx| {
            let mut scratch = ScratchState::new(MapCells::of(&pre_state()));
            BlockExecutor::with_delta_accesses()
                .execute_transaction(&mut scratch, tx)
                .ok()
                .map(|ctx| ctx.access)
        };
        let (Some(access_a), Some(access_b)) = (access(a), access(b)) else {
            return false;
        };
        if access_a.conflicts_with(&access_b) {
            return false;
        }
        let (root_ab, receipts_ab) = run_in_order_harvested(a, b);
        let (root_ba, mut receipts_ba) = run_in_order_harvested(b, a);
        receipts_ba.reverse();
        assert_eq!(root_ab, root_ba, "{a:?}\n{b:?}");
        assert_eq!(receipts_ab, receipts_ba, "{a:?}\n{b:?}");
        true
    }

    // Swappability (the first half of the conflict relation's soundness):
    // access sets that do not conflict mean the two transactions commute —
    // the classic executor's on the resident state, and the delta executor's
    // through the scratch-state harvest, where commutative credits and `SAdd`
    // increments to one key do not conflict. Each batch must reach both kinds
    // of pair.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn non_conflicting_pairs_commute(pairs in proptest::collection::vec((raw_tx(), raw_tx()), 64)) {
            let swappable = pairs
                .into_iter()
                .filter(|&(a, b)| swappable_pair_commutes(&transaction(a), &transaction(b)))
                .count();
            prop_assert!((1..64).contains(&swappable), "{swappable} of 64 pairs swappable");
        }

        #[test]
        fn non_conflicting_delta_pairs_commute_through_the_harvest(
            pairs in proptest::collection::vec((raw_tx(), raw_tx()), 64),
        ) {
            let swappable = pairs
                .into_iter()
                .filter(|&(a, b)| delta_swappable_pair_commutes(&transaction(a), &transaction(b)))
                .count();
            prop_assert!((1..64).contains(&swappable), "{swappable} of 64 pairs swappable");
        }
    }

    /// The delta executor's access sets relax exactly what commutes: two
    /// credits to one account, and two `SAdd`s into one lab slot, conflict
    /// under the classic executor and not under the delta executor — and
    /// either order commits the same state through the harvest.
    #[test]
    fn commutative_pairs_are_swappable_only_in_delta_mode() {
        let (a, b) = (Address::from_low(1), Address::from_low(2));
        let lab = Address::from_low(LAB);
        let pairs = [
            (
                AccountTransaction::transfer(a, Address::from_low(3), Amount::from_sats(5), 0),
                AccountTransaction::transfer(b, Address::from_low(3), Amount::from_sats(7), 0),
            ),
            (
                AccountTransaction::contract_call(a, lab, Amount::ZERO, vec![3, 2, 11], 0),
                AccountTransaction::contract_call(b, lab, Amount::ZERO, vec![3, 2, 13], 0),
            ),
        ];
        for (first, second) in &pairs {
            assert!(!swappable_pair_commutes(first, second), "{first:?}");
            assert!(delta_swappable_pair_commutes(first, second), "{first:?}");
        }
    }
}
