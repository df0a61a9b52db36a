//! What a call into a shared contract costs the optimistic engine must not
//! depend on how many slots the contract already holds. Counted, not timed: a
//! counting [`StateBackend`] sits under the base state and records every
//! whole-account read and every slot entry those reads copy out.
//!
//! The bound: a contract that is **resident** in the base state is never read
//! whole — zero account reads, zero slot entries copied, at any size. A contract
//! that is **not resident** (a cold working set over a reopened store) costs one
//! whole load per worker per *block* — the worker keeps it for the block — plus
//! one for the commit that makes it resident; never one per transaction.

use blockconc_account::vm::Contract;
use blockconc_account::{AccountBlock, AccountTransaction, BlockBuilder, StateAccess, WorldState};
use blockconc_execution::{ExecutionEngine, OptimisticEngine, SequentialEngine};
use blockconc_store::{
    BlockDelta, CommitStats, MemoryBackend, StateBackend, StoreStats, StoredAccount,
};
use blockconc_types::{Address, Amount, Hash, Result};
use std::sync::{Arc, Mutex};

const CONTRACT: u64 = 77_777;
const CALLS: u64 = 64;
const WORKERS: usize = 2;

/// What the backend was asked for since the last reset.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Reads {
    /// `get_account` calls that found the contract.
    contract_loads: u64,
    /// Slot entries copied out by whole-account reads, any account.
    slot_entries: u64,
}

/// A [`MemoryBackend`] that counts whole-account reads. `get` keeps the trait's
/// default (load the account, pick the key), so a per-key read of a non-resident
/// account is counted as the whole read it costs on a record-granular store.
#[derive(Debug)]
struct Counting {
    inner: MemoryBackend,
    reads: Arc<Mutex<Reads>>,
}

impl StateBackend for Counting {
    fn name(&self) -> &'static str {
        "counting"
    }
    fn get_account(&mut self, address: Address) -> Option<StoredAccount> {
        let account = self.inner.get_account(address)?;
        let mut reads = self.reads.lock().unwrap();
        reads.slot_entries += account.storage.len() as u64;
        if address == Address::from_low(CONTRACT) {
            reads.contract_loads += 1;
        }
        Some(account)
    }
    fn contains_account(&mut self, address: Address) -> bool {
        self.inner.contains_account(address)
    }
    fn begin_block(&mut self, height: u64) -> Result<()> {
        self.inner.begin_block(height)
    }
    fn commit_block(&mut self, delta: &BlockDelta) -> Result<CommitStats> {
        self.inner.commit_block(delta)
    }
    fn rollback_block(&mut self) -> Result<()> {
        self.inner.rollback_block()
    }
    fn committed_block(&self) -> Option<u64> {
        self.inner.committed_block()
    }
    fn open_height(&self) -> Option<u64> {
        self.inner.open_height()
    }
    fn account_count(&self) -> usize {
        self.inner.account_count()
    }
    fn for_each_account(
        &mut self,
        skip: &dyn Fn(Address) -> bool,
        f: &mut dyn FnMut(Address, StoredAccount),
    ) {
        self.inner.for_each_account(skip, f)
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

/// `CALLS` distinct senders each calling the per-caller counter once.
fn call_block(height: u64) -> AccountBlock {
    let txs = (0..CALLS).map(|i| {
        AccountTransaction::contract_call(
            Address::from_low(100 + i),
            Address::from_low(CONTRACT),
            Amount::ZERO,
            Vec::new(),
            height - 1,
        )
    });
    BlockBuilder::new(height, 0, Address::from_low(1))
        .transactions(txs)
        .build()
}

/// The pre-state — funded callers, the contract holding `slots` slots well away
/// from the callers' own — committed as genesis to a counting backend. Returns
/// the warm state (everything resident) and the shared counters.
fn genesis(slots: u64) -> (WorldState, Arc<Mutex<dyn StateBackend>>, Arc<Mutex<Reads>>) {
    let mut state = WorldState::new();
    for i in 0..CALLS {
        state.credit(Address::from_low(100 + i), Amount::from_coins(10));
    }
    let contract = Address::from_low(CONTRACT);
    state.deploy_contract(contract, Arc::new(Contract::per_caller_counter()));
    for slot in 0..slots {
        state.storage_set(contract, 1_000_000 + slot, 1 + slot, None);
    }
    let reads = Arc::new(Mutex::new(Reads::default()));
    let backend: Arc<Mutex<dyn StateBackend>> = Arc::new(Mutex::new(Counting {
        inner: MemoryBackend::new(),
        reads: Arc::clone(&reads),
    }));
    state.attach_backend(Arc::clone(&backend), None).unwrap();
    (state, backend, reads)
}

/// Executes and commits two blocks, returning the reads each block cost and the
/// final root.
fn run(
    engine: &mut dyn ExecutionEngine,
    mut state: WorldState,
    reads: &Mutex<Reads>,
) -> (Vec<Reads>, Hash) {
    let mut per_block = Vec::new();
    for height in 1..=2u64 {
        *reads.lock().unwrap() = Reads::default();
        state.begin_block(height).unwrap();
        let (executed, report) = engine.execute(&mut state, &call_block(height)).unwrap();
        assert!(executed.receipts().iter().all(|r| r.succeeded()));
        assert_eq!(report.sequential_fallbacks, 0);
        per_block.push(*reads.lock().unwrap());
        state.commit_block().unwrap();
    }
    (per_block, state.state_root())
}

/// A cold state over the same committed store: nothing resident.
fn cold_over(backend: &Arc<Mutex<dyn StateBackend>>) -> WorldState {
    let mut cold = WorldState::new();
    cold.attach_backend(Arc::clone(backend), None).unwrap();
    assert_eq!(cold.resident_accounts(), 0);
    cold
}

#[test]
fn a_contract_call_costs_the_keys_it_touches_not_the_slots_the_contract_holds() {
    for slots in [0u64, 10_000] {
        // The reference root, sequentially, on a store of its own.
        let (warm, _, reads) = genesis(slots);
        let (_, expected_root) = run(&mut SequentialEngine::new(), warm, &reads);

        // Resident base: the engine reads no account whole and copies no slot.
        let (warm, _, reads) = genesis(slots);
        let (per_block, root) = run(&mut OptimisticEngine::new(WORKERS), warm, &reads);
        assert_eq!(root, expected_root, "{slots} slots, resident");
        for block in &per_block {
            assert_eq!(
                *block,
                Reads::default(),
                "{slots} slots, resident: {block:?}"
            );
        }

        // Cold base: one whole load of the contract per worker for the block,
        // plus the commit's; the second block finds it resident.
        let (_, backend, reads) = genesis(slots);
        let (per_block, root) = run(
            &mut OptimisticEngine::new(WORKERS),
            cold_over(&backend),
            &reads,
        );
        assert_eq!(root, expected_root, "{slots} slots, cold");
        let first = per_block[0];
        assert!(
            (1..=WORKERS as u64 + 1).contains(&first.contract_loads),
            "{slots} slots, cold: the contract was loaded {} times for a block of {CALLS} calls \
             on {WORKERS} workers",
            first.contract_loads
        );
        // Every slot entry copied belongs to one of those loads — per block,
        // nothing per transaction.
        assert_eq!(first.slot_entries, first.contract_loads * slots);
        assert_eq!(
            per_block[1].contract_loads, 0,
            "resident after the first commit"
        );
        assert_eq!(per_block[1].slot_entries, 0);
    }
}
