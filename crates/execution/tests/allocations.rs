//! Allocation guard: once an engine has run one block, the next block of the
//! same shape allocates (almost) nothing per transaction.
//!
//! Every allocation the process makes goes through a counting global
//! allocator; the one test of this binary reads the count around a single
//! block. Block-STM (`OptimisticEngine`) reuses its scaffolding, its workers'
//! recording buffers and the version store, so a block of plain transfers
//! costs a handful of per-block allocations (result vector, job boxes,
//! lent handles) and nothing per transaction. The sequential path
//! (`BlockExecutor::execute_block`) reuses one journal and one operand stack,
//! so a block of contract calls costs its receipt vector and little else.
//!
//! Run alone, as cargo runs each integration test binary:
//! `cargo test -p blockconc-execution --test allocations`.

use blockconc_account::vm::Contract;
use blockconc_account::{
    AccountBlock, AccountTransaction, BlockBuilder, BlockExecutor, StateAccess, WorldState,
};
use blockconc_execution::{ExecutionEngine, OptimisticEngine};
use blockconc_types::{Address, Amount};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the arguments it was given;
// the counter is the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Transactions per measured block.
const TXS: u64 = 1_000;

/// The allocations `run` makes, from every thread.
fn allocations<T>(run: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = run();
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    drop(out);
    after - before
}

/// Senders at 1..=TXS and receivers at 10_001.. all funded, so a transfer
/// creates no account and the commit inserts none.
fn funded() -> WorldState {
    let mut state = WorldState::new();
    for i in 1..=TXS {
        state.credit(Address::from_low(i), Amount::from_coins(10));
        state.credit(Address::from_low(10_000 + i), Amount::from_coins(10));
    }
    state
}

/// Block `height` of conflict-free transfers: sender i pays receiver i.
fn transfers(height: u64) -> AccountBlock {
    BlockBuilder::new(height, 0, Address::from_low(0))
        .transactions((1..=TXS).map(|i| {
            AccountTransaction::transfer(
                Address::from_low(i),
                Address::from_low(10_000 + i),
                Amount::from_sats(1),
                height - 1,
            )
        }))
        .build()
}

/// Block `height` of calls into one counter contract, one per sender.
fn counter_calls(height: u64, counter: Address) -> AccountBlock {
    BlockBuilder::new(height, 0, Address::from_low(0))
        .transactions((1..=TXS).map(|i| {
            AccountTransaction::contract_call(
                Address::from_low(i),
                counter,
                Amount::ZERO,
                Vec::new(),
                height - 1,
            )
        }))
        .build()
}

#[test]
fn a_warm_engine_allocates_almost_nothing_per_transaction() {
    // Block-STM, on one participant (the caller) and on two.
    for threads in [1, 2] {
        let mut engine = OptimisticEngine::new(threads);
        let mut state = funded();
        let (warm_up, measured) = (transfers(1), transfers(2));
        engine.execute(&mut state, &warm_up).expect("warm-up block");
        let count = allocations(|| engine.execute(&mut state, &measured).expect("block"));
        let per_tx = count as f64 / TXS as f64;
        println!("optimistic x{threads}: {count} allocations, {per_tx:.3} per transaction");
        assert!(
            per_tx <= 0.5,
            "OptimisticEngine::new({threads}) made {count} allocations for {TXS} transfers"
        );
    }

    // The sequential path over contract calls.
    let counter = Address::from_low(50_000);
    let mut state = funded();
    state.deploy_contract(counter, Arc::new(Contract::counter()));
    let mut executor = BlockExecutor::new();
    let (warm_up, measured) = (counter_calls(1, counter), counter_calls(2, counter));
    executor
        .execute_block(&mut state, &warm_up)
        .expect("warm-up block");
    let count = allocations(|| {
        executor
            .execute_block(&mut state, &measured)
            .expect("block")
    });
    println!("execute_block: {count} allocations for {TXS} counter calls");
    assert!(
        count <= 4,
        "execute_block made {count} allocations for {TXS} counter calls"
    );
    assert_eq!(state.storage(counter, 0), 2 * TXS);
}
