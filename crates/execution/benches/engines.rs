//! Per-block engine benchmarks, pevm-style: the same transfer block at three
//! conflict levels, executed by every engine flavour.
//!
//! The conflict knob is the share of transactions whose receiver is one hot
//! account (everything else is a disjoint pair): `low` ≈ fully parallel, `medium`
//! mixes both regimes, `high` is the adversarial hot-account case where optimistic
//! execution degrades toward (bounded) re-execution chains.
//!
//! A fourth profile, `shared-contract`, is the case the paper's hot contracts
//! pose: every transaction calls *one* contract that already holds
//! [`CONTRACT_SLOTS`] slots, each caller writing a slot of its own. Nothing
//! conflicts, so what the profile measures is what a call costs an engine when
//! the account it lands on is large.
//!
//! Engines are constructed once per benchmark so the persistent worker pools are
//! reused across iterations — the measured time is per-block execution, not
//! thread startup.

use blockconc_account::vm::Contract;
use blockconc_account::{AccountBlock, AccountTransaction, BlockBuilder, WorldState};
use blockconc_execution::{
    ExecutionEngine, OptimisticEngine, ScheduledEngine, SequentialEngine, SpeculativeEngine,
};
use blockconc_types::{Address, Amount};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;

const BLOCK_TXS: u64 = 512;
const THREADS: usize = 8;
/// Slots the shared contract holds before the block (the benchmark's
/// `contract_slots` workload ends near 3.8k).
const CONTRACT_SLOTS: u64 = 4_000;

/// Builds a transfer block where `hot_share_percent`% of the transactions pay the
/// same hot account, plus the funded pre-block state.
fn workload(hot_share_percent: u64) -> (WorldState, AccountBlock) {
    let hot = Address::from_low(9);
    let mut state = WorldState::new();
    state.credit(hot, Amount::from_coins(1));
    let txs = (0..BLOCK_TXS).map(|i| {
        let sender = Address::from_low(1_000 + i);
        let receiver = if i % 100 < hot_share_percent {
            hot
        } else {
            Address::from_low(100_000 + i)
        };
        AccountTransaction::transfer(sender, receiver, Amount::from_sats(1 + i), 0)
    });
    for i in 0..BLOCK_TXS {
        state.credit(Address::from_low(1_000 + i), Amount::from_coins(10));
    }
    let block = BlockBuilder::new(1, 0, Address::from_low(1))
        .transactions(txs)
        .build();
    (state, block)
}

/// Every transaction calls one per-caller-counter contract pre-populated with
/// [`CONTRACT_SLOTS`] slots; distinct senders, hence disjoint slots.
fn shared_contract_workload() -> (WorldState, AccountBlock) {
    let contract = Address::from_low(77_777);
    let mut state = WorldState::new();
    state.deploy_contract(contract, Arc::new(Contract::per_caller_counter()));
    for slot in 0..CONTRACT_SLOTS {
        state.storage_set(contract, 1_000_000 + slot, 1 + slot, None);
    }
    let txs = (0..BLOCK_TXS).map(|i| {
        AccountTransaction::contract_call(
            Address::from_low(1_000 + i),
            contract,
            Amount::ZERO,
            Vec::new(),
            0,
        )
    });
    for i in 0..BLOCK_TXS {
        state.credit(Address::from_low(1_000 + i), Amount::from_coins(10));
    }
    let block = BlockBuilder::new(1, 0, Address::from_low(1))
        .transactions(txs)
        .build();
    (state, block)
}

fn run_engine(c: &mut Criterion) {
    let profiles = [
        ("low", workload(0)),
        ("medium", workload(20)),
        ("high", workload(90)),
        ("shared-contract", shared_contract_workload()),
    ];
    for (profile, (state, block)) in profiles {
        let mut group = c.benchmark_group(format!("engines/{profile}"));
        group.sample_size(20);

        let mut sequential = SequentialEngine::new();
        group.bench_function("sequential", |b| {
            b.iter(|| {
                let mut s = state.clone();
                sequential.execute(&mut s, &block).unwrap()
            })
        });

        let mut speculative = SpeculativeEngine::new(THREADS);
        group.bench_with_input(
            BenchmarkId::new("speculative", THREADS),
            &THREADS,
            |b, _| {
                b.iter(|| {
                    let mut s = state.clone();
                    speculative.execute(&mut s, &block).unwrap()
                })
            },
        );

        let mut scheduled = ScheduledEngine::new(THREADS);
        group.bench_with_input(BenchmarkId::new("scheduled", THREADS), &THREADS, |b, _| {
            b.iter(|| {
                let mut s = state.clone();
                scheduled.execute(&mut s, &block).unwrap()
            })
        });

        let mut optimistic = OptimisticEngine::new(THREADS);
        group.bench_with_input(BenchmarkId::new("optimistic", THREADS), &THREADS, |b, _| {
            b.iter(|| {
                let mut s = state.clone();
                optimistic.execute(&mut s, &block).unwrap()
            })
        });

        group.finish();
    }
}

criterion_group!(benches, run_engine);
criterion_main!(benches);
