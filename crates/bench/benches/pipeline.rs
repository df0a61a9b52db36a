//! Benchmarks the mempool/packing hot paths of `blockconc-pipeline`: stream
//! ingestion (admission + incremental TDG maintenance) and block packing with both
//! packers.

use blockconc::pipeline::{
    BlockPacker, BlockTemplate, ConcurrencyAwarePacker, FeeGreedyPacker, IncrementalTdg, Mempool,
    TrackedPool,
};
use blockconc::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn params() -> AccountWorkloadParams {
    AccountWorkloadParams {
        txs_per_block: 100.0,
        user_population: 10_000,
        fresh_receiver_share: 0.5,
        zipf_exponent: 0.4,
        hotspots: vec![HotspotSpec::exchange(0.4), HotspotSpec::contract(0.1, 3)],
        contract_create_share: 0.01,
    }
}

fn arrivals(count: usize) -> Vec<TxArrival> {
    ArrivalStream::new(params(), 50.0, count, 7).collect()
}

fn mempool_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("mempool_ingest");
    group.sample_size(10);
    for &count in &[500usize, 2_000] {
        let batch = arrivals(count);
        group.bench_with_input(BenchmarkId::from_parameter(count), &batch, |b, batch| {
            b.iter(|| {
                let mut pool = TrackedPool::new(100_000, false);
                for arrival in batch {
                    pool.offer(
                        &arrival.tx,
                        arrival.fee_per_gas,
                        arrival.arrival_secs,
                        0,
                        None,
                    );
                }
                std::hint::black_box((pool.pool().len(), pool.tdg().tx_count()))
            })
        });
    }
    group.finish();
}

fn template() -> BlockTemplate {
    BlockTemplate {
        height: 1,
        timestamp: 0,
        beneficiary: Address::from_low(9),
        gas_limit: AccountBlockBuilder::DEFAULT_GAS_LIMIT,
    }
}

fn block_packing(c: &mut Criterion) {
    let batch = arrivals(2_000);
    let mut pool = Mempool::new(100_000);
    for arrival in &batch {
        pool.insert(
            arrival.tx.clone(),
            arrival.fee_per_gas,
            arrival.arrival_secs,
            0,
        );
    }
    let tdg = IncrementalTdg::rebuild_from(pool.iter().map(|p| &p.tx));
    let mut state = WorldState::new();
    for arrival in &batch {
        if state.balance(arrival.tx.sender()).is_zero() {
            state.credit(arrival.tx.sender(), Amount::from_coins(1_000));
        }
    }

    let mut group = c.benchmark_group("block_packing");
    group.sample_size(10);
    group.bench_function("fee_greedy", |b| {
        b.iter(|| {
            let mut packer = FeeGreedyPacker::new();
            let mut tdg = tdg.clone();
            packer.pack(&pool, &mut tdg, &state, &template())
        })
    });
    for &threads in &[2usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("concurrency_aware", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let mut packer = ConcurrencyAwarePacker::new(threads);
                    let mut tdg = tdg.clone();
                    packer.pack(&pool, &mut tdg, &state, &template())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, mempool_ingest, block_packing);
criterion_main!(benches);
