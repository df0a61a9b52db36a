//! Property tests for the block packers of `blockconc-pipeline`: whatever the
//! mempool contents, any block emitted by either packer must (1) execute to the
//! identical world state and receipts on the sequential, speculative and scheduled
//! engines, and (2) never violate per-sender nonce ordering.

use blockconc::pipeline::{
    block_group_sizes, BlockPacker, BlockTemplate, ConcurrencyAwarePacker, FeeGreedyPacker,
    IncrementalTdg, Mempool,
};
use blockconc::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

/// Compact pool description: each entry is `(sender_id, receiver_id, fee, kind)`.
/// Small id spaces force shared senders (nonce chains), shared receivers (components)
/// and contract calls (internal transactions) to occur naturally.
type PoolSpec = Vec<(u64, u64, u64, u8)>;

const EXCHANGE: u64 = 900;
const FORWARDER: u64 = 901;
const SINK: u64 = 902;

fn sender_address(id: u64) -> Address {
    Address::from_low(1_000 + id)
}

/// Builds the pre-block state and a mempool from a spec.
fn build_pool(spec: &PoolSpec) -> (WorldState, Mempool, IncrementalTdg) {
    let mut state = WorldState::new();
    state.deploy_contract(
        Address::from_low(FORWARDER),
        std::sync::Arc::new(blockconc::account::vm::Contract::forwarder(
            Address::from_low(SINK),
        )),
    );
    let mut pool = Mempool::new(10_000);
    let mut nonces: HashMap<Address, u64> = HashMap::new();
    for (i, &(sender_id, receiver_id, fee, kind)) in spec.iter().enumerate() {
        let sender = sender_address(sender_id);
        if state.balance(sender).is_zero() {
            state.credit(sender, Amount::from_coins(1_000));
        }
        let nonce = nonces.entry(sender).or_insert(0);
        let tx = match kind {
            // A shared exchange deposit: builds one big component.
            0 => AccountTransaction::transfer(
                sender,
                Address::from_low(EXCHANGE),
                Amount::from_sats(10),
                *nonce,
            ),
            // A contract call producing an internal transaction to the sink.
            1 => AccountTransaction::contract_call(
                sender,
                Address::from_low(FORWARDER),
                Amount::from_sats(10),
                vec![],
                *nonce,
            ),
            // An ordinary payment into a small receiver space (occasional collisions).
            _ => AccountTransaction::transfer(
                sender,
                Address::from_low(2_000 + receiver_id),
                Amount::from_sats(10),
                *nonce,
            ),
        };
        *nonce += 1;
        pool.insert(tx, fee, i as f64, 0);
    }
    let tdg = IncrementalTdg::rebuild_from(pool.iter().map(|p| &p.tx));
    (state, pool, tdg)
}

/// Every address a spec's execution can touch.
fn touched_addresses(spec: &PoolSpec) -> Vec<Address> {
    let mut addresses = vec![
        Address::from_low(EXCHANGE),
        Address::from_low(FORWARDER),
        Address::from_low(SINK),
    ];
    for &(sender_id, receiver_id, _, _) in spec {
        addresses.push(sender_address(sender_id));
        addresses.push(Address::from_low(2_000 + receiver_id));
    }
    addresses.sort_unstable();
    addresses.dedup();
    addresses
}

fn check_block_invariants(
    packed: &blockconc::pipeline::PackedBlock,
    base_state: &WorldState,
    spec: &PoolSpec,
    threads: usize,
) {
    let block = &packed.block;

    // Invariant: per-sender nonces appear in increasing contiguous order, starting at
    // the sender's account nonce.
    let mut expected: HashMap<Address, u64> = HashMap::new();
    for tx in block.transactions() {
        let next = expected
            .entry(tx.sender())
            .or_insert_with(|| base_state.nonce(tx.sender()));
        assert_eq!(
            tx.nonce(),
            *next,
            "nonce order violated for {}",
            tx.sender()
        );
        *next += 1;
    }

    // Invariant: every engine commits the identical state transition and receipts.
    let mut seq_state = base_state.clone();
    let (seq_block, _) = SequentialEngine::new()
        .execute(&mut seq_state, block)
        .expect("sequential execution");
    assert!(
        seq_block.receipts().iter().all(|r| r.succeeded()),
        "packed block contains failing transactions"
    );

    let addresses = touched_addresses(spec);
    for engine_name in ["speculative", "scheduled"] {
        let mut par_state = base_state.clone();
        let (par_block, report) = match engine_name {
            "speculative" => SpeculativeEngine::new(threads)
                .execute(&mut par_state, block)
                .expect("speculative execution"),
            _ => ScheduledEngine::new(threads)
                .execute(&mut par_state, block)
                .expect("scheduled execution"),
        };
        assert_eq!(
            seq_block.receipts(),
            par_block.receipts(),
            "{engine_name} receipts diverged from sequential"
        );
        // Speculation may legitimately be *slower* than sequential under heavy
        // conflict, but it can never report more work than a fully serial re-run of
        // both phases.
        assert!(report.parallel_units <= 2 * report.sequential_units.max(1));
        for &address in &addresses {
            assert_eq!(
                seq_state.balance(address),
                par_state.balance(address),
                "{engine_name} balance diverged at {address}"
            );
            assert_eq!(
                seq_state.nonce(address),
                par_state.nonce(address),
                "{engine_name} nonce diverged at {address}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn packed_blocks_are_serializable_on_every_engine(
        spec in proptest::collection::vec((0u64..8, 0u64..12, 1u64..1_000, 0u8..4), 1..60),
        threads in 2usize..8,
        capacity_txs in 4u64..64,
    ) {
        let gas_limit = Gas::new(capacity_txs * 80_000);
        let (state, pool, mut tdg) = build_pool(&spec);

        let template = BlockTemplate {
            height: 1, timestamp: 0, beneficiary: Address::from_low(9_999), gas_limit };
        let greedy = FeeGreedyPacker::new().pack(&pool, &mut tdg, &state, &template);
        check_block_invariants(&greedy, &state, &spec, threads);

        let aware = ConcurrencyAwarePacker::new(threads).pack(&pool, &mut tdg, &state, &template);
        check_block_invariants(&aware, &state, &spec, threads);

        // Both packers respect the gas budget under the packing estimates.
        prop_assert!(greedy.estimated_gas <= gas_limit);
        prop_assert!(aware.estimated_gas <= gas_limit);
        // The concurrency-aware packer's block never has a longer LPT makespan
        // over its block-local groups than greedy packing of the same pool.
        let makespan = |block: &blockconc::pipeline::PackedBlock| {
            lpt_makespan(&block_group_sizes(block.block.transactions()), threads)
        };
        prop_assert!(makespan(&aware) <= makespan(&greedy).max(1));
    }

    #[test]
    fn packing_drains_the_pool_without_losing_transactions(
        spec in proptest::collection::vec((0u64..6, 0u64..10, 1u64..1_000, 0u8..4), 1..40),
        threads in 2usize..8,
    ) {
        let (mut state, mut pool, mut tdg) = build_pool(&spec);
        let total = pool.len();
        let mut packed_total = 0usize;
        let mut packer = ConcurrencyAwarePacker::new(threads);
        // Repeatedly pack and execute until the pool drains; deferral must never
        // drop or wedge transactions.
        for height in 1..=total as u64 + 1 {
            let packed = packer.pack(&pool, &mut tdg, &state, &BlockTemplate {
                height, timestamp: 0, beneficiary: Address::from_low(9_999),
                gas_limit: Gas::new(12_000_000) });
            if packed.block.transaction_count() == 0 {
                break;
            }
            let (executed, _) = SequentialEngine::new()
                .execute(&mut state, &packed.block)
                .expect("execution");
            prop_assert!(executed.receipts().iter().all(|r| r.succeeded()));
            packed_total += packed.block.transaction_count();
            pool.remove_packed_returning(packed.block.transactions());
            tdg = IncrementalTdg::rebuild_from(pool.iter().map(|p| &p.tx));
        }
        prop_assert_eq!(packed_total, total, "transactions lost or wedged in the pool");
        prop_assert!(pool.is_empty());
    }
}
