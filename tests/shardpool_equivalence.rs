//! Equivalence and serializability properties of the sharded mempool.
//!
//! The sharded pool is only allowed to change *scheduling*, never *semantics*:
//!
//! 1. For any shard count, offering the same transactions in the same order must
//!    produce exactly the single [`Mempool`]'s outcomes — admissions, replacements,
//!    rejections and (globally coordinated) evictions.
//! 2. Batch ingest through the router must admit exactly what the single pool
//!    admits fed sequentially; and for any interleaving of threads calling
//!    `insert` directly, the admitted set must match too, as long as each sender's
//!    offers stay in order.
//! 3. Blocks merged from parallel per-shard sub-blocks must satisfy the same
//!    invariants as single-packer blocks: per-sender nonce order, the gas budget,
//!    and identical execution on the sequential, speculative and scheduled engines.

use blockconc::pipeline::{effective_receiver, BlockTemplate, IncrementalTdg, Mempool};
use blockconc::prelude::*;
use blockconc::shardpool::{IngestItem, IngestRouter, ShardedMempool, ShardedPacker};
use proptest::prelude::*;
use std::collections::HashMap;

const EXCHANGE: u64 = 900;
const FORWARDER: u64 = 901;
const SINK: u64 = 902;

/// Compact pool description: each entry is `(sender_id, receiver_id, fee, kind)`.
/// Small id spaces force shared senders (nonce chains), shared receivers
/// (components), replacements and contract calls to occur naturally.
type PoolSpec = Vec<(u64, u64, u64, u8)>;

fn sender_address(id: u64) -> Address {
    Address::from_low(1_000 + id)
}

/// Expands a spec into a deterministic offer sequence `(tx, fee)`. Kind 0 deposits
/// into the shared exchange, kind 1 calls the forwarder contract, kind 2 pays into
/// a small receiver space, and kind 3 re-offers the sender's previous nonce (a
/// replacement attempt exercising the 10% bump rule).
fn offers_from_spec(spec: &PoolSpec) -> Vec<(AccountTransaction, u64)> {
    let mut nonces: HashMap<u64, u64> = HashMap::new();
    let mut offers = Vec::new();
    for &(sender_id, receiver_id, fee, kind) in spec {
        let sender = sender_address(sender_id);
        let next = nonces.entry(sender_id).or_insert(0);
        let nonce = if kind == 3 && *next > 0 {
            *next - 1
        } else {
            let nonce = *next;
            *next += 1;
            nonce
        };
        let tx = match kind {
            0 => AccountTransaction::transfer(
                sender,
                Address::from_low(EXCHANGE),
                Amount::from_sats(10),
                nonce,
            ),
            1 => AccountTransaction::contract_call(
                sender,
                Address::from_low(FORWARDER),
                Amount::from_sats(10),
                vec![],
                nonce,
            ),
            _ => AccountTransaction::transfer(
                sender,
                Address::from_low(2_000 + receiver_id),
                Amount::from_sats(10),
                nonce,
            ),
        };
        offers.push((tx, fee));
    }
    offers
}

/// The resident set as comparable keys (sender, nonce, fee, stamp).
fn resident_keys_single(pool: &Mempool) -> Vec<(Address, u64, u64, u64)> {
    let mut keys: Vec<_> = pool
        .iter()
        .map(|p| (p.tx.sender(), p.tx.nonce(), p.fee_per_gas, p.seq))
        .collect();
    keys.sort_unstable();
    keys
}

fn resident_keys_sharded(pool: &ShardedMempool) -> Vec<(Address, u64, u64, u64)> {
    let mut keys: Vec<_> = pool
        .resident()
        .iter()
        .map(|p| (p.tx.sender(), p.tx.nonce(), p.fee_per_gas, p.seq))
        .collect();
    keys.sort_unstable();
    keys
}

/// The world state executed blocks run against: forwarder deployed, senders funded.
fn base_state(spec: &PoolSpec) -> WorldState {
    let mut state = WorldState::new();
    state.deploy_contract(
        Address::from_low(FORWARDER),
        std::sync::Arc::new(blockconc::account::vm::Contract::forwarder(
            Address::from_low(SINK),
        )),
    );
    for &(sender_id, _, _, _) in spec {
        let sender = sender_address(sender_id);
        if state.balance(sender).is_zero() {
            state.credit(sender, Amount::from_coins(1_000));
        }
    }
    state
}

/// Asserts every shard's incrementally maintained dependency graph agrees with a
/// from-scratch rebuild of that shard's residents: exact transaction counts at
/// all times, and — once compacted — the exact partition and address set. This is
/// the deletion-capable-TDG equivalence across admissions, packed removals,
/// migrations and rebalances (the shard graphs are never rebuilt in production;
/// the rebuild here is the test oracle).
fn assert_shard_tdgs_match_rebuild(pool: &ShardedMempool) {
    for index in 0..pool.shard_count() {
        pool.with_shard(index, |shard_pool, shard_tdg| {
            let txs: Vec<AccountTransaction> =
                shard_pool.iter().map(|pooled| pooled.tx.clone()).collect();
            let mut rebuilt = IncrementalTdg::rebuild_from(txs.iter());
            assert_eq!(
                shard_tdg.tx_count(),
                rebuilt.tx_count(),
                "shard {index}: live tx count diverged"
            );
            let mut compacted = shard_tdg.clone();
            compacted.compact();
            assert_eq!(
                compacted.address_count(),
                rebuilt.address_count(),
                "shard {index}: address set diverged after compaction"
            );
            let mut compacted_sizes = compacted.component_tx_counts();
            let mut rebuilt_sizes = rebuilt.component_tx_counts();
            compacted_sizes.sort_unstable();
            rebuilt_sizes.sort_unstable();
            assert_eq!(
                compacted_sizes, rebuilt_sizes,
                "shard {index}: component sizes diverged after compaction"
            );
            // Same partition, address by address.
            let mut pairing: HashMap<usize, usize> = HashMap::new();
            let mut reverse: HashMap<usize, usize> = HashMap::new();
            for tx in &txs {
                for address in [tx.sender(), effective_receiver(tx)] {
                    let a = compacted
                        .component_of(address)
                        .expect("live address is interned");
                    let b = rebuilt
                        .component_of(address)
                        .expect("live address is in the rebuild");
                    assert_eq!(
                        *pairing.entry(a).or_insert(b),
                        b,
                        "shard {index}: compacted component split"
                    );
                    assert_eq!(
                        *reverse.entry(b).or_insert(a),
                        a,
                        "shard {index}: compacted component over-merged"
                    );
                }
            }
        });
    }
}

/// `ShardedMempool::insert` is `&self`: threads offering disjoint sender sets, each
/// sender's offers in order, must reach the pool the single [`Mempool`] reaches
/// sequentially — whatever order the router lock serves them in. Capacity is ample,
/// so no outcome depends on that order; a barrier makes the threads contend.
#[test]
fn concurrent_inserts_on_disjoint_senders_match_the_single_pool() {
    const THREADS: u64 = 4;
    // Every kind of offer, over shared receivers so components fuse and chains
    // migrate while other threads admit into them.
    let spec: PoolSpec = (0..600u64)
        .map(|i| {
            (
                i % 24,
                (i * 7 + i / 24) % 8,
                10 + (i * 13) % 500,
                ((i + i / 24) % 4) as u8,
            )
        })
        .collect();
    let offers = offers_from_spec(&spec);
    let stamped: Vec<(u64, &(AccountTransaction, u64))> = (0..).zip(&offers).collect();

    let mut single = Mempool::new(10_000);
    for &(stamp, (tx, fee)) in &stamped {
        single.offer(tx.clone(), *fee, stamp as f64, 0, Some(stamp));
    }

    let sharded = ShardedMempool::new(3, 10_000);
    let barrier = std::sync::Barrier::new(THREADS as usize);
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let (sharded, barrier, stamped) = (&sharded, &barrier, &stamped);
            scope.spawn(move || {
                barrier.wait();
                for &(stamp, (tx, fee)) in stamped {
                    if tx.sender().low_u64() % THREADS == thread {
                        sharded.insert(tx.clone(), *fee, stamp as f64, 0, Some(stamp));
                    }
                }
            });
        }
    });

    assert_eq!(
        resident_keys_single(&single),
        resident_keys_sharded(&sharded)
    );
    assert_eq!(single.stats(), sharded.stats());
    assert!(single.stats().replaced > 0 && single.stats().rejected_nonce == 0);
    // Whether the concurrent run migrates depends on which thread routes a
    // component first; inserted in stamp order, the offers must fuse.
    let in_order = ShardedMempool::new(3, 10_000);
    for &(stamp, (tx, fee)) in &stamped {
        in_order.insert(tx.clone(), *fee, stamp as f64, 0, Some(stamp));
    }
    assert!(
        in_order.migrated_chains() > 0,
        "the offers must fuse components"
    );
    sharded.assert_shard_disjointness();
    assert_shard_tdgs_match_rebuild(&sharded);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    // Property 1: same offers, same order → bit-identical admission behaviour for
    // any shard count, including capacity evictions (the capacity range is small
    // enough that eviction pressure is routinely exercised).
    #[test]
    fn sequential_admission_is_equivalent_to_the_single_pool(
        spec in proptest::collection::vec((0u64..10, 0u64..8, 1u64..1_000, 0u8..4), 1..80),
        shards in 1usize..6,
        capacity in 3usize..40,
    ) {
        let offers = offers_from_spec(&spec);
        let mut single = Mempool::new(capacity);
        let sharded = ShardedMempool::new(shards, capacity);
        for (i, (tx, fee)) in offers.iter().enumerate() {
            let expected = single.offer(tx.clone(), *fee, i as f64, 0, Some(i as u64)).outcome;
            let actual = sharded.insert(tx.clone(), *fee, i as f64, 0, Some(i as u64));
            prop_assert_eq!(expected, actual, "offer {} diverged ({} shards)", i, shards);
        }
        prop_assert_eq!(resident_keys_single(&single), resident_keys_sharded(&sharded));
        prop_assert_eq!(single.stats(), sharded.stats());
        prop_assert_eq!(single.len(), sharded.len());
        sharded.assert_shard_disjointness();
        // Admissions, replacements and capacity evictions all edited the shard
        // graphs incrementally; they must still match a rebuild oracle.
        assert_shard_tdgs_match_rebuild(&sharded);
    }

    // Property 2: batch ingestion admits exactly the set the single pool admits
    // sequentially.
    #[test]
    fn concurrent_ingest_is_equivalent_to_sequential_admission(
        spec in proptest::collection::vec((0u64..14, 0u64..8, 1u64..1_000, 0u8..4), 1..80),
        shards in 1usize..6,
    ) {
        let offers = offers_from_spec(&spec);
        let mut single = Mempool::new(10_000);
        for (i, (tx, fee)) in offers.iter().enumerate() {
            single.offer(tx.clone(), *fee, i as f64, 0, Some(i as u64));
        }

        let sharded = ShardedMempool::new(shards, 10_000);
        let router = IngestRouter::new(1, 8);
        let items: Vec<IngestItem> = offers
            .iter()
            .enumerate()
            .map(|(i, (tx, fee))| IngestItem {
                tx: tx.clone(),
                fee_per_gas: *fee,
                arrival_secs: i as f64,
                account_nonce: 0,
                stamp: i as u64,
            })
            .collect();
        let report = router.ingest(&sharded, items);

        prop_assert_eq!(report.items, offers.len());
        prop_assert_eq!(resident_keys_single(&single), resident_keys_sharded(&sharded));
        prop_assert_eq!(single.stats(), sharded.stats());
        sharded.assert_shard_disjointness();
    }

    // Property 3: blocks merged from parallel per-shard sub-blocks execute to the
    // identical state and receipts on every engine, respect per-sender nonce order
    // and stay within the gas budget.
    #[test]
    fn merged_sharded_blocks_are_serializable_on_every_engine(
        spec in proptest::collection::vec((0u64..8, 0u64..12, 1u64..1_000, 0u8..3), 1..60),
        shards in 1usize..6,
        threads in 2usize..8,
        capacity_txs in 4u64..64,
    ) {
        let offers = offers_from_spec(&spec);
        let state = base_state(&spec);
        let sharded = ShardedMempool::new(shards, 10_000);
        for (i, (tx, fee)) in offers.iter().enumerate() {
            sharded.insert(tx.clone(), *fee, i as f64, 0, Some(i as u64));
        }

        let gas_limit = Gas::new(capacity_txs * 80_000);
        let template = BlockTemplate {
            height: 1,
            timestamp: 0,
            beneficiary: Address::from_low(9_999),
            gas_limit,
        };
        let mut packer = ShardedPacker::new(shards, threads);
        let (packed, _) = packer.pack(&sharded, &state, &template);
        prop_assert!(packed.estimated_gas <= gas_limit);

        // Per-sender nonce order within the merged block.
        let mut expected: HashMap<Address, u64> = HashMap::new();
        for tx in packed.block.transactions() {
            let next = expected.entry(tx.sender()).or_insert(0);
            prop_assert_eq!(tx.nonce(), *next, "nonce order violated for {}", tx.sender());
            *next += 1;
        }

        // Identical state transition and receipts on every engine.
        let mut seq_state = state.clone();
        let (seq_block, _) = SequentialEngine::new()
            .execute(&mut seq_state, &packed.block)
            .expect("sequential execution");
        prop_assert!(
            seq_block.receipts().iter().all(|r| r.succeeded()),
            "merged block contains failing transactions"
        );
        let addresses = touched_addresses(&spec);
        for engine_name in ["speculative", "scheduled"] {
            let mut par_state = state.clone();
            let (par_block, _) = match engine_name {
                "speculative" => SpeculativeEngine::new(threads)
                    .execute(&mut par_state, &packed.block)
                    .expect("speculative execution"),
                _ => ScheduledEngine::new(threads)
                    .execute(&mut par_state, &packed.block)
                    .expect("scheduled execution"),
            };
            prop_assert_eq!(
                seq_block.receipts(),
                par_block.receipts(),
                "{} receipts diverged from sequential",
                engine_name
            );
            for &address in &addresses {
                prop_assert_eq!(
                    seq_state.balance(address),
                    par_state.balance(address),
                    "{} balance diverged at {}",
                    engine_name,
                    address
                );
                prop_assert_eq!(
                    seq_state.nonce(address),
                    par_state.nonce(address),
                    "{} nonce diverged at {}",
                    engine_name,
                    address
                );
            }
        }
    }

    // Repeated sharded packing drains the pool completely: deferral (in-shard or
    // at the merge) never drops or wedges transactions.
    #[test]
    fn sharded_packing_drains_the_pool_without_losing_transactions(
        spec in proptest::collection::vec((0u64..6, 0u64..10, 1u64..1_000, 0u8..3), 1..40),
        shards in 1usize..5,
        threads in 2usize..8,
    ) {
        let offers = offers_from_spec(&spec);
        let mut state = base_state(&spec);
        let sharded = ShardedMempool::new(shards, 10_000);
        for (i, (tx, fee)) in offers.iter().enumerate() {
            sharded.insert(tx.clone(), *fee, i as f64, 0, Some(i as u64));
        }
        let total = sharded.len();
        let mut packer = ShardedPacker::new(shards, threads);
        let mut packed_total = 0usize;
        for height in 1..=total as u64 + 1 {
            let template = BlockTemplate {
                height,
                timestamp: 0,
                beneficiary: Address::from_low(9_999),
                gas_limit: Gas::new(12_000_000),
            };
            let (packed, _) = packer.pack(&sharded, &state, &template);
            if packed.block.transaction_count() == 0 {
                break;
            }
            let (executed, _) = SequentialEngine::new()
                .execute(&mut state, &packed.block)
                .expect("execution");
            prop_assert!(executed.receipts().iter().all(|r| r.succeeded()));
            packed_total += packed.block.transaction_count();
            sharded.remove_packed(packed.block.transactions());
            if height % 2 == 0 {
                sharded.rebalance();
            }
            sharded.assert_shard_disjointness();
            // Packed removals and rebalance migrations are incremental TDG
            // edits; after every block the graphs must match a rebuild oracle.
            assert_shard_tdgs_match_rebuild(&sharded);
        }
        prop_assert_eq!(packed_total, total, "transactions lost or wedged in the pool");
        prop_assert!(sharded.is_empty());
    }
}
