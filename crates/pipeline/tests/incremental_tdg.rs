//! Randomized cross-check of the streaming incremental TDG against from-scratch
//! rebuilds, driven by real chainsim arrival streams: after every mutation batch
//! — insertions *and* the departures a running pool produces (packed blocks,
//! evictions, replacements) — the online structure and a full rebuild must
//! describe the same partition (exactly once compacted; conservatively, with
//! identical aggregate counts, in between).

use blockconc_account::AccountTransaction;
use blockconc_chainsim::{AccountWorkloadParams, ArrivalStream, FeeEscalationSpec, HotspotSpec};
use blockconc_pipeline::{effective_receiver, AdmitOutcome, IncrementalTdg, TrackedPool};
use blockconc_types::{Address, DeterministicRng};
use std::collections::HashMap;

fn workload(seed: u64) -> ArrivalStream {
    workload_of(seed, 400)
}

fn workload_of(seed: u64, total_txs: usize) -> ArrivalStream {
    let params = AccountWorkloadParams {
        txs_per_block: 50.0,
        user_population: 500, // small population => frequent component merges
        fresh_receiver_share: 0.3,
        zipf_exponent: 0.8,
        hotspots: vec![
            HotspotSpec::exchange(0.25),
            HotspotSpec::pool(0.05),
            HotspotSpec::contract(0.1, 3),
        ],
        contract_create_share: 0.02,
    };
    ArrivalStream::new(params, 10.0, total_txs, seed)
}

/// Canonical partition fingerprint: sorted list of sorted address groups, restricted
/// to addresses the transactions reference.
fn partition(tdg: &mut IncrementalTdg, txs: &[AccountTransaction]) -> Vec<Vec<u64>> {
    let mut groups: HashMap<usize, Vec<u64>> = HashMap::new();
    let mut seen = std::collections::HashSet::new();
    for tx in txs {
        for address in [tx.sender(), effective_receiver(tx)] {
            if seen.insert(address) {
                let root = tdg.component_of(address).expect("address was inserted");
                groups.entry(root).or_default().push(address.low_u64());
            }
        }
    }
    let mut result: Vec<Vec<u64>> = groups
        .into_values()
        .map(|mut group| {
            group.sort_unstable();
            group
        })
        .collect();
    result.sort();
    result
}

/// Exact after compaction: a maintained graph over `live` describes the same
/// partition, counts and addresses as a from-scratch rebuild.
fn assert_compacted_matches_rebuild(
    streaming: &IncrementalTdg,
    live: &[AccountTransaction],
    context: &str,
) {
    let mut rebuilt = IncrementalTdg::rebuild_from(live.iter());
    let mut compacted = streaming.clone();
    compacted.compact();
    assert_eq!(compacted.tx_count(), live.len(), "{context}");
    assert_eq!(
        compacted.address_count(),
        rebuilt.address_count(),
        "{context}"
    );
    let mut compacted_sizes = compacted.component_tx_counts();
    let mut rebuilt_sizes = rebuilt.component_tx_counts();
    compacted_sizes.sort_unstable();
    rebuilt_sizes.sort_unstable();
    assert_eq!(compacted_sizes, rebuilt_sizes, "{context}");
    assert_eq!(
        partition(&mut compacted, live),
        partition(&mut rebuilt, live),
        "{context}: compacted partition diverged"
    );
}

#[test]
fn streaming_union_agrees_with_rebuild_after_every_batch() {
    for seed in 0..3u64 {
        let mut rng = DeterministicRng::seed(seed ^ 0xbeef);
        let mut streaming = IncrementalTdg::new();
        let mut inserted: Vec<AccountTransaction> = Vec::new();

        let mut stream = workload(seed);
        loop {
            // Random batch sizes model irregular ingestion bursts.
            let batch: Vec<_> = (&mut stream).take(rng.range(1, 40) as usize).collect();
            if batch.is_empty() {
                break;
            }
            for arrival in &batch {
                streaming.insert(&arrival.tx);
                inserted.push(arrival.tx.clone());
            }

            let mut rebuilt = IncrementalTdg::rebuild_from(inserted.iter());
            assert_eq!(streaming.tx_count(), rebuilt.tx_count());
            assert_eq!(streaming.address_count(), rebuilt.address_count());
            assert_eq!(
                streaming.largest_component_tx_count(),
                rebuilt.largest_component_tx_count(),
                "seed {seed} after {} txs",
                inserted.len()
            );

            let mut streaming_sizes = streaming.component_tx_counts();
            let mut rebuilt_sizes = rebuilt.component_tx_counts();
            streaming_sizes.sort_unstable();
            rebuilt_sizes.sort_unstable();
            assert_eq!(streaming_sizes, rebuilt_sizes, "seed {seed}");

            assert_eq!(
                partition(&mut streaming, &inserted),
                partition(&mut rebuilt, &inserted),
                "seed {seed}: partitions diverged after {} transactions",
                inserted.len()
            );
        }
        assert_eq!(streaming.tx_count(), 400);
    }
}

/// The deletion-capable invariant on real workloads: interleave the departures a
/// running pool produces — packed blocks (oldest arrivals leave in batches),
/// evictions (random single departures) and replacements (remove + re-insert
/// with a different receiver) — with insertion bursts. After every step the
/// deletion-capable TDG must agree with a from-scratch rebuild of the survivors:
/// exact aggregate counts at all times, exact partition after compaction, and
/// never a split of a genuinely connected pair in between.
#[test]
fn streaming_deletion_agrees_with_rebuild_after_every_batch() {
    for seed in 0..3u64 {
        let mut rng = DeterministicRng::seed(seed ^ 0xdead);
        let mut streaming = IncrementalTdg::new();
        let mut live: Vec<AccountTransaction> = Vec::new();

        let mut stream = workload(seed);
        loop {
            let batch: Vec<_> = (&mut stream).take(rng.range(1, 40) as usize).collect();
            if batch.is_empty() {
                break;
            }
            for arrival in &batch {
                streaming.insert(&arrival.tx);
                live.push(arrival.tx.clone());
            }

            // A "packed block": the oldest few live transactions leave together.
            let packed = (rng.range(0, 12) as usize).min(live.len());
            for tx in live.drain(..packed) {
                streaming.remove(&tx);
            }
            // "Evictions": random single departures.
            for _ in 0..rng.range(0, 5) {
                if live.is_empty() {
                    break;
                }
                let index = (rng.next_u64() % live.len() as u64) as usize;
                let victim = live.swap_remove(index);
                streaming.remove(&victim);
            }
            // "Replacements": swap an entry's edge for a fresh receiver.
            for _ in 0..rng.range(0, 3) {
                if live.is_empty() {
                    break;
                }
                let index = (rng.next_u64() % live.len() as u64) as usize;
                let superseded = live.swap_remove(index);
                streaming.remove(&superseded);
                let rebid = AccountTransaction::transfer(
                    superseded.sender(),
                    blockconc_types::Address::from_low(3_000 + rng.range(0, 50)),
                    blockconc_types::Amount::from_sats(1),
                    superseded.nonce(),
                );
                streaming.insert(&rebid);
                live.push(rebid);
            }

            let mut rebuilt = IncrementalTdg::rebuild_from(live.iter());
            // Aggregates are exact at every instant, even between compactions.
            assert_eq!(streaming.tx_count(), rebuilt.tx_count(), "seed {seed}");
            assert_eq!(
                streaming.component_tx_counts().iter().sum::<usize>(),
                rebuilt.component_tx_counts().iter().sum::<usize>(),
                "seed {seed}"
            );

            // Conservative in between: connected survivors are never split — every
            // rebuilt (exact) component maps into exactly one streaming component.
            let mut conservative = streaming.clone();
            let mut covering: HashMap<usize, usize> = HashMap::new();
            for tx in &live {
                assert_eq!(
                    conservative.component_of(tx.sender()),
                    conservative.component_of(effective_receiver(tx)),
                    "seed {seed}: a live edge spans two components"
                );
                for address in [tx.sender(), effective_receiver(tx)] {
                    let exact_root = rebuilt
                        .component_of(address)
                        .expect("live address is in the rebuild");
                    let streaming_root = conservative
                        .component_of(address)
                        .expect("live address is interned");
                    let entry = covering.entry(exact_root).or_insert(streaming_root);
                    assert_eq!(
                        *entry, streaming_root,
                        "seed {seed}: split a rebuilt component"
                    );
                }
            }

            assert_compacted_matches_rebuild(&streaming, &live, &format!("seed {seed}"));
        }
    }
}

/// The same property with [`TrackedPool`] doing the graph edits: whatever a
/// random interleaving of its mutators does to the pool — offers that admit,
/// replace, evict at capacity or are rejected, sender chains handed between two
/// pools, settled blocks, resync sweeps after a failed transaction — the tracked
/// graph covers exactly the resident transactions.
#[test]
fn tracked_pool_graph_agrees_with_rebuild_after_every_batch() {
    for seed in 0..3u64 {
        let mut rng = DeterministicRng::seed(seed ^ 0xfeed);
        // Small pools, so the capacity rule fires.
        let mut pools = [TrackedPool::new(48, false), TrackedPool::new(48, false)];
        let mut home: HashMap<Address, usize> = HashMap::new();
        let mut account_nonce: HashMap<Address, u64> = HashMap::new();
        let mut seen = [0u64; 4]; // admitted, replaced, evicted, rejected

        let mut stream = workload(seed).with_fee_escalation(FeeEscalationSpec::standard(14.0));
        loop {
            let batch: Vec<_> = (&mut stream).take(rng.range(1, 40) as usize).collect();
            if batch.is_empty() {
                break;
            }
            for arrival in &batch {
                let sender = arrival.tx.sender();
                let index = *home.entry(sender).or_insert((rng.next_u64() % 2) as usize);
                let effects = pools[index].offer(
                    &arrival.tx,
                    arrival.fee_per_gas,
                    arrival.arrival_secs,
                    account_nonce.get(&sender).copied().unwrap_or(0),
                    None,
                );
                match effects.outcome {
                    AdmitOutcome::Admitted => seen[0] += 1,
                    AdmitOutcome::Replaced => seen[1] += 1,
                    _ => seen[3] += 1,
                }
                seen[2] += effects.evicted.is_some() as u64;
            }

            // A "packed block": a few chain heads leave each pool; now and then
            // one "fails validation" — its account nonce stays put and the
            // sender's stranded tail is swept.
            for pool in &mut pools {
                let heads: Vec<AccountTransaction> = pool
                    .pool()
                    .ready_heads()
                    .iter()
                    .rev()
                    .take(rng.range(0, 10) as usize)
                    .map(|&(_, _, sender)| pool.pool().head_of(sender).expect("head").tx.clone())
                    .collect();
                assert_eq!(pool.settle_packed(&heads).len(), heads.len());
                for tx in &heads {
                    if rng.range(0, 5) == 0 {
                        let nonce = account_nonce.get(&tx.sender()).copied().unwrap_or(0);
                        pool.resync_sender(tx.sender(), nonce);
                    } else {
                        account_nonce.insert(tx.sender(), tx.nonce() + 1);
                    }
                }
            }

            // "Migrations": whole chains change pools.
            for _ in 0..rng.range(0, 4) {
                let from = (rng.next_u64() % 2) as usize;
                let Some(sender) = pools[from].pool().iter().next().map(|p| p.tx.sender()) else {
                    continue;
                };
                for pooled in pools[from].take_sender(sender) {
                    pools[1 - from].restore(pooled);
                }
                home.insert(sender, 1 - from);
            }

            for (index, pool) in pools.iter().enumerate() {
                let live: Vec<AccountTransaction> =
                    pool.pool().iter().map(|p| p.tx.clone()).collect();
                assert_eq!(pool.tdg().tx_count(), pool.pool().len());
                assert_compacted_matches_rebuild(
                    pool.tdg(),
                    &live,
                    &format!("seed {seed} pool {index}"),
                );
            }
        }
        assert!(
            seen.iter().all(|&count| count > 0),
            "seed {seed}: every admission path must fire: {seen:?}"
        );
    }
}

/// The graph's maintenance counts are a pure function of the offered traffic:
/// one fixed hot-spot stream with fee replacements, a pool small enough that the
/// capacity rule evicts, and blocks of chain heads settling as it goes. A change
/// to how components are keyed, folded, released or compacted that shifts any of
/// these literals changes what the benchmark's `itdg.*` counts report.
#[test]
fn maintenance_counts_are_pinned_on_a_fixed_hotspot_stream() {
    // (weak edges, op units, compactions, resident txs, largest component).
    // Released nodes are reused, so op units carry no sweep term: the pins are
    // the sweeping index's 47,901 and 18,721 less the 16,077 and 5,131 slots its
    // generation compactions used to charge on this stream.
    let pins = [
        (false, 31_824u64, 157u64, 119usize, 103usize),
        (true, 13_590, 105, 119, 97),
    ];
    for (weak, op_units, compactions, tx_count, largest) in pins {
        let mut pool = TrackedPool::new(200, weak);
        let mut account_nonce: HashMap<Address, u64> = HashMap::new();
        let mut stream =
            workload_of(7, 4_000).with_fee_escalation(FeeEscalationSpec::standard(14.0));
        let mut replaced = 0u64;
        let mut evicted = 0u64;
        loop {
            let batch: Vec<_> = (&mut stream).take(60).collect();
            if batch.is_empty() {
                break;
            }
            for arrival in &batch {
                let nonce = account_nonce
                    .get(&arrival.tx.sender())
                    .copied()
                    .unwrap_or(0);
                let effects = pool.offer(
                    &arrival.tx,
                    arrival.fee_per_gas,
                    arrival.arrival_secs,
                    nonce,
                    None,
                );
                replaced += (effects.outcome == AdmitOutcome::Replaced) as u64;
                evicted += effects.evicted.is_some() as u64;
            }
            let heads: Vec<AccountTransaction> = pool
                .pool()
                .ready_heads()
                .iter()
                .rev()
                .take(40)
                .map(|&(_, _, sender)| pool.pool().head_of(sender).expect("head").tx.clone())
                .collect();
            for tx in pool.settle_packed(&heads) {
                account_nonce.insert(tx.tx.sender(), tx.tx.nonce() + 1);
            }
        }
        assert!(
            replaced > 0 && evicted > 0,
            "weak {weak}: {replaced} {evicted}"
        );
        let tdg = pool.tdg();
        assert_eq!(
            (
                tdg.op_units(),
                tdg.compactions(),
                tdg.tx_count(),
                tdg.largest_component_tx_count()
            ),
            (op_units, compactions, tx_count, largest),
            "weak {weak}"
        );
    }
}
