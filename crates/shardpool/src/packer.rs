//! Parallel per-shard block production and the makespan-aware merge.

use crate::ShardedMempool;
use blockconc_account::{AccountTransaction, BlockBuilder, WorldState};
use blockconc_pipeline::{
    block_capacity_txs, choose_component_cap, gas_estimate, pack_capped, BlockTemplate,
    PackedBlock, PipelineConfig,
};
use blockconc_types::{Address, Gas};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// One transaction selected by a shard packer, carried into the merge with its fee
/// metadata (the sub-block's `AccountBlock` alone would lose the bids).
#[derive(Debug, Clone)]
struct MergeTx {
    tx: AccountTransaction,
    fee_per_gas: u64,
    seq: u64,
}

/// What one shard contributed before merging.
#[derive(Debug, Default)]
struct SubBlock {
    txs: Vec<MergeTx>,
    deferred_by_cap: u64,
    /// Candidates this shard's packing loop examined (its O(Δ) scan cost).
    considered: u64,
}

/// Counts of one sharded pack (the driver's phase record reads them).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardPackReport {
    /// Sub-block sizes per shard, pre-merge.
    pub sub_sizes: Vec<usize>,
    /// Shard pool lengths at pack time.
    pub shard_lens: Vec<usize>,
    /// The per-component cap the merge policy chose from the global ready
    /// distribution (what every shard packer enforced).
    pub component_cap: usize,
    /// Sub-block candidates the merge could not fit under the block gas limit
    /// (deferred back to the pool, like every other deferral).
    pub merge_deferred: u64,
    /// Candidates each shard's packing loop examined, pre-merge. The per-shard
    /// packers consume the pools' maintained ready indexes, so these track the
    /// block-window delta, not the shard pool sizes.
    pub sub_considered: Vec<u64>,
}

/// Packs blocks from a [`ShardedMempool`] by running the concurrency-aware
/// packing loop ([`pack_capped`]) on every shard in parallel, then merging the
/// per-shard sub-blocks into a single proposal under a predicted-makespan-aware
/// policy.
///
/// Because the pool keeps dependency components shard-disjoint, the per-shard
/// sub-blocks cannot conflict with each other; the merge only has to pick *which*
/// candidates make the block, never re-check independence. It proceeds in three
/// steps:
///
/// 1. **Parallel ready scan** — every shard reports its ready per-component
///    transaction counts and gas profile (one scoped thread per shard).
/// 2. **Global cap choice** — components never span shards, so concatenating the
///    per-shard distributions *is* the global ready distribution; the same
///    speed-up-optimal [`choose_component_cap`] search the single-pool packer runs
///    picks one cap for the whole block. (A per-shard-local cap would be globally
///    too strict: a shard pairing one giant component with a few singletons caps
///    the giant near 1 even when the global distribution awards it dozens of
///    slots.)
/// 3. **Parallel sub-packing + fee merge** — each non-empty shard packs with the
///    fixed global cap through [`pack_capped`] (the first such shard packs on the
///    calling thread, the others on scoped threads), and the sub-blocks are k-way
///    merged by `(fee, stamp)` under the real block gas limit, deferring a
///    gas-skipped sender's remaining chain exactly like the single packing loop.
///    With one shard this pipeline reduces to the single-pool packer bit for
///    bit.
#[derive(Debug)]
pub struct ShardedPacker {
    shards: usize,
    threads: usize,
}

impl ShardedPacker {
    /// Creates a packer for `shards` shards, optimizing for `threads` execution
    /// cores.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `threads` is zero.
    pub fn new(shards: usize, threads: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        assert!(threads > 0, "thread count must be positive");
        ShardedPacker { shards, threads }
    }

    /// A short, stable name for reports.
    pub fn name(&self) -> &'static str {
        "sharded-concurrency-aware"
    }

    /// Number of shards this packer packs.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Adopts run-level settings from the configuration. The packer reads no
    /// setting, so this is a no-op the sharded driver does not call, kept until
    /// the benchmark that calls it is updated.
    pub fn configure(&mut self, _config: &PipelineConfig) {}

    /// Packs one block proposal from the sharded pool. The state is not read:
    /// the pool's chains are gap-free from each sender's state nonce.
    ///
    /// # Panics
    ///
    /// Panics if `pool.shard_count()` differs from this packer's shard count.
    pub fn pack(
        &mut self,
        pool: &ShardedMempool,
        _state: &WorldState,
        template: &BlockTemplate,
    ) -> (PackedBlock, ShardPackReport) {
        let shards = self.shards;
        assert_eq!(
            pool.shard_count(),
            shards,
            "packer/pool shard count mismatch"
        );
        let shard_lens = pool.shard_lens();

        // Step 1: per-shard ready summary straight from the maintained
        // structures — component counts from the shard's incremental TDG, gas
        // profile from the pool's maintained aggregate. O(components) per shard
        // (formerly an O(shard pool) chain scan per block, run on scoped threads
        // to hide its cost; cheap enough now to take the shard locks serially).
        let scans: Vec<(Vec<usize>, u64, usize)> = (0..shards)
            .map(|index| {
                pool.with_shard(index, |shard_pool, shard_tdg| {
                    (
                        shard_tdg.component_tx_counts(),
                        shard_pool.ready_gas().value(),
                        shard_pool.len(),
                    )
                })
            })
            .collect();

        // Step 2: one cap for the whole block, from the concatenated (= global,
        // since components are shard-disjoint) ready distribution, with the
        // single packer's capacity estimate and cap search.
        let sizes: Vec<usize> = scans
            .iter()
            .flat_map(|(sizes, _, _)| sizes.clone())
            .collect();
        let ready_txs: usize = scans.iter().map(|&(_, _, txs)| txs).sum();
        let ready_gas: u64 = scans.iter().map(|&(_, gas, _)| gas).sum();
        let capacity = block_capacity_txs(template.gas_limit, ready_gas, ready_txs);
        let cap = choose_component_cap(&sizes, capacity, self.threads);

        // Step 3a: parallel sub-packing with the fixed global cap. Empty shards
        // contribute nothing and start no thread; the first busy shard packs on
        // this thread, so a pool sitting on one shard packs inline.
        let sub_pack = |index: usize| {
            pool.with_shard(index, |shard_pool, shard_tdg| {
                let packed = pack_capped(shard_pool, shard_tdg, template, cap);
                // Recover each included transaction's fee metadata from the pool
                // (the packed block keeps only totals) — a per-entry lookup, not
                // a full pool scan.
                let txs = packed
                    .block
                    .transactions()
                    .iter()
                    .map(|tx| {
                        let pooled = shard_pool
                            .get(tx.sender(), tx.nonce())
                            .expect("packed transaction is pooled");
                        MergeTx {
                            tx: tx.clone(),
                            fee_per_gas: pooled.fee_per_gas,
                            seq: pooled.seq,
                        }
                    })
                    .collect();
                SubBlock {
                    txs,
                    deferred_by_cap: packed.deferred_by_cap,
                    considered: packed.considered,
                }
            })
        };
        let busy: Vec<usize> = (0..shards).filter(|&index| scans[index].2 > 0).collect();
        let mut sub_blocks: Vec<SubBlock> = (0..shards).map(|_| SubBlock::default()).collect();
        if let Some((&first, rest)) = busy.split_first() {
            std::thread::scope(|scope| {
                let sub_pack = &sub_pack;
                let handles: Vec<_> = rest
                    .iter()
                    .map(|&index| (index, scope.spawn(move || sub_pack(index))))
                    .collect();
                sub_blocks[first] = sub_pack(first);
                for (index, handle) in handles {
                    sub_blocks[index] = handle.join().expect("shard packer panicked");
                }
            });
        }

        let sub_sizes: Vec<usize> = sub_blocks.iter().map(|sub| sub.txs.len()).collect();
        let sub_considered: Vec<u64> = sub_blocks.iter().map(|sub| sub.considered).collect();
        let deferred_in_shards: u64 = sub_blocks.iter().map(|sub| sub.deferred_by_cap).sum();

        // Step 3b: fee-ordered merge of the (already cap-compliant) candidates
        // under the real block gas limit.
        let lists: Vec<Vec<MergeTx>> = sub_blocks.into_iter().map(|sub| sub.txs).collect();
        let (kept, merge_deferred, merge_pops) = merge_by_fee(lists, template.gas_limit);

        let estimated_gas = kept
            .iter()
            .fold(Gas::ZERO, |acc, m| acc + gas_estimate(&m.tx));
        let total_fee_per_gas: u64 = kept.iter().map(|m| m.fee_per_gas).sum();
        let block = BlockBuilder::new(template.height, template.timestamp, template.beneficiary)
            .gas_limit(template.gas_limit)
            .transactions(kept.into_iter().map(|m| m.tx))
            .build();

        let considered: u64 = sub_considered.iter().sum::<u64>() + merge_pops;
        let report = ShardPackReport {
            sub_sizes,
            shard_lens,
            component_cap: cap,
            merge_deferred,
            sub_considered,
        };
        (
            PackedBlock {
                block,
                estimated_gas,
                total_fee_per_gas,
                // Cap-attributed deferrals only, matching the field's documented
                // semantics; gas-arbitration skips are reported separately as
                // `ShardPackReport::merge_deferred`.
                deferred_by_cap: deferred_in_shards,
                considered,
            },
            report,
        )
    }
}

/// K-way merges per-shard sub-block lists by `(fee desc, stamp asc)` under the
/// block gas limit. Each sub-block already respects the global component cap, so
/// the merge only arbitrates gas: a gas-skipped sender's remaining chain is
/// deferred (skipped, in order), exactly like the single packing loop — never
/// reordered, never dropped. Returns the merged selection, the number of
/// candidates that did not fit, and the number of heap pops performed (the
/// merge's serial cost; the loop stops as soon as nothing can fit the remaining
/// gas, so this tracks the block size, not the candidate count).
fn merge_by_fee(lists: Vec<Vec<MergeTx>>, gas_limit: Gas) -> (Vec<MergeTx>, u64, u64) {
    // Max-heap entries: (fee, Reverse(stamp), Reverse(list index), position).
    let mut heap: BinaryHeap<(u64, Reverse<u64>, Reverse<usize>, usize)> = lists
        .iter()
        .enumerate()
        .filter(|(_, list)| !list.is_empty())
        .map(|(index, list)| (list[0].fee_per_gas, Reverse(list[0].seq), Reverse(index), 0))
        .collect();

    let mut merged: Vec<MergeTx> = Vec::new();
    let mut gas_used = Gas::ZERO;
    let mut deferred_senders: HashSet<Address> = HashSet::new();
    let mut deferred = 0u64;
    let mut pops = 0u64;
    while let Some((_, _, Reverse(list), position)) = heap.pop() {
        // No estimate is below the intrinsic transfer cost, so once that cannot
        // fit, nothing can: stop scanning candidates (same early exit as the
        // single packing loop).
        if gas_used.saturating_add(Gas::BASE_TX) > gas_limit {
            break;
        }
        pops += 1;
        let candidate = &lists[list][position];
        let advance = |heap: &mut BinaryHeap<_>| {
            let next = position + 1;
            if next < lists[list].len() {
                let successor = &lists[list][next];
                heap.push((
                    successor.fee_per_gas,
                    Reverse(successor.seq),
                    Reverse(list),
                    next,
                ));
            }
        };
        let sender = candidate.tx.sender();
        let gas = gas_estimate(&candidate.tx);
        if deferred_senders.contains(&sender) || gas_used.saturating_add(gas) > gas_limit {
            // Gas skip, exactly like the single packer's loop: this sender's chain
            // defers (later nonces may not jump their rejected head), other senders
            // keep competing for the remaining gas.
            deferred_senders.insert(sender);
            deferred += 1;
            advance(&mut heap);
            continue;
        }
        gas_used += gas;
        merged.push(candidate.clone());
        advance(&mut heap);
    }
    (merged, deferred, pops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockconc_pipeline::block_group_sizes;
    use blockconc_types::Amount;
    use std::collections::HashMap;

    /// The packed block's transaction counts per block-local dependency group.
    fn group_sizes(packed: &PackedBlock) -> Vec<u64> {
        let mut sizes = block_group_sizes(packed.block.transactions());
        sizes.sort_unstable();
        sizes
    }

    fn transfer(sender: u64, receiver: u64, nonce: u64) -> AccountTransaction {
        AccountTransaction::transfer(
            Address::from_low(sender),
            Address::from_low(receiver),
            Amount::from_sats(1),
            nonce,
        )
    }

    fn funded_state(senders: std::ops::Range<u64>) -> WorldState {
        let mut state = WorldState::new();
        for s in senders {
            state.credit(Address::from_low(s), Amount::from_coins(10));
        }
        state
    }

    fn template(gas_limit: Gas) -> BlockTemplate {
        BlockTemplate {
            height: 1,
            timestamp: 0,
            beneficiary: Address::from_low(9_999),
            gas_limit,
        }
    }

    /// A pool with one 6-deposit exchange hot spot (one shard) and four independent
    /// payments (spread over the others).
    fn hotspot_pool(shards: usize) -> ShardedMempool {
        let pool = ShardedMempool::new(shards, 1_000);
        for i in 0..6u64 {
            pool.insert(transfer(10 + i, 500, 0), 100 + i, i as f64, 0, Some(i));
        }
        for i in 0..4u64 {
            pool.insert(
                transfer(20 + i, 600 + i, 0),
                50 + i,
                10.0 + i as f64,
                0,
                Some(10 + i),
            );
        }
        pool
    }

    #[test]
    fn sharded_pack_merges_balanced_non_conflicting_sub_blocks() {
        let pool = hotspot_pool(4);
        let state = funded_state(10..30);
        let mut packer = ShardedPacker::new(4, 4);
        let (packed, report) = packer.pack(&pool, &state, &template(Gas::new(21_000 * 10)));
        // The global cap search over [6,1,1,1,1] at capacity 10 on 4 threads picks
        // cap 2: two exchange deposits plus the four independent payments.
        assert_eq!(report.component_cap, 2);
        assert_eq!(packed.block.transaction_count(), 6);
        assert_eq!(report.sub_sizes.iter().sum::<usize>(), 6);
        assert!(report.sub_sizes.iter().filter(|&&s| s > 0).count() >= 2);
        assert_eq!(report.merge_deferred, 0);
        assert_eq!(group_sizes(&packed), vec![1, 1, 1, 1, 2]);
        // Nonce order per sender holds in the merged block.
        let mut seen: HashMap<Address, u64> = HashMap::new();
        for tx in packed.block.transactions() {
            let next = seen.entry(tx.sender()).or_insert(0);
            assert_eq!(tx.nonce(), *next);
            *next += 1;
        }
        assert!(packed.estimated_gas <= Gas::new(21_000 * 10));
        assert_eq!(packed.deferred_by_cap, 4);
    }

    #[test]
    fn merge_matches_single_pool_balance_under_tight_gas() {
        let pool = hotspot_pool(4);
        let state = funded_state(10..30);
        let mut packer = ShardedPacker::new(4, 4);
        // Room for five transfers: like the single-pool packer, the merge admits
        // one deposit and the four independent payments.
        let (packed, _) = packer.pack(&pool, &state, &template(Gas::new(21_000 * 5)));
        assert_eq!(packed.block.transaction_count(), 5);
        assert!(packed.estimated_gas <= Gas::new(21_000 * 5));
        assert_eq!(group_sizes(&packed), vec![1, 1, 1, 1, 1]);
    }

    #[test]
    fn merge_cap_restores_balance_when_one_shard_dominates() {
        // One shard holds a 12-deposit hot spot, three shards hold one single each.
        let pool = ShardedMempool::new(4, 1_000);
        let mut stamp = 0;
        for i in 0..12u64 {
            pool.insert(transfer(10 + i, 500, 0), 200 + i, i as f64, 0, Some(stamp));
            stamp += 1;
        }
        for i in 0..3u64 {
            pool.insert(transfer(30 + i, 700 + i, 0), 10 + i, 20.0, 0, Some(stamp));
            stamp += 1;
        }
        let state = funded_state(10..40);
        let mut packer = ShardedPacker::new(4, 4);
        let (packed, report) = packer.pack(&pool, &state, &template(Gas::new(21_000 * 15)));
        // Whether the deposits were capped inside their shard (if the singles
        // hash-colocated with them) or at the merge (if the hot shard was alone),
        // the dominant component must have been deferred almost entirely.
        assert!(
            packed.deferred_by_cap >= 11,
            "cap must defer the dominant component (deferred {})",
            packed.deferred_by_cap
        );
        let sizes = group_sizes(&packed);
        let largest = sizes.last().copied().unwrap_or(0);
        let total: u64 = sizes.iter().sum();
        assert!(
            largest <= total.div_ceil(4).max(1) + 1,
            "merged block stays balanced: largest {largest} of {total}"
        );
        assert!(packed.deferred_by_cap >= report.merge_deferred);
        // Deferred candidates are still pooled (pack never removes).
        assert_eq!(pool.len(), 15);
    }

    #[test]
    fn global_cap_balances_individually_unbalanced_sub_blocks() {
        // Two shards, each holding one 4-deposit component. A shard-local cap
        // search would see a lone component (speed-up 1 either way → largest
        // block, all 4 included); the global distribution [4, 4] at capacity 6 on
        // 4 threads instead picks cap 3 (B = 6, makespan 3), which each shard
        // enforces. Use distinct exchanges whose canonical shards differ.
        let mut exchange_b = 501u64;
        loop {
            let probe = ShardedMempool::new(2, 100);
            probe.insert(transfer(10, 500, 0), 10, 0.0, 0, Some(0));
            probe.insert(transfer(60, exchange_b, 0), 10, 0.1, 0, Some(1));
            if probe.shard_lens() == vec![1, 1] {
                break;
            }
            exchange_b += 1;
        }
        let pool = ShardedMempool::new(2, 100);
        let mut stamp = 0;
        for i in 0..4u64 {
            pool.insert(
                transfer(10 + i, 500, 0),
                100 + i,
                stamp as f64,
                0,
                Some(stamp),
            );
            stamp += 1;
        }
        for i in 0..4u64 {
            pool.insert(
                transfer(60 + i, exchange_b, 0),
                50 + i,
                stamp as f64,
                0,
                Some(stamp),
            );
            stamp += 1;
        }
        pool.assert_shard_disjointness();
        let state = funded_state(10..70);
        let mut packer = ShardedPacker::new(2, 4);
        let (packed, report) = packer.pack(&pool, &state, &template(Gas::new(21_000 * 6)));
        assert_eq!(report.component_cap, 3);
        assert_eq!(packed.deferred_by_cap, 2, "one deposit deferred per shard");
        assert_eq!(group_sizes(&packed), vec![3, 3]);
    }

    /// Packs and settles four blocks out of a standing 8-shard pool of `n`
    /// transfers — one in seven a deposit into one of 8 hot addresses, fees
    /// cycling over 1 000 levels — returning each block's
    /// `(tdg_op_units delta, considered)`.
    fn standing_pool_costs(n: u64) -> Vec<(u64, u64)> {
        let pool = ShardedMempool::new(8, n as usize + 1);
        for i in 0..n {
            let receiver = if i % 7 == 0 {
                500 + i % 8
            } else {
                5_000_000 + i
            };
            let tx = transfer(1_000_000 + i, receiver, 0);
            pool.insert(tx, 10 + i % 1_000, i as f64, 0, Some(i));
        }
        assert_eq!(pool.len() as u64, n, "every standing transfer is admitted");
        let mut packer = ShardedPacker::new(8, 8);
        let state = WorldState::new();
        (1..=4)
            .map(|_| {
                let before = pool.tdg_op_units();
                let (packed, _) = packer.pack(&pool, &state, &template(Gas::new(12_000_000)));
                pool.remove_packed(packed.block.transactions());
                (pool.tdg_op_units() - before, packed.considered)
            })
            .collect()
    }

    #[test]
    fn per_block_pack_and_settle_cost_is_delta_bound_not_pool_bound() {
        // Per block, a standing pool ten times the size costs the shard graphs
        // and the packer the same: op counts, so the floor does not read the host.
        let small = standing_pool_costs(10_000);
        let large = standing_pool_costs(100_000);
        for (small, large) in small.iter().zip(&large) {
            assert!(
                large.0 * 100 <= small.0 * 105 && large.1 * 100 <= small.1 * 105,
                "(tdg op units, considered) per block: {large:?} out of 100k pooled vs \
                 {small:?} out of 10k"
            );
        }
    }

    #[test]
    fn empty_pool_packs_an_empty_block() {
        let pool = ShardedMempool::new(3, 10);
        let mut packer = ShardedPacker::new(3, 4);
        let (packed, report) =
            packer.pack(&pool, &WorldState::new(), &template(Gas::new(1_000_000)));
        assert_eq!(packed.block.transaction_count(), 0);
        assert_eq!(packed.considered, 0);
        assert!(report.sub_considered.iter().all(|&c| c == 0));
        assert_eq!(packed.block.height().value(), 1);
    }
}
