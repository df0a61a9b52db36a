//! The concurrent, TDG-component-sharded mempool.

use crate::router::{Migration, Router};
use crate::IngestItem;
use blockconc_account::AccountTransaction;
use blockconc_pipeline::{
    effective_receiver, AdmitOutcome, IncrementalTdg, Mempool, MempoolStats, PooledTx, TrackedPool,
};
use blockconc_types::Address;
use std::collections::HashMap;
use std::sync::Mutex;

const POISON: &str = "shard lock poisoned";

/// One shard: a single-threaded [`Mempool`] plus its incremental dependency
/// graph, kept current by [`TrackedPool`] on every admission, replacement,
/// eviction, packed removal, migration and rebalance — inside the shard's critical
/// section, so no lazy O(shard) rebuild ever blocks producers behind the lock.
type Shard = TrackedPool;

/// Stat corrections the sharded pool applies on top of the per-shard counters, so
/// [`ShardedMempool::stats`] reports exactly what a single pool would have reported
/// for the same offers (admissions that the global capacity rule then reversed,
/// global evictions the shards could not count).
#[derive(Debug, Default)]
struct Corrections {
    evicted: u64,
    rejected_full: u64,
    admit_reversals: u64,
}

/// A transaction pool partitioned across N shards by TDG component.
///
/// Shard routing is delegated to an internal router keyed by the incremental union–find:
/// a transaction goes to the shard owning its dependency component, with **sender
/// affinity** (a sender with live pooled entries always routes to the shard holding
/// its nonce chain, so chains never split). When an arriving edge fuses two
/// components living on different shards, the losing chains migrate, preserving the
/// invariant that *transactions on different shards never conflict* — which is what
/// lets per-shard packers build sub-blocks in parallel and merge them without
/// cross-checking.
///
/// Admission semantics match the single [`Mempool`] exactly — same nonce
/// discipline, same 10% replacement rule, and a **global** capacity enforced by
/// evicting the globally cheapest chain tail (per-shard pools get headroom so their
/// local capacity never binds first). The equivalence property tests in
/// `tests/shardpool_equivalence.rs` pin this down against the single pool for
/// arbitrary shard counts and producer interleavings.
///
/// # Locking
///
/// One mutex per shard plus one router mutex, with a strict acquisition order:
/// *router before shards, shards in index order*. Every mutation — an admission
/// (route, migrate, offer, account, enforce capacity: one step), a whole ingest
/// batch of them, a block's removals, a rebalance — runs under **one hold of the
/// router lock**, so routing and pool contents can never be observed out of step
/// and callers on different threads serialize there. Shard locks are what the
/// per-shard packers (readers) contend on. Threads holding a shard lock never
/// wait on the router, so the ordering is cycle-free.
///
/// # Examples
///
/// ```
/// use blockconc_shardpool::ShardedMempool;
/// use blockconc_account::AccountTransaction;
/// use blockconc_pipeline::AdmitOutcome;
/// use blockconc_types::{Address, Amount};
///
/// let pool = ShardedMempool::new(4, 1_000);
/// let pay = |s: u64, r: u64| AccountTransaction::transfer(
///     Address::from_low(s), Address::from_low(r), Amount::from_sats(1), 0);
/// assert_eq!(pool.insert(pay(1, 100), 10, 0.0, 0, Some(0)), AdmitOutcome::Admitted);
/// assert_eq!(pool.insert(pay(2, 100), 12, 0.1, 0, Some(1)), AdmitOutcome::Admitted);
/// assert_eq!(pool.len(), 2);
/// // The two deposits conflict (shared receiver), so they share a shard.
/// assert_eq!(pool.shard_lens().iter().filter(|&&l| l > 0).count(), 1);
/// pool.assert_shard_disjointness();
/// ```
#[derive(Debug)]
pub struct ShardedMempool {
    shards: Vec<Mutex<Shard>>,
    router: Mutex<Router>,
    capacity: usize,
    corrections: Mutex<Corrections>,
}

impl ShardedMempool {
    /// Creates a pool of `shards` shards holding at most `capacity` transactions in
    /// total.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `capacity` is zero.
    pub fn new(shards: usize, capacity: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        assert!(capacity > 0, "mempool capacity must be positive");
        // Per-shard pools get headroom above the global capacity so their local
        // eviction rule can never fire; the global rule below is the only one.
        // The shard graphs stay strong whatever the engine: the router fuses
        // components by the same edges, so weakening them is a routing change.
        let shard = || Shard::new(capacity * 2 + 1, false);
        ShardedMempool {
            shards: (0..shards).map(|_| Mutex::new(shard())).collect(),
            router: Mutex::new(Router::new(shards)),
            capacity,
            corrections: Mutex::new(Corrections::default()),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The global capacity in transactions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total resident transactions (across all shards).
    pub fn len(&self) -> usize {
        self.router.lock().expect(POISON).total_live()
    }

    /// Returns `true` if no shard holds a transaction.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident transactions per shard.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.router.lock().expect(POISON).shard_live().to_vec()
    }

    /// Chains migrated between shards so far (component fusions + rebalances).
    pub fn migrated_chains(&self) -> u64 {
        self.router.lock().expect(POISON).migrated_chains
    }

    /// Rebalance passes run so far.
    pub fn rebalances(&self) -> u64 {
        self.router.lock().expect(POISON).rebalances
    }

    /// Aggregated admission counters, semantically identical to what a single
    /// [`Mempool`] would have counted for the same offers.
    pub fn stats(&self) -> MempoolStats {
        let mut stats = MempoolStats::default();
        for shard in &self.shards {
            stats.merge(&shard.lock().expect(POISON).pool().stats());
        }
        let corrections = self.corrections.lock().expect(POISON);
        stats.evicted += corrections.evicted;
        stats.rejected_full += corrections.rejected_full;
        stats.admitted -= corrections.admit_reversals;
        stats
    }

    /// Offers a transaction to the pool under the same admission rules as
    /// [`Mempool::insert`]. Callable from any number of threads; admissions
    /// serialize on the router lock.
    ///
    /// `stamp` is the deterministic admission sequence number (typically the
    /// transaction's position in the arrival stream); passing `None` falls back to a
    /// per-shard counter, which keeps single-threaded use simple but makes fee-tie
    /// ordering depend on routing.
    pub fn insert(
        &self,
        tx: AccountTransaction,
        fee_per_gas: u64,
        arrival_secs: f64,
        account_nonce: u64,
        stamp: Option<u64>,
    ) -> AdmitOutcome {
        let mut router = self.router.lock().expect(POISON);
        let (_, outcome) = self.admit(
            &mut router,
            &tx,
            fee_per_gas,
            arrival_secs,
            account_nonce,
            stamp,
        );
        outcome
    }

    /// Admits a batch in the order given under one hold of the router lock;
    /// returns how many items were offered to each shard.
    pub(crate) fn insert_batch(&self, items: Vec<IngestItem>) -> Vec<usize> {
        let mut router = self.router.lock().expect(POISON);
        let mut offered = vec![0; self.shards.len()];
        for item in items {
            let (shard, _) = self.admit(
                &mut router,
                &item.tx,
                item.fee_per_gas,
                item.arrival_secs,
                item.account_nonce,
                Some(item.stamp),
            );
            offered[shard] += 1;
        }
        offered
    }

    /// The admission step (caller holds the router lock): route the edge and move
    /// the chains that re-homes, offer to the component's shard, account the
    /// admission, restore the global capacity. Returns the shard offered to.
    fn admit(
        &self,
        router: &mut Router,
        tx: &AccountTransaction,
        fee_per_gas: u64,
        arrival_secs: f64,
        account_nonce: u64,
        stamp: Option<u64>,
    ) -> (usize, AdmitOutcome) {
        let sender = tx.sender();
        let decision = router.route(sender, effective_receiver(tx));
        self.execute_migrations(&decision.migrations);
        let shard = decision.shard;
        let mut outcome = self.shards[shard]
            .lock()
            .expect(POISON)
            .offer(tx, fee_per_gas, arrival_secs, account_nonce, stamp)
            .outcome;
        // A replacement leaves the chain's membership as it was; a rejection
        // leaves only the routed edge behind, which is sound (fusing is
        // conservative) and what the next rebalance forgets.
        if outcome == AdmitOutcome::Admitted {
            router.note_admitted(sender, shard);
            if router.total_live() > self.capacity {
                outcome = self.enforce_capacity(router, shard, sender, tx.nonce(), fee_per_gas);
            }
        }
        (shard, outcome)
    }

    /// Physically moves every pooled transaction of each ordered sender to its new
    /// shard, preserving admission metadata — O(chain) in both shards. The router
    /// has already moved the pins; the caller holds its lock.
    fn execute_migrations(&self, migrations: &[Migration]) {
        for migration in migrations {
            let chain = self.shards[migration.from]
                .lock()
                .expect(POISON)
                .take_sender(migration.sender);
            let mut shard = self.shards[migration.to].lock().expect(POISON);
            for pooled in chain {
                shard.restore(pooled);
            }
        }
    }

    /// Restores the global capacity after the newcomer's admission to `shard`
    /// took the pool one over it (caller holds the router lock, so shard contents
    /// hold still while the shard locks are taken one at a time). Applies the
    /// single pool's rule *as of before that admission*: the newcomer stays only
    /// if it strictly outbids the cheapest pre-insert tail of another sender,
    /// which is then evicted — otherwise its admission is reversed into a
    /// `RejectedFull`. In particular, a newcomer whose own previous chain tail is
    /// the global cheapest is rejected (evicting it would gap the newcomer's own
    /// chain), exactly like `Mempool::insert`.
    fn enforce_capacity(
        &self,
        router: &mut Router,
        shard: usize,
        newcomer: Address,
        newcomer_nonce: u64,
        newcomer_fee: u64,
    ) -> AdmitOutcome {
        let victim = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(index, shard)| {
                shard
                    .lock()
                    .expect(POISON)
                    .pool()
                    .cheapest_tail_excluding(Some((newcomer, newcomer_nonce)))
                    .map(|(sender, nonce, fee, seq)| {
                        (fee, std::cmp::Reverse(seq), index, sender, nonce)
                    })
            })
            .min();
        let mut corrections = self.corrections.lock().expect(POISON);
        match victim {
            Some((fee, _, index, sender, nonce)) if fee < newcomer_fee && sender != newcomer => {
                self.shards[index]
                    .lock()
                    .expect(POISON)
                    .remove(sender, nonce)
                    .expect("cheapest tail is pooled");
                router.note_removed(sender, 1);
                corrections.evicted += 1;
                AdmitOutcome::Admitted
            }
            _ => {
                self.shards[shard]
                    .lock()
                    .expect(POISON)
                    .remove(newcomer, newcomer_nonce)
                    .expect("the newcomer was just admitted here");
                router.note_removed(newcomer, 1);
                corrections.admit_reversals += 1;
                corrections.rejected_full += 1;
                AdmitOutcome::RejectedFull
            }
        }
    }

    /// Removes every transaction of a packed block from the pool (routing each
    /// transaction to its sender's pinned shard) and updates the `packed`
    /// counters. Transactions are settled in *block order* — the same
    /// deterministic order the single pool uses — so the per-shard graphs see an
    /// identical edit sequence regardless of sender hashing.
    pub fn remove_packed(&self, txs: &[AccountTransaction]) {
        let mut router = self.router.lock().expect(POISON);
        for tx in txs {
            let sender = tx.sender();
            let Some(shard_index) = router.pin_shard(sender) else {
                continue;
            };
            let settled = self.shards[shard_index]
                .lock()
                .expect(POISON)
                .settle_one(tx);
            if settled.is_some() {
                router.note_removed(sender, 1);
            }
        }
    }

    /// Drops `sender`'s unpackable entries after a validation failure, exactly like
    /// [`Mempool::resync_sender_removed`]. Returns the number of entries dropped.
    pub fn resync_sender(&self, sender: Address, account_nonce: u64) -> usize {
        let mut router = self.router.lock().expect(POISON);
        let Some(shard_index) = router.pin_shard(sender) else {
            return 0;
        };
        let dropped = self.shards[shard_index]
            .lock()
            .expect(POISON)
            .resync_sender(sender, account_nonce)
            .len();
        router.note_removed(sender, dropped);
        dropped
    }

    /// Runs `f` with exclusive access to one shard's pool and its (always current)
    /// dependency graph — the per-shard packers' entry point. Since the graph is
    /// maintained incrementally, entering a shard costs O(1): producers are never
    /// blocked behind an O(shard) rebuild.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn with_shard<R>(
        &self,
        index: usize,
        f: impl FnOnce(&Mempool, &mut IncrementalTdg) -> R,
    ) -> R {
        let mut shard = self.shards[index].lock().expect(POISON);
        let (pool, tdg) = shard.packing_view();
        f(pool, tdg)
    }

    /// Total incremental-TDG maintenance work units across all shards (see
    /// `IncrementalTdg::op_units`); the sharded driver reports the per-block delta.
    pub fn tdg_op_units(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.lock().expect(POISON).tdg().op_units())
            .sum()
    }

    /// Every resident transaction, ordered by `(sender, nonce)` — a deterministic
    /// snapshot for tests and reports.
    pub fn resident(&self) -> Vec<PooledTx> {
        let mut all: Vec<PooledTx> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .lock()
                    .expect(POISON)
                    .pool()
                    .iter()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_by_key(|p| (p.tx.sender(), p.tx.nonce()));
        all
    }

    /// Rebuilds routing from the surviving pool contents and re-spreads components
    /// across shards (see the `router` module docs); returns the number of chains
    /// migrated. Best called between blocks; it holds the router lock for its
    /// whole duration, so the snapshot it rebuilds from is exactly the pool's
    /// content and no admission can slip an edge past the rebuild.
    pub fn rebalance(&self) -> usize {
        let mut router = self.router.lock().expect(POISON);
        let mut residents: Vec<(Address, Address)> = Vec::with_capacity(router.total_live());
        for shard in &self.shards {
            let shard = shard.lock().expect(POISON);
            let pooled = shard.pool().iter();
            residents.extend(pooled.map(|p| (p.tx.sender(), effective_receiver(&p.tx))));
        }
        let migrations = router.rebalance(&residents);
        self.execute_migrations(&migrations);
        migrations.len()
    }

    /// Asserts the cross-shard independence invariant: no address is touched by
    /// resident transactions of two different shards. The parallel sub-block merge
    /// is only sound under this invariant, so tests call it after every mutation
    /// batch.
    ///
    /// # Panics
    ///
    /// Panics (with the offending address) if the invariant is violated.
    pub fn assert_shard_disjointness(&self) {
        let mut owner: HashMap<Address, usize> = HashMap::new();
        for (index, shard) in self.shards.iter().enumerate() {
            let shard = shard.lock().expect(POISON);
            for pooled in shard.pool().iter() {
                for address in [pooled.tx.sender(), effective_receiver(&pooled.tx)] {
                    if let Some(&other) = owner.get(&address) {
                        assert_eq!(
                            other, index,
                            "address {address} is touched by shards {other} and {index}"
                        );
                    } else {
                        owner.insert(address, index);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockconc_types::Amount;

    fn transfer(sender: u64, receiver: u64, nonce: u64) -> AccountTransaction {
        AccountTransaction::transfer(
            Address::from_low(sender),
            Address::from_low(receiver),
            Amount::from_sats(1),
            nonce,
        )
    }

    fn keys(pool: &ShardedMempool) -> Vec<(u64, u64)> {
        pool.resident()
            .iter()
            .map(|p| (p.tx.sender().low_u64(), p.tx.nonce()))
            .collect()
    }

    #[test]
    fn independent_components_spread_and_conflicting_ones_colocate() {
        let pool = ShardedMempool::new(4, 100);
        // Eight independent payments: canonical placement spreads them.
        for (i, sender) in (1..=8u64).enumerate() {
            pool.insert(
                transfer(sender, 100 + sender, 0),
                10,
                0.0,
                0,
                Some(i as u64),
            );
        }
        let lens = pool.shard_lens();
        assert_eq!(lens.iter().sum::<usize>(), 8);
        assert!(
            lens.iter().filter(|&&l| l > 0).count() >= 2,
            "independent components must spread: {lens:?}"
        );
        // Six deposits to one exchange: all on one shard (they conflict).
        for (i, sender) in (10..16u64).enumerate() {
            pool.insert(transfer(sender, 500, 0), 10, 1.0, 0, Some(10 + i as u64));
        }
        let lens = pool.shard_lens();
        assert_eq!(lens.iter().sum::<usize>(), 14);
        assert!(
            lens.iter().any(|&l| l >= 6),
            "conflicting deposits must colocate: {lens:?}"
        );
        pool.assert_shard_disjointness();
    }

    #[test]
    fn fusing_components_migrates_chains_between_shards() {
        // Find two sender/receiver pairs whose canonical shards differ (the stable
        // hash makes the search deterministic), then bridge them.
        let pool = ShardedMempool::new(2, 100);
        pool.insert(transfer(1, 100, 0), 10, 0.0, 0, Some(0));
        pool.insert(transfer(1, 100, 1), 10, 0.1, 0, Some(1));
        let first_shard = pool.shard_lens().iter().position(|&l| l == 2).unwrap();
        let mut other = 2u64;
        loop {
            let probe = ShardedMempool::new(2, 100);
            probe.insert(transfer(other, 100 + other, 0), 10, 0.0, 0, Some(0));
            if probe.shard_lens().iter().position(|&l| l == 1).unwrap() != first_shard {
                break;
            }
            other += 1;
        }
        pool.insert(transfer(other, 100 + other, 0), 10, 0.2, 0, Some(2));
        assert_eq!(pool.shard_lens(), {
            let mut lens = vec![0, 0];
            lens[first_shard] = 2;
            lens[1 - first_shard] = 1;
            lens
        });
        // A bridge fuses the two components: everything colocates on one shard.
        pool.insert(transfer(999, 100, 0), 10, 0.3, 0, Some(3));
        pool.insert(transfer(999, 100 + other, 1), 10, 0.4, 0, Some(4));
        let lens = pool.shard_lens();
        assert_eq!(lens.iter().sum::<usize>(), 5);
        assert!(lens.contains(&5), "fused component must colocate: {lens:?}");
        assert!(pool.migrated_chains() > 0);
        pool.assert_shard_disjointness();
        // Every chain stayed intact and in order.
        assert_eq!(
            keys(&pool),
            vec![(1, 0), (1, 1), (other, 0), (999, 0), (999, 1)]
        );
    }

    #[test]
    fn global_capacity_evicts_the_globally_cheapest_tail() {
        let pool = ShardedMempool::new(3, 3);
        pool.insert(transfer(1, 101, 0), 50, 0.0, 0, Some(0));
        pool.insert(transfer(2, 102, 0), 20, 0.1, 0, Some(1)); // global cheapest
        pool.insert(transfer(3, 103, 0), 30, 0.2, 0, Some(2));
        // Outbids the cheapest tail (on another shard than the newcomer's).
        assert_eq!(
            pool.insert(transfer(4, 104, 0), 40, 0.3, 0, Some(3)),
            AdmitOutcome::Admitted
        );
        assert_eq!(pool.len(), 3);
        assert!(!keys(&pool).contains(&(2, 0)), "cheapest tail must go");
        // Underbids everything: rejected, not admitted-then-evicted.
        assert_eq!(
            pool.insert(transfer(5, 105, 0), 10, 0.4, 0, Some(4)),
            AdmitOutcome::RejectedFull
        );
        assert_eq!(pool.len(), 3);
        let stats = pool.stats();
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.rejected_full, 1);
        assert_eq!(stats.admitted, 4); // 3 resident + 1 evicted
        pool.assert_shard_disjointness();
    }

    #[test]
    fn remove_packed_and_resync_mirror_the_single_pool() {
        let pool = ShardedMempool::new(2, 100);
        pool.insert(transfer(1, 100, 0), 10, 0.0, 0, Some(0));
        pool.insert(transfer(1, 100, 1), 10, 0.1, 0, Some(1));
        pool.insert(transfer(2, 200, 0), 10, 0.2, 0, Some(2));
        pool.remove_packed(&[transfer(1, 100, 0)]);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.stats().packed, 1);
        // Pretend nonce 1 failed validation: resync drops it.
        assert_eq!(pool.resync_sender(Address::from_low(1), 0), 1);
        assert_eq!(pool.len(), 1);
        assert_eq!(keys(&pool), vec![(2, 0)]);
    }

    #[test]
    fn rebalance_respreads_after_components_dissolve() {
        // Find a second sender whose canonical shard differs from sender 1's.
        let mut other = 2u64;
        loop {
            let probe = ShardedMempool::new(2, 100);
            probe.insert(transfer(1, 100, 0), 10, 0.0, 0, Some(0));
            probe.insert(transfer(other, 100 + other, 0), 10, 0.1, 0, Some(1));
            if probe.shard_lens() == vec![1, 1] {
                break;
            }
            other += 1;
        }
        let pool = ShardedMempool::new(2, 100);
        // A bridge fuses the two otherwise-independent senders onto one shard...
        pool.insert(transfer(1, 100, 0), 10, 0.0, 0, Some(0));
        pool.insert(transfer(other, 100 + other, 0), 10, 0.1, 0, Some(1));
        pool.insert(transfer(999, 100, 0), 10, 0.2, 0, Some(2));
        pool.insert(transfer(999, 100 + other, 1), 10, 0.3, 0, Some(3));
        let before = pool.shard_lens();
        assert!(
            before.contains(&4),
            "bridge must fuse everything: {before:?}"
        );
        // ...then the bridge is packed away; a rebalance un-fuses and re-spreads.
        pool.remove_packed(&[transfer(999, 100, 0), transfer(999, 100 + other, 1)]);
        pool.rebalance();
        let after = pool.shard_lens();
        assert_eq!(
            after,
            vec![1, 1],
            "dissolved components must spread: {after:?}"
        );
        assert_eq!(pool.rebalances(), 1);
        pool.assert_shard_disjointness();
    }

    #[test]
    fn single_shard_pool_tracks_a_plain_mempool_exactly() {
        let sharded = ShardedMempool::new(1, 4);
        let mut single = Mempool::new(4);
        let offers = [
            (1u64, 100u64, 0u64, 50u64),
            (1, 100, 1, 40),
            (2, 100, 0, 60),
            (2, 100, 1, 5),
            (3, 300, 0, 70), // evicts the cheapest tail
            (4, 400, 0, 1),  // rejected: underbids everything
            (1, 101, 1, 44), // replacement (10% bump)
        ];
        for (i, &(sender, receiver, nonce, fee)) in offers.iter().enumerate() {
            let tx = transfer(sender, receiver, nonce);
            let sharded_outcome = sharded.insert(tx.clone(), fee, i as f64, 0, Some(i as u64));
            let single_outcome = single.offer(tx, fee, i as f64, 0, Some(i as u64)).outcome;
            assert_eq!(sharded_outcome, single_outcome, "offer {i} diverged");
        }
        let sharded_keys = keys(&sharded);
        let single_keys: Vec<(u64, u64)> = single
            .iter()
            .map(|p| (p.tx.sender().low_u64(), p.tx.nonce()))
            .collect();
        assert_eq!(sharded_keys, single_keys);
        assert_eq!(sharded.stats(), single.stats());
    }

    #[test]
    fn admission_into_a_large_component_examines_only_what_it_moves() {
        // 2 000 senders deposit to one receiver; a sender below the component's
        // anchor then joins and re-homes it (every chain moves, once); 2 000 more
        // offers land in it (half extending chains, half new senders). Planning
        // may read a sender only to move it, so the count is bounded by the
        // chains migrated plus a constant per offer — a whole-component scan per
        // offer would examine ~6 000 000.
        use blockconc_graph::canonical_shard;
        let members = (1_000..3_000u64).chain([900_000]);
        let anchor = members.map(Address::from_low).min().unwrap();
        let low = (10_000..100_000u64)
            .find(|&low| {
                let low = Address::from_low(low);
                low < anchor && canonical_shard(low, 4) != canonical_shard(anchor, 4)
            })
            .expect("some smaller address hashes elsewhere");
        let pool = ShardedMempool::new(4, 100_000);
        let offers = (0..2_000u64)
            .map(|i| transfer(1_000 + i, 900_000, 0))
            .chain([transfer(low, 900_000, 0)])
            .chain((0..1_000u64).map(|i| transfer(1_000 + i, 900_000, 1)))
            .chain((0..1_000u64).map(|i| transfer(5_000 + i, 900_000, 0)));
        for (stamp, tx) in offers.enumerate() {
            let outcome = pool.insert(tx, 10, 0.0, 0, Some(stamp as u64));
            assert_eq!(outcome, AdmitOutcome::Admitted);
        }
        assert_eq!(pool.shard_lens().iter().filter(|&&l| l > 0).count(), 1);
        pool.assert_shard_disjointness();
        let router = pool.router.lock().unwrap();
        assert!(router.migrated_chains >= 2_000, "the re-homing must happen");
        assert!(
            router.senders_examined <= 4_001 + router.migrated_chains,
            "examined {} senders for 4 001 offers and {} migrated chains",
            router.senders_examined,
            router.migrated_chains
        );
    }
}
