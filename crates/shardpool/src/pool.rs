//! The concurrent, TDG-component-sharded mempool.

use crate::router::{Migration, Router};
use blockconc_account::AccountTransaction;
use blockconc_pipeline::{
    effective_receiver, AdmitOutcome, IncrementalTdg, Mempool, MempoolStats, PooledTx, TrackedPool,
};
use blockconc_types::Address;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

const POISON: &str = "shard lock poisoned";

/// One shard: a single-threaded [`Mempool`] plus its incremental dependency
/// graph, kept current by [`TrackedPool`] on every admission, replacement,
/// eviction, packed removal, migration and rebalance — inside the shard's critical
/// section, so no lazy O(shard) rebuild ever blocks producers behind the lock.
type Shard = TrackedPool;

/// Stat corrections the sharded pool applies on top of the per-shard counters, so
/// [`ShardedMempool::stats`] reports exactly what a single pool would have reported
/// for the same offers (admissions that the global capacity rule later reversed,
/// global evictions the shards could not count, racing rejections that were retried).
#[derive(Debug, Default)]
struct Corrections {
    evicted: u64,
    rejected_full: u64,
    admit_reversals: u64,
    nonce_reversals: u64,
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
/// *router before shards, shards in index order*. The insert fast path touches the
/// router twice (route, settle) and one shard in between, never holding both; the
/// slow paths (migration, global eviction, rebalancing) hold the router while
/// visiting shards. Threads holding a shard lock never wait on the router, so the
/// ordering is cycle-free.
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
        stats.rejected_nonce -= corrections.nonce_reversals;
        stats
    }

    /// A cheap shard guess for queue assignment (the router's hint path); the
    /// authoritative routing happens inside [`ShardedMempool::insert`].
    pub(crate) fn route_hint(&self, sender: Address, receiver: Address) -> usize {
        self.router
            .lock()
            .expect(POISON)
            .route_hint(sender, receiver)
    }

    /// Offers a transaction to the pool under the same admission rules as
    /// [`Mempool::insert`], concurrently callable from any number of threads.
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
        let sender = tx.sender();
        let receiver = effective_receiver(&tx);

        // The retry loop only spins when a concurrent migration moved the sender's
        // chain between routing and insertion — bounded, vanishingly rare traffic.
        for _attempt in 0..8 {
            // Phase 1: route under the router lock; execute any fusing migrations.
            let target = {
                let mut router = self.router.lock().expect(POISON);
                let decision = router.route(sender, receiver);
                self.execute_migrations(&mut router, &decision.migrations);
                decision.shard
            };

            // Phase 2: offer to the target shard (shard lock only).
            let outcome = self.shards[target]
                .lock()
                .expect(POISON)
                .offer(&tx, fee_per_gas, arrival_secs, account_nonce, stamp)
                .outcome;

            // Phase 3: settle under the router lock — re-assert the edge, account
            // the admission, repair routing races, enforce the global capacity.
            let mut router = self.router.lock().expect(POISON);
            match outcome {
                AdmitOutcome::Admitted | AdmitOutcome::Replaced => {
                    // Re-route on the *current* router state: a concurrent
                    // rebalance may have replaced the union–find since phase 1,
                    // discarding the pre-insert union — an edge the pool now
                    // physically contains must never be missing from the router,
                    // or two conflicting transactions could drift onto different
                    // shards. Re-routing is idempotent when nothing changed.
                    let decision = router.route(sender, receiver);
                    self.execute_migrations(&mut router, &decision.migrations);
                    if outcome == AdmitOutcome::Replaced {
                        // Membership is unchanged; any needed move was covered by
                        // the migrations above (chains move whole).
                        return outcome;
                    }
                    let settled = router.note_admitted(sender, decision.shard);
                    let mut outcome = outcome;
                    if settled != target {
                        // A migration moved the chain mid-insert; reunite our stray
                        // entry with it.
                        outcome = self.reunite(&mut router, sender, target, settled, outcome);
                    }
                    // The component itself may have been reassigned under us.
                    let desired = router.component_shard(sender).unwrap_or(settled);
                    if outcome == AdmitOutcome::Admitted && desired != settled {
                        self.move_sender(sender, settled, desired);
                        router.apply_migration(sender, desired);
                    }
                    if outcome == AdmitOutcome::Admitted && router.total_live() > self.capacity {
                        outcome =
                            self.enforce_capacity(&mut router, sender, tx.nonce(), fee_per_gas);
                    }
                    return outcome;
                }
                AdmitOutcome::RejectedGap | AdmitOutcome::RejectedStale => {
                    // If the chain migrated away between phases the rejection was
                    // computed against the wrong (empty) queue: undo and retry.
                    if router.pin_shard(sender).is_some_and(|pin| pin != target) {
                        self.corrections.lock().expect(POISON).nonce_reversals += 1;
                        continue;
                    }
                    return outcome;
                }
                _ => return outcome,
            }
        }
        // Unreachable in practice; treat persistent routing churn as a full pool.
        self.corrections.lock().expect(POISON).rejected_full += 1;
        AdmitOutcome::RejectedFull
    }

    /// Executes migration orders (caller holds the router lock; shard locks are
    /// taken one at a time, which respects the router-before-shards order).
    fn execute_migrations(&self, router: &mut Router, migrations: &[Migration]) {
        for migration in migrations {
            self.move_sender(migration.sender, migration.from, migration.to);
            router.apply_migration(migration.sender, migration.to);
        }
    }

    /// Physically moves every pooled transaction of `sender` from one shard to
    /// another, preserving admission metadata — O(chain) in both shards.
    fn move_sender(&self, sender: Address, from: usize, to: usize) {
        if from == to {
            return;
        }
        let moved = self.shards[from].lock().expect(POISON).take_sender(sender);
        if moved.is_empty() {
            return;
        }
        let mut shard = self.shards[to].lock().expect(POISON);
        for pooled in moved {
            shard.restore(pooled);
        }
    }

    /// Repairs the rare race where the sender's chain migrated away while we were
    /// inserting: our freshly admitted entry sits on the old shard while the chain
    /// lives on `home`. Entries whose slot is already occupied at home (a
    /// replacement that was judged against an empty raced queue) are re-offered
    /// through the real admission rules instead of restored.
    fn reunite(
        &self,
        router: &mut Router,
        sender: Address,
        stray_shard: usize,
        home: usize,
        outcome: AdmitOutcome,
    ) -> AdmitOutcome {
        let strays = self.shards[stray_shard]
            .lock()
            .expect(POISON)
            .take_sender(sender);
        let mut outcome = outcome;
        let mut shard = self.shards[home].lock().expect(POISON);
        for stray in strays {
            let nonce = stray.tx.nonce();
            if shard.pool().get(sender, nonce).is_some() {
                // Occupied slot: judge the stray as the replacement it really is.
                outcome = shard
                    .offer(
                        &stray.tx,
                        stray.fee_per_gas,
                        stray.arrival_secs,
                        nonce,
                        Some(stray.seq),
                    )
                    .outcome;
                // The stray's provisional admission is reversed either way: it
                // became a replacement or was dropped as underpriced.
                router.note_removed(sender, 1);
                self.corrections.lock().expect(POISON).admit_reversals += 1;
            } else {
                shard.restore(stray);
            }
        }
        outcome
    }

    /// Evicts globally cheapest chain tails until the pool fits its capacity
    /// (caller holds the router lock), applying the single pool's rule *as of
    /// before the newcomer's optimistic admission*: the newcomer stays only if it
    /// strictly outbids the cheapest pre-insert tail of another sender — otherwise
    /// its admission is reversed into a `RejectedFull`. In particular, a newcomer
    /// whose own previous chain tail is the global cheapest is rejected (evicting
    /// it would gap the newcomer's own chain), exactly like `Mempool::insert`.
    fn enforce_capacity(
        &self,
        router: &mut Router,
        newcomer: Address,
        newcomer_nonce: u64,
        newcomer_fee: u64,
    ) -> AdmitOutcome {
        let mut guards: Vec<MutexGuard<'_, Shard>> = self
            .shards
            .iter()
            .map(|shard| shard.lock().expect(POISON))
            .collect();
        let mut outcome = AdmitOutcome::Admitted;
        // Whether the newcomer's entry is still pooled (a concurrent insert's
        // capacity pass may have evicted it before this one ran). All locks are
        // held, so only this loop's own reversal can change it below.
        let mut newcomer_present = guards
            .iter()
            .any(|guard| guard.pool().get(newcomer, newcomer_nonce).is_some());
        loop {
            let total: usize = guards.iter().map(|guard| guard.pool().len()).sum();
            if total <= self.capacity {
                break;
            }
            let exclude = newcomer_present.then_some((newcomer, newcomer_nonce));
            let victim = guards
                .iter()
                .enumerate()
                .filter_map(|(index, guard)| {
                    guard.pool().cheapest_tail_excluding(exclude).map(
                        |(sender, nonce, fee, seq)| {
                            (fee, std::cmp::Reverse(seq), index, sender, nonce)
                        },
                    )
                })
                .min();
            let evictable = victim.is_some_and(|(fee, _, _, sender, _)| {
                !newcomer_present || (fee < newcomer_fee && sender != newcomer)
            });
            if evictable {
                let (_, _, shard_index, victim_sender, victim_nonce) =
                    victim.expect("checked above");
                // Never evict an entry whose insert has not settled yet (its
                // pooled count is ahead of the router's accounting): the settle
                // phase would then credit a transaction that no longer exists and
                // the live counters would drift forever. Leave the pool briefly
                // over capacity instead — the pending settle re-runs enforcement.
                let pooled: usize = guards
                    .iter()
                    .map(|guard| guard.pool().sender_tx_count(victim_sender))
                    .sum();
                if pooled != router.pin_live(victim_sender) {
                    break;
                }
                guards[shard_index]
                    .remove(victim_sender, victim_nonce)
                    .expect("cheapest tail is pooled");
                router.note_removed(victim_sender, 1);
                self.corrections.lock().expect(POISON).evicted += 1;
            } else if newcomer_present {
                // The newcomer does not outbid any other sender's tail: reverse its
                // optimistic admission.
                for guard in guards.iter_mut() {
                    if guard.remove(newcomer, newcomer_nonce).is_some() {
                        break;
                    }
                }
                router.note_removed(newcomer, 1);
                let mut corrections = self.corrections.lock().expect(POISON);
                corrections.admit_reversals += 1;
                corrections.rejected_full += 1;
                outcome = AdmitOutcome::RejectedFull;
                newcomer_present = false;
            } else {
                break;
            }
        }
        outcome
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
    /// [`Mempool::resync_sender`]. Returns the number of entries dropped.
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
    /// migrated. Best called between blocks; it holds the router *and every shard
    /// lock* for its whole duration, so the snapshot it rebuilds from is exactly
    /// the pool's content and no insert can slip an edge past the rebuild. (An
    /// insert whose settle phase runs after the rebalance re-asserts its edge on
    /// the fresh state — see the settle phase of [`ShardedMempool::insert`] — so
    /// even in-flight traffic converges.)
    pub fn rebalance(&self) -> usize {
        let mut router = self.router.lock().expect(POISON);
        let mut guards: Vec<MutexGuard<'_, Shard>> = self
            .shards
            .iter()
            .map(|shard| shard.lock().expect(POISON))
            .collect();
        let residents: Vec<(Address, Address)> = guards
            .iter()
            .flat_map(|guard| {
                guard
                    .pool()
                    .iter()
                    .map(|p| (p.tx.sender(), effective_receiver(&p.tx)))
                    .collect::<Vec<_>>()
            })
            .collect();
        let migrations = router.rebalance(&residents);
        for migration in &migrations {
            let chain = guards[migration.from].take_sender(migration.sender);
            for pooled in chain {
                guards[migration.to].restore(pooled);
            }
            router.apply_migration(migration.sender, migration.to);
        }
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
            let single_outcome = single.insert_stamped(tx, fee, i as f64, 0, Some(i as u64));
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
}
