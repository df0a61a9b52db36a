//! The fee-prioritized, nonce-ordered, sender-indexed mempool.

use blockconc_account::{AccountTransaction, TxPayload};
use blockconc_types::{Address, Gas};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Estimated gas consumption of a transaction before execution, used as the packing
/// weight. Real builders use the declared gas *limit*; the convenience constructors in
/// this workspace all declare the same generous limit, so the pipeline instead
/// estimates by payload kind (transfers cost exactly the intrinsic 21 000; calls and
/// creations are charged a calibrated flat surcharge).
pub fn gas_estimate(tx: &AccountTransaction) -> Gas {
    match tx.payload() {
        TxPayload::Transfer => Gas::BASE_TX,
        TxPayload::ContractCall { .. } => Gas::new(60_000),
        TxPayload::ContractCreate { .. } => Gas::new(80_000),
    }
}

/// A transaction resident in the mempool, with its fee bid and arrival metadata.
#[derive(Debug, Clone)]
pub struct PooledTx {
    /// The transaction.
    pub tx: AccountTransaction,
    /// The sender's fee bid per gas unit (the packers' priority signal).
    pub fee_per_gas: u64,
    /// Arrival time in seconds since the stream started.
    pub arrival_secs: f64,
    /// Admission sequence number; the deterministic FIFO tie-breaker.
    pub seq: u64,
}

/// What happened to a transaction offered to [`Mempool::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// Accepted as a new entry.
    Admitted,
    /// Replaced an existing same-sender/same-nonce entry (fee bump rule satisfied).
    Replaced,
    /// Rejected: an entry with the same sender and nonce holds a fee less than
    /// [`Mempool::REPLACEMENT_BUMP_PERCENT`] percent below the offer.
    RejectedUnderpriced,
    /// Rejected: the pool is full and the offer does not outbid the cheapest
    /// evictable entry.
    RejectedFull,
    /// Rejected: the nonce is below the sender's account nonce (already executed).
    RejectedStale,
    /// Rejected: the nonce is above the sender's next unpooled nonce, so admitting it
    /// would open a gap that could never be packed (the stream will not re-emit the
    /// missing nonce — e.g. after its entry was evicted).
    RejectedGap,
}

/// Counters describing a mempool's admission history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MempoolStats {
    /// Transactions admitted as new entries.
    pub admitted: u64,
    /// Admissions that replaced an existing entry.
    pub replaced: u64,
    /// Rejections under the replacement fee-bump rule.
    pub rejected_underpriced: u64,
    /// Rejections because the pool was full.
    pub rejected_full: u64,
    /// Rejections of stale or gap-opening nonces.
    pub rejected_nonce: u64,
    /// Entries dropped by [`Mempool::resync_sender_removed`] after a validation
    /// failure left them unpackable.
    pub dropped_unpackable: u64,
    /// Entries evicted to make room for better-paying arrivals.
    pub evicted: u64,
    /// Entries removed because a packed block included them.
    pub packed: u64,
}

impl MempoolStats {
    /// Accumulates another stats record into this one (used by sharded pools to
    /// aggregate per-shard counters).
    pub fn merge(&mut self, other: &MempoolStats) {
        self.admitted += other.admitted;
        self.replaced += other.replaced;
        self.rejected_underpriced += other.rejected_underpriced;
        self.rejected_full += other.rejected_full;
        self.rejected_nonce += other.rejected_nonce;
        self.dropped_unpackable += other.dropped_unpackable;
        self.evicted += other.evicted;
        self.packed += other.packed;
    }
}

/// A contiguous run of one sender's pending transactions, starting at the sender's
/// current account nonce — the unit from which packers may take any prefix.
#[derive(Debug)]
pub struct ReadyChain<'a> {
    /// The sending address.
    pub sender: Address,
    /// The sender's transactions in nonce order, gap-free from the account nonce.
    pub txs: Vec<&'a PooledTx>,
}

/// One entry of the maintained fee-ordered ready-chain-head index:
/// `(fee_per_gas, Reverse(seq), sender)`. Iterating the index *backwards* yields
/// chain heads in packing priority order — highest fee first, oldest admission
/// (lowest `seq`) on ties — matching the packers' candidate ordering exactly.
pub type ReadyHeadKey = (u64, Reverse<u64>, Address);

/// One entry of the maintained eviction index over chain *tails*:
/// `(fee_per_gas, Reverse(seq), sender, nonce)`. The first entry in ascending
/// order is the cheapest evictable tail (lowest fee, newest admission on ties).
type TailKey = (u64, Reverse<u64>, Address, u64);

/// The index keys currently registered for one sender (what must be deleted from
/// the ordered sets before re-inserting fresh keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SenderKeys {
    /// Head entry `(fee, seq)` — the nonce is implicit (the queue's first).
    head: (u64, u64),
    /// Tail entry `(fee, seq, nonce)`.
    tail: (u64, u64, u64),
}

/// Everything one [`Mempool::offer`] did, beyond the outcome: the entries the
/// admission displaced, so callers maintaining pool-adjacent structures (the
/// incremental TDG, shard routing counts) can apply the same delta without
/// rescanning the pool.
#[derive(Debug)]
pub struct AdmitEffects {
    /// What happened to the offered transaction.
    pub outcome: AdmitOutcome,
    /// The same-slot entry a [`AdmitOutcome::Replaced`] admission superseded.
    pub replaced: Option<PooledTx>,
    /// The chain tail a capacity-bound admission evicted.
    pub evicted: Option<PooledTx>,
}

impl AdmitEffects {
    fn plain(outcome: AdmitOutcome) -> Self {
        AdmitEffects {
            outcome,
            replaced: None,
            evicted: None,
        }
    }
}

/// A fee-prioritized, sender-indexed transaction pool.
///
/// Entries are indexed by `(sender, nonce)`. Per sender, nonces form an ordered queue;
/// packers may only include a gap-free prefix starting at the sender's current account
/// nonce, which preserves nonce validity by construction. Admission follows the rules
/// of production pools:
///
/// * **Nonce discipline**: a sender's queue is kept gap-free from the account nonce
///   supplied at admission — stale nonces and nonces past the next unpooled slot are
///   rejected, so an evicted tail can never strand later arrivals behind an
///   unfillable gap.
/// * **Replacement**: a new transaction with an occupied `(sender, nonce)` slot must
///   bid at least [`Self::REPLACEMENT_BUMP_PERCENT`]% more than the incumbent.
/// * **Eviction**: when the pool is at capacity, the cheapest *chain tail* (the
///   highest pending nonce of the sender holding the lowest fee bid) is evicted if
///   the newcomer outbids it — never a mid-chain entry, so eviction cannot create
///   nonce gaps.
///
/// # Examples
///
/// ```
/// use blockconc_pipeline::{AdmitOutcome, Mempool};
/// use blockconc_account::AccountTransaction;
/// use blockconc_types::{Address, Amount};
///
/// let mut pool = Mempool::new(100);
/// let tx = AccountTransaction::transfer(
///     Address::from_low(1), Address::from_low(2), Amount::from_sats(5), 0);
/// assert_eq!(pool.insert(tx.clone(), 10, 0.0, 0), AdmitOutcome::Admitted);
/// // Same sender and nonce at the same fee (no bump): under the 10% bump rule.
/// let bump = AccountTransaction::transfer(
///     Address::from_low(1), Address::from_low(3), Amount::from_sats(5), 0);
/// assert_eq!(pool.insert(bump.clone(), 10, 1.0, 0), AdmitOutcome::RejectedUnderpriced);
/// assert_eq!(pool.insert(bump, 11, 1.0, 0), AdmitOutcome::Replaced);
/// assert_eq!(pool.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Mempool {
    by_sender: BTreeMap<Address, BTreeMap<u64, PooledTx>>,
    /// Maintained fee-ordered index of ready-chain heads (see [`ReadyHeadKey`]),
    /// updated on every insert/remove/replace/nonce-advance — the packers consume
    /// it by reference instead of rebuilding a sorted view per block.
    heads: BTreeSet<ReadyHeadKey>,
    /// Maintained eviction index over chain tails; makes the capacity rule's
    /// cheapest-tail search O(log pool) instead of O(senders).
    tails: BTreeSet<TailKey>,
    /// The index keys registered per sender (for O(log) delta updates).
    sender_keys: HashMap<Address, SenderKeys>,
    /// Total [`gas_estimate`] of all resident transactions, maintained per delta.
    ready_gas: u64,
    len: usize,
    capacity: usize,
    next_seq: u64,
    stats: MempoolStats,
}

impl Mempool {
    /// Minimum relative fee improvement (percent) required to replace an entry
    /// occupying the same `(sender, nonce)` slot.
    pub const REPLACEMENT_BUMP_PERCENT: u64 = 10;

    /// Creates a pool holding at most `capacity` transactions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "mempool capacity must be positive");
        Mempool {
            capacity,
            ..Mempool::default()
        }
    }

    /// Number of resident transactions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the pool holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The admission counters.
    pub fn stats(&self) -> MempoolStats {
        self.stats
    }

    /// Iterates over all resident transactions (sender order, then nonce order).
    pub fn iter(&self) -> impl Iterator<Item = &PooledTx> {
        self.by_sender.values().flat_map(|queue| queue.values())
    }

    /// Offers a transaction to the pool; see the type-level documentation for the
    /// admission rules. `account_nonce` is the sender's current account nonce, which
    /// anchors the nonce-discipline check.
    pub fn insert(
        &mut self,
        tx: AccountTransaction,
        fee_per_gas: u64,
        arrival_secs: f64,
        account_nonce: u64,
    ) -> AdmitOutcome {
        self.offer(tx, fee_per_gas, arrival_secs, account_nonce, None)
            .outcome
    }

    /// [`Mempool::insert`] with a caller-chosen admission sequence number,
    /// additionally reporting the entries the admission displaced (the superseded
    /// same-slot entry of a replacement, the evicted chain tail of a capacity
    /// admission). Callers that maintain pool-adjacent incremental structures — the
    /// drivers' [`IncrementalTdg`](crate::IncrementalTdg), the sharded pool's
    /// routing counts — apply these effects as O(1) edits instead of rebuilding from
    /// a pool scan.
    ///
    /// A sharded pool admits transactions from concurrent producer threads, so the
    /// pool-internal admission counter would depend on thread interleaving; passing a
    /// deterministic `stamp` (e.g. the transaction's position in the arrival stream)
    /// keeps every fee tie-breaker — packing order and eviction choice — reproducible
    /// regardless of scheduling. The internal counter is advanced past any stamp, so
    /// mixing stamped and unstamped admissions cannot reuse a sequence number.
    pub fn offer(
        &mut self,
        tx: AccountTransaction,
        fee_per_gas: u64,
        arrival_secs: f64,
        account_nonce: u64,
        stamp: Option<u64>,
    ) -> AdmitEffects {
        let sender = tx.sender();
        let nonce = tx.nonce();

        // Nonce discipline: only the occupied range (replacement) or the next
        // unpooled slot (extension) are admissible; anything else could never be
        // packed and would strand capacity.
        if nonce < account_nonce {
            self.stats.rejected_nonce += 1;
            return AdmitEffects::plain(AdmitOutcome::RejectedStale);
        }
        let mut next_unpooled = account_nonce;
        if let Some(queue) = self.by_sender.get(&sender) {
            for &pooled_nonce in queue.range(account_nonce..).map(|(n, _)| n) {
                if pooled_nonce == next_unpooled {
                    next_unpooled += 1;
                } else {
                    break;
                }
            }
        }
        if nonce > next_unpooled {
            self.stats.rejected_nonce += 1;
            return AdmitEffects::plain(AdmitOutcome::RejectedGap);
        }

        // Replacement of an occupied (sender, nonce) slot.
        if let Some(existing) = self.by_sender.get(&sender).and_then(|q| q.get(&nonce)) {
            // Ceiling division keeps the required bump strictly positive at low fees.
            let bump = (existing.fee_per_gas * Self::REPLACEMENT_BUMP_PERCENT).div_ceil(100);
            let required = existing.fee_per_gas + bump.max(1);
            if fee_per_gas < required {
                self.stats.rejected_underpriced += 1;
                return AdmitEffects::plain(AdmitOutcome::RejectedUnderpriced);
            }
            let seq = self.bump_seq(stamp);
            self.ready_gas += gas_estimate(&tx).value();
            let queue = self.by_sender.get_mut(&sender).expect("sender present");
            let replaced = queue
                .insert(
                    nonce,
                    PooledTx {
                        tx,
                        fee_per_gas,
                        arrival_secs,
                        seq,
                    },
                )
                .expect("occupied slot holds an entry");
            self.ready_gas -= gas_estimate(&replaced.tx).value();
            self.refresh_sender_index(sender);
            self.stats.replaced += 1;
            return AdmitEffects {
                outcome: AdmitOutcome::Replaced,
                replaced: Some(replaced),
                evicted: None,
            };
        }

        // Capacity: evict the cheapest chain tail if the newcomer outbids it.
        let mut evicted = None;
        if self.len >= self.capacity {
            match self.cheapest_tail_excluding(None) {
                Some((victim_sender, victim_nonce, victim_fee, _))
                    if victim_fee < fee_per_gas && victim_sender != sender =>
                {
                    evicted = self.remove(victim_sender, victim_nonce);
                    self.stats.evicted += 1;
                }
                _ => {
                    self.stats.rejected_full += 1;
                    return AdmitEffects::plain(AdmitOutcome::RejectedFull);
                }
            }
        }

        let seq = self.bump_seq(stamp);
        self.ready_gas += gas_estimate(&tx).value();
        self.by_sender.entry(sender).or_default().insert(
            nonce,
            PooledTx {
                tx,
                fee_per_gas,
                arrival_secs,
                seq,
            },
        );
        self.len += 1;
        self.refresh_sender_index(sender);
        self.stats.admitted += 1;
        AdmitEffects {
            outcome: AdmitOutcome::Admitted,
            replaced: None,
            evicted,
        }
    }

    /// Removes and returns the entry at `(sender, nonce)`, if present.
    pub fn remove(&mut self, sender: Address, nonce: u64) -> Option<PooledTx> {
        let queue = self.by_sender.get_mut(&sender)?;
        let removed = queue.remove(&nonce)?;
        if queue.is_empty() {
            self.by_sender.remove(&sender);
        }
        self.len -= 1;
        self.ready_gas -= gas_estimate(&removed.tx).value();
        self.refresh_sender_index(sender);
        Some(removed)
    }

    /// Removes one packed transaction, updating the `packed` counter — the
    /// per-transaction unit of [`Mempool::remove_packed_returning`], exposed so
    /// sharded callers can settle blocks in deterministic block order.
    pub fn remove_packed_one(&mut self, tx: &AccountTransaction) -> Option<PooledTx> {
        let removed = self.remove(tx.sender(), tx.nonce());
        if removed.is_some() {
            self.stats.packed += 1;
        }
        removed
    }

    /// Removes every transaction of a packed block from the pool, updating the
    /// `packed` counter, and returns the removed entries (in block order) so the
    /// caller can mirror the removal into incremental structures.
    pub fn remove_packed_returning(&mut self, txs: &[AccountTransaction]) -> Vec<PooledTx> {
        txs.iter()
            .filter_map(|tx| self.remove_packed_one(tx))
            .collect()
    }

    /// Drops every entry of `sender` that can no longer be packed given its current
    /// account nonce: stale nonces below it, and everything above the first missing
    /// nonce at or after it. Returns the dropped entries (in nonce order) so the
    /// caller can mirror the removal into incremental structures.
    ///
    /// Needed when a packed transaction *fails validation* at execution (the account
    /// nonce does not advance past it): the block's transactions have already been
    /// removed from the pool, so the sender's later nonces sit behind a gap that no
    /// future arrival will fill — without this sweep they would occupy capacity
    /// forever.
    pub fn resync_sender_removed(&mut self, sender: Address, account_nonce: u64) -> Vec<PooledTx> {
        let Some(queue) = self.by_sender.get_mut(&sender) else {
            return Vec::new();
        };
        // Keys ascend, so a running expected nonce identifies the contiguous
        // packable run; everything else is unpackable.
        let mut expected = account_nonce;
        let doomed: Vec<u64> = queue
            .keys()
            .filter(|&&nonce| {
                if nonce == expected {
                    expected += 1;
                    false
                } else {
                    true
                }
            })
            .copied()
            .collect();
        let mut removed = Vec::with_capacity(doomed.len());
        for nonce in doomed {
            let entry = queue.remove(&nonce).expect("doomed nonce is pooled");
            self.ready_gas -= gas_estimate(&entry.tx).value();
            removed.push(entry);
        }
        if queue.is_empty() {
            self.by_sender.remove(&sender);
        }
        self.len -= removed.len();
        self.stats.dropped_unpackable += removed.len() as u64;
        self.refresh_sender_index(sender);
        removed
    }

    /// The per-sender gap-free transaction chains that are ready for inclusion given
    /// the account nonces in `state_nonce` (a function from sender to current nonce).
    /// Chains are returned in sender-address order, so the result is deterministic.
    ///
    /// This is an O(pool) materialized snapshot, kept for tests and cross-checks;
    /// the packers consume the maintained [`Mempool::ready_heads`] index instead,
    /// which never rescans the pool.
    pub fn ready_chains(&self, state_nonce: impl Fn(Address) -> u64) -> Vec<ReadyChain<'_>> {
        let mut chains = Vec::new();
        for (&sender, queue) in &self.by_sender {
            let start = state_nonce(sender);
            let mut txs = Vec::new();
            for (offset, (&nonce, pooled)) in queue.range(start..).enumerate() {
                if nonce != start + offset as u64 {
                    break; // nonce gap: the rest of the queue is not yet includable
                }
                txs.push(pooled);
            }
            if !txs.is_empty() {
                chains.push(ReadyChain { sender, txs });
            }
        }
        chains
    }

    /// The pooled entry at `(sender, nonce)`, if any.
    pub fn get(&self, sender: Address, nonce: u64) -> Option<&PooledTx> {
        self.by_sender.get(&sender)?.get(&nonce)
    }

    /// Removes and returns every transaction of `sender`, in nonce order.
    ///
    /// This is the migration primitive of the sharded pool: when two dependency
    /// components on different shards fuse, whole sender chains move between shards
    /// via `take_sender` + [`Mempool::restore`], which preserves their fee bids,
    /// arrival times and admission stamps (and therefore every deterministic
    /// tie-breaker). No admission counters are touched — the transactions never left
    /// the logical pool.
    pub fn take_sender(&mut self, sender: Address) -> Vec<PooledTx> {
        let Some(queue) = self.by_sender.remove(&sender) else {
            return Vec::new();
        };
        self.len -= queue.len();
        let taken: Vec<PooledTx> = queue.into_values().collect();
        for entry in &taken {
            self.ready_gas -= gas_estimate(&entry.tx).value();
        }
        self.refresh_sender_index(sender);
        taken
    }

    /// Re-inserts an entry previously removed with [`Mempool::take_sender`],
    /// preserving its admission metadata and bypassing the admission rules (the entry
    /// was already admitted once; the caller moves whole gap-free chains, so the
    /// nonce-discipline invariant is preserved by construction). No admission
    /// counters are touched.
    ///
    /// # Panics
    ///
    /// Panics if the `(sender, nonce)` slot is already occupied, which would mean the
    /// caller split or duplicated a chain.
    pub fn restore(&mut self, pooled: PooledTx) {
        let sender = pooled.tx.sender();
        let nonce = pooled.tx.nonce();
        self.next_seq = self.next_seq.max(pooled.seq + 1);
        self.ready_gas += gas_estimate(&pooled.tx).value();
        let previous = self
            .by_sender
            .entry(sender)
            .or_default()
            .insert(nonce, pooled);
        assert!(
            previous.is_none(),
            "restore would overwrite pooled entry {sender}:{nonce}"
        );
        self.len += 1;
        self.refresh_sender_index(sender);
    }

    /// The cheapest evictable entry: `(sender, nonce, fee, seq)` of the chain tail
    /// with the lowest fee bid (newest admission — highest `seq` — breaks ties),
    /// answered from the maintained tail index in O(log pool). A sharded pool uses
    /// this to enforce a *global* capacity across per-shard pools, which is why the
    /// admission sequence number is exposed: stamped admissions (see
    /// [`Mempool::offer`]) make `seq` comparable across shards.
    ///
    /// With `exclude = Some((sender, nonce))` it reads as it would have *before*
    /// that entry was admitted: the entry is ignored and its sender's tail falls
    /// back to the predecessor nonce (if any).
    ///
    /// This lets a sharded pool admit optimistically and then apply the single
    /// pool's capacity rule exactly — the rule compares the newcomer against the
    /// *pre-insert* tails, and in particular never evicts the newcomer's own chain
    /// to make room for it.
    pub fn cheapest_tail_excluding(
        &self,
        exclude: Option<(Address, u64)>,
    ) -> Option<(Address, u64, u64, u64)> {
        // If the excluded entry is its sender's current tail, that sender competes
        // with its predecessor entry instead.
        let mut excluded_key: Option<TailKey> = None;
        let mut substitute: Option<TailKey> = None;
        if let Some((sender, nonce)) = exclude {
            if let Some(queue) = self.by_sender.get(&sender) {
                if let Some((&tail_nonce, tail)) = queue.last_key_value() {
                    if tail_nonce == nonce {
                        excluded_key = Some((tail.fee_per_gas, Reverse(tail.seq), sender, nonce));
                        substitute = queue
                            .range(..nonce)
                            .next_back()
                            .map(|(&n, p)| (p.fee_per_gas, Reverse(p.seq), sender, n));
                    }
                }
            }
        }
        let indexed = self
            .tails
            .iter()
            .find(|&&key| Some(key) != excluded_key)
            .copied();
        let best = match (indexed, substitute) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        best.map(|(fee, Reverse(seq), sender, nonce)| (sender, nonce, fee, seq))
    }

    /// The maintained fee-ordered ready-chain-head index, by reference. Iterate it
    /// *backwards* for packing priority order; look chains up with
    /// [`Mempool::head_of`] / [`Mempool::get`] as you walk.
    ///
    /// Every pooled transaction is ready by the pool's maintained invariant: per
    /// sender, the queue is gap-free from the account nonce the entries were
    /// admitted against, packed prefixes are removed bottom-up, eviction takes only
    /// tails, and validation failures are swept by [`Mempool::resync_sender_removed`] — so
    /// chain heads *are* the ready-chain heads, with no per-pack state scan.
    pub fn ready_heads(&self) -> &BTreeSet<ReadyHeadKey> {
        &self.heads
    }

    /// Total [`gas_estimate`] of all resident transactions (maintained, O(1)) —
    /// the packers' gas-profile input for the block-capacity estimate.
    pub fn ready_gas(&self) -> Gas {
        Gas::new(self.ready_gas)
    }

    /// The head (lowest-nonce entry) of `sender`'s chain, if any.
    pub fn head_of(&self, sender: Address) -> Option<&PooledTx> {
        self.by_sender
            .get(&sender)?
            .first_key_value()
            .map(|(_, pooled)| pooled)
    }

    /// Number of `sender`'s pooled entries with nonce ≥ `nonce`, in O(log pool).
    /// Relies on the pool's gap-free-chain invariant (see
    /// [`Mempool::ready_heads`]), which makes it pure index arithmetic — the
    /// packers use it to attribute a deferred chain's remaining length without
    /// walking the chain.
    pub fn chain_len_from(&self, sender: Address, nonce: u64) -> usize {
        let Some(queue) = self.by_sender.get(&sender) else {
            return 0;
        };
        let Some((&first, _)) = queue.first_key_value() else {
            return 0;
        };
        if nonce <= first {
            queue.len()
        } else {
            queue.len().saturating_sub((nonce - first) as usize)
        }
    }

    /// Re-derives `sender`'s head/tail index keys from its queue and applies the
    /// delta to the ordered sets — O(log pool), called after every queue mutation.
    fn refresh_sender_index(&mut self, sender: Address) {
        let fresh = self.by_sender.get(&sender).map(|queue| {
            let (_, head) = queue.first_key_value().expect("non-empty queue");
            let (&tail_nonce, tail) = queue.last_key_value().expect("non-empty queue");
            SenderKeys {
                head: (head.fee_per_gas, head.seq),
                tail: (tail.fee_per_gas, tail.seq, tail_nonce),
            }
        });
        let stale = match fresh {
            Some(keys) => self.sender_keys.insert(sender, keys),
            None => self.sender_keys.remove(&sender),
        };
        if stale == fresh {
            return;
        }
        if let Some(old) = stale {
            self.heads
                .remove(&(old.head.0, Reverse(old.head.1), sender));
            self.tails
                .remove(&(old.tail.0, Reverse(old.tail.1), sender, old.tail.2));
        }
        if let Some(new) = fresh {
            self.heads.insert((new.head.0, Reverse(new.head.1), sender));
            self.tails
                .insert((new.tail.0, Reverse(new.tail.1), sender, new.tail.2));
        }
    }

    fn bump_seq(&mut self, stamp: Option<u64>) -> u64 {
        let seq = match stamp {
            Some(stamp) => stamp,
            None => self.next_seq,
        };
        self.next_seq = self.next_seq.max(seq + 1);
        seq
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

    #[test]
    fn admission_and_iteration_order_are_deterministic() {
        let mut pool = Mempool::new(10);
        pool.insert(transfer(2, 9, 0), 5, 0.0, 0);
        pool.insert(transfer(1, 9, 0), 3, 0.1, 0);
        pool.insert(transfer(1, 9, 1), 7, 0.2, 0);
        let order: Vec<(u64, u64)> = pool
            .iter()
            .map(|p| (p.tx.sender().low_u64(), p.tx.nonce()))
            .collect();
        assert_eq!(order, vec![(1, 0), (1, 1), (2, 0)]);
    }

    #[test]
    fn replacement_requires_fee_bump() {
        let mut pool = Mempool::new(10);
        assert_eq!(
            pool.insert(transfer(1, 2, 0), 100, 0.0, 0),
            AdmitOutcome::Admitted
        );
        assert_eq!(
            pool.insert(transfer(1, 3, 0), 109, 0.1, 0),
            AdmitOutcome::RejectedUnderpriced
        );
        assert_eq!(
            pool.insert(transfer(1, 3, 0), 110, 0.2, 0),
            AdmitOutcome::Replaced
        );
        assert_eq!(pool.len(), 1);
        assert_eq!(
            pool.iter().next().unwrap().tx.receiver(),
            Address::from_low(3)
        );
        assert_eq!(pool.stats().replaced, 1);
        assert_eq!(pool.stats().rejected_underpriced, 1);
    }

    #[test]
    fn eviction_prefers_cheapest_tail_and_never_splits_chains() {
        let mut pool = Mempool::new(3);
        pool.insert(transfer(1, 9, 0), 50, 0.0, 0);
        pool.insert(transfer(1, 9, 1), 2, 0.1, 0); // cheapest tail
        pool.insert(transfer(2, 9, 0), 20, 0.2, 0);
        // Outbids the cheapest tail: sender 1's nonce-1 tail goes, chain head stays.
        assert_eq!(
            pool.insert(transfer(3, 9, 0), 30, 0.3, 0),
            AdmitOutcome::Admitted
        );
        assert_eq!(pool.len(), 3);
        assert!(pool
            .iter()
            .any(|p| p.tx.sender() == Address::from_low(1) && p.tx.nonce() == 0));
        assert!(!pool.iter().any(|p| p.tx.nonce() == 1));
        // Underbids everything: rejected.
        assert_eq!(
            pool.insert(transfer(4, 9, 0), 1, 0.4, 0),
            AdmitOutcome::RejectedFull
        );
        assert_eq!(pool.stats().evicted, 1);
        assert_eq!(pool.stats().rejected_full, 1);
    }

    #[test]
    fn eviction_never_victimizes_the_incoming_sender() {
        let mut pool = Mempool::new(2);
        pool.insert(transfer(1, 9, 0), 5, 0.0, 0);
        pool.insert(transfer(1, 9, 1), 1, 0.1, 0);
        // Sender 1 offers nonce 2 with a high fee; evicting its own nonce-1 tail would
        // open a gap below the newcomer, so the offer is rejected instead.
        assert_eq!(
            pool.insert(transfer(1, 9, 2), 99, 0.2, 0),
            AdmitOutcome::RejectedFull
        );
    }

    #[test]
    fn nonce_discipline_rejects_gaps_and_stale_nonces() {
        let mut pool = Mempool::new(10);
        assert_eq!(
            pool.insert(transfer(1, 9, 0), 5, 0.0, 0),
            AdmitOutcome::Admitted
        );
        assert_eq!(
            pool.insert(transfer(1, 9, 1), 5, 0.1, 0),
            AdmitOutcome::Admitted
        );
        // Gap at nonce 2: nonce 3 could never be packed, so it is rejected.
        assert_eq!(
            pool.insert(transfer(1, 9, 3), 5, 0.2, 0),
            AdmitOutcome::RejectedGap
        );
        // Below the account nonce: already executed.
        assert_eq!(
            pool.insert(transfer(2, 9, 4), 5, 0.3, 5),
            AdmitOutcome::RejectedStale
        );
        assert_eq!(pool.stats().rejected_nonce, 2);
        let chains = pool.ready_chains(|_| 0);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].sender, Address::from_low(1));
        let nonces: Vec<u64> = chains[0].txs.iter().map(|p| p.tx.nonce()).collect();
        assert_eq!(nonces, vec![0, 1]);
    }

    #[test]
    fn eviction_cannot_strand_later_arrivals() {
        // Sender 1's tail (nonce 1) is evicted; its later nonce-2 arrival is then
        // rejected as a gap instead of sitting unpackable in the pool forever.
        let mut pool = Mempool::new(2);
        pool.insert(transfer(1, 9, 0), 10, 0.0, 0);
        pool.insert(transfer(1, 9, 1), 1, 0.1, 0);
        assert_eq!(
            pool.insert(transfer(2, 9, 0), 50, 0.2, 0),
            AdmitOutcome::Admitted
        );
        assert!(!pool.iter().any(|p| p.tx.nonce() == 1), "tail not evicted");
        assert_eq!(
            pool.insert(transfer(1, 9, 2), 99, 0.3, 0),
            AdmitOutcome::RejectedGap
        );
        // Re-offering the evicted nonce itself is fine and heals the chain.
        assert_eq!(
            pool.insert(transfer(1, 9, 1), 40, 0.4, 0),
            AdmitOutcome::RejectedFull
        );
        pool.remove(Address::from_low(2), 0);
        assert_eq!(
            pool.insert(transfer(1, 9, 1), 40, 0.5, 0),
            AdmitOutcome::Admitted
        );
    }

    #[test]
    fn resync_drops_stale_and_gapped_entries() {
        let mut pool = Mempool::new(10);
        pool.insert(transfer(1, 9, 0), 5, 0.0, 0);
        pool.insert(transfer(1, 9, 1), 5, 0.1, 0);
        pool.insert(transfer(1, 9, 2), 5, 0.2, 0);
        // Nonce 1 was packed but failed validation: the account nonce is stuck at 1
        // while the pool lost the entry, so nonce 2 is stranded. Nonce 0 is stale.
        pool.remove(Address::from_low(1), 1);
        assert_eq!(pool.resync_sender_removed(Address::from_low(1), 1).len(), 2);
        assert!(pool.is_empty());
        assert_eq!(pool.stats().dropped_unpackable, 2);
        // Resyncing an unknown sender is a no-op.
        assert!(pool
            .resync_sender_removed(Address::from_low(42), 0)
            .is_empty());
        // A healthy queue survives a resync untouched.
        pool.insert(transfer(2, 9, 0), 5, 0.3, 0);
        pool.insert(transfer(2, 9, 1), 5, 0.4, 0);
        assert!(pool
            .resync_sender_removed(Address::from_low(2), 0)
            .is_empty());
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn remove_packed_updates_counters_and_len() {
        let mut pool = Mempool::new(10);
        let a = transfer(1, 9, 0);
        let b = transfer(2, 9, 0);
        pool.insert(a.clone(), 5, 0.0, 0);
        pool.insert(b.clone(), 5, 0.1, 0);
        assert_eq!(pool.remove_packed_returning(&[a, b.clone()]).len(), 2);
        assert!(pool.is_empty());
        assert_eq!(pool.stats().packed, 2);
        // Removing an unknown transaction is a no-op.
        assert!(pool.remove_packed_returning(&[b]).is_empty());
        assert_eq!(pool.stats().packed, 2);
    }

    #[test]
    fn gas_estimates_rank_payloads() {
        use blockconc_account::vm::Contract;
        use std::sync::Arc;
        let transfer_gas = gas_estimate(&transfer(1, 2, 0));
        let call = AccountTransaction::contract_call(
            Address::from_low(1),
            Address::from_low(9),
            Amount::ZERO,
            vec![],
            0,
        );
        let create = AccountTransaction::contract_create(
            Address::from_low(1),
            Arc::new(Contract::noop()),
            0,
        );
        assert_eq!(transfer_gas, Gas::BASE_TX);
        assert!(gas_estimate(&call) > transfer_gas);
        assert!(gas_estimate(&create) > gas_estimate(&call));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = Mempool::new(0);
    }

    #[test]
    fn take_and_restore_preserve_chains_and_metadata() {
        let mut pool = Mempool::new(10);
        pool.insert(transfer(1, 9, 0), 5, 0.0, 0);
        pool.insert(transfer(1, 9, 1), 7, 0.1, 0);
        pool.insert(transfer(2, 9, 0), 3, 0.2, 0);
        let chain = pool.take_sender(Address::from_low(1));
        assert_eq!(chain.len(), 2);
        assert_eq!(pool.len(), 1);
        assert!(pool.head_of(Address::from_low(1)).is_none());
        let mut other = Mempool::new(10);
        for pooled in chain {
            other.restore(pooled);
        }
        assert_eq!(other.len(), 2);
        assert_eq!(other.chain_len_from(Address::from_low(1), 0), 2);
        let fees: Vec<u64> = other.iter().map(|p| p.fee_per_gas).collect();
        assert_eq!(fees, vec![5, 7]);
        // Restored metadata keeps admission stamps ahead of the internal counter.
        assert_eq!(
            other.insert(transfer(3, 9, 0), 4, 0.3, 0),
            AdmitOutcome::Admitted
        );
        let seqs: Vec<u64> = other.iter().map(|p| p.seq).collect();
        assert_eq!(seqs.len(), 3);
        assert_eq!(
            seqs.iter().collect::<std::collections::HashSet<_>>().len(),
            3
        );
        // Taking an absent sender is a no-op.
        assert!(pool.take_sender(Address::from_low(42)).is_empty());
    }

    #[test]
    #[should_panic(expected = "overwrite")]
    fn restore_refuses_to_overwrite() {
        let mut pool = Mempool::new(10);
        pool.insert(transfer(1, 9, 0), 5, 0.0, 0);
        let entry = pool.take_sender(Address::from_low(1)).remove(0);
        pool.restore(entry.clone());
        pool.restore(entry);
    }

    #[test]
    fn stamped_inserts_control_tie_breaking() {
        // Two same-fee tails: the higher stamp is treated as newer and preferred as
        // the eviction victim, regardless of insertion order.
        let mut pool = Mempool::new(10);
        pool.offer(transfer(1, 9, 0), 5, 0.0, 0, Some(7));
        pool.offer(transfer(2, 9, 0), 5, 0.1, 0, Some(3));
        let (victim, _, fee, seq) = pool.cheapest_tail_excluding(None).unwrap();
        assert_eq!(victim, Address::from_low(1));
        assert_eq!((fee, seq), (5, 7));
        // The internal counter advanced past the largest stamp.
        pool.insert(transfer(3, 9, 0), 5, 0.2, 0);
        let seqs: Vec<u64> = pool.iter().map(|p| p.seq).collect();
        assert!(
            seqs.contains(&8),
            "unstamped insert reused a stamp: {seqs:?}"
        );
    }

    /// Mirrors the maintained indexes against a from-scratch recomputation.
    fn assert_indexes_consistent(pool: &Mempool) {
        // Head index: one entry per sender, keyed by its first queue entry, and
        // backwards iteration yields (fee desc, seq asc).
        let expected_heads: Vec<(u64, u64, u64)> = {
            let mut heads: Vec<(u64, u64, u64)> = pool
                .by_sender
                .iter()
                .map(|(&sender, queue)| {
                    let (_, head) = queue.first_key_value().unwrap();
                    (head.fee_per_gas, head.seq, sender.low_u64())
                })
                .collect();
            heads.sort_by(|a, b| {
                (b.0, Reverse(b.1), b.2)
                    .partial_cmp(&(a.0, Reverse(a.1), a.2))
                    .unwrap()
            });
            heads
        };
        let indexed: Vec<(u64, u64, u64)> = pool
            .ready_heads()
            .iter()
            .rev()
            .map(|&(fee, Reverse(seq), sender)| (fee, seq, sender.low_u64()))
            .collect();
        assert_eq!(indexed, expected_heads, "head index diverged");
        // Gas aggregate.
        let expected_gas: u64 = pool.iter().map(|p| gas_estimate(&p.tx).value()).sum();
        assert_eq!(pool.ready_gas().value(), expected_gas, "ready_gas diverged");
        // Cheapest tail matches the original O(senders) scan.
        let scan = pool
            .by_sender
            .iter()
            .filter_map(|(&sender, queue)| {
                let (&nonce, pooled) = queue.iter().next_back()?;
                Some((sender, nonce, pooled.fee_per_gas, pooled.seq))
            })
            .min_by_key(|&(_, _, fee, seq)| (fee, Reverse(seq)));
        assert_eq!(
            pool.cheapest_tail_excluding(None),
            scan,
            "tail index diverged"
        );
    }

    #[test]
    fn maintained_indexes_track_every_mutation() {
        let mut pool = Mempool::new(4);
        assert_indexes_consistent(&pool);
        pool.insert(transfer(1, 9, 0), 50, 0.0, 0);
        pool.insert(transfer(1, 9, 1), 2, 0.1, 0);
        pool.insert(transfer(2, 9, 0), 20, 0.2, 0);
        assert_indexes_consistent(&pool);
        // Replacement re-keys the head.
        let effects = pool.offer(transfer(1, 7, 0), 60, 0.3, 0, None);
        assert_eq!(effects.outcome, AdmitOutcome::Replaced);
        assert_eq!(
            effects.replaced.as_ref().map(|p| p.fee_per_gas),
            Some(50),
            "replacement must surface the superseded entry"
        );
        assert_indexes_consistent(&pool);
        // Capacity eviction surfaces the victim and re-keys the tail.
        pool.insert(transfer(3, 9, 0), 30, 0.4, 0);
        let effects = pool.offer(transfer(4, 9, 0), 40, 0.5, 0, None);
        assert_eq!(effects.outcome, AdmitOutcome::Admitted);
        assert_eq!(
            effects
                .evicted
                .as_ref()
                .map(|p| (p.tx.sender().low_u64(), p.tx.nonce())),
            Some((1, 1)),
            "eviction must surface the cheapest tail"
        );
        assert_indexes_consistent(&pool);
        // Packed removal advances the head to the successor nonce.
        pool.insert(transfer(4, 9, 1), 45, 0.6, 0);
        let removed = pool.remove_packed_returning(&[transfer(4, 9, 0)]);
        assert_eq!(removed.len(), 1);
        assert_indexes_consistent(&pool);
        // Resync and take/restore keep the index in step.
        pool.remove(Address::from_low(4), 1);
        assert_indexes_consistent(&pool);
        let chain = pool.take_sender(Address::from_low(2));
        assert_indexes_consistent(&pool);
        for entry in chain {
            pool.restore(entry);
        }
        assert_indexes_consistent(&pool);
    }

    #[test]
    fn chain_len_from_matches_range_counts() {
        let mut pool = Mempool::new(10);
        for nonce in 0..5u64 {
            pool.insert(transfer(1, 9, nonce), 5, nonce as f64, 0);
        }
        assert_eq!(pool.chain_len_from(Address::from_low(1), 0), 5);
        assert_eq!(pool.chain_len_from(Address::from_low(1), 3), 2);
        assert_eq!(pool.chain_len_from(Address::from_low(1), 5), 0);
        assert_eq!(pool.chain_len_from(Address::from_low(2), 0), 0);
        pool.remove_packed_returning(&[transfer(1, 9, 0), transfer(1, 9, 1)]);
        assert_eq!(pool.chain_len_from(Address::from_low(1), 2), 3);
        assert_eq!(pool.chain_len_from(Address::from_low(1), 4), 1);
    }

    #[test]
    fn head_index_order_agrees_with_ready_chains() {
        let mut pool = Mempool::new(100);
        for i in 0..20u64 {
            pool.insert(transfer(i + 1, 500 + (i % 3), 0), 10 + (i % 7), i as f64, 0);
            pool.insert(transfer(i + 1, 500 + (i % 3), 1), 3 + (i % 5), i as f64, 0);
        }
        let chains = pool.ready_chains(|_| 0);
        assert_eq!(pool.ready_heads().len(), chains.len());
        for chain in &chains {
            let head = pool.head_of(chain.sender).expect("chain head pooled");
            assert_eq!(head.tx.nonce(), chain.txs[0].tx.nonce());
            assert_eq!(head.seq, chain.txs[0].seq);
            assert_eq!(
                pool.chain_len_from(chain.sender, head.tx.nonce()),
                chain.txs.len()
            );
        }
    }

    #[test]
    fn stats_merge_accumulates_every_counter() {
        let mut a = MempoolStats {
            admitted: 1,
            replaced: 2,
            rejected_underpriced: 3,
            rejected_full: 4,
            rejected_nonce: 5,
            dropped_unpackable: 6,
            evicted: 7,
            packed: 8,
        };
        a.merge(&a.clone());
        assert_eq!(a.admitted, 2);
        assert_eq!(a.replaced, 4);
        assert_eq!(a.rejected_underpriced, 6);
        assert_eq!(a.rejected_full, 8);
        assert_eq!(a.rejected_nonce, 10);
        assert_eq!(a.dropped_unpackable, 12);
        assert_eq!(a.evicted, 14);
        assert_eq!(a.packed, 16);
    }
}
