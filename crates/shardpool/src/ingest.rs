//! Batch ingestion in front of the sharded pool.
//!
//! [`IngestRouter::ingest`] admits a block's arrivals **in the order given** (the
//! driver passes stream order, which is stamp order) on the caller's thread, under
//! one hold of the pool's router lock: one route → offer → account → capacity
//! step per item, the same step [`ShardedMempool::insert`] runs. The result is a
//! pure function of the batch.
//!
//! Admission is serial by measurement, not by omission. Every admission orders on
//! the router whatever runs it; the part a second thread could take off the
//! critical path — the shard's pool offer and graph insert — is about 1.5 µs of
//! an admission; and a hot-spot pool sits on one shard. Threads and queues in
//! front of that cost several times what they distribute. The parallel layout
//! survives as a *model*: the report states how the batch would split across
//! producer bins and shards.

use crate::ShardedMempool;
use blockconc_account::AccountTransaction;
use blockconc_telemetry::{SharedClock, WallClock};
use blockconc_types::Address;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// One arrival prepared for ingestion: the transaction plus everything admission
/// needs (fee bid, arrival time, the sender's account nonce at this block boundary,
/// and the deterministic admission stamp).
#[derive(Debug, Clone)]
pub struct IngestItem {
    /// The transaction.
    pub tx: AccountTransaction,
    /// Fee bid per gas unit.
    pub fee_per_gas: u64,
    /// Arrival time in stream seconds.
    pub arrival_secs: f64,
    /// The sender's account nonce (anchors nonce discipline).
    pub account_nonce: u64,
    /// Deterministic admission stamp (position in the arrival stream).
    pub stamp: u64,
}

/// What one ingest batch did and cost.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IngestReport {
    /// Arrivals offered. What admission made of them is in the pool's own
    /// counters ([`ShardedMempool::stats`]).
    pub items: usize,
    /// Largest per-producer share of the batch under the stable sender → producer
    /// binning — the modelled producer-side critical path, in one-admission work
    /// units.
    pub max_producer_items: usize,
    /// Most items offered to any one shard — the modelled admission-side critical
    /// path.
    pub max_consumer_items: usize,
    /// Wall-clock nanoseconds for the whole batch.
    pub wall_nanos: u64,
}

impl IngestReport {
    /// The batch's **modelled** parallel cost in admission work units: the slower
    /// of the producer-side and admission-side critical paths, had each producer
    /// bin and each shard its own thread. This is the ingest analogue of the
    /// execution engines' `parallel_units`, and like them it is
    /// hardware-independent: it measures what the *structure* allows, not what
    /// runs — admission itself is serial (see the module docs).
    pub fn parallel_units(&self) -> u64 {
        self.max_producer_items.max(self.max_consumer_items) as u64
    }
}

/// The batch ingestion front of a [`ShardedMempool`].
#[derive(Debug, Clone)]
pub struct IngestRouter {
    producers: usize,
    clock: SharedClock,
}

impl IngestRouter {
    /// Creates a router that models `producers` producer bins, timing batches on
    /// the wall clock. `queue_depth` is vestigial — there are no queues — and is
    /// ignored; the argument stays until the benchmark that passes it is updated.
    ///
    /// # Panics
    ///
    /// Panics if `producers` is zero.
    pub fn new(producers: usize, _queue_depth: usize) -> Self {
        assert!(producers > 0, "producer count must be positive");
        IngestRouter {
            producers,
            clock: WallClock::shared(),
        }
    }

    /// This router timing its batches on `clock` instead of the wall clock
    /// (builder-style) — a mock clock makes [`IngestReport::wall_nanos`]
    /// deterministic.
    pub fn with_clock(mut self, clock: SharedClock) -> Self {
        self.clock = clock;
        self
    }

    /// The configured producer-bin count.
    pub fn producers(&self) -> usize {
        self.producers
    }

    /// Ingests one batch of arrivals into the pool and reports what happened.
    ///
    /// Semantics are identical to offering the items to [`ShardedMempool::insert`]
    /// one by one in the order given (which the equivalence property tests assert
    /// against the single-threaded pool).
    pub fn ingest(&self, pool: &ShardedMempool, items: Vec<IngestItem>) -> IngestReport {
        let total = items.len();
        let started = self.clock.now_nanos();
        let mut bins = vec![0usize; self.producers];
        for item in &items {
            bins[sender_bin(item.tx.sender(), self.producers)] += 1;
        }
        let offered = pool.insert_batch(items);
        IngestReport {
            items: total,
            max_producer_items: bins.into_iter().max().unwrap_or(0),
            max_consumer_items: offered.into_iter().max().unwrap_or(0),
            wall_nanos: self.clock.now_nanos().saturating_sub(started),
        }
    }
}

/// Stable sender → producer-bin assignment (deterministic across runs: the std
/// `DefaultHasher` with default keys is fixed, and the fallback is the address's
/// low word).
fn sender_bin(sender: Address, producers: usize) -> usize {
    let mut hasher = DefaultHasher::new();
    sender.hash(&mut hasher);
    (hasher.finish() % producers as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockconc_types::Amount;

    fn item(sender: u64, receiver: u64, nonce: u64, fee: u64, stamp: u64) -> IngestItem {
        IngestItem {
            tx: AccountTransaction::transfer(
                Address::from_low(sender),
                Address::from_low(receiver),
                Amount::from_sats(1),
                nonce,
            ),
            fee_per_gas: fee,
            arrival_secs: stamp as f64,
            account_nonce: 0,
            stamp,
        }
    }

    #[test]
    fn concurrent_ingest_admits_every_well_formed_arrival() {
        let pool = ShardedMempool::new(4, 10_000);
        let router = IngestRouter::new(3, 16);
        let mut items = Vec::new();
        let mut stamp = 0;
        for sender in 1..=40u64 {
            for nonce in 0..5u64 {
                items.push(item(sender, 500 + sender % 7, nonce, 10 + sender, stamp));
                stamp += 1;
            }
        }
        let report = router.ingest(&pool, items);
        assert_eq!(report.items, 200);
        assert_eq!(pool.stats().admitted, 200);
        assert_eq!(pool.len(), 200);
        assert!(report.max_producer_items >= 200usize.div_ceil(3));
        // The modelled admission-side path is the fullest shard's share of the
        // batch: every offer here is admitted, so that is its resident count.
        assert_eq!(
            report.max_consumer_items,
            pool.shard_lens().into_iter().max().unwrap()
        );
        assert!(report.parallel_units() >= report.max_consumer_items as u64);
        pool.assert_shard_disjointness();
        // Per-sender chains arrived in order: every nonce range is gap-free.
        let resident = pool.resident();
        for sender in 1..=40u64 {
            let nonces: Vec<u64> = resident
                .iter()
                .filter(|p| p.tx.sender() == Address::from_low(sender))
                .map(|p| p.tx.nonce())
                .collect();
            assert_eq!(nonces, vec![0, 1, 2, 3, 4], "sender {sender} chain broken");
        }
    }

    #[test]
    fn sender_bins_are_deterministic() {
        for sender in 0..100u64 {
            let a = sender_bin(Address::from_low(sender), 7);
            let b = sender_bin(Address::from_low(sender), 7);
            assert_eq!(a, b);
            assert!(a < 7);
        }
    }
}
