//! Multi-producer ingestion in front of the sharded pool.
//!
//! Network nodes admit transactions from many peer connections at once; the
//! [`IngestRouter`] models that: `producers` scoped threads route arrivals (cheap
//! router reads) into **bounded per-shard admission queues**, and one consumer
//! thread per shard drains its queue into the pool. Back-pressure is physical — a
//! full queue blocks the producer — and per-sender ordering is preserved end to end:
//! arrivals are partitioned across producers by sender, and each producer pins a
//! sender's transactions to one queue for the batch, so a sender's nonces always
//! traverse one producer and one consumer in order.

use crate::ShardedMempool;
use blockconc_account::AccountTransaction;
use blockconc_pipeline::effective_receiver;
use blockconc_telemetry::{SharedClock, WallClock};
use blockconc_types::Address;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

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
    /// Largest per-producer batch (the producer-side critical path, in
    /// one-admission work units).
    pub max_producer_items: usize,
    /// Largest per-consumer (per-shard queue) batch — the admission-side critical
    /// path.
    pub max_consumer_items: usize,
    /// Wall-clock nanoseconds for the whole batch.
    pub wall_nanos: u64,
}

impl IngestReport {
    /// The batch's abstract parallel cost in admission work units: the slower of
    /// the producer-side and admission-side critical paths (they pipeline). This is
    /// the ingest analogue of the execution engines' `parallel_units`, and like
    /// them it is hardware-independent: it measures what the *structure* allows,
    /// not what this machine's core count happens to deliver.
    pub fn parallel_units(&self) -> u64 {
        self.max_producer_items.max(self.max_consumer_items) as u64
    }
}

/// The multi-producer ingestion front of a [`ShardedMempool`].
#[derive(Debug, Clone)]
pub struct IngestRouter {
    producers: usize,
    queue_depth: usize,
    clock: SharedClock,
}

impl IngestRouter {
    /// Creates a router with `producers` producer threads and per-shard admission
    /// queues bounded at `queue_depth` items, timing batches on the wall clock.
    ///
    /// # Panics
    ///
    /// Panics if `producers` or `queue_depth` is zero.
    pub fn new(producers: usize, queue_depth: usize) -> Self {
        assert!(producers > 0, "producer count must be positive");
        assert!(queue_depth > 0, "queue depth must be positive");
        IngestRouter {
            producers,
            queue_depth,
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

    /// The configured producer-thread count.
    pub fn producers(&self) -> usize {
        self.producers
    }

    /// Ingests one batch of arrivals into the pool and reports what happened.
    ///
    /// Semantics are identical to offering the items to [`ShardedMempool::insert`]
    /// one by one in per-sender order (which the equivalence property tests assert
    /// against the single-threaded pool); only the scheduling is concurrent.
    pub fn ingest(&self, pool: &ShardedMempool, items: Vec<IngestItem>) -> IngestReport {
        let total = items.len();
        let started = self.clock.now_nanos();

        // Partition by sender across producers, preserving per-sender order.
        let mut bins: Vec<Vec<IngestItem>> = (0..self.producers).map(|_| Vec::new()).collect();
        for item in items {
            let bin = sender_bin(item.tx.sender(), self.producers);
            bins[bin].push(item);
        }
        let max_producer_items = bins.iter().map(Vec::len).max().unwrap_or(0);

        let shards = pool.shard_count();
        let mut senders: Vec<SyncSender<IngestItem>> = Vec::with_capacity(shards);
        let mut receivers: Vec<Receiver<IngestItem>> = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = sync_channel(self.queue_depth);
            senders.push(tx);
            receivers.push(rx);
        }

        let max_consumer_items = std::thread::scope(|scope| {
            // One consumer per shard drains its bounded queue into the pool.
            let consumers: Vec<_> = receivers
                .into_iter()
                .map(|receiver| {
                    scope.spawn(move || {
                        let mut processed = 0usize;
                        while let Ok(item) = receiver.recv() {
                            pool.insert(
                                item.tx,
                                item.fee_per_gas,
                                item.arrival_secs,
                                item.account_nonce,
                                Some(item.stamp),
                            );
                            processed += 1;
                        }
                        processed
                    })
                })
                .collect();

            // Producers route their bin into the per-shard queues. A sender's queue
            // choice is sticky for the batch so its nonces stay ordered even if the
            // routing hint changes mid-batch.
            let producer_handles: Vec<_> = bins
                .into_iter()
                .map(|bin| {
                    let queues = senders.clone();
                    scope.spawn(move || {
                        let mut sticky: HashMap<Address, usize> = HashMap::new();
                        for item in bin {
                            let sender = item.tx.sender();
                            let queue = *sticky.entry(sender).or_insert_with(|| {
                                pool.route_hint(sender, effective_receiver(&item.tx))
                            });
                            queues[queue]
                                .send(item)
                                .expect("shard consumer hung up early");
                        }
                    })
                })
                .collect();
            // Close the channels once every producer is done so consumers drain out.
            drop(senders);
            for handle in producer_handles {
                handle.join().expect("producer thread panicked");
            }

            consumers
                .into_iter()
                .map(|consumer| consumer.join().expect("consumer thread panicked"))
                .max()
                .unwrap_or(0)
        });

        IngestReport {
            items: total,
            max_producer_items,
            max_consumer_items,
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
    fn bounded_queues_backpressure_rather_than_drop() {
        // Queue depth 1 with many items: producers block, nothing is lost.
        let pool = ShardedMempool::new(2, 10_000);
        let router = IngestRouter::new(4, 1);
        let items: Vec<IngestItem> = (0..300u64)
            .map(|i| item(1 + i % 50, 900, i / 50, 10, i))
            .collect();
        router.ingest(&pool, items);
        let stats = pool.stats();
        assert_eq!(stats.admitted + stats.rejected_nonce, 300);
        assert_eq!(pool.len() as u64, stats.admitted);
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
