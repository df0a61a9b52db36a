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
//! front of that cost several times what they distribute. The report counts how
//! the batch split across shards; timing the batch is the caller's, on its
//! telemetry registry's clock.

use crate::ShardedMempool;
use blockconc_account::AccountTransaction;
use serde::{Deserialize, Serialize};

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

/// What one ingest batch did.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IngestReport {
    /// Arrivals offered. What admission made of them is in the pool's own
    /// counters ([`ShardedMempool::stats`]).
    pub items: usize,
    /// Most items offered to any one shard.
    pub max_consumer_items: usize,
}

/// The batch ingestion front of a [`ShardedMempool`]. It holds no state and no
/// clock: a driver times [`IngestRouter::ingest`] on its own registry.
#[derive(Debug, Clone)]
pub struct IngestRouter;

impl IngestRouter {
    /// Creates a router. Both arguments are vestigial — admission is serial and
    /// there are no queues — and ignored; they stay until the benchmark that
    /// passes them is updated.
    pub fn new(_producers: usize, _queue_depth: usize) -> Self {
        IngestRouter
    }

    /// Ingests one batch of arrivals into the pool and reports what happened.
    ///
    /// Semantics are identical to offering the items to [`ShardedMempool::insert`]
    /// one by one in the order given (which the equivalence property tests assert
    /// against the single-threaded pool).
    pub fn ingest(&self, pool: &ShardedMempool, items: Vec<IngestItem>) -> IngestReport {
        let total = items.len();
        let offered = pool.insert_batch(items);
        IngestReport {
            items: total,
            max_consumer_items: offered.into_iter().max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockconc_types::{Address, Amount};

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
        // The fullest shard's share of the batch: every offer here is
        // admitted, so that is its resident count.
        assert_eq!(
            report.max_consumer_items,
            pool.shard_lens().into_iter().max().unwrap()
        );
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
}
