//! A mempool and its dependency graph that cannot drift apart.

use crate::{AdmitEffects, AdmitOutcome, IncrementalTdg, Mempool, PooledTx};
use blockconc_account::AccountTransaction;
use blockconc_types::Address;

/// A [`Mempool`] paired with the [`IncrementalTdg`] over exactly its resident
/// transactions.
///
/// Both fields are private and every mutator applies the matching graph edit
/// itself, so "the graph is always current" is a property of the type rather
/// than of each call site: the admit-outcome → graph-edit mapping exists here
/// and nowhere else. Edits keep the order the drivers always used (an admission
/// inserts before it drops the evicted tail, a replacement drops the superseded
/// edge before inserting the new one, a settled block leaves in block order), so
/// the graph's `op_units` and compaction points are a pure function of the
/// offered traffic.
///
/// # Examples
///
/// ```
/// use blockconc_account::AccountTransaction;
/// use blockconc_pipeline::{AdmitOutcome, TrackedPool};
/// use blockconc_types::{Address, Amount};
///
/// let mut pool = TrackedPool::new(100, false);
/// let pay = |s: u64, r: u64| AccountTransaction::transfer(
///     Address::from_low(s), Address::from_low(r), Amount::from_sats(1), 0);
/// assert_eq!(pool.offer(&pay(1, 100), 10, 0.0, 0, None).outcome, AdmitOutcome::Admitted);
/// assert_eq!(pool.offer(&pay(2, 100), 12, 0.1, 0, None).outcome, AdmitOutcome::Admitted);
/// assert_eq!(pool.tdg().largest_component_tx_count(), 2);
/// pool.settle_packed(&[pay(1, 100)]);
/// assert_eq!(pool.tdg().tx_count(), pool.pool().len());
/// ```
#[derive(Debug, Clone)]
pub struct TrackedPool {
    pool: Mempool,
    tdg: IncrementalTdg,
}

impl TrackedPool {
    /// Creates an empty pool of `capacity` transactions. `weak_edges` selects
    /// [`IncrementalTdg::with_weak_edges`]: set it exactly when the engine that
    /// will execute the packed blocks commutes deltas.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, weak_edges: bool) -> Self {
        let tdg = IncrementalTdg::new();
        TrackedPool {
            pool: Mempool::new(capacity),
            tdg: if weak_edges {
                tdg.with_weak_edges()
            } else {
                tdg
            },
        }
    }

    /// The pool, read-only.
    pub fn pool(&self) -> &Mempool {
        &self.pool
    }

    /// The graph, read-only.
    pub fn tdg(&self) -> &IncrementalTdg {
        &self.tdg
    }

    /// What a [`BlockPacker`](crate::BlockPacker) takes: the pool by reference
    /// and the graph mutably (component lookups compress union–find paths).
    pub fn packing_view(&mut self) -> (&Mempool, &mut IncrementalTdg) {
        (&self.pool, &mut self.tdg)
    }

    /// [`Mempool::offer`], with the admission mirrored into the graph.
    pub fn offer(
        &mut self,
        tx: &AccountTransaction,
        fee_per_gas: u64,
        arrival_secs: f64,
        account_nonce: u64,
        stamp: Option<u64>,
    ) -> AdmitEffects {
        let effects = self
            .pool
            .offer(tx.clone(), fee_per_gas, arrival_secs, account_nonce, stamp);
        match effects.outcome {
            AdmitOutcome::Admitted => {
                self.tdg.insert(tx);
                // When the evicted tail's edge is still covered by another
                // pooled transaction this is a pure refcount decrement.
                if let Some(evicted) = &effects.evicted {
                    self.tdg.remove(&evicted.tx);
                }
            }
            // A replacement may change the receiver: swap the edges.
            AdmitOutcome::Replaced => {
                let superseded = effects.replaced.as_ref().expect("replacement payload");
                self.tdg.remove(&superseded.tx);
                self.tdg.insert(tx);
            }
            _ => {}
        }
        effects
    }

    /// [`Mempool::take_sender`]: the sender's whole chain leaves pool and graph.
    pub fn take_sender(&mut self, sender: Address) -> Vec<PooledTx> {
        let chain = self.pool.take_sender(sender);
        self.tdg.remove_batch(chain.iter().map(|pooled| &pooled.tx));
        chain
    }

    /// [`Mempool::restore`]: re-inserts an entry taken from another pool.
    ///
    /// # Panics
    ///
    /// Panics if the `(sender, nonce)` slot is occupied.
    pub fn restore(&mut self, pooled: PooledTx) {
        self.tdg.insert(&pooled.tx);
        self.pool.restore(pooled);
    }

    /// [`Mempool::remove`]: drops one entry without counting it as packed.
    pub fn remove(&mut self, sender: Address, nonce: u64) -> Option<PooledTx> {
        let removed = self.pool.remove(sender, nonce)?;
        self.tdg.remove(&removed.tx);
        Some(removed)
    }

    /// Removes one packed transaction, counted as packed.
    pub fn settle_one(&mut self, tx: &AccountTransaction) -> Option<PooledTx> {
        let removed = self.pool.remove_packed_one(tx)?;
        self.tdg.remove(&removed.tx);
        Some(removed)
    }

    /// Removes a packed block's transactions in block order; returns the
    /// entries that were resident.
    pub fn settle_packed(&mut self, txs: &[AccountTransaction]) -> Vec<PooledTx> {
        txs.iter().filter_map(|tx| self.settle_one(tx)).collect()
    }

    /// [`Mempool::resync_sender_removed`]: sweeps the entries a validation
    /// failure stranded behind a nonce gap; returns them.
    pub fn resync_sender(&mut self, sender: Address, account_nonce: u64) -> Vec<PooledTx> {
        let dropped = self.pool.resync_sender_removed(sender, account_nonce);
        self.tdg
            .remove_batch(dropped.iter().map(|pooled| &pooled.tx));
        dropped
    }
}
