//! The incremental transaction dependency graph maintained over the mempool.

use blockconc_account::AccountTransaction;
use blockconc_graph::{ComponentIndex, ComponentPayload};
use blockconc_types::Address;
use std::collections::{HashMap, HashSet};

// The exact edge convention of `blockconc_graph::build_account_tdg` (declared
// receiver, or deployment address for creations) — re-exported rather than
// re-implemented so the packer's pre-execution prediction can never drift from the
// engine-side TDG builder. Note the prediction still misses the internal-transaction
// edges that only exist after execution.
pub use blockconc_graph::effective_receiver;
// The weak-edge classification (pure-credit receivers commute under delta-cell
// execution) — shared with the block-at-a-time builder for the same reason.
pub use blockconc_graph::receiver_edge_is_weak;

/// A transaction's dependency edge in canonical (unordered) form.
type EdgeKey = (Address, Address);

fn edge_key(tx: &AccountTransaction) -> EdgeKey {
    let a = tx.sender();
    let b = effective_receiver(tx);
    (a.min(b), a.max(b))
}

/// What the graph keeps per component of the address partition.
#[derive(Debug, Clone, Default)]
struct Component {
    /// Live transactions counted in the component.
    txs: usize,
    /// Distinct edges recorded in the component. May contain stale entries for
    /// edges whose reference count has dropped to zero; `dead` counts them and
    /// component-local compaction prunes them.
    edges: Vec<EdgeKey>,
    /// Stale entries in `edges`.
    dead: usize,
}

impl ComponentPayload<Address> for Component {
    fn singleton(_address: Address) -> Self {
        Component::default()
    }

    fn absorb(&mut self, mut absorbed: Self) -> usize {
        self.txs += absorbed.txs;
        self.dead += absorbed.dead;
        let folded = absorbed.edges.len();
        self.edges.append(&mut absorbed.edges);
        folded
    }
}

/// An address-level dependency graph maintained *online* as transactions arrive
/// **and leave**.
///
/// The block-at-a-time analyzer of `blockconc-graph` rebuilds its TDG per block; a
/// mempool ingesting a stream cannot afford that, so this structure tracks connected
/// components incrementally on a [`ComponentIndex`] keyed by address, with one
/// `Component` record (transaction count, recorded edges, dead-edge count) per
/// component: inserting a transaction unions its two endpoint addresses — the index
/// interns them and folds the absorbed component's record into the survivor — and
/// counts the transaction there. Insertion is amortized near-constant time.
///
/// # Deletion
///
/// A union–find cannot split components, so earlier revisions rebuilt the whole
/// graph whenever transactions left the pool — an O(pool) scan per block that
/// dominated the pack phase at production pool sizes. [`IncrementalTdg::remove`]
/// (and [`remove_batch`](IncrementalTdg::remove_batch)) makes departures
/// incremental:
///
/// * every distinct dependency edge carries a **reference count** of the live
///   transactions inducing it; removing a transaction whose edge is still covered
///   by another live transaction (the *zero-degree fast path*: fee replacements
///   within a busy component, duplicate deposits to an exchange) is an exact O(1)
///   decrement — the partition cannot have changed;
/// * an edge whose last transaction leaves becomes a **tombstone**: the component's
///   live counts drop immediately, but its membership stays (conservatively)
///   merged until the component's garbage passes a constant fraction of its live
///   edges, at which point a **component-local compaction** releases just that
///   component and re-inserts its surviving edges (amortized O(1) per removal);
/// * a component whose last transaction leaves is **freed exactly** — the index
///   releases its record and addresses at once
///   ([`ComponentIndex::release`]), and reclaims released slots whenever they
///   outnumber the live ones ([`ComponentIndex::compact_if_sparse`]).
///
/// Between compactions the partition is *conservative*: it may keep two address
/// groups merged whose only bridges have left the pool, but it never separates
/// addresses that conflict — the safe direction for every consumer (a packer that
/// over-groups merely defers parallelism it could have claimed; it can never emit
/// a conflicting schedule). [`IncrementalTdg::compact`] forces full tightness;
/// the randomized cross-checks in this crate assert that a compacted graph agrees
/// with a from-scratch [`IncrementalTdg::rebuild_from`] *exactly*, and that the
/// conservative graph in between is always a coarsening with identical aggregate
/// counts.
///
/// # Weak (commutative) edges
///
/// With [`with_weak_edges`](IncrementalTdg::with_weak_edges), a transaction whose
/// receiver endpoint is a pure credit ([`receiver_edge_is_weak`]) inserts as a
/// **weak** edge: the transaction is counted in its *sender's* component, but the
/// receiver is neither interned nor unioned — a hot deposit sink shared by a
/// thousand otherwise-independent senders stays dissolved into a thousand
/// singleton components, which is exactly the parallelism the delta-cell engine
/// realizes at execution time. Two guard rails keep the weakening honest:
///
/// * **conservative promotion** — a payload-weak transaction whose target is
///   currently touched by a live *strong* edge inserts as strong (someone might
///   observe the account, so ordering it is the safe prediction);
/// * **advisory only** — a strong edge arriving *after* weak ones does not
///   retroactively union the weak senders. The TDG is a scheduling hint; the
///   optimistic engine's own read/delta validation catches every real dependency
///   at execution time, so an optimistic prediction costs re-executions, never
///   correctness.
///
/// # Examples
///
/// ```
/// use blockconc_pipeline::IncrementalTdg;
/// use blockconc_account::AccountTransaction;
/// use blockconc_types::{Address, Amount};
///
/// let mut tdg = IncrementalTdg::new();
/// let pay = |s: u64, r: u64, n: u64| AccountTransaction::transfer(
///     Address::from_low(s), Address::from_low(r), Amount::from_sats(1), n);
/// tdg.insert(&pay(1, 100, 0)); // component {1, 100}
/// tdg.insert(&pay(2, 100, 0)); // merges into {1, 2, 100}
/// tdg.insert(&pay(3, 300, 0)); // independent
/// assert_eq!(tdg.tx_count(), 3);
/// assert_eq!(tdg.largest_component_tx_count(), 2);
/// assert_eq!(tdg.component_of(Address::from_low(1)), tdg.component_of(Address::from_low(2)));
///
/// // Departures are incremental: packing {3, 300} frees it exactly.
/// tdg.remove(&pay(3, 300, 0));
/// assert_eq!(tdg.tx_count(), 2);
/// assert_eq!(tdg.component_of(Address::from_low(3)), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IncrementalTdg {
    /// The address partition and its per-component records.
    index: ComponentIndex<Address, Component>,
    /// Live transactions per distinct dependency edge.
    edge_refs: HashMap<EdgeKey, usize>,
    /// Whether pure-credit receivers insert as weak (non-fusing) edges.
    weak_edges: bool,
    /// Live weak transactions per *directed* (sender, receiver) pair. Directed —
    /// unlike `edge_refs` — because a weak transaction is anchored at its
    /// sender's component and removal must release the matching anchor.
    weak_refs: HashMap<(Address, Address), usize>,
    /// Live weak transactions anchored per sender address; component-local
    /// compaction re-adds these counts (weak transactions induce no edges, so
    /// the edge relink alone would drop them).
    weak_anchors: HashMap<Address, usize>,
    /// Live strong-edge touches per address (both endpoints of every strong
    /// edge, reference-counted) — the conservative-promotion lookup.
    strong_touches: HashMap<Address, usize>,
    txs: usize,
    ops: u64,
    compactions: u64,
}

impl IncrementalTdg {
    /// Creates an empty graph.
    pub fn new() -> Self {
        IncrementalTdg::default()
    }

    /// Enables weak (commutative) edges for pure-credit receivers
    /// (builder-style): see the type-level docs. The mode is a property of the
    /// graph, chosen at construction — every insert and remove then classifies
    /// consistently.
    pub fn with_weak_edges(mut self) -> Self {
        self.weak_edges = true;
        self
    }

    /// Whether weak (commutative) edges are enabled.
    pub fn weak_edges(&self) -> bool {
        self.weak_edges
    }

    /// Live weak (commutative) transactions currently anchored in the graph.
    pub fn weak_tx_count(&self) -> usize {
        self.weak_refs.values().sum()
    }

    /// Builds a graph from scratch over the given transactions. Since the graph
    /// became deletion-capable this is a test/cross-check constructor (and the
    /// benchmarks' rebuild baseline) — no driver hot path needs it anymore.
    pub fn rebuild_from<'a>(txs: impl IntoIterator<Item = &'a AccountTransaction>) -> Self {
        let mut tdg = IncrementalTdg::new();
        for tx in txs {
            tdg.insert(tx);
        }
        tdg
    }

    /// Streams one transaction into the graph.
    pub fn insert(&mut self, tx: &AccountTransaction) {
        if self.weak_edges {
            let sender = tx.sender();
            let receiver = effective_receiver(tx);
            if sender != receiver
                && receiver_edge_is_weak(tx)
                && self.strong_touches.get(&receiver).copied().unwrap_or(0) == 0
            {
                self.insert_weak(sender, receiver);
                return;
            }
        }
        let key = edge_key(tx);
        if self.weak_edges {
            *self.strong_touches.entry(key.0).or_insert(0) += 1;
            *self.strong_touches.entry(key.1).or_insert(0) += 1;
        }
        let (component, folded) = self.index.union(key.0, key.1);
        component.txs += 1;
        match self.edge_refs.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut entry) => {
                *entry.get_mut() += 1;
            }
            std::collections::hash_map::Entry::Vacant(entry) => {
                entry.insert(1);
                component.edges.push(key);
            }
        }
        self.txs += 1;
        self.ops += 1 + folded as u64;
    }

    /// Inserts a weak (commutative) transaction: counted in the sender's
    /// component, receiver neither interned nor unioned — a pure credit orders
    /// nothing, so the edge fuses nothing.
    fn insert_weak(&mut self, sender: Address, receiver: Address) {
        self.index.intern(sender).txs += 1;
        *self.weak_refs.entry((sender, receiver)).or_insert(0) += 1;
        *self.weak_anchors.entry(sender).or_insert(0) += 1;
        self.txs += 1;
        self.ops += 1;
    }

    /// Removes one transaction previously [`insert`](IncrementalTdg::insert)ed.
    ///
    /// Cost is amortized O(1): an exact decrement when the transaction's edge is
    /// still covered by another live transaction (the zero-degree fast path), an
    /// exact component release when the last transaction of a component leaves,
    /// and a tombstone otherwise — with component-local compaction amortized
    /// against the removals that created the garbage.
    ///
    /// # Panics
    ///
    /// Panics if no live transaction with this sender/receiver edge is in the
    /// graph (the caller removed something it never inserted).
    pub fn remove(&mut self, tx: &AccountTransaction) {
        let key = edge_key(tx);
        if self.weak_edges {
            // Prefer releasing a weak reference: identical weak transactions
            // are interchangeable, and a promoted twin's strong bookkeeping is
            // then released by the pair's *last* removal — the counts are
            // conserved either way.
            let directed = (tx.sender(), effective_receiver(tx));
            if self.weak_refs.contains_key(&directed) {
                self.remove_weak(directed);
                return;
            }
            for endpoint in [key.0, key.1] {
                release_ref(&mut self.strong_touches, endpoint, "strong edge endpoint");
            }
        }
        let refs = self
            .edge_refs
            .get_mut(&key)
            .unwrap_or_else(|| panic!("removing transaction absent from the TDG: {key:?}"));
        let component = self
            .index
            .get_mut(&key.0)
            .expect("edge endpoint is interned while its edge is live");
        component.txs -= 1;
        self.txs -= 1;
        self.ops += 1;
        if *refs > 1 {
            // Zero-degree fast path: another live transaction still induces this
            // edge, so the partition is untouched — pure decrement, no garbage.
            *refs -= 1;
            return;
        }
        self.edge_refs.remove(&key);
        if component.txs == 0 {
            self.free_component(key.0);
            return;
        }
        component.dead += 1;
        // A dead self-loop cannot split anything, but it still ages the component
        // toward compaction — otherwise self-loop churn inside a live component
        // would accumulate stale list entries without bound.
        let live = component.edges.len() - component.dead;
        if component.dead * 4 >= live.max(1) {
            self.compact_component(key.0);
        }
    }

    /// Removes one weak transaction: releases its directed reference and sender
    /// anchor, and decrements the sender's component count — no edges, no
    /// tombstones, no compaction pressure.
    fn remove_weak(&mut self, directed: (Address, Address)) {
        release_ref(&mut self.weak_refs, directed, "weak pair");
        release_ref(&mut self.weak_anchors, directed.0, "weak sender anchor");
        let component = self
            .index
            .get_mut(&directed.0)
            .expect("weak sender is interned while its anchor is live");
        component.txs -= 1;
        let emptied = component.txs == 0;
        self.txs -= 1;
        self.ops += 1;
        if emptied {
            self.free_component(directed.0);
        }
    }

    /// Removes a batch of transactions (a packed block, a resync sweep).
    pub fn remove_batch<'a>(&mut self, txs: impl IntoIterator<Item = &'a AccountTransaction>) {
        for tx in txs {
            self.remove(tx);
        }
    }

    /// Releases `member`'s component; returns its record and addresses, with the
    /// O(addresses + edges) work charged.
    fn release_component(&mut self, member: Address) -> (Component, Vec<Address>) {
        let (component, addresses) = self
            .index
            .release(&member)
            .expect("a component is released through one of its addresses");
        self.ops += (addresses.len() + component.edges.len()) as u64;
        (component, addresses)
    }

    /// Releases a component whose last live transaction left: exact, O(members).
    fn free_component(&mut self, member: Address) {
        self.release_component(member);
        self.ops += self.index.compact_if_sparse() as u64;
    }

    /// Component-local (epoch) compaction: rebuilds one component from its live
    /// edges, un-merging whatever its dead edges were bridging. Cost is
    /// O(members + edges) of that component only, amortized against the removals
    /// that tombstoned a constant fraction of its edges.
    fn compact_component(&mut self, member: Address) {
        let (component, addresses) = self.release_component(member);
        let mut seen: HashSet<EdgeKey> = HashSet::new();
        for key in component.edges {
            if !seen.insert(key) {
                continue;
            }
            let Some(&refs) = self.edge_refs.get(&key) else {
                continue; // tombstoned edge: drop it
            };
            // Relink: the edge keeps its reference count, it only re-joins the
            // rebuilt (possibly split) component structure.
            let (relinked, folded) = self.index.union(key.0, key.1);
            relinked.txs += refs;
            relinked.edges.push(key);
            self.ops += folded as u64;
        }
        // Re-anchor weak transactions: they induce no edges, so the relink
        // above dropped their counts — and possibly the interning of a sender
        // whose every strong edge died.
        for address in addresses {
            if let Some(&weak) = self.weak_anchors.get(&address) {
                self.index.intern(address).txs += weak;
                self.ops += 1;
            }
        }
        self.compactions += 1;
        self.ops += self.index.compact_if_sparse() as u64;
    }

    /// Forces full tightness: compacts every component carrying dead edges, so the
    /// partition matches a from-scratch rebuild exactly. The drivers never need
    /// this — it exists for cross-checks and for consumers that want an exact
    /// component distribution at a chosen instant.
    pub fn compact(&mut self) {
        // Compacting one component re-keys others, so look for the next dirty
        // one after every pass instead of snapshotting the list up front.
        while let Some(member) = self.dirty_component() {
            self.compact_component(member);
        }
    }

    /// An address of some component carrying dead edges.
    fn dirty_component(&self) -> Option<Address> {
        let mut components = self.index.components();
        components.find_map(|(member, c)| (c.dead > 0).then_some(member))
    }

    /// Number of live transactions in the graph.
    pub fn tx_count(&self) -> usize {
        self.txs
    }

    /// Number of distinct addresses currently interned. Conservative between
    /// compactions: an address whose every edge died stays interned until its
    /// component compacts or empties.
    pub fn address_count(&self) -> usize {
        self.index.key_count()
    }

    /// Number of distinct live dependency edges.
    pub fn live_edge_count(&self) -> usize {
        self.edge_refs.len()
    }

    /// Tombstoned (dead but not yet compacted) edge entries across all components.
    pub fn dead_edge_count(&self) -> usize {
        self.index.components().map(|(_, c)| c.dead).sum()
    }

    /// Cumulative maintenance work units: one per insert/remove plus one per
    /// element touched by folds and compactions. The drivers report the per-block
    /// delta of this counter, which is how the O(Δ)-per-block claim is measured.
    pub fn op_units(&self) -> u64 {
        self.ops
    }

    /// Component-local compactions run so far (the zero-degree fast path and
    /// exact component releases never count here).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// The component id of an address, if it has been seen. Ids are stable
    /// between mutations but not across them (compaction renumbers).
    pub fn component_of(&mut self, address: Address) -> Option<usize> {
        self.index.component_id(&address)
    }

    /// Number of transactions in the component containing `address` (0 if unseen).
    pub fn component_tx_count(&mut self, address: Address) -> usize {
        self.index.get_mut(&address).map_or(0, |c| c.txs)
    }

    /// Transaction counts of all components holding at least one transaction
    /// (unspecified order).
    pub fn component_tx_counts(&self) -> Vec<usize> {
        self.index.components().map(|(_, c)| c.txs).collect()
    }

    /// The largest per-component transaction count (0 when empty).
    pub fn largest_component_tx_count(&self) -> usize {
        let counts = self.index.components().map(|(_, c)| c.txs);
        counts.max().unwrap_or(0)
    }
}

/// Drops one reference from a reference-counted map, removing the entry with
/// its last reference.
fn release_ref<T: std::hash::Hash + Eq>(refs: &mut HashMap<T, usize>, key: T, what: &str) {
    let count = refs
        .get_mut(&key)
        .unwrap_or_else(|| panic!("{what} carries a live reference count"));
    *count -= 1;
    if *count == 0 {
        refs.remove(&key);
    }
}

/// Dependency-component transaction counts of one packed block, computed with a
/// throwaway block-local [`ComponentIndex`] over exactly the included transactions —
/// O(block), independent of any pool-level graph: a packed block's static group
/// structure, which tests hold against the engine's observed groups (the
/// pool-level [`IncrementalTdg`] covers the whole pool and, between compactions,
/// may be coarser than the block's own graph).
pub fn block_group_sizes<'a>(txs: impl IntoIterator<Item = &'a AccountTransaction>) -> Vec<u64> {
    let mut groups: ComponentIndex<Address, u64> = ComponentIndex::new();
    for tx in txs {
        *groups.union(tx.sender(), effective_receiver(tx)).0 += 1;
    }
    groups.components().map(|(_, &count)| count).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockconc_types::{Amount, DeterministicRng};

    fn pay(sender: u64, receiver: u64, nonce: u64) -> AccountTransaction {
        AccountTransaction::transfer(
            Address::from_low(sender),
            Address::from_low(receiver),
            Amount::from_sats(1),
            nonce,
        )
    }

    fn call(sender: u64, target: u64, nonce: u64) -> AccountTransaction {
        AccountTransaction::contract_call(
            Address::from_low(sender),
            Address::from_low(target),
            Amount::from_sats(1),
            Vec::new(),
            nonce,
        )
    }

    /// Canonical partition fingerprint over a bounded address range.
    fn groups(tdg: &mut IncrementalTdg, addresses: u64) -> Vec<Vec<u64>> {
        let mut map: HashMap<usize, Vec<u64>> = HashMap::new();
        for addr in 0..addresses {
            if let Some(root) = tdg.component_of(Address::from_low(addr)) {
                map.entry(root).or_default().push(addr);
            }
        }
        let mut result: Vec<Vec<u64>> = map
            .into_values()
            .map(|mut group| {
                group.sort_unstable();
                group
            })
            .collect();
        result.sort();
        result
    }

    #[test]
    fn merging_components_accumulates_tx_counts() {
        let mut tdg = IncrementalTdg::new();
        tdg.insert(&pay(1, 10, 0));
        tdg.insert(&pay(2, 20, 0));
        assert_eq!(tdg.largest_component_tx_count(), 1);
        // Bridge the two components: counts merge and include the bridge itself.
        tdg.insert(&pay(10, 20, 0));
        assert_eq!(tdg.largest_component_tx_count(), 3);
        assert_eq!(tdg.component_tx_count(Address::from_low(1)), 3);
        assert_eq!(tdg.tx_count(), 3);
        assert_eq!(tdg.address_count(), 4);
    }

    #[test]
    fn self_transfers_stay_singletons() {
        let mut tdg = IncrementalTdg::new();
        tdg.insert(&pay(5, 5, 0));
        assert_eq!(tdg.address_count(), 1);
        assert_eq!(tdg.component_tx_count(Address::from_low(5)), 1);
        tdg.remove(&pay(5, 5, 0));
        assert_eq!(tdg.address_count(), 0);
        assert_eq!(tdg.tx_count(), 0);
    }

    #[test]
    fn contract_creations_use_deployment_address() {
        use blockconc_account::vm::Contract;
        use std::sync::Arc;
        let code = Arc::new(Contract::counter());
        let tx = AccountTransaction::contract_create(Address::from_low(1), code.clone(), 0);
        let mut tdg = IncrementalTdg::new();
        tdg.insert(&tx);
        let deploy = code.deployment_address(Address::from_low(1), 0);
        assert!(tdg.component_of(deploy).is_some());
        assert_eq!(
            tdg.component_of(deploy),
            tdg.component_of(Address::from_low(1))
        );
        tdg.remove(&tx);
        assert_eq!(tdg.component_of(deploy), None);
    }

    #[test]
    fn removing_a_covered_edge_takes_the_zero_degree_fast_path() {
        // Two deposits share the edge (1, 100): removing one is a pure decrement —
        // no dead edges, no compaction (the regression test for the replacement
        // fast path: a superseded transaction whose conflict edge is still covered
        // must never trigger garbage collection, let alone a rebuild).
        let mut tdg = IncrementalTdg::new();
        tdg.insert(&pay(1, 100, 0));
        tdg.insert(&pay(1, 100, 1));
        tdg.insert(&pay(2, 100, 0));
        tdg.remove(&pay(1, 100, 0));
        assert_eq!(tdg.tx_count(), 2);
        assert_eq!(tdg.dead_edge_count(), 0);
        assert_eq!(tdg.compactions(), 0);
        assert_eq!(tdg.component_tx_count(Address::from_low(1)), 2);
        // The partition still matches a rebuild exactly.
        let mut rebuilt = IncrementalTdg::rebuild_from([&pay(1, 100, 1), &pay(2, 100, 0)]);
        assert_eq!(groups(&mut tdg, 200), groups(&mut rebuilt, 200));
    }

    #[test]
    fn emptying_a_component_frees_its_addresses_exactly() {
        let mut tdg = IncrementalTdg::new();
        tdg.insert(&pay(1, 100, 0));
        tdg.insert(&pay(3, 300, 0));
        tdg.remove(&pay(1, 100, 0));
        assert_eq!(tdg.address_count(), 2);
        assert_eq!(tdg.component_of(Address::from_low(1)), None);
        assert_eq!(tdg.component_of(Address::from_low(100)), None);
        assert_eq!(tdg.component_tx_count(Address::from_low(3)), 1);
        assert_eq!(tdg.dead_edge_count(), 0);
    }

    #[test]
    fn dead_bridges_unsplit_after_compaction() {
        // 1—100 and 2—200 bridged by 100—200: removing the bridge leaves the
        // component conservatively merged until compaction splits it.
        let mut tdg = IncrementalTdg::new();
        tdg.insert(&pay(1, 100, 0));
        tdg.insert(&pay(2, 200, 0));
        tdg.insert(&pay(100, 200, 0));
        assert_eq!(tdg.largest_component_tx_count(), 3);
        tdg.remove(&pay(100, 200, 0));
        // Aggregates are exact immediately even if membership lags.
        assert_eq!(tdg.tx_count(), 2);
        tdg.compact();
        assert_eq!(tdg.dead_edge_count(), 0);
        let mut rebuilt = IncrementalTdg::rebuild_from([&pay(1, 100, 0), &pay(2, 200, 0)]);
        assert_eq!(groups(&mut tdg, 300), groups(&mut rebuilt, 300));
        assert_eq!(tdg.largest_component_tx_count(), 1);
        assert_eq!(tdg.address_count(), 4);
    }

    #[test]
    #[should_panic(expected = "absent from the TDG")]
    fn removing_an_uninserted_transaction_panics() {
        let mut tdg = IncrementalTdg::new();
        tdg.insert(&pay(1, 100, 0));
        tdg.remove(&pay(2, 200, 0));
    }

    #[test]
    fn heavy_churn_stays_bounded_by_the_live_set() {
        // Insert/remove waves over a shared hot spot: memory-ish proxies (address
        // count, live edges) must track the live set, not the history.
        let mut tdg = IncrementalTdg::new();
        for wave in 0..50u64 {
            for i in 0..40u64 {
                tdg.insert(&pay(1_000 + wave * 40 + i, 7, 0));
            }
            for i in 0..40u64 {
                tdg.remove(&pay(1_000 + wave * 40 + i, 7, 0));
            }
        }
        assert_eq!(tdg.tx_count(), 0);
        assert_eq!(tdg.address_count(), 0);
        assert_eq!(tdg.live_edge_count(), 0);
        assert_eq!(tdg.dead_edge_count(), 0);
    }

    #[test]
    fn self_loop_churn_in_a_live_component_stays_bounded() {
        // A dead self-loop cannot split the component, but it must still age it
        // toward compaction — otherwise churn like this would grow the edge list
        // without bound while the live set stays O(1).
        let mut tdg = IncrementalTdg::new();
        tdg.insert(&pay(5, 6, 0)); // keeps the component alive throughout
        for n in 0..1_000u64 {
            tdg.insert(&pay(5, 5, n));
            tdg.remove(&pay(5, 5, n));
        }
        assert_eq!(tdg.tx_count(), 1);
        assert_eq!(tdg.live_edge_count(), 1);
        assert!(
            tdg.dead_edge_count() <= 4,
            "stale self-loop entries must be compacted away, found {}",
            tdg.dead_edge_count()
        );
        assert_eq!(tdg.component_tx_count(Address::from_low(5)), 1);
    }

    #[test]
    fn block_group_sizes_match_a_block_local_rebuild() {
        let txs = [pay(1, 100, 0), pay(2, 100, 0), pay(3, 300, 0), pay(4, 4, 0)];
        let mut sizes = block_group_sizes(txs.iter());
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 1, 2]);
        let rebuilt = IncrementalTdg::rebuild_from(txs.iter());
        let mut expected: Vec<u64> = rebuilt
            .component_tx_counts()
            .into_iter()
            .map(|c| c as u64)
            .collect();
        expected.sort_unstable();
        assert_eq!(sizes, expected);
    }

    /// The tentpole invariant: streaming insertion *and deletion* agree with a
    /// from-scratch rebuild after every batch, on randomized workloads — exactly
    /// once compacted, conservatively (a coarsening with identical aggregate
    /// counts) in between.
    #[test]
    fn streaming_matches_rebuild_after_every_batch() {
        for seed in 0..5u64 {
            let mut rng = DeterministicRng::seed(seed);
            let mut streaming = IncrementalTdg::new();
            let mut live: Vec<AccountTransaction> = Vec::new();
            for _batch in 0..14 {
                // Insert a burst (a small address space forces frequent merges).
                for _ in 0..rng.range(1, 20) {
                    let tx = pay(rng.range(1, 25), rng.range(1, 25), rng.next_u64());
                    streaming.insert(&tx);
                    live.push(tx);
                }
                // Interleave departures: packed blocks / evictions remove random
                // entries, replacements remove-then-insert with a new receiver.
                for _ in 0..rng.range(0, 10) {
                    if live.is_empty() {
                        break;
                    }
                    let index = (rng.next_u64() % live.len() as u64) as usize;
                    let victim = live.swap_remove(index);
                    streaming.remove(&victim);
                    if rng.range(0, 2) == 0 {
                        let rebid =
                            pay(victim.sender().low_u64(), rng.range(1, 25), victim.nonce());
                        streaming.insert(&rebid);
                        live.push(rebid);
                    }
                }

                let rebuilt = IncrementalTdg::rebuild_from(live.iter());
                // Aggregate counts are exact at every instant.
                assert_eq!(streaming.tx_count(), rebuilt.tx_count(), "seed {seed}");
                let mut streaming_sizes = streaming.component_tx_counts();
                let mut rebuilt_sizes = rebuilt.component_tx_counts();
                streaming_sizes.sort_unstable();
                rebuilt_sizes.sort_unstable();
                assert_eq!(
                    streaming_sizes.iter().sum::<usize>(),
                    rebuilt_sizes.iter().sum::<usize>(),
                    "seed {seed}"
                );

                // The live partition is conservative: every rebuilt component maps
                // into exactly one streaming component.
                let mut conservative = streaming.clone();
                let mut exact = rebuilt.clone();
                let rebuilt_groups = groups(&mut exact, 25);
                for group in &rebuilt_groups {
                    let roots: HashSet<_> = group
                        .iter()
                        .map(|&addr| {
                            conservative
                                .component_of(Address::from_low(addr))
                                .expect("live address is interned")
                        })
                        .collect();
                    assert_eq!(roots.len(), 1, "seed {seed}: split a live component");
                }

                // Compaction restores exact agreement: same partition, same
                // per-component counts, same address set.
                let mut compacted = streaming.clone();
                compacted.compact();
                assert_eq!(compacted.address_count(), rebuilt.address_count());
                assert_eq!(compacted.dead_edge_count(), 0);
                let mut compacted_sizes = compacted.component_tx_counts();
                compacted_sizes.sort_unstable();
                assert_eq!(compacted_sizes, rebuilt_sizes, "seed {seed}");
                let mut exact = rebuilt.clone();
                assert_eq!(
                    groups(&mut compacted, 25),
                    groups(&mut exact, 25),
                    "seed {seed}: compacted partition diverged"
                );
            }
        }
    }

    #[test]
    fn weak_edges_dissolve_the_hot_sink() {
        // The delta-cell headline in graph form: twenty pure credits into one
        // sink share nothing — the sink is never interned and every transfer
        // stays a singleton component.
        let mut tdg = IncrementalTdg::new().with_weak_edges();
        for s in 1..=20u64 {
            tdg.insert(&pay(s, 500, 0));
        }
        assert_eq!(tdg.tx_count(), 20);
        assert_eq!(tdg.weak_tx_count(), 20);
        assert_eq!(tdg.largest_component_tx_count(), 1);
        assert_eq!(tdg.component_of(Address::from_low(500)), None);
        // Strong-mode control: the same block fuses into one 20-tx component.
        let mut strong = IncrementalTdg::new();
        for s in 1..=20u64 {
            strong.insert(&pay(s, 500, 0));
        }
        assert_eq!(strong.largest_component_tx_count(), 20);
        // Drain: all bookkeeping returns to empty.
        for s in 1..=20u64 {
            tdg.remove(&pay(s, 500, 0));
        }
        assert_eq!(tdg.tx_count(), 0);
        assert_eq!(tdg.address_count(), 0);
        assert_eq!(tdg.weak_tx_count(), 0);
    }

    #[test]
    fn strongly_touched_receivers_promote_weak_transfers() {
        let mut tdg = IncrementalTdg::new().with_weak_edges();
        tdg.insert(&call(1, 700, 0)); // contract state is read-modify-write: strong
        tdg.insert(&pay(2, 700, 0)); // payload-weak, but 700 is strongly touched
        assert_eq!(tdg.weak_tx_count(), 0);
        assert_eq!(tdg.largest_component_tx_count(), 2);
        assert_eq!(
            tdg.component_of(Address::from_low(1)),
            tdg.component_of(Address::from_low(2))
        );
        tdg.remove(&pay(2, 700, 0));
        tdg.remove(&call(1, 700, 0));
        assert_eq!(tdg.tx_count(), 0);
        assert_eq!(tdg.address_count(), 0);
    }

    #[test]
    fn weak_edges_preceding_a_strong_touch_stay_weak() {
        // Arrival-order asymmetry is deliberate: retroactive promotion would
        // cost a component scan per strong insert, and the graph is advisory —
        // the engine's validation is the correctness gate.
        let mut tdg = IncrementalTdg::new().with_weak_edges();
        tdg.insert(&pay(2, 700, 0));
        tdg.insert(&call(1, 700, 0));
        assert_eq!(tdg.weak_tx_count(), 1);
        assert_eq!(tdg.largest_component_tx_count(), 1);
        tdg.remove(&pay(2, 700, 0));
        tdg.remove(&call(1, 700, 0));
        assert_eq!(tdg.tx_count(), 0);
        assert_eq!(tdg.address_count(), 0);
    }

    #[test]
    fn promoted_twins_conserve_strong_bookkeeping() {
        // A weak transaction and its later, promoted twin share the directed
        // pair. Prefer-weak removal releases the weak reference first; the
        // pair's last removal releases the strong edge — conserved either way.
        let mut tdg = IncrementalTdg::new().with_weak_edges();
        tdg.insert(&pay(1, 700, 0)); // weak
        tdg.insert(&call(2, 700, 0)); // strong touch on 700
        tdg.insert(&pay(1, 700, 1)); // payload-weak twin, promoted to strong
        assert_eq!(tdg.weak_tx_count(), 1);
        assert_eq!(tdg.tx_count(), 3);
        // The promoted twin's real edge fuses everything.
        assert_eq!(tdg.largest_component_tx_count(), 3);
        tdg.remove(&pay(1, 700, 0));
        tdg.remove(&pay(1, 700, 1));
        assert_eq!(tdg.weak_tx_count(), 0);
        tdg.remove(&call(2, 700, 0));
        assert_eq!(tdg.tx_count(), 0);
        assert_eq!(tdg.address_count(), 0);
    }

    #[test]
    fn compaction_re_anchors_weak_counts() {
        // A sender whose every strong edge dies keeps its weak transactions
        // counted through the component-local rebuild.
        let mut tdg = IncrementalTdg::new().with_weak_edges();
        tdg.insert(&call(1, 700, 0)); // strong: {1, 700}
        for n in 0..4u64 {
            tdg.insert(&pay(1, 900, n)); // weak, anchored at 1
        }
        assert_eq!(tdg.component_tx_count(Address::from_low(1)), 5);
        tdg.remove(&call(1, 700, 0)); // kills the only strong edge
        assert!(tdg.compactions() >= 1);
        assert_eq!(tdg.tx_count(), 4);
        assert_eq!(tdg.component_tx_count(Address::from_low(1)), 4);
        assert_eq!(tdg.component_of(Address::from_low(700)), None);
        for n in 0..4u64 {
            tdg.remove(&pay(1, 900, n));
        }
        assert_eq!(tdg.address_count(), 0);
        assert_eq!(tdg.tx_count(), 0);
    }

    /// The weak-mode tentpole invariant: on identical randomized churn, the
    /// weak partition *refines* the strong one (delta-only sharing never fuses
    /// what the strong graph splits — and never fuses anything the strong graph
    /// doesn't), aggregates stay exact, and the bookkeeping drains to zero.
    #[test]
    fn weak_partition_refines_strong_under_churn() {
        for seed in 0..4u64 {
            let mut rng = DeterministicRng::seed(seed);
            let mut weak = IncrementalTdg::new().with_weak_edges();
            let mut strong = IncrementalTdg::new();
            let mut live: Vec<AccountTransaction> = Vec::new();
            for _batch in 0..12 {
                for _ in 0..rng.range(1, 16) {
                    let tx = if rng.range(0, 3) == 0 {
                        call(rng.range(1, 20), rng.range(1, 20), rng.next_u64())
                    } else {
                        pay(rng.range(1, 20), rng.range(1, 20), rng.next_u64())
                    };
                    weak.insert(&tx);
                    strong.insert(&tx);
                    live.push(tx);
                }
                for _ in 0..rng.range(0, 8) {
                    if live.is_empty() {
                        break;
                    }
                    let index = (rng.next_u64() % live.len() as u64) as usize;
                    let victim = live.swap_remove(index);
                    weak.remove(&victim);
                    strong.remove(&victim);
                }
                assert_eq!(weak.tx_count(), strong.tx_count(), "seed {seed}");
                assert_eq!(weak.tx_count(), live.len(), "seed {seed}");
                assert_eq!(
                    weak.component_tx_counts().iter().sum::<usize>(),
                    live.len(),
                    "seed {seed}"
                );
                // Exact partitions for the refinement check.
                weak.compact();
                strong.compact();
                let weak_groups = groups(&mut weak, 20);
                for group in &weak_groups {
                    let roots: HashSet<_> = group
                        .iter()
                        .map(|&addr| {
                            strong
                                .component_of(Address::from_low(addr))
                                .expect("weak-live address is strong-live")
                        })
                        .collect();
                    assert_eq!(roots.len(), 1, "seed {seed}: weak fused what strong split");
                }
                assert!(
                    weak.largest_component_tx_count() <= strong.largest_component_tx_count(),
                    "seed {seed}: weak mode must never make the hot spot worse"
                );
            }
            weak.remove_batch(live.iter());
            assert_eq!(weak.tx_count(), 0);
            assert_eq!(weak.address_count(), 0);
            assert_eq!(weak.weak_tx_count(), 0);
        }
    }

    #[test]
    fn weak_largest_group_never_exceeds_strong_on_the_commutative_hotspot_sweep() {
        // Exchange deposits plus fee-sink increments at 0% to 80% of the traffic
        // (6 blocks x 200 transactions per point), each block into a fresh
        // strong graph and a fresh weak one (the graph the driver keeps for a
        // delta-commuting engine): dropping the pure-credit edges may only
        // split groups.
        use blockconc_chainsim::{AccountWorkloadGen, AccountWorkloadParams};
        let largest = |mut graph: IncrementalTdg, txs: &[AccountTransaction]| {
            for tx in txs {
                graph.insert(tx);
            }
            graph.largest_component_tx_count()
        };
        for hot_share in [0.0, 0.2, 0.4, 0.6, 0.8] {
            let params = AccountWorkloadParams::commutative_hotspot(hot_share);
            let mut generator = AccountWorkloadGen::new(params, 2020);
            for _ in 0..6 {
                let txs = generator.generate_transactions(200);
                let strong = largest(IncrementalTdg::new(), &txs);
                let weak = largest(IncrementalTdg::new().with_weak_edges(), &txs);
                assert!(
                    weak <= strong,
                    "hot share {hot_share}: weak {weak} > strong {strong}"
                );
            }
        }
    }
}
