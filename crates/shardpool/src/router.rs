//! Component → shard routing.
//!
//! The router is the sharded pool's single source of truth for *where a
//! transaction's dependency component lives*. It keeps a monotone
//! [`ComponentIndex`] over every address ever offered to the pool (monotone on
//! purpose: an edge once seen is never forgotten, so two transactions sharing an
//! address can never be routed to different shards) whose per-component payload is
//! the component's **anchor** and the **senders pinned** in it — the senders with
//! live pooled entries. Sender chains always live inside their component, so they
//! never split across shards; when a component migrates, its chains move whole.
//!
//! # Canonical placement
//!
//! A component's home shard is `hash(anchor)` ([`canonical_shard`], the
//! workspace-wide rule the cluster router shares), where the *anchor* is the smallest
//! address the component has ever contained. The minimum is order-independent, so
//! the placement reached after ingesting any set of transactions is a pure function
//! of that set — **not** of how concurrent callers interleaved. (A
//! load-aware rule like "least loaded shard wins" reads racy counters and makes
//! block composition nondeterministic; canonical placement keeps every downstream
//! artifact reproducible.) An anchor can only decrease, and the minimum of a
//! random-ish address sequence changes O(log n) times, so anchor-driven component
//! migrations stay rare.
//!
//! # The placement invariant, and why planning costs what it moves
//!
//! Between calls, **every pinned sender's pin is its component's canonical
//! shard**. [`Router::route`] and [`Router::rebalance`] keep it themselves: each
//! records the pin moves it orders before it returns (the pool then moves the
//! chains, under the same lock hold), and [`Router::note_admitted`] pins to the
//! shard `route` just decided. So when an arriving edge fuses two components, the
//! side that keeps its anchor is already where the fused component lives; only the
//! other side can hold chains that must move, and only if its canonical shard
//! differs from the fused target — in which case all of them move. `route` reads
//! that one sender set and nothing else: an offer into a component of any size
//! whose placement does not change examines no sender at all. (Scanning the fused
//! component on every offer, as this module once did, made admission quadratic per
//! block exactly when one hot spot owns most of the pool.)
//!
//! [`Router::rebalance`] periodically replaces the index with a fresh one over the
//! surviving pool contents — un-fusing components whose only bridges have since
//! been packed, which the monotone online structure cannot do — and re-derives
//! canonical placement for the survivors.

use blockconc_graph::{canonical_shard, ComponentIndex, ComponentPayload};
use blockconc_types::Address;
use std::collections::{BTreeSet, HashMap};

/// An order to move every pooled transaction of `sender` between shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Migration {
    pub sender: Address,
    pub from: usize,
    pub to: usize,
}

/// Where the router decided an offered transaction must go.
#[derive(Debug)]
pub(crate) struct RouteDecision {
    pub shard: usize,
    /// Chain moves that keep the fused component on one shard, in sender order.
    /// The pins have already moved; the caller owes the physical moves.
    pub migrations: Vec<Migration>,
}

#[derive(Debug, Clone, Copy)]
struct Pin {
    shard: usize,
    live: usize,
}

impl Pin {
    /// Moves the pin (and its live count) to shard `to`; returns the order for
    /// `sender`'s chain to follow.
    fn move_to(&mut self, to: usize, sender: Address, shard_live: &mut [usize]) -> Migration {
        let from = std::mem::replace(&mut self.shard, to);
        shard_live[from] -= self.live;
        shard_live[to] += self.live;
        Migration { sender, from, to }
    }
}

/// What the router keeps per component.
#[derive(Debug)]
struct Component {
    /// Smallest address the component has ever contained.
    anchor: Address,
    /// Senders with live pooled entries (deterministically ordered so migration
    /// plans are reproducible).
    senders: BTreeSet<Address>,
}

impl ComponentPayload<Address> for Component {
    fn singleton(address: Address) -> Self {
        Component {
            anchor: address,
            senders: BTreeSet::new(),
        }
    }

    /// The lower anchor wins; the smaller sender set folds into the larger.
    fn absorb(&mut self, mut absorbed: Self) -> usize {
        self.anchor = self.anchor.min(absorbed.anchor);
        if self.senders.len() < absorbed.senders.len() {
            std::mem::swap(&mut self.senders, &mut absorbed.senders);
        }
        let folded = absorbed.senders.len();
        self.senders.extend(absorbed.senders);
        folded
    }
}

/// The component-to-shard routing state (all methods require external locking; the
/// sharded pool wraps one `Router` in a mutex that orders strictly *before* any
/// shard lock).
#[derive(Debug)]
pub(crate) struct Router {
    shards: usize,
    components: ComponentIndex<Address, Component>,
    pin: HashMap<Address, Pin>,
    /// Live pooled transactions per shard (reporting only — never a routing input,
    /// which would reintroduce interleaving-dependence).
    shard_live: Vec<usize>,
    pub migrated_chains: u64,
    pub rebalances: u64,
    /// Senders [`Router::route`] has read while planning migrations — the
    /// admission path's only super-constant term, counted so a test can bound it
    /// without a clock.
    pub senders_examined: u64,
}

impl Router {
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        Router {
            shards,
            components: ComponentIndex::new(),
            pin: HashMap::new(),
            shard_live: vec![0; shards],
            migrated_chains: 0,
            rebalances: 0,
            senders_examined: 0,
        }
    }

    /// The shard a sender's live chain is pinned to, if any.
    pub fn pin_shard(&self, sender: Address) -> Option<usize> {
        self.pin.get(&sender).map(|pin| pin.shard)
    }

    /// The canonical shard of `address`'s component, if the address has been seen.
    #[cfg(test)]
    pub fn component_shard(&mut self, address: Address) -> Option<usize> {
        let anchor = self.components.get_mut(&address)?.anchor;
        Some(canonical_shard(anchor, self.shards))
    }

    /// Routes one offered transaction edge: interns both endpoints, unions them,
    /// and places the (possibly fused) component at its canonical shard. If that
    /// re-homes one side of the union, the decision carries the side's chains as
    /// migrations and their pins have already moved (see the module docs).
    pub fn route(&mut self, sender: Address, receiver: Address) -> RouteDecision {
        let sender_anchor = self.components.intern(sender).anchor;
        let receiver_anchor = self.components.intern(receiver).anchor;
        let target = canonical_shard(sender_anchor.min(receiver_anchor), self.shards);
        let mut migrations = Vec::new();
        // An anchor is a member of its component, so two sides with one anchor
        // are one component already.
        if sender_anchor != receiver_anchor {
            // The side that keeps its anchor is on `target` already; the other
            // side moves whole if its home differs. One side, one ordered set:
            // the plan comes out in sender order, as a scan of the fused
            // component would give.
            let (outbid, outbid_anchor) = if sender_anchor > receiver_anchor {
                (sender, sender_anchor)
            } else {
                (receiver, receiver_anchor)
            };
            if canonical_shard(outbid_anchor, self.shards) != target {
                let side = self.components.get_mut(&outbid).expect("just interned");
                for &member in &side.senders {
                    self.senders_examined += 1;
                    let pin = self
                        .pin
                        .get_mut(&member)
                        .expect("listed senders are pinned");
                    debug_assert_ne!(pin.shard, target, "placement invariant");
                    migrations.push(pin.move_to(target, member, &mut self.shard_live));
                }
                self.migrated_chains += migrations.len() as u64;
            }
            self.components.union(sender, receiver);
        }
        RouteDecision {
            shard: target,
            migrations,
        }
    }

    /// Records one transaction of `sender` admitted to `shard` — the shard the
    /// [`Router::route`] call for that offer decided, which is where an already
    /// pinned sender's chain sits.
    pub fn note_admitted(&mut self, sender: Address, shard: usize) {
        let pin = self.pin.entry(sender).or_insert(Pin { shard, live: 0 });
        debug_assert_eq!(pin.shard, shard, "placement invariant");
        pin.live += 1;
        self.shard_live[pin.shard] += 1;
        if pin.live == 1 {
            self.components.intern(sender).senders.insert(sender);
        }
    }

    /// Records `count` removed transactions of `sender` (packed, evicted, resynced
    /// or dropped); unpins the sender when its last live entry goes.
    pub fn note_removed(&mut self, sender: Address, count: usize) {
        if count == 0 {
            return;
        }
        let Some(pin) = self.pin.get_mut(&sender) else {
            return;
        };
        debug_assert!(
            pin.live >= count,
            "removing more than the sender's live txs"
        );
        pin.live -= count;
        self.shard_live[pin.shard] -= count;
        if pin.live == 0 {
            self.pin.remove(&sender);
            if let Some(component) = self.components.get_mut(&sender) {
                component.senders.remove(&sender);
            }
        }
    }

    /// Total live transactions across all shards.
    pub fn total_live(&self) -> usize {
        self.shard_live.iter().sum()
    }

    /// Live transactions per shard.
    pub fn shard_live(&self) -> &[usize] {
        &self.shard_live
    }

    /// Rebuilds the routing state from the surviving pool contents, returning the
    /// migrations that realize the survivors' canonical placement (pins already
    /// moved, like [`Router::route`]'s).
    ///
    /// `residents` is one `(sender, effective_receiver)` edge per pooled
    /// transaction. The rebuild un-fuses components that only shared packed (now
    /// gone) transactions — something the monotone online index cannot do — so
    /// their anchors rise back to the surviving minima and the freed components
    /// re-spread over the shards.
    pub fn rebalance(&mut self, residents: &[(Address, Address)]) -> Vec<Migration> {
        // A fresh index over the surviving edges only: anchors and sender sets
        // fall out of the same union `route` performs.
        self.components = ComponentIndex::new();
        for &(sender, receiver) in residents {
            let (component, _) = self.components.union(sender, receiver);
            component.senders.insert(sender);
        }

        // Re-pin every sender pinned off its component's canonical shard.
        let mut migrations = Vec::new();
        for (_, component) in self.components.components() {
            let target = canonical_shard(component.anchor, self.shards);
            for &sender in &component.senders {
                if let Some(pin) = self.pin.get_mut(&sender) {
                    if pin.shard != target {
                        migrations.push(pin.move_to(target, sender, &mut self.shard_live));
                    }
                }
            }
        }
        migrations.sort_by_key(|m| (m.from, m.to, m.sender));
        self.migrated_chains += migrations.len() as u64;
        self.rebalances += 1;
        migrations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u64) -> Address {
        Address::from_low(n)
    }

    #[test]
    fn placement_is_canonical_and_order_independent() {
        // Process the same edge set in two different orders: final shards match.
        let edges = [
            (addr(9), addr(100)),
            (addr(3), addr(100)),
            (addr(7), addr(200)),
            (addr(5), addr(200)),
            (addr(2), addr(300)),
        ];
        let mut forward = Router::new(5);
        for &(s, r) in &edges {
            forward.route(s, r);
        }
        let mut backward = Router::new(5);
        for &(s, r) in edges.iter().rev() {
            backward.route(s, r);
        }
        for &(s, r) in &edges {
            assert_eq!(
                forward.component_shard(s),
                backward.component_shard(s),
                "sender {s}"
            );
            assert_eq!(forward.component_shard(r), backward.component_shard(r));
        }
    }

    #[test]
    fn sender_chains_route_to_one_shard() {
        let mut router = Router::new(4);
        let first = router.route(addr(11), addr(100));
        router.note_admitted(addr(11), first.shard);
        // Later nonces touch different receivers, but the component (and the pin)
        // keeps the chain together.
        let second = router.route(addr(11), addr(200));
        assert_eq!(
            second.shard,
            router.pin_shard(addr(11)).unwrap_or(usize::MAX)
        );
        let third = router.route(addr(11), addr(300));
        assert_eq!(third.shard, second.shard);
    }

    #[test]
    fn fusing_components_across_shards_migrates_the_losing_chains() {
        // Pick two senders whose components land on different shards.
        let mut router = Router::new(8);
        let a = router.route(addr(9), addr(901));
        router.note_admitted(addr(9), a.shard);
        let b = router.route(addr(21), addr(902));
        router.note_admitted(addr(21), b.shard);
        assert_ne!(a.shard, b.shard, "test needs distinct initial shards");
        // A bridge fuses them; everything must colocate at the canonical shard.
        let bridge = router.route(addr(901), addr(902));
        let target = bridge.shard;
        assert_eq!(
            bridge.migrations.len(),
            1,
            "exactly one chain is off-target"
        );
        for migration in &bridge.migrations {
            assert_eq!(migration.to, target);
        }
        assert_eq!(router.component_shard(addr(9)), Some(target));
        assert_eq!(router.component_shard(addr(21)), Some(target));
        assert_eq!(router.pin_shard(addr(9)), Some(target));
        assert_eq!(router.pin_shard(addr(21)), Some(target));
    }

    #[test]
    fn note_removed_unpins_and_rebalance_unfuses() {
        let mut router = Router::new(8);
        let a = router.route(addr(9), addr(901));
        router.note_admitted(addr(9), a.shard);
        let b = router.route(addr(21), addr(902));
        router.note_admitted(addr(21), b.shard);
        assert_ne!(a.shard, b.shard);
        // Bridge them (sender 2 gets the bridge transaction).
        let bridge = router.route(addr(2), addr(901));
        router.note_admitted(addr(2), bridge.shard);
        router.route(addr(2), addr(902));
        assert_eq!(
            router.component_shard(addr(901)),
            router.component_shard(addr(902))
        );
        assert_eq!(router.total_live(), 3);
        // The bridge is packed away; online state cannot un-fuse...
        router.note_removed(addr(2), 1);
        assert_eq!(router.pin_shard(addr(2)), None);
        assert_eq!(
            router.component_shard(addr(901)),
            router.component_shard(addr(902))
        );
        // ...but a rebalance over the survivors restores independent placement.
        let residents = [(addr(9), addr(901)), (addr(21), addr(902))];
        router.rebalance(&residents);
        assert_eq!(router.component_shard(addr(9)), Some(a.shard));
        assert_eq!(router.component_shard(addr(21)), Some(b.shard));
        assert_eq!(router.pin_shard(addr(9)), Some(a.shard));
        assert_eq!(router.pin_shard(addr(21)), Some(b.shard));
        assert_eq!(router.rebalances, 1);
        assert_eq!(router.total_live(), 2);
    }

    /// What a scan of the whole fused component would order for this edge: every
    /// pinned sender of either side that is off the fused target, in sender order.
    /// Read-only, so it can run right before the `route` call it checks.
    fn full_scan_plan(router: &mut Router, sender: Address, receiver: Address) -> Vec<Migration> {
        // An address the router has not seen is its own anchor and pins no one.
        let mut side = |address: Address| match router.components.get_mut(&address) {
            Some(component) => (component.anchor, component.senders.clone()),
            None => (address, BTreeSet::new()),
        };
        let (sender_anchor, mut members) = side(sender);
        let (receiver_anchor, receiver_members) = side(receiver);
        members.extend(receiver_members);
        let target = canonical_shard(sender_anchor.min(receiver_anchor), router.shards);
        members
            .into_iter()
            .filter_map(|member| {
                let pin = router.pin.get(&member)?;
                (pin.shard != target).then_some(Migration {
                    sender: member,
                    from: pin.shard,
                    to: target,
                })
            })
            .collect()
    }

    /// Every pinned sender sits on its component's canonical shard, and the
    /// per-shard live counts are the pins' sums.
    fn assert_placement_invariant(router: &mut Router, step: &str) {
        let pins: Vec<(Address, Pin)> = router.pin.iter().map(|(&s, &pin)| (s, pin)).collect();
        let mut live = vec![0; router.shards];
        for (sender, pin) in pins {
            assert_eq!(
                Some(pin.shard),
                router.component_shard(sender),
                "{step}: sender {sender} is pinned off its component's shard"
            );
            live[pin.shard] += pin.live;
        }
        assert_eq!(router.shard_live(), live, "{step}: live counts drifted");
    }

    #[test]
    fn side_local_plans_equal_full_scans_and_keep_every_pin_canonical() {
        for seed in 0..48u64 {
            // xorshift64*: a seeded op stream with no dependency to vendor.
            let mut word = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = |bound: u64| {
                word ^= word >> 12;
                word ^= word << 25;
                word ^= word >> 27;
                (word.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) % bound
            };
            let mut router = Router::new(1 + (seed % 5) as usize);
            let mut residents: Vec<(Address, Address)> = Vec::new();
            for op in 0..400 {
                let step = format!("seed {seed} op {op}");
                match next(20) {
                    0..=12 => {
                        // An offer: mostly into a few shared receivers, sometimes
                        // sender to sender (bridges), sometimes not admitted.
                        let sender = addr(1 + next(24));
                        let receiver = if next(4) == 0 {
                            addr(1 + next(24))
                        } else {
                            addr(100 + next(10))
                        };
                        let expected = full_scan_plan(&mut router, sender, receiver);
                        let decision = router.route(sender, receiver);
                        assert_eq!(decision.migrations, expected, "{step}");
                        if next(5) > 0 {
                            router.note_admitted(sender, decision.shard);
                            residents.push((sender, receiver));
                        }
                    }
                    13..=17 if !residents.is_empty() => {
                        let index = next(residents.len() as u64) as usize;
                        let (sender, _) = residents.swap_remove(index);
                        router.note_removed(sender, 1);
                    }
                    _ => {
                        router.rebalance(&residents);
                    }
                }
                assert_placement_invariant(&mut router, &step);
                assert_eq!(router.total_live(), residents.len(), "{step}");
            }
            assert!(
                router.migrated_chains > 0 || router.shards == 1,
                "seed {seed}"
            );
        }
    }
}
