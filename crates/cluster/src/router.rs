//! The cluster router: whole-component placement of transactions onto node
//! shards, account-ownership tracking, and component-affine re-homing.
//!
//! Where `blockconc-shardpool`'s router spreads one node's pool over *threads*,
//! this router spreads the whole network's traffic over *nodes*, each of which
//! owns a disjoint partition of the world state. The placement rule is the same
//! workspace-wide canonical anchor hash
//! ([`canonical_shard_epoch`](blockconc_graph::canonical_shard_epoch)), so the
//! two layers can never disagree about where a component belongs.
//!
//! # Fusing vs. cross-shard edges
//!
//! An arriving transaction's `(sender, effective receiver)` edge either *fuses*
//! the two endpoints into one component — which then lives, whole, on one shard —
//! or it is a *cross-shard* edge handled by the credit protocol:
//!
//! * contract calls and creations always fuse: code executes where the contract's
//!   state lives, so the caller's chain colocates with the contract (the
//!   Conflux-style "keep conflicts shard-local" rule);
//! * a transfer to an unclaimed receiver fuses: the account is created on the
//!   sender's shard;
//! * a transfer to a receiver claimed by a *different* component does **not**
//!   fuse (unless the receiver is a contract): the debit half executes on the
//!   sender's shard and the credit ships to the receiver's owner as a
//!   [`CrossShardReceipt`](crate::CrossShardReceipt). This is precisely what
//!   keeps a popular exchange wallet from gluing every depositor in the network
//!   into one giant unsplittable component.
//!
//! When a fusion (or an anchor decrease) changes a component's canonical home,
//! the router emits [`MemberMove`] orders covering *every* member — pooled chains
//! and owned accounts move together, so the invariant *each shard's engine only
//! ever touches accounts its partition owns (plus explicitly reversed phantoms)*
//! is restored before the next offer.

use blockconc_account::AccountTransaction;
use blockconc_graph::{canonical_shard_epoch, ComponentIndex, ComponentPayload};
use blockconc_pipeline::effective_receiver;
use blockconc_types::Address;
use std::collections::{BTreeSet, HashMap, HashSet};

/// An order to move one component member between shard partitions: its account
/// record (if it has one) and, when it is a sender with pooled transactions, its
/// whole nonce chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemberMove {
    pub address: Address,
    pub from: usize,
    pub to: usize,
}

/// Where the router decided an offered transaction must be processed.
#[derive(Debug)]
pub(crate) struct RouteDecision {
    /// The shard whose mempool admits the transaction (the sender's component
    /// home).
    pub shard: usize,
    /// Member moves that must be executed before the offer (fusion or anchor
    /// decrease re-homed the component).
    pub moves: Vec<MemberMove>,
}

/// What the router keeps per component.
#[derive(Debug)]
struct Component {
    /// Smallest address the component has ever contained.
    anchor: Address,
    /// Every address of the component, in the order member moves are emitted.
    members: BTreeSet<Address>,
    /// The authoritative home (assigned at claim/fusion/rehome time; the salt
    /// only matters when a home is *computed*, so rotations never retroactively
    /// invalidate existing placements). `None` until the first claim.
    home: Option<usize>,
}

impl ComponentPayload<Address> for Component {
    fn singleton(address: Address) -> Self {
        Component {
            anchor: address,
            members: BTreeSet::from([address]),
            home: None,
        }
    }

    /// The lower anchor wins and the members merge; the survivor's home stands
    /// until [`ClusterRouter::route`] re-derives it for the fused component.
    fn absorb(&mut self, absorbed: Self) -> usize {
        self.anchor = self.anchor.min(absorbed.anchor);
        let folded = absorbed.members.len();
        self.members.extend(absorbed.members);
        folded
    }
}

/// Component-to-node routing state. Single-threaded by design: the driver *is*
/// the network fabric, and routing is the serial coordination path, timed in
/// the driver's ingest stage.
#[derive(Debug)]
pub(crate) struct ClusterRouter {
    shards: usize,
    /// Epoch salt for the canonical placement (0 = the un-salted epoch-0 rule
    /// shared with the thread-sharded pool).
    salt: u64,
    components: ComponentIndex<Address, Component>,
    /// The shard partition holding each claimed address's account. Always equal
    /// to its component's home.
    owner: HashMap<Address, usize>,
    /// Pooled transactions per sender (drives which members carry chains).
    live: HashMap<Address, usize>,
    /// Addresses known to hold contract code (base-state deployments plus
    /// `ContractCreate` targets): transfers to these always fuse.
    contracts: HashSet<Address>,
    pub rehomed_components: u64,
}

impl ClusterRouter {
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        ClusterRouter {
            shards,
            salt: 0,
            components: ComponentIndex::new(),
            owner: HashMap::new(),
            live: HashMap::new(),
            contracts: HashSet::new(),
            rehomed_components: 0,
        }
    }

    /// The shard partition currently owning `address`'s account, if claimed.
    pub fn owner_of(&self, address: Address) -> Option<usize> {
        self.owner.get(&address).copied()
    }

    /// Claims a base-state (genesis) account: a singleton component homed by the
    /// canonical epoch-0 rule. Returns the home shard.
    pub fn claim_base(&mut self, address: Address, is_contract: bool) -> usize {
        let home = canonical_shard_epoch(address, self.salt, self.shards);
        self.claim_singleton(address, home);
        if is_contract {
            self.contracts.insert(address);
        }
        home
    }

    /// Claims an account created *by execution* (an internal transaction paid an
    /// unseen address) on the shard that created it. Unlike routed claims, the
    /// home is dictated by where the account physically materialized.
    pub fn claim_created(&mut self, address: Address, shard: usize) {
        if !self.owner.contains_key(&address) {
            self.claim_singleton(address, shard);
        }
    }

    fn claim_singleton(&mut self, address: Address, home: usize) {
        self.components.intern(address).home.get_or_insert(home);
        self.owner.entry(address).or_insert(home);
    }

    /// Records one admitted pooled transaction of `sender`.
    pub fn note_admitted(&mut self, sender: Address) {
        *self.live.entry(sender).or_insert(0) += 1;
    }

    /// Records `count` pooled transactions of `sender` leaving the pool (packed,
    /// evicted, resynced).
    pub fn note_removed(&mut self, sender: Address, count: usize) {
        if count == 0 {
            return;
        }
        let Some(live) = self.live.get_mut(&sender) else {
            return;
        };
        debug_assert!(*live >= count, "removing more than the sender's live txs");
        *live -= count;
        if *live == 0 {
            self.live.remove(&sender);
        }
    }

    /// Whether `sender` currently has pooled transactions.
    #[cfg(test)]
    pub fn has_chain(&self, sender: Address) -> bool {
        self.live.get(&sender).is_some_and(|&live| live > 0)
    }

    /// Routes one arriving transaction (see the module docs for the fusing
    /// rules). The caller must execute the returned moves *before* offering the
    /// transaction to the decided shard's pool.
    pub fn route(&mut self, tx: &AccountTransaction) -> RouteDecision {
        let sender = tx.sender();
        let receiver = effective_receiver(tx);
        let receiver_claimed = self.owner.contains_key(&receiver);
        let fusing = if tx.is_contract_creation() || tx.is_contract_call() {
            true
        } else {
            !receiver_claimed
                || self.contracts.contains(&receiver)
                || self.components.same_component(&sender, &receiver)
        };

        if !fusing {
            // Cross-shard candidate edge: the sender routes to its own component
            // home (claiming a fresh sender as a singleton); the receiver is left
            // untouched. Whether the execution actually needs a credit receipt is
            // decided at settle time against the then-current owner map.
            let home = match self.owner.get(&sender) {
                Some(&home) => home,
                None => {
                    let home = canonical_shard_epoch(sender, self.salt, self.shards);
                    self.claim_singleton(sender, home);
                    home
                }
            };
            return RouteDecision {
                shard: home,
                moves: Vec::new(),
            };
        }

        // Fusing edge: union the endpoints and re-home the fused component at
        // the canonical shard of its (possibly lowered) anchor, whatever its
        // parts did before (the anchor minimum is order-independent, so
        // concurrent histories converge on one placement).
        let sender_home = self.components.intern(sender).home;
        let receiver_home = self.components.intern(receiver).home;
        let (component, _) = self.components.union(sender, receiver);
        let target = canonical_shard_epoch(component.anchor, self.salt, self.shards);
        component.home = Some(target);

        // Every claimed member's owner equals its component's home (the handoff
        // invariant), so members can only be off `target` when one of the two
        // prior components was homed elsewhere. The common case — a fresh
        // receiver fusing into a component whose home is unchanged — therefore
        // skips the member scan entirely, keeping the serial routing path O(Δ)
        // instead of O(component).
        let mut moves = Vec::new();
        let may_move = sender_home.is_some_and(|home| home != target)
            || receiver_home.is_some_and(|home| home != target);
        if may_move {
            moves = rehome(&component.members, target, &mut self.owner);
            self.rehomed_components += 1;
        }
        // Only the edge's own endpoints can be newly unclaimed.
        self.owner.entry(sender).or_insert(target);
        self.owner.entry(receiver).or_insert(target);

        RouteDecision {
            shard: target,
            moves,
        }
    }

    /// Registers a freshly deployed contract address (called by the driver when a
    /// `ContractCreate` is routed).
    pub fn register_contract(&mut self, address: Address) {
        self.contracts.insert(address);
    }

    /// Rotates to epoch `salt`: every component with live pooled activity is
    /// re-homed at its canonical shard under the new salt, moving whole
    /// (accounts and chains together — "component-affine re-homing"). Dormant
    /// components keep their current homes until traffic touches them again.
    /// Returns the moves, deterministically ordered.
    pub fn rotate(&mut self, salt: u64) -> Vec<MemberMove> {
        self.salt = salt;
        // Deterministic component order: by anchor address (an anchor is a
        // member of its component, so it also names the component).
        let mut live_anchors: BTreeSet<Address> = BTreeSet::new();
        for sender in self.live.keys() {
            let component = self.components.get_mut(sender);
            live_anchors.insert(component.expect("pooled senders are routed").anchor);
        }
        let mut moves = Vec::new();
        for anchor in live_anchors {
            let target = canonical_shard_epoch(anchor, salt, self.shards);
            let component = self
                .components
                .get_mut(&anchor)
                .expect("anchors are members");
            if component.home.unwrap_or(target) == target {
                continue;
            }
            component.home = Some(target);
            self.rehomed_components += 1;
            moves.extend(rehome(&component.members, target, &mut self.owner));
        }
        moves
    }
}

/// Orders every claimed member that is not on `target` to move there, and records
/// the new owners.
fn rehome(
    members: &BTreeSet<Address>,
    target: usize,
    owner: &mut HashMap<Address, usize>,
) -> Vec<MemberMove> {
    let mut moves = Vec::new();
    for &address in members {
        if let Some(from) = owner.get_mut(&address) {
            if *from != target {
                moves.push(MemberMove {
                    address,
                    from: std::mem::replace(from, target),
                    to: target,
                });
            }
        }
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockconc_graph::canonical_shard;
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
    fn fresh_transfer_components_place_canonically() {
        let mut router = ClusterRouter::new(8);
        for sender in 1..=32u64 {
            let tx = transfer(sender, 10_000 + sender, 0);
            let decision = router.route(&tx);
            let anchor = Address::from_low(sender).min(Address::from_low(10_000 + sender));
            assert_eq!(decision.shard, canonical_shard(anchor, 8));
            assert!(decision.moves.is_empty());
            assert_eq!(router.owner_of(tx.sender()), Some(decision.shard));
            assert_eq!(
                router.owner_of(tx.receiver()),
                Some(decision.shard),
                "fresh receivers are claimed on the sender's shard"
            );
        }
    }

    #[test]
    fn foreign_transfers_do_not_fuse_or_migrate() {
        let mut router = ClusterRouter::new(8);
        // Claim the exchange on its depositor's shard.
        let first = router.route(&transfer(1, 500, 0));
        router.note_admitted(Address::from_low(1));
        // Find a second sender homed elsewhere; its deposit must stay there.
        let mut sender = 2u64;
        let second = loop {
            let decision = {
                let mut probe = ClusterRouter::new(8);
                probe.route(&transfer(sender, 20_000 + sender, 0))
            };
            if decision.shard != first.shard {
                break sender;
            }
            sender += 1;
        };
        let decision = router.route(&transfer(second, 500, 0));
        assert_ne!(decision.shard, first.shard, "deposit processed at home");
        assert!(decision.moves.is_empty(), "no fusion for a foreign deposit");
        assert_eq!(router.owner_of(Address::from_low(500)), Some(first.shard));
    }

    #[test]
    fn contract_calls_colocate_with_the_contract() {
        let mut router = ClusterRouter::new(8);
        let contract = Address::from_low(900);
        let contract_home = router.claim_base(contract, true);
        // A caller homed elsewhere fuses into the contract's component; its
        // account and chain must move to wherever the fused anchor places them.
        let mut caller = 1u64;
        loop {
            let probe_home = canonical_shard(Address::from_low(caller), 8);
            if probe_home != contract_home {
                break;
            }
            caller += 1;
        }
        let seed = router.route(&transfer(caller, 30_000 + caller, 0));
        router.note_admitted(Address::from_low(caller));
        let call = AccountTransaction::contract_call(
            Address::from_low(caller),
            contract,
            Amount::from_sats(1),
            vec![],
            1,
        );
        let decision = router.route(&call);
        // Everything ends on one shard: caller, its old receiver, the contract.
        assert_eq!(
            router.owner_of(Address::from_low(caller)),
            Some(decision.shard)
        );
        assert_eq!(router.owner_of(contract), Some(decision.shard));
        assert_eq!(
            router.owner_of(Address::from_low(30_000 + caller)),
            Some(decision.shard)
        );
        // At least one side had to move (they started on different shards).
        assert!(
            !decision.moves.is_empty() || seed.shard == decision.shard,
            "fusing distinct homes must emit moves"
        );
        for mv in &decision.moves {
            assert_eq!(mv.to, decision.shard);
        }
    }

    #[test]
    fn transfers_to_foreign_contracts_fuse_too() {
        let mut router = ClusterRouter::new(8);
        let contract = Address::from_low(901);
        router.claim_base(contract, true);
        let decision = router.route(&transfer(77, 901, 0));
        // Receiver is a contract: the edge fuses (the transfer runs its code).
        assert_eq!(router.owner_of(Address::from_low(77)), Some(decision.shard));
        assert_eq!(router.owner_of(contract), Some(decision.shard));
    }

    #[test]
    fn rotation_rehomes_live_components_whole() {
        let mut router = ClusterRouter::new(8);
        for sender in 1..=24u64 {
            router.route(&transfer(sender, 40_000 + sender, 0));
            router.note_admitted(Address::from_low(sender));
        }
        let moves = router.rotate(1);
        assert!(!moves.is_empty(), "a rotation must re-home something");
        for mv in &moves {
            // Owner map already reflects the move.
            assert_eq!(router.owner_of(mv.address), Some(mv.to));
        }
        // Sender and receiver of one component always end co-owned.
        for sender in 1..=24u64 {
            assert_eq!(
                router.owner_of(Address::from_low(sender)),
                router.owner_of(Address::from_low(40_000 + sender)),
                "component split by rotation"
            );
        }
    }

    #[test]
    fn live_accounting_tracks_admissions_and_removals() {
        let mut router = ClusterRouter::new(4);
        let sender = Address::from_low(5);
        router.route(&transfer(5, 50_000, 0));
        router.note_admitted(sender);
        router.note_admitted(sender);
        assert!(router.has_chain(sender));
        router.note_removed(sender, 2);
        assert!(!router.has_chain(sender));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "removing more than the sender's live txs")]
    fn removing_more_than_was_admitted_panics() {
        let mut router = ClusterRouter::new(4);
        let sender = Address::from_low(5);
        router.route(&transfer(5, 50_000, 0));
        router.note_admitted(sender);
        router.note_removed(sender, 2);
    }
}
