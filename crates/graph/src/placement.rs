//! The canonical component-placement rule shared by every sharded layer.
//!
//! Three subsystems place work onto shards: the thread-sharded mempool of
//! `blockconc-shardpool`, the cross-node cluster of `blockconc-cluster`, and the
//! Zilliqa history of `blockconc-chainsim`, which orders each final block by the
//! sender's shard. They must all agree, or a dependency component could be
//! "owned" by two different shards depending on which layer asked — so the rule
//! lives here, once, next to the [`ComponentIndex`](crate::ComponentIndex) whose
//! components it places, and everyone delegates.
//!
//! The rule: a component's home shard is `hash(anchor) mod shards`, where the
//! *anchor* is the smallest address the component has ever contained. The minimum
//! is order-independent, so the placement reached after ingesting any set of
//! transactions is a pure function of that set — not of how concurrent producers
//! or network peers interleaved. (A load-aware rule like "least loaded shard wins"
//! reads racy counters and makes block composition nondeterministic.)
//!
//! [`canonical_shard_epoch`] adds an epoch salt for the cluster's rotation: a new
//! epoch re-deals component homes without perturbing the epoch-0 placement that
//! the thread-sharded pool relies on (`canonical_shard_epoch(a, 0, n)` is
//! bit-identical to [`canonical_shard`]).

use blockconc_types::Address;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The canonical home shard of a component anchored at `anchor` (stable across
/// runs and processes: `DefaultHasher::new()` uses fixed keys).
///
/// # Panics
///
/// Panics if `shards` is zero.
///
/// # Examples
///
/// ```
/// use blockconc_graph::canonical_shard;
/// use blockconc_types::Address;
///
/// let shard = canonical_shard(Address::from_low(42), 8);
/// assert!(shard < 8);
/// // Deterministic: the same anchor always lands on the same shard.
/// assert_eq!(shard, canonical_shard(Address::from_low(42), 8));
/// ```
pub fn canonical_shard(anchor: Address, shards: usize) -> usize {
    assert!(shards > 0, "shard count must be positive");
    let mut hasher = DefaultHasher::new();
    anchor.hash(&mut hasher);
    (hasher.finish() % shards as u64) as usize
}

/// The canonical home shard of a component under placement epoch `epoch_salt`.
///
/// Epoch 0 is the un-salted rule ([`canonical_shard`]), so layers that never
/// rotate (the thread-sharded pool) and layers that do (the cluster) share one
/// placement function. Every rotation re-deals homes deterministically; a
/// component moves as a whole because the anchor — not any member list — is what
/// is hashed ("component-affine re-homing").
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn canonical_shard_epoch(anchor: Address, epoch_salt: u64, shards: usize) -> usize {
    if epoch_salt == 0 {
        return canonical_shard(anchor, shards);
    }
    assert!(shards > 0, "shard count must be positive");
    let mut hasher = DefaultHasher::new();
    anchor.hash(&mut hasher);
    epoch_salt.hash(&mut hasher);
    (hasher.finish() % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_zero_matches_the_unsalted_rule() {
        for low in 0..200u64 {
            let anchor = Address::from_low(low);
            assert_eq!(
                canonical_shard(anchor, 7),
                canonical_shard_epoch(anchor, 0, 7)
            );
        }
    }

    #[test]
    fn rotation_redistributes_but_stays_deterministic() {
        let n = 256u64;
        let moved = (0..n)
            .filter(|&low| {
                let anchor = Address::from_low(low);
                canonical_shard_epoch(anchor, 1, 8) != canonical_shard_epoch(anchor, 2, 8)
            })
            .count();
        assert!(moved > 0, "a rotation must move some components");
        assert!((moved as u64) < n, "a rotation must not move everything");
        for low in 0..n {
            let anchor = Address::from_low(low);
            assert_eq!(
                canonical_shard_epoch(anchor, 3, 8),
                canonical_shard_epoch(anchor, 3, 8)
            );
        }
    }

    #[test]
    fn placement_is_roughly_balanced() {
        let mut counts = vec![0usize; 8];
        for low in 0..4_000u64 {
            counts[canonical_shard(Address::from_low(low), 8)] += 1;
        }
        for &count in &counts {
            assert!((250..=750).contains(&count), "skewed placement: {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn zero_shards_panics() {
        let _ = canonical_shard(Address::ZERO, 0);
    }
}
