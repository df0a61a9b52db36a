//! Hot-spot traffic specifications.

use serde::{Deserialize, Serialize};

/// The kind of hot spot attracting or emitting a disproportionate share of traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HotspotKind {
    /// A deposit address / hot wallet that many users *send to* (e.g. the Poloniex
    /// address of the paper's block 1000124, transactions 1–9).
    ExchangeDeposit,
    /// A mining pool or exchange cold wallet that *sends* many payouts per block
    /// (e.g. the DwarfPool address of block 1000007).
    PoolPayout,
    /// A popular smart contract (token, game, …) that many users call; calls also
    /// produce internal transactions to the contracts it depends on.
    PopularContract,
    /// A shared contract whose callers each write their *own* storage slot
    /// (airdrop claims, per-user counters, registrations). Every transaction
    /// touches the same account but a disjoint `StateKey` — conflict-free under
    /// per-key tracking, fully serialized under whole-account tracking.
    SlotDisjointContract,
    /// A shared fee-accumulator contract whose callers all *add* to the same
    /// storage slot (protocol fee sinks, tip jars, burn counters). Every
    /// transaction touches the same `StateKey`, but only with a commutative
    /// increment — fully serialized under both whole-account *and* per-key
    /// tracking, conflict-free only under delta-cell tracking.
    FeeSink,
}

/// One hot spot and the share of a block's transactions it attracts.
///
/// The sum of shares across a chain's hot spots largely determines the
/// single-transaction conflict rate, while the largest individual share determines the
/// group conflict rate — which is exactly the distinction between the paper's two
/// metrics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HotspotSpec {
    /// What kind of traffic pattern this hot spot produces.
    pub kind: HotspotKind,
    /// The share of the block's transactions involving this hot spot, in `[0, 1]`.
    pub share: f64,
    /// For `HotspotKind::PopularContract`, how many nested internal calls each
    /// transaction triggers (the proxy → contract → sub-contract chains of the paper's
    /// Fig. 1b); ignored otherwise.
    pub call_depth: usize,
}

impl HotspotSpec {
    /// An exchange deposit hot spot attracting `share` of transactions.
    pub fn exchange(share: f64) -> Self {
        HotspotSpec {
            kind: HotspotKind::ExchangeDeposit,
            share,
            call_depth: 0,
        }
    }

    /// A pool-payout hot spot emitting `share` of transactions.
    pub fn pool(share: f64) -> Self {
        HotspotSpec {
            kind: HotspotKind::PoolPayout,
            share,
            call_depth: 0,
        }
    }

    /// A popular contract attracting `share` of transactions with the given internal
    /// call depth.
    pub fn contract(share: f64, call_depth: usize) -> Self {
        HotspotSpec {
            kind: HotspotKind::PopularContract,
            share,
            call_depth,
        }
    }

    /// A shared contract attracting `share` of transactions whose callers write
    /// disjoint storage slots (no internal calls — the conflict structure is the
    /// point, not the call chain).
    pub fn disjoint_slots(share: f64) -> Self {
        HotspotSpec {
            kind: HotspotKind::SlotDisjointContract,
            share,
            call_depth: 0,
        }
    }

    /// A shared fee-accumulator contract attracting `share` of transactions,
    /// all adding to the same storage slot — the pure-commutative hot spot
    /// that only delta-cell conflict tracking can parallelize.
    pub fn fee_sink(share: f64) -> Self {
        HotspotSpec {
            kind: HotspotKind::FeeSink,
            share,
            call_depth: 0,
        }
    }

    /// Validates that the shares of a set of hot spots are sane (each in `[0, 1]` and
    /// summing to at most 1).
    ///
    /// # Panics
    ///
    /// Panics if any share is out of range or the total exceeds 1.
    pub fn validate(specs: &[HotspotSpec]) {
        let mut total = 0.0;
        for spec in specs {
            assert!(
                (0.0..=1.0).contains(&spec.share),
                "hotspot share {} out of range",
                spec.share
            );
            total += spec.share;
        }
        assert!(total <= 1.0 + 1e-9, "hotspot shares sum to {total} > 1");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        assert_eq!(
            HotspotSpec::exchange(0.2).kind,
            HotspotKind::ExchangeDeposit
        );
        assert_eq!(HotspotSpec::pool(0.1).kind, HotspotKind::PoolPayout);
        let c = HotspotSpec::contract(0.15, 2);
        assert_eq!(c.kind, HotspotKind::PopularContract);
        assert_eq!(c.call_depth, 2);
        let d = HotspotSpec::disjoint_slots(0.95);
        assert_eq!(d.kind, HotspotKind::SlotDisjointContract);
        assert_eq!(d.call_depth, 0);
        let f = HotspotSpec::fee_sink(0.4);
        assert_eq!(f.kind, HotspotKind::FeeSink);
        assert_eq!(f.call_depth, 0);
    }

    #[test]
    fn validation_accepts_reasonable_sets() {
        HotspotSpec::validate(&[
            HotspotSpec::exchange(0.2),
            HotspotSpec::pool(0.1),
            HotspotSpec::contract(0.15, 1),
        ]);
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn validation_rejects_oversubscription() {
        HotspotSpec::validate(&[HotspotSpec::exchange(0.7), HotspotSpec::pool(0.5)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn validation_rejects_negative_share() {
        HotspotSpec::validate(&[HotspotSpec::exchange(-0.1)]);
    }
}
