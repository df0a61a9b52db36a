//! Zilliqa calibration.
//!
//! Zilliqa's mainnet launched in early 2019; by the paper's snapshot it had ~360K
//! blocks and ~2.2M transactions, i.e. roughly 6 transactions per final block. Its
//! conflict rates are high (comparable to Ethereum Classic's) despite sharding, which
//! the paper attributes purely to workload characteristics: a small user base whose
//! traffic is dominated by exchange transfers.

use crate::{AccountWorkloadParams, HotspotSpec, PiecewiseSeries};

/// Zilliqa workload parameters at fractional calendar year `year`.
pub fn params_at(year: f64) -> AccountWorkloadParams {
    let txs = PiecewiseSeries::new(vec![(2019.08, 4.0), (2019.4, 7.0), (2019.75, 6.0)]);
    AccountWorkloadParams {
        txs_per_block: txs.value_at(year),
        user_population: 400,
        fresh_receiver_share: 0.2,
        zipf_exponent: 1.1,
        hotspots: vec![
            HotspotSpec::exchange(0.55),
            HotspotSpec::pool(0.15),
            HotspotSpec::contract(0.05, 1),
        ],
        contract_create_share: 0.01,
    }
}

/// Number of shards the simulated Zilliqa network runs (the mainnet launched with a
/// handful of transaction shards).
pub const NUM_SHARDS: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_blocks_heavy_exchange_concentration() {
        let p = params_at(2019.5);
        assert!(p.txs_per_block < 10.0);
        let max = p.hotspots.iter().map(|h| h.share).fold(0.0f64, f64::max);
        assert!(max >= 0.5);
    }
}
