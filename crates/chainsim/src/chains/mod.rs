//! Per-chain calibration: workload parameters as functions of (simulated) time.
//!
//! Each sub-module encodes the longitudinal calibration anchors for one chain —
//! transactions per block, hot-spot shares, intra-block spend behaviour — chosen so
//! that the generated histories reproduce the qualitative shapes of the paper's
//! Figures 4–9 (`tests/end_to_end_pipeline.rs` holds the target bands).

pub mod bitcoin;
pub mod bitcoin_cash;
pub mod dogecoin;
pub mod ethereum;
pub mod ethereum_classic;
pub mod litecoin;
pub mod zilliqa;

use crate::{AccountWorkloadParams, ChainId, DataModel, UtxoWorkloadParams};

/// Workload parameters for either data model.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadParams {
    /// Parameters for a UTXO-model chain.
    Utxo(UtxoWorkloadParams),
    /// Parameters for an account-model chain.
    Account(AccountWorkloadParams),
}

/// Returns the calibrated workload parameters of `chain` at fractional calendar year
/// `year`.
///
/// # Examples
///
/// ```
/// use blockconc_chainsim::chains::{workload_params, WorkloadParams};
/// use blockconc_chainsim::ChainId;
///
/// match workload_params(ChainId::Bitcoin, 2019.0) {
///     WorkloadParams::Utxo(p) => assert!(p.txs_per_block > 1_000.0),
///     WorkloadParams::Account(_) => unreachable!("Bitcoin is UTXO-based"),
/// }
/// ```
pub fn workload_params(chain: ChainId, year: f64) -> WorkloadParams {
    match chain {
        ChainId::Bitcoin => WorkloadParams::Utxo(bitcoin::params_at(year)),
        ChainId::BitcoinCash => WorkloadParams::Utxo(bitcoin_cash::params_at(year)),
        ChainId::Litecoin => WorkloadParams::Utxo(litecoin::params_at(year)),
        ChainId::Dogecoin => WorkloadParams::Utxo(dogecoin::params_at(year)),
        ChainId::Ethereum => WorkloadParams::Account(ethereum::params_at(year)),
        ChainId::EthereumClassic => WorkloadParams::Account(ethereum_classic::params_at(year)),
        ChainId::Zilliqa => WorkloadParams::Account(zilliqa::params_at(year)),
    }
}

/// Checks that a chain's parameters use the data model its profile declares (defence
/// against calibration typos; exercised by tests).
pub fn params_match_profile(chain: ChainId, params: &WorkloadParams) -> bool {
    matches!(
        (chain.profile().data_model, params),
        (DataModel::Utxo, WorkloadParams::Utxo(_))
            | (DataModel::Account, WorkloadParams::Account(_))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_chain_has_valid_params_across_its_history() {
        for chain in ChainId::ALL {
            let profile = chain.profile();
            let mut year = profile.launch_year;
            while year <= profile.end_year {
                let params = workload_params(chain, year);
                assert!(params_match_profile(chain, &params), "{chain} at {year}");
                match &params {
                    WorkloadParams::Utxo(p) => p.validate(),
                    WorkloadParams::Account(p) => p.validate(),
                }
                year += 0.25;
            }
        }
    }

    #[test]
    fn bitcoin_grows_over_time() {
        let early = match workload_params(ChainId::Bitcoin, 2010.0) {
            WorkloadParams::Utxo(p) => p.txs_per_block,
            _ => unreachable!(),
        };
        let late = match workload_params(ChainId::Bitcoin, 2019.0) {
            WorkloadParams::Utxo(p) => p.txs_per_block,
            _ => unreachable!(),
        };
        assert!(late > early * 50.0);
    }

    #[test]
    fn forks_have_fewer_transactions_than_parents() {
        let btc = match workload_params(ChainId::Bitcoin, 2019.0) {
            WorkloadParams::Utxo(p) => p.txs_per_block,
            _ => unreachable!(),
        };
        let bch = match workload_params(ChainId::BitcoinCash, 2019.0) {
            WorkloadParams::Utxo(p) => p.txs_per_block,
            _ => unreachable!(),
        };
        let eth = match workload_params(ChainId::Ethereum, 2019.0) {
            WorkloadParams::Account(p) => p.txs_per_block,
            _ => unreachable!(),
        };
        let etc = match workload_params(ChainId::EthereumClassic, 2019.0) {
            WorkloadParams::Account(p) => p.txs_per_block,
            _ => unreachable!(),
        };
        assert!(bch < btc / 4.0, "BCH {bch} vs BTC {btc}");
        assert!(etc < eth / 4.0, "ETC {etc} vs ETH {eth}");
    }

    #[test]
    fn account_chain_hotspot_concentration_ordering() {
        // Ethereum Classic's largest hot-spot share must exceed Ethereum's: that is
        // what drives its much higher group conflict rate in Fig. 8.
        let max_share = |chain: ChainId| match workload_params(chain, 2019.0) {
            WorkloadParams::Account(p) => p.hotspots.iter().map(|h| h.share).fold(0.0f64, f64::max),
            _ => unreachable!(),
        };
        assert!(max_share(ChainId::EthereumClassic) > max_share(ChainId::Ethereum) + 0.2);
        assert!(max_share(ChainId::Zilliqa) > max_share(ChainId::Ethereum) + 0.2);
    }
}
