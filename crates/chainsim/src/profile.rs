//! Static per-chain descriptors (the paper's Table I).

use std::fmt;

/// The data model of a blockchain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataModel {
    /// Unspent-transaction-output model (Bitcoin family).
    Utxo,
    /// Account/balance model (Ethereum family).
    Account,
}

impl fmt::Display for DataModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataModel::Utxo => write!(f, "UTXO"),
            DataModel::Account => write!(f, "Account"),
        }
    }
}

/// The consensus family of a blockchain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Consensus {
    /// Plain proof of work.
    ProofOfWork,
    /// Proof of work combined with network sharding and per-committee PBFT (Zilliqa).
    PowWithSharding,
}

impl fmt::Display for Consensus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Consensus::ProofOfWork => write!(f, "PoW"),
            Consensus::PowWithSharding => write!(f, "PoW+Sharding"),
        }
    }
}

/// The seven public blockchains analyzed by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ChainId {
    /// Bitcoin (2009–).
    Bitcoin,
    /// Bitcoin Cash, the 2017 big-block fork of Bitcoin.
    BitcoinCash,
    /// Litecoin (2011–).
    Litecoin,
    /// Dogecoin (2013–).
    Dogecoin,
    /// Ethereum (2015–).
    Ethereum,
    /// Ethereum Classic, the 2016 fork of Ethereum.
    EthereumClassic,
    /// Zilliqa, the sharded account-model chain (2019–).
    Zilliqa,
}

impl ChainId {
    /// All seven chains, in the paper's Table I order.
    pub const ALL: [ChainId; 7] = [
        ChainId::Bitcoin,
        ChainId::BitcoinCash,
        ChainId::Litecoin,
        ChainId::Dogecoin,
        ChainId::Ethereum,
        ChainId::EthereumClassic,
        ChainId::Zilliqa,
    ];

    /// The chain's static profile.
    pub fn profile(&self) -> ChainProfile {
        match self {
            ChainId::Bitcoin => ChainProfile {
                chain: *self,
                name: "Bitcoin",
                data_model: DataModel::Utxo,
                consensus: Consensus::ProofOfWork,
                smart_contracts: false,
                data_source: "BigQuery",
                launch_year: 2009.0,
                end_year: 2019.75,
                block_interval_secs: 600,
            },
            ChainId::BitcoinCash => ChainProfile {
                chain: *self,
                name: "Bitcoin Cash",
                data_model: DataModel::Utxo,
                consensus: Consensus::ProofOfWork,
                smart_contracts: false,
                data_source: "BigQuery",
                launch_year: 2017.55,
                end_year: 2019.75,
                block_interval_secs: 600,
            },
            ChainId::Litecoin => ChainProfile {
                chain: *self,
                name: "Litecoin",
                data_model: DataModel::Utxo,
                consensus: Consensus::ProofOfWork,
                smart_contracts: false,
                data_source: "BigQuery",
                launch_year: 2011.8,
                end_year: 2019.75,
                block_interval_secs: 150,
            },
            ChainId::Dogecoin => ChainProfile {
                chain: *self,
                name: "Dogecoin",
                data_model: DataModel::Utxo,
                consensus: Consensus::ProofOfWork,
                smart_contracts: false,
                data_source: "BigQuery",
                launch_year: 2013.95,
                end_year: 2019.75,
                block_interval_secs: 60,
            },
            ChainId::Ethereum => ChainProfile {
                chain: *self,
                name: "Ethereum",
                data_model: DataModel::Account,
                consensus: Consensus::ProofOfWork,
                smart_contracts: true,
                data_source: "BigQuery",
                launch_year: 2015.55,
                end_year: 2019.75,
                block_interval_secs: 14,
            },
            ChainId::EthereumClassic => ChainProfile {
                chain: *self,
                name: "Ethereum Classic",
                data_model: DataModel::Account,
                consensus: Consensus::ProofOfWork,
                smart_contracts: true,
                data_source: "BigQuery",
                launch_year: 2016.55,
                end_year: 2019.75,
                block_interval_secs: 14,
            },
            ChainId::Zilliqa => ChainProfile {
                chain: *self,
                name: "Zilliqa",
                data_model: DataModel::Account,
                consensus: Consensus::PowWithSharding,
                smart_contracts: true,
                data_source: "custom client",
                launch_year: 2019.08,
                end_year: 2019.75,
                block_interval_secs: 45,
            },
        }
    }

    /// The chain's human-readable name.
    pub fn name(&self) -> &'static str {
        self.profile().name
    }
}

impl fmt::Display for ChainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Static description of a chain: the columns of the paper's Table I plus the
/// simulation constants (launch/end year, block interval).
#[derive(Debug, Clone, PartialEq)]
pub struct ChainProfile {
    /// Which chain this profile describes.
    pub chain: ChainId,
    /// Human-readable name.
    pub name: &'static str,
    /// Data model (Table I column 2).
    pub data_model: DataModel,
    /// Consensus family (Table I column 3).
    pub consensus: Consensus,
    /// Whether the chain supports (Turing-complete) smart contracts (Table I column 4).
    pub smart_contracts: bool,
    /// Where the paper obtained the data (Table I column 5).
    pub data_source: &'static str,
    /// Fractional calendar year of the chain's launch (or fork).
    pub launch_year: f64,
    /// Fractional calendar year where the paper's dataset ends.
    pub end_year: f64,
    /// Target block interval in seconds.
    pub block_interval_secs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_shape() {
        assert_eq!(ChainId::ALL.len(), 7);
        let utxo_count = ChainId::ALL
            .iter()
            .filter(|c| c.profile().data_model == DataModel::Utxo)
            .count();
        assert_eq!(utxo_count, 4);
        // Only Zilliqa shards; only account chains support smart contracts.
        for chain in ChainId::ALL {
            let p = chain.profile();
            assert_eq!(
                p.consensus == Consensus::PowWithSharding,
                chain == ChainId::Zilliqa
            );
            assert_eq!(p.smart_contracts, p.data_model == DataModel::Account);
            assert!(p.launch_year < p.end_year);
            assert!(p.block_interval_secs > 0);
        }
    }

    #[test]
    fn forks_launch_after_parents() {
        assert!(
            ChainId::BitcoinCash.profile().launch_year > ChainId::Bitcoin.profile().launch_year
        );
        assert!(
            ChainId::EthereumClassic.profile().launch_year
                > ChainId::Ethereum.profile().launch_year
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(ChainId::Bitcoin.to_string(), "Bitcoin");
        assert_eq!(ChainId::EthereumClassic.to_string(), "Ethereum Classic");
        assert_eq!(DataModel::Utxo.to_string(), "UTXO");
        assert_eq!(Consensus::PowWithSharding.to_string(), "PoW+Sharding");
    }
}
