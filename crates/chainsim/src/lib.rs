//! Calibrated workload and history simulators for the seven public blockchains of the
//! paper: Bitcoin, Bitcoin Cash, Litecoin, Dogecoin (UTXO model) and Ethereum,
//! Ethereum Classic, Zilliqa (account model).
//!
//! # Why a simulator?
//!
//! The paper analyzes the chains' full histories through Google BigQuery (plus a
//! custom Zilliqa crawler). Those datasets are not available offline, so this crate
//! substitutes **calibrated synthetic workloads**: per-chain generators whose per-block
//! transaction counts, hot-spot traffic shares (exchanges, mining pools, popular
//! contracts), intra-block spend-chain behaviour and gas profiles are tuned so that
//! the *dependency structure* of the generated blocks matches the magnitudes the paper
//! reports (`tests/end_to_end_pipeline.rs` holds the target bands). The downstream analysis —
//! TDG construction, conflict metrics, bucketed weighted averages, speed-up models —
//! is exactly the computation the paper performs, run on these blocks.
//!
//! The calibration anchors evolve over (simulated) time, reproducing the paper's
//! longitudinal plots: Bitcoin grows from a handful of transactions per block in 2009
//! to thousands in 2019; Ethereum's conflict rates fall as its user base broadens; the
//! 2017 DoS-attack spike in internal transactions appears; Bitcoin Cash and Ethereum
//! Classic stay an order of magnitude below their parent chains.
//!
//! # Examples
//!
//! ```
//! use blockconc_chainsim::{ChainId, HistoryConfig};
//!
//! // A small Ethereum history: 10 buckets of 2 sample blocks each.
//! let config = HistoryConfig::new(10, 2, 42);
//! let history = config.generate(ChainId::Ethereum);
//! assert_eq!(history.blocks().len(), 20);
//! let avg_conflict = history.blocks().iter()
//!     .map(|m| m.single_tx_conflict_rate())
//!     .sum::<f64>() / 20.0;
//! assert!(avg_conflict > 0.3, "Ethereum workloads are heavily conflicted");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod account_workload;
mod arrival;
pub mod chains;
mod era;
mod history;
mod hotspot;
mod population;
mod profile;
mod utxo_workload;

pub use account_workload::{AccountWorkloadGen, AccountWorkloadParams};
pub use arrival::{ArrivalStream, FeeEscalationSpec, TxArrival};
pub use era::PiecewiseSeries;
pub use history::{ChainHistory, HistoryConfig, SimulatedBlock};
pub use hotspot::HotspotSpec;
pub use population::UserPopulation;
pub use profile::{ChainId, ChainProfile, Consensus, DataModel};
pub use utxo_workload::{UtxoWorkloadGen, UtxoWorkloadParams};
