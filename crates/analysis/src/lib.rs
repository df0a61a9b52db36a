//! The analysis pipeline: the Rust equivalent of the paper's BigQuery queries.
//!
//! The paper computes, for every block of every chain, the two conflict metrics, then
//! divides each chain's history into 20–200 buckets and reports weighted averages per
//! bucket (weighted by transaction count or by gas). This crate performs the same
//! aggregation over the simulated histories of `blockconc-chainsim` and packages the
//! results as the data series behind every figure and table of the paper:
//!
//! * [`bucketed_series`] — per-chain time series of any [`MetricKind`] under any
//!   [`BlockWeight`](blockconc_graph::BlockWeight) (Figures 4, 5, 8, 9);
//! * [`Dataset`] and [`compare`] — multi-chain comparisons grouped by data model
//!   (Figure 7) and pairwise chain comparisons (Figures 8 and 9);
//! * [`speedup`] — conflict-rate series combined with the analytical model of
//!   `blockconc-model` (Figure 10);
//! * [`export`] — CSV rendering of any series so results can be plotted or
//!   archived;
//! * [`report`] — plain-text table rendering used by the `table1`/`figN` binaries.
//!
//! # Examples
//!
//! ```
//! use blockconc_analysis::{bucketed_series, MetricKind};
//! use blockconc_chainsim::{ChainId, HistoryConfig};
//! use blockconc_graph::BlockWeight;
//!
//! let history = HistoryConfig::new(8, 2, 1).generate(ChainId::Dogecoin);
//! let series = bucketed_series(history.blocks(), MetricKind::SingleTxConflictRate,
//!                              BlockWeight::TxCount, 4);
//! assert_eq!(series.points().len(), 4);
//! assert!(series.points().iter().all(|p| (0.0..=1.0).contains(&p.value)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buckets;
pub mod compare;
mod dataset;
pub mod export;
pub mod report;
mod series;
pub mod speedup;

pub use buckets::{bucketed_series, MetricKind};
pub use dataset::Dataset;
pub use series::{Series, SeriesPoint};
