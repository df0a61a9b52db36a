//! Shared helpers for the figure/table regeneration binaries and the criterion
//! benchmarks.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper on the
//! simulated dataset; the helpers here keep the dataset configuration and output
//! conventions consistent across them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use blockconc::prelude::*;

/// Number of time buckets used by the figure binaries (the paper uses 20–200; 20 keeps
/// regeneration runs under a minute while preserving the longitudinal shape).
pub const FIGURE_BUCKETS: usize = 20;

/// Sample blocks generated per bucket.
pub const BLOCKS_PER_BUCKET: usize = 3;

/// The base seed shared by all figure binaries so their outputs refer to the same
/// simulated dataset.
pub const DATASET_SEED: u64 = 2020;

/// The history configuration shared by the figure binaries.
pub fn figure_config() -> HistoryConfig {
    HistoryConfig::new(FIGURE_BUCKETS, BLOCKS_PER_BUCKET, DATASET_SEED)
}

/// Generates the history of one chain under the shared configuration, with a progress
/// line on stderr.
pub fn history_for(chain: ChainId) -> ChainHistory {
    eprintln!("[blockconc-bench] simulating {chain} history...");
    figure_config().generate(chain)
}

/// Prints a figure panel as an aligned table followed by a CSV block, so results can
/// be read by humans and piped into plotting scripts alike.
pub fn print_panel(title: &str, series: &[Series]) {
    println!("{}", report::series_table(title, series));
    println!("CSV:\n{}", export::to_csv(series));
}

/// Convenience: the standard longitudinal series of one metric for one chain, labelled
/// with `label`.
pub fn chain_series(
    history: &ChainHistory,
    metric: MetricKind,
    weight: BlockWeight,
    label: &str,
) -> Series {
    let series = bucketed_series(history.blocks(), metric, weight, FIGURE_BUCKETS);
    Series::new(label, series.points().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_config_matches_constants() {
        let config = figure_config();
        assert_eq!(config.buckets(), FIGURE_BUCKETS);
        assert_eq!(config.total_blocks(), FIGURE_BUCKETS * BLOCKS_PER_BUCKET);
    }

    #[test]
    fn chain_series_uses_requested_label() {
        let history = HistoryConfig::new(3, 1, 1).generate(ChainId::Dogecoin);
        let series = chain_series(
            &history,
            MetricKind::TxCount,
            BlockWeight::Unit,
            "Dogecoin txs",
        );
        assert_eq!(series.label(), "Dogecoin txs");
        assert!(!series.is_empty());
    }
}
