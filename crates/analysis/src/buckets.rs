//! Bucketed, weighted aggregation of per-block metrics.

use crate::{Series, SeriesPoint};
use blockconc_graph::{weighted_average, BlockMetrics, BlockWeight};

/// The per-block quantity being aggregated into a time series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Number of regular transactions per block (Fig. 4a / 5a / 8a / 9a).
    TxCount,
    /// Number of transactions including internal ones (the "all TXs" line of Fig. 4a).
    TotalTxCount,
    /// Number of input TXOs per block (the second line of Fig. 5a).
    InputCount,
    /// The single-transaction conflict rate (Figs. 4b, 5b, 7a/b, 8b, 9b).
    SingleTxConflictRate,
    /// The group conflict rate (Figs. 4c, 5c, 7c/d, 8c).
    GroupConflictRate,
    /// The absolute LCC size in transactions (Fig. 9c).
    AbsoluteLccSize,
    /// The share of the block's gas consumed by conflicted transactions (the
    /// "gas-weighted" conflict line of Fig. 4b: expensive contract creations are
    /// rarely conflicted, so this sits below the transaction-count rate).
    GasConflictShare,
}

impl MetricKind {
    /// Extracts the metric value from one block's metrics.
    pub fn value_of(&self, metrics: &BlockMetrics) -> f64 {
        match self {
            MetricKind::TxCount => metrics.tx_count() as f64,
            MetricKind::TotalTxCount => metrics.total_tx_count() as f64,
            MetricKind::InputCount => metrics.input_count() as f64,
            MetricKind::SingleTxConflictRate => metrics.single_tx_conflict_rate(),
            MetricKind::GroupConflictRate => metrics.group_conflict_rate(),
            MetricKind::AbsoluteLccSize => metrics.lcc_size() as f64,
            MetricKind::GasConflictShare => metrics.gas_conflict_share(),
        }
    }

    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            MetricKind::TxCount => "txs/block",
            MetricKind::TotalTxCount => "all txs/block",
            MetricKind::InputCount => "input TXOs/block",
            MetricKind::SingleTxConflictRate => "single-tx conflict rate",
            MetricKind::GroupConflictRate => "group conflict rate",
            MetricKind::AbsoluteLccSize => "absolute LCC size",
            MetricKind::GasConflictShare => "gas-share conflict rate",
        }
    }
}

/// Aggregates per-block metrics into `buckets` equal-width time buckets, computing the
/// weighted average of `metric` within each bucket — exactly the aggregation behind
/// the paper's longitudinal figures.
///
/// Blocks are assigned to buckets by timestamp; empty buckets are skipped. Counting
/// metrics (transactions per block, input TXOs) are conventionally unweighted in the
/// paper, so callers typically pass [`BlockWeight::Unit`] for those and
/// [`BlockWeight::TxCount`] or [`BlockWeight::Gas`] for the conflict rates.
pub fn bucketed_series(
    blocks: &[BlockMetrics],
    metric: MetricKind,
    weight: BlockWeight,
    buckets: usize,
) -> Series {
    assert!(buckets > 0, "at least one bucket required");
    let label = metric.label().to_string();
    if blocks.is_empty() {
        return Series::new(label, Vec::new());
    }
    let first = blocks
        .iter()
        .map(|b| b.timestamp().as_year_fraction())
        .fold(f64::INFINITY, f64::min);
    let last = blocks
        .iter()
        .map(|b| b.timestamp().as_year_fraction())
        .fold(f64::NEG_INFINITY, f64::max);
    let width = ((last - first) / buckets as f64).max(1e-9);

    let mut grouped: Vec<Vec<&BlockMetrics>> = vec![Vec::new(); buckets];
    for block in blocks {
        let year = block.timestamp().as_year_fraction();
        let idx = (((year - first) / width) as usize).min(buckets - 1);
        grouped[idx].push(block);
    }

    let points = grouped
        .iter()
        .enumerate()
        .filter(|(_, members)| !members.is_empty())
        .map(|(idx, members)| {
            let value = weighted_average(
                members
                    .iter()
                    .map(|m| (metric.value_of(m), weight.weight_of(m))),
            );
            SeriesPoint {
                year: first + (idx as f64 + 0.5) * width,
                value,
            }
        })
        .collect();
    Series::new(label, points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockconc_types::{Gas, Timestamp};

    fn block(year: f64, txs: usize, conflicted: usize, lcc: usize, gas: u64) -> BlockMetrics {
        BlockMetrics::new(
            0,
            Timestamp::from_year_fraction(year).as_unix(),
            txs,
            conflicted,
            lcc,
            txs.saturating_sub(conflicted).max(1),
        )
        .with_gas(Gas::new(gas), Gas::new(gas / 2))
    }

    #[test]
    fn buckets_partition_time_and_average_values() {
        let blocks = vec![
            block(2016.0, 10, 8, 4, 100),
            block(2016.1, 10, 8, 4, 100),
            block(2019.0, 10, 2, 1, 100),
            block(2019.1, 10, 2, 1, 100),
        ];
        let series = bucketed_series(
            &blocks,
            MetricKind::SingleTxConflictRate,
            BlockWeight::TxCount,
            2,
        );
        assert_eq!(series.len(), 2);
        assert!((series.points()[0].value - 0.8).abs() < 1e-9);
        assert!((series.points()[1].value - 0.2).abs() < 1e-9);
        assert!(series.points()[0].year < series.points()[1].year);
    }

    #[test]
    fn weighting_by_tx_count_shifts_the_average() {
        let blocks = vec![block(2018.0, 100, 0, 1, 10), block(2018.01, 10, 10, 10, 10)];
        let unit = bucketed_series(
            &blocks,
            MetricKind::SingleTxConflictRate,
            BlockWeight::Unit,
            1,
        );
        let weighted = bucketed_series(
            &blocks,
            MetricKind::SingleTxConflictRate,
            BlockWeight::TxCount,
            1,
        );
        assert!((unit.points()[0].value - 0.5).abs() < 1e-9);
        assert!(weighted.points()[0].value < 0.15);
    }

    #[test]
    fn gas_weighting_uses_gas_totals() {
        let heavy_clean = block(2018.0, 10, 0, 1, 1_000_000);
        let light_conflicted = block(2018.01, 10, 10, 10, 10_000);
        let series = bucketed_series(
            &[heavy_clean, light_conflicted],
            MetricKind::SingleTxConflictRate,
            BlockWeight::Gas,
            1,
        );
        assert!(series.points()[0].value < 0.05);
    }

    #[test]
    fn counting_metrics_extract_expected_values() {
        let m = block(2018.0, 42, 10, 5, 99);
        assert_eq!(MetricKind::TxCount.value_of(&m), 42.0);
        assert_eq!(MetricKind::AbsoluteLccSize.value_of(&m), 5.0);
        assert_eq!(MetricKind::GroupConflictRate.value_of(&m), 5.0 / 42.0);
    }

    #[test]
    fn empty_input_gives_empty_series() {
        let series = bucketed_series(&[], MetricKind::TxCount, BlockWeight::Unit, 5);
        assert!(series.is_empty());
    }

    #[test]
    fn single_block_lands_in_one_bucket() {
        let series = bucketed_series(
            &[block(2018.0, 10, 2, 2, 10)],
            MetricKind::TxCount,
            BlockWeight::Unit,
            10,
        );
        assert_eq!(series.len(), 1);
        assert_eq!(series.points()[0].value, 10.0);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_panics() {
        let _ = bucketed_series(&[], MetricKind::TxCount, BlockWeight::Unit, 0);
    }
}
