//! Block weighting for aggregated metrics.

use crate::BlockMetrics;

/// How blocks are weighted when their per-block conflict rates are averaged over a
/// bucket of blocks (the paper weights "by the block size (or gas cost)" because large
/// blocks dominate total execution time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockWeight {
    /// Every block counts equally.
    Unit,
    /// Blocks are weighted by their number of (regular) transactions.
    TxCount,
    /// Blocks are weighted by the gas they consumed (account-model chains only).
    Gas,
}

impl BlockWeight {
    /// The weight of `metrics` under this weighting scheme.
    pub fn weight_of(&self, metrics: &BlockMetrics) -> f64 {
        match self {
            BlockWeight::Unit => 1.0,
            BlockWeight::TxCount => metrics.tx_count() as f64,
            BlockWeight::Gas => metrics.gas_used().as_f64(),
        }
    }
}

/// Computes the weighted average of `(value, weight)` pairs; returns 0 when the total
/// weight is zero.
///
/// # Examples
///
/// ```
/// use blockconc_graph::weighted_average;
///
/// let avg = weighted_average([(1.0, 1.0), (0.0, 3.0)].into_iter());
/// assert!((avg - 0.25).abs() < 1e-12);
/// assert_eq!(weighted_average(std::iter::empty()), 0.0);
/// ```
pub fn weighted_average(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for (value, weight) in pairs {
        num += value * weight;
        den += weight;
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_of_metrics() {
        let m = BlockMetrics::new(1, 0, 10, 4, 3, 7).with_gas(
            blockconc_types::Gas::new(500),
            blockconc_types::Gas::new(100),
        );
        assert_eq!(BlockWeight::Unit.weight_of(&m), 1.0);
        assert_eq!(BlockWeight::TxCount.weight_of(&m), 10.0);
        assert_eq!(BlockWeight::Gas.weight_of(&m), 500.0);
    }

    #[test]
    fn weighted_average_basics() {
        assert_eq!(weighted_average(std::iter::empty()), 0.0);
        let avg = weighted_average([(0.5, 2.0), (1.0, 2.0)].into_iter());
        assert!((avg - 0.75).abs() < 1e-12);
    }

    #[test]
    fn zero_weights_do_not_divide_by_zero() {
        assert_eq!(weighted_average([(1.0, 0.0)].into_iter()), 0.0);
    }

    #[test]
    fn heavier_blocks_dominate() {
        // One huge low-conflict block and many small high-conflict blocks.
        let pairs = std::iter::once((0.1, 1000.0)).chain((0..10).map(|_| (0.9, 1.0)));
        let avg = weighted_average(pairs);
        assert!(avg < 0.2);
    }
}
