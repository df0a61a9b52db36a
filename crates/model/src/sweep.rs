//! Parameter sweeps over core counts, used to regenerate Figure 10.

use crate::{group_speedup, speculative_speedup};

/// One point of a speed-up series: a timestamp (fractional year, matching the x-axis
/// of the paper's figures) and the estimated speed-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupPoint {
    /// Position on the time axis (fractional calendar year).
    pub year: f64,
    /// Estimated speed-up.
    pub speedup: f64,
}

/// A sweep of speed-up estimates over a fixed set of core counts, producing one series
/// per core count — exactly the layout of Figure 10 (lines for 4, 8 and 64 cores).
///
/// # Examples
///
/// ```
/// use blockconc_model::CoreSweep;
///
/// let sweep = CoreSweep::figure10_cores();
/// let series = sweep.group_series(&[(2017.0, 0.25), (2018.0, 0.2)], 100);
/// assert_eq!(series.len(), 3);           // 4, 8, 64 cores
/// assert_eq!(series[0].1.len(), 2);      // two time points each
/// assert!(series[2].1[1].speedup >= series[0].1[1].speedup);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreSweep {
    cores: Vec<usize>,
}

impl CoreSweep {
    /// Creates a sweep over the given core counts.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty or contains zero.
    pub fn new(cores: Vec<usize>) -> Self {
        assert!(!cores.is_empty(), "at least one core count required");
        assert!(cores.iter().all(|&n| n > 0), "core counts must be positive");
        CoreSweep { cores }
    }

    /// The core counts used in the paper's Figure 10: 4, 8 and 64.
    pub fn figure10_cores() -> Self {
        CoreSweep::new(vec![4, 8, 64])
    }

    /// The core counts in the sweep.
    pub fn cores(&self) -> &[usize] {
        &self.cores
    }

    /// Computes single-transaction (Equation 1) speed-up series from a time series of
    /// `(year, conflict rate)` points, assuming `x` transactions per block.
    ///
    /// Returns one `(cores, series)` pair per core count.
    pub fn speculative_series(
        &self,
        conflict_series: &[(f64, f64)],
        x: u64,
    ) -> Vec<(usize, Vec<SpeedupPoint>)> {
        self.cores
            .iter()
            .map(|&n| {
                let series = conflict_series
                    .iter()
                    .map(|&(year, c)| SpeedupPoint {
                        year,
                        speedup: speculative_speedup(x, c.clamp(0.0, 1.0), n),
                    })
                    .collect();
                (n, series)
            })
            .collect()
    }

    /// Computes group-concurrency (Equation 2) speed-up series from a time series of
    /// `(year, group conflict rate)` points. The `x` parameter is accepted for
    /// signature symmetry; Equation (2) does not depend on the block size.
    pub fn group_series(
        &self,
        group_series: &[(f64, f64)],
        _x: u64,
    ) -> Vec<(usize, Vec<SpeedupPoint>)> {
        self.cores
            .iter()
            .map(|&n| {
                let series = group_series
                    .iter()
                    .map(|&(year, l)| SpeedupPoint {
                        year,
                        speedup: group_speedup(l.clamp(0.0, 1.0), n),
                    })
                    .collect();
                (n, series)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure10_cores_are_4_8_64() {
        assert_eq!(CoreSweep::figure10_cores().cores(), &[4, 8, 64]);
    }

    #[test]
    fn speculative_series_shapes_match_input() {
        let sweep = CoreSweep::new(vec![8]);
        let input = vec![(2016.0, 0.8), (2018.0, 0.6), (2019.0, 0.6)];
        let out = sweep.speculative_series(&input, 150);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.len(), 3);
        // Lower conflict in 2018 than 2016 -> higher speed-up.
        assert!(out[0].1[1].speedup > out[0].1[0].speedup);
    }

    #[test]
    fn group_series_reaches_paper_magnitudes() {
        let sweep = CoreSweep::figure10_cores();
        let out = sweep.group_series(&[(2019.0, 0.17)], 150);
        let by_cores: std::collections::HashMap<usize, f64> = out
            .iter()
            .map(|(n, series)| (*n, series[0].speedup))
            .collect();
        assert!((by_cores[&4] - 4.0).abs() < 1e-9);
        assert!(by_cores[&8] > 5.5 && by_cores[&8] <= 6.0);
        assert!(by_cores[&64] > 5.5 && by_cores[&64] < 6.0);
    }

    #[test]
    fn rates_outside_unit_interval_are_clamped() {
        let sweep = CoreSweep::new(vec![4]);
        let out = sweep.group_series(&[(2020.0, 1.2), (2020.5, -0.1)], 10);
        assert!((out[0].1[0].speedup - 1.0).abs() < 1e-9);
        assert!((out[0].1[1].speedup - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one core count")]
    fn empty_core_list_panics() {
        let _ = CoreSweep::new(vec![]);
    }
}
