//! Piecewise-linear calibration series over time.

/// A piecewise-linear function of (fractional) calendar year, used to describe how a
/// workload parameter evolves over a chain's history (e.g. Bitcoin's transactions per
/// block growing from 1 in 2009 to over 2000 in 2019).
///
/// Outside the anchor range the series is clamped to its first/last value.
///
/// # Examples
///
/// ```
/// use blockconc_chainsim::PiecewiseSeries;
///
/// let tx_per_block = PiecewiseSeries::new(vec![(2009.0, 1.0), (2019.0, 2000.0)]);
/// assert!((tx_per_block.value_at(2014.0) - 1000.5).abs() < 1.0);
/// assert_eq!(tx_per_block.value_at(2000.0), 1.0);   // clamped before launch
/// assert_eq!(tx_per_block.value_at(2025.0), 2000.0); // clamped after the dataset
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseSeries {
    points: Vec<(f64, f64)>,
}

impl PiecewiseSeries {
    /// Creates a series from `(year, value)` anchors.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or the years are not strictly increasing.
    pub fn new(points: Vec<(f64, f64)>) -> Self {
        assert!(!points.is_empty(), "a series needs at least one anchor");
        for pair in points.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "anchor years must be strictly increasing"
            );
        }
        PiecewiseSeries { points }
    }

    /// A constant series.
    pub fn constant(value: f64) -> Self {
        PiecewiseSeries {
            points: vec![(0.0, value)],
        }
    }

    /// The anchors of the series.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The interpolated value at `year`.
    pub fn value_at(&self, year: f64) -> f64 {
        let first = self.points[0];
        let last = *self.points.last().expect("non-empty");
        if year <= first.0 {
            return first.1;
        }
        if year >= last.0 {
            return last.1;
        }
        for pair in self.points.windows(2) {
            let (x0, y0) = pair[0];
            let (x1, y1) = pair[1];
            if year >= x0 && year <= x1 {
                let t = (year - x0) / (x1 - x0);
                return y0 + t * (y1 - y0);
            }
        }
        last.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_and_clamping() {
        let s = PiecewiseSeries::new(vec![(2016.0, 0.8), (2018.0, 0.6), (2019.0, 0.6)]);
        assert!((s.value_at(2017.0) - 0.7).abs() < 1e-12);
        assert_eq!(s.value_at(2010.0), 0.8);
        assert_eq!(s.value_at(2030.0), 0.6);
        assert!((s.value_at(2018.5) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn constant_series() {
        let s = PiecewiseSeries::constant(7.0);
        assert_eq!(s.value_at(1999.0), 7.0);
        assert_eq!(s.value_at(2050.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_anchors_panic() {
        let _ = PiecewiseSeries::new(vec![(2016.0, 1.0), (2015.0, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "at least one anchor")]
    fn empty_series_panics() {
        let _ = PiecewiseSeries::new(vec![]);
    }
}
