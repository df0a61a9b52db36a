//! Labelled time series.

/// One point of a time series: a position on the time axis (fractional calendar year,
/// matching the x-axes of the paper's figures) and a value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Fractional calendar year (bucket midpoint).
    pub year: f64,
    /// The aggregated metric value for the bucket.
    pub value: f64,
}

/// A labelled series of `(year, value)` points — one line of one of the paper's plots.
///
/// # Examples
///
/// ```
/// use blockconc_analysis::{Series, SeriesPoint};
///
/// let s = Series::new("Ethereum", vec![SeriesPoint { year: 2017.0, value: 0.8 }]);
/// assert_eq!(s.label(), "Ethereum");
/// assert_eq!(s.points().len(), 1);
/// assert!((s.mean() - 0.8).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    label: String,
    points: Vec<SeriesPoint>,
}

impl Series {
    /// Creates a labelled series.
    pub fn new(label: impl Into<String>, points: Vec<SeriesPoint>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }

    /// The series label (chain name, core count, …).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The points, in time order.
    pub fn points(&self) -> &[SeriesPoint] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Unweighted mean of the values (0 for an empty series).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.value).sum::<f64>() / self.points.len() as f64
    }

    /// The last value of the series (the most recent bucket), if any.
    pub fn last_value(&self) -> Option<f64> {
        self.points.last().map(|p| p.value)
    }

    /// The maximum value of the series, if any.
    pub fn max_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|p| p.value)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Converts the series to `(year, value)` tuples (the input format of the model
    /// sweeps in `blockconc-model`).
    pub fn to_tuples(&self) -> Vec<(f64, f64)> {
        self.points.iter().map(|p| (p.year, p.value)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> Series {
        Series::new(
            "test",
            vec![
                SeriesPoint {
                    year: 2016.0,
                    value: 0.8,
                },
                SeriesPoint {
                    year: 2017.0,
                    value: 0.6,
                },
                SeriesPoint {
                    year: 2018.0,
                    value: 0.4,
                },
            ],
        )
    }

    #[test]
    fn aggregates() {
        let s = series();
        assert!((s.mean() - 0.6).abs() < 1e-12);
        assert_eq!(s.last_value(), Some(0.4));
        assert_eq!(s.max_value(), Some(0.8));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn empty_series() {
        let s = Series::new("empty", vec![]);
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.last_value(), None);
        assert_eq!(s.max_value(), None);
    }

    #[test]
    fn tuples_roundtrip() {
        assert_eq!(series().to_tuples()[1], (2017.0, 0.6));
    }
}
