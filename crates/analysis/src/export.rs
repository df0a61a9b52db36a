//! CSV export of series.

use crate::Series;

/// Renders a set of series sharing a time axis as CSV: one `year` column followed by
/// one column per series. Points are matched by position; series of different lengths
/// are padded with empty cells.
///
/// # Examples
///
/// ```
/// use blockconc_analysis::{export, Series, SeriesPoint};
///
/// let a = Series::new("Bitcoin", vec![SeriesPoint { year: 2018.0, value: 0.13 }]);
/// let b = Series::new("Ethereum", vec![SeriesPoint { year: 2018.0, value: 0.62 }]);
/// let csv = export::to_csv(&[a, b]);
/// assert!(csv.starts_with("year,Bitcoin,Ethereum"));
/// assert!(csv.lines().count() == 2);
/// ```
pub fn to_csv(series: &[Series]) -> String {
    let mut out = String::from("year");
    for s in series {
        out.push(',');
        out.push_str(&s.label().replace(',', ";"));
    }
    out.push('\n');

    let rows = series.iter().map(|s| s.len()).max().unwrap_or(0);
    for row in 0..rows {
        // Use the first series that has this row for the year column.
        let year = series
            .iter()
            .find_map(|s| s.points().get(row).map(|p| p.year))
            .unwrap_or(0.0);
        out.push_str(&format!("{year:.3}"));
        for s in series {
            out.push(',');
            if let Some(point) = s.points().get(row) {
                out.push_str(&format!("{:.6}", point.value));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeriesPoint;

    fn sample() -> Vec<Series> {
        vec![
            Series::new(
                "a",
                vec![
                    SeriesPoint {
                        year: 2016.0,
                        value: 1.0,
                    },
                    SeriesPoint {
                        year: 2017.0,
                        value: 2.0,
                    },
                ],
            ),
            Series::new(
                "b",
                vec![SeriesPoint {
                    year: 2016.0,
                    value: 3.0,
                }],
            ),
        ]
    }

    #[test]
    fn csv_has_header_and_padded_rows() {
        let csv = to_csv(&sample());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "year,a,b");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("1.000000") && lines[1].contains("3.000000"));
        // Second row has an empty cell for the shorter series.
        assert!(lines[2].ends_with(','));
    }

    #[test]
    fn commas_in_labels_are_sanitized() {
        let s = Series::new("a,b", vec![]);
        assert!(to_csv(&[s]).starts_with("year,a;b"));
    }

    #[test]
    fn empty_input_yields_header_only() {
        assert_eq!(to_csv(&[]), "year\n");
    }
}
