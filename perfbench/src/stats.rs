//! Order statistics used by every report.

/// Nearest-rank percentile of `values` (`0 < p <= 100`): the smallest
/// sample with at least `p`% of the samples at or below it. With 100
/// samples, p90 is the 90th smallest, so ten samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quartiles `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// the spreads printed here match the ones computed from run outputs.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len == 1 {
        return (data[0], data[0], data[0]);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The median (middle quartile).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// A sample set reduced to what the result files record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, median, q3) = quartiles(values);
        Summary {
            n: values.len(),
            q1,
            median,
            q3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_of_100_leaves_ten_beyond() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p90 = percentile(&values, 90.0);
        assert_eq!(p90, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > p90).count(), 10);
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // Expected values from `statistics.quantiles(values, n=4)`.
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 2.5, 3.75));
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 3.0, 5.0));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[2.0, 9.0]), (0.25, 5.5, 10.75));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0, 4.0]), 3.0);
    }
}
