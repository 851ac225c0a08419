//! Order statistics over `f64` samples: the only arithmetic the benchmark
//! applies to a timing before printing it.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), because that is what the benchmark driver uses to
//! judge run-to-run spread; computing the in-run spread the same way keeps
//! `sipbench diff` and the driver in agreement about what "noisy" means.

/// The samples sorted ascending (NaNs, which no timer produces, sort last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// Quantile `q ∈ [0, 1]` of already-sorted samples by linear interpolation
/// on the exclusive scale: rank `q·(n+1)`, clamped to the sample range.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let rank = q * (n as f64 + 1.0);
            let lo = (rank.floor() as usize).clamp(1, n - 1);
            let frac = (rank - lo as f64).clamp(0.0, 1.0);
            v[lo - 1] + frac * (v[lo] - v[lo - 1])
        }
    }
}

/// Percentile `p ∈ [0, 100]` of the samples (0 for an empty slice).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    quantile_sorted(&sorted(samples), p / 100.0)
}

/// The median (0 for an empty slice).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The arithmetic mean (0 for an empty slice).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Interquartile range `Q3 − Q1` (0 with fewer than two samples).
pub fn iqr(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let v = sorted(samples);
    quantile_sorted(&v, 0.75) - quantile_sorted(&v, 0.25)
}

/// `iqr ÷ median`, the spread figure the driver compares with a bound
/// (0 when the median is 0, so an idle metric never reads as noisy).
pub fn relative_iqr(samples: &[f64]) -> f64 {
    let m = median(samples);
    if m == 0.0 {
        0.0
    } else {
        (iqr(samples) / m).abs()
    }
}

/// The largest sample (0 for an empty slice).
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&hundred, 95.0) - 95.95).abs() < 1e-9);
        // The top percentile clamps to the largest sample instead of
        // extrapolating past it.
        assert_eq!(percentile(&hundred, 100.0), 100.0);
        assert_eq!(percentile(&hundred, 0.0), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr(&ten) - 5.5).abs() < 1e-12);
        assert!((relative_iqr(&ten) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11, 30], n=4) -> [10.25, 11.5, 25.5]
        assert!((iqr(&[10.0, 12.0, 11.0, 30.0]) - 15.25).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_are_zero_not_nan() {
        assert_eq!(iqr(&[5.0]), 0.0);
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(max(&[1.0, 9.0, 3.0]), 9.0);
    }
}
