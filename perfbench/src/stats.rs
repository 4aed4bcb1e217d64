//! Summary statistics: medians, tail percentiles that refuse to report
//! without enough samples, and the population-growth exponent.

/// Percentiles the tail report may pick from, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// `None` when `values` is empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Sum over segments of each segment's median: `segments[k]` holds segment
/// `k`'s times over the repetitions that reached it. A burst of load that
/// slows one repetition's segment moves that segment's median only when it
/// hit most repetitions there. `None` without segments or when any segment
/// has no time.
pub fn sum_of_medians(segments: &[Vec<f64>]) -> Option<f64> {
    if segments.is_empty() {
        return None;
    }
    segments.iter().map(|s| median(s)).sum()
}

/// Arithmetic mean; `None` when `values` is empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// The nearest-rank `p`-th percentile of `samples`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it (so p50 needs 20 samples and
/// p90 needs 100).
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..100.0).contains(&p) {
        return None;
    }
    // Integer rank arithmetic in tenths of a percent, so 99.9 % of 10 000
    // is exactly rank 9 990 and not one float ulp above it.
    let tenths = (p * 10.0).round() as usize;
    let rank = (tenths * n).div_ceil(1000).max(1);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// The highest percentile of [`TAIL_LADDER`] that [`percentile`] agrees
/// to report, as `(p, value)`.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER
        .iter()
        .find_map(|&p| percentile(samples, p).map(|v| (p, v)))
}

/// Least-squares slope of `ln(wall)` against `ln(peers)`: the exponent `k`
/// in `wall ∝ peers^k`. `None` with fewer than two distinct populations or
/// a non-positive value.
pub fn growth_exponent(points: &[(f64, f64)]) -> Option<f64> {
    if points.iter().any(|&(n, w)| n <= 0.0 || w <= 0.0) {
        return None;
    }
    let xs: Vec<f64> = points.iter().map(|p| p.0.ln()).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.1.ln()).collect();
    let (mx, my) = (mean(&xs)?, mean(&ys)?);
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    if sxx <= 0.0 {
        return None;
    }
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    Some(sxy / sxx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the helper has to sort.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn sum_of_medians_drops_a_slow_repetition_per_segment() {
        // Three repetitions, each slowed in a different segment; the third
        // reached only the first two segments.
        let segments = vec![vec![1.0, 1.8, 1.1], vec![2.0, 2.1, 3.5], vec![3.9, 3.0]];
        assert_eq!(sum_of_medians(&segments), Some(1.1 + 2.1 + 3.45));
        assert_eq!(sum_of_medians(&[vec![1.0], vec![]]), None);
        assert_eq!(sum_of_medians(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(120);
        assert_eq!(percentile(&v, 50.0), Some(60.0));
        assert_eq!(percentile(&v, 90.0), Some(108.0));
    }

    #[test]
    fn percentile_refuses_without_ten_samples_beyond() {
        // 120 samples: p90 leaves 12 beyond, p95 only 6.
        let v = ramp(120);
        assert!(percentile(&v, 90.0).is_some());
        assert_eq!(percentile(&v, 95.0), None);
        // p50 needs 20 samples: 19 leave only 9 beyond the median rank.
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        // p90 needs 100.
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&ramp(500), 100.0), None);
    }

    #[test]
    fn tail_picks_the_highest_reportable_percentile() {
        assert_eq!(tail(&ramp(120)), Some((90.0, 108.0)));
        assert_eq!(tail(&ramp(200)), Some((95.0, 190.0)));
        assert_eq!(tail(&ramp(4320)).map(|t| t.0), Some(99.0));
        assert_eq!(tail(&ramp(10_000)).map(|t| t.0), Some(99.9));
        assert_eq!(tail(&ramp(99)), None);
    }

    #[test]
    fn growth_exponent_recovers_power_laws() {
        let quadratic = [(1000.0, 1.0), (2000.0, 4.0), (4000.0, 16.0)];
        assert!((growth_exponent(&quadratic).unwrap() - 2.0).abs() < 1e-12);
        let linear = [(1000.0, 3.0), (2000.0, 6.0), (4000.0, 12.0)];
        assert!((growth_exponent(&linear).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(growth_exponent(&[(1000.0, 1.0)]), None);
        assert_eq!(growth_exponent(&[(1000.0, 1.0), (2000.0, 0.0)]), None);
    }
}
