//! Order statistics: the percentile selection the metrics use and the
//! quartile spread the acceptance check is stated in.

/// The `p`-th percentile (0–100) of unsorted samples by linear interpolation
/// between closest ranks; `None` without samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (low, high) = (rank.floor() as usize, rank.ceil() as usize);
    Some(sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The `p`-th percentile as the mean of the order statistics from `p − 5`
/// to `p + 5` — a uniform-kernel quantile estimate. Latencies here are
/// lumpy: a served job is seen done only at a 25 ms poll tick, and two
/// clients queueing on one lock finish in one of two modes. A single order
/// statistic then jumps a whole lump between runs when the quantile sits
/// near a boundary; the mean over the neighbouring tenth of the sample
/// moves smoothly instead. On unlumpy data it agrees with [`percentile`].
pub fn smoothed_percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = (sorted.len() - 1) as f64;
    let rank = |q: f64| (q / 100.0).clamp(0.0, 1.0) * last;
    let (low, high) = (
        rank(p - 5.0).ceil() as usize,
        rank(p + 5.0).floor() as usize,
    );
    if low > high {
        return percentile(samples, p); // too few samples to smooth over
    }
    let window = &sorted[low..=high];
    Some(window.iter().sum::<f64>() / window.len() as f64)
}

/// The highest of the usual percentiles that still has at least ten samples
/// beyond it — the highest one a sample of this size supports.
pub fn supported_percentile(samples: usize) -> f64 {
    // (percentile, per mille of the sample beyond it): whole numbers, so
    // that a hundred samples do support p90.
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)]
        .into_iter()
        .find(|&(_, beyond)| samples * beyond >= 10_000)
        .map_or(50.0, |(p, _)| p)
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them; `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let len = values.len();
    if len < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the run-to-run spread the
/// benchmark's bounds are judged against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&samples), Some(2.5));
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(percentile(&samples, 100.0), Some(4.0));
        assert_eq!(percentile(&[], 50.0), None);
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(91.0));
    }

    #[test]
    fn smoothing_averages_the_neighbouring_tenth() {
        let hundred: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(smoothed_percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(smoothed_percentile(&hundred, 90.0), Some(90.0));
        // Two lumps, 48 fast and 52 slow: the plain median is a slow one,
        // the smoothed one says the middle straddles the lumps.
        let lumpy: Vec<f64> = (0..100).map(|i| if i < 48 { 10.0 } else { 20.0 }).collect();
        assert_eq!(median(&lumpy), Some(20.0));
        let smoothed = smoothed_percentile(&lumpy, 50.0).unwrap();
        assert!((17.0..19.0).contains(&smoothed), "{smoothed}");
        assert_eq!(smoothed_percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(smoothed_percentile(&[1.0, 2.0], 90.0), Some(1.9));
        assert_eq!(smoothed_percentile(&[], 50.0), None);
    }

    #[test]
    fn the_supported_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(19), 50.0);
        assert_eq!(supported_percentile(20), 50.0);
        assert_eq!(supported_percentile(40), 75.0);
        assert_eq!(supported_percentile(99), 75.0);
        assert_eq!(supported_percentile(100), 90.0);
        assert_eq!(supported_percentile(512), 95.0);
        assert_eq!(supported_percentile(1000), 99.0);
        assert_eq!(supported_percentile(10_000), 99.9);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&ten), Some(1.0));
    }
}
