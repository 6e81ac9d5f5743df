//! Order statistics for reported timings.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of the faster half of `values` (the middle one included for an odd
/// count): the typical time of an operation while the host runs at full
/// speed. A shared host slows whole stretches of a run by up to 1.5x for
/// seconds at a time, which moves the median whenever such stretches
/// cover half the samples; this ignores them as long as they cover less.
pub fn faster_half_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let half = &v[..values.len().div_ceil(2)];
    half.iter().sum::<f64>() / half.len() as f64
}

/// The `q` quantile of a typical group: the median over `groups` of each
/// group's nearest-rank `q` quantile. Groups slowed by the host move it
/// only when they are at least half of them.
pub fn typical_quantile(groups: &[Percentiles], q: f64) -> f64 {
    median(&groups.iter().map(|p| p.at(q)).collect::<Vec<_>>())
}

/// `min / median / max (count)` of `values`, for diagnostics.
pub fn spread(values: &[f64]) -> String {
    let p = Percentiles::new(values);
    format!(
        "{:.4} / {:.4} / {:.4} ({})",
        p.at(0.0),
        median(values),
        p.at(1.0),
        p.count()
    )
}

/// 1-based nearest rank of quantile `q` among `count` samples: the
/// smallest rank with at least a `q` share of the samples at or below it.
pub fn rank(count: usize, q: f64) -> usize {
    assert!(count > 0 && (0.0..=1.0).contains(&q));
    ((q * count as f64).ceil() as usize).clamp(1, count)
}

/// Samples strictly above the `q` quantile's rank. A percentile is only
/// reported as supported when at least ten samples lie beyond it.
pub fn beyond(count: usize, q: f64) -> usize {
    count - rank(count, q)
}

/// A latency distribution summarised by nearest-rank percentiles.
#[derive(Clone, Debug)]
pub struct Percentiles {
    sorted: Vec<f64>,
}

impl Percentiles {
    pub fn new(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "percentiles of no samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Percentiles { sorted }
    }

    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    pub fn at(&self, q: f64) -> f64 {
        self.sorted[rank(self.sorted.len(), q) - 1]
    }

    /// True when at least ten samples lie beyond the `q` quantile.
    pub fn supports(&self, q: f64) -> bool {
        beyond(self.sorted.len(), q) >= 10
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn faster_half_mean_ignores_the_slower_half() {
        assert_eq!(faster_half_mean(&[4.0, 1.0, 3.0, 2.0]), 1.5);
        assert_eq!(faster_half_mean(&[5.0, 1.0, 40.0, 2.0, 3.0]), 2.0);
        assert_eq!(faster_half_mean(&[7.0]), 7.0);
    }

    #[test]
    fn typical_quantile_is_the_median_group_quantile() {
        let group = |scale: f64| {
            let samples: Vec<f64> = (1..=100).map(|i| f64::from(i) * scale).collect();
            Percentiles::new(&samples)
        };
        let groups = [group(1.0), group(10.0), group(1.5)];
        assert_eq!(typical_quantile(&groups, 0.9), 135.0);
        assert_eq!(typical_quantile(&groups, 0.5), 75.0);
        assert_eq!(typical_quantile(&groups[..1], 0.9), 90.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p = Percentiles::new(&samples);
        assert_eq!(p.count(), 100);
        assert_eq!(p.at(0.5), 50.0);
        assert_eq!(p.at(0.9), 90.0);
        assert_eq!(p.at(0.99), 99.0);
        assert_eq!(p.at(1.0), 100.0);
        assert_eq!(p.at(0.0), 1.0);
    }

    #[test]
    fn support_needs_ten_samples_beyond() {
        assert_eq!(beyond(100, 0.9), 10);
        assert!(Percentiles::new(&vec![1.0; 100]).supports(0.9));
        assert!(!Percentiles::new(&vec![1.0; 99]).supports(0.9));
        assert!(!Percentiles::new(&vec![1.0; 999]).supports(0.99));
        assert!(Percentiles::new(&vec![1.0; 1000]).supports(0.99));
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let p = Percentiles::new(&[7.0]);
        assert_eq!(p.at(0.5), 7.0);
        assert_eq!(p.at(0.99), 7.0);
        assert!(!p.supports(0.5));
    }
}
