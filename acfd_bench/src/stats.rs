//! The harness's own arithmetic: medians, spread, and which tail
//! percentile a sample count can support.

/// Median of `samples` (mean of the two middle values for an even
/// count). Panics on an empty slice: every caller times at least one
/// operation.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The fastest of `samples` (timings: less is better).
pub fn best(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "best of no samples");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median absolute deviation from the median.
pub fn mad(samples: &[f64]) -> f64 {
    let m = median(samples);
    let dev: Vec<f64> = samples.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// The highest of the standard tail percentiles that still has at
/// least ten samples beyond it, or `None` below 40 samples (where even
/// p75 has fewer than ten beyond it).
pub fn tail_percentile(n: usize) -> Option<f64> {
    // per-mille, so that n × (1 − p/100) ≥ 10 is exact integer arithmetic
    [999u64, 990, 950, 900, 750]
        .into_iter()
        .find(|pm| n as u64 * (1000 - pm) >= 10_000)
        .map(|pm| pm as f64 / 10.0)
}

/// Nearest-rank percentile `p` (0–100) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// What the document records for one timed metric. `best` is the
/// fastest sample and the metric's value: on a shared host a neighbour
/// only ever adds time, for seconds or minutes at a stretch, so medians
/// of back-to-back identical runs differ by 20–50 % while their fastest
/// samples differ by a few percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub best: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub mad: f64,
}

/// Summary of timings (seconds or milliseconds: less is better).
pub fn summarize(samples: &[f64]) -> Summary {
    let min = best(samples);
    Summary {
        n: samples.len(),
        best: min,
        median: median(samples),
        min,
        max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        mad: mad(samples),
    }
}

impl Summary {
    /// The summary of `f(sample)` for a monotone `f` (unit scaling when
    /// increasing; `work ÷ time` rates when decreasing, which swaps min
    /// and max — the best time becomes the best rate). The MAD is scaled
    /// by the local slope at the median.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Summary {
        let (a, b) = (f(self.min), f(self.max));
        let slope = if self.max > self.min {
            ((b - a) / (self.max - self.min)).abs()
        } else {
            0.0
        };
        Summary {
            n: self.n,
            best: f(self.best),
            median: f(self.median),
            min: a.min(b),
            max: a.max(b),
            mad: self.mad * slope,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn mad_ignores_one_outlier() {
        // deviations from the median 3: 2 1 0 1 97 → median 1
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(1600), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 190.0); // ten samples beyond
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[9.0], 99.0), 9.0);
    }

    #[test]
    fn rate_summary_swaps_min_and_max() {
        let s = summarize(&[1.0, 2.0, 4.0]);
        let r = s.map(|t| 8.0 / t);
        assert_eq!((r.best, r.median, r.min, r.max), (8.0, 4.0, 2.0, 8.0));
        let ms = s.map(|t| t * 1e3);
        assert_eq!((ms.best, ms.median, ms.min, ms.max), (1e3, 2e3, 1e3, 4e3));
        assert_eq!(ms.mad, 1e3);
    }
}
