//! Statistics helpers for reproducing the paper's plots: CDFs, stacked
//! percentiles (Fig. 8) and simple summaries.

/// A collection of samples with percentile/CDF queries.
#[derive(Clone, Debug, Default)]
pub struct Cdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl Cdf {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Cdf::default()
    }

    /// Builds directly from samples.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut c = Cdf::new();
        for s in samples {
            c.push(s);
        }
        c
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been collected.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (0 ≤ p ≤ 100) by nearest-rank.
    ///
    /// # Panics
    ///
    /// Panics if the collection is empty or `p` out of range.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!(!self.samples.is_empty(), "percentile of empty Cdf");
        assert!((0.0..=100.0).contains(&p));
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.samples[rank.clamp(1, n) - 1]
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// Arithmetic mean.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn mean(&self) -> f64 {
        assert!(!self.samples.is_empty(), "mean of empty Cdf");
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Smallest sample.
    pub fn min(&mut self) -> f64 {
        self.ensure_sorted();
        self.samples[0]
    }

    /// Largest sample.
    pub fn max(&mut self) -> f64 {
        self.ensure_sorted();
        *self.samples.last().expect("max of empty Cdf")
    }

    /// Fraction of samples ≤ `x`.
    pub fn fraction_below(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let count = self.samples.partition_point(|&v| v <= x);
        count as f64 / self.samples.len() as f64
    }

    /// `points` evenly spaced CDF points `(value, cumulative fraction)`,
    /// suitable for plotting exactly like the paper's CDF figures.
    pub fn points(&mut self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2);
        if self.samples.is_empty() {
            return Vec::new();
        }
        self.ensure_sorted();
        let n = self.samples.len();
        (0..points)
            .map(|i| {
                let idx = if points == 1 { 0 } else { i * (n - 1) / (points - 1) };
                (self.samples[idx], (idx + 1) as f64 / n as f64)
            })
            .collect()
    }

    /// The stacked-percentile summary used by Fig. 8: (5th, 25th, 50th,
    /// 75th, 90th).
    pub fn stacked_percentiles(&mut self) -> [f64; 5] {
        [
            self.percentile(5.0),
            self.percentile(25.0),
            self.percentile(50.0),
            self.percentile(75.0),
            self.percentile(90.0),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let mut c = Cdf::from_samples((1..=100).map(|i| i as f64));
        assert_eq!(c.percentile(50.0), 50.0);
        assert_eq!(c.percentile(90.0), 90.0);
        assert_eq!(c.percentile(100.0), 100.0);
        assert_eq!(c.percentile(0.0), 1.0);
        assert_eq!(c.percentile(1.0), 1.0);
    }

    #[test]
    fn single_sample() {
        let mut c = Cdf::from_samples([42.0]);
        assert_eq!(c.median(), 42.0);
        assert_eq!(c.min(), 42.0);
        assert_eq!(c.max(), 42.0);
        assert_eq!(c.mean(), 42.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_percentile_panics() {
        Cdf::new().percentile(50.0);
    }

    #[test]
    fn fraction_below() {
        let mut c = Cdf::from_samples([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.fraction_below(2.0), 0.5);
        assert_eq!(c.fraction_below(0.5), 0.0);
        assert_eq!(c.fraction_below(10.0), 1.0);
        assert_eq!(Cdf::new().fraction_below(1.0), 0.0);
    }

    #[test]
    fn points_cover_range() {
        let mut c = Cdf::from_samples((0..1000).map(|i| i as f64));
        let pts = c.points(11);
        assert_eq!(pts.len(), 11);
        assert_eq!(pts[0].0, 0.0);
        assert_eq!(pts[10].0, 999.0);
        assert!((pts[10].1 - 1.0).abs() < 1e-9);
        // Monotone in both coordinates.
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn stacked_percentiles_ordered() {
        let mut c = Cdf::from_samples((0..500).map(|i| (i as f64).sqrt()));
        let sp = c.stacked_percentiles();
        for w in sp.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn unsorted_pushes_are_handled() {
        let mut c = Cdf::new();
        for v in [5.0, 1.0, 3.0] {
            c.push(v);
        }
        assert_eq!(c.min(), 1.0);
        c.push(0.5);
        assert_eq!(c.min(), 0.5, "re-sorts after new push");
    }
}
