//! Empirical distribution functions.
//!
//! Most of the paper's figures are empirical CDFs (Figs. 4, 5a, 12, 14, 16)
//! or CCDFs on log–log axes (Fig. 6). [`Ecdf`] owns a sorted copy of the
//! sample and answers CDF/CCDF/quantile queries in `O(log n)`.

/// Empirical cumulative distribution function over an `f64` sample.
///
/// ```
/// use mcs_stats::Ecdf;
///
/// let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(e.cdf(2.5), 0.5);
/// assert_eq!(e.median(), 2.5);
/// assert_eq!(e.ccdf(3.0), 0.25);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample. Non-finite values are rejected.
    ///
    /// Panics if the sample is empty or contains NaN/±∞.
    pub fn new(mut sample: Vec<f64>) -> Self {
        assert!(!sample.is_empty(), "ECDF of empty sample");
        assert!(
            sample.iter().all(|x| x.is_finite()),
            "ECDF sample must be finite"
        );
        sample.sort_by(f64::total_cmp);
        Self { sorted: sample }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false: construction rejects empty samples.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `F(x) = Pr[X ≤ x]`.
    pub fn cdf(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// `1 − F(x) = Pr[X > x]`.
    pub fn ccdf(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }

    /// `q`-quantile via linear interpolation between order statistics.
    pub fn quantile(&self, q: f64) -> f64 {
        crate::descriptive::quantile_sorted(&self.sorted, q)
    }

    /// Median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        // mcs-lint: allow(panic, Ecdf::new rejects empty samples)
        *self.sorted.last().expect("non-empty by construction")
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// The sorted sample.
    pub fn sorted_values(&self) -> &[f64] {
        &self.sorted
    }

    /// Evaluates the CDF at `n` points log-spaced over `[min, max]` (both
    /// must be positive) — for figures with logarithmic x-axes (Figs. 14, 16).
    pub fn cdf_series_log(&self, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2, "need at least two evaluation points");
        assert!(self.min() > 0.0, "log-spaced series needs positive sample");
        let lo = self.min().ln();
        let hi = self.max().ln();
        (0..n)
            .map(|i| {
                let x = (lo + (hi - lo) * i as f64 / (n - 1) as f64).exp();
                (x, self.cdf(x))
            })
            .collect()
    }

    /// Evaluates the CCDF at `n` log-spaced points (Fig. 6 style, both axes
    /// logarithmic).
    pub fn ccdf_series_log(&self, n: usize) -> Vec<(f64, f64)> {
        self.cdf_series_log(n)
            .into_iter()
            .map(|(x, f)| (x, 1.0 - f))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{stream_rng, uniform, uniform_vec};

    #[test]
    fn cdf_step_values() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.cdf(0.5), 0.0);
        assert_eq!(e.cdf(1.0), 0.25);
        assert_eq!(e.cdf(2.5), 0.5);
        assert_eq!(e.cdf(4.0), 1.0);
        assert_eq!(e.cdf(99.0), 1.0);
    }

    #[test]
    fn ccdf_complements_cdf() {
        let e = Ecdf::new(vec![5.0, 1.0, 3.0]);
        for &x in &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0] {
            assert!((e.cdf(x) + e.ccdf(x) - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn quantile_median() {
        let e = Ecdf::new(vec![10.0, 20.0, 30.0]);
        assert_eq!(e.median(), 20.0);
        assert_eq!(e.quantile(0.0), 10.0);
        assert_eq!(e.quantile(1.0), 30.0);
    }

    #[test]
    fn handles_duplicates() {
        let e = Ecdf::new(vec![2.0, 2.0, 2.0, 5.0]);
        assert_eq!(e.cdf(2.0), 0.75);
        assert_eq!(e.cdf(1.9), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_empty() {
        let _ = Ecdf::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        let _ = Ecdf::new(vec![1.0, f64::NAN]);
    }

    #[test]
    fn series_shapes() {
        let e = Ecdf::new(vec![1.0, 10.0, 100.0, 1000.0]);
        let l = e.cdf_series_log(5);
        assert!((l[0].0 - 1.0).abs() < 1e-9);
        assert!((l[4].0 - 1000.0).abs() < 1e-6);
    }

    const SEED: u64 = 0x5EED;

    #[test]
    fn prop_cdf_monotone() {
        for case in 0..256 {
            let mut rng = stream_rng(SEED, case);
            let e = Ecdf::new(uniform_vec(&mut rng, -1e6..1e6, 1..100));
            let mut xs = uniform_vec(&mut rng, -1.1e6..1.1e6, 20..21);
            xs.sort_by(f64::total_cmp);
            for w in xs.windows(2) {
                let (lo, hi) = (e.cdf(w[0]), e.cdf(w[1]));
                assert!(
                    lo <= hi,
                    "case {case}: F({}) = {lo} > F({}) = {hi}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn prop_quantile_cdf_consistency() {
        for case in 0..256 {
            let mut rng = stream_rng(SEED, case);
            let e = Ecdf::new(uniform_vec(&mut rng, -1e4..1e4, 2..100));
            let q = uniform(&mut rng, 0.01..0.99);
            let x = e.quantile(q);
            // CDF at the q-quantile must be at least roughly q.
            assert!(
                e.cdf(x) + 1.0 / e.len() as f64 >= q - 1e-9,
                "case {case}: q {q}"
            );
        }
    }
}
