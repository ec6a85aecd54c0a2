//! Summary statistics and concentration measures.

/// One-pass summary of a sample: count, mean, variance, extrema.
///
/// Uses Welford's online algorithm so it can be fed record-by-record by the
/// streaming analysis pipeline without buffering the sample.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Builds a summary from a slice in one pass.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = Self::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merges another summary into this one (parallel-reduction friendly).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        // mcs-lint: allow(float-merge, Chan pairwise mean update; shards merge in pinned index order per the R4 law)
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        // mcs-lint: allow(float-merge, Chan mean and M2 combination is deterministic under the pinned merge order)
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        // mcs-lint: allow(float-merge, integer count plus f64 sum; sum follows the same pinned merge order)
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; `NaN` when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance; `NaN` when fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum; `+∞` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum; `−∞` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of `xs` using linear interpolation
/// between order statistics (type-7, the R/NumPy default).
///
/// `xs` must be sorted ascending. Panics if `xs` is empty or `q` is outside
/// `[0, 1]`.
pub fn quantile_sorted(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
    if xs.len() == 1 {
        return xs[0];
    }
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    xs[lo] + (xs[hi] - xs[lo]) * frac
}

/// Sorts a copy of `xs` and returns the `q`-quantile.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

/// Median convenience wrapper.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Gini coefficient of a non-negative sample — a standard inequality measure
/// used to characterise how concentrated per-user activity is.
///
/// Returns `NaN` for empty input and 0 for an all-zero sample.
pub fn gini(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let total: f64 = v.iter().sum();
    if total == 0.0 {
        return 0.0;
    }
    let weighted: f64 = v
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x)
        .sum();
    (2.0 * weighted) / (n * total) - (n + 1.0) / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{stream_rng, uniform, uniform_vec};

    #[test]
    fn summary_basics() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert!((s.sum() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_is_nan() {
        let s = Summary::new();
        assert!(s.mean().is_nan());
        assert!(s.variance().is_nan());
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn summary_single_observation() {
        let s = Summary::from_slice(&[7.5]);
        assert_eq!(s.mean(), 7.5);
        assert!(s.variance().is_nan());
    }

    #[test]
    fn merge_matches_concatenation() {
        let a = [1.0, 5.0, 2.0];
        let b = [9.0, -3.0, 4.0, 8.0];
        let mut sa = Summary::from_slice(&a);
        let sb = Summary::from_slice(&b);
        sa.merge(&sb);
        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let sc = Summary::from_slice(&all);
        assert_eq!(sa.count(), sc.count());
        assert!((sa.mean() - sc.mean()).abs() < 1e-12);
        assert!((sa.variance() - sc.variance()).abs() < 1e-12);
        assert_eq!(sa.min(), sc.min());
        assert_eq!(sa.max(), sc.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Summary::from_slice(&[1.0, 2.0]);
        let before = s.clone();
        s.merge(&Summary::new());
        assert_eq!(s, before);

        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn quantile_interpolation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((median(&[4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn gini_extremes() {
        // Perfect equality.
        assert!(gini(&[1.0, 1.0, 1.0, 1.0]).abs() < 1e-12);
        // Near-perfect inequality approaches (n−1)/n.
        let g = gini(&[0.0, 0.0, 0.0, 100.0]);
        assert!((g - 0.75).abs() < 1e-12);
    }

    const SEED: u64 = 0x5EED;

    #[test]
    fn prop_summary_mean_bounded() {
        for case in 0..256 {
            let xs = uniform_vec(&mut stream_rng(SEED, case), -1e6..1e6, 1..200);
            let s = Summary::from_slice(&xs);
            assert!(s.mean() >= s.min() - 1e-9, "case {case}");
            assert!(s.mean() <= s.max() + 1e-9, "case {case}");
        }
    }

    #[test]
    fn prop_merge_commutes() {
        for case in 0..256 {
            let mut rng = stream_rng(SEED, case);
            let a = uniform_vec(&mut rng, -1e3..1e3, 1..50);
            let b = uniform_vec(&mut rng, -1e3..1e3, 1..50);
            let mut ab = Summary::from_slice(&a);
            ab.merge(&Summary::from_slice(&b));
            let mut ba = Summary::from_slice(&b);
            ba.merge(&Summary::from_slice(&a));
            assert!((ab.mean() - ba.mean()).abs() < 1e-9, "case {case}");
            assert!((ab.variance() - ba.variance()).abs() < 1e-6, "case {case}");
        }
    }

    #[test]
    fn prop_quantile_monotone() {
        for case in 0..256 {
            let mut rng = stream_rng(SEED, case);
            let xs = uniform_vec(&mut rng, -1e4..1e4, 2..100);
            let q1 = uniform(&mut rng, 0.0..1.0);
            let q2 = uniform(&mut rng, 0.0..1.0);
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            assert!(
                quantile(&xs, lo) <= quantile(&xs, hi) + 1e-12,
                "case {case}: q {lo}..{hi}"
            );
        }
    }

    #[test]
    fn prop_gini_in_unit_interval() {
        for case in 0..256 {
            let g = gini(&uniform_vec(&mut stream_rng(SEED, case), 0.0..1e6, 1..100));
            assert!((-1e-9..=1.0).contains(&g), "case {case}: gini {g}");
        }
    }
}
