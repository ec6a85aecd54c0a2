//! Binned histograms.
//!
//! Figure 3 of the paper is a histogram of inter-file-operation times on a
//! *logarithmically scaled* axis; [`LogHistogram`] reproduces that binning.
//! [`Histogram`] is the plain linear-bin variant used elsewhere.

/// Fixed-width linear-bin histogram over `[lo, hi)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            // Floating point can land exactly on the upper edge.
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Raw per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations below `lo`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above `hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations pushed (including under/overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// `(bin center, density)` pairs where density integrates to the
    /// in-range fraction of the sample.
    pub fn density(&self) -> Vec<(f64, f64)> {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        let n = self.total.max(1) as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.bin_center(i), c as f64 / (n * w)))
            .collect()
    }
}

/// Histogram with logarithmically spaced bin edges over `[lo, hi)`.
///
/// This is the natural binning for quantities spanning many decades, like
/// the paper's inter-operation times (10 ms … days, Fig. 3) and file sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    log_lo: f64,
    log_hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl LogHistogram {
    /// Creates a histogram with `bins` log-spaced bins over `[lo, hi)`.
    /// Both bounds must be positive.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo > 0.0 && hi > lo, "log histogram needs 0 < lo < hi");
        Self {
            log_lo: lo.ln(),
            log_hi: hi.ln(),
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Adds one observation; non-positive values count as underflow.
    pub fn push(&mut self, x: f64) {
        self.total += 1;
        if x <= 0.0 || x.ln() < self.log_lo {
            self.underflow += 1;
            return;
        }
        let lx = x.ln();
        if lx >= self.log_hi {
            self.overflow += 1;
            return;
        }
        let w = (self.log_hi - self.log_lo) / self.counts.len() as f64;
        let idx = (((lx - self.log_lo) / w) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Raw per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations pushed (including under/overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Observations below `lo` (or non-positive).
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above `hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Geometric center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.log_hi - self.log_lo) / self.counts.len() as f64;
        (self.log_lo + (i as f64 + 0.5) * w).exp()
    }

    /// Lower edge of bin `i` (edge `bins()` is the upper bound).
    pub fn bin_edge(&self, i: usize) -> f64 {
        let w = (self.log_hi - self.log_lo) / self.counts.len() as f64;
        (self.log_lo + i as f64 * w).exp()
    }

    /// `(bin center, fraction of in-range mass)` pairs.
    pub fn mass(&self) -> Vec<(f64, f64)> {
        let in_range: u64 = self.counts.iter().sum();
        let n = in_range.max(1) as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.bin_center(i), c as f64 / n))
            .collect()
    }

    /// Index of the deepest local minimum ("valley") of the smoothed count
    /// profile, restricted to bins strictly between the two highest local
    /// maxima.
    ///
    /// Section 3.1.1 of the paper identifies the session threshold τ as the
    /// valley of exactly such a histogram (≈1 hour, between the ~10 s
    /// within-session mode and the ~1 day between-session mode). Returns
    /// `None` when the profile has no interior valley (e.g. unimodal data).
    pub fn valley_bin(&self) -> Option<usize> {
        let smoothed = smooth3(&self.counts);
        // Local maxima.
        let mut maxima: Vec<(usize, f64)> = Vec::new();
        for i in 1..smoothed.len().saturating_sub(1) {
            if smoothed[i] >= smoothed[i - 1] && smoothed[i] >= smoothed[i + 1] && smoothed[i] > 0.0
            {
                maxima.push((i, smoothed[i]));
            }
        }
        if maxima.len() < 2 {
            return None;
        }
        // Primary mode: the global maximum.
        let &(p1, h1) = maxima.iter().max_by(|a, b| f64::total_cmp(&a.1, &b.1))?;
        // Secondary mode: the tallest other local maximum separated from
        // the primary by a *genuine dip* — the minimum between them must
        // fall below `DIP` of the lower peak. Without this, jagged bins
        // inside one mode masquerade as bimodality.
        const DIP: f64 = 0.5;
        let mut best: Option<(usize, f64, usize)> = None; // (p2, h2, valley)
        for &(p2, h2) in &maxima {
            if p2.abs_diff(p1) <= 2 {
                continue;
            }
            let (lo, hi) = if p1 < p2 { (p1, p2) } else { (p2, p1) };
            let min_val = (lo + 1..hi)
                .map(|i| smoothed[i])
                .fold(f64::INFINITY, f64::min);
            // The minimum is often a flat region (an empty gap between the
            // modes); take its middle, as a reader of Fig. 3 would.
            let ties: Vec<usize> = (lo + 1..hi)
                .filter(|&i| smoothed[i] <= min_val + 1e-12)
                .collect();
            let valley = ties[ties.len() / 2];
            if smoothed[valley] < DIP * h1.min(h2) {
                match best {
                    Some((_, bh, _)) if bh >= h2 => {}
                    _ => best = Some((p2, h2, valley)),
                }
            }
        }
        best.map(|(_, _, valley)| valley)
    }

    /// Value (bin center) of the valley found by [`Self::valley_bin`].
    pub fn valley_value(&self) -> Option<f64> {
        self.valley_bin().map(|i| self.bin_center(i))
    }
}

/// Simple 3-point moving average used before valley detection so single
/// noisy bins do not masquerade as modes.
fn smooth3(counts: &[u64]) -> Vec<f64> {
    let n = counts.len();
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(1);
            let hi = (i + 1).min(n - 1);
            let span = (hi - lo + 1) as f64;
            counts[lo..=hi].iter().map(|&c| c as f64).sum::<f64>() / span
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{stream_rng, uniform_vec};

    #[test]
    fn linear_binning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        assert!(h.counts().iter().all(|&c| c == 1));
        assert_eq!(h.total(), 10);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn linear_under_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(-1.0);
        h.push(2.0);
        h.push(1.0); // exactly hi is overflow
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
    }

    #[test]
    fn density_integrates_to_one() {
        let mut h = Histogram::new(0.0, 1.0, 20);
        for i in 0..1000 {
            h.push(i as f64 / 1000.0);
        }
        let w = 1.0 / 20.0;
        let integral: f64 = h.density().iter().map(|&(_, d)| d * w).sum();
        assert!((integral - 1.0).abs() < 1e-9);
    }

    #[test]
    fn log_binning_decades() {
        let mut h = LogHistogram::new(1.0, 1000.0, 3);
        h.push(2.0); // decade 1
        h.push(30.0); // decade 2
        h.push(300.0); // decade 3
        assert_eq!(h.counts(), &[1, 1, 1]);
    }

    #[test]
    fn log_histogram_rejects_nonpositive_as_underflow() {
        let mut h = LogHistogram::new(1.0, 100.0, 4);
        h.push(0.0);
        h.push(-5.0);
        assert_eq!(h.underflow(), 2);
    }

    #[test]
    fn log_bin_edges_monotone() {
        let h = LogHistogram::new(0.01, 1e6, 40);
        for i in 0..40 {
            assert!(h.bin_edge(i) < h.bin_edge(i + 1));
            let c = h.bin_center(i);
            assert!(h.bin_edge(i) < c && c < h.bin_edge(i + 1));
        }
    }

    #[test]
    fn valley_detection_bimodal() {
        // Two modes (around 10 and 10_000) with a gap between.
        let mut h = LogHistogram::new(1.0, 1e6, 30);
        for _ in 0..1000 {
            h.push(10.0);
            h.push(12.0);
            h.push(8.0);
            h.push(10_000.0);
            h.push(12_000.0);
            h.push(9_000.0);
        }
        // A thin bridge so interior bins exist.
        for _ in 0..5 {
            h.push(300.0);
        }
        let v = h.valley_value().expect("bimodal data must have a valley");
        assert!(v > 20.0 && v < 9_000.0, "valley {v} out of range");
    }

    #[test]
    fn valley_detection_unimodal_is_none() {
        let mut h = LogHistogram::new(1.0, 1e4, 20);
        for i in 0..1000 {
            h.push(50.0 + (i % 10) as f64);
        }
        assert_eq!(h.valley_bin(), None);
    }

    const SEED: u64 = 0x5EED;

    #[test]
    fn prop_total_conserved() {
        for case in 0..256 {
            let xs = uniform_vec(&mut stream_rng(SEED, case), -1e3..1e3, 0..200);
            let mut h = Histogram::new(-100.0, 100.0, 16);
            for &x in &xs {
                h.push(x);
            }
            let binned: u64 = h.counts().iter().sum();
            let total = binned + h.underflow() + h.overflow();
            assert_eq!(total, xs.len() as u64, "case {case}");
        }
    }

    #[test]
    fn prop_log_total_conserved() {
        for case in 0..256 {
            let xs = uniform_vec(&mut stream_rng(SEED, case), 1e-3..1e6, 0..200);
            let mut h = LogHistogram::new(0.01, 1e5, 25);
            for &x in &xs {
                h.push(x);
            }
            let binned: u64 = h.counts().iter().sum();
            let total = binned + h.underflow() + h.overflow();
            assert_eq!(total, xs.len() as u64, "case {case}");
        }
    }
}
