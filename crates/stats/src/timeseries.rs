//! Hourly time series and diurnal profiles.
//!
//! Figure 1 of the paper bins one week of requests into one-hour frames and
//! plots (a) transferred volume and (b) file counts per hour, showing a
//! diurnal pattern with a surge around 11 PM. [`HourlySeries`] is that
//! binning; [`DiurnalProfile`] is the hour-of-day aggregate used both for
//! analysis and as the intensity profile of the synthetic generator.

/// Seconds per hour.
pub const HOUR_SECS: u64 = 3600;
/// Seconds per day.
pub const DAY_SECS: u64 = 86_400;

/// A quantity accumulated into one-hour bins over a fixed horizon starting
/// at time zero (trace-relative seconds).
#[derive(Debug, Clone, PartialEq)]
pub struct HourlySeries {
    bins: Vec<f64>,
}

impl HourlySeries {
    /// Creates a series covering `horizon_secs` seconds (rounded up to
    /// whole hours).
    pub fn new(horizon_secs: u64) -> Self {
        let hours = horizon_secs.div_ceil(HOUR_SECS).max(1);
        Self {
            bins: vec![0.0; hours as usize],
        }
    }

    /// Adds `amount` at trace-relative time `t_secs`; amounts beyond the
    /// horizon are dropped (the generator clamps sessions to the horizon,
    /// so in practice this only trims the final in-flight transfer).
    pub fn add(&mut self, t_secs: u64, amount: f64) {
        let idx = (t_secs / HOUR_SECS) as usize;
        if idx < self.bins.len() {
            self.bins[idx] += amount;
        }
    }

    /// Adds another series bin-wise. Both series must cover the same
    /// horizon. The pipeline's amounts are integer-valued (byte and file
    /// counts well below 2⁵³), so per-bin sums are exact and merging
    /// per-shard series in any grouping reproduces the sequential
    /// accumulation bit for bit.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.bins.len(),
            other.bins.len(),
            "cannot merge hourly series with different horizons"
        );
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            // mcs-lint: allow(float-merge, bins hold integer-valued f64 below 2^53 so bin-wise sums are exact)
            *a += b;
        }
    }

    /// Per-hour totals.
    pub fn bins(&self) -> &[f64] {
        &self.bins
    }

    /// Number of hourly bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True when the horizon is zero hours (cannot happen via `new`).
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Sum over all bins.
    pub fn total(&self) -> f64 {
        self.bins.iter().sum()
    }

    /// Largest bin value and its index.
    pub fn peak(&self) -> (usize, f64) {
        self.bins
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| f64::total_cmp(&a.1, &b.1))
            .unwrap_or((0, 0.0))
    }

    /// Peak-to-mean ratio — the over-provisioning factor §2.4 alludes to
    /// ("server capacity is often designed to bear the peak load").
    pub fn peak_to_mean(&self) -> f64 {
        let mean = self.total() / self.bins.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            self.peak().1 / mean
        }
    }

    /// Autocorrelation of the hourly series at `lag` bins. A strong
    /// diurnal pattern shows up as a high value at lag 24 (Fig. 1's
    /// day-over-day repetition). Returns `NaN` when the series is too
    /// short or constant.
    pub fn autocorrelation(&self, lag: usize) -> f64 {
        let n = self.bins.len();
        if lag == 0 || lag >= n {
            return f64::NAN;
        }
        let mean = self.total() / n as f64;
        let var: f64 = self.bins.iter().map(|&v| (v - mean) * (v - mean)).sum();
        if var == 0.0 {
            return f64::NAN;
        }
        let cov: f64 = (0..n - lag)
            .map(|i| (self.bins[i] - mean) * (self.bins[i + lag] - mean))
            .sum();
        cov / var
    }

    /// Collapses the series into an hour-of-day profile (mean across days).
    pub fn diurnal(&self) -> DiurnalProfile {
        let mut sums = [0.0f64; 24];
        let mut counts = [0u32; 24];
        for (i, &v) in self.bins.iter().enumerate() {
            let h = i % 24;
            sums[h] += v;
            counts[h] += 1;
        }
        let mut hours = [0.0f64; 24];
        for h in 0..24 {
            if counts[h] > 0 {
                hours[h] = sums[h] / counts[h] as f64;
            }
        }
        DiurnalProfile { hours }
    }
}

/// Mean quantity per hour-of-day (0 = midnight .. 23 = 11 PM).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalProfile {
    /// Mean value per hour of day.
    pub hours: [f64; 24],
}

impl DiurnalProfile {
    /// Hour of day with the highest mean load.
    pub fn peak_hour(&self) -> usize {
        self.hours
            .iter()
            .enumerate()
            .max_by(|a, b| f64::total_cmp(a.1, b.1))
            .map_or(0, |(h, _)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hourly_binning() {
        let mut s = HourlySeries::new(3 * HOUR_SECS);
        s.add(0, 1.0);
        s.add(3599, 2.0);
        s.add(3600, 4.0);
        s.add(2 * HOUR_SECS + 1, 8.0);
        assert_eq!(s.bins(), &[3.0, 4.0, 8.0]);
        assert_eq!(s.total(), 15.0);
    }

    #[test]
    fn merge_equals_single_series_accumulation() {
        let mut whole = HourlySeries::new(3 * HOUR_SECS);
        let mut left = HourlySeries::new(3 * HOUR_SECS);
        let mut right = HourlySeries::new(3 * HOUR_SECS);
        for (i, &(t, v)) in [(0, 1.0), (10, 2.0), (3700, 4.0), (7300, 8.0)]
            .iter()
            .enumerate()
        {
            whole.add(t, v);
            if i % 2 == 0 {
                left.add(t, v);
            } else {
                right.add(t, v);
            }
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    #[should_panic(expected = "different horizons")]
    fn merge_rejects_mismatched_horizons() {
        let mut a = HourlySeries::new(HOUR_SECS);
        a.merge(&HourlySeries::new(2 * HOUR_SECS));
    }

    #[test]
    fn out_of_horizon_dropped() {
        let mut s = HourlySeries::new(HOUR_SECS);
        s.add(HOUR_SECS + 5, 1.0);
        assert_eq!(s.total(), 0.0);
    }

    #[test]
    fn horizon_rounds_up() {
        let s = HourlySeries::new(HOUR_SECS + 1);
        assert_eq!(s.len(), 2);
        assert_eq!(HourlySeries::new(0).len(), 1);
    }

    #[test]
    fn peak_and_ratio() {
        let mut s = HourlySeries::new(4 * HOUR_SECS);
        s.add(0, 1.0);
        s.add(HOUR_SECS, 7.0);
        s.add(2 * HOUR_SECS, 1.0);
        s.add(3 * HOUR_SECS, 1.0);
        assert_eq!(s.peak(), (1, 7.0));
        assert!((s.peak_to_mean() - 7.0 / 2.5).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_detects_daily_period() {
        // Strong sinusoid with a 24 h period over a week.
        let mut s = HourlySeries::new(7 * DAY_SECS);
        for h in 0..(7 * 24) {
            let v = 10.0 + 8.0 * (2.0 * std::f64::consts::PI * (h % 24) as f64 / 24.0).sin();
            s.add(h as u64 * HOUR_SECS, v);
        }
        // The standard biased ACF estimator tops out at (n-lag)/n ≈ 0.86
        // for a perfect 24 h period over one week.
        assert!(s.autocorrelation(24) > 0.8, "{}", s.autocorrelation(24));
        // Half-period is anti-correlated.
        assert!(s.autocorrelation(12) < 0.0);
        // Degenerate cases.
        assert!(s.autocorrelation(0).is_nan());
        assert!(s.autocorrelation(10_000).is_nan());
        let flat = HourlySeries::new(2 * DAY_SECS);
        assert!(flat.autocorrelation(24).is_nan());
    }

    #[test]
    fn diurnal_collapse_over_days() {
        // Two days; hour 23 gets load 10 both days, others zero.
        let mut s = HourlySeries::new(2 * DAY_SECS);
        s.add(23 * HOUR_SECS, 10.0);
        s.add(DAY_SECS + 23 * HOUR_SECS, 10.0);
        let d = s.diurnal();
        assert_eq!(d.peak_hour(), 23);
        assert!((d.hours[23] - 10.0).abs() < 1e-12);
        assert_eq!(d.hours[0], 0.0);
    }
}
