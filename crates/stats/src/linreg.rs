//! Ordinary least-squares linear regression.
//!
//! Used for the Fig. 5b observation that store-only session volume grows
//! linearly in the number of stored files with slope ≈ 1.5 MB (the average
//! file size), and as the inner step of the stretched-exponential fit.

/// Result of a simple `y = slope·x + intercept` least-squares fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Slope.
    pub slope: f64,
    /// Intercept.
    pub intercept: f64,
    /// Coefficient of determination R² ∈ [0, 1] (0 when y is constant and
    /// perfectly predicted, by convention 1 in that case).
    pub r_squared: f64,
    /// Number of points.
    pub n: usize,
}

impl LinearFit {
    /// Fits `ys ~ xs`. Panics on length mismatch or fewer than 2 points.
    pub fn fit(xs: &[f64], ys: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "x/y length mismatch");
        assert!(xs.len() >= 2, "need at least two points");
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        let mut syy = 0.0;
        for (&x, &y) in xs.iter().zip(ys) {
            let dx = x - mx;
            let dy = y - my;
            sxx += dx * dx;
            sxy += dx * dy;
            syy += dy * dy;
        }
        let slope = if sxx == 0.0 { 0.0 } else { sxy / sxx };
        let intercept = my - slope * mx;
        let ss_res: f64 = xs
            .iter()
            .zip(ys)
            .map(|(&x, &y)| {
                let e = y - (slope * x + intercept);
                e * e
            })
            .sum();
        let r_squared = if syy == 0.0 {
            1.0
        } else {
            (1.0 - ss_res / syy).clamp(0.0, 1.0)
        };
        Self {
            slope,
            intercept,
            r_squared,
            n: xs.len(),
        }
    }

    /// Fits a line through the origin (`y = slope·x`), appropriate when the
    /// model demands `f(0) = 0` — e.g. a session with zero files transfers
    /// zero bytes.
    pub fn fit_through_origin(xs: &[f64], ys: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "x/y length mismatch");
        assert!(!xs.is_empty(), "need at least one point");
        let sxy: f64 = xs.iter().zip(ys).map(|(&x, &y)| x * y).sum();
        let sxx: f64 = xs.iter().map(|&x| x * x).sum();
        let slope = if sxx == 0.0 { 0.0 } else { sxy / sxx };
        let my = ys.iter().sum::<f64>() / ys.len() as f64;
        let syy: f64 = ys.iter().map(|&y| (y - my) * (y - my)).sum();
        let ss_res: f64 = xs
            .iter()
            .zip(ys)
            .map(|(&x, &y)| {
                let e = y - slope * x;
                e * e
            })
            .sum();
        let r_squared = if syy == 0.0 {
            1.0
        } else {
            (1.0 - ss_res / syy).clamp(0.0, 1.0)
        };
        Self {
            slope,
            intercept: 0.0,
            r_squared,
            n: xs.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{stream_rng, uniform, uniform_vec};

    #[test]
    fn exact_line() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 3.0 * x - 2.0).collect();
        let f = LinearFit::fit(&xs, &ys);
        assert!((f.slope - 3.0).abs() < 1e-12);
        assert!((f.intercept + 2.0).abs() < 1e-12);
        assert!((f.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_r2_below_one() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [0.1, 0.9, 2.2, 2.8, 4.1];
        let f = LinearFit::fit(&xs, &ys);
        assert!(f.r_squared > 0.98 && f.r_squared < 1.0);
        assert!((f.slope - 1.0).abs() < 0.1);
    }

    #[test]
    fn through_origin() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [1.5, 3.0, 4.5]; // slope exactly 1.5 (paper's MB/file)
        let f = LinearFit::fit_through_origin(&xs, &ys);
        assert!((f.slope - 1.5).abs() < 1e-12);
        assert_eq!(f.intercept, 0.0);
        assert!((f.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_y() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [5.0, 5.0, 5.0];
        let f = LinearFit::fit(&xs, &ys);
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.intercept, 5.0);
        assert_eq!(f.r_squared, 1.0);
    }

    const SEED: u64 = 0x5EED;

    #[test]
    fn prop_recovers_any_exact_line() {
        for case in 0..256 {
            let mut rng = stream_rng(SEED, case);
            let slope = uniform(&mut rng, -100.0..100.0);
            let intercept = uniform(&mut rng, -100.0..100.0);
            let xs: Vec<f64> = (0..20).map(|i| i as f64 * 0.5).collect();
            let ys: Vec<f64> = xs.iter().map(|&x| slope * x + intercept).collect();
            let f = LinearFit::fit(&xs, &ys);
            assert!((f.slope - slope).abs() < 1e-6, "case {case}: slope {slope}");
            assert!(
                (f.intercept - intercept).abs() < 1e-6,
                "case {case}: intercept {intercept}"
            );
        }
    }

    #[test]
    fn prop_r2_in_unit_interval() {
        for case in 0..256 {
            let mut rng = stream_rng(SEED, case);
            let xs = uniform_vec(&mut rng, -1e3..1e3, 2..50);
            let ys = uniform_vec(&mut rng, -1e3..1e3, 2..50);
            let n = xs.len().min(ys.len());
            let f = LinearFit::fit(&xs[..n], &ys[..n]);
            assert!(
                (0.0..=1.0).contains(&f.r_squared),
                "case {case}: r² {}",
                f.r_squared
            );
        }
    }
}
