//! Deterministic, seeded samplers.
//!
//! Everything the synthetic workload generator draws — inter-operation
//! gaps and RTTs (lognormal), file sizes (exponential mixtures), per-user
//! activity (stretched exponential), hour-of-day (categorical) — is
//! sampled through this module so that a single `u64` seed reproduces a
//! trace bit-for-bit.
//!
//! The one generator is [`ChaCha8Rng`]; [`Rng`] is its word interface plus
//! the typed draws built on it. Samplers are plain structs with a
//! `sample(&self, rng)` method taking any [`Rng`]; no global state, no
//! wall clock.

use std::ops::Range;

/// A source of random 32- and 64-bit words, and the uniform draws built
/// on them.
pub trait Rng {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;

    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// One uniformly drawn value (see [`Standard`] for each type's rule).
    fn random<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// One value uniform in `range`; panics when the range is empty.
    fn random_range<T: UniformInt>(&mut self, range: Range<T>) -> T {
        T::draw_range(self, range.start, range.end)
    }
}

/// Types [`Rng::random`] draws uniformly.
pub trait Standard: Sized {
    /// Draws one value.
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for bool {
    /// The sign bit of one 32-bit word.
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() as i32) < 0
    }
}

/// Unsigned integers [`Rng::random_range`] draws from a `Range`.
pub trait UniformInt: Copy {
    /// Draws uniformly from `[lo, hi)` by 128-bit multiply-shift.
    fn draw_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            fn draw_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "random_range called with an empty range");
                let span = (hi - lo) as u128;
                lo + ((rng.next_u64() as u128 * span) >> 64) as $t
            }
        }
    )*};
}

uniform_int!(u8, u32, u64, usize);

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// The RFC 8439 ChaCha block function cut to 8 rounds, keyed by a 32-byte
/// seed, with a 64-bit block counter and a zero nonce. Output words are
/// consumed in block order; a `u64` is two consecutive words, low word
/// first.
#[derive(Clone, Debug)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    counter: u64,
    block: [u32; 16],
    index: usize,
}

fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl ChaCha8Rng {
    /// Expands `state` into the 32-byte key with PCG32, as rand_core's
    /// `seed_from_u64` does: one output word per 4 key bytes.
    pub fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6_364_136_223_846_793_005;
        const INC: u64 = 11_634_580_027_462_260_723;
        let mut key = [0u32; 8];
        for k in &mut key {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            *k = xorshifted.rotate_right((state >> 59) as u32);
        }
        Self {
            key,
            counter: 0,
            block: [0; 16],
            index: 16,
        }
    }

    fn refill(&mut self) {
        let mut input = [0u32; 16];
        input[..4].copy_from_slice(&SIGMA);
        input[4..12].copy_from_slice(&self.key);
        input[12] = self.counter as u32;
        input[13] = (self.counter >> 32) as u32;
        let mut s = input;
        for _ in 0..4 {
            quarter(&mut s, 0, 4, 8, 12);
            quarter(&mut s, 1, 5, 9, 13);
            quarter(&mut s, 2, 6, 10, 14);
            quarter(&mut s, 3, 7, 11, 15);
            quarter(&mut s, 0, 5, 10, 15);
            quarter(&mut s, 1, 6, 11, 12);
            quarter(&mut s, 2, 7, 8, 13);
            quarter(&mut s, 3, 4, 9, 14);
        }
        for (out, (w, i)) in self.block.iter_mut().zip(s.iter().zip(&input)) {
            *out = w.wrapping_add(*i);
        }
        self.counter = self.counter.wrapping_add(1);
        self.index = 0;
    }
}

impl Rng for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index == 16 {
            self.refill();
        }
        let w = self.block[self.index];
        self.index += 1;
        w
    }

    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        (hi << 32) | lo
    }
}

/// Derives independent sub-seeds from a master seed using SplitMix64 —
/// the standard seed-sequencing construction. Stream `k` of seed `s` is
/// stable across runs and platforms.
pub fn split_seed(master: u64, stream: u64) -> u64 {
    let mut z = master.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Creates the deterministic RNG for a named stream of the master seed.
pub fn stream_rng(master: u64, stream: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(split_seed(master, stream))
}

/// Standard normal sample via Box–Muller (one value per call; simple and
/// branch-free determinism beats caching the second value here).
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-300);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Lognormal distribution: `exp(N(mu, sigma²))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Mean of the underlying normal (of ln X).
    pub mu: f64,
    /// Std-dev of the underlying normal.
    pub sigma: f64,
}

impl LogNormal {
    /// Creates the sampler; panics if `sigma <= 0`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive");
        Self { mu, sigma }
    }

    /// Builds the sampler from the *median* of X and the std-dev of ln X —
    /// often the natural parameterisation for latency-like quantities
    /// (e.g. "median RTT ≈ 100 ms", Fig. 14).
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive");
        Self::new(median.ln(), sigma)
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }

    /// Distribution median `e^mu`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// Distribution mean `e^{mu + sigma²/2}`.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

/// Exponential distribution with the given mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    /// Mean (= 1/rate).
    pub mean: f64,
}

impl Exponential {
    /// Creates the sampler; panics if `mean <= 0`.
    pub fn new(mean: f64) -> Self {
        assert!(mean > 0.0, "mean must be positive");
        Self { mean }
    }

    /// Draws one sample by inversion.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        -self.mean * rng.random::<f64>().max(1e-300).ln()
    }
}

/// Categorical distribution over `0..weights.len()`.
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    cumulative: Vec<f64>,
}

impl Categorical {
    /// Builds from non-negative weights (not necessarily normalised).
    /// Panics if all weights are zero or any is negative/non-finite.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "need at least one weight");
        assert!(
            weights.iter().all(|&w| w.is_finite() && w >= 0.0),
            "weights must be finite and non-negative"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            acc += w / total;
            cumulative.push(acc);
        }
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        Self { cumulative }
    }

    /// Draws an index.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.random();
        self.cumulative.partition_point(|&c| c <= u)
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Never true: construction requires at least one weight.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Probability of category `i`.
    pub fn prob(&self, i: usize) -> f64 {
        let prev = if i == 0 { 0.0 } else { self.cumulative[i - 1] };
        self.cumulative[i] - prev
    }
}

/// Mixture of exponentials sampler — matches
/// [`crate::expmix::ExponentialMixture`] and is how the generator plants
/// the Table 2 file-size model.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpMixtureSampler {
    choose: Categorical,
    means: Vec<f64>,
}

impl ExpMixtureSampler {
    /// Builds from `(weight, mean)` pairs.
    pub fn new(components: &[(f64, f64)]) -> Self {
        assert!(!components.is_empty(), "need at least one component");
        assert!(
            components.iter().all(|&(_, m)| m > 0.0),
            "component means must be positive"
        );
        let weights: Vec<f64> = components.iter().map(|&(w, _)| w).collect();
        let means = components.iter().map(|&(_, m)| m).collect();
        Self {
            choose: Categorical::new(&weights),
            means,
        }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        let j = self.choose.sample(rng);
        -self.means[j] * rng.random::<f64>().max(1e-300).ln()
    }

    /// Mixture mean.
    pub fn mean(&self) -> f64 {
        (0..self.means.len())
            .map(|j| self.choose.prob(j) * self.means[j])
            .sum()
    }
}

/// Stretched-exponential sampler by CCDF inversion:
/// `P(X ≥ x) = exp(−(x/x₀)^c)` inverts to `x = x₀·(−ln U)^{1/c}`.
///
/// Used to plant per-user activity levels with the Fig. 10 shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StretchedExpSampler {
    /// Characteristic scale x₀ > 0.
    pub x0: f64,
    /// Stretch factor c ∈ (0, 2].
    pub c: f64,
}

impl StretchedExpSampler {
    /// Creates the sampler; panics on non-positive parameters.
    pub fn new(x0: f64, c: f64) -> Self {
        assert!(x0 > 0.0 && c > 0.0, "x0 and c must be positive");
        Self { x0, c }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        let u: f64 = rng.random::<f64>().max(1e-300);
        self.x0 * (-u.ln()).powf(1.0 / self.c)
    }

    /// Model CCDF (for tests / GoF).
    pub fn ccdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            (-(x / self.x0).powf(self.c)).exp()
        }
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s` — used for
/// download popularity (the §3.1.4 locality-of-interest implication).
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Builds the CDF table for `n` ranks with exponent `s > 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "need at least one rank");
        assert!(s > 0.0, "exponent must be positive");
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cumulative.push(acc);
        }
        let total = acc;
        for c in &mut cumulative {
            *c /= total;
        }
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        Self { cumulative }
    }

    /// Draws a rank in `1..=n`.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.random();
        self.cumulative.partition_point(|&c| c <= u) + 1
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.cumulative.len()
    }
}

/// One value uniform in the half-open `range`.
#[cfg(test)]
pub(crate) fn uniform(rng: &mut impl Rng, range: Range<f64>) -> f64 {
    range.start + (range.end - range.start) * rng.random::<f64>()
}

/// A vector of uniform values in `range`, its length uniform in `len`.
#[cfg(test)]
pub(crate) fn uniform_vec(rng: &mut impl Rng, range: Range<f64>, len: Range<usize>) -> Vec<f64> {
    let n = rng.random_range(len);
    (0..n).map(|_| uniform(rng, range.clone())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn words(rng: &mut ChaCha8Rng) -> [u64; 4] {
        [
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
        ]
    }

    // Known answers for the generator: a changed stream fails these, not
    // only the benchmark digests.
    #[test]
    fn chacha8_known_answers() {
        assert_eq!(
            words(&mut rng(0)),
            [
                0xb585_f767_a79a_3b6c,
                0x7746_a55f_bad8_c037,
                0xb2fb_0d32_81e2_a6e6,
                0x0f67_60a4_8f9b_887c,
            ]
        );
        assert_eq!(
            words(&mut stream_rng(2016, 0)),
            [
                0xb3e5_1f25_e76e_ed1a,
                0xd18e_2bc5_adda_445d,
                0xb011_54dd_4c57_6b95,
                0x5de7_393e_2a7b_fd1e,
            ]
        );
    }

    #[test]
    fn next_u64_straddles_the_block_boundary() {
        let mut r = rng(1);
        for _ in 0..15 {
            r.next_u32();
        }
        assert_eq!(r.next_u64(), 0x0ab1_6013_2714_3f42);
    }

    #[test]
    fn typed_draws_known_answers() {
        let mut r = stream_rng(7, 3);
        assert_eq!(r.random::<f64>(), 0.857_139_766_334_230_8);
        assert!(!r.random::<bool>());
        let picks: Vec<u64> = (0..6).map(|_| r.random_range(0..10u64)).collect();
        assert_eq!(picks, [7, 5, 6, 2, 4, 8]);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn random_range_rejects_an_empty_range() {
        let _ = rng(0).random_range(3..3u32);
    }

    #[test]
    fn a_draw_is_the_same_value_in_every_width() {
        // One 64-bit word and a multiply-shift whatever the type, so a
        // narrower draw over a range it holds reads the same value.
        let (mut a, mut b) = (rng(5), rng(5));
        for _ in 0..1000 {
            let wide = a.random_range(0u64..64);
            assert_eq!(u64::from(b.random_range(0u8..64)), wide);
        }
    }

    #[test]
    fn split_seed_streams_differ() {
        let a = split_seed(42, 0);
        let b = split_seed(42, 1);
        let c = split_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Stable value (regression pin for cross-run determinism).
        assert_eq!(split_seed(0, 0), split_seed(0, 0));
    }

    #[test]
    fn stream_rng_is_deterministic() {
        let mut a = stream_rng(7, 3);
        let mut b = stream_rng(7, 3);
        for _ in 0..10 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = rng(1);
        let n = 50_000;
        let xs: Vec<f64> = (0..n)
            .map(|_| 5.0 + 2.0 * standard_normal(&mut r))
            .collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn lognormal_median() {
        let mut r = rng(2);
        let d = LogNormal::from_median(100.0, 0.8);
        let mut xs: Vec<f64> = (0..20_001).map(|_| d.sample(&mut r)).collect();
        xs.sort_by(f64::total_cmp);
        let med = xs[xs.len() / 2];
        assert!((med - 100.0).abs() / 100.0 < 0.05, "median {med}");
        assert!(xs.iter().all(|&x| x > 0.0));
        assert!((d.median() - 100.0).abs() < 1e-9);
        assert!(d.mean() > d.median());
    }

    #[test]
    fn exponential_mean() {
        let mut r = rng(3);
        let d = Exponential::new(7.0);
        let n = 50_000;
        let mean = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 7.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn categorical_frequencies() {
        let mut r = rng(4);
        let d = Categorical::new(&[1.0, 3.0, 6.0]);
        let mut counts = [0u32; 3];
        let n = 60_000;
        for _ in 0..n {
            counts[d.sample(&mut r)] += 1;
        }
        assert!((counts[0] as f64 / n as f64 - 0.1).abs() < 0.01);
        assert!((counts[1] as f64 / n as f64 - 0.3).abs() < 0.01);
        assert!((counts[2] as f64 / n as f64 - 0.6).abs() < 0.01);
        assert!((d.prob(1) - 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero")]
    fn categorical_rejects_all_zero() {
        let _ = Categorical::new(&[0.0, 0.0]);
    }

    #[test]
    fn expmixture_mean_and_component_shares() {
        let mut r = rng(5);
        let d = ExpMixtureSampler::new(&[(0.91, 1.5), (0.07, 13.1), (0.02, 77.4)]);
        let expected_mean = 0.91 * 1.5 + 0.07 * 13.1 + 0.02 * 77.4;
        assert!((d.mean() - expected_mean).abs() < 1e-9);
        let n = 100_000;
        let mean = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        assert!(
            (mean - expected_mean).abs() / expected_mean < 0.05,
            "{mean}"
        );
    }

    #[test]
    fn stretched_exp_ccdf_matches_samples() {
        let mut r = rng(7);
        let d = StretchedExpSampler::new(50.0, 0.3);
        let n = 50_000usize;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        // Empirical CCDF at a few probes vs model.
        for &probe in &[1.0, 10.0, 100.0, 1000.0] {
            let emp = xs.iter().filter(|&&x| x >= probe).count() as f64 / n as f64;
            assert!(
                (emp - d.ccdf(probe)).abs() < 0.01,
                "probe {probe}: emp {emp} model {}",
                d.ccdf(probe)
            );
        }
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let mut r = rng(8);
        let d = Zipf::new(1000, 1.0);
        let n = 50_000;
        let mut rank1 = 0u32;
        for _ in 0..n {
            let k = d.sample(&mut r);
            assert!((1..=1000).contains(&k));
            if k == 1 {
                rank1 += 1;
            }
        }
        // H(1000) ≈ 7.485, so P(rank 1) ≈ 0.1336.
        let frac = rank1 as f64 / n as f64;
        assert!((frac - 0.1336).abs() < 0.01, "{frac}");
    }

    #[test]
    fn samplers_are_reproducible() {
        let d = ExpMixtureSampler::new(&[(0.5, 1.0), (0.5, 10.0)]);
        let a: Vec<f64> = {
            let mut r = rng(99);
            (0..20).map(|_| d.sample(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = rng(99);
            (0..20).map(|_| d.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
