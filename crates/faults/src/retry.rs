//! Budget-bounded retry with capped exponential backoff and seeded jitter.
//!
//! The attempt budget is the one setting. The schedule is fixed: 200 ms
//! before the first retry, doubling per retry up to a 10 s cap, each
//! delay scaled by a jitter factor in `[0.5, 1.5]`.
//!
//! The policy is *pure*: [`RetryPolicy::backoff_ms`] maps an attempt index
//! and a unit coin to a delay, so the caller decides where the coin comes
//! from (in the replay layer it is a [`crate::unit_coin`] keyed by the
//! operation number, keeping faulted replays order-free).

use crate::error::ConfigError;

/// Backoff before the first retry, in ms.
const BASE_BACKOFF_MS: u64 = 200;
/// Ceiling on any single backoff, in ms.
const CAP_BACKOFF_MS: u64 = 10_000;
/// Jitter amplitude: the delay is scaled by a factor drawn uniformly from
/// `[1 - JITTER_FRAC, 1 + JITTER_FRAC]`.
const JITTER_FRAC: f64 = 0.5;

/// How a fault-aware operation retries before giving up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed, including the first (1..=32).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 4 }
    }
}

impl RetryPolicy {
    /// Checks the attempt budget (in `1..=32`).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(1..=32).contains(&self.max_attempts) {
            return Err(ConfigError::OutOfRange {
                what: "max_attempts",
                requirement: "must lie in 1..=32",
            });
        }
        Ok(())
    }

    /// The jittered delay before retry number `attempt` (1-based: attempt 1
    /// is the first *retry*). `coin` must be uniform in `[0, 1)`.
    ///
    /// The un-jittered delay is `200 · 2^(attempt-1)` ms capped at 10 s;
    /// jitter scales it by `1 ± 0.5`, and the jittered result is clamped
    /// to the cap again so 10 s really is a ceiling on any single backoff.
    pub fn backoff_ms(&self, attempt: u32, coin: f64) -> u64 {
        let exp = attempt.saturating_sub(1).min(32);
        let raw = BASE_BACKOFF_MS
            .saturating_mul(1u64 << exp.min(63))
            .min(CAP_BACKOFF_MS);
        let factor = 1.0 + JITTER_FRAC * (2.0 * coin - 1.0);
        ((raw as f64 * factor).max(0.0) as u64).min(CAP_BACKOFF_MS)
    }

    /// True when another attempt is allowed after `attempt` attempts have
    /// already failed.
    pub fn allows(&self, attempts_so_far: u32) -> bool {
        attempts_so_far < self.max_attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_until_cap() {
        // A coin of one half is the unjittered delay.
        let p = RetryPolicy::default();
        let delays: Vec<u64> = (1..=8).map(|n| p.backoff_ms(n, 0.5)).collect();
        assert_eq!(
            delays,
            [200, 400, 800, 1600, 3200, 6400, 10_000, 10_000] // capped
        );
        assert_eq!(p.backoff_ms(30, 0.5), CAP_BACKOFF_MS); // no overflow
    }

    #[test]
    fn jitter_scales_within_band() {
        let p = RetryPolicy::default();
        let lo = p.backoff_ms(1, 0.0);
        let hi = p.backoff_ms(1, 0.999_999);
        assert!(lo < BASE_BACKOFF_MS && hi > BASE_BACKOFF_MS);
        assert!(lo as f64 >= BASE_BACKOFF_MS as f64 * 0.5 - 1.0);
        assert!(hi as f64 <= BASE_BACKOFF_MS as f64 * 1.5 + 1.0);
        // The cap is a hard ceiling even under maximal upward jitter: a
        // deep attempt whose raw delay hits the cap must not exceed it
        // after jitter is applied.
        assert_eq!(p.backoff_ms(10, 0.999_999), CAP_BACKOFF_MS);
        assert_eq!(p.backoff_ms(10, 0.5), CAP_BACKOFF_MS);
    }

    #[test]
    fn budget_is_enforced() {
        let p = RetryPolicy { max_attempts: 3 };
        assert!(p.allows(0));
        assert!(p.allows(2));
        assert!(!p.allows(3));
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        let mut p = RetryPolicy { max_attempts: 0 };
        assert!(p.validate().is_err());
        p.max_attempts = 33;
        assert!(p.validate().is_err());
        p.max_attempts = 4;
        assert!(p.validate().is_ok());
    }
}
