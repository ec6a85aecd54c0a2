//! Seeded fault plans: *when* each component misbehaves.
//!
//! A [`FaultPlan`] is materialised once from a [`FaultPlanConfig`] by a
//! sequential pass per component — outage start gaps and durations are
//! exponential draws from dedicated [`stream_rng`] streams, so the timeline
//! for front-end 3 does not depend on how many draws front-end 2 consumed,
//! and the whole plan is bit-identical for a given `(seed, config)` at any
//! thread count.
//!
//! Per-*send* fault decisions (does this chunk send time out?) are not
//! drawn from an RNG at all: they are pure hashes of
//! `(seed, stream, op, chunk, send)` via [`unit_coin`], so concurrent
//! replays that interleave operations differently still flip the same
//! coins.

use mcs_stats::rng::{split_seed, stream_rng, Exponential};

use crate::error::ConfigError;
use crate::windows::Windows;

const DAY_MS: f64 = 86_400_000.0;

// Stream ids for schedule generation (one RNG per component instance).
const STREAM_FE_OUTAGE: u64 = 0xFA01_0000;
const STREAM_FE_BROWNOUT: u64 = 0xFA02_0000;
const STREAM_METADATA: u64 = 0xFA03_0000;

/// Maps a SplitMix64 output to a uniform in `[0, 1)` using the top 53 bits.
fn to_unit(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// A stateless fault coin: uniform in `[0, 1)`, a pure function of
/// `(seed, stream, k)`.
///
/// Unlike a draw from a shared RNG, the value for operation `k` is
/// independent of how many coins other operations flipped — this is what
/// keeps faulted replays order-free and hence bit-identical across thread
/// counts (the same property `mcs-lint` R2 guards for clocks).
pub fn unit_coin(seed: u64, stream: u64, k: u64) -> f64 {
    to_unit(split_seed(split_seed(seed, stream), k))
}

/// Knobs for [`FaultPlan::generate`]. Rates are events per simulated day;
/// a rate of zero disables that fault class entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlanConfig {
    /// Master seed; the same seed always yields the same plan.
    pub seed: u64,
    /// Plan horizon in milliseconds; no window extends past it.
    pub horizon_ms: u64,
    /// Number of front-ends to schedule faults for (>= 1).
    pub n_frontends: usize,
    /// Full outages per front-end per day (requests fail, failover kicks in).
    pub frontend_outages_per_day: f64,
    /// Mean outage duration in ms.
    pub frontend_outage_mean_ms: f64,
    /// Brownouts per front-end per day (chunk sends may time out, see
    /// [`FaultPlanConfig::chunk_timeout_prob`]).
    pub frontend_brownouts_per_day: f64,
    /// Mean brownout duration in ms.
    pub frontend_brownout_mean_ms: f64,
    /// Probability a chunk send times out while its front-end is browned
    /// out, per chunk send (in `[0, 1]`).
    pub chunk_timeout_prob: f64,
    /// Metadata-server unavailability windows per day.
    pub metadata_outages_per_day: f64,
    /// Mean metadata outage duration in ms.
    pub metadata_outage_mean_ms: f64,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            horizon_ms: 86_400_000, // one day
            n_frontends: 8,
            frontend_outages_per_day: 2.0,
            frontend_outage_mean_ms: 120_000.0, // 2 min
            frontend_brownouts_per_day: 6.0,
            frontend_brownout_mean_ms: 300_000.0, // 5 min
            chunk_timeout_prob: 0.5,
            metadata_outages_per_day: 0.5,
            metadata_outage_mean_ms: 30_000.0,
        }
    }
}

impl FaultPlanConfig {
    /// Checks every knob; [`FaultPlan::generate`] calls this first.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_frontends == 0 {
            return Err(ConfigError::ZeroCount { what: "front-end" });
        }
        if self.horizon_ms == 0 {
            return Err(ConfigError::OutOfRange {
                what: "horizon_ms",
                requirement: "must be positive",
            });
        }
        let rates = [
            ("frontend_outages_per_day", self.frontend_outages_per_day),
            (
                "frontend_brownouts_per_day",
                self.frontend_brownouts_per_day,
            ),
            ("metadata_outages_per_day", self.metadata_outages_per_day),
        ];
        for (what, rate) in rates {
            if !rate.is_finite() || rate < 0.0 {
                return Err(ConfigError::OutOfRange {
                    what,
                    requirement: "must be finite and non-negative",
                });
            }
        }
        let durations = [
            ("frontend_outage_mean_ms", self.frontend_outage_mean_ms),
            ("frontend_brownout_mean_ms", self.frontend_brownout_mean_ms),
            ("metadata_outage_mean_ms", self.metadata_outage_mean_ms),
        ];
        for (what, mean) in durations {
            if !mean.is_finite() || mean <= 0.0 {
                return Err(ConfigError::OutOfRange {
                    what,
                    requirement: "must be finite and positive",
                });
            }
        }
        if !(0.0..=1.0).contains(&self.chunk_timeout_prob) {
            return Err(ConfigError::OutOfRange {
                what: "chunk_timeout_prob",
                requirement: "must lie in [0,1]",
            });
        }
        Ok(())
    }
}

/// Draws one component's schedule: exponential gaps between window starts,
/// exponential durations, clipped to the horizon.
fn draw_windows(seed: u64, stream: u64, horizon_ms: u64, per_day: f64, mean_ms: f64) -> Windows {
    if per_day <= 0.0 {
        return Windows::empty();
    }
    let mut rng = stream_rng(seed, stream);
    let gap = Exponential::new(DAY_MS / per_day);
    let dur = Exponential::new(mean_ms);
    let mut spans = Vec::new();
    let mut cursor = 0.0f64;
    loop {
        cursor += gap.sample(&mut rng);
        if cursor >= horizon_ms as f64 {
            break;
        }
        let start = cursor as u64;
        let end = (cursor + dur.sample(&mut rng).max(1.0)).min(horizon_ms as f64) as u64;
        spans.push((start, end));
        cursor = end as f64;
    }
    Windows::new(spans)
}

/// Per-operation coin streams used by consumers of a plan. Public so the
/// storage layer can keep its retry-jitter coins on a disjoint stream.
pub mod streams {
    /// Chunk send-timeout coins (one per `(op, chunk, send)`).
    pub const CHUNK_SEND: u64 = 0xFB03;
}

/// The materialised fault timeline for one simulated deployment.
///
/// All times are milliseconds on the replay's virtual clock, starting at 0.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed the plan was generated from (also seeds per-op coins).
    pub seed: u64,
    /// Horizon the schedules were clipped to.
    pub horizon_ms: u64,
    /// Full-outage windows, one schedule per front-end.
    pub frontend_outages: Vec<Windows>,
    /// Brownout windows, one schedule per front-end.
    pub frontend_brownouts: Vec<Windows>,
    /// Metadata-server unavailability windows.
    pub metadata_outages: Windows,
    /// Chunk-timeout probability during a brownout, per chunk send.
    pub chunk_timeout_prob: f64,
}

impl FaultPlan {
    /// Generates the plan for `cfg`; deterministic in `(cfg.seed, cfg)`.
    pub fn generate(cfg: &FaultPlanConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let frontend_outages = (0..cfg.n_frontends)
            .map(|fe| {
                draw_windows(
                    cfg.seed,
                    STREAM_FE_OUTAGE + fe as u64,
                    cfg.horizon_ms,
                    cfg.frontend_outages_per_day,
                    cfg.frontend_outage_mean_ms,
                )
            })
            .collect();
        let frontend_brownouts = (0..cfg.n_frontends)
            .map(|fe| {
                draw_windows(
                    cfg.seed,
                    STREAM_FE_BROWNOUT + fe as u64,
                    cfg.horizon_ms,
                    cfg.frontend_brownouts_per_day,
                    cfg.frontend_brownout_mean_ms,
                )
            })
            .collect();
        Ok(Self {
            seed: cfg.seed,
            horizon_ms: cfg.horizon_ms,
            frontend_outages,
            frontend_brownouts,
            metadata_outages: draw_windows(
                cfg.seed,
                STREAM_METADATA,
                cfg.horizon_ms,
                cfg.metadata_outages_per_day,
                cfg.metadata_outage_mean_ms,
            ),
            chunk_timeout_prob: cfg.chunk_timeout_prob,
        })
    }

    /// A plan with no faults at all — replays under it behave exactly like
    /// un-faulted replays.
    pub fn none(n_frontends: usize) -> Self {
        Self {
            seed: 0,
            horizon_ms: u64::MAX,
            frontend_outages: vec![Windows::empty(); n_frontends],
            frontend_brownouts: vec![Windows::empty(); n_frontends],
            metadata_outages: Windows::empty(),
            chunk_timeout_prob: 0.0,
        }
    }

    /// Does this plan inject no faults at all? An empty plan cannot gate
    /// anything on time, so replays under it keep the fair-weather
    /// plan-order timeline and stay bit-identical to un-faulted replays
    /// (DESIGN.md §10.4).
    pub fn is_empty(&self) -> bool {
        self.frontend_outages.iter().all(Windows::is_empty)
            && self.frontend_brownouts.iter().all(Windows::is_empty)
            && self.metadata_outages.is_empty()
            && self.chunk_timeout_prob == 0.0
    }

    /// Is front-end `fe` fully down at `now_ms`? Unknown front-ends
    /// (beyond the plan's schedule count) never fail.
    pub fn frontend_down(&self, fe: usize, now_ms: u64) -> bool {
        self.frontend_outages
            .get(fe)
            .is_some_and(|w| w.contains(now_ms))
    }

    /// Is front-end `fe` browned out (degraded, chunk transfers may time
    /// out) at `now_ms`?
    pub fn frontend_degraded(&self, fe: usize, now_ms: u64) -> bool {
        self.frontend_brownouts
            .get(fe)
            .is_some_and(|w| w.contains(now_ms))
    }

    /// Is the metadata server unavailable at `now_ms`?
    pub fn metadata_down(&self, now_ms: u64) -> bool {
        self.metadata_outages.contains(now_ms)
    }

    /// Does the `send`-th transmission of `chunk` within operation `op`
    /// time out on a browned-out front-end? The transfer protocol flips
    /// one coin per individual chunk send, keyed by the whole
    /// `(op, chunk, send)` triple, so decisions are order-free however
    /// out-of-order sends and retried attempts interleave.
    pub fn chunk_send_timeout(&self, op: u64, chunk: u64, send: u32) -> bool {
        unit_coin(
            split_seed(self.seed, op),
            streams::CHUNK_SEND,
            chunk.wrapping_mul(64).wrapping_add(send as u64),
        ) < self.chunk_timeout_prob
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic() {
        let cfg = FaultPlanConfig {
            seed: 42,
            ..FaultPlanConfig::default()
        };
        let a = FaultPlan::generate(&cfg).unwrap();
        let b = FaultPlan::generate(&cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::generate(&FaultPlanConfig {
            seed: 1,
            ..FaultPlanConfig::default()
        })
        .unwrap();
        let b = FaultPlan::generate(&FaultPlanConfig {
            seed: 2,
            ..FaultPlanConfig::default()
        })
        .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn schedules_respect_horizon_and_rates() {
        let cfg = FaultPlanConfig {
            seed: 7,
            horizon_ms: 7 * 86_400_000, // a week, to average out
            ..FaultPlanConfig::default()
        };
        let plan = FaultPlan::generate(&cfg).unwrap();
        assert_eq!(plan.frontend_outages.len(), cfg.n_frontends);
        for w in plan
            .frontend_outages
            .iter()
            .chain(plan.frontend_brownouts.iter())
            .chain([&plan.metadata_outages])
        {
            for &(s, e) in w.spans() {
                assert!(s < e && e <= cfg.horizon_ms);
            }
        }
        // ~2/day outages over 7 days: expect a handful per front-end.
        let total: usize = plan.frontend_outages.iter().map(|w| w.spans().len()).sum();
        let per_fe = total as f64 / cfg.n_frontends as f64;
        assert!((4.0..40.0).contains(&per_fe), "outages per fe: {per_fe}");
    }

    #[test]
    fn zero_rates_disable_fault_classes() {
        let cfg = FaultPlanConfig {
            frontend_outages_per_day: 0.0,
            frontend_brownouts_per_day: 0.0,
            metadata_outages_per_day: 0.0,
            ..FaultPlanConfig::default()
        };
        let plan = FaultPlan::generate(&cfg).unwrap();
        assert!(plan.frontend_outages.iter().all(Windows::is_empty));
        assert!(plan.frontend_brownouts.iter().all(Windows::is_empty));
        assert!(plan.metadata_outages.is_empty());
    }

    #[test]
    fn none_plan_never_faults() {
        let plan = FaultPlan::none(4);
        for t in [0u64, 1, 1 << 40, u64::MAX - 1] {
            for fe in 0..4 {
                assert!(!plan.frontend_down(fe, t));
                assert!(!plan.frontend_degraded(fe, t));
            }
            assert!(!plan.metadata_down(t));
        }
        // Out-of-range front-ends never fail either.
        assert!(!plan.frontend_down(99, 0));
        // An all-quiet plan must report empty — the storage replay keys
        // its timeline mode off this.
        assert!(plan.is_empty());
        assert!(!FaultPlan::generate(&FaultPlanConfig::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        let mut cfg = FaultPlanConfig {
            n_frontends: 0,
            ..FaultPlanConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg.n_frontends = 1;
        cfg.horizon_ms = 0;
        assert!(cfg.validate().is_err());
        cfg.horizon_ms = 1000;
        cfg.chunk_timeout_prob = 1.5;
        assert!(cfg.validate().is_err());
        cfg.chunk_timeout_prob = 0.5;
        cfg.frontend_outages_per_day = -1.0;
        assert!(cfg.validate().is_err());
        cfg.frontend_outages_per_day = 1.0;
        cfg.metadata_outage_mean_ms = 0.0;
        assert!(cfg.validate().is_err());
        cfg.metadata_outage_mean_ms = 10.0;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn unit_coin_is_stateless_and_uniform_ish() {
        assert_eq!(unit_coin(9, 1, 5), unit_coin(9, 1, 5));
        assert_ne!(unit_coin(9, 1, 5), unit_coin(9, 1, 6));
        assert_ne!(unit_coin(9, 1, 5), unit_coin(9, 2, 5));
        let n = 10_000u64;
        let mean: f64 = (0..n).map(|k| unit_coin(3, 7, k)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "coin mean {mean}");
        assert!((0..n).all(|k| (0.0..1.0).contains(&unit_coin(3, 7, k))));
    }

    #[test]
    fn chunk_send_timeout_is_stateless_and_tracks_probability() {
        let plan = FaultPlan {
            seed: 77,
            chunk_timeout_prob: 0.3,
            ..FaultPlan::none(1)
        };
        // Pure in the (op, chunk, send) triple, and distinct coordinates
        // draw distinct coins.
        assert_eq!(
            plan.chunk_send_timeout(1, 2, 3),
            plan.chunk_send_timeout(1, 2, 3)
        );
        let n = 20_000u64;
        let hits = (0..n)
            .filter(|&chunk| plan.chunk_send_timeout(5, chunk, 1))
            .count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.02, "send-timeout frac {frac}");
        assert!(!FaultPlan::none(1).chunk_send_timeout(0, 0, 0));
    }
}
