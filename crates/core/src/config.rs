//! Reproduction configuration presets.

use mcs_analysis::PipelineConfig;
use mcs_trace::TraceConfig;

/// Scale presets trading runtime for statistical resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~2 k mobile users; seconds. CI-friendly.
    Small,
    /// ~10 k mobile users; tens of seconds. The default for `repro`.
    Medium,
    /// ~40 k mobile users; minutes. Tightest percentile estimates.
    Large,
}

impl Scale {
    /// Mobile-user population for the scale.
    pub fn mobile_users(self) -> u64 {
        match self {
            Scale::Small => 2_000,
            Scale::Medium => 10_000,
            Scale::Large => 40_000,
        }
    }

    /// PC-only population.
    pub fn pc_only_users(self) -> u64 {
        self.mobile_users() * 2 / 5
    }

    /// Simulated §4 flows per paper file size.
    pub fn flows_per_size(self) -> u32 {
        match self {
            Scale::Small => 2,
            Scale::Medium => 4,
            Scale::Large => 8,
        }
    }
}

/// Top-level configuration for the reproduction suite.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproConfig {
    /// Master seed.
    pub seed: u64,
    /// Scale preset.
    pub scale: Scale,
    /// Trace-generator configuration (derived from scale + seed, then
    /// freely adjustable).
    pub trace: TraceConfig,
    /// Analysis-pipeline knobs.
    pub pipeline: PipelineConfig,
}

impl ReproConfig {
    /// Builds the configuration for a scale and seed.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let trace = TraceConfig {
            seed,
            mobile_users: scale.mobile_users(),
            pc_only_users: scale.pc_only_users(),
            ..TraceConfig::default()
        };
        let pipeline = PipelineConfig {
            horizon_secs: trace.horizon_ms() / 1000,
            ..PipelineConfig::default()
        };
        Self {
            seed,
            scale,
            trace,
            pipeline,
        }
    }

    /// Sets the worker-thread count for both trace generation and analysis
    /// (`0` = one per available core). Results are identical for any value.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.trace.threads = threads;
        self.pipeline.threads = threads;
        self
    }

    /// A fast setup for tests and CI.
    pub fn small(seed: u64) -> Self {
        Self::new(Scale::Small, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_valid() {
        for scale in [Scale::Small, Scale::Medium, Scale::Large] {
            let cfg = ReproConfig::new(scale, 1);
            cfg.trace.validate().expect("valid trace config");
            assert_eq!(cfg.trace.mobile_users, scale.mobile_users());
            assert_eq!(cfg.pipeline.horizon_secs, cfg.trace.horizon_ms() / 1000);
        }
    }

    #[test]
    fn scales_ordered() {
        assert!(Scale::Small.mobile_users() < Scale::Medium.mobile_users());
        assert!(Scale::Medium.mobile_users() < Scale::Large.mobile_users());
        assert!(Scale::Small.flows_per_size() <= Scale::Large.flows_per_size());
    }

    #[test]
    fn with_threads_sets_both_knobs() {
        let cfg = ReproConfig::small(3).with_threads(4);
        assert_eq!(cfg.trace.threads, 4);
        assert_eq!(cfg.pipeline.threads, 4);
    }

    #[test]
    fn threads_default_to_zero() {
        let cfg = ReproConfig::small(3);
        assert_eq!(cfg.trace.threads, 0);
        assert_eq!(cfg.pipeline.threads, 0);
    }
}
