//! Generator configuration, with defaults calibrated to every distribution
//! the paper publishes.
//!
//! The proprietary 349 M-request trace is unavailable; [`TraceConfig`]
//! parameterises a generative model whose defaults are taken from the
//! paper's own numbers (Table 2 mixtures, Table 3 class fractions, the
//! Fig. 3 interval modes, the Fig. 16 processing-time gaps, …). The
//! analysis crate never sees these parameters — it re-derives them from the
//! generated logs, closing the loop.

/// Fractions of the four §3.2.1 user classes within one client group
/// (Table 3 columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassMix {
    /// Stored/retrieved volume ratio > 10⁵.
    pub upload_only: f64,
    /// Ratio < 10⁻⁵.
    pub download_only: f64,
    /// Total traffic under 1 MB.
    pub occasional: f64,
    /// Everything else.
    pub mixed: f64,
}

impl ClassMix {
    /// Validates that the fractions are a probability vector.
    pub fn validate(&self) -> Result<(), String> {
        let parts = [
            self.upload_only,
            self.download_only,
            self.occasional,
            self.mixed,
        ];
        if parts.iter().any(|&p| !(0.0..=1.0).contains(&p)) {
            return Err("class fractions must lie in [0,1]".into());
        }
        let sum: f64 = parts.iter().sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(format!("class fractions must sum to 1, got {sum}"));
        }
        Ok(())
    }
}

/// Exponential-mixture file-size model: `(weight, mean_bytes)` components
/// (Table 2, converted from MB).
#[derive(Debug, Clone, PartialEq)]
pub struct FileSizeModel {
    /// `(αᵢ, µᵢ in bytes)` components.
    pub components: Vec<(f64, f64)>,
}

impl FileSizeModel {
    /// Table 2 store-only row: 0.91 @ 1.5 MB, 0.07 @ 13.1 MB, 0.02 @ 77.4 MB.
    pub fn paper_store() -> Self {
        Self {
            components: vec![(0.91, 1.5 * MB), (0.07, 13.1 * MB), (0.02, 77.4 * MB)],
        }
    }

    /// Table 2 retrieve-only row: 0.46 @ 1.6 MB, 0.26 @ 29.8 MB,
    /// 0.28 @ 146.8 MB.
    pub fn paper_retrieve() -> Self {
        Self {
            components: vec![(0.46, 1.6 * MB), (0.26, 29.8 * MB), (0.28, 146.8 * MB)],
        }
    }

    /// Validates weights and means.
    pub fn validate(&self) -> Result<(), String> {
        if self.components.is_empty() {
            return Err("file size model needs at least one component".into());
        }
        let wsum: f64 = self.components.iter().map(|&(w, _)| w).sum();
        if (wsum - 1.0).abs() > 1e-6 {
            return Err(format!("file size weights must sum to 1, got {wsum}"));
        }
        if !self.components.iter().all(|&(w, _)| w >= 0.0) {
            return Err("file size weights must be >= 0".into());
        }
        for &(_, mean) in &self.components {
            positive("file size mean", mean)?;
        }
        Ok(())
    }
}

/// `Ok` when `x` is finite and > 0; NaN fails. Every σ, median and shape
/// parameter that reaches an `mcs_stats::rng` sampler goes through here.
fn positive(what: &str, x: f64) -> Result<(), String> {
    if x > 0.0 && x.is_finite() {
        Ok(())
    } else {
        Err(format!("{what} must be finite and > 0, got {x}"))
    }
}

/// `Ok` when `p` lies in [0, 1]; NaN fails.
fn probability(what: &str, p: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(format!("{what} must lie in [0, 1], got {p}"))
    }
}

/// One megabyte in bytes (decimal, as the paper's MB figures are).
pub const MB: f64 = 1_000_000.0;

/// Session-process parameters: the Fig. 3 two-mode interval structure and
/// the §3.1 session-type mix.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionModel {
    /// Median gap between file operations inside a session, seconds.
    /// (Most operations are batched by the app's multi-select UI.)
    pub intra_op_gap_median_s: f64,
    /// σ of ln(gap) for within-session gaps.
    pub intra_op_gap_sigma: f64,
    /// Fraction of within-session gaps that are "stragglers": the user
    /// manually adds another file while transfers run. Together with the
    /// 0.2 s-median batch gaps these widen Fig. 3's within-session
    /// component without destroying Fig. 4's burstiness; its mode stays
    /// near 0.2 s, not the paper's ≈ 10 s (EXPERIMENTS.md deviation 1).
    pub straggler_frac: f64,
    /// Median straggler gap, seconds.
    pub straggler_gap_median_s: f64,
    /// Fraction of sessions that only store (paper: 0.682).
    pub store_only_frac: f64,
    /// Fraction of sessions that only retrieve (paper: 0.299).
    pub retrieve_only_frac: f64,
    /// Zipf exponent for the per-session file count (calibrated so ~40 % of
    /// sessions have one file and ~10 % exceed 20, Fig. 5a).
    pub files_per_session_zipf_s: f64,
    /// Upper bound on files per session.
    pub files_per_session_max: usize,
}

impl Default for SessionModel {
    fn default() -> Self {
        Self {
            intra_op_gap_median_s: 0.2,
            intra_op_gap_sigma: 0.9,
            straggler_frac: 0.02,
            straggler_gap_median_s: 8.0,
            store_only_frac: 0.682,
            retrieve_only_frac: 0.299,
            files_per_session_zipf_s: 1.55,
            files_per_session_max: 200,
        }
    }
}

impl SessionModel {
    /// Validates fractions and positivity.
    pub fn validate(&self) -> Result<(), String> {
        probability("store_only_frac", self.store_only_frac)?;
        probability("retrieve_only_frac", self.retrieve_only_frac)?;
        if self.store_only_frac + self.retrieve_only_frac > 1.0 {
            return Err("session type fractions exceed 1".into());
        }
        positive("intra_op_gap_median_s", self.intra_op_gap_median_s)?;
        positive("intra_op_gap_sigma", self.intra_op_gap_sigma)?;
        positive("straggler_gap_median_s", self.straggler_gap_median_s)?;
        probability("straggler_frac", self.straggler_frac)?;
        positive("files_per_session_zipf_s", self.files_per_session_zipf_s)?;
        if self.files_per_session_max == 0 {
            return Err("files_per_session_max must be >= 1".into());
        }
        Ok(())
    }

    /// Fraction of mixed sessions (the remainder; paper: ~0.019).
    pub fn mixed_frac(&self) -> f64 {
        1.0 - self.store_only_frac - self.retrieve_only_frac
    }
}

/// Per-user activity model: a truncated stretched exponential (Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityModel {
    /// Characteristic scale x₀ of the SE activity distribution (files).
    pub x0: f64,
    /// Stretch factor c (paper fits ≈ 0.2 store / 0.15 retrieve at 10⁶
    /// users; a scaled-down population needs a milder tail to keep the
    /// maximum activity realistic — see DESIGN.md).
    pub c: f64,
    /// Truncation cap on per-user file counts.
    pub max_files: u64,
}

impl Default for ActivityModel {
    fn default() -> Self {
        Self {
            x0: 8.0,
            c: 0.38,
            max_files: 40_000,
        }
    }
}

/// Network/timing model used to fill the Table 1 timing fields
/// (§4 inputs: RTT ≈ 100 ms median, T_srv ≈ 100 ms, device-dependent
/// chunk times with Fig. 12's Android/iOS gap).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    /// Median flow RTT in ms (Fig. 14).
    pub rtt_median_ms: f64,
    /// σ of ln RTT.
    pub rtt_sigma: f64,
    /// Median upstream processing time T_srv in ms (Fig. 16: ≈ 100 ms,
    /// device-independent).
    pub srv_median_ms: f64,
    /// σ of ln T_srv.
    pub srv_sigma: f64,
    /// Median *upload* chunk transmission time per device type, ms
    /// (Fig. 12a: ≈ 1 600 iOS, ≈ 4 100 Android).
    pub upload_chunk_median_ms_ios: f64,
    /// Android counterpart.
    pub upload_chunk_median_ms_android: f64,
    /// Median *download* chunk transmission time per device type, ms
    /// (Fig. 12b: Android ≈ 2× iOS; absolute scale smaller than upload).
    pub download_chunk_median_ms_ios: f64,
    /// Android counterpart.
    pub download_chunk_median_ms_android: f64,
    /// σ of ln(chunk time) — common to all four.
    pub chunk_sigma: f64,
    /// PC clients: median chunk time either direction (PCs see neither the
    /// 64 KB upload clamp badly nor mobile client stalls).
    pub pc_chunk_median_ms: f64,
    /// Fraction of requests arriving through HTTP proxies (filtered out by
    /// the §4 analysis).
    pub proxied_frac: f64,
    /// Fraction of *upload* chunks transmitted exactly at the 64 KB
    /// receive-window bound (fast client on a clean path: throughput =
    /// rwnd/RTT). This is what concentrates Fig. 15's sending-window
    /// estimate at 64 KB.
    pub window_bound_frac: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        Self {
            rtt_median_ms: 100.0,
            rtt_sigma: 0.9,
            srv_median_ms: 100.0,
            srv_sigma: 0.55,
            upload_chunk_median_ms_ios: 1500.0,
            upload_chunk_median_ms_android: 4000.0,
            download_chunk_median_ms_ios: 800.0,
            download_chunk_median_ms_android: 1600.0,
            chunk_sigma: 0.85,
            pc_chunk_median_ms: 500.0,
            proxied_frac: 0.05,
            window_bound_frac: 0.25,
        }
    }
}

/// Engagement model (Figs. 8 and 9): a bimodal return process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngagementModel {
    /// Probability that a single-mobile-device user is "one-shot" (never
    /// returns after their first active day). Paper Fig. 8: ≈ half of
    /// 1-device users stay inactive all week.
    pub oneshot_1dev: f64,
    /// Same for users with 2 mobile devices (Fig. 8: < 20 %).
    pub oneshot_2dev: f64,
    /// Same for users with 3+ mobile devices.
    pub oneshot_3dev: f64,
    /// Same for mobile + PC users.
    pub oneshot_mobile_pc: f64,
    /// For non-one-shot single-device users: probability of being active
    /// on any given day (stationary; produces the Fig. 8 next-day mode).
    pub daily_return_prob: f64,
    /// Same for multi-device and mobile+PC users (device syncing makes
    /// them show up far more often — the Fig. 8 gap between cohorts).
    pub daily_return_prob_multi: f64,
    /// For mobile+PC users: probability that an upload session is followed
    /// by a PC retrieval of the uploads the same day (Fig. 9's day-0 spike).
    pub pc_sync_same_day_prob: f64,
}

impl Default for EngagementModel {
    fn default() -> Self {
        Self {
            oneshot_1dev: 0.22,
            oneshot_2dev: 0.06,
            oneshot_3dev: 0.05,
            oneshot_mobile_pc: 0.08,
            daily_return_prob: 0.25,
            daily_return_prob_multi: 0.5,
            pc_sync_same_day_prob: 0.35,
        }
    }
}

/// Diurnal intensity: relative weight of each hour of day for session
/// starts. The default reproduces Fig. 1's shape — low early morning,
/// daytime plateau, evening ramp, sharp surge around 23:00 (11 PM, when
/// users reach home WiFi).
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalModel {
    /// Relative weight per hour 0..24 (normalised internally).
    pub hour_weights: [f64; 24],
    /// Multiplier on weekend days (Fig. 1 shows slightly higher weekend
    /// volume).
    pub weekend_factor: f64,
}

impl Default for DiurnalModel {
    fn default() -> Self {
        Self {
            hour_weights: [
                1.6, 0.9, 0.5, 0.3, 0.25, 0.3, 0.5, 0.9, // 00-07: overnight trough
                1.3, 1.7, 1.9, 2.0, 2.1, 2.0, 1.9, 2.0, // 08-15: daytime plateau
                2.1, 2.2, 2.4, 2.7, 3.2, 3.9, 4.8, 5.8, // 16-23: evening ramp to 11PM surge
            ],
            weekend_factor: 1.15,
        }
    }
}

/// Top-level generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Master seed; every derived stream is deterministic in it.
    pub seed: u64,
    /// Number of mobile users (paper: 1 148 640; default scaled down).
    pub mobile_users: u64,
    /// Number of PC-only users (paper: ~2 M; used for Table 3's PC column).
    pub pc_only_users: u64,
    /// Fraction of mobile users that also use PC clients (paper: 0.143).
    pub mobile_pc_frac: f64,
    /// Fraction of mobile *accesses* from Android devices (paper: 0.784).
    pub android_frac: f64,
    /// Probability vector over device counts {1, 2, 3} for mobile users.
    pub device_count_probs: [f64; 3],
    /// Trace horizon in days (paper: 7).
    pub horizon_days: u32,
    /// Worker threads for parallel generation (`0` = one per available
    /// core). Any value yields the identical trace — per-user RNG streams
    /// make generation order-independent.
    pub threads: usize,
    /// Class mix for mobile-only users (Table 3, "mobile only").
    pub class_mix_mobile_only: ClassMix,
    /// Class mix for mobile+PC users (Table 3, "mobile & PC").
    pub class_mix_mobile_pc: ClassMix,
    /// Class mix for PC-only users (Table 3, "PC only").
    pub class_mix_pc_only: ClassMix,
    /// Session process parameters.
    pub session: SessionModel,
    /// Store file-size mixture (Table 2 row 1).
    pub store_sizes: FileSizeModel,
    /// Retrieve file-size mixture (Table 2 row 2).
    pub retrieve_sizes: FileSizeModel,
    /// Per-user activity model.
    pub activity: ActivityModel,
    /// Timing model for Table 1 fields.
    pub network: NetworkModel,
    /// Engagement model.
    pub engagement: EngagementModel,
    /// Diurnal profile.
    pub diurnal: DiurnalModel,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            seed: 0x4d43_5331, // "MCS1"
            mobile_users: 20_000,
            pc_only_users: 8_000,
            mobile_pc_frac: 0.143,
            android_frac: 0.784,
            device_count_probs: [0.80, 0.15, 0.05],
            horizon_days: 7,
            threads: 0,
            class_mix_mobile_only: ClassMix {
                upload_only: 0.515,
                download_only: 0.173,
                occasional: 0.239,
                mixed: 0.073,
            },
            class_mix_mobile_pc: ClassMix {
                upload_only: 0.537,
                download_only: 0.151,
                occasional: 0.132,
                mixed: 0.180,
            },
            // Table 3's PC-only column (31.6/17.2/34.1/19.1) sums to 102 %
            // in the paper — a rounding artifact; normalised here.
            class_mix_pc_only: ClassMix {
                upload_only: 0.310,
                download_only: 0.169,
                occasional: 0.334,
                mixed: 0.187,
            },
            session: SessionModel::default(),
            store_sizes: FileSizeModel::paper_store(),
            retrieve_sizes: FileSizeModel::paper_retrieve(),
            activity: ActivityModel::default(),
            network: NetworkModel::default(),
            engagement: EngagementModel::default(),
            diurnal: DiurnalModel::default(),
        }
    }
}

impl TraceConfig {
    /// A small configuration for fast tests (~1–2 s of generation).
    pub fn small(seed: u64) -> Self {
        Self {
            seed,
            mobile_users: 2_000,
            pc_only_users: 600,
            ..Self::default()
        }
    }

    /// Trace horizon in milliseconds.
    pub fn horizon_ms(&self) -> u64 {
        self.horizon_days as u64 * 24 * 3600 * 1000
    }

    /// Validates the whole configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.mobile_users == 0 {
            return Err("need at least one mobile user".into());
        }
        if self.horizon_days == 0 {
            return Err("horizon must be at least one day".into());
        }
        if !(0.0..=1.0).contains(&self.mobile_pc_frac) {
            return Err("mobile_pc_frac must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.android_frac) {
            return Err("android_frac must be in [0,1]".into());
        }
        let dsum: f64 = self.device_count_probs.iter().sum();
        if (dsum - 1.0).abs() > 1e-6 {
            return Err(format!("device count probs must sum to 1, got {dsum}"));
        }
        self.class_mix_mobile_only.validate()?;
        self.class_mix_mobile_pc.validate()?;
        self.class_mix_pc_only.validate()?;
        self.session.validate()?;
        self.store_sizes.validate()?;
        self.retrieve_sizes.validate()?;
        positive("activity.x0", self.activity.x0)?;
        positive("activity.c", self.activity.c)?;
        if self.activity.max_files == 0 {
            return Err("activity.max_files must be >= 1".into());
        }
        let n = &self.network;
        for x in [
            n.rtt_median_ms,
            n.rtt_sigma,
            n.srv_median_ms,
            n.srv_sigma,
            n.upload_chunk_median_ms_ios,
            n.upload_chunk_median_ms_android,
            n.download_chunk_median_ms_ios,
            n.download_chunk_median_ms_android,
            n.chunk_sigma,
            n.pc_chunk_median_ms,
        ] {
            positive("every network median and sigma", x)?;
        }
        probability("proxied_frac", n.proxied_frac)?;
        probability("window_bound_frac", n.window_bound_frac)?;
        let e = &self.engagement;
        probability("oneshot_1dev", e.oneshot_1dev)?;
        probability("oneshot_2dev", e.oneshot_2dev)?;
        probability("oneshot_3dev", e.oneshot_3dev)?;
        probability("oneshot_mobile_pc", e.oneshot_mobile_pc)?;
        probability("daily_return_prob", e.daily_return_prob)?;
        probability("daily_return_prob_multi", e.daily_return_prob_multi)?;
        probability("pc_sync_same_day_prob", e.pc_sync_same_day_prob)?;
        if !self
            .diurnal
            .hour_weights
            .iter()
            .all(|&w| w.is_finite() && w >= 0.0)
            || self.diurnal.hour_weights.iter().sum::<f64>() <= 0.0
        {
            return Err("diurnal weights must be non-negative, not all zero".into());
        }
        let w = self.diurnal.weekend_factor;
        if !(w >= 0.0 && w.is_finite()) {
            return Err(format!("weekend_factor must be finite and >= 0, got {w}"));
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        TraceConfig::default().validate().unwrap();
        TraceConfig::small(1).validate().unwrap();
    }

    #[test]
    fn horizon_math() {
        let c = TraceConfig::default();
        assert_eq!(c.horizon_ms(), 7 * 24 * 3600 * 1000);
    }

    #[test]
    fn class_mix_must_sum_to_one() {
        let mut c = TraceConfig::default();
        c.class_mix_mobile_only.upload_only = 0.9;
        assert!(c.validate().is_err());
    }

    #[test]
    fn device_probs_must_sum_to_one() {
        let mut c = TraceConfig::default();
        c.device_count_probs = [0.5, 0.5, 0.5];
        assert!(c.validate().is_err());
    }

    #[test]
    fn session_fractions_checked() {
        let mut c = TraceConfig::default();
        c.session.store_only_frac = 0.9;
        c.session.retrieve_only_frac = 0.3;
        assert!(c.validate().is_err());
    }

    #[test]
    fn file_size_models_match_table2() {
        let store = FileSizeModel::paper_store();
        assert_eq!(store.components.len(), 3);
        assert!((store.components[0].0 - 0.91).abs() < 1e-12);
        assert!((store.components[0].1 - 1.5e6).abs() < 1e-6);
        let ret = FileSizeModel::paper_retrieve();
        assert!((ret.components[2].1 - 146.8e6).abs() < 1e-3);
        store.validate().unwrap();
        ret.validate().unwrap();
    }

    #[test]
    fn mixed_session_fraction_is_remainder() {
        let s = SessionModel::default();
        assert!((s.mixed_frac() - 0.019).abs() < 1e-9);
    }

    #[test]
    fn zero_users_invalid() {
        let mut c = TraceConfig::default();
        c.mobile_users = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn negative_diurnal_weight_invalid() {
        let mut c = TraceConfig::default();
        c.diurnal.hour_weights[5] = -1.0;
        assert!(c.validate().is_err());
    }
}
