//! Timing model: fills the Table 1 timing fields (`T_chunk`, `T_srv`, RTT)
//! and spaces chunk requests with the device-dependent client processing
//! time `T_clt`.
//!
//! These are the paper's *measured* §4 inputs, planted parametrically:
//! RTT median ≈ 100 ms (Fig. 14), `T_srv` ≈ 100 ms regardless of device
//! (Fig. 16a,b), per-chunk upload times with the Fig. 12a Android/iOS gap
//! (medians ≈ 4.1 s vs 1.6 s), and Android's heavier `T_clt` tail
//! (Fig. 16b: 90th percentile ≈ 1 s on retrieval). The *mechanistic*
//! explanation of those gaps (slow-start restart after idle) lives in the
//! `mcs-net` simulator; the trace generator only needs log-faithful values.

use mcs_stats::rng::Rng;

use mcs_stats::rng::LogNormal;

use crate::config::NetworkModel;
use crate::record::{DeviceType, Direction, CHUNK_SIZE};

// Per-device, per-direction client processing time `T_clt`: medians in
// ms and σ of ln T_clt. Fig. 16: Android spends ≈ 90 ms more than iOS
// preparing upload chunks; retrieval medians are similar but Android's
// tail reaches ≈ 1 s.
const CLT_UPLOAD_ANDROID_MEDIAN: f64 = 190.0;
const CLT_UPLOAD_IOS_MEDIAN: f64 = 100.0;
const CLT_UPLOAD_SIGMA: f64 = 0.8;
const CLT_DOWNLOAD_ANDROID_MEDIAN: f64 = 110.0;
const CLT_DOWNLOAD_IOS_MEDIAN: f64 = 95.0;
const CLT_DOWNLOAD_ANDROID_SIGMA: f64 = 1.5;
const CLT_DOWNLOAD_IOS_SIGMA: f64 = 0.8;

/// Stateless sampler bundle built from a [`NetworkModel`].
#[derive(Debug, Clone)]
pub(crate) struct TimingSampler {
    rtt: LogNormal,
    srv: LogNormal,
    chunk_up_android: LogNormal,
    chunk_up_ios: LogNormal,
    chunk_down_android: LogNormal,
    chunk_down_ios: LogNormal,
    chunk_pc: LogNormal,
    proxied_frac: f64,
    window_bound_frac: f64,
}

impl TimingSampler {
    /// Builds the samplers from the configuration.
    pub fn new(net: &NetworkModel) -> Self {
        Self {
            rtt: LogNormal::from_median(net.rtt_median_ms, net.rtt_sigma),
            srv: LogNormal::from_median(net.srv_median_ms, net.srv_sigma),
            chunk_up_android: LogNormal::from_median(
                net.upload_chunk_median_ms_android,
                net.chunk_sigma,
            ),
            chunk_up_ios: LogNormal::from_median(net.upload_chunk_median_ms_ios, net.chunk_sigma),
            chunk_down_android: LogNormal::from_median(
                net.download_chunk_median_ms_android,
                net.chunk_sigma,
            ),
            chunk_down_ios: LogNormal::from_median(
                net.download_chunk_median_ms_ios,
                net.chunk_sigma,
            ),
            chunk_pc: LogNormal::from_median(net.pc_chunk_median_ms, net.chunk_sigma),
            proxied_frac: net.proxied_frac,
            window_bound_frac: net.window_bound_frac,
        }
    }

    /// Draws the average RTT for a flow (per session; all chunks of a
    /// session share the connection's average RTT, as the Table 1 field is
    /// a per-connection average).
    pub fn flow_rtt_ms(&self, rng: &mut impl Rng) -> f64 {
        self.rtt.sample(rng)
    }

    /// Whether a session's requests traverse an HTTP proxy.
    pub fn proxied(&self, rng: &mut impl Rng) -> bool {
        rng.random::<f64>() < self.proxied_frac
    }

    /// Upstream processing time `T_srv` for one chunk, ms.
    pub fn srv_ms(&self, rng: &mut impl Rng) -> f64 {
        self.srv.sample(rng)
    }

    /// Pure transmission time `t_tran` for one chunk, ms. Scales linearly
    /// with the chunk's size (the final chunk of a file is usually short)
    /// and correlates with the flow RTT: upload throughput is receive-
    /// window-bound (§4.1), so chunk time ∝ RTT around the configured
    /// median.
    pub fn chunk_tran_ms(
        &self,
        rng: &mut impl Rng,
        device: DeviceType,
        dir: Direction,
        chunk_bytes: u64,
        flow_rtt_ms: f64,
        rtt_median_ms: f64,
    ) -> f64 {
        let base = match (device, dir) {
            (DeviceType::Android, Direction::Store) => self.chunk_up_android.sample(rng),
            (DeviceType::Ios, Direction::Store) => self.chunk_up_ios.sample(rng),
            (DeviceType::Android, Direction::Retrieve) => self.chunk_down_android.sample(rng),
            (DeviceType::Ios, Direction::Retrieve) => self.chunk_down_ios.sample(rng),
            (DeviceType::Pc, _) => self.chunk_pc.sample(rng),
        };
        let size_factor = (chunk_bytes as f64 / CHUNK_SIZE as f64).max(0.02);
        // Blend: half the variation tracks the flow RTT (window-bound),
        // half is the device/link draw itself.
        let rtt_factor = (flow_rtt_ms / rtt_median_ms).sqrt();
        let sampled = base * size_factor * rtt_factor;
        // Uploads can never beat the 64 KB receive-window clamp (§4.1):
        // moving `chunk_bytes` needs at least `bytes/65535` round trips.
        let floor = match dir {
            Direction::Store => chunk_bytes as f64 / 65_535.0 * flow_rtt_ms,
            Direction::Retrieve => 0.0,
        };
        // A sizeable share of upload chunks run *exactly* window-bound
        // (fast client, clean path): they transmit at rwnd/RTT and pile up
        // at swnd = 64 KB — the Fig. 15 point mass.
        if dir == Direction::Store && rng.random::<f64>() < self.window_bound_frac {
            return (floor * (1.0 + 0.08 * rng.random::<f64>())).max(1.0);
        }
        sampled.max(floor).max(1.0)
    }

    /// Client processing time `T_clt` separating consecutive chunks, ms.
    pub fn clt_ms(&self, rng: &mut impl Rng, device: DeviceType, dir: Direction) -> f64 {
        let (median, sigma) = match (device, dir) {
            (DeviceType::Android, Direction::Store) => {
                (CLT_UPLOAD_ANDROID_MEDIAN, CLT_UPLOAD_SIGMA)
            }
            (DeviceType::Ios, Direction::Store) => (CLT_UPLOAD_IOS_MEDIAN, CLT_UPLOAD_SIGMA),
            (DeviceType::Android, Direction::Retrieve) => {
                (CLT_DOWNLOAD_ANDROID_MEDIAN, CLT_DOWNLOAD_ANDROID_SIGMA)
            }
            (DeviceType::Ios, Direction::Retrieve) => {
                (CLT_DOWNLOAD_IOS_MEDIAN, CLT_DOWNLOAD_IOS_SIGMA)
            }
            (DeviceType::Pc, _) => (40.0, 0.5),
        };
        LogNormal::from_median(median, sigma).sample(rng)
    }

    /// Front-end processing time for a metadata-only file operation, ms.
    pub fn file_op_ms(&self, rng: &mut impl Rng) -> f64 {
        LogNormal::from_median(15.0, 0.5).sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_stats::rng::stream_rng;

    fn sampler() -> TimingSampler {
        TimingSampler::new(&NetworkModel::default())
    }

    fn median_of(mut xs: Vec<f64>) -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    }

    #[test]
    fn rtt_median_near_config() {
        let s = sampler();
        let mut rng = stream_rng(1, 0);
        let xs: Vec<f64> = (0..20_000).map(|_| s.flow_rtt_ms(&mut rng)).collect();
        let med = median_of(xs);
        assert!((med - 100.0).abs() < 6.0, "median {med}");
    }

    #[test]
    fn upload_chunk_android_slower_than_ios() {
        let s = sampler();
        let mut rng = stream_rng(2, 0);
        let android: Vec<f64> = (0..20_000)
            .map(|_| {
                s.chunk_tran_ms(
                    &mut rng,
                    DeviceType::Android,
                    Direction::Store,
                    CHUNK_SIZE,
                    100.0,
                    100.0,
                )
            })
            .collect();
        let ios: Vec<f64> = (0..20_000)
            .map(|_| {
                s.chunk_tran_ms(
                    &mut rng,
                    DeviceType::Ios,
                    Direction::Store,
                    CHUNK_SIZE,
                    100.0,
                    100.0,
                )
            })
            .collect();
        let ma = median_of(android);
        let mi = median_of(ios);
        assert!(
            ma / mi > 2.0 && ma / mi < 3.5,
            "median ratio {} (android {ma}, ios {mi})",
            ma / mi
        );
        // Absolute scale tracks Fig. 12a's medians (≈ 4.1 s vs 1.6 s),
        // shifted down by the window-bound fast-chunk mass (Fig. 15).
        assert!((2000.0..4600.0).contains(&ma), "android median {ma}");
        assert!((900.0..1800.0).contains(&mi), "ios median {mi}");
    }

    #[test]
    fn partial_chunk_scales_down() {
        let s = sampler();
        let mut rng = stream_rng(3, 0);
        let full: f64 = (0..2000)
            .map(|_| {
                s.chunk_tran_ms(
                    &mut rng,
                    DeviceType::Ios,
                    Direction::Store,
                    CHUNK_SIZE,
                    100.0,
                    100.0,
                )
            })
            .sum::<f64>()
            / 2000.0;
        let half: f64 = (0..2000)
            .map(|_| {
                s.chunk_tran_ms(
                    &mut rng,
                    DeviceType::Ios,
                    Direction::Store,
                    CHUNK_SIZE / 2,
                    100.0,
                    100.0,
                )
            })
            .sum::<f64>()
            / 2000.0;
        assert!(
            (half / full - 0.5).abs() < 0.1,
            "half-chunk ratio {}",
            half / full
        );
    }

    #[test]
    fn rtt_correlation_increases_chunk_time() {
        let s = sampler();
        let mut rng = stream_rng(4, 0);
        let slow: f64 = (0..4000)
            .map(|_| {
                s.chunk_tran_ms(
                    &mut rng,
                    DeviceType::Ios,
                    Direction::Store,
                    CHUNK_SIZE,
                    400.0,
                    100.0,
                )
            })
            .sum::<f64>()
            / 4000.0;
        let fast: f64 = (0..4000)
            .map(|_| {
                s.chunk_tran_ms(
                    &mut rng,
                    DeviceType::Ios,
                    Direction::Store,
                    CHUNK_SIZE,
                    25.0,
                    100.0,
                )
            })
            .sum::<f64>()
            / 4000.0;
        assert!(slow > fast * 2.0, "slow {slow} vs fast {fast}");
    }

    #[test]
    fn clt_android_upload_heavier() {
        let s = sampler();
        let mut rng = stream_rng(5, 0);
        let android: f64 = (0..20_000)
            .map(|_| s.clt_ms(&mut rng, DeviceType::Android, Direction::Store))
            .sum::<f64>()
            / 20_000.0;
        let ios: f64 = (0..20_000)
            .map(|_| s.clt_ms(&mut rng, DeviceType::Ios, Direction::Store))
            .sum::<f64>()
            / 20_000.0;
        // Fig. 16a: Android ≈ +90 ms mean on uploads.
        assert!(
            android - ios > 50.0 && android - ios < 250.0,
            "android {android} ios {ios}"
        );
    }

    #[test]
    fn clt_android_download_tail() {
        let s = sampler();
        let mut rng = stream_rng(6, 0);
        let mut android: Vec<f64> = (0..20_000)
            .map(|_| s.clt_ms(&mut rng, DeviceType::Android, Direction::Retrieve))
            .collect();
        let mut ios: Vec<f64> = (0..20_000)
            .map(|_| s.clt_ms(&mut rng, DeviceType::Ios, Direction::Retrieve))
            .collect();
        android.sort_by(f64::total_cmp);
        ios.sort_by(f64::total_cmp);
        let p90a = android[18_000];
        let p90i = ios[18_000];
        // Fig. 16b: Android's p90 is near 1 s, an order beyond iOS's.
        assert!(p90a > 500.0, "android p90 {p90a}");
        assert!(p90a / p90i > 2.5, "p90 ratio {}", p90a / p90i);
        // Medians similar (within 2×).
        let ratio = android[10_000] / ios[10_000];
        assert!(ratio > 0.6 && ratio < 2.0, "median ratio {ratio}");
    }

    #[test]
    fn proxied_fraction() {
        let s = sampler();
        let mut rng = stream_rng(7, 0);
        let n = 50_000;
        let hits = (0..n).filter(|_| s.proxied(&mut rng)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.05).abs() < 0.01, "{frac}");
    }

    #[test]
    fn file_op_cheap() {
        let s = sampler();
        let mut rng = stream_rng(8, 0);
        let mean: f64 = (0..5000).map(|_| s.file_op_ms(&mut rng)).sum::<f64>() / 5000.0;
        assert!(mean < 50.0, "{mean}");
    }
}
