//! Client device models.
//!
//! The §4 active experiments compared a Samsung Pad (Android 4.1.2) with an
//! iPad Air 2 (iOS 8.4.1) uploading/downloading identical files through the
//! same AP to the same front-end server — so every performance difference
//! is client-side. Three measured client properties matter:
//!
//! * **`T_clt`** — time to prepare the next chunk (upload) or consume the
//!   last one (download). Fig. 16: Android ≈ +90 ms mean on uploads;
//!   similar medians on downloads but a 90th percentile near one second.
//! * **Per-packet processing overhead** — Fig. 13a shows the Android Pad's
//!   sequence number climbing visibly slower *during* transfers, i.e. a
//!   slower client stack, not just longer gaps.
//! * **Receive window** — mobile clients *do* negotiate window scaling
//!   (§4.1: the Samsung Pad advertised 4 MB, the iPad 2 MB), so downloads
//!   are not window-starved; the servers do not, so uploads cap at 64 KB.
//!
//! The server side is one fixed model, the deployed service's: `T_srv`
//! draws from a lognormal with a 100 ms median for every device.

use mcs_stats::rng::Rng;

use mcs_stats::rng::LogNormal;

use mcs_sim::{Time, MS};

/// Transfer direction, from the client's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Client uploads to the cloud (client is the TCP sender).
    Upload,
    /// Client downloads from the cloud (server is the TCP sender).
    Download,
}

/// A client device model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable platform name.
    pub name: &'static str,
    /// Median `T_clt` between upload chunks, µs.
    pub clt_upload_median: Time,
    /// σ of ln `T_clt` for uploads.
    pub clt_upload_sigma: f64,
    /// Median `T_clt` between download chunks, µs.
    pub clt_download_median: Time,
    /// σ of ln `T_clt` for downloads.
    pub clt_download_sigma: f64,
    /// Client stack processing per *sent* data packet (uploads), µs. This
    /// caps the client's effective upload rate at `MSS·8/overhead` — the
    /// Fig. 13a slope gap between the Android Pad and the iPad.
    pub upload_packet_overhead: Time,
    /// Client stack processing per *received* data packet (downloads), µs —
    /// throttles the ACK clock the server's sending rate hangs off.
    pub download_packet_overhead: Time,
    /// Receive window the client advertises when *downloading*, bytes
    /// (window scaling enabled on mobile clients).
    pub receive_window: u64,
}

impl DeviceProfile {
    /// The paper's Android reference device (Samsung Pad, Android 4.1.2).
    pub fn android() -> Self {
        Self {
            name: "android",
            clt_upload_median: 190 * MS,
            clt_upload_sigma: 0.8,
            clt_download_median: 110 * MS,
            clt_download_sigma: 1.5,
            upload_packet_overhead: 7_000,
            download_packet_overhead: 3_000,
            receive_window: 4 * 1024 * 1024,
        }
    }

    /// Effective client stack rate for the given direction, bits/s.
    pub fn stack_rate_bps(&self, dir: Direction) -> u64 {
        let overhead = match dir {
            Direction::Upload => self.upload_packet_overhead,
            Direction::Download => self.download_packet_overhead,
        }
        .max(1);
        crate::tcp::MSS * 8 * mcs_sim::SEC / overhead
    }

    /// The paper's iOS reference device (iPad Air 2, iOS 8.4.1).
    pub fn ios() -> Self {
        Self {
            name: "ios",
            clt_upload_median: 100 * MS,
            clt_upload_sigma: 0.6,
            clt_download_median: 95 * MS,
            clt_download_sigma: 0.8,
            upload_packet_overhead: 1_200,
            download_packet_overhead: 800,
            receive_window: 2 * 1024 * 1024,
        }
    }

    /// Draws a client processing time `T_clt` for the given direction, µs.
    pub fn sample_clt(&self, dir: Direction, rng: &mut impl Rng) -> Time {
        let (median, sigma) = match dir {
            Direction::Upload => (self.clt_upload_median, self.clt_upload_sigma),
            Direction::Download => (self.clt_download_median, self.clt_download_sigma),
        };
        LogNormal::from_median(median as f64, sigma).sample(rng) as Time
    }
}

/// Median server processing time `T_srv`, µs.
const SRV_MEDIAN: Time = 100 * MS;
/// σ of ln `T_srv`.
const SRV_SIGMA: f64 = 0.55;

/// Draws a server processing time `T_srv` (upstream storage processing,
/// ≈ 100 ms median regardless of device — Fig. 16), µs.
pub(crate) fn sample_srv(rng: &mut impl Rng) -> Time {
    LogNormal::from_median(SRV_MEDIAN as f64, SRV_SIGMA).sample(rng) as Time
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunkflow::FlowConfig;
    use mcs_stats::rng::stream_rng;

    #[test]
    fn android_clt_upload_heavier_than_ios() {
        let mut rng = stream_rng(1, 0);
        let a = DeviceProfile::android();
        let i = DeviceProfile::ios();
        let n = 20_000;
        let ma: f64 = (0..n)
            .map(|_| a.sample_clt(Direction::Upload, &mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        let mi: f64 = (0..n)
            .map(|_| i.sample_clt(Direction::Upload, &mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        // Fig. 16a: ≈ 90 ms extra mean on Android.
        let gap_ms = (ma - mi) / MS as f64;
        assert!(gap_ms > 50.0 && gap_ms < 250.0, "gap {gap_ms} ms");
    }

    #[test]
    fn android_download_tail_an_order_beyond_ios() {
        let mut rng = stream_rng(2, 0);
        let a = DeviceProfile::android();
        let i = DeviceProfile::ios();
        let n = 20_000;
        let mut av: Vec<Time> = (0..n)
            .map(|_| a.sample_clt(Direction::Download, &mut rng))
            .collect();
        let mut iv: Vec<Time> = (0..n)
            .map(|_| i.sample_clt(Direction::Download, &mut rng))
            .collect();
        av.sort_unstable();
        iv.sort_unstable();
        let p90a = av[n * 9 / 10] as f64;
        let p90i = iv[n * 9 / 10] as f64;
        assert!(p90a / p90i > 2.5, "p90 ratio {}", p90a / p90i);
        // Medians comparable (Fig. 16b).
        let ratio = av[n / 2] as f64 / iv[n / 2] as f64;
        assert!(ratio > 0.7 && ratio < 2.0, "median ratio {ratio}");
    }

    #[test]
    fn server_window_depends_on_scaling() {
        let up = FlowConfig::upload(DeviceProfile::android(), 1, 1);
        assert_eq!(up.receiver_window(), 65_535);
        let scaled = FlowConfig {
            server_window_scaling: true,
            ..up
        };
        assert_eq!(scaled.receiver_window(), 2 * 1024 * 1024);
        // A download's receiver is the device, whatever the server does.
        let down = FlowConfig {
            direction: Direction::Download,
            ..scaled
        };
        assert_eq!(down.receiver_window(), 4 * 1024 * 1024);
    }

    #[test]
    fn srv_time_sane() {
        let mut rng = stream_rng(3, 0);
        let mut v: Vec<Time> = (0..10_000).map(|_| sample_srv(&mut rng)).collect();
        v.sort_unstable();
        let median_ms = v[5000] / MS;
        assert!((80..=120).contains(&median_ms), "median {median_ms} ms");
    }

    #[test]
    fn client_receive_windows_scaled() {
        assert!(DeviceProfile::android().receive_window > 1 << 20);
        assert!(DeviceProfile::ios().receive_window > 1 << 20);
    }

    #[test]
    fn stack_rates_order_android_below_ios() {
        let a = DeviceProfile::android();
        let i = DeviceProfile::ios();
        assert!(a.stack_rate_bps(Direction::Upload) < i.stack_rate_bps(Direction::Upload));
        assert!(a.stack_rate_bps(Direction::Download) < i.stack_rate_bps(Direction::Download));
        // Android upload stack ≈ 1.6 Mbit/s (≈ 200 KB/s, the Fig. 13a
        // slope); iOS well above the 64 KB/RTT window bound.
        let a_up = a.stack_rate_bps(Direction::Upload);
        assert!((1_200_000..2_500_000).contains(&a_up), "{a_up}");
    }
}
