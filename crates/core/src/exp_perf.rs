//! Performance experiments: Figs. 12–16 and the §4 ablations A1–A3.
//!
//! Figures 12, 14 and 15 have two sources, as in the paper: the HTTP log
//! side (from the analysed trace) and the packet-level side (from the
//! `mcs-net` simulator standing in for the paper's active measurements).

use mcs_faults::ConfigError;
use mcs_net::chunkflow::FlowConfig;
use mcs_net::device::{DeviceProfile, Direction as NetDirection};
use mcs_net::experiments::{
    run_campaign, run_fig13, run_mitigations, run_parallel_upload, run_resume_ablation,
};
use mcs_net::{simulate_flow, SEC};

use crate::render::{pct, series, sig, table, thin};
use crate::report::{ExperimentId, Metric, Report};
use crate::suite::ExperimentSuite;

impl ExperimentSuite {
    /// Fig. 12 — per-chunk transfer time by device type and direction.
    pub(crate) fn exp_f12(&mut self) -> Report {
        let flows = self.config().scale.flows_per_size();
        let seed = self.config().seed;
        let a = self.analysis();
        let mut body = String::new();
        let mut metrics = Vec::new();

        // Log side (what §4.1 computes from the access logs).
        let log_ratio = a.perf.upload_median_ratio();
        for (label, e) in [
            ("upload android", &a.perf.upload_android),
            ("upload ios", &a.perf.upload_ios),
            ("download android", &a.perf.download_android),
            ("download ios", &a.perf.download_ios),
        ] {
            if let Some(e) = e {
                let pts = e.cdf_series_log(12);
                body.push_str(&series(
                    &format!("Fig. 12 (log side) — chunk time CDF, {label} (s)"),
                    "seconds",
                    "CDF",
                    &pts,
                ));
                body.push('\n');
            }
        }

        // Simulator side (the paper's active experiments).
        let au = run_campaign(DeviceProfile::android(), NetDirection::Upload, flows, seed);
        let iu = run_campaign(DeviceProfile::ios(), NetDirection::Upload, flows, seed + 1);
        let ad = run_campaign(
            DeviceProfile::android(),
            NetDirection::Download,
            flows,
            seed + 2,
        );
        let id_ = run_campaign(
            DeviceProfile::ios(),
            NetDirection::Download,
            flows,
            seed + 3,
        );
        let rows: Vec<Vec<String>> = [&au, &iu, &ad, &id_]
            .iter()
            .map(|c| {
                // mcs-lint: allow(panic, campaign flows always transfer >= 1 chunk)
                let e = c.chunk_time_ecdf().expect("chunks");
                vec![
                    c.device.to_string(),
                    format!("{:?}", c.direction),
                    sig(e.median()),
                    sig(e.quantile(0.9)),
                    crate::render::bytes(c.mean_goodput) + "/s",
                ]
            })
            .collect();
        body.push_str("Simulated §4 campaign (per-chunk seconds):\n");
        body.push_str(&table(
            &["device", "direction", "median", "p90", "goodput"],
            &rows,
        ));

        // mcs-lint: allow(panic, campaign flows always transfer >= 1 chunk)
        let sim_ratio = au.chunk_time_ecdf().expect("chunks").median()
            / iu.chunk_time_ecdf().expect("chunks").median();
        // Bootstrap the simulated median ratio so the figure carries an
        // uncertainty statement, not just a point estimate.
        let ratio_ci = mcs_stats::bootstrap::median_ratio_ci(
            &au.chunk_times_s,
            &iu.chunk_times_s,
            400,
            0.95,
            seed,
        );
        // mcs-lint: allow(panic, campaign flows always transfer >= 1 chunk)
        let sim_dl_ratio = ad.chunk_time_ecdf().expect("chunks").median()
            / id_.chunk_time_ecdf().expect("chunks").median();
        metrics.push(Metric::checked(
            "upload median ratio android/ios (log side)",
            "4.1 s / 1.6 s ≈ 2.6",
            log_ratio.map(sig).unwrap_or_else(|| "n/a".into()),
            // At medium scale this sits at 1.9–2.1 (see the sensitivity
            // sweep); small traces wobble lower, so the gate only asserts
            // a material gap in the right direction.
            log_ratio.map(|r| r > 1.35).unwrap_or(false),
        ));
        metrics.push(Metric::checked(
            "upload median ratio android/ios (simulated)",
            "≈ 2.6",
            sig(sim_ratio),
            sim_ratio > 1.8,
        ));
        metrics.push(Metric::checked(
            "simulated ratio 95% bootstrap CI",
            "excludes 1 (the gap is not noise)",
            format!("[{}, {}]", sig(ratio_ci.lo), sig(ratio_ci.hi)),
            ratio_ci.excludes(1.0) && ratio_ci.lo > 1.5,
        ));
        metrics.push(Metric::checked(
            "download median ratio android/ios (simulated)",
            "android markedly slower",
            sig(sim_dl_ratio),
            sim_dl_ratio > 1.3,
        ));
        Report {
            id: ExperimentId::F12,
            title: "Fig. 12 — time to upload/download a chunk".into(),
            body,
            metrics,
        }
    }

    /// Fig. 13 — sequence number and in-flight size over time.
    pub(crate) fn exp_f13(&mut self) -> Report {
        let seed = self.config().seed;
        let (android, ios) = run_fig13(seed);
        let mut body = String::new();
        let window_s = 10.0;
        for (label, t) in [("android", &android), ("ios", &ios)] {
            let seq: Vec<(f64, f64)> = t
                .seq_samples
                .iter()
                .filter(|&&(at, _)| (at as f64) < window_s * SEC as f64)
                .map(|&(at, s)| (at as f64 / SEC as f64, s as f64 / 1e6))
                .collect();
            body.push_str(&series(
                &format!("Fig. 13a — sequence number (MB) over first 10 s, {label}"),
                "seconds",
                "MB",
                &thin(&seq, 16),
            ));
            body.push('\n');
            let inflight: Vec<(f64, f64)> = t
                .inflight_samples
                .iter()
                .filter(|&&(at, _)| (at as f64) < window_s * SEC as f64)
                .map(|&(at, s)| (at as f64 / SEC as f64, s as f64 / 1e3))
                .collect();
            body.push_str(&series(
                &format!("Fig. 13b — in-flight size (KB) over first 10 s, {label}"),
                "seconds",
                "KB",
                &thin(&inflight, 16),
            ));
            body.push('\n');
        }
        let mean_inflight = |t: &mcs_net::FlowTrace| {
            t.inflight_samples
                .iter()
                .map(|&(_, f)| f as f64)
                .sum::<f64>()
                / t.inflight_samples.len().max(1) as f64
        };
        Report {
            id: ExperimentId::F13,
            title: "Fig. 13 — storage-flow dynamics at the client".into(),
            body,
            metrics: vec![
                Metric::checked(
                    "iOS sustains a higher sending window",
                    "iPad restarts each chunk near 64 KB; Android collapses",
                    format!(
                        "mean inflight: ios {} vs android {}",
                        crate::render::bytes(mean_inflight(&ios)),
                        crate::render::bytes(mean_inflight(&android))
                    ),
                    mean_inflight(&ios) > mean_inflight(&android),
                ),
                Metric::checked(
                    "iOS uploads the same file faster",
                    "higher throughput (Fig. 13a slope)",
                    format!(
                        "durations: ios {} vs android {}",
                        crate::render::secs(ios.duration as f64 / SEC as f64),
                        crate::render::secs(android.duration as f64 / SEC as f64)
                    ),
                    ios.duration < android.duration,
                ),
                Metric::checked(
                    "Android flows restart slow start between chunks",
                    "long idle gaps reset the window",
                    format!("{} restarts", android.idle_restarts),
                    android.idle_restarts > 0,
                ),
            ],
        }
    }

    /// Fig. 14 — RTT distribution.
    pub(crate) fn exp_f14(&mut self) -> Report {
        let a = self.analysis();
        let mut body = String::new();
        let mut median = f64::NAN;
        if let Some(e) = &a.perf.rtt {
            median = e.median();
            let pts = e.cdf_series_log(14);
            body.push_str(&series(
                "Fig. 14 — CDF of per-chunk connection RTT (ms)",
                "RTT (ms)",
                "CDF",
                &pts,
            ));
        }
        Report {
            id: ExperimentId::F14,
            title: "Fig. 14 — RTT measured on chunk transmissions".into(),
            body,
            metrics: vec![Metric::checked(
                "median RTT",
                "~100 ms",
                format!("{} ms", sig(median)),
                (50.0..=200.0).contains(&median),
            )],
        }
    }

    /// Fig. 15 — estimated sending window.
    pub(crate) fn exp_f15(&mut self) -> Report {
        let a = self.analysis();
        let hist = &a.perf.swnd_hist;
        let total: u64 = hist.counts().iter().sum();
        let pts: Vec<(f64, f64)> = (0..hist.bins())
            .map(|i| {
                (
                    hist.bin_center(i) / 1024.0,
                    hist.counts()[i] as f64 / total.max(1) as f64,
                )
            })
            .collect();
        let body = series(
            "Fig. 15 — probability distribution of estimated swnd (KB)",
            "swnd (KB)",
            "probability",
            &thin(&pts, 32),
        );
        let mode = a.perf.swnd_mode_bytes();
        let p95 = a
            .perf
            .swnd
            .as_ref()
            .map(|e| e.quantile(0.95))
            .unwrap_or(f64::NAN);
        Report {
            id: ExperimentId::F15,
            title: "Fig. 15 — estimated sending window of storage flows".into(),
            body,
            metrics: vec![
                Metric::checked(
                    "modal swnd estimate",
                    "concentrated at 64 KB (no window scaling)",
                    crate::render::bytes(mode),
                    (30_000.0..=80_000.0).contains(&mode),
                ),
                Metric::checked(
                    "95th percentile swnd",
                    "bounded near 64 KB",
                    crate::render::bytes(p95),
                    p95 < 120_000.0,
                ),
            ],
        }
    }

    /// Fig. 16 — idle-time dissection.
    pub(crate) fn exp_f16(&mut self) -> Report {
        let flows = self.config().scale.flows_per_size();
        let seed = self.config().seed;
        let au = run_campaign(
            DeviceProfile::android(),
            NetDirection::Upload,
            flows,
            seed + 10,
        );
        let iu = run_campaign(DeviceProfile::ios(), NetDirection::Upload, flows, seed + 11);
        let ad = run_campaign(
            DeviceProfile::android(),
            NetDirection::Download,
            flows,
            seed + 12,
        );
        let id_ = run_campaign(
            DeviceProfile::ios(),
            NetDirection::Download,
            flows,
            seed + 13,
        );

        let mut body = String::new();
        // Fig. 16a/b distributions (T_clt/T_srv are model inputs; the
        // observed sender idles are emergent).
        fn median_p90(xs: &[f64]) -> (f64, f64) {
            if xs.is_empty() {
                return (f64::NAN, f64::NAN);
            }
            let mut v = xs.to_vec();
            v.sort_by(f64::total_cmp);
            (v[v.len() / 2], v[v.len() * 9 / 10])
        }
        let rows: Vec<Vec<String>> = [&au, &iu, &ad, &id_]
            .iter()
            .map(|c| {
                let (med, p90) = median_p90(&c.idle_times_s);
                vec![
                    c.device.to_string(),
                    format!("{:?}", c.direction),
                    sig(med),
                    sig(p90),
                    pct(c.over_rto_frac),
                    pct(c.restart_frac),
                ]
            })
            .collect();
        body.push_str("Observed sender idle gaps and restart accounting:\n");
        body.push_str(&table(
            &[
                "device",
                "direction",
                "median idle (s)",
                "p90 idle (s)",
                "idle>RTO (paper defn)",
                "restart frac (RFC 5681)",
            ],
            &rows,
        ));
        body.push('\n');
        for c in [&au, &iu] {
            if let Some(e) = c.idle_over_rto_ecdf() {
                let pts: Vec<(f64, f64)> = (0..=10)
                    .map(|i| {
                        let x = i as f64 * 0.5;
                        (x, e.cdf(x))
                    })
                    .collect();
                body.push_str(&series(
                    &format!("Fig. 16c — CDF of idle/RTO, {} storage", c.device),
                    "idle/RTO",
                    "CDF",
                    &pts,
                ));
                body.push('\n');
            }
        }

        Report {
            id: ExperimentId::F16,
            title: "Fig. 16 — dissecting the idle time between chunks".into(),
            body,
            metrics: vec![
                Metric::checked(
                    "android upload idles exceeding RTO",
                    "~60%",
                    pct(au.over_rto_frac),
                    (0.35..=0.8).contains(&au.over_rto_frac),
                ),
                Metric::checked(
                    "ios upload idles exceeding RTO",
                    "~18%",
                    pct(iu.over_rto_frac),
                    (0.05..=0.4).contains(&iu.over_rto_frac),
                ),
                Metric::checked(
                    "retrieval flows show the same gap",
                    "android > ios",
                    format!("{} vs {}", pct(ad.over_rto_frac), pct(id_.over_rto_frac)),
                    ad.over_rto_frac >= id_.over_rto_frac,
                ),
            ],
        }
    }

    /// Ablation A1 — chunk-size sweep (§4.3: "a larger chunk size can be
    /// used … increasing from 512 KB to 1.5–2 MB is reasonable").
    pub(crate) fn exp_a1(&mut self) -> Report {
        let seed = self.config().seed + 100;
        let file = 16u64 << 20;
        let mut rows = Vec::new();
        let mut goodputs = Vec::new();
        for chunk_kb in [512u64, 1024, 1536, 2048, 4096] {
            let mut g_a = 0.0;
            let mut g_i = 0.0;
            let mut restarts = 0u64;
            const FLOWS: u32 = 3;
            for f in 0..FLOWS {
                let s = seed + f as u64 * 31;
                let a = simulate_flow(&FlowConfig {
                    chunk_size: chunk_kb * 1024,
                    ..FlowConfig::upload(DeviceProfile::android(), file, s)
                });
                let i = simulate_flow(&FlowConfig {
                    chunk_size: chunk_kb * 1024,
                    ..FlowConfig::upload(DeviceProfile::ios(), file, s + 7)
                });
                g_a += a.goodput_bps() / FLOWS as f64;
                g_i += i.goodput_bps() / FLOWS as f64;
                restarts += a.idle_restarts;
            }
            goodputs.push((chunk_kb, g_a, g_i));
            rows.push(vec![
                format!("{chunk_kb} KB"),
                crate::render::bytes(g_a) + "/s",
                crate::render::bytes(g_i) + "/s",
                format!("{:.1}", restarts as f64 / FLOWS as f64),
            ]);
        }
        let body = table(
            &[
                "chunk size",
                "android goodput",
                "ios goodput",
                "android restarts/flow",
            ],
            &rows,
        );
        let base_a = goodputs[0].1;
        let two_mb_a = goodputs[3].1;
        let base_i = goodputs[0].2;
        let two_mb_i = goodputs[3].2;
        Report {
            id: ExperimentId::A1,
            title: "A1 — §4.3 mitigation: larger chunks".into(),
            body,
            metrics: vec![
                Metric::checked(
                    "2 MB chunks improve android uploads",
                    "fewer idle gaps → fewer restarts",
                    format!(
                        "{}/s → {}/s",
                        crate::render::bytes(base_a),
                        crate::render::bytes(two_mb_a)
                    ),
                    two_mb_a > base_a,
                ),
                Metric::checked(
                    "2 MB chunks improve ios uploads",
                    "same direction",
                    format!(
                        "{}/s → {}/s",
                        crate::render::bytes(base_i),
                        crate::render::bytes(two_mb_i)
                    ),
                    two_mb_i > base_i,
                ),
            ],
        }
    }

    /// Ablation A2 — SSAI off and paced restart (§4.3).
    pub(crate) fn exp_a2(&mut self) -> Report {
        let seed = self.config().seed + 200;
        let rows_data = run_mitigations(16 << 20, 3, seed);
        let rows: Vec<Vec<String>> = rows_data
            .iter()
            .map(|r| {
                vec![
                    r.label.to_string(),
                    crate::render::bytes(r.goodput_android) + "/s",
                    crate::render::bytes(r.goodput_ios) + "/s",
                    format!("{:.1}", r.restarts_android),
                    format!("{:.1}", r.drops_android),
                ]
            })
            .collect();
        let body = table(
            &[
                "configuration",
                "android goodput",
                "ios goodput",
                "restarts/flow",
                "drops/flow",
            ],
            &rows,
        );
        let base = &rows_data[0];
        let ssai_off = &rows_data[3];
        let paced = &rows_data[4];
        Report {
            id: ExperimentId::A2,
            title: "A2 — §4.3 mitigations: SSAI off / paced restart".into(),
            body,
            metrics: vec![
                Metric::checked(
                    "disabling SSAI removes restarts",
                    "0 restarts",
                    format!("{:.1}", ssai_off.restarts_android),
                    ssai_off.restarts_android == 0.0,
                ),
                Metric::checked(
                    "paced restart helps the window-bound profile",
                    "throughput up without burst loss",
                    format!(
                        "ios {}/s → {}/s",
                        crate::render::bytes(base.goodput_ios),
                        crate::render::bytes(paced.goodput_ios)
                    ),
                    paced.goodput_ios > base.goodput_ios,
                ),
            ],
        }
    }

    /// Ablation A3 — server window scaling (§4.1/§4.3).
    pub(crate) fn exp_a3(&mut self) -> Report {
        let seed = self.config().seed + 300;
        let file = 16u64 << 20;
        let mut rows = Vec::new();
        let mut results = Vec::new();
        for (label, scaling) in [("64 KB (deployed)", false), ("window scaling on", true)] {
            let mut g_i = 0.0;
            const FLOWS: u32 = 3;
            for f in 0..FLOWS {
                let t = simulate_flow(&FlowConfig {
                    server_window_scaling: scaling,
                    batch_chunks: 8, // isolate the window effect from idles
                    ..FlowConfig::upload(DeviceProfile::ios(), file, seed + f as u64)
                });
                g_i += t.goodput_bps() / FLOWS as f64;
            }
            results.push(g_i);
            rows.push(vec![label.to_string(), crate::render::bytes(g_i) + "/s"]);
        }
        let body = table(&["server receive window", "ios upload goodput"], &rows);
        Report {
            id: ExperimentId::A3,
            title: "A3 — §4.1 bottleneck: server receive window".into(),
            body,
            metrics: vec![
                Metric::checked(
                    "window scaling lifts upload throughput",
                    "64 KB clamp is the §4.1 bottleneck",
                    format!(
                        "{}/s → {}/s",
                        crate::render::bytes(results[0]),
                        crate::render::bytes(results[1])
                    ),
                    results[1] > results[0] * 1.3,
                ),
                // §4.3's caveat: scaling costs server memory if socket
                // buffers are preallocated for millions of flows.
                Metric::info(
                    "server buffer memory per 1M concurrent uploads",
                    format!(
                        "{} (64 KB) vs {} (2 MB scaled)",
                        crate::render::bytes(65_535.0 * 1e6),
                        crate::render::bytes(2.0 * 1024.0 * 1024.0 * 1e6)
                    ),
                ),
            ],
        }
    }

    /// Ablation A6 — parallel TCP connections (§3.1.3: the service uses
    /// several connections to accelerate transfers; §4.1 explains why —
    /// each upload connection is clamped at 64 KB).
    pub(crate) fn exp_a6(&mut self) -> Report {
        let title = "A6 — §3.1.3 acceleration: parallel TCP connections";
        let seed = self.config().seed + 400;
        let file = 16u64 << 20;
        let mut rows = Vec::new();
        let mut ios_results = Vec::new();
        for k in [1u32, 2, 4, 8] {
            let ios = run_parallel_upload(DeviceProfile::ios(), file, k, seed);
            let android = run_parallel_upload(DeviceProfile::android(), file, k, seed + 50);
            let (i, a) = match (ios, android) {
                (Ok(i), Ok(a)) => (i, a),
                (Err(e), _) | (_, Err(e)) => return rejected(ExperimentId::A6, title, e),
            };
            ios_results.push(i.goodput);
            rows.push(vec![
                k.to_string(),
                crate::render::bytes(i.goodput) + "/s",
                crate::render::bytes(a.goodput) + "/s",
            ]);
        }
        let body = table(
            &[
                "connections",
                "ios upload goodput",
                "android upload goodput",
            ],
            &rows,
        );
        Report {
            id: ExperimentId::A6,
            title: title.into(),
            body,
            metrics: vec![
                Metric::checked(
                    "4 connections beat 1 (window-bound ios uploads)",
                    "aggregate window scales with connections",
                    format!(
                        "{}/s → {}/s",
                        crate::render::bytes(ios_results[0]),
                        crate::render::bytes(ios_results[2])
                    ),
                    ios_results[2] > 2.0 * ios_results[0],
                ),
                Metric::checked(
                    "returns diminish beyond a few connections",
                    "mobile constraints cap useful parallelism (§3.1.3)",
                    format!(
                        "x4 {}/s vs x8 {}/s",
                        crate::render::bytes(ios_results[2]),
                        crate::render::bytes(ios_results[3])
                    ),
                    ios_results[3] < 2.0 * ios_results[2],
                ),
            ],
        }
    }

    /// Ablation A7 — resumable downloads (§3.1.4: large shared files over
    /// flaky mobile networks need "support for resuming a failed
    /// download"; the 512 KB-chunk + per-chunk-MD5 design makes resume
    /// natural).
    pub(crate) fn exp_a7(&mut self) -> Report {
        let title = "A7 — §3.1.4 implication: resumable downloads";
        let seed = self.config().seed + 500;
        let file = 150u64 << 20; // the Table 2 µ3 object: a ~150 MB video
        let mut rows = Vec::new();
        let mut savings = Vec::new();
        for frac in [0.2, 0.5, 0.8] {
            let r = match run_resume_ablation(DeviceProfile::android(), file, frac, seed) {
                Ok(r) => r,
                Err(e) => return rejected(ExperimentId::A7, title, e),
            };
            savings.push(r.saving());
            rows.push(vec![
                format!("{:.0}%", frac * 100.0),
                crate::render::secs(r.restart_total as f64 / 1e6),
                crate::render::secs(r.resume_total as f64 / 1e6),
                crate::render::pct(r.saving()),
            ]);
        }
        let body = table(
            &["failure point", "restart total", "resume total", "saving"],
            &rows,
        );
        Report {
            id: ExperimentId::A7,
            title: title.into(),
            body,
            metrics: vec![
                Metric::checked(
                    "resume beats restart at every failure point",
                    "rework proportional to lost progress",
                    format!(
                        "savings {} / {} / {}",
                        crate::render::pct(savings[0]),
                        crate::render::pct(savings[1]),
                        crate::render::pct(savings[2])
                    ),
                    savings.iter().all(|&s| s > 0.0),
                ),
                Metric::checked(
                    "late failures hurt most without resume",
                    "saving grows with progress lost",
                    format!(
                        "{} @80% vs {} @20%",
                        crate::render::pct(savings[2]),
                        crate::render::pct(savings[0])
                    ),
                    savings[2] > savings[0],
                ),
            ],
        }
    }
}

/// The report of an ablation whose runner rejected its inputs: one failed
/// check that names the error.
fn rejected(id: ExperimentId, title: &str, err: ConfigError) -> Report {
    Report {
        id,
        title: title.into(),
        body: String::new(),
        metrics: vec![Metric::checked(
            "ablation inputs simulate",
            "valid flow configurations",
            err.to_string(),
            false,
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rejected_ablation_is_a_mismatch_that_names_the_error() {
        let err = ConfigError::ZeroCount {
            what: "parallel connection",
        };
        let report = rejected(ExperimentId::A6, "A6", err);
        assert!(!report.all_ok());
        assert!(report.render().contains(&err.to_string()));
    }
}
