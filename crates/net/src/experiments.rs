//! Canned §4 experiments.
//!
//! The paper's active measurements uploaded/downloaded files of 2, 10 and
//! 80 MB from an Android Pad and an iPad through the same AP, captured
//! packets, and dissected chunk times, in-flight windows and idle gaps.
//! These runners reproduce that campaign on the simulator and emit exactly
//! the series Figs. 12, 13 and 16 plot.

use mcs_faults::{ConfigError, Windows};
use mcs_sim::SEC;
use mcs_stats::Ecdf;

use crate::capture::FlowTrace;
use crate::chunkflow::{simulate_flow, try_simulate_shared_report, FlowConfig};
use crate::device::{DeviceProfile, Direction};
use crate::profile::LinkProfile;

/// The paper's three test file sizes, bytes.
pub const PAPER_FILE_SIZES: [u64; 3] = [2 << 20, 10 << 20, 80 << 20];

/// Result of one device/direction campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Device name ("android" / "ios").
    pub device: &'static str,
    /// Radio-access profile the campaign ran on (see
    /// [`LinkProfile::name`]; "baseline" is the paper's measured regime).
    pub profile: &'static str,
    /// Transfer direction.
    pub direction: Direction,
    /// Per-chunk transfer times pooled over all flows, seconds (Fig. 12).
    pub chunk_times_s: Vec<f64>,
    /// Idle/RTO ratios pooled over all flows (Fig. 16c).
    pub idle_over_rto: Vec<f64>,
    /// Client processing times implied by the unlock gaps are an input
    /// here, so instead we report the observed sender idle times, seconds.
    pub idle_times_s: Vec<f64>,
    /// Fraction of idle gaps that restarted slow start (true RFC 5681
    /// semantics: sender idle, which includes ~1 RTT of propagation).
    pub restart_frac: f64,
    /// Fraction of idle gaps whose `T_srv + T_clt` exceeded the RTO — the
    /// paper's Fig. 16c statistic (~60 % Android vs ~18 % iOS uploads).
    pub over_rto_frac: f64,
    /// Mean goodput across the flows that finished, bytes/s.
    pub mean_goodput: f64,
    /// Flows that tripped the event budget. They are left out of every
    /// statistic above, in every build profile.
    pub aborted: u32,
}

impl CampaignResult {
    /// ECDF of the chunk times.
    pub fn chunk_time_ecdf(&self) -> Option<Ecdf> {
        if self.chunk_times_s.is_empty() {
            None
        } else {
            Some(Ecdf::new(self.chunk_times_s.clone()))
        }
    }

    /// ECDF of idle/RTO.
    pub fn idle_over_rto_ecdf(&self) -> Option<Ecdf> {
        if self.idle_over_rto.is_empty() {
            None
        } else {
            Some(Ecdf::new(self.idle_over_rto.clone()))
        }
    }
}

/// Runs `flows_per_size` flows per paper file size for one device and
/// direction on the paper's measured baseline regime. Identical (bit for
/// bit) to [`run_campaign_on`] with
/// [`LinkProfile::measured_baseline`].
pub fn run_campaign(
    device: DeviceProfile,
    direction: Direction,
    flows_per_size: u32,
    seed: u64,
) -> CampaignResult {
    run_campaign_on(
        &LinkProfile::measured_baseline(),
        device,
        direction,
        flows_per_size,
        seed,
    )
}

/// [`run_campaign`] on an arbitrary radio-access regime: each flow draws
/// its own link from the profile's seeded distribution (keyed by the
/// flow seed), so campaigns stay deterministic per `(profile, seed)`.
pub fn run_campaign_on(
    profile: &LinkProfile,
    device: DeviceProfile,
    direction: Direction,
    flows_per_size: u32,
    seed: u64,
) -> CampaignResult {
    let mut chunk_times_s = Vec::new();
    let mut idle_over_rto = Vec::new();
    let mut idle_times_s = Vec::new();
    let mut restarts = 0u64;
    let mut idles = 0u64;
    let mut goodput_sum = 0.0;
    let mut flows = 0u32;
    let mut aborted = 0u32;

    for (i, &size) in PAPER_FILE_SIZES.iter().enumerate() {
        for f in 0..flows_per_size {
            let flow_seed = seed
                .wrapping_mul(1_000_003)
                .wrapping_add((i as u64) << 32)
                .wrapping_add(f as u64);
            let cfg = match direction {
                Direction::Upload => FlowConfig::upload_via(profile, device, size, flow_seed),
                Direction::Download => FlowConfig::download_via(profile, device, size, flow_seed),
            };
            let t = simulate_flow(&cfg);
            if t.aborted {
                aborted += 1;
                continue;
            }
            chunk_times_s.extend(t.chunk_times_s());
            for r in &t.idle_records {
                idle_over_rto.push(r.idle_over_rto());
                idle_times_s.push(r.idle as f64 / SEC as f64);
                if r.restarted {
                    restarts += 1;
                }
                idles += 1;
            }
            goodput_sum += t.goodput_bps();
            flows += 1;
        }
    }

    let over_rto = idle_over_rto.iter().filter(|&&r| r > 1.0).count();
    CampaignResult {
        device: device.name,
        profile: profile.name,
        direction,
        chunk_times_s,
        idle_times_s,
        restart_frac: restarts as f64 / idles.max(1) as f64,
        over_rto_frac: over_rto as f64 / idle_over_rto.len().max(1) as f64,
        idle_over_rto,
        mean_goodput: goodput_sum / flows.max(1) as f64,
        aborted,
    }
}

/// One cell of the device × profile × file-size scenario matrix
/// (`examples/scenario_matrix.rs`): pooled upload and download statistics
/// for `flows` flows of one size on one regime.
#[derive(Debug, Clone)]
pub struct ScenarioCell {
    /// Radio-access profile name.
    pub profile: &'static str,
    /// Device name.
    pub device: &'static str,
    /// File size, bytes.
    pub file_bytes: u64,
    /// Flows per direction pooled into the cell.
    pub flows: u32,
    /// Median per-chunk upload time, seconds (the Fig. 12 statistic).
    pub upload_median_chunk_s: f64,
    /// Mean upload duration, seconds (the Fig. 13 statistic).
    pub upload_mean_duration_s: f64,
    /// Mean upload goodput, bytes/s.
    pub upload_goodput_bps: f64,
    /// Mean download goodput, bytes/s (Fig. 15: uploads sit far below
    /// this when the server window stays unscaled).
    pub download_goodput_bps: f64,
    /// Fraction of upload idle gaps exceeding the RTO (Fig. 16c).
    pub upload_over_rto_frac: f64,
    /// Fraction of upload idle gaps that restarted slow start.
    pub upload_restart_frac: f64,
}

/// Runs one scenario-matrix cell: `flows` uploads and `flows` downloads
/// of `file_bytes` for one device on one profile. Deterministic in
/// `(profile, device, file_bytes, flows, seed)`.
pub fn run_scenario_cell(
    profile: &LinkProfile,
    device: DeviceProfile,
    file_bytes: u64,
    flows: u32,
    seed: u64,
) -> ScenarioCell {
    let mut chunk_times_s: Vec<f64> = Vec::new();
    let mut up_duration_s = 0.0;
    let mut up_goodput = 0.0;
    let mut down_goodput = 0.0;
    let mut restarts = 0u64;
    let mut over_rto = 0u64;
    let mut idles = 0u64;
    for f in 0..flows {
        let flow_seed = seed
            .wrapping_mul(1_000_003)
            .wrapping_add(u64::from(f) << 16);
        let up = simulate_flow(&FlowConfig::upload_via(
            profile, device, file_bytes, flow_seed,
        ));
        chunk_times_s.extend(up.chunk_times_s());
        let up_secs = up.duration as f64 / SEC as f64;
        up_duration_s += up_secs;
        up_goodput += up.goodput_bps();
        for r in &up.idle_records {
            if r.restarted {
                restarts += 1;
            }
            if r.idle_over_rto() > 1.0 {
                over_rto += 1;
            }
            idles += 1;
        }
        let down = simulate_flow(&FlowConfig::download_via(
            profile,
            device,
            file_bytes,
            flow_seed.wrapping_add(1),
        ));
        down_goodput += down.goodput_bps();
    }
    chunk_times_s.sort_by(f64::total_cmp);
    let fl = f64::from(flows.max(1));
    ScenarioCell {
        profile: profile.name,
        device: device.name,
        file_bytes,
        flows,
        upload_median_chunk_s: chunk_times_s
            .get(chunk_times_s.len() / 2)
            .copied()
            .unwrap_or(0.0),
        upload_mean_duration_s: up_duration_s / fl,
        upload_goodput_bps: up_goodput / fl,
        download_goodput_bps: down_goodput / fl,
        upload_over_rto_frac: over_rto as f64 / idles.max(1) as f64,
        upload_restart_frac: restarts as f64 / idles.max(1) as f64,
    }
}

/// Fig. 13: a single 10 MB upload per device, returning the raw traces
/// whose first seconds the figure plots.
pub fn run_fig13(seed: u64) -> (FlowTrace, FlowTrace) {
    let android = simulate_flow(&FlowConfig::upload(
        DeviceProfile::android(),
        10 << 20,
        seed,
    ));
    let ios = simulate_flow(&FlowConfig::upload(
        DeviceProfile::ios(),
        10 << 20,
        seed + 1,
    ));
    (android, ios)
}

/// One §4.3 mitigation ablation row.
#[derive(Debug, Clone, Copy)]
pub struct MitigationRow {
    /// Label for the configuration.
    pub label: &'static str,
    /// Mean upload goodput for the Android profile, bytes/s.
    pub goodput_android: f64,
    /// Mean upload goodput for the iOS profile, bytes/s.
    pub goodput_ios: f64,
    /// Slow-start restarts per flow (Android).
    pub restarts_android: f64,
    /// Packet drops per flow (Android) — the no-SSAI burst-loss risk.
    pub drops_android: f64,
}

/// A named transformation of the base flow configuration.
type Variant = (&'static str, fn(FlowConfig) -> FlowConfig);

/// Runs the §4.3 mitigation matrix on `file_size`-byte uploads.
pub fn run_mitigations(file_size: u64, flows: u32, seed: u64) -> Vec<MitigationRow> {
    let variants: [Variant; 5] = [
        ("deployed (512 KB, SSAI on)", |c| c),
        ("2 MB chunks", |c| FlowConfig {
            chunk_size: 2 * 1024 * 1024,
            ..c
        }),
        ("batched x4", |c| FlowConfig {
            batch_chunks: 4,
            ..c
        }),
        ("SSAI off", |c| FlowConfig {
            disable_ssai: true,
            ..c
        }),
        ("paced restart", |c| FlowConfig {
            pacing_after_idle: true,
            ..c
        }),
    ];
    variants
        .iter()
        .map(|&(label, make)| {
            let mut g_a = 0.0;
            let mut g_i = 0.0;
            let mut restarts = 0u64;
            let mut drops = 0u64;
            for f in 0..flows {
                let s = seed.wrapping_add(f as u64 * 7919);
                let a = simulate_flow(&make(FlowConfig::upload(
                    DeviceProfile::android(),
                    file_size,
                    s,
                )));
                let i = simulate_flow(&make(FlowConfig::upload(
                    DeviceProfile::ios(),
                    file_size,
                    s + 1,
                )));
                g_a += a.goodput_bps();
                g_i += i.goodput_bps();
                restarts += a.idle_restarts;
                drops += a.buffer_drops + a.random_drops;
            }
            MitigationRow {
                label,
                goodput_android: g_a / flows as f64,
                goodput_ios: g_i / flows as f64,
                restarts_android: restarts as f64 / flows as f64,
                drops_android: drops as f64 / flows as f64,
            }
        })
        .collect()
}

/// §3.1.3 notes the service "uses multiple TCP connections to accelerate
/// upload and download" — the natural way around the 64 KB per-connection
/// receive window. This models k connections each moving `total/k` bytes
/// over **one shared bottleneck link** (honest contention: the aggregate
/// cannot exceed the link rate and flows compete for the drop-tail
/// buffer); completion is the slowest flow. Per-device stack costs remain
/// per-connection — the §3.1.3 caveat about "power, memory and CPU
/// constraints" of multi-connection transfers on mobile devices.
#[derive(Debug, Clone, Copy)]
pub struct ParallelUploadResult {
    /// Connections used.
    pub connections: u32,
    /// Completion time of the slowest flow, µs.
    pub duration: mcs_sim::Time,
    /// Aggregate goodput, bytes/s.
    pub goodput: f64,
}

/// Uploads `total_bytes` over `k` parallel connections. Rejects `k = 0`
/// and a split whose flows [`FlowConfig::validate`] rejects with a typed
/// [`ConfigError`].
pub fn run_parallel_upload(
    device: DeviceProfile,
    total_bytes: u64,
    k: u32,
    seed: u64,
) -> Result<ParallelUploadResult, ConfigError> {
    if k == 0 {
        return Err(ConfigError::ZeroCount {
            what: "parallel connection",
        });
    }
    let share = total_bytes / k as u64;
    let cfgs: Vec<FlowConfig> = (0..k)
        .map(|i| {
            let bytes = if i + 1 == k {
                total_bytes - share * (k as u64 - 1)
            } else {
                share
            };
            FlowConfig::upload(device, bytes.max(1), seed.wrapping_add(u64::from(i)))
        })
        .collect();
    let report = try_simulate_shared_report(&cfgs, cfgs[0].data_link, &Windows::empty())?;
    // One trace per flow, each at least 1 µs long.
    let slowest = report.traces.iter().map(|t| t.duration).max().unwrap_or(1);
    Ok(ParallelUploadResult {
        connections: k,
        duration: slowest,
        goodput: total_bytes as f64 / (slowest as f64 / SEC as f64),
    })
}

/// §3.1.4 implication: *"a considerable fraction of retrievals download
/// large files … suggesting a need for resilience to possible failures,
/// such as support for resuming a failed download."* One row of the
/// resume-vs-restart comparison.
#[derive(Debug, Clone, Copy)]
pub struct ResumeRow {
    /// Fraction of the file transferred when the connection died.
    pub fail_at_frac: f64,
    /// Total download time when the client must restart from byte 0, µs.
    pub restart_total: mcs_sim::Time,
    /// Total download time when the client resumes at the failed chunk, µs.
    pub resume_total: mcs_sim::Time,
}

impl ResumeRow {
    /// Time saved by resume support, as a fraction of the restart total.
    pub fn saving(&self) -> f64 {
        let frac = self.resume_total as f64 / self.restart_total.max(1) as f64;
        1.0 - frac
    }
}

/// Simulates a download of `file_size` bytes that fails after
/// `fail_at_frac` of the file has been delivered, then completes either by
/// restarting from scratch or by resuming from the last complete chunk
/// (the service's chunk+MD5 design makes resume trivial — each 512 KB
/// chunk is independently verifiable). Rejects a failure point outside
/// [0, 1) and a leg that [`FlowConfig::validate`] rejects (an empty file,
/// or one too large to simulate) with a typed [`ConfigError`].
pub fn run_resume_ablation(
    device: DeviceProfile,
    file_size: u64,
    fail_at_frac: f64,
    seed: u64,
) -> Result<ResumeRow, ConfigError> {
    if !(0.0..1.0).contains(&fail_at_frac) {
        return Err(ConfigError::OutOfRange {
            what: "failure point",
            requirement: "must lie in [0, 1)",
        });
    }
    let chunk = 512 * 1024u64;
    // Bytes completed before the failure, rounded down to a chunk boundary
    // (partially transferred chunks cannot be verified and are discarded).
    let done = ((file_size as f64 * fail_at_frac) as u64) / chunk * chunk;
    let legs = [
        FlowConfig::download(device, done.max(chunk), seed),
        FlowConfig::download(device, file_size, seed.wrapping_add(1)),
        FlowConfig::download(
            device,
            file_size.saturating_sub(done).max(chunk),
            seed.wrapping_add(1),
        ),
    ];
    for leg in &legs {
        leg.validate()?;
    }
    let [first, restart, resume] = legs.map(|leg| simulate_flow(&leg).duration);
    Ok(ResumeRow {
        fail_at_frac,
        restart_total: first.saturating_add(restart),
        resume_total: first.saturating_add(resume),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_shape_android_slower_uploads() {
        let a = run_campaign(DeviceProfile::android(), Direction::Upload, 2, 100);
        let i = run_campaign(DeviceProfile::ios(), Direction::Upload, 2, 200);
        let ma = a.chunk_time_ecdf().unwrap().median();
        let mi = i.chunk_time_ecdf().unwrap().median();
        assert!(
            ma / mi > 1.3,
            "android median {ma}s vs ios {mi}s — gap too small"
        );
        assert!(a.mean_goodput < i.mean_goodput);
    }

    #[test]
    fn campaign_skips_and_counts_aborted_flows() {
        // Every packet is lost, so each of the three flows (one per paper
        // size) trips the event budget without completing a chunk.
        let dead = LinkProfile {
            loss_prob: 1.0,
            ..LinkProfile::measured_baseline()
        };
        let c = run_campaign_on(&dead, DeviceProfile::android(), Direction::Upload, 1, 3);
        assert_eq!(c.aborted, 3);
        assert_eq!(c.mean_goodput, 0.0);
        assert!(c.chunk_times_s.is_empty() && c.idle_over_rto.is_empty());
        let live = run_campaign(DeviceProfile::android(), Direction::Upload, 1, 3);
        assert_eq!(live.aborted, 0);
        assert!(live.mean_goodput > 0.0);
    }

    #[test]
    fn fig16c_shape_restart_fractions() {
        let a = run_campaign(DeviceProfile::android(), Direction::Upload, 2, 300);
        let i = run_campaign(DeviceProfile::ios(), Direction::Upload, 2, 400);
        // Paper: ~60 % Android vs ~18 % iOS idle gaps exceed RTO.
        assert!(
            a.over_rto_frac > i.over_rto_frac + 0.15,
            "android {} vs ios {}",
            a.over_rto_frac,
            i.over_rto_frac
        );
        assert!(
            (0.35..0.80).contains(&a.over_rto_frac),
            "android over-RTO frac {}",
            a.over_rto_frac
        );
        assert!(
            (0.05..0.40).contains(&i.over_rto_frac),
            "ios over-RTO frac {}",
            i.over_rto_frac
        );
        // The true sender-idle restart rate is at least as high, and keeps
        // the Android ≫ iOS ordering.
        assert!(a.restart_frac >= a.over_rto_frac - 0.05);
        assert!(a.restart_frac > i.restart_frac);
    }

    #[test]
    fn fig13_traces_plausible() {
        let (a, i) = run_fig13(500);
        assert!(!a.aborted && !i.aborted);
        // iOS finishes the same upload markedly faster (Fig. 13a slopes).
        assert!(
            i.duration * 2 < a.duration,
            "ios {} vs android {}",
            i.duration,
            a.duration
        );
        // Android hits slow-start restarts; and the iOS flow sustains a
        // higher in-flight window on average (Fig. 13b).
        assert!(a.idle_restarts > 0);
        let mean_inflight = |t: &FlowTrace| {
            t.inflight_samples
                .iter()
                .map(|&(_, f)| f as f64)
                .sum::<f64>()
                / t.inflight_samples.len().max(1) as f64
        };
        assert!(
            mean_inflight(&i) > mean_inflight(&a),
            "ios {} vs android {}",
            mean_inflight(&i),
            mean_inflight(&a)
        );
    }

    #[test]
    fn parallel_connections_scale_window_bound_uploads() {
        // iOS uploads are receive-window-bound: splitting across
        // connections multiplies the aggregate window.
        let one = run_parallel_upload(DeviceProfile::ios(), 16 << 20, 1, 777).unwrap();
        let four = run_parallel_upload(DeviceProfile::ios(), 16 << 20, 4, 777).unwrap();
        assert!(
            four.duration * 2 < one.duration,
            "4 conns {} vs 1 conn {}",
            four.duration,
            one.duration
        );
        assert!(four.goodput > 2.0 * one.goodput);
        // Speedup saturates: going 4 → 16 connections on a 16 MB file
        // gains much less than 1 → 4 (per-flow slow start and chunk idles
        // stop amortising).
        let sixteen = run_parallel_upload(DeviceProfile::ios(), 16 << 20, 16, 777).unwrap();
        let gain_4 = one.duration as f64 / four.duration as f64;
        let gain_16 = four.duration as f64 / sixteen.duration as f64;
        assert!(gain_16 < gain_4, "4→16 gain {gain_16} vs 1→4 gain {gain_4}");
    }

    #[test]
    fn resume_saves_proportionally_to_progress() {
        let early = run_resume_ablation(DeviceProfile::android(), 150 << 20, 0.2, 1234).unwrap();
        let late = run_resume_ablation(DeviceProfile::android(), 150 << 20, 0.8, 1234).unwrap();
        assert!(early.saving() > 0.1, "early saving {}", early.saving());
        assert!(
            late.saving() > early.saving(),
            "late {} vs early {}",
            late.saving(),
            early.saving()
        );
        // Resuming an 80%-complete 150 MB download saves most of the rework.
        assert!(late.saving() > 0.35, "late saving {}", late.saving());
        assert!(late.resume_total < late.restart_total);
    }

    #[test]
    fn parallel_upload_rejects_what_it_cannot_simulate() {
        let ios = DeviceProfile::ios();
        assert_eq!(
            run_parallel_upload(ios, 16 << 20, 0, 1).err(),
            Some(ConfigError::ZeroCount {
                what: "parallel connection"
            })
        );
        // Regression: a 1 EiB flow fails `validate`, and the empty trace
        // list read as a 1 µs upload at ~1.2·10^24 B/s.
        assert_eq!(
            run_parallel_upload(ios, 1 << 60, 1, 0).err(),
            Some(ConfigError::OutOfRange {
                what: "flow total bytes",
                requirement: "must lie in [1 B, 4 GiB]",
            })
        );
    }

    #[test]
    fn resume_ablation_rejects_what_it_cannot_simulate() {
        let android = DeviceProfile::android();
        for frac in [-0.1, 1.0, 2.0, f64::NAN] {
            assert_eq!(
                run_resume_ablation(android, 8 << 20, frac, 1).err(),
                Some(ConfigError::OutOfRange {
                    what: "failure point",
                    requirement: "must lie in [0, 1)",
                }),
                "fail_at_frac {frac}"
            );
        }
        // An empty file, and (a regression) the restart leg of an 8 EiB
        // file, which reached `simulate_flow`'s panic.
        for size in [0, 1 << 63] {
            assert_eq!(
                run_resume_ablation(android, size, 0.0, 1).err(),
                Some(ConfigError::OutOfRange {
                    what: "flow total bytes",
                    requirement: "must lie in [1 B, 4 GiB]",
                }),
                "size {size}"
            );
        }
    }

    #[test]
    fn mitigation_rows_improve_android() {
        let rows = run_mitigations(8 << 20, 2, 900);
        assert_eq!(rows.len(), 5);
        let base_a = rows[0].goodput_android;
        let base_i = rows[0].goodput_ios;
        // Fewer inter-chunk idles (larger chunks / batching) help both
        // profiles substantially.
        for row in &rows[1..3] {
            assert!(
                row.goodput_android > base_a,
                "{} android ({} vs {base_a})",
                row.label,
                row.goodput_android
            );
            assert!(
                row.goodput_ios > base_i,
                "{} ios ({} vs {base_i})",
                row.label,
                row.goodput_ios
            );
        }
        // SSAI-off / pacing remove the window collapse: decisive for the
        // window-bound iOS profile, at worst neutral for the
        // serialization-bound Android profile.
        for row in &rows[3..] {
            assert!(
                row.goodput_ios > base_i,
                "{} ios ({} vs {base_i})",
                row.label,
                row.goodput_ios
            );
            assert!(
                row.goodput_android > base_a * 0.95,
                "{} android ({} vs {base_a})",
                row.label,
                row.goodput_android
            );
        }
        // Batching/larger chunks eliminate most restarts.
        assert!(rows[1].restarts_android < rows[0].restarts_android);
        assert!(rows[2].restarts_android < rows[0].restarts_android);
        assert_eq!(rows[3].restarts_android, 0.0);
    }
}

#[cfg(test)]
mod calib_tests {
    use super::*;

    #[test]
    #[ignore = "calibration inspection helper; run with --ignored"]
    fn print_fig12_medians() {
        for (dev, dir) in [
            (DeviceProfile::android(), Direction::Upload),
            (DeviceProfile::ios(), Direction::Upload),
            (DeviceProfile::android(), Direction::Download),
            (DeviceProfile::ios(), Direction::Download),
        ] {
            let c = run_campaign(dev, dir, 3, 42);
            let e = c.chunk_time_ecdf().unwrap();
            eprintln!(
                "{:>8} {:?}: median {:.2}s p90 {:.2}s over_rto {:.2} restart {:.2} goodput {:.0} B/s",
                c.device,
                c.direction,
                e.median(),
                e.quantile(0.9),
                c.over_rto_frac,
                c.restart_frac,
                c.mean_goodput
            );
        }
    }
}
