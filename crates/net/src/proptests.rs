//! Property-based tests over the flow simulator: completion, conservation
//! and determinism must hold for *any* sane configuration, not just the
//! paper's parameters. Each property runs 24 seeded cases, since each case
//! is a full flow simulation.

#![cfg(test)]

use mcs_faults::Windows;
use mcs_sim::MS;
use mcs_stats::rng::{stream_rng, ChaCha8Rng, Rng};

use crate::chunkflow::{simulate_flow, try_simulate_shared_report, FlowConfig};
use crate::device::DeviceProfile;
use crate::link::{Link, LinkConfig, Transmit};

const SEED: u64 = 0x5EED;
const CASES: u64 = 24;

fn arb_device(rng: &mut ChaCha8Rng) -> DeviceProfile {
    if rng.random() {
        DeviceProfile::android()
    } else {
        DeviceProfile::ios()
    }
}

#[test]
fn prop_upload_completes_and_conserves_bytes() {
    for case in 0..CASES {
        let mut rng = stream_rng(SEED, case);
        let device = arb_device(&mut rng);
        let total_kb = rng.random_range(64u64..4096);
        let chunk_kb = rng.random_range(128u64..2048);
        let batch = rng.random_range(1u32..4);
        let seed = rng.random_range(0u64..1_000);
        let cfg = FlowConfig {
            chunk_size: chunk_kb * 1024,
            batch_chunks: batch,
            ..FlowConfig::upload(device, total_kb * 1024, seed)
        };
        let t = simulate_flow(&cfg);
        assert!(!t.aborted, "case {case}: aborted");
        // Every byte arrives exactly once at the application level.
        let delivered: u64 = t.chunk_records.iter().map(|c| c.bytes).sum();
        assert_eq!(delivered, total_kb * 1024, "case {case}");
        // Batch indices are dense and ordered.
        for (i, c) in t.chunk_records.iter().enumerate() {
            assert_eq!(c.index as usize, i, "case {case}");
        }
        // One idle record per inter-batch gap.
        assert_eq!(
            t.idle_records.len() + 1,
            t.chunk_records.len(),
            "case {case}"
        );
        // Sequence trace ends at the full byte count.
        let last = t.seq_samples.last().map(|&(_, s)| s);
        assert_eq!(last, Some(total_kb * 1024), "case {case}");
    }
}

#[test]
fn prop_download_completes() {
    for case in 0..CASES {
        let mut rng = stream_rng(SEED, case);
        let device = arb_device(&mut rng);
        let total_kb = rng.random_range(64u64..2048);
        let seed = rng.random_range(0u64..1_000);
        let t = simulate_flow(&FlowConfig::download(device, total_kb * 1024, seed));
        assert!(!t.aborted, "case {case}: aborted");
        let delivered: u64 = t.chunk_records.iter().map(|c| c.bytes).sum();
        assert_eq!(delivered, total_kb * 1024, "case {case}");
    }
}

#[test]
fn prop_lossy_flows_still_complete() {
    for case in 0..CASES {
        let mut rng = stream_rng(SEED, case);
        let loss = 0.08 * rng.random::<f64>();
        let seed = rng.random_range(0u64..500);
        let cfg = FlowConfig {
            data_link: LinkConfig {
                loss_prob: loss,
                ..LinkConfig::default()
            },
            ..FlowConfig::upload(DeviceProfile::ios(), 2 << 20, seed)
        };
        let t = simulate_flow(&cfg);
        assert!(!t.aborted, "case {case}: loss {loss} aborted the flow");
        let delivered: u64 = t.chunk_records.iter().map(|c| c.bytes).sum();
        assert_eq!(delivered, 2 << 20, "case {case}");
    }
}

#[test]
fn prop_deterministic_in_seed() {
    for case in 0..CASES {
        let seed = stream_rng(SEED, case).random_range(0u64..10_000);
        let cfg = FlowConfig::upload(DeviceProfile::android(), 1 << 20, seed);
        let a = simulate_flow(&cfg);
        let b = simulate_flow(&cfg);
        assert_eq!(a.duration, b.duration, "case {case}");
        assert_eq!(a.idle_records, b.idle_records, "case {case}");
        assert_eq!(a.seq_samples, b.seq_samples, "case {case}");
    }
}

#[test]
fn prop_link_conserves_packets_under_blackouts() {
    for case in 0..CASES {
        let mut rng = stream_rng(SEED, case);
        let rate_mbps = rng.random_range(1u64..50);
        let buffer_kb = rng.random_range(1u64..64);
        let loss = 0.2 * rng.random::<f64>();
        let n_packets = rng.random_range(1usize..200);
        let gap_us = rng.random_range(1u64..5_000);
        let windows: Vec<(u64, u64)> = (0..rng.random_range(0usize..4))
            .map(|_| {
                let s = rng.random_range(0u64..400_000);
                (s, s + rng.random_range(1u64..200_000))
            })
            .collect();
        let seed = rng.random_range(0u64..1_000);
        // Every offered packet must land in exactly one bucket, no matter
        // how blackout windows overlap buffer occupancy or random loss.
        let mut link = Link::new(LinkConfig {
            rate_bps: rate_mbps * 1_000_000,
            buffer_bytes: buffer_kb * 1024,
            loss_prob: loss,
            ..LinkConfig::default()
        })
        .unwrap();
        link.set_blackouts(Windows::new(windows));
        let mut rng = stream_rng(seed, 0xB1AC);
        let mut delivered = 0u64;
        for i in 0..n_packets {
            if let Transmit::Arrive(_) = link.transmit(i as u64 * gap_us, 1400, &mut rng) {
                delivered += 1;
            }
        }
        assert_eq!(delivered, link.delivered, "case {case}");
        assert_eq!(
            link.delivered + link.buffer_drops + link.random_drops + link.blackout_drops,
            link.offered,
            "case {case}"
        );
        assert_eq!(link.offered, n_packets as u64, "case {case}");
    }
}

#[test]
fn prop_blackout_flows_still_complete() {
    for case in 0..CASES {
        let mut rng = stream_rng(SEED, case);
        let start_ms = rng.random_range(100u64..4_000);
        let len_ms = rng.random_range(50u64..500);
        let seed = rng.random_range(0u64..500);
        let cfg = FlowConfig::upload(DeviceProfile::ios(), 1 << 20, seed);
        let out = Windows::new(vec![(start_ms * MS, (start_ms + len_ms) * MS)]);
        let mut report =
            try_simulate_shared_report(std::slice::from_ref(&cfg), cfg.data_link, &out).unwrap();
        let t = report.traces.remove(0);
        assert!(
            !t.aborted,
            "case {case}: blackout at {start_ms}ms/{len_ms}ms aborted"
        );
        let delivered: u64 = t.chunk_records.iter().map(|c| c.bytes).sum();
        assert_eq!(delivered, 1 << 20, "case {case}");
    }
}

#[test]
fn prop_inflight_never_exceeds_receiver_window() {
    for case in 0..CASES {
        let mut rng = stream_rng(SEED, case);
        let device = arb_device(&mut rng);
        let seed = rng.random_range(0u64..500);
        let cfg = FlowConfig {
            server_window_scaling: rng.random(),
            ..FlowConfig::upload(device, 3 << 20, seed)
        };
        let rwnd = cfg.receiver_window();
        let t = simulate_flow(&cfg);
        let max_inflight = t
            .inflight_samples
            .iter()
            .map(|&(_, f)| f)
            .max()
            .unwrap_or(0);
        // One MSS of slack: the sampler records after the send.
        assert!(
            max_inflight <= rwnd + crate::tcp::MSS,
            "case {case}: inflight {max_inflight} vs rwnd {rwnd}"
        );
    }
}

#[test]
fn prop_faster_links_do_not_slow_flows() {
    for case in 0..CASES {
        let seed = stream_rng(SEED, case).random_range(0u64..200);
        // Identical everything, only the link rate doubles: the flow must
        // not get slower (monotonicity sanity).
        let slow = simulate_flow(&FlowConfig {
            data_link: LinkConfig {
                rate_bps: 5_000_000,
                ..LinkConfig::default()
            },
            batch_chunks: 8,
            ..FlowConfig::upload(DeviceProfile::ios(), 2 << 20, seed)
        });
        let fast = simulate_flow(&FlowConfig {
            data_link: LinkConfig {
                rate_bps: 50_000_000,
                ..LinkConfig::default()
            },
            batch_chunks: 8,
            ..FlowConfig::upload(DeviceProfile::ios(), 2 << 20, seed)
        });
        // Allow a small tolerance: RNG draws are shared but timing shifts
        // can alter T_clt sampling order slightly.
        assert!(
            fast.duration <= slow.duration + 200 * MS,
            "case {case}: fast {} vs slow {}",
            fast.duration,
            slow.duration
        );
    }
}

/// The conservation property: for every preset radio-access profile,
/// with its own random loss *and* a blackout window *and* 1/2/4 flows
/// fair-sharing one bottleneck, every packet the link was offered is
/// accounted for as delivered or one drop class, and every flow still
/// moves its bytes end to end.
#[test]
fn prop_shared_profile_flows_conserve_packets() {
    for case in 0..CASES {
        let mut rng = stream_rng(SEED, case);
        let profile_idx = rng.random_range(0usize..4);
        let n_flows_exp = rng.random_range(0u32..3); // 1, 2, 4 flows
        let start_ms = rng.random_range(200u64..2_000);
        let len_ms = rng.random_range(20u64..300);
        let seed = rng.random_range(0u64..500);
        let profile = crate::profile::LinkProfile::presets()[profile_idx];
        let n = 1usize << n_flows_exp;
        let shared = profile.flow_link(seed);
        let cfgs: Vec<FlowConfig> = (0..n)
            .map(|i| FlowConfig {
                data_link: shared,
                ack_delay: shared.delay,
                ..FlowConfig::upload(
                    if i % 2 == 0 {
                        DeviceProfile::ios()
                    } else {
                        DeviceProfile::android()
                    },
                    512 * 1024,
                    seed.wrapping_add(i as u64),
                )
            })
            .collect();
        let out = Windows::new(vec![(start_ms * MS, (start_ms + len_ms) * MS)]);
        let report = try_simulate_shared_report(&cfgs, shared, &out).unwrap();
        assert!(
            report.link.conserves(),
            "case {case}: profile {}: {:?} does not conserve",
            profile.name,
            report.link
        );
        assert!(report.link.offered > 0, "case {case}");
        for t in &report.traces {
            assert!(
                !t.aborted,
                "case {case}: profile {} aborted a flow",
                profile.name
            );
            let delivered: u64 = t.chunk_records.iter().map(|c| c.bytes).sum();
            assert_eq!(delivered, 512 * 1024, "case {case}");
        }
    }
}
