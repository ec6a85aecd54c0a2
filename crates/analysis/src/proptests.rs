//! Property-based tests over the sessionizer (sessions must partition the
//! record stream and conserve every counted quantity for *any* record
//! layout, not only generator-shaped ones) and over the parallel pipeline
//! (sharded analysis must be invariant in the shard count).

#![cfg(test)]

use mcs_obs::Registry;
use mcs_stats::rng::{stream_rng, ChaCha8Rng, Rng};
use mcs_trace::{DeviceType, Direction, LogRecord, RequestType};

use crate::pipeline::{analyze, PipelineConfig};
use crate::sessionize::{file_op_intervals_s, sessionize};

const SEED: u64 = 0x5EED;

fn arb_request(rng: &mut ChaCha8Rng) -> RequestType {
    match rng.random_range(0u32..4) {
        0 => RequestType::FileOp(Direction::Store),
        1 => RequestType::FileOp(Direction::Retrieve),
        2 => RequestType::Chunk(Direction::Store),
        _ => RequestType::Chunk(Direction::Retrieve),
    }
}

/// Time-ordered records of user `user_id`, their count uniform in `lens`:
/// timestamps in [0, 5 000 000) ms, chunk volumes in [0, 600 000) bytes,
/// and one of the first `devices` of Android, iOS and PC.
fn arb_records(
    rng: &mut ChaCha8Rng,
    lens: std::ops::Range<usize>,
    user_id: u64,
    devices: u64,
) -> Vec<LogRecord> {
    let mut records: Vec<LogRecord> = (0..rng.random_range(lens))
        .map(|_| {
            let timestamp_ms = rng.random_range(0u64..5_000_000);
            let request = arb_request(rng);
            let vol = rng.random_range(0u64..600_000);
            let dev = rng.random_range(0..devices);
            LogRecord {
                timestamp_ms,
                device_type: match dev {
                    0 => DeviceType::Android,
                    1 => DeviceType::Ios,
                    _ => DeviceType::Pc,
                },
                device_id: dev + 1,
                user_id,
                request,
                volume_bytes: if request.is_chunk() { vol } else { 0 },
                processing_ms: 50.0,
                srv_ms: 10.0,
                rtt_ms: 100.0,
                proxied: false,
            }
        })
        .collect();
    records.sort_by_key(|r| r.timestamp_ms);
    records
}

/// A random time-ordered single-user record stream of up to 119 records.
fn arb_stream(rng: &mut ChaCha8Rng) -> Vec<LogRecord> {
    arb_records(rng, 0..120, 9, 1)
}

/// A random multi-user block set: up to 11 blocks, each one user's
/// time-ordered records (up to 39), distinct user ids, mixed mobile/PC
/// devices.
fn arb_blocks(rng: &mut ChaCha8Rng) -> Vec<Vec<LogRecord>> {
    (0..rng.random_range(0u64..12))
        .map(|uid| arb_records(rng, 0..40, uid + 1, 3))
        .collect()
}

#[test]
fn prop_par_analyze_invariant_in_shard_count() {
    let cfg = PipelineConfig {
        horizon_secs: 5_000,
        threads: 0,
    };
    for case in 0..256 {
        let blocks = arb_blocks(&mut stream_rng(SEED, case));
        // Debug renderings sidestep NaN != NaN inside failed fits: NaN
        // prints as `NaN`, -0.0 as `-0.0`, and finite floats round-trip.
        let rendered = [1usize, 2, 4, 7].map(|threads| {
            let Ok((analysis, _)) = analyze(
                &blocks,
                &PipelineConfig { threads, ..cfg },
                &mut Registry::new(),
            );
            format!("{analysis:?}")
        });
        for (threads, text) in [2, 4, 7].iter().zip(&rendered[1..]) {
            assert_eq!(text, &rendered[0], "case {case}: threads {threads}");
        }
    }
}

/// One random single-user stream and a session threshold in [1 s, 2 000 s).
fn stream_and_tau(case: u64) -> (Vec<LogRecord>, u64) {
    let mut rng = stream_rng(SEED, case);
    let records = arb_stream(&mut rng);
    (records, rng.random_range(1_000u64..2_000_000))
}

#[test]
fn prop_sessions_conserve_counts() {
    for case in 0..256 {
        let (records, tau_ms) = stream_and_tau(case);
        let sessions = sessionize(&records, tau_ms);
        let ops_in = records.iter().filter(|r| r.request.is_file_op()).count() as u64;
        let chunks_in = records.iter().filter(|r| r.request.is_chunk()).count() as u64;
        let bytes_in: u64 = records.iter().map(|r| r.volume_bytes).sum();

        let ops_out: u64 = sessions.iter().map(|s| s.total_ops() as u64).sum();
        let chunks_out: u64 = sessions
            .iter()
            .map(|s| (s.store_chunks + s.retrieve_chunks) as u64)
            .sum();
        let bytes_out: u64 = sessions.iter().map(|s| s.total_bytes()).sum();

        assert_eq!(ops_out, ops_in, "case {case}: file ops conserved");
        assert_eq!(chunks_out, chunks_in, "case {case}: chunks conserved");
        assert_eq!(bytes_out, bytes_in, "case {case}: bytes conserved");
        assert_eq!(sessions.is_empty(), records.is_empty(), "case {case}");
    }
}

#[test]
fn prop_session_time_bounds_nested() {
    for case in 0..256 {
        let (records, tau_ms) = stream_and_tau(case);
        for s in sessionize(&records, tau_ms) {
            assert!(
                s.start_ms <= s.first_op_ms || s.total_ops() == 0,
                "case {case}"
            );
            assert!(s.first_op_ms <= s.last_op_ms, "case {case}");
            assert!(s.start_ms <= s.end_ms, "case {case}");
            assert!(s.last_op_ms <= s.end_ms, "case {case}");
        }
    }
}

#[test]
fn prop_sessions_ordered_and_gap_respecting() {
    for case in 0..256 {
        let (records, tau_ms) = stream_and_tau(case);
        let sessions = sessionize(&records, tau_ms);
        for w in sessions.windows(2) {
            assert!(w[0].start_ms <= w[1].start_ms, "case {case}: chronological");
            // The op starting the next session must be > tau after the last
            // op of the previous one (that is the boundary rule).
            assert!(
                w[1].first_op_ms.saturating_sub(w[0].last_op_ms) > tau_ms || w[1].total_ops() == 0,
                "case {case}: boundary violates tau: {} .. {} (tau {})",
                w[0].last_op_ms,
                w[1].first_op_ms,
                tau_ms
            );
        }
    }
}

#[test]
fn prop_larger_tau_never_increases_session_count() {
    for case in 0..256 {
        let mut rng = stream_rng(SEED, case);
        let records = arb_stream(&mut rng);
        let tau_a = rng.random_range(1_000u64..1_000_000);
        let tau_b = rng.random_range(1_000u64..1_000_000);
        let (lo, hi) = if tau_a <= tau_b {
            (tau_a, tau_b)
        } else {
            (tau_b, tau_a)
        };
        let n_lo = sessionize(&records, lo).len();
        let n_hi = sessionize(&records, hi).len();
        assert!(
            n_hi <= n_lo,
            "case {case}: tau {lo}→{hi} grew sessions {n_lo}→{n_hi}"
        );
    }
}

#[test]
fn prop_intervals_match_op_count() {
    for case in 0..256 {
        let records = arb_stream(&mut stream_rng(SEED, case));
        let ops = records.iter().filter(|r| r.request.is_file_op()).count();
        let intervals = file_op_intervals_s(&records);
        assert_eq!(intervals.len(), ops.saturating_sub(1), "case {case}");
        assert!(intervals.iter().all(|&t| t >= 0.0), "case {case}");
    }
}
