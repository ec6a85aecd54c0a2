//! Flow traces: what the paper's packet captures record.
//!
//! A [`FlowTrace`] carries the raw material of Figs. 12, 13 and 16:
//! per-chunk completion times, the sequence-number and in-flight time
//! series, and per-gap idle/RTO records.

use mcs_obs::Registry;
use mcs_sim::{Time, SEC};

/// One completed chunk (or batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRecord {
    /// Batch index within the flow.
    pub index: u32,
    /// Bytes in the batch.
    pub bytes: u64,
    /// Time the sender learned of end-to-end completion (OK received), µs.
    pub completed_at: Time,
}

/// One inter-chunk idle gap at the TCP sender (Fig. 16c's unit of
/// analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdleRecord {
    /// The batch whose transmission this idle preceded.
    pub before_batch: u32,
    /// Sender idle time (last data of previous batch → first data of this
    /// one), µs.
    pub idle: Time,
    /// The paper's idle definition: `T_srv + T_clt` only (Fig. 11 brackets
    /// the idle between the last ACK and the next request, excluding
    /// propagation), µs.
    pub app_idle: Time,
    /// The RTO in force when transmission resumed, µs.
    pub rto: Time,
    /// Whether slow-start restart fired for this gap.
    pub restarted: bool,
    /// Unlock-to-first-send latency (≈ 0; sanity field), µs.
    pub unlock_to_send: Time,
}

impl IdleRecord {
    /// The Fig. 16c x-value: idle time over RTO, with idle defined as the
    /// paper defines it (`T_srv + T_clt`).
    pub fn idle_over_rto(&self) -> f64 {
        self.app_idle as f64 / self.rto.max(1) as f64
    }
}

/// Everything captured from one simulated flow.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowTrace {
    /// Bytes the flow set out to move.
    pub total_bytes: u64,
    /// HTTP chunk size used.
    pub chunk_size: u64,
    /// Number of application-level batches.
    pub batches: u32,
    /// Wall-clock duration of the flow, µs.
    pub duration: Time,
    /// Per-batch completion records.
    pub chunk_records: Vec<ChunkRecord>,
    /// Inter-chunk idle records.
    pub idle_records: Vec<IdleRecord>,
    /// `(time, snd_nxt)` samples — Fig. 13a.
    pub seq_samples: Vec<(Time, u64)>,
    /// `(time, inflight bytes)` samples — Fig. 13b.
    pub inflight_samples: Vec<(Time, u64)>,
    /// Slow-start restarts after idle.
    pub idle_restarts: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Fast retransmits.
    pub fast_retransmits: u64,
    /// Data packets dropped at the bottleneck buffer.
    pub buffer_drops: u64,
    /// Data packets lost randomly.
    pub random_drops: u64,
    /// Data packets dropped inside a scheduled link blackout window.
    pub blackout_drops: u64,
    /// Segments dropped before reaching the link (accounting only).
    pub data_drops: u64,
    /// True if the event budget tripped (diagnostic; never in sane runs).
    pub aborted: bool,
}

impl FlowTrace {
    /// Bytes the receiver confirmed: the sum of the completed batches.
    /// Equals [`total_bytes`](Self::total_bytes) for a finished flow and
    /// falls short of it for an aborted one.
    fn delivered_bytes(&self) -> u64 {
        self.chunk_records.iter().map(|c| c.bytes).sum()
    }

    /// Mean goodput over the whole flow, bytes per second: delivered bytes
    /// over the duration, so an aborted flow counts only what it moved.
    pub fn goodput_bps(&self) -> f64 {
        if self.duration == 0 {
            return 0.0;
        }
        self.delivered_bytes() as f64 / (self.duration as f64 / SEC as f64)
    }

    /// Per-chunk transfer times, seconds (gap between consecutive batch
    /// completions; the first batch counts from time zero). This is what
    /// Fig. 12 plots, one point per chunk.
    pub fn chunk_times_s(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.chunk_records.len());
        let mut prev = 0;
        for c in &self.chunk_records {
            out.push(c.completed_at.saturating_sub(prev) as f64 / SEC as f64);
            prev = c.completed_at;
        }
        out
    }

    /// Books this flow's loss/stall accounting into a metric registry as
    /// `net.*` counters: bytes delivered, every drop class (blackout, buffer,
    /// random, total data drops), window stalls (slow-start restarts after
    /// idle), retransmission timeouts and fast retransmits. Counters sum,
    /// so many flows booked into one registry give fleet totals — and the
    /// result is independent of booking order.
    pub fn record_metrics(&self, metrics: &mut Registry) {
        for (name, value) in [
            ("net.bytes", self.delivered_bytes()),
            ("net.chunks", self.chunk_records.len() as u64),
            ("net.blackout_drops", self.blackout_drops),
            ("net.buffer_drops", self.buffer_drops),
            ("net.random_drops", self.random_drops),
            ("net.data_drops", self.data_drops),
            ("net.idle_restarts", self.idle_restarts),
            ("net.timeouts", self.timeouts),
            ("net.fast_retransmits", self.fast_retransmits),
        ] {
            // mcs-lint: allow(metric-manifest, every name in the literal
            // array above is listed individually in METRICS.md)
            let c = metrics.counter(name);
            metrics.add(c, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_times_are_gaps() {
        let t = FlowTrace {
            total_bytes: 300,
            duration: 3 * SEC,
            chunk_records: vec![
                ChunkRecord {
                    index: 0,
                    bytes: 100,
                    completed_at: SEC,
                },
                ChunkRecord {
                    index: 1,
                    bytes: 100,
                    completed_at: 3 * SEC,
                },
            ],
            ..FlowTrace::default()
        };
        let times = t.chunk_times_s();
        assert_eq!(times, vec![1.0, 2.0]);
        // Goodput counts the two completed chunks, not the 300 bytes the
        // flow set out to move.
        assert_eq!(t.delivered_bytes(), 200);
        assert!((t.goodput_bps() - 200.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn aborted_flow_counts_only_delivered_bytes() {
        let t = FlowTrace {
            total_bytes: 10 << 20,
            duration: 4 * SEC,
            aborted: true,
            ..FlowTrace::default()
        };
        assert_eq!(t.goodput_bps(), 0.0);
        let mut reg = Registry::new();
        t.record_metrics(&mut reg);
        assert_eq!(reg.snapshot().counters["net.bytes"], 0);
    }

    #[test]
    fn idle_fractions() {
        // Fig. 16c's x-value divides the paper's idle (T_srv + T_clt), not
        // the sender's, by the RTO; a zero RTO divides by one.
        let r = IdleRecord {
            before_batch: 1,
            idle: 500,
            app_idle: 400,
            rto: 300,
            restarted: true,
            unlock_to_send: 0,
        };
        assert!((r.idle_over_rto() - 400.0 / 300.0).abs() < 1e-12);
        assert_eq!(IdleRecord { rto: 0, ..r }.idle_over_rto(), 400.0);
    }

    #[test]
    fn record_metrics_merges_flow_totals_in_any_order() {
        let chunk = |bytes| ChunkRecord {
            index: 0,
            bytes,
            completed_at: SEC,
        };
        let a = FlowTrace {
            total_bytes: 1000,
            chunk_records: vec![chunk(1000)],
            blackout_drops: 3,
            idle_restarts: 2,
            timeouts: 1,
            ..FlowTrace::default()
        };
        let b = FlowTrace {
            total_bytes: 500,
            chunk_records: vec![chunk(500)],
            buffer_drops: 4,
            fast_retransmits: 5,
            ..FlowTrace::default()
        };
        let mut fwd = Registry::new();
        a.record_metrics(&mut fwd);
        b.record_metrics(&mut fwd);
        let mut rev = Registry::new();
        b.record_metrics(&mut rev);
        a.record_metrics(&mut rev);
        assert_eq!(fwd, rev, "counter totals are booking-order independent");
        let snap = fwd.snapshot();
        assert_eq!(snap.counters["net.bytes"], 1500);
        assert_eq!(snap.counters["net.blackout_drops"], 3);
        assert_eq!(snap.counters["net.buffer_drops"], 4);
        assert_eq!(snap.counters["net.idle_restarts"], 2);
        assert_eq!(snap.counters["net.timeouts"], 1);
        assert_eq!(snap.counters["net.fast_retransmits"], 5);
    }

    #[test]
    fn empty_trace_degenerate_values() {
        let t = FlowTrace::default();
        assert_eq!(t.goodput_bps(), 0.0);
        assert!(t.chunk_times_s().is_empty());
    }
}
