//! TCP sender congestion state.
//!
//! Implements the sender-side machinery §4 of the paper turns on:
//!
//! * slow start and congestion avoidance (RFC 5681),
//! * fast retransmit / simplified fast recovery on three duplicate ACKs,
//! * retransmission timeout with exponential backoff and the RFC 6298
//!   estimator `RTO = SRTT + max(G, 4·RTTVAR)` (the paper quotes the Linux
//!   flavour `SRTT + max(200 ms, 4·RTTVAR)`, reproduced here; since SRTT
//!   is never negative, its 200 ms term is also the RTO's floor),
//! * **slow-start restart after idle** (RFC 5681 §4.1): when the connection
//!   has sent nothing for more than one RTO, `cwnd` collapses back to the
//!   initial window before new data goes out. This is the §4.2 mechanism
//!   behind Android's poor chunk throughput — and it is toggleable, which
//!   is the paper's "disable SSAI" mitigation ablation.
//!
//! The struct is a pure state machine: the flow driver owns the event loop
//! and calls in. All quantities are bytes and microseconds.

use mcs_sim::{Time, MS};

/// Standard Ethernet-path MSS (1500 − 40 − 12 bytes of options).
pub const MSS: u64 = 1448;

/// RFC 6928 initial window: 10 segments.
pub const INITIAL_WINDOW_SEGS: u64 = 10;

/// Maximum receive window without window scaling (RFC 7323 absent):
/// 2¹⁶ − 1 bytes. The paper's servers advertise exactly this (Fig. 15).
pub const MAX_WINDOW_NO_SCALING: u64 = 65_535;

/// RTO before the first RTT sample (RFC 6298 §2.1 suggests 1 s).
const INITIAL_RTO: Time = 1000 * MS;

/// Why `cwnd` changed — kept on transitions for tests and the Fig. 13/16
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CwndEvent {
    /// Idle longer than RTO: slow-start restart (the §4.2 culprit).
    IdleRestart,
    /// Triple-duplicate-ACK fast retransmit.
    FastRetransmit,
    /// Retransmission timeout.
    Timeout,
}

/// TCP sender congestion state.
#[derive(Debug, Clone)]
pub struct TcpSender {
    /// Receive window advertised by the peer, bytes (65 535 when the peer
    /// disables window scaling, as the paper's servers do for uploads).
    rwnd: u64,
    /// Whether slow-start-after-idle is active (RFC 5681 §4.1; on in every
    /// stock stack — the paper's §4.3 discusses disabling it).
    slow_start_after_idle: bool,
    /// Congestion window, bytes (fractional growth in congestion
    /// avoidance).
    cwnd: f64,
    /// Slow-start threshold, bytes.
    ssthresh: f64,
    /// Smoothed RTT, µs (None before the first sample).
    srtt: Option<f64>,
    /// RTT variance, µs.
    rttvar: f64,
    /// Current RTO, µs.
    rto: Time,
    /// Consecutive RTO backoffs.
    backoffs: u32,
    /// Duplicate-ACK counter.
    dupacks: u32,
    /// End of the fast-recovery region (new data must be acked past this
    /// to leave recovery).
    recover: u64,
    /// Whether we are in fast recovery.
    in_recovery: bool,
    /// Time the last data segment was sent.
    last_send: Option<Time>,
    /// Slow-start restarts performed (Fig. 16c numerator).
    idle_restarts: u64,
}

impl TcpSender {
    /// Fresh connection state towards a peer that advertises `rwnd` bytes,
    /// with slow-start-after-idle on or off.
    pub fn new(rwnd: u64, slow_start_after_idle: bool) -> Self {
        Self {
            rwnd,
            slow_start_after_idle,
            cwnd: (INITIAL_WINDOW_SEGS * MSS) as f64,
            ssthresh: f64::INFINITY,
            srtt: None,
            rttvar: 0.0,
            rto: INITIAL_RTO,
            backoffs: 0,
            dupacks: 0,
            recover: 0,
            in_recovery: false,
            last_send: None,
            idle_restarts: 0,
        }
    }

    /// Current congestion window, bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd as u64
    }

    /// Current RTO, µs.
    pub fn rto(&self) -> Time {
        self.rto
    }

    /// Smoothed RTT if sampled, µs.
    pub fn srtt(&self) -> Option<f64> {
        self.srtt
    }

    /// Whether the sender is in slow start.
    fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// How many slow-start restarts idle gaps have caused.
    pub fn idle_restarts(&self) -> u64 {
        self.idle_restarts
    }

    /// Effective send window: min(cwnd, rwnd).
    pub fn send_window(&self) -> u64 {
        (self.cwnd as u64).min(self.rwnd)
    }

    /// Bytes the sender may put on the wire right now given `inflight`
    /// unacknowledged bytes.
    pub fn available_window(&self, inflight: u64) -> u64 {
        self.send_window().saturating_sub(inflight)
    }

    /// Called when the application is about to send new data after a pause.
    /// If the connection has been idle longer than one RTO and SSAI is on,
    /// the congestion window collapses to the initial window (RFC 5681
    /// §4.1). Returns the restart event if it fired.
    pub fn on_send_attempt(&mut self, now: Time) -> Option<CwndEvent> {
        let idle_restart = self.slow_start_after_idle
            && match self.last_send {
                Some(t) => now.saturating_sub(t) > self.rto,
                None => false,
            };
        if idle_restart {
            let iw = (INITIAL_WINDOW_SEGS * MSS) as f64;
            if self.cwnd > iw {
                self.cwnd = iw;
                // ssthresh keeps its value: the restart re-enters slow
                // start up to the previously learned threshold.
                self.idle_restarts += 1;
                return Some(CwndEvent::IdleRestart);
            }
        }
        None
    }

    /// Records that data left at `now`.
    pub fn register_send(&mut self, now: Time) {
        self.last_send = Some(now);
    }

    /// Time of the last data transmission.
    pub fn last_send(&self) -> Option<Time> {
        self.last_send
    }

    /// Processes a cumulative ACK for `newly_acked` fresh bytes with an
    /// optional RTT sample (Karn: samples only from never-retransmitted
    /// segments). `ack_seq` is the cumulative sequence acknowledged.
    pub fn on_ack(
        &mut self,
        ack_seq: u64,
        newly_acked: u64,
        rtt_sample: Option<Time>,
    ) -> Option<CwndEvent> {
        if let Some(rtt) = rtt_sample {
            self.take_rtt_sample(rtt);
        }
        if newly_acked == 0 {
            // Duplicate ACK.
            self.dupacks += 1;
            if self.dupacks == 3 && !self.in_recovery {
                self.enter_fast_recovery(ack_seq);
                return Some(CwndEvent::FastRetransmit);
            }
            return None;
        }
        self.dupacks = 0;
        self.backoffs = 0;
        if self.in_recovery && ack_seq >= self.recover {
            self.in_recovery = false;
            self.cwnd = self.ssthresh.max((2 * MSS) as f64);
        }
        if !self.in_recovery {
            if self.in_slow_start() {
                // Slow start: cwnd grows by the bytes acked (≤ per-ACK cap).
                self.cwnd += newly_acked.min(MSS) as f64;
            } else {
                // Congestion avoidance: ~one MSS per RTT.
                self.cwnd += (MSS * MSS) as f64 / self.cwnd;
            }
        }
        None
    }

    fn enter_fast_recovery(&mut self, current_snd_nxt_hint: u64) {
        let flight = self.cwnd.max((2 * MSS) as f64);
        self.ssthresh = (flight / 2.0).max((2 * MSS) as f64);
        self.cwnd = self.ssthresh;
        self.in_recovery = true;
        self.recover = current_snd_nxt_hint;
    }

    /// Sets the end of the recovery region (highest sequence sent when loss
    /// was detected); the driver calls this right after a
    /// [`CwndEvent::FastRetransmit`].
    pub fn set_recover_point(&mut self, snd_nxt: u64) {
        self.recover = snd_nxt;
    }

    /// Handles an expired retransmission timer: collapse to one segment,
    /// halve ssthresh, back the timer off exponentially (RFC 6298 §5).
    pub fn on_timeout(&mut self) -> CwndEvent {
        let flight = self.cwnd.max((2 * MSS) as f64);
        self.ssthresh = (flight / 2.0).max((2 * MSS) as f64);
        self.cwnd = MSS as f64;
        self.in_recovery = false;
        self.dupacks = 0;
        self.backoffs += 1;
        self.rto = self.rto.saturating_mul(2).min(60 * mcs_sim::SEC);
        CwndEvent::Timeout
    }

    /// RFC 6298 estimator with the 200 ms variance floor the paper quotes:
    /// `RTO = SRTT + max(200 ms, 4·RTTVAR)`. SRTT is never negative, so
    /// that term is also the RTO's floor.
    fn take_rtt_sample(&mut self, sample: Time) {
        let r = sample as f64;
        let srtt = match self.srtt {
            None => {
                self.rttvar = r / 2.0;
                r
            }
            Some(srtt) => {
                const ALPHA: f64 = 1.0 / 8.0;
                const BETA: f64 = 1.0 / 4.0;
                self.rttvar = (1.0 - BETA) * self.rttvar + BETA * (srtt - r).abs();
                (1.0 - ALPHA) * srtt + ALPHA * r
            }
        };
        self.srtt = Some(srtt);
        let var_term = (4.0 * self.rttvar).max(200_000.0);
        self.rto = (srtt + var_term) as Time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_sim::SEC;

    fn sender() -> TcpSender {
        TcpSender::new(MAX_WINDOW_NO_SCALING, true)
    }

    #[test]
    fn initial_window_is_ten_segments() {
        let s = sender();
        assert_eq!(s.cwnd(), 10 * MSS);
        assert!(s.in_slow_start());
        assert_eq!(s.send_window(), 10 * MSS); // < 65535
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = sender();
        let start = s.cwnd();
        // ACK a full window's worth in MSS chunks → cwnd roughly doubles.
        let mut acked = 0;
        while acked < start {
            s.on_ack(acked + MSS, MSS, Some(100 * MS));
            acked += MSS;
        }
        assert!(
            s.cwnd() >= 2 * start - MSS,
            "cwnd {} after window acked (start {start})",
            s.cwnd()
        );
    }

    #[test]
    fn congestion_avoidance_linear() {
        let mut s = sender();
        s.ssthresh = (4 * MSS) as f64;
        s.cwnd = (8 * MSS) as f64;
        assert!(!s.in_slow_start());
        let before = s.cwnd;
        // One window of ACKs ≈ one MSS growth.
        for i in 0..8 {
            s.on_ack((i + 1) * MSS, MSS, None);
        }
        let growth = s.cwnd - before;
        assert!(
            (growth - MSS as f64).abs() < MSS as f64 * 0.2,
            "CA growth {growth}"
        );
    }

    #[test]
    fn rwnd_clamps_send_window() {
        let mut s = sender();
        s.cwnd = 1e9;
        assert_eq!(s.send_window(), MAX_WINDOW_NO_SCALING);
        assert_eq!(s.available_window(65_000), 535);
        assert_eq!(s.available_window(70_000), 0);
    }

    #[test]
    fn idle_restart_fires_after_rto() {
        let mut s = sender();
        s.cwnd = 60_000.0;
        s.register_send(0);
        // RTO is initial (1 s); idle 2 s.
        let ev = s.on_send_attempt(2 * SEC);
        assert_eq!(ev, Some(CwndEvent::IdleRestart));
        assert_eq!(s.cwnd(), 10 * MSS);
        assert_eq!(s.idle_restarts(), 1);
    }

    #[test]
    fn idle_restart_respects_config_toggle() {
        let mut s = TcpSender::new(MAX_WINDOW_NO_SCALING, false);
        s.cwnd = 60_000.0;
        s.register_send(0);
        assert_eq!(s.on_send_attempt(5 * SEC), None);
        assert_eq!(s.cwnd(), 60_000);
    }

    #[test]
    fn short_idle_does_not_restart() {
        let mut s = sender();
        s.cwnd = 60_000.0;
        s.take_rtt_sample(100 * MS); // RTO = 100ms + 200ms = 300ms
        s.register_send(0);
        assert_eq!(s.on_send_attempt(250 * MS), None);
        assert_eq!(s.cwnd(), 60_000);
        assert_eq!(s.on_send_attempt(301 * MS), Some(CwndEvent::IdleRestart));
    }

    #[test]
    fn rto_estimator_matches_paper_formula() {
        let mut s = sender();
        // Constant 100 ms RTT → RTTVAR decays, variance floor dominates:
        // RTO → SRTT + 200 ms = 300 ms.
        for _ in 0..50 {
            s.take_rtt_sample(100 * MS);
        }
        let rto_ms = s.rto() / MS;
        assert!((295..=310).contains(&rto_ms), "rto {rto_ms} ms");
    }

    #[test]
    fn rto_floor_holds_over_random_sample_sequences() {
        // Every sample sets `RTO = SRTT + max(4·RTTVAR, 200 ms)`, truncated
        // to µs. SRTT never goes negative, so the 200 ms term is the RTO's
        // floor: no zero, sub-millisecond or alternating sample sequence
        // takes it lower, with or without timeouts in between.
        use mcs_stats::rng::{stream_rng, Rng};
        let mut rng = stream_rng(0x270, 0);
        for case in 0..400u64 {
            let mut s = sender();
            let kind = case % 5;
            for i in 0..rng.random_range(1u64..80) {
                if rng.random::<f64>() < 0.2 {
                    s.on_timeout();
                }
                let sample = match (kind, i % 2) {
                    (0, _) => 0,
                    (1, _) => rng.random_range(0..MS),
                    (2, _) => rng.random_range(SEC..30 * SEC),
                    (3, 0) => rng.random_range(0..MS),
                    (3, _) => rng.random_range(SEC..30 * SEC),
                    _ => [0, rng.random_range(0..MS), rng.random_range(SEC..30 * SEC)]
                        [rng.random_range(0usize..3)],
                };
                s.take_rtt_sample(sample);
                let srtt = s.srtt().unwrap();
                let want = (srtt + (4.0 * s.rttvar).max(200_000.0)) as Time;
                assert_eq!(s.rto(), want, "case {case}, sample {i} = {sample} µs");
                assert!(s.rto() >= 200 * MS, "case {case}: rto {} µs", s.rto());
            }
        }
    }

    #[test]
    fn rto_tracks_variance() {
        let mut s = sender();
        for i in 0..50 {
            let sample = if i % 2 == 0 { 50 * MS } else { 350 * MS };
            s.take_rtt_sample(sample);
        }
        // High variance → RTO well above SRTT + 200 ms.
        assert!(s.rto() > 500 * MS, "rto {} ms", s.rto() / MS);
    }

    #[test]
    fn triple_dupack_enters_fast_recovery() {
        let mut s = sender();
        s.cwnd = 60_000.0;
        assert!(s.on_ack(1000, 0, None).is_none());
        assert!(s.on_ack(1000, 0, None).is_none());
        let ev = s.on_ack(1000, 0, None);
        assert_eq!(ev, Some(CwndEvent::FastRetransmit));
        assert!((s.cwnd - 30_000.0).abs() < 1.0, "cwnd {}", s.cwnd);
        // Further dupacks do not re-trigger.
        assert!(s.on_ack(1000, 0, None).is_none());
    }

    #[test]
    fn recovery_exits_on_new_ack_past_recover_point() {
        let mut s = sender();
        s.cwnd = 60_000.0;
        for _ in 0..3 {
            s.on_ack(1000, 0, None);
        }
        s.set_recover_point(50_000);
        // ACK below the recovery point keeps recovery.
        s.on_ack(20_000, 19_000, None);
        assert!(s.in_recovery);
        // ACK past it exits.
        s.on_ack(50_000, 30_000, None);
        assert!(!s.in_recovery);
    }

    #[test]
    fn timeout_collapses_to_one_segment_and_backs_off() {
        let mut s = sender();
        s.cwnd = 60_000.0;
        let rto_before = s.rto();
        let ev = s.on_timeout();
        assert_eq!(ev, CwndEvent::Timeout);
        assert_eq!(s.cwnd(), MSS);
        assert_eq!(s.rto(), rto_before * 2);
        s.on_timeout();
        assert_eq!(s.rto(), rto_before * 4);
    }

    #[test]
    fn backoff_resets_on_progress() {
        let mut s = sender();
        s.take_rtt_sample(100 * MS);
        let base = s.rto();
        s.on_timeout();
        assert_eq!(s.rto(), base * 2);
        // New ACK with fresh sample recomputes RTO from the estimator.
        s.on_ack(5000, 5000, Some(100 * MS));
        assert!(s.rto() <= base * 2);
        assert_eq!(s.backoffs, 0);
    }
}
