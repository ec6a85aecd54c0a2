//! Resumable, out-of-order chunk transfer: the engine every faulted store
//! and retrieve runs (DESIGN.md §13).
//!
//! The paper's client moves every file as sequential 512 KB chunks, each
//! named by its MD5 in the manifest it sends (§2.1), and retries a failed
//! operation from byte zero. Here chunks may be acked in any order, and a
//! transfer interrupted anywhere resumes from the set of chunks already
//! verified — as the sftpx protocol this module is shaped after keeps its
//! resume state in the receiver's own `.part` file.
//!
//! Two pieces live here:
//!
//! - [`TransferSession`]: which chunks of one file are pending, in flight
//!   or verified, and an arrival window bounding the chunks in flight. A
//!   chunk is verified when its ack arrives; the session moves no bytes
//!   and checks no digests (the service's digests are the client's own).
//!   [`TransferSession::verified_set`] is the persisted partial transfer
//!   that [`TransferSession::resume`] rebuilds a session from.
//! - [`run_transfer_attempt`]: one attempt on a fresh `mcs-sim` event
//!   queue. Chunk sends, acks and timeout detections are events on one
//!   timeline; a [`Channel`] decides each send's [`ChunkFate`]. The
//!   attempt runs until the session completes or stalls ([`Stall`]). A
//!   stalled session keeps its verified set, so the caller can retry later
//!   and resend only the missing chunks, or [`TransferSession::restart`]
//!   it to retry the whole file.
//!
//! Determinism: the engine is single-threaded, all fates come from the
//! caller's [`Channel`] (the service backs it with stateless
//! `mcs-faults` coins), and ties dispatch in insertion order — so a
//! transfer is bit-identical across runs and thread counts.

use std::collections::BTreeSet;

use mcs_sim::{EventQueue, Time, MS};

use crate::content::{chunk_size_at, FileManifest};

/// Where one chunk of a [`TransferSession`] stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkState {
    /// Not verified and not in the channel: the next send may take it.
    Pending,
    /// Sent; awaiting its ack or timeout.
    InFlight,
    /// Acked, or held by the target before the session began.
    Verified,
}

/// The transfer state of one file: each chunk pending, in flight or
/// verified, and the arrival window that bounds the chunks in flight.
///
/// Only [`run_transfer_attempt`] moves a chunk between states. A session
/// survives interruption: [`TransferSession::verified_set`] is the partial
/// manifest a resume needs, and [`TransferSession::resume`] rebuilds a
/// session around it.
#[derive(Debug, Clone)]
pub struct TransferSession {
    /// File size, bytes; with the chunk count it fixes each chunk's size.
    size: u64,
    states: Vec<ChunkState>,
    /// Lifetime send count per chunk (across restarts of this session);
    /// send ordinals key the channel's per-send fault coins.
    sends: Vec<u32>,
    window: usize,
    in_flight: usize,
    verified: u64,
    verified_bytes: u64,
}

impl TransferSession {
    /// A fresh session over `manifest`'s chunks: every chunk pending,
    /// arrival window `window` (clamped to at least 1).
    pub fn new(manifest: &FileManifest, window: usize) -> Self {
        let chunks = manifest.chunk_count() as usize;
        Self {
            size: manifest.size,
            states: vec![ChunkState::Pending; chunks],
            sends: vec![0; chunks],
            window: window.max(1),
            in_flight: 0,
            verified: 0,
            verified_bytes: 0,
        }
    }

    /// Rebuilds a session from a persisted partial transfer, or around the
    /// chunks the target already holds: every chunk index in `verified`
    /// starts verified (out-of-range entries are ignored), the rest
    /// pending.
    pub fn resume(manifest: &FileManifest, verified: &BTreeSet<u64>, window: usize) -> Self {
        let mut s = Self::new(manifest, window);
        for &i in verified.range(..s.states.len() as u64) {
            s.states[i as usize] = ChunkState::Verified;
            s.count_verified(i);
        }
        s
    }

    /// Discards all progress, as a whole-file retry does: every chunk
    /// returns to pending. The lifetime send counts stay, so the next
    /// sends take fresh ordinals — and fresh channel coins — instead of
    /// replaying the ones that just failed.
    pub fn restart(&mut self) {
        self.states.fill(ChunkState::Pending);
        self.in_flight = 0;
        self.verified = 0;
        self.verified_bytes = 0;
    }

    /// Has every chunk verified?
    pub fn is_complete(&self) -> bool {
        self.verified == self.states.len() as u64
    }

    /// Chunks verified so far.
    pub fn verified_count(&self) -> u64 {
        self.verified
    }

    /// Bytes covered by verified chunks.
    pub fn bytes_verified(&self) -> u64 {
        self.verified_bytes
    }

    /// The persisted form of a partial transfer: indices verified so far.
    pub fn verified_set(&self) -> BTreeSet<u64> {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == ChunkState::Verified)
            .map(|(i, _)| i as u64)
            .collect()
    }

    fn chunk_size(&self, chunk: u64) -> u64 {
        chunk_size_at(self.size, chunk)
    }

    fn count_verified(&mut self, chunk: u64) {
        self.verified += 1;
        self.verified_bytes = self.verified_bytes.saturating_add(self.chunk_size(chunk));
    }

    /// The lowest-indexed pending chunk, if the window has room for it.
    fn next_to_send(&self) -> Option<u64> {
        if self.in_flight >= self.window {
            return None;
        }
        let next = self.states.iter().position(|&s| s == ChunkState::Pending);
        next.map(|i| i as u64)
    }

    /// Reserves a window slot for a pending chunk and takes its next
    /// lifetime send ordinal.
    fn begin(&mut self, chunk: u64) {
        let i = chunk as usize;
        debug_assert_eq!(self.states[i], ChunkState::Pending);
        self.states[i] = ChunkState::InFlight;
        self.in_flight += 1;
        self.sends[i] = self.sends[i].saturating_add(1);
    }

    /// Frees an in-flight chunk's window slot, leaving it in `state`.
    fn land(&mut self, chunk: u64, state: ChunkState) {
        let i = chunk as usize;
        debug_assert_eq!(self.states[i], ChunkState::InFlight);
        self.states[i] = state;
        self.in_flight -= 1;
    }

    /// An in-flight chunk's ack arrived: it is verified. Returns whether it
    /// was the last.
    fn ack(&mut self, chunk: u64) -> bool {
        self.land(chunk, ChunkState::Verified);
        self.count_verified(chunk);
        self.is_complete()
    }

    /// Rolls back a reservation whose send never entered the channel: the
    /// chunk is pending again and its send ordinal is given back.
    fn roll_back(&mut self, chunk: u64) {
        self.land(chunk, ChunkState::Pending);
        self.sends[chunk as usize] = self.sends[chunk as usize].saturating_sub(1);
    }
}

/// What the channel did with one chunk send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChunkFate {
    /// Chunk arrives intact; the ack lands `ack_after_ms` later.
    Deliver {
        /// Round-trip delay until the sender sees the ack.
        ack_after_ms: u64,
    },
    /// Chunk (or its ack) is lost; the sender declares a timeout
    /// `detect_after_ms` later and may re-send.
    Timeout {
        /// Timeout-detection delay (the retransmission timer).
        detect_after_ms: u64,
    },
    /// The peer is unreachable: the whole attempt stalls immediately.
    Down,
}

/// Decides the fate of each chunk send. Implemented by the storage
/// service over its `mcs-faults` plan; closures work too, which keeps
/// scripted tests terse.
pub trait Channel {
    /// Fate of the `send`-th transmission (1-based, session lifetime) of
    /// `chunk` entering the channel at `now_ms`.
    fn send(&mut self, chunk: u64, send: u32, now_ms: u64) -> ChunkFate;
}

impl<F: FnMut(u64, u32, u64) -> ChunkFate> Channel for F {
    fn send(&mut self, chunk: u64, send: u32, now_ms: u64) -> ChunkFate {
        self(chunk, send, now_ms)
    }
}

/// Why an attempt stopped short of completion.
///
/// A stall is not an instant teardown: sends whose fate the channel
/// already decided drain to their acks or timeout detections (verified
/// chunks count), while reservations that never entered the channel are
/// rolled back. Only *new* sends stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stall {
    /// The channel reported the peer down.
    FrontendDown {
        /// Timeline instant of the failed send.
        at_ms: u64,
    },
    /// One chunk exhausted its per-attempt send budget.
    ChunkBudget {
        /// The chunk that ran out of sends.
        chunk: u64,
        /// Its lifetime send count at the stall.
        sends: u32,
    },
}

/// Byte-accurate accounting of one [`run_transfer_attempt`] call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttemptReport {
    /// `(chunk, verified_at_ms)` in verification (ack) order — the order
    /// the target should apply chunk writes.
    pub verified: Vec<(u64, u64)>,
    /// Chunk sends that entered the channel.
    pub chunks_sent: u64,
    /// Sends of chunks already sent before (session lifetime) — the
    /// retry-inflated share of `chunks_sent`.
    pub chunks_resent: u64,
    /// Bytes across all sends.
    pub bytes_sent: u64,
    /// Bytes across re-sends only.
    pub bytes_resent: u64,
    /// Timeout detections.
    pub timeouts: u64,
    /// Timeline instant the attempt ended (completion or stall).
    pub end_ms: u64,
    /// Why the attempt stopped, if it did not complete the session.
    pub stall: Option<Stall>,
}

/// Events on the transfer timeline: what reaches the server (`Send`) or
/// the client (`Ack`, `Timeout`).
#[derive(Debug, Clone, Copy)]
enum TransferEvent {
    /// A chunk transmission enters the channel.
    Send { chunk: u64 },
    /// The sender sees the ack for a delivered chunk.
    Ack { chunk: u64 },
    /// The retransmission timer fires for a lost chunk.
    Timeout { chunk: u64 },
}

/// One [`run_transfer_attempt`] call: the session it drives and what it
/// has booked so far.
struct Attempt<'a, C> {
    session: &'a mut TransferSession,
    channel: &'a mut C,
    max_chunk_sends: u32,
    report: AttemptReport,
    /// Sends per chunk within *this* attempt (the stall budget; resumes
    /// start fresh). Only sends that actually entered the channel count.
    attempt_sends: Vec<u32>,
    /// Set on the first stall: no new sends, pending fates drain, unsent
    /// reservations are rolled back as their events surface.
    stalled: bool,
}

impl<C: Channel> Attempt<'_, C> {
    /// Reserves a window slot for `chunk` and schedules its send at `at`.
    fn send_at(&mut self, q: &mut EventQueue<TransferEvent>, chunk: u64, at: Time) {
        self.session.begin(chunk);
        q.schedule(at, TransferEvent::Send { chunk });
    }

    /// Fills the arrival window with the lowest-indexed pending chunks.
    fn pump(&mut self, q: &mut EventQueue<TransferEvent>, at: Time) {
        while let Some(chunk) = self.session.next_to_send() {
            self.send_at(q, chunk, at);
        }
    }

    /// Books one send that entered the channel.
    fn book_send(&mut self, chunk: u64, send: u32) {
        self.attempt_sends[chunk as usize] = self.attempt_sends[chunk as usize].saturating_add(1);
        let size = self.session.chunk_size(chunk);
        self.report.chunks_sent += 1;
        self.report.bytes_sent = self.report.bytes_sent.saturating_add(size);
        if send > 1 {
            self.report.chunks_resent += 1;
            self.report.bytes_resent = self.report.bytes_resent.saturating_add(size);
        }
    }

    /// Handles `event`, popped at `now`. Returns whether the attempt goes
    /// on: it ends when the session's last chunk verifies.
    fn handle(
        &mut self,
        q: &mut EventQueue<TransferEvent>,
        now: Time,
        event: TransferEvent,
    ) -> bool {
        match event {
            TransferEvent::Send { chunk } => {
                if self.stalled {
                    self.session.roll_back(chunk);
                    return true;
                }
                let send = self.session.sends[chunk as usize];
                match self.channel.send(chunk, send, q.now_ms()) {
                    ChunkFate::Deliver { ack_after_ms } => {
                        self.book_send(chunk, send);
                        let at = now.saturating_add(ack_after_ms.saturating_mul(MS));
                        q.schedule(at, TransferEvent::Ack { chunk });
                    }
                    ChunkFate::Timeout { detect_after_ms } => {
                        self.book_send(chunk, send);
                        let at = now.saturating_add(detect_after_ms.saturating_mul(MS));
                        q.schedule(at, TransferEvent::Timeout { chunk });
                    }
                    ChunkFate::Down => {
                        // Connection refused: no bytes moved. Drain what
                        // is already airborne, send nothing new.
                        self.stalled = true;
                        self.report.stall = Some(Stall::FrontendDown { at_ms: q.now_ms() });
                        self.session.roll_back(chunk);
                    }
                }
            }
            TransferEvent::Timeout { chunk } => {
                self.report.timeouts += 1;
                self.session.land(chunk, ChunkState::Pending);
                if self.stalled {
                    return true;
                }
                if self.attempt_sends[chunk as usize] >= self.max_chunk_sends {
                    self.stalled = true;
                    self.report.stall = Some(Stall::ChunkBudget {
                        chunk,
                        sends: self.session.sends[chunk as usize],
                    });
                } else {
                    self.send_at(q, chunk, now);
                }
            }
            TransferEvent::Ack { chunk } => {
                self.report.verified.push((chunk, q.now_ms()));
                if self.session.ack(chunk) {
                    return false;
                }
                if !self.stalled {
                    self.pump(q, now);
                }
            }
        }
        true
    }
}

/// Runs one transfer attempt on a fresh `mcs-sim` event queue starting at
/// `start_ms`: window-bounded out-of-order sends, fates from `channel`,
/// at most `max_chunk_sends` sends per chunk before the attempt stalls
/// with [`Stall::ChunkBudget`]. The start and the channel's delays move to
/// the queue's µs clock here; the channel and the report read it back in
/// ms. Returns when the session completes or stalls; the session keeps
/// its verified set either way, so a later attempt resumes with only the
/// missing chunks.
pub fn run_transfer_attempt<C: Channel>(
    session: &mut TransferSession,
    channel: &mut C,
    max_chunk_sends: u32,
    start_ms: u64,
) -> AttemptReport {
    let report = AttemptReport {
        end_ms: start_ms,
        ..AttemptReport::default()
    };
    if session.is_complete() {
        return report;
    }
    let mut q = EventQueue::new();
    let mut attempt = Attempt {
        attempt_sends: vec![0; session.states.len()],
        session,
        channel,
        max_chunk_sends,
        report,
        stalled: false,
    };
    attempt.pump(&mut q, start_ms.saturating_mul(MS));
    while let Some((now, event)) = q.pop() {
        if !attempt.handle(&mut q, now, event) {
            break;
        }
    }
    let mut report = attempt.report;
    report.end_ms = report.end_ms.max(q.now_ms());
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::{Content, CHUNK_SIZE};

    fn manifest(chunks: u64) -> FileManifest {
        // A synthetic file spanning `chunks` chunks, last one partial.
        let size = CHUNK_SIZE
            .saturating_mul(chunks.saturating_sub(1))
            .saturating_add(CHUNK_SIZE / 2)
            .max(1);
        FileManifest::build("xfer/test", &Content::Synthetic { seed: 9, size })
    }

    fn fair(_c: u64, _s: u32, _t: u64) -> ChunkFate {
        ChunkFate::Deliver { ack_after_ms: 0 }
    }

    #[test]
    fn fair_channel_completes_in_order_at_start_time() {
        let m = manifest(5);
        let mut s = TransferSession::new(&m, 3);
        let r = run_transfer_attempt(&mut s, &mut fair, 4, 42);
        assert!(s.is_complete());
        assert!(r.stall.is_none());
        assert_eq!(r.chunks_sent, 5);
        assert_eq!(r.chunks_resent, 0);
        assert_eq!(r.bytes_sent, m.size);
        assert_eq!(r.end_ms, 42);
        // Zero-delay acks verify in index order at the start instant.
        let order: Vec<u64> = r.verified.iter().map(|&(c, _)| c).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert!(r.verified.iter().all(|&(_, at)| at == 42));
        assert_eq!(s.bytes_verified(), m.size);
    }

    #[test]
    fn out_of_order_acks_still_finalize_on_last_verified_chunk() {
        let m = manifest(6);
        let mut s = TransferSession::new(&m, 6);
        // Earlier chunks take longer: acks land in reverse index order.
        let mut skewed = |c: u64, _s: u32, _t: u64| ChunkFate::Deliver {
            ack_after_ms: 60 - c * 10,
        };
        let r = run_transfer_attempt(&mut s, &mut skewed, 4, 0);
        assert!(s.is_complete());
        let order: Vec<u64> = r.verified.iter().map(|&(c, _)| c).collect();
        assert_eq!(order, vec![5, 4, 3, 2, 1, 0], "arrival order is ack order");
        // The session completed when chunk 0 (the *last* to verify) landed.
        assert_eq!(r.end_ms, 60);
    }

    #[test]
    fn lossy_channel_resends_within_budget() {
        let m = manifest(4);
        let mut s = TransferSession::new(&m, 2);
        // First send of every chunk is lost; re-sends deliver.
        let mut lossy = |_c: u64, send: u32, _t: u64| {
            if send == 1 {
                ChunkFate::Timeout { detect_after_ms: 5 }
            } else {
                ChunkFate::Deliver { ack_after_ms: 0 }
            }
        };
        let r = run_transfer_attempt(&mut s, &mut lossy, 4, 0);
        assert!(s.is_complete());
        assert_eq!(r.timeouts, 4);
        assert_eq!(r.chunks_sent, 8);
        assert_eq!(r.chunks_resent, 4);
        assert_eq!(r.bytes_resent, m.size);
    }

    #[test]
    fn chunk_budget_exhaustion_stalls_with_partial_progress() {
        let m = manifest(3);
        let mut s = TransferSession::new(&m, 1);
        // Chunk 1 never gets through; chunk 0 delivers first (window 1).
        let mut brown = |c: u64, _s: u32, _t: u64| {
            if c == 1 {
                ChunkFate::Timeout { detect_after_ms: 1 }
            } else {
                ChunkFate::Deliver { ack_after_ms: 0 }
            }
        };
        let r = run_transfer_attempt(&mut s, &mut brown, 3, 0);
        assert_eq!(r.stall, Some(Stall::ChunkBudget { chunk: 1, sends: 3 }));
        assert_eq!(r.timeouts, 3);
        assert_eq!(s.verified_set().into_iter().collect::<Vec<_>>(), vec![0]);
        assert!(!s.is_complete());
    }

    #[test]
    fn down_channel_stalls_and_resume_sends_only_missing_chunks() {
        let m = manifest(8);
        let mut s = TransferSession::new(&m, 4);
        // The peer vanishes after three acks.
        let mut acked = 0u64;
        let mut flaky = |_c: u64, _s: u32, _t: u64| {
            if acked < 3 {
                acked += 1;
                ChunkFate::Deliver { ack_after_ms: 1 }
            } else {
                ChunkFate::Down
            }
        };
        let r1 = run_transfer_attempt(&mut s, &mut flaky, 4, 100);
        assert!(matches!(r1.stall, Some(Stall::FrontendDown { .. })));
        let done = s.verified_set();
        assert_eq!(done.len(), 3);
        assert_eq!(s.in_flight, 0, "stall must tear down the window");

        // Persist + resume: a brand-new session from the verified set.
        let mut resumed = TransferSession::resume(&m, &done, 4);
        assert_eq!(resumed.bytes_verified(), s.bytes_verified());
        let r2 = run_transfer_attempt(&mut resumed, &mut fair, 4, 500);
        assert!(resumed.is_complete());
        assert_eq!(
            r2.chunks_sent,
            8 - 3,
            "resume moves only the missing chunks"
        );
        let resent: BTreeSet<u64> = r2.verified.iter().map(|&(c, _)| c).collect();
        let missing: BTreeSet<u64> = (0..8).filter(|i| !done.contains(i)).collect();
        assert_eq!(resent, missing);
        assert_eq!(
            resumed.bytes_verified(),
            m.size,
            "resumed file covers every byte exactly once"
        );
    }

    #[test]
    fn interrupt_at_every_chunk_boundary_resumes_byte_identical() {
        // Exhaustive sweep (deterministic "proptest"): interrupt after k
        // acks for every k and several windows; the resumed session must
        // finish with every chunk verified and send each missing chunk
        // exactly once.
        let m = manifest(7);
        for window in [1usize, 3, 8] {
            for k in 0..=7u64 {
                let mut s = TransferSession::new(&m, window);
                let mut acked = 0u64;
                let mut cut = |_c: u64, _s: u32, _t: u64| {
                    if acked < k {
                        acked += 1;
                        ChunkFate::Deliver { ack_after_ms: 0 }
                    } else {
                        ChunkFate::Down
                    }
                };
                let r1 = run_transfer_attempt(&mut s, &mut cut, 4, 0);
                if k >= 7 {
                    assert!(s.is_complete(), "k={k} w={window}");
                    continue;
                }
                assert!(matches!(r1.stall, Some(Stall::FrontendDown { .. })));
                assert_eq!(s.verified_count(), k, "k={k} w={window}");
                let mut resumed = TransferSession::resume(&m, &s.verified_set(), window);
                let r2 = run_transfer_attempt(&mut resumed, &mut fair, 4, 0);
                assert!(resumed.is_complete(), "k={k} w={window}");
                assert_eq!(r2.chunks_sent, 7 - k, "k={k} w={window}");
                assert_eq!(r2.chunks_resent, 0, "fresh session: no lifetime re-sends");
                assert_eq!(resumed.verified_set(), (0..7).collect());
                assert_eq!(resumed.bytes_verified(), m.size);
            }
        }
    }

    #[test]
    fn window_bounds_in_flight_and_protocol_errors_are_typed() {
        // Every chunk's ack takes 10 ms, so each window's chunks go out
        // together at the instant the previous window's acks land.
        let m = manifest(5);
        for window in [1usize, 2, 5, 9] {
            let mut s = TransferSession::new(&m, window);
            let mut sent_at = Vec::new();
            let mut slow = |c: u64, _s: u32, t: u64| {
                sent_at.push((c, t));
                ChunkFate::Deliver { ack_after_ms: 10 }
            };
            let r = run_transfer_attempt(&mut s, &mut slow, 4, 0);
            assert!(s.is_complete());
            let want: Vec<(u64, u64)> = (0..5).map(|c| (c, c / window as u64 * 10)).collect();
            assert_eq!(sent_at, want, "window {window}");
            assert_eq!(r.end_ms, (4 / window as u64 + 1) * 10, "window {window}");
        }
        // A failed attempt says why, as a typed stall: the instant a send
        // found the peer down, or the chunk that spent its budget and its
        // lifetime sends.
        let mut s = TransferSession::new(&m, 2);
        let mut down = |_c: u64, _s: u32, _t: u64| ChunkFate::Down;
        let r = run_transfer_attempt(&mut s, &mut down, 4, 7);
        assert_eq!(r.stall, Some(Stall::FrontendDown { at_ms: 7 }));
        assert_eq!((r.chunks_sent, r.end_ms), (0, 7), "a refused send is free");
        let mut dark = |_c: u64, _s: u32, _t: u64| ChunkFate::Timeout { detect_after_ms: 3 };
        let r = run_transfer_attempt(&mut s, &mut dark, 2, 10);
        assert_eq!(r.stall, Some(Stall::ChunkBudget { chunk: 0, sends: 2 }));
    }

    #[test]
    fn dedup_skip_counts_bytes_once_and_rejects_in_flight() {
        // The target already holds chunks 1 and 3 (and index 99, out of
        // range): the session starts with their bytes verified, once each,
        // and no held chunk ever enters the window.
        let m = manifest(4);
        let held: BTreeSet<u64> = [1, 3, 99].into();
        let mut s = TransferSession::resume(&m, &held, 4);
        assert_eq!(s.verified_count(), 2);
        assert_eq!(s.bytes_verified(), m.chunk_size(1) + m.chunk_size(3));
        let mut sent = Vec::new();
        let mut recording = |c: u64, _s: u32, _t: u64| {
            sent.push(c);
            ChunkFate::Deliver { ack_after_ms: 0 }
        };
        let r = run_transfer_attempt(&mut s, &mut recording, 4, 0);
        assert_eq!(sent, vec![0, 2]);
        assert_eq!(r.bytes_sent, m.chunk_size(0) + m.chunk_size(2));
        assert_eq!(s.bytes_verified(), m.size, "every byte counted once");
    }

    #[test]
    fn restart_discards_progress_but_keeps_send_ordinals() {
        // Chunks 0 and 1 deliver on their first send; chunk 2's first
        // send times out and its second finds the peer down.
        let m = manifest(3);
        let mut s = TransferSession::new(&m, 3);
        let mut ordinals = Vec::new();
        let mut chan = |c: u64, send: u32, _t: u64| {
            ordinals.push((c, send));
            match (c, send) {
                (2, 1) => ChunkFate::Timeout { detect_after_ms: 1 },
                (2, _) => ChunkFate::Down,
                _ => ChunkFate::Deliver { ack_after_ms: 0 },
            }
        };
        let r = run_transfer_attempt(&mut s, &mut chan, 4, 0);
        assert!(matches!(r.stall, Some(Stall::FrontendDown { .. })));
        assert_eq!(ordinals, vec![(0, 1), (1, 1), (2, 1), (2, 2)]);
        assert_eq!(s.verified_set(), [0, 1].into());

        s.restart();
        assert_eq!(
            (s.verified_count(), s.bytes_verified(), s.in_flight),
            (0, 0, 0)
        );
        assert!(s.verified_set().is_empty());
        // The next sends take fresh ordinals, never the spent ones. The
        // Down-fated send gave its ordinal 2 back, so chunk 2 draws it
        // again.
        let mut ordinals = Vec::new();
        let mut recording = |c: u64, send: u32, _t: u64| {
            ordinals.push((c, send));
            ChunkFate::Deliver { ack_after_ms: 0 }
        };
        let r = run_transfer_attempt(&mut s, &mut recording, 4, 10);
        assert!(s.is_complete());
        assert_eq!(ordinals, vec![(0, 2), (1, 2), (2, 2)]);
        assert_eq!(r.chunks_resent, 3, "every restarted send is a re-send");
    }

    #[test]
    fn attempts_are_deterministic_across_runs() {
        let m = manifest(9);
        let run = || {
            let mut s = TransferSession::new(&m, 4);
            // Deterministic mixed fates keyed only on (chunk, send).
            let mut chan = |c: u64, send: u32, _t: u64| {
                if (c + send as u64).is_multiple_of(3) {
                    ChunkFate::Timeout {
                        detect_after_ms: 7 + c,
                    }
                } else {
                    ChunkFate::Deliver {
                        ack_after_ms: c % 4,
                    }
                }
            };
            let r = run_transfer_attempt(&mut s, &mut chan, 4, 1000);
            (r, s.verified_set())
        };
        let (r1, v1) = run();
        let (r2, v2) = run();
        assert_eq!(r1, r2, "same channel, same timeline, same report");
        assert_eq!(v1, v2);
    }

    #[test]
    fn single_and_empty_chunk_files_transfer() {
        for size in [0u64, 1, CHUNK_SIZE] {
            let m = FileManifest::build("tiny", &Content::Synthetic { seed: 1, size });
            assert_eq!(m.chunk_count(), 1);
            let mut s = TransferSession::new(&m, 8);
            let r = run_transfer_attempt(&mut s, &mut fair, 4, 0);
            assert!(s.is_complete(), "size {size}");
            assert_eq!(r.chunks_sent, 1);
            assert_eq!(r.bytes_sent, m.size);
        }
    }

    /// The kinds of fake channel the golden grid crosses.
    #[derive(Debug, Clone, Copy)]
    enum Weather {
        /// Every send delivers; acks land at the send instant.
        Fair,
        /// Every send delivers; acks of later chunks land sooner.
        Skewed,
        /// Every `k`-th first send times out after a varied delay.
        Lossy { k: u64 },
        /// `n` sends deliver, then the peer is down for good.
        DownAfter { n: u64 },
        /// Every send times out, so each attempt spends its budget.
        Dark,
    }

    /// A fresh channel of `weather` for a file of `chunks` chunks.
    fn weather_channel(
        weather: Weather,
        chunks: u64,
    ) -> Box<dyn FnMut(u64, u32, u64) -> ChunkFate> {
        match weather {
            Weather::Fair => Box::new(fair),
            Weather::Skewed => Box::new(move |c: u64, _s: u32, _t: u64| ChunkFate::Deliver {
                ack_after_ms: (chunks - c) * 7,
            }),
            Weather::Lossy { k } => {
                let mut first_sends = 0u64;
                Box::new(move |c: u64, send: u32, t: u64| {
                    if send == 1 {
                        first_sends += 1;
                        if first_sends.is_multiple_of(k) {
                            return ChunkFate::Timeout {
                                detect_after_ms: 3 + (c * 5 + t) % 11,
                            };
                        }
                    }
                    ChunkFate::Deliver {
                        ack_after_ms: c % 3,
                    }
                })
            }
            Weather::DownAfter { n } => {
                let mut delivered = 0u64;
                Box::new(move |_c: u64, _s: u32, _t: u64| {
                    if delivered < n {
                        delivered += 1;
                        ChunkFate::Deliver { ack_after_ms: 2 }
                    } else {
                        ChunkFate::Down
                    }
                })
            }
            Weather::Dark => Box::new(|c: u64, send: u32, _t: u64| ChunkFate::Timeout {
                detect_after_ms: 1 + (c + send as u64) % 4,
            }),
        }
    }

    /// Every `AttemptReport` field and the session's verified set after
    /// the attempt, as one line.
    fn attempt_line(r: &AttemptReport, s: &TransferSession) -> String {
        format!(
            "{:?} {} {} {} {} {} {} {:?} {:?} {} {}\n",
            r.verified,
            r.chunks_sent,
            r.chunks_resent,
            r.bytes_sent,
            r.bytes_resent,
            r.timeouts,
            r.end_ms,
            r.stall,
            s.verified_set(),
            s.verified_count(),
            s.bytes_verified()
        )
    }

    /// Pins the engine's whole output over a grid of fake channels,
    /// windows, file sizes and send budgets: each attempt's report and
    /// verified set, and after every stall both a resume from the verified
    /// set and a restart. The replay goldens see the engine only through
    /// the service's 0 ms acks; this covers the rest. To re-record after a
    /// deliberate change, run this test on the parent and take the digest
    /// from its failure message.
    #[test]
    fn golden_digest_over_the_channel_grid() {
        const GOLDEN: u64 = 0x3c0d_624e_e44a_16e0;
        let weathers = [
            Weather::Fair,
            Weather::Skewed,
            Weather::Lossy { k: 2 },
            Weather::Lossy { k: 3 },
            Weather::DownAfter { n: 0 },
            Weather::DownAfter { n: 5 },
            Weather::Dark,
        ];
        let sizes = [
            0,
            1,
            CHUNK_SIZE,
            7 * CHUNK_SIZE + CHUNK_SIZE / 3,
            20 * CHUNK_SIZE,
        ];
        let mut text = String::new();
        for weather in weathers {
            for size in sizes {
                let m = FileManifest::build("golden", &Content::Synthetic { seed: 3, size });
                let chunks = m.chunk_count();
                for window in [1, 3, 8, chunks as usize] {
                    for max_chunk_sends in [1, 4] {
                        text.push_str(&format!("{weather:?} {size} {window} {max_chunk_sends}\n"));
                        let mut s = TransferSession::new(&m, window);
                        let mut ch = weather_channel(weather, chunks);
                        let r = run_transfer_attempt(&mut s, &mut ch, max_chunk_sends, 1_000);
                        text.push_str(&attempt_line(&r, &s));
                        if r.stall.is_none() {
                            continue;
                        }
                        let mut resumed = TransferSession::resume(&m, &s.verified_set(), window);
                        let mut ch = weather_channel(weather, chunks);
                        let r2 = run_transfer_attempt(
                            &mut resumed,
                            &mut ch,
                            max_chunk_sends,
                            r.end_ms + 500,
                        );
                        text.push_str(&attempt_line(&r2, &resumed));
                        s.restart();
                        let mut ch = weather_channel(weather, chunks);
                        let r3 =
                            run_transfer_attempt(&mut s, &mut ch, max_chunk_sends, r.end_ms + 700);
                        text.push_str(&attempt_line(&r3, &s));
                    }
                }
            }
        }
        let digest = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(digest, GOLDEN, "transfer golden digest {digest:#018x}");
    }
}
