//! Resumable, out-of-order chunk transfer protocol (ROADMAP item 3).
//!
//! The paper's client moves every file as sequential 512 KB chunks
//! (§2.1); real sync engines (and the sftpx protocol this module is
//! shaped after) make each chunk independently verifiable — chunk id +
//! offset + checksum — so arrival order does not matter and a transfer
//! interrupted anywhere resumes from the verified prefix-set instead of
//! byte zero.
//!
//! Two layers live here:
//!
//! - [`TransferSession`]: a pure per-chunk state machine
//!   (`Pending → InFlight → Verified`, with `Failed` for timed-out or
//!   corrupted sends). Every transition is checked and typed
//!   ([`TransferError`]); verification compares the received chunk's MD5
//!   digest against the [`FileManifest`], and the session finalizes when
//!   the *last* chunk verifies — in whatever order that happens.
//! - [`run_transfer_attempt`]: one transfer attempt driven by the shared
//!   `mcs-sim` event queue. Chunk sends, acks, and timeout detections are
//!   events on the one timeline; a [`Channel`] decides each send's
//!   [`ChunkFate`]. The attempt runs until the session completes or
//!   stalls ([`Stall`]) — a stalled session keeps its verified set, so
//!   the caller can retry later and resend only the missing chunks, or
//!   [`TransferSession::restart`] it to retry the whole file.
//!
//! Determinism: the engine is single-threaded, all fates come from the
//! caller's [`Channel`] (the service backs it with stateless
//! `mcs-faults` coins), and ties dispatch in insertion order — so a
//! transfer is bit-identical across runs and thread counts.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use mcs_sim::{EventQueue, Time, MS};

use crate::content::FileManifest;
use crate::md5::Digest;

/// Lifecycle of one chunk inside a [`TransferSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkState {
    /// Not yet sent (or skipped) in this session.
    Pending,
    /// Sent; awaiting ack or timeout.
    InFlight,
    /// Received and checksum-verified (terminal).
    Verified,
    /// A send timed out or failed verification; eligible for re-send.
    Failed,
}

impl fmt::Display for ChunkState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::Pending => "pending",
            Self::InFlight => "in-flight",
            Self::Verified => "verified",
            Self::Failed => "failed",
        };
        f.write_str(s)
    }
}

/// Typed protocol violations and failures of a [`TransferSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferError {
    /// Chunk index beyond the manifest's chunk count.
    OutOfRange {
        /// The offending index.
        index: u64,
        /// Chunks in the manifest.
        chunks: u64,
    },
    /// The arrival window already holds `window` in-flight chunks.
    WindowFull {
        /// Configured window size.
        window: usize,
    },
    /// The chunk is not in a sendable state (already verified or already
    /// in flight).
    NotSendable {
        /// The offending index.
        index: u64,
        /// Its current state.
        state: ChunkState,
    },
    /// An ack/timeout arrived for a chunk that was never in flight.
    NotInFlight {
        /// The offending index.
        index: u64,
        /// Its current state.
        state: ChunkState,
    },
    /// The received chunk's MD5 digest does not match the manifest.
    ChecksumMismatch {
        /// The corrupted chunk.
        index: u64,
    },
    /// Finalize was requested before every chunk verified.
    Incomplete {
        /// Chunks verified so far.
        verified: u64,
        /// Chunks in the manifest.
        chunks: u64,
    },
}

impl fmt::Display for TransferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::OutOfRange { index, chunks } => {
                write!(f, "chunk {index} out of range (manifest has {chunks})")
            }
            Self::WindowFull { window } => {
                write!(f, "arrival window full ({window} chunks in flight)")
            }
            Self::NotSendable { index, state } => {
                write!(f, "chunk {index} is {state}, not sendable")
            }
            Self::NotInFlight { index, state } => {
                write!(f, "chunk {index} is {state}, not in flight")
            }
            Self::ChecksumMismatch { index } => {
                write!(f, "chunk {index} failed MD5 verification")
            }
            Self::Incomplete { verified, chunks } => {
                write!(
                    f,
                    "transfer incomplete: {verified}/{chunks} chunks verified"
                )
            }
        }
    }
}

impl Error for TransferError {}

/// Per-chunk transfer state machine over one [`FileManifest`].
///
/// The session never touches bytes: callers move chunk data, the session
/// tracks which chunks are proven present (digest match against the
/// manifest) and bounds concurrency with an arrival window. It survives
/// interruption — [`TransferSession::verified_set`] is the partial
/// manifest a resume needs, and [`TransferSession::resume`] rebuilds a
/// session around it.
#[derive(Debug, Clone)]
pub struct TransferSession {
    manifest: FileManifest,
    states: Vec<ChunkState>,
    /// Lifetime send count per chunk (across resumes of this session
    /// object); send ordinals key the channel's per-send fault coins.
    sends: Vec<u32>,
    window: usize,
    in_flight: usize,
    verified: u64,
    verified_bytes: u64,
}

impl TransferSession {
    /// A fresh session: every chunk pending, arrival window `window`
    /// (clamped to at least 1).
    pub fn new(manifest: FileManifest, window: usize) -> Self {
        let chunks = manifest.chunk_count() as usize;
        Self {
            manifest,
            states: vec![ChunkState::Pending; chunks],
            sends: vec![0; chunks],
            window: window.max(1),
            in_flight: 0,
            verified: 0,
            verified_bytes: 0,
        }
    }

    /// Rebuilds a session from a persisted partial transfer: every chunk
    /// index in `verified` (out-of-range entries are ignored) starts in
    /// `Verified`, the rest pending.
    pub fn resume(manifest: FileManifest, verified: &BTreeSet<u64>, window: usize) -> Self {
        let mut s = Self::new(manifest, window);
        for &i in verified {
            let _ = s.skip_verified(i);
        }
        s
    }

    /// The manifest this session transfers.
    pub fn manifest(&self) -> &FileManifest {
        &self.manifest
    }

    /// Chunks in the manifest.
    pub fn chunk_count(&self) -> u64 {
        self.manifest.chunk_count()
    }

    /// The state of chunk `index`, if in range.
    pub fn state(&self, index: u64) -> Option<ChunkState> {
        self.states.get(index as usize).copied()
    }

    /// Chunks currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Can another chunk enter the arrival window?
    pub fn window_free(&self) -> bool {
        self.in_flight < self.window
    }

    /// Lowest-indexed chunk eligible for (re-)send, if any.
    pub fn next_pending(&self) -> Option<u64> {
        self.states
            .iter()
            .position(|s| matches!(s, ChunkState::Pending | ChunkState::Failed))
            .map(|i| i as u64)
    }

    /// Times chunk `index` has entered the channel over the session's
    /// lifetime.
    pub fn send_count(&self, index: u64) -> u32 {
        self.sends.get(index as usize).copied().unwrap_or(0)
    }

    /// Moves a pending/failed chunk into the arrival window and returns
    /// its lifetime send ordinal (1-based).
    pub fn begin(&mut self, index: u64) -> Result<u32, TransferError> {
        let chunks = self.chunk_count();
        let Some(state) = self.states.get_mut(index as usize) else {
            return Err(TransferError::OutOfRange { index, chunks });
        };
        match *state {
            ChunkState::Pending | ChunkState::Failed => {
                if self.in_flight >= self.window {
                    return Err(TransferError::WindowFull {
                        window: self.window,
                    });
                }
                *state = ChunkState::InFlight;
                self.in_flight += 1;
                let n = self.sends[index as usize].saturating_add(1);
                self.sends[index as usize] = n;
                Ok(n)
            }
            s => Err(TransferError::NotSendable { index, state: s }),
        }
    }

    /// Verifies an arrived chunk against the manifest digest. On match the
    /// chunk becomes `Verified` and the call reports whether it was the
    /// last one (`Ok(true)` = session complete). On mismatch the chunk
    /// becomes `Failed` (eligible for re-send) and the error is returned.
    pub fn verify(&mut self, index: u64, digest: Digest) -> Result<bool, TransferError> {
        let chunks = self.chunk_count();
        let Some(state) = self.states.get_mut(index as usize) else {
            return Err(TransferError::OutOfRange { index, chunks });
        };
        if *state != ChunkState::InFlight {
            return Err(TransferError::NotInFlight {
                index,
                state: *state,
            });
        }
        self.in_flight -= 1;
        if self.manifest.chunk_digests[index as usize] != digest {
            *state = ChunkState::Failed;
            return Err(TransferError::ChecksumMismatch { index });
        }
        *state = ChunkState::Verified;
        self.verified += 1;
        self.verified_bytes = self
            .verified_bytes
            .saturating_add(self.manifest.chunk_size(index));
        Ok(self.is_complete())
    }

    /// Marks an in-flight chunk failed (send timed out / connection lost).
    pub fn fail(&mut self, index: u64) -> Result<(), TransferError> {
        let chunks = self.chunk_count();
        let Some(state) = self.states.get_mut(index as usize) else {
            return Err(TransferError::OutOfRange { index, chunks });
        };
        if *state != ChunkState::InFlight {
            return Err(TransferError::NotInFlight {
                index,
                state: *state,
            });
        }
        *state = ChunkState::Failed;
        self.in_flight -= 1;
        Ok(())
    }

    /// Rolls back a reservation whose send never entered the channel
    /// (attempt tear-down after a stall): the chunk returns to `Pending`,
    /// its lifetime send ordinal is given back, and the window slot frees.
    pub fn cancel(&mut self, index: u64) -> Result<(), TransferError> {
        let chunks = self.chunk_count();
        let Some(state) = self.states.get_mut(index as usize) else {
            return Err(TransferError::OutOfRange { index, chunks });
        };
        if *state != ChunkState::InFlight {
            return Err(TransferError::NotInFlight {
                index,
                state: *state,
            });
        }
        *state = ChunkState::Pending;
        self.sends[index as usize] = self.sends[index as usize].saturating_sub(1);
        self.in_flight -= 1;
        Ok(())
    }

    /// Marks a pending/failed chunk verified *without* transferring it —
    /// the dedup path: the target front-end's chunk store already holds a
    /// checksummed copy, so sending it would be wasted bytes.
    pub fn skip_verified(&mut self, index: u64) -> Result<(), TransferError> {
        let chunks = self.chunk_count();
        let Some(state) = self.states.get_mut(index as usize) else {
            return Err(TransferError::OutOfRange { index, chunks });
        };
        match *state {
            ChunkState::Pending | ChunkState::Failed => {
                *state = ChunkState::Verified;
                self.verified += 1;
                self.verified_bytes = self
                    .verified_bytes
                    .saturating_add(self.manifest.chunk_size(index));
                Ok(())
            }
            s => Err(TransferError::NotSendable { index, state: s }),
        }
    }

    /// Discards all progress, as a whole-file retry does: every chunk
    /// returns to `Pending`. The lifetime send counts stay, so the next
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
        self.verified == self.chunk_count()
    }

    /// Chunks verified so far.
    pub fn verified_count(&self) -> u64 {
        self.verified
    }

    /// Bytes covered by verified chunks.
    pub fn bytes_verified(&self) -> u64 {
        self.verified_bytes
    }

    /// Indices not yet verified, ascending — what a resume must move.
    pub fn missing(&self) -> Vec<u64> {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| **s != ChunkState::Verified)
            .map(|(i, _)| i as u64)
            .collect()
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

    /// The manifest, released only once every chunk has verified —
    /// finalize-on-last-verified-chunk.
    pub fn finalize(&self) -> Result<&FileManifest, TransferError> {
        if self.is_complete() {
            Ok(&self.manifest)
        } else {
            Err(TransferError::Incomplete {
                verified: self.verified,
                chunks: self.chunk_count(),
            })
        }
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

/// Knobs of one transfer attempt. The arrival window is the session's
/// own (see [`TransferSession::new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferConfig {
    /// Sends allowed per chunk within one attempt before the attempt
    /// stalls with [`Stall::ChunkBudget`].
    pub max_chunk_sends: u32,
}

impl Default for TransferConfig {
    fn default() -> Self {
        Self { max_chunk_sends: 4 }
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
    /// Acked chunks whose digest did not match the manifest.
    pub checksum_failures: u64,
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

struct AttemptHandler<'a, C, D> {
    session: &'a mut TransferSession,
    channel: &'a mut C,
    digest_of: &'a D,
    cfg: &'a TransferConfig,
    report: AttemptReport,
    /// Sends per chunk within *this* attempt (the stall budget; resumes
    /// start fresh). Only sends that actually entered the channel count.
    attempt_sends: Vec<u32>,
    /// Set on the first stall: no new sends, pending fates drain, unsent
    /// reservations are rolled back as their events surface.
    stalled: bool,
}

impl<C: Channel, D: Fn(u64) -> Digest> AttemptHandler<'_, C, D> {
    /// Reserves a window slot for `chunk` and schedules its send at `at`.
    fn send_chunk(&mut self, q: &mut EventQueue<TransferEvent>, chunk: u64, at: Time) -> bool {
        match self.session.begin(chunk) {
            Ok(_) => {
                q.schedule(at, TransferEvent::Send { chunk });
                true
            }
            Err(_) => {
                debug_assert!(false, "scheduler offered an unsendable chunk {chunk}");
                false
            }
        }
    }

    /// Fills the arrival window with the lowest-indexed eligible chunks.
    fn pump(&mut self, q: &mut EventQueue<TransferEvent>, at: Time) {
        while self.session.window_free() {
            let Some(next) = self.session.next_pending() else {
                break;
            };
            if !self.send_chunk(q, next, at) {
                break;
            }
        }
    }

    /// Books one send that entered the channel.
    fn book_send(&mut self, chunk: u64, send: u32) {
        self.attempt_sends[chunk as usize] = self.attempt_sends[chunk as usize].saturating_add(1);
        let size = self.session.manifest().chunk_size(chunk);
        self.report.chunks_sent += 1;
        self.report.bytes_sent = self.report.bytes_sent.saturating_add(size);
        if send > 1 {
            self.report.chunks_resent += 1;
            self.report.bytes_resent = self.report.bytes_resent.saturating_add(size);
        }
    }

    /// Gives back a reservation whose send never entered the channel.
    fn roll_back(&mut self, chunk: u64) {
        let canceled = self.session.cancel(chunk);
        debug_assert!(canceled.is_ok(), "tear-down of a chunk not in flight");
    }

    /// Re-send at `now` within the per-attempt budget, else stall.
    fn resend_or_stall(&mut self, q: &mut EventQueue<TransferEvent>, chunk: u64, now: Time) {
        if self.attempt_sends[chunk as usize] >= self.cfg.max_chunk_sends {
            self.stalled = true;
            self.report.stall = Some(Stall::ChunkBudget {
                chunk,
                sends: self.session.send_count(chunk),
            });
        } else {
            self.send_chunk(q, chunk, now);
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
                    self.roll_back(chunk);
                    return true;
                }
                let send = self.session.send_count(chunk);
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
                        self.roll_back(chunk);
                    }
                }
            }
            TransferEvent::Timeout { chunk } => {
                self.report.timeouts += 1;
                let failed = self.session.fail(chunk);
                debug_assert!(failed.is_ok(), "timeout for a chunk not in flight");
                if !self.stalled {
                    self.resend_or_stall(q, chunk, now);
                }
            }
            TransferEvent::Ack { chunk } => {
                let digest = (self.digest_of)(chunk);
                match self.session.verify(chunk, digest) {
                    Ok(done) => {
                        self.report.verified.push((chunk, q.now_ms()));
                        if done {
                            return false;
                        }
                        if !self.stalled {
                            self.pump(q, now);
                        }
                    }
                    Err(_) => {
                        // verify() already moved the chunk to Failed; a
                        // corrupted arrival costs a re-send like a timeout.
                        self.report.checksum_failures += 1;
                        if !self.stalled {
                            self.resend_or_stall(q, chunk, now);
                        }
                    }
                }
            }
        }
        true
    }
}

/// Runs one transfer attempt on a fresh `mcs-sim` event queue starting at
/// `start_ms`: window-bounded out-of-order sends, fates from `channel`,
/// per-chunk verification against `digest_of`. The start and the
/// channel's delays move to the queue's µs clock here; the channel and
/// the report read it back in ms. Returns when the session completes or
/// stalls; the session keeps its verified set either way, so a later
/// attempt resumes with only the missing chunks.
pub fn run_transfer_attempt<C: Channel, D: Fn(u64) -> Digest>(
    session: &mut TransferSession,
    channel: &mut C,
    digest_of: D,
    cfg: &TransferConfig,
    start_ms: u64,
) -> AttemptReport {
    let mut report = AttemptReport {
        end_ms: start_ms,
        ..AttemptReport::default()
    };
    if session.is_complete() {
        return report;
    }
    let mut q = EventQueue::new();
    let chunks = session.chunk_count() as usize;
    let mut handler = AttemptHandler {
        session,
        channel,
        digest_of: &digest_of,
        cfg,
        report,
        attempt_sends: vec![0; chunks],
        stalled: false,
    };
    handler.pump(&mut q, start_ms.saturating_mul(MS));
    while let Some((now, event)) = q.pop() {
        if !handler.handle(&mut q, now, event) {
            break;
        }
    }
    report = handler.report;
    report.end_ms = report.end_ms.max(q.now_ms());
    report
}

/// Mergeable roll-up of transfer activity: the materialised view the
/// service exposes over its `transfer.*` registry counters, and the
/// monoid shard reducers sum when fleet replays are split.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Transfer sessions opened.
    pub sessions: u64,
    /// Attempts that began with partial progress already verified.
    pub resumed_sessions: u64,
    /// Chunk sends that entered a channel.
    pub chunks_sent: u64,
    /// Chunk re-sends (retry-inflated share of `chunks_sent`).
    pub chunks_resent: u64,
    /// Chunks skipped because the target front-end already held them
    /// (dedup).
    pub chunks_deduped: u64,
    /// Bytes resumes did not re-send that whole-file retries would have.
    pub resume_saved_bytes: u64,
}

impl TransferStats {
    /// Field-wise sum: `a.merge(b)` then `a.merge(c)` equals merging in
    /// any order (u64 counter monoid).
    pub fn merge(&mut self, other: &Self) {
        self.sessions += other.sessions;
        self.resumed_sessions += other.resumed_sessions;
        self.chunks_sent += other.chunks_sent;
        self.chunks_resent += other.chunks_resent;
        self.chunks_deduped += other.chunks_deduped;
        self.resume_saved_bytes += other.resume_saved_bytes;
    }
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

    fn true_digests(m: &FileManifest) -> impl Fn(u64) -> Digest + '_ {
        move |i| m.chunk_digests[i as usize]
    }

    #[test]
    fn fair_channel_completes_in_order_at_start_time() {
        let m = manifest(5);
        let mut s = TransferSession::new(m.clone(), 3);
        let mut fair = |_c: u64, _s: u32, _t: u64| ChunkFate::Deliver { ack_after_ms: 0 };
        let r = run_transfer_attempt(
            &mut s,
            &mut fair,
            true_digests(&m),
            &TransferConfig::default(),
            42,
        );
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
        assert_eq!(s.finalize().unwrap().file_digest, m.file_digest);
    }

    #[test]
    fn out_of_order_acks_still_finalize_on_last_verified_chunk() {
        let m = manifest(6);
        let mut s = TransferSession::new(m.clone(), 6);
        // Earlier chunks take longer: acks land in reverse index order.
        let mut skewed = |c: u64, _s: u32, _t: u64| ChunkFate::Deliver {
            ack_after_ms: 60 - c * 10,
        };
        let r = run_transfer_attempt(
            &mut s,
            &mut skewed,
            true_digests(&m),
            &TransferConfig::default(),
            0,
        );
        assert!(s.is_complete());
        let order: Vec<u64> = r.verified.iter().map(|&(c, _)| c).collect();
        assert_eq!(order, vec![5, 4, 3, 2, 1, 0], "arrival order is ack order");
        // The session finalized when chunk 0 (the *last* to verify) landed.
        assert_eq!(r.end_ms, 60);
    }

    #[test]
    fn lossy_channel_resends_within_budget() {
        let m = manifest(4);
        let mut s = TransferSession::new(m.clone(), 2);
        // First send of every chunk is lost; re-sends deliver.
        let mut lossy = |_c: u64, send: u32, _t: u64| {
            if send == 1 {
                ChunkFate::Timeout { detect_after_ms: 5 }
            } else {
                ChunkFate::Deliver { ack_after_ms: 0 }
            }
        };
        let r = run_transfer_attempt(
            &mut s,
            &mut lossy,
            true_digests(&m),
            &TransferConfig::default(),
            0,
        );
        assert!(s.is_complete());
        assert_eq!(r.timeouts, 4);
        assert_eq!(r.chunks_sent, 8);
        assert_eq!(r.chunks_resent, 4);
        assert_eq!(r.bytes_resent, m.size);
    }

    #[test]
    fn chunk_budget_exhaustion_stalls_with_partial_progress() {
        let m = manifest(3);
        let mut s = TransferSession::new(m.clone(), 1);
        // Chunk 1 never gets through; chunk 0 delivers first (window 1).
        let mut brown = |c: u64, _s: u32, _t: u64| {
            if c == 1 {
                ChunkFate::Timeout { detect_after_ms: 1 }
            } else {
                ChunkFate::Deliver { ack_after_ms: 0 }
            }
        };
        let cfg = TransferConfig { max_chunk_sends: 3 };
        let r = run_transfer_attempt(&mut s, &mut brown, true_digests(&m), &cfg, 0);
        assert_eq!(r.stall, Some(Stall::ChunkBudget { chunk: 1, sends: 3 }));
        assert_eq!(r.timeouts, 3);
        assert_eq!(s.verified_set().into_iter().collect::<Vec<_>>(), vec![0]);
        assert!(s.finalize().is_err());
    }

    #[test]
    fn down_channel_stalls_and_resume_sends_only_missing_chunks() {
        let m = manifest(8);
        let mut s = TransferSession::new(m.clone(), 4);
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
        let cfg = TransferConfig::default();
        let r1 = run_transfer_attempt(&mut s, &mut flaky, true_digests(&m), &cfg, 100);
        assert!(matches!(r1.stall, Some(Stall::FrontendDown { .. })));
        let done = s.verified_set();
        assert_eq!(done.len(), 3);
        assert!(s.in_flight() == 0, "stall must tear down the window");

        // Persist + resume: a brand-new session from the verified set.
        let mut resumed = TransferSession::resume(m.clone(), &done, 4);
        assert_eq!(resumed.bytes_verified(), s.bytes_verified());
        let mut fair = |_c: u64, _s: u32, _t: u64| ChunkFate::Deliver { ack_after_ms: 0 };
        let r2 = run_transfer_attempt(&mut resumed, &mut fair, true_digests(&m), &cfg, 500);
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
        // finish with the manifest's exact digest set and send each
        // missing chunk exactly once.
        let m = manifest(7);
        let cfg = TransferConfig::default();
        for window in [1usize, 3, 8] {
            for k in 0..=7u64 {
                let mut s = TransferSession::new(m.clone(), window);
                let mut acked = 0u64;
                let mut cut = |_c: u64, _s: u32, _t: u64| {
                    if acked < k {
                        acked += 1;
                        ChunkFate::Deliver { ack_after_ms: 0 }
                    } else {
                        ChunkFate::Down
                    }
                };
                let r1 = run_transfer_attempt(&mut s, &mut cut, true_digests(&m), &cfg, 0);
                if k >= 7 {
                    assert!(s.is_complete(), "k={k} w={window}");
                    continue;
                }
                assert!(matches!(r1.stall, Some(Stall::FrontendDown { .. })));
                assert_eq!(s.verified_count(), k, "k={k} w={window}");
                let mut resumed = TransferSession::resume(m.clone(), &s.verified_set(), window);
                let mut fair = |_c: u64, _s: u32, _t: u64| ChunkFate::Deliver { ack_after_ms: 0 };
                let r2 = run_transfer_attempt(&mut resumed, &mut fair, true_digests(&m), &cfg, 0);
                assert!(resumed.is_complete(), "k={k} w={window}");
                assert_eq!(r2.chunks_sent, 7 - k, "k={k} w={window}");
                assert_eq!(r2.chunks_resent, 0, "fresh session: no lifetime re-sends");
                assert_eq!(resumed.finalize().unwrap(), &m);
            }
        }
    }

    #[test]
    fn checksum_mismatch_marks_failed_and_resend_recovers() {
        let m = manifest(2);
        let mut s = TransferSession::new(m.clone(), 2);
        assert_eq!(s.begin(0), Ok(1));
        let bogus = Digest([0xAB; 16]);
        assert_eq!(
            s.verify(0, bogus),
            Err(TransferError::ChecksumMismatch { index: 0 })
        );
        assert_eq!(s.state(0), Some(ChunkState::Failed));
        // The corrupted chunk re-enters the window and verifies cleanly.
        assert_eq!(s.begin(0), Ok(2));
        assert_eq!(s.verify(0, m.chunk_digests[0]), Ok(false));
        assert_eq!(s.begin(1), Ok(1));
        assert_eq!(s.verify(1, m.chunk_digests[1]), Ok(true));
        assert!(s.is_complete());
    }

    #[test]
    fn engine_retries_corrupted_arrivals() {
        let m = manifest(3);
        let mut s = TransferSession::new(m.clone(), 3);
        let mut fair = |_c: u64, _s: u32, _t: u64| ChunkFate::Deliver { ack_after_ms: 0 };
        // First arrival of chunk 1 is corrupted on the wire (digest_of is
        // Fn, so the one-shot corruption lives in a Cell).
        let flipped = std::cell::Cell::new(false);
        let digest_of = |i: u64| {
            if i == 1 && !flipped.replace(true) {
                Digest([0u8; 16])
            } else {
                m.chunk_digests[i as usize]
            }
        };
        let r = run_transfer_attempt(&mut s, &mut fair, digest_of, &TransferConfig::default(), 0);
        assert!(s.is_complete());
        assert_eq!(r.checksum_failures, 1);
        assert_eq!(r.chunks_resent, 1, "the corrupted chunk went twice");
    }

    #[test]
    fn window_bounds_in_flight_and_protocol_errors_are_typed() {
        let m = manifest(4);
        let mut s = TransferSession::new(m.clone(), 2);
        assert_eq!(s.begin(0), Ok(1));
        assert_eq!(s.begin(1), Ok(1));
        assert_eq!(s.begin(2), Err(TransferError::WindowFull { window: 2 }));
        assert_eq!(
            s.begin(0),
            Err(TransferError::NotSendable {
                index: 0,
                state: ChunkState::InFlight
            })
        );
        assert_eq!(
            s.begin(99),
            Err(TransferError::OutOfRange {
                index: 99,
                chunks: 4
            })
        );
        assert_eq!(
            s.verify(2, m.chunk_digests[2]),
            Err(TransferError::NotInFlight {
                index: 2,
                state: ChunkState::Pending
            })
        );
        assert_eq!(
            s.finalize(),
            Err(TransferError::Incomplete {
                verified: 0,
                chunks: 4
            })
        );
        // Errors render for operators.
        assert!(TransferError::WindowFull { window: 2 }
            .to_string()
            .contains("window"));
    }

    #[test]
    fn dedup_skip_counts_bytes_once_and_rejects_in_flight() {
        let m = manifest(3);
        let mut s = TransferSession::new(m.clone(), 3);
        s.skip_verified(1).unwrap();
        assert_eq!(s.bytes_verified(), m.chunk_size(1));
        assert_eq!(
            s.skip_verified(1),
            Err(TransferError::NotSendable {
                index: 1,
                state: ChunkState::Verified
            })
        );
        assert_eq!(s.begin(0), Ok(1));
        assert_eq!(
            s.skip_verified(0),
            Err(TransferError::NotSendable {
                index: 0,
                state: ChunkState::InFlight
            })
        );
        assert_eq!(s.missing(), vec![0, 2]);
    }

    #[test]
    fn restart_discards_progress_but_keeps_send_ordinals() {
        let m = manifest(3);
        let mut s = TransferSession::new(m.clone(), 3);
        for i in 0..2 {
            assert_eq!(s.begin(i), Ok(1));
            s.verify(i, m.chunk_digests[i as usize]).unwrap();
        }
        assert_eq!(s.begin(2), Ok(1));
        s.fail(2).unwrap();
        assert_eq!(s.begin(2), Ok(2));
        s.restart();
        assert!((0..3).all(|i| s.state(i) == Some(ChunkState::Pending)));
        assert_eq!(
            (s.verified_count(), s.bytes_verified(), s.in_flight()),
            (0, 0, 0)
        );
        assert_eq!((s.send_count(0), s.send_count(2)), (1, 2));
        // The next sends take fresh ordinals, never the spent ones.
        assert_eq!(s.begin(0), Ok(2));
        assert_eq!(s.begin(2), Ok(3));
    }

    #[test]
    fn attempts_are_deterministic_across_runs() {
        let m = manifest(9);
        let cfg = TransferConfig::default();
        let run = || {
            let mut s = TransferSession::new(m.clone(), 4);
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
            let r = run_transfer_attempt(&mut s, &mut chan, true_digests(&m), &cfg, 1000);
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
            let mut s = TransferSession::new(m.clone(), 8);
            let mut fair = |_c: u64, _s: u32, _t: u64| ChunkFate::Deliver { ack_after_ms: 0 };
            let r = run_transfer_attempt(
                &mut s,
                &mut fair,
                true_digests(&m),
                &TransferConfig::default(),
                0,
            );
            assert!(s.is_complete(), "size {size}");
            assert_eq!(r.chunks_sent, 1);
            assert_eq!(r.bytes_sent, m.size);
        }
    }

    #[test]
    fn transfer_stats_merge_law_is_field_wise_sum() {
        // Merge law for the TransferStats shard monoid: order-free,
        // identity-preserving.
        let a = TransferStats {
            sessions: 3,
            resumed_sessions: 1,
            chunks_sent: 40,
            chunks_resent: 5,
            chunks_deduped: 2,
            resume_saved_bytes: 1 << 20,
        };
        let b = TransferStats {
            sessions: 2,
            resumed_sessions: 2,
            chunks_sent: 10,
            chunks_resent: 1,
            chunks_deduped: 0,
            resume_saved_bytes: 512,
        };
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "merge commutes");
        assert_eq!(ab.chunks_sent, 50);
        let mut id = a;
        id.merge(&TransferStats::default());
        assert_eq!(id, a, "default is the identity");
    }
}
