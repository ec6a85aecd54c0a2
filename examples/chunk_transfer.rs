//! The resumable chunk-transfer protocol (`mcs-storage::transfer`) as a
//! runnable tour: a 10 MB file moves as twenty 512 KB chunks (§2.1) over
//! channels of worsening weather — fair, latency-skewed, lossy, and one
//! that dies mid-transfer — and the session resumes from its verified
//! set instead of byte zero. The final section shows the dedup-aware
//! half: chunks the target already holds are skipped outright.
//!
//! Every section asserts its invariants, so this doubles as a CI smoke
//! test (`scripts/ci.sh` runs it).
//!
//! ```text
//! cargo run --release --example chunk_transfer
//! ```

use std::collections::BTreeSet;

use mcs::render::bytes;
use mcs::storage::{
    run_transfer_attempt, ChunkFate, Content, FileManifest, Stall, TransferSession,
};

fn main() {
    let content = Content::Synthetic {
        seed: 77,
        size: 10 << 20,
    };
    let m = FileManifest::build("tour/video.mp4", &content);
    let max_chunk_sends = 4;
    let window = 8;
    let chunks = m.chunk_count();
    println!(
        "transferring {} as {} x 512 KB chunks (window {}, {} sends/chunk per attempt)\n",
        bytes(m.size as f64),
        chunks,
        window,
        max_chunk_sends,
    );

    // --- 1. Fair weather: every chunk delivers, acks are instant. --------
    let mut s = TransferSession::new(&m, window);
    let mut fair = |_c: u64, _s: u32, _t: u64| ChunkFate::Deliver { ack_after_ms: 0 };
    let r = run_transfer_attempt(&mut s, &mut fair, max_chunk_sends, 0);
    assert!(s.is_complete() && r.stall.is_none());
    assert_eq!(r.chunks_sent, chunks);
    assert_eq!(r.chunks_resent, 0);
    println!(
        "fair weather     {} chunks sent, 0 re-sent, {} moved",
        r.chunks_sent,
        bytes(r.bytes_sent as f64)
    );

    // --- 2. Out-of-order arrival: earlier chunks take longer, so acks ----
    //     land in reverse order; the session completes when the *last*
    //     chunk verifies, whichever index that is.
    let mut s = TransferSession::new(&m, chunks as usize);
    let mut skewed = |c: u64, _s: u32, _t: u64| ChunkFate::Deliver {
        ack_after_ms: (chunks - c) * 10,
    };
    let r = run_transfer_attempt(&mut s, &mut skewed, max_chunk_sends, 0);
    assert!(s.is_complete());
    let order: Vec<u64> = r.verified.iter().map(|&(c, _)| c).collect();
    assert_eq!(order.first(), Some(&(chunks - 1)), "last chunk acks first");
    assert_eq!(order.last(), Some(&0), "chunk 0 completes the session");
    println!(
        "out-of-order     acks landed {:?}.., finalized at t={} ms on chunk 0",
        &order[..4.min(order.len())],
        r.end_ms
    );

    // --- 3. Lossy channel: every third chunk's first send is lost and ----
    //     re-sent after the retransmission timer. The re-sent share is the
    //     retry-inflated traffic the paper's whole-file client multiplies.
    let mut s = TransferSession::new(&m, window);
    let mut lossy = |c: u64, send: u32, _t: u64| {
        if c.is_multiple_of(3) && send == 1 {
            ChunkFate::Timeout {
                detect_after_ms: 40,
            }
        } else {
            ChunkFate::Deliver { ack_after_ms: 5 }
        }
    };
    let r = run_transfer_attempt(&mut s, &mut lossy, max_chunk_sends, 0);
    assert!(s.is_complete());
    assert!(r.timeouts > 0 && r.chunks_resent == r.timeouts);
    println!(
        "lossy channel    {} timeouts, {} re-sent ({} retry-inflated)",
        r.timeouts,
        r.chunks_resent,
        bytes(r.bytes_resent as f64)
    );

    // --- 4. Mid-transfer outage, then resume-from-partial. ---------------
    //     The peer dies after seven acks; the attempt stalls, the verified
    //     set persists, and the resumed session moves only what is missing.
    let mut s = TransferSession::new(&m, window);
    let mut acked = 0u64;
    let mut dying = |_c: u64, _s: u32, _t: u64| {
        if acked < 7 {
            acked += 1;
            ChunkFate::Deliver { ack_after_ms: 1 }
        } else {
            ChunkFate::Down
        }
    };
    let r1 = run_transfer_attempt(&mut s, &mut dying, max_chunk_sends, 0);
    assert!(matches!(r1.stall, Some(Stall::FrontendDown { .. })));
    let saved: BTreeSet<u64> = s.verified_set();
    assert_eq!(saved.len(), 7);
    println!(
        "outage           stalled at t={} ms with {}/{} chunks verified ({})",
        r1.end_ms,
        saved.len(),
        chunks,
        bytes(s.bytes_verified() as f64)
    );

    let mut resumed = TransferSession::resume(&m, &saved, window);
    let r2 = run_transfer_attempt(&mut resumed, &mut fair, max_chunk_sends, 60_000);
    assert!(resumed.is_complete());
    assert_eq!(r2.chunks_sent, chunks - saved.len() as u64);
    assert_eq!(
        resumed.verified_set(),
        (0..chunks).collect(),
        "resumed file is whole"
    );
    assert_eq!(resumed.bytes_verified(), m.size);
    println!(
        "resume           sent only the {} missing chunks; {} never re-moved",
        r2.chunks_sent,
        bytes(s.bytes_verified() as f64)
    );

    // --- 5. Dedup-aware sync: the target front-end's chunk store ---------
    //     already holds the even-indexed chunks (a sibling device uploaded
    //     them), so the session starts with them verified and skips them
    //     without a single send.
    let held: BTreeSet<u64> = (0..chunks).step_by(2).collect();
    let mut deduped = TransferSession::resume(&m, &held, window);
    let skipped = deduped.verified_count();
    let r3 = run_transfer_attempt(&mut deduped, &mut fair, max_chunk_sends, 0);
    assert!(deduped.is_complete());
    assert_eq!(r3.chunks_sent, chunks - skipped);
    println!(
        "dedup-aware      chunk store held {skipped} chunks; sent {} ({} saved)",
        r3.chunks_sent,
        bytes(deduped.bytes_verified() as f64 - r3.bytes_sent as f64)
    );

    println!("\nchunk-transfer tour: all assertions held");
}
