//! Integration: replay the synthetic workload through the storage-service
//! substrate and check the §2.1 invariants hold under trace-scale load.

use mcs::storage::{Content, FileManifest, StorageService};
use mcs::trace::{Direction, TraceConfig, TraceGenerator};

/// Replays every planned session of a small trace into the service;
/// returns it with the counts of stored, retrieved and deduplicated files.
fn replay(seed: u64) -> (StorageService, u64, u64, u64) {
    let gen = TraceGenerator::new(TraceConfig {
        seed,
        mobile_users: 400,
        pc_only_users: 100,
        ..TraceConfig::default()
    })
    .unwrap();
    let horizon_hours = (gen.config().horizon_ms() / 3_600_000) as usize;
    let mut svc = StorageService::new(8, horizon_hours).expect("valid config");
    let mut stored_files = 0u64;
    let mut retrieved_files = 0u64;
    let mut deduped_files = 0u64;
    let mut file_seq = 0u64;
    for user in gen.users() {
        let mut owned: Vec<String> = Vec::new();
        for session in gen.user_sessions(user) {
            for f in &session.files {
                match f.direction {
                    Direction::Store => {
                        file_seq += 1;
                        let name = format!("f{file_seq}");
                        // ~3 % of uploads are duplicates of popular content
                        // (the same meme forwarded around).
                        let content = if file_seq.is_multiple_of(33) {
                            Content::Synthetic {
                                seed: 1,
                                size: 2_000_000,
                            }
                        } else {
                            Content::Synthetic {
                                seed: 1000 + file_seq,
                                size: f.size.max(1),
                            }
                        };
                        let out = svc
                            .store(
                                user.user_id,
                                FileManifest::build(&name, &content),
                                session.start_ms,
                            )
                            .expect("fair weather never fails a store");
                        deduped_files += u64::from(out.deduplicated);
                        owned.push(name);
                        stored_files += 1;
                    }
                    Direction::Retrieve => {
                        if let Some(name) = owned.last() {
                            let got = svc
                                .retrieve(user.user_id, name, session.start_ms)
                                .expect("own file must resolve");
                            assert!(got.bytes_downloaded > 0);
                            retrieved_files += 1;
                        }
                    }
                }
            }
        }
    }
    (svc, stored_files, retrieved_files, deduped_files)
}

#[test]
fn replayed_trace_respects_service_invariants() {
    let (svc, stored, _retrieved, deduped) = replay(23);
    assert!(stored > 1000, "replay too small: {stored}");

    // Dedup fired for every repeat of the popular content (every 33rd
    // store; the first one uploads) and for nothing else.
    assert_eq!(deduped, stored / 33 - 1);

    // No retrieval ever hit a missing chunk (routing is consistent).
    assert!(svc.frontends().iter().all(|f| f.missing_gets == 0));

    // Unique storage is below the sum of uploads (dedup) but nonzero.
    let unique: u64 = svc.stored_bytes();
    assert!(unique > 0);

    // Load spread over multiple front-ends.
    let active = svc
        .frontends()
        .iter()
        .filter(|f| f.distinct_chunks() > 0)
        .count();
    assert!(active >= 6, "only {active} front-ends used");
}

#[test]
fn frontend_load_shows_diurnal_pattern() {
    let (svc, _, _, _) = replay(29);
    // Aggregate upload load per hour-of-day across the fleet.
    let mut per_hod = [0.0f64; 24];
    for fe in svc.frontends() {
        for (h, &v) in fe.upload_load.iter().enumerate() {
            per_hod[h % 24] += v;
        }
    }
    // Heavy-tailed file sizes make the single busiest hour noisy at this
    // population, so compare windows rather than the volume argmax: the
    // evening block must carry well over the overnight block (Fig. 1's
    // diurnal shape), and the peak hour must still dwarf the trough.
    let evening: f64 = (18..24).map(|h| per_hod[h]).sum();
    let overnight: f64 = (0..6).map(|h| per_hod[h]).sum();
    assert!(
        evening > 2.0 * overnight.max(1.0),
        "no evening bias: evening {evening} overnight {overnight}"
    );
    let peak_hod = (0..24)
        .max_by(|&a, &b| per_hod[a].total_cmp(&per_hod[b]))
        .unwrap();
    let trough_hod = (0..24)
        .min_by(|&a, &b| per_hod[a].total_cmp(&per_hod[b]))
        .unwrap();
    assert!(
        per_hod[peak_hod] > 3.0 * per_hod[trough_hod].max(1.0),
        "no diurnal contrast: peak {} trough {}",
        per_hod[peak_hod],
        per_hod[trough_hod]
    );
}

#[test]
fn replay_is_deterministic() {
    let (a, sa, ra, da) = replay(31);
    let (b, sb, rb, db) = replay(31);
    assert_eq!((sa, ra, da), (sb, rb, db));
    assert_eq!(a.stored_bytes(), b.stored_bytes());
}
