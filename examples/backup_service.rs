//! Drive the storage-service substrate end-to-end: the §2.1 protocol
//! (metadata round trip, MD5 dedup, chunking), share-URL content
//! distribution, and the Table 4 optimisations (deferred backup, warm
//! tiering, download caching).
//!
//! ```text
//! cargo run --release --example backup_service
//! ```

use mcs::render::{bytes, pct};
use mcs::stats::rng::{stream_rng, Rng, Zipf};
use mcs::storage::{
    evaluate_deferral, Content, DeferPolicy, FileManifest, LruCache, StorageService, TierPolicy,
    TieredStore, UploadJob,
};

fn main() {
    // --- The service itself: store, dedup, retrieve, share. -------------
    let mut svc = StorageService::new(8, 7 * 24).expect("valid config");

    // A user backs up an evening's photos.
    let photos: Vec<(String, Content)> = (0..12)
        .map(|i| {
            (
                format!("2015-08-04/IMG_{i:04}.jpg"),
                Content::Synthetic {
                    seed: 1000 + i,
                    size: 1_500_000,
                },
            )
        })
        .collect();
    // The client sends each file's manifest (§2.1: size, file MD5, one MD5
    // per 512 KB chunk), which `FileManifest::build` computes.
    let mut uploaded = 0;
    for (name, content) in &photos {
        let out = svc
            .store(1, FileManifest::build(name, content), 21 * 3_600_000)
            .expect("fair weather never fails a store");
        assert!(!out.deduplicated, "each photo is new content");
        uploaded += out.bytes_uploaded;
    }
    println!(
        "user 1 backed up {} photos ({})",
        photos.len(),
        bytes(uploaded as f64)
    );

    // Their tablet syncs the same photos: every store deduplicates.
    let copies: Vec<(String, Content)> = photos
        .iter()
        .map(|(name, c)| (format!("tablet/{name}"), c.clone()))
        .collect();
    let (mut deduped, mut saved) = (0, 0);
    for (name, content) in &copies {
        let manifest = FileManifest::build(name, content);
        let size = manifest.size;
        let out = svc
            .store(1, manifest, 22 * 3_600_000)
            .expect("fair weather never fails a store");
        if out.deduplicated {
            deduped += 1;
            saved += size;
        }
    }
    assert_eq!(deduped, copies.len(), "every copy deduplicates");
    println!(
        "tablet sync: {deduped}/{} stores deduplicated, {} saved",
        copies.len(),
        bytes(saved as f64)
    );

    // A popular video shared by URL (the download-only usage pattern).
    let video = Content::Synthetic {
        seed: 7,
        size: 150_000_000,
    };
    svc.store(
        2,
        FileManifest::build("clips/meme.mp4", &video),
        23 * 3_600_000,
    )
    .expect("fair weather never fails a store");
    let url = svc.publish_url(2, "clips/meme.mp4").expect("published");
    for viewer in 100..120 {
        let got = svc
            .retrieve_url(viewer, &url, 24 * 3_600_000)
            .expect("served");
        assert_eq!(got.bytes_downloaded, video.size());
    }
    let own = svc
        .retrieve(2, "clips/meme.mp4", 24 * 3_600_000)
        .expect("the uploader reads it back by path");
    assert_eq!(own.bytes_downloaded, video.size());
    println!(
        "shared video served 20 times; cluster stores {} of unique data",
        bytes(svc.stored_bytes() as f64)
    );

    // --- Smart auto backup (§3.2.2): defer peak-hour uploads. -----------
    let mut rng = stream_rng(42, 0);
    let jobs: Vec<UploadJob> = (0..5000)
        .map(|i| {
            // Most submissions land in the 20-23h peak; few are retrieved.
            let day = i % 6;
            let hour = 20 + (i % 4);
            UploadJob {
                submitted_ms: (day * 24 + hour) * 3_600_000 + (i * 7919) % 3_600_000,
                bytes: 1_500_000 + (rng.random::<f64>() * 3e6) as u64,
                first_retrieval_ms: if rng.random::<f64>() < 0.1 {
                    Some((day * 24 + hour + 30) * 3_600_000)
                } else {
                    None
                },
            }
        })
        .collect();
    let policy = DeferPolicy::default();
    let report = evaluate_deferral(&jobs, &policy, 7 * 24);
    println!(
        "\nsmart auto backup: moved {} of peak-window load into the trough; \
         QoE violations {}",
        pct(report.peak_window_reduction(&policy)),
        pct(report.qoe_violation_rate()),
    );

    // --- f4-style warm tiering (Table 4). --------------------------------
    let mut tiers = TieredStore::new(TierPolicy::default());
    for id in 0..1000u64 {
        tiers.put(id, 1_500_000, (id % 7) * 86_400_000);
        // 15 % of objects get read back two days after upload.
        if id % 7 < 5 && id % 100 < 15 {
            let _ = tiers.read(id, (id % 7) * 86_400_000 + 2 * 86_400_000);
        }
    }
    tiers.demote_all_eligible(12 * 86_400_000);
    println!(
        "warm tiering: {} of objects cold, capacity saving {}",
        pct(tiers.warm_fraction()),
        pct(tiers.capacity_saving()),
    );

    // --- Download cache for popular shared content (§3.1.4). -------------
    let zipf = Zipf::new(2_000, 1.0);
    let mut cache = LruCache::new(300 * 1_500_000).expect("valid config");
    let mut rng = stream_rng(43, 0);
    for _ in 0..20_000 {
        let id = zipf.sample(&mut rng) as u64;
        cache.request(id, 1_500_000);
    }
    println!(
        "front-end cache (15% of catalog): hit ratio {}, origin offload {}",
        pct(cache.stats.hit_ratio()),
        pct(cache.stats.byte_hit_ratio()),
    );
}
