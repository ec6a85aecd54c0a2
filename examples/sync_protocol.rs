//! Sync-protocol evaluation under chaos: the §3.3/Table 4 optimisations
//! (deferred upload, download cache, warm tier) measured over the same
//! trace workload that a seeded fault plan is busy wrecking, with the
//! resumable chunk-transfer protocol head-to-head against whole-file
//! retry on retry-inflated bytes and availability.
//!
//! Everything here is deterministic: the faulted, resumable replay is
//! asserted bit-identical across two runs and two trace-generation
//! thread counts before any number is printed.
//!
//! ```text
//! cargo run --release --example sync_protocol
//! ```

use mcs::faults::{FaultPlan, FaultPlanConfig, RetryPolicy};
use mcs::render::{bytes, pct};
use mcs::stats::rng::{stream_rng, Rng, Zipf};
use mcs::storage::{
    evaluate_deferral, replay, DeferPolicy, LruCache, ReplayConfig, TierPolicy, TieredStore,
    UploadJob,
};
use mcs::trace::{Direction, TraceConfig, TraceGenerator};

fn gen_with_threads(threads: usize) -> TraceGenerator {
    TraceGenerator::new(TraceConfig {
        mobile_users: 250,
        pc_only_users: 60,
        threads,
        ..TraceConfig::default()
    })
    .expect("valid trace config")
}

fn main() {
    let gen = gen_with_threads(0);
    let plan = FaultPlan::generate(&FaultPlanConfig {
        seed: 4242,
        horizon_ms: gen.config().horizon_ms(),
        frontend_outages_per_day: 24.0,
        frontend_outage_mean_ms: 30.0 * 60_000.0,
        frontend_brownouts_per_day: 24.0,
        frontend_brownout_mean_ms: 60.0 * 60_000.0,
        chunk_timeout_prob: 0.9,
        metadata_outages_per_day: 12.0,
        metadata_outage_mean_ms: 10.0 * 60_000.0,
        ..FaultPlanConfig::default()
    })
    .expect("valid fault plan config");
    let retry = RetryPolicy { max_attempts: 2 };

    // --- Determinism first: the resumable faulted replay must be ---------
    //     bit-identical across runs and trace-generation thread counts.
    let cfg = ReplayConfig::default(); // resumable protocol on
    let (_, resumed, snap) = replay(&gen, &cfg, &plan, retry).expect("valid config");
    for threads in [0usize, 4] {
        let (_, again, snap2) =
            replay(&gen_with_threads(threads), &cfg, &plan, retry).expect("valid config");
        assert_eq!(resumed, again, "threads = {threads}");
        assert_eq!(
            snap.to_json(),
            snap2.to_json(),
            "snapshot must be byte-identical at {threads} threads"
        );
    }

    // --- Whole-file retry vs. chunk-resume under the same plan. ----------
    let whole_cfg = ReplayConfig {
        resumable: false,
        ..cfg
    };
    let (_, whole, _) = replay(&gen, &whole_cfg, &plan, retry).expect("valid config");
    assert_eq!(whole.resumed_transfers, 0, "whole-file mode cannot resume");
    assert!(resumed.resumed_transfers > 0, "chaos must force resumes");
    assert!(resumed.resume_saved_bytes > 0);
    // Same plan, same coins: keeping verified chunks completes at least as
    // many operations and re-sends no more.
    assert!(whole.availability() <= resumed.availability());
    assert!(whole.retry_bytes >= resumed.retry_bytes);
    assert_eq!(
        snap.counters["transfer.resumed_sessions"], resumed.resumed_transfers,
        "stats are a materialised view over the transfer.* counters"
    );
    println!("one rough week, whole-file retry vs. resumable sync protocol:\n");
    println!("  {:<22} {:>14} {:>14}", "", "whole-file", "chunk-resume");
    println!(
        "  {:<22} {:>14} {:>14}",
        "availability",
        pct(whole.availability()),
        pct(resumed.availability())
    );
    println!(
        "  {:<22} {:>14} {:>14}",
        "retry-inflated bytes",
        bytes(whole.retry_bytes as f64),
        bytes(resumed.retry_bytes as f64)
    );
    println!(
        "  {:<22} {:>14} {:>14}",
        "resumed transfers", whole.resumed_transfers, resumed.resumed_transfers
    );
    println!(
        "  {:<22} {:>14} {:>14}",
        "bytes saved by resume",
        bytes(whole.resume_saved_bytes as f64),
        bytes(resumed.resume_saved_bytes as f64)
    );

    // --- §3.3 trio over the same trace workload. -------------------------
    // Deferred upload (§3.2.2): every planned store becomes a backup job;
    // peak-hour submissions move to the trough unless retrieved first.
    let mut rng = stream_rng(7, 0);
    let mut jobs: Vec<UploadJob> = Vec::new();
    for user in gen.users() {
        for session in gen.user_sessions(user) {
            for f in session
                .files
                .iter()
                .filter(|f| f.direction == Direction::Store)
            {
                jobs.push(UploadJob {
                    submitted_ms: session.start_ms,
                    bytes: f.size.max(1),
                    first_retrieval_ms: if rng.random::<f64>() < 0.1 {
                        Some(session.start_ms + 30 * 60_000)
                    } else {
                        None
                    },
                });
            }
        }
    }
    let policy = DeferPolicy::default();
    let horizon_hours = (gen.config().horizon_ms() / 3_600_000) as usize;
    let report = evaluate_deferral(&jobs, &policy, horizon_hours);
    assert!(report.peak_window_reduction(&policy) > 0.0);
    println!(
        "\ndeferred upload   {} jobs, peak-window load cut {}, QoE violations {}",
        jobs.len(),
        pct(report.peak_window_reduction(&policy)),
        pct(report.qoe_violation_rate())
    );

    // Download cache (§3.1.4): popular shared content under the same
    // download volume the replay produced.
    let downloads = resumed.retrieves + resumed.failed_retrieves;
    let zipf = Zipf::new(2_000, 1.0);
    let mut cache = LruCache::new(300 * 1_500_000).expect("valid config");
    let mut rng = stream_rng(8, 0);
    for _ in 0..downloads {
        let id = zipf.sample(&mut rng) as u64;
        cache.request(id, 1_500_000);
    }
    assert!(cache.stats.hit_ratio() > 0.0);
    println!(
        "download cache    {} requests, hit ratio {}, origin offload {}",
        downloads,
        pct(cache.stats.hit_ratio()),
        pct(cache.stats.byte_hit_ratio())
    );

    // Warm tier (Table 4): the stored objects age out of the hot tier;
    // only the retrieved few come back.
    let mut tiers = TieredStore::new(TierPolicy::default());
    for (id, job) in jobs.iter().enumerate() {
        let id = id as u64;
        tiers.put(id, job.bytes, job.submitted_ms);
        if let Some(at) = job.first_retrieval_ms {
            let _ = tiers.read(id, at);
        }
    }
    tiers.demote_all_eligible(gen.config().horizon_ms() + 30 * 86_400_000);
    assert!(tiers.capacity_saving() > 0.0);
    println!(
        "warm tier         {} of objects cold, capacity saving {}",
        pct(tiers.warm_fraction()),
        pct(tiers.capacity_saving())
    );

    println!("\nsync-protocol evaluation: all assertions held");
}
