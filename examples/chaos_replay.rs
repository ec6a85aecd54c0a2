//! Chaos smoke test: the CI gate for the fault-injection subsystem.
//!
//! Three checks, all of which must hold for the determinism contract and
//! the resilience story to be real:
//!
//! 1. the lossy trace readers survive a deliberately corrupted log file,
//!    quarantining the junk lines instead of aborting;
//! 2. a seeded [`FaultPlan`] replay is **bit-identical** across two runs;
//! 3. the outage scenario degrades gracefully — availability drops below
//!    1.0 but failovers and retries keep most of the workload alive, and
//!    nothing panics.
//!
//! Run with `cargo run --release --example chaos_replay`.

use std::path::Path;

use mcs::faults::{FaultPlan, FaultPlanConfig, RetryPolicy};
use mcs::storage::{replay, ReplayConfig};
use mcs::trace::{
    collect_records_lossy, open_trace, ErrorBudget, TraceConfig, TraceFormat, TraceGenerator,
};

fn main() {
    // 1. Lenient ingestion over the corrupted fixture.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/corrupted_trace.csv"
    );
    let stream = open_trace(Path::new(fixture), TraceFormat::Csv).expect("fixture file present");
    let lossy = collect_records_lossy(stream, ErrorBudget::default()).expect("within error budget");
    println!(
        "lossy ingest: {} records kept, {} lines quarantined ({:.0}% error rate)",
        lossy.records.len(),
        lossy.quarantined.len(),
        lossy.error_rate() * 100.0
    );
    for q in &lossy.quarantined {
        println!("  quarantined: {q}");
    }
    assert!(!lossy.records.is_empty(), "good lines must survive");
    assert!(!lossy.quarantined.is_empty(), "fixture is corrupted");
    assert!(lossy.error_rate() < 0.5);

    // 2. A rough week for the service: seeded outage/brownout plan.
    let gen = TraceGenerator::new(TraceConfig {
        mobile_users: 250,
        pc_only_users: 60,
        ..TraceConfig::default()
    })
    .expect("valid trace config");
    let plan = FaultPlan::generate(&FaultPlanConfig {
        seed: 42,
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
    let cfg = ReplayConfig::default();
    let (_, run1, snap1) = replay(&gen, &cfg, &plan, retry).expect("valid config");
    let (_, run2, snap2) = replay(&gen, &cfg, &plan, retry).expect("valid config");
    assert_eq!(run1, run2, "seeded chaos replay must be bit-identical");
    assert_eq!(
        snap1.to_json(),
        snap2.to_json(),
        "metric snapshots must be byte-identical across runs"
    );

    // 3. Graceful degradation, bounded availability.
    let (_, fair, _) =
        replay(&gen, &cfg, &FaultPlan::none(cfg.frontends), retry).expect("valid config");
    let avail = run1.availability();
    println!(
        "chaos replay: availability {:.2}% (fair weather {:.2}%)",
        avail * 100.0,
        fair.availability() * 100.0
    );
    println!(
        "  {} stores ({} failed), {} retrieves ({} failed)",
        run1.stores, run1.failed_stores, run1.retrieves, run1.failed_retrieves
    );
    println!(
        "  {} retries, {} failovers, {} chunk timeouts, {:.1} MB retry-inflated",
        run1.retries,
        run1.failovers,
        run1.chunk_timeouts,
        run1.retry_bytes as f64 / 1e6
    );
    assert_eq!(fair.availability(), 1.0);
    assert!(
        avail > 0.1 && avail < 1.0,
        "availability must degrade without vanishing: {avail}"
    );
    assert!(run1.retries > 0 && run1.failovers > 0);
    assert!(run1.failed_stores + run1.failed_retrieves > 0);

    // 4. The registry-backed metric snapshot agrees with the stats struct
    //    (they are materialised from the same counters) and exports a
    //    stable-ordered table for the CI log.
    assert_eq!(snap1.counters["replay.stores"], run1.stores);
    assert_eq!(snap1.counters["storage.retries"], run1.retries);
    println!("metric snapshot:\n{}", snap1.to_table());
    println!("chaos smoke test: all assertions held");
}
