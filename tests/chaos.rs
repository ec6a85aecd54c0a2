//! Chaos integration: faulted replays must be bit-identical across runs
//! and trace-generation thread counts, degrade gracefully under an
//! aggressive outage plan, leave a service whose garbage collection frees
//! no chunk a live file needs, and collapse to the fair-weather replay
//! when the plan is empty. Never a panic.

use mcs::faults::{FaultPlan, FaultPlanConfig, RetryPolicy};
use mcs::net::ProfileMix;
use mcs::storage::{replay, ReplayConfig};
use mcs::trace::{TraceConfig, TraceGenerator};

fn gen_with_threads(threads: usize) -> TraceGenerator {
    TraceGenerator::new(TraceConfig {
        mobile_users: 250,
        pc_only_users: 60,
        threads,
        ..TraceConfig::default()
    })
    .unwrap()
}

/// A rough week: repeated front-end outages and brownouts, flaky chunk
/// transfers, periodic metadata unavailability.
fn rough_plan(gen: &TraceGenerator) -> FaultPlan {
    FaultPlan::generate(&FaultPlanConfig {
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
    .unwrap()
}

#[test]
fn faulted_replay_is_bit_identical_across_runs_and_thread_counts() {
    let g1 = gen_with_threads(1);
    let g7 = gen_with_threads(7);
    let plan = rough_plan(&g1);
    let retry = RetryPolicy { max_attempts: 2 };
    let cfg = ReplayConfig::default();
    let (_, a, _) = replay(&g1, &cfg, &plan, retry).unwrap();
    let (_, b, _) = replay(&g1, &cfg, &plan, retry).unwrap();
    let (_, c, _) = replay(&g7, &cfg, &plan, retry).unwrap();
    assert_eq!(a, b, "same seed, same run → same stats");
    assert_eq!(
        a, c,
        "trace-generation thread count must not leak into faulted replays"
    );
}

#[test]
fn faulted_metric_snapshots_are_bit_identical_across_thread_counts() {
    let retry = RetryPolicy { max_attempts: 2 };
    let faulted = ReplayConfig::default();
    // Fair weather with the network pass on a front-end link slow enough
    // that flows contend: the manifest hand-over, the plan-order dispatch
    // loop and the fair-share pass, byte for byte.
    let fair = ReplayConfig {
        profiles: Some(ProfileMix::mobile()),
        frontend_link_bps: 2_000_000,
        ..ReplayConfig::default()
    };
    let inputs = [
        (faulted, rough_plan(&gen_with_threads(1))),
        (fair, FaultPlan::none(fair.frontends)),
    ];
    for (cfg, plan) in &inputs {
        let (_, base_stats, base_snap) = replay(&gen_with_threads(1), cfg, plan, retry).unwrap();
        let base_json = base_snap.to_json();
        assert_eq!(base_snap.counters["replay.stores"], base_stats.stores);
        // The replay dispatches every planned operation exactly once and
        // counts it against its user's front-end, so the per-front-end
        // counters partition the total.
        let sim_steps = base_snap.counters["sim.steps"];
        assert_eq!(
            sim_steps,
            base_stats.stores + base_stats.failed_stores + base_stats.retrieves,
            "one sim event per planned operation"
        );
        let per_component: u64 = base_snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("sim.events."))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(
            per_component, sim_steps,
            "per-component event counts must partition sim.steps"
        );
        assert_eq!(
            base_snap.counters["storage.backoff_ms"] > 0,
            base_stats.retries > 0,
            "backed-off retries must book their delay"
        );
        assert_eq!(
            cfg.profiles.is_some(),
            base_snap.counters.contains_key("net.profile.recomputes"),
            "the network pass runs exactly when profiles are set"
        );
        for threads in [2usize, 7] {
            let (_, stats, snap) = replay(&gen_with_threads(threads), cfg, plan, retry).unwrap();
            assert_eq!(stats, base_stats, "threads = {threads}");
            assert_eq!(
                snap.to_json(),
                base_json,
                "metric snapshot must be byte-identical at {threads} threads"
            );
        }
    }
}

#[test]
fn outage_plan_degrades_gracefully_without_panicking() {
    let gen = gen_with_threads(0);
    let plan = rough_plan(&gen);
    let retry = RetryPolicy { max_attempts: 2 };
    let (_, s, _) = replay(&gen, &ReplayConfig::default(), &plan, retry).unwrap();
    let avail = s.availability();
    assert!(
        avail > 0.1 && avail < 1.0,
        "availability should degrade, not vanish: {avail}"
    );
    assert!(s.retries > 0, "the service must have fought back");
    assert!(s.failovers > 0, "outages must have redirected uploads");
    assert!(s.chunk_timeouts > 0, "brownouts must have cost transfers");
    assert!(
        s.failed_stores + s.failed_retrieves > 0,
        "a plan this rough must defeat some operations"
    );
    assert!(s.retry_bytes > 0, "failed attempts still moved bytes");
}

#[test]
fn resumable_replay_snapshots_identical_across_thread_counts() {
    // The resumable chunk-transfer protocol must actually resume under a
    // rough plan, and everything it adds — engine scheduling, chunk-store
    // dedup, resume accounting — must stay bit-identical across runs and
    // trace-generation thread counts.
    let plan = rough_plan(&gen_with_threads(1));
    let retry = RetryPolicy { max_attempts: 2 };
    let cfg = ReplayConfig::default();
    let (_, base_stats, base_snap) = replay(&gen_with_threads(1), &cfg, &plan, retry).unwrap();
    assert!(base_stats.resumed_transfers > 0, "{base_stats:?}");
    assert!(base_stats.resume_saved_bytes > 0, "{base_stats:?}");
    assert_eq!(
        base_snap.counters["transfer.resumed_sessions"],
        base_stats.resumed_transfers
    );
    assert_eq!(
        base_snap.counters["transfer.resume_saved_bytes"],
        base_stats.resume_saved_bytes
    );
    let base_json = base_snap.to_json();
    for threads in [2usize, 4] {
        let (_, stats, snap) = replay(&gen_with_threads(threads), &cfg, &plan, retry).unwrap();
        assert_eq!(stats, base_stats, "threads = {threads}");
        assert_eq!(
            snap.to_json(),
            base_json,
            "resumed replay snapshot must be byte-identical at {threads} threads"
        );
    }
}

#[test]
fn gc_after_faulted_replay_keeps_every_live_file_whole() {
    // A rough week leaves chunks on the front-ends that no finished file
    // accounts for alone: partials of failed stores, resumed uploads,
    // failover leftovers. Deleting half of every namespace and collecting
    // garbage must free only what no live file needs, in either mode.
    let gen = gen_with_threads(0);
    let plan = rough_plan(&gen);
    let retry = RetryPolicy { max_attempts: 2 };
    for resumable in [true, false] {
        let cfg = ReplayConfig {
            resumable,
            ..ReplayConfig::default()
        };
        let (mut svc, _, _) = replay(&gen, &cfg, &plan, retry).unwrap();
        let mut kept = Vec::new();
        for user in gen.users() {
            let listing = svc.metadata().list(user.user_id);
            for (k, (path, _)) in listing.into_iter().enumerate() {
                if k % 2 == 0 {
                    assert!(svc.delete(user.user_id, &path));
                } else {
                    kept.push((user.user_id, path));
                }
            }
        }
        assert!(svc.collect_garbage() > 0, "resumable = {resumable}");
        svc.clear_fault_plan();
        for (user, path) in &kept {
            assert!(svc.retrieve(*user, path, 0).is_ok(), "{user} {path}");
        }
        assert!(
            svc.frontends().iter().all(|f| f.missing_gets == 0),
            "resumable = {resumable}: GC freed a chunk a live file needs"
        );
    }
}

#[test]
fn none_plan_resumable_and_whole_file_replays_collapse_to_fair_weather() {
    // The service never installs an empty plan, so under FaultPlan::none
    // neither retry mode can book anything — not even a transfer session.
    let gen = gen_with_threads(0);
    let cfg = ReplayConfig::default(); // resumable protocol
    let none = FaultPlan::none(cfg.frontends);
    let (_, fair, fair_snap) = replay(&gen, &cfg, &none, RetryPolicy::default()).unwrap();
    assert_eq!(fair_snap.counters["transfer.sessions"], 0);
    assert_eq!(fair.resumed_transfers, 0);
    assert_eq!(fair.resume_saved_bytes, 0);
    for resumable in [true, false] {
        let mode_cfg = ReplayConfig { resumable, ..cfg };
        let (_, stats, snap) = replay(&gen, &mode_cfg, &none, RetryPolicy::default()).unwrap();
        assert_eq!(fair, stats, "resumable = {resumable}");
        assert_eq!(
            fair_snap.to_json(),
            snap.to_json(),
            "resumable = {resumable}: the snapshot must match fair weather too"
        );
    }
    assert_eq!(fair.availability(), 1.0);
    assert_eq!(fair.failed_stores + fair.failed_retrieves, 0);
}
