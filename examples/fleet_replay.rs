//! A week in the life of the fleet, replayed through the storage service.
//!
//! Generates a week-long trace, replays it through the storage substrate in
//! fair weather and under a rough fault plan, and repeats the whole exercise
//! at a different trace-generation thread count — then proves every metric
//! snapshot, including the per-front-end `sim.*` counts of dispatched ops,
//! is byte-identical across runs and thread counts. This is the determinism
//! contract (DESIGN.md §7, §10) exercised end to end: the replay dispatches
//! every operation one after another in one seeded order (plan order in
//! fair weather, trace-time order under the plan), so there is nothing
//! left to race.
//!
//! ```text
//! cargo run --release --example fleet_replay            # CI-sized fleet
//! cargo run --release --example fleet_replay -- --full  # ~1.15 M users, as measured in the paper
//! ```

use mcs::faults::{FaultPlan, FaultPlanConfig, RetryPolicy};
use mcs::storage::{replay, ReplayConfig};
use mcs::trace::{TraceConfig, TraceGenerator};

fn fleet_config(full: bool, threads: usize) -> TraceConfig {
    // The paper's population is ~1.15 M active users over the measured
    // week; the default keeps CI fast while exercising the same code.
    let (mobile, pc) = if full {
        (1_000_000, 150_000)
    } else {
        (1_200, 280)
    };
    TraceConfig {
        mobile_users: mobile,
        pc_only_users: pc,
        threads,
        ..TraceConfig::default()
    }
}

/// A plausible rough week: a handful of front-end outages and brownouts,
/// occasional metadata unavailability, flaky chunk transfers.
fn rough_plan(gen: &TraceGenerator) -> FaultPlan {
    FaultPlan::generate(&FaultPlanConfig {
        seed: 2016,
        horizon_ms: gen.config().horizon_ms(),
        frontend_outages_per_day: 2.0,
        frontend_outage_mean_ms: 10.0 * 60_000.0,
        frontend_brownouts_per_day: 4.0,
        frontend_brownout_mean_ms: 20.0 * 60_000.0,
        chunk_timeout_prob: 0.25,
        metadata_outages_per_day: 1.0,
        metadata_outage_mean_ms: 5.0 * 60_000.0,
        ..FaultPlanConfig::default()
    })
    .expect("valid fault plan config")
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let replay_cfg = ReplayConfig::default();
    let retry = RetryPolicy { max_attempts: 3 };
    let fair_weather = FaultPlan::none(replay_cfg.frontends);

    let mut fair_json: Option<String> = None;
    let mut faulted_json: Option<String> = None;
    let mut shown = false;
    for threads in [1usize, 4] {
        let gen = TraceGenerator::new(fleet_config(full, threads)).expect("valid trace config");
        let plan = rough_plan(&gen);
        for run in 0..2 {
            let (_, fair_stats, fair_snap) =
                replay(&gen, &replay_cfg, &fair_weather, retry).expect("valid replay config");
            let (_, f_stats, f_snap) =
                replay(&gen, &replay_cfg, &plan, retry).expect("valid replay config");

            if !shown {
                shown = true;
                println!(
                    "fleet: {} mobile + {} pc-only users, {} days\n",
                    gen.config().mobile_users,
                    gen.config().pc_only_users,
                    gen.config().horizon_days,
                );
                println!(
                    "fair weather: {} stores, {} retrieves, availability {:.4}",
                    fair_stats.stores,
                    fair_stats.retrieves,
                    fair_stats.availability(),
                );
                println!(
                    "rough week:   {} stores, {} retrieves, availability {:.4}, {} retries\n",
                    f_stats.stores,
                    f_stats.retrieves,
                    f_stats.availability(),
                    f_stats.retries,
                );
                println!("per-component timeline (faulted replay):");
                for line in f_snap.to_table().lines() {
                    if line.contains("sim.") {
                        println!("  {line}");
                    }
                }
                println!();
            }

            let fj = fair_snap.to_json();
            let pj = f_snap.to_json();
            match (&fair_json, &faulted_json) {
                (None, None) => {
                    fair_json = Some(fj);
                    faulted_json = Some(pj);
                }
                (Some(a), Some(b)) => {
                    assert_eq!(
                        a, &fj,
                        "fair-weather snapshot diverged (threads={threads}, run={run})"
                    );
                    assert_eq!(
                        b, &pj,
                        "faulted snapshot diverged (threads={threads}, run={run})"
                    );
                }
                _ => unreachable!("both baselines are set together"),
            }
        }
    }
    println!(
        "snapshots byte-identical across 2 runs x 2 thread counts \
         ({} bytes fair, {} bytes faulted) -- one timeline, zero races",
        fair_json.map(|s| s.len()).unwrap_or(0),
        faulted_json.map(|s| s.len()).unwrap_or(0),
    );
}
