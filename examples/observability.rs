//! Observability tour: every stage of the reproduction reports into one
//! deterministic metric registry, and the result is *provably* free of
//! execution noise — snapshots are byte-identical across runs and across
//! thread counts.
//!
//! The pattern (DESIGN.md §9): each parallel worker fills a private
//! [`mcs::obs::Registry`]; registries merge by metric name in ascending
//! shard order; only workload-derived values are booked, so the merged
//! snapshot is a pure function of the inputs. Execution-shaped
//! diagnostics (records per shard, merge fan-in) live in the
//! [`mcs::obs::Tracer`] on logical time instead, where they describe one
//! particular run without contaminating the metrics.
//!
//! Run with `cargo run --release --example observability`.

use mcs::analysis::{analyze, PipelineConfig};
use mcs::faults::{FaultPlan, FaultPlanConfig, RetryPolicy};
use mcs::obs::Obs;
use mcs::storage::{replay, ReplayConfig};
use mcs::trace::{TraceConfig, TraceGenerator};

fn main() {
    // 1. Observed trace generation: gen.* metrics from sharded workers.
    let cfg = TraceConfig {
        seed: 7,
        mobile_users: 400,
        pc_only_users: 100,
        ..TraceConfig::default()
    };
    let gen = TraceGenerator::new(cfg.clone()).expect("valid trace config");
    let mut obs = Obs::new();
    let blocks = gen.par_user_records(&mut obs);

    // 2. Observed analysis over the same obs bundle: ingest.* and
    //    pipeline.* metrics ride alongside gen.*.
    let pipeline_cfg = PipelineConfig::default();
    let Ok((analysis, _)) = analyze(&gen, &pipeline_cfg, &mut obs);
    println!(
        "generated {} user blocks, analysed {} records -> {} sessions",
        blocks.len(),
        analysis.total_records,
        analysis.total_sessions
    );

    // 3. The determinism claim, made executable: rerun generation and
    //    analysis at several fixed thread counts — the metric snapshots
    //    must be byte-for-byte identical, even though the sharding (and
    //    the trace events describing it) differ.
    let baseline = obs.snapshot();
    for threads in [1usize, 2, 3, 8] {
        let mut tcfg = cfg.clone();
        tcfg.threads = threads;
        let g = TraceGenerator::new(tcfg).expect("valid trace config");
        let mut run = Obs::new();
        let _ = g.par_user_records(&mut run);
        let pcfg = PipelineConfig {
            threads,
            ..PipelineConfig::default()
        };
        let Ok((a, _)) = analyze(&g, &pcfg, &mut run);
        assert_eq!(a, analysis, "analysis must be thread-count invariant");
        assert_eq!(
            run.snapshot().to_json(),
            baseline.to_json(),
            "metric snapshots must be byte-identical at {threads} threads"
        );
        println!(
            "threads = {threads}: snapshot identical ({} trace events this run)",
            run.trace.events().len()
        );
    }

    // 4. A faulted storage replay contributes replay.* and storage.*
    //    resilience counters through the same machinery.
    let plan = FaultPlan::generate(&FaultPlanConfig {
        seed: 11,
        horizon_ms: gen.config().horizon_ms(),
        frontend_outages_per_day: 12.0,
        frontend_outage_mean_ms: 20.0 * 60_000.0,
        ..FaultPlanConfig::default()
    })
    .expect("valid fault plan config");
    let (_, stats, replay_snap) = replay(
        &gen,
        &ReplayConfig::default(),
        &plan,
        RetryPolicy::default(),
    )
    .expect("valid replay config");
    assert_eq!(replay_snap.counters["replay.stores"], stats.stores);
    assert_eq!(replay_snap.counters["storage.retries"], stats.retries);

    // 5. Exporters: a stable-ordered table for humans, stable JSON for
    //    machines. Both orderings are BTreeMap-backed name order, never
    //    insertion or hash order.
    println!("\n-- pipeline metrics --\n{}", baseline.to_table());
    println!("-- replay metrics --\n{}", replay_snap.to_table());
    println!("json: {}", replay_snap.to_json());
    println!("observability tour: all assertions held");
}
