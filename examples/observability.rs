//! Observability tour: every stage of the reproduction reports into one
//! deterministic metric registry, and the result is *provably* free of
//! execution noise — snapshots are byte-identical across runs and across
//! thread counts.
//!
//! The pattern (DESIGN.md §9): each parallel worker fills a private
//! [`mcs::obs::Registry`]; registries merge by metric name in ascending
//! shard order; only workload-derived values are booked, so the merged
//! snapshot is a pure function of the inputs. The registry is the one
//! record of a run: how the work was split across workers shows in no
//! metric.
//!
//! Run with `cargo run --release --example observability`.

use std::path::Path;

use mcs::analysis::{analyze, FullAnalysis, PipelineConfig, ShardFiles};
use mcs::faults::{FaultPlan, FaultPlanConfig, RetryPolicy};
use mcs::obs::Registry;
use mcs::storage::{replay, ReplayConfig};
use mcs::trace::{ErrorBudget, ShardedTrace, TraceConfig, TraceFormat, TraceGenerator};

/// Shard files each generation writes.
const SHARDS: usize = 4;

/// Writes `gen`'s trace as shard files under `dir` and analyses the files,
/// booking `gen.*`, `ingest.*` and `pipeline.*` into one registry.
fn generate_and_analyze(
    gen: &TraceGenerator,
    dir: &Path,
    pcfg: &PipelineConfig,
) -> (ShardedTrace, FullAnalysis, Registry) {
    let mut metrics = Registry::new();
    let sharded = gen
        .write_shards_observed(dir, TraceFormat::Columnar, SHARDS, &mut metrics)
        .expect("shard write failed");
    let src = ShardFiles {
        paths: &sharded.paths,
        format: TraceFormat::Columnar,
        budget: ErrorBudget::default(),
    };
    let (analysis, _) = analyze(&src, pcfg, &mut metrics).expect("clean shards analyse");
    (sharded, analysis, metrics)
}

fn main() {
    // 1. Observed trace generation: gen.* metrics from sharded workers,
    //    each streaming its users into one shard file.
    // 2. Observed analysis of those files into the same registry: ingest.*
    //    and pipeline.* metrics ride alongside gen.*.
    let cfg = TraceConfig {
        seed: 7,
        mobile_users: 400,
        pc_only_users: 100,
        ..TraceConfig::default()
    };
    let gen = TraceGenerator::new(cfg.clone()).expect("valid trace config");
    let dir = std::env::temp_dir().join("mcs-observability");
    let (sharded, analysis, metrics) = generate_and_analyze(&gen, &dir, &PipelineConfig::default());
    println!(
        "generated {} users into {} shard files, analysed {} records -> {} sessions",
        gen.users().len(),
        sharded.paths.len(),
        analysis.total_records,
        analysis.total_sessions
    );

    // 3. The determinism claim, made executable: rerun generation and
    //    analysis at several fixed thread counts — the metric snapshots
    //    must be byte-for-byte identical, even though the work is split
    //    differently each time.
    let baseline = metrics.snapshot();
    for threads in [1usize, 2, 3, 8] {
        let mut tcfg = cfg.clone();
        tcfg.threads = threads;
        let g = TraceGenerator::new(tcfg).expect("valid trace config");
        let pcfg = PipelineConfig {
            threads,
            ..PipelineConfig::default()
        };
        let (_, a, run) = generate_and_analyze(&g, &dir, &pcfg);
        assert_eq!(a, analysis, "analysis must be thread-count invariant");
        assert_eq!(
            run.snapshot().to_json(),
            baseline.to_json(),
            "metric snapshots must be byte-identical at {threads} threads"
        );
        println!("threads = {threads}: snapshot identical");
    }
    let _ = std::fs::remove_dir_all(&dir);

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
