//! Out-of-core trace tour: the generator streams a sharded trace straight
//! to disk (CSV and columnar `.mct`), and the streaming two-pass analysis
//! reads it back without ever materialising the records — at any thread
//! count, bit-identical to the in-memory pipeline.
//!
//! This is the 349 M-record workflow of the paper at example scale: the
//! only thing that grows with the real trace is the disk files, not this
//! process. perfbench's `trace_ingest` workload times the same pipeline
//! over `.mct` shards, layer by layer.
//!
//! Run with `cargo run --release --example big_trace`.

use mcs::analysis::{analyze, PipelineConfig, ShardFiles};
use mcs::obs::Registry;
use mcs::trace::{ErrorBudget, TraceConfig, TraceFormat, TraceGenerator};

fn main() {
    let cfg = TraceConfig {
        seed: 11,
        mobile_users: 500,
        pc_only_users: 120,
        ..TraceConfig::default()
    };
    let gen = TraceGenerator::new(cfg).expect("valid trace config");

    // Reference: the classic in-memory pipeline over generator blocks.
    let pcfg = PipelineConfig::default();
    let mut ref_metrics = Registry::new();
    let Ok((reference, _)) = analyze(&gen, &pcfg, &mut ref_metrics);
    let ref_json = ref_metrics.snapshot().to_json();
    println!(
        "in-memory reference: {} records / {} users -> {} sessions, tau = {:.0} s",
        reference.total_records,
        reference.total_users,
        reference.total_sessions,
        reference.tau.tau_s
    );

    let dir = std::env::temp_dir().join("mcs-big-trace");
    for format in [TraceFormat::Csv, TraceFormat::Columnar] {
        // 1. Stream the trace to disk as shards: whole users per shard,
        //    ascending user order — the grouping contract the streaming
        //    readers rely on. Writing is itself out-of-core: each user's
        //    records go straight to the file.
        let sub = dir.join(format.extension());
        let sharded = gen
            .write_shards(&sub, format, 6)
            .expect("shard write failed");
        println!(
            "{:>5}: {} shards, {} records, {} bytes ({:.1} B/record)",
            format.extension(),
            sharded.paths.len(),
            sharded.records,
            sharded.bytes,
            sharded.bytes as f64 / sharded.records as f64
        );

        // 2. Stream it back at several thread counts: two passes over the
        //    shard files, holding at most one user's records per worker.
        //    The analysis AND the metric snapshot match the in-memory run
        //    byte for byte.
        let src = ShardFiles {
            paths: &sharded.paths,
            format,
            budget: ErrorBudget::default(),
        };
        for threads in [1, 4] {
            let mut metrics = Registry::new();
            let (streamed, report) =
                analyze(&src, &PipelineConfig { threads, ..pcfg }, &mut metrics)
                    .expect("streamed analysis failed");
            assert_eq!(report.records, sharded.records);
            assert!(report.quarantined.is_empty());
            assert_eq!(
                streamed, reference,
                "streamed analysis must be bit-identical to in-memory at {threads} threads"
            );
            assert_eq!(
                metrics.snapshot().to_json(),
                ref_json,
                "metric snapshot must be byte-identical at {threads} threads"
            );
        }
        println!(
            "{:>5}: streamed == in-memory at 1, 4 threads; snapshot bytes identical",
            format.extension()
        );
        let _ = std::fs::remove_dir_all(&sub);
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!("big_trace: out-of-core ingest verified in both formats");
}
