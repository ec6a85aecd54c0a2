//! End-to-end integration: synthetic trace → file round trip → analysis
//! pipeline → paper-shaped findings.

use mcs::analysis::{analyze, PipelineConfig};
use mcs::obs::Registry;
use mcs::trace::{
    LogRecord, ReadError, RecordStream, TraceConfig, TraceFormat, TraceGenerator, TraceWriter,
};

fn small_generator(seed: u64) -> TraceGenerator {
    TraceGenerator::new(TraceConfig {
        seed,
        mobile_users: 1_200,
        pc_only_users: 300,
        ..TraceConfig::default()
    })
    .expect("valid config")
}

/// `records` written and read back in `format`.
fn round_trip(records: &[LogRecord], format: TraceFormat) -> Result<Vec<LogRecord>, ReadError> {
    let mut w = TraceWriter::new(Vec::new(), format).unwrap();
    records.iter().for_each(|r| w.push(r).unwrap());
    let (bytes, _) = w.finish().unwrap();
    RecordStream::new(&bytes[..], format).collect()
}

#[test]
fn trace_survives_file_round_trip_and_analysis_agrees() {
    let gen = small_generator(11);
    let records: Vec<LogRecord> = gen.iter_user_records().flatten().collect();

    assert_eq!(round_trip(&records, TraceFormat::Csv).unwrap(), records);
}

#[test]
fn analysis_recovers_paper_shapes_from_raw_logs() {
    let gen = small_generator(13);
    let Ok((a, _)) = analyze(&gen, &PipelineConfig::default(), &mut Registry::new());

    // §3.1.1 — write-dominated sessions with a τ in the inter-mode gap.
    assert!(a.sessions.store_only_frac() > 0.5);
    assert!(a.sessions.mixed_frac() < 0.1);
    assert!(
        a.tau.tau_s > 30.0 && a.tau.tau_s < 6.0 * 3600.0,
        "tau {}",
        a.tau.tau_s
    );

    // §2.4 — retrieval dominates bytes, storage dominates file counts.
    assert!(a.workload.retrieve_to_store_volume_ratio() > 1.0);
    assert!(a.workload.store_to_retrieve_file_ratio() > 1.5);

    // §3.1.4 — dominant ~1.5 MB store component.
    let m = a
        .filesize_store
        .as_ref()
        .and_then(|f| f.mixture.as_ref())
        .expect("store mixture");
    assert!(
        (m.components[0].mean - 1.5).abs() < 1.0,
        "{:?}",
        m.components
    );

    // §4.1 log side — Android uploads slower; swnd pinned near 64 KB.
    let ratio = a.perf.upload_median_ratio().expect("medians");
    assert!(ratio > 1.5, "upload median ratio {ratio}");
    let mode = a.perf.swnd_mode_bytes();
    assert!((30_000.0..=80_000.0).contains(&mode), "swnd mode {mode}");
}

#[test]
fn analysis_is_deterministic_across_runs() {
    let a1 = {
        let gen = small_generator(17);
        let Ok((a, _)) = analyze(&gen, &PipelineConfig::default(), &mut Registry::new());
        a
    };
    let a2 = {
        let gen = small_generator(17);
        let Ok((a, _)) = analyze(&gen, &PipelineConfig::default(), &mut Registry::new());
        a
    };
    assert_eq!(a1.total_records, a2.total_records);
    assert_eq!(a1.total_sessions, a2.total_sessions);
    assert_eq!(a1.tau.tau_s, a2.tau.tau_s);
    assert_eq!(a1.sessions.store_only_frac(), a2.sessions.store_only_frac());
    assert_eq!(a1.perf.swnd_mode_bytes(), a2.perf.swnd_mode_bytes());
}

#[test]
fn different_seeds_differ() {
    let a: Vec<LogRecord> = small_generator(1).iter_user_records().flatten().collect();
    let b: Vec<LogRecord> = small_generator(2).iter_user_records().flatten().collect();
    assert_ne!(a, b);
}

#[test]
fn pc_only_users_do_not_pollute_mobile_figures() {
    let gen = small_generator(19);
    let Ok((a, _)) = analyze(&gen, &PipelineConfig::default(), &mut Registry::new());
    // Fig. 12/14/15 use mobile chunks only; PC records exist in the trace.
    let has_pc_records = gen
        .iter_user_records()
        .flatten()
        .any(|r| r.device_type == mcs::trace::DeviceType::Pc);
    assert!(has_pc_records, "trace must include PC-client logs");
    // PC users appear in Table 3's PC-only column.
    assert!(a.usage.pc_only.users > 0);
}
