//! The end-to-end analysis pipeline.
//!
//! Mirrors the paper's procedure over a trace it treats as opaque logs:
//!
//! 1. **Pass 1** — collect inter-file-operation intervals and derive the
//!    session threshold τ (§3.1.1, Fig. 3).
//! 2. **Pass 2** — sessionise every user with τ and feed each collector:
//!    session statistics (Figs. 4, 5), file-size models (Fig. 6 / Table 2),
//!    workload series (Fig. 1), usage (Fig. 7 / Table 3), engagement
//!    (Figs. 8, 9), activity models (Fig. 10) and log-side performance
//!    (Figs. 12, 14, 15).
//!
//! The trace is any [`RecordSource`], walked once per pass, so paper-scale
//! shard files stream twice without residing in memory.

use mcs_obs::{CounterId, HistId, Registry};
use mcs_trace::{effective_threads, fan_out, shard_ranges, LogRecord};

use crate::activity_model::{ActivityCollector, ActivityStats};
use crate::engagement::{EngagementCollector, EngagementStats};
use crate::filesize_model::{FileSizeCollector, FileSizeModelFit};
use crate::ingest::{IngestReport, RecordSource};
use crate::perf::{PerfCollector, PerfStats};
use crate::session_stats::{SessionStats, SessionStatsCollector};
use crate::sessionize::{derive_tau, file_op_intervals_s, sessionize, TauDerivation};
use crate::usage::{UsageCollector, UsageStats, UserSummary};
use crate::workload::WorkloadSeries;

/// Cap on points fed to EM fits (deterministic subsampling above it).
const MAX_FIT_POINTS: usize = 60_000;
/// Largest per-session file count binned in Fig. 5b,c.
const MAX_VOLUME_BIN_FILES: u32 = 100;

/// Pipeline tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Trace horizon in seconds (for the hourly workload series).
    pub horizon_secs: u64,
    /// Worker threads for [`analyze`] (`0` = one per available core).
    /// Any value produces bit-identical results; the knob only trades
    /// wall-clock for cores.
    pub threads: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            horizon_secs: 7 * 24 * 3600,
            threads: 0,
        }
    }
}

/// Everything the paper's §2.4–§4.1 derive from the logs.
#[derive(Debug, Clone, PartialEq)]
pub struct FullAnalysis {
    /// §3.1.1 / Fig. 3: how τ was derived.
    pub tau: TauDerivation,
    /// Total sessions identified.
    pub total_sessions: u64,
    /// Figs. 4, 5 and the session-type mix.
    pub sessions: SessionStats,
    /// Fig. 6 / Table 2, store-only direction.
    pub filesize_store: Option<FileSizeModelFit>,
    /// Fig. 6 / Table 2, retrieve-only direction.
    pub filesize_retrieve: Option<FileSizeModelFit>,
    /// Fig. 1 workload series.
    pub workload: WorkloadSeries,
    /// Fig. 7 / Table 3.
    pub usage: UsageStats,
    /// Figs. 8, 9.
    pub engagement: EngagementStats,
    /// Fig. 10.
    pub activity: ActivityStats,
    /// Figs. 12, 14, 15.
    pub perf: PerfStats,
    /// Records processed in pass 2.
    pub total_records: u64,
    /// Users processed.
    pub total_users: u64,
}

/// Runs the paper's two-pass pipeline over `src`, reporting what it
/// measured into `metrics`.
///
/// The source's units are split into contiguous ranges, one per worker
/// (`cfg.threads`; one range runs inline). Pass 1 gathers each range's
/// inter-file-operation intervals and ingest report; they concatenate in
/// range order, the error budget is checked over the total, and τ is
/// derived from the exact sequential interval sequence. Pass 2 feeds each
/// range into a private collector set, and the sets merge in range order.
/// Every collector merge is Vec concatenation or exact integer-valued
/// `f64` addition, and the order-sensitive subsampling for the EM fits
/// happens only after the merge. The file-size EM starts then run on the
/// same workers and are picked in start order, so the analysis is
/// bit-identical at any thread count. So is the error a single fault ends
/// a run with; when a run holds several, which one is reported may depend
/// on the split.
///
/// `metrics` gains the `ingest.*` and `pipeline.*` metrics, all derived
/// from the workload, so the registry is byte-identical at any thread
/// count.
///
/// ```
/// use mcs_analysis::{analyze, PipelineConfig};
/// use mcs_obs::Registry;
/// use mcs_trace::{TraceConfig, TraceGenerator};
///
/// let gen = TraceGenerator::new(TraceConfig {
///     mobile_users: 200,
///     pc_only_users: 40,
///     ..TraceConfig::default()
/// }).unwrap();
/// let Ok((a, _)) = analyze(&gen, &PipelineConfig::default(), &mut Registry::new());
/// assert!(a.total_sessions > 100);
/// assert!(a.sessions.store_only_frac() > 0.5); // write-dominated (§3.1.1)
/// ```
pub fn analyze<S: RecordSource + ?Sized>(
    src: &S,
    cfg: &PipelineConfig,
    metrics: &mut Registry,
) -> Result<(FullAnalysis, IngestReport), S::Error> {
    let threads = effective_threads(cfg.threads);
    let ranges = shard_ranges(src.units(), threads);

    // Pass 1: τ derivation and ingest accounting. The paper's session
    // analysis is over the *mobile* dataset; PC-client records feed only
    // the §3.2 usage and engagement comparisons.
    let pass1 = fan_out(ranges.clone(), threads, |units| {
        let (mut mobile, mut intervals) = (Vec::new(), Vec::new());
        let mut report = IngestReport::default();
        let mut last_user = None;
        src.walk(units, None, &mut report.quarantined, |block| {
            report.records += block.len() as u64;
            last_user = block.last().map(|r| r.user_id).or(last_user);
            mobile.clear();
            mobile.extend(block.iter().copied().filter(|r| r.device_type.is_mobile()));
            intervals.extend(file_op_intervals_s(&mobile));
        })?;
        Ok((intervals, report, last_user))
    })?;
    let mut intervals = Vec::new();
    let mut report = IngestReport::default();
    let mut after = Vec::with_capacity(ranges.len());
    let mut last_user = None;
    for (range_intervals, range_report, range_last) in pass1 {
        after.push(last_user);
        last_user = range_last.or(last_user);
        intervals.extend(range_intervals);
        report.merge(range_report);
    }
    src.check_budget(report.quarantined.len())?;
    report.record_metrics(metrics);
    let n_intervals = intervals.len() as u64;
    let tau = derive_tau(&intervals, MAX_FIT_POINTS);
    drop(intervals);

    // Pass 2: a private collector set per range, merged in range order.
    // Each range walks after the last user pass 1 saw before it, so a user
    // split across a range seam breaks the file contract here exactly as
    // it does inside one range.
    let tau_ms = tau.tau_ms();
    let states = fan_out(
        ranges.into_iter().zip(after).collect(),
        threads,
        |(units, after)| {
            let mut collectors = Collectors::new(cfg);
            let mut mobile = Vec::new();
            src.walk(units, after, &mut Vec::new(), |block| {
                collectors.push_block(block, &mut mobile, tau_ms)
            })?;
            Ok(collectors)
        },
    )?;
    let merged = states
        .into_iter()
        .reduce(|mut acc, state| {
            acc.merge(state);
            acc
        })
        .unwrap_or_else(|| Collectors::new(cfg));
    let (analysis, mut run) = merged.finish(tau, cfg);
    let c = run.counter("pipeline.intervals");
    run.add(c, n_intervals);
    metrics.merge(&run);
    Ok((analysis, report))
}

/// Handles into a collector's metric registry.
struct PipelineIds {
    records: CounterId,
    users: CounterId,
    sessions: CounterId,
    block_records: HistId,
}

impl PipelineIds {
    fn register(metrics: &mut Registry) -> Self {
        Self {
            records: metrics.counter("pipeline.records"),
            users: metrics.counter("pipeline.users"),
            sessions: metrics.counter("pipeline.sessions"),
            block_records: metrics.histogram("pipeline.block_records"),
        }
    }
}

/// The pass-2 collector set. Each instance is a monoid over per-user
/// blocks: `a.push_block(..)` for a shard of blocks then `merge` in shard
/// order equals pushing every block into one instance sequentially. The
/// embedded [`Registry`] obeys the same law, which is what makes
/// [`analyze`]'s metric snapshot thread-count invariant.
pub(crate) struct Collectors {
    session_stats: SessionStatsCollector,
    filesize: FileSizeCollector,
    workload: WorkloadSeries,
    usage: UsageCollector,
    engagement: EngagementCollector,
    activity: ActivityCollector,
    perf: PerfCollector,
    metrics: Registry,
    ids: PipelineIds,
    total_sessions: u64,
    total_records: u64,
    total_users: u64,
}

impl Collectors {
    pub(crate) fn new(cfg: &PipelineConfig) -> Self {
        let mut metrics = Registry::new();
        let ids = PipelineIds::register(&mut metrics);
        Self {
            session_stats: SessionStatsCollector::new(),
            filesize: FileSizeCollector::new(),
            workload: WorkloadSeries::new(cfg.horizon_secs),
            usage: UsageCollector::new(),
            engagement: EngagementCollector::new(),
            activity: ActivityCollector::new(),
            perf: PerfCollector::new(),
            metrics,
            ids,
            total_sessions: 0,
            total_records: 0,
            total_users: 0,
        }
    }

    /// Feeds one user's records through every collector. `mobile` is a
    /// reusable scratch buffer for the mobile-filtered view.
    pub(crate) fn push_block(
        &mut self,
        block: &[LogRecord],
        mobile: &mut Vec<LogRecord>,
        tau_ms: u64,
    ) {
        if block.is_empty() {
            return;
        }
        self.total_users += 1;
        self.total_records += block.len() as u64;
        self.metrics.inc(self.ids.users);
        self.metrics.add(self.ids.records, block.len() as u64);
        self.metrics
            .observe(self.ids.block_records, block.len() as u64);
        mobile.clear();
        mobile.extend(block.iter().copied().filter(|r| r.device_type.is_mobile()));
        for r in mobile.iter() {
            self.workload.push(r);
            self.perf.push(r);
        }
        for s in sessionize(mobile, tau_ms) {
            self.total_sessions += 1;
            self.metrics.inc(self.ids.sessions);
            self.session_stats.push(&s);
            self.filesize.push(&s);
        }
        if let Some(summary) = UserSummary::from_records(block) {
            self.usage.push(&summary);
            self.engagement.push(&summary);
            self.activity.push(&summary);
        }
    }

    /// Absorbs the next shard's state (shards must be merged in ascending
    /// shard order for exact equality with the sequential pass).
    pub(crate) fn merge(&mut self, other: Self) {
        self.session_stats.merge(other.session_stats);
        self.filesize.merge(other.filesize);
        self.workload.merge(&other.workload);
        self.usage.merge(other.usage);
        self.engagement.merge(other.engagement);
        self.activity.merge(other.activity);
        self.perf.merge(other.perf);
        self.metrics.merge(&other.metrics);
        self.total_sessions += other.total_sessions;
        self.total_records += other.total_records;
        self.total_users += other.total_users;
    }

    /// Fits and summarises everything collected. The file-size EM fits
    /// run on `cfg.threads` workers, which never changes their result.
    pub(crate) fn finish(
        mut self,
        tau: TauDerivation,
        cfg: &PipelineConfig,
    ) -> (FullAnalysis, Registry) {
        let g = self.metrics.gauge("pipeline.tau_ms");
        self.metrics.set(g, tau.tau_ms() as i64);
        let metrics = std::mem::take(&mut self.metrics);
        let (filesize_store, filesize_retrieve) = self
            .filesize
            .finish_on(MAX_FIT_POINTS, effective_threads(cfg.threads));
        let analysis = FullAnalysis {
            tau,
            total_sessions: self.total_sessions,
            sessions: self.session_stats.finish(MAX_VOLUME_BIN_FILES),
            filesize_store,
            filesize_retrieve,
            workload: self.workload,
            usage: self.usage.finish(),
            engagement: self.engagement.finish(),
            activity: self.activity.finish(),
            perf: self.perf.finish(),
            total_records: self.total_records,
            total_users: self.total_users,
        };
        (analysis, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::ShardFiles;
    use mcs_trace::{ErrorBudget, TraceConfig, TraceFormat, TraceGenerator};

    fn analyzed(seed: u64, users: u64) -> FullAnalysis {
        let mut cfg = TraceConfig::small(seed);
        cfg.mobile_users = users;
        cfg.pc_only_users = users / 4;
        let gen = TraceGenerator::new(cfg).unwrap();
        let Ok((a, _)) = analyze(&gen, &PipelineConfig::default(), &mut Registry::new());
        a
    }

    /// One cell of the identity table: the analysis, the ingest report
    /// and the exported registry bytes.
    fn run<S>(src: &S, cfg: &PipelineConfig) -> (FullAnalysis, IngestReport, String)
    where
        S: RecordSource + ?Sized,
        S::Error: std::fmt::Debug,
    {
        let mut metrics = Registry::new();
        let (a, r) = analyze(src, cfg, &mut metrics).unwrap();
        (a, r, metrics.snapshot().to_json())
    }

    /// Field-level comparison first for readable failures, whole struct
    /// last to catch anything the fields miss.
    fn assert_same_analysis(got: &FullAnalysis, want: &FullAnalysis, cell: &str) {
        assert_eq!(got.tau, want.tau, "tau, {cell}");
        assert_eq!(got.total_sessions, want.total_sessions, "sessions, {cell}");
        assert_eq!(got.sessions, want.sessions, "session stats, {cell}");
        assert_eq!(got.filesize_store, want.filesize_store, "fs store, {cell}");
        assert_eq!(
            got.filesize_retrieve, want.filesize_retrieve,
            "fs retrieve, {cell}"
        );
        assert_eq!(got.workload, want.workload, "workload, {cell}");
        assert_eq!(got.usage, want.usage, "usage, {cell}");
        assert_eq!(got.engagement, want.engagement, "engagement, {cell}");
        assert_eq!(got.activity, want.activity, "activity, {cell}");
        assert_eq!(got.perf, want.perf, "perf, {cell}");
        assert_eq!(got.total_records, want.total_records, "records, {cell}");
        assert_eq!(got.total_users, want.total_users, "users, {cell}");
        assert_eq!(got, want, "full analysis, {cell}");
    }

    #[test]
    fn merge_law_collectors_split_equals_whole() {
        // The shard-reduce monoid at the Collectors level: pushing blocks
        // into one collector must equal pushing a prefix/suffix split into
        // two collectors and merging in shard order.
        let mut tcfg = TraceConfig::small(77);
        tcfg.mobile_users = 400;
        tcfg.pc_only_users = 100;
        let gen = TraceGenerator::new(tcfg).unwrap();
        let blocks: Vec<Vec<mcs_trace::LogRecord>> = gen.iter_user_records().collect();
        let cfg = PipelineConfig::default();

        let Ok((reference, _)) = analyze(&blocks, &cfg, &mut Registry::new());
        let tau = reference.tau;
        let tau_ms = tau.tau_ms();
        let mut mobile = Vec::new();

        let mut whole = Collectors::new(&cfg);
        for b in &blocks {
            whole.push_block(b, &mut mobile, tau_ms);
        }

        let split = blocks.len() / 3;
        let mut left = Collectors::new(&cfg);
        let mut right = Collectors::new(&cfg);
        for b in &blocks[..split] {
            left.push_block(b, &mut mobile, tau_ms);
        }
        for b in &blocks[split..] {
            right.push_block(b, &mut mobile, tau_ms);
        }
        left.merge(right);

        // Analysis AND embedded metric registry agree exactly.
        assert_eq!(left.finish(tau.clone(), &cfg), whole.finish(tau, &cfg));
    }

    #[test]
    fn end_to_end_on_small_trace() {
        let a = analyzed(100, 1500);
        assert!(a.total_records > 10_000, "records {}", a.total_records);
        assert!(a.total_sessions > 1_000, "sessions {}", a.total_sessions);
        assert!(a.total_users >= 1500);

        // τ lands in the inter-mode gap (above every within-session gap,
        // below the between-session mass).
        assert!(
            a.tau.tau_s > 30.0 && a.tau.tau_s < 6.0 * 3600.0,
            "tau {}",
            a.tau.tau_s
        );

        // §3.1.1: write-dominated session mix.
        assert!(
            a.sessions.store_only_frac() > 0.5,
            "store-only {}",
            a.sessions.store_only_frac()
        );
        assert!(
            a.sessions.mixed_frac() < 0.10,
            "mixed {}",
            a.sessions.mixed_frac()
        );

        // Fig. 5b slope ≈ 1.5 MB/file (photo-dominated uploads).
        assert!(
            (a.sessions.store_mb_per_file - 1.5).abs() < 1.2,
            "slope {}",
            a.sessions.store_mb_per_file
        );

        // Fig. 6/Table 2: store model exists with a dominant ~1.5 MB mode.
        let fs = a.filesize_store.as_ref().expect("store file-size fit");
        let m = fs.mixture.as_ref().expect("mixture");
        assert!(
            (m.components[0].mean - 1.5).abs() < 1.0,
            "µ1 = {}",
            m.components[0].mean
        );

        // Fig. 1: retrieval dominates volume, storage dominates file count.
        assert!(a.workload.retrieve_to_store_volume_ratio() > 1.0);
        assert!(a.workload.store_to_retrieve_file_ratio() > 1.5);

        // Fig. 12: Android uploads markedly slower.
        let ratio = a.perf.upload_median_ratio().expect("upload medians");
        assert!(ratio > 1.5, "upload median ratio {ratio}");

        // Fig. 14: RTT median ≈ 100 ms.
        let rtt = a.perf.rtt.as_ref().unwrap().median();
        assert!((rtt - 100.0).abs() < 25.0, "rtt median {rtt}");
    }

    #[test]
    fn deterministic() {
        let a = analyzed(7, 400);
        let b = analyzed(7, 400);
        assert_eq!(a.total_records, b.total_records);
        assert_eq!(a.total_sessions, b.total_sessions);
        assert_eq!(a.tau.tau_s, b.tau.tau_s);
        assert_eq!(a.sessions.store_only_frac(), b.sessions.store_only_frac());
    }

    #[test]
    fn analyze_is_source_and_thread_invariant() {
        // The identity table of `analyze`: every source at every
        // thread count reproduces the generator's 1-thread analysis and
        // exports byte-identical registry JSON.
        let mut tcfg = TraceConfig::small(7);
        tcfg.mobile_users = 300;
        tcfg.pc_only_users = 75;
        let gen = TraceGenerator::new(tcfg).unwrap();
        let cfg = PipelineConfig::default();
        let mut ref_metrics = Registry::new();
        let Ok((expected, _)) = analyze(
            &gen,
            &PipelineConfig { threads: 1, ..cfg },
            &mut ref_metrics,
        );
        let snap = ref_metrics.snapshot();
        assert_eq!(snap.counters["pipeline.records"], expected.total_records);
        assert_eq!(snap.counters["pipeline.users"], expected.total_users);
        assert_eq!(snap.counters["pipeline.sessions"], expected.total_sessions);
        assert_eq!(snap.gauges["pipeline.tau_ms"], expected.tau.tau_ms() as i64);
        assert_eq!(
            snap.histograms["pipeline.block_records"].count,
            expected.total_users
        );
        assert_eq!(snap.counters["ingest.records"], expected.total_records);
        assert_eq!(snap.counters["ingest.quarantined"], 0);
        let expected_json = snap.to_json();

        let blocks: Vec<Vec<LogRecord>> = gen.iter_user_records().collect();
        let dir = std::env::temp_dir().join("mcs-analyze-identity");
        let shards = [TraceFormat::Csv, TraceFormat::Columnar].map(|format| {
            let sharded = gen
                .write_shards(&dir.join(format.extension()), format, 5)
                .unwrap();
            (format, sharded.paths)
        });
        for threads in [0, 1, 2, 3, 8] {
            let cfg = PipelineConfig { threads, ..cfg };
            let mut cells = vec![
                ("resident blocks", run(&blocks, &cfg)),
                ("generator", run(&gen, &cfg)),
            ];
            for (format, paths) in &shards {
                let src = ShardFiles {
                    paths,
                    format: *format,
                    budget: ErrorBudget::default(),
                };
                cells.push((format.extension(), run(&src, &cfg)));
            }
            for (source, (analysis, report, json)) in cells {
                let cell = format!("{source}, threads {threads}");
                assert_same_analysis(&analysis, &expected, &cell);
                assert_eq!(report.records, expected.total_records, "{cell}");
                assert!(report.quarantined.is_empty(), "{cell}");
                assert_eq!(json, expected_json, "registry bytes, {cell}");
            }
        }

        // Edge rows that range partitioning owns. No units at all: no
        // ranges, no users, and τ falls back to one hour.
        for threads in [1, 2] {
            let cfg = PipelineConfig { threads, ..cfg };
            let no_paths = ShardFiles {
                paths: &[],
                format: TraceFormat::Columnar,
                budget: ErrorBudget::default(),
            };
            let empty = [
                run(&Vec::<Vec<LogRecord>>::new(), &cfg),
                run(&no_paths, &cfg),
            ];
            for (analysis, report, _) in empty {
                assert_eq!(analysis.total_users, 0, "threads {threads}");
                assert_eq!(analysis.tau.tau_s, 3600.0, "threads {threads}");
                assert_eq!(report.records, 0, "threads {threads}");
            }
        }
        // One file on eight threads: fewer ranges than workers.
        let one = gen
            .write_shards(&dir.join("one"), TraceFormat::Columnar, 1)
            .unwrap();
        let src = ShardFiles {
            paths: &one.paths,
            format: TraceFormat::Columnar,
            budget: ErrorBudget::default(),
        };
        let (analysis, _, json) = run(&src, &PipelineConfig { threads: 8, ..cfg });
        assert_same_analysis(&analysis, &expected, "one file, threads 8");
        assert_eq!(json, expected_json, "registry bytes, one file, threads 8");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn table3_shape_recovered() {
        let a = analyzed(11, 2500);
        let mo = a.usage.mobile_only;
        let fr = mo.user_fracs();
        // Upload-only users dominate mobile-only (paper: 51.5 %).
        assert!((fr[0] - 0.515).abs() < 0.12, "upload-only {}", fr[0]);
        // And they generate the bulk of stored volume (paper: 86.6 %).
        let sv = mo.store_volume_fracs();
        assert!(sv[0] > 0.6, "upload-only store share {}", sv[0]);
        // PC-only users are spread more evenly (paper: 31.6 % upload-only).
        let pc = a.usage.pc_only.user_fracs();
        assert!(
            pc[0] < fr[0],
            "PC upload-only {} vs mobile {}",
            pc[0],
            fr[0]
        );
    }

    #[test]
    fn engagement_shape_recovered() {
        use crate::engagement::EngagementGroup;
        let a = analyzed(13, 3000);
        let one = a.engagement.return_histogram(EngagementGroup::OneMobileDev);
        let multi = a
            .engagement
            .return_histogram(EngagementGroup::MultiMobileDev);
        assert!(one.cohort > 50, "cohort {}", one.cohort);
        // Fig. 8: single-device users churn far more.
        assert!(
            one.frac_never() > multi.frac_never() + 0.1,
            "1-dev never {} vs multi {}",
            one.frac_never(),
            multi.frac_never()
        );
        // Fig. 9: mobile-only users rarely retrieve their uploads…
        let r1 = a
            .engagement
            .retrieval_after_upload(EngagementGroup::OneMobileDev);
        assert!(
            r1.frac_never() > 0.7,
            "1-dev never-retrieve {}",
            r1.frac_never()
        );
        // …while mobile+PC users do so more often.
        let rp = a
            .engagement
            .retrieval_after_upload(EngagementGroup::MobilePc);
        assert!(
            rp.frac_never() < r1.frac_never(),
            "mobile&pc {} vs 1-dev {}",
            rp.frac_never(),
            r1.frac_never()
        );
    }

    #[test]
    fn activity_model_se_wins() {
        let a = analyzed(17, 2500);
        let store = a.activity.store.as_ref().expect("store activity fit");
        assert!(store.se_wins(), "SE must beat power law (Fig. 10)");
        assert!(store.se.c < 1.0, "stretch factor {}", store.se.c);
    }
}
