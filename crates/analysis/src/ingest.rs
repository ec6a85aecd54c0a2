//! Where the analysis pipeline's records come from.
//!
//! [`analyze`] runs over a [`RecordSource`]: an ordered
//! sequence of units that it splits into contiguous ranges, one per
//! worker, and walks once per pass. Two kinds of source exist:
//!
//! * every [`BlockSource`] — resident blocks or a live
//!   [`TraceGenerator`](mcs_trace::TraceGenerator) — with one user block
//!   per unit. Walking it cannot fail.
//! * [`ShardFiles`] — stored trace files, one file per unit, each read
//!   through [`open_trace`] holding at most one user's records per worker.
//!   Production log files are scuffed at the margins, so malformed records
//!   are quarantined (with per-record diagnostics) by one [`ErrorBudget`]
//!   charged across all the files; only a blown budget, an I/O failure,
//!   corrupt file framing or a broken file contract is fatal.
//!
//! The **file contract** is what
//! [`TraceGenerator::write_shards_observed`](mcs_trace::TraceGenerator::write_shards_observed)
//! produces, at any shard count (one shard is one file): every file holds
//! whole users as contiguous, per-user time-ordered record groups, and user
//! ids ascend strictly across the whole file sequence. The walk checks the
//! order within a file, across files and across worker ranges, and stops at
//! the first violation with [`ReadError::UserOrder`] at every thread count.
//! Under the contract the result is bit-identical to the in-memory pipeline
//! at any thread count.

use std::convert::Infallible;
use std::ops::Range;
use std::path::PathBuf;

use mcs_obs::Registry;
use mcs_trace::io::{open_trace, TraceFormat};
use mcs_trace::{BlockSource, ErrorBudget, LogRecord, ReadError};

use crate::pipeline::{analyze, FullAnalysis, PipelineConfig};

/// What lenient ingestion let through and what it quarantined.
#[derive(Debug, Default)]
pub struct IngestReport {
    /// Records that parsed cleanly and fed the pipeline.
    pub records: u64,
    /// One diagnostic per malformed record, in file order.
    pub quarantined: Vec<ReadError>,
}

impl IngestReport {
    /// Fraction of parsed-or-quarantined records that were quarantined.
    pub fn error_rate(&self) -> f64 {
        let total = self.records + self.quarantined.len() as u64;
        if total == 0 {
            return 0.0;
        }
        self.quarantined.len() as f64 / total as f64
    }

    /// Absorbs the next shard's report. Merging per-shard reports in
    /// ascending shard order reproduces the sequential report exactly:
    /// counts add and quarantine diagnostics concatenate in file order.
    pub fn merge(&mut self, other: IngestReport) {
        self.records += other.records;
        self.quarantined.extend(other.quarantined);
    }

    /// Records the ingest outcome into a metric registry: the
    /// `ingest.records` / `ingest.quarantined` counters and the
    /// quarantine rate in parts per million as `ingest.error_rate_ppm`
    /// (a gauge, since a rate is not summable across ingests).
    pub fn record_metrics(&self, metrics: &mut Registry) {
        let c = metrics.counter("ingest.records");
        metrics.add(c, self.records);
        let c = metrics.counter("ingest.quarantined");
        metrics.add(c, self.quarantined.len() as u64);
        let g = metrics.gauge("ingest.error_rate_ppm");
        metrics.set(g, (self.error_rate() * 1e6) as i64);
    }
}

/// An ordered trace that [`analyze`] can split into contiguous ranges of
/// units and walk once per pass. Every walk of a range must deliver the
/// same blocks.
pub trait RecordSource: Sync {
    /// Why a walk stops early.
    type Error: Send;

    /// Number of units [`analyze`] partitions across workers.
    fn units(&self) -> usize;

    /// Feeds each user block of the units in `units` to `on_block`, in
    /// order, and quarantines malformed records into `quarantined`.
    /// `after` is the last user delivered before `units`, when the caller
    /// knows it; a source with a user-order contract checks against it.
    fn walk(
        &self,
        units: Range<usize>,
        after: Option<u64>,
        quarantined: &mut Vec<ReadError>,
        on_block: impl FnMut(&[LogRecord]),
    ) -> Result<(), Self::Error>;

    /// Checks a whole pass's quarantine count against the source's error
    /// budget. Workers each walk under the full budget, so [`analyze`]
    /// enforces the sequential failure boundary with this after the merge.
    fn check_budget(&self, _quarantined: usize) -> Result<(), Self::Error> {
        Ok(())
    }
}

impl<B: BlockSource + ?Sized> RecordSource for B {
    type Error = Infallible;

    fn units(&self) -> usize {
        self.len()
    }

    fn walk(
        &self,
        units: Range<usize>,
        _after: Option<u64>,
        _quarantined: &mut Vec<ReadError>,
        mut on_block: impl FnMut(&[LogRecord]),
    ) -> Result<(), Infallible> {
        for idx in units {
            on_block(&self.block(idx));
        }
        Ok(())
    }
}

/// Stored trace files under the file contract (see the module docs), one
/// file per unit.
#[derive(Debug, Clone, Copy)]
pub struct ShardFiles<'a> {
    /// The files, in ascending user order.
    pub paths: &'a [PathBuf],
    /// How every file is encoded.
    pub format: TraceFormat,
    /// Malformed records one run may quarantine before giving up.
    pub budget: ErrorBudget,
}

impl RecordSource for ShardFiles<'_> {
    type Error = ReadError;

    fn units(&self) -> usize {
        self.paths.len()
    }

    /// Streams the files in order, regrouping consecutive same-user
    /// records into one block. A file boundary ends a block, so a user
    /// carried into the next file fails the order check like any other
    /// user id that does not ascend.
    fn walk(
        &self,
        units: Range<usize>,
        after: Option<u64>,
        quarantined: &mut Vec<ReadError>,
        mut on_block: impl FnMut(&[LogRecord]),
    ) -> Result<(), ReadError> {
        let mut last = after;
        let mut block: Vec<LogRecord> = Vec::new();
        for path in &self.paths[units] {
            for item in open_trace(path, self.format)? {
                let Some(rec) = self.budget.admit(item, quarantined)? else {
                    continue;
                };
                if block.first().is_none_or(|r| r.user_id != rec.user_id) {
                    if let Some(prev_user) = last.filter(|&prev| rec.user_id <= prev) {
                        return Err(ReadError::UserOrder {
                            path: path.clone(),
                            prev_user,
                            user: rec.user_id,
                        });
                    }
                    last = Some(rec.user_id);
                    if !block.is_empty() {
                        on_block(&block);
                        block.clear();
                    }
                }
                block.push(rec);
            }
            if !block.is_empty() {
                on_block(&block);
                block.clear();
            }
        }
        Ok(())
    }

    fn check_budget(&self, quarantined: usize) -> Result<(), ReadError> {
        self.budget.check(quarantined)
    }
}

/// [`analyze`] over [`ShardFiles`], without observation.
pub fn par_analyze_shards(
    paths: &[PathBuf],
    format: TraceFormat,
    budget: ErrorBudget,
    cfg: &PipelineConfig,
) -> Result<(FullAnalysis, IngestReport), ReadError> {
    analyze(
        &ShardFiles {
            paths,
            format,
            budget,
        },
        cfg,
        &mut Registry::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_trace::io::CSV_HEADER;
    use mcs_trace::{TraceConfig, TraceGenerator, TraceWriter};

    fn small_gen() -> TraceGenerator {
        TraceGenerator::new(TraceConfig {
            mobile_users: 40,
            pc_only_users: 8,
            ..TraceConfig::default()
        })
        .unwrap()
    }

    fn cfg(threads: usize) -> PipelineConfig {
        PipelineConfig {
            threads,
            ..PipelineConfig::default()
        }
    }

    /// Writes each record group to its own CSV file under `dir`.
    fn write_csv_files(dir: &std::path::Path, groups: &[&[LogRecord]]) -> Vec<PathBuf> {
        std::fs::create_dir_all(dir).unwrap();
        let mut paths = Vec::new();
        for (i, group) in groups.iter().enumerate() {
            let path = dir.join(format!("{i}.csv"));
            let file = std::fs::File::create(&path).unwrap();
            let mut w = TraceWriter::new(file, TraceFormat::Csv).unwrap();
            group.iter().for_each(|r| w.push(r).unwrap());
            w.finish().unwrap();
            paths.push(path);
        }
        paths
    }

    /// Asserts that `paths` fail with the user-order error naming
    /// `path`, `prev_user` and `user` at every listed thread count.
    fn assert_user_order(paths: &[PathBuf], want: (&PathBuf, u64, u64), threads: &[usize]) {
        for &t in threads {
            let err = par_analyze_shards(paths, TraceFormat::Csv, ErrorBudget::default(), &cfg(t))
                .unwrap_err();
            match err {
                ReadError::UserOrder {
                    path,
                    prev_user,
                    user,
                } => assert_eq!((&path, prev_user, user), want, "threads {t}"),
                other => panic!("threads {t}: expected a user-order error, got {other}"),
            }
        }
    }

    #[test]
    fn corrupted_file_analyzes_same_as_clean_file() {
        let gen = small_gen();
        let dir = std::env::temp_dir().join("mcs-ingest-dirty");
        let sharded = gen.write_shards(&dir, TraceFormat::Csv, 1).unwrap();
        let (clean, n) = (&sharded.paths[0], sharded.records);
        let dirty = dir.join("dirty.csv");

        // Corrupt a copy: garbage lines sprinkled through the body.
        let mut text = std::fs::read_to_string(clean).unwrap();
        assert!(text.starts_with(CSV_HEADER));
        text.push_str("@@@ corrupt flush @@@\n1,2,3\n");
        std::fs::write(&dirty, text).unwrap();

        let budget = ErrorBudget::default();
        let (a_clean, r_clean) = par_analyze_shards(
            std::slice::from_ref(clean),
            TraceFormat::Csv,
            budget,
            &cfg(1),
        )
        .unwrap();
        let (a_dirty, r_dirty) = par_analyze_shards(
            std::slice::from_ref(&dirty),
            TraceFormat::Csv,
            budget,
            &cfg(1),
        )
        .unwrap();

        assert!(r_clean.quarantined.is_empty());
        assert_eq!(r_dirty.quarantined.len(), 2);
        assert_eq!(r_dirty.records, n);
        assert!(r_dirty.error_rate() > 0.0);
        assert_eq!(
            a_dirty, a_clean,
            "quarantined lines must not perturb the analysis"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn observed_ingest_merges_quarantine_and_pipeline_metrics() {
        let gen = small_gen();
        let dir = std::env::temp_dir().join("mcs-ingest-observed");
        let sharded = gen.write_shards(&dir, TraceFormat::Csv, 1).unwrap();
        let (path, n) = (&sharded.paths[0], sharded.records);
        let mut text = std::fs::read_to_string(path).unwrap();
        text.push_str("@@@ corrupt flush @@@\n");
        std::fs::write(path, text).unwrap();

        let mut metrics = Registry::new();
        let src = ShardFiles {
            paths: std::slice::from_ref(path),
            format: TraceFormat::Csv,
            budget: ErrorBudget::default(),
        };
        let (analysis, report) = analyze(&src, &PipelineConfig::default(), &mut metrics).unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.counters["ingest.records"], n);
        assert_eq!(snap.counters["ingest.quarantined"], 1);
        assert_eq!(
            snap.gauges["ingest.error_rate_ppm"],
            (report.error_rate() * 1e6) as i64
        );
        // The pipeline metrics ride in the same snapshot.
        assert_eq!(snap.counters["pipeline.records"], analysis.total_records);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn hopeless_file_blows_the_budget() {
        let dir = std::env::temp_dir();
        let path = dir.join("mcs-ingest-hopeless.csv");
        let mut text = String::from(CSV_HEADER);
        text.push('\n');
        for _ in 0..10 {
            text.push_str("complete nonsense\n");
        }
        std::fs::write(&path, text).unwrap();
        let err = par_analyze_shards(
            std::slice::from_ref(&path),
            TraceFormat::Csv,
            ErrorBudget { max_errors: 4 },
            &PipelineConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ReadError::ErrorBudgetExceeded {
                errors: 5,
                budget: 4
            }
        ));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn empty_report_has_zero_error_rate() {
        assert_eq!(IngestReport::default().error_rate(), 0.0);
    }

    #[test]
    fn ingest_report_merge_concatenates_shard_reports() {
        // The IngestReport merge law: merging per-shard reports in shard
        // order must equal the sequential report over the whole input.
        let mut whole = IngestReport {
            records: 10,
            ..IngestReport::default()
        };
        whole
            .quarantined
            .push(ReadError::FieldCount { line: 3, got: 2 });
        whole
            .quarantined
            .push(ReadError::FieldCount { line: 1, got: 10 });

        let mut left = IngestReport {
            records: 7,
            ..IngestReport::default()
        };
        left.quarantined
            .push(ReadError::FieldCount { line: 3, got: 2 });
        let mut right = IngestReport {
            records: 3,
            ..IngestReport::default()
        };
        right
            .quarantined
            .push(ReadError::FieldCount { line: 1, got: 10 });
        left.merge(right);

        assert_eq!(left.records, whole.records);
        assert_eq!(left.quarantined.len(), whole.quarantined.len());
        for (a, b) in left.quarantined.iter().zip(whole.quarantined.iter()) {
            assert_eq!(a.to_string(), b.to_string());
        }
        assert_eq!(left.error_rate(), whole.error_rate());
    }

    #[test]
    fn stream_rejects_a_user_split_across_file_boundaries() {
        // Hand-build two shard files where one user's records straddle the
        // boundary mid-user. That breaks the file contract, and the run
        // must say so at every thread count: within one range at 1
        // thread, across the range seam at 2.
        let gen = small_gen();
        let records: Vec<LogRecord> = gen.iter_user_records().flatten().collect();
        let split = records.len() / 2;
        // The split lands mid-user (the generator emits multi-record users).
        let user = records[split].user_id;
        assert_eq!(
            records[split - 1].user_id,
            user,
            "test premise: the boundary must split a user"
        );
        let dir = std::env::temp_dir().join("mcs-ingest-straddle");
        let paths = write_csv_files(&dir, &[&records[..split], &records[split..]]);
        assert_user_order(&paths, (&paths[1], user, user), &[1, 2]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn stream_rejects_user_ids_that_go_backwards() {
        let gen = small_gen();
        let blocks: Vec<Vec<LogRecord>> =
            gen.iter_user_records().filter(|b| !b.is_empty()).collect();
        let user = |i: usize| blocks[i][0].user_id;
        let (half, last) = (blocks.len() / 2, blocks.len() - 1);
        let dir = std::env::temp_dir().join("mcs-ingest-backwards");

        // Inside one file: the second file ends with two users swapped.
        let mut late = blocks[half..].to_vec();
        let n = late.len();
        late.swap(n - 2, n - 1);
        let paths = write_csv_files(
            &dir.join("users"),
            &[&blocks[..half].concat(), &late.concat()],
        );
        assert_user_order(&paths, (&paths[1], user(last), user(last - 1)), &[1, 2]);

        // Across files: whole-user files handed over in the wrong order.
        let paths = write_csv_files(
            &dir.join("files"),
            &[&blocks[half..].concat(), &blocks[..half].concat()],
        );
        assert_user_order(&paths, (&paths[1], user(last), user(0)), &[1, 2]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn streamed_budget_boundary_is_thread_count_invariant() {
        // Sprinkle garbage across several shards so no single worker
        // range blows the budget alone but the global count does.
        let gen = small_gen();
        let dir = std::env::temp_dir().join("mcs-ingest-budget");
        let sharded = gen.write_shards(&dir, TraceFormat::Csv, 4).unwrap();
        for p in &sharded.paths {
            let mut text = std::fs::read_to_string(p).unwrap();
            text.push_str("not a record\n");
            std::fs::write(p, text).unwrap();
        }
        // 4 bad lines, budget 3: every thread count must fail…
        for threads in [1, 2, 4] {
            let err = par_analyze_shards(
                &sharded.paths,
                TraceFormat::Csv,
                ErrorBudget { max_errors: 3 },
                &cfg(threads),
            )
            .unwrap_err();
            assert!(
                matches!(err, ReadError::ErrorBudgetExceeded { .. }),
                "threads {threads}: {err}"
            );
        }
        // …and with budget 4 every thread count must succeed, identically.
        let budget = ErrorBudget { max_errors: 4 };
        let (seq, rep) =
            par_analyze_shards(&sharded.paths, TraceFormat::Csv, budget, &cfg(1)).unwrap();
        assert_eq!(rep.quarantined.len(), 4);
        for threads in [2, 4] {
            let (par, par_rep) =
                par_analyze_shards(&sharded.paths, TraceFormat::Csv, budget, &cfg(threads))
                    .unwrap();
            assert_eq!(par, seq, "threads {threads}");
            assert_eq!(par_rep.quarantined.len(), 4);
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
