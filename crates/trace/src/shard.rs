//! Direct-to-disk trace emission: per-user record blocks streamed into
//! shard files. This is the generator's one parallel entry point.
//!
//! The paper's trace is 349 M records — far past what memory should ever
//! hold. [`TraceGenerator::write_shards_observed`] writes a trace *as it is
//! generated*: `shards` files of contiguous user ranges, each through one
//! [`TraceWriter`], with peak memory of one user's records per worker. The
//! shard layout depends only on the `shards` argument (never on the thread
//! count), and each shard holds whole users in ascending user order with
//! records time-ordered per user — exactly the file contract that
//! `mcs_analysis::analyze` checks when it streams `ShardFiles`. One shard
//! is the one-file write.

use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};

use mcs_obs::Registry;

use crate::blocks::{effective_threads, fan_out, shard_ranges};
use crate::generator::TraceGenerator;
use crate::io::{TraceFormat, TraceWriter};

/// Where a sharded trace landed on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedTrace {
    /// Shard files, in ascending user order.
    pub paths: Vec<PathBuf>,
    /// Total records written.
    pub records: u64,
    /// Total bytes across all shard files.
    pub bytes: u64,
}

impl TraceGenerator {
    /// [`Self::write_shards_observed`] into a throwaway [`Registry`].
    pub fn write_shards(
        &self,
        dir: &Path,
        format: TraceFormat,
        shards: usize,
    ) -> io::Result<ShardedTrace> {
        self.write_shards_observed(dir, format, shards, &mut Registry::new())
    }

    /// Writes the whole trace as `shards` files under `dir` (created if
    /// missing), named `shard-NNNN.<ext>`, on [`crate::TraceConfig::threads`]
    /// workers. See the module docs for the layout contract. Returns the
    /// shard paths and totals, or the first error in shard order.
    ///
    /// Reports into `metrics`: `gen.users`, `gen.records` and the
    /// `gen.user_records` histogram. Each shard books into a private
    /// registry and the registries merge in shard order, so the snapshot is
    /// the same at any thread or shard count.
    pub fn write_shards_observed(
        &self,
        dir: &Path,
        format: TraceFormat,
        shards: usize,
        metrics: &mut Registry,
    ) -> io::Result<ShardedTrace> {
        std::fs::create_dir_all(dir)?;
        let ranges = shard_ranges(self.users().len(), shards);
        let files = fan_out(
            ranges.into_iter().enumerate().collect(),
            effective_threads(self.config().threads),
            |(i, range)| {
                let mut shard = Registry::new();
                let users = shard.counter("gen.users");
                let records = shard.counter("gen.records");
                let per_user = shard.histogram("gen.user_records");
                let path = dir.join(format!("shard-{i:04}.{}", format.extension()));
                let mut w = TraceWriter::new(BufWriter::new(File::create(&path)?), format)?;
                for user in &self.users()[range] {
                    let block = self.user_records(user);
                    shard.inc(users);
                    shard.add(records, block.len() as u64);
                    shard.observe(per_user, block.len() as u64);
                    for r in &block {
                        w.push(r)?;
                    }
                }
                let (_, n) = w.finish()?;
                let bytes = std::fs::metadata(&path)?.len();
                Ok::<_, io::Error>((path, n, bytes, shard))
            },
        )?;
        let mut out = ShardedTrace {
            paths: Vec::with_capacity(files.len()),
            records: 0,
            bytes: 0,
        };
        for (path, n, bytes, shard) in files {
            metrics.merge(&shard);
            out.paths.push(path);
            out.records += n;
            out.bytes += bytes;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::open_trace;
    use crate::record::LogRecord;
    use crate::{TraceConfig, TraceGenerator};

    fn small_gen(seed: u64, threads: usize) -> TraceGenerator {
        let mut cfg = TraceConfig::small(seed);
        cfg.mobile_users = 150;
        cfg.pc_only_users = 40;
        cfg.threads = threads;
        TraceGenerator::new(cfg).unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mcs-shard-test-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn read_shards(sharded: &ShardedTrace, format: TraceFormat) -> Vec<LogRecord> {
        let mut all = Vec::new();
        for p in &sharded.paths {
            for r in open_trace(p, format).unwrap() {
                all.push(r.unwrap());
            }
        }
        all
    }

    #[test]
    fn shards_concatenate_to_the_full_trace_in_every_format() {
        let g = small_gen(31, 1);
        let expected: Vec<LogRecord> = g.iter_user_records().flatten().collect();
        for format in [TraceFormat::Csv, TraceFormat::Columnar] {
            let dir = temp_dir(&format!("concat-{}", format.extension()));
            let sharded = g.write_shards(&dir, format, 4).unwrap();
            assert_eq!(sharded.paths.len(), 4);
            assert_eq!(sharded.records, expected.len() as u64);
            assert!(sharded.bytes > 0);
            assert_eq!(read_shards(&sharded, format), expected, "{format:?}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn shard_layout_is_thread_invariant() {
        let baseline_dir = temp_dir("layout-t1");
        let baseline = small_gen(32, 1)
            .write_shards(&baseline_dir, TraceFormat::Columnar, 5)
            .unwrap();
        let baseline_bytes: Vec<Vec<u8>> = baseline
            .paths
            .iter()
            .map(|p| std::fs::read(p).unwrap())
            .collect();
        for threads in [2usize, 4] {
            let dir = temp_dir(&format!("layout-t{threads}"));
            let sharded = small_gen(32, threads)
                .write_shards(&dir, TraceFormat::Columnar, 5)
                .unwrap();
            assert_eq!(sharded.records, baseline.records);
            assert_eq!(sharded.bytes, baseline.bytes);
            let bytes: Vec<Vec<u8>> = sharded
                .paths
                .iter()
                .map(|p| std::fs::read(p).unwrap())
                .collect();
            assert_eq!(bytes, baseline_bytes, "threads = {threads}");
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&baseline_dir);
    }

    #[test]
    fn shard_metrics_match_in_memory_generation_at_any_thread_count() {
        // The one parallel generator books the same gen.* metrics at every
        // thread and shard count, and they count what the sequential
        // iterator yields.
        let blocks: Vec<Vec<LogRecord>> = small_gen(33, 1).iter_user_records().collect();
        let dir = temp_dir("metrics");
        let mut base = Registry::new();
        small_gen(33, 1)
            .write_shards_observed(&dir, TraceFormat::Columnar, 1, &mut base)
            .unwrap();
        let base_snap = base.snapshot();
        assert_eq!(base_snap.counters["gen.users"], blocks.len() as u64);
        assert_eq!(
            base_snap.counters["gen.records"],
            blocks.iter().map(|b| b.len() as u64).sum::<u64>()
        );
        assert_eq!(
            base_snap.histograms["gen.user_records"].count,
            blocks.len() as u64
        );
        for threads in [1usize, 2, 3, 8] {
            for shards in [1usize, 6] {
                let mut metrics = Registry::new();
                small_gen(33, threads)
                    .write_shards_observed(&dir, TraceFormat::Columnar, shards, &mut metrics)
                    .unwrap();
                assert_eq!(
                    metrics.snapshot(),
                    base_snap,
                    "threads = {threads}, shards = {shards}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_shard_agrees_with_the_in_memory_paths() {
        // One worker, one shard: the file is the sequential blocks as one
        // TraceWriter writes them.
        let g = small_gen(38, 1);
        let mut w = TraceWriter::new(Vec::new(), TraceFormat::Columnar).unwrap();
        for r in g.iter_user_records().flatten() {
            w.push(&r).unwrap();
        }
        let dir = temp_dir("one");
        let sharded = g.write_shards(&dir, TraceFormat::Columnar, 1).unwrap();
        assert_eq!(sharded.paths.len(), 1);
        assert_eq!(
            std::fs::read(&sharded.paths[0]).unwrap(),
            w.finish().unwrap().0
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn more_shards_than_users_degrades_gracefully() {
        let mut cfg = TraceConfig::small(34);
        cfg.mobile_users = 3;
        cfg.pc_only_users = 1;
        let g = TraceGenerator::new(cfg).unwrap();
        let dir = temp_dir("tiny");
        let sharded = g.write_shards(&dir, TraceFormat::Columnar, 16).unwrap();
        assert_eq!(sharded.paths.len(), 4, "one shard per user, no empties");
        let expected: Vec<LogRecord> = g.iter_user_records().flatten().collect();
        assert_eq!(read_shards(&sharded, TraceFormat::Columnar), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
