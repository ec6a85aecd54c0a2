//! Direct-to-disk trace emission: per-user record blocks streamed into
//! shard files.
//!
//! The paper's trace is 349 M records — far past what
//! [`TraceGenerator::generate_sorted`] should ever materialise.
//! [`TraceGenerator::write_shards_observed`] writes a trace *as it is
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

use mcs_obs::Obs;

use crate::blocks::shard_ranges;
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
    /// [`Self::write_shards_observed`] into a throwaway [`Obs`].
    pub fn write_shards(
        &self,
        dir: &Path,
        format: TraceFormat,
        shards: usize,
    ) -> io::Result<ShardedTrace> {
        self.write_shards_observed(dir, format, shards, &mut Obs::new())
    }

    /// Writes the whole trace as `shards` files under `dir` (created if
    /// missing), named `shard-NNNN.<ext>`, on [`crate::TraceConfig::threads`]
    /// workers. See the module docs for the layout contract. Returns the
    /// shard paths and totals, or the first error in shard order.
    ///
    /// Reports into `obs` exactly as [`Self::par_user_records`] does: the
    /// same `gen.*` metrics at any thread or shard count, and one
    /// `gen.shard.records` trace event per file.
    pub fn write_shards_observed(
        &self,
        dir: &Path,
        format: TraceFormat,
        shards: usize,
        obs: &mut Obs,
    ) -> io::Result<ShardedTrace> {
        std::fs::create_dir_all(dir)?;
        let ranges = shard_ranges(self.users().len(), shards);
        let files = self.per_shard(ranges, obs, |i, blocks| {
            let path = dir.join(format!("shard-{i:04}.{}", format.extension()));
            let mut w = TraceWriter::new(BufWriter::new(File::create(&path)?), format)?;
            for r in blocks.flatten() {
                w.push(&r)?;
            }
            let (_, n) = w.finish()?;
            let bytes = std::fs::metadata(&path)?.len();
            Ok::<_, io::Error>((path, n, bytes))
        })?;
        Ok(ShardedTrace {
            records: files.iter().map(|f| f.1).sum(),
            bytes: files.iter().map(|f| f.2).sum(),
            paths: files.into_iter().map(|f| f.0).collect(),
        })
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
        for format in [TraceFormat::Jsonl, TraceFormat::Csv, TraceFormat::Columnar] {
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
        let g1 = small_gen(33, 1);
        let mut base = Obs::new();
        let _ = g1.par_user_records(&mut base);
        let base_snap = base.snapshot();
        for threads in [1usize, 3] {
            let dir = temp_dir(&format!("metrics-t{threads}"));
            let mut obs = Obs::new();
            small_gen(33, threads)
                .write_shards_observed(&dir, TraceFormat::Columnar, 6, &mut obs)
                .unwrap();
            assert_eq!(obs.snapshot(), base_snap, "threads = {threads}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn one_shard_agrees_with_the_in_memory_paths() {
        // One worker, one shard: the file is the in-memory blocks as one
        // TraceWriter writes them, and all three paths leave equal metrics
        // *and* trace events.
        let g = small_gen(38, 1);
        let mut blocks = Obs::new();
        let mut w = TraceWriter::new(Vec::new(), TraceFormat::Columnar).unwrap();
        for r in g.par_user_records(&mut blocks).iter().flatten() {
            w.push(r).unwrap();
        }
        let mut sorted = Obs::new();
        let _ = g.generate_sorted(&mut sorted);
        let dir = temp_dir("one");
        let mut written = Obs::new();
        let sharded = g
            .write_shards_observed(&dir, TraceFormat::Columnar, 1, &mut written)
            .unwrap();
        assert_eq!(sharded.paths.len(), 1);
        assert_eq!(
            std::fs::read(&sharded.paths[0]).unwrap(),
            w.finish().unwrap().0
        );
        let _ = std::fs::remove_dir_all(&dir);
        let names: Vec<&str> = blocks.trace.events().iter().map(|e| &*e.name).collect();
        assert_eq!(names, ["gen.shard.records", "gen.merge.fan_in"]);
        assert_eq!(sorted, blocks);
        assert_eq!(written, blocks);
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
