//! The trace generator: session plans → Table 1 log records.
//!
//! Produces, per session (§2.1 protocol):
//!
//! 1. a burst of *file operation* requests at the session start, spaced by
//!    the within-session gap distribution (by default a 0.2 s median plus
//!    2 % straggler gaps of about 8 s; the paper's Fig. 3 mode is near
//!    10 s, see EXPERIMENTS.md deviation 1). The burst itself is Fig. 4's
//!    "users front-load their operations";
//! 2. the *chunk requests* of each file, sequential within the session's
//!    connection, each spaced by its own processing time plus the client's
//!    `T_clt` think time (Fig. 11's timeline).
//!
//! Generation is streaming: [`TraceGenerator::user_records`] materialises
//! one user at a time, so paper-scale traces never need to fit in memory.
//! There is one entry per output:
//!
//! * [`TraceGenerator::iter_user_records`]: per-user blocks, lazily, on
//!   the calling thread;
//! * [`TraceGenerator::write_shards_observed`]: shard files on disk, on
//!   [`TraceConfig::threads`] workers, booking the `gen.*` metrics (see
//!   [`crate::shard`]).

use mcs_stats::rng::{stream_rng, ChaCha8Rng, LogNormal, Rng};

use crate::blocks::BlockSource;
use crate::config::TraceConfig;
use crate::netmodel::TimingSampler;
use crate::population::{build_population, UserProfile};
use crate::record::{chunk_sizes, LogRecord, RequestType};
use crate::sessions::{plan_user_sessions, SessionPlan, SessionSamplers};

/// RNG stream ids (population uses stream 1 in `population.rs`).
const STREAM_USER_BASE: u64 = 1_000;

/// Deterministic synthetic-trace generator.
///
/// ```
/// use mcs_trace::{TraceConfig, TraceGenerator};
///
/// let gen = TraceGenerator::new(TraceConfig {
///     mobile_users: 50,
///     pc_only_users: 10,
///     ..TraceConfig::default()
/// }).unwrap();
/// let records: usize = gen.iter_user_records().map(|b| b.len()).sum();
/// assert!(records > 100);
/// // Same seed, same trace — bit for bit.
/// let again: usize = gen.iter_user_records().map(|b| b.len()).sum();
/// assert_eq!(records, again);
/// ```
pub struct TraceGenerator {
    cfg: TraceConfig,
    users: Vec<UserProfile>,
    samplers: SessionSamplers,
    timing: TimingSampler,
}

impl TraceGenerator {
    /// Validates the configuration and synthesises the population.
    pub fn new(cfg: TraceConfig) -> Result<Self, String> {
        cfg.validate()?;
        let users = build_population(&cfg);
        let samplers = SessionSamplers::new(&cfg);
        let timing = TimingSampler::new(&cfg.network);
        Ok(Self {
            cfg,
            users,
            samplers,
            timing,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// The synthesised user population.
    pub fn users(&self) -> &[UserProfile] {
        &self.users
    }

    /// Per-user RNG — independent of generation order, so users can be
    /// generated lazily, in parallel, or individually with identical output.
    fn user_rng(&self, user_id: u64) -> ChaCha8Rng {
        stream_rng(self.cfg.seed, STREAM_USER_BASE + user_id)
    }

    /// Session plans for one user.
    pub fn user_sessions(&self, user: &UserProfile) -> Vec<SessionPlan> {
        let mut rng = self.user_rng(user.user_id);
        plan_user_sessions(&self.cfg, &self.samplers, user, &mut rng)
    }

    /// All log records of one user, time-ordered.
    pub fn user_records(&self, user: &UserProfile) -> Vec<LogRecord> {
        let mut rng = self.user_rng(user.user_id);
        let plans = plan_user_sessions(&self.cfg, &self.samplers, user, &mut rng);
        let mut records = Vec::new();
        for plan in &plans {
            self.emit_session(user, plan, &mut rng, &mut records);
        }
        records.sort_by_key(|r| r.timestamp_ms);
        records
    }

    /// Iterator over per-user record blocks (streaming-friendly).
    pub fn iter_user_records(&self) -> impl Iterator<Item = Vec<LogRecord>> + '_ {
        self.users.iter().map(|u| self.user_records(u))
    }

    /// Emits the records of one session into `out`.
    fn emit_session(
        &self,
        user: &UserProfile,
        plan: &SessionPlan,
        rng: &mut impl Rng,
        out: &mut Vec<LogRecord>,
    ) {
        let horizon = self.cfg.horizon_ms();
        let rtt = self.timing.flow_rtt_ms(rng);
        let proxied = self.timing.proxied(rng);
        let gap = LogNormal::from_median(
            self.cfg.session.intra_op_gap_median_s * 1000.0,
            self.cfg.session.intra_op_gap_sigma,
        );
        let straggler_gap =
            LogNormal::from_median(self.cfg.session.straggler_gap_median_s * 1000.0, 0.8);

        // 1. File-operation burst at the session start (an occasional
        //    straggler op arrives while transfers already run).
        let mut op_time = plan.start_ms;
        let mut op_times = Vec::with_capacity(plan.files.len());
        for (i, file) in plan.files.iter().enumerate() {
            if i > 0 {
                let g = if rng.random::<f64>() < self.cfg.session.straggler_frac {
                    straggler_gap.sample(rng)
                } else {
                    gap.sample(rng)
                };
                op_time += g.max(20.0) as u64;
            }
            if op_time >= horizon {
                break;
            }
            op_times.push(op_time);
            out.push(LogRecord {
                timestamp_ms: op_time,
                device_type: plan.device_type,
                device_id: plan.device_id,
                user_id: user.user_id,
                request: RequestType::FileOp(file.direction),
                volume_bytes: 0,
                processing_ms: self.timing.file_op_ms(rng),
                srv_ms: 0.0,
                rtt_ms: rtt,
                proxied,
            });
        }

        // 2. Sequential chunk transfers. The transfer of file k starts no
        //    earlier than its file operation and no earlier than the end of
        //    file k−1's transfer.
        let mut cursor = plan.start_ms as f64;
        for (file, &op_t) in plan.files.iter().zip(&op_times) {
            cursor = cursor.max(op_t as f64);
            for chunk in chunk_sizes(file.size) {
                if cursor >= horizon as f64 {
                    break;
                }
                let srv = self.timing.srv_ms(rng);
                let tran = self.timing.chunk_tran_ms(
                    rng,
                    plan.device_type,
                    file.direction,
                    chunk,
                    rtt,
                    self.cfg.network.rtt_median_ms,
                );
                let processing = tran + srv;
                out.push(LogRecord {
                    timestamp_ms: cursor as u64,
                    device_type: plan.device_type,
                    device_id: plan.device_id,
                    user_id: user.user_id,
                    request: RequestType::Chunk(file.direction),
                    volume_bytes: chunk,
                    processing_ms: processing,
                    srv_ms: srv,
                    rtt_ms: rtt,
                    proxied,
                });
                // Next chunk request leaves after this one completes plus
                // the client's think time (the §4.2 idle-time source).
                let clt = self.timing.clt_ms(rng, plan.device_type, file.direction);
                cursor += processing + clt;
            }
        }
    }
}

impl BlockSource for TraceGenerator {
    fn len(&self) -> usize {
        self.users.len()
    }

    fn block(&self, idx: usize) -> Vec<LogRecord> {
        self.user_records(&self.users[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{DeviceType, Direction, CHUNK_SIZE};

    fn generator(seed: u64) -> TraceGenerator {
        TraceGenerator::new(TraceConfig::small(seed)).unwrap()
    }

    #[test]
    fn rejects_invalid_config() {
        let cfg = TraceConfig {
            mobile_users: 0,
            ..TraceConfig::default()
        };
        assert!(TraceGenerator::new(cfg).is_err());
    }

    #[test]
    fn rejects_values_the_samplers_cannot_take() {
        // Each edit used to panic inside a sampler or pass silently.
        let bad: [fn(&mut TraceConfig); 25] = [
            |c| c.session.intra_op_gap_sigma = 0.0,
            |c| c.session.intra_op_gap_median_s = f64::NAN,
            |c| c.session.straggler_gap_median_s = 0.0,
            |c| c.session.straggler_frac = 2.0,
            |c| c.session.files_per_session_zipf_s = 0.0,
            |c| c.activity.max_files = 0,
            |c| c.network.rtt_sigma = 0.0,
            |c| c.network.rtt_median_ms = 0.0,
            |c| c.network.srv_median_ms = -1.0,
            |c| c.network.chunk_sigma = 0.0,
            |c| c.network.pc_chunk_median_ms = f64::INFINITY,
            |c| c.network.window_bound_frac = 5.0,
            |c| c.engagement.daily_return_prob = 2.0,
            |c| c.engagement.daily_return_prob_multi = f64::NAN,
            |c| c.engagement.oneshot_1dev = 1.5,
            |c| c.engagement.oneshot_2dev = -0.1,
            |c| c.engagement.oneshot_3dev = f64::NAN,
            |c| c.engagement.oneshot_mobile_pc = 2.0,
            |c| c.engagement.pc_sync_same_day_prob = f64::NAN,
            |c| c.session.store_only_frac = -0.5,
            |c| c.session.retrieve_only_frac = f64::NAN,
            |c| c.session.store_only_frac = f64::NAN,
            |c| c.diurnal.weekend_factor = -1.0,
            |c| c.diurnal.weekend_factor = f64::NAN,
            |c| c.store_sizes.components = vec![(1.0, f64::INFINITY)],
        ];
        for (i, edit) in bad.iter().enumerate() {
            let mut cfg = TraceConfig::default();
            edit(&mut cfg);
            assert!(TraceGenerator::new(cfg).is_err(), "edit {i} was accepted");
        }
    }

    #[test]
    fn deterministic_per_user_and_globally() {
        let g1 = generator(7);
        let g2 = generator(7);
        let u = &g1.users()[17];
        assert_eq!(g1.user_records(u), g2.user_records(&g2.users()[17]));
        // Per-user generation is order-independent: generating another user
        // first must not change this user's records.
        let _ = g2.user_records(&g2.users()[3]);
        assert_eq!(g1.user_records(u), g2.user_records(&g2.users()[17]));
    }

    #[test]
    fn records_time_ordered_within_user() {
        let g = generator(8);
        for u in g.users().iter().take(100) {
            let recs = g.user_records(u);
            for w in recs.windows(2) {
                assert!(w[0].timestamp_ms <= w[1].timestamp_ms);
            }
        }
    }

    #[test]
    fn all_records_within_horizon() {
        let g = generator(9);
        let horizon = g.config().horizon_ms();
        for block in g.iter_user_records().take(200) {
            for r in block {
                assert!(r.timestamp_ms < horizon);
            }
        }
    }

    #[test]
    fn chunk_volume_bounded_by_chunk_size() {
        let g = generator(10);
        for block in g.iter_user_records().take(200) {
            for r in block {
                match r.request {
                    RequestType::Chunk(_) => {
                        assert!(r.volume_bytes > 0 && r.volume_bytes <= CHUNK_SIZE)
                    }
                    RequestType::FileOp(_) => assert_eq!(r.volume_bytes, 0),
                }
            }
        }
    }

    #[test]
    fn every_file_op_precedes_its_chunks() {
        // Weaker invariant that must always hold: within a user, the first
        // record of a session is a file operation.
        let g = generator(11);
        for u in g.users().iter().take(50) {
            let recs = g.user_records(u);
            if let Some(first) = recs.first() {
                assert!(first.request.is_file_op());
            }
        }
    }

    #[test]
    fn processing_time_exceeds_srv_share_for_chunks() {
        let g = generator(12);
        for block in g.iter_user_records().take(100) {
            for r in block {
                if r.request.is_chunk() {
                    assert!(r.processing_ms > r.srv_ms);
                    assert!(r.srv_ms > 0.0);
                    assert!(r.rtt_ms > 0.0);
                }
            }
        }
    }

    #[test]
    fn observed_generation_metrics_shard_invariant_across_thread_counts() {
        use crate::io::{open_trace, TraceFormat};
        use mcs_obs::Registry;

        let mut cfg = TraceConfig::small(24);
        cfg.mobile_users = 200;
        cfg.pc_only_users = 50;
        cfg.threads = 1;
        let blocks: Vec<Vec<LogRecord>> = TraceGenerator::new(cfg.clone())
            .unwrap()
            .iter_user_records()
            .collect();
        let flat: Vec<LogRecord> = blocks.iter().flatten().cloned().collect();
        let dir =
            std::env::temp_dir().join(format!("mcs-gen-test-observed-{}", std::process::id()));
        let mut base_snap = None;
        for threads in [1usize, 2, 3, 8] {
            cfg.threads = threads;
            let g = TraceGenerator::new(cfg.clone()).unwrap();
            let mut metrics = Registry::new();
            let sharded = g
                .write_shards_observed(&dir, TraceFormat::Columnar, 4, &mut metrics)
                .unwrap();
            let mut written = Vec::new();
            for p in &sharded.paths {
                for r in open_trace(p, TraceFormat::Columnar).unwrap() {
                    written.push(r.unwrap());
                }
            }
            assert_eq!(written, flat, "threads = {threads}");
            let snap = metrics.snapshot();
            let base = base_snap.get_or_insert_with(|| snap.clone());
            assert_eq!(base.counters["gen.users"], blocks.len() as u64);
            assert_eq!(base.counters["gen.records"], flat.len() as u64);
            assert_eq!(
                base.histograms["gen.user_records"].count,
                blocks.len() as u64
            );
            assert_eq!(&snap, base, "threads = {threads}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn block_source_indexes_users_in_order() {
        let g = generator(23);
        assert_eq!(BlockSource::len(&g), g.users().len());
        let direct = g.user_records(&g.users()[5]);
        assert_eq!(g.block(5), direct);
    }

    #[test]
    fn android_access_share_near_config() {
        let g = generator(14);
        let mut android = 0u64;
        let mut ios = 0u64;
        for block in g.iter_user_records() {
            for r in block {
                match r.device_type {
                    DeviceType::Android => android += 1,
                    DeviceType::Ios => ios += 1,
                    DeviceType::Pc => {}
                }
            }
        }
        let frac = android as f64 / (android + ios) as f64;
        // Access share tracks the device share within a few points.
        assert!((frac - 0.784).abs() < 0.08, "android access share {frac}");
    }

    #[test]
    fn store_chunks_outnumber_retrieve_chunk_requests_in_file_count() {
        // Fig. 1b: stored *files* per hour are over 2× retrieved files.
        let g = generator(15);
        let mut store_files = 0u64;
        let mut retrieve_files = 0u64;
        for block in g.iter_user_records() {
            for r in block {
                match r.request {
                    RequestType::FileOp(Direction::Store) => store_files += 1,
                    RequestType::FileOp(Direction::Retrieve) => retrieve_files += 1,
                    _ => {}
                }
            }
        }
        assert!(
            store_files as f64 > 1.5 * retrieve_files as f64,
            "store {store_files} vs retrieve {retrieve_files}"
        );
    }

    #[test]
    fn retrieval_volume_exceeds_storage_volume() {
        // Fig. 1a: retrievals carry more bytes than storage.
        let g = generator(16);
        let mut store_bytes = 0u64;
        let mut retrieve_bytes = 0u64;
        for block in g.iter_user_records() {
            for r in block {
                if r.request.is_chunk() {
                    match r.request.direction() {
                        Direction::Store => store_bytes += r.volume_bytes,
                        Direction::Retrieve => retrieve_bytes += r.volume_bytes,
                    }
                }
            }
        }
        assert!(
            retrieve_bytes > store_bytes,
            "retrieve {retrieve_bytes} vs store {store_bytes}"
        );
    }
}
