//! Replay a synthetic trace through the storage service.
//!
//! Bridges `mcs-trace` and the service substrate: every planned store
//! becomes a real `store()` (with content identity, so duplicates
//! deduplicate), every planned retrieval a real `retrieve()`. This is how
//! the workload-level findings (§2.4 load, §3.2 usage) exercise the §2.1
//! system end to end.
//!
//! Content identity follows one fixed model: each store is, with
//! probability 0.03, a duplicate of one of 64 popular objects (the same
//! pick is always the same bytes), and unique content otherwise. A user
//! who owns no stored file retrieves from that pool.
//!
//! [`replay`] is the one entry point. Under a non-empty [`FaultPlan`]
//! operations retry, fail over and sometimes fail, and the
//! [`ReplayStats`] grow degraded-mode accounting (failed ops, retries,
//! failovers, retry-inflated bytes, availability). [`FaultPlan::none`] is
//! fair weather: the service installs no empty plan, so that replay is
//! *bit-identical* to a fault-free one, snapshot included.
//!
//! [`ReplayConfig::resumable`] picks the service's [`RetryMode`]. With
//! `true` (the default) an interrupted transfer keeps its verified chunks,
//! retries move only what is missing, and the stats grow resume
//! accounting (`resumed_transfers`, `resume_saved_bytes`). With `false`
//! every retry restarts the file from byte zero — the baseline the §3.3
//! sync-efficiency comparison measures against.
//!
//! The replay runs in two phases (DESIGN.md §10.4). The *plan* phase walks
//! the trace in its original per-user order, so every RNG draw replays the
//! pre-timeline sequence bit for bit, and fixes each operation in 40 B: a
//! store keeps its number, size and popular-pool pick, from which its path
//! and content seed follow. The *execute* phase dispatches the planned ops
//! one after another — in plan order in fair weather and under an empty
//! plan (dedup attribution depends on order), in trace-time order under a
//! faulted one (fault windows are time-gated) — and counts them per
//! front-end into `sim.*`. A client stage on a second thread computes every
//! store's file and chunk MD5s ahead of the service stage, which sends each
//! store the manifest its client computed.

use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::{self, ScopedJoinHandle};

use mcs_faults::{ConfigError, FaultPlan, RetryPolicy};
use mcs_net::profile::{access_cap_bps, simulate_fair_share, FairFlowSpec, ProfileMix};
use mcs_obs::{CounterId, HistId, Registry, Snapshot};
use mcs_sim::MS;
use mcs_stats::rng::{stream_rng, Rng};
use mcs_trace::{Direction, TraceGenerator};

use crate::content::{chunk_count, Content, FileManifest};
use crate::error::ServiceError;
use crate::md5::Digest;
use crate::service::{RetrieveOutcome, RetryMode, StorageService};

/// Knobs for the replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig {
    /// Number of front-end servers.
    pub frontends: usize,
    /// RNG seed for duplicate selection.
    pub seed: u64,
    /// Run faulted operations in [`RetryMode::Resume`]: an interrupted
    /// transfer keeps its verified chunks and a retry moves only the
    /// missing ones. `false` runs [`RetryMode::WholeFile`] — the
    /// comparison baseline for the §3.3 sync-efficiency question.
    /// Fair-weather replays are bit-identical either way.
    pub resumable: bool,
    /// Radio-access population for the network model: when set, every
    /// user draws a [`mcs_net::LinkProfile`] from this seeded mix, the
    /// bytes each operation actually moved become flows on their
    /// front-end's shared link, and [`simulate_fair_share`] turns them
    /// into the `net.profile.*` metric families. `None` (the default)
    /// skips the network pass entirely, keeping snapshots bit-identical
    /// to pre-profile replays.
    pub profiles: Option<ProfileMix>,
    /// Shared front-end link rate the per-front-end flows split
    /// max-min-fairly, bits per second. Only read when `profiles` is set.
    pub frontend_link_bps: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            frontends: 8,
            seed: 7,
            resumable: true,
            profiles: None,
            frontend_link_bps: 10_000_000_000,
        }
    }
}

/// Replay outcome summary.
///
/// The fault fields stay zero on fair-weather replays, so existing
/// consumers see unchanged numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayStats {
    /// Files stored successfully.
    pub stores: u64,
    /// Files retrievals attempted.
    pub retrieves: u64,
    /// Bytes actually uploaded (after dedup).
    pub bytes_uploaded: u64,
    /// Bytes the dedup avoided uploading.
    pub bytes_deduplicated: u64,
    /// Bytes served on retrievals.
    pub bytes_downloaded: u64,
    /// Retrievals that failed to resolve (should be zero fair-weather).
    pub retrieve_misses: u64,
    /// Stores that exhausted their retry budget under faults.
    pub failed_stores: u64,
    /// Retrievals defeated by faults. This counts *user-visible* retrieve
    /// defeats: when a shared-pool read must first seed the popular object
    /// and that internal store fails, the defeat is charged here (the user
    /// asked to retrieve), not to `failed_stores` (which counts only the
    /// workload's own planned stores).
    pub failed_retrieves: u64,
    /// Backoff-and-retry rounds the service issued.
    pub retries: u64,
    /// Uploads redirected past a down front-end.
    pub failovers: u64,
    /// Chunk transfers that timed out during brownouts.
    pub chunk_timeouts: u64,
    /// Bytes moved by attempts that did not complete (retry inflation).
    pub retry_bytes: u64,
    /// Transfer attempts that started with partial progress already
    /// verified (resumable protocol only).
    pub resumed_transfers: u64,
    /// Bytes resumes did not re-move that whole-file retries would have.
    pub resume_saved_bytes: u64,
}

impl ReplayStats {
    /// Fraction of workload operations that completed despite faults:
    /// `ok / (stores + failed_stores + retrieves)` where `ok` counts
    /// successful stores plus retrievals that were not fault-defeated
    /// (a clean "not found" is not an availability event). Both sides
    /// count *user-visible* operations — a shared-pool retrieve defeated
    /// by its internal seeding store is one failed retrieve, never a
    /// phantom store attempt. `1.0` for an empty replay.
    pub fn availability(&self) -> f64 {
        let total = self.stores + self.failed_stores + self.retrieves;
        if total == 0 {
            return 1.0;
        }
        let ok = self.stores + self.retrieves - self.failed_retrieves;
        ok as f64 / total as f64
    }
}

/// Probability that an upload is a duplicate of shared popular content
/// (the same video forwarded around — what makes the §2.1 dedup pay).
const DUPLICATE_PROB: f64 = 0.03;
/// Size of the popular-content pool duplicates are drawn from.
const POPULAR_POOL: u8 = 64;
/// Size of popular-pool object 0, bytes.
const POPULAR_BASE: u64 = 1_000_000;
/// Size step between consecutive popular-pool objects, bytes.
const POPULAR_STEP: u64 = 450_000;

/// Deterministic size of popular-pool object `pick` (photo- to
/// clip-sized, 1 MB to about 29 MB).
fn popular_size(pick: u8) -> u64 {
    POPULAR_BASE + u64::from(pick) * POPULAR_STEP
}

/// Replays every planned session of `gen` into a fresh service under
/// `plan`, backing off per `retry`, and returns the service, the stats
/// and a stable-ordered metric [`Snapshot`]: the `replay.*` counters and
/// size histograms merged with the service's `storage.*`/`transfer.*`
/// counters and the `sim.*` counts of dispatched ops.
///
/// Under a non-empty plan the service backs off through metadata
/// outages, fails uploads over past down front-ends, re-sends timed-out
/// chunks, and gives up (degrading, never panicking) when `retry` allows
/// no more. Pass [`FaultPlan::none`] for fair weather.
///
/// Deterministic in `(gen, cfg, plan, retry)` — per-operation fault coins
/// are stateless hashes and faulted operations execute in global trace-time
/// order (not per-user plan order), so the outputs are bit-identical
/// across runs and thread counts. Fails only on invalid configuration
/// (zero front-ends, an invalid profile mix, front-end link rate or retry
/// policy).
pub fn replay(
    gen: &TraceGenerator,
    cfg: &ReplayConfig,
    plan: &FaultPlan,
    retry: RetryPolicy,
) -> Result<(StorageService, ReplayStats, Snapshot), ConfigError> {
    let (mut eng, ops) = setup(gen, cfg, plan, retry)?;
    execute(&mut eng, &ops, plan);
    if let Some(mix) = &cfg.profiles {
        book_profile_flows(&mut eng, &ops, cfg, mix)?;
    }
    let ReplayEngine {
        svc, mut obs, ids, ..
    } = eng;
    // One registry carries every layer: replay.*, the service's storage.*
    // and transfer.*, and the sim.* counts of dispatched ops per
    // front-end. The stats and the snapshot are both read from it.
    obs.merge(svc.metrics());
    let count = |name: &str| obs.counter_by_name(name).unwrap_or(0);
    let stats = ReplayStats {
        stores: obs.counter_value(ids.stores),
        retrieves: obs.counter_value(ids.retrieves),
        bytes_uploaded: obs.counter_value(ids.bytes_uploaded),
        bytes_deduplicated: obs.counter_value(ids.bytes_deduplicated),
        bytes_downloaded: obs.counter_value(ids.bytes_downloaded),
        retrieve_misses: obs.counter_value(ids.retrieve_misses),
        failed_stores: obs.counter_value(ids.failed_stores),
        failed_retrieves: obs.counter_value(ids.failed_retrieves),
        retries: count("storage.retries"),
        failovers: count("storage.failovers"),
        chunk_timeouts: count("storage.chunk_timeouts"),
        retry_bytes: count("storage.retry_bytes"),
        resumed_transfers: count("transfer.resumed_sessions"),
        resume_saved_bytes: count("transfer.resume_saved_bytes"),
    };
    Ok((svc, stats, obs.snapshot()))
}

/// Rejects an invalid profile mix or front-end link rate when the network
/// pass is on. Front-end counts and fault plans are the service's to
/// check.
fn validate(cfg: &ReplayConfig) -> Result<(), ConfigError> {
    if let Some(mix) = &cfg.profiles {
        mix.validate()?;
        if cfg.frontend_link_bps == 0 {
            return Err(ConfigError::OutOfRange {
                what: "front-end link rate",
                requirement: "must be positive",
            });
        }
    }
    Ok(())
}

/// Planned stores per block of digests the client stage hands over.
const STORES_PER_BLOCK: usize = 256;

/// Full blocks the client stage may compute ahead of the service stage:
/// about 16 k stores, 1.3 MB of digests at fleet sizes, some 40 ms of
/// dispatch work, so the dispatch loop rides out the client thread losing
/// its core for a scheduler slice.
const BLOCKS_AHEAD: usize = 64;

/// Runs the planned ops one after another in dispatch order, and books
/// `sim.steps` and one `sim.events.frontend/<fe>` counter per front-end:
/// the ops dispatched, in all and by the user's front-end.
///
/// The work runs in the protocol's two stages (§2.1). The client stage,
/// one scoped thread, computes each planned store's file and chunk
/// digests in dispatch order ([`hash_stores`]). The service stage, this
/// thread, dispatches the ops and builds each store's manifest from the
/// next digests handed over ([`Handover`]). A digest depends only on its
/// content's seed and size and the chunk index, and the digests are read
/// in the order they were computed, so the outputs are those of hashing
/// inline.
fn execute(eng: &mut ReplayEngine, ops: &[PlannedOp], plan: &FaultPlan) {
    let order = DispatchOrder::new(ops, plan);
    let mut per_fe = vec![0; eng.svc.frontends().len()];
    thread::scope(|s| {
        let (tx, blocks) = sync_channel(BLOCKS_AHEAD);
        let order = &order;
        let client = s.spawn(move || hash_stores(ops, order.iter(), STORES_PER_BLOCK, tx));
        let mut handover = Handover::new(blocks, client);
        for i in order.iter() {
            let op = &ops[i];
            per_fe[eng.svc.metadata().closest_frontend(op.user)] += 1;
            match op.kind {
                PlannedKind::Store { seq, size, .. } => {
                    let manifest = handover.manifest(store_path(op.user, seq), size);
                    eng.store(i, op, seq, manifest);
                }
                PlannedKind::Retrieve { fallback } => eng.retrieve(i, op, fallback),
            }
        }
    });
    let steps = eng.obs.counter("sim.steps");
    eng.obs.add(steps, per_fe.iter().sum());
    for (fe, &n) in per_fe.iter().enumerate() {
        let id = eng.obs.counter(&format!("sim.events.frontend/{fe}"));
        eng.obs.add(id, n);
    }
}

/// The order the planned ops are dispatched in. In fair weather (and
/// under an empty plan) that is plan order. Under a plan it is trace-time
/// order: plan indices stably sorted by deadline, so ops with equal
/// deadlines keep plan order.
struct DispatchOrder {
    len: usize,
    /// The deadline order; `None` is plan order, which needs no index
    /// vector.
    by_deadline: Option<Vec<usize>>,
}

impl DispatchOrder {
    fn new(ops: &[PlannedOp], plan: &FaultPlan) -> Self {
        let by_deadline = (!plan.is_empty()).then(|| {
            let mut order: Vec<usize> = (0..ops.len()).collect();
            order.sort_by_key(|&i| op_deadline_us(ops[i].at_ms));
            order
        });
        Self {
            len: ops.len(),
            by_deadline,
        }
    }

    /// Plan indices in dispatch order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let by_deadline = self.by_deadline.as_deref();
        (0..self.len).map(move |pos| by_deadline.map_or(pos, |order| order[pos]))
    }
}

/// The client stage: computes, for every planned store in `order`, its
/// file digest followed by its chunk digests (the MD5s of §2.1's
/// manifest), and sends them to the service stage `per_block` stores to a
/// block. Stops early if the service stage hangs up, which it does only
/// by panicking.
fn hash_stores(
    ops: &[PlannedOp],
    order: impl Iterator<Item = usize>,
    per_block: usize,
    blocks: SyncSender<Vec<Digest>>,
) {
    let mut block = Vec::new();
    let mut stores = 0;
    for i in order {
        let PlannedKind::Store { seq, size, pool } = ops[i].kind else {
            continue;
        };
        // A pool pick is its own seed; unique content has one of its own.
        let seed = pool.map_or(1_000_000 + seq, u64::from);
        let content = Content::Synthetic { seed, size };
        block.push(content.file_digest());
        block.extend((0..chunk_count(size)).map(|c| content.chunk_digest(c)));
        stores += 1;
        if stores == per_block {
            let next = Vec::with_capacity(block.len());
            let full = std::mem::replace(&mut block, next);
            if blocks.send(full).is_err() {
                return;
            }
            stores = 0;
        }
    }
    if stores > 0 {
        // An error means the service stage is gone; there is no one left
        // to tell.
        let _ = blocks.send(block);
    }
}

/// The service stage's end of the hand-over: the client stage's blocks,
/// read in the order they were sent, and the client itself, whose panic
/// it re-raises.
struct Handover<'scope> {
    blocks: Receiver<Vec<Digest>>,
    client: Option<ScopedJoinHandle<'scope, ()>>,
    block: Vec<Digest>,
    /// Where the next store's digests start in `block`.
    at: usize,
}

impl<'scope> Handover<'scope> {
    fn new(blocks: Receiver<Vec<Digest>>, client: ScopedJoinHandle<'scope, ()>) -> Self {
        Self {
            blocks,
            client: Some(client),
            block: Vec::new(),
            at: 0,
        }
    }

    /// The manifest of the next planned store in dispatch order, a
    /// `size`-byte file named `name`. Blocks hold whole stores, so a
    /// store's digests never straddle two blocks.
    fn manifest(&mut self, name: String, size: u64) -> FileManifest {
        if self.at == self.block.len() {
            self.block = self.next_block();
            self.at = 0;
        }
        let chunks = self.at + 1..self.at + 1 + chunk_count(size) as usize;
        let manifest = FileManifest {
            name,
            size,
            file_digest: self.block[self.at],
            chunk_digests: self.block[chunks.clone()].to_vec(),
        };
        self.at = chunks.end;
        manifest
    }

    fn next_block(&mut self) -> Vec<Digest> {
        match self.blocks.recv() {
            Ok(block) => block,
            // The client stage closes the channel before the last store
            // only by panicking: join it and continue its panic here,
            // payload intact. (Both stages walk one order, so a client
            // that returned has sent every store; the empty block would
            // fail the slice in `manifest`.)
            Err(_) => match self.client.take().map(ScopedJoinHandle::join) {
                Some(Err(panic)) => resume_unwind(panic),
                _ => Vec::new(),
            },
        }
    }
}

/// Validates the config, builds the engine and plans the trace.
fn setup(
    gen: &TraceGenerator,
    cfg: &ReplayConfig,
    plan: &FaultPlan,
    retry: RetryPolicy,
) -> Result<(ReplayEngine, Vec<PlannedOp>), ConfigError> {
    validate(cfg)?;
    let horizon_hours = (gen.config().horizon_ms() / 3_600_000) as usize;
    let mut svc = StorageService::new(cfg.frontends, horizon_hours)?;
    let mode = if cfg.resumable {
        RetryMode::Resume
    } else {
        RetryMode::WholeFile
    };
    svc.set_fault_plan(plan.clone(), retry, mode)?;
    let mut obs = Registry::new();
    let ids = ReplayIds::register(&mut obs);
    let ops = plan_ops(gen, cfg);
    let eng = ReplayEngine {
        svc,
        obs,
        ids,
        op_bytes: vec![0; ops.len()],
        owned: BTreeMap::new(),
    };
    Ok((eng, ops))
}

/// [`replay`] in fair weather (under [`FaultPlan::none`]).
pub fn replay_trace_observed(
    gen: &TraceGenerator,
    cfg: &ReplayConfig,
) -> Result<(StorageService, ReplayStats, Snapshot), ConfigError> {
    replay(
        gen,
        cfg,
        &FaultPlan::none(cfg.frontends),
        RetryPolicy::default(),
    )
}

/// [`replay`] under a fault plan; the same call under another name.
pub fn replay_trace_faulted_observed(
    gen: &TraceGenerator,
    cfg: &ReplayConfig,
    plan: &FaultPlan,
    retry: RetryPolicy,
) -> Result<(StorageService, ReplayStats, Snapshot), ConfigError> {
    replay(gen, cfg, plan, retry)
}

/// Handles into the replay's metric registry. [`ReplayStats`] is read
/// from these counters and the service's, merged, at the end of the run,
/// so the struct consumers destructure and the exported snapshot can
/// never disagree.
struct ReplayIds {
    stores: CounterId,
    retrieves: CounterId,
    bytes_uploaded: CounterId,
    bytes_deduplicated: CounterId,
    bytes_downloaded: CounterId,
    retrieve_misses: CounterId,
    failed_stores: CounterId,
    failed_retrieves: CounterId,
    store_bytes: HistId,
    retrieve_bytes: HistId,
}

impl ReplayIds {
    fn register(obs: &mut Registry) -> Self {
        Self {
            stores: obs.counter("replay.stores"),
            retrieves: obs.counter("replay.retrieves"),
            bytes_uploaded: obs.counter("replay.bytes_uploaded"),
            bytes_deduplicated: obs.counter("replay.bytes_deduplicated"),
            bytes_downloaded: obs.counter("replay.bytes_downloaded"),
            retrieve_misses: obs.counter("replay.retrieve_misses"),
            failed_stores: obs.counter("replay.failed_stores"),
            failed_retrieves: obs.counter("replay.failed_retrieves"),
            store_bytes: obs.histogram("replay.store_bytes"),
            retrieve_bytes: obs.histogram("replay.retrieve_bytes"),
        }
    }
}

/// One planned service call. The plan fixes everything random *before*
/// execution, so a faulted replay may dispatch operations in global
/// time order while every RNG draw replays the original per-user plan
/// order. A store's path is formatted from its number at dispatch, and its
/// content seed derived from its number and pool pick ([`hash_stores`]).
#[derive(Debug, Clone)]
enum PlannedKind {
    Store {
        seq: u64,
        size: u64,
        pool: Option<u8>,
    },
    Retrieve {
        fallback: u8,
    },
}

#[derive(Debug, Clone)]
struct PlannedOp {
    user: u64,
    at_ms: u64,
    kind: PlannedKind,
}

/// Absolute µs deadline for a trace op stamped at `at_ms`. Saturates at
/// the end of time: the bare `* 1000` it replaces wrapped for
/// `at_ms > u64::MAX / 1000`, scheduling the op in the *past* and
/// silently reordering a faulted replay.
fn op_deadline_us(at_ms: u64) -> u64 {
    at_ms.saturating_mul(MS)
}

/// The path of `user`'s planned store number `seq`.
fn store_path(user: u64, seq: u64) -> String {
    format!("u{user}/f{seq}")
}

/// Plan phase: walk the trace exactly like the pre-timeline replay loop
/// did — user by user, sessions chronological within each user — and draw
/// from the same RNG stream at the same points, so the planned workload is
/// bit-identical to what the old single loop executed.
fn plan_ops(gen: &TraceGenerator, cfg: &ReplayConfig) -> Vec<PlannedOp> {
    let mut rng = stream_rng(cfg.seed, 0x5EB1A4);
    // Disjoint stream for the shared-pool fallback of users who *do* own
    // files. That branch is reachable only when their stores failed under
    // faults; drawing it from stream A would shift every later fair-weather
    // draw, so it gets its own stream.
    let mut fallback_rng = stream_rng(cfg.seed, 0x5EB1A5);
    let mut ops = Vec::new();
    let mut seq: u64 = 0;
    for user in gen.users() {
        let mut has_store = false;
        for session in gen.user_sessions(user) {
            for f in &session.files {
                match f.direction {
                    Direction::Store => {
                        seq += 1;
                        let (pool, size) = if rng.random::<f64>() < DUPLICATE_PROB {
                            // Popular content has a fixed identity: the
                            // same pick always means the same bytes (and
                            // size), otherwise nothing would ever dedup.
                            let pick = rng.random_range(0..POPULAR_POOL);
                            (Some(pick), popular_size(pick))
                        } else {
                            (None, f.size.max(1))
                        };
                        has_store = true;
                        ops.push(PlannedOp {
                            user: user.user_id,
                            at_ms: session.start_ms,
                            kind: PlannedKind::Store { seq, size, pool },
                        });
                    }
                    Direction::Retrieve => {
                        // Download-only users fetch shared content by URL
                        // in reality; model as popular-pool reads. Fair
                        // weather uses the fallback only when the user has
                        // no planned store, which is exactly when the old
                        // loop drew it from stream A.
                        let fallback = if has_store {
                            fallback_rng.random_range(0..POPULAR_POOL)
                        } else {
                            rng.random_range(0..POPULAR_POOL)
                        };
                        ops.push(PlannedOp {
                            user: user.user_id,
                            at_ms: session.start_ms,
                            kind: PlannedKind::Retrieve { fallback },
                        });
                    }
                }
            }
        }
    }
    ops
}

/// Execute phase: the service and the books planned operations are
/// dispatched into. The service never keeps its own clock: "now" is the
/// operation's trace timestamp, in either dispatch order.
struct ReplayEngine {
    svc: StorageService,
    obs: Registry,
    ids: ReplayIds,
    /// The plan number of the last file each user stored successfully,
    /// which that user's retrieves fetch. Per-user execution order equals
    /// plan order in both dispatch orders: sessions are chronologically
    /// sorted and the deadline order keeps plan order among equal
    /// deadlines.
    owned: BTreeMap<u64, u64>,
    /// Bytes each planned op actually moved over the network (post-dedup
    /// uploads, served downloads; 0 for metadata-only or failed ops).
    /// Input to the fair-share network pass when
    /// [`ReplayConfig::profiles`] is set.
    op_bytes: Vec<u64>,
}

impl ReplayEngine {
    /// Books the outcome of planned op `op`'s counted retrieve.
    fn book_retrieve(&mut self, op: usize, got: Result<RetrieveOutcome, ServiceError>) {
        match got {
            Ok(got) => {
                self.obs
                    .add(self.ids.bytes_downloaded, got.bytes_downloaded);
                self.obs
                    .observe(self.ids.retrieve_bytes, got.bytes_downloaded);
                self.op_bytes[op] = got.bytes_downloaded;
            }
            Err(ServiceError::NotFound) => self.obs.inc(self.ids.retrieve_misses),
            Err(_) => self.obs.inc(self.ids.failed_retrieves),
        }
    }

    /// Runs planned store `i`, `op`'s user's file number `seq`, sending
    /// the manifest its client computed.
    fn store(&mut self, i: usize, op: &PlannedOp, seq: u64, manifest: FileManifest) {
        let size = manifest.size;
        match self.svc.store(op.user, manifest, op.at_ms) {
            Ok(out) => {
                self.obs.inc(self.ids.stores);
                self.obs.add(self.ids.bytes_uploaded, out.bytes_uploaded);
                self.op_bytes[i] = out.bytes_uploaded;
                self.obs.observe(self.ids.store_bytes, size);
                if out.deduplicated {
                    self.obs.add(self.ids.bytes_deduplicated, size);
                }
                self.owned.insert(op.user, seq);
            }
            // The budget ran out; the file never made it into the
            // namespace, so it is not `owned`.
            Err(_) => self.obs.inc(self.ids.failed_stores),
        }
    }

    /// Runs planned retrieve `i`: the last file `op`'s user stored, or
    /// popular-pool object `fallback` for a user who owns none.
    fn retrieve(&mut self, i: usize, op: &PlannedOp, fallback: u8) {
        let (user, now_ms) = (op.user, op.at_ms);
        self.obs.inc(self.ids.retrieves);
        match self.owned.get(&user) {
            Some(&seq) => {
                let got = self.svc.retrieve(user, &store_path(user, seq), now_ms);
                self.book_retrieve(i, got);
            }
            None => {
                let seed = u64::from(fallback);
                // Ensure the shared object exists (first toucher uploads
                // it), then serve it. A fault anywhere — including the
                // internal seeding store — defeats the user-visible
                // *retrieve*, so that is what it charges (see
                // `ReplayStats::failed_retrieves`).
                let name = format!("shared/{seed}");
                let owner = u64::MAX - seed;
                match self.svc.retrieve(owner, &name, now_ms) {
                    Ok(_) => {} // exists; the counted retrieve follows
                    Err(ServiceError::NotFound) => {
                        // The seeding client hashes its manifest inline.
                        let content = Content::Synthetic {
                            seed,
                            size: popular_size(fallback),
                        };
                        let manifest = FileManifest::build(name.as_str(), &content);
                        if self.svc.store(owner, manifest, now_ms).is_err() {
                            self.obs.inc(self.ids.failed_retrieves);
                            return;
                        }
                    }
                    Err(_) => {
                        self.obs.inc(self.ids.failed_retrieves);
                        return;
                    }
                }
                let got = self.svc.retrieve(owner, &name, now_ms);
                self.book_retrieve(i, got);
            }
        }
    }
}

/// The fleet network pass (see [`ReplayConfig::profiles`]): every byte-
/// moving operation becomes one flow on its front-end's shared link, its
/// fair share capped by the user's own radio-access link (drawn per user
/// from the seeded mix), and the fluid fair-share model prices the
/// contention. Books the `net.profile.*` metric families:
/// flow counts and bytes per profile, transfer-time histograms per
/// profile, allocation recomputes, and per-front-end peak concurrency.
///
/// Runs after the service replay and reads only planned ops and their
/// realised byte counts, so it never perturbs the service-layer numbers;
/// iteration is in front-end then op order, so the booked metrics are
/// deterministic across runs and thread counts. Each front-end's flows are
/// built, priced and booked before the next front-end's are built.
fn book_profile_flows(
    eng: &mut ReplayEngine,
    ops: &[PlannedOp],
    cfg: &ReplayConfig,
    mix: &ProfileMix,
) -> Result<(), ConfigError> {
    // Mobile clients scale their receive window (2–4 MB); the deployed
    // upload path is clamped at the unscaled 64 KB (§4.1).
    const UPLOAD_RWND: u64 = 65_535;
    const DOWNLOAD_RWND: u64 = 2 * 1024 * 1024;
    // The plan holds each user's ops in one run: every run's front-end,
    // looked up once, and plan range, grouped by front-end in plan order.
    let mut runs: Vec<(usize, Range<usize>)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match runs.last_mut() {
            Some((_, run)) if ops[run.start].user == op.user => run.end = i + 1,
            _ => runs.push((eng.svc.metadata().closest_frontend(op.user), i..i + 1)),
        }
    }
    runs.sort_by_key(|(fe, _)| *fe);
    // A run's ops that moved bytes: a zero-byte op is metadata-only
    // (deduplicated store), failed or empty.
    let op_bytes = &eng.op_bytes;
    let moving = |run: &Range<usize>| run.clone().filter(move |&i| op_bytes[i] > 0);
    let recomputes = eng.obs.counter("net.profile.recomputes");
    let peak = eng.obs.histogram("net.profile.peak_active");
    let mut ids: BTreeMap<&'static str, (CounterId, CounterId, HistId)> = BTreeMap::new();
    for home in runs.chunk_by(|a, b| a.0 == b.0) {
        let mut flows = Vec::with_capacity(home.iter().map(|(_, run)| moving(run).count()).sum());
        for (_, run) in home {
            let user = ops[run.start].user;
            let link = mix.draw(cfg.seed, user).user_link(cfg.seed, user);
            let up = access_cap_bps(&link, UPLOAD_RWND);
            let down = access_cap_bps(&link, DOWNLOAD_RWND);
            flows.extend(moving(run).map(|i| FairFlowSpec {
                arrival: op_deadline_us(ops[i].at_ms),
                bytes: op_bytes[i],
                rate_cap_bps: match ops[i].kind {
                    PlannedKind::Store { .. } => up,
                    PlannedKind::Retrieve { .. } => down,
                },
            }));
        }
        if flows.is_empty() {
            continue;
        }
        let out = simulate_fair_share(cfg.frontend_link_bps, &flows)?;
        eng.obs.add(recomputes, out.recomputes);
        eng.obs.observe(peak, out.peak_active);
        // Each flow's profile name, drawn again per run rather than kept.
        let named = home.iter().flat_map(|(_, run)| {
            let name = mix.draw(cfg.seed, ops[run.start].user).name;
            moving(run).map(move |i| (i, name))
        });
        for ((i, name), &duration) in named.zip(&out.durations) {
            let (flows_id, bytes_id, time_id) = *ids.entry(name).or_insert_with(|| {
                (
                    eng.obs.counter(&format!("net.profile.flows.{name}")),
                    eng.obs.counter(&format!("net.profile.bytes.{name}")),
                    eng.obs
                        .histogram(&format!("net.profile.transfer_us.{name}")),
                )
            });
            eng.obs.inc(flows_id);
            eng.obs.add(bytes_id, op_bytes[i]);
            eng.obs.observe(time_id, duration);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_faults::FaultPlanConfig;
    use mcs_sim::EventQueue;
    use mcs_trace::TraceConfig;

    /// The content seed `hash_stores` gives planned store `seq`.
    fn content_seed(seq: u64, pool: Option<u8>) -> u64 {
        pool.map_or(1_000_000 + seq, u64::from)
    }

    fn small_gen(seed: u64) -> TraceGenerator {
        TraceGenerator::new(TraceConfig {
            seed,
            mobile_users: 250,
            pc_only_users: 60,
            ..TraceConfig::default()
        })
        .unwrap()
    }

    /// A fair-weather replay.
    fn fair(
        gen: &TraceGenerator,
        cfg: &ReplayConfig,
    ) -> Result<(StorageService, ReplayStats, Snapshot), ConfigError> {
        replay(
            gen,
            cfg,
            &FaultPlan::none(cfg.frontends),
            RetryPolicy::default(),
        )
    }

    /// `small_gen(57)`'s week under heavy, long outages.
    fn aggressive_plan(gen: &TraceGenerator, cfg: &ReplayConfig) -> FaultPlan {
        FaultPlan::generate(&FaultPlanConfig {
            seed: 3,
            horizon_ms: gen.config().horizon_ms(),
            n_frontends: cfg.frontends,
            frontend_outages_per_day: 24.0,
            frontend_outage_mean_ms: 1_800_000.0,
            frontend_brownouts_per_day: 24.0,
            frontend_brownout_mean_ms: 3_600_000.0,
            chunk_timeout_prob: 0.9,
            metadata_outages_per_day: 12.0,
            metadata_outage_mean_ms: 600_000.0,
        })
        .unwrap()
    }

    /// The network pass as it was before it priced one front-end at a
    /// time: every front-end's specs built first, then each priced and
    /// booked. Kept as the reference the per-front-end pass must match.
    fn book_all_at_once(
        eng: &mut ReplayEngine,
        ops: &[PlannedOp],
        cfg: &ReplayConfig,
        mix: &ProfileMix,
    ) -> Result<(), ConfigError> {
        let mut per_fe: Vec<Vec<FairFlowSpec>> = vec![Vec::new(); cfg.frontends];
        let mut names: Vec<Vec<&'static str>> = vec![Vec::new(); cfg.frontends];
        for (i, op) in ops.iter().enumerate() {
            let bytes = eng.op_bytes[i];
            if bytes == 0 {
                continue;
            }
            let profile = mix.draw(cfg.seed, op.user);
            let link = profile.user_link(cfg.seed, op.user);
            let rwnd = match op.kind {
                PlannedKind::Store { .. } => 65_535,
                PlannedKind::Retrieve { .. } => 2 * 1024 * 1024,
            };
            let fe = eng.svc.metadata().closest_frontend(op.user);
            per_fe[fe].push(FairFlowSpec {
                arrival: op_deadline_us(op.at_ms),
                bytes,
                rate_cap_bps: access_cap_bps(&link, rwnd),
            });
            names[fe].push(profile.name);
        }
        let recomputes = eng.obs.counter("net.profile.recomputes");
        let peak = eng.obs.histogram("net.profile.peak_active");
        let mut ids: BTreeMap<&'static str, (CounterId, CounterId, HistId)> = BTreeMap::new();
        for (flows, flow_names) in per_fe.iter().zip(&names) {
            if flows.is_empty() {
                continue;
            }
            let out = simulate_fair_share(cfg.frontend_link_bps, flows)?;
            eng.obs.add(recomputes, out.recomputes);
            eng.obs.observe(peak, out.peak_active);
            for (k, spec) in flows.iter().enumerate() {
                let name = flow_names[k];
                let (flows_id, bytes_id, time_id) = *ids.entry(name).or_insert_with(|| {
                    (
                        eng.obs.counter(&format!("net.profile.flows.{name}")),
                        eng.obs.counter(&format!("net.profile.bytes.{name}")),
                        eng.obs
                            .histogram(&format!("net.profile.transfer_us.{name}")),
                    )
                });
                eng.obs.inc(flows_id);
                eng.obs.add(bytes_id, spec.bytes);
                eng.obs.observe(time_id, out.durations[k]);
            }
        }
        Ok(())
    }

    #[test]
    fn per_frontend_network_pass_books_what_the_all_at_once_pass_booked() {
        for seed in [43, 44] {
            let gen = small_gen(seed);
            let cfg = ReplayConfig {
                seed,
                profiles: Some(ProfileMix::mobile()),
                // Slow enough that each front-end's flows overlap.
                frontend_link_bps: 2_000_000,
                ..ReplayConfig::default()
            };
            let mix = ProfileMix::mobile();
            let rough = FaultPlan::generate(&FaultPlanConfig {
                seed,
                horizon_ms: gen.config().horizon_ms(),
                n_frontends: cfg.frontends,
                ..FaultPlanConfig::default()
            })
            .unwrap();
            for plan in [FaultPlan::none(cfg.frontends), rough] {
                let retry = RetryPolicy::default();
                let (mut reference, ops) = setup(&gen, &cfg, &plan, retry).unwrap();
                execute(&mut reference, &ops, &plan);
                book_all_at_once(&mut reference, &ops, &cfg, &mix).unwrap();
                reference.obs.merge(reference.svc.metrics());
                let want = reference.obs.snapshot();
                let (_, _, got) = replay(&gen, &cfg, &plan, retry).unwrap();
                assert_eq!(got.to_json(), want.to_json(), "seed {seed}");
                let peak = &got.histograms["net.profile.peak_active"];
                assert_eq!(peak.count, cfg.frontends as u64, "every front-end priced");
                assert!(peak.max > 1, "flows must overlap: {peak:?}");
            }
        }
    }

    /// Runs the execute phase as it was before it became a loop and
    /// before it hashed on a second thread: on a queue pre-filled with
    /// every op in plan order, at its deadline under a plan or at its plan
    /// index in fair weather, dispatched in the queue's (time, insertion)
    /// order, each event counted against its front-end, each store hashing
    /// its manifest inline. Returns the plan indices in dispatch order and
    /// the snapshot JSON.
    fn prefilled_queue(
        gen: &TraceGenerator,
        cfg: &ReplayConfig,
        plan: &FaultPlan,
    ) -> (Vec<usize>, String) {
        let (mut eng, ops) = setup(gen, cfg, plan, RetryPolicy::default()).unwrap();
        let mut q = EventQueue::new();
        for (i, op) in ops.iter().enumerate() {
            let at = if plan.is_empty() {
                i as u64
            } else {
                op_deadline_us(op.at_ms)
            };
            q.schedule(at, i);
        }
        let mut seq = Vec::new();
        let mut events = vec![0; cfg.frontends];
        while let Some((_, i)) = q.pop() {
            seq.push(i);
            let op = &ops[i];
            events[eng.svc.metadata().closest_frontend(op.user)] += 1;
            match op.kind {
                PlannedKind::Store { seq: n, size, pool } => {
                    let seed = content_seed(n, pool);
                    let content = Content::Synthetic { seed, size };
                    let manifest = FileManifest::build(store_path(op.user, n), &content);
                    eng.store(i, op, n, manifest);
                }
                PlannedKind::Retrieve { fallback } => eng.retrieve(i, op, fallback),
            }
        }
        let steps = eng.obs.counter("sim.steps");
        eng.obs.add(steps, seq.len() as u64);
        for (fe, &n) in events.iter().enumerate() {
            let id = eng.obs.counter(&format!("sim.events.frontend/{fe}"));
            eng.obs.add(id, n);
        }
        eng.obs.merge(eng.svc.metrics());
        (seq, eng.obs.snapshot().to_json())
    }

    #[test]
    fn chained_schedule_dispatches_what_the_prefilled_queue_did() {
        let gen = small_gen(57);
        let cfg = ReplayConfig::default();
        let rough = FaultPlan::generate(&FaultPlanConfig {
            seed: 57,
            horizon_ms: gen.config().horizon_ms(),
            n_frontends: cfg.frontends,
            ..FaultPlanConfig::default()
        })
        .unwrap();
        for plan in [FaultPlan::none(cfg.frontends), rough] {
            let (want, want_json) = prefilled_queue(&gen, &cfg, &plan);
            let ops = plan_ops(&gen, &cfg);
            let got: Vec<usize> = DispatchOrder::new(&ops, &plan).iter().collect();
            assert!(got.len() > 1000, "{} ops", got.len());
            assert_eq!(got, want, "time-gated: {}", !plan.is_empty());
            let (_, _, snap) = replay(&gen, &cfg, &plan, RetryPolicy::default()).unwrap();
            assert_eq!(
                snap.to_json(),
                want_json,
                "replay dispatches as the queue did"
            );
            if !plan.is_empty() {
                // All files of a session share its start: the stable sort
                // must keep plan order among these.
                let ties = got
                    .windows(2)
                    .filter(|w| ops[w[0]].at_ms == ops[w[1]].at_ms)
                    .count();
                assert!(ties > 100, "only {ties} same-deadline ties");
            }
        }
    }

    #[test]
    fn handover_builds_every_manifest_across_block_edges() {
        use crate::content::CHUNK_SIZE;
        let gen = small_gen(43);
        let cfg = ReplayConfig::default();
        let mut ops = plan_ops(&gen, &cfg);
        // The planner never plans an empty file and seldom an exact
        // number of chunks: give every fifth store such a size.
        let edges = [
            0,
            1,
            CHUNK_SIZE - 1,
            CHUNK_SIZE,
            CHUNK_SIZE + 1,
            3 * CHUNK_SIZE,
        ];
        let planned = ops.iter_mut().filter_map(|op| match &mut op.kind {
            PlannedKind::Store { size, .. } => Some(size),
            PlannedKind::Retrieve { .. } => None,
        });
        for (k, size) in planned.enumerate().filter(|(k, _)| k % 5 == 0) {
            *size = edges[k / 5 % edges.len()];
        }
        let rough = FaultPlan::generate(&FaultPlanConfig {
            seed: 43,
            horizon_ms: gen.config().horizon_ms(),
            n_frontends: cfg.frontends,
            ..FaultPlanConfig::default()
        })
        .unwrap();
        for plan in [FaultPlan::none(cfg.frontends), rough] {
            let order = DispatchOrder::new(&ops, &plan);
            let mut stores = 0;
            thread::scope(|s| {
                let (tx, blocks) = sync_channel(1);
                // Three stores to a block: block edges fall inside
                // sessions, between files that share a start time.
                let client = s.spawn(|| hash_stores(&ops, order.iter(), 3, tx));
                let mut handover = Handover::new(blocks, client);
                for i in order.iter() {
                    if let PlannedKind::Store { seq, size, pool } = ops[i].kind {
                        let name = store_path(ops[i].user, seq);
                        let seed = content_seed(seq, pool);
                        let want =
                            FileManifest::build(name.clone(), &Content::Synthetic { seed, size });
                        assert_eq!(handover.manifest(name, size), want, "store {stores}");
                        stores += 1;
                    }
                }
            });
            assert!(stores > 300, "{stores} stores");
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds: the len is 1 but the index is 99")]
    fn handover_re_raises_a_client_panic_with_its_message() {
        let ops = [PlannedOp {
            user: 1,
            at_ms: 0,
            kind: PlannedKind::Store {
                seq: 1,
                size: 10,
                pool: Some(5),
            },
        }];
        thread::scope(|s| {
            let (tx, blocks) = sync_channel(1);
            // The client hashes store 0, then panics on a plan index past
            // the end of the plan.
            let client = s.spawn(|| hash_stores(&ops, [0, 99].into_iter(), 1, tx));
            let mut handover = Handover::new(blocks, client);
            let first = handover.manifest(store_path(1, 1), 10);
            assert_eq!(first.chunk_count(), 1);
            handover.manifest(store_path(1, 2), 10);
        });
    }

    #[test]
    #[should_panic(expected = "the service stage failed")]
    fn a_service_stage_panic_stops_the_client() {
        // Far more stores than the channel holds: the client blocks on the
        // full channel until the service stage's unwinding drops its end,
        // then returns, so the scope can join it and the panic propagates
        // instead of hanging.
        let ops = plan_ops(&small_gen(41), &ReplayConfig::default());
        let order = DispatchOrder::new(&ops, &FaultPlan::none(8));
        thread::scope(|s| {
            let (tx, blocks) = sync_channel(1);
            let client = s.spawn(|| hash_stores(&ops, order.iter(), 1, tx));
            let _handover = Handover::new(blocks, client);
            panic!("the service stage failed");
        });
    }

    /// FNV-1a of `format!("{stats:?} {}", snap.to_json())`, the digest
    /// perfbench reports as a replay's `outputs_digest`.
    fn replay_digest(gen: &TraceGenerator, cfg: &ReplayConfig, plan: &FaultPlan) -> String {
        let (_, stats, snap) = replay(gen, cfg, plan, RetryPolicy::default()).unwrap();
        let text = format!("{stats:?} {}", snap.to_json());
        let h = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        format!("{h:016x}")
    }

    /// Golden digests of three replays: every `replay.*`, `storage.*`,
    /// `transfer.*`, `sim.*` and `net.profile.*` output, so a change to
    /// the planner, the service, the chunk digests or the fair-share
    /// solver that moves any of them fails here. To re-record after a
    /// deliberate change, run this test on the parent and take the
    /// digests from its failure message.
    #[test]
    fn replay_golden_digests() {
        let gen = small_gen(43);
        let cfg = ReplayConfig {
            profiles: Some(ProfileMix::mobile()),
            // Slow enough that each front-end's flows contend.
            frontend_link_bps: 2_000_000,
            ..ReplayConfig::default()
        };
        // The fleet_replay example's rough week.
        let rough = FaultPlan::generate(&FaultPlanConfig {
            seed: 43,
            horizon_ms: gen.config().horizon_ms(),
            n_frontends: cfg.frontends,
            frontend_outages_per_day: 2.0,
            frontend_outage_mean_ms: 10.0 * 60_000.0,
            frontend_brownouts_per_day: 4.0,
            frontend_brownout_mean_ms: 20.0 * 60_000.0,
            chunk_timeout_prob: 0.25,
            metadata_outages_per_day: 1.0,
            metadata_outage_mean_ms: 5.0 * 60_000.0,
        })
        .unwrap();
        let whole_file = ReplayConfig {
            resumable: false,
            ..cfg
        };
        let got = [
            replay_digest(&gen, &cfg, &FaultPlan::none(cfg.frontends)),
            replay_digest(&gen, &cfg, &rough),
            replay_digest(&gen, &whole_file, &rough),
        ];
        assert_eq!(
            got,
            ["325945137e06a665", "9b5f1f5793cc938c", "bcdaeff461c91650"],
            "fair weather, rough week resumable, rough week whole-file"
        );
    }

    #[test]
    fn planned_op_stays_small() {
        // One per trace op: a million on a paper-sized week.
        assert!(std::mem::size_of::<PlannedOp>() <= 40);
    }

    #[test]
    fn op_deadline_saturates_instead_of_wrapping() {
        // Regression: the time-gated schedule loop converted trace
        // milliseconds to simulator microseconds with a bare `* 1000`;
        // any op stamped past `u64::MAX / 1000` ms wrapped to a *small*
        // deadline and replayed out of order.
        assert_eq!(op_deadline_us(5), 5 * MS);
        assert_eq!(op_deadline_us(u64::MAX / MS), u64::MAX / MS * MS);
        assert_eq!(op_deadline_us(u64::MAX / MS + 1), u64::MAX);
        assert_eq!(op_deadline_us(u64::MAX), u64::MAX);
    }

    #[test]
    fn replay_preserves_service_invariants() {
        let gen = small_gen(41);
        let (svc, stats, _) = fair(&gen, &ReplayConfig::default()).unwrap();
        assert!(stats.stores > 300, "stores {}", stats.stores);
        assert!(stats.retrieves > 30, "retrieves {}", stats.retrieves);
        assert_eq!(stats.retrieve_misses, 0);
        assert!(stats.bytes_deduplicated > 0, "popular dupes must dedup");
        assert!(svc.frontends().iter().all(|f| f.missing_gets == 0));
        // Fair weather: no degraded-mode activity, full availability.
        assert_eq!(stats.failed_stores, 0);
        assert_eq!(stats.failed_retrieves, 0);
        assert_eq!(stats.retries, 0);
        assert!((stats.availability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn replay_deterministic() {
        let gen = small_gen(43);
        let (_, a, snap_a) = fair(&gen, &ReplayConfig::default()).unwrap();
        let (_, b, snap_b) = fair(&gen, &ReplayConfig::default()).unwrap();
        assert_eq!(a, b);
        assert_eq!(snap_a.to_json(), snap_b.to_json());
    }

    #[test]
    fn profile_mix_books_network_metrics_without_touching_service_stats() {
        let gen = small_gen(43);
        let base_cfg = ReplayConfig::default();
        let (_, base_stats, base_snap) = fair(&gen, &base_cfg).unwrap();
        let cfg = ReplayConfig {
            profiles: Some(ProfileMix::mobile()),
            frontend_link_bps: 100_000_000,
            ..base_cfg
        };
        let (_, stats, snap) = fair(&gen, &cfg).unwrap();
        // The network pass prices contention; it must not perturb the
        // service layer.
        assert_eq!(stats, base_stats);
        // Every byte-moving op became exactly one priced flow.
        let flows: u64 = snap
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("net.profile.flows."))
            .map(|(_, v)| v)
            .sum();
        assert!(flows > 0);
        let priced_bytes: u64 = snap
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("net.profile.bytes."))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(
            priced_bytes,
            stats.bytes_uploaded + stats.bytes_downloaded,
            "priced bytes must equal the bytes the service actually moved"
        );
        assert!(snap
            .counters
            .iter()
            .any(|(n, _)| n == "net.profile.recomputes"));
        // Deterministic, and absent without a mix.
        let (_, _, snap2) = fair(&gen, &cfg).unwrap();
        assert_eq!(snap, snap2);
        assert!(!base_snap
            .counters
            .iter()
            .any(|(n, _)| n.starts_with("net.profile.")));
    }

    #[test]
    fn zero_frontends_is_a_config_error() {
        let gen = small_gen(48);
        let cfg = ReplayConfig {
            frontends: 0,
            ..ReplayConfig::default()
        };
        assert!(fair(&gen, &cfg).is_err());
    }

    #[test]
    fn empty_replay_has_full_availability() {
        // Zero operations must read as a fully available service, not 0/0.
        let stats = ReplayStats::default();
        assert_eq!(stats.availability(), 1.0);
    }

    #[test]
    fn none_plan_replay_matches_fair_weather_bit_for_bit() {
        let gen = small_gen(51);
        let cfg = ReplayConfig::default();
        let (_, clean, clean_snap) = replay_trace_observed(&gen, &cfg).unwrap();
        let plan = FaultPlan::none(cfg.frontends);
        let (_, faulted, snap) = replay(&gen, &cfg, &plan, RetryPolicy::default()).unwrap();
        assert_eq!(clean, faulted);
        assert_eq!(clean_snap.to_json(), snap.to_json());
    }

    #[test]
    fn faulted_replay_is_deterministic() {
        let gen = small_gen(53);
        let cfg = ReplayConfig::default();
        let plan = FaultPlan::generate(&FaultPlanConfig {
            seed: 9,
            horizon_ms: gen.config().horizon_ms(),
            n_frontends: cfg.frontends,
            ..FaultPlanConfig::default()
        })
        .unwrap();
        let retry = RetryPolicy::default();
        let (_, a, snap_a) = replay(&gen, &cfg, &plan, retry).unwrap();
        let (_, b, snap_b) = replay(&gen, &cfg, &plan, retry).unwrap();
        assert_eq!(a, b);
        assert_eq!(snap_a.to_json(), snap_b.to_json());
    }

    #[test]
    fn seeded_outage_charges_shared_pool_seeding_to_retrieves() {
        // Every front-end is down for the whole horizon (metadata stays
        // up). All workload stores fail; no user ever owns a file, so
        // every retrieve goes down the shared-pool path, where the
        // seeding store fails too. The accounting contract under test:
        // each defeat is exactly one `failed_retrieves` (the user asked
        // to retrieve), `failed_stores` counts only the workload's own
        // planned stores, and no phantom store attempts appear anywhere —
        // so availability reads exactly zero.
        let gen = small_gen(61);
        let cfg = ReplayConfig::default();
        let mut plan = FaultPlan::none(cfg.frontends);
        for w in &mut plan.frontend_outages {
            *w = mcs_faults::Windows::new(vec![(0, u64::MAX)]);
        }
        let retry = RetryPolicy { max_attempts: 2 };
        let (_, stats, _) = replay(&gen, &cfg, &plan, retry).unwrap();
        assert!(stats.failed_stores > 0);
        assert!(stats.retrieves > 0);
        assert_eq!(stats.stores, 0);
        assert_eq!(stats.failed_retrieves, stats.retrieves);
        assert_eq!(stats.retrieve_misses, 0);
        assert_eq!(stats.bytes_downloaded, 0);
        assert_eq!(stats.availability(), 0.0);
    }

    #[test]
    fn snapshot_mirrors_stats_and_is_stable() {
        let gen = small_gen(43);
        let cfg = ReplayConfig::default();
        let (_, stats, snap) = fair(&gen, &cfg).unwrap();
        // The snapshot can never disagree with the struct it was
        // materialised from.
        assert_eq!(snap.counters["replay.stores"], stats.stores);
        assert_eq!(snap.counters["replay.bytes_uploaded"], stats.bytes_uploaded);
        assert_eq!(snap.counters["storage.retries"], stats.retries);
        assert_eq!(snap.histograms["replay.store_bytes"].count, stats.stores);
        // Byte-identical export across runs.
        let (_, _, again) = fair(&gen, &cfg).unwrap();
        assert_eq!(snap.to_json(), again.to_json());
    }

    #[test]
    fn snapshot_counts_one_sim_event_per_operation() {
        // Every planned operation is dispatched once and counted against
        // its user's front-end, so the sim.* counters must tie out against
        // the replay's own operation counts.
        let gen = small_gen(43);
        let cfg = ReplayConfig::default();
        let (_, stats, snap) = fair(&gen, &cfg).unwrap();
        assert_eq!(
            snap.counters["sim.steps"],
            stats.stores + stats.failed_stores + stats.retrieves
        );
        let per_fe: u64 = (0..cfg.frontends)
            .map(|fe| snap.counters[&format!("sim.events.frontend/{fe}")])
            .sum();
        assert_eq!(per_fe, snap.counters["sim.steps"]);
        // More than one front-end actually sees traffic.
        let busy = (0..cfg.frontends)
            .filter(|fe| snap.counters[&format!("sim.events.frontend/{fe}")] > 0)
            .count();
        assert!(busy > 1, "only {busy} of {} front-ends busy", cfg.frontends);
    }

    #[test]
    fn resumable_replay_saves_bytes_over_whole_file_retry() {
        let gen = small_gen(57);
        let cfg = ReplayConfig::default();
        let plan = aggressive_plan(&gen, &cfg);
        let retry = RetryPolicy { max_attempts: 2 };
        let whole_cfg = ReplayConfig {
            resumable: false,
            ..cfg
        };
        let (_, whole, _) = replay(&gen, &whole_cfg, &plan, retry).unwrap();
        let (_, resume, _) = replay(&gen, &cfg, &plan, retry).unwrap();
        // Whole-file retry never resumes, by definition.
        assert_eq!(whole.resumed_transfers, 0);
        assert_eq!(whole.resume_saved_bytes, 0);
        // The resumable protocol does, and the savings are real bytes:
        // under the same plan it completes at least as many operations
        // and re-sends no more.
        assert!(resume.resumed_transfers > 0, "{resume:?}");
        assert!(resume.resume_saved_bytes > 0, "{resume:?}");
        assert!(
            whole.availability() <= resume.availability(),
            "{whole:?} vs {resume:?}"
        );
        assert!(
            whole.retry_bytes >= resume.retry_bytes,
            "{whole:?} vs {resume:?}"
        );
    }

    #[test]
    fn aggressive_plan_degrades_gracefully() {
        let gen = small_gen(57);
        let cfg = ReplayConfig::default();
        // Heavy, long outages: plenty of fault activity, no panics.
        let plan = aggressive_plan(&gen, &cfg);
        let retry = RetryPolicy { max_attempts: 2 };
        let (_, stats, _) = replay(&gen, &cfg, &plan, retry).unwrap();
        let avail = stats.availability();
        assert!(avail < 1.0, "faults must cost availability: {avail}");
        assert!(avail > 0.1, "service must not collapse entirely: {avail}");
        assert!(stats.retries > 0);
        assert!(stats.failed_stores + stats.failed_retrieves > 0);
        assert!(stats.chunk_timeouts > 0);
        assert!(stats.retry_bytes > 0, "timeouts inflate traffic");
    }
}
