//! The clustered service façade: metadata server + front-end fleet,
//! exposing the mobile app's operations (store, retrieve by path or URL,
//! delete) end-to-end.
//!
//! [`StorageService::store`] and [`StorageService::retrieve`] are the one
//! store and the one retrieve. In fair weather — no
//! [`mcs_faults::FaultPlan`] installed, or an empty one — a file moves in
//! one direct put or get. Under a plan, every operation runs on the
//! caller's virtual clock through one engine: it waits out metadata
//! outages, moves the file chunk by chunk through the [`crate::transfer`]
//! protocol on an `mcs-sim` event queue, fails uploads over past down
//! front-ends (retrievals cannot fail over — content has one home), backs
//! off under a [`RetryPolicy`], and returns a [`ServiceError`] when the
//! budget runs out.
//!
//! The installed [`RetryMode`] decides what a stalled attempt keeps.
//! [`RetryMode::Resume`] keeps every verified chunk — uploads persist them
//! in the front-end's chunk store (and skip whatever that store already
//! holds), downloads keep a client-side partial manifest — so a later
//! attempt re-sends only what is missing. [`RetryMode::WholeFile`] is the
//! paper's client (§2.1): it keeps nothing and restarts the file from byte
//! zero.

use std::collections::{BTreeMap, BTreeSet};

use mcs_faults::{unit_coin, ConfigError, FaultPlan, RetryPolicy};
use mcs_obs::{CounterId, HistId, Registry};
use mcs_stats::rng::split_seed;

use crate::content::FileManifest;
use crate::error::ServiceError;
use crate::frontend::FrontEnd;
use crate::md5::Digest;
use crate::metadata::{MetadataServer, ShareUrl, StoreDecision, UserId};
use crate::transfer::{
    run_transfer_attempt, AttemptReport, Channel, ChunkFate, Stall, TransferSession,
};

/// Coin stream for retry-backoff jitter (disjoint from the fault plan's
/// own streams; see `mcs_faults::plan::streams`).
const STREAM_BACKOFF: u64 = 0xFB01;

/// Coin stream for per-chunk timeout-detection pacing (again disjoint
/// from every plan stream).
const STREAM_CHUNK_PACE: u64 = 0xFB04;

/// Arrival-window size faulted transfers run with: chunks in flight at
/// once per transfer (the protocol's out-of-order tolerance).
const TRANSFER_WINDOW: usize = 8;

/// What a faulted transfer keeps from an attempt that stalled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryMode {
    /// Keep every verified chunk; a retry — or a later operation on the
    /// same content — sends only the missing ones.
    Resume,
    /// Keep nothing: every retry restarts the file from byte zero, as the
    /// paper's client does (§2.1).
    WholeFile,
}

/// Outcome of one file store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOutcome {
    /// Whether deduplication skipped the upload.
    pub deduplicated: bool,
    /// Bytes actually uploaded (0 when deduplicated).
    pub bytes_uploaded: u64,
    /// Front-end that handled the upload (None when deduplicated).
    pub frontend: Option<usize>,
}

impl StoreOutcome {
    /// A store the metadata server satisfied by file-level dedup.
    const DEDUPLICATED: Self = Self {
        deduplicated: true,
        bytes_uploaded: 0,
        frontend: None,
    };
}

/// Outcome of one file retrieve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrieveOutcome {
    /// Bytes downloaded.
    pub bytes_downloaded: u64,
    /// Front-end that served it.
    pub frontend: usize,
}

/// The whole service.
///
/// ```
/// use mcs_storage::{Content, FileManifest, ServiceError, StorageService};
///
/// let mut svc = StorageService::new(4, 24).unwrap();
/// let photo = Content::Synthetic { seed: 1, size: 1_500_000 };
/// // The client hashes the file into the manifest it sends (§2.1).
/// let first = svc.store(1, FileManifest::build("a.jpg", &photo), 0).unwrap();
/// assert!(!first.deduplicated);
/// // Another user uploads the same bytes: the metadata server dedups.
/// let second = svc.store(2, FileManifest::build("b.jpg", &photo), 10).unwrap();
/// assert!(second.deduplicated);
/// assert_eq!(svc.retrieve(2, "b.jpg", 20).unwrap().bytes_downloaded, 1_500_000);
/// assert_eq!(svc.retrieve(2, "c.jpg", 30), Err(ServiceError::NotFound));
/// ```
#[derive(Debug)]
pub struct StorageService {
    metadata: MetadataServer,
    frontends: Vec<FrontEnd>,
    /// Installed fault schedule (None = fair weather).
    faults: Option<Faults>,
    /// The one record of what faulted operations counted
    /// ([`Self::metrics`]).
    obs: Registry,
    ids: TelemetryIds,
    /// Monotone operation counter keying per-op fault/jitter coins.
    op_seq: u64,
    /// Client-side partial downloads keyed by (user, path): the `.part`
    /// manifest a resumed [`Self::retrieve`] picks up.
    partial_downloads: BTreeMap<(UserId, String), PartialDownload>,
}

/// A non-empty fault plan with the retry budget and mode it runs under.
#[derive(Debug)]
struct Faults {
    plan: FaultPlan,
    retry: RetryPolicy,
    mode: RetryMode,
}

/// The retry state of one faulted operation.
struct Op {
    /// Key of the operation's fault and jitter coins.
    id: u64,
    /// The attempt under way (1-based).
    attempts: u32,
    /// The operation's virtual clock, ms.
    t: u64,
}

/// A persisted partial download: which chunks of which content version
/// the client already holds verified.
#[derive(Debug, Clone)]
struct PartialDownload {
    /// Content version the partial belongs to (a replaced file discards
    /// the stale partial).
    file_digest: Digest,
    /// Verified chunk indices.
    verified: BTreeSet<u64>,
}

/// Handles into [`StorageService::obs`] for the hot-path counters.
#[derive(Debug, Clone, Copy)]
struct TelemetryIds {
    retries: CounterId,
    failovers: CounterId,
    chunk_timeouts: CounterId,
    failed_ops: CounterId,
    retry_bytes: CounterId,
    backoff_ms: CounterId,
    tx_sessions: CounterId,
    tx_resumed: CounterId,
    tx_chunks_sent: CounterId,
    tx_chunks_resent: CounterId,
    tx_chunks_deduped: CounterId,
    tx_resume_saved_bytes: CounterId,
    tx_chunks_per_resume: HistId,
}

impl TelemetryIds {
    fn register(obs: &mut Registry) -> Self {
        Self {
            retries: obs.counter("storage.retries"),
            failovers: obs.counter("storage.failovers"),
            chunk_timeouts: obs.counter("storage.chunk_timeouts"),
            failed_ops: obs.counter("storage.failed_ops"),
            retry_bytes: obs.counter("storage.retry_bytes"),
            backoff_ms: obs.counter("storage.backoff_ms"),
            tx_sessions: obs.counter("transfer.sessions"),
            tx_resumed: obs.counter("transfer.resumed_sessions"),
            tx_chunks_sent: obs.counter("transfer.chunks_sent"),
            tx_chunks_resent: obs.counter("transfer.chunks_resent"),
            tx_chunks_deduped: obs.counter("transfer.chunks_deduped"),
            tx_resume_saved_bytes: obs.counter("transfer.resume_saved_bytes"),
            tx_chunks_per_resume: obs.histogram("transfer.chunks_per_resume"),
        }
    }
}

/// [`Channel`] implementation over a fault plan: sends observe the bound
/// front-end's outage/brownout windows at their own timeline instants,
/// and per-send timeout coins come off dedicated stateless streams so
/// fates are order-free.
struct PlanChannel<'a> {
    plan: &'a FaultPlan,
    retry: &'a RetryPolicy,
    fe: usize,
    op: u64,
}

impl Channel for PlanChannel<'_> {
    fn send(&mut self, chunk: u64, send: u32, now_ms: u64) -> ChunkFate {
        if self.plan.frontend_down(self.fe, now_ms) {
            return ChunkFate::Down;
        }
        if self.plan.frontend_degraded(self.fe, now_ms)
            && self.plan.chunk_send_timeout(self.op, chunk, send)
        {
            // Timeout detection paces like a retry: capped exponential
            // backoff in the send ordinal, jittered by its own coin.
            let coin = unit_coin(
                split_seed(self.plan.seed, self.op),
                STREAM_CHUNK_PACE,
                chunk.wrapping_mul(64).wrapping_add(send as u64),
            );
            return ChunkFate::Timeout {
                detect_after_ms: self.retry.backoff_ms(send, coin),
            };
        }
        ChunkFate::Deliver { ack_after_ms: 0 }
    }
}

/// The error a stalled attempt on `frontend` reports if it is the last.
fn stall_error(stall: Stall, frontend: usize, attempts: u32) -> ServiceError {
    match stall {
        Stall::FrontendDown { .. } => ServiceError::FrontendUnavailable { frontend, attempts },
        Stall::ChunkBudget { .. } => ServiceError::ChunkTimeout { frontend, attempts },
    }
}

impl StorageService {
    /// Builds a cluster of `n_frontends`, accounting load over
    /// `horizon_hours`. Rejects an empty fleet.
    pub fn new(n_frontends: usize, horizon_hours: usize) -> Result<Self, ConfigError> {
        let mut obs = Registry::new();
        let ids = TelemetryIds::register(&mut obs);
        Ok(Self {
            metadata: MetadataServer::new(n_frontends)?,
            frontends: (0..n_frontends)
                .map(|_| FrontEnd::new(horizon_hours))
                .collect(),
            faults: None,
            obs,
            ids,
            op_seq: 0,
            partial_downloads: BTreeMap::new(),
        })
    }

    /// Installs a fault plan, the retry policy operations back off under,
    /// and what a stalled transfer keeps, replacing any installed plan.
    /// Validates the policy first. A plan that [`FaultPlan::is_empty`]
    /// installs nothing: the service runs in fair weather, bit for bit.
    pub fn set_fault_plan(
        &mut self,
        plan: FaultPlan,
        retry: RetryPolicy,
        mode: RetryMode,
    ) -> Result<(), ConfigError> {
        retry.validate()?;
        self.faults = (!plan.is_empty()).then_some(Faults { plan, retry, mode });
        Ok(())
    }

    /// Removes any installed fault plan (back to fair weather).
    pub fn clear_fault_plan(&mut self) {
        self.faults = None;
    }

    /// The service's metric registry: the `storage.*` counters of retries,
    /// failovers, chunk timeouts, failed operations, retry bytes and the
    /// virtual-clock backoff, and the `transfer.*` counters of the chunk
    /// engine (METRICS.md). It is the one record of what faulted operations
    /// counted; fair weather books nothing.
    pub fn metrics(&self) -> &Registry {
        &self.obs
    }

    /// Stores one file from the manifest its client computed (§2.1: name,
    /// size, file MD5 and per-chunk MD5s; see [`FileManifest::build`]):
    /// metadata round trip, dedup check, chunk uploads. The service never
    /// hashes; it trusts the client's digests.
    ///
    /// Under a fault plan the store fails over past down front-ends and
    /// fails with a [`ServiceError`] once the retry budget is spent. A
    /// failed store leaves **no** namespace entry — the metadata round
    /// trip only commits on success. `bytes_uploaded` reports what *this
    /// operation* moved: in [`RetryMode::Resume`], chunks an earlier
    /// stalled upload left on the front-end are not sent again (and not
    /// counted).
    pub fn store(
        &mut self,
        user: UserId,
        manifest: FileManifest,
        now_ms: u64,
    ) -> Result<StoreOutcome, ServiceError> {
        // The schedule leaves `self` for the operation, so the engine can
        // read it while booking into `self`.
        let Some(faults) = self.faults.take() else {
            return Ok(match self.metadata.begin_store(user, &manifest, now_ms) {
                StoreDecision::Deduplicated => StoreOutcome::DEDUPLICATED,
                StoreDecision::Upload { frontend } => {
                    self.frontends[frontend].put_file(&manifest, now_ms);
                    let bytes_uploaded = manifest.size;
                    self.metadata.complete_upload(manifest, frontend);
                    StoreOutcome {
                        deduplicated: false,
                        bytes_uploaded,
                        frontend: Some(frontend),
                    }
                }
            });
        };
        let out = self.faulted_store(&faults, user, manifest, now_ms);
        self.faults = Some(faults);
        out
    }

    /// Retrieves a file from the user's own namespace;
    /// [`ServiceError::NotFound`] if the path does not resolve.
    ///
    /// Under a fault plan the retrieve waits (with backoff) for the one
    /// front-end holding the content. In [`RetryMode::Resume`] a download
    /// that runs out of budget mid-transfer remembers which chunks the
    /// client verified, and the next retrieve of the same unchanged path
    /// fetches only the rest. `bytes_downloaded` is the file size the
    /// client ends up with; the front-end's hourly load grows by what each
    /// attempt actually served.
    pub fn retrieve(
        &mut self,
        user: UserId,
        path: &str,
        now_ms: u64,
    ) -> Result<RetrieveOutcome, ServiceError> {
        let Some(faults) = self.faults.take() else {
            let (manifest, frontend) = self
                .metadata
                .begin_retrieve(user, path)
                .ok_or(ServiceError::NotFound)?;
            return Ok(self.serve(&manifest, frontend, now_ms));
        };
        let out = self.faulted_retrieve(&faults, user, path, now_ms);
        self.faults = Some(faults);
        out
    }

    /// Serves a whole file from `frontend` in one fair-weather get.
    fn serve(&mut self, manifest: &FileManifest, frontend: usize, now_ms: u64) -> RetrieveOutcome {
        RetrieveOutcome {
            bytes_downloaded: self.frontends[frontend].get_file(manifest, now_ms),
            frontend,
        }
    }

    /// Opens a faulted operation at `now_ms`: keys its coins and waits out
    /// any metadata outage on its clock.
    fn begin_op(&mut self, f: &Faults, now_ms: u64) -> Result<Op, ServiceError> {
        self.op_seq += 1;
        let mut op = Op {
            id: self.op_seq,
            attempts: 1,
            t: now_ms,
        };
        while f.plan.metadata_down(op.t) {
            let failure = ServiceError::MetadataUnavailable {
                attempts: op.attempts,
            };
            self.back_off(f, &mut op, failure)?;
        }
        // The data path counts its own attempts.
        op.attempts = 1;
        Ok(op)
    }

    /// The one retry step. Gives up with `failure` once the budget is
    /// spent; otherwise books a retry and moves the operation's clock past
    /// the jittered backoff. The jitter coin is stateless, so the backoff
    /// sequence does not depend on what other operations did.
    fn back_off(
        &mut self,
        f: &Faults,
        op: &mut Op,
        failure: ServiceError,
    ) -> Result<(), ServiceError> {
        if !f.retry.allows(op.attempts) {
            self.obs.inc(self.ids.failed_ops);
            return Err(failure);
        }
        self.obs.inc(self.ids.retries);
        let coin = unit_coin(
            f.plan.seed,
            STREAM_BACKOFF,
            op.id.wrapping_mul(64).wrapping_add(op.attempts as u64),
        );
        let delay = f.retry.backoff_ms(op.attempts, coin);
        self.obs.add(self.ids.backoff_ms, delay);
        op.t = op.t.saturating_add(delay);
        op.attempts += 1;
        Ok(())
    }

    /// Runs one transfer attempt of `session` with front-end `fe` at the
    /// operation's clock, books its protocol counters (and any resume it
    /// starts from), and moves the clock to the attempt's end.
    fn run_attempt(
        &mut self,
        f: &Faults,
        op: &mut Op,
        fe: usize,
        session: &mut TransferSession,
        manifest: &FileManifest,
    ) -> AttemptReport {
        if session.verified_count() > 0 && !session.is_complete() {
            // What a whole-file retry would have re-sent.
            self.obs.inc(self.ids.tx_resumed);
            self.obs
                .add(self.ids.tx_resume_saved_bytes, session.bytes_verified());
            let missing = manifest.chunk_count() - session.verified_count();
            self.obs.observe(self.ids.tx_chunks_per_resume, missing);
        }
        let mut channel = PlanChannel {
            plan: &f.plan,
            retry: &f.retry,
            fe,
            op: op.id,
        };
        let report = run_transfer_attempt(session, &mut channel, f.retry.max_attempts, op.t);
        self.obs.add(self.ids.tx_chunks_sent, report.chunks_sent);
        self.obs
            .add(self.ids.tx_chunks_resent, report.chunks_resent);
        self.obs.add(self.ids.chunk_timeouts, report.timeouts);
        self.obs.add(self.ids.retry_bytes, report.bytes_resent);
        op.t = op.t.max(report.end_ms);
        report
    }

    /// The first front-end at or after `preferred` (wrapping) that is up
    /// at `t`. Landing past `preferred` books a failover.
    fn live_frontend(&mut self, plan: &FaultPlan, preferred: usize, t: u64) -> Option<usize> {
        let n = self.frontends.len();
        let k = (0..n).find(|&k| !plan.frontend_down((preferred + k) % n, t))?;
        if k > 0 {
            self.obs.inc(self.ids.failovers);
        }
        Some((preferred + k) % n)
    }

    /// [`Self::store`] under the installed plan.
    fn faulted_store(
        &mut self,
        f: &Faults,
        user: UserId,
        manifest: FileManifest,
        now_ms: u64,
    ) -> Result<StoreOutcome, ServiceError> {
        let mut op = self.begin_op(f, now_ms)?;
        // Dedup pre-check *before* mutating the namespace, so a store that
        // later fails on the data path leaves no dangling link.
        if self.metadata.knows(&manifest.file_digest) {
            let decision = self.metadata.begin_store(user, &manifest, op.t);
            debug_assert_eq!(decision, StoreDecision::Deduplicated);
            return Ok(StoreOutcome::DEDUPLICATED);
        }
        let preferred = self.metadata.closest_frontend(user);
        self.obs.inc(self.ids.tx_sessions);
        // The in-op partial: (bound front-end, session, bytes this op
        // actually uploaded). Sessions are sticky to their front-end —
        // chunks live server-side, so failing over means starting a new
        // session on the new home (minus whatever its chunk store already
        // holds, when resuming).
        let mut bound: Option<(usize, TransferSession, u64)> = None;
        loop {
            let live = match &bound {
                Some((fe, _, _)) if !f.plan.frontend_down(*fe, op.t) => Some(*fe),
                _ => self.live_frontend(&f.plan, preferred, op.t),
            };
            let failure = match live {
                None => ServiceError::AllFrontendsDown {
                    attempts: op.attempts,
                },
                Some(fe) => {
                    let (_, session, uploaded) = match bound.take() {
                        Some(b) if b.0 == fe => bound.insert(b),
                        stale => {
                            if let Some((_, _, wasted)) = stale {
                                // The old home's partial cannot serve the
                                // new one: those bytes become retry waste.
                                // (They stay resident on the old front-end
                                // for future ops to dedup against.)
                                self.obs.add(self.ids.retry_bytes, wasted);
                            }
                            let known = match f.mode {
                                RetryMode::Resume => self.frontends[fe].resident_chunks(&manifest),
                                RetryMode::WholeFile => BTreeSet::new(),
                            };
                            self.obs.add(self.ids.tx_chunks_deduped, known.len() as u64);
                            let session =
                                TransferSession::resume(&manifest, &known, TRANSFER_WINDOW);
                            bound.insert((fe, session, 0))
                        }
                    };
                    let mut stall = None;
                    if !session.is_complete() {
                        let report = self.run_attempt(f, &mut op, fe, session, &manifest);
                        stall = report.stall;
                        if f.mode == RetryMode::WholeFile && stall.is_some() {
                            // The whole file goes again: nothing the
                            // attempt moved is kept.
                            session.restart();
                        } else {
                            // Verified chunks are durable on the front-end
                            // even if the operation later fails; apply
                            // them in ack order.
                            for &(i, at) in &report.verified {
                                let d = manifest.chunk_digests[i as usize];
                                self.frontends[fe].put_chunk(d, manifest.chunk_size(i), at);
                                *uploaded = uploaded.saturating_add(manifest.chunk_size(i));
                            }
                        }
                    }
                    match stall {
                        None => {
                            let decision = self.metadata.begin_store(user, &manifest, op.t);
                            debug_assert!(matches!(decision, StoreDecision::Upload { .. }));
                            let bytes_uploaded = *uploaded;
                            self.frontends[fe].retain_file(&manifest);
                            self.metadata.complete_upload(manifest, fe);
                            return Ok(StoreOutcome {
                                deduplicated: false,
                                bytes_uploaded,
                                frontend: Some(fe),
                            });
                        }
                        Some(stall) => stall_error(stall, fe, op.attempts),
                    }
                }
            };
            self.back_off(f, &mut op, failure)?;
        }
    }

    /// [`Self::retrieve`] under the installed plan.
    fn faulted_retrieve(
        &mut self,
        f: &Faults,
        user: UserId,
        path: &str,
        now_ms: u64,
    ) -> Result<RetrieveOutcome, ServiceError> {
        let mut op = self.begin_op(f, now_ms)?;
        let (manifest, fe) = self
            .metadata
            .begin_retrieve(user, path)
            .ok_or(ServiceError::NotFound)?;
        // Resume a matching interrupted download of this path; a stale
        // partial (the content changed in between) is discarded.
        let key = (user, path.to_string());
        let verified = match self.partial_downloads.remove(&key) {
            Some(p) if f.mode == RetryMode::Resume && p.file_digest == manifest.file_digest => {
                p.verified
            }
            _ => BTreeSet::new(),
        };
        let mut session = TransferSession::resume(&manifest, &verified, TRANSFER_WINDOW);
        self.obs.inc(self.ids.tx_sessions);
        loop {
            let failure = if f.plan.frontend_down(fe, op.t) {
                ServiceError::FrontendUnavailable {
                    frontend: fe,
                    attempts: op.attempts,
                }
            } else {
                let report = self.run_attempt(f, &mut op, fe, &mut session, &manifest);
                // Each chunk verified this attempt was served once by the
                // front-end, at its ack instant.
                for &(i, at) in &report.verified {
                    let d = &manifest.chunk_digests[i as usize];
                    let _ = self.frontends[fe].get_chunk(d, manifest.chunk_size(i), at);
                }
                match report.stall {
                    None => {
                        return Ok(RetrieveOutcome {
                            bytes_downloaded: manifest.size,
                            frontend: fe,
                        });
                    }
                    Some(stall) => {
                        if f.mode == RetryMode::WholeFile {
                            session.restart();
                        }
                        stall_error(stall, fe, op.attempts)
                    }
                }
            };
            if let Err(e) = self.back_off(f, &mut op, failure) {
                // Keep the client-side partial for the next retrieve of
                // this path: that is what makes the download resumable.
                if session.verified_count() > 0 && !session.is_complete() {
                    self.partial_downloads.insert(
                        key,
                        PartialDownload {
                            file_digest: manifest.file_digest,
                            verified: session.verified_set(),
                        },
                    );
                }
                return Err(e);
            }
        }
    }

    /// Publishes a share URL.
    pub fn publish_url(&mut self, user: UserId, path: &str) -> Option<ShareUrl> {
        self.metadata.publish_url(user, path)
    }

    /// Retrieves shared content by URL (possibly by a different user).
    pub fn retrieve_url(
        &mut self,
        requester: UserId,
        url: &ShareUrl,
        now_ms: u64,
    ) -> Option<RetrieveOutcome> {
        let (manifest, fe) = self.metadata.begin_retrieve_url(requester, url)?;
        Some(self.serve(&manifest, fe, now_ms))
    }

    /// Deletes a file from a user's namespace (§2.1: deletes go through
    /// the metadata servers only and never hit the front-end data path —
    /// reclamation happens later via [`Self::collect_garbage`]).
    pub fn delete(&mut self, user: UserId, path: &str) -> bool {
        self.metadata.delete(user, path).is_some()
    }

    /// Garbage-collects contents no namespace links anymore; returns bytes
    /// reclaimed across the fleet.
    pub fn collect_garbage(&mut self) -> u64 {
        let mut freed = 0;
        for (manifest, fe) in self.metadata.orphans() {
            freed += self.frontends[fe].reclaim_file(&manifest);
            self.metadata.forget(&manifest.file_digest);
        }
        freed
    }

    /// Metadata server view.
    pub fn metadata(&self) -> &MetadataServer {
        &self.metadata
    }

    /// Front-end fleet view.
    pub fn frontends(&self) -> &[FrontEnd] {
        &self.frontends
    }

    /// Total unique bytes resident across the fleet.
    pub fn stored_bytes(&self) -> u64 {
        self.frontends.iter().map(|f| f.stored_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::{Content, CHUNK_SIZE};
    use mcs_faults::Windows;

    fn photo(seed: u64) -> Content {
        Content::Synthetic {
            seed,
            size: 1_500_000,
        }
    }

    /// The value of the service's counter `name`.
    fn count(svc: &StorageService, name: &str) -> u64 {
        svc.metrics().counter_by_name(name).unwrap()
    }

    /// A non-empty plan that never faults before `u64::MAX - 1`: it runs
    /// every operation through the transfer engine in fair conditions.
    fn quiet_plan(n_frontends: usize) -> FaultPlan {
        let mut plan = FaultPlan::none(n_frontends);
        plan.metadata_outages = Windows::new(vec![(u64::MAX - 1, u64::MAX)]);
        plan
    }

    #[test]
    fn end_to_end_store_and_retrieve() {
        let mut svc = StorageService::new(4, 24).unwrap();
        let out = svc
            .store(1, FileManifest::build("p/1.jpg", &photo(1)), 0)
            .unwrap();
        assert!(!out.deduplicated);
        assert_eq!(out.bytes_uploaded, 1_500_000);
        let got = svc.retrieve(1, "p/1.jpg", 1000).expect("retrieved");
        assert_eq!(got.bytes_downloaded, 1_500_000);
    }

    #[test]
    fn cross_user_dedup_saves_upload() {
        let mut svc = StorageService::new(4, 24).unwrap();
        let a = svc
            .store(1, FileManifest::build("x.jpg", &photo(7)), 0)
            .unwrap();
        let b = svc
            .store(2, FileManifest::build("y.jpg", &photo(7)), 10)
            .unwrap();
        assert!(!a.deduplicated);
        assert!(b.deduplicated);
        assert_eq!(b.bytes_uploaded, 0);
        assert_eq!(svc.stored_bytes(), 1_500_000, "stored once");
        // Both users can retrieve.
        assert!(svc.retrieve(1, "x.jpg", 20).is_ok());
        assert!(svc.retrieve(2, "y.jpg", 20).is_ok());
    }

    #[test]
    fn share_url_content_distribution() {
        let mut svc = StorageService::new(4, 24).unwrap();
        let video = Content::Synthetic {
            seed: 50,
            size: 150_000_000,
        };
        svc.store(1, FileManifest::build("clip.mp4", &video), 0)
            .unwrap();
        let url = svc.publish_url(1, "clip.mp4").expect("url");
        // Many downloaders (the §3.2.1 download-only pattern).
        for user in 100..110 {
            let got = svc.retrieve_url(user, &url, 1000).expect("served");
            assert_eq!(got.bytes_downloaded, 150_000_000);
        }
    }

    #[test]
    fn delete_and_garbage_collection() {
        let mut svc = StorageService::new(3, 24).unwrap();
        svc.store(1, FileManifest::build("a.jpg", &photo(1)), 0)
            .unwrap();
        svc.store(2, FileManifest::build("b.jpg", &photo(1)), 1)
            .unwrap(); // dedup link to same content
        assert_eq!(svc.stored_bytes(), 1_500_000);

        // Deleting one link leaves the content alive (user 2 still links).
        assert!(svc.delete(1, "a.jpg"));
        assert_eq!(svc.collect_garbage(), 0);
        assert!(svc.retrieve(2, "b.jpg", 5).is_ok());

        // Deleting the last link orphans the content; GC reclaims it.
        assert!(svc.delete(2, "b.jpg"));
        let freed = svc.collect_garbage();
        assert_eq!(freed, 1_500_000);
        assert_eq!(svc.stored_bytes(), 0);
        assert_eq!(svc.metadata().distinct_contents(), 0);
        // Idempotent.
        assert_eq!(svc.collect_garbage(), 0);
        // The deleted path is gone.
        assert_eq!(svc.retrieve(2, "b.jpg", 9), Err(ServiceError::NotFound));
        assert!(!svc.delete(2, "b.jpg"));
    }

    #[test]
    fn gc_only_touches_orphans() {
        let mut svc = StorageService::new(2, 24).unwrap();
        svc.store(1, FileManifest::build("keep.jpg", &photo(5)), 0)
            .unwrap();
        svc.store(1, FileManifest::build("drop.jpg", &photo(6)), 1)
            .unwrap();
        svc.delete(1, "drop.jpg");
        let freed = svc.collect_garbage();
        assert_eq!(freed, 1_500_000);
        // The kept file still fully retrievable.
        assert_eq!(
            svc.retrieve(1, "keep.jpg", 5).unwrap().bytes_downloaded,
            1_500_000
        );
    }

    #[test]
    fn skipped_chunk_keeps_its_reference_through_gc() {
        // X = [A][B] and Y = [A][C] on one front-end. A resumable store of
        // Y finds A resident and skips it; deleting X and collecting
        // garbage must still free B alone, since Y needs A.
        let block = |b: u8| vec![b; CHUNK_SIZE as usize];
        let x = Content::Inline([block(1), block(2)].concat().into());
        let y = Content::Inline([block(1), block(3)].concat().into());
        for mode in [RetryMode::Resume, RetryMode::WholeFile] {
            let mut svc = StorageService::new(1, 24).unwrap();
            svc.set_fault_plan(quiet_plan(1), RetryPolicy::default(), mode)
                .unwrap();
            svc.store(1, FileManifest::build("x", &x), 0).unwrap();
            svc.store(1, FileManifest::build("y", &y), 10).unwrap();
            let skipped = u64::from(mode == RetryMode::Resume);
            assert_eq!(count(&svc, "transfer.chunks_deduped"), skipped, "{mode:?}");
            assert!(svc.delete(1, "x"));
            assert_eq!(svc.collect_garbage(), CHUNK_SIZE, "{mode:?}");
            let got = svc.retrieve(1, "y", 20).unwrap();
            assert_eq!(got.bytes_downloaded, 2 * CHUNK_SIZE, "{mode:?}");
            svc.clear_fault_plan();
            let got = svc.retrieve(1, "y", 30).unwrap();
            assert_eq!(got.bytes_downloaded, 2 * CHUNK_SIZE, "{mode:?}");
            assert!(svc.frontends().iter().all(|f| f.missing_gets == 0));
        }
    }

    #[test]
    fn zero_frontends_rejected_not_panicked() {
        let err = StorageService::new(0, 24).expect_err("must reject");
        assert!(err.to_string().contains("front-end"));
    }

    #[test]
    fn retrieve_of_never_stored_path_is_not_found() {
        // In fair weather…
        let mut svc = StorageService::new(2, 24).unwrap();
        assert_eq!(
            svc.retrieve(1, "never/stored", 0),
            Err(ServiceError::NotFound)
        );
        // …and under a plan (NotFound is not a fault, so no failed_ops).
        svc.set_fault_plan(quiet_plan(2), RetryPolicy::default(), RetryMode::Resume)
            .unwrap();
        assert_eq!(
            svc.retrieve(1, "never/stored", 0),
            Err(ServiceError::NotFound)
        );
        assert_eq!(count(&svc, "storage.failed_ops"), 0);
    }

    #[test]
    fn zero_byte_file_stores_and_retrieves() {
        let mut svc = StorageService::new(2, 24).unwrap();
        let empty = Content::Synthetic { seed: 3, size: 0 };
        let out = svc
            .store(1, FileManifest::build("empty.txt", &empty), 0)
            .unwrap();
        assert!(!out.deduplicated);
        assert_eq!(out.bytes_uploaded, 0);
        let got = svc.retrieve(1, "empty.txt", 5).expect("resolves");
        assert_eq!(got.bytes_downloaded, 0);
        // The transfer engine agrees.
        svc.set_fault_plan(quiet_plan(2), RetryPolicy::default(), RetryMode::Resume)
            .unwrap();
        let got = svc.retrieve(1, "empty.txt", 6).expect("resolves");
        assert_eq!(got.bytes_downloaded, 0);
        assert!(svc.frontends().iter().all(|f| f.missing_gets == 0));
    }

    #[test]
    fn empty_plan_is_fair_weather_in_both_modes() {
        for mode in [RetryMode::Resume, RetryMode::WholeFile] {
            let mut plain = StorageService::new(4, 24).unwrap();
            let mut none = StorageService::new(4, 24).unwrap();
            none.set_fault_plan(FaultPlan::none(4), RetryPolicy::default(), mode)
                .unwrap();
            for i in 0..20u64 {
                let c = photo(i % 5);
                let name = format!("f{i}");
                let a = plain.store(i % 3, FileManifest::build(&name, &c), i * 100);
                let b = none.store(i % 3, FileManifest::build(&name, &c), i * 100);
                assert_eq!(a, b, "{mode:?}");
            }
            for i in 0..20u64 {
                let name = format!("f{i}");
                let a = plain.retrieve(i % 3, &name, 10_000);
                let b = none.retrieve(i % 3, &name, 10_000);
                assert_eq!(a, b, "{mode:?}");
            }
            // Every counter, `transfer.*` included, books nothing.
            let counters = none.metrics().snapshot().counters;
            assert!(counters.values().all(|&n| n == 0), "{mode:?}");
            assert_eq!(
                plain.metrics().snapshot().to_json(),
                none.metrics().snapshot().to_json(),
                "{mode:?}"
            );
            // Server-side state is bit-identical too: same chunk requests,
            // same hourly loads, same residency.
            for (p, f) in plain.frontends().iter().zip(none.frontends()) {
                assert_eq!(p.chunk_puts, f.chunk_puts);
                assert_eq!(p.chunk_gets, f.chunk_gets);
                assert_eq!(p.stored_bytes(), f.stored_bytes());
                assert_eq!(p.upload_load, f.upload_load);
                assert_eq!(p.download_load, f.download_load);
            }
        }
    }

    #[test]
    fn upload_fails_over_past_down_frontend() {
        for mode in [RetryMode::Resume, RetryMode::WholeFile] {
            let mut svc = StorageService::new(2, 24).unwrap();
            let user = 1u64;
            let home = svc.metadata().closest_frontend(user);
            // The preferred front-end is down for the whole horizon.
            let mut plan = FaultPlan::none(2);
            plan.frontend_outages[home] = Windows::new(vec![(0, u64::MAX)]);
            svc.set_fault_plan(plan, RetryPolicy::default(), mode)
                .unwrap();
            let out = svc
                .store(user, FileManifest::build("a.jpg", &photo(1)), 0)
                .unwrap();
            assert_eq!(out.frontend, Some(1 - home), "failed over to the peer");
            assert_eq!(count(&svc, "storage.failovers"), 1);
            assert_eq!(count(&svc, "storage.failed_ops"), 0);
        }
    }

    #[test]
    fn all_frontends_down_exhausts_budget() {
        for mode in [RetryMode::Resume, RetryMode::WholeFile] {
            let mut svc = StorageService::new(2, 24).unwrap();
            let mut plan = FaultPlan::none(2);
            for w in &mut plan.frontend_outages {
                *w = Windows::new(vec![(0, u64::MAX)]);
            }
            let retry = RetryPolicy { max_attempts: 3 };
            svc.set_fault_plan(plan, retry, mode).unwrap();
            let err = svc
                .store(1, FileManifest::build("a.jpg", &photo(1)), 0)
                .unwrap_err();
            assert_eq!(err, ServiceError::AllFrontendsDown { attempts: 3 });
            assert_eq!(count(&svc, "storage.failed_ops"), 1);
            assert_eq!(count(&svc, "storage.retries"), 2);
            // The failed store left no namespace entry behind.
            assert!(svc.metadata().list(1).is_empty());
            assert_eq!(svc.metadata().distinct_contents(), 0);
        }
    }

    #[test]
    fn metadata_outage_delays_then_succeeds() {
        let mut svc = StorageService::new(2, 24).unwrap();
        let mut plan = FaultPlan::none(2);
        // Short outage: the first backoff (≥ 100 ms) clears it.
        plan.metadata_outages = Windows::new(vec![(0, 50)]);
        svc.set_fault_plan(plan, RetryPolicy::default(), RetryMode::Resume)
            .unwrap();
        let out = svc
            .store(1, FileManifest::build("a.jpg", &photo(1)), 0)
            .unwrap();
        assert!(!out.deduplicated);
        assert!(count(&svc, "storage.retries") >= 1);
        assert_eq!(count(&svc, "storage.failed_ops"), 0);
        // The virtual clock spent at least the outage waiting it out.
        assert!(count(&svc, "storage.backoff_ms") >= 50);
    }

    #[test]
    fn brownout_timeouts_inflate_retry_bytes() {
        // A 3-chunk file against a front-end browned out for good, where
        // every chunk send times out. Each attempt sends each chunk twice
        // (the per-attempt chunk budget is `max_attempts`) and stalls, so
        // the operation sends every chunk 4 times and all but its first
        // send are retry bytes. Nothing verified, so the modes agree.
        for mode in [RetryMode::Resume, RetryMode::WholeFile] {
            let mut svc = StorageService::new(1, 24).unwrap();
            let mut plan = FaultPlan::none(1);
            plan.frontend_brownouts[0] = Windows::new(vec![(0, u64::MAX)]);
            plan.chunk_timeout_prob = 1.0;
            let retry = RetryPolicy { max_attempts: 2 };
            svc.set_fault_plan(plan, retry, mode).unwrap();
            let err = svc
                .store(1, FileManifest::build("a.jpg", &photo(1)), 0)
                .unwrap_err();
            assert_eq!(
                err,
                ServiceError::ChunkTimeout {
                    frontend: 0,
                    attempts: 2
                }
            );
            assert_eq!(count(&svc, "storage.chunk_timeouts"), 2 * 3 * 2, "{mode:?}");
            assert_eq!(
                count(&svc, "storage.retry_bytes"),
                3 * 1_500_000,
                "{mode:?}"
            );
            assert_eq!(count(&svc, "storage.failed_ops"), 1);
            assert_eq!(count(&svc, "storage.retries"), 1);
            assert_eq!(count(&svc, "transfer.chunks_sent"), 4 * 3);
            assert_eq!(svc.stored_bytes(), 0);
        }
    }

    #[test]
    fn dedup_retrieve_works_without_reupload() {
        // The §2.1 promise: a deduplicated store is still fully retrievable.
        let mut svc = StorageService::new(3, 24).unwrap();
        svc.store(1, FileManifest::build("a", &photo(9)), 0)
            .unwrap();
        let o = svc
            .store(2, FileManifest::build("b", &photo(9)), 1)
            .unwrap();
        assert!(o.deduplicated);
        // The content lives on user 1's front-end; the metadata server
        // routes user 2's retrieval there, so the full bytes come back and
        // no front-end reports a missing chunk.
        let got = svc.retrieve(2, "b", 2).expect("routed");
        assert_eq!(got.bytes_downloaded, 1_500_000);
        assert!(svc.frontends().iter().all(|f| f.missing_gets == 0));
    }

    /// One front-end that browns out (timeouts at `prob`) for 200 ms, then
    /// goes down until 5 s: a transfer started at 0 stalls partway and its
    /// retry finds the front-end still down. From 5 s on the weather is
    /// clear, with the same plan installed.
    fn stall_then_clear_plan(seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::none(1);
        plan.seed = seed;
        plan.frontend_brownouts[0] = Windows::new(vec![(0, 200)]);
        plan.frontend_outages[0] = Windows::new(vec![(200, 5_000)]);
        plan.chunk_timeout_prob = 0.5;
        plan
    }

    const TWO_ATTEMPTS: RetryPolicy = RetryPolicy { max_attempts: 2 };

    #[test]
    fn mid_transfer_outage_resumes_only_missing_chunks() {
        // 8-chunk file; a brownout that hardens into an outage interrupts
        // the first upload partway, leaving a partial on the front-end.
        let size = 4_000_000u64;
        let content = Content::Synthetic { seed: 21, size };
        let mut svc = StorageService::new(1, 24).unwrap();
        svc.set_fault_plan(stall_then_clear_plan(9), TWO_ATTEMPTS, RetryMode::Resume)
            .unwrap();
        let err = svc
            .store(1, FileManifest::build("big.bin", &content), 0)
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::AllFrontendsDown { .. } | ServiceError::FrontendUnavailable { .. }
        ));
        let before = svc.metrics().snapshot().counters;
        let verified = svc.frontends()[0].distinct_chunks() as u64;
        let partial_bytes = svc.frontends()[0].stored_bytes();
        assert!(
            verified > 0 && verified < 8,
            "partial progress: {verified}/8"
        );
        // The failed store left no namespace entry, but the chunks stay.
        assert!(svc.metadata().list(1).is_empty());

        // Weather clears; the retried upload skips what the front-end holds.
        let out = svc
            .store(1, FileManifest::build("big.bin", &content), 10_000)
            .unwrap();
        assert!(!out.deduplicated);
        assert_eq!(
            out.bytes_uploaded,
            size - partial_bytes,
            "only missing bytes moved"
        );
        let delta = |name: &str| count(&svc, name) - before[name];
        assert_eq!(delta("transfer.chunks_deduped"), verified);
        assert_eq!(
            delta("transfer.chunks_sent"),
            8 - verified,
            "resume sent only the missing chunks"
        );
        assert_eq!(delta("transfer.resumed_sessions"), 1);
        assert_eq!(delta("transfer.resume_saved_bytes"), partial_bytes);
        // The finished file is whole and fully retrievable.
        assert_eq!(svc.stored_bytes(), size);
        let got = svc.retrieve(1, "big.bin", 20_000).unwrap();
        assert_eq!(got.bytes_downloaded, size);
        assert!(svc.frontends().iter().all(|f| f.missing_gets == 0));
        // The earlier partial holds a reference through the completed
        // upload only: one delete and one GC free the whole file.
        assert!(svc.delete(1, "big.bin"));
        assert_eq!(svc.collect_garbage(), size);
        assert_eq!(svc.stored_bytes(), 0);
    }

    #[test]
    fn mid_transfer_outage_restarts_whole_file() {
        // The same stalled upload in whole-file mode keeps nothing.
        let size = 4_000_000u64;
        let content = Content::Synthetic { seed: 21, size };
        let mut svc = StorageService::new(1, 24).unwrap();
        svc.set_fault_plan(stall_then_clear_plan(9), TWO_ATTEMPTS, RetryMode::WholeFile)
            .unwrap();
        assert!(svc
            .store(1, FileManifest::build("big.bin", &content), 0)
            .is_err());
        let sent = count(&svc, "transfer.chunks_sent");
        assert!(sent > 0, "the stalled attempt moved chunks");
        assert_eq!(svc.frontends()[0].distinct_chunks(), 0);
        assert!(svc.metadata().list(1).is_empty());

        // The retry starts from byte zero.
        let out = svc
            .store(1, FileManifest::build("big.bin", &content), 10_000)
            .unwrap();
        assert_eq!(out.bytes_uploaded, size);
        assert_eq!(count(&svc, "transfer.chunks_sent") - sent, 8);
        assert_eq!(count(&svc, "transfer.chunks_deduped"), 0);
        assert_eq!(count(&svc, "transfer.resumed_sessions"), 0);
        assert_eq!(svc.stored_bytes(), size);
    }

    #[test]
    fn interrupted_download_resumes_from_partial() {
        let size = 4_000_000u64;
        let content = Content::Synthetic { seed: 22, size };
        let mut svc = StorageService::new(1, 24).unwrap();
        svc.store(1, FileManifest::build("big.bin", &content), 0)
            .unwrap();
        svc.set_fault_plan(stall_then_clear_plan(5), TWO_ATTEMPTS, RetryMode::Resume)
            .unwrap();
        let err = svc.retrieve(1, "big.bin", 0).unwrap_err();
        assert!(err.is_fault());
        let served_partial: f64 = svc.frontends()[0].download_load.iter().sum();
        assert!(
            served_partial > 0.0 && served_partial < size as f64,
            "partial download: {served_partial}"
        );

        let got = svc.retrieve(1, "big.bin", 10_000).unwrap();
        assert_eq!(got.bytes_downloaded, size);
        assert_eq!(count(&svc, "transfer.resumed_sessions"), 1);
        // Across both calls every chunk was served exactly once: the
        // resume re-requested none the client already verified.
        let served: f64 = svc.frontends()[0].download_load.iter().sum();
        assert_eq!(served, size as f64);
        // The partial is consumed: the next retrieve is a fresh session.
        svc.retrieve(1, "big.bin", 20_000).unwrap();
        assert_eq!(count(&svc, "transfer.resumed_sessions"), 1);
    }

    #[test]
    fn interrupted_whole_file_download_starts_over() {
        let size = 4_000_000u64;
        let content = Content::Synthetic { seed: 22, size };
        let mut svc = StorageService::new(1, 24).unwrap();
        svc.store(1, FileManifest::build("big.bin", &content), 0)
            .unwrap();
        svc.set_fault_plan(stall_then_clear_plan(5), TWO_ATTEMPTS, RetryMode::WholeFile)
            .unwrap();
        assert!(svc.retrieve(1, "big.bin", 0).is_err());
        let served_partial: f64 = svc.frontends()[0].download_load.iter().sum();
        assert!(served_partial > 0.0 && served_partial < size as f64);
        // No partial was kept: the retry fetches every byte again.
        svc.retrieve(1, "big.bin", 10_000).unwrap();
        assert_eq!(count(&svc, "transfer.resumed_sessions"), 0);
        let served: f64 = svc.frontends()[0].download_load.iter().sum();
        assert_eq!(served, served_partial + size as f64);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::content::Content;
    use mcs_stats::rng::{stream_rng, Rng};

    /// Any operation sequence keeps the service consistent: a stored,
    /// undeleted path always resolves with full bytes; no front-end
    /// ever reports a missing chunk; GC never breaks a live link. Each of
    /// the 64 cases runs 1-59 ops, each a store, retrieve, delete or GC
    /// with equal odds, by 4 users over 8 names.
    #[test]
    fn prop_random_op_sequences_stay_consistent() {
        for case in 0..64 {
            let mut rng = stream_rng(0x5EED, case);
            let mut svc = StorageService::new(4, 24).unwrap();
            // Ground truth: (user, name) -> expected size if live.
            let mut live: std::collections::HashMap<(u64, String), u64> =
                std::collections::HashMap::new();
            for t in 0..rng.random_range(1u64..60) {
                let now = t * 1000;
                let kind = rng.random_range(0u32..4);
                let user = rng.random_range(0u64..4);
                let name = format!("f{}", rng.random_range(0u32..8));
                match kind {
                    0 => {
                        let seed = rng.random_range(0u64..6);
                        let size = rng.random_range(1u64..2_000_000);
                        let content = Content::Synthetic { seed, size };
                        let stored = svc.store(user, FileManifest::build(&name, &content), now);
                        assert!(stored.is_ok(), "case {case}, op {t}: {stored:?}");
                        live.insert((user, name), size);
                    }
                    1 => {
                        let got = svc.retrieve(user, &name, now);
                        match live.get(&(user, name)) {
                            Some(&size) => {
                                let bytes = got.map(|g| g.bytes_downloaded);
                                assert_eq!(bytes, Ok(size), "case {case}, op {t}");
                            }
                            None => {
                                assert_eq!(got, Err(ServiceError::NotFound), "case {case}, op {t}")
                            }
                        }
                    }
                    2 => {
                        let existed = svc.delete(user, &name);
                        let expected = live.remove(&(user, name)).is_some();
                        assert_eq!(existed, expected, "case {case}, op {t}");
                    }
                    _ => {
                        let _ = svc.collect_garbage();
                    }
                }
            }
            // Final sweep: every live path still fully retrievable.
            svc.collect_garbage();
            for ((user, name), &size) in &live {
                let bytes = svc
                    .retrieve(*user, name, 1_000_000)
                    .map(|g| g.bytes_downloaded);
                assert_eq!(bytes, Ok(size), "case {case}: {user}/{name} after GC");
            }
            let missing = svc.frontends().iter().any(|f| f.missing_gets > 0);
            assert!(!missing, "case {case}: a front-end missed a chunk");
        }
    }
}
