//! Mobile cloud storage service substrate for the IMC'16 reproduction.
//!
//! Section 2.1 of the paper describes the examined service's architecture
//! precisely: metadata servers performing MD5-based file-level
//! deduplication, storage front-end servers moving 512 KB chunks, share
//! URLs, and no delta updates. This crate implements that service, plus the
//! optimisations the paper *proposes* (Table 4), as executable systems:
//!
//! * [`md5`] — RFC 1321 digests from scratch (content identifiers),
//! * [`content`] — chunk manifests over real or synthetic content,
//! * [`metadata`] — the metadata server: namespaces, dedup, share URLs,
//! * [`frontend`] — front-end chunk stores with hourly load accounting,
//! * [`service`] — the clustered façade used by examples and tests: one
//!   `store` (of the manifest the client computed) and one `retrieve`,
//!   which under an injected
//!   [`mcs_faults::FaultPlan`] retry, fail over and count what they did in
//!   the service's metric registry, resuming or restarting stalled
//!   transfers per [`RetryMode`],
//! * [`transfer`] — the resumable, out-of-order chunk-transfer engine
//!   (arrival windows, acks in any order, resume from the verified chunks)
//!   that faulted operations drive on an `mcs-sim` event queue,
//! * [`replay`](mod@replay) — a synthetic trace replayed through the
//!   service, one planned operation after another, in fair weather or
//!   under a fault plan, with the stores' manifests hashed ahead on a
//!   second thread,
//! * [`error`] — the [`ServiceError`] taxonomy `store`/`retrieve` return,
//! * [`defer`] — the "smart auto backup" deferred-upload scheduler
//!   (§3.2.2 implication) with peak-load/QoE evaluation,
//! * [`tier`] — f4-style hot/warm tiering and its cost model (Table 4),
//! * [`cache`] — an LRU download cache for the popularity-locality
//!   implication of §3.1.4.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod cache;
pub mod content;
pub mod defer;
pub mod error;
pub mod frontend;
pub mod md5;
pub mod metadata;
pub mod replay;
pub mod service;
pub mod tier;
pub mod transfer;

pub use cache::LruCache;
pub use content::{Content, FileManifest, CHUNK_SIZE};
pub use defer::{evaluate_deferral, DeferPolicy, UploadJob};
pub use error::ServiceError;
pub use frontend::FrontEnd;
pub use md5::{md5 as md5_digest, Digest, Md5};
pub use metadata::{MetadataServer, ShareUrl, UserId};
pub use replay::{
    replay, replay_trace_faulted_observed, replay_trace_observed, ReplayConfig, ReplayStats,
};
pub use service::{RetrieveOutcome, RetryMode, StorageService, StoreOutcome};
pub use tier::{Tier, TierPolicy, TieredStore};
pub use transfer::{
    run_transfer_attempt, AttemptReport, Channel, ChunkFate, Stall, TransferSession,
};
