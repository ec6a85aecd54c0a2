//! `mcs-obs` — deterministic observability for the reproduction stack.
//!
//! The paper's core deliverable is *measurement*: session statistics,
//! per-chunk transfer diagnosis, degraded-mode accounting. This crate is
//! how the stack measures *itself* without breaking the determinism
//! contract every other crate is held to (DESIGN.md §7):
//!
//! * **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]) are monoids with a
//!   `merge()` law: pushing a workload into per-shard metric sets and
//!   merging them in ascending shard order is bit-identical to pushing the
//!   whole workload into one set — the same contract as the analysis
//!   collectors, so instrumented parallel code stays reproducible at any
//!   thread count.
//! * **[`Registry`]** names metrics and merges whole per-shard sets *by
//!   name*, so shards that registered in different orders still combine
//!   deterministically. It is the one record every instrumented entry
//!   point (`mcs_analysis::analyze`,
//!   `TraceGenerator::write_shards_observed`, the storage replay) reports
//!   into. Only workload-derived values are booked, never wall-clock time,
//!   so the merged registry is a pure function of the inputs.
//! * **Exporters** ([`Snapshot::to_json`], [`Snapshot::to_table`]) are
//!   stable-ordered (BTreeMap-backed), so two bit-identical registries
//!   render byte-identical output.
//!
//! ```
//! use mcs_obs::Registry;
//!
//! let mut a = Registry::new();
//! let c = a.counter("replay.retries");
//! a.add(c, 3);
//!
//! // A second shard, registered independently, merges by name.
//! let mut b = Registry::new();
//! let c2 = b.counter("replay.retries");
//! b.add(c2, 4);
//!
//! a.merge(&b);
//! assert_eq!(a.snapshot().counters["replay.retries"], 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod export;
pub mod metrics;
pub mod registry;

pub use export::Snapshot;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{CounterId, GaugeId, HistId, Registry};
