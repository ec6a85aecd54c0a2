//! Deterministic fault injection for the IMC'16 reproduction.
//!
//! Mobile clients live on lossy, high-RTT Wi-Fi/LTE paths, and production
//! clusters lose front-ends, brown out, and partition — yet a reproduction
//! that only ever sees fair weather proves nothing about resilience. This
//! crate supplies the *adverse* weather, deterministically:
//!
//! * [`windows`] — sorted, disjoint half-open time windows ([`Windows`]),
//!   the representation every fault schedule shares,
//! * [`plan`] — [`FaultPlan`]: per-component outage and brownout
//!   schedules generated from a single seed via
//!   [`mcs_stats::rng::stream_rng`], plus stateless per-operation fault
//!   coins ([`unit_coin`]) that do not depend on draw order,
//! * [`retry`] — [`RetryPolicy`]: an attempt budget over one fixed
//!   backoff schedule (200 ms doubling to a 10 s cap, ±50 % deterministic
//!   jitter),
//! * [`error`] — [`ConfigError`], the shared invalid-configuration error
//!   the storage and net crates return from fallible constructors.
//!
//! Everything honours the workspace determinism contract (DESIGN.md §7):
//! identical seeds give bit-identical fault timelines at any thread count,
//! because schedules are materialised once by a sequential pass and
//! per-send decisions are pure hashes of `(seed, stream, op, chunk, send)`
//! rather than draws from shared mutable RNG state.
//!
//! A plan's windows are in *milliseconds*, the service clock its
//! predicates are asked about. The packet layer takes its blackout
//! [`Windows`] in *microseconds* from its own caller; this crate converts
//! between the clocks nowhere (DESIGN.md §10.2).

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod error;
pub mod plan;
pub mod retry;
pub mod windows;

pub use error::ConfigError;
pub use plan::{unit_coin, FaultPlan, FaultPlanConfig};
pub use retry::RetryPolicy;
pub use windows::Windows;
