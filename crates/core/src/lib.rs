//! `mcs` — umbrella crate of the IMC'16 mobile cloud storage reproduction.
//!
//! Re-exports the substrate crates and provides the experiment suite that
//! regenerates every table and figure of *"An Empirical Analysis of a
//! Large-scale Mobile Cloud Storage Service"* (IMC 2016):
//!
//! ```no_run
//! use mcs::{ExperimentSuite, ReproConfig};
//!
//! let mut suite = ExperimentSuite::new(ReproConfig::small(42));
//! let report = suite.run("f3".parse().unwrap());
//! println!("{}", report.render());
//! ```
//!
//! The eight substrate crates are available as modules:
//!
//! * [`stats`] — statistics (EM fits, ECDFs, SE rank models, GoF tests),
//! * [`trace`] — Table 1 log schema + paper-calibrated workload generator,
//! * [`analysis`] — the paper's analysis pipeline,
//! * [`sim`] — the seeded discrete-event queue: the one µs timeline the
//!   packet and chunk-transfer engines loop over (DESIGN.md §10),
//! * [`net`] — the discrete-event TCP / chunk-transfer simulator (§4),
//! * [`storage`] — the §2.1 service substrate and Table 4 optimisations,
//! * [`faults`] — deterministic fault-injection plans and retry policies,
//! * [`obs`] — deterministic metrics/tracing (logical time, mergeable
//!   registries, stable exporters).

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_docs)]

pub use mcs_analysis as analysis;
pub use mcs_faults as faults;
pub use mcs_net as net;
pub use mcs_obs as obs;
pub use mcs_sim as sim;
pub use mcs_stats as stats;
pub use mcs_storage as storage;
pub use mcs_trace as trace;

pub mod config;
mod exp_behavior;
mod exp_perf;
mod exp_systems;
pub mod render;
pub mod report;
pub mod sensitivity;
pub mod suite;

pub use config::{ReproConfig, Scale};
pub use report::{ExperimentId, Metric, Report};
pub use sensitivity::{run_sensitivity, SensitivityReport};
pub use suite::ExperimentSuite;
