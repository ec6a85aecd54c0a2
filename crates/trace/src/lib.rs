//! Log schema and synthetic workload generator for the IMC'16 mobile cloud
//! storage reproduction.
//!
//! The paper analysed 349 M HTTP request logs from a production service;
//! that trace is proprietary and its published download link is gone. This
//! crate substitutes a **generative workload model whose parameters are the
//! paper's own published numbers**:
//!
//! | Paper artifact | Planted via |
//! |---|---|
//! | Table 1 log schema | [`record::LogRecord`] |
//! | Fig. 3 two-mode operation intervals | session gap lognormals in [`config::SessionModel`] |
//! | §3.1 session-type mix (68.2 / 29.9 / 1.9 %) | session planning in [`sessions`] |
//! | Table 2 file-size mixtures | [`config::FileSizeModel`] |
//! | Table 3 user classes per client group | [`config::TraceConfig`] class mixes |
//! | Fig. 8/9 engagement bimodality | [`config::EngagementModel`] |
//! | Fig. 10 stretched-exponential activity | [`config::ActivityModel`] |
//! | Fig. 1 diurnal load with the 11 PM surge | [`config::DiurnalModel`] |
//! | Fig. 12/14/16 timing distributions | [`config::NetworkModel`] / [`netmodel`] |
//!
//! The companion `mcs-analysis` crate consumes only the raw log records and
//! re-derives every model — recovering the planted parameters end-to-end
//! validates the analysis pipeline, and the planted parameters being the
//! paper's keeps every reproduced figure on the published shape.
//!
//! Generation is fully deterministic in [`config::TraceConfig::seed`].

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod blocks;
pub mod columnar;
pub mod config;
pub mod generator;
pub mod io;
pub mod netmodel;
pub mod population;
mod proptests;
pub mod record;
pub mod sessions;
pub mod shard;

pub use blocks::{effective_threads, fan_out, shard_ranges, BlockSource};
pub use config::TraceConfig;
pub use generator::TraceGenerator;
pub use io::{
    collect_records_lossy, open_trace, ErrorBudget, LossyRead, ReadError, RecordStream,
    TraceFormat, TraceWriter,
};
pub use population::{ClientGroup, UserClass, UserProfile};
pub use record::{DeviceType, Direction, LogRecord, RequestType, CHUNK_SIZE};
pub use sessions::SessionPlan;
pub use shard::ShardedTrace;
