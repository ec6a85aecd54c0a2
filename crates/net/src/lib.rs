//! Deterministic discrete-event TCP and chunk-transfer simulator for the
//! IMC'16 mobile cloud storage reproduction.
//!
//! Section 4 of the paper diagnoses the service's transfer performance with
//! packet captures: the 64 KB receive window servers advertise (no window
//! scaling) caps upload throughput, and the idle gap between sequential
//! chunk requests (`T_srv + T_clt`, Fig. 11) restarts TCP slow start when
//! it exceeds the RTO — ~60 % of Android gaps vs ~18 % of iOS gaps.
//!
//! The paper's testbed (a Samsung Pad, an iPad Air 2 and a production
//! front-end) is a hardware gate; this crate substitutes a from-scratch
//! simulator in which those effects are **emergent**: [`tcp`] implements
//! standard RFC 5681/6298 sender behaviour, [`chunkflow`] drives the §2.1
//! HTTP chunk protocol over it, [`device`] supplies the measured
//! Android/iOS client processing-time distributions — and Figs. 12, 13 and
//! 16 fall out of [`experiments`].
//!
//! The model has one server, the deployed service's (`T_srv` ≈ 100 ms, an
//! unscaled 64 KB window), and stock TCP with immediate ACKs. A
//! [`FlowConfig`] sets only what the §4 experiments and the §4.3
//! mitigations vary: device, links, chunk size, batching,
//! slow-start-after-idle, pacing and server window scaling.
//!
//! Packet, ACK, timer and chunk-control events run on the `mcs-sim`
//! [`EventQueue`](mcs_sim::EventQueue); this crate re-exports only its
//! time units ([`Time`], [`MS`], [`SEC`]). Everything is deterministic in
//! the flow seed; no wall clock, no threads.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod capture;
pub mod chunkflow;
pub mod device;
pub mod experiments;
pub mod link;
pub mod profile;
mod proptests;
pub mod tcp;

pub use capture::{ChunkRecord, FlowTrace, IdleRecord};
pub use chunkflow::{simulate_flow, try_simulate_shared_report, FlowConfig, SharedReport};
pub use device::{DeviceProfile, Direction};
pub use link::{Link, LinkConfig, LinkStats};
pub use mcs_sim::{Time, MS, SEC};
pub use profile::{
    access_cap_bps, fluid_cap_bps, simulate_fair_share, FairFlowSpec, FairShareOutcome,
    LinkProfile, ProfileMix,
};
pub use tcp::{TcpSender, MSS};
