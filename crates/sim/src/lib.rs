//! `mcs-sim` — the one timeline every layer of the reproduction shares.
//!
//! The paper's headline numbers come from a single coherent week — 349 M
//! HTTP records from 1.15 M users on one wall clock — yet early versions
//! of this repository advanced time in three uncoordinated places: the
//! packet simulator's event queue, the storage replay's per-record
//! `now_ms` loop, and the fault plans' millisecond windows. This crate
//! holds the one discrete-event queue they now share (DESIGN.md §10):
//!
//! * [`queue`] — [`EventQueue`]: a deterministic min-priority queue over
//!   microsecond [`Time`], ties broken by insertion order, that is also
//!   the simulation clock: [`EventQueue::now`] is the timestamp of the
//!   last popped event, and only popping moves it. Scheduling into the
//!   past is a causality bug and is rejected identically in debug and
//!   release builds ([`EventQueue::try_schedule`] returns a typed
//!   [`TimelineError`]; [`EventQueue::schedule`] panics). A [`Ticket`]
//!   from [`EventQueue::reserve`] takes a tie slot now and is filled
//!   later, so a lazily queued timer keeps the slot an eager one held.
//!
//! Engines drive the queue with a plain `while let Some((now, ev)) =
//! q.pop()` loop and dispatch on the event, which already names what it
//! addresses (a flow, a side of a transfer).
//!
//! No wall clock, no threads, no RNG: everything downstream of a seed is
//! a pure function of the schedule order, so two runs — at any trace
//! generation thread count — pop bit-identical event sequences.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod queue;

pub use queue::{EventQueue, Ticket, Time, TimelineError, MS, SEC};
