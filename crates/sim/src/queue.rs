//! Deterministic event queue over a microsecond clock.
//!
//! Extracted from `mcs-net`'s private simulation core so the packet
//! engine and the chunk-transfer engine share one timeline — in the
//! spirit of smoltcp's explicit event-driven design: no threads, no async
//! runtime, every state transition happens at an explicit timestamp.
//!
//! The queue enforces its causality invariants **identically in debug and
//! release builds**. An earlier revision guarded pop-side monotonicity
//! with `debug_assert!` only, which meant release binaries would silently
//! accept a corrupted timeline that debug binaries rejected.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Simulation time in microseconds.
pub type Time = u64;

/// One microsecond per millisecond.
pub const MS: Time = 1_000;
/// Microseconds per second.
pub const SEC: Time = 1_000_000;

/// A causality violation on the simulation timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimelineError {
    /// An event was scheduled before `now`.
    PastEvent {
        /// The offending timestamp.
        at: Time,
        /// The clock's current time.
        now: Time,
    },
}

impl fmt::Display for TimelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimelineError::PastEvent { at, now } => {
                write!(f, "scheduling into the past: {at} < {now}")
            }
        }
    }
}

impl std::error::Error for TimelineError {}

/// An event scheduled at a time; insertion order breaks ties so the queue
/// is fully deterministic.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on (time, insertion seq).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A tie slot taken from the queue ahead of time with
/// [`EventQueue::reserve`]: the event later scheduled with it dispatches
/// among same-time events as if it had been scheduled at the moment of
/// reservation. Neither `Clone` nor `Copy`, so each slot is filled at
/// most once; dropping a ticket unfilled just leaves its slot empty.
#[derive(Debug)]
#[must_use = "a reserved slot is only used by scheduling with it"]
pub struct Ticket {
    seq: u64,
}

/// Deterministic min-priority event queue, and the simulation clock: `now`
/// is the timestamp of the last popped event. Only [`EventQueue::pop`]
/// moves it, and never backwards.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: Time,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Current simulation time on the millisecond service clock.
    pub fn now_ms(&self) -> u64 {
        self.now / MS
    }

    /// Takes the next insertion number now, to be filled later with
    /// [`EventQueue::schedule_reserved`]. Ties at one timestamp dispatch in
    /// insertion order, so the reserved event sorts after everything
    /// scheduled before this call and before everything scheduled after
    /// it, whenever it is actually queued. A component with one live timer
    /// can thus re-queue it lazily and still dispatch it in the slot an
    /// eagerly queued timer would have held.
    pub fn reserve(&mut self) -> Ticket {
        let seq = self.next_seq;
        self.next_seq += 1;
        Ticket { seq }
    }

    /// Schedules `event` at absolute time `at`, rejecting past timestamps
    /// with a typed [`TimelineError`] instead of a panic.
    pub fn try_schedule(&mut self, at: Time, event: E) -> Result<(), TimelineError> {
        let ticket = self.reserve();
        self.try_schedule_reserved(at, ticket, event)
    }

    /// Schedules `event` at absolute time `at` in the tie slot `ticket`
    /// reserved. A past `at` is rejected with a typed [`TimelineError`]
    /// and nothing is enqueued.
    pub fn try_schedule_reserved(
        &mut self,
        at: Time,
        ticket: Ticket,
        event: E,
    ) -> Result<(), TimelineError> {
        if at < self.now {
            return Err(TimelineError::PastEvent { at, now: self.now });
        }
        self.heap.push(Scheduled {
            at,
            seq: ticket.seq,
            event,
        });
        Ok(())
    }

    /// Schedules `event` at absolute time `at`. Scheduling in the past is a
    /// logic error and panics (it would silently reorder causality); use
    /// [`EventQueue::try_schedule`] to handle the violation as a value.
    pub fn schedule(&mut self, at: Time, event: E) {
        let ticket = self.reserve();
        self.schedule_reserved(at, ticket, event);
    }

    /// Schedules `event` at absolute time `at` in the tie slot `ticket`
    /// reserved; panics on a past `at` like [`EventQueue::schedule`] (the
    /// fallible path is [`EventQueue::try_schedule_reserved`]).
    pub fn schedule_reserved(&mut self, at: Time, ticket: Ticket, event: E) {
        if let Err(e) = self.try_schedule_reserved(at, ticket, event) {
            // mcs-lint: allow(panic, scheduling into the past is a causality bug; fallible paths are the try_ forms)
            panic!("{e}");
        }
    }

    /// Schedules `event` after a relative delay. The deadline saturates
    /// at the end of time: a wrapping add would compute a *past* deadline
    /// and panic in [`EventQueue::schedule`] (debug) or corrupt event
    /// order (release, before the monotonicity guard caught it).
    pub fn schedule_in(&mut self, delay: Time, event: E) {
        self.schedule(self.now().saturating_add(delay), event);
    }

    /// Pops the earliest event, advancing the clock to it. The
    /// monotonicity invariant holds in release builds too: a pre-`now`
    /// heap entry means the timeline is already corrupt, and carrying on
    /// would corrupt every downstream measurement.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let s = self.heap.pop()?;
        if s.at < self.now {
            // mcs-lint: allow(panic, a pre-`now` heap entry means causality is already corrupt)
            panic!("time went backwards: {} < {}", s.at, self.now);
        }
        self.now = s.at;
        Some((s.at, s.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is drained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(5, 1);
        q.schedule(5, 2);
        q.schedule(5, 3);
        assert_eq!(q.pop(), Some((5, 1)));
        assert_eq!(q.pop(), Some((5, 2)));
        assert_eq!(q.pop(), Some((5, 3)));
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(5_100, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 5_100);
        assert_eq!(q.now_ms(), 5, "the ms clock truncates");
        q.schedule_in(50, ());
        assert_eq!(q.pop(), Some((5_150, ())));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(100, ());
        q.pop();
        q.schedule(50, ());
    }

    // Regression test for the build-profile divergence bug: the pre-split
    // `crates/net/src/sim.rs` queue had no fallible scheduling path at all
    // (this test does not compile against it) and guarded pop-side
    // monotonicity with `debug_assert!` only, so release builds enforced
    // weaker invariants than debug builds.
    #[test]
    fn past_scheduling_is_a_typed_error_in_every_profile() {
        let mut q = EventQueue::new();
        q.schedule(100, "late");
        assert_eq!(q.pop(), Some((100, "late")));
        let err = q.try_schedule(50, "early").unwrap_err();
        assert_eq!(err, TimelineError::PastEvent { at: 50, now: 100 });
        assert!(q.is_empty(), "the rejected event must not be enqueued");
        // The same check guards release builds: no `debug_assert!` is
        // involved anywhere on the schedule or pop path.
        assert!(q.try_schedule(100, "on-time").is_ok());
        assert_eq!(q.pop(), Some((100, "on-time")));
    }

    #[test]
    fn reserved_slot_dispatches_in_its_tie_position() {
        let mut q = EventQueue::new();
        q.schedule(5, "A");
        let t = q.reserve();
        q.schedule(5, "B");
        q.schedule(5, "C");
        q.schedule_reserved(5, t, "T");
        assert_eq!(q.pop(), Some((5, "A")));
        assert_eq!(q.pop(), Some((5, "T")));
        assert_eq!(q.pop(), Some((5, "B")));
        assert_eq!(q.pop(), Some((5, "C")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn reserved_slot_filled_after_pops_keeps_its_position() {
        // The slot is filled only once earlier events have dispatched, as
        // a lazily re-armed timer is; it still precedes later same-time
        // events.
        let mut q = EventQueue::new();
        let t = q.reserve();
        q.schedule(3, "early");
        q.schedule(8, "after");
        assert_eq!(q.pop(), Some((3, "early")));
        q.schedule_reserved(8, t, "timer");
        q.schedule(8, "later");
        assert_eq!(q.pop(), Some((8, "timer")));
        assert_eq!(q.pop(), Some((8, "after")));
        assert_eq!(q.pop(), Some((8, "later")));
    }

    #[test]
    fn filling_a_ticket_in_the_past_is_a_typed_error() {
        let mut q = EventQueue::new();
        let t = q.reserve();
        q.schedule(100, "now");
        assert_eq!(q.pop(), Some((100, "now")));
        let err = q.try_schedule_reserved(50, t, "late").unwrap_err();
        assert_eq!(err, TimelineError::PastEvent { at: 50, now: 100 });
        assert!(q.is_empty(), "the rejected event must not be enqueued");
    }

    #[test]
    #[should_panic(expected = "past")]
    fn schedule_reserved_into_the_past_panics() {
        let mut q = EventQueue::new();
        let t = q.reserve();
        q.schedule(100, ());
        q.pop();
        q.schedule_reserved(50, t, ());
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1, 0);
        q.schedule(2, 1);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn schedule_in_saturates_near_the_end_of_time() {
        // Regression: `schedule_in` computed `now() + delay` with a bare
        // add; once the clock sat near `Time::MAX` the deadline wrapped
        // into the past, panicking in `schedule` (debug) or corrupting
        // event order before the monotonicity guard fired (release).
        let mut q = EventQueue::new();
        q.schedule(Time::MAX - 10, "late");
        assert_eq!(q.pop(), Some((Time::MAX - 10, "late")));
        q.schedule_in(100, "clamped");
        assert_eq!(q.pop(), Some((Time::MAX, "clamped")));
    }

    #[test]
    fn interleaved_schedule_pop_deterministic() {
        let run = || {
            let mut q = EventQueue::new();
            let mut order = Vec::new();
            q.schedule(10, 0u32);
            q.schedule(5, 1);
            while let Some((t, e)) = q.pop() {
                order.push((t, e));
                if e == 1 {
                    q.schedule_in(3, 2);
                    q.schedule_in(3, 3);
                }
            }
            order
        };
        assert_eq!(run(), run());
        assert_eq!(run(), vec![(5, 1), (8, 2), (8, 3), (10, 0)]);
    }
}
