//! The event list.
//!
//! A binary-heap priority queue keyed on `(time, sequence)` — the classical
//! "event list" of a discrete-event simulator (§3.1 of the paper: "DE
//! simulators manage their events via an event list that represents the event
//! distribution over time and maintains a proper time-ordering").
//!
//! Scheduling into the past is a programming error and is rejected: "events
//! may be generated for any future time, or the current time, but never for
//! past times".

use crate::event::{Event, EventKind};
use crate::time::SimTime;
use std::collections::BinaryHeap;

/// Error returned when an event is scheduled before the scheduler's current
/// time, which would violate causality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleInPastError {
    /// The time the caller asked for.
    pub requested: SimTime,
    /// The scheduler's current time.
    pub now: SimTime,
}

impl std::fmt::Display for ScheduleInPastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "event scheduled at {} which is before current time {}",
            self.requested, self.now
        )
    }
}

impl std::error::Error for ScheduleInPastError {}

/// Time-ordered event list with stable FIFO tie-breaking and O(log n)
/// insertion/extraction.
///
/// # Examples
///
/// ```
/// use castanet_netsim::scheduler::EventList;
/// use castanet_netsim::event::{EventKind, ModuleId, PortId};
/// use castanet_netsim::time::SimTime;
///
/// let mut list = EventList::new();
/// list.schedule(SimTime::from_ns(10), EventKind::Stop)?;
/// assert_eq!(list.next_time(), Some(SimTime::from_ns(10)));
/// let ev = list.pop().expect("one event pending");
/// assert_eq!(ev.time(), SimTime::from_ns(10));
/// # Ok::<(), castanet_netsim::scheduler::ScheduleInPastError>(())
/// ```
#[derive(Debug, Default)]
pub struct EventList {
    heap: BinaryHeap<std::cmp::Reverse<Event>>,
    next_seq: u64,
    now: SimTime,
    scheduled_total: u64,
    executed_total: u64,
}

impl EventList {
    /// Creates an empty event list at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The time of the most recently popped event (the simulation's "current
    /// simulated time" `t_cur`).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (for the E7 event-count
    /// comparison between system-level and RTL simulation).
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Total number of events executed so far.
    #[must_use]
    pub fn executed_total(&self) -> u64 {
        self.executed_total
    }

    /// Schedules `kind` to fire at absolute time `at`.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleInPastError`] if `at` precedes the current time.
    /// Scheduling *at* the current time is allowed, matching the paper's rule.
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) -> Result<(), ScheduleInPastError> {
        if at < self.now {
            return Err(ScheduleInPastError {
                requested: at,
                now: self.now,
            });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.heap.push(std::cmp::Reverse(Event {
            time: at,
            seq,
            kind,
        }));
        Ok(())
    }

    /// Time stamp of the earliest pending event, without removing it.
    #[must_use]
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|std::cmp::Reverse(ev)| ev.time)
    }

    /// Removes and returns the earliest pending event, advancing the current
    /// time to its time stamp.
    pub fn pop(&mut self) -> Option<Event> {
        let std::cmp::Reverse(ev) = self.heap.pop()?;
        debug_assert!(
            ev.time >= self.now,
            "event list produced out-of-order event"
        );
        self.now = ev.time;
        self.executed_total += 1;
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ModuleId;

    fn interrupt(module: usize, code: u32) -> EventKind {
        EventKind::Interrupt {
            module: ModuleId(module),
            code,
        }
    }

    fn code_of(ev: &Event) -> u32 {
        match ev.kind() {
            EventKind::Interrupt { code, .. } => *code,
            _ => panic!("expected interrupt"),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut list = EventList::new();
        list.schedule(SimTime::from_ns(30), interrupt(0, 3))
            .unwrap();
        list.schedule(SimTime::from_ns(10), interrupt(0, 1))
            .unwrap();
        list.schedule(SimTime::from_ns(20), interrupt(0, 2))
            .unwrap();
        let order: Vec<u32> = std::iter::from_fn(|| list.pop())
            .map(|e| code_of(&e))
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut list = EventList::new();
        let t = SimTime::from_ns(5);
        for code in 0..10 {
            list.schedule(t, interrupt(0, code)).unwrap();
        }
        let order: Vec<u32> = std::iter::from_fn(|| list.pop())
            .map(|e| code_of(&e))
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn rejects_past_scheduling() {
        let mut list = EventList::new();
        list.schedule(SimTime::from_ns(10), interrupt(0, 0))
            .unwrap();
        list.pop().unwrap();
        assert_eq!(list.now(), SimTime::from_ns(10));
        let err = list
            .schedule(SimTime::from_ns(5), interrupt(0, 1))
            .unwrap_err();
        assert_eq!(err.requested, SimTime::from_ns(5));
        assert_eq!(err.now, SimTime::from_ns(10));
        // Scheduling at the current time is allowed.
        assert!(list.schedule(SimTime::from_ns(10), interrupt(0, 2)).is_ok());
    }

    #[test]
    fn next_time_peeks_without_advancing() {
        let mut list = EventList::new();
        list.schedule(SimTime::from_ns(7), interrupt(0, 0)).unwrap();
        assert_eq!(list.next_time(), Some(SimTime::from_ns(7)));
        assert_eq!(list.now(), SimTime::ZERO);
    }

    #[test]
    fn counters_track_activity() {
        let mut list = EventList::new();
        for i in 0..5 {
            list.schedule(SimTime::from_ns(i), interrupt(0, 0)).unwrap();
        }
        for _ in 0..3 {
            list.pop();
        }
        assert_eq!(list.scheduled_total(), 5);
        assert_eq!(list.executed_total(), 3);
        assert_eq!(list.len(), 2);
    }
}
