//! Signals: named, resolved, multi-driver carriers of logic vectors.
//!
//! Each signal has one *driver slot* per driving process (plus one for
//! external stimulus such as the co-simulation entity); its visible value is
//! the IEEE-1164 resolution of all driver contributions, recomputed whenever
//! any driver schedules a new transaction. A change of the resolved value is
//! an *event* — the thing processes' sensitivity lists react to and the
//! quantity the paper's E7 ablation counts.

use crate::logic::Logic;
use crate::vector::LogicVector;
use castanet_netsim::time::SimTime;
use std::fmt;

/// Identifies a signal within a [`crate::sim::Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignalId(pub(crate) usize);

impl SignalId {
    /// Raw index in the simulator's signal table.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig#{}", self.0)
    }
}

/// Identifies a process within a simulator. The reserved value
/// [`ProcId::EXTERNAL`] is the driver slot used by test benches and the
/// co-simulation entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcId(pub(crate) usize);

impl ProcId {
    /// The external-stimulus pseudo-process (test bench / co-simulation
    /// entity).
    pub const EXTERNAL: ProcId = ProcId(usize::MAX);

    /// Raw index in the simulator's process table.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

pub(crate) struct SignalState {
    pub(crate) name: String,
    pub(crate) width: usize,
    /// Driver contributions, one slot per driving process. Signals have a
    /// handful of drivers at most (usually one), so a linear-scan vector
    /// beats a `HashMap` on both lookup and iteration, and keeps the
    /// resolution order deterministic.
    drivers: Vec<(ProcId, LogicVector)>,
    /// Current resolved value.
    pub(crate) value: LogicVector,
    /// `value.to_u64()`, refreshed on every event: processes read far
    /// more often than values change.
    pub(crate) value_u64: Option<u64>,
    /// Bit 0 of `value`, and bit 0 of the value before the most recent
    /// event (for edge detection).
    pub(crate) bit0: Logic,
    prev_bit0: Logic,
    /// Time of the most recent event.
    pub(crate) last_event: Option<SimTime>,
    /// Number of events (resolved-value changes) on this signal.
    pub(crate) event_count: u64,
}

impl SignalState {
    pub(crate) fn new(name: String, width: usize) -> Self {
        SignalState {
            name,
            width,
            drivers: Vec::new(),
            value: LogicVector::uninitialized(width),
            value_u64: None,
            bit0: Logic::U,
            prev_bit0: Logic::U,
            last_event: None,
            event_count: 0,
        }
    }

    /// Updates the contribution of `driver` and recomputes the resolved
    /// value. Returns `true` when the resolved value changed (an event).
    pub(crate) fn drive(&mut self, driver: ProcId, contribution: LogicVector, at: SimTime) -> bool {
        debug_assert_eq!(contribution.width(), self.width);
        if let Some(pos) = self.drivers.iter().position(|(d, _)| *d == driver) {
            if self.drivers[pos].1 == contribution {
                // Unchanged contribution resolves to the unchanged value;
                // skip the recompute entirely. This is the common case on
                // a clock edge: most outputs are re-driven with the value
                // they already carry.
                return false;
            }
            self.drivers[pos].1 = contribution;
        } else {
            self.drivers.push((driver, contribution));
        }
        let resolved = if self.drivers.len() == 1 {
            // Single driver (the overwhelmingly common topology): the
            // contribution is the resolved value, no table walks.
            self.drivers[0].1.clone()
        } else {
            let mut acc = self.drivers[0].1.clone();
            for (_, d) in &self.drivers[1..] {
                acc.resolve_assign(d);
            }
            acc
        };
        if resolved == self.value {
            false
        } else {
            self.value_u64 = resolved.to_u64();
            self.prev_bit0 = self.bit0;
            self.bit0 = resolved.bit(0);
            self.value = resolved;
            self.last_event = Some(at);
            self.event_count += 1;
            true
        }
    }

    /// `true` when the signal had an event at exactly `t`.
    pub(crate) fn event_at(&self, t: SimTime) -> bool {
        self.last_event == Some(t)
    }

    /// Rising edge at `t` on bit 0.
    pub(crate) fn rising_at(&self, t: SimTime) -> bool {
        self.event_at(t) && self.bit0.is_one() && !self.prev_bit0.is_one()
    }

    /// Falling edge at `t` on bit 0.
    pub(crate) fn falling_at(&self, t: SimTime) -> bool {
        self.event_at(t) && self.bit0.is_zero() && !self.prev_bit0.is_zero()
    }
}

/// Read-only snapshot of a signal's public state, used by waveform dumping
/// and debug displays.
#[derive(Debug, Clone)]
pub struct SignalInfo {
    /// Signal name.
    pub name: String,
    /// Width in bits.
    pub width: usize,
    /// Current resolved value.
    pub value: LogicVector,
    /// Events so far.
    pub event_count: u64,
}

/// Convenience: the scalar value 1-wide vector for `Logic` writes.
#[must_use]
pub fn scalar(value: Logic) -> LogicVector {
    LogicVector::from(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_driver_events() {
        let mut s = SignalState::new("clk".into(), 1);
        let t0 = SimTime::ZERO;
        assert!(s.drive(ProcId(0), scalar(Logic::Zero), t0));
        assert_eq!(s.value.bit(0), Logic::Zero);
        // Same value again: no event.
        assert!(!s.drive(ProcId(0), scalar(Logic::Zero), t0));
        assert_eq!(s.event_count, 1);
        let t1 = SimTime::from_ns(5);
        assert!(s.drive(ProcId(0), scalar(Logic::One), t1));
        assert!(s.rising_at(t1));
        assert!(!s.falling_at(t1));
    }

    #[test]
    fn multi_driver_resolution() {
        let mut s = SignalState::new("bus".into(), 4);
        let t = SimTime::ZERO;
        s.drive(ProcId(0), LogicVector::high_z(4), t);
        s.drive(ProcId(1), LogicVector::from_u64(0x5, 4), t);
        assert_eq!(s.value.to_u64(), Some(0x5));
        // Second strong driver conflicts bitwise.
        s.drive(ProcId(0), LogicVector::from_u64(0x3, 4), t);
        assert_eq!(s.value.bit(0).to_x01(), Logic::One); // 1 resolve 1
        assert_eq!(s.value.bit(1), Logic::X); // 0 resolve 1
                                              // Releasing driver 0 restores driver 1's value.
        s.drive(ProcId(0), LogicVector::high_z(4), t);
        assert_eq!(s.value.to_u64(), Some(0x5));
    }

    #[test]
    fn falling_edge_detection() {
        let mut s = SignalState::new("clk".into(), 1);
        s.drive(ProcId(0), scalar(Logic::One), SimTime::ZERO);
        let t = SimTime::from_ns(3);
        s.drive(ProcId(0), scalar(Logic::Zero), t);
        assert!(s.falling_at(t));
        assert!(!s.rising_at(t));
        assert!(!s.falling_at(SimTime::from_ns(4)));
    }

    #[test]
    fn undriven_signal_is_uninitialized() {
        let s = SignalState::new("x".into(), 2);
        assert_eq!(s.value, LogicVector::uninitialized(2));
        assert_eq!(s.event_count, 0);
        assert!(!s.event_at(SimTime::ZERO));
    }
}
