//! Setup/hold timing checks in the event-driven kernel.
//!
//! §1 of the paper: common practice performs "verification of **timing**
//! and functionality by simulation". This module provides the timing half:
//! [`SetupHoldMonitor`] is a process that watches a data signal against a
//! clock and records every setup violation (data changed less than
//! `t_setup` before a sampling edge) and hold violation (data changed less
//! than `t_hold` after one) — the checks a VHDL simulator performs from
//! `'SETUP`/`'HOLD` generics on synthesizable registers.

use crate::signal::SignalId;
use crate::sim::{RtlCtx, RtlProcess};
use castanet_netsim::time::{SimDuration, SimTime};
use std::sync::{Arc, Mutex};

/// One recorded timing violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingViolation {
    /// Kind of constraint violated.
    pub kind: ViolationKind,
    /// Time of the sampling clock edge involved.
    pub edge_at: SimTime,
    /// Time of the offending data change.
    pub data_at: SimTime,
}

/// Which constraint was violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Data changed within the setup window before the edge.
    Setup,
    /// Data changed within the hold window after the edge.
    Hold,
}

/// Shared view of a monitor's findings.
#[derive(Debug, Clone, Default)]
pub struct TimingReport {
    inner: Arc<Mutex<Vec<TimingViolation>>>,
}

impl TimingReport {
    /// Number of violations recorded.
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("timing report lock poisoned")
            .len()
    }

    /// `true` when no violation was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All recorded violations, in detection order.
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned.
    #[must_use]
    pub fn violations(&self) -> Vec<TimingViolation> {
        self.inner
            .lock()
            .expect("timing report lock poisoned")
            .clone()
    }

    fn push(&self, v: TimingViolation) {
        self.inner
            .lock()
            .expect("timing report lock poisoned")
            .push(v);
    }
}

/// Watches one data signal against a clock's rising edges.
///
/// # Examples
///
/// ```
/// use castanet_rtl::sim::Simulator;
/// use castanet_rtl::timing::SetupHoldMonitor;
/// use castanet_rtl::logic::Logic;
/// use castanet_netsim::time::{SimDuration, SimTime};
///
/// let mut sim = Simulator::new();
/// let clk = sim.add_clock("clk", SimDuration::from_ns(10));
/// let d = sim.add_signal("d", 8);
/// let (monitor, report) = SetupHoldMonitor::new(
///     clk, d,
///     SimDuration::from_ns(2),  // setup
///     SimDuration::from_ns(1),  // hold
/// );
/// sim.add_process(Box::new(monitor), &[clk, d]);
/// // Change data 1 ns before the 5 ns edge: setup violation.
/// sim.poke(d, castanet_rtl::LogicVector::from_u64(1, 8), SimTime::from_ns(4))?;
/// sim.run_until(SimTime::from_ns(20))?;
/// assert_eq!(report.len(), 1);
/// # Ok::<(), castanet_rtl::error::RtlError>(())
/// ```
#[derive(Debug)]
pub struct SetupHoldMonitor {
    clk: SignalId,
    data: SignalId,
    setup: SimDuration,
    hold: SimDuration,
    last_data_change: Option<SimTime>,
    last_edge: Option<SimTime>,
    report: TimingReport,
}

impl SetupHoldMonitor {
    /// Creates a monitor with the given constraints; register it with a
    /// sensitivity list of `[clk, data]`.
    #[must_use]
    pub fn new(
        clk: SignalId,
        data: SignalId,
        setup: SimDuration,
        hold: SimDuration,
    ) -> (Self, TimingReport) {
        let report = TimingReport::default();
        (
            SetupHoldMonitor {
                clk,
                data,
                setup,
                hold,
                last_data_change: None,
                last_edge: None,
                report: report.clone(),
            },
            report,
        )
    }
}

impl RtlProcess for SetupHoldMonitor {
    fn run(&mut self, ctx: &mut RtlCtx) {
        let now = ctx.now();
        if ctx.event(self.data) {
            self.last_data_change = Some(now);
            // Hold check: did this change land too soon after an edge?
            if let Some(edge) = self.last_edge {
                if now >= edge && now - edge < self.hold {
                    self.report.push(TimingViolation {
                        kind: ViolationKind::Hold,
                        edge_at: edge,
                        data_at: now,
                    });
                }
            }
        }
        if ctx.rising(self.clk) {
            self.last_edge = Some(now);
            // Setup check: did data change too close before this edge?
            // A change in the same instant (delta race) violates too.
            if let Some(change) = self.last_data_change {
                if change <= now && now - change < self.setup {
                    self.report.push(TimingViolation {
                        kind: ViolationKind::Setup,
                        edge_at: now,
                        data_at: change,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::Logic;
    use crate::sim::Simulator;
    use crate::vector::LogicVector;

    const PERIOD: SimDuration = SimDuration::from_ns(10);

    fn fixture(setup_ns: u64, hold_ns: u64) -> (Simulator, SignalId, TimingReport) {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("clk", PERIOD);
        let d = sim.add_signal("d", 8);
        let (mon, report) = SetupHoldMonitor::new(
            clk,
            d,
            SimDuration::from_ns(setup_ns),
            SimDuration::from_ns(hold_ns),
        );
        sim.add_process(Box::new(mon), &[clk, d]);
        (sim, d, report)
    }

    #[test]
    fn clean_timing_produces_no_violations() {
        let (mut sim, d, report) = fixture(2, 1);
        // Edges at 5, 15, 25 ns; change at 10 ns is 5 ns before the 15 ns
        // edge and 5 ns after the 5 ns edge: both margins met.
        sim.poke(d, LogicVector::from_u64(1, 8), SimTime::from_ns(10))
            .unwrap();
        sim.poke(d, LogicVector::from_u64(2, 8), SimTime::from_ns(20))
            .unwrap();
        sim.run_until(SimTime::from_ns(40)).unwrap();
        assert!(report.is_empty(), "{:?}", report.violations());
    }

    #[test]
    fn setup_violation_detected() {
        let (mut sim, d, report) = fixture(3, 1);
        // Edge at 15 ns; change at 13 ns: 2 ns < 3 ns setup.
        sim.poke(d, LogicVector::from_u64(1, 8), SimTime::from_ns(13))
            .unwrap();
        sim.run_until(SimTime::from_ns(30)).unwrap();
        let v = report.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Setup);
        assert_eq!(v[0].edge_at, SimTime::from_ns(15));
        assert_eq!(v[0].data_at, SimTime::from_ns(13));
    }

    #[test]
    fn hold_violation_detected() {
        let (mut sim, d, report) = fixture(1, 3);
        // Edge at 5 ns; change at 7 ns: 2 ns < 3 ns hold.
        sim.poke(d, LogicVector::from_u64(1, 8), SimTime::from_ns(7))
            .unwrap();
        sim.run_until(SimTime::from_ns(20)).unwrap();
        let v = report.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Hold);
        assert_eq!(v[0].edge_at, SimTime::from_ns(5));
        assert_eq!(v[0].data_at, SimTime::from_ns(7));
    }

    #[test]
    fn simultaneous_change_and_edge_is_a_setup_violation() {
        let (mut sim, d, report) = fixture(2, 1);
        sim.poke(d, LogicVector::from_u64(1, 8), SimTime::from_ns(15))
            .unwrap();
        sim.run_until(SimTime::from_ns(30)).unwrap();
        let v = report.violations();
        assert!(
            v.iter()
                .any(|x| x.kind == ViolationKind::Setup && x.edge_at == SimTime::from_ns(15)),
            "{v:?}"
        );
    }

    #[test]
    fn exact_margins_are_legal() {
        let (mut sim, d, report) = fixture(2, 2);
        // Change exactly setup-time before the 15 ns edge.
        sim.poke(d, LogicVector::from_u64(1, 8), SimTime::from_ns(13))
            .unwrap();
        // Change exactly hold-time after the 25 ns edge.
        sim.poke(d, LogicVector::from_u64(2, 8), SimTime::from_ns(27))
            .unwrap();
        sim.run_until(SimTime::from_ns(40)).unwrap();
        assert!(report.is_empty(), "{:?}", report.violations());
    }

    #[test]
    fn redundant_pokes_without_value_change_are_not_events() {
        let (mut sim, d, report) = fixture(5, 5);
        sim.poke(d, LogicVector::from_u64(1, 8), SimTime::from_ns(2))
            .unwrap();
        // Same value re-poked near the edge: no signal event, no violation.
        sim.poke(d, LogicVector::from_u64(1, 8), SimTime::from_ns(14))
            .unwrap();
        sim.run_until(SimTime::from_ns(30)).unwrap();
        let v = report.violations();
        assert_eq!(
            v.iter()
                .filter(|x| x.data_at == SimTime::from_ns(14))
                .count(),
            0,
            "{v:?}"
        );
    }

    #[test]
    fn entity_driven_stimulus_meets_timing() {
        // The co-simulation entity pokes on the falling edge, half a
        // period before each rising edge; with setup and hold both under
        // half a period this must be violation-free.
        let (mut sim, d, report) = fixture(2, 1);
        for k in 0..20u64 {
            // Pokes at edge - 5 ns (the falling edge), edges at 5+10k.
            let poke = SimTime::from_ns(10 * k);
            sim.poke(d, LogicVector::from_u64(k % 256, 8), poke)
                .unwrap();
        }
        sim.run_until(SimTime::from_ns(250)).unwrap();
        assert!(report.is_empty(), "{:?}", report.violations());
        let _ = Logic::One;
    }
}
