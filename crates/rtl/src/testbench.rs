//! The classic hand-written RTL regression test bench — the *baseline*
//! practice the paper argues against.
//!
//! "Common approaches … are based on the creation of regression test
//! benches to perform simulative validation of functionality. The time
//! needed to develop test benches has proven to be a significant
//! bottleneck" (§1). Here that approach is implemented faithfully: stimulus
//! drivers and response monitors are themselves event-driven processes
//! inside the HDL simulator, the line is driven on *every* clock (idle
//! cells included, since a real line never stops), and the expected
//! responses are precomputed vectors. Experiment E1 measures this test
//! bench against the CASTANET coupling on the same switch DUT.

use crate::cycle::{attach_cycle_dut, AttachedDut, CycleDut};
use crate::logic::Logic;
use crate::netlist::ProcessIo;
use crate::signal::SignalId;
use crate::sim::{RtlCtx, RtlProcess, Simulator};
use castanet_atm::cell::CELL_OCTETS;
use castanet_atm::idle::idle_cell_bytes;
use castanet_netsim::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A cell scheduled for a specific cell slot on one line.
#[derive(Debug, Clone)]
pub struct ScheduledCell {
    /// Cell-slot index (slot `s` occupies clocks `[53·s, 53·(s+1))`).
    pub slot: u64,
    /// The 53-octet wire image.
    pub bytes: [u8; CELL_OCTETS],
}

/// Drives one ingress line byte-serially on every clock, inserting idle
/// cells into empty slots — the continuously-filled line a pure-RTL test
/// bench must model.
pub struct CellStreamDriver {
    clk: SignalId,
    data: SignalId,
    sync: SignalId,
    enable: SignalId,
    cells: VecDeque<ScheduledCell>,
    clock_index: u64,
    idle: [u8; CELL_OCTETS],
    current: Option<[u8; CELL_OCTETS]>,
}

impl std::fmt::Debug for CellStreamDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellStreamDriver")
            .field("pending_cells", &self.cells.len())
            .field("clock_index", &self.clock_index)
            .finish()
    }
}

impl CellStreamDriver {
    /// Creates a driver for the given line signals. `cells` must be sorted
    /// by slot with no duplicates.
    ///
    /// # Panics
    ///
    /// Panics when `cells` is not strictly slot-ordered.
    #[must_use]
    pub fn new(
        clk: SignalId,
        data: SignalId,
        sync: SignalId,
        enable: SignalId,
        cells: Vec<ScheduledCell>,
    ) -> Self {
        for w in cells.windows(2) {
            assert!(w[0].slot < w[1].slot, "cells must be strictly slot-ordered");
        }
        CellStreamDriver {
            clk,
            data,
            sync,
            enable,
            cells: cells.into(),
            clock_index: 0,
            idle: idle_cell_bytes(),
            current: None,
        }
    }
}

impl RtlProcess for CellStreamDriver {
    fn init(&mut self, ctx: &mut RtlCtx) {
        ctx.assign_u64(self.data, 0);
        ctx.assign_bit(self.sync, Logic::Zero);
        ctx.assign_bit(self.enable, Logic::Zero);
    }

    fn run(&mut self, ctx: &mut RtlCtx) {
        if !ctx.rising(self.clk) {
            return;
        }
        let slot = self.clock_index / CELL_OCTETS as u64;
        let offset = (self.clock_index % CELL_OCTETS as u64) as usize;
        if offset == 0 {
            // New slot: pick the scheduled cell or fill with idle.
            self.current = if self.cells.front().is_some_and(|c| c.slot == slot) {
                Some(self.cells.pop_front().expect("peeked").bytes)
            } else {
                Some(self.idle)
            };
        }
        let bytes = self.current.as_ref().expect("slot fill set above");
        ctx.assign_u64(self.data, u64::from(bytes[offset]));
        ctx.assign_bit(self.sync, Logic::from_bool(offset == 0));
        ctx.assign_bit(self.enable, Logic::One);
        self.clock_index += 1;
    }

    fn io(&self) -> Option<ProcessIo> {
        Some(
            ProcessIo::clocked("cell_stream_driver", self.clk)
                .reads([self.clk])
                .writes([self.data, self.sync, self.enable]),
        )
    }
}

/// Collects completed cells from an egress line (data/sync/valid signals),
/// exposing them through a shared handle.
pub struct CellStreamMonitor {
    clk: SignalId,
    data: SignalId,
    sync: SignalId,
    valid: SignalId,
    shift: [u8; CELL_OCTETS],
    index: usize,
    in_cell: bool,
    out: MonitorHandle,
}

impl std::fmt::Debug for CellStreamMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellStreamMonitor")
            .field("in_cell", &self.in_cell)
            .field("index", &self.index)
            .finish()
    }
}

/// A captured cell: arrival time plus the 53 raw octets.
type CapturedCell = (SimTime, [u8; CELL_OCTETS]);

/// Shared view onto the cells a [`CellStreamMonitor`] captured.
#[derive(Debug, Clone, Default)]
pub struct MonitorHandle {
    cells: Arc<Mutex<Vec<CapturedCell>>>,
    /// `cells.len()`, stored under the lock and readable without it, so a
    /// collector polling after every time step pays one atomic load while
    /// nothing has been captured.
    count: Arc<AtomicUsize>,
}

impl MonitorHandle {
    /// Number of captured cells.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// `true` when nothing has been captured.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains the captured `(completion time, cell)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned.
    #[must_use]
    pub fn take(&self) -> Vec<(SimTime, [u8; CELL_OCTETS])> {
        let mut cells = self.cells.lock().expect("monitor lock poisoned");
        self.count.store(0, Ordering::Release);
        std::mem::take(&mut *cells)
    }

    /// Drains the captured `(completion time, cell)` pairs into `out`,
    /// preserving order. Unlike [`MonitorHandle::take`] this keeps the
    /// internal buffer's capacity, so a polling collector allocates
    /// nothing in steady state, and an empty poll takes no lock.
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned.
    #[inline]
    pub fn drain_into(&self, out: &mut Vec<(SimTime, [u8; CELL_OCTETS])>) {
        if self.is_empty() {
            return;
        }
        let mut cells = self.cells.lock().expect("monitor lock poisoned");
        self.count.store(0, Ordering::Release);
        out.extend(cells.drain(..));
    }
}

impl CellStreamMonitor {
    /// Creates a monitor and its handle.
    #[must_use]
    pub fn new(
        clk: SignalId,
        data: SignalId,
        sync: SignalId,
        valid: SignalId,
    ) -> (Self, MonitorHandle) {
        let handle = MonitorHandle::default();
        (
            CellStreamMonitor {
                clk,
                data,
                sync,
                valid,
                shift: [0; CELL_OCTETS],
                index: 0,
                in_cell: false,
                out: handle.clone(),
            },
            handle,
        )
    }
}

impl RtlProcess for CellStreamMonitor {
    fn run(&mut self, ctx: &mut RtlCtx) {
        if !ctx.rising(self.clk) || !ctx.read_bit(self.valid).is_one() {
            return;
        }
        if ctx.read_bit(self.sync).is_one() {
            self.index = 0;
            self.in_cell = true;
        }
        if self.in_cell {
            self.shift[self.index] = ctx.read_u64(self.data).unwrap_or(0) as u8;
            self.index += 1;
            if self.index == CELL_OCTETS {
                self.index = 0;
                self.in_cell = false;
                let mut cells = self.out.cells.lock().expect("monitor lock poisoned");
                cells.push((ctx.now(), self.shift));
                self.out.count.store(cells.len(), Ordering::Release);
            }
        }
    }

    fn io(&self) -> Option<ProcessIo> {
        Some(
            ProcessIo::clocked("cell_stream_monitor", self.clk)
                .reads([self.clk, self.data, self.sync, self.valid]),
        )
    }
}

/// The checker half of a hand-written regression bench: a per-clock
/// scoreboard process that compares the egress byte stream against the
/// precomputed expected cell sequence, recomputing the header CRC octet by
/// octet the way synthesizable checkers do. Idle cells on the line are
/// recognized and skipped. This per-clock checking work — not just driving
/// stimulus — is a large part of why pure-RTL test benches are slow, which
/// is exactly the cost the E1 baseline must carry.
pub struct CellStreamScoreboard {
    clk: SignalId,
    data: SignalId,
    sync: SignalId,
    valid: SignalId,
    expected: VecDeque<[u8; CELL_OCTETS]>,
    shift: [u8; CELL_OCTETS],
    crc: u8,
    index: usize,
    in_cell: bool,
    results: ScoreboardHandle,
}

impl std::fmt::Debug for CellStreamScoreboard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellStreamScoreboard")
            .field("expected_left", &self.expected.len())
            .finish()
    }
}

/// Shared result counters of a [`CellStreamScoreboard`].
#[derive(Debug, Clone, Default)]
pub struct ScoreboardHandle {
    inner: Arc<Mutex<ScoreboardCounters>>,
}

/// Counter block of a scoreboard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScoreboardCounters {
    /// Cells that matched the expectation byte-for-byte.
    pub matched: u64,
    /// Cells that differed.
    pub mismatched: u64,
    /// Cells whose recomputed HEC disagreed with the received octet.
    pub hec_errors: u64,
    /// Idle cells observed (and skipped).
    pub idle: u64,
    /// Cells received with no expectation left.
    pub unexpected: u64,
}

impl ScoreboardHandle {
    /// Snapshot of the counters.
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned.
    #[must_use]
    pub fn counters(&self) -> ScoreboardCounters {
        *self.inner.lock().expect("scoreboard lock poisoned")
    }
}

impl CellStreamScoreboard {
    /// Creates a scoreboard expecting `expected` cells (wire images, in
    /// order) on the given egress signals.
    #[must_use]
    pub fn new(
        clk: SignalId,
        data: SignalId,
        sync: SignalId,
        valid: SignalId,
        expected: Vec<[u8; CELL_OCTETS]>,
    ) -> (Self, ScoreboardHandle) {
        let handle = ScoreboardHandle::default();
        (
            CellStreamScoreboard {
                clk,
                data,
                sync,
                valid,
                expected: expected.into(),
                shift: [0; CELL_OCTETS],
                crc: 0,
                index: 0,
                in_cell: false,
                results: handle.clone(),
            },
            handle,
        )
    }

    fn crc_step(crc: u8, byte: u8) -> u8 {
        // CRC-8 x^8+x^2+x+1, one octet at a time — the form a
        // synthesizable checker computes each clock.
        let mut crc = crc ^ byte;
        for _ in 0..8 {
            crc = if crc & 0x80 != 0 {
                (crc << 1) ^ 0x07
            } else {
                crc << 1
            };
        }
        crc
    }

    fn finish_cell(&mut self) {
        let mut c = self.results.inner.lock().expect("scoreboard lock poisoned");
        if castanet_atm::idle::is_idle_cell(&self.shift) {
            c.idle += 1;
            return;
        }
        // The CRC accumulated over octets 0..4 must equal octet 4 ^ 0x55.
        if self.crc ^ 0x55 != self.shift[4] {
            c.hec_errors += 1;
        }
        match self.expected.pop_front() {
            Some(want) if want == self.shift => c.matched += 1,
            Some(_) => c.mismatched += 1,
            None => c.unexpected += 1,
        }
    }
}

impl RtlProcess for CellStreamScoreboard {
    fn run(&mut self, ctx: &mut RtlCtx) {
        if !ctx.rising(self.clk) || !ctx.read_bit(self.valid).is_one() {
            return;
        }
        if ctx.read_bit(self.sync).is_one() {
            self.index = 0;
            self.in_cell = true;
            self.crc = 0;
        }
        if self.in_cell {
            let byte = ctx.read_u64(self.data).unwrap_or(0) as u8;
            self.shift[self.index] = byte;
            if self.index < 4 {
                self.crc = Self::crc_step(self.crc, byte);
            }
            self.index += 1;
            if self.index == CELL_OCTETS {
                self.index = 0;
                self.in_cell = false;
                self.finish_cell();
            }
        }
    }

    fn io(&self) -> Option<ProcessIo> {
        Some(
            ProcessIo::clocked("cell_stream_scoreboard", self.clk)
                .reads([self.clk, self.data, self.sync, self.valid]),
        )
    }
}

/// A complete pure-RTL regression bench around any byte-serial-line DUT
/// built from [`crate::dut::AtmSwitchRtl`]-style port conventions: clock,
/// per-port drivers, per-port monitors, DUT attachment — everything inside
/// one event-driven simulation, the way the paper's "common approach" does
/// it.
pub struct RegressionTestbench {
    sim: Simulator,
    dut: AttachedDut,
    ports: usize,
    monitors: Vec<MonitorHandle>,
    clock_period: SimDuration,
    clk: SignalId,
}

impl std::fmt::Debug for RegressionTestbench {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegressionTestbench")
            .field("ports", &self.ports)
            .field("now", &self.sim.now())
            .finish()
    }
}

impl RegressionTestbench {
    /// Builds the bench: `dut` must follow the switch port convention
    /// (inputs `rx_data/rx_sync/rx_en` × ports then config; outputs
    /// `tx_data/tx_sync/tx_valid` × ports then counters). `stimuli[i]` is
    /// the scheduled cell list of line `i`.
    ///
    /// # Panics
    ///
    /// Panics when `stimuli.len()` differs from the DUT's port count.
    #[must_use]
    pub fn new(
        dut: Box<dyn CycleDut>,
        ports: usize,
        clock_period: SimDuration,
        stimuli: Vec<Vec<ScheduledCell>>,
    ) -> Self {
        assert_eq!(stimuli.len(), ports, "one stimulus list per port");
        let mut sim = Simulator::new();
        let clk = sim.add_clock("clk", clock_period);
        let attached = attach_cycle_dut(&mut sim, "switch", dut, clk);

        let mut monitors = Vec::new();
        for (i, cells) in stimuli.into_iter().enumerate() {
            let driver = CellStreamDriver::new(
                clk,
                attached.inputs[3 * i],
                attached.inputs[3 * i + 1],
                attached.inputs[3 * i + 2],
                cells,
            );
            sim.add_process(Box::new(driver), &[clk]);
            let (mon, handle) = CellStreamMonitor::new(
                clk,
                attached.outputs[3 * i],
                attached.outputs[3 * i + 1],
                attached.outputs[3 * i + 2],
            );
            sim.add_process(Box::new(mon), &[clk]);
            monitors.push(handle);
        }
        RegressionTestbench {
            sim,
            dut: attached,
            ports,
            monitors,
            clock_period,
            clk,
        }
    }

    /// Attaches a per-clock scoreboard to egress line `port`, expecting the
    /// given cells (in order). Call before running.
    ///
    /// # Panics
    ///
    /// Panics when `port` is out of range.
    pub fn add_scoreboard(
        &mut self,
        port: usize,
        expected: Vec<[u8; CELL_OCTETS]>,
    ) -> ScoreboardHandle {
        assert!(port < self.ports, "port {port} out of range");
        let (sb, handle) = CellStreamScoreboard::new(
            self.clk,
            self.dut.outputs[3 * port],
            self.dut.outputs[3 * port + 1],
            self.dut.outputs[3 * port + 2],
            expected,
        );
        self.sim.add_process(Box::new(sb), &[self.clk]);
        handle
    }

    /// Runs `clocks` clock cycles.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run_clocks(&mut self, clocks: u64) -> Result<(), crate::error::RtlError> {
        let horizon = self.sim.now() + self.clock_period * clocks + SimDuration::from_picos(1);
        self.sim.run_until(horizon)
    }

    /// The monitor handle of egress line `port`.
    ///
    /// # Panics
    ///
    /// Panics when `port` is out of range.
    #[must_use]
    pub fn monitor(&self, port: usize) -> &MonitorHandle {
        &self.monitors[port]
    }

    /// Access to the underlying simulator (counters, VCD tracing).
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// The attached DUT's signal map.
    #[must_use]
    pub fn dut(&self) -> &AttachedDut {
        &self.dut
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dut::{AtmSwitchRtl, SwitchRtlConfig};
    use castanet_atm::addr::{HeaderFormat, VpiVci};
    use castanet_atm::cell::AtmCell;
    use castanet_atm::idle::is_idle_cell;

    fn wire_cell(vpi: u16, vci: u16, fill: u8) -> [u8; CELL_OCTETS] {
        AtmCell::user_data(VpiVci::uni(vpi, vci).unwrap(), [fill; 48])
            .encode(HeaderFormat::Uni)
            .unwrap()
    }

    #[test]
    fn bench_pushes_cells_through_the_switch() {
        let mut dut = AtmSwitchRtl::new(SwitchRtlConfig::default());
        dut.install_route(1, 40, 2, 7, 70);
        dut.install_route(1, 41, 0, 8, 80);

        let stimuli = vec![
            vec![
                ScheduledCell {
                    slot: 0,
                    bytes: wire_cell(1, 40, 0xAA),
                },
                ScheduledCell {
                    slot: 2,
                    bytes: wire_cell(1, 41, 0xBB),
                },
            ],
            vec![],
            vec![],
            vec![],
        ];
        let mut tb = RegressionTestbench::new(Box::new(dut), 4, SimDuration::from_ns(20), stimuli);
        tb.run_clocks(53 * 6).unwrap();

        let out2 = tb.monitor(2).take();
        assert_eq!(out2.len(), 1);
        let cell = AtmCell::decode(&out2[0].1, HeaderFormat::Uni).unwrap();
        assert_eq!(cell.id(), VpiVci::uni(7, 70).unwrap());
        assert_eq!(cell.payload, [0xAA; 48]);

        let out0 = tb.monitor(0).take();
        assert_eq!(out0.len(), 1);
        let cell = AtmCell::decode(&out0[0].1, HeaderFormat::Uni).unwrap();
        assert_eq!(cell.id(), VpiVci::uni(8, 80).unwrap());
    }

    #[test]
    fn idle_slots_fill_the_line() {
        // A driver with one cell at slot 3 must still drive slots 0-2 with
        // idle cells (a loopback-style DUT shows them).
        struct Passthrough;
        impl CycleDut for Passthrough {
            fn input_ports(&self) -> Vec<crate::cycle::PortDecl> {
                vec![
                    crate::cycle::PortDecl::new("rx_data0", 8),
                    crate::cycle::PortDecl::new("rx_sync0", 1),
                    crate::cycle::PortDecl::new("rx_en0", 1),
                ]
            }
            fn output_ports(&self) -> Vec<crate::cycle::PortDecl> {
                vec![
                    crate::cycle::PortDecl::new("tx_data0", 8),
                    crate::cycle::PortDecl::new("tx_sync0", 1),
                    crate::cycle::PortDecl::new("tx_valid0", 1),
                ]
            }
            fn reset(&mut self) {}
            fn clock_edge(&mut self, inputs: &[u64], outputs: &mut [u64]) {
                outputs.copy_from_slice(&inputs[..3]);
            }
        }
        let stimuli = vec![vec![ScheduledCell {
            slot: 3,
            bytes: wire_cell(1, 40, 1),
        }]];
        let mut tb =
            RegressionTestbench::new(Box::new(Passthrough), 1, SimDuration::from_ns(20), stimuli);
        tb.run_clocks(53 * 5).unwrap();
        let cells = tb.monitor(0).take();
        assert!(cells.len() >= 4, "got {}", cells.len());
        assert!(is_idle_cell(&cells[0].1));
        assert!(is_idle_cell(&cells[1].1));
        assert!(is_idle_cell(&cells[2].1));
        assert!(!is_idle_cell(&cells[3].1), "slot 3 carries the user cell");
    }

    #[test]
    #[should_panic(expected = "strictly slot-ordered")]
    fn unsorted_stimulus_rejected() {
        let cells = vec![
            ScheduledCell {
                slot: 2,
                bytes: [0; CELL_OCTETS],
            },
            ScheduledCell {
                slot: 1,
                bytes: [0; CELL_OCTETS],
            },
        ];
        let mut sim = Simulator::new();
        let clk = sim.add_signal("clk", 1);
        let d = sim.add_signal("d", 8);
        let s = sim.add_signal("s", 1);
        let e = sim.add_signal("e", 1);
        let _ = CellStreamDriver::new(clk, d, s, e, cells);
    }
}
