//! The RTL ATM switch: N port modules plus a global control unit.
//!
//! This is the DUT of the paper's headline measurement ("an ATM switch
//! consisting of four port modules, one global control unit", §2). Each
//! port module deserializes the byte-serial line (as [`super::CellReceiver`]
//! does), the global control unit owns the translation table and the
//! configuration interface, and each egress port streams queued cells back
//! out byte-serially. Header translation recomputes the HEC, cells with a
//! corrupted HEC are discarded, unroutable cells are absorbed by the
//! control unit — the same externally visible function as the algorithm
//! reference model [`castanet_atm::switch`].

use crate::cycle::{CycleDut, PortDecl};
use castanet_atm::cell::{CELL_OCTETS, HEADER_OCTETS};
use castanet_atm::hec;
use std::collections::{HashMap, VecDeque};

/// Build-time configuration of [`AtmSwitchRtl`].
#[derive(Debug, Clone, Copy)]
pub struct SwitchRtlConfig {
    /// Number of line ports (2..=8).
    pub ports: usize,
    /// Egress FIFO capacity per port, in cells.
    pub fifo_capacity: usize,
    /// Translation-table capacity (a CAM in silicon).
    pub table_capacity: usize,
}

impl Default for SwitchRtlConfig {
    /// The paper's configuration: 4 port modules, modest buffering.
    fn default() -> Self {
        SwitchRtlConfig {
            ports: 4,
            fifo_capacity: 128,
            table_capacity: 256,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct RxState {
    shift: [u8; CELL_OCTETS],
    index: usize,
    in_cell: bool,
}

impl Default for RxState {
    fn default() -> Self {
        RxState {
            shift: [0; CELL_OCTETS],
            index: 0,
            in_cell: false,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct TxState {
    buffer: [u8; CELL_OCTETS],
    index: usize,
    active: bool,
}

impl Default for TxState {
    fn default() -> Self {
        TxState {
            buffer: [0; CELL_OCTETS],
            index: 0,
            active: false,
        }
    }
}

/// The cycle-accurate N-port switch.
///
/// Input ports, in `clock_edge` order: for each line `i`
/// `rx_data{i}` (8), `rx_sync{i}` (1), `rx_en{i}` (1); then the control
/// unit's configuration interface `cfg_valid` (1), `cfg_in_vpi` (8),
/// `cfg_in_vci` (16), `cfg_out_port` (3), `cfg_out_vpi` (8),
/// `cfg_out_vci` (16).
///
/// Output ports: for each line `i` `tx_data{i}` (8), `tx_sync{i}` (1),
/// `tx_valid{i}` (1); then `unroutable` (16), `dropped` (16),
/// `table_count` (16).
#[derive(Debug, Clone)]
pub struct AtmSwitchRtl {
    cfg: SwitchRtlConfig,
    rx: Vec<RxState>,
    tx: Vec<TxState>,
    fifos: Vec<VecDeque<[u8; CELL_OCTETS]>>,
    table: HashMap<(u8, u16), (usize, u8, u16)>,
    unroutable: u16,
    dropped: u16,
    hec_errors: u16,
    switched: u64,
}

impl AtmSwitchRtl {
    /// Creates a switch with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= ports <= 8` and capacities are non-zero.
    #[must_use]
    pub fn new(cfg: SwitchRtlConfig) -> Self {
        assert!((2..=8).contains(&cfg.ports), "ports must be 2..=8");
        assert!(cfg.fifo_capacity > 0, "fifo capacity must be non-zero");
        assert!(cfg.table_capacity > 0, "table capacity must be non-zero");
        AtmSwitchRtl {
            cfg,
            rx: vec![RxState::default(); cfg.ports],
            tx: vec![TxState::default(); cfg.ports],
            fifos: (0..cfg.ports).map(|_| VecDeque::new()).collect(),
            table: HashMap::new(),
            unroutable: 0,
            dropped: 0,
            hec_errors: 0,
            switched: 0,
        }
    }

    /// Model-level route installation (the pin path is the `cfg_*` port).
    ///
    /// Returns `false` when the table is full or the entry exists.
    pub fn install_route(
        &mut self,
        in_vpi: u8,
        in_vci: u16,
        out_port: usize,
        out_vpi: u8,
        out_vci: u16,
    ) -> bool {
        if out_port >= self.cfg.ports
            || self.table.len() >= self.cfg.table_capacity
            || self.table.contains_key(&(in_vpi, in_vci))
        {
            return false;
        }
        self.table
            .insert((in_vpi, in_vci), (out_port, out_vpi, out_vci));
        true
    }

    /// Cells switched since reset.
    #[must_use]
    pub fn switched(&self) -> u64 {
        self.switched
    }

    /// Cells discarded for HEC errors since reset.
    #[must_use]
    pub fn hec_errors(&self) -> u16 {
        self.hec_errors
    }

    fn complete_cell(&mut self, cell: [u8; CELL_OCTETS]) {
        if !hec::check(&cell[..HEADER_OCTETS]) {
            self.hec_errors = self.hec_errors.wrapping_add(1);
            return;
        }
        let vpi = (cell[0] << 4) | (cell[1] >> 4);
        let vci =
            (u16::from(cell[1] & 0x0F) << 12) | (u16::from(cell[2]) << 4) | u16::from(cell[3] >> 4);
        match self.table.get(&(vpi, vci)) {
            Some(&(out_port, out_vpi, out_vci)) => {
                let mut out = cell;
                // Header translation, preserving GFC/PT/CLP, new HEC.
                out[0] = (cell[0] & 0xF0) | (out_vpi >> 4);
                out[1] = (out_vpi << 4) | ((out_vci >> 12) as u8);
                out[2] = (out_vci >> 4) as u8;
                out[3] = (((out_vci & 0x0F) as u8) << 4) | (cell[3] & 0x0F);
                out[4] = hec::compute(&out[..4]);
                if self.fifos[out_port].len() >= self.cfg.fifo_capacity {
                    self.dropped = self.dropped.wrapping_add(1);
                } else {
                    self.fifos[out_port].push_back(out);
                    self.switched += 1;
                }
            }
            None => {
                // Absorbed by the global control unit.
                self.unroutable = self.unroutable.wrapping_add(1);
            }
        }
    }
}

impl CycleDut for AtmSwitchRtl {
    fn input_ports(&self) -> Vec<PortDecl> {
        let mut ports = Vec::new();
        for i in 0..self.cfg.ports {
            ports.push(PortDecl::new(format!("rx_data{i}"), 8));
            ports.push(PortDecl::new(format!("rx_sync{i}"), 1));
            ports.push(PortDecl::new(format!("rx_en{i}"), 1));
        }
        ports.push(PortDecl::new("cfg_valid", 1));
        ports.push(PortDecl::new("cfg_in_vpi", 8));
        ports.push(PortDecl::new("cfg_in_vci", 16));
        ports.push(PortDecl::new("cfg_out_port", 3));
        ports.push(PortDecl::new("cfg_out_vpi", 8));
        ports.push(PortDecl::new("cfg_out_vci", 16));
        ports
    }

    fn output_ports(&self) -> Vec<PortDecl> {
        let mut ports = Vec::new();
        for i in 0..self.cfg.ports {
            ports.push(PortDecl::new(format!("tx_data{i}"), 8));
            ports.push(PortDecl::new(format!("tx_sync{i}"), 1));
            ports.push(PortDecl::new(format!("tx_valid{i}"), 1));
        }
        ports.push(PortDecl::new("unroutable", 16));
        ports.push(PortDecl::new("dropped", 16));
        ports.push(PortDecl::new("table_count", 16));
        ports
    }

    fn reset(&mut self) {
        let cfg = self.cfg;
        *self = AtmSwitchRtl::new(cfg);
    }

    fn is_idle(&self) -> bool {
        self.rx.iter().all(|r| !r.in_cell)
            && self.tx.iter().all(|t| !t.active)
            && self.fifos.iter().all(std::collections::VecDeque::is_empty)
    }

    fn inputs_inert(&self, inputs: &[u64]) -> bool {
        let n = self.cfg.ports;
        if inputs.len() != 3 * n + 6 {
            return inputs.iter().all(|&w| w == 0);
        }
        // rx_data and the cfg_* payload words are don't-care while
        // rx_sync/rx_en/cfg_valid are all low: nothing is sampled.
        (0..n).all(|i| inputs[3 * i + 1] == 0 && inputs[3 * i + 2] == 0) && inputs[3 * n] == 0
    }

    fn outputs_inert(&self, outputs: &[u64]) -> bool {
        let n = self.cfg.ports;
        if outputs.len() != 3 * n + 3 {
            return outputs.iter().all(|&w| w == 0);
        }
        // tx_data and the status counters are level signals nobody samples
        // per cycle; a monitor only latches while tx_sync/tx_valid is high.
        (0..n).all(|i| outputs[3 * i + 1] == 0 && outputs[3 * i + 2] == 0)
    }

    fn clock_edge(&mut self, inputs: &[u64]) -> Vec<u64> {
        let n = self.cfg.ports;
        debug_assert_eq!(inputs.len(), 3 * n + 6);

        // Global control unit: configuration interface.
        let cfg_base = 3 * n;
        if inputs[cfg_base] == 1 {
            let in_vpi = inputs[cfg_base + 1] as u8;
            let in_vci = inputs[cfg_base + 2] as u16;
            let out_port = inputs[cfg_base + 3] as usize;
            let out_vpi = inputs[cfg_base + 4] as u8;
            let out_vci = inputs[cfg_base + 5] as u16;
            let _ = self.install_route(in_vpi, in_vci, out_port, out_vpi, out_vci);
        }

        // Ingress: one octet per port per clock.
        for i in 0..n {
            let data = inputs[3 * i] as u8;
            let sync = inputs[3 * i + 1] == 1;
            let en = inputs[3 * i + 2] == 1;
            if !en {
                continue;
            }
            if sync {
                self.rx[i].index = 0;
                self.rx[i].in_cell = true;
            }
            if self.rx[i].in_cell {
                let idx = self.rx[i].index;
                self.rx[i].shift[idx] = data;
                self.rx[i].index += 1;
                if self.rx[i].index == CELL_OCTETS {
                    self.rx[i].index = 0;
                    self.rx[i].in_cell = false;
                    let cell = self.rx[i].shift;
                    self.complete_cell(cell);
                }
            }
        }

        // Egress: stream queued cells, chaining back-to-back.
        let mut out = Vec::with_capacity(3 * n + 3);
        for i in 0..n {
            if !self.tx[i].active {
                if let Some(cell) = self.fifos[i].pop_front() {
                    self.tx[i].buffer = cell;
                    self.tx[i].index = 0;
                    self.tx[i].active = true;
                }
            }
            if self.tx[i].active {
                let idx = self.tx[i].index;
                let byte = self.tx[i].buffer[idx];
                let sync = idx == 0;
                self.tx[i].index += 1;
                if self.tx[i].index == CELL_OCTETS {
                    self.tx[i].active = false;
                    self.tx[i].index = 0;
                }
                out.push(u64::from(byte));
                out.push(u64::from(sync));
                out.push(1);
            } else {
                out.push(0);
                out.push(0);
                out.push(0);
            }
        }
        out.push(u64::from(self.unroutable));
        out.push(u64::from(self.dropped));
        out.push(self.table.len() as u64);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::CycleSim;
    use castanet_atm::addr::{HeaderFormat, VpiVci};
    use castanet_atm::cell::AtmCell;

    fn wire_cell(vpi: u16, vci: u16, fill: u8) -> [u8; CELL_OCTETS] {
        AtmCell::user_data(VpiVci::uni(vpi, vci).unwrap(), [fill; 48])
            .encode(HeaderFormat::Uni)
            .unwrap()
    }

    fn idle_inputs(ports: usize) -> Vec<u64> {
        vec![0u64; 3 * ports + 6]
    }

    /// Steps the switch feeding `cell` into line `port`; collects per-port
    /// byte streams while stepping `extra` idle cycles afterwards.
    fn run_cell(
        sim: &mut CycleSim,
        ports: usize,
        port: usize,
        cell: &[u8; CELL_OCTETS],
        extra: usize,
    ) -> Vec<Vec<(u8, bool)>> {
        let mut streams = vec![Vec::new(); ports];
        let capture = |out: &[u64], streams: &mut Vec<Vec<(u8, bool)>>| {
            for i in 0..ports {
                if out[3 * i + 2] == 1 {
                    streams[i].push((out[3 * i] as u8, out[3 * i + 1] == 1));
                }
            }
        };
        for (k, &b) in cell.iter().enumerate() {
            let mut inp = idle_inputs(ports);
            inp[3 * port] = u64::from(b);
            inp[3 * port + 1] = u64::from(k == 0);
            inp[3 * port + 2] = 1;
            let out = sim.step(&inp).unwrap();
            capture(&out, &mut streams);
        }
        for _ in 0..extra {
            let out = sim.step(&idle_inputs(ports)).unwrap();
            capture(&out, &mut streams);
        }
        streams
    }

    fn configure_route(
        sim: &mut CycleSim,
        ports: usize,
        in_vpi: u8,
        in_vci: u16,
        out_port: u64,
        out_vpi: u8,
        out_vci: u16,
    ) {
        let mut inp = idle_inputs(ports);
        let base = 3 * ports;
        inp[base] = 1;
        inp[base + 1] = u64::from(in_vpi);
        inp[base + 2] = u64::from(in_vci);
        inp[base + 3] = out_port;
        inp[base + 4] = u64::from(out_vpi);
        inp[base + 5] = u64::from(out_vci);
        sim.step(&inp).unwrap();
    }

    #[test]
    fn switches_and_retags_via_pin_config() {
        let mut sim = CycleSim::new(Box::new(AtmSwitchRtl::new(SwitchRtlConfig::default())));
        configure_route(&mut sim, 4, 1, 40, 2, 7, 70);
        let cell = wire_cell(1, 40, 0x99);
        let streams = run_cell(&mut sim, 4, 0, &cell, 60);
        assert!(streams[0].is_empty() && streams[1].is_empty() && streams[3].is_empty());
        let out: Vec<u8> = streams[2].iter().map(|&(b, _)| b).collect();
        assert_eq!(out.len(), CELL_OCTETS);
        assert!(streams[2][0].1, "cellsync on first octet");
        // Decode and verify translation + fresh HEC.
        let decoded = AtmCell::decode(&out, HeaderFormat::Uni).unwrap();
        assert_eq!(decoded.id(), VpiVci::uni(7, 70).unwrap());
        assert_eq!(decoded.payload, [0x99; 48]);
    }

    #[test]
    fn unroutable_cells_counted_and_absorbed() {
        let mut sim = CycleSim::new(Box::new(AtmSwitchRtl::new(SwitchRtlConfig::default())));
        let cell = wire_cell(9, 90, 0);
        let streams = run_cell(&mut sim, 4, 1, &cell, 60);
        assert!(streams.iter().all(std::vec::Vec::is_empty));
        let out = sim.step(&idle_inputs(4)).unwrap();
        assert_eq!(out[12], 1, "unroutable counter");
    }

    #[test]
    fn hec_corrupt_cells_discarded() {
        let mut switch = AtmSwitchRtl::new(SwitchRtlConfig::default());
        switch.install_route(1, 40, 2, 1, 40);
        let mut sim = CycleSim::new(Box::new(switch));
        // Reset wipes routes; re-install via pins instead.
        configure_route(&mut sim, 4, 1, 40, 2, 1, 40);
        let mut cell = wire_cell(1, 40, 0);
        cell[4] ^= 0x55;
        let streams = run_cell(&mut sim, 4, 0, &cell, 60);
        assert!(streams.iter().all(std::vec::Vec::is_empty));
    }

    #[test]
    fn back_to_back_cells_sustain_line_rate() {
        let mut sim = CycleSim::new(Box::new(AtmSwitchRtl::new(SwitchRtlConfig::default())));
        configure_route(&mut sim, 4, 1, 40, 1, 1, 40);
        let cell = wire_cell(1, 40, 0x11);
        // Stream 5 cells back-to-back into port 0, then drain.
        let mut valid_cycles = 0u32;
        for _c in 0..5 {
            for (k, &b) in cell.iter().enumerate() {
                let mut inp = idle_inputs(4);
                inp[0] = u64::from(b);
                inp[1] = u64::from(k == 0);
                inp[2] = 1;
                let out = sim.step(&inp).unwrap();
                valid_cycles += u32::from(out[3 + 2] == 1);
            }
        }
        for _ in 0..120 {
            let out = sim.step(&idle_inputs(4)).unwrap();
            valid_cycles += u32::from(out[3 + 2] == 1);
        }
        assert_eq!(
            valid_cycles,
            5 * CELL_OCTETS as u32,
            "all 5 cells egress completely"
        );
        let out = sim.step(&idle_inputs(4)).unwrap();
        assert_eq!(out[13], 0, "no drops at line rate");
    }

    #[test]
    fn fifo_overflow_drops_cells() {
        // Tiny FIFO + two ingress lines converging on one egress port.
        let mut switch = AtmSwitchRtl::new(SwitchRtlConfig {
            ports: 4,
            fifo_capacity: 1,
            table_capacity: 16,
        });
        assert!(switch.install_route(1, 40, 3, 1, 40));
        assert!(switch.install_route(2, 50, 3, 2, 50));
        let mut sim = CycleSim::new(Box::new(switch));
        configure_route(&mut sim, 4, 1, 40, 3, 1, 40);
        configure_route(&mut sim, 4, 2, 50, 3, 2, 50);
        let a = wire_cell(1, 40, 0xAA);
        let b = wire_cell(2, 50, 0xBB);
        // Feed both lines simultaneously, twice (4 cells at once into one
        // egress with capacity 1 + the one in flight).
        for _rep in 0..2 {
            for k in 0..CELL_OCTETS {
                let mut inp = idle_inputs(4);
                inp[0] = u64::from(a[k]);
                inp[1] = u64::from(k == 0);
                inp[2] = 1;
                inp[3] = u64::from(b[k]);
                inp[4] = u64::from(k == 0);
                inp[5] = 1;
                sim.step(&inp).unwrap();
            }
        }
        for _ in 0..300 {
            sim.step(&idle_inputs(4)).unwrap();
        }
        let out = sim.step(&idle_inputs(4)).unwrap();
        assert!(out[13] > 0, "expected drops with fifo capacity 1");
    }

    #[test]
    fn table_capacity_enforced() {
        let mut switch = AtmSwitchRtl::new(SwitchRtlConfig {
            ports: 2,
            fifo_capacity: 4,
            table_capacity: 2,
        });
        assert!(switch.install_route(1, 1, 0, 1, 1));
        assert!(switch.install_route(1, 2, 0, 1, 2));
        assert!(!switch.install_route(1, 3, 0, 1, 3), "table full");
        assert!(!switch.install_route(1, 1, 1, 9, 9), "duplicate rejected");
        assert!(!switch.install_route(1, 4, 7, 1, 4), "bad port rejected");
    }

    #[test]
    fn table_count_output_reflects_config() {
        let mut sim = CycleSim::new(Box::new(AtmSwitchRtl::new(SwitchRtlConfig::default())));
        configure_route(&mut sim, 4, 1, 40, 0, 1, 40);
        configure_route(&mut sim, 4, 1, 41, 0, 1, 41);
        let out = sim.step(&idle_inputs(4)).unwrap();
        assert_eq!(out[14], 2);
    }

    #[test]
    fn reset_clears_state() {
        let mut switch = AtmSwitchRtl::new(SwitchRtlConfig::default());
        switch.install_route(1, 40, 0, 1, 40);
        switch.reset();
        let mut sim = CycleSim::new(Box::new(switch));
        let out = sim.step(&idle_inputs(4)).unwrap();
        assert_eq!(out[14], 0, "routes wiped by reset");
    }
}
