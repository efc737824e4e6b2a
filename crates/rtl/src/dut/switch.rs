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

/// Per-line port names of up to 8 lines, so a port list borrows them
/// instead of formatting them.
const RX_NAMES: [[&str; 3]; 8] = [
    ["rx_data0", "rx_sync0", "rx_en0"],
    ["rx_data1", "rx_sync1", "rx_en1"],
    ["rx_data2", "rx_sync2", "rx_en2"],
    ["rx_data3", "rx_sync3", "rx_en3"],
    ["rx_data4", "rx_sync4", "rx_en4"],
    ["rx_data5", "rx_sync5", "rx_en5"],
    ["rx_data6", "rx_sync6", "rx_en6"],
    ["rx_data7", "rx_sync7", "rx_en7"],
];
const TX_NAMES: [[&str; 3]; 8] = [
    ["tx_data0", "tx_sync0", "tx_valid0"],
    ["tx_data1", "tx_sync1", "tx_valid1"],
    ["tx_data2", "tx_sync2", "tx_valid2"],
    ["tx_data3", "tx_sync3", "tx_valid3"],
    ["tx_data4", "tx_sync4", "tx_valid4"],
    ["tx_data5", "tx_sync5", "tx_valid5"],
    ["tx_data6", "tx_sync6", "tx_valid6"],
    ["tx_data7", "tx_sync7", "tx_valid7"],
];

impl CycleDut for AtmSwitchRtl {
    fn input_ports(&self) -> Vec<PortDecl> {
        let n = self.cfg.ports;
        let mut ports = Vec::with_capacity(3 * n + 6);
        for &[data, sync, en] in &RX_NAMES[..n] {
            ports.push(PortDecl::new(data, 8));
            ports.push(PortDecl::new(sync, 1));
            ports.push(PortDecl::new(en, 1));
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
        let n = self.cfg.ports;
        let mut ports = Vec::with_capacity(3 * n + 3);
        for &[data, sync, valid] in &TX_NAMES[..n] {
            ports.push(PortDecl::new(data, 8));
            ports.push(PortDecl::new(sync, 1));
            ports.push(PortDecl::new(valid, 1));
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

    fn clock_edge(&mut self, inputs: &[u64], outputs: &mut [u64]) {
        let n = self.cfg.ports;
        debug_assert_eq!(inputs.len(), 3 * n + 6);
        debug_assert_eq!(outputs.len(), 3 * n + 3);
        let (rx_pins, cfg) = inputs.split_at(3 * n);
        let (tx_pins, status) = outputs.split_at_mut(3 * n);

        // Global control unit: configuration interface.
        if let &[1, in_vpi, in_vci, out_port, out_vpi, out_vci] = cfg {
            let _ = self.install_route(
                in_vpi as u8,
                in_vci as u16,
                out_port as usize,
                out_vpi as u8,
                out_vci as u16,
            );
        }

        // Ingress: one octet per port per clock. The line states are
        // taken out while they are walked, for `complete_cell`.
        let mut lines = std::mem::take(&mut self.rx);
        for (rx, &[data, sync, en]) in lines.iter_mut().zip(rx_pins.as_chunks().0) {
            if en != 1 {
                continue;
            }
            if sync == 1 {
                rx.index = 0;
                rx.in_cell = true;
            }
            if rx.in_cell {
                rx.shift[rx.index] = data as u8;
                rx.index += 1;
                if rx.index == CELL_OCTETS {
                    rx.index = 0;
                    rx.in_cell = false;
                    self.complete_cell(rx.shift);
                }
            }
        }
        self.rx = lines;

        // Egress: stream queued cells, chaining back-to-back.
        let lines = self.tx.iter_mut().zip(&mut self.fifos);
        for ((tx, fifo), pins) in lines.zip(tx_pins.as_chunks_mut().0) {
            if !tx.active {
                if let Some(cell) = fifo.pop_front() {
                    tx.buffer = cell;
                    tx.index = 0;
                    tx.active = true;
                }
            }
            *pins = if tx.active {
                let idx = tx.index;
                tx.index += 1;
                if tx.index == CELL_OCTETS {
                    tx.active = false;
                    tx.index = 0;
                }
                [u64::from(tx.buffer[idx]), u64::from(idx == 0), 1]
            } else {
                [0; 3]
            };
        }
        let table = self.table.len() as u64;
        status.copy_from_slice(&[self.unroutable.into(), self.dropped.into(), table]);
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
            capture(out, &mut streams);
        }
        for _ in 0..extra {
            let out = sim.step(&idle_inputs(ports)).unwrap();
            capture(out, &mut streams);
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

    /// Pins the switch's pin-level behaviour: 20 000 clocks of seeded
    /// stimulus into a 4-port switch with 2-cell FIFOs — back-to-back
    /// cells, mid-cell re-syncs, enable gaps, HEC-corrupt and unroutable
    /// cells, and `cfg_valid` route writes — hashed row by row.
    #[test]
    fn seeded_pin_stimulus_gives_pinned_output_rows() {
        const PORTS: usize = 4;
        // xorshift64*: deterministic and dependency-free.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut rand = |below: u64| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D) % below
        };
        let mut switch = AtmSwitchRtl::new(SwitchRtlConfig {
            ports: PORTS,
            fifo_capacity: 2,
            table_capacity: 8,
        });
        for vci in 32..36 {
            assert!(switch.install_route(1, vci, usize::from(vci % 2), 2, vci + 100));
        }
        // Per line: the cell on the wire and the next octet to drive.
        let mut lines = [([0u8; CELL_OCTETS], None::<usize>); PORTS];
        let mut inputs = idle_inputs(PORTS);
        let mut outputs = vec![0u64; 3 * PORTS + 3];
        let mut hash = 0xCBF2_9CE4_8422_2325_u64;
        for _ in 0..20_000 {
            for (i, (cell, next)) in lines.iter_mut().enumerate() {
                let start = match *next {
                    // Mid-cell: mostly the next octet, now and then a
                    // re-sync (a new cell) or a clock with enable low.
                    Some(_) => rand(64) == 0,
                    None => rand(4) == 0,
                };
                if start {
                    // VPI 1, VCI 30..38: routed (32..36, or later via the
                    // pins) or absorbed as unroutable; 1 in 8 HEC-corrupt.
                    let vci = 30 + rand(8) as u16;
                    *cell = wire_cell(1, vci, rand(256) as u8);
                    if rand(8) == 0 {
                        cell[4] ^= 0x01;
                    }
                    *next = Some(0);
                }
                let word = &mut inputs[3 * i..3 * i + 3];
                match *next {
                    Some(k) if start || rand(32) != 0 => {
                        word.copy_from_slice(&[u64::from(cell[k]), u64::from(k == 0), 1]);
                        // Back to back: a finished line may start a new
                        // cell on the very next clock.
                        *next = (k + 1 < CELL_OCTETS).then_some(k + 1);
                    }
                    // Enable low: data and sync are don't-care.
                    _ => word.copy_from_slice(&[rand(256), rand(2), 0]),
                }
            }
            let cfg = &mut inputs[3 * PORTS..];
            cfg[0] = u64::from(rand(200) == 0);
            cfg[1] = rand(3);
            cfg[2] = 30 + rand(8);
            cfg[3] = rand(8);
            cfg[4] = rand(256);
            cfg[5] = rand(1 << 16);
            switch.clock_edge(&inputs, &mut outputs);
            for word in &outputs {
                for byte in word.to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
                }
            }
        }
        let [unroutable, dropped, table] = outputs[3 * PORTS..] else {
            unreachable!()
        };
        assert_eq!([unroutable, dropped, table], [429, 4, 8]);
        assert_eq!((switch.switched(), switch.hec_errors()), (355, 117));
        assert_eq!(hash, 0x8FBC_8810_5492_C112);
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
