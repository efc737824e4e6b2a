//! The cell receiver: Fig. 4's byte-serial ATM interface, receive side.
//!
//! "The complete ATM cell comprises 53 bytes, therefore it takes 53 clock
//! cycles within the hardware simulator to read the cell. Additionally, the
//! interface model generates control signals such as a cell synchronization
//! signal that indicates the start of a new cell."
//!
//! The receiver deserializes the 8-bit `atmdata` stream, checks the HEC,
//! decodes the header fields and exposes the completed cell through a
//! read-back RAM port (double-buffered, as real cell delineation hardware
//! does).

use crate::cycle::{CycleDut, PortDecl};
use castanet_atm::cell::CELL_OCTETS;
use castanet_atm::hec;

/// Pin-level cell receiver.
///
/// Inputs (in `clock_edge` order):
/// 1. `atmdata` (8) — one cell octet per clock;
/// 2. `cellsync` (1) — high while the *first* octet of a cell is presented;
/// 3. `enable` (1) — byte-valid qualifier (low = no data this clock);
/// 4. `rd_addr` (6) — read-back address into the last completed cell.
///
/// Outputs:
/// 1. `cell_valid` (1) — pulses for one clock when octet 53 lands;
/// 2. `hec_ok` (1) — HEC verdict of the completed cell (valid with
///    `cell_valid`, held until the next completion);
/// 3. `vpi` (8), `vci` (16), `pt` (3), `clp` (1) — decoded header of the
///    last completed cell (UNI format);
/// 4. `rd_data` (8) — `last_cell[rd_addr]` (registered, 1-cycle latency);
/// 5. `cells` (16) — completed-cell counter (wraps).
#[derive(Debug, Clone)]
pub struct CellReceiver {
    shift: [u8; CELL_OCTETS],
    index: usize,
    in_cell: bool,
    done: [u8; CELL_OCTETS],
    cell_valid: bool,
    hec_ok: bool,
    vpi: u8,
    vci: u16,
    pt: u8,
    clp: bool,
    rd_data: u8,
    cells: u16,
}

impl Default for CellReceiver {
    fn default() -> Self {
        Self::new()
    }
}

impl CellReceiver {
    /// Creates a receiver in reset state.
    #[must_use]
    pub fn new() -> Self {
        CellReceiver {
            shift: [0; CELL_OCTETS],
            index: 0,
            in_cell: false,
            done: [0; CELL_OCTETS],
            cell_valid: false,
            hec_ok: false,
            vpi: 0,
            vci: 0,
            pt: 0,
            clp: false,
            rd_data: 0,
            cells: 0,
        }
    }

    /// The last completed cell's 53 octets (model-level readback for tests
    /// and the co-simulation entity; hardware uses the `rd_addr`/`rd_data`
    /// port).
    #[must_use]
    pub fn last_cell(&self) -> &[u8; CELL_OCTETS] {
        &self.done
    }

    /// Completed-cell count since reset.
    #[must_use]
    pub fn cell_count(&self) -> u16 {
        self.cells
    }
}

impl CycleDut for CellReceiver {
    fn input_ports(&self) -> Vec<PortDecl> {
        vec![
            PortDecl::new("atmdata", 8),
            PortDecl::new("cellsync", 1),
            PortDecl::new("enable", 1),
            PortDecl::new("rd_addr", 6),
        ]
    }

    fn output_ports(&self) -> Vec<PortDecl> {
        vec![
            PortDecl::new("cell_valid", 1),
            PortDecl::new("hec_ok", 1),
            PortDecl::new("vpi", 8),
            PortDecl::new("vci", 16),
            PortDecl::new("pt", 3),
            PortDecl::new("clp", 1),
            PortDecl::new("rd_data", 8),
            PortDecl::new("cells", 16),
        ]
    }

    fn reset(&mut self) {
        *self = CellReceiver::new();
    }

    fn clock_edge(&mut self, inputs: &[u64]) -> Vec<u64> {
        let data = inputs[0] as u8;
        let sync = inputs[1] == 1;
        let enable = inputs[2] == 1;
        let rd_addr = (inputs[3] as usize).min(CELL_OCTETS - 1);

        self.cell_valid = false;
        if enable {
            if sync {
                // Resynchronize: this octet is byte 0 regardless of state.
                self.index = 0;
                self.in_cell = true;
            }
            if self.in_cell {
                self.shift[self.index] = data;
                self.index += 1;
                if self.index == CELL_OCTETS {
                    self.done = self.shift;
                    self.cell_valid = true;
                    self.hec_ok = hec::check(&self.done[..5]);
                    // UNI header decode.
                    self.vpi = (self.done[0] << 4) | (self.done[1] >> 4);
                    self.vci = (u16::from(self.done[1] & 0x0F) << 12)
                        | (u16::from(self.done[2]) << 4)
                        | u16::from(self.done[3] >> 4);
                    self.pt = (self.done[3] >> 1) & 0b111;
                    self.clp = self.done[3] & 1 == 1;
                    self.cells = self.cells.wrapping_add(1);
                    self.index = 0;
                    self.in_cell = false;
                }
            }
        }
        self.rd_data = self.done[rd_addr];

        vec![
            u64::from(self.cell_valid),
            u64::from(self.hec_ok),
            u64::from(self.vpi),
            u64::from(self.vci),
            u64::from(self.pt),
            u64::from(self.clp),
            u64::from(self.rd_data),
            u64::from(self.cells),
        ]
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

    /// Streams a 53-octet cell into the receiver, returning the outputs of
    /// the final byte's clock edge.
    fn stream_cell(sim: &mut CycleSim, wire: &[u8; CELL_OCTETS]) -> Vec<u64> {
        let mut last = Vec::new();
        for (i, &b) in wire.iter().enumerate() {
            let sync = u64::from(i == 0);
            last = sim.step(&[u64::from(b), sync, 1, 0]).unwrap();
        }
        last
    }

    #[test]
    fn receives_one_cell_in_53_clocks() {
        let mut sim = CycleSim::new(Box::new(CellReceiver::new()));
        let wire = wire_cell(0x5C, 0xBEE, 0xAA);
        let out = stream_cell(&mut sim, &wire);
        assert_eq!(sim.cycles(), 53, "exactly 53 clocks per cell");
        assert_eq!(out[0], 1, "cell_valid pulses");
        assert_eq!(out[1], 1, "hec ok");
        assert_eq!(out[2], 0x5C, "vpi decoded");
        assert_eq!(out[3], 0xBEE, "vci decoded");
        assert_eq!(out[5], 0, "clp");
        assert_eq!(out[7], 1, "cell counter");
    }

    #[test]
    fn cell_valid_is_a_single_cycle_pulse() {
        let mut sim = CycleSim::new(Box::new(CellReceiver::new()));
        let wire = wire_cell(1, 40, 0);
        let out = stream_cell(&mut sim, &wire);
        assert_eq!(out[0], 1);
        let idle = sim.step(&[0, 0, 0, 0]).unwrap();
        assert_eq!(idle[0], 0, "valid deasserts after one clock");
        assert_eq!(idle[7], 1, "counter holds");
    }

    #[test]
    fn corrupted_hec_is_flagged() {
        let mut sim = CycleSim::new(Box::new(CellReceiver::new()));
        let mut wire = wire_cell(1, 40, 0);
        wire[4] ^= 0xFF;
        let out = stream_cell(&mut sim, &wire);
        assert_eq!(out[0], 1, "cell still completes");
        assert_eq!(out[1], 0, "hec flagged bad");
    }

    #[test]
    fn disabled_clocks_do_not_consume_bytes() {
        let mut sim = CycleSim::new(Box::new(CellReceiver::new()));
        let wire = wire_cell(9, 99, 0x42);
        // First byte with sync.
        sim.step(&[u64::from(wire[0]), 1, 1, 0]).unwrap();
        // Idle gaps between bytes (enable low).
        for _ in 0..5 {
            let out = sim.step(&[0xFF, 0, 0, 0]).unwrap();
            assert_eq!(out[0], 0);
        }
        // Remaining 52 bytes.
        let mut last = Vec::new();
        for &b in &wire[1..] {
            last = sim.step(&[u64::from(b), 0, 1, 0]).unwrap();
        }
        assert_eq!(last[0], 1);
        assert_eq!(last[1], 1, "gaps must not corrupt the cell");
    }

    #[test]
    fn resync_mid_cell_recovers() {
        let mut sim = CycleSim::new(Box::new(CellReceiver::new()));
        let wire = wire_cell(3, 77, 0x11);
        // Stream 20 bytes of a cell, then a fresh sync restarts.
        for (i, &b) in wire.iter().take(20).enumerate() {
            sim.step(&[u64::from(b), u64::from(i == 0), 1, 0]).unwrap();
        }
        let out = stream_cell(&mut sim, &wire);
        assert_eq!(out[0], 1);
        assert_eq!(out[1], 1);
        assert_eq!(out[7], 1, "only the complete cell counts");
    }

    #[test]
    fn readback_port_returns_last_cell() {
        let mut sim = CycleSim::new(Box::new(CellReceiver::new()));
        let wire = wire_cell(2, 55, 0x77);
        stream_cell(&mut sim, &wire);
        for addr in [0usize, 4, 5, 52] {
            let out = sim.step(&[0, 0, 0, addr as u64]).unwrap();
            assert_eq!(out[6], u64::from(wire[addr]), "readback at {addr}");
        }
    }

    #[test]
    fn bytes_without_sync_before_first_cell_are_ignored() {
        let mut sim = CycleSim::new(Box::new(CellReceiver::new()));
        for _ in 0..100 {
            let out = sim.step(&[0x6A, 0, 1, 0]).unwrap();
            assert_eq!(out[0], 0);
        }
        let wire = wire_cell(1, 40, 1);
        let out = stream_cell(&mut sim, &wire);
        assert_eq!(out[0], 1);
    }

    #[test]
    fn back_to_back_cells() {
        let mut sim = CycleSim::new(Box::new(CellReceiver::new()));
        let a = wire_cell(1, 40, 0xAA);
        let b = wire_cell(2, 50, 0xBB);
        stream_cell(&mut sim, &a);
        let out = stream_cell(&mut sim, &b);
        assert_eq!(out[7], 2);
        assert_eq!(out[2], 2);
        assert_eq!(out[3], 50);
        assert_eq!(sim.cycles(), 106);
    }
}
