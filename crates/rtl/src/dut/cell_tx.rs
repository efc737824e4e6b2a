//! The cell transmitter: Fig. 4's byte-serial ATM interface, transmit side.
//!
//! Mirror image of [`super::CellReceiver`]: a 53-octet buffer is loaded
//! through a write port, then streamed out one octet per clock with the
//! `cellsync` strobe marking octet 0.

use crate::cycle::{CycleDut, PortDecl};
use castanet_atm::cell::CELL_OCTETS;

/// Pin-level cell transmitter.
///
/// Inputs (in `clock_edge` order):
/// 1. `wr_en` (1), `wr_addr` (6), `wr_data` (8) — buffer load port;
/// 2. `tx_start` (1) — begin streaming the buffer (ignored while busy).
///
/// Outputs:
/// 1. `atmdata` (8) — the octet on the line this clock;
/// 2. `cellsync` (1) — high with octet 0;
/// 3. `valid` (1) — high while an octet is being transmitted;
/// 4. `busy` (1) — high from start until the last octet.
#[derive(Debug, Clone)]
pub struct CellTransmitter {
    buffer: [u8; CELL_OCTETS],
    index: usize,
    busy: bool,
    sent_cells: u64,
}

impl Default for CellTransmitter {
    fn default() -> Self {
        Self::new()
    }
}

impl CellTransmitter {
    /// Creates a transmitter in reset state.
    #[must_use]
    pub fn new() -> Self {
        CellTransmitter {
            buffer: [0; CELL_OCTETS],
            index: 0,
            busy: false,
            sent_cells: 0,
        }
    }

    /// Model-level buffer load (tests / co-simulation entity shortcut; the
    /// pin-accurate path is the `wr_*` port).
    pub fn load(&mut self, cell: &[u8; CELL_OCTETS]) {
        self.buffer = *cell;
    }

    /// Cells completely streamed since reset.
    #[must_use]
    pub fn sent_cells(&self) -> u64 {
        self.sent_cells
    }
}

impl CycleDut for CellTransmitter {
    fn input_ports(&self) -> Vec<PortDecl> {
        vec![
            PortDecl::new("wr_en", 1),
            PortDecl::new("wr_addr", 6),
            PortDecl::new("wr_data", 8),
            PortDecl::new("tx_start", 1),
        ]
    }

    fn output_ports(&self) -> Vec<PortDecl> {
        vec![
            PortDecl::new("atmdata", 8),
            PortDecl::new("cellsync", 1),
            PortDecl::new("valid", 1),
            PortDecl::new("busy", 1),
        ]
    }

    fn reset(&mut self) {
        *self = CellTransmitter::new();
    }

    fn clock_edge(&mut self, inputs: &[u64], outputs: &mut [u64]) {
        let wr_en = inputs[0] == 1;
        let wr_addr = (inputs[1] as usize).min(CELL_OCTETS - 1);
        let wr_data = inputs[2] as u8;
        let tx_start = inputs[3] == 1;

        if wr_en && !self.busy {
            self.buffer[wr_addr] = wr_data;
        }

        let (data, sync, valid) = if self.busy {
            let b = self.buffer[self.index];
            let sync = self.index == 0;
            self.index += 1;
            if self.index == CELL_OCTETS {
                self.busy = false;
                self.index = 0;
                self.sent_cells += 1;
            }
            (b, sync, true)
        } else {
            (0, false, false)
        };

        // Start takes effect for the *next* clock (registered control).
        if tx_start && !self.busy && !valid {
            self.busy = true;
            self.index = 0;
        } else if tx_start && !self.busy && valid {
            // Start coinciding with the last octet: chain immediately.
            self.busy = true;
            self.index = 0;
        }

        outputs.copy_from_slice(&[
            u64::from(data),
            u64::from(sync),
            u64::from(valid),
            u64::from(self.busy),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::CycleSim;
    use crate::dut::CellReceiver;
    use castanet_atm::addr::{HeaderFormat, VpiVci};
    use castanet_atm::cell::AtmCell;

    fn wire_cell(vpi: u16, vci: u16, fill: u8) -> [u8; CELL_OCTETS] {
        AtmCell::user_data(VpiVci::uni(vpi, vci).unwrap(), [fill; 48])
            .encode(HeaderFormat::Uni)
            .unwrap()
    }

    fn load_via_pins(sim: &mut CycleSim, cell: &[u8; CELL_OCTETS]) {
        for (i, &b) in cell.iter().enumerate() {
            sim.step(&[1, i as u64, u64::from(b), 0]).unwrap();
        }
    }

    fn capture_stream(sim: &mut CycleSim) -> Vec<(u8, bool)> {
        // Pulse start, then collect valid octets.
        sim.step(&[0, 0, 0, 1]).unwrap();
        let mut out = Vec::new();
        for _ in 0..60 {
            let o = sim.step(&[0, 0, 0, 0]).unwrap();
            if o[2] == 1 {
                out.push((o[0] as u8, o[1] == 1));
            }
        }
        out
    }

    #[test]
    fn streams_53_octets_with_sync_on_first() {
        let mut sim = CycleSim::new(Box::new(CellTransmitter::new()));
        let cell = wire_cell(7, 70, 0x3C);
        load_via_pins(&mut sim, &cell);
        let stream = capture_stream(&mut sim);
        assert_eq!(stream.len(), CELL_OCTETS);
        assert!(stream[0].1, "first octet carries cellsync");
        assert!(stream[1..].iter().all(|&(_, s)| !s));
        let bytes: Vec<u8> = stream.iter().map(|&(b, _)| b).collect();
        assert_eq!(bytes, cell.to_vec());
    }

    #[test]
    fn start_while_busy_is_ignored() {
        let mut sim = CycleSim::new(Box::new(CellTransmitter::new()));
        let cell = wire_cell(1, 40, 0x01);
        load_via_pins(&mut sim, &cell);
        sim.step(&[0, 0, 0, 1]).unwrap(); // arm
                                          // Pulse start mid-stream.
        let mut octets = 0;
        for i in 0..70 {
            let start = u64::from(i == 10);
            let o = sim.step(&[0, 0, 0, start]).unwrap();
            if o[2] == 1 {
                octets += 1;
            }
        }
        // The mid-stream start is ignored while busy; exactly one cell.
        assert_eq!(octets, CELL_OCTETS);
    }

    #[test]
    fn writes_ignored_while_busy() {
        let mut sim = CycleSim::new(Box::new(CellTransmitter::new()));
        let cell = wire_cell(1, 40, 0xAB);
        load_via_pins(&mut sim, &cell);
        sim.step(&[0, 0, 0, 1]).unwrap();
        // Attempt to overwrite byte 52 while streaming.
        sim.step(&[1, 52, 0xFF, 0]).unwrap();
        let mut last = 0u8;
        for _ in 0..60 {
            let o = sim.step(&[0, 0, 0, 0]).unwrap();
            if o[2] == 1 {
                last = o[0] as u8;
            }
        }
        assert_eq!(last, cell[52], "overwrite while busy must not land");
    }

    #[test]
    fn loopback_tx_to_rx() {
        let mut tx = CycleSim::new(Box::new(CellTransmitter::new()));
        let mut rx = CycleSim::new(Box::new(CellReceiver::new()));
        let cell = wire_cell(0x42, 0x1234, 0x5A);
        load_via_pins(&mut tx, &cell);
        tx.step(&[0, 0, 0, 1]).unwrap();
        let mut completed = None;
        for _ in 0..60 {
            let o = tx.step(&[0, 0, 0, 0]).unwrap();
            let r = rx.step(&[o[0], o[1], o[2], 0]).unwrap();
            if r[0] == 1 {
                completed = Some(r.to_vec());
            }
        }
        let r = completed.expect("receiver completed a cell");
        assert_eq!(r[1], 1, "hec survives the loop");
        assert_eq!(r[2], 0x42);
        assert_eq!(r[3], 0x1234);
    }

    #[test]
    fn sent_cell_counter() {
        let mut sim = CycleSim::new(Box::new(CellTransmitter::new()));
        let cell = wire_cell(1, 40, 0);
        load_via_pins(&mut sim, &cell);
        capture_stream(&mut sim);
        capture_stream(&mut sim);
        // Access the model-level counter through the erased DUT is not
        // possible; stream counting above already proves two cells, so this
        // test exercises the model API directly instead.
        let mut tx = CellTransmitter::new();
        tx.load(&cell);
        let mut out = [0; 4];
        for _ in 0..2 {
            tx.clock_edge(&[0, 0, 0, 1], &mut out);
            for _ in 0..CELL_OCTETS {
                tx.clock_edge(&[0, 0, 0, 0], &mut out);
            }
        }
        assert_eq!(tx.sent_cells(), 2);
    }
}
