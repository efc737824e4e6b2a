//! Abstraction interfaces: mapping abstract data types to bit-level signals.
//!
//! §3.2: in the network simulator "processes communicate through the
//! exchange of abstracted information described for example as
//! C-structures … communication is instantaneous", while at the
//! implementation level interfaces have structure (signals, pins) and
//! timing (clock cycles, handshakes). "The user has to specify how
//! high-level protocol data units and abstract data types have to be mapped
//! to bit-level signals using appropriate conversion functions that are
//! provided in the CASTANET library." This module is that library for the
//! ATM domain:
//!
//! * [`cell_to_byte_ops`] — Fig. 4's mapping: one ATM cell becomes 53
//!   byte-wide bus operations plus the generated `cellsync` control signal;
//! * [`ByteStreamAssembler`] — the inverse: re-assembling cells from a
//!   byte-serial stream (what the co-simulation entity applies to DUT
//!   outputs);
//! * [`time_scale_ratio`] — the granularity gap between a cell-time step in
//!   the network simulator and a clock step in the HDL simulator
//!   ("a ratio of ≈1:400 for a simulation time step in OPNET and VSS").

use crate::error::CastanetError;
use castanet_atm::addr::HeaderFormat;
use castanet_atm::cell::{AtmCell, CELL_OCTETS};
use castanet_netsim::time::SimDuration;

/// One byte-wide bus operation: what the `atmdata`/`cellsync` port pair
/// carries during one clock cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteOp {
    /// Clock-cycle offset from the start of the transfer.
    pub cycle: u64,
    /// The octet on `atmdata`.
    pub data: u8,
    /// The `cellsync` control signal (high on the first octet of a cell).
    pub sync: bool,
}

/// Maps an ATM cell onto its 53 byte-wide bus operations (Fig. 4): the
/// complete cell "takes 53 clock cycles within the hardware simulator to
/// read", with `cellsync` generated for the first octet.
///
/// # Errors
///
/// Propagates header-encoding errors from the cell.
pub fn cell_to_byte_ops(
    cell: &AtmCell,
    format: HeaderFormat,
) -> Result<Vec<ByteOp>, CastanetError> {
    let mut ops = Vec::with_capacity(53);
    cell_to_byte_ops_into(cell, format, &mut ops)?;
    Ok(ops)
}

/// Allocation-free form of [`cell_to_byte_ops`]: clears `out` and fills
/// it with the 53 bus operations, reusing its capacity. The co-simulation
/// entity calls this once per delivered cell on the hot path.
///
/// # Errors
///
/// Propagates header-encoding errors from the cell; `out` is left empty
/// in that case.
pub fn cell_to_byte_ops_into(
    cell: &AtmCell,
    format: HeaderFormat,
    out: &mut Vec<ByteOp>,
) -> Result<(), CastanetError> {
    out.clear();
    let wire = cell.encode(format)?;
    out.extend(wire.iter().enumerate().map(|(i, &data)| ByteOp {
        cycle: i as u64,
        data,
        sync: i == 0,
    }));
    Ok(())
}

/// Re-assembles cells from a byte-serial stream with `cellsync` markers —
/// the receive-side conversion the co-simulation entity performs on DUT
/// responses before sending them back to the network simulator.
///
/// # Examples
///
/// ```
/// use castanet::convert::{cell_to_byte_ops, ByteStreamAssembler};
/// use castanet_atm::addr::{HeaderFormat, VpiVci};
/// use castanet_atm::cell::AtmCell;
///
/// let cell = AtmCell::user_data(VpiVci::uni(1, 42)?, [7; 48]);
/// let ops = cell_to_byte_ops(&cell, HeaderFormat::Uni)?;
/// let mut rx = ByteStreamAssembler::new(HeaderFormat::Uni);
/// let mut out = None;
/// for op in ops {
///     if let Some(c) = rx.push(op.data, op.sync)? {
///         out = Some(c);
///     }
/// }
/// assert_eq!(out, Some(cell));
/// # Ok::<(), castanet::error::CastanetError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ByteStreamAssembler {
    format: HeaderFormat,
    buffer: [u8; CELL_OCTETS],
    /// Octets of the cell in flight; [`CELL_OCTETS`] outside a cell.
    index: usize,
    assembled: u64,
    hec_rejects: u64,
}

impl ByteStreamAssembler {
    /// Creates an assembler for the given header format.
    #[must_use]
    pub fn new(format: HeaderFormat) -> Self {
        ByteStreamAssembler {
            format,
            buffer: [0; CELL_OCTETS],
            index: CELL_OCTETS,
            assembled: 0,
            hec_rejects: 0,
        }
    }

    /// Feeds one octet. Returns a completed cell on the 53rd octet.
    ///
    /// # Errors
    ///
    /// Returns [`CastanetError::Atm`] when a completed cell fails its HEC
    /// check (the byte stream was corrupted between DUT and entity).
    #[inline]
    pub fn push(&mut self, data: u8, sync: bool) -> Result<Option<AtmCell>, CastanetError> {
        if sync {
            self.index = 0;
        }
        let Some(slot) = self.buffer.get_mut(self.index) else {
            return Ok(None); // Outside a cell: wait for the next sync.
        };
        *slot = data;
        self.index += 1;
        if self.index < CELL_OCTETS {
            return Ok(None);
        }
        self.finish()
    }

    /// Decodes the cell whose 53rd octet was just stored; the assembler is
    /// then outside a cell until the next sync.
    #[cold]
    fn finish(&mut self) -> Result<Option<AtmCell>, CastanetError> {
        match AtmCell::decode(&self.buffer, self.format) {
            Ok(cell) => {
                self.assembled += 1;
                Ok(Some(cell))
            }
            Err(e) => {
                self.hec_rejects += 1;
                Err(CastanetError::Atm(e))
            }
        }
    }

    /// Octets of the cell currently in flight.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.index % CELL_OCTETS
    }

    /// Cells assembled so far.
    #[must_use]
    pub fn assembled(&self) -> u64 {
        self.assembled
    }

    /// Cells rejected for header corruption.
    #[must_use]
    pub fn rejects(&self) -> u64 {
        self.hec_rejects
    }
}

/// The granularity gap of §3.2: how many HDL clock steps fit in one
/// network-simulator cell-time step. With the paper's clocks this is the
/// "ratio of ≈1:400".
///
/// # Panics
///
/// Panics if `clock_period` is zero.
#[must_use]
pub fn time_scale_ratio(cell_time: SimDuration, clock_period: SimDuration) -> f64 {
    assert!(!clock_period.is_zero(), "clock period must be non-zero");
    cell_time.as_secs_f64() / clock_period.as_secs_f64()
}

/// Packs a slice of octets into 64-bit words, little-endian within each
/// word — a width adapter for word-oriented DUT ports.
#[must_use]
pub fn pack_words(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks(8)
        .map(|chunk| {
            let mut w = 0u64;
            for (i, &b) in chunk.iter().enumerate() {
                w |= u64::from(b) << (8 * i);
            }
            w
        })
        .collect()
}

/// Inverse of [`pack_words`], producing exactly `len` octets.
///
/// # Panics
///
/// Panics when `len` exceeds `words.len() * 8`.
#[must_use]
pub fn unpack_words(words: &[u64], len: usize) -> Vec<u8> {
    assert!(len <= words.len() * 8, "unpack length exceeds word supply");
    (0..len)
        .map(|i| (words[i / 8] >> (8 * (i % 8))) as u8)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use castanet_atm::addr::VpiVci;

    fn cell(vci: u16) -> AtmCell {
        AtmCell::user_data(VpiVci::uni(1, vci).unwrap(), [vci as u8; 48])
    }

    #[test]
    fn cell_maps_to_53_cycles_with_sync_on_first() {
        let ops = cell_to_byte_ops(&cell(40), HeaderFormat::Uni).unwrap();
        assert_eq!(ops.len(), 53);
        assert!(ops[0].sync);
        assert!(ops[1..].iter().all(|o| !o.sync));
        assert_eq!(ops.last().unwrap().cycle, 52);
    }

    #[test]
    fn assembler_roundtrips_back_to_back_cells() {
        let mut rx = ByteStreamAssembler::new(HeaderFormat::Uni);
        let mut got = Vec::new();
        for vci in [40u16, 41, 42] {
            for op in cell_to_byte_ops(&cell(vci), HeaderFormat::Uni).unwrap() {
                if let Some(c) = rx.push(op.data, op.sync).unwrap() {
                    got.push(c);
                }
            }
        }
        assert_eq!(got, vec![cell(40), cell(41), cell(42)]);
        assert_eq!(rx.assembled(), 3);
        assert_eq!(rx.pending(), 0);
    }

    #[test]
    fn assembler_ignores_bytes_before_first_sync() {
        let mut rx = ByteStreamAssembler::new(HeaderFormat::Uni);
        for _ in 0..10 {
            assert!(rx.push(0x6A, false).unwrap().is_none());
        }
        assert_eq!(rx.pending(), 0);
        let ops = cell_to_byte_ops(&cell(40), HeaderFormat::Uni).unwrap();
        let mut out = None;
        for op in ops {
            if let Some(c) = rx.push(op.data, op.sync).unwrap() {
                out = Some(c);
            }
        }
        assert_eq!(out, Some(cell(40)));
    }

    #[test]
    fn corrupted_stream_is_rejected() {
        let mut rx = ByteStreamAssembler::new(HeaderFormat::Uni);
        let ops = cell_to_byte_ops(&cell(40), HeaderFormat::Uni).unwrap();
        let mut result = Ok(None);
        for (i, op) in ops.iter().enumerate() {
            let data = if i == 2 { op.data ^ 0xFF } else { op.data };
            result = rx.push(data, op.sync);
        }
        assert!(result.is_err());
        assert_eq!(rx.rejects(), 1);
        // The assembler recovers on the next cell.
        let mut out = None;
        for op in cell_to_byte_ops(&cell(50), HeaderFormat::Uni).unwrap() {
            if let Some(c) = rx.push(op.data, op.sync).unwrap() {
                out = Some(c);
            }
        }
        assert_eq!(out, Some(cell(50)));
    }

    #[test]
    fn resync_mid_cell_restarts_assembly() {
        let mut rx = ByteStreamAssembler::new(HeaderFormat::Uni);
        let ops = cell_to_byte_ops(&cell(40), HeaderFormat::Uni).unwrap();
        for op in ops.iter().take(20) {
            rx.push(op.data, op.sync).unwrap();
        }
        assert_eq!(rx.pending(), 20);
        let mut out = None;
        for op in &ops {
            if let Some(c) = rx.push(op.data, op.sync).unwrap() {
                out = Some(c);
            }
        }
        assert_eq!(out, Some(cell(40)));
        assert_eq!(rx.assembled(), 1);
    }

    #[test]
    fn time_scale_ratio_matches_paper_magnitude() {
        // 155 Mbit/s cell time ≈ 2.726 us vs a 7 ns VHDL-era clock
        // ≈ 1:390 — the paper's "ratio of 1:400".
        let ratio = time_scale_ratio(SimDuration::from_ns(2726), SimDuration::from_ns(7));
        assert!(ratio > 380.0 && ratio < 400.0, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_clock_period_panics() {
        let _ = time_scale_ratio(SimDuration::from_ns(1), SimDuration::ZERO);
    }

    #[test]
    fn word_packing_roundtrip() {
        let bytes: Vec<u8> = (0..53).collect();
        let words = pack_words(&bytes);
        assert_eq!(words.len(), 7);
        assert_eq!(unpack_words(&words, 53), bytes);
        assert_eq!(pack_words(&[]).len(), 0);
        assert_eq!(unpack_words(&[0x0201], 2), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "exceeds word supply")]
    fn unpack_over_supply_panics() {
        let _ = unpack_words(&[0], 9);
    }
}
