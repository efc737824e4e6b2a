//! Lane batching for behavioural DUTs: up to [`LANES`] replicated
//! [`CycleDut`] instances held together as one [`LaneBank`].
//!
//! Each lane is an independent scenario instance of the same design. The
//! bank checks once that every lane declares the same ports, then hands
//! out one [`Lane`] handle per lane: a handle clocks its own DUT on its own
//! input row, in place, so the cycle follower (`CycleCosim` in
//! `castanet-core`) can run each lane through a window on its own, and
//! disjoint lanes on different threads. The cycle engine
//! [`crate::cycle::CycleSim`] is a one-lane bank.
//!
//! [`Lane::clock_edge`] takes its row unchecked. [`LaneBank::check_row`]
//! checks rows a caller builds ([`crate::cycle::CycleSim::step`]); the
//! cycle follower's rows fit by construction, its lines checked once.

use crate::cycle::{CycleDut, PortDecl};
use crate::error::RtlError;
use std::fmt;

/// Maximum number of scenario lanes in one [`LaneBank`].
pub const LANES: usize = 64;

/// The port lists every lane declares, with their width masks.
#[derive(Debug)]
struct Ports {
    inputs: Vec<PortDecl>,
    outputs: Vec<PortDecl>,
    /// Width masks of the input and output ports, index-aligned.
    in_masks: Vec<u64>,
    out_masks: Vec<u64>,
}

impl Ports {
    /// `Ok` when `row` holds one word per input port, each inside its
    /// port's width.
    fn check(&self, row: &[u64]) -> Result<(), RtlError> {
        if row.len() != self.inputs.len() {
            return Err(RtlError::PortCountMismatch {
                expected: self.inputs.len(),
                got: row.len(),
            });
        }
        match row
            .iter()
            .zip(&self.in_masks)
            .position(|(w, m)| w & !m != 0)
        {
            None => Ok(()),
            Some(port) => Err(RtlError::WidthMismatch {
                expected: self.inputs[port].width(),
                got: 64 - row[port].leading_zeros() as usize,
            }),
        }
    }
}

/// One lane's DUT and the outputs of its latest edge.
struct LaneDut {
    dut: Box<dyn CycleDut>,
    outputs: Box<[u64]>,
}

/// Up to [`LANES`] replicated behavioural [`CycleDut`] instances that
/// declare identical ports.
///
/// The bank keeps no input pins: [`Lane::clock_edge`] takes the lane's
/// input row for that edge only.
/// Each lane keeps one `u64` per output port: what its DUT wrote on its
/// last edge, truncated to the declared port widths. Every output powers
/// on as `0`.
pub struct LaneBank {
    ports: Ports,
    lanes: Vec<LaneDut>,
}

impl fmt::Debug for LaneBank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LaneBank")
            .field("lanes", &self.lanes.len())
            .field("in_ports", &self.ports.inputs)
            .field("out_ports", &self.ports.outputs)
            .finish_non_exhaustive()
    }
}

impl LaneBank {
    /// Builds a bank from one DUT instance per lane. All instances must
    /// declare identical port lists. Instances are taken as configured —
    /// they are *not* reset, matching [`crate::cycle::CycleSim::new`], so
    /// pre-installed state (routing tables, …) survives banking. Panics on
    /// an empty bank, more than [`LANES`] instances, or mismatched ports.
    #[must_use]
    pub fn new(duts: Vec<Box<dyn CycleDut>>) -> Self {
        assert!(!duts.is_empty(), "lane bank needs at least one DUT");
        assert!(duts.len() <= LANES, "at most {LANES} lanes");
        let inputs = duts[0].input_ports();
        let outputs = duts[0].output_ports();
        for d in &duts[1..] {
            assert!(
                d.input_ports() == inputs && d.output_ports() == outputs,
                "lane bank DUTs must declare identical ports"
            );
        }
        let lanes = duts
            .into_iter()
            .map(|dut| LaneDut {
                dut,
                outputs: vec![0; outputs.len()].into_boxed_slice(),
            })
            .collect();
        LaneBank {
            ports: Ports {
                in_masks: inputs.iter().map(PortDecl::mask).collect(),
                out_masks: outputs.iter().map(PortDecl::mask).collect(),
                inputs,
                outputs,
            },
            lanes,
        }
    }

    /// Number of lanes (DUT instances).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Declared input ports (identical across lanes).
    #[must_use]
    pub fn input_ports(&self) -> &[PortDecl] {
        &self.ports.inputs
    }

    /// Declared output ports (identical across lanes).
    #[must_use]
    pub fn output_ports(&self) -> &[PortDecl] {
        &self.ports.outputs
    }

    /// Lane `lane`'s output row after its latest clock edge, one word per
    /// output port.
    #[must_use]
    pub fn outputs(&self, lane: usize) -> &[u64] {
        &self.lanes[lane].outputs
    }

    /// Checks an input row for [`Lane::clock_edge`].
    ///
    /// # Errors
    ///
    /// [`RtlError::PortCountMismatch`] unless `row` holds one word per
    /// input port, [`RtlError::WidthMismatch`] for the first word that
    /// exceeds its port's width.
    pub fn check_row(&self, row: &[u64]) -> Result<(), RtlError> {
        self.ports.check(row)
    }

    /// One handle per lane, in lane order. Handles borrow disjoint lanes,
    /// so they can be clocked independently, on different threads too.
    pub fn lanes_mut(&mut self) -> impl ExactSizeIterator<Item = Lane<'_>> {
        let ports = &self.ports;
        self.lanes.iter_mut().map(move |lane| Lane {
            ports,
            dut: lane.dut.as_mut(),
            outputs: &mut lane.outputs,
        })
    }
}

/// One lane of a [`LaneBank`]: its DUT and output row, clocked on its own.
pub struct Lane<'a> {
    ports: &'a Ports,
    dut: &'a mut dyn CycleDut,
    outputs: &'a mut [u64],
}

impl fmt::Debug for Lane<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lane")
            .field("outputs", &self.outputs)
            .finish_non_exhaustive()
    }
}

impl Lane<'_> {
    /// One clock edge: the lane's DUT samples `row` (one word per input
    /// port) and writes straight into the lane's output row, which is then
    /// masked to the declared port widths in place.
    ///
    /// The row is not checked (debug builds assert that it fits): a row
    /// that does not fit by construction needs [`LaneBank::check_row`].
    // `inline` here and on `outputs` and `is_idle`: the cycle follower in
    // another crate calls all three on every clock, and without it the
    // serial one-lane E1 coupling ran ~5% slower on a 2-vCPU host.
    #[inline]
    pub fn clock_edge(&mut self, row: &[u64]) {
        debug_assert_eq!(self.ports.check(row), Ok(()));
        self.dut.clock_edge(row, self.outputs);
        for (pin, mask) in self.outputs.iter_mut().zip(&self.ports.out_masks) {
            *pin &= mask;
        }
    }

    /// The lane's output row after its latest clock edge.
    #[must_use]
    #[inline]
    pub fn outputs(&self) -> &[u64] {
        self.outputs
    }

    /// `true` when the lane's DUT reports idle: with inert inputs, its
    /// clocks may be skipped.
    #[must_use]
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.dut.is_idle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::CycleSim;

    /// A tiny behavioral DUT for the lane-bank tests: one-cycle-delayed
    /// accumulator of a 4-bit input.
    #[derive(Debug, Default)]
    struct Accum {
        total: u64,
    }
    impl CycleDut for Accum {
        fn input_ports(&self) -> Vec<PortDecl> {
            vec![PortDecl::new("din", 4)]
        }
        fn output_ports(&self) -> Vec<PortDecl> {
            vec![PortDecl::new("sum", 16)]
        }
        fn reset(&mut self) {
            self.total = 0;
        }
        fn clock_edge(&mut self, inputs: &[u64], outputs: &mut [u64]) {
            self.total = (self.total + inputs[0]) & 0xFFFF;
            outputs[0] = self.total;
        }
        fn is_idle(&self) -> bool {
            true
        }
    }

    fn bank(lanes: usize) -> LaneBank {
        LaneBank::new(
            (0..lanes)
                .map(|_| Box::new(Accum::default()) as _)
                .collect(),
        )
    }

    #[test]
    fn lane_bank_keeps_lanes_independent() {
        let mut bank = bank(8);
        assert_eq!(bank.lanes(), 8);
        assert_eq!(bank.lanes_mut().len(), 8);
        // Lane `k` adds `k + 1` per edge and is clocked `k` times.
        for (k, mut lane) in bank.lanes_mut().enumerate() {
            assert!(lane.is_idle());
            for _ in 0..k {
                lane.clock_edge(&[k as u64 + 1]);
            }
            assert_eq!(lane.outputs(), [(k * (k + 1)) as u64]);
        }
        for k in 0..8 {
            assert_eq!(bank.outputs(k), [(k * (k + 1)) as u64], "lane {k}");
        }
    }

    #[test]
    fn rows_are_checked_before_the_dut_is_clocked() {
        let bank = bank(8);
        // A fifth bit on the bank's one input port, 4 bits wide.
        let wide = [0x10];
        let width = RtlError::WidthMismatch {
            expected: 4,
            got: 5,
        };
        assert_eq!(bank.check_row(&wide), Err(width.clone()));
        assert_eq!(bank.check_row(&[0xF]), Ok(()));
        assert_eq!(
            bank.check_row(&[0xF, 0]),
            Err(RtlError::PortCountMismatch {
                expected: 1,
                got: 2
            })
        );
        // `CycleSim::step` checks the row first: a failed step leaves the
        // DUT unclocked, so the next sum is the next row alone.
        let mut sim = CycleSim::new(Box::new(Accum::default()));
        assert_eq!(sim.step(&wide).unwrap_err(), width);
        assert_eq!(sim.cycles(), 0);
        assert_eq!(sim.step(&[0xF]).unwrap(), [0xF]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "WidthMismatch")]
    fn an_unchecked_row_that_does_not_fit_fails_in_debug_builds() {
        bank(1).lanes_mut().next().unwrap().clock_edge(&[0x10]);
    }

    #[test]
    #[should_panic(expected = "identical ports")]
    fn lane_bank_rejects_mismatched_ports() {
        #[derive(Debug)]
        struct Other;
        impl CycleDut for Other {
            fn input_ports(&self) -> Vec<PortDecl> {
                vec![PortDecl::new("x", 2)]
            }
            fn output_ports(&self) -> Vec<PortDecl> {
                vec![PortDecl::new("y", 2)]
            }
            fn reset(&mut self) {}
            fn clock_edge(&mut self, _inputs: &[u64], outputs: &mut [u64]) {
                outputs[0] = 0;
            }
        }
        let _ = LaneBank::new(vec![Box::new(Accum::default()), Box::new(Other)]);
    }
}
