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

use crate::cycle::{CycleDut, PortDecl};
use crate::error::RtlError;
use std::fmt;

/// Maximum number of scenario lanes in one [`LaneBank`].
pub const LANES: usize = 64;

/// The width check run on every row a lane clocks: `Err` names the first
/// port whose word has a bit above its mask. A row that fits costs one
/// branch-free OR over its words and one test.
#[inline]
fn check_widths(words: &[u64], masks: &[u64]) -> Result<(), usize> {
    if words
        .iter()
        .zip(masks)
        .fold(0, |acc, (w, m)| acc | (w & !m))
        == 0
    {
        return Ok(());
    }
    Err(first_over_width(words, masks))
}

#[cold]
fn first_over_width(words: &[u64], masks: &[u64]) -> usize {
    words
        .iter()
        .zip(masks)
        .position(|(w, m)| w & !m != 0)
        .expect("an over-width word")
}

/// The port lists every lane declares, with their width masks.
#[derive(Debug)]
struct Ports {
    inputs: Vec<PortDecl>,
    outputs: Vec<PortDecl>,
    /// Width masks of the input and output ports, index-aligned.
    in_masks: Vec<u64>,
    out_masks: Vec<u64>,
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
    /// # Errors
    ///
    /// [`RtlError::PortCountMismatch`] unless `row` holds one word per
    /// input port, [`RtlError::WidthMismatch`] for the first word that
    /// exceeds its port's width. Either way the DUT is not clocked.
    // `inline` here and on `outputs` and `is_idle`: the cycle follower in
    // another crate calls all three on every clock, and without it the
    // serial one-lane E1 coupling ran ~5% slower on a 2-vCPU host.
    #[inline]
    pub fn clock_edge(&mut self, row: &[u64]) -> Result<(), RtlError> {
        let ports = self.ports;
        if row.len() != ports.inputs.len() {
            return Err(RtlError::PortCountMismatch {
                expected: ports.inputs.len(),
                got: row.len(),
            });
        }
        if let Err(port) = check_widths(row, &ports.in_masks) {
            return Err(RtlError::WidthMismatch {
                expected: ports.inputs[port].width,
                got: 64 - row[port].leading_zeros() as usize,
            });
        }
        self.dut.clock_edge(row, self.outputs);
        for (pin, mask) in self.outputs.iter_mut().zip(&ports.out_masks) {
            *pin &= mask;
        }
        Ok(())
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
                lane.clock_edge(&[k as u64 + 1]).unwrap();
            }
            assert_eq!(lane.outputs(), [(k * (k + 1)) as u64]);
        }
        for k in 0..8 {
            assert_eq!(bank.outputs(k), [(k * (k + 1)) as u64], "lane {k}");
        }
    }

    #[test]
    fn lane_bank_checks_widths_on_every_lane() {
        let mut bank = bank(8);
        // Every lane but 5 fits; lane 5 drives a fifth bit on its 4-bit
        // pin, the bank's one input port, and is not clocked.
        let edges: Vec<_> = bank
            .lanes_mut()
            .enumerate()
            .map(|(k, mut lane)| lane.clock_edge(&[if k == 5 { 0x10 } else { 0xF }]))
            .collect();
        for (k, edge) in edges.into_iter().enumerate() {
            if k == 5 {
                assert_eq!(
                    edge,
                    Err(RtlError::WidthMismatch {
                        expected: 4,
                        got: 5
                    })
                );
                assert_eq!(bank.outputs(k), [0]);
            } else {
                assert_eq!(edge, Ok(()), "lane {k}");
                assert_eq!(bank.outputs(k), [0xF]);
            }
        }
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
