//! Lane batching for behavioural DUTs: up to [`LANES`] replicated
//! [`CycleDut`] instances stepped together as one [`LaneBank`].
//!
//! Each lane is an independent scenario instance of the same design. On
//! each clock edge the caller hands the bank one input row per lane, and
//! every lane's DUT samples its row in place, so the coupling layer
//! (`CompiledCosim` in `castanet-core`) can drive N seeds through N
//! instances with one idle test and one clock loop.

use crate::cycle::{check_widths, CycleDut, PortDecl};
use std::fmt;

/// Maximum number of scenario lanes in one [`LaneBank`].
pub const LANES: usize = 64;

/// Up to [`LANES`] replicated behavioural [`CycleDut`] instances behind
/// one per-lane output store.
///
/// The bank keeps no input pins: like [`crate::cycle::CycleSim::step`],
/// [`LaneBank::clock_edge`] takes each lane's input row for that edge
/// only. Outputs are kept lane-major, one `u64` per port: lane `k`'s row
/// is what its DUT wrote on the last edge, truncated to the declared port
/// widths. Every output powers on as `0`.
pub struct LaneBank {
    duts: Vec<Box<dyn CycleDut>>,
    in_ports: Vec<PortDecl>,
    out_ports: Vec<PortDecl>,
    /// Width masks of the input and output ports, index-aligned.
    in_masks: Vec<u64>,
    out_masks: Vec<u64>,
    /// `outputs[lane * out_ports.len() + port]`.
    outputs: Vec<u64>,
    cycles: u64,
}

impl fmt::Debug for LaneBank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LaneBank")
            .field("lanes", &self.duts.len())
            .field("in_ports", &self.in_ports)
            .field("out_ports", &self.out_ports)
            .field("cycles", &self.cycles)
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
        let in_ports = duts[0].input_ports();
        let out_ports = duts[0].output_ports();
        for d in &duts[1..] {
            assert!(
                d.input_ports() == in_ports && d.output_ports() == out_ports,
                "lane bank DUTs must declare identical ports"
            );
        }
        let lanes = duts.len();
        LaneBank {
            outputs: vec![0; lanes * out_ports.len()],
            in_masks: in_ports.iter().map(PortDecl::mask).collect(),
            out_masks: out_ports.iter().map(PortDecl::mask).collect(),
            duts,
            in_ports,
            out_ports,
            cycles: 0,
        }
    }

    /// Number of lanes (DUT instances).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.duts.len()
    }

    /// Declared input ports (identical across lanes).
    #[must_use]
    pub fn input_ports(&self) -> &[PortDecl] {
        &self.in_ports
    }

    /// Declared output ports (identical across lanes).
    #[must_use]
    pub fn output_ports(&self) -> &[PortDecl] {
        &self.out_ports
    }

    /// Clock edges executed.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Lane `lane`'s DUT instance.
    #[must_use]
    pub fn dut(&self, lane: usize) -> &dyn CycleDut {
        self.duts[lane].as_ref()
    }

    /// Mutable access to lane `lane`'s DUT instance.
    pub fn dut_mut(&mut self, lane: usize) -> &mut dyn CycleDut {
        self.duts[lane].as_mut()
    }

    /// `true` when every lane's DUT reports idle — the bank-wide
    /// gated-clock park condition.
    #[must_use]
    pub fn idle(&self) -> bool {
        self.duts.iter().all(|d| d.is_idle())
    }

    /// Lane `lane`'s output row after the latest clock edge, one word per
    /// output port.
    #[must_use]
    pub fn outputs(&self, lane: usize) -> &[u64] {
        let n_out = self.out_ports.len();
        &self.outputs[lane * n_out..(lane + 1) * n_out]
    }

    /// One clock edge on every lane: lane `k`'s DUT samples the `k`-th of
    /// `rows` (one word per input port) and writes straight into its own
    /// output row, which is then masked to the declared port widths in
    /// place.
    ///
    /// # Panics
    ///
    /// Panics unless `rows` holds exactly one row per lane, each with one
    /// word per input port, and every word fits its port's width.
    pub fn clock_edge<'a>(&mut self, rows: impl IntoIterator<Item = &'a [u64]>) {
        let (n_in, n_out) = (self.in_ports.len(), self.out_ports.len());
        let mut rows = rows.into_iter();
        for (lane, dut) in self.duts.iter_mut().enumerate() {
            let row = rows.next().expect("one input row per lane");
            assert_eq!(row.len(), n_in, "input port count");
            if let Err(port) = check_widths(row, &self.in_masks) {
                panic!("value exceeds {} bits", self.in_ports[port].width);
            }
            let pins = &mut self.outputs[lane * n_out..(lane + 1) * n_out];
            dut.clock_edge(row, pins);
            for (pin, mask) in pins.iter_mut().zip(&self.out_masks) {
                *pin &= mask;
            }
        }
        assert!(rows.next().is_none(), "one input row per lane");
        self.cycles += 1;
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

    #[test]
    fn lane_bank_keeps_lanes_independent() {
        let duts: Vec<Box<dyn CycleDut>> =
            (0..8).map(|_| Box::new(Accum::default()) as _).collect();
        let mut bank = LaneBank::new(duts);
        assert_eq!(bank.lanes(), 8);
        assert!(bank.idle());
        let rows: Vec<[u64; 1]> = (1..=8).map(|k| [k]).collect();
        for clockno in 1..=3u64 {
            bank.clock_edge(rows.iter().map(|r| &r[..]));
            for lane in 0..8u64 {
                assert_eq!(bank.outputs(lane as usize), [clockno * (lane + 1)]);
            }
        }
        assert_eq!(bank.cycles(), 3);
    }

    #[test]
    #[should_panic(expected = "value exceeds 4 bits")]
    fn lane_bank_checks_widths_on_every_lane() {
        let duts: Vec<Box<dyn CycleDut>> =
            (0..8).map(|_| Box::new(Accum::default()) as _).collect();
        let mut bank = LaneBank::new(duts);
        // Lanes 0..5 fit; lane 5 drives a fifth bit on its 4-bit pin.
        let rows: Vec<[u64; 1]> = (0..8).map(|k| [if k == 5 { 0x10 } else { 0xF }]).collect();
        bank.clock_edge(rows.iter().map(|r| &r[..]));
    }

    #[test]
    #[should_panic(expected = "one input row per lane")]
    fn lane_bank_wants_a_row_for_every_lane() {
        let mut bank = LaneBank::new(vec![Box::new(Accum::default()), Box::new(Accum::default())]);
        bank.clock_edge([&[1u64][..]]);
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
