//! Lane batching for behavioural DUTs: up to [`LANES`] replicated
//! [`CycleDut`] instances stepped together as one [`LaneBank`].
//!
//! Each lane is an independent scenario instance of the same design. The
//! bank holds one `u64` per lane per pin and steps every lane's DUT on
//! each clock edge, so the coupling layer (`CompiledCosim` in
//! `castanet-core`) can drive N seeds through N instances with one idle
//! test and one clock loop.

use crate::cycle::{CycleDut, PortDecl};
use std::fmt;

/// Maximum number of scenario lanes in one [`LaneBank`].
pub const LANES: usize = 64;

/// Up to [`LANES`] replicated behavioural [`CycleDut`] instances behind
/// one per-lane pin store.
///
/// Pin values are kept lane-major, one `u64` per port: lane `k`'s inputs
/// are exactly what its DUT samples on the next edge, and its outputs are
/// what that DUT returned on the last one, truncated to the declared port
/// width. Every pin powers on as `0`.
pub struct LaneBank {
    duts: Vec<Box<dyn CycleDut>>,
    in_ports: Vec<PortDecl>,
    out_ports: Vec<PortDecl>,
    /// `inputs[lane * in_ports.len() + port]`.
    inputs: Vec<u64>,
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
            inputs: vec![0; lanes * in_ports.len()],
            outputs: vec![0; lanes * out_ports.len()],
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

    /// Drives input port `port` of lane `lane` with `value`.
    pub fn set_input(&mut self, lane: usize, port: usize, value: u64) {
        assert!(lane < self.duts.len(), "lane out of range");
        let decl = &self.in_ports[port];
        assert_eq!(value & !decl.mask(), 0, "value exceeds {} bits", decl.width);
        self.inputs[lane * self.in_ports.len() + port] = value;
    }

    /// Drives every input port of lane `lane` from `values`.
    pub fn set_inputs(&mut self, lane: usize, values: &[u64]) {
        assert_eq!(values.len(), self.in_ports.len(), "input port count");
        for (port, &v) in values.iter().enumerate() {
            self.set_input(lane, port, v);
        }
    }

    /// The value driven on input port `port` of lane `lane`.
    #[must_use]
    pub fn input(&self, lane: usize, port: usize) -> u64 {
        assert!(port < self.in_ports.len(), "input port out of range");
        self.inputs[lane * self.in_ports.len() + port]
    }

    /// Output port `port` of lane `lane` after the latest clock edge.
    #[must_use]
    pub fn output(&self, lane: usize, port: usize) -> u64 {
        assert!(port < self.out_ports.len(), "output port out of range");
        self.outputs[lane * self.out_ports.len() + port]
    }

    /// One clock edge on every lane: step each lane's DUT on its input
    /// pins and store what it drives out.
    pub fn clock_edge(&mut self) {
        let (n_in, n_out) = (self.in_ports.len(), self.out_ports.len());
        for (lane, dut) in self.duts.iter_mut().enumerate() {
            let driven = dut.clock_edge(&self.inputs[lane * n_in..(lane + 1) * n_in]);
            let pins = &mut self.outputs[lane * n_out..(lane + 1) * n_out];
            for (port, &value) in driven.iter().enumerate() {
                pins[port] = value & self.out_ports[port].mask();
            }
        }
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
        fn clock_edge(&mut self, inputs: &[u64]) -> Vec<u64> {
            self.total = (self.total + inputs[0]) & 0xFFFF;
            vec![self.total]
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
        for clockno in 1..=3u64 {
            for lane in 0..8 {
                bank.set_input(lane, 0, lane as u64 + 1);
            }
            bank.clock_edge();
            for lane in 0..8u64 {
                assert_eq!(bank.output(lane as usize, 0), clockno * (lane + 1));
            }
        }
        assert_eq!(bank.cycles(), 3);
        // The driven inputs read back per lane.
        assert_eq!(bank.input(5, 0), 6);
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
            fn clock_edge(&mut self, _inputs: &[u64]) -> Vec<u64> {
                vec![0]
            }
        }
        let _ = LaneBank::new(vec![Box::new(Accum::default()), Box::new(Other)]);
    }
}
