//! The hardware device under test behind the board's pins.
//!
//! The paper hooks a *physical prototype chip* to the board. No silicon is
//! available here, so the prototype is simulated: anything implementing
//! [`HardwareDut`] presents the chip's pin-level behaviour, one board clock
//! at a time. Two adapters matter:
//!
//! * [`MappedCycleDut`] places any [`castanet_rtl::cycle::CycleDut`] (e.g.
//!   the ATM switch or accounting unit) behind a pin-map configuration, so
//!   the *same* design that ran in the HDL simulator runs "on the board" —
//!   which is the whole point of functional chip verification;
//! * [`TimingFaultDut`] wraps a DUT with a maximum clock frequency and
//!   corrupts outputs (deterministically) above it — modelling the timing
//!   violations that "are not likely to be detected" unless "one runs the
//!   hardware at the targeted speed" (§3.3), the paper's motivation for
//!   real-time verification.

use crate::lane::LANES;
use crate::pinmap::{decode_segments, encode_segments, PinFrame, PinMapConfig};
use castanet_rtl::cycle::CycleDut;

/// A pin-level hardware model: the simulated prototype chip.
pub trait HardwareDut: Send {
    /// Power-on reset.
    fn reset(&mut self);

    /// One board clock: sample the driven pins, return the chip's output
    /// pins.
    fn clock(&mut self, pins_in: &PinFrame) -> PinFrame;

    /// The highest clock frequency the (modelled) silicon meets timing at.
    /// `None` means no limit is modelled.
    fn max_clock_hz(&self) -> Option<u64> {
        None
    }
}

/// Adapts a [`CycleDut`] to the board's pin interface through a pin map:
/// board-driven pins are decoded into the DUT's input ports (by declared
/// port order against ascending inport numbers), and the DUT's outputs are
/// encoded onto the sampled pins (ascending outport numbers).
pub struct MappedCycleDut {
    dut: Box<dyn CycleDut>,
    map: PinMapConfig,
    /// Indices into `map.inports` / `map.outports` in ascending port
    /// number order, so a clock walks the ports without a lookup.
    in_order: Vec<usize>,
    out_order: Vec<usize>,
    /// Reused per-clock port words, sized from the DUT's port lists.
    in_words: Vec<u64>,
    out_words: Vec<u64>,
}

impl std::fmt::Debug for MappedCycleDut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedCycleDut")
            .field("inports", &self.in_order.len())
            .field("outports", &self.out_order.len())
            .finish()
    }
}

impl MappedCycleDut {
    /// Pairs `dut` with a pin map. The map must declare exactly one inport
    /// per DUT input port and one outport per DUT output port; ports pair
    /// up in ascending port-number order.
    ///
    /// # Panics
    ///
    /// Panics when the port counts disagree.
    #[must_use]
    pub fn new(dut: Box<dyn CycleDut>, map: PinMapConfig) -> Self {
        let mut in_order: Vec<usize> = (0..map.inports.len()).collect();
        in_order.sort_by_key(|&i| map.inports[i].number);
        let mut out_order: Vec<usize> = (0..map.outports.len()).collect();
        out_order.sort_by_key(|&i| map.outports[i].number);
        assert_eq!(
            in_order.len(),
            dut.input_ports().len(),
            "pin map must declare one inport per dut input"
        );
        assert_eq!(
            out_order.len(),
            dut.output_ports().len(),
            "pin map must declare one outport per dut output"
        );
        MappedCycleDut {
            dut,
            map,
            in_words: vec![0; in_order.len()],
            out_words: vec![0; out_order.len()],
            in_order,
            out_order,
        }
    }

    /// Generates a canonical pin map for `dut`: input ports packed onto
    /// driving lanes from lane 0 upward, output ports onto sampling lanes
    /// from lane 15 downward, each port on whole-lane boundaries.
    ///
    /// # Panics
    ///
    /// Panics when the DUT's ports do not fit 128 pins.
    #[must_use]
    pub fn auto_mapped(dut: Box<dyn CycleDut>) -> (Self, [crate::lane::LaneConfig; LANES]) {
        use crate::lane::LaneConfig;
        use crate::pinmap::{InportMapping, OutportMapping, PinSegment};
        let mut lanes = [LaneConfig::drive(); LANES];
        let mut map = PinMapConfig::default();

        // A `width`-bit port on whole lanes from `first` up, MSB first.
        let whole_lanes = |first: usize, width: usize| -> Vec<PinSegment> {
            let bits = |k: usize| (width - 8 * k).min(8);
            (0..width.div_ceil(8))
                .map(|k| PinSegment::new(first + k, 7, bits(k)))
                .collect()
        };
        let mut lane_cursor = 0usize;
        for (i, p) in dut.input_ports().iter().enumerate() {
            let segments = whole_lanes(lane_cursor, p.width());
            lane_cursor += segments.len();
            map.inports.push(InportMapping {
                number: i,
                width: p.width(),
                segments,
            });
        }
        let mut top_cursor = LANES;
        for (i, p) in dut.output_ports().iter().enumerate() {
            let lanes_needed = p.width().div_ceil(8);
            assert!(
                top_cursor >= lanes_needed && top_cursor - lanes_needed >= lane_cursor,
                "dut ports exceed the board's 128 pins"
            );
            top_cursor -= lanes_needed;
            lanes[top_cursor..top_cursor + lanes_needed].fill(LaneConfig::sample());
            map.outports.push(OutportMapping {
                number: i,
                width: p.width(),
                segments: whole_lanes(top_cursor, p.width()),
            });
        }
        (Self::new(dut, map), lanes)
    }

    /// The pin map in use.
    #[must_use]
    pub fn map(&self) -> &PinMapConfig {
        &self.map
    }
}

impl HardwareDut for MappedCycleDut {
    fn reset(&mut self) {
        self.dut.reset();
    }

    fn clock(&mut self, pins_in: &PinFrame) -> PinFrame {
        for (word, &i) in self.in_words.iter_mut().zip(&self.in_order) {
            *word = decode_segments(&self.map.inports[i].segments, pins_in);
        }
        self.dut.clock_edge(&self.in_words, &mut self.out_words);
        let mut frame: PinFrame = [0; LANES];
        for (&i, &value) in self.out_order.iter().zip(&self.out_words) {
            let port = &self.map.outports[i];
            encode_segments(&port.segments, port.width, value, &mut frame);
        }
        frame
    }
}

/// Exposes only a subset of a [`CycleDut`]'s ports — the way a fabbed chip
/// exposes its data path on pins while configuration interfaces stay
/// internal (set up before the part goes on the board). Hidden inputs are
/// tied to constants; hidden outputs are dropped.
pub struct PortSubsetDut {
    inner: Box<dyn CycleDut>,
    keep_in: Vec<usize>,
    keep_out: Vec<usize>,
    /// The inner DUT's full input words: hidden ports hold their tied
    /// constants, kept ports are overwritten on every edge.
    tied: Vec<u64>,
    /// The inner DUT's full output words, reused across edges.
    inner_out: Vec<u64>,
}

impl std::fmt::Debug for PortSubsetDut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortSubsetDut")
            .field("kept_inputs", &self.keep_in.len())
            .field("kept_outputs", &self.keep_out.len())
            .finish()
    }
}

impl PortSubsetDut {
    /// Keeps input ports `keep_in` and output ports `keep_out` (indices
    /// into the inner DUT's declarations); all other inputs are tied to 0.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of range.
    #[must_use]
    pub fn new(inner: Box<dyn CycleDut>, keep_in: Vec<usize>, keep_out: Vec<usize>) -> Self {
        let n_in = inner.input_ports().len();
        let n_out = inner.output_ports().len();
        assert!(keep_in.iter().all(|&i| i < n_in), "kept input out of range");
        assert!(
            keep_out.iter().all(|&o| o < n_out),
            "kept output out of range"
        );
        PortSubsetDut {
            inner,
            keep_in,
            keep_out,
            tied: vec![0; n_in],
            inner_out: vec![0; n_out],
        }
    }

    /// Ties a hidden input port to a constant value.
    ///
    /// # Panics
    ///
    /// Panics when `port` is out of range.
    pub fn tie(&mut self, port: usize, value: u64) {
        assert!(port < self.tied.len(), "tied port out of range");
        self.tied[port] = value;
    }
}

impl CycleDut for PortSubsetDut {
    fn input_ports(&self) -> Vec<castanet_rtl::cycle::PortDecl> {
        let decls = self.inner.input_ports();
        self.keep_in.iter().map(|&i| decls[i].clone()).collect()
    }

    fn output_ports(&self) -> Vec<castanet_rtl::cycle::PortDecl> {
        let decls = self.inner.output_ports();
        self.keep_out.iter().map(|&o| decls[o].clone()).collect()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn clock_edge(&mut self, inputs: &[u64], outputs: &mut [u64]) {
        for (&slot, &value) in self.keep_in.iter().zip(inputs) {
            self.tied[slot] = value;
        }
        self.inner.clock_edge(&self.tied, &mut self.inner_out);
        for (word, &o) in outputs.iter_mut().zip(&self.keep_out) {
            *word = self.inner_out[o];
        }
    }
}

/// Wraps a DUT with a maximum-frequency constraint: clocked faster than
/// `max_hz`, outputs are corrupted deterministically (a pseudo-random pin
/// flip per clock) — the silicon's setup-time failures made visible.
pub struct TimingFaultDut<D: HardwareDut> {
    inner: D,
    max_hz: u64,
    board_clock_hz: u64,
    lfsr: u32,
    faults_injected: u64,
}

impl<D: HardwareDut> std::fmt::Debug for TimingFaultDut<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingFaultDut")
            .field("max_hz", &self.max_hz)
            .field("board_clock_hz", &self.board_clock_hz)
            .field("faults_injected", &self.faults_injected)
            .finish()
    }
}

impl<D: HardwareDut> TimingFaultDut<D> {
    /// Wraps `inner`, declaring it meets timing up to `max_hz`. The board
    /// clock actually applied is set via
    /// [`TimingFaultDut::set_board_clock_hz`].
    #[must_use]
    pub fn new(inner: D, max_hz: u64) -> Self {
        TimingFaultDut {
            inner,
            max_hz,
            board_clock_hz: 0,
            lfsr: 0xACE1_u32,
            faults_injected: 0,
        }
    }

    /// Informs the model of the applied board clock. Neither the board nor
    /// a test session does this: whoever configures the board's clock
    /// sets it here too.
    pub fn set_board_clock_hz(&mut self, hz: u64) {
        self.board_clock_hz = hz;
    }

    /// Faults injected so far.
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    fn next_lfsr(&mut self) -> u32 {
        // 16-bit Fibonacci LFSR, taps 16,14,13,11.
        let bit = (self.lfsr ^ (self.lfsr >> 2) ^ (self.lfsr >> 3) ^ (self.lfsr >> 5)) & 1;
        self.lfsr = (self.lfsr >> 1) | (bit << 15);
        self.lfsr
    }
}

impl<D: HardwareDut> HardwareDut for TimingFaultDut<D> {
    fn reset(&mut self) {
        self.inner.reset();
        self.lfsr = 0xACE1;
        self.faults_injected = 0;
    }

    fn clock(&mut self, pins_in: &PinFrame) -> PinFrame {
        let mut out = self.inner.clock(pins_in);
        if self.board_clock_hz > self.max_hz {
            // Fault probability grows with overclock severity: flip a pin
            // on roughly (1 - max/actual) of the clocks.
            let r = self.next_lfsr() & 0xFFFF;
            let threshold =
                ((1.0 - self.max_hz as f64 / self.board_clock_hz as f64) * 65536.0) as u32;
            if r < threshold {
                let pin = (self.next_lfsr() as usize) % (LANES * 8);
                out[pin / 8] ^= 1 << (pin % 8);
                self.faults_injected += 1;
            }
        }
        out
    }

    fn max_clock_hz(&self) -> Option<u64> {
        Some(self.max_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use castanet_rtl::cycle::PortDecl;

    /// Pass-through chip: output = input + 1.
    struct IncChip;
    impl CycleDut for IncChip {
        fn input_ports(&self) -> Vec<PortDecl> {
            vec![PortDecl::new("x", 8)]
        }
        fn output_ports(&self) -> Vec<PortDecl> {
            vec![PortDecl::new("y", 8)]
        }
        fn reset(&mut self) {}
        fn clock_edge(&mut self, inputs: &[u64], outputs: &mut [u64]) {
            outputs[0] = (inputs[0] + 1) & 0xFF;
        }
    }

    #[test]
    fn auto_mapping_roundtrips_values() {
        let (mut mapped, lanes) = MappedCycleDut::auto_mapped(Box::new(IncChip));
        mapped.map().validate(&lanes).unwrap();
        let mut frame: PinFrame = [0; LANES];
        mapped.map().encode_inport(0, 41, &mut frame).unwrap();
        let out = mapped.clock(&frame);
        assert_eq!(mapped.map().decode_outport(0, &out).unwrap(), 42);
    }

    #[test]
    fn auto_mapping_places_outputs_on_sampling_lanes() {
        let (mapped, lanes) = MappedCycleDut::auto_mapped(Box::new(IncChip));
        for p in &mapped.map().outports {
            for seg in &p.segments {
                assert_eq!(
                    lanes[seg.lane].direction,
                    crate::lane::LaneDirection::Sample
                );
            }
        }
        for p in &mapped.map().inports {
            for seg in &p.segments {
                assert_eq!(lanes[seg.lane].direction, crate::lane::LaneDirection::Drive);
            }
        }
    }

    #[test]
    fn wide_ports_span_multiple_lanes() {
        struct WideChip;
        impl CycleDut for WideChip {
            fn input_ports(&self) -> Vec<PortDecl> {
                vec![PortDecl::new("a", 20)]
            }
            fn output_ports(&self) -> Vec<PortDecl> {
                vec![PortDecl::new("b", 20)]
            }
            fn reset(&mut self) {}
            fn clock_edge(&mut self, inputs: &[u64], outputs: &mut [u64]) {
                outputs[0] = inputs[0];
            }
        }
        let (mut mapped, lanes) = MappedCycleDut::auto_mapped(Box::new(WideChip));
        mapped.map().validate(&lanes).unwrap();
        let mut frame: PinFrame = [0; LANES];
        mapped.map().encode_inport(0, 0xABCDE, &mut frame).unwrap();
        let out = mapped.clock(&frame);
        assert_eq!(mapped.map().decode_outport(0, &out).unwrap(), 0xABCDE);
    }

    #[test]
    fn timing_fault_dut_clean_within_spec() {
        let (mapped, _) = MappedCycleDut::auto_mapped(Box::new(IncChip));
        let mut dut = TimingFaultDut::new(mapped, 20_000_000);
        dut.set_board_clock_hz(10_000_000);
        let frame: PinFrame = [0; LANES];
        for _ in 0..1000 {
            dut.clock(&frame);
        }
        assert_eq!(dut.faults_injected(), 0);
        assert_eq!(dut.max_clock_hz(), Some(20_000_000));
    }

    #[test]
    fn timing_fault_dut_corrupts_when_overclocked() {
        let (mapped, _) = MappedCycleDut::auto_mapped(Box::new(IncChip));
        let mut dut = TimingFaultDut::new(mapped, 10_000_000);
        dut.set_board_clock_hz(20_000_000);
        let frame: PinFrame = [0; LANES];
        for _ in 0..1000 {
            dut.clock(&frame);
        }
        assert!(
            dut.faults_injected() > 200,
            "2x overclock should fault often, got {}",
            dut.faults_injected()
        );
        // Reset clears fault accounting.
        dut.reset();
        assert_eq!(dut.faults_injected(), 0);
    }

    #[test]
    #[should_panic(expected = "one inport per dut input")]
    fn mismatched_map_rejected() {
        let map = PinMapConfig::default();
        let _ = MappedCycleDut::new(Box::new(IncChip), map);
    }
}
