//! The cycle-based simulation engine.
//!
//! The paper closes with: "the integration of cycle-based simulation
//! techniques is required, as well as the development of design
//! methodologies that make cycle-accurate modeling sufficient" (§5). This
//! module is that integration: DUTs written against the pin-level
//! [`CycleDut`] trait advance one *clock cycle* per call with no event
//! queue, no delta cycles and no signal transactions — and the same DUT can
//! be dropped into the event-driven kernel through
//! [`attach_cycle_dut`], which is how experiment E7 compares the two
//! engines on identical hardware.

use crate::compiled::LaneBank;
use crate::error::RtlError;
use crate::logic::Logic;
use crate::netlist::ProcessIo;
use crate::signal::SignalId;
use crate::sim::{RtlCtx, RtlProcess, Simulator};
use castanet_netsim::time::SimDuration;
use std::borrow::Cow;

/// Declaration of one pin-level port (≤ 64 bits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortDecl {
    /// Port name (used for signal naming when attached to the event-driven
    /// kernel). A `'static` name is borrowed, so declaring a port list
    /// from fixed names allocates only the list.
    pub name: Cow<'static, str>,
    /// Width in bits (1..=64).
    pub width: usize,
}

impl PortDecl {
    /// Creates a port declaration.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= width <= 64`.
    #[must_use]
    pub fn new(name: impl Into<Cow<'static, str>>, width: usize) -> Self {
        assert!((1..=64).contains(&width), "port width must be 1..=64");
        PortDecl {
            name: name.into(),
            width,
        }
    }

    /// Bit mask covering the port's width.
    #[must_use]
    pub fn mask(&self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }
}

/// A cycle-accurate, pin-level hardware model: state advances only on
/// rising clock edges. This is the contract shared by the cycle-based
/// engine, the event-driven wrapper and the hardware test board (whose
/// "prototype chip" is a `CycleDut` behind the pin interface).
pub trait CycleDut: Send {
    /// Input port declarations, in the order `clock_edge` reads them.
    fn input_ports(&self) -> Vec<PortDecl>;

    /// Output port declarations, in the order `clock_edge` writes them.
    fn output_ports(&self) -> Vec<PortDecl>;

    /// Returns all state to power-on values.
    fn reset(&mut self);

    /// Executes one rising clock edge: samples `inputs` (one word per input
    /// port) and writes the output pin values *after* the edge into
    /// `outputs` (one word per output port).
    ///
    /// The caller owns both slices and sizes them from the port lists, so
    /// an edge allocates nothing and a DUT cannot produce the wrong number
    /// of words. `outputs` holds unspecified values on entry: the DUT must
    /// write every word. Callers mask each word to its declared width.
    fn clock_edge(&mut self, inputs: &[u64], outputs: &mut [u64]);

    /// `true` when the DUT is quiescent: with all-zero inputs, further
    /// clocks provably change nothing observable. A cycle-based
    /// co-simulation may then *skip* clocks entirely — the idle-time
    /// optimization the paper's conclusion calls for. The default is
    /// conservative (`false`: never skip).
    fn is_idle(&self) -> bool {
        false
    }

    /// `true` when the sampled input words cannot start new work, i.e. a
    /// clock edge with these inputs on an [idle](CycleDut::is_idle) DUT is
    /// a provable no-op. The default only accepts the all-zero vector;
    /// DUTs whose data pins are don't-care while their enables are low
    /// should override this (data lines typically hold the last driven
    /// value between transfers).
    fn inputs_inert(&self, inputs: &[u64]) -> bool {
        inputs.iter().all(|&w| w == 0)
    }

    /// `true` when the output words just produced carry nothing a clocked
    /// observer still needs to sample. Observers read a DUT's outputs one
    /// edge *after* they were assigned, so a gated clock may only park on
    /// an edge whose outputs are inert — otherwise the final interesting
    /// value would be sampled late, at the restarted edge. The default
    /// only accepts the all-zero vector.
    fn outputs_inert(&self, outputs: &[u64]) -> bool {
        outputs.iter().all(|&w| w == 0)
    }
}

/// The cycle-based engine: drives a [`CycleDut`] one clock at a time,
/// validating port counts/widths and counting cycles. It is a one-lane
/// [`LaneBank`] plus a cycle counter: the bank holds the port lists, the
/// width masks and the output row the DUT writes into, so a step
/// allocates nothing.
///
/// # Examples
///
/// ```
/// use castanet_rtl::cycle::{CycleDut, CycleSim, PortDecl};
///
/// struct Doubler;
/// impl CycleDut for Doubler {
///     fn input_ports(&self) -> Vec<PortDecl> { vec![PortDecl::new("x", 8)] }
///     fn output_ports(&self) -> Vec<PortDecl> { vec![PortDecl::new("y", 8)] }
///     fn reset(&mut self) {}
///     fn clock_edge(&mut self, inputs: &[u64], outputs: &mut [u64]) {
///         outputs[0] = (inputs[0] * 2) & 0xFF;
///     }
/// }
///
/// let mut sim = CycleSim::new(Box::new(Doubler));
/// assert_eq!(sim.step(&[21])?, vec![42]);
/// assert_eq!(sim.cycles(), 1);
/// # Ok::<(), castanet_rtl::error::RtlError>(())
/// ```
pub struct CycleSim {
    bank: LaneBank,
    cycles: u64,
}

impl std::fmt::Debug for CycleSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CycleSim")
            .field("cycles", &self.cycles)
            .field("inputs", &self.input_ports().len())
            .field("outputs", &self.output_ports().len())
            .finish()
    }
}

impl CycleSim {
    /// Wraps a DUT as-is — deliberately without resetting it, so
    /// pre-loaded configuration (routing tables, tariffs) survives.
    #[must_use]
    pub fn new(dut: Box<dyn CycleDut>) -> Self {
        CycleSim {
            bank: LaneBank::new(vec![dut]),
            cycles: 0,
        }
    }

    /// Executes one clock edge and returns the output words after it,
    /// each masked to its port width.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::PortCountMismatch`] for a wrong input count or
    /// [`RtlError::WidthMismatch`] when a word exceeds its port width.
    pub fn step(&mut self, inputs: &[u64]) -> Result<&[u64], RtlError> {
        let mut lane = self.bank.lanes_mut().next().expect("one lane");
        lane.clock_edge(inputs)?;
        self.cycles += 1;
        Ok(self.bank.outputs(0))
    }

    /// Clock edges executed since construction.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Input port declarations.
    #[must_use]
    pub fn input_ports(&self) -> &[PortDecl] {
        self.bank.input_ports()
    }

    /// Output port declarations.
    #[must_use]
    pub fn output_ports(&self) -> &[PortDecl] {
        self.bank.output_ports()
    }
}

/// The signals created for an attached DUT: index-aligned with the DUT's
/// port declarations.
#[derive(Debug, Clone)]
pub struct AttachedDut {
    /// Input signals (drive these).
    pub inputs: Vec<SignalId>,
    /// Output signals (observe these).
    pub outputs: Vec<SignalId>,
    /// The clock the wrapper listens on.
    pub clk: SignalId,
}

struct CycleDutProcess {
    dut: Box<dyn CycleDut>,
    label: String,
    clk: SignalId,
    inputs: Vec<SignalId>,
    outputs: Vec<SignalId>,
    out_widths: Vec<usize>,
    /// Reused input-word buffer: one sample per clock edge, no
    /// per-edge allocation.
    in_words: Vec<u64>,
    /// Output words of this edge, written by the DUT.
    out_cur: Vec<u64>,
    /// Output words assigned on the previous edge: an unchanged word is
    /// not re-driven (a same-value drive produces no event, so skipping
    /// it is observationally identical and saves the resolution work).
    /// Swapped with `out_cur` after every edge.
    out_prev: Vec<u64>,
    /// `false` until the first edge has driven every output.
    driven: bool,
    /// Clock-gate request line (gated attachment only): driven `One` while
    /// the DUT needs clocking, `Zero` once it is provably quiescent.
    busy: Option<SignalId>,
    /// `false` once the wrapper has parked its clock; input activity
    /// re-arms it. The gated wrapper listens to its inputs only while
    /// parked: with the clock running, every input is sampled on the next
    /// rising edge anyway, so an input wake would be a no-op.
    armed: bool,
}

impl RtlProcess for CycleDutProcess {
    fn init(&mut self, ctx: &mut RtlCtx) {
        if let Some(busy) = self.busy {
            ctx.assign_bit(busy, Logic::One);
            ctx.set_any_sensitivity(false);
        }
    }

    fn run(&mut self, ctx: &mut RtlCtx) {
        if !ctx.rising(self.clk) {
            // Gated attachments listen to their inputs while parked: any
            // activity raises `busy`, which restarts the clock on its
            // original edge grid — so the wake-up is invisible to the
            // sampled-value semantics.
            if !self.armed && self.inputs.iter().any(|&s| ctx.event(s)) {
                self.armed = true;
                if let Some(busy) = self.busy {
                    ctx.assign_bit(busy, Logic::One);
                    ctx.set_any_sensitivity(false);
                }
            }
            return;
        }
        debug_assert!(self.armed, "gated clock rose while parked");
        // Undefined input bits sample as 0 — the pessimistic-X alternative
        // would poison the whole DUT state, which is not useful for the
        // co-simulation data path.
        self.in_words.clear();
        for i in 0..self.inputs.len() {
            self.in_words
                .push(ctx.read_u64(self.inputs[i]).unwrap_or(0));
        }
        self.dut.clock_edge(&self.in_words, &mut self.out_cur);
        for (((sig, word), &prev), &width) in self
            .outputs
            .iter()
            .zip(&mut self.out_cur)
            .zip(&self.out_prev)
            .zip(&self.out_widths)
        {
            *word &= mask(width);
            if !self.driven || prev != *word {
                ctx.assign(*sig, crate::vector::LogicVector::from_u64(*word, width));
            }
        }
        self.driven = true;
        std::mem::swap(&mut self.out_prev, &mut self.out_cur);
        let outs = &self.out_prev;
        if let Some(busy) = self.busy {
            // With inert inputs, inert outputs and a quiescent DUT, every
            // further edge is a provable no-op — and nothing assigned on
            // this edge still needs to be sampled by a clocked observer on
            // the next one. Park the clock until an input event.
            if self.dut.is_idle()
                && self.dut.inputs_inert(&self.in_words)
                && self.dut.outputs_inert(outs)
            {
                self.armed = false;
                ctx.assign_bit(busy, Logic::Zero);
                ctx.set_any_sensitivity(true);
            }
        }
    }

    fn io(&self) -> Option<ProcessIo> {
        // The wrapper samples every input on the clock edge and drives
        // every output (plus `busy` in the gated attachment); the DUT's
        // internal structure stays behind the pin interface.
        let mut io = ProcessIo::clocked(self.label.clone(), self.clk)
            .reads(self.inputs.iter().copied())
            .reads([self.clk])
            .writes(self.outputs.iter().copied());
        if let Some(busy) = self.busy {
            io = io.writes([busy]);
        }
        Some(io)
    }
}

fn mask(width: usize) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Instantiates a [`CycleDut`] inside the event-driven kernel: declares one
/// signal per port (named `prefix.port`), registers a clocked wrapper
/// process sensitive to `clk`, and returns the signal map.
///
/// This is how "RTL in an event-driven simulator" is modelled for the E7
/// engine comparison: every output change becomes a real signal event with
/// delta-cycle processing, exactly the per-clock overhead the paper calls
/// the bottleneck.
pub fn attach_cycle_dut(
    sim: &mut Simulator,
    prefix: &str,
    dut: Box<dyn CycleDut>,
    clk: SignalId,
) -> AttachedDut {
    // Deliberately no reset: the caller may have configured the DUT
    // (routes, tariffs) before attaching it.
    let inputs: Vec<SignalId> = dut
        .input_ports()
        .iter()
        .map(|p| sim.add_signal(format!("{prefix}.{}", p.name), p.width))
        .collect();
    let out_decls = dut.output_ports();
    let outputs: Vec<SignalId> = out_decls
        .iter()
        .map(|p| sim.add_signal(format!("{prefix}.{}", p.name), p.width))
        .collect();
    let process = CycleDutProcess {
        dut,
        label: prefix.to_string(),
        clk,
        inputs: inputs.clone(),
        outputs: outputs.clone(),
        out_widths: out_decls.iter().map(|p| p.width).collect(),
        in_words: Vec::with_capacity(inputs.len()),
        out_cur: vec![0; outputs.len()],
        out_prev: vec![0; outputs.len()],
        driven: false,
        busy: None,
        armed: true,
    };
    sim.add_process(Box::new(process), &[clk]);
    // The DUT's pins are the design's boundary: inputs arrive as external
    // pokes, outputs are observed by the test bench / co-simulation entity.
    for &s in &inputs {
        sim.mark_external_input(s);
    }
    for &s in &outputs {
        sim.mark_external_output(s);
    }
    AttachedDut {
        inputs,
        outputs,
        clk,
    }
}

/// Like [`attach_cycle_dut`], but the wrapper owns a *gated* clock
/// (`prefix.clk`) that parks whenever the DUT reports
/// [`CycleDut::is_idle`] with all-zero inputs, and restarts — on the same
/// rising-edge grid a free-running clock of this `period` would produce —
/// as soon as any input signal changes. Idle stretches therefore cost zero
/// simulation events instead of two edges per cycle, while every sampled
/// value any clocked observer can see is identical to the free-running
/// attachment.
///
/// The grid alignment is what makes the optimization safe: observers are
/// clocked by the same `prefix.clk`, so during a parked stretch nobody
/// samples, and the first restarted edge lands exactly where a free-running
/// edge would have.
pub fn attach_cycle_dut_gated(
    sim: &mut Simulator,
    prefix: &str,
    dut: Box<dyn CycleDut>,
    period: SimDuration,
) -> AttachedDut {
    // Deliberately no reset, exactly as in `attach_cycle_dut`.
    let inputs: Vec<SignalId> = dut
        .input_ports()
        .iter()
        .map(|p| sim.add_signal(format!("{prefix}.{}", p.name), p.width))
        .collect();
    let out_decls = dut.output_ports();
    let outputs: Vec<SignalId> = out_decls
        .iter()
        .map(|p| sim.add_signal(format!("{prefix}.{}", p.name), p.width))
        .collect();
    let busy = sim.add_signal(format!("{prefix}.busy"), 1);
    let clk = sim.add_gated_clock(format!("{prefix}.clk"), period, busy);
    let process = CycleDutProcess {
        dut,
        label: prefix.to_string(),
        clk,
        inputs: inputs.clone(),
        outputs: outputs.clone(),
        out_widths: out_decls.iter().map(|p| p.width).collect(),
        in_words: Vec::with_capacity(inputs.len()),
        out_cur: vec![0; outputs.len()],
        out_prev: vec![0; outputs.len()],
        driven: false,
        busy: Some(busy),
        armed: true,
    };
    // Rising-only on the clock (falling edges are no-ops for the wrapper),
    // any-edge on the inputs so activity can re-arm a parked clock; the
    // wrapper switches the input list off while its clock runs.
    sim.add_process_rising(Box::new(process), &[clk], &inputs);
    for &s in &inputs {
        sim.mark_external_input(s);
    }
    for &s in &outputs {
        sim.mark_external_output(s);
    }
    AttachedDut {
        inputs,
        outputs,
        clk,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::Logic;
    use castanet_netsim::time::{SimDuration, SimTime};

    /// An accumulator: out <= out + in each edge; clear input resets.
    struct Accumulator {
        acc: u64,
    }
    impl CycleDut for Accumulator {
        fn input_ports(&self) -> Vec<PortDecl> {
            vec![PortDecl::new("add", 8), PortDecl::new("clear", 1)]
        }
        fn output_ports(&self) -> Vec<PortDecl> {
            vec![PortDecl::new("sum", 16)]
        }
        fn reset(&mut self) {
            self.acc = 0;
        }
        fn clock_edge(&mut self, inputs: &[u64], outputs: &mut [u64]) {
            if inputs[1] == 1 {
                self.acc = 0;
            } else {
                self.acc = (self.acc + inputs[0]) & 0xFFFF;
            }
            outputs[0] = self.acc;
        }
    }

    #[test]
    fn cycle_sim_steps_and_counts() {
        let mut sim = CycleSim::new(Box::new(Accumulator { acc: 0 }));
        assert_eq!(sim.step(&[5, 0]).unwrap(), vec![5]);
        assert_eq!(sim.step(&[7, 0]).unwrap(), vec![12]);
        assert_eq!(sim.step(&[0, 1]).unwrap(), vec![0]);
        assert_eq!(sim.cycles(), 3);
    }

    #[test]
    fn input_validation() {
        let mut sim = CycleSim::new(Box::new(Accumulator { acc: 0 }));
        assert!(matches!(
            sim.step(&[1]),
            Err(RtlError::PortCountMismatch {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            sim.step(&[256, 0]),
            Err(RtlError::WidthMismatch { expected: 8, .. })
        ));
        // The over-width word on a later, narrower port is named by its width.
        assert!(matches!(
            sim.step(&[255, 2]),
            Err(RtlError::WidthMismatch {
                expected: 1,
                got: 2
            })
        ));
        assert_eq!(sim.cycles(), 0, "failed steps must not count");
    }

    #[test]
    fn port_decl_masks() {
        assert_eq!(PortDecl::new("a", 1).mask(), 1);
        assert_eq!(PortDecl::new("a", 8).mask(), 0xFF);
        assert_eq!(PortDecl::new("a", 64).mask(), u64::MAX);
    }

    #[test]
    fn attached_dut_matches_cycle_sim() {
        // Drive the same stimulus through both engines; outputs must agree.
        let stimulus: Vec<(u64, u64)> = vec![(3, 0), (4, 0), (0, 1), (9, 0)];

        // Cycle engine.
        let mut csim = CycleSim::new(Box::new(Accumulator { acc: 0 }));
        let mut expected = Vec::new();
        for &(a, c) in &stimulus {
            expected.push(csim.step(&[a, c]).unwrap()[0]);
        }

        // Event-driven engine.
        let mut esim = Simulator::new();
        let clk = esim.add_clock("clk", SimDuration::from_ns(10));
        let dut = attach_cycle_dut(&mut esim, "acc", Box::new(Accumulator { acc: 0 }), clk);
        let mut got = Vec::new();
        for (i, &(a, c)) in stimulus.iter().enumerate() {
            let t = SimTime::from_ns(10 * i as u64);
            esim.poke(dut.inputs[0], crate::vector::LogicVector::from_u64(a, 8), t)
                .unwrap();
            esim.poke(dut.inputs[1], crate::vector::LogicVector::from_u64(c, 1), t)
                .unwrap();
            // Edge at 10*i + 5; observe just after.
            esim.run_until(SimTime::from_ns(10 * i as u64 + 6)).unwrap();
            got.push(esim.read_u64(dut.outputs[0]).unwrap());
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn event_driven_wrapper_generates_kernel_activity() {
        let mut esim = Simulator::new();
        let clk = esim.add_clock("clk", SimDuration::from_ns(10));
        let dut = attach_cycle_dut(&mut esim, "acc", Box::new(Accumulator { acc: 0 }), clk);
        esim.poke(
            dut.inputs[0],
            crate::vector::LogicVector::from_u64(1, 8),
            SimTime::ZERO,
        )
        .unwrap();
        esim.poke_bit(dut.inputs[1], Logic::Zero, SimTime::ZERO)
            .unwrap();
        esim.run_until(SimTime::from_ns(101)).unwrap();
        let c = esim.counters();
        // 10 rising edges -> >= 10 process runs and >= 10 output events,
        // plus 20 clock events: far more kernel work than 10 cycle steps.
        assert!(c.process_runs >= 10, "{c:?}");
        assert!(c.events >= 30, "{c:?}");
    }

    /// A one-deep echo: an enabled input byte is emitted (with `valid`)
    /// on the following edge; idle whenever nothing is pending.
    struct PulseEcho {
        pending: Option<u64>,
    }
    impl CycleDut for PulseEcho {
        fn input_ports(&self) -> Vec<PortDecl> {
            vec![PortDecl::new("en", 1), PortDecl::new("data", 8)]
        }
        fn output_ports(&self) -> Vec<PortDecl> {
            vec![PortDecl::new("valid", 1), PortDecl::new("q", 8)]
        }
        fn reset(&mut self) {
            self.pending = None;
        }
        fn clock_edge(&mut self, inputs: &[u64], outputs: &mut [u64]) {
            let (valid, q) = match self.pending.take() {
                Some(d) => (1, d),
                None => (0, 0),
            };
            outputs.copy_from_slice(&[valid, q]);
            if inputs[0] == 1 {
                self.pending = Some(inputs[1]);
            }
        }
        fn is_idle(&self) -> bool {
            self.pending.is_none()
        }
        fn inputs_inert(&self, inputs: &[u64]) -> bool {
            // `data` is a don't-care while `en` is low.
            inputs[0] == 0
        }
    }

    /// Records every `(time_ps, valid, q)` change on the echo outputs.
    struct OutProbe {
        valid: SignalId,
        q: SignalId,
        log: std::sync::Arc<std::sync::Mutex<Vec<(u64, u64, u64)>>>,
    }
    impl RtlProcess for OutProbe {
        fn run(&mut self, ctx: &mut RtlCtx) {
            self.log.lock().unwrap().push((
                ctx.now().as_picos(),
                ctx.read_u64(self.valid).unwrap_or(99),
                ctx.read_u64(self.q).unwrap_or(99),
            ));
        }
    }

    /// Drives two transfers with a long idle gap between them and returns
    /// the probe log plus the number of time steps the kernel executed.
    fn run_echo(gated: bool) -> (Vec<(u64, u64, u64)>, u64) {
        let mut sim = Simulator::new();
        let dut = if gated {
            attach_cycle_dut_gated(
                &mut sim,
                "echo",
                Box::new(PulseEcho { pending: None }),
                SimDuration::from_ns(20),
            )
        } else {
            let clk = sim.add_clock("clk", SimDuration::from_ns(20));
            attach_cycle_dut(&mut sim, "echo", Box::new(PulseEcho { pending: None }), clk)
        };
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        sim.add_process(
            Box::new(OutProbe {
                valid: dut.outputs[0],
                q: dut.outputs[1],
                log: log.clone(),
            }),
            &[dut.outputs[0], dut.outputs[1]],
        );
        for (t_ns, en, data) in [
            (25, 1, 0xAB),
            (45, 0, 0xAB),
            (985, 1, 0x5C),
            (1005, 0, 0x5C),
        ] {
            sim.poke_bit(
                dut.inputs[0],
                if en == 1 { Logic::One } else { Logic::Zero },
                SimTime::from_ns(t_ns),
            )
            .unwrap();
            sim.poke(
                dut.inputs[1],
                crate::vector::LogicVector::from_u64(data, 8),
                SimTime::from_ns(t_ns),
            )
            .unwrap();
        }
        sim.run_until(SimTime::from_ns(1200)).unwrap();
        let entries = log.lock().unwrap().clone();
        (entries, sim.counters().time_steps)
    }

    #[test]
    fn gated_attachment_is_observationally_identical_but_cheaper() {
        // Same DUT, same stimulus: every output event of the free-running
        // attachment must appear in the gated one at the same instant with
        // the same value — while the ~900 ns idle gap costs the gated
        // kernel no clock activity at all.
        let (free_log, free_steps) = run_echo(false);
        let (gated_log, gated_steps) = run_echo(true);
        assert_eq!(free_log, gated_log);
        assert!(
            !free_log.is_empty(),
            "stimulus must produce output activity"
        );
        assert!(
            gated_steps * 3 < free_steps,
            "gated: {gated_steps} steps, free-running: {free_steps}"
        );
    }
}
