//! The co-simulation entity instantiated inside the HDL simulation.
//!
//! "In the VSS simulation a C-language based co-simulation entity is
//! instantiated that receives messages from the OPNET-side interface
//! process. It also performs signal conditioning, e.g. mapping a data
//! structure to bit- or word-level signal streams and generation of
//! additional control signals. The responses from the device under test are
//! sent back to the CASTANET interface node." (§3)
//!
//! [`CosimEntity`] is that entity for byte-serial ATM DUT lines: incoming
//! cell messages are conditioned into 53 clock-aligned pokes of the
//! `atmdata`/`cellsync`/`enable` signals of an ingress line; egress lines
//! are watched by one stream monitor whose completed cells become response
//! messages.

use crate::convert::{cell_to_byte_ops_into, ByteOp};
use crate::error::CastanetError;
use crate::message::{Message, MessagePayload, MessageTypeId};
use castanet_atm::addr::HeaderFormat;
use castanet_atm::cell::{AtmCell, CELL_OCTETS};
use castanet_netsim::time::{SimDuration, SimTime};
use castanet_rtl::logic::Logic;
use castanet_rtl::signal::SignalId;
use castanet_rtl::sim::Simulator;
use castanet_rtl::testbench::{CellStreamMonitor, MonitorHandle};
use castanet_rtl::RtlError;
use std::ops::Range;

/// The egress-side signals of one DUT line.
pub use castanet_rtl::testbench::EgressSignals;

/// The ingress-side signals of one DUT line.
#[derive(Debug, Clone, Copy)]
pub struct IngressSignals {
    /// The byte-wide data port (`atmdata`).
    pub data: SignalId,
    /// Cell synchronization strobe.
    pub sync: SignalId,
    /// Byte-valid qualifier.
    pub enable: SignalId,
}

#[derive(Debug)]
struct IngressPort {
    signals: IngressSignals,
    /// Earliest time the next cell's first byte may be driven.
    next_free: SimTime,
    cells_driven: u64,
}

/// The co-simulation entity: signal conditioning between messages and the
/// DUT's pins.
pub struct CosimEntity {
    clock_period: SimDuration,
    /// Time of the first rising clock edge.
    first_edge: SimTime,
    /// Stimulus setup lead before an edge: the clock's low phase,
    /// `⌈period/2⌉`, so each poke lands on the falling edge before the
    /// edge that samples it.
    setup: SimDuration,
    format: HeaderFormat,
    response_type: MessageTypeId,
    ingress: Vec<IngressPort>,
    egress: Vec<MonitorHandle>,
    /// Signal triples of each egress line, kept for introspection (the
    /// monitor itself owns the live tap). Indexed like `egress`.
    egress_signals: Vec<EgressSignals>,
    responses_sent: u64,
    /// Reused per-cell bus-operation buffer (53 entries after warm-up).
    ops_scratch: Vec<ByteOp>,
    /// Reused monitor-drain buffer for [`CosimEntity::collect_into`].
    captured_scratch: Vec<(SimTime, [u8; CELL_OCTETS])>,
}

impl std::fmt::Debug for CosimEntity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CosimEntity")
            .field("ingress", &self.ingress.len())
            .field("egress", &self.egress.len())
            .field("responses_sent", &self.responses_sent)
            .finish()
    }
}

impl CosimEntity {
    /// Creates an entity for a DUT clocked by a [`Simulator::add_clock`] or
    /// [`Simulator::add_gated_clock`] clock of `clock_period` (rising edges
    /// at `⌊period/2⌋ + k·period`).
    /// Cells arriving back from the DUT are stamped as `response_type`
    /// messages.
    ///
    /// # Panics
    ///
    /// Panics if `clock_period` is shorter than 4 ps (no setup margin).
    #[must_use]
    pub fn new(
        clock_period: SimDuration,
        format: HeaderFormat,
        response_type: MessageTypeId,
    ) -> Self {
        assert!(
            clock_period.as_picos() >= 4,
            "clock period too short for stimulus setup"
        );
        CosimEntity {
            clock_period,
            first_edge: SimTime::ZERO + clock_period / 2,
            setup: clock_period - clock_period / 2,
            format,
            response_type,
            ingress: Vec::new(),
            egress: Vec::new(),
            egress_signals: Vec::new(),
            responses_sent: 0,
            ops_scratch: Vec::new(),
            captured_scratch: Vec::new(),
        }
    }

    /// Registers an ingress line (a DUT input port triple). Returns its
    /// co-simulation port index.
    pub fn add_ingress(&mut self, signals: IngressSignals) -> usize {
        self.ingress.push(IngressPort {
            signals,
            next_free: SimTime::ZERO,
            cells_driven: 0,
        });
        self.ingress.len() - 1
    }

    /// Registers egress lines clocked by `clk`: attaches one stream
    /// monitor sampling all of `lines` (one process run per rising edge,
    /// however many lines). Returns their co-simulation port indices, in
    /// `lines` order.
    pub fn add_egress(
        &mut self,
        sim: &mut Simulator,
        clk: SignalId,
        lines: &[EgressSignals],
    ) -> Range<usize> {
        let first = self.egress.len();
        let (monitor, handles) = CellStreamMonitor::new(clk, lines);
        // The monitor samples on rising edges only; a rising-filtered
        // subscription halves its clock wake-ups.
        sim.add_process_rising(Box::new(monitor), &[clk], &[]);
        self.egress.extend(handles);
        self.egress_signals.extend_from_slice(lines);
        first..self.egress.len()
    }

    /// The signal triples of every registered ingress line, in port order.
    pub fn ingress_signals(&self) -> impl Iterator<Item = IngressSignals> + '_ {
        self.ingress.iter().map(|p| p.signals)
    }

    /// The signal triples of every registered egress line, in port order.
    pub fn egress_signals(&self) -> impl Iterator<Item = EgressSignals> + '_ {
        self.egress_signals.iter().copied()
    }

    /// Number of registered ingress lines.
    #[must_use]
    pub fn ingress_count(&self) -> usize {
        self.ingress.len()
    }

    /// Number of registered egress lines.
    #[must_use]
    pub fn egress_count(&self) -> usize {
        self.egress.len()
    }

    /// The cell header format this entity drives and expects.
    #[must_use]
    pub fn format(&self) -> HeaderFormat {
        self.format
    }

    /// The message type responses are stamped with.
    #[must_use]
    pub fn response_type(&self) -> MessageTypeId {
        self.response_type
    }

    /// The first rising clock edge at or after `t`.
    #[must_use]
    pub fn edge_at_or_after(&self, t: SimTime) -> SimTime {
        edge_at_or_after_(self.first_edge, self.clock_period, t)
    }

    /// Delivers one message: conditions its cell onto the addressed ingress
    /// line, starting at the first free cell boundary at or after the
    /// message stamp. Returns the time of the last byte's clock edge.
    ///
    /// # Errors
    ///
    /// * [`CastanetError::UnknownPort`] for an unregistered port;
    /// * [`CastanetError::Convert`] for a payload that is not a cell;
    /// * scheduling errors from the RTL simulator.
    pub fn deliver(
        &mut self,
        sim: &mut Simulator,
        msg: &Message,
    ) -> Result<SimTime, CastanetError> {
        let MessagePayload::Cell(cell) = &msg.payload else {
            return Err(CastanetError::Convert(format!(
                "entity can only condition cell payloads, got {}",
                msg.payload.kind()
            )));
        };
        let (signals, next_free) = {
            let port = self
                .ingress
                .get(msg.port)
                .ok_or(CastanetError::UnknownPort { port: msg.port })?;
            (port.signals, port.next_free)
        };
        // First byte goes onto the first clock edge at or after the message
        // stamp once the line is free.
        let start = msg.stamp.max(next_free);
        cell_to_byte_ops_into(cell, self.format, &mut self.ops_scratch)?;
        let first_edge = edge_at_or_after_(self.first_edge, self.clock_period, start);
        // Each byte is poked on the falling edge before the rising edge
        // that samples it, so it shares the falling edge's time step
        // instead of opening one of its own. That poke is never in the
        // kernel's past under the serial or the parallel coupling: both
        // deliver a message only after the kernel has run strictly below
        // its stamp, and every kernel time step sits on the half-period
        // grid — time zero, the rising edges and the falling edges (the
        // clock's own edges, these pokes and the gated clock's busy
        // handshake all land there). The latest grid instant below
        // `first_edge` is the falling edge `setup` before it (time zero,
        // for the first edge of an odd period), so `now <= poke_at`.
        // Other stimulus keeps this true as long as it never lands inside
        // a low phase.
        // The octets go out as words, which `poke_u64` checks only for
        // fit: the data pin itself must be one octet wide.
        let width = sim.signal_width(signals.data);
        if width != 8 {
            return Err(RtlError::WidthMismatch {
                expected: width,
                got: 8,
            }
            .into());
        }
        let mut last_edge = first_edge;
        for op in &self.ops_scratch {
            let edge = first_edge + self.clock_period * op.cycle;
            let poke_at = self.poke_time(edge);
            sim.poke_u64(signals.data, u64::from(op.data), poke_at)?;
            last_edge = edge;
        }
        // Control signals only change at transitions (one event each, not
        // one per byte): sync pulses for the first octet, enable covers the
        // whole transfer.
        let first_poke = self.poke_time(first_edge);
        sim.poke_bit(signals.sync, Logic::One, first_poke)?;
        sim.poke_bit(
            signals.sync,
            Logic::Zero,
            self.poke_time(first_edge + self.clock_period),
        )?;
        sim.poke_bit(signals.enable, Logic::One, first_poke)?;
        sim.poke_bit(
            signals.enable,
            Logic::Zero,
            self.poke_time(last_edge + self.clock_period),
        )?;
        let port = &mut self.ingress[msg.port];
        port.next_free = last_edge + self.clock_period;
        port.cells_driven += 1;
        Ok(last_edge)
    }

    /// When stimulus for the rising edge at `edge` is driven: the falling
    /// edge before it, or time zero for the first edge of an odd period,
    /// which comes one picosecond before a full low phase has passed.
    fn poke_time(&self, edge: SimTime) -> SimTime {
        SimTime::from_picos(edge.as_picos().saturating_sub(self.setup.as_picos()))
    }

    /// Drains completed DUT output cells from every egress monitor into
    /// response messages (stamped with their completion time).
    pub fn collect(&mut self) -> Vec<Message> {
        let mut out = Vec::new();
        self.collect_into(&mut out);
        out
    }

    /// Allocation-conscious form of [`CosimEntity::collect`]: appends the
    /// response messages to `out` and reuses the internal monitor-drain
    /// buffer, so polling with no pending cells touches no allocator.
    pub fn collect_into(&mut self, out: &mut Vec<Message>) {
        if self.egress.iter().all(MonitorHandle::is_empty) {
            // The per-time-step poll: nothing captured, nothing to move.
            return;
        }
        let mut captured = std::mem::take(&mut self.captured_scratch);
        for (port, handle) in self.egress.iter().enumerate() {
            captured.clear();
            handle.drain_into(&mut captured);
            for &(t, ref bytes) in &captured {
                // A cell that fails decoding is still reported — as a raw
                // payload — so the comparison stage can flag it instead of
                // silently losing it.
                let payload = match AtmCell::decode(bytes, self.format) {
                    Ok(cell) => MessagePayload::Cell(cell),
                    Err(_) => MessagePayload::Raw(bytes.to_vec()),
                };
                out.push(Message {
                    stamp: t,
                    type_id: self.response_type,
                    port,
                    payload,
                });
                self.responses_sent += 1;
            }
        }
        captured.clear();
        self.captured_scratch = captured;
    }

    /// Cells conditioned onto ingress line `port` so far.
    #[must_use]
    pub fn cells_driven(&self, port: usize) -> u64 {
        self.ingress.get(port).map_or(0, |p| p.cells_driven)
    }

    /// Responses collected so far.
    #[must_use]
    pub fn responses_sent(&self) -> u64 {
        self.responses_sent
    }

    /// The DUT clock period the entity conditions against.
    #[must_use]
    pub fn clock_period(&self) -> SimDuration {
        self.clock_period
    }
}

fn edge_at_or_after_(first_edge: SimTime, period: SimDuration, t: SimTime) -> SimTime {
    if t <= first_edge {
        return first_edge;
    }
    let offset = (t - first_edge).as_picos();
    let k = offset.div_ceil(period.as_picos());
    first_edge + SimDuration::from_picos(k * period.as_picos())
}

#[cfg(test)]
mod tests {
    use super::*;
    use castanet_atm::addr::VpiVci;
    use castanet_rtl::cycle::attach_cycle_dut;
    use castanet_rtl::dut::CellReceiver;

    const PERIOD: SimDuration = SimDuration::from_ns(20);

    fn cell(vci: u16) -> AtmCell {
        AtmCell::user_data(VpiVci::uni(1, vci).unwrap(), [vci as u8; 48])
    }

    /// An RTL sim with a CellReceiver DUT wired to an entity ingress.
    fn receiver_fixture() -> (Simulator, CosimEntity, castanet_rtl::cycle::AttachedDut) {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("clk", PERIOD);
        let dut = attach_cycle_dut(&mut sim, "rx", Box::new(CellReceiver::new()), clk);
        let mut entity = CosimEntity::new(PERIOD, HeaderFormat::Uni, MessageTypeId(9));
        entity.add_ingress(IngressSignals {
            data: dut.inputs[0],
            sync: dut.inputs[1],
            enable: dut.inputs[2],
        });
        (sim, entity, dut)
    }

    #[test]
    fn a_data_pin_that_is_not_one_octet_wide_is_refused() {
        let mut sim = Simulator::new();
        let data = sim.add_signal("data", 16);
        let sync = sim.add_signal("sync", 1);
        let enable = sim.add_signal("enable", 1);
        let mut entity = CosimEntity::new(PERIOD, HeaderFormat::Uni, MessageTypeId(9));
        entity.add_ingress(IngressSignals { data, sync, enable });
        let msg = Message::cell(SimTime::ZERO, MessageTypeId(0), 0, cell(42));
        assert!(matches!(
            entity.deliver(&mut sim, &msg),
            Err(CastanetError::Rtl(RtlError::WidthMismatch {
                expected: 16,
                got: 8
            }))
        ));
        assert_eq!(sim.pending_time(), Some(SimTime::ZERO), "nothing was poked");
        assert_eq!(sim.next_time(), None);
    }

    #[test]
    fn edge_computation() {
        let e = CosimEntity::new(PERIOD, HeaderFormat::Uni, MessageTypeId(0));
        assert_eq!(e.edge_at_or_after(SimTime::ZERO), SimTime::from_ns(10));
        assert_eq!(
            e.edge_at_or_after(SimTime::from_ns(10)),
            SimTime::from_ns(10)
        );
        assert_eq!(
            e.edge_at_or_after(SimTime::from_ns(11)),
            SimTime::from_ns(30)
        );
        assert_eq!(
            e.edge_at_or_after(SimTime::from_ns(30)),
            SimTime::from_ns(30)
        );
    }

    #[test]
    fn delivered_cell_reaches_the_dut_in_53_clocks() {
        let (mut sim, mut entity, dut) = receiver_fixture();
        let msg = Message::cell(SimTime::ZERO, MessageTypeId(0), 0, cell(42));
        let last_edge = entity.deliver(&mut sim, &msg).unwrap();
        // 53 bytes, first at edge 10 ns, spaced 20 ns.
        assert_eq!(last_edge, SimTime::from_ns(10 + 52 * 20));
        sim.run_until(last_edge + SimDuration::from_ns(1)).unwrap();
        assert_eq!(sim.read_u64(dut.outputs[0]), Some(1), "cell_valid");
        assert_eq!(sim.read_u64(dut.outputs[1]), Some(1), "hec ok");
        assert_eq!(sim.read_u64(dut.outputs[3]), Some(42), "vci");
        assert_eq!(entity.cells_driven(0), 1);
    }

    #[test]
    fn back_to_back_cells_do_not_overlap() {
        let (mut sim, mut entity, dut) = receiver_fixture();
        let m1 = Message::cell(SimTime::ZERO, MessageTypeId(0), 0, cell(40));
        let m2 = Message::cell(SimTime::ZERO, MessageTypeId(0), 0, cell(41));
        let e1 = entity.deliver(&mut sim, &m1).unwrap();
        let e2 = entity.deliver(&mut sim, &m2).unwrap();
        assert_eq!(
            e2 - e1,
            PERIOD * 53,
            "second cell starts right after the first"
        );
        sim.run_until(e2 + SimDuration::from_ns(1)).unwrap();
        assert_eq!(sim.read_u64(dut.outputs[7]), Some(2), "both cells received");
        assert_eq!(sim.read_u64(dut.outputs[3]), Some(41), "last vci");
    }

    #[test]
    fn late_stamp_defers_the_transfer() {
        let (mut sim, mut entity, _dut) = receiver_fixture();
        let msg = Message::cell(SimTime::from_us(5), MessageTypeId(0), 0, cell(40));
        let last_edge = entity.deliver(&mut sim, &msg).unwrap();
        assert!(last_edge >= SimTime::from_us(5));
    }

    #[test]
    fn unknown_port_rejected() {
        let (mut sim, mut entity, _dut) = receiver_fixture();
        let msg = Message::cell(SimTime::ZERO, MessageTypeId(0), 7, cell(40));
        assert!(matches!(
            entity.deliver(&mut sim, &msg),
            Err(CastanetError::UnknownPort { port: 7 })
        ));
    }

    #[test]
    fn non_cell_payload_rejected() {
        let (mut sim, mut entity, _dut) = receiver_fixture();
        let msg = Message {
            stamp: SimTime::ZERO,
            type_id: MessageTypeId(0),
            port: 0,
            payload: MessagePayload::Control(1),
        };
        assert!(matches!(
            entity.deliver(&mut sim, &msg),
            Err(CastanetError::Convert(_))
        ));
    }

    #[test]
    fn egress_monitor_produces_response_messages() {
        // Loop the entity's own stimulus back as "DUT output": wire an
        // egress monitor to the same signals the ingress drives.
        let mut sim = Simulator::new();
        let clk = sim.add_clock("clk", PERIOD);
        let data = sim.add_signal("data", 8);
        let sync = sim.add_signal("sync", 1);
        let enable = sim.add_signal("enable", 1);
        let mut entity = CosimEntity::new(PERIOD, HeaderFormat::Uni, MessageTypeId(7));
        entity.add_ingress(IngressSignals { data, sync, enable });
        let ports = entity.add_egress(
            &mut sim,
            clk,
            &[EgressSignals {
                data,
                sync,
                valid: enable,
            }],
        );
        assert_eq!(ports, 0..1);

        let msg = Message::cell(SimTime::ZERO, MessageTypeId(0), 0, cell(77));
        let last_edge = entity.deliver(&mut sim, &msg).unwrap();
        sim.run_until(last_edge + PERIOD).unwrap();

        let responses = entity.collect();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].type_id, MessageTypeId(7));
        assert_eq!(responses[0].port, 0);
        assert_eq!(responses[0].as_cell(), Some(&cell(77)));
        assert_eq!(responses[0].stamp, last_edge);
        assert_eq!(entity.responses_sent(), 1);
    }

    #[test]
    fn egress_lines_completing_on_one_edge_come_back_in_port_order() {
        // Two looped-back lines share one sampler process. Cells delivered
        // at the same stamp complete on the same edge; the responses come
        // back in port order, whatever order the cells were delivered in.
        let mut sim = Simulator::new();
        let clk = sim.add_clock("clk", PERIOD);
        let mut entity = CosimEntity::new(PERIOD, HeaderFormat::Uni, MessageTypeId(7));
        let mut lines = Vec::new();
        for i in 0..2 {
            let data = sim.add_signal(format!("data{i}"), 8);
            let sync = sim.add_signal(format!("sync{i}"), 1);
            let enable = sim.add_signal(format!("enable{i}"), 1);
            entity.add_ingress(IngressSignals { data, sync, enable });
            lines.push(EgressSignals {
                data,
                sync,
                valid: enable,
            });
        }
        let before = sim.netlist().processes.len();
        assert_eq!(entity.add_egress(&mut sim, clk, &lines), 0..2);
        assert_eq!(sim.netlist().processes.len(), before + 1, "one sampler");

        let mut last_edge = SimTime::ZERO;
        for (port, vci) in [(1, 51), (0, 50)] {
            let msg = Message::cell(SimTime::ZERO, MessageTypeId(0), port, cell(vci));
            last_edge = entity.deliver(&mut sim, &msg).unwrap();
        }
        sim.run_until(last_edge + PERIOD).unwrap();

        let responses = entity.collect();
        let got: Vec<(usize, SimTime, Option<&AtmCell>)> = responses
            .iter()
            .map(|m| (m.port, m.stamp, m.as_cell()))
            .collect();
        assert_eq!(
            got,
            vec![
                (0, last_edge, Some(&cell(50))),
                (1, last_edge, Some(&cell(51))),
            ]
        );
    }
}
