//! The cycle-based follower — the paper's §5 conclusion, implemented.
//!
//! "Event-driven VHDL simulators are obviously a bottleneck in the
//! co-verification process. … Thus, the integration of cycle-based
//! simulation techniques is required." [`CycleCosim`] is that integration:
//! the same pin-level DUT runs under the cycle engine, one `clock_edge`
//! call per clock, with **idle skipping** — when no stimulus is pending and
//! the DUT reports quiescence ([`castanet_rtl::cycle::CycleDut::is_idle`]),
//! whole stretches of simulated time advance in O(1). Delivered cells wait
//! in a flat stimulus window and the DUT writes into the engine's own output
//! buffer, so an evaluated clock allocates nothing unless it completes a
//! cell. The E1/E7 benches compare this follower against the event-driven
//! [`crate::RtlCosim`] on identical workloads.

use crate::convert::ByteStreamAssembler;
use crate::coupling::CoupledSimulator;
use crate::error::CastanetError;
use crate::message::{Message, MessagePayload, MessageTypeId};
use crate::stimulus::{clock_at_or_after, skip_idle, StimulusWindow};
use castanet_atm::addr::HeaderFormat;
use castanet_atm::cell::CELL_OCTETS;
use castanet_netsim::time::{SimDuration, SimTime};
use castanet_obs::{Gauge, Phase, Telemetry, Track};
use castanet_rtl::cycle::{CycleSim, PortDecl};

/// Indices (into the DUT's input port list) of one ingress line.
#[derive(Debug, Clone, Copy)]
pub struct IngressIndices {
    /// Byte-wide data input port.
    pub data: usize,
    /// Cellsync input port.
    pub sync: usize,
    /// Byte-valid input port.
    pub enable: usize,
}

/// Indices (into the DUT's output port list) of one egress line.
#[derive(Debug, Clone, Copy)]
pub struct EgressIndices {
    /// Byte-wide data output port.
    pub data: usize,
    /// Cellsync output port.
    pub sync: usize,
    /// Byte-valid output port.
    pub valid: usize,
}

impl IngressIndices {
    /// Checks the pins against the DUT's input ports.
    pub(crate) fn check(&self, ports: &[PortDecl]) -> Result<(), CastanetError> {
        let pins = [
            ("data", self.data),
            ("sync", self.sync),
            ("enable", self.enable),
        ];
        check_line("ingress", pins, ports)
    }
}

impl EgressIndices {
    /// Checks the pins against the DUT's output ports.
    pub(crate) fn check(&self, ports: &[PortDecl]) -> Result<(), CastanetError> {
        let pins = [
            ("data", self.data),
            ("sync", self.sync),
            ("valid", self.valid),
        ];
        check_line("egress", pins, ports)
    }
}

/// Rejects a line whose pin index is past the DUT's port list (`CAST150`)
/// or whose data pin is narrower than a byte (`CAST151`). Strobes need one
/// bit, which every declared port has.
fn check_line(
    line: &str,
    pins: [(&str, usize); 3],
    ports: &[PortDecl],
) -> Result<(), CastanetError> {
    for (role, index) in pins {
        let finding = match ports.get(index) {
            None => format!(
                "CAST150: {line} {role} pin index {index} out of range ({} ports on the DUT)",
                ports.len()
            ),
            Some(p) if role == "data" && p.width < 8 => format!(
                "CAST151: {line} data pin '{}' is {} bits wide, needs 8",
                p.name, p.width
            ),
            Some(_) => continue,
        };
        return Err(CastanetError::Preflight(vec![finding]));
    }
    Ok(())
}

#[derive(Clone)]
struct IngressLine {
    idx: IngressIndices,
    next_free_clock: u64,
}

#[derive(Clone)]
struct EgressLine {
    idx: EgressIndices,
    assembler: ByteStreamAssembler,
}

/// The cycle-based coupled follower with idle skipping.
pub struct CycleCosim {
    sim: CycleSim,
    clock_period: SimDuration,
    clocks_done: u64,
    /// Input words for clocks `clocks_done..`.
    stimulus: StimulusWindow,
    ingress: Vec<IngressLine>,
    egress: Vec<EgressLine>,
    response_type: MessageTypeId,
    format: HeaderFormat,
    /// Clocks skipped thanks to idle detection.
    skipped: u64,
    undecodable: u64,
    /// Clocks-evaluated gauge (a no-op until telemetry is attached).
    obs_evaluated: Gauge,
    /// Clocks-skipped gauge (a no-op until telemetry is attached).
    obs_skipped: Gauge,
    /// Telemetry handle for the sampled `cycle.eval` micro-phase.
    tel: Telemetry,
    /// End stamp of the last `cycle.eval` span, reused as the next span's
    /// start when the very next clock is also sampled — halving the clock
    /// reads on back-to-back sampled clocks. `0` means "stale": anything
    /// that breaks clock adjacency (an unsampled clock, an idle skip, a
    /// delivery, a new advance sweep) resets it.
    phase_stamp: u64,
}

impl std::fmt::Debug for CycleCosim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CycleCosim")
            .field("clocks_done", &self.clocks_done)
            .field("skipped", &self.skipped)
            .finish()
    }
}

impl CycleCosim {
    /// Wraps a cycle-engine DUT as a follower clocked at `clock_period`.
    #[must_use]
    pub fn new(
        sim: CycleSim,
        clock_period: SimDuration,
        response_type: MessageTypeId,
        format: HeaderFormat,
    ) -> Self {
        CycleCosim {
            stimulus: StimulusWindow::new(sim.input_ports().len()),
            sim,
            clock_period,
            clocks_done: 0,
            ingress: Vec::new(),
            egress: Vec::new(),
            response_type,
            format,
            skipped: 0,
            undecodable: 0,
            obs_evaluated: Gauge::default(),
            obs_skipped: Gauge::default(),
            tel: Telemetry::disabled(),
            phase_stamp: 0,
        }
    }

    /// Registers an ingress line; returns its co-simulation port index.
    ///
    /// # Errors
    ///
    /// [`CastanetError::Preflight`] with one `CAST150` finding for a pin
    /// index past the DUT's input ports, or `CAST151` for a data pin
    /// narrower than 8 bits.
    pub fn add_ingress(&mut self, idx: IngressIndices) -> Result<usize, CastanetError> {
        idx.check(self.sim.input_ports())?;
        self.ingress.push(IngressLine {
            idx,
            next_free_clock: 0,
        });
        Ok(self.ingress.len() - 1)
    }

    /// Registers an egress line; returns its co-simulation port index.
    ///
    /// # Errors
    ///
    /// As [`CycleCosim::add_ingress`], against the DUT's output ports.
    pub fn add_egress(&mut self, idx: EgressIndices) -> Result<usize, CastanetError> {
        idx.check(self.sim.output_ports())?;
        self.egress.push(EgressLine {
            idx,
            assembler: ByteStreamAssembler::new(self.format),
        });
        Ok(self.egress.len() - 1)
    }

    /// Clocks actually evaluated.
    #[must_use]
    pub fn clocks_evaluated(&self) -> u64 {
        self.sim.cycles()
    }

    /// Clocks skipped by idle detection.
    #[must_use]
    pub fn clocks_skipped(&self) -> u64 {
        self.skipped
    }

    /// DUT outputs that failed cell reassembly.
    #[must_use]
    pub fn undecodable(&self) -> u64 {
        self.undecodable
    }

    /// Read access to the cycle engine.
    #[must_use]
    pub fn sim(&self) -> &CycleSim {
        &self.sim
    }

    /// Evaluates clock `clocks_done`, appending the cells it completes to
    /// `responses`.
    fn run_clock(&mut self, responses: &mut Vec<Message>) -> Result<(), CastanetError> {
        // `cycle.eval` is a per-clock micro-phase: sampled 1-in-N, so the
        // two clock reads are paid once per stride, not per clock. Across
        // back-to-back sampled clocks the previous span's end stamp doubles
        // as this span's start, halving even that residual cost.
        let sampled = self.tel.micro_gate();
        let eval_start = if sampled {
            if self.phase_stamp != 0 {
                self.phase_stamp
            } else {
                self.tel.now_ns()
            }
        } else {
            self.phase_stamp = 0;
            0
        };
        let outs = self.sim.step(self.stimulus.front())?;
        self.stimulus.pop_front();
        self.clocks_done += 1;
        let stamp = SimTime::from_picos(self.clocks_done * self.clock_period.as_picos());
        if sampled {
            self.phase_stamp = self.tel.record_phase(
                Track::Follower,
                stamp.as_picos(),
                Phase::CycleEval,
                eval_start,
            );
        }
        for (port, line) in self.egress.iter_mut().enumerate() {
            if outs[line.idx.valid] != 1 {
                continue;
            }
            let data = outs[line.idx.data] as u8;
            let sync = outs[line.idx.sync] == 1;
            match line.assembler.push(data, sync) {
                Ok(Some(cell)) => responses.push(Message {
                    stamp,
                    type_id: self.response_type,
                    port,
                    payload: MessagePayload::Cell(cell),
                }),
                Ok(None) => {}
                Err(_) => {
                    self.undecodable += 1;
                    responses.push(Message {
                        stamp,
                        type_id: self.response_type,
                        port,
                        payload: MessagePayload::Raw(vec![data]),
                    });
                }
            }
        }
        Ok(())
    }

    fn advance_inner(
        &mut self,
        horizon: SimTime,
        stop_at_first: bool,
    ) -> Result<Vec<Message>, CastanetError> {
        let period = self.clock_period.as_picos();
        let target = horizon.as_picos().div_ceil(period).saturating_sub(1);
        // A new sweep starts from non-clock work (sync, delivery), so the
        // cached span stamp no longer abuts the next evaluation.
        self.phase_stamp = 0;
        let mut collected = Vec::new();
        while self.clocks_done < target {
            // Idle skip: the DUT quiescent — jump straight to the next
            // stimulus clock (or the horizon).
            if self.sim.dut().is_idle() {
                let remaining = target - self.clocks_done;
                let jump = skip_idle(std::slice::from_mut(&mut self.stimulus), remaining);
                if jump > 0 {
                    self.skipped += jump;
                    self.clocks_done += jump;
                    self.phase_stamp = 0;
                    continue;
                }
            }
            self.run_clock(&mut collected)?;
            if stop_at_first && !collected.is_empty() {
                break;
            }
        }
        self.publish_clock_gauges();
        Ok(collected)
    }

    fn publish_clock_gauges(&self) {
        self.obs_evaluated.set(self.sim.cycles());
        self.obs_skipped.set(self.skipped);
    }
}

impl CoupledSimulator for CycleCosim {
    fn deliver(&mut self, msg: Message) -> Result<(), CastanetError> {
        let MessagePayload::Cell(cell) = &msg.payload else {
            return Err(CastanetError::Convert(format!(
                "cycle follower can only play cell payloads, got {}",
                msg.payload.kind()
            )));
        };
        if msg.port >= self.ingress.len() {
            return Err(CastanetError::UnknownPort { port: msg.port });
        }
        let wire = cell.encode(self.format)?;
        let line = &mut self.ingress[msg.port];
        let start = clock_at_or_after(msg.stamp, self.clock_period)
            .max(line.next_free_clock)
            .max(self.clocks_done);
        let offset = (start - self.clocks_done) as usize;
        self.stimulus.put_cell(offset, line.idx, &wire);
        line.next_free_clock = start + CELL_OCTETS as u64;
        self.phase_stamp = 0;
        Ok(())
    }

    fn advance_until(&mut self, horizon: SimTime) -> Result<Vec<Message>, CastanetError> {
        self.advance_inner(horizon, true)
    }

    fn advance_batch(&mut self, horizon: SimTime) -> Result<Vec<Message>, CastanetError> {
        // One uninterrupted sweep to the horizon: egress cells are stamped
        // at their capture clock inside `run_clock`, so collecting them at
        // the end of the window loses no timing information.
        self.advance_inner(horizon, false)
    }

    fn now(&self) -> SimTime {
        SimTime::from_picos(self.clocks_done * self.clock_period.as_picos())
    }

    fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = tel.clone();
        self.obs_evaluated = tel.gauge("follower.clocks_evaluated");
        self.obs_skipped = tel.gauge("follower.clocks_skipped");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use castanet_atm::addr::VpiVci;
    use castanet_atm::cell::AtmCell;
    use castanet_rtl::dut::{AtmSwitchRtl, SwitchRtlConfig};

    const CLK: SimDuration = SimDuration::from_ns(20);

    fn fixture() -> CycleCosim {
        let mut switch = AtmSwitchRtl::new(SwitchRtlConfig {
            ports: 2,
            fifo_capacity: 32,
            table_capacity: 8,
        });
        assert!(switch.install_route(1, 40, 1, 7, 70));
        let sim = CycleSim::new(Box::new(switch));
        let mut cosim = CycleCosim::new(sim, CLK, MessageTypeId(9), HeaderFormat::Uni);
        cosim
            .add_ingress(IngressIndices {
                data: 0,
                sync: 1,
                enable: 2,
            })
            .unwrap();
        cosim
            .add_ingress(IngressIndices {
                data: 3,
                sync: 4,
                enable: 5,
            })
            .unwrap();
        cosim
            .add_egress(EgressIndices {
                data: 0,
                sync: 1,
                valid: 2,
            })
            .unwrap();
        cosim
            .add_egress(EgressIndices {
                data: 3,
                sync: 4,
                valid: 5,
            })
            .unwrap();
        cosim
    }

    fn cell(vci: u16) -> AtmCell {
        AtmCell::user_data(VpiVci::uni(1, vci).unwrap(), [0x42; 48])
    }

    #[test]
    fn switches_a_cell_like_the_event_driven_follower() {
        let mut cosim = fixture();
        cosim
            .deliver(Message::cell(SimTime::ZERO, MessageTypeId(0), 0, cell(40)))
            .unwrap();
        let responses = cosim.advance_until(SimTime::from_us(10)).unwrap();
        assert_eq!(responses.len(), 1);
        assert_eq!(
            responses[0].as_cell().unwrap().id(),
            VpiVci::uni(7, 70).unwrap()
        );
        assert_eq!(responses[0].as_cell().unwrap().payload, [0x42; 48]);
    }

    #[test]
    fn idle_clocks_are_skipped_not_evaluated() {
        let mut cosim = fixture();
        // A cell stamped far in the future: the gap must be skipped.
        let stamp = SimTime::from_us(100); // 5000 clocks at 20 ns
        cosim
            .deliver(Message::cell(stamp, MessageTypeId(0), 0, cell(40)))
            .unwrap();
        let responses = cosim.advance_until(SimTime::from_us(200)).unwrap();
        assert_eq!(responses.len(), 1);
        assert!(
            cosim.clocks_skipped() > 4000,
            "skipped only {}",
            cosim.clocks_skipped()
        );
        // Evaluated clocks: roughly the 2x53 transfer clocks plus slack.
        assert!(
            cosim.clocks_evaluated() < 400,
            "evaluated {}",
            cosim.clocks_evaluated()
        );
    }

    #[test]
    fn busy_dut_is_not_skipped() {
        let mut cosim = fixture();
        cosim
            .deliver(Message::cell(SimTime::ZERO, MessageTypeId(0), 0, cell(40)))
            .unwrap();
        // While the cell drains through the switch the DUT is never idle,
        // so no clocks are skipped until the response is out.
        let responses = cosim.advance_until(SimTime::from_us(3)).unwrap();
        assert_eq!(responses.len(), 1);
        assert_eq!(cosim.clocks_skipped(), 0);
    }

    #[test]
    fn time_advances_even_when_fully_idle() {
        let mut cosim = fixture();
        let out = cosim.advance_until(SimTime::from_ms(1)).unwrap();
        assert!(out.is_empty());
        assert_eq!(cosim.now(), SimTime::from_picos(49_999 * 20_000));
        assert_eq!(
            cosim.clocks_evaluated(),
            0,
            "pure idle costs zero evaluations"
        );
    }

    #[test]
    fn unknown_port_and_payload_rejected() {
        let mut cosim = fixture();
        assert!(matches!(
            cosim.deliver(Message::cell(SimTime::ZERO, MessageTypeId(0), 5, cell(40))),
            Err(CastanetError::UnknownPort { port: 5 })
        ));
        let msg = Message {
            stamp: SimTime::ZERO,
            type_id: MessageTypeId(0),
            port: 0,
            payload: MessagePayload::Control(1),
        };
        assert!(matches!(cosim.deliver(msg), Err(CastanetError::Convert(_))));
    }

    #[test]
    fn lines_on_missing_or_narrow_pins_are_rejected() {
        let mut cosim = fixture();
        let finding = |r: Result<usize, CastanetError>| match r {
            Err(CastanetError::Preflight(f)) if f.len() == 1 => f[0][..7].to_string(),
            other => panic!("expected one finding, got {other:?}"),
        };
        let ingress = |data, enable| IngressIndices {
            data,
            sync: 1,
            enable,
        };
        let egress = |data, valid| EgressIndices {
            data,
            sync: 1,
            valid,
        };
        // The 2-port switch has 12 input and 9 output ports; port 1 is a
        // 1-bit strobe on both sides.
        assert_eq!(finding(cosim.add_ingress(ingress(0, 12))), "CAST150");
        assert_eq!(finding(cosim.add_egress(egress(0, 9))), "CAST150");
        assert_eq!(finding(cosim.add_ingress(ingress(1, 2))), "CAST151");
        assert_eq!(finding(cosim.add_egress(egress(1, 2))), "CAST151");
        assert_eq!(cosim.add_ingress(ingress(0, 2)).unwrap(), 2);
    }

    #[test]
    fn matches_event_driven_follower_output() {
        use crate::coupling::RtlCosim;
        use crate::entity::{CosimEntity, EgressSignals, IngressSignals};
        use castanet_rtl::cycle::attach_cycle_dut;
        use castanet_rtl::sim::Simulator;

        // Same DUT, same three cells, both followers: identical cell
        // sequences must come out.
        let build_switch = || {
            let mut s = AtmSwitchRtl::new(SwitchRtlConfig {
                ports: 2,
                fifo_capacity: 32,
                table_capacity: 8,
            });
            assert!(s.install_route(1, 40, 1, 7, 70));
            s
        };
        let stimuli: Vec<Message> = (0..3)
            .map(|k| {
                Message::cell(
                    SimTime::from_us(5 * (k + 1)),
                    MessageTypeId(0),
                    0,
                    AtmCell::user_data(
                        VpiVci::uni(1, 40).unwrap(),
                        castanet_atm::traffic::source::sequenced_payload(k),
                    ),
                )
            })
            .collect();

        // Cycle follower.
        let mut cy = fixture();
        let mut cy_sim = CycleSim::new(Box::new(build_switch()));
        std::mem::swap(&mut cy.sim, &mut cy_sim);
        let mut cy_out = Vec::new();
        for m in &stimuli {
            cy.deliver(m.clone()).unwrap();
        }
        loop {
            let r = cy.advance_until(SimTime::from_us(60)).unwrap();
            if r.is_empty() {
                break;
            }
            cy_out.extend(r);
        }

        // Event-driven follower.
        let mut sim = Simulator::new();
        let clk = sim.add_clock("clk", CLK);
        let dut = attach_cycle_dut(&mut sim, "sw", Box::new(build_switch()), clk);
        let mut entity = CosimEntity::new(CLK, HeaderFormat::Uni, MessageTypeId(9));
        entity.add_ingress(IngressSignals {
            data: dut.inputs[0],
            sync: dut.inputs[1],
            enable: dut.inputs[2],
        });
        entity.add_egress(
            &mut sim,
            clk,
            &[EgressSignals {
                data: dut.outputs[3],
                sync: dut.outputs[4],
                valid: dut.outputs[5],
            }],
        );
        let mut ev = RtlCosim::new(sim, entity);
        let mut ev_out = Vec::new();
        for m in &stimuli {
            ev.deliver(m.clone()).unwrap();
        }
        loop {
            let r = ev.advance_until(SimTime::from_us(60)).unwrap();
            if r.is_empty() {
                break;
            }
            ev_out.extend(r);
        }

        let cy_cells: Vec<_> = cy_out
            .iter()
            .filter_map(Message::as_cell)
            .cloned()
            .collect();
        let ev_cells: Vec<_> = ev_out
            .iter()
            .filter(|m| m.port == 0) // the entity's single egress is line 1 mapped to port 0
            .filter_map(Message::as_cell)
            .cloned()
            .collect();
        let cy_line1: Vec<_> = cy_out
            .iter()
            .filter(|m| m.port == 1)
            .filter_map(Message::as_cell)
            .cloned()
            .collect();
        assert_eq!(
            cy_line1, ev_cells,
            "the two engines must agree cell-for-cell"
        );
        assert_eq!(cy_cells.len(), 3);
    }
}
