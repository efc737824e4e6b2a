//! The lane-batched cycle follower: up to 64 scenario lanes per clock.
//!
//! [`CompiledCosim`] couples a [`LaneBank`] — replicated DUT instances,
//! one `u64` per lane per pin (see [`castanet_rtl::compiled`]) — as a
//! [`CoupledSimulator`], so `Coupling`, `ParallelCoupling`, strict
//! pre-flight and telemetry all work unchanged.
//! Lane 0 is the *coupled* lane: network stimulus lands there and its
//! egress cells flow back as response messages, byte-for-byte conformant
//! with [`crate::CycleCosim`] on the same traffic. Lanes 1..N carry
//! independent scenario instances seeded directly via
//! [`CompiledCosim::seed_cell`]; their egress accumulates in per-lane
//! traces read back with [`CompiledCosim::lane_cells`] — the N-seeds →
//! N-lanes → N-traces sweep the scenario layer exposes.
//!
//! Idle skipping is preserved across lanes: a clock may be skipped only
//! when *every* lane's DUT is quiescent and *no* lane has pending
//! stimulus, so per-lane traces are invariant to how other lanes are
//! loaded (a skipped clock is provably a no-op in every lane). With
//! traffic on lane 0 only, the evaluated/skipped counters match the
//! cycle-based follower exactly — the conformance suite pins this.

use crate::convert::ByteStreamAssembler;
use crate::coupling::CoupledSimulator;
use crate::cyclecosim::{EgressIndices, IngressIndices};
use crate::error::CastanetError;
use crate::message::{Message, MessagePayload, MessageTypeId};
use castanet_atm::addr::HeaderFormat;
use castanet_atm::cell::{AtmCell, CELL_OCTETS};
use castanet_netsim::time::{SimDuration, SimTime};
use castanet_obs::{Counter, Gauge, Phase, Telemetry, Track};
use castanet_rtl::compiled::LaneBank;
use std::collections::VecDeque;

#[derive(Clone)]
struct IngressLane {
    idx: IngressIndices,
    /// Per-lane first clock free for the next cell's first byte.
    next_free_clock: Vec<u64>,
}

#[derive(Clone)]
struct EgressLane {
    idx: EgressIndices,
    /// Per-lane cell reassembly state.
    assemblers: Vec<ByteStreamAssembler>,
    /// Per-lane egress traces (every completed cell, lane 0 included).
    traces: Vec<Vec<AtmCell>>,
}

/// The lane-batched coupled follower with bank-wide idle skipping.
pub struct CompiledCosim {
    bank: LaneBank,
    clock_period: SimDuration,
    clocks_done: u64,
    /// Per-lane per-clock input words for clocks `clocks_done..`; `None`
    /// slots are all-zero (idle line).
    stimulus: Vec<VecDeque<Option<Vec<u64>>>>,
    zero_inputs: Vec<u64>,
    ingress: Vec<IngressLane>,
    egress: Vec<EgressLane>,
    response_type: MessageTypeId,
    format: HeaderFormat,
    /// Clocks skipped thanks to bank-wide idle detection.
    skipped: u64,
    undecodable: u64,
    obs_evaluated: Gauge,
    obs_skipped: Gauge,
    /// `compiled.fallback_evals` — behavioral `LaneBank` clock edges.
    obs_fallback_evals: Counter,
    /// `compiled.lanes_active` — lanes with stimulus pending at the last
    /// sweep (the coupled lane counts while the run is live).
    obs_lanes_active: Gauge,
    /// `compiled.queue_depth` — deepest per-lane stimulus queue at the
    /// last sweep (the compiled analogue of `rtl.queue_depth`).
    obs_queue_depth: Gauge,
    /// `compiled.idle_skips` — bank-wide idle jumps taken (the compiled
    /// analogue of `rtl.wheel_cascade`: both count O(1) time leaps).
    obs_idle_skips: Counter,
    /// Telemetry handle for the sampled pack/eval/unpack micro-phases.
    tel: Telemetry,
}

impl std::fmt::Debug for CompiledCosim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledCosim")
            .field("lanes", &self.bank.lanes())
            .field("clocks_done", &self.clocks_done)
            .field("skipped", &self.skipped)
            .finish()
    }
}

impl CompiledCosim {
    /// Wraps a lane bank as a follower clocked at `clock_period`.
    #[must_use]
    pub fn new(
        bank: LaneBank,
        clock_period: SimDuration,
        response_type: MessageTypeId,
        format: HeaderFormat,
    ) -> Self {
        let zero_inputs = vec![0u64; bank.input_ports().len()];
        let lanes = bank.lanes();
        CompiledCosim {
            bank,
            clock_period,
            clocks_done: 0,
            stimulus: vec![VecDeque::new(); lanes],
            zero_inputs,
            ingress: Vec::new(),
            egress: Vec::new(),
            response_type,
            format,
            skipped: 0,
            undecodable: 0,
            obs_evaluated: Gauge::default(),
            obs_skipped: Gauge::default(),
            obs_fallback_evals: Counter::default(),
            obs_lanes_active: Gauge::default(),
            obs_queue_depth: Gauge::default(),
            obs_idle_skips: Counter::default(),
            tel: Telemetry::disabled(),
        }
    }

    /// Registers an ingress line (same pin indices in every lane); returns
    /// its co-simulation port index.
    pub fn add_ingress(&mut self, idx: IngressIndices) -> usize {
        self.ingress.push(IngressLane {
            idx,
            next_free_clock: vec![0; self.bank.lanes()],
        });
        self.ingress.len() - 1
    }

    /// Registers an egress line; returns its co-simulation port index.
    pub fn add_egress(&mut self, idx: EgressIndices) -> usize {
        let lanes = self.bank.lanes();
        self.egress.push(EgressLane {
            idx,
            assemblers: (0..lanes)
                .map(|_| ByteStreamAssembler::new(self.format))
                .collect(),
            traces: vec![Vec::new(); lanes],
        });
        self.egress.len() - 1
    }

    /// Number of scenario lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.bank.lanes()
    }

    /// Clocks actually evaluated (each evaluation steps *every* lane).
    #[must_use]
    pub fn clocks_evaluated(&self) -> u64 {
        self.bank.cycles()
    }

    /// Clocks skipped by bank-wide idle detection.
    #[must_use]
    pub fn clocks_skipped(&self) -> u64 {
        self.skipped
    }

    /// DUT output bytes that failed cell reassembly (any lane).
    #[must_use]
    pub fn undecodable(&self) -> u64 {
        self.undecodable
    }

    /// Read access to the lane bank.
    #[must_use]
    pub fn bank(&self) -> &LaneBank {
        &self.bank
    }

    /// Every cell lane `lane` emitted on egress line `port` so far, in
    /// emission order.
    #[must_use]
    pub fn lane_cells(&self, port: usize, lane: usize) -> &[AtmCell] {
        &self.egress[port].traces[lane]
    }

    /// Schedules `cell` into lane `lane` on ingress line `port` at (or
    /// after) `stamp` — the direct per-lane seeding path the scenario
    /// sweep uses for lanes the network model does not drive.
    ///
    /// # Errors
    ///
    /// [`CastanetError::UnknownPort`] for an unregistered ingress line,
    /// [`CastanetError::UnknownLane`] for a lane past the bank; conversion
    /// errors when the cell cannot be encoded.
    pub fn seed_cell(
        &mut self,
        lane: usize,
        port: usize,
        stamp: SimTime,
        cell: &AtmCell,
    ) -> Result<(), CastanetError> {
        if port >= self.ingress.len() {
            return Err(CastanetError::UnknownPort { port });
        }
        let lanes = self.bank.lanes();
        if lane >= lanes {
            return Err(CastanetError::UnknownLane { lane, lanes });
        }
        let wire = cell.encode(self.format)?;
        let start = self
            .clock_at_or_after(stamp)
            .max(self.ingress[port].next_free_clock[lane])
            .max(self.clocks_done);
        let idx = self.ingress[port].idx;
        for (k, &byte) in wire.iter().enumerate() {
            let slot = self.slot_mut(lane, start + k as u64);
            slot[idx.data] = u64::from(byte);
            slot[idx.sync] = u64::from(k == 0);
            slot[idx.enable] = 1;
        }
        self.ingress[port].next_free_clock[lane] = start + CELL_OCTETS as u64;
        Ok(())
    }

    fn clock_at_or_after(&self, t: SimTime) -> u64 {
        let period = self.clock_period.as_picos();
        let ps = t.as_picos();
        if ps <= period {
            return 0;
        }
        ps.div_ceil(period) - 1
    }

    fn slot_mut(&mut self, lane: usize, clock: u64) -> &mut Vec<u64> {
        debug_assert!(clock >= self.clocks_done);
        let idx = (clock - self.clocks_done) as usize;
        let queue = &mut self.stimulus[lane];
        while queue.len() <= idx {
            queue.push_back(None);
        }
        queue[idx].get_or_insert_with(|| self.zero_inputs.clone())
    }

    /// The earliest clock (absolute) with pending stimulus in any lane.
    fn next_stimulus_clock(&self) -> Option<u64> {
        self.stimulus
            .iter()
            .filter_map(|q| q.iter().position(Option::is_some))
            .min()
            .map(|off| self.clocks_done + off as u64)
    }

    fn run_clock(&mut self) -> Vec<Message> {
        // One sampling decision covers the clock's three micro-phases —
        // pack (drive each lane's stimulus onto its pins), the lane bank's
        // clock edge, and unpack (reassemble egress cells) — so a sampled
        // clock yields one complete pack/eval/unpack triple.
        let sampled = self.tel.micro_gate();
        let t_ps = (self.clocks_done + 1) * self.clock_period.as_picos();
        let mut mark = if sampled { self.tel.now_ns() } else { 0 };
        for lane in 0..self.bank.lanes() {
            match self.stimulus[lane].pop_front().flatten() {
                Some(v) => self.bank.set_inputs(lane, &v),
                None => self.bank.set_inputs(lane, &self.zero_inputs),
            }
        }
        if sampled {
            mark = self
                .tel
                .record_phase(Track::Follower, t_ps, Phase::CompiledPack, mark);
        }
        self.bank.clock_edge();
        self.obs_fallback_evals.inc();
        if sampled {
            mark = self
                .tel
                .record_phase(Track::Follower, t_ps, Phase::CompiledFallbackEval, mark);
        }
        self.clocks_done += 1;
        let stamp = SimTime::from_picos(self.clocks_done * self.clock_period.as_picos());
        let mut responses = Vec::new();
        for (port, line) in self.egress.iter_mut().enumerate() {
            for lane in 0..self.bank.lanes() {
                if self.bank.output(lane, line.idx.valid) != 1 {
                    continue;
                }
                let data = self.bank.output(lane, line.idx.data) as u8;
                let sync = self.bank.output(lane, line.idx.sync) == 1;
                match line.assemblers[lane].push(data, sync) {
                    Ok(Some(cell)) => {
                        line.traces[lane].push(cell.clone());
                        if lane == 0 {
                            responses.push(Message {
                                stamp,
                                type_id: self.response_type,
                                port,
                                payload: MessagePayload::Cell(cell),
                            });
                        }
                    }
                    Ok(None) => {}
                    Err(_) => {
                        self.undecodable += 1;
                        if lane == 0 {
                            responses.push(Message {
                                stamp,
                                type_id: self.response_type,
                                port,
                                payload: MessagePayload::Raw(vec![data]),
                            });
                        }
                    }
                }
            }
        }
        if sampled {
            self.tel.record_phase(
                Track::Follower,
                stamp.as_picos(),
                Phase::CompiledUnpack,
                mark,
            );
        }
        responses
    }

    fn advance_inner(&mut self, horizon: SimTime, stop_at_first: bool) -> Vec<Message> {
        let period = self.clock_period.as_picos();
        let target = horizon.as_picos().div_ceil(period).saturating_sub(1);
        let mut collected = Vec::new();
        if self.tel.is_enabled() {
            self.obs_lanes_active.set(
                self.stimulus
                    .iter()
                    .filter(|q| q.iter().any(Option::is_some))
                    .count() as u64,
            );
            self.obs_queue_depth
                .set(self.stimulus.iter().map(VecDeque::len).max().unwrap_or(0) as u64);
        }
        while self.clocks_done < target {
            // Idle skip: every lane's DUT quiescent and no stimulus
            // pending in any lane's window — a clock edge would change
            // nothing anywhere, so jump to the next stimulus clock (or
            // the horizon) in O(1).
            if self.bank.idle() {
                match self.next_stimulus_clock() {
                    None => {
                        self.skipped += target - self.clocks_done;
                        self.obs_idle_skips.inc();
                        for q in &mut self.stimulus {
                            q.clear();
                        }
                        self.clocks_done = target;
                        break;
                    }
                    Some(c) if c > self.clocks_done => {
                        let jump = (c - self.clocks_done).min(target - self.clocks_done);
                        self.skipped += jump;
                        self.obs_idle_skips.inc();
                        for q in &mut self.stimulus {
                            let n = (jump as usize).min(q.len());
                            q.drain(..n);
                        }
                        self.clocks_done += jump;
                        continue;
                    }
                    Some(_) => {}
                }
            }
            let responses = self.run_clock();
            if !responses.is_empty() {
                if stop_at_first {
                    self.publish_clock_gauges();
                    return responses;
                }
                collected.extend(responses);
            }
        }
        self.publish_clock_gauges();
        collected
    }

    fn publish_clock_gauges(&self) {
        self.obs_evaluated.set(self.bank.cycles());
        self.obs_skipped.set(self.skipped);
    }
}

impl CoupledSimulator for CompiledCosim {
    fn deliver(&mut self, msg: Message) -> Result<(), CastanetError> {
        let MessagePayload::Cell(cell) = &msg.payload else {
            return Err(CastanetError::Convert(format!(
                "compiled follower can only play cell payloads, got {}",
                msg.payload.kind()
            )));
        };
        let cell = cell.clone();
        self.seed_cell(0, msg.port, msg.stamp, &cell)
    }

    fn advance_until(&mut self, horizon: SimTime) -> Result<Vec<Message>, CastanetError> {
        Ok(self.advance_inner(horizon, true))
    }

    fn advance_batch(&mut self, horizon: SimTime) -> Result<Vec<Message>, CastanetError> {
        Ok(self.advance_inner(horizon, false))
    }

    fn now(&self) -> SimTime {
        SimTime::from_picos(self.clocks_done * self.clock_period.as_picos())
    }

    fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = tel.clone();
        self.obs_evaluated = tel.gauge("follower.clocks_evaluated");
        self.obs_skipped = tel.gauge("follower.clocks_skipped");
        self.obs_fallback_evals = tel.counter("compiled.fallback_evals");
        self.obs_lanes_active = tel.gauge("compiled.lanes_active");
        self.obs_queue_depth = tel.gauge("compiled.queue_depth");
        self.obs_idle_skips = tel.counter("compiled.idle_skips");
    }

    fn structural_preflight(&self) -> Vec<String> {
        let mut findings = Vec::new();
        let ins = self.bank.input_ports();
        let outs = self.bank.output_ports();
        for (port, line) in self.ingress.iter().enumerate() {
            for (pin, i) in [
                ("data", line.idx.data),
                ("sync", line.idx.sync),
                ("enable", line.idx.enable),
            ] {
                if i >= ins.len() {
                    findings.push(format!(
                        "CAST150: compiled ingress {port} {pin} pin index {i} out of range \
                         ({} input ports on the lane bank)",
                        ins.len()
                    ));
                    continue;
                }
                let want = if pin == "data" { 8 } else { 1 };
                if ins[i].width < want {
                    findings.push(format!(
                        "CAST151: compiled ingress {port} {pin} pin '{}' is {} bits wide, \
                         needs {want}",
                        ins[i].name, ins[i].width
                    ));
                }
            }
        }
        for (port, line) in self.egress.iter().enumerate() {
            for (pin, i) in [
                ("data", line.idx.data),
                ("sync", line.idx.sync),
                ("valid", line.idx.valid),
            ] {
                if i >= outs.len() {
                    findings.push(format!(
                        "CAST150: compiled egress {port} {pin} pin index {i} out of range \
                         ({} output ports on the lane bank)",
                        outs.len()
                    ));
                    continue;
                }
                let want = if pin == "data" { 8 } else { 1 };
                if outs[i].width < want {
                    findings.push(format!(
                        "CAST151: compiled egress {port} {pin} pin '{}' is {} bits wide, \
                         needs {want}",
                        outs[i].name, outs[i].width
                    ));
                }
            }
        }
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use castanet_atm::addr::VpiVci;
    use castanet_rtl::cycle::CycleDut;
    use castanet_rtl::dut::{AtmSwitchRtl, SwitchRtlConfig};

    const CLK: SimDuration = SimDuration::from_ns(20);

    fn switch() -> AtmSwitchRtl {
        let mut s = AtmSwitchRtl::new(SwitchRtlConfig {
            ports: 2,
            fifo_capacity: 32,
            table_capacity: 8,
        });
        assert!(s.install_route(1, 40, 1, 7, 70));
        s
    }

    fn fixture(lanes: usize) -> CompiledCosim {
        let duts: Vec<Box<dyn CycleDut>> = (0..lanes).map(|_| Box::new(switch()) as _).collect();
        let bank = LaneBank::new(duts);
        let mut cosim = CompiledCosim::new(bank, CLK, MessageTypeId(9), HeaderFormat::Uni);
        cosim.add_ingress(IngressIndices {
            data: 0,
            sync: 1,
            enable: 2,
        });
        cosim.add_ingress(IngressIndices {
            data: 3,
            sync: 4,
            enable: 5,
        });
        cosim.add_egress(EgressIndices {
            data: 0,
            sync: 1,
            valid: 2,
        });
        cosim.add_egress(EgressIndices {
            data: 3,
            sync: 4,
            valid: 5,
        });
        cosim
    }

    fn cell(vci: u16) -> AtmCell {
        AtmCell::user_data(VpiVci::uni(1, vci).unwrap(), [0x42; 48])
    }

    #[test]
    fn lane_zero_switches_a_cell_like_the_cycle_follower() {
        let mut cosim = fixture(4);
        cosim
            .deliver(Message::cell(SimTime::ZERO, MessageTypeId(0), 0, cell(40)))
            .unwrap();
        let responses = cosim.advance_until(SimTime::from_us(10)).unwrap();
        assert_eq!(responses.len(), 1);
        assert_eq!(
            responses[0].as_cell().unwrap().id(),
            VpiVci::uni(7, 70).unwrap()
        );
        // The response is also on lane 0's egress trace, and only there.
        assert_eq!(cosim.lane_cells(1, 0).len(), 1);
        assert!(cosim.lane_cells(1, 1).is_empty());
    }

    #[test]
    fn seeded_lanes_produce_independent_traces() {
        let mut cosim = fixture(3);
        for lane in 0..3 {
            for k in 0..=u8::try_from(lane).unwrap() {
                cosim
                    .seed_cell(lane, 0, SimTime::from_us(5 * (u64::from(k) + 1)), &cell(40))
                    .unwrap();
            }
        }
        cosim.advance_batch(SimTime::from_us(100)).unwrap();
        for lane in 0..3 {
            assert_eq!(
                cosim.lane_cells(1, lane).len(),
                lane + 1,
                "lane {lane} trace length"
            );
            for c in cosim.lane_cells(1, lane) {
                assert_eq!(c.id(), VpiVci::uni(7, 70).unwrap());
            }
        }
    }

    #[test]
    fn seed_cell_rejects_an_unknown_lane_or_port() {
        let mut cosim = fixture(3);
        assert!(matches!(
            cosim.seed_cell(3, 0, SimTime::ZERO, &cell(40)),
            Err(CastanetError::UnknownLane { lane: 3, lanes: 3 })
        ));
        assert!(matches!(
            cosim.seed_cell(0, 2, SimTime::ZERO, &cell(40)),
            Err(CastanetError::UnknownPort { port: 2 })
        ));
        // Nothing was queued: the bank stays idle and skips the window.
        cosim.advance_batch(SimTime::from_us(10)).unwrap();
        assert_eq!(cosim.clocks_evaluated(), 0);
    }

    #[test]
    fn idle_skip_requires_every_lane_quiet() {
        let mut cosim = fixture(2);
        // Far-future stimulus on lane 1 only: the bank still skips the
        // gap (both DUTs idle until then), then evaluates lane 1's cell.
        cosim
            .seed_cell(1, 0, SimTime::from_us(100), &cell(40))
            .unwrap();
        cosim.advance_batch(SimTime::from_us(200)).unwrap();
        assert!(cosim.clocks_skipped() > 4000, "{}", cosim.clocks_skipped());
        assert!(
            cosim.clocks_evaluated() < 400,
            "{}",
            cosim.clocks_evaluated()
        );
        assert_eq!(cosim.lane_cells(1, 1).len(), 1);
    }

    #[test]
    fn preflight_flags_bad_pins() {
        let duts: Vec<Box<dyn CycleDut>> = vec![Box::new(switch())];
        let mut cosim = CompiledCosim::new(
            LaneBank::new(duts),
            CLK,
            MessageTypeId(9),
            HeaderFormat::Uni,
        );
        cosim.add_ingress(IngressIndices {
            data: 99,
            sync: 1,
            enable: 2,
        });
        cosim.add_egress(EgressIndices {
            data: 1, // 1-bit sync pin used as the 8-bit data pin
            sync: 4,
            valid: 5,
        });
        let findings = cosim.structural_preflight();
        assert!(
            findings.iter().any(|f| f.starts_with("CAST150")),
            "{findings:?}"
        );
        assert!(
            findings.iter().any(|f| f.starts_with("CAST151")),
            "{findings:?}"
        );
        assert!(fixture(1).structural_preflight().is_empty());
    }
}
