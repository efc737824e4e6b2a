//! The cycle-based follower — the paper's §5 conclusion, implemented.
//!
//! "Event-driven VHDL simulators are obviously a bottleneck in the
//! co-verification process. … Thus, the integration of cycle-based
//! simulation techniques is required." [`CycleCosim`] is that integration:
//! the same pin-level DUT runs under the cycle engine, one `clock_edge`
//! call per clock, with **idle skipping** — when no stimulus is pending and
//! the DUT reports quiescence ([`castanet_rtl::cycle::CycleDut::is_idle`]),
//! whole stretches of simulated time advance in O(1). Delivered cells wait
//! in a stimulus window as cells, expanded to pin values only at the clock
//! that samples them, and the DUT writes into its lane's own output row, so
//! an evaluated clock allocates nothing unless it completes a cell. The
//! E1/E7 benches compare this follower against the event-driven
//! [`crate::RtlCosim`] on identical workloads.
//!
//! # Lanes
//!
//! The follower runs a [`LaneBank`] of 1 to 64 replicated DUTs; its lane
//! count is the bank's. Lane 0 is the *coupled* lane: network stimulus
//! lands there and its cells leave only as responses. Lanes 1..N are
//! seeded with [`CycleCosim::seed_cell`] and keep per-lane traces, read
//! with [`CycleCosim::lane_cells`]. Each lane runs through the advance
//! window on its own, idle-skipping while its DUT is idle;
//! [`CoupledSimulator::advance_batch`] on more than one lane spreads the
//! lanes with work over one thread per host core. A clock counts as
//! evaluated when some lane evaluated it ([`CycleDut::is_idle`] makes a
//! skipped clock a no-op in its lane), so with traffic on lane 0 only the
//! counters do not depend on the lane count. DESIGN.md §14 has the detail.
//!
//! [`CycleDut::is_idle`]: castanet_rtl::cycle::CycleDut::is_idle

use crate::convert::ByteStreamAssembler;
use crate::coupling::CoupledSimulator;
use crate::error::CastanetError;
use crate::message::{Message, MessagePayload, MessageTypeId};
use crate::stimulus::{clock_at_or_after, StimulusWindow};
use castanet_atm::addr::HeaderFormat;
use castanet_atm::cell::AtmCell;
use castanet_netsim::time::{SimDuration, SimTime};
use castanet_obs::{Counter, Gauge, Phase, Telemetry, Track};
use castanet_rtl::compiled::{Lane, LaneBank};
use castanet_rtl::cycle::PortDecl;
use std::num::NonZeroUsize;
use std::sync::OnceLock;

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
    /// Checks the pins against the DUT's input ports and against the
    /// pins of the ingress lines already `registered`.
    pub(crate) fn check(
        &self,
        ports: &[PortDecl],
        registered: impl Iterator<Item = IngressIndices>,
    ) -> Result<(), CastanetError> {
        let pins = [
            ("data", self.data),
            ("sync", self.sync),
            ("enable", self.enable),
        ];
        let driven: Vec<usize> = registered
            .flat_map(|l| [l.data, l.sync, l.enable])
            .collect();
        check_line("ingress", pins, ports, Some(&driven))
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
        check_line("egress", pins, ports, None)
    }
}

/// Rejects a line whose pin index is past the DUT's port list (`CAST150`)
/// or whose data pin is narrower than a byte (`CAST151`). Strobes need one
/// bit, which every declared port has. `driven` is `Some` for a line the
/// follower drives, holding the pins other lines already drive: each pin
/// of such a line must be its own and no other line's (`CAST152`), or the
/// pin's value would depend on which line was driven last.
fn check_line(
    line: &str,
    pins: [(&str, usize); 3],
    ports: &[PortDecl],
    driven: Option<&[usize]>,
) -> Result<(), CastanetError> {
    let misfit = pins
        .iter()
        .find_map(|&(role, index)| match ports.get(index) {
            None => Some(format!(
                "CAST150: {line} {role} pin index {index} out of range ({} ports on the DUT)",
                ports.len()
            )),
            Some(p) if role == "data" && p.width < 8 => Some(format!(
                "CAST151: {line} data pin '{}' is {} bits wide, needs 8",
                p.name, p.width
            )),
            Some(_) => None,
        });
    let shared = || {
        let driven = driven?;
        pins.iter().enumerate().find_map(|(k, &(role, index))| {
            let name = &ports[index].name;
            if let Some((twin, _)) = pins[..k].iter().find(|&&(_, other)| other == index) {
                Some(format!(
                    "CAST152: {line} {role} pin '{name}' is also the line's {twin} pin"
                ))
            } else if driven.contains(&index) {
                Some(format!(
                    "CAST152: {line} {role} pin '{name}' is already driven by another {line} line"
                ))
            } else {
                None
            }
        })
    };
    match misfit.or_else(shared) {
        Some(finding) => Err(CastanetError::Preflight(vec![finding])),
        None => Ok(()),
    }
}

/// What the follower keeps for one lane's DUT.
struct LaneState {
    /// Delivered cells; its clock is the lane's next one to evaluate.
    stimulus: StimulusWindow,
    /// Per egress line: cell reassembly state.
    assemblers: Vec<ByteStreamAssembler>,
    /// Per egress line: every completed cell (lanes 1..N only; lane 0's
    /// cells go out as responses).
    traces: Vec<Vec<AtmCell>>,
    undecodable: u64,
    /// `[start, end)` runs of the clocks evaluated in the latest sweep.
    runs: Vec<(u64, u64)>,
    /// End stamp of the lane's last `cycle.eval` span, reused as the next
    /// span's start when the very next clock is also sampled — halving the
    /// clock reads on back-to-back sampled clocks. `0` means "stale":
    /// anything that breaks clock adjacency (an unsampled clock, an idle
    /// skip, a new sweep) resets it.
    phase_stamp: u64,
}

/// What every lane of one sweep reads.
struct Sweep<'a> {
    /// Clock to run each lane up to (exclusive).
    target: u64,
    period_ps: u64,
    egress: &'a [EgressIndices],
    response_type: MessageTypeId,
    tel: &'a Telemetry,
}

impl LaneState {
    /// Runs the lane from its window's clock up to `sweep.target`:
    /// idle-skips while its DUT is idle, clocks it otherwise. With
    /// `responses` (lane 0, handed an empty `Vec`), appends the cells the
    /// lane completes and, if `stop_at_first`, stops after the first clock
    /// that completes one.
    fn run(
        &mut self,
        dut: &mut Lane<'_>,
        sweep: &Sweep<'_>,
        mut responses: Option<&mut Vec<Message>>,
        stop_at_first: bool,
    ) -> Result<(), CastanetError> {
        self.runs.clear();
        // A sweep starts from non-clock work (sync, delivery), so the
        // cached span stamp no longer abuts the next evaluation.
        self.phase_stamp = 0;
        while self.stimulus.now() < sweep.target {
            if dut.is_idle() {
                let remaining = sweep.target - self.stimulus.now();
                if self.stimulus.skip_idle(remaining) > 0 {
                    self.phase_stamp = 0;
                    continue;
                }
            }
            let clock = self.stimulus.now();
            match self.runs.last_mut() {
                Some((_, end)) if *end == clock => *end += 1,
                _ => self.runs.push((clock, clock + 1)),
            }
            self.run_clock(dut, sweep, responses.as_deref_mut())?;
            if stop_at_first && responses.as_ref().is_some_and(|r| !r.is_empty()) {
                break;
            }
        }
        Ok(())
    }

    /// Evaluates the window's clock on the lane's DUT and reassembles its
    /// egress: into `responses` when given, else into the lane's traces.
    fn run_clock(
        &mut self,
        dut: &mut Lane<'_>,
        sweep: &Sweep<'_>,
        mut responses: Option<&mut Vec<Message>>,
    ) -> Result<(), CastanetError> {
        // `cycle.eval` (the edge and moving the window on) is a per-clock
        // micro-phase: sampled 1-in-N, so the two clock reads are paid once
        // per stride, not per clock.
        let tel = sweep.tel;
        let sampled = tel.micro_gate();
        let start = if !sampled {
            self.phase_stamp = 0;
            0
        } else if self.phase_stamp != 0 {
            self.phase_stamp
        } else {
            tel.now_ns()
        };
        dut.clock_edge(self.stimulus.front())?;
        self.stimulus.pop_front();
        let t_ps = self.stimulus.now() * sweep.period_ps;
        if sampled {
            self.phase_stamp = tel.record_phase(Track::Follower, t_ps, Phase::CycleEval, start);
        }
        let outs = dut.outputs();
        for (port, idx) in sweep.egress.iter().enumerate() {
            if outs[idx.valid] != 1 {
                continue;
            }
            let data = outs[idx.data] as u8;
            let sync = outs[idx.sync] == 1;
            let payload = match self.assemblers[port].push(data, sync) {
                Ok(None) => continue,
                Ok(Some(cell)) => MessagePayload::Cell(cell),
                Err(_) => {
                    self.undecodable += 1;
                    MessagePayload::Raw(vec![data])
                }
            };
            match responses.as_deref_mut() {
                Some(responses) => responses.push(Message {
                    stamp: SimTime::from_picos(t_ps),
                    type_id: sweep.response_type,
                    port,
                    payload,
                }),
                None => {
                    if let MessagePayload::Cell(cell) = payload {
                        self.traces[port].push(cell);
                    }
                }
            }
        }
        Ok(())
    }
}

/// Worker threads for a sweep: one per core the host reports, asked once.
fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Runs `work` (lane 0 first) through `sweep`, in contiguous chunks on
/// one thread per host core; the calling thread runs the chunk that holds
/// lane 0 and collects its responses. A lane's panic is re-raised on the
/// caller with its own payload; of the lanes' errors, the first in lane
/// order is returned.
fn fan_out(
    work: &mut [(Lane<'_>, &mut LaneState)],
    sweep: &Sweep<'_>,
    responses: &mut Vec<Message>,
) -> Result<(), CastanetError> {
    let chunk = work.len().div_ceil(host_threads().min(work.len()));
    let (own, rest) = work.split_at_mut(chunk);
    if rest.is_empty() {
        return run_chunk(own, sweep, Some(responses));
    }
    std::thread::scope(|s| {
        let workers: Vec<_> = rest
            .chunks_mut(chunk)
            .map(|chunk| s.spawn(move || run_chunk(chunk, sweep, None)))
            .collect();
        let mut result = run_chunk(own, sweep, Some(responses));
        for worker in workers {
            match worker.join() {
                Ok(chunk_result) => result = result.and(chunk_result),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        result
    })
}

/// Runs each lane of `chunk` through `sweep`; the first one appends its
/// cells to `responses`.
fn run_chunk(
    chunk: &mut [(Lane<'_>, &mut LaneState)],
    sweep: &Sweep<'_>,
    mut responses: Option<&mut Vec<Message>>,
) -> Result<(), CastanetError> {
    for (dut, lane) in chunk {
        lane.run(dut, sweep, responses.take(), false)?;
    }
    Ok(())
}

/// The cycle-based coupled follower with per-lane idle skipping.
pub struct CycleCosim {
    bank: LaneBank,
    clock_period: SimDuration,
    /// The clock every lane's window is at between advances.
    clocks_done: u64,
    /// Per-lane stimulus, egress and evaluated clock runs.
    lanes: Vec<LaneState>,
    egress: Vec<EgressIndices>,
    response_type: MessageTypeId,
    format: HeaderFormat,
    /// Clocks at which some lane was evaluated.
    evaluated: u64,
    /// Clocks at which every lane was idle.
    skipped: u64,
    /// Every lane's clock runs of the latest sweep, merged.
    runs: Vec<(u64, u64)>,
    /// `follower.clocks_evaluated` (a no-op until telemetry is attached).
    obs_evaluated: Gauge,
    /// `follower.clocks_skipped` (a no-op until telemetry is attached).
    obs_skipped: Gauge,
    /// `compiled.fallback_evals` — clocks at which some lane's DUT was
    /// clocked.
    obs_fallback_evals: Counter,
    /// `compiled.lanes_active` — lanes with stimulus pending at the last
    /// sweep (the coupled lane counts while the run is live).
    obs_lanes_active: Gauge,
    /// `compiled.queue_depth` — deepest per-lane stimulus queue at the
    /// last sweep (the analogue of `rtl.queue_depth`).
    obs_queue_depth: Gauge,
    /// `compiled.idle_skips` — stretches of clocks at which every lane
    /// was idle (the analogue of `rtl.wheel_cascade`: both count O(1)
    /// time leaps).
    obs_idle_skips: Counter,
    /// Telemetry handle for the sampled `cycle.eval` micro-phase.
    tel: Telemetry,
}

impl std::fmt::Debug for CycleCosim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CycleCosim")
            .field("lanes", &self.bank.lanes())
            .field("clocks_done", &self.clocks_done)
            .field("skipped", &self.skipped)
            .finish()
    }
}

impl CycleCosim {
    /// Wraps a lane bank as a follower clocked at `clock_period`, with one
    /// lane per DUT of the bank.
    #[must_use]
    pub fn new(
        bank: LaneBank,
        clock_period: SimDuration,
        response_type: MessageTypeId,
        format: HeaderFormat,
    ) -> Self {
        let stride = bank.input_ports().len();
        CycleCosim {
            lanes: (0..bank.lanes())
                .map(|_| LaneState {
                    stimulus: StimulusWindow::new(stride),
                    assemblers: Vec::new(),
                    traces: Vec::new(),
                    undecodable: 0,
                    runs: Vec::new(),
                    phase_stamp: 0,
                })
                .collect(),
            bank,
            clock_period,
            clocks_done: 0,
            egress: Vec::new(),
            response_type,
            format,
            evaluated: 0,
            skipped: 0,
            runs: Vec::new(),
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
    ///
    /// # Errors
    ///
    /// [`CastanetError::Preflight`] with one `CAST150` finding for a pin
    /// index past the DUT's input ports, `CAST151` for a data pin
    /// narrower than 8 bits, or `CAST152` for a pin the line uses twice or
    /// shares with an ingress line registered before.
    pub fn add_ingress(&mut self, idx: IngressIndices) -> Result<usize, CastanetError> {
        idx.check(self.bank.input_ports(), self.lanes[0].stimulus.pins())?;
        for lane in &mut self.lanes {
            lane.stimulus.add_line(idx);
        }
        Ok(self.lanes[0].stimulus.lines() - 1)
    }

    /// Registers an egress line; returns its co-simulation port index.
    ///
    /// # Errors
    ///
    /// As [`CycleCosim::add_ingress`], against the DUT's output ports.
    pub fn add_egress(&mut self, idx: EgressIndices) -> Result<usize, CastanetError> {
        idx.check(self.bank.output_ports())?;
        self.egress.push(idx);
        for lane in &mut self.lanes {
            lane.assemblers.push(ByteStreamAssembler::new(self.format));
            lane.traces.push(Vec::new());
        }
        Ok(self.egress.len() - 1)
    }

    /// Number of scenario lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.bank.lanes()
    }

    /// Clocks at which some lane was evaluated.
    #[must_use]
    pub fn clocks_evaluated(&self) -> u64 {
        self.evaluated
    }

    /// Clocks skipped because every lane was idle on them.
    #[must_use]
    pub fn clocks_skipped(&self) -> u64 {
        self.skipped
    }

    /// DUT output bytes that failed cell reassembly (any lane).
    #[must_use]
    pub fn undecodable(&self) -> u64 {
        self.lanes.iter().map(|lane| lane.undecodable).sum()
    }

    /// Every cell lane `lane` emitted on egress line `port` so far, in
    /// emission order. Lane 0's cells leave as responses and are not kept:
    /// its trace is always empty.
    #[must_use]
    pub fn lane_cells(&self, port: usize, lane: usize) -> &[AtmCell] {
        &self.lanes[lane].traces[port]
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
        if port >= self.lanes[0].stimulus.lines() {
            return Err(CastanetError::UnknownPort { port });
        }
        let lanes = self.bank.lanes();
        if lane >= lanes {
            return Err(CastanetError::UnknownLane { lane, lanes });
        }
        let wire = cell.encode(self.format)?;
        let earliest = clock_at_or_after(stamp, self.clock_period);
        self.lanes[lane].stimulus.put_cell(port, earliest, &wire);
        Ok(())
    }

    fn advance_inner(
        &mut self,
        horizon: SimTime,
        stop_at_first: bool,
    ) -> Result<Vec<Message>, CastanetError> {
        let period_ps = self.clock_period.as_picos();
        let target = horizon.as_picos().div_ceil(period_ps).saturating_sub(1);
        let mut collected = Vec::new();
        if self.tel.is_enabled() {
            let windows = self.lanes.iter().map(|lane| &lane.stimulus);
            self.obs_lanes_active
                .set(windows.clone().filter(|w| w.has_stimulus()).count() as u64);
            self.obs_queue_depth
                .set(windows.map(StimulusWindow::len).max().unwrap_or(0) as u64);
        }
        let start = self.clocks_done;
        if start >= target {
            self.publish_clock_gauges();
            return Ok(collected);
        }
        let mut sweep = Sweep {
            target,
            period_ps,
            egress: &self.egress,
            response_type: self.response_type,
            tel: &self.tel,
        };
        let mut lanes = self.bank.lanes_mut().zip(&mut self.lanes);
        if stop_at_first || lanes.len() == 1 {
            // Lane 0 (up to its first response, when asked: a serial
            // coupling calls this several times per cell), then every
            // other lane up to the same clock, all on this thread.
            let (mut dut, lane0) = lanes.next().expect("a bank has a lane");
            lane0.run(&mut dut, &sweep, Some(&mut collected), stop_at_first)?;
            sweep.target = lane0.stimulus.now();
            for (mut dut, lane) in lanes {
                lane.run(&mut dut, &sweep, None, false)?;
            }
        } else {
            // Lanes with nothing to do take their one skip here; lane 0
            // and the lanes with work fan out.
            let mut work = Vec::with_capacity(lanes.len());
            for (k, (mut dut, lane)) in lanes.enumerate() {
                if k == 0 || !dut.is_idle() || lane.stimulus.stimulus_before(target) {
                    work.push((dut, lane));
                } else {
                    lane.run(&mut dut, &sweep, None, false)?;
                }
            }
            fan_out(&mut work, &sweep, &mut collected)?;
        }
        let end = sweep.target;
        self.clocks_done = end;
        self.count_clocks(start, end);
        self.publish_clock_gauges();
        Ok(collected)
    }

    /// Adds the window `[start, end)` to the clock counters: a clock is
    /// evaluated when some lane evaluated it — the union of the lanes'
    /// runs — and skipped otherwise.
    fn count_clocks(&mut self, start: u64, end: u64) {
        self.runs.clear();
        for lane in &self.lanes {
            self.runs.extend_from_slice(&lane.runs);
        }
        self.runs.sort_unstable();
        let (mut evaluated, mut gaps, mut reach) = (0, 0, start);
        for &(first, last) in &self.runs {
            if first > reach {
                gaps += 1;
            }
            if last > reach {
                evaluated += last - first.max(reach);
                reach = last;
            }
        }
        if end > reach {
            gaps += 1;
        }
        self.evaluated += evaluated;
        self.skipped += end - start - evaluated;
        self.obs_fallback_evals.add(evaluated);
        self.obs_idle_skips.add(gaps);
    }

    fn publish_clock_gauges(&self) {
        self.obs_evaluated.set(self.evaluated);
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
        self.seed_cell(0, msg.port, msg.stamp, cell)
    }

    fn advance_until(&mut self, horizon: SimTime) -> Result<Vec<Message>, CastanetError> {
        self.advance_inner(horizon, true)
    }

    fn advance_batch(&mut self, horizon: SimTime) -> Result<Vec<Message>, CastanetError> {
        // One uninterrupted sweep to the horizon: egress cells are stamped
        // at their capture clock, so collecting them at the end of the
        // window loses no timing information.
        self.advance_inner(horizon, false)
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

    /// A follower over `lanes` 2-port switches, both lines registered.
    fn fixture(lanes: usize) -> CycleCosim {
        let duts: Vec<Box<dyn CycleDut>> = (0..lanes).map(|_| Box::new(switch()) as _).collect();
        let mut cosim = CycleCosim::new(
            LaneBank::new(duts),
            CLK,
            MessageTypeId(9),
            HeaderFormat::Uni,
        );
        for line in 0..2 {
            let (data, sync, strobe) = (3 * line, 3 * line + 1, 3 * line + 2);
            let ingress = IngressIndices {
                data,
                sync,
                enable: strobe,
            };
            let egress = EgressIndices {
                data,
                sync,
                valid: strobe,
            };
            cosim.add_ingress(ingress).unwrap();
            cosim.add_egress(egress).unwrap();
        }
        cosim
    }

    fn cell(vci: u16) -> AtmCell {
        AtmCell::user_data(VpiVci::uni(1, vci).unwrap(), [0x42; 48])
    }

    #[test]
    fn lane_zero_switches_a_cell_at_every_lane_count() {
        for lanes in [1, 4] {
            let mut cosim = fixture(lanes);
            cosim
                .deliver(Message::cell(SimTime::ZERO, MessageTypeId(0), 0, cell(40)))
                .unwrap();
            let responses = cosim.advance_until(SimTime::from_us(10)).unwrap();
            assert_eq!(responses.len(), 1, "{lanes} lanes");
            let out = responses[0].as_cell().unwrap();
            assert_eq!(out.id(), VpiVci::uni(7, 70).unwrap());
            assert_eq!(out.payload, [0x42; 48]);
            // The response is the cell's only record.
            assert!((0..lanes).all(|lane| cosim.lane_cells(1, lane).is_empty()));
        }
    }

    #[test]
    fn idle_clocks_are_skipped_not_evaluated() {
        for lanes in [1, 2] {
            let mut cosim = fixture(lanes);
            // A cell stamped far in the future on the last lane: the gap
            // must be skipped, on every lane at once.
            let stamp = SimTime::from_us(100); // 5000 clocks at 20 ns
            cosim.seed_cell(lanes - 1, 0, stamp, &cell(40)).unwrap();
            let responses = cosim.advance_batch(SimTime::from_us(200)).unwrap();
            let traced = cosim.lane_cells(1, lanes - 1).len();
            assert_eq!(responses.len() + traced, 1, "{lanes} lanes");
            let (evaluated, skipped) = (cosim.clocks_evaluated(), cosim.clocks_skipped());
            // Evaluated clocks: roughly the 2x53 transfer clocks plus slack.
            assert!(skipped > 4000 && evaluated < 400, "{evaluated}/{skipped}");
        }
    }

    #[test]
    fn busy_dut_is_not_skipped() {
        let mut cosim = fixture(1);
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
        let mut cosim = fixture(1);
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
        let mut cosim = fixture(1);
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
    fn seeded_lanes_produce_independent_traces() {
        let mut cosim = fixture(3);
        for lane in 0..3 {
            for k in 0..=u8::try_from(lane).unwrap() {
                cosim
                    .seed_cell(lane, 0, SimTime::from_us(5 * (u64::from(k) + 1)), &cell(40))
                    .unwrap();
            }
        }
        let responses = cosim.advance_batch(SimTime::from_us(100)).unwrap();
        // Lane 0's cell answers as a response; lanes 1 and 2 keep theirs.
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].port, 1);
        for lane in 1..3 {
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
    fn lines_on_missing_or_narrow_pins_are_rejected() {
        for lanes in [1, 3] {
            let mut cosim = fixture(lanes);
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
            // The 2-port switch has 12 input and 9 output ports; port 1 is
            // a 1-bit strobe on both sides.
            assert_eq!(finding(cosim.add_ingress(ingress(0, 12))), "CAST150");
            assert_eq!(finding(cosim.add_egress(egress(0, 9))), "CAST150");
            assert_eq!(finding(cosim.add_ingress(ingress(1, 2))), "CAST151");
            assert_eq!(finding(cosim.add_egress(egress(1, 2))), "CAST151");
            // Nothing was registered by the rejected calls, in any lane:
            // the next line on free pins (the configuration inputs) is
            // line 2.
            assert!(matches!(
                cosim.seed_cell(lanes - 1, 2, SimTime::ZERO, &cell(40)),
                Err(CastanetError::UnknownPort { port: 2 })
            ));
            let free = IngressIndices {
                data: 7,
                sync: 6,
                enable: 9,
            };
            assert_eq!(cosim.add_ingress(free).unwrap(), 2, "{lanes} lanes");
        }
    }

    #[test]
    fn ingress_lines_on_shared_pins_are_rejected() {
        for lanes in [1, 3] {
            let mut cosim = fixture(lanes);
            let rejected = |r: Result<usize, CastanetError>| match r {
                Err(CastanetError::Preflight(f)) if f.len() == 1 && f[0].starts_with("CAST152") => {
                    f[0].clone()
                }
                other => panic!("expected one CAST152 finding, got {other:?}"),
            };
            // Ports 6..=11 are the switch's free configuration inputs; 6
            // is a 1-bit strobe, 7 is 8 bits wide.
            let own = rejected(cosim.add_ingress(IngressIndices {
                data: 7,
                sync: 6,
                enable: 6,
            }));
            assert!(
                own.contains("enable pin 'cfg_valid' is also the line's sync pin"),
                "{own}"
            );
            // Line 1 already drives port 5 (`rx_en1`).
            let shared = rejected(cosim.add_ingress(IngressIndices {
                data: 7,
                sync: 6,
                enable: 5,
            }));
            assert!(shared.contains("'rx_en1' is already driven"), "{shared}");
            // Nothing was registered by the rejected calls, in any lane.
            assert!(matches!(
                cosim.seed_cell(lanes - 1, 2, SimTime::ZERO, &cell(40)),
                Err(CastanetError::UnknownPort { port: 2 })
            ));
            // Egress lines only read their pins: sharing one is allowed.
            assert_eq!(
                cosim
                    .add_egress(EgressIndices {
                        data: 3,
                        sync: 4,
                        valid: 5,
                    })
                    .unwrap(),
                2
            );
            let free = IngressIndices {
                data: 7,
                sync: 6,
                enable: 9,
            };
            assert_eq!(cosim.add_ingress(free).unwrap(), 2, "{lanes} lanes");
            assert_eq!(
                rejected(cosim.add_ingress(free)),
                "CAST152: ingress data pin 'cfg_in_vpi' is already driven by another ingress line"
            );
        }
    }
}
