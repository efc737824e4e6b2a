//! The lane-batched cycle follower: up to 64 scenario lanes, each clocked
//! through the advance window on its own.
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
//! Lanes share no state, so the follower runs them *lane-major*: each lane
//! keeps what [`crate::CycleCosim`] keeps for its one DUT (a stimulus
//! window, egress assemblers) and runs the same loop through the whole
//! window — idle-skipping its own window while its DUT is idle, clocking
//! it otherwise. An idle or finished lane costs one skip per window.
//! [`CoupledSimulator::advance_batch`] spreads the lanes that have work in
//! the window over one scoped thread per core the host reports, the
//! calling thread running the chunk that holds lane 0;
//! [`CoupledSimulator::advance_until`] runs lane 0 up to its first
//! response, then the other lanes up to the same clock, all on the calling
//! thread.
//!
//! The counters still describe one clock shared by every lane. A skipped
//! clock is a provable no-op in its lane ([`CycleDut::is_idle`] with inert
//! inputs), so a clock the lanes once evaluated together is exactly a
//! clock at which some lane is busy: each lane records the runs of clocks
//! it evaluated, and their union is added to
//! [`CompiledCosim::clocks_evaluated`] and to `compiled.fallback_evals`;
//! the rest of the window is [`CompiledCosim::clocks_skipped`]. With
//! traffic on lane 0 only, the counters match the cycle-based follower
//! exactly — the conformance suite pins this.
//!
//! [`CycleDut::is_idle`]: castanet_rtl::cycle::CycleDut::is_idle

use crate::convert::ByteStreamAssembler;
use crate::coupling::CoupledSimulator;
use crate::cyclecosim::{EgressIndices, IngressIndices};
use crate::error::CastanetError;
use crate::message::{Message, MessagePayload, MessageTypeId};
use crate::stimulus::{clock_at_or_after, skip_idle, StimulusWindow};
use castanet_atm::addr::HeaderFormat;
use castanet_atm::cell::AtmCell;
use castanet_netsim::time::{SimDuration, SimTime};
use castanet_obs::{Counter, Gauge, Phase, Telemetry, Track};
use castanet_rtl::compiled::{Lane, LaneBank};
use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// What [`crate::CycleCosim`] keeps for its one DUT, kept per lane.
struct LaneState {
    /// Delivered cells; its clock is the lane's next one to evaluate.
    stimulus: StimulusWindow,
    /// Per egress line: cell reassembly state.
    assemblers: Vec<ByteStreamAssembler>,
    /// Per egress line: every completed cell (lane 0 included).
    traces: Vec<Vec<AtmCell>>,
    undecodable: u64,
    /// `[start, end)` runs of the clocks evaluated in the latest sweep.
    runs: Vec<(u64, u64)>,
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
    ) {
        self.runs.clear();
        while self.stimulus.now() < sweep.target {
            if dut.is_idle() {
                let remaining = sweep.target - self.stimulus.now();
                if skip_idle(std::slice::from_mut(&mut self.stimulus), remaining) > 0 {
                    continue;
                }
            }
            let clock = self.stimulus.now();
            match self.runs.last_mut() {
                Some((_, end)) if *end == clock => *end += 1,
                _ => self.runs.push((clock, clock + 1)),
            }
            self.run_clock(dut, sweep, responses.as_deref_mut());
            if stop_at_first && responses.as_ref().is_some_and(|r| !r.is_empty()) {
                break;
            }
        }
    }

    /// Evaluates the window's clock on the lane's DUT and reassembles its
    /// egress.
    fn run_clock(
        &mut self,
        dut: &mut Lane<'_>,
        sweep: &Sweep<'_>,
        mut responses: Option<&mut Vec<Message>>,
    ) {
        // One sampling decision covers the clock's three micro-phases —
        // the edge on the window's front row, pack (move the window on)
        // and unpack (reassemble egress cells).
        let tel = sweep.tel;
        let sampled = tel.micro_gate();
        let t_ps = (self.stimulus.now() + 1) * sweep.period_ps;
        let mut mark = if sampled { tel.now_ns() } else { 0 };
        dut.clock_edge(self.stimulus.front());
        if sampled {
            mark = tel.record_phase(Track::Follower, t_ps, Phase::CompiledFallbackEval, mark);
        }
        self.stimulus.pop_front();
        if sampled {
            mark = tel.record_phase(Track::Follower, t_ps, Phase::CompiledPack, mark);
        }
        let stamp = SimTime::from_picos(t_ps);
        let outs = dut.outputs();
        for (port, idx) in sweep.egress.iter().enumerate() {
            if outs[idx.valid] != 1 {
                continue;
            }
            let data = outs[idx.data] as u8;
            let sync = outs[idx.sync] == 1;
            let payload = match self.assemblers[port].push(data, sync) {
                Ok(None) => continue,
                Ok(Some(cell)) => {
                    let payload = responses
                        .is_some()
                        .then(|| MessagePayload::Cell(cell.clone()));
                    self.traces[port].push(cell);
                    payload
                }
                Err(_) => {
                    self.undecodable += 1;
                    responses.is_some().then(|| MessagePayload::Raw(vec![data]))
                }
            };
            if let (Some(responses), Some(payload)) = (responses.as_deref_mut(), payload) {
                responses.push(Message {
                    stamp,
                    type_id: sweep.response_type,
                    port,
                    payload,
                });
            }
        }
        if sampled {
            tel.record_phase(Track::Follower, t_ps, Phase::CompiledUnpack, mark);
        }
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
/// caller with its own payload.
fn fan_out(
    work: &mut [(Lane<'_>, &mut LaneState)],
    sweep: &Sweep<'_>,
    responses: &mut Vec<Message>,
) {
    let chunk = work.len().div_ceil(host_threads().min(work.len()));
    let (own, rest) = work.split_at_mut(chunk);
    if rest.is_empty() {
        run_chunk(own, sweep, Some(responses));
        return;
    }
    std::thread::scope(|s| {
        let workers: Vec<_> = rest
            .chunks_mut(chunk)
            .map(|chunk| s.spawn(move || run_chunk(chunk, sweep, None)))
            .collect();
        run_chunk(own, sweep, Some(responses));
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// Runs each lane of `chunk` through `sweep`; the first one appends its
/// cells to `responses`.
fn run_chunk(
    chunk: &mut [(Lane<'_>, &mut LaneState)],
    sweep: &Sweep<'_>,
    mut responses: Option<&mut Vec<Message>>,
) {
    for (dut, lane) in chunk {
        lane.run(dut, sweep, responses.take(), false);
    }
}

/// The lane-batched coupled follower with per-lane idle skipping.
pub struct CompiledCosim {
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
    obs_evaluated: Gauge,
    obs_skipped: Gauge,
    /// `compiled.fallback_evals` — clocks at which some lane's
    /// behavioral DUT was clocked.
    obs_fallback_evals: Counter,
    /// `compiled.lanes_active` — lanes with stimulus pending at the last
    /// sweep (the coupled lane counts while the run is live).
    obs_lanes_active: Gauge,
    /// `compiled.queue_depth` — deepest per-lane stimulus queue at the
    /// last sweep (the compiled analogue of `rtl.queue_depth`).
    obs_queue_depth: Gauge,
    /// `compiled.idle_skips` — stretches of clocks at which every lane
    /// was idle (the compiled analogue of `rtl.wheel_cascade`: both count
    /// O(1) time leaps).
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
        let stride = bank.input_ports().len();
        CompiledCosim {
            lanes: (0..bank.lanes())
                .map(|_| LaneState {
                    stimulus: StimulusWindow::new(stride),
                    assemblers: Vec::new(),
                    traces: Vec::new(),
                    undecodable: 0,
                    runs: Vec::new(),
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
    /// As [`crate::CycleCosim::add_ingress`], against the lane bank's
    /// input ports.
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
    /// As [`crate::CycleCosim::add_egress`], against the lane bank's
    /// output ports.
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

    /// Read access to the lane bank.
    #[must_use]
    pub fn bank(&self) -> &LaneBank {
        &self.bank
    }

    /// Every cell lane `lane` emitted on egress line `port` so far, in
    /// emission order.
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

    fn advance_inner(&mut self, horizon: SimTime, stop_at_first: bool) -> Vec<Message> {
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
            return collected;
        }
        let mut sweep = Sweep {
            target,
            period_ps,
            egress: &self.egress,
            response_type: self.response_type,
            tel: &self.tel,
        };
        let n_lanes = self.bank.lanes();
        let mut lanes = self.bank.lanes_mut().zip(&mut self.lanes);
        if stop_at_first {
            // Lane 0 up to its first response, then every other lane up
            // to the same clock, all on this thread: a serial coupling
            // calls this several times per cell.
            let (mut dut, lane0) = lanes.next().expect("a bank has a lane");
            lane0.run(&mut dut, &sweep, Some(&mut collected), true);
            sweep.target = lane0.stimulus.now();
            for (mut dut, lane) in lanes {
                lane.run(&mut dut, &sweep, None, false);
            }
        } else {
            // Lanes with nothing to do take their one skip here; lane 0
            // and the lanes with work fan out.
            let mut work = Vec::with_capacity(n_lanes);
            for (k, (mut dut, lane)) in lanes.enumerate() {
                if k == 0 || !dut.is_idle() || lane.stimulus.stimulus_before(target) {
                    work.push((dut, lane));
                } else {
                    lane.run(&mut dut, &sweep, None, false);
                }
            }
            fan_out(&mut work, &sweep, &mut collected);
        }
        let end = sweep.target;
        self.clocks_done = end;
        self.count_clocks(start, end);
        self.publish_clock_gauges();
        collected
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

impl CoupledSimulator for CompiledCosim {
    fn deliver(&mut self, msg: Message) -> Result<(), CastanetError> {
        let MessagePayload::Cell(cell) = &msg.payload else {
            return Err(CastanetError::Convert(format!(
                "compiled follower can only play cell payloads, got {}",
                msg.payload.kind()
            )));
        };
        self.seed_cell(0, msg.port, msg.stamp, cell)
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
    fn lines_on_missing_or_narrow_pins_are_rejected() {
        let mut cosim = fixture(1);
        let rejected = |r: Result<usize, CastanetError>, code: &str| matches!(r, Err(CastanetError::Preflight(f)) if f.len() == 1 && f[0].starts_with(code));
        assert!(rejected(
            cosim.add_ingress(IngressIndices {
                data: 0,
                sync: 1,
                enable: 12,
            }),
            "CAST150"
        ));
        assert!(rejected(
            cosim.add_egress(EgressIndices {
                data: 9,
                sync: 1,
                valid: 2,
            }),
            "CAST150"
        ));
        // Port 1 is a 1-bit sync pin: too narrow to carry the data byte.
        assert!(rejected(
            cosim.add_ingress(IngressIndices {
                data: 1,
                sync: 0,
                enable: 2,
            }),
            "CAST151"
        ));
        assert!(rejected(
            cosim.add_egress(EgressIndices {
                data: 1,
                sync: 4,
                valid: 5,
            }),
            "CAST151"
        ));
        // Nothing was registered by the rejected calls.
        assert!(matches!(
            cosim.seed_cell(0, 2, SimTime::ZERO, &cell(40)),
            Err(CastanetError::UnknownPort { port: 2 })
        ));
    }

    #[test]
    fn ingress_lines_on_shared_pins_are_rejected() {
        let mut cosim = fixture(2);
        let rejected = |r: Result<usize, CastanetError>| matches!(r, Err(CastanetError::Preflight(f)) if f.len() == 1 && f[0].starts_with("CAST152"));
        // Ports 6..=11 are the switch's free configuration inputs; 7 is
        // 8 bits wide. A line whose data pin is also its sync pin:
        assert!(rejected(cosim.add_ingress(IngressIndices {
            data: 7,
            sync: 7,
            enable: 6,
        })));
        // A line that shares line 0's sync pin:
        assert!(rejected(cosim.add_ingress(IngressIndices {
            data: 7,
            sync: 1,
            enable: 6,
        })));
        // Nothing was registered by the rejected calls, in any lane.
        assert!(matches!(
            cosim.seed_cell(1, 2, SimTime::ZERO, &cell(40)),
            Err(CastanetError::UnknownPort { port: 2 })
        ));
        let free = IngressIndices {
            data: 7,
            sync: 6,
            enable: 9,
        };
        assert_eq!(cosim.add_ingress(free).unwrap(), 2);
        assert!(rejected(cosim.add_ingress(free)));
    }
}
