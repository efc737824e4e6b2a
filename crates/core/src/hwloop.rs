//! Hardware in the simulation loop (§3.3).
//!
//! "The hardware that is hooked to the hardware test board is connected to
//! the OPNET simulation via a CASTANET interface model that is configurable
//! with respect to the clock gating factor and the duration of one hardware
//! test cycle."
//!
//! [`BoardCosim`] is a [`crate::coupling::CoupledSimulator`] whose follower
//! is not an HDL kernel but the test board with a (simulated) prototype
//! chip: stimulus cells are compiled into per-clock pin frames, played in
//! hardware test cycles of a configurable duration, and the sampled
//! response frames are reassembled into cells. One board clock is one DUT
//! clock; board clock `k`'s edge maps to simulated time `(k+1) ·
//! clock_period`, so the board session has a well-defined position on the
//! co-simulation time axis.

use crate::convert::ByteStreamAssembler;
use crate::coupling::CoupledSimulator;
use crate::error::CastanetError;
use crate::message::{Message, MessagePayload, MessageTypeId};
use castanet_atm::addr::HeaderFormat;
use castanet_atm::cell::CELL_OCTETS;
use castanet_netsim::time::{SimDuration, SimTime};
use castanet_obs::{Counter, Gauge, Telemetry};
use castanet_testboard::board::TestBoard;
use castanet_testboard::cycle::SessionStats;
use castanet_testboard::dut::HardwareDut;
use castanet_testboard::lane::LANES;
use castanet_testboard::pinmap::{PinFrame, PinMapConfig};
use castanet_testboard::scsi::{ScsiBus, ScsiStats};
use std::collections::VecDeque;

/// Inport numbers of one ingress line on the board.
#[derive(Debug, Clone, Copy)]
pub struct IngressPorts {
    /// Byte-wide data inport.
    pub data: usize,
    /// Cellsync inport.
    pub sync: usize,
    /// Byte-valid inport.
    pub enable: usize,
}

/// Outport numbers of one egress line on the board.
#[derive(Debug, Clone, Copy)]
pub struct EgressPorts {
    /// Byte-wide data outport.
    pub data: usize,
    /// Cellsync outport.
    pub sync: usize,
    /// Byte-valid outport.
    pub valid: usize,
}

struct IngressLine {
    ports: IngressPorts,
    next_free_clock: u64,
    cells: u64,
}

struct EgressLine {
    ports: EgressPorts,
    assembler: ByteStreamAssembler,
}

/// The test board as a coupled follower.
pub struct BoardCosim {
    board: TestBoard,
    dut: Box<dyn HardwareDut>,
    map: PinMapConfig,
    bus: ScsiBus,
    scsi: ScsiStats,
    session: SessionStats,
    clock_period: SimDuration,
    /// Board clocks already executed; local time = clocks_done · period.
    clocks_done: u64,
    /// Maximum clocks per hardware test cycle.
    cycle_len: u64,
    /// Pending stimulus frames for clocks `clocks_done..`.
    stimulus: VecDeque<PinFrame>,
    ingress: Vec<IngressLine>,
    egress: Vec<EgressLine>,
    response_type: MessageTypeId,
    format: HeaderFormat,
    undecodable: u64,
    /// Hardware-test-cycle counter (a no-op until telemetry is attached).
    obs_cycles: Counter,
    /// Board-clock gauge (a no-op until telemetry is attached).
    obs_clocks: Gauge,
}

impl std::fmt::Debug for BoardCosim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoardCosim")
            .field("clocks_done", &self.clocks_done)
            .field("pending_frames", &self.stimulus.len())
            .field("session", &self.session)
            .finish()
    }
}

impl BoardCosim {
    /// Assembles a board follower. The board must already be configured
    /// with `map` (plus lane directions) and its clock; `cycle_len` bounds
    /// each hardware activity cycle and must fit the board's duration
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if `cycle_len` is zero or outside the board's window.
    #[must_use]
    pub fn new(
        board: TestBoard,
        dut: Box<dyn HardwareDut>,
        map: PinMapConfig,
        bus: ScsiBus,
        cycle_len: u64,
        response_type: MessageTypeId,
        format: HeaderFormat,
    ) -> Self {
        let (min, max) = board.duration_window();
        assert!(
            (min..=max).contains(&cycle_len),
            "cycle length {cycle_len} outside board window [{min}, {max}]"
        );
        let clock_period = SimDuration::from_freq_hz(board.clock_hz());
        BoardCosim {
            board,
            dut,
            map,
            bus,
            scsi: ScsiStats::default(),
            session: SessionStats::default(),
            clock_period,
            clocks_done: 0,
            cycle_len,
            stimulus: VecDeque::new(),
            ingress: Vec::new(),
            egress: Vec::new(),
            response_type,
            format,
            undecodable: 0,
            obs_cycles: Counter::default(),
            obs_clocks: Gauge::default(),
        }
    }

    /// Registers an ingress line (three inport numbers). Returns its
    /// co-simulation port index.
    pub fn add_ingress(&mut self, ports: IngressPorts) -> usize {
        self.ingress.push(IngressLine {
            ports,
            next_free_clock: 0,
            cells: 0,
        });
        self.ingress.len() - 1
    }

    /// Registers an egress line (three outport numbers). Returns its
    /// co-simulation port index.
    pub fn add_egress(&mut self, ports: EgressPorts) -> usize {
        self.egress.push(EgressLine {
            ports,
            assembler: ByteStreamAssembler::new(self.format),
        });
        self.egress.len() - 1
    }

    /// The board clock whose edge is the first at-or-after `t`
    /// (edges at `(k+1) · period`).
    fn clock_at_or_after(&self, t: SimTime) -> u64 {
        let period = self.clock_period.as_picos();
        let ps = t.as_picos();
        if ps <= period {
            return 0;
        }
        ps.div_ceil(period) - 1
    }

    fn frame_mut(stimulus: &mut VecDeque<PinFrame>, clocks_done: u64, clock: u64) -> &mut PinFrame {
        debug_assert!(clock >= clocks_done, "stimulus in the past");
        let idx = (clock - clocks_done) as usize;
        while stimulus.len() <= idx {
            stimulus.push_back([0u8; LANES]);
        }
        &mut stimulus[idx]
    }

    /// Board-session time model (SW/HW activity split) so far.
    #[must_use]
    pub fn session_stats(&self) -> SessionStats {
        self.session
    }

    /// SCSI transfer accounting so far.
    #[must_use]
    pub fn scsi_stats(&self) -> ScsiStats {
        self.scsi
    }

    /// Board clocks executed so far.
    #[must_use]
    pub fn clocks_done(&self) -> u64 {
        self.clocks_done
    }

    /// DUT outputs that failed cell reassembly.
    #[must_use]
    pub fn undecodable(&self) -> u64 {
        self.undecodable
    }

    fn run_one_cycle(&mut self, clocks: u64) -> Result<Vec<Message>, CastanetError> {
        // SW activity: assemble and download stimulus.
        let mut words: Vec<PinFrame> = Vec::with_capacity(clocks as usize);
        for _ in 0..clocks {
            words.push(self.stimulus.pop_front().unwrap_or([0u8; LANES]));
        }
        self.session.sw_time += self.scsi.record(&self.bus, words.len() * LANES);
        self.board.load_stimulus(words)?;

        // HW activity at real-time speed.
        self.board.run_hw_cycle(self.dut.as_mut(), clocks)?;
        self.session.hw_clocks += clocks;
        self.session.hw_time += self.board.real_time(clocks);

        // SW activity: read responses back and reassemble cells.
        let frames = self.board.response().to_vec();
        self.session.sw_time += self.scsi.record(&self.bus, frames.len() * LANES);
        self.session.cycles += 1;

        let mut out = Vec::new();
        for (offset, frame) in frames.iter().enumerate() {
            let clock = self.clocks_done + offset as u64;
            let stamp = SimTime::from_picos((clock + 1) * self.clock_period.as_picos());
            for (port, line) in self.egress.iter_mut().enumerate() {
                let valid = self.map.decode_outport(line.ports.valid, frame)?;
                if valid != 1 {
                    continue;
                }
                let data = self.map.decode_outport(line.ports.data, frame)? as u8;
                let sync = self.map.decode_outport(line.ports.sync, frame)? == 1;
                let payload = match line.assembler.push(data, sync) {
                    Ok(None) => continue,
                    Ok(Some(cell)) => MessagePayload::Cell(cell),
                    Err(_) => {
                        self.undecodable += 1;
                        MessagePayload::Raw(vec![data])
                    }
                };
                out.push(Message {
                    stamp,
                    type_id: self.response_type,
                    port,
                    payload,
                });
            }
        }
        self.clocks_done += clocks;
        self.obs_cycles.inc();
        self.obs_clocks.set(self.clocks_done);
        Ok(out)
    }
}

impl CoupledSimulator for BoardCosim {
    fn deliver(&mut self, msg: Message) -> Result<(), CastanetError> {
        let MessagePayload::Cell(cell) = &msg.payload else {
            return Err(CastanetError::Convert(format!(
                "board follower can only play cell payloads, got {}",
                msg.payload.kind()
            )));
        };
        if msg.port >= self.ingress.len() {
            return Err(CastanetError::UnknownPort { port: msg.port });
        }
        let wire = cell.encode(self.format)?;
        let start = self
            .clock_at_or_after(msg.stamp)
            .max(self.ingress[msg.port].next_free_clock)
            .max(self.clocks_done);
        let ports = self.ingress[msg.port].ports;
        let map = &self.map;
        for (k, &byte) in wire.iter().enumerate() {
            let clock = start + k as u64;
            let frame = Self::frame_mut(&mut self.stimulus, self.clocks_done, clock);
            map.encode_inport(ports.data, u64::from(byte), frame)?;
            map.encode_inport(ports.sync, u64::from(k == 0), frame)?;
            map.encode_inport(ports.enable, 1, frame)?;
        }
        let line = &mut self.ingress[msg.port];
        line.next_free_clock = start + CELL_OCTETS as u64;
        line.cells += 1;
        Ok(())
    }

    fn advance_until(&mut self, horizon: SimTime) -> Result<Vec<Message>, CastanetError> {
        // Clocks whose edge `(k+1)·period` is strictly before `horizon`.
        let period = self.clock_period.as_picos();
        let target = horizon.as_picos().div_ceil(period).saturating_sub(1);
        let mut out = Vec::new();
        while self.clocks_done < target {
            let clocks = (target - self.clocks_done).min(self.cycle_len);
            out.extend(self.run_one_cycle(clocks)?);
            if !out.is_empty() {
                // Hand responses back immediately so the coupling can
                // re-evaluate; the follower's overshoot past a response is
                // bounded by one test cycle.
                break;
            }
        }
        Ok(out)
    }

    fn advance_batch(&mut self, horizon: SimTime) -> Result<Vec<Message>, CastanetError> {
        // Batched test-cycle scheduling: the whole grant window is played
        // as back-to-back board cycles with a single response sweep per
        // cycle. Every response is already stamped at its capture clock, so
        // there is no need to stop early — this is what the parallel
        // executor routes hwloop scheduling through.
        let period = self.clock_period.as_picos();
        let target = horizon.as_picos().div_ceil(period).saturating_sub(1);
        let mut out = Vec::new();
        while self.clocks_done < target {
            let clocks = (target - self.clocks_done).min(self.cycle_len);
            out.extend(self.run_one_cycle(clocks)?);
        }
        Ok(out)
    }

    fn now(&self) -> SimTime {
        SimTime::from_picos(self.clocks_done * self.clock_period.as_picos())
    }

    fn set_telemetry(&mut self, tel: &Telemetry) {
        self.obs_cycles = tel.counter("board.test_cycles");
        self.obs_clocks = tel.gauge("board.clocks_done");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use castanet_atm::addr::VpiVci;
    use castanet_atm::cell::AtmCell;
    use castanet_rtl::dut::{AtmSwitchRtl, SwitchRtlConfig};
    use castanet_testboard::dut::MappedCycleDut;

    /// Board fixture with a 2-port RTL switch as the "prototype chip":
    /// route 1/40 -> line 1 as 7/70. The chip exposes only its data-path
    /// pins (config is pre-loaded, counters internal), as real silicon
    /// would — and as the 128-pin board requires.
    fn board_fixture(cycle_len: u64) -> BoardCosim {
        use castanet_testboard::dut::PortSubsetDut;
        let mut switch = AtmSwitchRtl::new(SwitchRtlConfig {
            ports: 2,
            fifo_capacity: 32,
            table_capacity: 8,
        });
        assert!(switch.install_route(1, 40, 1, 7, 70));
        // Inputs 0..6 = rx triples of both lines; outputs 0..6 = tx triples.
        let chip = PortSubsetDut::new(Box::new(switch), (0..6).collect(), (0..6).collect());
        let (mapped, lanes) = MappedCycleDut::auto_mapped(Box::new(chip));
        let map = mapped.map().clone();
        let mut board = TestBoard::with_memory_depth(4096);
        board.configure(map.clone(), lanes, 20_000_000).unwrap();
        let mut cosim = BoardCosim::new(
            board,
            Box::new(mapped),
            map,
            ScsiBus::default(),
            cycle_len,
            MessageTypeId(5),
            HeaderFormat::Uni,
        );
        // Switch input ports: rx_data0, rx_sync0, rx_en0, rx_data1, ... =
        // inport numbers 0..; cfg ports 6..11 stay zero.
        cosim.add_ingress(IngressPorts {
            data: 0,
            sync: 1,
            enable: 2,
        });
        cosim.add_ingress(IngressPorts {
            data: 3,
            sync: 4,
            enable: 5,
        });
        // Outputs: tx_data0, tx_sync0, tx_valid0, tx_data1, tx_sync1,
        // tx_valid1, counters.
        cosim.add_egress(EgressPorts {
            data: 0,
            sync: 1,
            valid: 2,
        });
        cosim.add_egress(EgressPorts {
            data: 3,
            sync: 4,
            valid: 5,
        });
        cosim
    }

    fn cell(vci: u16) -> AtmCell {
        AtmCell::user_data(VpiVci::uni(1, vci).unwrap(), [0xC3; 48])
    }

    #[test]
    fn cell_travels_through_the_board_dut() {
        let mut cosim = board_fixture(256);
        let msg = Message::cell(SimTime::ZERO, MessageTypeId(0), 0, cell(40));
        cosim.deliver(msg).unwrap();
        // 53 ingress clocks + 53 egress clocks + slack.
        let horizon = SimTime::from_picos(200 * 50_000);
        let responses = cosim.advance_until(horizon).unwrap();
        assert_eq!(responses.len(), 1);
        let got = responses[0].as_cell().expect("decodable cell");
        assert_eq!(got.id(), VpiVci::uni(7, 70).unwrap());
        assert_eq!(got.payload, [0xC3; 48]);
        assert_eq!(responses[0].port, 1);
        assert!(responses[0].stamp < horizon);
        assert_eq!(cosim.undecodable(), 0);
    }

    #[test]
    fn time_advances_in_test_cycles() {
        let mut cosim = board_fixture(64);
        let horizon = SimTime::from_picos(300 * 50_000);
        cosim.advance_until(horizon).unwrap();
        // Edges strictly before horizon: clock k edge = (k+1)*50ns < 300*50ns
        // -> k <= 298 -> 299 clocks.
        assert_eq!(cosim.clocks_done(), 299);
        assert_eq!(cosim.now(), SimTime::from_picos(299 * 50_000));
        // 299 clocks at 64 per cycle = 5 cycles.
        assert_eq!(cosim.session_stats().cycles, 5);
    }

    #[test]
    fn session_time_splits_into_sw_and_hw() {
        let mut cosim = board_fixture(128);
        cosim
            .deliver(Message::cell(SimTime::ZERO, MessageTypeId(0), 0, cell(40)))
            .unwrap();
        cosim
            .advance_until(SimTime::from_picos(200 * 50_000))
            .unwrap();
        let s = cosim.session_stats();
        assert!(s.hw_time > std::time::Duration::ZERO);
        assert!(s.sw_time > std::time::Duration::ZERO);
        assert!(s.efficiency() > 0.0 && s.efficiency() < 1.0);
        assert!(cosim.scsi_stats().transfers >= 2);
    }

    #[test]
    fn non_cell_payload_rejected() {
        let mut cosim = board_fixture(64);
        let msg = Message {
            stamp: SimTime::ZERO,
            type_id: MessageTypeId(0),
            port: 0,
            payload: MessagePayload::Control(3),
        };
        assert!(matches!(cosim.deliver(msg), Err(CastanetError::Convert(_))));
    }

    #[test]
    fn unknown_port_rejected() {
        let mut cosim = board_fixture(64);
        let msg = Message::cell(SimTime::ZERO, MessageTypeId(0), 9, cell(40));
        assert!(matches!(
            cosim.deliver(msg),
            Err(CastanetError::UnknownPort { port: 9 })
        ));
    }

    #[test]
    fn back_to_back_cells_queue_on_the_line() {
        let mut cosim = board_fixture(512);
        for _ in 0..3 {
            cosim
                .deliver(Message::cell(SimTime::ZERO, MessageTypeId(0), 0, cell(40)))
                .unwrap();
        }
        let responses = cosim
            .advance_until(SimTime::from_picos(400 * 50_000))
            .unwrap();
        assert_eq!(responses.len(), 3);
        // Responses are time-ordered.
        assert!(responses.windows(2).all(|w| w[0].stamp <= w[1].stamp));
    }

    #[test]
    fn late_stamp_defers_to_future_clock() {
        let mut cosim = board_fixture(512);
        let stamp = SimTime::from_picos(100 * 50_000);
        cosim
            .deliver(Message::cell(stamp, MessageTypeId(0), 0, cell(40)))
            .unwrap();
        let responses = cosim
            .advance_until(SimTime::from_picos(400 * 50_000))
            .unwrap();
        assert_eq!(responses.len(), 1);
        assert!(responses[0].stamp > stamp);
    }

    #[test]
    fn advance_batch_matches_chunked_advance_until() {
        // The batched test-cycle sweep used by the parallel executor must
        // produce exactly the responses the serial early-return loop does.
        let horizon = SimTime::from_picos(500 * 50_000);
        let stimulus: Vec<Message> = (0..3)
            .map(|k| {
                Message::cell(
                    SimTime::from_picos(k * 60 * 50_000),
                    MessageTypeId(0),
                    0,
                    cell(40),
                )
            })
            .collect();

        let mut serial = board_fixture(128);
        for m in &stimulus {
            serial.deliver(m.clone()).unwrap();
        }
        let mut chunked = Vec::new();
        loop {
            let r = serial.advance_until(horizon).unwrap();
            if r.is_empty() {
                break;
            }
            chunked.extend(r);
        }

        let mut batched = board_fixture(128);
        for m in &stimulus {
            batched.deliver(m.clone()).unwrap();
        }
        let swept = batched.advance_batch(horizon).unwrap();

        assert_eq!(chunked.len(), 3);
        assert_eq!(swept, chunked, "identical responses and stamps");
        assert_eq!(batched.clocks_done(), serial.clocks_done());
    }

    #[test]
    fn board_couples_through_the_parallel_executor() {
        // Hardware-in-the-loop test-cycle scheduling routed through
        // ParallelCoupling: network model on the main thread, board session
        // on the follower thread.
        use crate::parallel::ParallelCoupling;
        use crate::sync::conservative::ConservativeSync;
        use castanet_atm::traffic::source::TrafficSourceProcess;
        use castanet_atm::traffic::Cbr;
        use castanet_netsim::event::PortId;
        use castanet_netsim::kernel::Kernel;
        use castanet_netsim::process::CollectorProcess;

        let board_clk = SimDuration::from_ns(50);
        let mut net = Kernel::new(5);
        let node = net.add_node("hwloop");
        let src = net.add_module(
            node,
            "src",
            Box::new(
                TrafficSourceProcess::new(
                    VpiVci::uni(1, 40).unwrap(),
                    Box::new(Cbr::new(SimDuration::from_us(10))),
                )
                .with_limit(4),
            ),
        );
        let mut sync = ConservativeSync::new();
        let cell_type = sync.register_type(board_clk * 53);
        let (iface_proc, outbox) = crate::interface::CastanetInterfaceProcess::new(cell_type);
        let iface = net.add_module(node, "castanet", Box::new(iface_proc));
        net.connect_stream(src, PortId(0), iface, PortId(0))
            .unwrap();
        let (collector, got) = CollectorProcess::new();
        let sink = net.add_module(node, "sink", Box::new(collector));
        net.connect_stream(iface, PortId(1), sink, PortId(0))
            .unwrap();

        let follower = board_fixture(128);
        let mut coupling = ParallelCoupling::new(net, follower, sync, cell_type, iface, outbox);
        let stats = coupling.run(SimTime::from_ms(1)).unwrap();
        assert_eq!(stats.messages_to_follower, 4);
        assert_eq!(stats.responses, 4);
        assert_eq!(got.len(), 4);
        for (_, pkt) in got.take() {
            let c = pkt.payload::<AtmCell>().expect("cell");
            assert_eq!(c.id(), VpiVci::uni(7, 70).unwrap());
        }
        assert!(coupling.sync().lag_invariant_holds());
        assert!(coupling.follower().session_stats().cycles > 0);
    }
}
