//! Hardware in the simulation loop (§3.3).
//!
//! "The hardware that is hooked to the hardware test board is connected to
//! the OPNET simulation via a CASTANET interface model that is configurable
//! with respect to the clock gating factor and the duration of one hardware
//! test cycle."
//!
//! [`BoardCosim`] is a [`crate::coupling::CoupledSimulator`] whose follower
//! is not an HDL kernel but the test board with a (simulated) prototype
//! chip. Delivered cells wait in the cycle follower's stimulus window, one
//! queue per ingress line; a test cycle's download is the window's rows,
//! one per board clock, encoded onto the pins through the board's pin map.
//! The session ([`TestSession`]) plays the cycle at real-time speed and
//! keeps its SCSI and time accounting, and the sampled response frames are
//! reassembled into cells. One board clock is one DUT clock; board clock
//! `k`'s edge maps to simulated time `(k+1) · clock_period`, so the board
//! session has a well-defined position on the co-simulation time axis.
//! Idle clocks are played like any other: they are modelled hardware time.

use crate::convert::ByteStreamAssembler;
use crate::coupling::CoupledSimulator;
use crate::cyclecosim::{EgressIndices, IngressIndices};
use crate::error::CastanetError;
use crate::message::{Message, MessagePayload, MessageTypeId};
use crate::stimulus::{clock_at_or_after, StimulusWindow};
use castanet_atm::addr::HeaderFormat;
use castanet_netsim::time::{SimDuration, SimTime};
use castanet_obs::{Counter, Gauge, Telemetry};
use castanet_rtl::cycle::PortDecl;
use castanet_testboard::board::TestBoard;
use castanet_testboard::cycle::{SessionStats, TestSession};
use castanet_testboard::dut::HardwareDut;
use castanet_testboard::error::BoardError;
use castanet_testboard::lane::LANES;
use castanet_testboard::pinmap::PinFrame;
use castanet_testboard::scsi::{ScsiBus, ScsiStats};

/// The test board as a coupled follower.
pub struct BoardCosim {
    session: TestSession,
    /// The pin map's inports and outports as ports of their mapped widths,
    /// which lines are checked against at registration.
    inports: Vec<PortDecl>,
    outports: Vec<PortDecl>,
    clock_period: SimDuration,
    /// Maximum clocks per hardware test cycle.
    cycle_len: u64,
    /// Delivered cells; its clock is the board clock, the session's
    /// `hw_clocks`.
    stimulus: StimulusWindow,
    /// The download of the latest test cycle, reused.
    frames: Vec<PinFrame>,
    egress: Vec<(EgressIndices, ByteStreamAssembler)>,
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
            .field("clocks_done", &self.stimulus.now())
            .field("pending_clocks", &self.stimulus.len())
            .field("session", &self.session.stats())
            .finish()
    }
}

impl BoardCosim {
    /// Assembles a board follower around a session on `board`, which must
    /// already be configured with its pin map, lane directions and clock.
    /// `cycle_len` bounds each hardware activity cycle.
    ///
    /// # Errors
    ///
    /// [`CastanetError::Board`] with [`BoardError::DurationOutOfRange`]
    /// when `cycle_len` is outside the board's duration window.
    pub fn new(
        board: TestBoard,
        dut: Box<dyn HardwareDut>,
        bus: ScsiBus,
        cycle_len: u64,
        response_type: MessageTypeId,
        format: HeaderFormat,
    ) -> Result<Self, CastanetError> {
        let (min, max) = board.duration_window();
        if !(min..=max).contains(&cycle_len) {
            return Err(BoardError::DurationOutOfRange {
                requested: cycle_len,
                min,
                max,
            }
            .into());
        }
        let map = board.map();
        let inports: Vec<_> = (map.inports.iter())
            .map(|p| PortDecl::new(format!("inport {}", p.number), p.width))
            .collect();
        let outports = (map.outports.iter())
            .map(|p| PortDecl::new(format!("outport {}", p.number), p.width))
            .collect();
        Ok(BoardCosim {
            clock_period: SimDuration::from_freq_hz(board.clock_hz()),
            stimulus: StimulusWindow::new(inports.len()),
            session: TestSession::new(board, dut, bus),
            inports,
            outports,
            cycle_len,
            frames: Vec::new(),
            egress: Vec::new(),
            response_type,
            format,
            undecodable: 0,
            obs_cycles: Counter::default(),
            obs_clocks: Gauge::default(),
        })
    }

    /// Registers an ingress line; returns its co-simulation port index.
    /// Pin indices count the pin map's inports in order (an auto-mapped
    /// DUT's inport numbers), each as wide as it is mapped.
    ///
    /// # Errors
    ///
    /// As [`crate::CycleCosim::add_ingress`]: `CAST150` for an index past
    /// the inports, `CAST151` for a data pin narrower than 8 bits,
    /// `CAST152` for a pin the line uses twice or another line drives.
    pub fn add_ingress(&mut self, pins: IngressIndices) -> Result<usize, CastanetError> {
        pins.check(&self.inports, self.stimulus.pins())?;
        Ok(self.stimulus.add_line(pins))
    }

    /// Registers an egress line, its pin indices counting the pin map's
    /// outports; returns its co-simulation port index.
    ///
    /// # Errors
    ///
    /// As [`BoardCosim::add_ingress`], against the outports.
    pub fn add_egress(&mut self, pins: EgressIndices) -> Result<usize, CastanetError> {
        pins.check(&self.outports)?;
        self.egress
            .push((pins, ByteStreamAssembler::new(self.format)));
        Ok(self.egress.len() - 1)
    }

    /// Board-session time model (SW/HW activity split) so far.
    #[must_use]
    pub fn session_stats(&self) -> SessionStats {
        self.session.stats()
    }

    /// SCSI transfer accounting so far.
    #[must_use]
    pub fn scsi_stats(&self) -> ScsiStats {
        self.session.scsi_stats()
    }

    /// Board clocks executed so far.
    #[must_use]
    pub fn clocks_done(&self) -> u64 {
        self.stimulus.now()
    }

    /// DUT outputs that failed cell reassembly.
    #[must_use]
    pub fn undecodable(&self) -> u64 {
        self.undecodable
    }

    /// Plays test cycles of at most `cycle_len` clocks up to the last clock
    /// whose edge `(k+1)·period` is before `horizon`. With `stop_at_first`
    /// it stops after the first cycle that returns a response, so the
    /// overshoot past a response is at most one test cycle.
    fn advance(
        &mut self,
        horizon: SimTime,
        stop_at_first: bool,
    ) -> Result<Vec<Message>, CastanetError> {
        let period = self.clock_period.as_picos();
        let target = horizon.as_picos().div_ceil(period).saturating_sub(1);
        let mut out = Vec::new();
        while self.stimulus.now() < target && (out.is_empty() || !stop_at_first) {
            let clocks = (target - self.stimulus.now()).min(self.cycle_len);
            self.run_one_cycle(clocks, &mut out)?;
        }
        Ok(out)
    }

    /// One test cycle of `clocks` board clocks: the window's next rows go
    /// down as pin frames, the session runs them, and the cells the
    /// response frames complete go into `out`.
    fn run_one_cycle(&mut self, clocks: u64, out: &mut Vec<Message>) -> Result<(), CastanetError> {
        let first = self.stimulus.now();
        let map = self.session.board().map();
        self.frames.clear();
        for _ in 0..clocks {
            let mut frame = [0; LANES];
            for (port, &word) in map.inports.iter().zip(self.stimulus.front()) {
                // A zero needs no encoding into a zeroed frame.
                if word != 0 {
                    map.encode_inport(port.number, word, &mut frame)?;
                }
            }
            self.frames.push(frame);
            self.stimulus.pop_front();
        }
        self.session.run_cycle(&self.frames)?;
        let board = self.session.board();
        let (map, period) = (board.map(), self.clock_period.as_picos());
        for (clock, frame) in (first..).zip(board.response()) {
            let stamp = SimTime::from_picos((clock + 1) * period);
            for (port, (pins, assembler)) in self.egress.iter_mut().enumerate() {
                let read = |k: usize| map.decode_outport(map.outports[k].number, frame);
                if read(pins.valid)? != 1 {
                    continue;
                }
                let data = read(pins.data)? as u8;
                let payload = match assembler.push(data, read(pins.sync)? == 1) {
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
        self.obs_cycles.inc();
        self.obs_clocks.set(self.stimulus.now());
        Ok(())
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
        if msg.port >= self.stimulus.lines() {
            return Err(CastanetError::UnknownPort { port: msg.port });
        }
        let wire = cell.encode(self.format)?;
        let earliest = clock_at_or_after(msg.stamp, self.clock_period);
        self.stimulus.put_cell(msg.port, earliest, &wire);
        Ok(())
    }

    fn advance_until(&mut self, horizon: SimTime) -> Result<Vec<Message>, CastanetError> {
        // Hand responses back after the cycle that produced them, so the
        // coupling can re-evaluate its horizon.
        self.advance(horizon, true)
    }

    fn advance_batch(&mut self, horizon: SimTime) -> Result<Vec<Message>, CastanetError> {
        // Every response is stamped at its capture clock, so the whole
        // grant window is played without stopping.
        self.advance(horizon, false)
    }

    fn now(&self) -> SimTime {
        SimTime::from_picos(self.stimulus.now() * self.clock_period.as_picos())
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

    /// A board with a 2-port RTL switch as the "prototype chip": route
    /// 1/40 -> line 1 as 7/70, no lines registered. The chip exposes only
    /// its data-path pins (config is pre-loaded, counters internal), as
    /// real silicon would — and as the 128-pin board requires.
    fn bare_board(cycle_len: u64) -> Result<BoardCosim, CastanetError> {
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
        let mut board = TestBoard::with_memory_depth(4096);
        board.configure(mapped.map().clone(), lanes, 20_000_000)?;
        let (bus, format) = (ScsiBus::default(), HeaderFormat::Uni);
        BoardCosim::new(
            board,
            Box::new(mapped),
            bus,
            cycle_len,
            MessageTypeId(5),
            format,
        )
    }

    /// Line `n`'s data, sync and strobe pins: inports and outports `3n..`.
    fn line(n: usize) -> (IngressIndices, EgressIndices) {
        let (data, sync, enable) = (3 * n, 3 * n + 1, 3 * n + 2);
        let valid = enable;
        (
            IngressIndices { data, sync, enable },
            EgressIndices { data, sync, valid },
        )
    }

    /// [`bare_board`] with both lines registered.
    fn board_fixture(cycle_len: u64) -> BoardCosim {
        let mut cosim = bare_board(cycle_len).unwrap();
        for n in 0..2 {
            let (ingress, egress) = line(n);
            assert_eq!(cosim.add_ingress(ingress).unwrap(), n);
            assert_eq!(cosim.add_egress(egress).unwrap(), n);
        }
        cosim
    }

    /// The finding of a refused registration.
    fn finding(result: Result<usize, CastanetError>) -> String {
        match result {
            Err(CastanetError::Preflight(findings)) => findings.concat(),
            other => panic!("expected a finding, got {other:?}"),
        }
    }

    #[test]
    fn a_cycle_length_outside_the_duration_window_is_an_error() {
        for cycle_len in [0, 4097] {
            assert!(matches!(
                bare_board(cycle_len),
                Err(CastanetError::Board(BoardError::DurationOutOfRange { requested, min: 1, max: 4096 }))
                    if requested == cycle_len
            ));
        }
        assert!(bare_board(4096).is_ok());
    }

    #[test]
    fn an_unmapped_port_is_refused_at_registration() {
        let mut cosim = bare_board(64).unwrap();
        let (mut ingress, mut egress) = line(0);
        ingress.enable = 6;
        egress.data = 9;
        assert_eq!(
            finding(cosim.add_ingress(ingress)),
            "CAST150: ingress enable pin index 6 out of range (6 ports on the DUT)"
        );
        assert_eq!(
            finding(cosim.add_egress(egress)),
            "CAST150: egress data pin index 9 out of range (6 ports on the DUT)"
        );
    }

    #[test]
    fn a_narrow_data_pin_is_refused_at_registration() {
        let mut cosim = bare_board(64).unwrap();
        let (mut ingress, mut egress) = line(1);
        (ingress.data, ingress.sync) = (ingress.sync, ingress.data);
        egress.data = egress.valid;
        assert_eq!(
            finding(cosim.add_ingress(ingress)),
            "CAST151: ingress data pin 'inport 4' is 1 bits wide, needs 8"
        );
        assert_eq!(
            finding(cosim.add_egress(egress)),
            "CAST151: egress data pin 'outport 5' is 1 bits wide, needs 8"
        );
    }

    #[test]
    fn two_ingress_lines_on_one_inport_are_refused() {
        let mut cosim = bare_board(64).unwrap();
        let (ingress, _) = line(0);
        assert_eq!(cosim.add_ingress(ingress).unwrap(), 0);
        let (mut other, _) = line(1);
        other.sync = ingress.sync;
        assert_eq!(
            finding(cosim.add_ingress(other)),
            "CAST152: ingress sync pin 'inport 1' is already driven by another ingress line"
        );
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
