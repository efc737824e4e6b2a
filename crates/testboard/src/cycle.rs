//! The test-cycle state machine: software and hardware activity phases.
//!
//! "The real-time verification process consists of repeated hardware
//! activity cycles, interrupted by a software activity cycle, in which the
//! hardware is stopped immediately. One test cycle contains a software
//! activity cycle to generate stimuli, configure the board and store
//! stimuli to the hardware test board. This is followed by a hardware
//! activity cycle to run the hardware under test and a software activity
//! cycle to read the results back to the simulator. Test cycles run
//! repeatedly until the simulation is finished." (§3.3)
//!
//! [`TestSession`] executes that loop over the simulated SCSI transport and
//! keeps a wall-clock *model* of where time goes — hardware runtime versus
//! software overhead — which is what experiment E5's efficiency sweep
//! reports.

use crate::board::TestBoard;
use crate::dut::HardwareDut;
use crate::error::BoardError;
use crate::lane::LANES;
use crate::pinmap::PinFrame;
use crate::scsi::{ScsiBus, ScsiStats};
use std::time::Duration;

/// Accumulated time model of a verification session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Test cycles executed.
    pub cycles: u64,
    /// Board clocks executed across all hardware phases.
    pub hw_clocks: u64,
    /// Modelled hardware runtime.
    pub hw_time: Duration,
    /// Modelled software overhead (stimulus download + response upload).
    pub sw_time: Duration,
}

impl SessionStats {
    /// Fraction of the session spent actually running hardware.
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        let total = self.hw_time + self.sw_time;
        if total.is_zero() {
            0.0
        } else {
            self.hw_time.as_secs_f64() / total.as_secs_f64()
        }
    }
}

/// Drives repeated test cycles against a board and a (simulated)
/// prototype: the one place a test cycle's SCSI transfers and session time
/// are accounted.
pub struct TestSession {
    board: TestBoard,
    dut: Box<dyn HardwareDut>,
    bus: ScsiBus,
    scsi: ScsiStats,
    stats: SessionStats,
}

impl std::fmt::Debug for TestSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TestSession")
            .field("stats", &self.stats)
            .finish()
    }
}

impl TestSession {
    /// Starts a session with `dut` mounted on a configured board, reached
    /// over `bus`. The DUT is taken as it is. The session does not reset
    /// it, which would wipe what was set up before the part went on the
    /// board (a switch's routes). Nor does it tell a timing-fault model the
    /// board clock: the caller does, with
    /// [`crate::dut::TimingFaultDut::set_board_clock_hz`].
    #[must_use]
    pub fn new(board: TestBoard, dut: Box<dyn HardwareDut>, bus: ScsiBus) -> Self {
        TestSession {
            board,
            dut,
            bus,
            scsi: ScsiStats::default(),
            stats: SessionStats::default(),
        }
    }

    /// Executes one full test cycle with the given stimulus, one board
    /// clock per frame, returning the response frames.
    ///
    /// # Errors
    ///
    /// Propagates board errors (configuration, memory, duration window).
    pub fn run_cycle(&mut self, stimulus: &[PinFrame]) -> Result<&[PinFrame], BoardError> {
        // SW activity: store stimuli over the bus.
        self.stats.sw_time += self.scsi.record(&self.bus, stimulus.len() * LANES);
        self.board.load_stimulus(stimulus)?;

        // HW activity at real-time speed.
        let clocks = self.board.run_hw_cycle_auto(self.dut.as_mut())?;
        self.stats.hw_clocks += clocks;
        self.stats.hw_time += self.board.real_time(clocks);

        // SW activity: read results back.
        let response = self.board.response();
        self.stats.sw_time += self.scsi.record(&self.bus, response.len() * LANES);
        self.stats.cycles += 1;
        Ok(response)
    }

    /// The board the session runs on.
    #[must_use]
    pub fn board(&self) -> &TestBoard {
        &self.board
    }

    /// The session's time model so far.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// SCSI transfer accounting.
    #[must_use]
    pub fn scsi_stats(&self) -> ScsiStats {
        self.scsi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dut::MappedCycleDut;
    use crate::pinmap::PinMapConfig;
    use castanet_rtl::cycle::{CycleDut, PortDecl};

    struct Echo;
    impl CycleDut for Echo {
        fn input_ports(&self) -> Vec<PortDecl> {
            vec![PortDecl::new("x", 8)]
        }
        fn output_ports(&self) -> Vec<PortDecl> {
            vec![PortDecl::new("y", 8)]
        }
        fn reset(&mut self) {}
        fn clock_edge(&mut self, i: &[u64], o: &mut [u64]) {
            o[0] = i[0];
        }
    }

    fn setup(bus: ScsiBus) -> (TestSession, PinMapConfig) {
        let (dut, lanes) = MappedCycleDut::auto_mapped(Box::new(Echo));
        let map = dut.map().clone();
        let mut board = TestBoard::with_memory_depth(1024);
        board.configure(map.clone(), lanes, 20_000_000).unwrap();
        (TestSession::new(board, Box::new(dut), bus), map)
    }

    fn stim(map: &PinMapConfig, values: &[u64]) -> Vec<PinFrame> {
        values
            .iter()
            .map(|&v| {
                let mut f: PinFrame = [0; LANES];
                map.encode_inport(0, v, &mut f).unwrap();
                f
            })
            .collect()
    }

    #[test]
    fn cycle_roundtrips_data() {
        let (mut session, map) = setup(ScsiBus::default());
        let resp = session.run_cycle(&stim(&map, &[1, 2, 3])).unwrap();
        assert_eq!(resp.len(), 3);
        let got: Vec<u64> = resp
            .iter()
            .map(|f| map.decode_outport(0, f).unwrap())
            .collect();
        assert_eq!(got, vec![1, 2, 3]);
        let s = session.stats();
        assert_eq!(s.cycles, 1);
        assert_eq!(s.hw_clocks, 3);
        assert_eq!(session.scsi_stats().transfers, 2);
    }

    #[test]
    fn longer_hw_cycles_raise_efficiency() {
        // The paper's rationale for long test cycles: SW overhead amortizes.
        let bus = ScsiBus::default();
        let mut eff = Vec::new();
        for &len in &[4usize, 64, 1024] {
            let (mut session, map) = setup(bus);
            session.run_cycle(&stim(&map, &vec![7; len])).unwrap();
            eff.push(session.stats().efficiency());
        }
        assert!(
            eff[0] < eff[1] && eff[1] < eff[2],
            "efficiency must grow: {eff:?}"
        );
    }

    #[test]
    fn empty_stimulus_is_rejected() {
        let (mut session, _map) = setup(ScsiBus::default());
        assert!(matches!(
            session.run_cycle(&[]),
            Err(BoardError::DurationOutOfRange { requested: 0, .. })
        ));
    }

    #[test]
    fn efficiency_zero_without_cycles() {
        assert_eq!(SessionStats::default().efficiency(), 0.0);
    }
}
