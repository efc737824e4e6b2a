//! The test board proper: lanes + memories + clock + configuration.
//!
//! A hardware activity cycle (§3.3) plays the stimulus memory onto the
//! driving lanes at the configured board clock, clocks the device under
//! test, and records the sampling lanes into the response memory — at
//! "real-time speed", i.e. without any simulator in the loop.

use crate::dut::HardwareDut;
use crate::error::BoardError;
use crate::lane::{LaneConfig, LaneDirection, LANES, MAX_CLOCK_HZ};
use crate::memory::{VectorMemory, DEFAULT_DEPTH};
use crate::pinmap::{PinFrame, PinMapConfig};
use std::time::Duration;

/// The configurable hardware test board.
///
/// # Examples
///
/// ```
/// use castanet_testboard::board::TestBoard;
/// use castanet_testboard::dut::MappedCycleDut;
/// use castanet_rtl::cycle::{CycleDut, PortDecl};
///
/// struct Inc;
/// impl CycleDut for Inc {
///     fn input_ports(&self) -> Vec<PortDecl> { vec![PortDecl::new("x", 8)] }
///     fn output_ports(&self) -> Vec<PortDecl> { vec![PortDecl::new("y", 8)] }
///     fn reset(&mut self) {}
///     // The caller sizes `o` from `output_ports()`: one word per port.
///     fn clock_edge(&mut self, i: &[u64], o: &mut [u64]) { o[0] = (i[0] + 1) & 0xFF; }
/// }
///
/// let (dut, lanes) = MappedCycleDut::auto_mapped(Box::new(Inc));
/// let map = dut.map().clone();
/// let mut board = TestBoard::new();
/// board.configure(map.clone(), lanes, 10_000_000)?;
/// // One stimulus word: inport 0 = 41.
/// let mut frame = [0u8; 16];
/// map.encode_inport(0, 41, &mut frame)?;
/// board.load_stimulus(&[frame])?;
/// let mut dut = dut;
/// board.run_hw_cycle(&mut dut, 1)?;
/// assert_eq!(map.decode_outport(0, &board.response()[0])?, 42);
/// # Ok::<(), castanet_testboard::error::BoardError>(())
/// ```
#[derive(Debug)]
pub struct TestBoard {
    lanes: [LaneConfig; LANES],
    map: PinMapConfig,
    stimulus: VectorMemory,
    response: VectorMemory,
    clock_hz: u64,
    configured: bool,
}

impl Default for TestBoard {
    fn default() -> Self {
        Self::new()
    }
}

impl TestBoard {
    /// A board with the default memory depth (2^20 words).
    #[must_use]
    pub fn new() -> Self {
        Self::with_memory_depth(DEFAULT_DEPTH)
    }

    /// A board whose vector memories hold `depth` words — this bounds the
    /// supported test-cycle duration window.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    #[must_use]
    pub fn with_memory_depth(depth: usize) -> Self {
        TestBoard {
            lanes: [LaneConfig::default(); LANES],
            map: PinMapConfig::default(),
            stimulus: VectorMemory::new(depth),
            response: VectorMemory::new(depth),
            clock_hz: MAX_CLOCK_HZ,
            configured: false,
        }
    }

    /// Configures pin mapping, lane directions/speeds and the board clock.
    ///
    /// # Errors
    ///
    /// Returns validation errors from the pin map, or
    /// [`BoardError::ClockTooFast`] above 20 MHz.
    pub fn configure(
        &mut self,
        map: PinMapConfig,
        lanes: [LaneConfig; LANES],
        clock_hz: u64,
    ) -> Result<(), BoardError> {
        if clock_hz == 0 || clock_hz > MAX_CLOCK_HZ {
            return Err(BoardError::ClockTooFast {
                requested_hz: clock_hz,
                max_hz: MAX_CLOCK_HZ,
            });
        }
        map.validate(&lanes)?;
        self.map = map;
        self.lanes = lanes;
        self.clock_hz = clock_hz;
        self.configured = true;
        Ok(())
    }

    /// Loads the stimulus memory with a copy of per-clock pin frames.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::NotConfigured`] before configuration or
    /// [`BoardError::MemoryOverflow`] past the memory depth.
    pub fn load_stimulus(&mut self, words: &[PinFrame]) -> Result<(), BoardError> {
        if !self.configured {
            return Err(BoardError::NotConfigured);
        }
        self.stimulus.load(words)
    }

    /// The supported test-cycle duration window `[1, memory depth]`.
    #[must_use]
    pub fn duration_window(&self) -> (u64, u64) {
        (1, self.stimulus.capacity() as u64)
    }

    /// Runs one hardware activity cycle of `duration` board clocks: plays
    /// the stimulus, clocks the DUT, records responses.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::NotConfigured`] or
    /// [`BoardError::DurationOutOfRange`].
    pub fn run_hw_cycle(
        &mut self,
        dut: &mut dyn HardwareDut,
        duration: u64,
    ) -> Result<(), BoardError> {
        if !self.configured {
            return Err(BoardError::NotConfigured);
        }
        let (min, max) = self.duration_window();
        if duration < min || duration > max {
            return Err(BoardError::DurationOutOfRange {
                requested: duration,
                min,
                max,
            });
        }
        self.response.clear();
        let mut driven: PinFrame = [0; LANES];
        let mut sampled: PinFrame = [0; LANES];
        for tick in 0..duration {
            let word = self.stimulus.word(tick as usize);
            for (lane, cfg) in self.lanes.iter().enumerate() {
                if cfg.direction == LaneDirection::Drive && cfg.active_at(tick) {
                    driven[lane] = word[lane];
                }
            }
            let out = dut.clock(&driven);
            for (lane, cfg) in self.lanes.iter().enumerate() {
                if cfg.direction == LaneDirection::Sample && cfg.active_at(tick) {
                    sampled[lane] = out[lane];
                }
            }
            self.response
                .push(sampled)
                .expect("response depth equals stimulus depth");
        }
        Ok(())
    }

    /// Runs a hardware cycle whose duration is taken from the loaded
    /// stimulus length ("automatically calculated", §3.3).
    ///
    /// # Errors
    ///
    /// See [`TestBoard::run_hw_cycle`]; an empty stimulus is a
    /// [`BoardError::DurationOutOfRange`] of 0.
    pub fn run_hw_cycle_auto(&mut self, dut: &mut dyn HardwareDut) -> Result<u64, BoardError> {
        let duration = self.stimulus.len() as u64;
        self.run_hw_cycle(dut, duration)?;
        Ok(duration)
    }

    /// The recorded response frames of the last hardware cycle.
    #[must_use]
    pub fn response(&self) -> &[PinFrame] {
        self.response.words()
    }

    /// The active pin map.
    #[must_use]
    pub fn map(&self) -> &PinMapConfig {
        &self.map
    }

    /// The configured board clock in Hz.
    #[must_use]
    pub fn clock_hz(&self) -> u64 {
        self.clock_hz
    }

    /// Wall-clock time `clocks` board cycles take at the configured clock —
    /// the *real-time* duration of a hardware activity phase.
    #[must_use]
    pub fn real_time(&self, clocks: u64) -> Duration {
        Duration::from_secs_f64(clocks as f64 / self.clock_hz as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dut::MappedCycleDut;
    use castanet_rtl::cycle::{CycleDut, PortDecl};

    struct Inc;
    impl CycleDut for Inc {
        fn input_ports(&self) -> Vec<PortDecl> {
            vec![PortDecl::new("x", 8)]
        }
        fn output_ports(&self) -> Vec<PortDecl> {
            vec![PortDecl::new("y", 8)]
        }
        fn reset(&mut self) {}
        fn clock_edge(&mut self, i: &[u64], o: &mut [u64]) {
            o[0] = (i[0] + 1) & 0xFF;
        }
    }

    fn configured_board() -> (TestBoard, MappedCycleDut, PinMapConfig) {
        let (dut, lanes) = MappedCycleDut::auto_mapped(Box::new(Inc));
        let map = dut.map().clone();
        let mut board = TestBoard::with_memory_depth(64);
        board.configure(map.clone(), lanes, 10_000_000).unwrap();
        (board, dut, map)
    }

    #[test]
    fn stimulus_to_response_pipeline() {
        let (mut board, mut dut, map) = configured_board();
        let mut words = Vec::new();
        for v in [10u64, 20, 30] {
            let mut f: PinFrame = [0; LANES];
            map.encode_inport(0, v, &mut f).unwrap();
            words.push(f);
        }
        board.load_stimulus(&words).unwrap();
        let n = board.run_hw_cycle_auto(&mut dut).unwrap();
        assert_eq!(n, 3);
        let resp = board.response();
        assert_eq!(resp.len(), 3);
        for (i, expect) in [11u64, 21, 31].into_iter().enumerate() {
            assert_eq!(map.decode_outport(0, &resp[i]).unwrap(), expect);
        }
    }

    #[test]
    fn unconfigured_board_refuses_everything() {
        let mut board = TestBoard::new();
        assert_eq!(board.load_stimulus(&[]), Err(BoardError::NotConfigured));
        let (_, mut dut, _) = configured_board();
        assert_eq!(
            board.run_hw_cycle(&mut dut, 1),
            Err(BoardError::NotConfigured)
        );
    }

    #[test]
    fn clock_limit_enforced() {
        let (dut, lanes) = MappedCycleDut::auto_mapped(Box::new(Inc));
        let mut board = TestBoard::new();
        let err = board
            .configure(dut.map().clone(), lanes, MAX_CLOCK_HZ + 1)
            .unwrap_err();
        assert!(matches!(err, BoardError::ClockTooFast { .. }));
        assert!(board
            .configure(dut.map().clone(), lanes, MAX_CLOCK_HZ)
            .is_ok());
    }

    #[test]
    fn duration_window_enforced() {
        let (mut board, mut dut, _) = configured_board();
        assert_eq!(board.duration_window(), (1, 64));
        assert!(matches!(
            board.run_hw_cycle(&mut dut, 0),
            Err(BoardError::DurationOutOfRange { requested: 0, .. })
        ));
        assert!(matches!(
            board.run_hw_cycle(&mut dut, 65),
            Err(BoardError::DurationOutOfRange { requested: 65, .. })
        ));
        assert!(board.run_hw_cycle(&mut dut, 64).is_ok());
    }

    #[test]
    fn short_stimulus_holds_last_values() {
        let (mut board, mut dut, map) = configured_board();
        let mut f: PinFrame = [0; LANES];
        map.encode_inport(0, 5, &mut f).unwrap();
        board.load_stimulus(&[f]).unwrap();
        board.run_hw_cycle(&mut dut, 4).unwrap();
        // Clock 0 drives 5; later clocks read the zero frames past the end,
        // so the driven value becomes 0 and output 1.
        let resp = board.response();
        assert_eq!(map.decode_outport(0, &resp[0]).unwrap(), 6);
        assert_eq!(map.decode_outport(0, &resp[3]).unwrap(), 1);
    }

    #[test]
    fn gated_lane_updates_at_its_own_rate() {
        let (dut, mut lanes) = MappedCycleDut::auto_mapped(Box::new(Inc));
        let map = dut.map().clone();
        // Slow the driving lane (lane 0) to every 2nd clock.
        lanes[0] = lanes[0].with_gating(2);
        let mut board = TestBoard::with_memory_depth(8);
        board.configure(map.clone(), lanes, 1_000_000).unwrap();
        let mut words = Vec::new();
        for v in [1u64, 2, 3, 4] {
            let mut f: PinFrame = [0; LANES];
            map.encode_inport(0, v, &mut f).unwrap();
            words.push(f);
        }
        board.load_stimulus(&words).unwrap();
        let mut dut = dut;
        board.run_hw_cycle(&mut dut, 4).unwrap();
        let resp = board.response();
        // Lane updates at ticks 0 and 2 only: values 1,1,3,3 -> +1.
        let got: Vec<u64> = (0..4)
            .map(|i| map.decode_outport(0, &resp[i]).unwrap())
            .collect();
        assert_eq!(got, vec![2, 2, 4, 4]);
    }

    #[test]
    fn real_time_model() {
        let (board, _, _) = configured_board();
        assert_eq!(board.real_time(10_000_000), Duration::from_secs(1));
        assert_eq!(board.clock_hz(), 10_000_000);
    }

    #[test]
    fn response_cleared_between_cycles() {
        let (mut board, mut dut, map) = configured_board();
        let mut f: PinFrame = [0; LANES];
        map.encode_inport(0, 1, &mut f).unwrap();
        board.load_stimulus(&[f; 5]).unwrap();
        board.run_hw_cycle(&mut dut, 5).unwrap();
        assert_eq!(board.response().len(), 5);
        board.run_hw_cycle(&mut dut, 2).unwrap();
        assert_eq!(board.response().len(), 2);
    }
}
