//! # castanet-testboard — the hardware test board model
//!
//! A from-scratch substitute for the RAVEN hardware test board the DATE'98
//! CASTANET paper uses for functional chip verification (§3.3, ref. \[16\]):
//!
//! * [`lane`] — 16 byte lanes / 128 I/O pins, each configurable in
//!   direction and speed; 20 MHz maximum board clock;
//! * [`pinmap`] — the Fig. 5 configuration data set: inport / outport /
//!   I/O-port / control-port mappings in terms of byte lane ID, start bit
//!   position and number of bits, with full validation;
//! * [`memory`] — stimulus and response vector memories whose depth bounds
//!   the supported test-cycle duration window;
//! * [`board`] — the board itself: configuration, stimulus playback,
//!   response capture;
//! * [`cycle`] — the SW-stimulus → HW-run → SW-readback test-cycle state
//!   machine with a wall-clock model of where time goes;
//! * [`scsi`] — the host↔board transport, modelled by bandwidth + latency;
//! * [`dut`] — the simulated prototype chip: any `castanet-rtl` cycle DUT
//!   behind a pin map, optionally wrapped in a timing-fault injector that
//!   misbehaves above its rated clock — the failures only real-time
//!   verification can catch.
//!
//! The physical board, SCSI bus and prototype silicon of the paper are
//! unavailable; every substitution preserves the interface and the timing
//! structure the co-verification flow interacts with (see DESIGN.md §2).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod board;
pub mod cycle;
pub mod dut;
pub mod error;
pub mod lane;
pub mod memory;
pub mod pinmap;
pub mod scsi;

pub use board::TestBoard;
pub use cycle::{SessionStats, TestSession};
pub use dut::{HardwareDut, MappedCycleDut, TimingFaultDut};
pub use error::BoardError;
pub use lane::{LaneConfig, LaneDirection, LANES, MAX_CLOCK_HZ, PINS};
pub use pinmap::{PinFrame, PinMapConfig};
