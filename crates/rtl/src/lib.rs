//! # castanet-rtl — event-driven and cycle-based RTL simulation
//!
//! A from-scratch substitute for the Synopsys VHDL System Simulator the
//! DATE'98 CASTANET paper couples to its network simulator:
//!
//! * [`logic`] / [`vector`] — the IEEE-1164 nine-value system and
//!   `STD_LOGIC_VECTOR`s;
//! * [`sim`] — an event-driven kernel with delta cycles, sensitivity lists
//!   and multi-driver signal resolution;
//! * [`cycle`] — the cycle-based engine the paper's conclusion calls for,
//!   sharing DUTs with the event-driven kernel via
//!   [`cycle::attach_cycle_dut`]; [`cycle::CycleSim`] is a one-lane
//!   [`compiled::LaneBank`];
//! * [`compiled`] — [`compiled::LaneBank`], 1 to 64 replicated
//!   behavioural DUT instances held together as scenario lanes, each
//!   clocked on its own through a [`compiled::Lane`] handle — the DUT
//!   side of the cycle follower at any lane count;
//! * [`netlist`] — netlist introspection: the signal→process→signal
//!   dataflow graph, structural checks (combinational loops, multi-driver
//!   conflicts, sensitivity completeness, gated-clock safety) behind
//!   `castanet-lint --rtl`;
//! * [`dut`] — the paper's ATM hardware: byte-serial cell receiver and
//!   transmitter (Fig. 4), the 4-port switch with global control unit (the
//!   headline workload) and the accounting unit of the §4 case study;
//! * [`testbench`] — the classic pure-RTL regression bench used as the E1
//!   baseline;
//! * [`timing`] — setup/hold monitors (the timing half of "verification
//!   of timing and functionality by simulation");
//! * [`wave`] — VCD waveform dumping.
//!
//! ## Quick start
//!
//! ```
//! use castanet_rtl::cycle::CycleSim;
//! use castanet_rtl::dut::CellReceiver;
//! use castanet_atm::addr::{HeaderFormat, VpiVci};
//! use castanet_atm::cell::AtmCell;
//!
//! // Stream one ATM cell into the receiver DUT, one octet per clock.
//! let cell = AtmCell::user_data(VpiVci::uni(1, 42)?, [0; 48]);
//! let wire = cell.encode(HeaderFormat::Uni)?;
//! let mut sim = CycleSim::new(Box::new(CellReceiver::new()));
//! for (i, &byte) in wire[..52].iter().enumerate() {
//!     sim.step(&[u64::from(byte), u64::from(i == 0), 1, 0])?;
//! }
//! // `step` returns the outputs after the edge, from a buffer it owns.
//! let last = sim.step(&[u64::from(wire[52]), 0, 1, 0])?;
//! assert_eq!(last[0], 1, "cell_valid after 53 clocks");
//! assert_eq!(last[3], 42, "vci decoded");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compiled;
pub mod cycle;
pub mod dut;
pub mod error;
pub mod logic;
pub mod netlist;
pub mod signal;
pub mod sim;
pub mod testbench;
pub mod timing;
pub mod vector;
pub mod wave;
pub mod wheel;

pub use compiled::{LaneBank, LANES};
pub use cycle::{CycleDut, CycleSim, PortDecl};
pub use error::RtlError;
pub use logic::Logic;
pub use netlist::{NetlistGraph, ProcessIo, ProcessKind, StructuralFinding};
pub use signal::SignalId;
pub use sim::{RtlCtx, RtlProcess, SimCounters, Simulator};
pub use vector::LogicVector;
