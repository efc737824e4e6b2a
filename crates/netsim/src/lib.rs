//! # castanet-netsim — discrete-event network simulator
//!
//! A from-scratch substitute for the OPNET Modeler network simulator that the
//! DATE'98 paper *"A System-Level Co-Verification Environment for ATM
//! Hardware Design"* couples to a VHDL simulator. It provides the three
//! modelling domains the paper names:
//!
//! * **network domain** ([`kernel`]) — nodes, and the streams and links
//!   that connect their modules;
//! * **node domain** ([`kernel`]) — modules with processing and
//!   communication interfaces;
//! * **process domain** ([`process`]) — behaviour as communicating extended
//!   FSMs.
//!
//! plus the infrastructure around them: a time-ordered event list
//! ([`scheduler`]), picosecond-resolution simulated time ([`time`]),
//! rate/delay links ([`link`]), typed packets ([`packet`]), statistic probes
//! ([`stats`]) and reproducible random streams ([`random`]).
//!
//! ## Quick start
//!
//! ```
//! use castanet_netsim::kernel::{Ctx, Kernel};
//! use castanet_netsim::event::PortId;
//! use castanet_netsim::packet::Packet;
//! use castanet_netsim::process::{CollectorProcess, Process};
//! use castanet_netsim::time::{SimDuration, SimTime};
//!
//! // A source that emits one packet per simulated microsecond.
//! struct Source { left: u32 }
//! impl Process for Source {
//!     fn init(&mut self, ctx: &mut Ctx) {
//!         ctx.schedule_self(SimDuration::from_us(1), 0).expect("schedule");
//!     }
//!     fn on_packet(&mut self, _: &mut Ctx, _: PortId, _: Packet) {}
//!     fn on_interrupt(&mut self, ctx: &mut Ctx, _: u32) {
//!         ctx.send(PortId(0), Packet::new(0, 424)).expect("send");
//!         self.left -= 1;
//!         if self.left > 0 {
//!             ctx.schedule_self(SimDuration::from_us(1), 0).expect("schedule");
//!         }
//!     }
//! }
//!
//! let mut kernel = Kernel::new(42);
//! let node = kernel.add_node("demo");
//! let src = kernel.add_module(node, "src", Box::new(Source { left: 3 }));
//! let (sink, received) = CollectorProcess::new();
//! let dst = kernel.add_module(node, "sink", Box::new(sink));
//! kernel.connect_stream(src, PortId(0), dst, PortId(0))?;
//! kernel.run()?;
//! assert_eq!(received.len(), 3);
//! assert_eq!(kernel.now(), SimTime::from_us(3));
//! # Ok::<(), castanet_netsim::error::NetsimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod event;
pub mod kernel;
pub mod link;
pub mod packet;
pub mod process;
pub mod random;
pub mod scheduler;
pub mod stats;
pub mod time;

pub use error::NetsimError;
pub use event::{ModuleId, NodeId, PortId};
pub use kernel::{Ctx, Kernel, StopReason};
pub use link::LinkParams;
pub use packet::Packet;
pub use process::{Fsm, FsmEvent, FsmProcess, Process};
pub use time::{SimDuration, SimTime};
