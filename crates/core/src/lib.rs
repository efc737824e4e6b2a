//! # castanet — the co-verification environment
//!
//! Reproduction of CASTANET, the **C**onfigurable **A**TM **S**imulation
//! **T**estbench **A**pplying **NET**work simulations of Post, Müller and
//! Grötker (DATE 1998): a coupling of a telecommunication network simulator
//! with an HDL simulator and a hardware test board, so that hardware for
//! networking components can be verified against its algorithm reference
//! model using the *same* traffic models and test benches at every level of
//! abstraction.
//!
//! The pieces, mapped to the paper:
//!
//! * [`sync`] — §3.1: the conservative timing-window protocol (plus the
//!   optimistic and lockstep alternatives it is compared against);
//! * [`convert`] — §3.2 / Fig. 4: abstraction interfaces mapping abstract
//!   data types to bit-level signal streams;
//! * [`entity`] — the co-simulation entity inside the HDL simulation;
//! * [`interface`] — the CASTANET interface process inside the network
//!   simulator;
//! * [`coupling`] — Fig. 2: the executive that runs both simulators with
//!   the follower's clock always lagging;
//! * [`cyclecosim`] — the cycle-based follower with idle skipping (the
//!   paper's §5 conclusion), over 1 to 64 scenario lanes of one DUT;
//! * [`compiledcosim`] — the benchmark's name for a multi-lane cycle
//!   follower, a forwarding newtype;
//! * [`hwloop`] — §3.3: hardware in the simulation loop via the test board;
//! * [`compare`] — Fig. 1's "=?": reference-vs-DUT stream comparison;
//! * [`traceio`] — dump/replay of test vectors;
//! * [`conformance`] — customized and standardized conformance vectors;
//! * [`parallel`] — the parallel coupled-engine executor: originator and
//!   follower on separate threads, coupled by lock-free SPSC rings that
//!   carry batched timing windows;
//! * [`ring`] — the preallocated cache-line-padded SPSC ring transport
//!   the parallel executor runs on;
//! * [`ipc`] — the UNIX-IPC message transport (in-process and Unix-socket);
//! * [`remote`] — the two-process deployment: any follower served over a
//!   transport, with a protocol client on the coupling side;
//! * [`verify`] — co-verification session summaries.
//!
//! Observability (structured protocol tracing, metrics, exporters) lives in
//! the `castanet-obs` crate; every layer here accepts its [`Telemetry`]
//! handle (re-exported below) and is zero-cost when it is disabled.
//!
//! The substrates (network simulator, ATM model suite, RTL simulator, test
//! board) live in their own crates: `castanet-netsim`, `castanet-atm`,
//! `castanet-rtl`, `castanet-testboard`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compare;
pub mod compiledcosim;
pub mod conformance;
pub mod convert;
pub mod coupling;
pub mod cyclecosim;
pub mod entity;
pub mod error;
pub mod hwloop;
pub mod interface;
pub mod ipc;
pub mod message;
pub mod parallel;
pub mod remote;
pub mod ring;
mod stimulus;
pub mod sync;
pub mod traceio;
pub mod verify;

pub use castanet_obs::Telemetry;
pub use compare::{ComparisonReport, StreamComparator};
pub use compiledcosim::CompiledCosim;
pub use coupling::{CoupledSimulator, Coupling, CouplingStats, RtlCosim};
pub use cyclecosim::CycleCosim;
pub use entity::CosimEntity;
pub use error::CastanetError;
pub use hwloop::BoardCosim;
pub use interface::CastanetInterfaceProcess;
pub use message::{Message, MessagePayload, MessageTypeId};
pub use parallel::{AdaptiveWindow, ParallelCoupling};
pub use remote::{FollowerServer, RemoteFollower};
pub use ring::SpscRing;
pub use sync::{ConservativeSync, LockstepSync, OptimisticSync};
