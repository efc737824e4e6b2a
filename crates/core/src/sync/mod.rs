//! Synchronization of parallel discrete-event simulators.
//!
//! "The simultaneous execution of OPNET with a VHDL simulator is a special
//! case of parallel distributed discrete-event simulation. A difficult
//! problem … is the avoidance of deadlock." (§3.1)
//!
//! Three synchronizers are provided:
//!
//! * [`conservative::ConservativeSync`] — the paper's protocol, in the
//!   grant-horizon form both executors run: user-specified processing
//!   delays `δ_j`, a grant raised by stamped (or null) messages, and the
//!   invariant that the HDL simulator's time always lags the network
//!   simulator's. Deadlock-free by construction.
//! * [`optimistic::OptimisticSync`] — the Time-Warp alternative the paper
//!   rejects: local time advances freely, causality errors trigger rollback
//!   to a saved state, and "the memory requirements for the storage of the
//!   simulator state turn out to be very large" — measurably so, in
//!   experiment E2.
//! * [`lockstep::LockstepSync`] — the naive fixed-quantum baseline, correct
//!   only when the quantum does not exceed the real lookahead and wasteful
//!   in synchronization operations when it is small.

pub mod conservative;
pub mod lockstep;
pub mod optimistic;

pub use conservative::ConservativeSync;
pub use lockstep::LockstepSync;
pub use optimistic::OptimisticSync;
