//! # castanet-atm — the ATM model suite
//!
//! A from-scratch substitute for the OPNET ATM model suite the DATE'98
//! CASTANET paper builds on: cells and their wire format ([`cell`]), header
//! error control with single-bit correction ([`hec`]), addressing
//! ([`addr`]), idle-cell rate decoupling ([`idle`]), the traffic-model
//! library ([`traffic`]), GCRA/leaky-bucket policing ([`gcra`]), an N-port
//! switch reference model with a global control unit ([`switch`]), the
//! accounting-unit charging algorithm of the paper's case study
//! ([`accounting`]), AAL5 segmentation/reassembly ([`aal5`]), OAM F5
//! loopback flows ([`oam`]) and congestion discard policies ([`discard`]);
//! noisy lines with receive-side header error control live in
//! [`line`](mod@line).
//!
//! Everything here is an *algorithm reference model* at the network
//! simulator's level of abstraction; the clock-level twins live in
//! `castanet-rtl` and the CASTANET coupling verifies one against the other.
//!
//! ## Quick start
//!
//! ```
//! use castanet_atm::addr::VpiVci;
//! use castanet_atm::cell::AtmCell;
//! use castanet_atm::addr::HeaderFormat;
//!
//! let conn = VpiVci::uni(1, 42)?;
//! let cell = AtmCell::user_data(conn, [0x5A; 48]);
//! let wire = cell.encode(HeaderFormat::Uni)?;      // 53 octets with HEC
//! assert_eq!(AtmCell::decode(&wire, HeaderFormat::Uni)?, cell);
//! # Ok::<(), castanet_atm::error::AtmError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aal5;
pub mod accounting;
pub mod addr;
pub mod cell;
pub mod discard;
pub mod error;
pub mod gcra;
pub mod hec;
pub mod idle;
pub mod line;
pub mod oam;
pub mod switch;
pub mod traffic;

pub use addr::{HeaderFormat, Vci, Vpi, VpiVci};
pub use cell::{AtmCell, CellHeader, PayloadType, CELL_BITS, CELL_OCTETS, PAYLOAD_OCTETS};
pub use error::AtmError;
pub use gcra::{Conformance, Gcra};
pub use traffic::TrafficModel;
