//! Error type of the ATM model suite.

use crate::addr::HeaderFormat;
use std::fmt;

/// Errors produced by cell handling, switching and adaptation layers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AtmError {
    /// A VPI value exceeds the width of its header format.
    VpiOutOfRange {
        /// Offending value.
        value: u16,
        /// Format whose field it must fit.
        format: HeaderFormat,
    },
    /// A GFC value exceeds 4 bits, or is non-zero at the NNI.
    GfcOutOfRange {
        /// Offending value.
        value: u8,
        /// Format being encoded.
        format: HeaderFormat,
    },
    /// A received header failed its HEC check.
    HecMismatch,
    /// A cell buffer was not exactly 53 octets.
    CellLength {
        /// The length that was supplied.
        got: usize,
    },
    /// A switching table has no entry for the given connection.
    NoRoute {
        /// VPI of the unroutable cell.
        vpi: u16,
        /// VCI of the unroutable cell.
        vci: u16,
    },
    /// A switching-table entry would be overwritten.
    RouteExists {
        /// VPI of the existing entry.
        vpi: u16,
        /// VCI of the existing entry.
        vci: u16,
    },
    /// A switch port index was out of range.
    PortOutOfRange {
        /// The requested port.
        port: usize,
        /// Number of ports on the device.
        ports: usize,
    },
    /// AAL5 reassembly failed (CRC-32 or length mismatch, or oversized
    /// frame).
    Aal5 {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// An OAM cell failed validation (CRC-10, type or function fields).
    Oam {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// An accounting operation referenced an unregistered connection.
    UnknownConnection {
        /// VPI of the unknown connection.
        vpi: u16,
        /// VCI of the unknown connection.
        vci: u16,
    },
}

impl fmt::Display for AtmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtmError::VpiOutOfRange { value, format } => {
                write!(
                    f,
                    "vpi {value} does not fit the {format} header (max {})",
                    format.max_vpi()
                )
            }
            AtmError::GfcOutOfRange { value, format } => {
                write!(f, "gfc {value:#x} invalid for {format} header")
            }
            AtmError::HecMismatch => write!(f, "header failed its hec check"),
            AtmError::CellLength { got } => {
                write!(f, "a cell is 53 octets, got {got}")
            }
            AtmError::NoRoute { vpi, vci } => {
                write!(f, "no switching-table entry for VPI={vpi}/VCI={vci}")
            }
            AtmError::RouteExists { vpi, vci } => {
                write!(
                    f,
                    "switching-table entry for VPI={vpi}/VCI={vci} already exists"
                )
            }
            AtmError::PortOutOfRange { port, ports } => {
                write!(f, "port {port} out of range for a {ports}-port device")
            }
            AtmError::Aal5 { reason } => write!(f, "aal5 reassembly failed: {reason}"),
            AtmError::Oam { reason } => write!(f, "oam cell rejected: {reason}"),
            AtmError::UnknownConnection { vpi, vci } => {
                write!(f, "connection VPI={vpi}/VCI={vci} is not registered")
            }
        }
    }
}

impl std::error::Error for AtmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = AtmError::VpiOutOfRange {
            value: 300,
            format: HeaderFormat::Uni,
        };
        assert_eq!(
            e.to_string(),
            "vpi 300 does not fit the UNI header (max 255)"
        );
        assert_eq!(
            AtmError::HecMismatch.to_string(),
            "header failed its hec check"
        );
        assert_eq!(
            AtmError::NoRoute { vpi: 1, vci: 2 }.to_string(),
            "no switching-table entry for VPI=1/VCI=2"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AtmError>();
    }
}
