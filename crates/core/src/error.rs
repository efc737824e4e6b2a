//! Error type of the CASTANET coupling layer.

use castanet_netsim::time::SimTime;
use std::fmt;

/// Errors surfaced by coupling, synchronization and conversion.
#[derive(Debug)]
#[non_exhaustive]
pub enum CastanetError {
    /// A message arrived with a time stamp in the receiver's past — the
    /// causality error of Fig. 3 that the conservative protocol must
    /// prevent.
    Causality {
        /// The offending message stamp.
        stamp: SimTime,
        /// The receiver's local time.
        local: SimTime,
    },
    /// A message referenced an unregistered message type.
    UnknownMessageType {
        /// The type id used.
        type_id: u32,
    },
    /// A message referenced an unknown co-simulation port.
    UnknownPort {
        /// The port index used.
        port: usize,
    },
    /// A multi-lane follower was addressed on a lane it does not have.
    UnknownLane {
        /// The lane index used.
        lane: usize,
        /// Lanes the follower has.
        lanes: usize,
    },
    /// Conversion between abstract data and bit-level form failed.
    Convert(String),
    /// Framing/serialization of an IPC message failed.
    Codec(String),
    /// The underlying IPC transport failed.
    Transport(String),
    /// An error from the network-simulator side.
    Netsim(castanet_netsim::NetsimError),
    /// An error from the RTL-simulator side.
    Rtl(castanet_rtl::RtlError),
    /// An error from the test-board side.
    Board(castanet_testboard::BoardError),
    /// An error from the ATM model suite.
    Atm(castanet_atm::AtmError),
    /// The optimistic synchronizer exhausted its state-saving memory.
    OptimisticMemoryExhausted {
        /// Checkpoints held when the limit was hit.
        checkpoints: usize,
    },
    /// Static pre-flight analysis rejected the configuration before the
    /// run started (strict mode). Each entry is one finding, prefixed with
    /// its stable `CAST0xx` diagnostic code.
    Preflight(Vec<String>),
}

impl fmt::Display for CastanetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CastanetError::Causality { stamp, local } => {
                write!(
                    f,
                    "message stamped {stamp} arrived in the local past (now {local})"
                )
            }
            CastanetError::UnknownMessageType { type_id } => {
                write!(f, "message type {type_id} is not registered")
            }
            CastanetError::UnknownPort { port } => {
                write!(f, "co-simulation port {port} is not configured")
            }
            CastanetError::UnknownLane { lane, lanes } => {
                write!(f, "lane {lane} is out of range ({lanes} lanes)")
            }
            CastanetError::Convert(msg) => write!(f, "conversion failed: {msg}"),
            CastanetError::Codec(msg) => write!(f, "message codec failed: {msg}"),
            CastanetError::Transport(msg) => write!(f, "ipc transport failed: {msg}"),
            CastanetError::Netsim(e) => write!(f, "network simulator: {e}"),
            CastanetError::Rtl(e) => write!(f, "rtl simulator: {e}"),
            CastanetError::Board(e) => write!(f, "test board: {e}"),
            CastanetError::Atm(e) => write!(f, "atm model: {e}"),
            CastanetError::OptimisticMemoryExhausted { checkpoints } => {
                write!(
                    f,
                    "optimistic synchronizer out of checkpoint memory ({checkpoints} held)"
                )
            }
            CastanetError::Preflight(findings) => {
                write!(
                    f,
                    "pre-flight check rejected the configuration: {}",
                    findings.join("; ")
                )
            }
        }
    }
}

impl std::error::Error for CastanetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CastanetError::Netsim(e) => Some(e),
            CastanetError::Rtl(e) => Some(e),
            CastanetError::Board(e) => Some(e),
            CastanetError::Atm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<castanet_netsim::NetsimError> for CastanetError {
    fn from(e: castanet_netsim::NetsimError) -> Self {
        CastanetError::Netsim(e)
    }
}

impl From<castanet_rtl::RtlError> for CastanetError {
    fn from(e: castanet_rtl::RtlError) -> Self {
        CastanetError::Rtl(e)
    }
}

impl From<castanet_testboard::BoardError> for CastanetError {
    fn from(e: castanet_testboard::BoardError) -> Self {
        CastanetError::Board(e)
    }
}

impl From<castanet_atm::AtmError> for CastanetError {
    fn from(e: castanet_atm::AtmError) -> Self {
        CastanetError::Atm(e)
    }
}

impl From<std::io::Error> for CastanetError {
    fn from(e: std::io::Error) -> Self {
        CastanetError::Transport(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = CastanetError::Causality {
            stamp: SimTime::from_ns(5),
            local: SimTime::from_ns(9),
        };
        assert_eq!(
            e.to_string(),
            "message stamped 5 ns arrived in the local past (now 9 ns)"
        );
        assert!(CastanetError::UnknownMessageType { type_id: 7 }
            .to_string()
            .contains("type 7"));
    }

    #[test]
    fn sources_chain() {
        use std::error::Error;
        let e = CastanetError::from(castanet_netsim::NetsimError::TopologyFrozen);
        assert!(e.source().is_some());
        let e = CastanetError::from(castanet_atm::AtmError::HecMismatch);
        assert!(e.to_string().contains("hec"));
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CastanetError>();
    }
}
