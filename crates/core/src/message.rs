//! Time-stamped inter-simulator messages.
//!
//! "Communication between both simulators is based on the exchange of
//! time-stamped messages updating the receiving simulator with the current
//! simulation time of the originator" (§3.1). A message carries its
//! originator's time stamp, a *message type* (the unit the conservative
//! protocol's per-type in-order check and processing delays `δ_j` attach to),
//! a co-simulation port index, and a payload.

use castanet_atm::cell::AtmCell;
use castanet_netsim::time::SimTime;
use std::fmt;

/// Identifies a message type. The conservative synchronizer maintains one
/// input queue and one processing delay per type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageTypeId(pub u32);

impl fmt::Display for MessageTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type#{}", self.0)
    }
}

/// The content of a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MessagePayload {
    /// An ATM cell (the dominant traffic of the environment).
    Cell(AtmCell),
    /// Raw bytes for custom test vectors.
    Raw(Vec<u8>),
    /// A scalar control/configuration word.
    Control(u64),
    /// A pure time update ("null message"): no content, only the stamp.
    TimeOnly,
}

impl MessagePayload {
    /// Short label for diagnostics.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            MessagePayload::Cell(_) => "cell",
            MessagePayload::Raw(_) => "raw",
            MessagePayload::Control(_) => "control",
            MessagePayload::TimeOnly => "time",
        }
    }
}

/// One inter-simulator message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// The originator's simulation time when the message was produced.
    pub stamp: SimTime,
    /// The type the synchronizer queues it under.
    pub type_id: MessageTypeId,
    /// The co-simulation port (e.g. which DUT line) it addresses.
    pub port: usize,
    /// The content.
    pub payload: MessagePayload,
}

impl Message {
    /// Builds a cell message.
    #[must_use]
    pub fn cell(stamp: SimTime, type_id: MessageTypeId, port: usize, cell: AtmCell) -> Self {
        Message {
            stamp,
            type_id,
            port,
            payload: MessagePayload::Cell(cell),
        }
    }

    /// Builds a null (time-update) message.
    #[must_use]
    pub fn time_update(stamp: SimTime, type_id: MessageTypeId) -> Self {
        Message {
            stamp,
            type_id,
            port: 0,
            payload: MessagePayload::TimeOnly,
        }
    }

    /// The cell payload, if this is a cell message.
    #[must_use]
    pub fn as_cell(&self) -> Option<&AtmCell> {
        match &self.payload {
            MessagePayload::Cell(c) => Some(c),
            _ => None,
        }
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} {} port{} {}]",
            self.stamp,
            self.type_id,
            self.port,
            self.payload.kind()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use castanet_atm::addr::VpiVci;

    #[test]
    fn constructors_and_accessors() {
        let cell = AtmCell::user_data(VpiVci::uni(1, 40).unwrap(), [0; 48]);
        let m = Message::cell(SimTime::from_us(3), MessageTypeId(1), 2, cell.clone());
        assert_eq!(m.as_cell(), Some(&cell));
        assert_eq!(m.port, 2);
        assert_eq!(m.payload.kind(), "cell");

        let t = Message::time_update(SimTime::from_us(9), MessageTypeId(0));
        assert_eq!(t.as_cell(), None);
        assert_eq!(t.payload.kind(), "time");
    }

    #[test]
    fn display_is_compact() {
        let m = Message::time_update(SimTime::from_ns(5), MessageTypeId(3));
        assert_eq!(m.to_string(), "[5 ns type#3 port0 time]");
    }

    #[test]
    fn payload_kinds() {
        assert_eq!(MessagePayload::Raw(vec![1]).kind(), "raw");
        assert_eq!(MessagePayload::Control(7).kind(), "control");
    }
}
