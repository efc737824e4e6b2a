//! Events of the discrete-event kernel.
//!
//! Every event carries a time stamp; the kernel executes events in monotone
//! non-decreasing time-stamp order (the property Fig. 3 of the paper depends
//! on). Ties are broken by a strictly increasing sequence number so that two
//! events scheduled for the same instant execute in scheduling order, which
//! makes simulations deterministic and reproducible.

use crate::packet::Packet;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::fmt;

/// Identifies a module (a process instance inside a node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModuleId(pub(crate) usize);

impl ModuleId {
    /// Raw index of the module in the kernel's module table.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "module#{}", self.0)
    }
}

/// Identifies a node (a grouping of modules in the network domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Raw index of the node in the kernel's node table.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// A port index local to a module. Output port `k` of one module connects to
/// an input port of another module via a stream or link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PortId(pub usize);

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port{}", self.0)
    }
}

/// What an event does when it fires.
#[derive(Debug)]
pub enum EventKind {
    /// A packet arrives on an input port of a module.
    Arrival {
        /// Destination module.
        module: ModuleId,
        /// Input port on the destination module.
        port: PortId,
        /// The arriving packet.
        packet: Packet,
    },
    /// A (self-)interrupt delivered to a module, with a user-chosen code.
    Interrupt {
        /// Destination module.
        module: ModuleId,
        /// User-defined discriminator (e.g. "cell slot tick").
        code: u32,
    },
    /// Stop the simulation when executed.
    Stop,
}

impl EventKind {
    /// The module this event is addressed to, if any.
    #[must_use]
    pub fn target(&self) -> Option<ModuleId> {
        match self {
            EventKind::Arrival { module, .. } | EventKind::Interrupt { module, .. } => {
                Some(*module)
            }
            EventKind::Stop => None,
        }
    }
}

/// A scheduled event: time stamp, tie-breaking sequence number, payload.
#[derive(Debug)]
pub struct Event {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind,
}

impl Event {
    /// Time at which the event fires.
    #[must_use]
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// The event payload.
    #[must_use]
    pub fn kind(&self) -> &EventKind {
        &self.kind
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    /// Orders by `(time, seq)`: earlier first, FIFO among equal times.
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interrupt_at(ns: u64, seq: u64) -> Event {
        Event {
            time: SimTime::from_ns(ns),
            seq,
            kind: EventKind::Interrupt {
                module: ModuleId(0),
                code: 0,
            },
        }
    }

    #[test]
    fn events_order_by_time_then_seq() {
        let a = interrupt_at(5, 10);
        let b = interrupt_at(5, 11);
        let c = interrupt_at(4, 99);
        assert!(c < a);
        assert!(a < b);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn target_of_kinds() {
        let ev = interrupt_at(1, 0);
        assert_eq!(ev.kind().target(), Some(ModuleId(0)));
        assert_eq!(EventKind::Stop.target(), None);
    }

    #[test]
    fn display_of_ids() {
        assert_eq!(ModuleId(3).to_string(), "module#3");
        assert_eq!(NodeId(1).to_string(), "node#1");
        assert_eq!(PortId(2).to_string(), "port2");
    }
}
