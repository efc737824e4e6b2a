//! Sync-liveness pass: the deadlock-freedom preconditions of §3.1.
//!
//! The conservative protocol is deadlock-free because (a) the grant horizon
//! is monotone in the received stamps and (b) the originator can always
//! raise it. Both degenerate when the configuration is malformed: with no
//! registered types no grant is ever issued, and a type with `δ_j = 0`
//! contributes zero lookahead — the parallel executor's window gets no
//! headroom from it, and progress relies entirely on explicit null
//! messages.

use crate::diagnostic::{Diagnostic, Severity};
use castanet::message::MessageTypeId;
use castanet::sync::conservative::ConservativeSync;
use castanet_netsim::time::SimDuration;

/// Checks the synchronizer's liveness preconditions.
///
/// `cell_type` is the message type the coupling will send stimulus as, when
/// known; pass `None` when linting a bare synchronizer.
#[must_use]
pub fn check_sync(sync: &ConservativeSync, cell_type: Option<MessageTypeId>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    if sync.type_count() == 0 {
        diags.push(
            Diagnostic::new(
                "CAST001",
                Severity::Error,
                "sync",
                "no message types registered: the follower can never be granted \
                 simulation time, so the coupled run cannot start",
            )
            .with_hint(
                "call ConservativeSync::register_type(delta) before assembling the coupling",
            ),
        );
    }

    for (type_id, delta) in sync.deltas() {
        if delta == SimDuration::ZERO {
            diags.push(
                Diagnostic::new(
                    "CAST002",
                    Severity::Warning,
                    format!("sync.type[{}]", type_id.0),
                    "processing delay δ_j is zero: this type contributes no lookahead, \
                     so the parallel window gets no headroom and the protocol risks \
                     deadlock unless null messages always arrive (§3.1)",
                )
                .with_hint(
                    "register the type with its worst-case processing delay, e.g. \
                     clock_period * 53 for a full cell transfer",
                ),
            );
        }
    }

    if let Some(cell_type) = cell_type {
        if sync.type_delta(cell_type).is_none() {
            diags.push(
                Diagnostic::new(
                    "CAST003",
                    Severity::Error,
                    format!("coupling.cell_type[{}]", cell_type.0),
                    format!(
                        "cell type {} is not registered with the synchronizer: every \
                         stimulus delivery would fail with UnknownMessageType",
                        cell_type.0
                    ),
                )
                .with_hint("use the MessageTypeId returned by register_type for the coupling"),
            );
        }
    }

    // The monotonicity invariant, expressed as a checkable predicate. On a
    // freshly assembled synchronizer it holds by construction; it can only
    // fail when a pre-run synchronizer was reused after a protocol error.
    if !sync.grant_horizon_monotone() {
        diags.push(
            Diagnostic::new(
                "CAST010",
                Severity::Error,
                "sync.grant",
                "grant-horizon monotonicity predicate violated: a received stamp or the \
                 local clock lies beyond the grant, so §3.1's lag invariant cannot be \
                 maintained",
            )
            .with_hint("assemble the coupling with a fresh synchronizer"),
        );
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use castanet_netsim::time::SimDuration;

    #[test]
    fn empty_sync_is_cast001() {
        let sync = ConservativeSync::new();
        let diags = check_sync(&sync, None);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "CAST001");
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn zero_delta_is_cast002() {
        let mut sync = ConservativeSync::new();
        sync.register_type(SimDuration::from_us(1));
        let zero = sync.register_type(SimDuration::ZERO);
        let diags = check_sync(&sync, None);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "CAST002");
        assert_eq!(diags[0].location, format!("sync.type[{}]", zero.0));
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn unregistered_cell_type_is_cast003() {
        let mut sync = ConservativeSync::new();
        let t = sync.register_type(SimDuration::from_us(1));
        assert!(check_sync(&sync, Some(t)).is_empty());
        let diags = check_sync(&sync, Some(MessageTypeId(7)));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "CAST003");
    }

    #[test]
    fn healthy_sync_lints_clean() {
        let mut sync = ConservativeSync::new();
        let t = sync.register_type(SimDuration::from_ns(20) * 53);
        assert!(check_sync(&sync, Some(t)).is_empty());
    }
}
