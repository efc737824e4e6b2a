//! Static pre-flight analysis for CASTANET co-verification setups.
//!
//! The DATE'98 paper's environment couples a network model, an abstraction
//! interface and an RTL/hardware follower. Most misconfigurations — a
//! message type with zero lookahead, a cell bus mapped onto a 4-bit signal,
//! two pin segments claiming the same board pin — only surface minutes into
//! a run, as a deadlock or a panic. This crate analyses an *assembled but
//! not yet running* setup and reports every such finding up front, each
//! with a stable `CAST0xx` code, a severity, a dotted location path and,
//! where possible, a machine-applicable hint.
//!
//! The pass categories cover the paper's configuration layers plus the
//! telemetry layer this reproduction adds:
//!
//! | pass | paper layer | codes |
//! |------|-------------|-------|
//! | [`passes::sync_liveness`] | §3.1 conservative synchronization | `CAST001`–`CAST010` |
//! | [`passes::interface`] | §3.2 abstraction interface | `CAST020`–`CAST023` |
//! | [`passes::pinmap`] | §3.3 pin mapping | `CAST030`–`CAST036` |
//! | [`passes::topology`] | network model graph | `CAST040`–`CAST042` |
//! | [`passes::telemetry`] | telemetry exporter paths | `CAST050` |
//! | [`passes::rtl_structure`] | RTL netlist structure | `CAST100`–`CAST141` |
//!
//! [`check_coupling`] runs everything applicable to an assembled
//! [`Coupling`]; the `castanet-lint` binary wraps it (and the pin-map pass)
//! with human and JSON output. `Coupling::preflight` in the core crate
//! enforces the error-level subset of these analyses at `run()` time when
//! the coupling is built `with_strict(true)`.

pub mod diagnostic;
pub mod passes;
pub mod report;

pub use diagnostic::{code_info, has_errors, sort_diagnostics, Diagnostic, Severity, CODES};
pub use report::{render_human, render_json};

use castanet::coupling::{CoupledSimulator, Coupling, Executor, RtlCosim};

/// Lints the layers common to every follower type and executor: the
/// synchronizer (§3.1) and the network topology.
#[must_use]
pub fn check_coupling_setup<S: CoupledSimulator, X: Executor<S>>(
    coupling: &Coupling<S, X>,
) -> Vec<Diagnostic> {
    let mut diags = passes::sync_liveness::check_sync(coupling.sync(), Some(coupling.cell_type()));
    diags.extend(passes::topology::check_topology(
        coupling.net(),
        Some(coupling.iface_module()),
    ));
    sort_diagnostics(&mut diags);
    diags
}

/// Lints a fully assembled RTL coupling: synchronizer liveness, topology
/// reachability, interface port consistency and RTL signal widths.
///
/// This is the complete pre-flight analysis; run it on a setup *before*
/// `Coupling::run` to get every finding at once instead of the first panic.
#[must_use]
pub fn check_coupling<X: Executor<RtlCosim>>(coupling: &Coupling<RtlCosim, X>) -> Vec<Diagnostic> {
    let mut diags = check_coupling_setup(coupling);
    diags.extend(passes::interface::check_interface(
        coupling.net(),
        coupling.iface_module(),
        coupling.follower().entity(),
    ));
    diags.extend(passes::interface::check_rtl_widths(
        coupling.follower().sim(),
        coupling.follower().entity(),
    ));
    diags.extend(passes::rtl_structure::check_rtl_structure(
        coupling.follower().sim(),
    ));
    sort_diagnostics(&mut diags);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pass_emits_only_registered_codes() {
        // The pass modules hard-code their codes; cross-check the registry
        // covers every code this crate can emit.
        for code in [
            "CAST001", "CAST002", "CAST003", "CAST010", "CAST020", "CAST021", "CAST022", "CAST023",
            "CAST030", "CAST031", "CAST032", "CAST033", "CAST034", "CAST035", "CAST036", "CAST040",
            "CAST041", "CAST042", "CAST050", "CAST100", "CAST110", "CAST111", "CAST120", "CAST121",
            "CAST122", "CAST130", "CAST131", "CAST140", "CAST141",
        ] {
            assert!(code_info(code).is_some(), "unregistered code {code}");
        }
    }
}
