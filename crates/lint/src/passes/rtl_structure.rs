//! RTL structural analysis: the `CAST1xx` family over the netlist graph.
//!
//! [`check_netlist`] maps every [`StructuralFinding`] of
//! [`NetlistGraph::analyze`] to a stable `CAST1xx` diagnostic:
//!
//! | code | severity | finding |
//! |------|----------|---------|
//! | `CAST100` | error | combinational loop (full cycle path reported) |
//! | `CAST110` | error | signal driven by ≥2 combinational processes |
//! | `CAST111` | warning | same-clock write-after-write race |
//! | `CAST120` | error | combinational read missing from sensitivity list |
//! | `CAST121` | error | clocked process not sensitive to its own clock |
//! | `CAST122` | info | sensitivity entry the process never reads |
//! | `CAST130` | warning | written-but-never-observed (dead) signal |
//! | `CAST131` | warning | read-but-undriven signal |
//! | `CAST140` | error | gated-clock busy combinationally fed from its own domain |
//! | `CAST141` | error | gated-clock busy line has no driver |

use crate::diagnostic::{Diagnostic, Severity};
use castanet_rtl::netlist::{NetlistGraph, StructuralFinding};
use castanet_rtl::sim::Simulator;

/// Maps a structural finding to its stable diagnostic code.
#[must_use]
pub fn finding_code(finding: &StructuralFinding) -> (&'static str, Severity) {
    match finding {
        StructuralFinding::CombinationalLoop { .. } => ("CAST100", Severity::Error),
        StructuralFinding::MultiDriverConflict { .. } => ("CAST110", Severity::Error),
        StructuralFinding::SameEdgeWriteRace { .. } => ("CAST111", Severity::Warning),
        StructuralFinding::MissingSensitivity { .. } => ("CAST120", Severity::Error),
        StructuralFinding::ClockNotInSensitivity { .. } => ("CAST121", Severity::Error),
        StructuralFinding::UnreadSensitivity { .. } => ("CAST122", Severity::Info),
        StructuralFinding::DeadSignal { .. } => ("CAST130", Severity::Warning),
        StructuralFinding::UndrivenSignal { .. } => ("CAST131", Severity::Warning),
        StructuralFinding::GatedBusyFeedback { .. } => ("CAST140", Severity::Error),
        StructuralFinding::GatedBusyUndriven { .. } => ("CAST141", Severity::Error),
    }
}

fn hint(finding: &StructuralFinding) -> &'static str {
    match finding {
        StructuralFinding::CombinationalLoop { .. } => {
            "break the cycle: register one stage on a clock, or remove the feedback read"
        }
        StructuralFinding::MultiDriverConflict { .. } => {
            "drive the signal from one combinational process, or gate each driver to high-Z when deselected"
        }
        StructuralFinding::SameEdgeWriteRace { .. } => {
            "merge the writers into one clocked process, or move one writer to another clock"
        }
        StructuralFinding::MissingSensitivity { .. } => {
            "add the read signal to the process's sensitivity list"
        }
        StructuralFinding::ClockNotInSensitivity { .. } => {
            "register the process with its clock in the rising (or any-edge) sensitivity list"
        }
        StructuralFinding::UnreadSensitivity { .. } => {
            "drop the unused entry from the sensitivity list to avoid spurious wake-ups"
        }
        StructuralFinding::DeadSignal { .. } => {
            "read the signal somewhere, trace it, mark it an external output, or delete the driving logic"
        }
        StructuralFinding::UndrivenSignal { .. } => {
            "add a driver, or mark the signal an external input if the test bench pokes it"
        }
        StructuralFinding::GatedBusyFeedback { .. } => {
            "derive busy from un-gated logic, or register the request in a free-running domain"
        }
        StructuralFinding::GatedBusyUndriven { .. } => {
            "drive busy from the DUT wrapper, or mark it an external input"
        }
    }
}

/// Runs the structural checks on an extracted netlist graph and returns
/// the findings as `CAST1xx` diagnostics.
#[must_use]
pub fn check_netlist(net: &NetlistGraph) -> Vec<Diagnostic> {
    net.analyze()
        .iter()
        .map(|f| {
            let (code, severity) = finding_code(f);
            Diagnostic::new(code, severity, net.location(f), net.describe(f)).with_hint(hint(f))
        })
        .collect()
}

/// Convenience: extracts the netlist from an elaborable simulator and runs
/// [`check_netlist`].
#[must_use]
pub fn check_rtl_structure(sim: &Simulator) -> Vec<Diagnostic> {
    check_netlist(&sim.netlist())
}

#[cfg(test)]
mod tests {
    use super::*;
    use castanet_netsim::time::SimDuration;
    use castanet_rtl::netlist::ProcessIo;
    use castanet_rtl::signal::SignalId;
    use castanet_rtl::sim::{RtlCtx, RtlProcess};

    struct Decl {
        io: ProcessIo,
    }
    impl RtlProcess for Decl {
        fn run(&mut self, _ctx: &mut RtlCtx) {}
        fn io(&self) -> Option<ProcessIo> {
            Some(self.io.clone())
        }
    }

    fn comb(sim: &mut Simulator, name: &str, reads: &[SignalId], writes: &[SignalId]) {
        let io = ProcessIo::combinational(name)
            .reads(reads.iter().copied())
            .writes(writes.iter().copied());
        sim.add_process(Box::new(Decl { io }), reads);
    }

    /// Builds `in -> a -> t -> b -> out` with a register behind it.
    fn clean_sim() -> Simulator {
        let mut sim = Simulator::new();
        let clk = sim.add_clock("clk", SimDuration::from_ns(10));
        let input = sim.add_signal("in", 8);
        let t = sim.add_signal("t", 8);
        let out = sim.add_signal("out", 8);
        let q = sim.add_signal("q", 8);
        sim.mark_external_input(input);
        sim.mark_external_output(q);
        comb(&mut sim, "a", &[input], &[t]);
        comb(&mut sim, "b", &[t], &[out]);
        let io = ProcessIo::clocked("reg", clk).reads([clk, out]).writes([q]);
        sim.add_process_rising(Box::new(Decl { io }), &[clk], &[]);
        sim
    }

    #[test]
    fn clean_netlist_yields_no_diagnostics() {
        let sim = clean_sim();
        let diags = check_rtl_structure(&sim);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn loop_yields_cast100_naming_both_processes() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let b = sim.add_signal("b", 1);
        comb(&mut sim, "fwd", &[a], &[b]);
        comb(&mut sim, "bwd", &[b], &[a]);
        let net = sim.netlist();
        let diags = check_netlist(&net);
        let loops: Vec<_> = diags.iter().filter(|d| d.code == "CAST100").collect();
        assert!(!loops.is_empty(), "{diags:?}");
        // The cycle path names both processes.
        assert!(loops[0].message.contains("fwd") && loops[0].message.contains("bwd"));
    }

    #[test]
    fn every_code_maps_to_a_registered_entry() {
        use castanet_rtl::netlist::LoopStep;
        let mut sim = Simulator::new();
        let s = sim.add_signal("s", 1);
        let io = ProcessIo::combinational("p").reads([s]).writes([s]);
        let p = sim.add_process(Box::new(Decl { io }), &[s]);
        let findings = [
            StructuralFinding::CombinationalLoop {
                cycle: vec![LoopStep { process: p, via: s }],
            },
            StructuralFinding::MultiDriverConflict {
                signal: s,
                drivers: vec![p],
            },
            StructuralFinding::SameEdgeWriteRace {
                signal: s,
                drivers: vec![p],
                clock: s,
            },
            StructuralFinding::MissingSensitivity {
                process: p,
                signal: s,
            },
            StructuralFinding::ClockNotInSensitivity {
                process: p,
                clock: s,
            },
            StructuralFinding::UnreadSensitivity {
                process: p,
                signal: s,
            },
            StructuralFinding::DeadSignal { signal: s },
            StructuralFinding::UndrivenSignal {
                signal: s,
                reader: p,
            },
            StructuralFinding::GatedBusyFeedback {
                clock: s,
                busy: s,
                origin: s,
            },
            StructuralFinding::GatedBusyUndriven { clock: s, busy: s },
        ];
        for f in &findings {
            let (code, severity) = finding_code(f);
            let (registered, _) =
                crate::diagnostic::code_info(code).unwrap_or_else(|| panic!("unregistered {code}"));
            assert_eq!(registered, severity, "{code} severity drift");
        }
    }
}
