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
//!
//! On a loop-free netlist, [`levelization_report`] builds the topo-ordered
//! combinational levels (cone widths, fanout stats) that
//! `castanet-lint --rtl` prints.

use crate::diagnostic::{Diagnostic, Severity};
use castanet_rtl::netlist::{NetlistGraph, StructuralFinding};
use castanet_rtl::sim::Simulator;
use std::fmt::Write as _;

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

/// A levelization report over the loop-free combinational subgraph, plus
/// the coverage counts the acceptance gate needs.
#[derive(Debug, Clone)]
pub struct LevelReport {
    /// Per-level rows: `(level, processes, cone_bits, max_fanout, mean_fanout)`.
    pub rows: Vec<(usize, usize, usize, usize, f64)>,
    /// Combinational processes covered by the schedule.
    pub combinational: usize,
    /// Clocked processes (evaluated per clock edge, outside the levels).
    pub clocked: usize,
    /// Generator processes.
    pub generators: usize,
    /// Opaque processes the schedule cannot place.
    pub opaque: usize,
    /// Labels of the opaque processes, for the report.
    pub opaque_labels: Vec<String>,
}

impl LevelReport {
    /// Fraction of analyzable (non-generator) processes the levelized
    /// schedule plus the clocked set covers; opaque processes count
    /// against coverage.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let placed = self.combinational + self.clocked;
        let total = placed + self.opaque;
        if total == 0 {
            1.0
        } else {
            placed as f64 / total as f64
        }
    }
}

/// Levelizes the netlist and assembles the report.
///
/// # Errors
///
/// Returns the `CAST100` diagnostics of the combinational loops when the
/// zero-delay subgraph is not a DAG (levelization is undefined then).
pub fn levelization_report(net: &NetlistGraph) -> Result<LevelReport, Vec<Diagnostic>> {
    match net.levelize() {
        Ok(lev) => {
            let stats = net.level_stats(&lev);
            Ok(LevelReport {
                rows: stats
                    .iter()
                    .map(|s| {
                        (
                            s.level,
                            s.processes,
                            s.cone_bits,
                            s.max_fanout,
                            s.mean_fanout,
                        )
                    })
                    .collect(),
                combinational: lev.combinational_count(),
                clocked: lev.clocked.len(),
                generators: lev.generators.len(),
                opaque: lev.opaque.len(),
                opaque_labels: lev
                    .opaque
                    .iter()
                    .map(|&p| net.processes[p.index()].label(p.index()))
                    .collect(),
            })
        }
        Err(_) => {
            let loops: Vec<Diagnostic> = check_netlist(net)
                .into_iter()
                .filter(|d| d.code == "CAST100")
                .collect();
            Err(loops)
        }
    }
}

/// Renders a [`LevelReport`] as an aligned text table.
#[must_use]
pub fn render_levelization_human(report: &LevelReport) -> String {
    let mut out = String::from("levelization report (combinational schedule)\n");
    let _ = writeln!(
        out,
        "{:>5} {:>9} {:>9} {:>10} {:>11}",
        "level", "processes", "cone_bits", "max_fanout", "mean_fanout"
    );
    for &(level, processes, cone_bits, max_fanout, mean_fanout) in &report.rows {
        let _ = writeln!(
            out,
            "{level:>5} {processes:>9} {cone_bits:>9} {max_fanout:>10} {mean_fanout:>11.2}"
        );
    }
    let _ = writeln!(
        out,
        "coverage: {} combinational in {} levels, {} clocked, {} generators, {} opaque ({:.0}%)",
        report.combinational,
        report.rows.len(),
        report.clocked,
        report.generators,
        report.opaque,
        report.coverage() * 100.0
    );
    if !report.opaque_labels.is_empty() {
        let _ = writeln!(
            out,
            "opaque (unplaced): {}",
            report.opaque_labels.join(", ")
        );
    }
    out
}

/// Renders a [`LevelReport`] as a JSON document:
/// `{"levels": [{"level": N, "processes": N, "cone_bits": N, "max_fanout": N,
/// "mean_fanout": F}], "combinational": N, "clocked": N, "generators": N,
/// "opaque": N, "coverage": F}`.
#[must_use]
pub fn render_levelization_json(report: &LevelReport) -> String {
    let mut out = String::from("{\n  \"levels\": [");
    for (i, &(level, processes, cone_bits, max_fanout, mean_fanout)) in
        report.rows.iter().enumerate()
    {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            out,
            "    {{\"level\": {level}, \"processes\": {processes}, \"cone_bits\": {cone_bits}, \
             \"max_fanout\": {max_fanout}, \"mean_fanout\": {mean_fanout:.4}}}"
        );
    }
    if !report.rows.is_empty() {
        out.push_str("\n  ");
    }
    let _ = write!(
        out,
        "],\n  \"combinational\": {},\n  \"clocked\": {},\n  \"generators\": {},\n  \
         \"opaque\": {},\n  \"coverage\": {:.4}\n}}",
        report.combinational,
        report.clocked,
        report.generators,
        report.opaque,
        report.coverage()
    );
    out
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
    fn clean_netlist_yields_no_diagnostics_and_a_report() {
        let sim = clean_sim();
        let diags = check_rtl_structure(&sim);
        assert!(diags.is_empty(), "{diags:?}");
        let report = levelization_report(&sim.netlist()).expect("loop-free");
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.combinational, 2);
        assert_eq!(report.clocked, 1);
        assert!((report.coverage() - 1.0).abs() < f64::EPSILON);
        let human = render_levelization_human(&report);
        assert!(human.contains("levelization report"), "{human}");
        assert!(human.contains("100%"), "{human}");
        let json = render_levelization_json(&report);
        assert!(json.contains("\"combinational\": 2"), "{json}");
        assert!(json.contains("\"coverage\": 1.0000"), "{json}");
    }

    #[test]
    fn loop_turns_levelization_into_cast100() {
        let mut sim = Simulator::new();
        let a = sim.add_signal("a", 1);
        let b = sim.add_signal("b", 1);
        comb(&mut sim, "fwd", &[a], &[b]);
        comb(&mut sim, "bwd", &[b], &[a]);
        let net = sim.netlist();
        let diags = check_netlist(&net);
        assert!(diags.iter().any(|d| d.code == "CAST100"), "{diags:?}");
        let err = levelization_report(&net).unwrap_err();
        assert!(err.iter().all(|d| d.code == "CAST100"));
        assert!(!err.is_empty());
        // The cycle path names both processes.
        assert!(err[0].message.contains("fwd") && err[0].message.contains("bwd"));
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
