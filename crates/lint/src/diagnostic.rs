//! The diagnostic model: stable codes, severities, locations and hints.

use std::fmt;

/// How serious a finding is.
///
/// Ordered so that sorting ascending puts errors first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The configuration will fail at run time (panic, protocol violation
    /// or rejected call). Strict pre-flight refuses to run.
    Error,
    /// The configuration can run but risks deadlock, silent data loss or a
    /// latent panic on specific inputs.
    Warning,
    /// Advisory: something looks unusual but is legal.
    Info,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        })
    }
}

/// One finding of a lint pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code (`CAST0xx`). Codes are never reused or
    /// renumbered; retired codes are retired forever.
    pub code: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// Where in the assembled setup the finding points, in a dotted path
    /// notation, e.g. `sync.type[2]` or `pinmap.inport[0]`.
    pub location: String,
    /// Human-readable description of the problem.
    pub message: String,
    /// Machine-applicable fix suggestion, when one exists.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic without a hint.
    #[must_use]
    pub fn new(
        code: &'static str,
        severity: Severity,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            location: location.into(),
            message: message.into(),
            hint: None,
        }
    }

    /// Attaches a machine-applicable hint.
    #[must_use]
    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.code, self.location, self.message
        )?;
        if let Some(hint) = &self.hint {
            write!(f, " (hint: {hint})")?;
        }
        Ok(())
    }
}

/// The documented diagnostic-code registry: `(code, severity, summary)`.
///
/// This table is what `castanet-lint --codes` prints and what README's
/// code table is generated from; tests assert every emitted diagnostic
/// uses a registered code.
pub const CODES: &[(&str, Severity, &str)] = &[
    (
        "CAST001",
        Severity::Error,
        "no message types registered with the synchronizer (no grant can ever be issued)",
    ),
    (
        "CAST002",
        Severity::Warning,
        "message type has zero processing delay δ_j — zero lookahead, deadlock risk (§3.1)",
    ),
    (
        "CAST003",
        Severity::Error,
        "coupling cell type is not registered with the synchronizer",
    ),
    (
        "CAST010",
        Severity::Error,
        "grant-horizon monotonicity predicate violated on the assembled synchronizer (§3.1)",
    ),
    (
        "CAST020",
        Severity::Error,
        "RTL signal width inconsistent with the byte-wide cell interface (§3.2)",
    ),
    (
        "CAST021",
        Severity::Error,
        "interface input port collides with the RESPONSE_PORT_BASE.. namespace",
    ),
    (
        "CAST022",
        Severity::Warning,
        "egress line's response output port is not connected (interface panics if a cell arrives)",
    ),
    (
        "CAST023",
        Severity::Info,
        "ingress line's interface input port has no incoming connection (line never stimulated)",
    ),
    (
        "CAST030",
        Severity::Error,
        "overlapping pin segments: a board pin is claimed by more than one mapping (§3.3)",
    ),
    (
        "CAST031",
        Severity::Error,
        "pin segment exceeds its byte lane or addresses an invalid lane",
    ),
    (
        "CAST032",
        Severity::Error,
        "bus interface references a missing inport/outport/ctrlport (§3.3 triple)",
    ),
    (
        "CAST033",
        Severity::Error,
        "port's declared width disagrees with the sum of its segment widths",
    ),
    (
        "CAST034",
        Severity::Error,
        "mapping direction disagrees with the configured lane direction",
    ),
    (
        "CAST035",
        Severity::Error,
        "control port write flag does not fit the port's declared width",
    ),
    (
        "CAST036",
        Severity::Error,
        "duplicate port number within a port class",
    ),
    (
        "CAST040",
        Severity::Error,
        "dangling reference: module or port id does not exist in the kernel",
    ),
    (
        "CAST041",
        Severity::Warning,
        "isolated module: no connection touches it",
    ),
    (
        "CAST042",
        Severity::Warning,
        "module is unreachable from the interface process in the connection graph",
    ),
    (
        "CAST050",
        Severity::Warning,
        "telemetry exporter output path is unwritable or collides with the trace-replay input",
    ),
    (
        "CAST100",
        Severity::Error,
        "combinational loop: a zero-delay cycle through the netlist never settles (full path reported)",
    ),
    (
        "CAST110",
        Severity::Error,
        "signal driven by two or more combinational processes — continuous resolution fight",
    ),
    (
        "CAST111",
        Severity::Warning,
        "write-after-write race: two clocked processes on the same clock write one signal in one delta cycle",
    ),
    (
        "CAST120",
        Severity::Error,
        "combinational process reads a signal absent from its sensitivity list (sim/synth mismatch)",
    ),
    (
        "CAST121",
        Severity::Error,
        "clocked process is not sensitive to its own clock — it can never run",
    ),
    (
        "CAST122",
        Severity::Info,
        "sensitivity entry the process never reads (spurious wake-ups only)",
    ),
    (
        "CAST130",
        Severity::Warning,
        "dead logic: signal is written but never read, sensed, traced or exported",
    ),
    (
        "CAST131",
        Severity::Warning,
        "signal is read but has no driver and is not an external input (stays U/X forever)",
    ),
    (
        "CAST140",
        Severity::Error,
        "gated-clock busy is combinationally derived from the gated domain itself (restart deadlock)",
    ),
    (
        "CAST141",
        Severity::Error,
        "gated-clock busy line has no driver — the clock parks at elaboration and never starts",
    ),
    (
        "CAST150",
        Severity::Error,
        "cycle follower or board line pin index out of range for the DUT's port list (add_ingress/add_egress reject it)",
    ),
    (
        "CAST151",
        Severity::Error,
        "cycle follower or board line data pin narrower than 8 bits (add_ingress/add_egress reject it)",
    ),
    (
        "CAST152",
        Severity::Error,
        "cycle follower or board ingress line pin used twice, or shared with another ingress line (add_ingress rejects it)",
    ),
];

/// Looks up the registered severity and summary of `code`.
#[must_use]
pub fn code_info(code: &str) -> Option<(Severity, &'static str)> {
    CODES
        .iter()
        .find(|(c, _, _)| *c == code)
        .map(|&(_, sev, summary)| (sev, summary))
}

/// Sorts findings for presentation: errors first, then by code and location.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| (a.severity, a.code, &a.location).cmp(&(b.severity, b.code, &b.location)));
}

/// `true` when any finding is an error.
#[must_use]
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_well_formed() {
        for (i, (code, _, _)) in CODES.iter().enumerate() {
            assert!(code.starts_with("CAST") && code.len() == 7, "{code}");
            assert!(
                CODES.iter().skip(i + 1).all(|(c, _, _)| c != code),
                "duplicate code {code}"
            );
        }
    }

    #[test]
    fn severity_orders_errors_first() {
        let mut diags = vec![
            Diagnostic::new("CAST041", Severity::Warning, "b", "w"),
            Diagnostic::new("CAST023", Severity::Info, "c", "i"),
            Diagnostic::new("CAST001", Severity::Error, "a", "e"),
        ];
        sort_diagnostics(&mut diags);
        assert_eq!(diags[0].code, "CAST001");
        assert_eq!(diags[2].code, "CAST023");
        assert!(has_errors(&diags));
    }

    #[test]
    fn display_includes_code_and_hint() {
        let d = Diagnostic::new("CAST002", Severity::Warning, "sync.type[1]", "δ is zero")
            .with_hint("register the type with a positive delay");
        let s = d.to_string();
        assert!(s.contains("CAST002") && s.contains("hint:"), "{s}");
    }
}
