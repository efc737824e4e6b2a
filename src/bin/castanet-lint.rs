//! `castanet-lint` — pre-flight static analysis for CASTANET setups.
//!
//! Assembles the shipped scenario configurations (without running them) and
//! reports every `CAST0xx` finding, or lints the Fig. 5 pin-mapping data
//! set. Exit status is 1 when any error-severity finding exists, 0
//! otherwise — wire it into CI ahead of the actual co-simulation runs.
//!
//! ```text
//! castanet-lint [TARGET...] [--format json] [--codes]
//! castanet-lint --rtl [TARGET...] [--format json] [--report-out PATH]
//!
//! TARGET   examples | switch | switch-cycle | accounting | fig5
//!          (default: examples = switch + switch-cycle + accounting + fig5)
//! --format human (default) or json
//! --codes  print the diagnostic-code registry and exit
//! --rtl    run the RTL structural passes (CAST1xx) on the RTL-backed
//!          targets and print their findings per target
//! --report-out PATH  with --rtl: also write the JSON report to PATH
//! ```

use castanet_lint::{
    check_coupling, check_coupling_setup, has_errors, passes, render_human, render_json,
    sort_diagnostics, Diagnostic, CODES,
};
use castanet_testboard::pinmap::PinMapConfig;
use coverify::scenarios::{
    accounting_cosim, switch_cosim, switch_cosim_cycle, AccountingScenarioConfig,
    SwitchScenarioConfig,
};
use std::fmt::Write as _;

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Human,
    Json,
}

const USAGE: &str = "usage: castanet-lint [TARGET...] [--format human|json] [--codes]\n\
                     \u{20}      castanet-lint --rtl [TARGET...] [--format human|json] [--report-out PATH]\n\
                     targets: examples (default) | switch | switch-cycle | accounting | fig5\n\
                     --rtl targets: switch | accounting (RTL-backed; default both)";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn print_codes() {
    println!("{:<9} {:<8} summary", "code", "severity");
    for (code, severity, summary) in CODES {
        let severity = severity.to_string();
        println!("{code:<9} {severity:<8} {summary}");
    }
}

/// Lints one named target, prefixing finding locations with the target name
/// so a multi-target report stays unambiguous.
fn lint_target(target: &str) -> Vec<Diagnostic> {
    let mut diags = match target {
        "switch" => {
            // A small instance of the headline experiment: same wiring,
            // fewer cells (assembly is what the lint inspects).
            let cfg = SwitchScenarioConfig {
                cells_per_source: 10,
                ..Default::default()
            };
            check_coupling(&switch_cosim(cfg).coupling)
        }
        "switch-cycle" => {
            let cfg = SwitchScenarioConfig {
                cells_per_source: 10,
                ..Default::default()
            };
            check_coupling_setup(&switch_cosim_cycle(cfg).coupling)
        }
        "accounting" => {
            let cfg = AccountingScenarioConfig {
                cells_per_conn: 10,
                ..Default::default()
            };
            check_coupling(&accounting_cosim(cfg).coupling)
        }
        "fig5" => {
            let (cfg, lanes) = PinMapConfig::fig5_example();
            passes::pinmap::check_pinmap(&cfg, Some(&lanes))
        }
        other => {
            eprintln!("unknown target: {other}");
            usage();
        }
    };
    for d in &mut diags {
        d.location = format!("{target}.{}", d.location);
    }
    diags
}

/// Extracts the netlist of one RTL-backed target (`switch` or
/// `accounting`) without running the co-simulation.
fn rtl_netlist(target: &str) -> castanet_rtl::NetlistGraph {
    match target {
        "switch" => {
            let cfg = SwitchScenarioConfig {
                cells_per_source: 10,
                ..Default::default()
            };
            switch_cosim(cfg).coupling.follower().sim().netlist()
        }
        "accounting" => {
            let cfg = AccountingScenarioConfig {
                cells_per_conn: 10,
                ..Default::default()
            };
            accounting_cosim(cfg).coupling.follower().sim().netlist()
        }
        other => {
            eprintln!("--rtl target must be RTL-backed (switch | accounting), got: {other}");
            usage();
        }
    }
}

/// Re-indents a rendered JSON sub-document so it nests cleanly inside the
/// combined `--rtl` report.
fn indent_json(doc: &str, pad: &str) -> String {
    doc.replace('\n', &format!("\n{pad}"))
}

/// The `--rtl` mode: the structural findings of each RTL-backed target,
/// human or JSON, optionally saved as an artifact.
fn run_rtl(targets: &[String], format: Format, report_out: Option<&str>) -> ! {
    let expanded: Vec<&str> = if targets.is_empty() || targets.iter().any(|t| t == "examples") {
        vec!["switch", "accounting"]
    } else {
        targets.iter().map(String::as_str).collect()
    };

    let mut failed = false;
    let mut human = String::new();
    let mut json = String::from("{\n  \"targets\": [");
    for (i, target) in expanded.iter().enumerate() {
        let net = rtl_netlist(target);
        let mut diags = passes::rtl_structure::check_netlist(&net);
        for d in &mut diags {
            d.location = format!("{target}.{}", d.location);
        }
        sort_diagnostics(&mut diags);
        failed |= has_errors(&diags);

        let _ = writeln!(human, "== rtl target: {target} ==");
        human.push_str(&render_human(&diags));
        human.push('\n');

        json.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            json,
            "    {{\n      \"target\": \"{target}\",\n      \"findings\": {}\n    }}",
            indent_json(&render_json(&diags), "      "),
        );
    }
    json.push_str("\n  ]\n}");

    match format {
        Format::Human => print!("{human}"),
        Format::Json => println!("{json}"),
    }
    if let Some(path) = report_out {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("failed to write report to {path}: {e}");
            std::process::exit(2);
        }
        if format == Format::Human {
            println!("JSON report written to {path}");
        }
    }
    std::process::exit(i32::from(failed));
}

fn main() {
    let mut format = Format::Human;
    let mut rtl = false;
    let mut report_out: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("human") => format = Format::Human,
                Some("json") => format = Format::Json,
                other => {
                    eprintln!(
                        "unknown format: {}",
                        other.unwrap_or("(missing value after --format)")
                    );
                    usage();
                }
            },
            "--codes" => {
                print_codes();
                return;
            }
            "--rtl" => rtl = true,
            "--report-out" => match args.next() {
                Some(path) => report_out = Some(path),
                None => {
                    eprintln!("missing value after --report-out");
                    usage();
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            flag if flag.starts_with('-') => usage(),
            target => targets.push(target.to_string()),
        }
    }

    if rtl {
        run_rtl(&targets, format, report_out.as_deref());
    }
    if report_out.is_some() {
        eprintln!("--report-out requires --rtl");
        usage();
    }
    if targets.is_empty() {
        targets.push("examples".to_string());
    }

    let mut diags = Vec::new();
    for target in &targets {
        if target == "examples" {
            for t in ["switch", "switch-cycle", "accounting", "fig5"] {
                diags.extend(lint_target(t));
            }
        } else {
            diags.extend(lint_target(target));
        }
    }
    sort_diagnostics(&mut diags);

    match format {
        Format::Human => print!("{}", render_human(&diags)),
        Format::Json => println!("{}", render_json(&diags)),
    }
    if has_errors(&diags) {
        std::process::exit(1);
    }
}
