//! End-to-end tests of the RTL structural analysis on the shipped DUTs:
//! the stock switch netlist passes every `CAST1xx` check with no opaque
//! process, and the `castanet-lint --rtl` JSON report is validated against
//! its schema.

use castanet_lint::passes::rtl_structure::check_netlist;
use castanet_obs::schema::{parse_json, Value};
use coverify::scenarios::{switch_cosim, SwitchScenarioConfig};
use std::process::Command;

fn switch_netlist() -> castanet_rtl::NetlistGraph {
    let cfg = SwitchScenarioConfig {
        cells_per_source: 10,
        ..Default::default()
    };
    switch_cosim(cfg).coupling.follower().sim().netlist()
}

#[test]
fn stock_switch_dut_is_structurally_clean() {
    let net = switch_netlist();
    let diags = check_netlist(&net);
    assert!(diags.is_empty(), "stock switch DUT flagged: {diags:?}");
    // The checks skip opaque processes, so a clean result counts only if
    // every process declares its reads and writes.
    assert!(
        net.processes.iter().all(|p| p.io.is_some()),
        "opaque processes in the stock switch"
    );
}

fn expect_u64(obj: &std::collections::BTreeMap<String, Value>, key: &str) -> u64 {
    match obj.get(key) {
        Some(Value::Number(n)) => {
            n.parse::<f64>()
                .unwrap_or_else(|_| panic!("{key} is not numeric: {n}")) as u64
        }
        other => panic!("{key} missing or not a number: {other:?}"),
    }
}

#[test]
fn rtl_cli_report_validates_against_its_schema() {
    // The full `castanet-lint --rtl` artifact: { targets: [ { target,
    // findings: {...} } ] } — the document CI uploads.
    let out = Command::new(env!("CARGO_BIN_EXE_castanet-lint"))
        .args(["--rtl", "--format", "json"])
        .output()
        .expect("run castanet-lint --rtl");
    assert!(out.status.success(), "stock targets must pass: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let value = parse_json(stdout.trim()).expect("well-formed JSON");
    let Value::Object(doc) = value else {
        panic!("report is not a JSON object");
    };
    let Some(Value::Array(targets)) = doc.get("targets") else {
        panic!("targets missing or not an array");
    };
    assert_eq!(targets.len(), 2, "switch + accounting");
    for target in targets {
        let Value::Object(entry) = target else {
            panic!("target entry is not an object");
        };
        assert!(matches!(entry.get("target"), Some(Value::String(_))));
        let Some(Value::Object(findings)) = entry.get("findings") else {
            panic!("findings missing");
        };
        assert!(matches!(findings.get("findings"), Some(Value::Array(_))));
        for key in ["errors", "warnings", "infos"] {
            assert_eq!(expect_u64(findings, key), 0, "stock targets are clean");
        }
        assert_eq!(entry.len(), 2, "only target and findings");
    }
}
