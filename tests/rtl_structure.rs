//! End-to-end tests of the RTL structural analysis on the shipped DUTs:
//! the stock switch netlist passes every `CAST1xx` check, its levelization
//! report covers all of its processes, the human report is pinned as a
//! golden file and the JSON report is validated against its schema.

use castanet_lint::passes::rtl_structure::{
    check_netlist, levelization_report, render_levelization_human, render_levelization_json,
};
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
}

#[test]
fn stock_switch_levelization_covers_every_combinational_process() {
    let net = switch_netlist();
    let report = levelization_report(&net).expect("stock switch is loop-free");
    // The acceptance gate: nothing the schedule cannot place. The stock
    // switch wrapper is fully registered, so its combinational schedule is
    // empty — but no process may be opaque and coverage must be total.
    assert_eq!(report.opaque, 0, "opaque: {:?}", report.opaque_labels);
    assert!((report.coverage() - 1.0).abs() < f64::EPSILON);
    assert!(
        report.clocked > 0,
        "the DUT wrapper and monitors are clocked"
    );
}

#[test]
fn stock_switch_levelization_matches_the_golden_file() {
    // Pins the exact human rendering for the stock switch netlist. To
    // regenerate after an intentional format change:
    //     UPDATE_GOLDEN=1 cargo test --test rtl_structure golden
    let net = switch_netlist();
    let report = levelization_report(&net).expect("loop-free");
    let rendered = render_levelization_human(&report);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/rtl_levelization_switch.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &rendered).expect("update golden");
    }
    let golden =
        std::fs::read_to_string(path).expect("golden file (set UPDATE_GOLDEN=1 to create)");
    assert_eq!(
        rendered, golden,
        "levelization rendering drifted from tests/golden/rtl_levelization_switch.txt"
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

/// Schema check of one levelization JSON document (as a parsed object).
fn check_levelization_schema(obj: &std::collections::BTreeMap<String, Value>) {
    let Some(Value::Array(levels)) = obj.get("levels") else {
        panic!("levels missing or not an array");
    };
    for level in levels {
        let Value::Object(row) = level else {
            panic!("level row is not an object");
        };
        for key in [
            "level",
            "processes",
            "cone_bits",
            "max_fanout",
            "mean_fanout",
        ] {
            assert!(
                matches!(row.get(key), Some(Value::Number(_))),
                "level row lacks numeric {key}: {row:?}"
            );
        }
    }
    for key in ["combinational", "clocked", "generators", "opaque"] {
        expect_u64(obj, key);
    }
    assert!(
        matches!(obj.get("coverage"), Some(Value::Number(_))),
        "coverage missing"
    );
}

#[test]
fn levelization_json_validates_against_its_schema() {
    let net = switch_netlist();
    let report = levelization_report(&net).expect("loop-free");
    let json = render_levelization_json(&report);
    let value = parse_json(&json).expect("well-formed JSON");
    let Value::Object(obj) = value else {
        panic!("report is not a JSON object");
    };
    check_levelization_schema(&obj);
}

#[test]
fn rtl_cli_report_validates_against_its_schema() {
    // The full `castanet-lint --rtl` artifact: { targets: [ { target,
    // findings: {...}, levelization: {...} } ] } — the document CI uploads.
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
        let Some(Value::Object(lev)) = entry.get("levelization") else {
            panic!("levelization missing (loop reported on a stock target?)");
        };
        check_levelization_schema(lev);
    }
}
