//! Telemetry integration tests: observation must not perturb the
//! co-verification result, every exporter must emit what its consumers
//! expect, and the recorded protocol events must reflect the run.

use castanet::coupling::CouplingStats;
use castanet::Telemetry;
use castanet_atm::cell::AtmCell;
use castanet_netsim::process::CollectorHandle;
use castanet_netsim::time::SimTime;
use castanet_obs::export::{chrome_trace_to_string, event_to_jsonl, render_summary};
use castanet_obs::schema::validate_jsonl;
use castanet_obs::{EventKind, Phase, TraceEvent, Track};
use coverify::scenarios::{
    compare_switch_output, switch_cosim, switch_cosim_compiled, switch_cosim_cycle,
    switch_cosim_parallel, SwitchScenarioConfig,
};

fn small_config() -> SwitchScenarioConfig {
    SwitchScenarioConfig {
        cells_per_source: 50,
        mixed_traffic: true,
        ..SwitchScenarioConfig::default()
    }
}

/// Drains every collector into per-line `(stamp, cell)` egress streams.
fn egress(collectors: &[CollectorHandle]) -> Vec<Vec<(u64, AtmCell)>> {
    collectors
        .iter()
        .map(|h| {
            h.take()
                .into_iter()
                .map(|(t, p)| (t.as_picos(), p.payload::<AtmCell>().expect("cell").clone()))
                .collect()
        })
        .collect()
}

/// Runs the cycle-based coupling and returns the per-line egress streams.
fn run_cycle(tel: Option<&Telemetry>) -> Vec<Vec<(u64, AtmCell)>> {
    let mut scenario = switch_cosim_cycle(small_config());
    if let Some(tel) = tel {
        scenario = scenario.with_telemetry(tel);
    }
    let mut coupling = scenario.coupling;
    coupling.run(SimTime::from_ms(100)).expect("run");
    egress(&scenario.collectors)
}

/// Runs the event-driven coupling and returns the per-line egress streams.
fn run_event(tel: Option<&Telemetry>) -> Vec<Vec<(u64, AtmCell)>> {
    let config = SwitchScenarioConfig {
        cells_per_source: 10,
        mixed_traffic: true,
        ..SwitchScenarioConfig::default()
    };
    let mut scenario = switch_cosim(config);
    if let Some(tel) = tel {
        scenario = scenario.with_telemetry(tel);
    }
    let mut coupling = scenario.coupling;
    coupling.run(SimTime::from_ms(100)).expect("run");
    egress(&scenario.collectors)
}

/// Runs the multi-lane coupling on `lanes` lanes and returns the per-line
/// egress streams (lane 0 carries the coupled traffic).
fn run_compiled(tel: Option<&Telemetry>, lanes: usize) -> Vec<Vec<(u64, AtmCell)>> {
    let config = SwitchScenarioConfig {
        cells_per_source: 10,
        mixed_traffic: true,
        ..SwitchScenarioConfig::default()
    };
    let mut scenario = switch_cosim_compiled(config, lanes);
    if let Some(tel) = tel {
        scenario = scenario.with_telemetry(tel);
    }
    let mut coupling = scenario.coupling;
    coupling.run(SimTime::from_ms(100)).expect("run");
    egress(&scenario.collectors)
}

#[test]
fn telemetry_does_not_perturb_egress() {
    // The whole point of a zero-cost observation layer: the co-verified
    // byte streams — stamps included — are identical with telemetry on
    // and off.
    let tel = Telemetry::enabled();
    let with_tel = run_cycle(Some(&tel));
    let without = run_cycle(None);
    assert_eq!(with_tel, without, "telemetry changed the egress streams");
    assert!(
        !tel.events().is_empty(),
        "the observed run must actually have recorded something"
    );
}

#[test]
fn telemetry_does_not_perturb_event_driven_egress() {
    // Same invariant on the event kernel, whose hot loop now carries the
    // sampled kernel.pop/eval/delta micro-phases.
    let tel = Telemetry::enabled();
    let with_tel = run_event(Some(&tel));
    let without = run_event(None);
    assert_eq!(with_tel, without, "telemetry changed the egress streams");
    assert!(!tel.events().is_empty());
}

#[test]
fn telemetry_does_not_perturb_compiled_egress() {
    // Same invariant on a multi-lane cycle follower (per-lane `cycle.eval`
    // micro-phases plus the lane-occupancy gauges).
    let tel = Telemetry::enabled();
    let with_tel = run_compiled(Some(&tel), 4);
    let without = run_compiled(None, 4);
    assert_eq!(with_tel, without, "telemetry changed the egress streams");
    assert!(!tel.events().is_empty());
}

#[test]
fn parallel_chrome_trace_has_both_tracks_and_rich_event_mix() {
    // The acceptance criterion of the telemetry subsystem: a Chrome trace
    // of the parallel scenario renders originator and follower as separate
    // tracks and shows the protocol's moving parts (≥ 5 event types).
    let tel = Telemetry::enabled();
    let scenario = switch_cosim_parallel(small_config()).with_telemetry(&tel);
    let mut coupling = scenario.coupling;
    coupling.run(SimTime::from_secs(1)).expect("run");
    let report = compare_switch_output(&scenario.config, &scenario.collectors);
    assert!(report.passed(), "{report}");

    let trace = chrome_trace_to_string(&tel.events());
    assert!(trace.contains("\"tid\":1"), "originator track missing");
    assert!(trace.contains("\"tid\":2"), "follower track missing");
    assert!(trace.contains("\"name\":\"originator\""));
    assert!(trace.contains("\"name\":\"follower\""));
    let kinds = [
        "net_window",
        "window_granted",
        "stimulus_enqueued",
        "follower_advance",
        "response_injected",
        "drain_chunk",
    ];
    let present = kinds
        .iter()
        .filter(|k| trace.contains(&format!("\"name\":\"{k}\"")))
        .count();
    assert!(present >= 5, "only {present} of {kinds:?} in the trace");
}

#[test]
fn jsonl_export_of_a_real_run_validates_against_the_schema() {
    let tel = Telemetry::enabled();
    let mut coupling = switch_cosim_parallel(small_config())
        .with_telemetry(&tel)
        .coupling;
    coupling.run(SimTime::from_secs(1)).expect("run");
    let mut doc = String::new();
    for event in tel.events() {
        doc.push_str(&event_to_jsonl(&event));
        doc.push('\n');
    }
    let validated = validate_jsonl(&doc).expect("exporter output must validate");
    assert_eq!(validated, tel.events().len());
    assert!(validated > 0);
}

#[test]
fn summary_reports_metrics_from_every_layer() {
    let tel = Telemetry::enabled();
    let mut coupling = switch_cosim_parallel(small_config())
        .with_telemetry(&tel)
        .coupling;
    coupling.run(SimTime::from_secs(1)).expect("run");
    let summary = render_summary(&tel.events(), &tel.metrics_snapshot(), tel.dropped_events());
    for needle in [
        "originator.net_events",
        "follower.clocks_evaluated",
        "sync.lag_ps",
        "channel.grant_latency_ns",
    ] {
        assert!(
            summary.contains(needle),
            "{needle} missing from:\n{summary}"
        );
    }
}

#[test]
fn profile_covers_both_tracks_of_the_parallel_run() {
    // The self-profiling acceptance criterion: one parallel run yields a
    // per-phase breakdown with executor phases on the originator track and
    // engine phases on the follower track, and the report renders.
    let tel = Telemetry::enabled();
    let mut coupling = switch_cosim_parallel(small_config())
        .with_telemetry(&tel)
        .coupling;
    coupling.run(SimTime::from_secs(1)).expect("run");
    let profile = tel.profile();
    let has = |track: Track, phase: Phase| {
        profile
            .rows
            .iter()
            .any(|r| r.track == track && r.phase == phase.name() && r.count > 0)
    };
    assert!(has(Track::Originator, Phase::ParallelGrant), "{profile:?}");
    assert!(has(Track::Originator, Phase::ParallelWait), "{profile:?}");
    assert!(has(Track::Follower, Phase::CycleEval), "{profile:?}");
    assert!(profile.track_wall_ns.iter().all(|&ns| ns > 0));
    let rendered = profile.render();
    assert!(rendered.contains("castanet profile"));
    assert!(rendered.contains("parallel.grant"));
    assert!(rendered.contains("cycle.eval"));
    // The JSON form of the same report must round-trip the profile schema
    // (what `castanet-obs-check --profile` enforces in CI).
    let rows = castanet_obs::schema::validate_profile(&profile.to_json())
        .expect("profile JSON must validate");
    assert_eq!(rows, profile.rows.len());
}

#[test]
fn sync_counters_match_coupling_stats_on_every_executor() {
    // `sync.deferred_responses` / `sync.late_responses` are registered by
    // the coupling layer and incremented inside the shared response
    // injection path — on each executor they must agree exactly with the
    // (independently maintained) `CouplingStats`.
    let check = |stats: CouplingStats, tel: &Telemetry, what: &str| {
        let snap = tel.metrics_snapshot();
        assert_eq!(
            snap.counter("sync.deferred_responses"),
            Some(stats.deferred_responses),
            "{what}: deferred_responses counter diverged"
        );
        assert_eq!(
            snap.counter("sync.late_responses"),
            Some(stats.late_responses),
            "{what}: late_responses counter diverged"
        );
    };
    let tel = Telemetry::enabled();
    let mut serial = switch_cosim_cycle(small_config())
        .with_telemetry(&tel)
        .coupling;
    serial.run(SimTime::from_ms(100)).expect("run");
    check(serial.stats(), &tel, "serial");

    let tel = Telemetry::enabled();
    let mut parallel = switch_cosim_parallel(small_config())
        .with_telemetry(&tel)
        .coupling;
    parallel.run(SimTime::from_secs(1)).expect("run");
    check(parallel.stats(), &tel, "parallel");
}

#[test]
fn compiled_backend_reports_lane_and_queue_metrics() {
    let tel = Telemetry::enabled();
    let _ = run_compiled(Some(&tel), 64);
    // A 64-lane follower profiles its clocks like a one-lane one.
    let profile = tel.profile();
    assert!(
        profile.rows.iter().any(|r| r.track == Track::Follower
            && r.phase == Phase::CycleEval.name()
            && r.count > 0),
        "{profile:?}"
    );
    let snap = tel.metrics_snapshot();
    assert!(
        snap.counter("compiled.fallback_evals").unwrap_or(0) > 0,
        "behavioral LaneBank edges must be counted"
    );
    // The gauge holds the *last* advance's value — by the final drain
    // window every lane is quiet, but it must exist and never exceed the
    // single network-driven lane.
    let lanes = snap.gauge("compiled.lanes_active");
    assert!(
        lanes.is_some_and(|n| n <= 1),
        "network traffic drives lane 0 only, got {lanes:?}"
    );
    assert!(
        snap.gauge("compiled.queue_depth").is_some(),
        "pending-stimulus depth gauge missing"
    );
}

/// A fixed event sequence covering every exporter branch: both tracks,
/// spans and instants, each arg shape. Wall times are hand-picked so the
/// rendered output is bit-stable.
fn golden_events() -> Vec<TraceEvent> {
    vec![
        TraceEvent {
            t_ps: 1_000_000,
            wall_ns: 2_000,
            dur_ns: 1_500,
            track: Track::Originator,
            kind: EventKind::NetWindow { events: 12 },
        },
        TraceEvent {
            t_ps: 1_000_000,
            wall_ns: 2_500,
            dur_ns: 0,
            track: Track::Originator,
            kind: EventKind::WindowGranted {
                grant_ps: 2_060_000,
                msgs: 2,
            },
        },
        TraceEvent {
            t_ps: 1_200_000,
            wall_ns: 3_000,
            dur_ns: 0,
            track: Track::Follower,
            kind: EventKind::StimulusEnqueued {
                type_id: 0,
                port: 1,
                stamp_ps: 1_200_000,
            },
        },
        TraceEvent {
            t_ps: 2_060_000,
            wall_ns: 9_000,
            dur_ns: 5_500,
            track: Track::Follower,
            kind: EventKind::FollowerAdvance {
                granted_ps: 2_060_000,
                responses: 1,
            },
        },
        TraceEvent {
            t_ps: 2_100_000,
            wall_ns: 9_200,
            dur_ns: 0,
            track: Track::Originator,
            kind: EventKind::ResponseInjected {
                stamp_ps: 2_050_000,
                at_ps: 2_100_000,
                port: 1,
            },
        },
        TraceEvent {
            t_ps: 2_100_000,
            wall_ns: 9_250,
            dur_ns: 0,
            track: Track::Originator,
            kind: EventKind::DeferredResponse {
                stamp_ps: 2_050_000,
                net_ps: 2_100_000,
            },
        },
        TraceEvent {
            t_ps: 2_500_000,
            wall_ns: 11_000,
            dur_ns: 800,
            track: Track::Originator,
            kind: EventKind::BackpressureStall { in_flight: 4 },
        },
        TraceEvent {
            t_ps: 3_000_000,
            wall_ns: 14_000,
            dur_ns: 2_000,
            track: Track::Follower,
            kind: EventKind::DrainChunk {
                horizon_ps: 3_000_000,
                responses: 0,
            },
        },
        TraceEvent {
            t_ps: 2_060_000,
            wall_ns: 9_100,
            dur_ns: 4_200,
            track: Track::Follower,
            kind: EventKind::PhaseSpan {
                phase: Phase::KernelAdvance,
                depth: 1,
            },
        },
    ]
}

#[test]
fn chrome_exporter_matches_the_golden_file() {
    // The Chrome `trace_event` output is consumed by external tools
    // (Perfetto, chrome://tracing); this pins the exact rendering. To
    // regenerate after an intentional format change:
    //     UPDATE_GOLDEN=1 cargo test --test telemetry chrome_exporter
    let rendered = chrome_trace_to_string(&golden_events());
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/chrome_trace.json"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &rendered).expect("update golden");
    }
    let golden =
        std::fs::read_to_string(path).expect("golden file (set UPDATE_GOLDEN=1 to create)");
    assert_eq!(
        rendered, golden,
        "Chrome exporter output drifted from tests/golden/chrome_trace.json"
    );
}

#[test]
fn golden_events_also_validate_as_jsonl() {
    let mut doc = String::new();
    for event in golden_events() {
        doc.push_str(&event_to_jsonl(&event));
        doc.push('\n');
    }
    assert_eq!(validate_jsonl(&doc), Ok(golden_events().len()));
}
