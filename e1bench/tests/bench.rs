//! The benchmark's own checks: the timing adapter is transparent, counts
//! repeat per seed, the seed reaches the on-off sources, and the lane-sweep
//! comparator cannot silently read zero errors.

use castanet_atm::addr::HeaderFormat;
use castanet_atm::cell::AtmCell;
use castanet_netsim::process::CollectorHandle;
use castanet_netsim::time::SimTime;
use coverify::scenarios::{self, SwitchScenarioConfig};
use e1bench::{
    check_lanes, e1_config, lane_config, lane_rep, run_rep, timed_parallel, timed_serial, Input,
    LaneTraffic, Setup, Workload,
};

const UNTIL: SimTime = SimTime::from_secs(10);

fn small_e1(seed: u64) -> SwitchScenarioConfig {
    SwitchScenarioConfig {
        cells_per_source: 60,
        ..e1_config(seed)
    }
}

fn small_input(workload: Workload, seed: u64) -> Input {
    match workload {
        Workload::LaneSweep => {
            let config = SwitchScenarioConfig {
                cells_per_source: 8,
                ..lane_config(seed)
            };
            let lanes = Some(LaneTraffic::generate(&config, seed, 4));
            Input { config, lanes }
        }
        _ => Input {
            config: small_e1(seed),
            lanes: None,
        },
    }
}

/// Every egress line's cells as `(arrival ps, wire bytes)`, in arrival order.
fn egress(collectors: &[CollectorHandle]) -> Vec<Vec<(u64, Vec<u8>)>> {
    collectors
        .iter()
        .map(|c| {
            c.with(|pkts| {
                pkts.iter()
                    .map(|(t, p)| {
                        let cell = p.payload::<AtmCell>().expect("egress carries cells");
                        let wire = cell.encode(HeaderFormat::Uni).expect("cells encode");
                        (t.as_picos(), wire.to_vec())
                    })
                    .collect()
            })
        })
        .collect()
}

#[test]
fn timing_adapter_leaves_egress_byte_identical() {
    let config = small_e1(1998);

    let mut plain = scenarios::switch_cosim(config);
    plain.coupling.run(UNTIL).unwrap();
    let sc = scenarios::switch_cosim(config);
    let mut timed = timed_serial(&config, sc.coupling);
    timed.run(UNTIL).unwrap();
    assert!(timed.follower().time.advance_calls > 0);
    let want = egress(&plain.collectors);
    assert_eq!(want.iter().map(Vec::len).sum::<usize>(), 240);
    assert_eq!(egress(&sc.collectors), want, "event engine, serial");

    let mut plain = scenarios::switch_cosim_cycle(config);
    plain.coupling.run(UNTIL).unwrap();
    let sc = scenarios::switch_cosim_cycle(config);
    timed_serial(&config, sc.coupling).run(UNTIL).unwrap();
    assert_eq!(
        egress(&sc.collectors),
        egress(&plain.collectors),
        "cycle, serial"
    );

    let mut plain = scenarios::switch_cosim_parallel(config);
    plain.coupling.run(UNTIL).unwrap();
    let sc = scenarios::switch_cosim_parallel(config);
    timed_parallel(&config, sc.coupling).run(UNTIL).unwrap();
    assert_eq!(
        egress(&sc.collectors),
        egress(&plain.collectors),
        "cycle, parallel"
    );
}

#[test]
fn traced_and_untraced_repetitions_agree_on_every_count() {
    for workload in Workload::ALL {
        let input = small_input(workload, 1998);
        let plain = run_rep(workload, &input, false).unwrap();
        let traced = run_rep(workload, &input, true).unwrap();
        assert_eq!(plain.cell_errors, 0, "{}", workload.name());
        assert_eq!(traced.cell_errors, 0, "{}", workload.name());
        assert!(!plain.counts.is_empty());
        for (name, value) in &plain.counts {
            assert_eq!(
                traced.counts.get(name),
                Some(value),
                "{}: {name}",
                workload.name()
            );
        }
        assert!(traced.follower.advance_ns > 0, "{}", workload.name());
    }
}

#[test]
fn same_seed_repeats_counts_and_another_seed_moves_on_off_arrivals() {
    let input = small_input(Workload::E1Cycle, 1998);
    let first = run_rep(Workload::E1Cycle, &input, false).unwrap();
    let again = run_rep(Workload::E1Cycle, &input, false).unwrap();
    assert_eq!(first.counts, again.counts);

    // Line 1 carries an on-off source, line 0 a CBR one: only line 1's
    // arrivals may depend on the seed.
    let arrivals = |seed: u64| {
        let config = small_e1(seed);
        let mut sc = scenarios::switch_cosim_cycle(config);
        sc.coupling.run(UNTIL).unwrap();
        let lines = egress(&sc.collectors);
        let times = |line: usize| -> Vec<u64> {
            lines[config.out_port(line)]
                .iter()
                .map(|(t, _)| *t)
                .collect()
        };
        (times(0), times(1))
    };
    let (cbr_a, on_off_a) = arrivals(1998);
    let (cbr_b, on_off_b) = arrivals(7);
    assert_eq!(cbr_a, cbr_b);
    assert_eq!(on_off_a.len(), on_off_b.len());
    assert_ne!(on_off_a, on_off_b);
}

#[test]
fn lane_check_counts_one_flipped_payload_byte() {
    let input = small_input(Workload::LaneSweep, 1998);
    let config = input.config;
    let mut traffic = input.lanes.unwrap();
    let sc = scenarios::switch_cosim_compiled(config, traffic.cells.len());
    let (_, mut follower) = sc.coupling.into_parts();
    let rep = lane_rep(&mut follower, &config, &traffic, Setup::default(), None).unwrap();
    assert_eq!(rep.cell_errors, 0);
    assert_eq!(rep.counts["compare.matched"], traffic.cells());

    traffic.cells[2][1][3].1.payload[17] ^= 0x01;
    let (errors, matched) = check_lanes(&config, &traffic, &follower);
    assert_eq!(errors, 1);
    assert_eq!(matched, traffic.cells() - 1);
    assert!(errors as f64 / traffic.cells() as f64 > 0.0);
}
