//! The cycle followers' stimulus window under traffic that wraps, grows
//! and idle-skips it, checked against the event-driven follower on the
//! same DUT. The window stores the input words of every clock still to
//! come; a mistake in its ring arithmetic shows up as a corrupted or
//! shifted cell, or as a clock evaluated or skipped that should not be.

use castanet::coupling::{CoupledSimulator, RtlCosim};
use castanet::cyclecosim::{CycleCosim, EgressIndices, IngressIndices};
use castanet::entity::{CosimEntity, EgressSignals, IngressSignals};
use castanet::message::{Message, MessageTypeId};
use castanet::CompiledCosim;
use castanet_atm::addr::HeaderFormat;
use castanet_atm::cell::AtmCell;
use castanet_netsim::time::{SimDuration, SimTime};
use castanet_rtl::compiled::LaneBank;
use castanet_rtl::cycle::{attach_cycle_dut_gated, CycleDut, CycleSim};
use castanet_rtl::dut::{AtmSwitchRtl, SwitchRtlConfig};
use castanet_rtl::sim::Simulator;
use coverify::scenarios::SwitchScenarioConfig;

const CLK: SimDuration = SimDuration::from_ns(20);
const LINES: usize = 4;

fn config() -> SwitchScenarioConfig {
    SwitchScenarioConfig::default()
}

/// The 4-port switch with the scenario routes: line `i` to line `i + 1`.
fn switch() -> AtmSwitchRtl {
    let config = config();
    let mut s = AtmSwitchRtl::new(SwitchRtlConfig {
        ports: LINES,
        fifo_capacity: 64,
        table_capacity: 8,
    });
    for line in 0..LINES {
        let (ic, oc) = (config.in_conn(line), config.out_conn(line));
        assert!(s.install_route(
            ic.vpi.value() as u8,
            ic.vci.value(),
            config.out_port(line),
            oc.vpi.value() as u8,
            oc.vci.value(),
        ));
    }
    s
}

fn ingress(line: usize) -> IngressIndices {
    IngressIndices {
        data: 3 * line,
        sync: 3 * line + 1,
        enable: 3 * line + 2,
    }
}

fn egress(line: usize) -> EgressIndices {
    EgressIndices {
        data: 3 * line,
        sync: 3 * line + 1,
        valid: 3 * line + 2,
    }
}

fn cycle_follower() -> CycleCosim {
    let mut f = CycleCosim::new(
        CycleSim::new(Box::new(switch())),
        CLK,
        MessageTypeId(9),
        HeaderFormat::Uni,
    );
    for line in 0..LINES {
        f.add_ingress(ingress(line)).unwrap();
    }
    for line in 0..LINES {
        f.add_egress(egress(line)).unwrap();
    }
    f
}

fn compiled_follower(lanes: usize) -> CompiledCosim {
    let duts = (0..lanes)
        .map(|_| Box::new(switch()) as Box<dyn CycleDut>)
        .collect();
    let mut f = CompiledCosim::new(
        LaneBank::new(duts),
        CLK,
        MessageTypeId(9),
        HeaderFormat::Uni,
    );
    for line in 0..LINES {
        f.add_ingress(ingress(line)).unwrap();
    }
    for line in 0..LINES {
        f.add_egress(egress(line)).unwrap();
    }
    f
}

fn event_follower() -> RtlCosim {
    let mut sim = Simulator::new();
    let dut = attach_cycle_dut_gated(&mut sim, "switch", Box::new(switch()), CLK);
    let mut entity = CosimEntity::new(CLK, HeaderFormat::Uni, MessageTypeId(9));
    for line in 0..LINES {
        entity.add_ingress(IngressSignals {
            data: dut.inputs[3 * line],
            sync: dut.inputs[3 * line + 1],
            enable: dut.inputs[3 * line + 2],
        });
    }
    let egress: Vec<EgressSignals> = (0..LINES)
        .map(|line| EgressSignals {
            data: dut.outputs[3 * line],
            sync: dut.outputs[3 * line + 1],
            valid: dut.outputs[3 * line + 2],
        })
        .collect();
    entity.add_egress(&mut sim, dut.clk, &egress);
    RtlCosim::new(sim, entity)
}

fn cell(line: usize, tag: u8) -> AtmCell {
    let mut payload = [tag; 48];
    payload[0] = line as u8;
    AtmCell::user_data(config().in_conn(line), payload)
}

/// One step of the script: cells to deliver, then the horizon to advance
/// the follower to in one batch.
struct Step {
    deliver: Vec<(SimTime, usize, u8)>,
    advance_to: SimTime,
}

/// The script. Clock `k` is `k × 20 ns`.
fn script() -> Vec<Step> {
    let us = SimTime::from_us;
    let ns = SimTime::from_ns;
    vec![
        // A cell on line 0; the ring head moves off slot 0.
        Step {
            deliver: vec![(SimTime::ZERO, 0, 1)],
            advance_to: ns(600),
        },
        // A cell 21 clocks after the end of the first one outgrows the
        // 64-clock ring while the first still wraps past its end: the ring
        // grows with a gap between live slots. Then back-to-back cells on
        // all four lines, and one stamped 2 000 clocks ahead: it grows
        // again.
        Step {
            deliver: [(ns(1500), 1, 5)]
                .into_iter()
                .chain((0..LINES).flat_map(|line| (0..3).map(move |k| (ns(600), line, 10 + k))))
                .chain([(us(40), 0, 2)])
                .collect(),
            advance_to: us(6),
        },
        // The bursts have drained; the far cell is still pending. The
        // idle skip must jump across the partly filled window to it.
        Step {
            deliver: vec![(us(20), 2, 20)],
            advance_to: us(39),
        },
        // More cells behind and beside the far one.
        Step {
            deliver: vec![(us(40), 1, 30), (us(41), 3, 31), (us(41), 3, 32)],
            advance_to: us(80),
        },
        // Back-to-back cells across the end of the (now 2 048-clock) ring,
        // then a long idle tail.
        Step {
            deliver: (0..LINES)
                .flat_map(|line| (0..2).map(move |k| (us(81), line, 40 + k)))
                .collect(),
            advance_to: us(200),
        },
    ]
}

/// Plays the script; returns every response as `(stamp, port, cell)`.
fn play(follower: &mut impl CoupledSimulator) -> Vec<(SimTime, usize, AtmCell)> {
    let mut out = Vec::new();
    for step in script() {
        for (at, line, tag) in step.deliver {
            let msg = Message::cell(at, MessageTypeId(0), line, cell(line, tag));
            follower.deliver(msg).expect("deliver");
        }
        for m in follower.advance_batch(step.advance_to).expect("advance") {
            out.push((m.stamp, m.port, m.as_cell().expect("cell").clone()));
        }
    }
    out
}

fn cells_per_port(trace: &[(SimTime, usize, AtmCell)]) -> Vec<Vec<AtmCell>> {
    (0..LINES)
        .map(|port| {
            trace
                .iter()
                .filter(|(_, p, _)| *p == port)
                .map(|(_, _, c)| c.clone())
                .collect()
        })
        .collect()
}

#[test]
fn wrapped_grown_and_skipped_window_matches_the_event_driven_follower() {
    let mut cycle = cycle_follower();
    let cycle_trace = play(&mut cycle);
    let mut event = event_follower();
    let event_trace = play(&mut event);

    // Every delivered cell comes out, retagged, on the routed line.
    assert_eq!(cycle_trace.len(), 3 + 4 * 3 + 1 + 3 + 4 * 2);
    for (_, port, c) in &cycle_trace {
        let line = usize::from(c.payload[0]);
        assert_eq!(*port, config().out_port(line));
        assert_eq!(c.id(), config().out_conn(line));
    }
    assert_eq!(cells_per_port(&cycle_trace), cells_per_port(&event_trace));

    // Counts of the per-clock `Vec` window this one replaced, on the same
    // script.
    assert_eq!(
        (cycle.clocks_evaluated(), cycle.clocks_skipped()),
        (EVALUATED, SKIPPED)
    );
}

/// Clocks evaluated and skipped by the script (9 999 in all).
const EVALUATED: u64 = 809;
const SKIPPED: u64 = 9_190;

#[test]
fn compiled_lane_zero_equals_the_cycle_follower() {
    let mut cycle = cycle_follower();
    let cycle_trace = play(&mut cycle);
    let mut compiled = compiled_follower(3);
    let compiled_trace = play(&mut compiled);

    assert_eq!(compiled_trace, cycle_trace);
    assert_eq!(
        (compiled.clocks_evaluated(), compiled.clocks_skipped()),
        (cycle.clocks_evaluated(), cycle.clocks_skipped())
    );
    for line in 0..LINES {
        assert!(compiled.lane_cells(line, 1).is_empty());
    }
}
