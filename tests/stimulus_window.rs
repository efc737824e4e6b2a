//! The cycle follower's stimulus window under traffic that queues cells
//! back to back, far ahead and on several lines at once, and idle-skips
//! between them, checked against the event-driven follower on the same
//! DUT, at one lane, three and 64. The window queues each delivered cell on its ingress line and
//! expands it to pin words one clock at a time; a mistake in that
//! expansion (a cell started a clock early or late, an octet dropped at a
//! cell boundary, a line left driven after its last octet, a skip that
//! overshoots a first octet) shows up as a corrupted or shifted cell, or
//! as a clock evaluated or skipped that should not be. The first test's
//! name dates from an earlier window, a ring of per-clock input words
//! that this script wrapped and grew.

use castanet::coupling::{CoupledSimulator, RtlCosim};
use castanet::cyclecosim::{CycleCosim, EgressIndices, IngressIndices};
use castanet::entity::{CosimEntity, EgressSignals, IngressSignals};
use castanet::message::{Message, MessageTypeId};
use castanet_atm::addr::HeaderFormat;
use castanet_atm::cell::AtmCell;
use castanet_netsim::time::{SimDuration, SimTime};
use castanet_rtl::compiled::LaneBank;
use castanet_rtl::cycle::{attach_cycle_dut_gated, CycleDut};
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

fn cycle_follower(lanes: usize) -> CycleCosim {
    let duts = (0..lanes)
        .map(|_| Box::new(switch()) as Box<dyn CycleDut>)
        .collect();
    let mut f = CycleCosim::new(
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
        // A cell on line 0 at clock 0: it shows at once.
        Step {
            deliver: vec![(SimTime::ZERO, 0, 1)],
            advance_to: ns(600),
        },
        // A cell 21 clocks after the end of the first one (clock 74),
        // with an idle gap before it. Then three back-to-back cells on
        // each of the four lines, stamped together, so each line chains
        // its next free clock, and one stamped 2 000 clocks ahead behind
        // them on line 0.
        Step {
            deliver: [(ns(1500), 1, 5)]
                .into_iter()
                .chain((0..LINES).flat_map(|line| (0..3).map(move |k| (ns(600), line, 10 + k))))
                .chain([(us(40), 0, 2)])
                .collect(),
            advance_to: us(6),
        },
        // The bursts have drained; the far cell is still queued. The
        // idle skip must stop at the line-2 cell, then run to the
        // horizon, one microsecond short of the far cell.
        Step {
            deliver: vec![(us(20), 2, 20)],
            advance_to: us(39),
        },
        // More cells behind and beside the far one: line 1 overlaps it
        // in time, line 3 chains two.
        Step {
            deliver: vec![(us(40), 1, 30), (us(41), 3, 31), (us(41), 3, 32)],
            advance_to: us(80),
        },
        // Back-to-back cells on every line, then a long idle tail.
        Step {
            deliver: (0..LINES)
                .flat_map(|line| (0..2).map(move |k| (us(81), line, 40 + k)))
                .collect(),
            advance_to: us(200),
        },
    ]
}

/// Lane `lane`'s variant of the script: every cell `7·lane` ns later, on
/// the line `lane` places on, and retagged, so each lane of a bank carries
/// its own load. Lane 0's is the script itself.
fn lane_script(lane: usize) -> Vec<Step> {
    let shift = 7_000 * lane as u64;
    script()
        .into_iter()
        .map(|step| Step {
            deliver: step
                .deliver
                .into_iter()
                .map(|(at, line, tag)| {
                    let at = SimTime::from_picos(at.as_picos() + shift);
                    (at, (line + lane) % LINES, tag.wrapping_add(lane as u8))
                })
                .collect(),
            advance_to: step.advance_to,
        })
        .collect()
}

/// Plays the script; returns every response as `(stamp, port, cell)`.
fn play(follower: &mut impl CoupledSimulator) -> Vec<(SimTime, usize, AtmCell)> {
    play_steps(follower, script())
}

fn play_steps(
    follower: &mut impl CoupledSimulator,
    steps: Vec<Step>,
) -> Vec<(SimTime, usize, AtmCell)> {
    let mut out = Vec::new();
    for step in steps {
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
    let mut cycle = cycle_follower(1);
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

    // Counts of the per-clock `Vec` window two designs back, on the same
    // script: neither the ring nor the per-line queues moved them.
    assert_eq!(
        (cycle.clocks_evaluated(), cycle.clocks_skipped()),
        (EVALUATED, SKIPPED)
    );
}

/// Clocks evaluated and skipped by the script (9 999 in all).
const EVALUATED: u64 = 809;
const SKIPPED: u64 = 9_190;

/// Lane 0 of a bank carries the script and the other lanes stay idle: the
/// responses, stamps included, and the counts are those of a one-lane
/// follower. The name dates from a separate compiled follower for banks.
#[test]
fn compiled_lane_zero_equals_the_cycle_follower() {
    let mut one = cycle_follower(1);
    let one_trace = play(&mut one);
    let mut bank = cycle_follower(3);
    let bank_trace = play(&mut bank);

    assert_eq!(bank_trace, one_trace);
    assert_eq!(
        (bank.clocks_evaluated(), bank.clocks_skipped()),
        (one.clocks_evaluated(), one.clocks_skipped())
    );
    for lane in 1..3 {
        assert!((0..LINES).all(|line| bank.lane_cells(line, lane).is_empty()));
    }
}

#[test]
fn every_loaded_lane_equals_the_event_follower_on_its_traffic() {
    const LANES: usize = castanet_rtl::compiled::LANES;
    let scripts: Vec<Vec<Step>> = (0..LANES).map(lane_script).collect();
    let mut cycle = cycle_follower(LANES);
    let mut lane0_trace = Vec::new();
    let mut counts = Vec::new();
    for k in 0..scripts[0].len() {
        for (lane, script) in scripts.iter().enumerate() {
            for &(at, line, tag) in &script[k].deliver {
                cycle
                    .seed_cell(lane, line, at, &cell(line, tag))
                    .expect("seed");
            }
        }
        for m in cycle
            .advance_batch(scripts[0][k].advance_to)
            .expect("advance")
        {
            lane0_trace.push((m.stamp, m.port, m.as_cell().expect("cell").clone()));
        }
        counts.push((cycle.clocks_evaluated(), cycle.clocks_skipped()));
    }
    // A clock counts as evaluated when some lane is busy on it and as
    // skipped when every lane is idle on it. The counts after each step
    // were measured with every lane clocked on every evaluated clock, so
    // they pin the union of the lanes' own runs to that rule.
    assert_eq!(
        counts,
        [(29, 0), (299, 0), (489, 1460), (720, 3279), (901, 9098)]
    );

    for lane in 0..LANES {
        let mut event = event_follower();
        let reference = cells_per_port(&play_steps(&mut event, lane_script(lane)));
        assert_eq!(
            reference.iter().map(Vec::len).sum::<usize>(),
            27,
            "lane {lane}: every cell comes out"
        );
        let got = if lane == 0 {
            // The coupled lane answers with responses and keeps no trace.
            assert!((0..LINES).all(|port| cycle.lane_cells(port, 0).is_empty()));
            cells_per_port(&lane0_trace)
        } else {
            (0..LINES)
                .map(|port| cycle.lane_cells(port, lane).to_vec())
                .collect()
        };
        assert_eq!(got, reference, "lane {lane}");
    }
}
