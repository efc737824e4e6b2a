//! End-to-end co-verification integration tests: the full Fig. 1 flow over
//! the real crates stack (netsim → castanet → rtl / testboard), including
//! the property the environment exists for — that a buggy DUT is *caught*.

use castanet::compare::StreamComparator;
use castanet::coupling::{CoupledSimulator, Coupling, RtlCosim};
use castanet::cyclecosim::{CycleCosim, EgressIndices, IngressIndices};
use castanet::entity::{CosimEntity, EgressSignals, IngressSignals};
use castanet::interface::CastanetInterfaceProcess;
use castanet::message::{Message, MessageTypeId};
use castanet::sync::ConservativeSync;
use castanet_atm::addr::{HeaderFormat, VpiVci};
use castanet_atm::cell::{AtmCell, CELL_OCTETS};
use castanet_atm::traffic::source::{sequenced_payload, TrafficSourceProcess};
use castanet_atm::traffic::Cbr;
use castanet_netsim::event::PortId;
use castanet_netsim::kernel::Kernel;
use castanet_netsim::process::CollectorProcess;
use castanet_netsim::time::{SimDuration, SimTime};
use castanet_rtl::cycle::{attach_cycle_dut, CycleDut, PortDecl};
use castanet_rtl::dut::{AtmSwitchRtl, SwitchRtlConfig};
use castanet_rtl::sim::{SimCounters, Simulator};
use coverify::scenarios::{
    compare_switch_output, switch_cosim, switch_cosim_cycle, switch_on_board, SwitchScenarioConfig,
};

#[test]
fn large_mixed_workload_verifies_clean() {
    let config = SwitchScenarioConfig {
        cells_per_source: 200,
        mixed_traffic: true,
        ..SwitchScenarioConfig::default()
    };
    let scenario = switch_cosim(config);
    let mut coupling = scenario.coupling;
    let stats = coupling.run(SimTime::from_ms(100)).expect("run");
    assert_eq!(stats.messages_to_follower, 800);
    assert_eq!(stats.responses, 800);
    assert_eq!(stats.late_responses, 0);
    let report = compare_switch_output(&scenario.config, &scenario.collectors);
    assert!(report.passed(), "{report}");
    assert_eq!(report.matched, 800);
}

/// Pins the event kernel's work on a small switch run (the E12 bench
/// configuration): a kernel change meant only to be faster must leave
/// every count, including time steps and process runs, where it is.
///
/// Transactions and events are what every clocked observer samples and
/// have not moved since they were first pinned (16 166 and 15 562). Three
/// counts were moved on purpose, by cutting kernel work per busy clock:
/// - `process_runs` 19 814 → 8 033: one egress sampler for all four lines
///   instead of four monitors (3 runs per busy clock), the gated wrapper
///   listening to its inputs only while parked (no input wakes while the
///   clock runs), and one clock-generator run per period instead of one
///   per edge (the falling edge is a delayed transaction);
/// - `delta_cycles` 13 206 → 9 230: the falling edge no longer needs the
///   generator's wake delta, and stimulus poked on the falling edge
///   shares that edge's delta;
/// - `time_steps` 6 679 → 5 354: stimulus shares the falling-edge time
///   step instead of opening its own a quarter period before each edge.
#[test]
fn event_kernel_counts_are_pinned_on_a_small_switch_run() {
    let config = SwitchScenarioConfig {
        cells_per_source: 25,
        clock_period: SimDuration::from_ns(20),
        cell_gap: SimDuration::from_us(10),
        mixed_traffic: false,
        seed: 1998,
        ..SwitchScenarioConfig::default()
    };
    let scenario = switch_cosim(config);
    let mut coupling = scenario.coupling;
    coupling.run(SimTime::from_secs(1)).expect("run");
    assert_eq!(
        coupling.follower().sim().counters(),
        SimCounters {
            transactions: 16_166,
            events: 15_562,
            delta_cycles: 9_230,
            process_runs: 8_033,
            time_steps: 5_354,
        }
    );
    let report = compare_switch_output(&scenario.config, &scenario.collectors);
    assert!(report.passed(), "{report}");
    assert_eq!(report.matched, 100);
}

/// An odd-picosecond DUT clock keeps its exact period on the event
/// follower: the generators' rising edges sit at `⌊p/2⌋ + k·p`, the grid
/// the entity pokes against, so no cell is lost (a period one picosecond
/// long) and no stimulus lands in the kernel's past (one picosecond
/// short), exactly as on the cycle follower.
#[test]
fn odd_picosecond_clock_periods_match_every_cell_on_the_event_follower() {
    for period_ps in [20_001, 19_999] {
        let config = SwitchScenarioConfig {
            cells_per_source: 50,
            clock_period: SimDuration::from_picos(period_ps),
            ..SwitchScenarioConfig::default()
        };
        let scenario = switch_cosim(config);
        let mut coupling = scenario.coupling;
        coupling
            .run(SimTime::from_ms(100))
            .unwrap_or_else(|e| panic!("{period_ps} ps: {e}"));
        let report = compare_switch_output(&scenario.config, &scenario.collectors);
        assert!(report.passed(), "{period_ps} ps: {report}");
        assert_eq!(report.matched, 200, "{period_ps} ps");
    }
}

#[test]
fn event_driven_and_cycle_based_followers_agree_exactly() {
    let config = SwitchScenarioConfig {
        cells_per_source: 60,
        mixed_traffic: true, // stochastic arrivals, same seed on both sides
        ..SwitchScenarioConfig::default()
    };
    let run_and_collect = |cycle_based: bool| -> Vec<Vec<(u64, AtmCell)>> {
        let collectors = if cycle_based {
            let s = switch_cosim_cycle(config);
            let mut c = s.coupling;
            c.run(SimTime::from_ms(100)).expect("run");
            s.collectors
        } else {
            let s = switch_cosim(config);
            let mut c = s.coupling;
            c.run(SimTime::from_ms(100)).expect("run");
            s.collectors
        };
        collectors
            .iter()
            .map(|h| {
                h.take()
                    .into_iter()
                    .map(|(t, p)| (t.as_picos(), p.payload::<AtmCell>().expect("cell").clone()))
                    .collect()
            })
            .collect()
    };
    let ev = run_and_collect(false);
    let cy = run_and_collect(true);
    // Cell sequences (per line) must be identical; exact completion times
    // may differ by engine scheduling, but cell identity and order must
    // not.
    for (line, (a, b)) in ev.iter().zip(&cy).enumerate() {
        let cells_a: Vec<&AtmCell> = a.iter().map(|(_, c)| c).collect();
        let cells_b: Vec<&AtmCell> = b.iter().map(|(_, c)| c).collect();
        assert_eq!(cells_a, cells_b, "line {line} diverged between engines");
    }
}

/// A sabotaged switch: it silently corrupts one payload byte of every 7th
/// cell — the class of bug co-verification exists to find.
struct BuggySwitch {
    inner: AtmSwitchRtl,
    cells_seen: u64,
}

impl CycleDut for BuggySwitch {
    fn input_ports(&self) -> Vec<PortDecl> {
        self.inner.input_ports()
    }
    fn output_ports(&self) -> Vec<PortDecl> {
        self.inner.output_ports()
    }
    fn reset(&mut self) {
        self.inner.reset();
        self.cells_seen = 0;
    }
    fn clock_edge(&mut self, inputs: &[u64], outs: &mut [u64]) {
        self.inner.clock_edge(inputs, outs);
        // Corrupt the 20th payload octet of every 7th egress cell on line 1.
        if outs[5] == 1 {
            if outs[4] == 1 {
                self.cells_seen += 1;
            }
            let in_cell_pos = self.cells_seen; // crude: corrupt while sync counting
            if in_cell_pos.is_multiple_of(7) && outs[4] == 0 {
                outs[3] ^= 0x01;
            }
        }
    }
    fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }
}

#[test]
fn seeded_payload_bug_is_detected_by_the_comparator() {
    let mut inner = AtmSwitchRtl::new(SwitchRtlConfig {
        ports: 2,
        fifo_capacity: 64,
        table_capacity: 8,
    });
    assert!(inner.install_route(1, 40, 1, 7, 70));
    let dut = BuggySwitch {
        inner,
        cells_seen: 0,
    };

    // Coupled run: 30 cells through the buggy DUT.
    let mut net = Kernel::new(3);
    let node = net.add_node("n");
    let mut sync = ConservativeSync::new();
    let cell_type = sync.register_type(SimDuration::from_ns(20) * CELL_OCTETS as u64);
    let (iface_proc, outbox) = CastanetInterfaceProcess::new(cell_type);
    let iface = net.add_module(node, "castanet", Box::new(iface_proc));
    let src = net.add_module(
        node,
        "src",
        Box::new(
            TrafficSourceProcess::new(
                VpiVci::uni(1, 40).expect("id"),
                Box::new(Cbr::new(SimDuration::from_us(10))),
            )
            .with_limit(30),
        ),
    );
    net.connect_stream(src, PortId(0), iface, PortId(0))
        .expect("wire");
    let (collector, got) = CollectorProcess::new();
    let sink = net.add_module(node, "sink", Box::new(collector));
    net.connect_stream(iface, PortId(1), sink, PortId(0))
        .expect("wire");

    let mut sim = Simulator::new();
    let clk = sim.add_clock("clk", SimDuration::from_ns(20));
    let attached = attach_cycle_dut(&mut sim, "sw", Box::new(dut), clk);
    let mut entity = CosimEntity::new(SimDuration::from_ns(20), HeaderFormat::Uni, cell_type);
    entity.add_ingress(IngressSignals {
        data: attached.inputs[0],
        sync: attached.inputs[1],
        enable: attached.inputs[2],
    });
    entity.add_egress(
        &mut sim,
        clk,
        &[EgressSignals {
            data: attached.outputs[3],
            sync: attached.outputs[4],
            valid: attached.outputs[5],
        }],
    );
    // The entity reports egress as port 0; rewire the interface response
    // port accordingly: interface output 1 is wired; entity egress port 0
    // maps to interface response port 0 -> interface output 0. Use output 1
    // by registering a placeholder egress for port alignment instead.
    // Simplest: collect on output 0 as well.
    let (collector0, got0) = CollectorProcess::new();
    let sink0 = net.add_module(node, "sink0", Box::new(collector0));
    net.connect_stream(iface, PortId(0), sink0, PortId(0))
        .expect("wire");

    let follower = RtlCosim::new(sim, entity);
    let mut coupling: Coupling<_> = Coupling::new(net, follower, sync, cell_type, iface, outbox);
    coupling.run(SimTime::from_ms(10)).expect("run");

    // Compare against the clean reference expectation.
    let mut cmp = StreamComparator::new(None);
    for k in 0..30u64 {
        let mut cell = AtmCell::user_data(VpiVci::uni(1, 40).expect("id"), sequenced_payload(k));
        cell.retag(VpiVci::uni(7, 70).expect("id"));
        cmp.expect(&cell, SimTime::ZERO);
    }
    for handle in [&got0, &got] {
        for (t, pkt) in handle.take() {
            match pkt.payload::<AtmCell>() {
                Some(cell) => cmp.observe(cell, t),
                None => cmp.observe_undecodable(t),
            }
        }
    }
    let report = cmp.finish();
    assert!(!report.passed(), "the seeded bug must be detected");
    assert!(
        report
            .mismatches
            .iter()
            .any(|m| matches!(m, castanet::compare::Mismatch::Payload { .. })),
        "expected payload mismatches, got: {report}"
    );
}

#[test]
fn board_follower_couples_into_the_full_loop() {
    // The complete Fig. 2 right-hand path: network model <-> test board.
    let mut net = Kernel::new(9);
    let node = net.add_node("n");
    let mut sync = ConservativeSync::new();
    let cell_type = sync.register_type(SimDuration::from_ns(50) * CELL_OCTETS as u64);
    let (iface_proc, outbox) = CastanetInterfaceProcess::new(cell_type);
    let iface = net.add_module(node, "castanet", Box::new(iface_proc));
    let src = net.add_module(
        node,
        "src",
        Box::new(
            TrafficSourceProcess::new(
                VpiVci::uni(1, 40).expect("id"),
                Box::new(Cbr::new(SimDuration::from_us(20))),
            )
            .with_limit(10),
        ),
    );
    net.connect_stream(src, PortId(0), iface, PortId(0))
        .expect("wire");
    let (collector, got) = CollectorProcess::new();
    let sink = net.add_module(node, "sink", Box::new(collector));
    net.connect_stream(iface, PortId(1), sink, PortId(0))
        .expect("wire");

    let follower = switch_on_board(256, cell_type).expect("cycle length fits the board");
    let mut coupling: Coupling<_> = Coupling::new(net, follower, sync, cell_type, iface, outbox)
        .with_drain(SimDuration::from_us(100), 3);
    let stats = coupling.run(SimTime::from_ms(10)).expect("run");
    assert_eq!(stats.messages_to_follower, 10);
    assert_eq!(got.len(), 10, "all cells return through the board");
    for (_, pkt) in got.take() {
        let cell = pkt.payload::<AtmCell>().expect("cell");
        assert_eq!(cell.id(), VpiVci::uni(7, 70).expect("id"));
    }
    // The board really executed test cycles.
    assert!(coupling.follower().session_stats().cycles > 0);
    assert!(coupling.follower().clocks_done() > 0);
}

#[test]
fn cycle_follower_single_cell_latency_matches_structure() {
    // One cell through the cycle follower: response must land 2 transfer
    // times (ingress + egress) after the start, +switch latency.
    let mut switch = AtmSwitchRtl::new(SwitchRtlConfig {
        ports: 2,
        fifo_capacity: 8,
        table_capacity: 4,
    });
    assert!(switch.install_route(1, 40, 1, 7, 70));
    let bank = castanet_rtl::compiled::LaneBank::new(vec![Box::new(switch)]);
    let mut follower = CycleCosim::new(
        bank,
        SimDuration::from_ns(20),
        MessageTypeId(0),
        HeaderFormat::Uni,
    );
    follower
        .add_ingress(IngressIndices {
            data: 0,
            sync: 1,
            enable: 2,
        })
        .unwrap();
    follower
        .add_egress(EgressIndices {
            data: 3,
            sync: 4,
            valid: 5,
        })
        .unwrap();
    follower
        .deliver(Message::cell(
            SimTime::ZERO,
            MessageTypeId(0),
            0,
            AtmCell::user_data(VpiVci::uni(1, 40).expect("id"), [1; 48]),
        ))
        .expect("deliver");
    let responses = follower
        .advance_until(SimTime::from_us(10))
        .expect("advance");
    assert_eq!(responses.len(), 1);
    let clocks = responses[0].stamp.as_picos() / 20_000;
    assert!(
        (105..=112).contains(&clocks),
        "53 in + 53 out (overlapping by one edge) + pipeline, got {clocks} clocks"
    );
}
