//! Trace record/replay determinism and conformance-vector campaigns —
//! the "re-run previously generated test vectors" and "standardized
//! conformance test vectors" stimulus classes of Fig. 1.

use castanet::conformance::{
    boundary_connections, double_bit_hec_errors, header_walking_ones, payload_patterns,
    single_bit_hec_errors, standard_suite,
};
use castanet::coupling::CoupledSimulator;
use castanet::cyclecosim::{CycleCosim, EgressIndices, IngressIndices};
use castanet::message::MessageTypeId;
use castanet::traceio::{read_trace, stimulus_messages, Direction, TraceRecord, TraceWriter};
use castanet_atm::addr::{HeaderFormat, VpiVci};
use castanet_atm::cell::AtmCell;
use castanet_netsim::time::{SimDuration, SimTime};
use castanet_rtl::compiled::LaneBank;
use castanet_rtl::cycle::CycleSim;
use castanet_rtl::dut::{AtmSwitchRtl, CellReceiver, SwitchRtlConfig};

fn fresh_follower() -> CycleCosim {
    let mut switch = AtmSwitchRtl::new(SwitchRtlConfig {
        ports: 2,
        fifo_capacity: 64,
        table_capacity: 64,
    });
    assert!(switch.install_route(1, 40, 1, 7, 70));
    assert!(switch.install_route(1, 41, 1, 7, 71));
    let bank = LaneBank::new(vec![Box::new(switch)]);
    let mut follower = CycleCosim::new(
        bank,
        SimDuration::from_ns(20),
        MessageTypeId(1),
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
}

fn drive(
    follower: &mut CycleCosim,
    messages: &[castanet::message::Message],
) -> Vec<(u64, AtmCell)> {
    for m in messages {
        follower.deliver(m.clone()).expect("deliver");
    }
    let mut out = Vec::new();
    loop {
        let r = follower
            .advance_until(SimTime::from_ms(50))
            .expect("advance");
        if r.is_empty() {
            break;
        }
        for m in r {
            if let Some(c) = m.as_cell() {
                out.push((m.stamp.as_picos(), c.clone()));
            }
        }
    }
    out
}

#[test]
fn recorded_stimulus_replays_bit_exactly() {
    // Build a stimulus set, record it, read it back, drive two fresh DUTs
    // with original and replayed streams: identical responses.
    let original: Vec<TraceRecord> = (0..40u64)
        .map(|k| TraceRecord {
            direction: Direction::Stimulus,
            stamp: SimTime::from_us(3 * k + 1),
            port: 0,
            cell: AtmCell::user_data(
                VpiVci::uni(1, 40 + (k % 2) as u16).expect("id"),
                [(k % 251) as u8; 48],
            ),
        })
        .collect();
    let mut w = TraceWriter::new(Vec::new(), HeaderFormat::Uni).expect("writer");
    for r in &original {
        w.write(r).expect("write");
    }
    let bytes = w.finish().expect("finish");
    let replayed = read_trace(std::io::Cursor::new(&bytes), HeaderFormat::Uni).expect("read");
    assert_eq!(replayed, original);

    let msgs_a = stimulus_messages(&original, MessageTypeId(0));
    let msgs_b = stimulus_messages(&replayed, MessageTypeId(0));
    let out_a = drive(&mut fresh_follower(), &msgs_a);
    let out_b = drive(&mut fresh_follower(), &msgs_b);
    assert_eq!(out_a.len(), 40);
    assert_eq!(out_a, out_b, "replay must be cycle- and bit-exact");
}

/// Builds a coupled fixture whose network side re-plays `records` as
/// pre-scheduled arrivals at the interface node, and runs it through the
/// parallel executor.
fn replay_through_parallel_executor(records: &[TraceRecord]) -> Vec<(u64, AtmCell)> {
    use castanet::interface::{response_packet, CastanetInterfaceProcess};
    use castanet::sync::ConservativeSync;
    use castanet_netsim::event::PortId;
    use castanet_netsim::kernel::Kernel;
    use castanet_netsim::process::CollectorProcess;
    use castanet_rtl::dut::SwitchRtlConfig;

    let mut net = Kernel::new(3);
    let node = net.add_node("replay");
    let mut sync = ConservativeSync::new();
    let cell_type = sync.register_type(SimDuration::from_ns(20) * 53);
    let (iface_proc, outbox) = CastanetInterfaceProcess::new(cell_type);
    let iface = net.add_module(node, "castanet", Box::new(iface_proc));
    let (collector, got) = CollectorProcess::new();
    let sink = net.add_module(node, "sink", Box::new(collector));
    net.connect_stream(iface, PortId(1), sink, PortId(0))
        .unwrap();
    for r in records {
        net.inject_packet(iface, PortId(0), response_packet(r.cell.clone()), r.stamp)
            .unwrap();
    }

    let mut switch = AtmSwitchRtl::new(SwitchRtlConfig {
        ports: 2,
        fifo_capacity: 64,
        table_capacity: 64,
    });
    assert!(switch.install_route(1, 40, 1, 7, 70));
    assert!(switch.install_route(1, 41, 1, 7, 71));
    let bank = LaneBank::new(vec![Box::new(switch)]);
    let mut follower =
        CycleCosim::new(bank, SimDuration::from_ns(20), cell_type, HeaderFormat::Uni);
    follower
        .add_ingress(IngressIndices {
            data: 0,
            sync: 1,
            enable: 2,
        })
        .unwrap();
    follower
        .add_ingress(IngressIndices {
            data: 3,
            sync: 4,
            enable: 5,
        })
        .unwrap();
    follower
        .add_egress(EgressIndices {
            data: 0,
            sync: 1,
            valid: 2,
        })
        .unwrap();
    follower
        .add_egress(EgressIndices {
            data: 3,
            sync: 4,
            valid: 5,
        })
        .unwrap();

    let mut coupling =
        castanet::coupling::Coupling::new(net, follower, sync, cell_type, iface, outbox)
            .into_parallel();
    coupling.run(SimTime::from_ms(2)).expect("run");
    got.take()
        .into_iter()
        .map(|(at, pkt)| {
            (
                at.as_picos(),
                pkt.payload::<AtmCell>().expect("cell payload").clone(),
            )
        })
        .collect()
}

#[test]
fn recorded_stimulus_replays_bit_exactly_through_the_parallel_executor() {
    // The record/replay loop of Fig. 1 closed over the parallel executor:
    // a recorded campaign re-driven from its trace file produces the exact
    // response stream — arrival timestamps included — of the original run,
    // and repeating the replay changes nothing (deterministic seeds on the
    // kernel, deterministic scheduling in the executor).
    let original: Vec<TraceRecord> = (0..30u64)
        .map(|k| TraceRecord {
            direction: Direction::Stimulus,
            stamp: SimTime::from_us(5 * k + 2),
            port: 0,
            cell: AtmCell::user_data(
                VpiVci::uni(1, 40 + (k % 2) as u16).expect("id"),
                [(3 * k % 251) as u8; 48],
            ),
        })
        .collect();
    let mut w = TraceWriter::new(Vec::new(), HeaderFormat::Uni).expect("writer");
    for r in &original {
        w.write(r).expect("write");
    }
    let bytes = w.finish().expect("finish");
    let replayed = read_trace(std::io::Cursor::new(&bytes), HeaderFormat::Uni).expect("read");

    let out_original = replay_through_parallel_executor(&original);
    let out_replayed = replay_through_parallel_executor(&replayed);
    let out_again = replay_through_parallel_executor(&replayed);
    assert_eq!(out_original.len(), 30);
    assert_eq!(
        out_original, out_replayed,
        "replay from the trace file must be cycle- and bit-exact"
    );
    assert_eq!(out_replayed, out_again, "replay must be deterministic");
}

#[test]
fn walking_ones_pass_through_the_receiver_dut() {
    // Every walking-ones header decodes correctly through the RTL cell
    // receiver (those with nonzero VPI/VCI headers need no route — the
    // receiver just parses).
    let mut sim = CycleSim::new(Box::new(CellReceiver::new()));
    for cell in header_walking_ones().expect("generate") {
        let wire = cell.encode(HeaderFormat::Uni).expect("encode");
        let mut last = Vec::new();
        for (i, &b) in wire.iter().enumerate() {
            last = sim
                .step(&[u64::from(b), u64::from(i == 0), 1, 0])
                .expect("step")
                .to_vec();
        }
        assert_eq!(last[0], 1, "cell_valid for {cell}");
        assert_eq!(last[1], 1, "hec ok for {cell}");
        assert_eq!(last[2], u64::from(cell.id().vpi.value()), "vpi of {cell}");
        assert_eq!(last[3], u64::from(cell.id().vci.value()), "vci of {cell}");
    }
}

#[test]
fn hec_error_campaign_through_the_receiver_dut() {
    // Single-bit corrupted wires are flagged (the cycle receiver detects,
    // it does not correct — correction lives in the HecReceiver model);
    // double-bit corruptions are flagged too; clean cells pass.
    let base = AtmCell::user_data(VpiVci::uni(5, 500).expect("id"), [0x77; 48]);
    let mut sim = CycleSim::new(Box::new(CellReceiver::new()));

    let singles = single_bit_hec_errors(&base, HeaderFormat::Uni).expect("generate");
    assert_eq!(singles.len(), 40);
    for (bit, wire, _) in singles {
        let mut last = Vec::new();
        for (i, &b) in wire.iter().enumerate() {
            last = sim
                .step(&[u64::from(b), u64::from(i == 0), 1, 0])
                .expect("step")
                .to_vec();
        }
        assert_eq!(last[0], 1, "cell completes (bit {bit})");
        assert_eq!(last[1], 0, "hec flagged (bit {bit})");
    }
    for wire in double_bit_hec_errors(&base, HeaderFormat::Uni).expect("generate") {
        let mut last = Vec::new();
        for (i, &b) in wire.iter().enumerate() {
            last = sim
                .step(&[u64::from(b), u64::from(i == 0), 1, 0])
                .expect("step")
                .to_vec();
        }
        assert_eq!(last[1], 0, "double-bit corruption flagged");
    }
    // A clean cell still passes after the campaign.
    let wire = base.encode(HeaderFormat::Uni).expect("encode");
    let mut last = Vec::new();
    for (i, &b) in wire.iter().enumerate() {
        last = sim
            .step(&[u64::from(b), u64::from(i == 0), 1, 0])
            .expect("step")
            .to_vec();
    }
    assert_eq!(last[1], 1);
}

#[test]
fn standard_suite_drives_the_switch_without_loss() {
    // Conformance cells on a routed connection flow through the switch;
    // unrouted ones land in the control unit — none vanish.
    let conn = VpiVci::uni(1, 40).expect("id");
    let suite = standard_suite(conn).expect("generate");
    let routed: Vec<_> = suite.iter().filter(|c| c.id() == conn).collect();
    assert!(!routed.is_empty());

    let mut follower = fresh_follower();
    let messages: Vec<_> = routed
        .iter()
        .enumerate()
        .map(|(k, c)| {
            castanet::message::Message::cell(
                SimTime::from_us(3 * k as u64),
                MessageTypeId(0),
                0,
                (*c).clone(),
            )
        })
        .collect();
    let out = drive(&mut follower, &messages);
    assert_eq!(
        out.len(),
        routed.len(),
        "every routed conformance cell returns"
    );
    for (_, cell) in &out {
        assert_eq!(cell.id(), VpiVci::uni(7, 70).expect("id"));
    }
}

#[test]
fn conformance_generators_have_stable_shapes() {
    assert_eq!(header_walking_ones().expect("gen").len(), 32);
    assert_eq!(boundary_connections().expect("gen").len(), 20);
    assert_eq!(payload_patterns(VpiVci::uni(0, 32).expect("id")).len(), 6);
    let base = AtmCell::user_data(VpiVci::uni(0, 32).expect("id"), [0; 48]);
    assert_eq!(
        single_bit_hec_errors(&base, HeaderFormat::Uni)
            .expect("gen")
            .len(),
        40
    );
    assert!(!double_bit_hec_errors(&base, HeaderFormat::Uni)
        .expect("gen")
        .is_empty());
}
