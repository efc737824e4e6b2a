//! Cross-crate synchronization and transport tests: the conservative and
//! optimistic protocols agree on results, and the co-simulation message
//! stream survives the real Unix-socket IPC path across threads — the
//! two-process deployment of Fig. 2.

use castanet::ipc::{in_process_pair, MessageTransport, UnixSocketTransport};
use castanet::message::{Message, MessagePayload, MessageTypeId};
use castanet::sync::conservative::ConservativeSync;
use castanet::sync::lockstep::{LockstepSync, Side};
use castanet::sync::optimistic::{OptimisticSync, TimedEvent};
use castanet_atm::addr::VpiVci;
use castanet_atm::cell::AtmCell;
use castanet_netsim::time::{SimDuration, SimTime};

/// Reference machine: an accounting-style accumulator whose result depends
/// on event order — any synchronization error shows up as a different sum.
fn step(state: &mut (u64, u64), ev: &u32) -> Vec<u64> {
    // Order-sensitive: value depends on how many events came before.
    state.0 += 1;
    state.1 = state.1.wrapping_mul(31).wrapping_add(u64::from(*ev));
    vec![state.1]
}

#[test]
fn optimistic_out_of_order_equals_conservative_in_order() {
    // A schedule with heavy reordering.
    let mut schedule: Vec<(u64, u32)> = (0..500u64).map(|i| (i * 100, (i % 97) as u32)).collect();
    // Shuffle deterministically: reverse every window of 7.
    for chunk in schedule.chunks_mut(7) {
        chunk.reverse();
    }

    // Conservative equivalent: sort (what in-order delivery produces) and
    // run sequentially.
    let mut sorted = schedule.clone();
    sorted.sort_unstable();
    let mut reference = (0u64, 0u64);
    for (_, ev) in &sorted {
        step(&mut reference, ev);
    }

    // Optimistic: feed shuffled; rollbacks must repair everything.
    let mut tw = OptimisticSync::new((0u64, 0u64), step, usize::MAX >> 1);
    for (i, &(t, ev)) in schedule.iter().enumerate() {
        tw.execute(TimedEvent {
            stamp: SimTime::from_ns(t),
            seq: i as u64,
            event: ev,
        })
        .expect("execute");
    }
    assert!(
        tw.stats().rollbacks > 0,
        "the shuffle must actually trigger rollbacks"
    );
    assert_eq!(
        *tw.state(),
        reference,
        "optimistic must converge to the in-order result"
    );
}

#[test]
fn conservative_blocks_exactly_what_fig3_forbids() {
    // Fig. 3's causality error: an event scheduled in the other simulator's
    // past. The protocol must reject it and nothing else.
    let mut sync = ConservativeSync::new();
    let t = sync.register_type(SimDuration::from_us(1));
    sync.receive(t, SimTime::from_us(10), false)
        .expect("in order");
    sync.advance_local(SimTime::from_us(8))
        .expect("within grant");
    // OK: a message at 9 us (>= local 8).
    sync.receive(t, SimTime::from_us(10), false)
        .expect("same stamp ok");
    // Forbidden: a message at 5 us — in the follower's past.
    assert!(sync.receive(t, SimTime::from_us(5), false).is_err());
    // Forbidden: advancing past the grant.
    assert!(sync.advance_local(SimTime::from_us(11)).is_err());
    assert!(sync.lag_invariant_holds());
}

#[test]
fn lockstep_round_structure() {
    let mut ls = LockstepSync::new(SimDuration::from_us(10));
    for round in 0..50u64 {
        assert_eq!(ls.begin_window(), SimTime::from_us(10 * (round + 1)));
        ls.complete(Side::Originator);
        ls.complete(Side::Follower);
    }
    assert_eq!(ls.rounds(), 50);
}

fn message_stream(n: u64) -> Vec<Message> {
    (0..n)
        .map(|k| {
            let conn = VpiVci::uni(1, 40 + (k % 4) as u16).expect("id");
            let mut payload = [0u8; 48];
            payload[..8].copy_from_slice(&k.to_be_bytes());
            Message::cell(
                SimTime::from_us(k),
                MessageTypeId((k % 3) as u32),
                (k % 4) as usize,
                AtmCell::user_data(conn, payload),
            )
        })
        .collect()
}

#[test]
fn unix_socket_carries_a_cosim_stream_across_threads() {
    let (mut tx, mut rx) = UnixSocketTransport::pair().expect("socketpair");
    let stream = message_stream(500);
    let expected = stream.clone();
    let sender = std::thread::spawn(move || {
        for m in &stream {
            tx.send(m).expect("send");
        }
        // Signal end with a time-only message.
        tx.send(&Message::time_update(SimTime::MAX, MessageTypeId(99)))
            .expect("send eof");
    });
    let mut got = Vec::new();
    loop {
        let m = rx.recv().expect("recv");
        if m.payload == MessagePayload::TimeOnly {
            break;
        }
        got.push(m);
    }
    sender.join().expect("join");
    assert_eq!(got, expected);
}

#[test]
fn in_process_channel_preserves_order_under_load() {
    let (mut tx, mut rx) = in_process_pair();
    let stream = message_stream(2_000);
    for m in &stream {
        tx.send(m).expect("send");
    }
    for want in &stream {
        let got = rx.recv().expect("recv");
        assert_eq!(&got, want);
    }
    assert!(rx.try_recv().expect("empty").is_none());
}

#[test]
fn full_coupling_over_unix_sockets_two_thread_deployment() {
    // The complete Fig. 2 deployment: network kernel + interface in this
    // thread; the follower (cycle engine + switch DUT) served over a real
    // Unix-domain socket from another thread — OPNET-process vs
    // VSS-process, faithfully.
    use castanet::coupling::Coupling;
    use castanet::cyclecosim::{CycleCosim, EgressIndices, IngressIndices};
    use castanet::interface::CastanetInterfaceProcess;
    use castanet::remote::{FollowerServer, RemoteFollower};
    use castanet_atm::cell::CELL_OCTETS;
    use castanet_atm::traffic::source::TrafficSourceProcess;
    use castanet_atm::traffic::Cbr;
    use castanet_netsim::event::PortId;
    use castanet_netsim::kernel::Kernel;
    use castanet_netsim::process::CollectorProcess;
    use castanet_rtl::compiled::LaneBank;
    use castanet_rtl::dut::{AtmSwitchRtl, SwitchRtlConfig};

    let (client_t, server_t) = UnixSocketTransport::pair().expect("socketpair");

    // Server thread: the "HDL simulator process".
    let server_handle = std::thread::spawn(move || {
        let mut switch = AtmSwitchRtl::new(SwitchRtlConfig {
            ports: 2,
            fifo_capacity: 64,
            table_capacity: 8,
        });
        assert!(switch.install_route(1, 40, 1, 7, 70));
        let bank = LaneBank::new(vec![Box::new(switch)]);
        let mut follower = CycleCosim::new(
            bank,
            SimDuration::from_ns(20),
            MessageTypeId(0),
            castanet_atm::addr::HeaderFormat::Uni,
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
        FollowerServer::new(server_t, follower).serve()
    });

    // Client side: the "network simulator process".
    let mut net = Kernel::new(5);
    let node = net.add_node("n");
    let mut sync = castanet::sync::ConservativeSync::new();
    let cell_type = sync.register_type(SimDuration::from_ns(20) * CELL_OCTETS as u64);
    assert_eq!(
        cell_type,
        MessageTypeId(0),
        "server stamps responses with type 0"
    );
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
            .with_limit(12),
        ),
    );
    net.connect_stream(src, PortId(0), iface, PortId(0))
        .expect("wire");
    let (collector, got) = CollectorProcess::new();
    let sink = net.add_module(node, "sink", Box::new(collector));
    // The server registered a single egress line, so responses carry
    // co-simulation port 0 and return through interface output 0.
    net.connect_stream(iface, PortId(0), sink, PortId(0))
        .expect("wire");

    let follower = RemoteFollower::new(client_t);
    let mut coupling = Coupling::new(net, follower, sync, cell_type, iface, outbox);
    let stats = coupling
        .run(SimTime::from_ms(10))
        .expect("coupled run over sockets");
    assert_eq!(stats.messages_to_follower, 12);
    assert_eq!(stats.responses, 12);
    assert_eq!(got.len(), 12);
    for (_, pkt) in got.take() {
        let cell = pkt.payload::<AtmCell>().expect("cell");
        assert_eq!(cell.id(), VpiVci::uni(7, 70).expect("id"));
    }

    let (_, follower) = coupling.into_parts();
    follower.shutdown().expect("shutdown");
    server_handle
        .join()
        .expect("join")
        .expect("server clean exit");
}

#[test]
fn transport_roundtrip_is_stamp_exact_at_extremes() {
    let (mut tx, mut rx) = UnixSocketTransport::pair().expect("socketpair");
    for stamp in [SimTime::ZERO, SimTime::from_picos(1), SimTime::MAX] {
        let m = Message::time_update(stamp, MessageTypeId(0));
        tx.send(&m).expect("send");
        assert_eq!(rx.recv().expect("recv").stamp, stamp);
    }
}
