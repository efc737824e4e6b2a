//! Ablations of the design choices DESIGN.md §7 calls out (beyond the
//! conservative/optimistic/lockstep study in `e2_sync` and the engine
//! study in `e7_engines`):
//!
//! * IPC transport: in-process channel vs real Unix-domain sockets under
//!   the remote-follower protocol;
//! * per-message-type δ granularity: how the number of registered message
//!   types affects the conservative synchronizer's per-message cost;
//! * the coupling's drain quantum: small quanta re-check quiescence often,
//!   large quanta simulate more idle time before stopping.

use castanet::coupling::CoupledSimulator;
use castanet::cyclecosim::{CycleCosim, EgressIndices, IngressIndices};
use castanet::ipc::{in_process_pair, MessageTransport, UnixSocketTransport};
use castanet::message::{Message, MessageTypeId};
use castanet::remote::{FollowerServer, RemoteFollower};
use castanet::sync::conservative::ConservativeSync;
use castanet_atm::addr::{HeaderFormat, VpiVci};
use castanet_atm::cell::AtmCell;
use castanet_bench::small_switch_config;
use castanet_netsim::time::{SimDuration, SimTime};
use castanet_rtl::cycle::CycleSim;
use castanet_rtl::dut::{AtmSwitchRtl, SwitchRtlConfig};
use coverify::scenarios::switch_cosim;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn local_follower() -> CycleCosim {
    let mut switch = AtmSwitchRtl::new(SwitchRtlConfig {
        ports: 2,
        fifo_capacity: 32,
        table_capacity: 8,
    });
    assert!(switch.install_route(1, 40, 1, 7, 70));
    let sim = CycleSim::new(Box::new(switch));
    let mut f = CycleCosim::new(
        sim,
        SimDuration::from_ns(20),
        MessageTypeId(0),
        HeaderFormat::Uni,
    );
    f.add_ingress(IngressIndices {
        data: 0,
        sync: 1,
        enable: 2,
    })
    .expect("line pins are within the switch's port lists");
    f.add_egress(EgressIndices {
        data: 3,
        sync: 4,
        valid: 5,
    })
    .expect("line pins are within the switch's port lists");
    f
}

fn remote_session<T: MessageTransport + 'static>(client_t: T, server_t: T, cells: u64) -> u64 {
    let server = FollowerServer::new(server_t, local_follower());
    let handle = std::thread::spawn(move || server.serve());
    let mut remote = RemoteFollower::new(client_t);
    for k in 0..cells {
        remote
            .deliver(Message::cell(
                SimTime::from_us(5 * k),
                MessageTypeId(1),
                0,
                AtmCell::user_data(VpiVci::uni(1, 40).expect("id"), [k as u8; 48]),
            ))
            .expect("deliver");
    }
    let mut got = 0u64;
    loop {
        let r = remote
            .advance_until(SimTime::from_us(5 * cells + 100))
            .expect("advance");
        if r.is_empty() {
            break;
        }
        got += r.len() as u64;
    }
    remote.shutdown().expect("shutdown");
    handle.join().expect("join").expect("serve");
    got
}

fn bench_transports(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_ipc_transport");
    group.sample_size(20);
    group.throughput(Throughput::Elements(16));
    group.bench_function("in_process_channel", |b| {
        b.iter(|| {
            let (a, s) = in_process_pair();
            remote_session(a, s, 16)
        });
    });
    group.bench_function("unix_socket", |b| {
        b.iter(|| {
            let (a, s) = UnixSocketTransport::pair().expect("socketpair");
            remote_session(a, s, 16)
        });
    });
    group.finish();
}

fn bench_delta_granularity(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_delta_granularity");
    group.throughput(Throughput::Elements(10_000));
    for &types_n in &[1usize, 4, 16, 64] {
        group.bench_with_input(BenchmarkId::new("types", types_n), &types_n, |b, &n| {
            b.iter(|| {
                let mut sync = ConservativeSync::new();
                let types: Vec<_> = (0..n)
                    .map(|i| sync.register_type(SimDuration::from_us(1 + i as u64)))
                    .collect();
                let mut x: u64 = 0xABCD_EF01;
                let mut stamps = vec![SimTime::ZERO; n];
                let mut originator = SimTime::ZERO;
                let mut prev = SimTime::ZERO;
                for _ in 0..10_000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let j = (x as usize) % n;
                    originator += SimDuration::from_ns(x % 700);
                    stamps[j] = stamps[j].max(originator);
                    sync.receive(types[j], stamps[j], false).expect("receive");
                    sync.advance_local(prev).expect("advance");
                    prev = sync.originator_time();
                    while sync.pop_ready(types[j]).is_some() {}
                }
                sync.stats().messages
            });
        });
    }
    group.finish();
}

fn bench_drain_quantum(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_drain_quantum");
    group.sample_size(10);
    for &quantum_us in &[5u64, 50, 500] {
        group.bench_with_input(
            BenchmarkId::new("quantum_us", quantum_us),
            &quantum_us,
            |b, &q| {
                b.iter(|| {
                    let scenario = switch_cosim(small_switch_config(25));
                    let mut coupling = scenario.coupling.with_drain(SimDuration::from_us(q), 2);
                    coupling.run(SimTime::from_secs(1)).expect("run");
                    coupling.stats().responses
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_transports,
    bench_delta_granularity,
    bench_drain_quantum
);
criterion_main!(benches);
