//! E5 — hardware test cycles (paper §3.3): cost of the SW-stimulus →
//! HW-run → SW-readback cycle as a function of its duration. The modelled
//! efficiency (hardware time over total) is printed by `repro e5`; this
//! bench measures the host-side execution cost per board clock at each
//! cycle length, showing the amortization of per-cycle overhead.

use castanet::coupling::CoupledSimulator;
use castanet::message::{Message, MessageTypeId};
use castanet_atm::addr::VpiVci;
use castanet_atm::cell::AtmCell;
use castanet_netsim::time::SimTime;
use coverify::scenarios::switch_on_board;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn run_session(cycle_len: u64) -> u64 {
    let mut cosim =
        switch_on_board(cycle_len, MessageTypeId(1)).expect("cycle length fits the board");
    for k in 0..4u64 {
        let cell = AtmCell::user_data(VpiVci::uni(1, 40).expect("id"), [k as u8; 48]);
        cosim
            .deliver(Message::cell(SimTime::ZERO, MessageTypeId(0), 0, cell))
            .expect("deliver");
    }
    let mut got = 0u64;
    while got < 4 {
        let r = cosim.advance_until(SimTime::from_ms(5)).expect("advance");
        if r.is_empty() {
            break;
        }
        got += r.len() as u64;
    }
    cosim.clocks_done()
}

fn bench_e5(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_board");
    group.sample_size(20);
    for &len in &[16u64, 128, 1024] {
        group.throughput(Throughput::Elements(len));
        group.bench_with_input(BenchmarkId::new("test_cycle_len", len), &len, |b, &l| {
            b.iter(|| run_session(l));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_e5);
criterion_main!(benches);
