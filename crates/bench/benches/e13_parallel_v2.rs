//! E13 — the lock-free parallel executor v2 against the serial coupling,
//! on both engines.
//!
//! This is the acceptance bench for the SPSC-ring transport rewrite: the
//! same four set-ups as E8 (identical E1-shaped workload), but the gate is
//! stricter — the parallel executor must now beat its *like-for-like*
//! serial baseline on **both** engines, not just amortize against the
//! slowest one:
//!
//! * `serial_event_driven`   — serial `Coupling::run`, event-driven RTL
//!   follower (one rendezvous per network event);
//! * `serial_cycle_based`    — serial coupling, cycle engine with idle
//!   skipping;
//! * `parallel_event_driven` — `ParallelCoupling` v2 over the event-driven
//!   follower: SPSC rings, zero-copy batch grants, adaptive windows;
//! * `parallel_cycle_based`  — the same executor over the cycle engine,
//!   where the old channel transport *lost* to serial (E8 measured 0.87×)
//!   because per-window allocations and mutex rendezvous cost more than
//!   the overlap bought back.
//!
//! CI enforces `parallel_event_driven > serial_event_driven` and
//! `parallel_cycle_based > serial_cycle_based` per workload size via
//! `check_bench_regression.py --require-faster`.
//!
//! Measurement discipline: the cycle-engine margin is single-digit
//! percent on a single-hardware-thread host (every microsecond of it is
//! removed coupling overhead, there being no second core to overlap on),
//! and a sub-10% verdict cannot be trusted across disjoint measurement
//! windows — machine drift between windows routinely exceeds the margin
//! itself. So, exactly like E12's overhead budget, one pass gathers all
//! four configurations' samples *interleaved*: each round builds and
//! times every configuration back to back (construction and teardown
//! outside the timed window), the rows replay their samples through
//! `iter_custom`, and the `--require-faster` guard compares medians —
//! drift hits every row's interleaved median equally and cancels out of
//! the comparison.
//!
//! Tuning notes: the event-driven follower is ~9× slower than the network
//! kernel, so its row gains mostly from window batching (fewer grant
//! rendezvous, larger uninterrupted advance spans, lazy batch playback
//! keeping its event queue serial-sized); the cycle follower clears a
//! window in tens of microseconds, so its row goes wide (400 µs × depth
//! 8) to trade run-ahead depth for fewer thread handoffs. Workload sizes
//! start at 800 cells: much below that the cycle-engine run is well
//! under a millisecond of work, the per-run thread spawn plus the
//! handful of mandatory handoffs is the same order as the overhead
//! removed, and the comparison degenerates to a coin flip.

use castanet::coupling::{CoupledSimulator, Coupling, Executor};
use castanet_bench::small_switch_config;
use castanet_netsim::time::{SimDuration, SimTime};
use coverify::scenarios::{switch_cosim, switch_cosim_cycle, switch_cosim_parallel};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Timed samples per row; one warmup round is gathered and discarded.
const ROUNDS: usize = 20;

/// Cells per traffic source (the switch drives four sources).
const SIZES: [u64; 2] = [200, 400];

/// Row names, in the order each round gathers them.
const ROWS: [&str; 4] = [
    "serial_event_driven",
    "serial_cycle_based",
    "parallel_event_driven",
    "parallel_cycle_based",
];

fn timed<S: CoupledSimulator, X: Executor<S>>(mut coupling: Coupling<S, X>) -> Duration {
    let start = Instant::now();
    coupling.run(SimTime::from_secs(1)).expect("run");
    let took = start.elapsed();
    std::hint::black_box(coupling.stats().responses);
    took
}

/// One interleaved round: every configuration timed back to back, with
/// each gated serial/parallel pair *adjacent* — the `--require-faster`
/// verdicts compare exactly these pairs, and a multi-millisecond run
/// between a pair's two samples would reintroduce the within-round
/// drift the interleaving exists to cancel.
fn one_round(n: u64) -> [Duration; 4] {
    let serial_event = timed(switch_cosim(small_switch_config(n)).coupling);
    let parallel_event = timed(
        switch_cosim(small_switch_config(n))
            .coupling
            .into_parallel()
            .with_batching(SimDuration::from_us(100), 4),
    );
    let serial_cycle = timed(switch_cosim_cycle(small_switch_config(n)).coupling);
    let parallel_cycle = timed(
        switch_cosim_parallel(small_switch_config(n))
            .coupling
            .with_batching(SimDuration::from_us(400), 8),
    );
    [serial_event, serial_cycle, parallel_event, parallel_cycle]
}

/// `samples()[size_index][row][round]`, gathered once for every row.
fn samples() -> &'static Vec<[Vec<Duration>; 4]> {
    static SAMPLES: OnceLock<Vec<[Vec<Duration>; 4]>> = OnceLock::new();
    SAMPLES.get_or_init(|| {
        SIZES
            .iter()
            .map(|&n| {
                let mut rows: [Vec<Duration>; 4] = Default::default();
                for round in 0..=ROUNDS {
                    let took = one_round(n);
                    if round > 0 {
                        for (row, t) in took.into_iter().enumerate() {
                            rows[row].push(t);
                        }
                    }
                }
                rows
            })
            .collect()
    })
}

fn bench_e13(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_parallel_v2");
    group.sample_size(ROUNDS);

    for (size_index, &cells_per_source) in SIZES.iter().enumerate() {
        let total = cells_per_source * 4;
        group.throughput(Throughput::Elements(total));
        for (row, name) in ROWS.into_iter().enumerate() {
            group.bench_with_input(
                BenchmarkId::new(name, total),
                &(size_index, row),
                |b, &(size_index, row)| {
                    let rounds = &samples()[size_index][row];
                    let mut next = 0usize;
                    b.iter_custom(|_iters| {
                        let sample = rounds[next % rounds.len()];
                        next += 1;
                        sample
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_e13);
criterion_main!(benches);
