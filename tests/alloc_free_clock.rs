//! Heap traffic on the DUT clock path. Once a follower has warmed up, an
//! evaluated clock must not touch the allocator unless it completes a
//! cell: the DUT writes into pins its caller owns and stimulus waits, as
//! cells, in queues that have reached their working size. A cell's
//! footprint is its octets, not the clocks up to its stamp. The test
//! counts the allocator calls and bytes made on its own thread, so tests
//! running beside it in the same process do not disturb the counts.

// A `GlobalAlloc` impl is `unsafe` by definition; this counting shim over
// `System` is the only unsafe code in the workspace.
#![allow(unsafe_code)]

use castanet::coupling::CoupledSimulator;
use castanet::message::{Message, MessageTypeId};
use castanet::CastanetError;
use castanet_atm::cell::AtmCell;
use castanet_netsim::time::SimTime;
use castanet_rtl::compiled::LaneBank;
use castanet_rtl::cycle::CycleDut;
use castanet_rtl::dut::{AtmSwitchRtl, SwitchRtlConfig};
use coverify::scenarios::{self, SwitchScenarioConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocator call asking for `bytes` bytes.
fn count_one(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` guarantees are exactly the ones `System`
// needs; counting touches only a const-initialized thread-local `Cell`,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: forwarded; see the impl.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: forwarded; see the impl.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        // SAFETY: forwarded; `ptr` came from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded; `ptr` came from this allocator, i.e. `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (`alloc`, `alloc_zeroed`, `realloc`) made on this thread
/// while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Bytes asked of the allocator (`alloc`, `alloc_zeroed`, and the new
/// size of each `realloc`) on this thread while `f` runs.
fn allocated_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

/// Cells per ingress line in one burst.
const BURST: u64 = 6;

/// Delivers `BURST` back-to-back cells on every ingress line, all stamped
/// at the follower's current time.
fn deliver_burst(
    follower: &mut impl CoupledSimulator,
    config: &SwitchScenarioConfig,
    cell_type: MessageTypeId,
) {
    let now = follower.now();
    for k in 0..BURST {
        for line in 0..config.ports {
            let cell = AtmCell::user_data(config.in_conn(line), [k as u8; 48]);
            follower
                .deliver(Message::cell(now, cell_type, line, cell))
                .expect("deliver");
        }
    }
}

/// One follower advance: `advance_until` or `advance_batch`.
type Advance<F> = fn(&mut F, SimTime) -> Result<Vec<Message>, CastanetError>;

/// Advances `clocks` clocks per call until the burst has drained. Returns,
/// per call, the response messages it returned and the allocations it
/// made.
fn drain<F: CoupledSimulator>(
    follower: &mut F,
    period_ps: u64,
    clocks: u64,
    advance: Advance<F>,
) -> Vec<(u64, u64)> {
    (0..(BURST + 4) * 53 / clocks)
        .map(|_| {
            let horizon = follower.now().as_picos() + (clocks + 1) * period_ps;
            let (responses, allocs) =
                allocations(|| advance(follower, SimTime::from_picos(horizon)).expect("advance"));
            (responses.len() as u64, allocs)
        })
        .collect()
}

/// Advances one clock per call until the burst has drained.
fn drain_clock_by_clock<F: CoupledSimulator>(follower: &mut F, period_ps: u64) -> Vec<(u64, u64)> {
    drain(follower, period_ps, 1, F::advance_until)
}

#[test]
fn cycle_follower_clocks_allocate_only_for_completed_cells() {
    let config = SwitchScenarioConfig::default();
    let period_ps = config.clock_period.as_picos();
    let (_net, mut follower) = scenarios::switch_cosim_cycle(config).coupling.into_parts();
    let cell_type = MessageTypeId(0);

    // Warm-up: the window, the switch FIFOs and the reassembly state reach
    // their working sizes.
    let cells = BURST * config.ports as u64;
    deliver_burst(&mut follower, &config, cell_type);
    let warm = drain_clock_by_clock(&mut follower, period_ps);
    assert_eq!(warm.iter().map(|&(n, _)| n).sum::<u64>(), cells);

    let evaluated = follower.clocks_evaluated();
    let ((), deliver_allocs) = allocations(|| deliver_burst(&mut follower, &config, cell_type));
    assert_eq!(
        deliver_allocs, 0,
        "a warmed-up window stores cells in place"
    );
    let calls = drain_clock_by_clock(&mut follower, period_ps);
    assert_eq!(calls.iter().map(|&(n, _)| n).sum::<u64>(), cells);
    for (clock, &(n, allocs)) in calls.iter().enumerate() {
        assert!(
            allocs <= n,
            "clock {clock}: {allocs} allocations for {n} response messages"
        );
    }
    let busy = follower.clocks_evaluated() - evaluated;
    assert!(
        busy >= BURST * 53 && busy <= calls.len() as u64,
        "{busy} evaluated clocks in {} calls",
        calls.len()
    );
}

#[test]
fn one_lane_batch_windows_allocate_only_for_response_messages() {
    // The parallel executor's follower: one lane, advanced a window at a
    // time with `advance_batch`.
    let config = SwitchScenarioConfig::default();
    let period_ps = config.clock_period.as_picos();
    let (_net, mut follower) = scenarios::switch_cosim_parallel(config)
        .coupling
        .into_parts();
    let cell_type = MessageTypeId(0);
    let window = 16;

    let cells = BURST * config.ports as u64;
    deliver_burst(&mut follower, &config, cell_type);
    let warm = drain(
        &mut follower,
        period_ps,
        window,
        castanet::CycleCosim::advance_batch,
    );
    assert_eq!(warm.iter().map(|&(n, _)| n).sum::<u64>(), cells);

    deliver_burst(&mut follower, &config, cell_type);
    let calls = drain(
        &mut follower,
        period_ps,
        window,
        castanet::CycleCosim::advance_batch,
    );
    assert_eq!(calls.iter().map(|&(n, _)| n).sum::<u64>(), cells);
    for (k, &(n, allocs)) in calls.iter().enumerate() {
        assert!(
            allocs <= n,
            "window {k}: {allocs} allocations for {n} response messages"
        );
    }
    assert!(
        calls.iter().any(|&(n, _)| n == 0),
        "some window returns no response"
    );
}

#[test]
fn lane_bank_busy_clocks_allocate_nothing() {
    let config = SwitchScenarioConfig::default();
    let switch = || {
        let mut s = AtmSwitchRtl::new(SwitchRtlConfig {
            ports: config.ports,
            fifo_capacity: 16,
            table_capacity: 8,
        });
        for line in 0..config.ports {
            let (ic, oc) = (config.in_conn(line), config.out_conn(line));
            assert!(s.install_route(
                ic.vpi.value() as u8,
                ic.vci.value(),
                config.out_port(line),
                oc.vpi.value() as u8,
                oc.vci.value(),
            ));
        }
        Box::new(s) as Box<dyn CycleDut>
    };
    let mut bank = LaneBank::new((0..8).map(|_| switch()).collect());
    let n_in = bank.input_ports().len();

    // Every line of every lane streams cells back to back.
    let mut clocks = Vec::new();
    for k in 0..BURST {
        let wires: Vec<_> = (0..config.ports)
            .map(|line| {
                AtmCell::user_data(config.in_conn(line), [k as u8; 48])
                    .encode(castanet_atm::addr::HeaderFormat::Uni)
                    .expect("encode")
            })
            .collect();
        for octet in 0..53 {
            let mut words = vec![0; n_in];
            for (line, wire) in wires.iter().enumerate() {
                words[3 * line] = u64::from(wire[octet]);
                words[3 * line + 1] = u64::from(octet == 0);
                words[3 * line + 2] = 1;
            }
            clocks.push(words);
        }
    }
    clocks.extend(std::iter::repeat_n(vec![0; n_in], 2 * 53));

    let run = |bank: &mut LaneBank| {
        let mut valid = 0;
        for words in &clocks {
            for mut lane in bank.lanes_mut() {
                lane.clock_edge(words);
            }
            valid += (0..config.ports)
                .filter(|&line| bank.outputs(0)[3 * line + 2] == 1)
                .count();
        }
        valid
    };
    let warm = run(&mut bank);
    let (valid, allocs) = allocations(|| run(&mut bank));
    assert_eq!(valid, warm);
    assert_eq!(valid as u64, BURST * 53 * config.ports as u64);
    assert_eq!(allocs, 0, "{} busy lane-bank clocks", clocks.len());
}

#[test]
fn a_cell_stamped_far_ahead_costs_its_octets_not_the_gap() {
    let config = SwitchScenarioConfig::default();
    let (_net, mut follower) = scenarios::switch_cosim_cycle(config).coupling.into_parts();
    let period_ps = config.clock_period.as_picos();
    // 10 ms is 500 000 clocks at the scenario's 20 ns clock.
    let stamp = SimTime::from_ms(10);
    let cell = AtmCell::user_data(config.in_conn(0), [0x5A; 48]);
    let ((), bytes) = allocated_bytes(|| {
        follower
            .deliver(Message::cell(stamp, MessageTypeId(0), 0, cell.clone()))
            .expect("deliver");
    });
    assert!(bytes < 64 << 10, "deliver allocated {bytes} bytes");

    let responses = follower
        .advance_batch(SimTime::from_picos(stamp.as_picos() + 4 * 53 * period_ps))
        .expect("advance");
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].port, config.out_port(0));
    let out = responses[0].as_cell().expect("a cell");
    assert_eq!((out.id(), out.payload), (config.out_conn(0), cell.payload));
    assert!(follower.clocks_skipped() > 490_000);
}

#[test]
fn warmed_up_lanes_seed_cells_in_place() {
    let config = SwitchScenarioConfig::default();
    let lanes = 8;
    let period_ps = config.clock_period.as_picos();
    let (_net, mut follower) = scenarios::switch_cosim_compiled(config, lanes)
        .coupling
        .into_parts();
    let seed_burst = |follower: &mut castanet::CompiledCosim| {
        let now = follower.now();
        for lane in 0..lanes {
            for k in 0..BURST {
                for line in 0..config.ports {
                    let cell = AtmCell::user_data(config.in_conn(line), [k as u8; 48]);
                    follower.seed_cell(lane, line, now, &cell).expect("seed");
                }
            }
        }
    };
    let drain = |follower: &mut castanet::CompiledCosim| {
        let horizon = follower.now().as_picos() + (BURST + 4) * 53 * period_ps;
        follower
            .advance_batch(SimTime::from_picos(horizon))
            .expect("advance");
    };
    let emitted = |follower: &castanet::CompiledCosim| {
        (0..lanes)
            .map(|lane| {
                (0..config.ports)
                    .map(|port| follower.lane_cells(port, lane).len())
                    .sum::<usize>()
            })
            .collect::<Vec<_>>()
    };
    let per_lane = BURST as usize * config.ports;

    // Warm-up: every lane's line queues reach a burst's depth.
    seed_burst(&mut follower);
    drain(&mut follower);
    assert_eq!(emitted(&follower), vec![per_lane; lanes]);

    let ((), allocs) = allocations(|| seed_burst(&mut follower));
    assert_eq!(allocs, 0, "warmed-up lane windows store cells in place");
    drain(&mut follower);
    assert_eq!(emitted(&follower), vec![2 * per_lane; lanes]);
}
