//! Differential sync-conformance harness: the same seeded cell traffic is
//! pushed through four synchronization executors — the conservative serial
//! coupling, the ring-parallel coupled-engine executor, the fixed-quantum
//! lockstep baseline, and the optimistic (Time-Warp) wrapper — and every
//! executor must hand back a byte-identical observable cell trace.
//!
//! The protocols differ wildly in *when* work happens (timing windows,
//! alternation quanta, speculative execution with rollback), but §3.1's
//! correctness claim is exactly that the synchronization discipline must
//! never change *what* the coupled DUT computes. The trace compared here is
//! the wire encoding of every egress cell in arrival order; timestamps are
//! deliberately excluded — schedules may differ, contents may not.
//!
//! The same discipline applies across *backends*: the event-driven kernel
//! and the cycle follower, at one lane and at many, are three drivers of
//! one DUT semantics, so the stock-switch scenario must produce
//! byte-identical egress from identical traffic on all three — including
//! through the gated-clock idle-skip fast path, whose evaluated/skipped
//! telemetry counters must not depend on the cycle follower's lane count.

use castanet::compare::StreamComparator;
use castanet::convert::ByteStreamAssembler;
use castanet::coupling::{CoupledSimulator, Coupling, RtlCosim};
use castanet::cyclecosim::{CycleCosim, EgressIndices, IngressIndices};
use castanet::entity::{CosimEntity, EgressSignals, IngressSignals};
use castanet::interface::{response_packet, CastanetInterfaceProcess};
use castanet::message::{Message, MessageTypeId};
use castanet::sync::lockstep::Side;
use castanet::sync::optimistic::{TimedEvent, TimedOutput};
use castanet::sync::{ConservativeSync, LockstepSync, OptimisticSync};
use castanet::{AdaptiveWindow, Telemetry};
use castanet_atm::addr::{HeaderFormat, VpiVci};
use castanet_atm::cell::AtmCell;
use castanet_netsim::event::PortId;
use castanet_netsim::kernel::Kernel;
use castanet_netsim::process::{CollectorHandle, CollectorProcess};
use castanet_netsim::time::{SimDuration, SimTime};
use castanet_rtl::compiled::LaneBank;
use castanet_rtl::cycle::{attach_cycle_dut_gated, CycleDut};
use castanet_rtl::dut::{AtmSwitchRtl, SwitchRtlConfig};
use castanet_rtl::sim::Simulator;

const SEED: u64 = 0xDA7E_1998;
const CLK: SimDuration = SimDuration::from_ns(20);
/// Cells in the seeded campaign.
const CELLS: usize = 24;

fn rng_next(state: &mut u64) -> u64 {
    // xorshift64* — deterministic, dependency-free.
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// The seeded traffic: `CELLS` cells on connections 1/40 and 1/41 with
/// random payloads and inter-cell gaps of 2-9 us (always wider than the
/// 53-clock cell transfer, so the trace order is the stimulus order).
fn seeded_traffic(seed: u64) -> Vec<(SimTime, AtmCell)> {
    let mut s = seed;
    let mut at = SimTime::ZERO;
    (0..CELLS)
        .map(|_| {
            at += SimDuration::from_us(2 + rng_next(&mut s) % 8);
            let vci = 40 + (rng_next(&mut s) % 2) as u16;
            let mut payload = [0u8; 48];
            for b in &mut payload {
                *b = (rng_next(&mut s) & 0xFF) as u8;
            }
            (
                at,
                AtmCell::user_data(VpiVci::uni(1, vci).unwrap(), payload),
            )
        })
        .collect()
}

/// What the switch must emit: headers retagged 1/40 -> 7/70 and
/// 1/41 -> 7/71, payloads untouched, per-stimulus order preserved.
fn expected_cells(stims: &[(SimTime, AtmCell)]) -> Vec<AtmCell> {
    stims
        .iter()
        .map(|(_, cell)| {
            let vci = 70 + (cell.id().vci.value() - 40);
            AtmCell::user_data(VpiVci::uni(7, vci).unwrap(), cell.payload)
        })
        .collect()
}

fn routed_switch() -> AtmSwitchRtl {
    let mut switch = AtmSwitchRtl::new(SwitchRtlConfig {
        ports: 2,
        fifo_capacity: 64,
        table_capacity: 16,
    });
    assert!(switch.install_route(1, 40, 1, 7, 70));
    assert!(switch.install_route(1, 41, 1, 7, 71));
    switch
}

/// The cycle follower on `lanes` replicated switches; lane 0 carries the
/// coupled traffic.
fn fresh_follower(cell_type: MessageTypeId, lanes: usize) -> CycleCosim {
    let duts: Vec<Box<dyn CycleDut>> = (0..lanes)
        .map(|_| Box::new(routed_switch()) as Box<dyn CycleDut>)
        .collect();
    let mut follower = CycleCosim::new(LaneBank::new(duts), CLK, cell_type, HeaderFormat::Uni);
    for line in 0..2 {
        let (data, sync, strobe) = (3 * line, 3 * line + 1, 3 * line + 2);
        follower
            .add_ingress(IngressIndices {
                data,
                sync,
                enable: strobe,
            })
            .unwrap();
        follower
            .add_egress(EgressIndices {
                data,
                sync,
                valid: strobe,
            })
            .unwrap();
    }
    follower
}

/// The event-driven follower on the identical DUT: the switch behind the
/// gated-clock cycle bridge inside the event kernel, coupled through the
/// co-simulation entity — the third backend of the conformance matrix.
fn fresh_event_follower(cell_type: MessageTypeId) -> RtlCosim {
    let mut sim = Simulator::new();
    let dut = attach_cycle_dut_gated(&mut sim, "switch", Box::new(routed_switch()), CLK);
    let clk = dut.clk;
    let mut entity = CosimEntity::new(CLK, HeaderFormat::Uni, cell_type);
    for i in 0..2 {
        entity.add_ingress(IngressSignals {
            data: dut.inputs[3 * i],
            sync: dut.inputs[3 * i + 1],
            enable: dut.inputs[3 * i + 2],
        });
    }
    let egress: Vec<EgressSignals> = (0..2)
        .map(|i| EgressSignals {
            data: dut.outputs[3 * i],
            sync: dut.outputs[3 * i + 1],
            valid: dut.outputs[3 * i + 2],
        })
        .collect();
    entity.add_egress(&mut sim, clk, &egress);
    RtlCosim::new(sim, entity)
}

/// Kernel fixture for the coupled executors: the seeded stimulus is
/// pre-scheduled as arrivals at the interface node, responses flow out to
/// a collector sink. Generic over the follower backend.
fn coupled_with<F: CoupledSimulator>(
    stims: &[(SimTime, AtmCell)],
    make_follower: impl FnOnce(MessageTypeId) -> F,
) -> (Coupling<F>, CollectorHandle) {
    let mut net = Kernel::new(SEED);
    let node = net.add_node("conformance");
    let mut sync = ConservativeSync::new();
    let cell_type = sync.register_type(CLK * 53);
    let (iface_proc, outbox) = CastanetInterfaceProcess::new(cell_type);
    let iface = net.add_module(node, "castanet", Box::new(iface_proc));
    let (collector, got) = CollectorProcess::new();
    let sink = net.add_module(node, "sink", Box::new(collector));
    net.connect_stream(iface, PortId(1), sink, PortId(0))
        .unwrap();
    for (at, cell) in stims {
        net.inject_packet(iface, PortId(0), response_packet(cell.clone()), *at)
            .unwrap();
    }
    let follower = make_follower(cell_type);
    (
        Coupling::new(net, follower, sync, cell_type, iface, outbox),
        got,
    )
}

fn coupled(stims: &[(SimTime, AtmCell)]) -> (Coupling<CycleCosim>, CollectorHandle) {
    coupled_with(stims, |t| fresh_follower(t, 1))
}

/// Runs one backend under the conservative coupling with telemetry
/// attached and returns its trace plus the follower's
/// evaluated/skipped clock gauges (absent for backends that do not
/// publish them).
fn run_backend<F: CoupledSimulator>(
    stims: &[(SimTime, AtmCell)],
    horizon: SimTime,
    make_follower: impl FnOnce(MessageTypeId) -> F,
) -> (Vec<AtmCell>, Option<(u64, u64)>) {
    let tel = Telemetry::enabled();
    let (coupling, got) = coupled_with(stims, make_follower);
    let mut coupling = coupling.with_telemetry(&tel);
    coupling.run(horizon).expect("backend run");
    assert!(coupling.sync().lag_invariant_holds());
    let snapshot = tel.metrics_snapshot();
    let counters = snapshot
        .gauge("follower.clocks_evaluated")
        .zip(snapshot.gauge("follower.clocks_skipped"));
    (collected_cells(&got), counters)
}

fn collected_cells(got: &CollectorHandle) -> Vec<AtmCell> {
    got.take()
        .into_iter()
        .map(|(_, pkt)| pkt.payload::<AtmCell>().expect("cell payload").clone())
        .collect()
}

/// Executor 1: the conservative serial coupling (`Coupling::run`).
fn run_conservative(stims: &[(SimTime, AtmCell)]) -> Vec<AtmCell> {
    let (mut coupling, got) = coupled(stims);
    coupling.run(SimTime::from_ms(1)).expect("serial run");
    assert!(coupling.sync().lag_invariant_holds());
    collected_cells(&got)
}

/// Executor 2: the parallel coupled-engine executor.
fn run_parallel(stims: &[(SimTime, AtmCell)], window: SimDuration, depth: usize) -> Vec<AtmCell> {
    let (coupling, got) = coupled(stims);
    let mut coupling = coupling.into_parallel().with_batching(window, depth);
    coupling.run(SimTime::from_ms(1)).expect("parallel run");
    assert!(coupling.sync().lag_invariant_holds());
    assert_eq!(coupling.stats().late_responses, 0);
    collected_cells(&got)
}

/// Executor 3: fixed-quantum lockstep alternation. The quantum must not
/// exceed the true lookahead (the 53-clock cell transfer time).
fn run_lockstep(stims: &[(SimTime, AtmCell)], quantum: SimDuration) -> Vec<AtmCell> {
    let mut ls = LockstepSync::new(quantum);
    assert!(
        ls.is_safe_for(CLK * 53),
        "quantum wider than the lookahead would not be a valid baseline"
    );
    let cell_type = MessageTypeId(0);
    let mut follower = fresh_follower(cell_type, 1);
    let horizon = stims.last().unwrap().0 + SimDuration::from_us(50);
    let mut trace = Vec::new();
    let mut next = 0;
    while ls.begin_window() <= horizon {
        let window = ls.begin_window();
        // Originator half-round: hand over everything up to the window.
        while next < stims.len() && stims[next].0 < window {
            let (at, cell) = &stims[next];
            follower
                .deliver(Message::cell(*at, cell_type, 0, cell.clone()))
                .expect("deliver");
            next += 1;
        }
        ls.complete(Side::Originator);
        // Follower half-round: advance to the window edge, return responses.
        for m in follower.advance_batch(window).expect("advance") {
            if let Some(cell) = m.as_cell() {
                trace.push(cell.clone());
            }
        }
        assert!(
            follower.now() <= window,
            "lockstep follower overran its window"
        );
        ls.complete(Side::Follower);
    }
    assert_eq!(ls.rounds(), ls.rounds_to_reach(horizon));
    trace
}

/// Clonable deterministic state machine for the Time-Warp wrapper: the RTL
/// switch plus the receive-side assembler, stepped one whole cell per
/// event (the seeded gaps guarantee the real executors never overlap cells
/// either, so per-cell granularity is trace-equivalent).
#[derive(Clone)]
struct OptState {
    switch: AtmSwitchRtl,
    rx: ByteStreamAssembler,
}

fn opt_step(state: &mut OptState, cell: &AtmCell) -> Vec<AtmCell> {
    let wire = cell.encode(HeaderFormat::Uni).expect("encode");
    let mut out = Vec::new();
    let mut clocks = 0u32;
    let mut fed = 0usize;
    // Feed 53 octets, then idle until the switch pipeline drains.
    let mut outputs = [0u64; 9];
    while fed < wire.len() || !state.switch.is_idle() {
        let mut inputs = [0u64; 12];
        if fed < wire.len() {
            inputs[0] = u64::from(wire[fed]);
            inputs[1] = u64::from(fed == 0);
            inputs[2] = 1;
            fed += 1;
        }
        state.switch.clock_edge(&inputs, &mut outputs);
        if outputs[5] == 1 {
            if let Some(cell) = state
                .rx
                .push((outputs[3] & 0xFF) as u8, outputs[4] == 1)
                .expect("assemble")
            {
                out.push(cell);
            }
        }
        clocks += 1;
        assert!(clocks < 1000, "switch failed to drain");
    }
    out
}

/// Executor 4: the optimistic wrapper, fed events in the given order; the
/// committed trace is the anti-message-corrected output set in virtual
/// time order.
fn run_optimistic(
    stims: &[(SimTime, AtmCell)],
    order: &[usize],
) -> (Vec<AtmCell>, castanet::sync::optimistic::OptimisticStats) {
    let state = OptState {
        switch: routed_switch(),
        rx: ByteStreamAssembler::new(HeaderFormat::Uni),
    };
    let mut tw = OptimisticSync::new(state, opt_step, 4096);
    let mut committed: Vec<TimedOutput<AtmCell>> = Vec::new();
    for &k in order {
        let (at, cell) = &stims[k];
        let outcome = tw
            .execute(TimedEvent {
                stamp: *at,
                seq: k as u64,
                event: cell.clone(),
            })
            .expect("execute");
        for anti in outcome.anti_messages {
            let pos = committed
                .iter()
                .position(|o| *o == anti)
                .expect("anti-message must cancel a previously sent output");
            committed.remove(pos);
        }
        committed.extend(outcome.outputs);
    }
    committed.sort_by_key(|o| o.stamp);
    (
        committed.into_iter().map(|o| o.output).collect(),
        tw.stats(),
    )
}

/// The literal byte sequences a monitor on the egress line would record.
fn trace_bytes(cells: &[AtmCell]) -> Vec<Vec<u8>> {
    cells
        .iter()
        .map(|c| c.encode(HeaderFormat::Uni).expect("encode").to_vec())
        .collect()
}

fn assert_conforms(stims: &[(SimTime, AtmCell)], trace: &[AtmCell], label: &str) {
    let mut cmp = StreamComparator::new(None);
    for (i, cell) in expected_cells(stims).iter().enumerate() {
        cmp.expect(cell, stims[i].0);
    }
    for cell in trace {
        cmp.observe(cell, SimTime::ZERO);
    }
    let report = cmp.finish();
    assert!(report.passed(), "{label} failed conformance:\n{report}");
    assert_eq!(report.matched, CELLS as u64, "{label} matched count");
}

#[test]
fn four_executors_produce_byte_identical_traces() {
    let stims = seeded_traffic(SEED);
    let in_order: Vec<usize> = (0..stims.len()).collect();

    let conservative = run_conservative(&stims);
    let parallel = run_parallel(&stims, SimDuration::from_us(100), 4);
    let lockstep = run_lockstep(&stims, SimDuration::from_us(1));
    let (optimistic, _) = run_optimistic(&stims, &in_order);

    assert_eq!(conservative.len(), CELLS, "conservative trace length");
    assert_conforms(&stims, &conservative, "conservative");
    assert_conforms(&stims, &parallel, "parallel");
    assert_conforms(&stims, &lockstep, "lockstep");
    assert_conforms(&stims, &optimistic, "optimistic");

    let reference = trace_bytes(&conservative);
    assert_eq!(
        trace_bytes(&parallel),
        reference,
        "parallel vs conservative"
    );
    assert_eq!(
        trace_bytes(&lockstep),
        reference,
        "lockstep vs conservative"
    );
    assert_eq!(
        trace_bytes(&optimistic),
        reference,
        "optimistic vs conservative"
    );
}

#[test]
fn three_backends_produce_byte_identical_traces() {
    let stims = seeded_traffic(SEED);
    let horizon = SimTime::from_ms(1);

    let (cycle, cycle_counters) = run_backend(&stims, horizon, |t| fresh_follower(t, 1));
    let (lanes, lanes_counters) = run_backend(&stims, horizon, |t| fresh_follower(t, 64));
    let (event, _) = run_backend(&stims, horizon, fresh_event_follower);

    assert_eq!(cycle.len(), CELLS, "cycle trace length");
    assert_conforms(&stims, &cycle, "cycle-based");
    assert_conforms(&stims, &lanes, "64 lanes");
    assert_conforms(&stims, &event, "event-driven");

    let reference = trace_bytes(&cycle);
    assert_eq!(trace_bytes(&lanes), reference, "64 lanes vs one");
    assert_eq!(trace_bytes(&event), reference, "event-driven vs cycle");

    // The lane count does not change the clock discipline: same clocks
    // evaluated, same clocks skipped by the idle fast path — even with 63
    // extra (quiet) lanes in the bank.
    let cycle_counters = cycle_counters.expect("cycle follower publishes clock gauges");
    let lanes_counters = lanes_counters.expect("64 lanes publish clock gauges");
    assert_eq!(lanes_counters, cycle_counters, "evaluated/skipped drift");
    assert!(cycle_counters.1 > 0, "idle skipping never fired");
}

#[test]
fn gated_idle_skip_path_is_conformant_across_backends() {
    // Two bursts separated by a long quiet stretch: the cycle follower,
    // at one lane and at 8, must *skip* the gap (not evaluate it), the
    // event-driven follower parks its gated clock across it, and all
    // three still produce the same bytes.
    let mut stims = seeded_traffic(SEED ^ 0xD1E5);
    let gap = SimDuration::from_us(700);
    let n = stims.len();
    for (at, _) in &mut stims[n / 2..] {
        *at += gap;
    }
    let horizon = SimTime::from_ms(2);

    let (cycle, cycle_counters) = run_backend(&stims, horizon, |t| fresh_follower(t, 1));
    let (lanes, lanes_counters) = run_backend(&stims, horizon, |t| fresh_follower(t, 8));
    let (event, _) = run_backend(&stims, horizon, fresh_event_follower);

    assert_conforms(&stims, &cycle, "cycle-based (gated)");
    let reference = trace_bytes(&cycle);
    assert_eq!(trace_bytes(&lanes), reference, "8 lanes vs one");
    assert_eq!(trace_bytes(&event), reference, "event-driven vs cycle");

    let (cycle_eval, cycle_skip) = cycle_counters.expect("cycle clock gauges");
    assert_eq!(
        lanes_counters.expect("8-lane clock gauges"),
        (cycle_eval, cycle_skip),
        "gated-skip counter drift"
    );
    // The 700 us hole alone is 35 000 clocks — the fast path must have
    // swallowed it rather than ticking through it.
    assert!(cycle_skip > 30_000, "skipped only {cycle_skip} clocks");
    assert!(
        cycle_eval < cycle_skip / 4,
        "evaluated {cycle_eval} vs skipped {cycle_skip}: idle skip barely fired"
    );
}

#[test]
fn parallel_batching_never_changes_the_trace() {
    let stims = seeded_traffic(SEED ^ 0x5EED);
    let reference = trace_bytes(&run_conservative(&stims));
    for (window_us, depth) in [(5u64, 1usize), (20, 2), (100, 4), (500, 8)] {
        let trace = run_parallel(&stims, SimDuration::from_us(window_us), depth);
        assert_eq!(
            trace_bytes(&trace),
            reference,
            "window {window_us} us / depth {depth}"
        );
    }
}

#[test]
fn lockstep_quantum_never_changes_the_trace() {
    let stims = seeded_traffic(SEED ^ 0xA1A1);
    let reference = trace_bytes(&run_conservative(&stims));
    for quantum_ns in [250u64, 500, 1000] {
        let trace = run_lockstep(&stims, SimDuration::from_ns(quantum_ns));
        assert_eq!(trace_bytes(&trace), reference, "quantum {quantum_ns} ns");
    }
}

#[test]
fn adaptive_grant_widths_never_exceed_the_delta_bound() {
    // Property: for ANY observation sequence the adaptive controller's
    // window stays inside [floor, base + δ_j]. A width above the bound
    // would let the originator promise a grant horizon further ahead than
    // the synchronizer's lookahead covers — a protocol violation, not just
    // a tuning mistake — so this is checked over seeded random walks of
    // ring occupancies rather than a handful of fixed cases.
    let mut rng = SEED ^ 0xADA9;
    for _ in 0..64 {
        let base = SimDuration::from_picos(1 + rng_next(&mut rng) % 1_000_000);
        let headroom = SimDuration::from_picos(rng_next(&mut rng) % 1_000_000);
        let capacity = 2 + (rng_next(&mut rng) % 14) as usize;
        let mut win = AdaptiveWindow::new(base, headroom);
        assert_eq!(win.bound(), base + headroom);
        for step in 0..512 {
            let occupancy = (rng_next(&mut rng) % (capacity as u64 + 1)) as usize;
            let width = win.observe(occupancy, capacity);
            assert_eq!(width, win.current());
            assert!(
                width <= win.bound(),
                "step {step}: width {width:?} exceeded δ_j bound {:?} \
                 (base {base:?}, headroom {headroom:?})",
                win.bound()
            );
            assert!(
                width >= win.floor(),
                "step {step}: width {width:?} fell below floor {:?}",
                win.floor()
            );
        }
    }
}

#[test]
fn optimistic_rollbacks_preserve_the_trace() {
    // Swap adjacent events so every second submission is a straggler: the
    // Time-Warp discipline must roll back, replay and anti-message its way
    // to the exact trace the conservative executor produces.
    let stims = seeded_traffic(SEED ^ 0x0515);
    let mut shuffled: Vec<usize> = (0..stims.len()).collect();
    for pair in shuffled.chunks_mut(2) {
        pair.reverse();
    }
    let (trace, stats) = run_optimistic(&stims, &shuffled);
    assert!(stats.rollbacks > 0, "shuffle must actually cause rollbacks");
    assert!(
        stats.anti_messages > 0,
        "rollbacks must revoke sent outputs"
    );
    let reference = trace_bytes(&run_conservative(&stims));
    assert_eq!(trace_bytes(&trace), reference, "trace survives rollbacks");
}
