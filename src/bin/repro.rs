//! Experiment driver: regenerates every quantitative artefact of the paper.
//!
//! `cargo run --release --bin repro [e1|e2|e3|e4|e5|e6|e7|all] [--full]`
//!
//! Each experiment prints a paper-vs-measured block; `EXPERIMENTS.md`
//! records a reference run. `--full` uses the paper's full workload sizes
//! (e.g. 10 000 cells for E1); the default is a quick pass.

use castanet::convert::time_scale_ratio;
use castanet::coupling::CoupledSimulator;
use castanet::message::{Message, MessageTypeId};
use castanet::sync::conservative::ConservativeSync;
use castanet::sync::lockstep::LockstepSync;
use castanet::sync::optimistic::{OptimisticSync, TimedEvent};
use castanet::verify::{clocks_in, timed};
use castanet_atm::addr::{HeaderFormat, VpiVci};
use castanet_atm::cell::AtmCell;
use castanet_netsim::time::{SimDuration, SimTime};
use coverify::scenarios::{
    accounting_cosim, compare_switch_output, pure_rtl_clocks, switch_cosim, switch_cosim_cycle,
    switch_on_board, switch_pure_rtl, timing_fault_on_board, AccountingScenarioConfig,
    SwitchScenarioConfig,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let which: Vec<&str> = args
        .iter()
        .filter(|a| a.as_str() != "--full")
        .map(String::as_str)
        .collect();
    let all = which.is_empty() || which.contains(&"all");
    let want = |name: &str| all || which.contains(&name);

    println!(
        "CASTANET reproduction driver ({} workloads)\n",
        if full { "full" } else { "quick" }
    );
    preflight();
    if want("e1") {
        e1_throughput(full);
    }
    if want("e2") {
        e2_synchronization(full);
    }
    if want("e3") {
        e3_interface();
    }
    if want("e4") {
        e4_pinmap();
    }
    if want("e5") {
        e5_board(full);
    }
    if want("e6") {
        e6_accounting(full);
    }
    if want("e7") {
        e7_engines(full);
    }
}

/// Fail-fast pre-flight: lints the scenario assemblies before spending any
/// wall-clock on the experiments (`castanet-lint` run equivalent).
fn preflight() {
    let mut diags = castanet_lint::check_coupling(
        &switch_cosim(SwitchScenarioConfig {
            cells_per_source: 1,
            ..Default::default()
        })
        .coupling,
    );
    diags.extend(castanet_lint::check_coupling(
        &accounting_cosim(AccountingScenarioConfig {
            cells_per_conn: 1,
            ..Default::default()
        })
        .coupling,
    ));
    if diags.is_empty() {
        println!("pre-flight: scenario configurations lint clean\n");
    } else {
        print!("{}", castanet_lint::render_human(&diags));
        assert!(
            !castanet_lint::has_errors(&diags),
            "pre-flight static analysis rejected the scenario configurations"
        );
    }
}

// ---------------------------------------------------------------------
// E1: §2 in-text throughput numbers
// ---------------------------------------------------------------------

fn e1_throughput(full: bool) {
    println!("== E1: co-simulation throughput vs pure-RTL test bench (paper §2) ==");
    println!("   paper: 10 000 cells, 4-port switch + GCU; co-sim ~1300 cyc/s vs RTL ~300 cyc/s (~4.3x)\n");
    let config = SwitchScenarioConfig {
        cells_per_source: if full { 2_500 } else { 250 },
        ..SwitchScenarioConfig::default()
    };
    println!(
        "   workload: {} cells, {}-port switch",
        config.total_cells(),
        config.ports
    );

    let scenario = switch_cosim(config);
    let mut coupling = scenario.coupling;
    let (r, wall) = timed(|| coupling.run(SimTime::from_secs(10)));
    r.expect("co-simulation failed");
    let report = compare_switch_output(&scenario.config, &scenario.collectors);
    assert!(report.passed(), "E1 co-sim mismatch:\n{report}");
    let ev_clocks = clocks_in(coupling.follower().now(), config.clock_period);
    let ev_rate = ev_clocks as f64 / wall.as_secs_f64();
    println!(
        "   co-simulation (event-driven) : {ev_clocks} clocks, {:.3} s, {ev_rate:.0} cyc/s",
        wall.as_secs_f64()
    );

    let mut tb = switch_pure_rtl(config);
    let clocks = pure_rtl_clocks(&config);
    let (r, wall) = timed(|| tb.run_clocks(clocks));
    r.expect("pure-RTL bench failed");
    let rtl_rate = clocks as f64 / wall.as_secs_f64();
    println!(
        "   pure-RTL regression bench    : {clocks} clocks, {:.3} s, {rtl_rate:.0} cyc/s",
        wall.as_secs_f64()
    );

    let scenario = switch_cosim_cycle(config);
    let mut cy = scenario.coupling;
    let (r, wall) = timed(|| cy.run(SimTime::from_secs(10)));
    r.expect("cycle-based co-simulation failed");
    let report = compare_switch_output(&scenario.config, &scenario.collectors);
    assert!(report.passed(), "E1 cycle-based mismatch:\n{report}");
    let cy_clocks = cy.follower().clocks_evaluated() + cy.follower().clocks_skipped();
    let cy_rate = cy_clocks as f64 / wall.as_secs_f64();
    println!(
        "   co-simulation (cycle-based)  : {cy_clocks} clocks, {:.3} s, {cy_rate:.0} cyc/s",
        wall.as_secs_f64()
    );

    println!(
        "   measured: co-sim/pure-RTL = {:.1}x (paper ~4.3x); cycle-based = {:.0}x",
        ev_rate / rtl_rate,
        cy_rate / rtl_rate
    );
    println!("   shape: co-simulation wins, as the paper reports; see EXPERIMENTS.md for the magnitude discussion.\n");
}

// ---------------------------------------------------------------------
// E2: §3.1 / Fig. 3 — synchronization protocols
// ---------------------------------------------------------------------

fn e2_synchronization(full: bool) {
    println!(
        "== E2: conservative vs optimistic vs lockstep synchronization (paper §3.1, Fig. 3) =="
    );
    println!(
        "   paper: conservative timing windows chosen; optimism rejected for its memory cost\n"
    );
    let n: u64 = if full { 200_000 } else { 20_000 };

    // Conservative: run a random message schedule; no causality errors by
    // construction, bounded state (the queues).
    let mut sync = ConservativeSync::new();
    let types: Vec<_> = (0..4)
        .map(|i| sync.register_type(SimDuration::from_us(1 + i)))
        .collect();
    let mut x: u64 = 0xDEAD_BEEF;
    let mut stamps = [SimTime::ZERO; 4];
    let mut originator = SimTime::ZERO;
    let mut prev_grant = SimTime::ZERO;
    let ((), wall) = timed(|| {
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x % 4) as usize;
            originator += SimDuration::from_ns(x % 700);
            stamps[j] = stamps[j].max(originator);
            sync.receive(types[j], stamps[j], x.is_multiple_of(4))
                .expect("conservative protocol");
            // The follower catches up to the *previous* grant: the realistic
            // one-message lag of the protocol.
            sync.advance_local(prev_grant).expect("lag invariant");
            prev_grant = sync.originator_time();
            while sync.pop_ready(types[j]).is_some() {}
        }
    });
    println!(
        "   conservative: {n} messages in {:.3} s; max lag {}, 0 causality errors, O(queues) memory",
        wall.as_secs_f64(),
        sync.stats().max_lag
    );

    // Optimistic: same volume with out-of-order arrivals; measure rollbacks
    // and the checkpoint high-water mark.
    let mut tw = OptimisticSync::new(
        0u64,
        |s: &mut u64, e: &u64| {
            *s = s.wrapping_add(*e);
            vec![*s]
        },
        usize::MAX >> 1,
    );
    let mut y: u64 = 0x1234_5678;
    let ((), wall) = timed(|| {
        let mut t_base = 0u64;
        for i in 0..n {
            y ^= y << 13;
            y ^= y >> 7;
            y ^= y << 17;
            t_base += 500;
            // 25% stragglers: stamped up to 2 us in the past.
            let stamp = if y.is_multiple_of(4) {
                t_base.saturating_sub(2_000)
            } else {
                t_base
            };
            tw.execute(TimedEvent {
                stamp: SimTime::from_ns(stamp),
                seq: i,
                event: 1,
            })
            .expect("optimistic execution");
            if i % 64 == 0 {
                tw.set_gvt(SimTime::from_ns(t_base.saturating_sub(4_000)));
            }
        }
    });
    let st = tw.stats();
    println!(
        "   optimistic  : {n} events in {:.3} s; {} rollbacks, {} replays, {} anti-messages, peak {} checkpoints ({} KiB)",
        wall.as_secs_f64(),
        st.rollbacks,
        st.replayed,
        st.anti_messages,
        st.peak_checkpoints,
        st.peak_checkpoint_bytes / 1024
    );

    // Lockstep: its synchronization cost is one round per quantum of
    // simulated time regardless of traffic, while the conservative
    // protocol's messages scale with the traffic. A sparse stream (one
    // cell per 50 us) makes the difference visible.
    let ls = LockstepSync::new(SimDuration::from_us(1)); // quantum = min delta for safety
    let rounds = ls.rounds_to_reach(originator);
    let sparse_msgs = originator.as_picos() / SimDuration::from_us(50).as_picos().max(1) * 2;
    println!(
        "   lockstep    : {} rounds to cover {} at quantum {} — vs ~{} conservative messages for a sparse stream ({}x overhead)\n",
        rounds,
        originator,
        ls.quantum(),
        sparse_msgs,
        rounds / sparse_msgs.max(1)
    );
}

// ---------------------------------------------------------------------
// E3: §3.2 / Fig. 4 — abstraction interfaces
// ---------------------------------------------------------------------

fn e3_interface() {
    println!("== E3: abstraction interface (paper §3.2, Fig. 4) ==");
    println!("   paper: one cell = 53 octets = 53 clocks on an 8-bit port; OPNET:VSS step ratio ~1:400\n");
    let cell = AtmCell::user_data(VpiVci::uni(1, 42).expect("static id"), [0x5A; 48]);
    let ops = castanet::convert::cell_to_byte_ops(&cell, HeaderFormat::Uni).expect("convert");
    println!(
        "   measured: cell maps to {} byte ops, cellsync on op 0: {}",
        ops.len(),
        ops[0].sync
    );

    // The paper's clocks: 2.726 us cell time vs early-90s ASIC clocks.
    for (clk_ns, label) in [
        (7u64, "~140 MHz (paper-era ratio 1:400)"),
        (20, "50 MHz (this repo's default)"),
    ] {
        let ratio = time_scale_ratio(SimDuration::from_ns(2726), SimDuration::from_ns(clk_ns));
        println!("   time-scale ratio at {clk_ns} ns clock: 1:{ratio:.0}  [{label}]");
    }

    // Event-count ratio: network events per cell vs RTL events per cell.
    let config = SwitchScenarioConfig {
        cells_per_source: 50,
        mixed_traffic: false,
        ..SwitchScenarioConfig::default()
    };
    let scenario = switch_cosim(config);
    let mut coupling = scenario.coupling;
    coupling.run(SimTime::from_secs(1)).expect("run");
    let net_events = coupling.stats().net_events;
    let rtl_events = coupling.follower().sim().counters().events;
    println!(
        "   events per cell: network {} vs RTL {} -> 1:{:.0} (the granularity gap the interface bridges)\n",
        net_events / config.total_cells(),
        rtl_events / config.total_cells(),
        rtl_events as f64 / net_events as f64
    );
}

// ---------------------------------------------------------------------
// E4: §3.3 / Fig. 5 — pin-mapping configuration data set
// ---------------------------------------------------------------------

fn e4_pinmap() {
    use castanet_testboard::pinmap::{PinFrame, PinMapConfig};
    println!("== E4: pin-mapping configuration data set (paper §3.3, Fig. 5) ==");
    println!(
        "   paper: byte lane ID / start bit / number of bits establish in/out/io/ctrl mappings\n"
    );
    let (cfg, lanes) = PinMapConfig::fig5_example();
    cfg.validate(&lanes).expect("fig. 5 data set validates");
    println!(
        "   fig. 5 example: {} inports, {} outports, {} io ports, {} ctrl ports — validates",
        cfg.inports.len(),
        cfg.outports.len(),
        cfg.ioports.len(),
        cfg.ctrlports.len()
    );
    let mut frame: PinFrame = [0; 16];
    cfg.encode_inport(1, 0b10_1011, &mut frame).expect("encode");
    cfg.encode_inport(3, 0xABC, &mut frame).expect("encode");
    frame[7] = 0b11; // DUT asserts the write flag
    println!(
        "   roundtrip: inport1=0b101011 -> lane2={:#010b}; io port 2 direction = {}",
        frame[2],
        if cfg.io_is_write(2, &frame).expect("io") {
            "DUT writes"
        } else {
            "board drives"
        }
    );
    // Error detection.
    let mut bad = cfg.clone();
    bad.inports[0].width = 7;
    let verdict = bad.validate(&lanes).expect_err("must reject");
    println!("   misconfiguration detected: {verdict}\n");
}

// ---------------------------------------------------------------------
// E5: §3.3 — hardware test cycles
// ---------------------------------------------------------------------

fn e5_board(full: bool) {
    println!("== E5: hardware-in-the-loop test cycles (paper §3.3) ==");
    println!("   paper: SW/HW/SW activity cycles; durations within a memory-bounded window; real-time execution\n");
    println!(
        "   {:>10} {:>10} {:>14} {:>14} {:>12}",
        "cycle len", "cycles", "hw time", "sw time", "efficiency"
    );
    let lens: &[u64] = if full {
        &[16, 64, 256, 1024, 4096, 16384]
    } else {
        &[16, 256, 4096]
    };
    for &len in lens {
        let mut cosim =
            switch_on_board(len, MessageTypeId(1)).expect("cycle length fits the board");
        for k in 0..8u64 {
            let cell = AtmCell::user_data(VpiVci::uni(1, 40).expect("id"), [k as u8; 48]);
            cosim
                .deliver(Message::cell(SimTime::ZERO, MessageTypeId(0), 0, cell))
                .expect("deliver");
        }
        let mut got = 0;
        while got < 8 {
            let r = cosim.advance_until(SimTime::from_ms(10)).expect("advance");
            if r.is_empty() {
                break;
            }
            got += r.len();
        }
        let s = cosim.session_stats();
        println!(
            "   {:>10} {:>10} {:>14?} {:>14?} {:>11.1}%",
            len,
            s.cycles,
            s.hw_time,
            s.sw_time,
            s.efficiency() * 100.0
        );
    }
    println!("   shape: longer hardware cycles amortize the SCSI software phases — the board's design rationale.");

    let [rated, overclocked] =
        [10_000_000, 20_000_000].map(|hz| timing_fault_on_board(hz, 8).expect("board session"));
    println!(
        "   timing faults: of 8 cells, {} clean at rated 10 MHz; {} lost and {} corrupted at 20 MHz — only real-time runs expose them\n",
        rated.clean, overclocked.lost, overclocked.corrupted
    );
    assert_eq!(rated.clean, 8, "the rated clock delivers every cell");
    assert_eq!(rated.corrupted, 0);
    assert!(overclocked.corrupted > 0);
}

// ---------------------------------------------------------------------
// E6: §4 — the accounting-unit case study
// ---------------------------------------------------------------------

fn e6_accounting(full: bool) {
    println!("== E6: functional verification of an ATM accounting unit (paper §4) ==");
    println!("   paper: CASTANET used to verify an accounting unit against its reference model\n");
    let config = AccountingScenarioConfig {
        cells_per_conn: if full { 500 } else { 100 },
        ..AccountingScenarioConfig::default()
    };
    let mut scenario = accounting_cosim(config);
    let horizon = scenario.horizon();
    scenario.coupling.run(horizon).expect("run");
    let reference = scenario.reference();
    let conns: Vec<VpiVci> = scenario.config.connections.iter().map(|c| c.0).collect();
    let mut all_ok = true;
    for conn in &conns {
        let (cells, charge) = scenario.read_rtl_record(*conn).expect("registered");
        let rec = reference.record(*conn).expect("registered");
        let ok = cells == rec.cells && charge == rec.charge;
        all_ok &= ok;
        println!(
            "   {conn}: RTL {cells} cells / {charge} units vs reference {} / {} -> {}",
            rec.cells,
            rec.charge,
            if ok { "match" } else { "MISMATCH" }
        );
    }
    assert!(all_ok);

    // Seeded-fault detection: a wrong reference tariff must be caught.
    let mut faulty = accounting_cosim(AccountingScenarioConfig {
        cells_per_conn: 50,
        connections: vec![(VpiVci::uni(1, 40).expect("id"), 2, 50)],
        ..AccountingScenarioConfig::default()
    });
    let horizon = faulty.horizon();
    faulty.coupling.run(horizon).expect("run");
    let (_, charge) = faulty
        .read_rtl_record(VpiVci::uni(1, 40).expect("id"))
        .expect("registered");
    let mut wrong_reference = castanet_atm::accounting::AccountingUnit::new();
    wrong_reference
        .register(
            VpiVci::uni(1, 40).expect("id"),
            castanet_atm::accounting::Tariff {
                weight: 3,
                fixed: 50,
            },
        )
        .expect("register");
    for _ in 0..50 {
        wrong_reference.on_cell(VpiVci::uni(1, 40).expect("id"));
    }
    let wrong = wrong_reference
        .record(VpiVci::uni(1, 40).expect("id"))
        .expect("record");
    assert_ne!(
        charge, wrong.charge,
        "a tariff bug must be visible in the records"
    );
    println!(
        "   seeded tariff discrepancy detected (RTL {charge} vs faulty-reference {})\n",
        wrong.charge
    );
}

// ---------------------------------------------------------------------
// E7: §5 — event-driven vs cycle-based engines
// ---------------------------------------------------------------------

fn e7_engines(full: bool) {
    println!("== E7: event-driven HDL simulation is the bottleneck (paper §5) ==");
    println!(
        "   paper: RTL event counts an order of magnitude above system level; cycle-based needed\n"
    );
    let config = SwitchScenarioConfig {
        cells_per_source: if full { 500 } else { 100 },
        mixed_traffic: false,
        ..SwitchScenarioConfig::default()
    };

    let scenario = switch_cosim(config);
    let mut coupling = scenario.coupling;
    let (r, ev_wall) = timed(|| coupling.run(SimTime::from_secs(10)));
    r.expect("run");
    let c = coupling.follower().sim().counters();
    let net_events = coupling.stats().net_events;
    println!(
        "   event-driven engine: {} signal events, {} delta cycles, {} process runs ({:.3} s)",
        c.events,
        c.delta_cycles,
        c.process_runs,
        ev_wall.as_secs_f64()
    );

    let scenario = switch_cosim_cycle(config);
    let mut cy = scenario.coupling;
    let (r, cy_wall) = timed(|| cy.run(SimTime::from_secs(10)));
    r.expect("run");
    println!(
        "   cycle-based engine : {} clock evaluations, {} skipped ({:.3} s)",
        cy.follower().clocks_evaluated(),
        cy.follower().clocks_skipped(),
        cy_wall.as_secs_f64()
    );
    println!(
        "   event ratio RTL:system = {:.0}:1 (paper: \"an order of magnitude higher\"); cycle-based speedup {:.0}x\n",
        c.events as f64 / net_events as f64,
        ev_wall.as_secs_f64() / cy_wall.as_secs_f64()
    );
}
