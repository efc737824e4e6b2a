//! Hardware in the simulation loop (§3.3): the test board, test cycles and
//! the timing faults only real-time verification catches.
//!
//! Part 1 runs cells through a "prototype chip" (the RTL switch's
//! data-path subset) mounted on the test board, showing the SW/HW activity
//! split of the test cycle. Part 2 puts a timing-marginal chip on the board
//! follower, clocked above its rated frequency: the functional content is identical, but
//! at real-time speed the setup-time failures corrupt cells — "as long as
//! one does not run the hardware at the targeted speed its behaviour can
//! not be fully verified".
//!
//! Run with: `cargo run --example hardware_in_loop`

use castanet::coupling::CoupledSimulator;
use castanet::message::{Message, MessageTypeId};
use castanet_atm::addr::VpiVci;
use castanet_atm::cell::AtmCell;
use castanet_netsim::time::SimTime;
use coverify::scenarios::{switch_on_board, timing_fault_on_board};

fn main() {
    part1_functional_chip_verification();
    part2_timing_fault_detection();
}

fn part1_functional_chip_verification() {
    println!("== functional chip verification on the test board ==");
    let mut cosim = switch_on_board(512, MessageTypeId(1)).expect("cycle length fits the board");
    for k in 0..8u64 {
        let cell = AtmCell::user_data(VpiVci::uni(1, 40).expect("static id"), [k as u8; 48]);
        cosim
            .deliver(Message::cell(SimTime::ZERO, MessageTypeId(0), 0, cell))
            .expect("stimulus delivery failed");
    }
    let responses = cosim
        .advance_until(SimTime::from_ms(1))
        .expect("board session failed");
    println!(
        "  {} cells in, {} cells back (translated to VPI=7/VCI=70)",
        8,
        responses.len()
    );
    let s = cosim.session_stats();
    println!(
        "  test cycles: {} | hw time {:?} | sw (SCSI) time {:?} | efficiency {:.1}%",
        s.cycles,
        s.hw_time,
        s.sw_time,
        s.efficiency() * 100.0
    );
    for r in responses.iter().take(2) {
        println!(
            "  response: {} at {}",
            r.as_cell()
                .map(std::string::ToString::to_string)
                .unwrap_or_default(),
            r.stamp
        );
    }
    println!();
}

fn part2_timing_fault_detection() {
    println!("== real-time verification catches timing violations ==");
    const CELLS: u64 = 4;
    let clean = [
        (10_000_000u64, "within spec (10 MHz)"),
        (20_000_000, "overclocked (20 MHz)"),
    ]
    .map(|(clock_hz, label)| {
        let outcome = timing_fault_on_board(clock_hz, CELLS).expect("board session failed");
        println!(
            "  {label}: {} clean cells, {} lost, {} corrupted outputs",
            outcome.clean, outcome.lost, outcome.corrupted
        );
        outcome.clean
    });
    assert_eq!(clean[0], CELLS, "the rated clock delivers every cell");
    assert!(clean[1] < clean[0], "overclocking must lose cells");
    println!("\n  -> the same netlist passes at 10 MHz and fails at 20 MHz;");
    println!("     only running at target speed exposes it.");
}
