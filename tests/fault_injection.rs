//! Fault injection: a follower that fails mid-run must come back from every
//! executor as a typed error, or as a propagated panic, within bounded wall
//! time: never a hang and never a silently short trace.
//!
//! Every case runs on a helper thread and the test waits for its outcome
//! with a wall-clock bound, so a hang fails the test instead of stalling
//! the suite.

use castanet::coupling::{CoupledSimulator, Coupling};
use castanet::cyclecosim::{CycleCosim, EgressIndices, IngressIndices};
use castanet::interface::{response_packet, CastanetInterfaceProcess};
use castanet::message::{Message, MessageTypeId};
use castanet::sync::ConservativeSync;
use castanet::CastanetError;
use castanet_atm::addr::{HeaderFormat, VpiVci};
use castanet_atm::cell::AtmCell;
use castanet_netsim::event::PortId;
use castanet_netsim::kernel::Kernel;
use castanet_netsim::time::{SimDuration, SimTime};
use castanet_rtl::compiled::{LaneBank, LANES};
use castanet_rtl::cycle::{CycleDut, PortDecl};
use castanet_rtl::dut::{AtmSwitchRtl, SwitchRtlConfig};
use castanet_rtl::RtlError;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

/// Wall-clock bound on every faulted run.
const BOUND: Duration = Duration::from_secs(10);
const UNTIL: SimTime = SimTime::from_ms(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Site {
    Deliver,
    Advance,
}

/// `(stimulus cells, fault site, failing call)`. `deliver` and the
/// window's advances run only inside timing windows; with no stimulus the
/// first advance the follower sees is a drain chunk.
const CASES: [(u64, Site, u32); 3] = [
    (5, Site::Deliver, 3),
    (5, Site::Advance, 2),
    (0, Site::Advance, 1),
];

/// A follower that swallows stimulus, answers nothing, and fails at its
/// `nth` (1-based) call at `site`, and at every later one: with an error,
/// or with a panic.
struct Faulty {
    now: SimTime,
    site: Site,
    nth: u32,
    panic: bool,
}

impl Faulty {
    fn trip(&mut self, site: Site) -> Result<(), CastanetError> {
        if site == self.site {
            self.nth = self.nth.saturating_sub(1);
            if self.nth == 0 {
                assert!(!self.panic, "injected {site:?} panic");
                return Err(CastanetError::Transport(format!("injected {site:?} fault")));
            }
        }
        Ok(())
    }
}

impl CoupledSimulator for Faulty {
    fn deliver(&mut self, _msg: Message) -> Result<(), CastanetError> {
        self.trip(Site::Deliver)
    }

    fn advance_until(&mut self, horizon: SimTime) -> Result<Vec<Message>, CastanetError> {
        self.trip(Site::Advance)?;
        self.now = self.now.max(horizon);
        Ok(Vec::new())
    }

    fn now(&self) -> SimTime {
        self.now
    }
}

/// A network that feeds `cells` stimulus cells, 5 µs apart, to a
/// [`Faulty`] follower.
fn coupled(cells: u64, site: Site, nth: u32, panic: bool) -> Coupling<Faulty> {
    let follower = Faulty {
        now: SimTime::ZERO,
        site,
        nth,
        panic,
    };
    coupled_with(cells, follower)
}

/// A network that feeds `cells` stimulus cells, 5 µs apart, to `follower`.
fn coupled_with<F: CoupledSimulator>(cells: u64, follower: F) -> Coupling<F> {
    let mut net = Kernel::new(5);
    let node = net.add_node("faults");
    let mut sync = ConservativeSync::new();
    let cell_type = sync.register_type(SimDuration::from_ns(20) * 53);
    let (iface_proc, outbox) = CastanetInterfaceProcess::new(cell_type);
    let iface = net.add_module(node, "castanet", Box::new(iface_proc));
    for k in 1..=cells {
        let cell = AtmCell::user_data(VpiVci::uni(1, 40).unwrap(), [k as u8; 48]);
        let at = SimTime::ZERO + SimDuration::from_us(5 * k);
        net.inject_packet(iface, PortId(0), response_packet(cell), at)
            .unwrap();
    }
    Coupling::new(net, follower, sync, cell_type, iface, outbox)
}

/// Runs `f` on a helper thread, failing the test if it takes longer than
/// [`BOUND`]. The thread is not joined, so a hung run cannot hang the
/// test; a panic in `f` drops the sender and fails the receive.
fn bounded<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(BOUND)
        .expect("faulted run did not finish within the wall-clock bound")
}

fn assert_injected(result: &Result<(), CastanetError>, case: (u64, Site, u32)) {
    assert!(
        matches!(result, Err(CastanetError::Transport(m)) if m.starts_with("injected")),
        "{case:?}: expected the injected error, got {result:?}"
    );
}

#[test]
fn serial_coupling_returns_a_follower_error() {
    for (cells, site, nth) in CASES {
        let result = bounded(move || coupled(cells, site, nth, false).run(UNTIL).map(|_| ()));
        assert_injected(&result, (cells, site, nth));
    }
}

#[test]
fn parallel_coupling_returns_a_follower_error_in_both_phases() {
    for (cells, site, nth) in CASES {
        let result = bounded(move || {
            let mut coupling = coupled(cells, site, nth, false)
                .into_parallel()
                .with_batching(SimDuration::from_us(5), 1);
            coupling.run(UNTIL).map(|_| ())
        });
        assert_injected(&result, (cells, site, nth));
    }
}

#[test]
fn parallel_coupling_propagates_a_follower_panic() {
    for (cells, site, nth) in CASES {
        let panicked = bounded(move || {
            let mut coupling = coupled(cells, site, nth, true).into_parallel();
            catch_unwind(AssertUnwindSafe(|| coupling.run(UNTIL))).is_err()
        });
        assert!(panicked, "{cells} cells, {site:?} #{nth}: panic swallowed");
    }
}

/// The lane of the 64-lane bank whose DUT panics: far from lane 0, so on
/// a host with more than one core it runs on a worker thread.
const PANIC_LANE: usize = 40;
/// The clock edge (1-based) at which [`PANIC_LANE`]'s DUT panics.
const PANIC_EDGE: u32 = 60;

/// A 2-port switch that routes VPI/VCI 1/40 to line 1.
fn routed_switch() -> AtmSwitchRtl {
    let mut switch = AtmSwitchRtl::new(SwitchRtlConfig {
        ports: 2,
        fifo_capacity: 16,
        table_capacity: 8,
    });
    assert!(switch.install_route(1, 40, 1, 1, 41));
    switch
}

/// A routed switch with two injectable faults. With `fuse` set it panics
/// at that clock edge. With `narrow` it declares line 1's enable pin
/// (`rx_en1`, input 5) zero bits wide: `PortDecl`'s fields are public, so
/// a DUT can declare a width `PortDecl::new` refuses; registration checks
/// pin indices and the data pin's width only, so the line registers, and
/// the first clock that raises the strobe fails the width check.
struct Fused {
    switch: AtmSwitchRtl,
    fuse: Option<u32>,
    narrow: bool,
}

impl CycleDut for Fused {
    fn input_ports(&self) -> Vec<PortDecl> {
        let mut ports = self.switch.input_ports();
        if self.narrow {
            ports[5].width = 0;
        }
        ports
    }
    fn output_ports(&self) -> Vec<PortDecl> {
        self.switch.output_ports()
    }
    fn reset(&mut self) {
        self.switch.reset();
    }
    fn clock_edge(&mut self, inputs: &[u64], outputs: &mut [u64]) {
        if let Some(left) = &mut self.fuse {
            *left -= 1;
            assert!(*left > 0, "injected lane panic at edge {PANIC_EDGE}");
        }
        self.switch.clock_edge(inputs, outputs);
    }
    fn is_idle(&self) -> bool {
        self.switch.is_idle()
    }
}

/// A 64-lane follower over `dut(lane)` with both lines registered and one
/// cell seeded at 5 µs on each `(lane, line)` of `seeds`.
fn lanes_of(dut: impl Fn(usize) -> Box<dyn CycleDut>, seeds: &[(usize, usize)]) -> CycleCosim {
    let mut follower = CycleCosim::new(
        LaneBank::new((0..LANES).map(dut).collect()),
        SimDuration::from_ns(20),
        MessageTypeId(9),
        HeaderFormat::Uni,
    );
    for line in 0..2 {
        follower
            .add_ingress(IngressIndices {
                data: 3 * line,
                sync: 3 * line + 1,
                enable: 3 * line + 2,
            })
            .unwrap();
        follower
            .add_egress(EgressIndices {
                data: 3 * line,
                sync: 3 * line + 1,
                valid: 3 * line + 2,
            })
            .unwrap();
    }
    let cell = AtmCell::user_data(VpiVci::uni(1, 40).unwrap(), [7; 48]);
    for &(lane, line) in seeds {
        follower
            .seed_cell(lane, line, SimTime::from_us(5), &cell)
            .unwrap();
    }
    follower
}

/// A 64-lane follower whose [`PANIC_LANE`] panics at its [`PANIC_EDGE`]th
/// edge. Lane 0 and the panicking lane each carry a cell seeded at 5 µs,
/// so both have work in the same window.
fn fused_lanes() -> CycleCosim {
    lanes_of(
        |lane| {
            let fuse = (lane == PANIC_LANE).then_some(PANIC_EDGE);
            Box::new(Fused {
                switch: routed_switch(),
                fuse,
                narrow: false,
            })
        },
        &[(0, 0), (PANIC_LANE, 0)],
    )
}

/// The message a formatted panic was raised with.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default()
}

fn assert_lane_panic(message: &str) {
    assert_eq!(message, format!("injected lane panic at edge {PANIC_EDGE}"));
}

#[test]
fn compiled_follower_reraises_a_lane_panic_with_its_message() {
    let message = bounded(|| {
        let mut follower = fused_lanes();
        let panic = catch_unwind(AssertUnwindSafe(|| {
            follower.advance_batch(SimTime::from_us(20))
        }))
        .expect_err("the lane's panic reaches the caller");
        panic_message(panic.as_ref())
    });
    assert_lane_panic(&message);
}

#[test]
fn parallel_coupling_propagates_a_compiled_lane_panic() {
    let message = bounded(|| {
        let mut coupling = coupled_with(5, fused_lanes()).into_parallel();
        let panic =
            catch_unwind(AssertUnwindSafe(|| coupling.run(UNTIL))).expect_err("panic swallowed");
        panic_message(panic.as_ref())
    });
    assert_lane_panic(&message);
}

#[test]
fn a_lane_width_error_is_a_typed_error_on_both_executors() {
    // Only `PANIC_LANE` raises line 1's zero-width strobe: lane 0 carries
    // the network's cells on line 0. Under the parallel executor that lane
    // runs on a worker thread on any host with more than one core.
    for parallel in [false, true] {
        let result = bounded(move || {
            let narrow = |_| -> Box<dyn CycleDut> {
                Box::new(Fused {
                    switch: routed_switch(),
                    fuse: None,
                    narrow: true,
                })
            };
            let follower = lanes_of(narrow, &[(PANIC_LANE, 1)]);
            let coupling = coupled_with(5, follower);
            if parallel {
                coupling.into_parallel().run(UNTIL).map(|_| ())
            } else {
                let mut coupling = coupling;
                coupling.run(UNTIL).map(|_| ())
            }
        });
        assert!(
            matches!(
                result,
                Err(CastanetError::Rtl(RtlError::WidthMismatch {
                    expected: 0,
                    got: 1
                }))
            ),
            "parallel {parallel}: {result:?}"
        );
    }
}
