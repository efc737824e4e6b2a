//! Fault injection: a follower that fails mid-run must come back from every
//! executor as a typed error, or as a propagated panic, within bounded wall
//! time: never a hang and never a silently short trace.
//!
//! Every case runs on a helper thread and the test waits for its outcome
//! with a wall-clock bound, so a hang fails the test instead of stalling
//! the suite.

use castanet::coupling::{CoupledSimulator, Coupling};
use castanet::interface::{response_packet, CastanetInterfaceProcess};
use castanet::message::Message;
use castanet::sync::ConservativeSync;
use castanet::CastanetError;
use castanet_atm::addr::VpiVci;
use castanet_atm::cell::AtmCell;
use castanet_netsim::event::PortId;
use castanet_netsim::kernel::Kernel;
use castanet_netsim::time::{SimDuration, SimTime};
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
    let follower = Faulty {
        now: SimTime::ZERO,
        site,
        nth,
        panic,
    };
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
