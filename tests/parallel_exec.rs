//! Concurrency checks for the parallel coupled-engine executor.
//!
//! The crate set deliberately carries no loom/shuttle dependency, so the
//! window/grant channel handshake is verified two ways instead:
//!
//! 1. an *exhaustive interleaving model check*: the handshake is restated
//!    as a small explicit-state transition system (bounded command ring,
//!    bounded reply ring with the executor's `depth + 2` headroom,
//!    originator barrier, drain round) and a DFS enumerates every
//!    reachable interleaving, asserting the protocol invariants in each
//!    state — deadlock freedom, both ring bounds, and the follower never
//!    running past its granted horizon;
//! 2. a *stress + determinism* pass over the real executor: maximum
//!    backpressure (depth 1, tiny windows) and repeated runs that must
//!    produce bit-identical traces.

use castanet::coupling::Coupling;
use castanet::cyclecosim::{CycleCosim, EgressIndices, IngressIndices};
use castanet::interface::{response_packet, CastanetInterfaceProcess};
use castanet::sync::ConservativeSync;
use castanet::Telemetry;
use castanet_atm::addr::{HeaderFormat, VpiVci};
use castanet_atm::cell::AtmCell;
use castanet_netsim::event::PortId;
use castanet_netsim::kernel::Kernel;
use castanet_netsim::process::{CollectorHandle, CollectorProcess};
use castanet_netsim::time::{SimDuration, SimTime};
use castanet_obs::EventKind;
use castanet_rtl::compiled::LaneBank;
use castanet_rtl::dut::{AtmSwitchRtl, SwitchRtlConfig};
use std::collections::HashSet;
use std::collections::VecDeque;

// ---------------------------------------------------------------------
// Part 1: exhaustive interleaving model check of the handshake
// ---------------------------------------------------------------------

/// Abstract model of one `ParallelCoupling::run`: the originator streams
/// `windows` grant messages through a command channel of capacity `cap`,
/// absorbs replies, barriers until everything in flight is answered, then
/// exchanges one drain round. Times are abstracted to window indices: the
/// grant of window `k` is `k + 1`.
#[derive(Clone, PartialEq, Eq, Hash)]
struct ModelState {
    /// Windows not yet sent by the originator.
    to_send: u8,
    /// Commands in the bounded channel (grant values; `DRAIN` sentinel).
    cmd: VecDeque<u8>,
    /// Replies in the bounded reply ring (`REPLY` or `DRAIN_DONE`).
    rep: VecDeque<u8>,
    /// Originator bookkeeping: windows sent but not yet answered.
    in_flight: u8,
    /// `true` once the originator has issued the drain command.
    drain_sent: bool,
    /// `true` once the originator has seen `DRAIN_DONE`.
    done: bool,
    /// Follower's local clock (largest grant it acted on).
    local: u8,
    /// Largest grant the originator has shipped.
    promised: u8,
}

const DRAIN: u8 = 0xFE;
const REPLY: u8 = 0x01;
const DRAIN_DONE: u8 = 0xFF;

impl ModelState {
    fn initial(windows: u8) -> Self {
        ModelState {
            to_send: windows,
            cmd: VecDeque::new(),
            rep: VecDeque::new(),
            in_flight: 0,
            drain_sent: false,
            done: false,
            local: 0,
            promised: 0,
        }
    }

    fn terminal(&self) -> bool {
        self.done
    }

    /// All states reachable in one atomic step, each tagged with the actor.
    fn successors(&self, cap: usize, rep_cap: usize, windows: u8) -> Vec<ModelState> {
        let mut next = Vec::new();
        // Originator: send the next window — enabled only while the
        // channel has room (sync_channel backpressure).
        if self.to_send > 0 && self.cmd.len() < cap {
            let mut s = self.clone();
            let grant = windows - s.to_send + 1;
            s.to_send -= 1;
            s.cmd.push_back(grant);
            s.in_flight += 1;
            s.promised = s.promised.max(grant);
            next.push(s);
        }
        // Originator: absorb one reply. In the real loop this happens both
        // opportunistically (try_recv) and at the barrier (recv), which the
        // model covers by simply allowing it whenever a reply exists.
        if let Some(&r) = self.rep.front() {
            let mut s = self.clone();
            s.rep.pop_front();
            match r {
                REPLY => s.in_flight -= 1,
                DRAIN_DONE => s.done = true,
                _ => unreachable!("unknown reply"),
            }
            next.push(s);
        }
        // Originator: issue the drain — only past the barrier (everything
        // sent and answered), exactly once.
        if self.to_send == 0 && self.in_flight == 0 && !self.drain_sent && self.cmd.len() < cap {
            let mut s = self.clone();
            s.drain_sent = true;
            s.cmd.push_back(DRAIN);
            next.push(s);
        }
        // Follower: process one command — enabled only while the reply
        // ring has a free slot (the executor's follower spins on
        // `try_push_with` when it is full).
        if self.rep.len() < rep_cap {
            if let Some(&c) = self.cmd.front() {
                let mut s = self.clone();
                s.cmd.pop_front();
                if c == DRAIN {
                    s.rep.push_back(DRAIN_DONE);
                } else {
                    s.local = s.local.max(c);
                    s.rep.push_back(REPLY);
                }
                next.push(s);
            }
        }
        next
    }
}

fn model_check(windows: u8, cap: usize) {
    // The executor sizes the reply ring at `depth + 2`: one reply per
    // in-flight window plus headroom for DrainDone/Fatal.
    let rep_cap = cap + 2;
    let mut visited: HashSet<ModelState> = HashSet::new();
    let mut stack = vec![ModelState::initial(windows)];
    let mut terminals = 0u64;
    while let Some(state) = stack.pop() {
        if !visited.insert(state.clone()) {
            continue;
        }
        // Invariant 1: neither ring ever overflows its capacity.
        assert!(
            state.cmd.len() <= cap,
            "command ring overflow ({windows} windows, cap {cap})"
        );
        assert!(
            state.rep.len() <= rep_cap,
            "reply ring overflow ({windows} windows, rep cap {rep_cap})"
        );
        // Invariant 2: the follower never runs past what was promised.
        assert!(
            state.local <= state.promised,
            "follower overran its grant ({} > {})",
            state.local,
            state.promised
        );
        let succ = state.successors(cap, rep_cap, windows);
        if succ.is_empty() {
            // Invariant 3: the only state with no enabled transition is
            // the fully completed run — anything else is a deadlock.
            assert!(
                state.terminal(),
                "deadlock: to_send={} in_flight={} drain_sent={} \
                 cmd={:?} rep={:?} ({} windows, cap {cap})",
                state.to_send,
                state.in_flight,
                state.drain_sent,
                state.cmd,
                state.rep,
                windows
            );
            // Invariant 4: completion implies every window was granted
            // and acknowledged.
            assert_eq!(state.to_send, 0);
            assert_eq!(state.in_flight, 0);
            assert_eq!(state.local, windows, "a window was lost");
            terminals += 1;
        } else {
            stack.extend(succ);
        }
    }
    assert_eq!(terminals, 1, "all interleavings converge to one outcome");
    assert!(
        visited.len() > usize::from(windows),
        "DFS degenerated to a single path"
    );
}

#[test]
fn handshake_model_check_is_deadlock_free_for_all_interleavings() {
    // Every (window count, channel depth) pair is checked exhaustively;
    // depth 1 maximizes backpressure, window counts above the depth force
    // the send path to block mid-stream.
    for windows in 1..=6u8 {
        for cap in 1..=4usize {
            model_check(windows, cap);
        }
    }
}

// ---------------------------------------------------------------------
// Part 2: stress + determinism on the real executor
// ---------------------------------------------------------------------

fn coupled(cells: u64, gap: SimDuration) -> (Coupling<CycleCosim>, CollectorHandle) {
    let mut net = Kernel::new(11);
    let node = net.add_node("stress");
    let mut sync = ConservativeSync::new();
    let cell_type = sync.register_type(SimDuration::from_ns(20) * 53);
    let (iface_proc, outbox) = CastanetInterfaceProcess::new(cell_type);
    let iface = net.add_module(node, "castanet", Box::new(iface_proc));
    let (collector, got) = CollectorProcess::new();
    let sink = net.add_module(node, "sink", Box::new(collector));
    net.connect_stream(iface, PortId(1), sink, PortId(0))
        .unwrap();
    let mut at = SimTime::ZERO;
    for k in 0..cells {
        at += gap;
        let cell = AtmCell::user_data(VpiVci::uni(1, 40).unwrap(), [(k % 251) as u8; 48]);
        net.inject_packet(iface, PortId(0), response_packet(cell), at)
            .unwrap();
    }

    let mut switch = AtmSwitchRtl::new(SwitchRtlConfig {
        ports: 2,
        fifo_capacity: 256,
        table_capacity: 16,
    });
    assert!(switch.install_route(1, 40, 1, 7, 70));
    let bank = LaneBank::new(vec![Box::new(switch)]);
    let mut follower =
        CycleCosim::new(bank, SimDuration::from_ns(20), cell_type, HeaderFormat::Uni);
    follower
        .add_ingress(IngressIndices {
            data: 0,
            sync: 1,
            enable: 2,
        })
        .unwrap();
    follower
        .add_ingress(IngressIndices {
            data: 3,
            sync: 4,
            enable: 5,
        })
        .unwrap();
    follower
        .add_egress(EgressIndices {
            data: 0,
            sync: 1,
            valid: 2,
        })
        .unwrap();
    follower
        .add_egress(EgressIndices {
            data: 3,
            sync: 4,
            valid: 5,
        })
        .unwrap();
    (
        Coupling::new(net, follower, sync, cell_type, iface, outbox),
        got,
    )
}

fn run_once(cells: u64, window: SimDuration, depth: usize) -> Vec<AtmCell> {
    let (serial, got) = coupled(cells, SimDuration::from_us(2));
    let mut coupling = serial.into_parallel().with_batching(window, depth);
    let stats = coupling.run(SimTime::from_ms(2)).expect("run");
    assert_eq!(stats.responses, cells);
    assert_eq!(stats.late_responses, 0);
    got.take()
        .into_iter()
        .map(|(_, pkt)| pkt.payload::<AtmCell>().expect("cell").clone())
        .collect()
}

#[test]
fn depth_one_backpressure_stress_completes_and_is_deterministic() {
    // Depth 1 with windows narrower than the cell gap forces the
    // originator to block on every single send — the harshest schedule
    // the bounded channel can produce.
    let first = run_once(120, SimDuration::from_us(1), 1);
    assert_eq!(first.len(), 120);
    let second = run_once(120, SimDuration::from_us(1), 1);
    assert_eq!(first, second, "repeated runs must be bit-identical");
}

#[test]
fn depth_one_keeps_at_most_one_window_in_flight() {
    // Replies are absorbed one per pipeline-full stall, so a stall ends
    // with `depth - 1` windows still in flight. At depth 1 any stall that
    // ends with a window still outstanding means two were in flight.
    let (serial, got) = coupled(40, SimDuration::from_us(2));
    let tel = Telemetry::enabled();
    let mut coupling = serial
        .with_telemetry(&tel)
        .into_parallel()
        .with_batching(SimDuration::from_us(1), 1);
    coupling.run(SimTime::from_ms(2)).expect("run");
    assert_eq!(got.len(), 40);
    let stalls: Vec<u64> = tel
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::BackpressureStall { in_flight } => Some(in_flight),
            _ => None,
        })
        .collect();
    assert!(!stalls.is_empty(), "depth 1 never filled the pipeline");
    assert!(
        stalls.iter().all(|&n| n == 0),
        "a stall left windows in flight at depth 1: {stalls:?}"
    );
}

#[test]
fn wide_window_deep_channel_stress_matches_the_tight_configuration() {
    // The opposite extreme — everything in flight at once — must observe
    // the same cells in the same order.
    let tight = run_once(60, SimDuration::from_us(1), 1);
    let wide = run_once(60, SimDuration::from_ms(1), 8);
    assert_eq!(tight, wide);
}
